"""One group of a pass over a workload's jobs, in a fresh interpreter.

    PYTHONPATH=src python3 bench/one_pass.py --workload verify_gen --seed 1 \\
        --family-seed 1 --group 0 --groups 3

Builds the workload's groups, runs group ``--group`` once in the order the
seed gives it, checks each output against the expected answers, and
prints one JSON line: the monotonic times at which the interpreter was
about to import dynacct and at which the first job started (the caller
subtracts its launch time from both), the summed job wall time, the job
count and the failures.  The pinned answers are read only after the last
job, so they weigh on neither interval.  ``--trace-out DIR`` records
per-layer spans, writes them to DIR and adds their summary to the line.
``--probe`` stops before the first job and prints only the two times, so
the caller can sample start-up and set-up without running a job.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--family-seed", type=int, required=True)
    p.add_argument("--group", type=int, required=True)
    p.add_argument("--groups", type=int, required=True,
                   help="groups the caller expects the workload to have")
    p.add_argument("--trace-out", default=None)
    p.add_argument("--probe", action="store_true",
                   help="stop before the first job")
    args = p.parse_args(argv)

    ready_at = time.monotonic()
    recorder = installed = None
    if args.trace_out:
        import tracing
        recorder = tracing.Recorder()
        untrace_imports = tracing.trace_imports(recorder)
    import workloads  # imports dynacct
    if recorder is not None:
        untrace_imports()
        installed = tracing.install(recorder)

    groups = len(workloads.build_groups(args.workload, args.family_seed))
    if groups != args.groups:
        print(f"error: {args.workload} has {groups} groups, "
              f"not {args.groups}", file=sys.stderr)
        return 2
    jobs = workloads.ordered_group(args.workload, args.seed, args.family_seed,
                                   args.group)
    first_job_at = time.monotonic()
    if args.probe:
        print(json.dumps({"ready_at": ready_at, "first_job_at": first_job_at}))
        return 0

    wall = 0.0
    done = []          # (job, hand-written check's problem, summary)
    failures = []
    for job in jobs:
        started = time.perf_counter()
        try:
            out = job.run()
        except Exception as e:  # a raising or refusing job is a failed job
            wall += time.perf_counter() - started
            traceback.print_exc()
            failures.append([job.key, f"raised {type(e).__name__}: {e}"])
            continue
        wall += time.perf_counter() - started
        done.append((job, job.check(out),
                     json.loads(json.dumps(job.summarize(out)))))
        del out

    result = {"ready_at": ready_at, "first_job_at": first_job_at,
              "wall_s": wall, "jobs": len(jobs)}
    if recorder is not None:
        installed.restore()
        result["wrappers_left"] = tracing.wrappers_left()
        recorder.write(args.trace_out)
        result["trace"] = tracing.recorder_summary(recorder)

    section = workloads.expected_section(args.workload, args.family_seed)
    with open(os.path.join(HERE, "expected", section + ".json"),
              encoding="utf-8") as fh:
        expected = json.load(fh)
    for job, problem, summary in done:
        problem = workloads.judge(job, problem, summary, expected)
        if problem:
            failures.append([job.key, problem])
    result["failures"] = failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
