"""Time-to-verdict benchmark for dynacct.

    python3 bench/run.py --workload verify_gen --seed 1 --seconds 25 --trace 0

Closed loop from this single process.  A pass runs the workload's
fixed job list once, as ``GROUPS[workload]`` groups that each run in a
fresh interpreter, one after another, the way separate ``dynacct verify``
invocations would: users pay the cold cost on every invocation.  Another
pass starts only while it is expected to end within ``--seconds``, so
there is always at least one.  End-to-end times are rescaled to the box's
usual speed (``REFERENCE_STARTUP_S``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one plain
and one traced pass, interleaved group by group, and reports the
per-layer metrics.  The last
line of standard output is the result object; the exit status is 1 when
any job failed its expected answer.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Interpreters per pass (``workloads.build_groups``): one per family on
# verify_gen and paired_facts, one per builtin scenario, and four fixed
# quarters of the predicate pool.
GROUPS = {"verify_gen": 3, "verify_builtins": 5, "paired_facts": 3,
          "predicates": 4}
# Family seed of the ``predicates`` pool the benchmark is run with, and a
# second one held back so a claimed gain can be re-checked on a pool not
# used while the change was written.
DEFAULT_FAMILY_SEED = 1
ALT_FAMILY_SEED = 2
GROUP_TIMEOUT_S = 120
# Start-up time of a benchmark interpreter (launch until it is about to
# import dynacct: interpreter start and stdlib imports) on the 2-core box
# the benchmark was sized on, at its usual speed.  That box's speed drifts
# by up to 2x over minutes, and the drift moves start-up and job time
# together, so end-to-end times are rescaled by this constant over the
# run's median start-up time.  Nothing a change to src/ does can alter the
# start-up interval.
REFERENCE_STARTUP_S = 0.08
# After each group, one extra start-up and set-up sample (``one_pass.py
# --probe``) per this much job time, so that runs of few interpreters
# still get enough samples to take medians of.
PROBE_EVERY_S = 1.5

# per-layer metrics printed with --trace 1: calls counted at layer entry
COUNTED = (
    "cli.main", "verifier.verify_one_shot", "verifier.verify_cooperation",
    "verifier.run_paired_defection", "verifier.assert_gen_facts",
    "protocols.begin_round", "protocols.payload_for", "protocols.act",
    "protocols.end_round", "protocols.state_key", "game_core.round_utility",
    "game_core.profile_check", "game_core.cooperation_tail",
    "evolving_graph.local_view", "evolving_graph.timely_certificate",
    "evolving_graph.check_eventual_distinguishability",
    "evolving_graph.is_unsafe", "evolving_graph.is_ambiguous_po",
)


class PassFailed(RuntimeError):
    pass


def run_group(workload: str, seed: int, family_seed: int, group: int,
              extra: tuple[str, ...] = ()) -> dict:
    """Run one group in a fresh interpreter; adds its set-up and start-up
    times, taken from outside, to the interpreter's own report."""
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
           "--workload", workload, "--seed", str(seed),
           "--family-seed", str(family_seed),
           "--group", str(group), "--groups", str(GROUPS[workload]), *extra]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=GROUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise PassFailed(f"{workload} group {group} exceeded {GROUP_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise PassFailed(f"{workload} group {group} exited with {proc.returncode}")
    report = json.loads(out.decode().strip().splitlines()[-1])
    report["startup_s"] = report["ready_at"] - launched
    report["setup_s"] = report["first_job_at"] - launched
    return report


def pass_report(groups: list[dict], probes: list[dict] = ()) -> dict:
    """Sum the reports of the groups that together ran one pass."""
    return {"wall_s": sum(g["wall_s"] for g in groups),
            "jobs": sum(g["jobs"] for g in groups),
            "failures": [f for g in groups for f in g["failures"]],
            "setups": [g["setup_s"] for g in [*groups, *probes]],
            "startups": [g["startup_s"] for g in [*groups, *probes]]}


def run_pass(workload: str, seed: int, family_seed: int) -> dict:
    groups, probes = [], []
    for k in range(GROUPS[workload]):
        groups.append(run_group(workload, seed, family_seed, k))
        probes += [run_group(workload, seed, family_seed, k, ("--probe",))
                   for _ in range(int(groups[-1]["wall_s"] / PROBE_EVERY_S))]
    return pass_report(groups, probes)


def end_to_end(workload: str, seed: int, family_seed: int,
               seconds: float) -> tuple[list[dict], dict]:
    passes = []
    started = last = time.monotonic()
    while True:
        passes.append(run_pass(workload, seed, family_seed))
        now = time.monotonic()
        if now - started + (now - last) > seconds:
            break
        last = now
    # the kernel's high-water mark over every interpreter waited for
    peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    wall = statistics.median(p["wall_s"] for p in passes)
    setup = statistics.median(s for p in passes for s in p["setups"])
    startup = statistics.median(s for p in passes for s in p["startups"])
    print(f"unscaled wall_s {wall} setup_s {setup} startup_s {startup}")
    scale = REFERENCE_STARTUP_S / startup
    metrics = {
        "wall_s": (wall * scale, "s"),
        "setup_s": (setup * scale, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    return passes, metrics


def per_layer(workload: str, seed: int, family_seed: int) -> tuple[list[dict], dict]:
    """A plain and a traced pass, interleaved group by group so that the
    box's drift weighs on both alike."""
    out = os.path.join(ROOT, ".bench_out", f"spans-{workload}")
    plain, traced = [], []
    for k in range(GROUPS[workload]):
        plain.append(run_group(workload, seed, family_seed, k))
        traced.append(run_group(workload, seed, family_seed, k,
                                ("--trace-out", os.path.join(out, f"group{k}"))))
    left = [w for g in traced for w in g["wrappers_left"]]
    if left:
        raise PassFailed(f"wrappers not removed: {left}")
    trace = tracing.merge([g["trace"] for g in traced])
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(trace, fh, indent=1, sort_keys=True)
    plain, traced = pass_report(plain), pass_report(traced)

    funcs, layers = trace["functions"], trace["layers"]
    calls = {name: funcs.get(name, {}).get("calls", 0) for name in COUNTED}
    metrics = {f"{name}.calls": (calls[name], "count") for name in COUNTED}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.busy_s"] = (layers[layer]["busy_s"], "s")
        metrics[f"{layer}.self_s"] = (layers[layer]["self_s"], "s")
    ends = calls["protocols.end_round"]
    metrics["protocols.act_per_end_round"] = (
        calls["protocols.act"] / ends if ends else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (traced["wall_s"] / plain["wall_s"] - 1,
                                      "frac")
    return [plain, traced], metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="dynacct time-to-verdict benchmark")
    p.add_argument("--workload", required=True, choices=sorted(GROUPS))
    p.add_argument("--seed", type=int, required=True,
                   help="run seed; it fixes the job order")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--family-seed", type=int, default=DEFAULT_FAMILY_SEED,
                   help="seed of the predicates family pool "
                        f"(default {DEFAULT_FAMILY_SEED}; "
                        f"{ALT_FAMILY_SEED} is held back)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dynacct", "__init__.py")):
        print(f"error: no dynacct sources under {ROOT}/src", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} "
          f"family_seed {args.family_seed} trace {args.trace}", flush=True)
    try:
        if args.trace:
            passes, metrics = per_layer(args.workload, args.seed, args.family_seed)
        else:
            passes, metrics = end_to_end(args.workload, args.seed,
                                         args.family_seed, args.seconds)
    except PassFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    failures = [f for p in passes for f in p["failures"]]
    for key, reason in failures[:20]:
        print(f"FAILED {args.workload} {key}: {reason}", file=sys.stderr)
    print(f"passes {len(passes)} wall_s "
          f"{[round(p['wall_s'], 3) for p in passes]}", flush=True)
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p["jobs"] for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
