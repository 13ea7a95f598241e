"""Record the pinned answers in expected/<section>.json.

    PYTHONPATH=src:. python3 bench/record_expected.py

Runs every job of every workload once (both predicate family seeds) and
stores each output's summary.  Run it only at a commit whose outputs are
known good: the pins exist so that later changes cannot move them.  The
hand-written checks must pass before anything is written.  Every
predicate verdict is also cross-checked against the independent networkx
oracles in tests/oracles.py (``is_unsafe`` has no oracle); disagreements
do not block the pins, which record what the package answers, but are
written to oracle_disagreements.json so they stay visible until fixed.
To check that the package still gives the pinned answers, re-record and
run ``git diff --exit-code bench/expected bench/oracle_disagreements.json``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

import workloads  # noqa: E402  (needs src on the path)
from run import ALT_FAMILY_SEED, DEFAULT_FAMILY_SEED, GROUPS  # noqa: E402


def oracle_problems(fam, out) -> list[str]:
    """Disagreements between the package's predicate verdicts and the
    brute-force oracles on one family."""
    from tests import oracles

    problems = []
    cert = out["timely_certificate"]
    for rho in range(1, (cert or fam.horizon) + 1):
        holds = oracles.oracle_timely(fam, rho) is None
        if holds != (rho == cert):
            problems.append(f"timely rho={rho}: oracle says {holds}")
    nd = fam.observation is workloads.ND
    conn = nd and all(oracles.oracle_connected_without(g.at(m), i)
                      for g in fam.members for m in range(1, g.period + 1)
                      for i in range(fam.n))
    if conn != out["connectivity"].holds:
        problems.append(f"connectivity: oracle says {conn}")
    first = next(((g.name, i, m) for m in range(1, fam.horizon + 1)
                  for g in fam.members for i in range(fam.n)
                  if oracles.oracle_indistinguishable_round(
                      fam, g, i, workloads.PREDICATE_RHO, m) is not None),
                 None)
    ev = out["eventual_dist"]
    mine = None if ev.holds else (ev.counterexample["member"],
                                  ev.counterexample["agent"],
                                  ev.counterexample["round"])
    if first != mine:
        problems.append(f"eventual_dist: oracle first witness {first}, got {mine}")
    for (g, i, j, m), w in zip(workloads.early_edges(fam), out["ambiguous_po"]):
        ref = oracles.oracle_ambiguous_po(fam, g, i, j, m)
        if (ref is None) != (w is None):
            problems.append(f"ambiguous_po {g.name} {i}-{j}@{m}: oracle {ref}")
        elif w is not None and not oracles.oracle_partition_valid(
                fam, w[0], i, j, m, w[1][0], w[1][1]):
            problems.append(f"ambiguous_po {g.name} {i}-{j}@{m}: invalid partition")
    return problems


def record() -> tuple[dict, list[str], list[str]]:
    pinned, problems, disagreements = {}, [], []
    sections = [(w, DEFAULT_FAMILY_SEED) for w in GROUPS]
    sections.append(("predicates", ALT_FAMILY_SEED))
    for workload, family_seed in sections:
        section = workloads.expected_section(workload, family_seed)
        jobs = [job for group in workloads.build_groups(workload, family_seed)
                for job in group]
        families = (workloads.predicate_families(family_seed)
                    if workload == "predicates" else None)
        pinned[section] = {}
        for k, job in enumerate(jobs):
            out = job.run()
            problem = job.check(out)
            if problem:
                problems.append(f"{section} {job.key}: {problem}")
            if families is not None:
                disagreements += [f"{section} {job.key}: {p}"
                                  for p in oracle_problems(families[k], out)]
            pinned[section][job.key] = json.loads(json.dumps(job.summarize(out)))
        print(f"{section}: {len(jobs)} jobs", file=sys.stderr)
    return pinned, problems, disagreements


def main() -> int:
    pinned, problems, disagreements = record()
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"{len(disagreements)} disagreements with the oracles",
          file=sys.stderr)
    files = {os.path.join("expected", section + ".json"): doc
             for section, doc in pinned.items()}
    files["oracle_disagreements.json"] = disagreements
    for name, doc in files.items():
        with open(os.path.join(HERE, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
