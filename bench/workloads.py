"""The benchmark's workloads: fixed job lists, their inputs, and the
expected answer each job's output is checked against.

A job is one call into the package.  Its ``run`` is the only timed part.
Afterwards the output is checked twice: ``check`` holds expectations
written by hand from the paper's claims (they do not come from the code
under test), and ``summarize`` reduces the output to exact strings and
SHA-256 digests that must equal the ones pinned in ``expected/``, so
a change that claims a speed-up cannot silently change a verdict, a
witness or a trace byte.

Jobs come in groups, and one interpreter runs one group: a family's
cooperation check and every agent's verification (what one ``dynacct
verify`` runs), one builtin scenario, a family's paired defections, or a
fixed quarter of the predicate pool.  Every module function is looked up
on its module when a job runs, so the span wrappers of a traced pass see
the calls.  The run seed only shuffles the job order inside each group;
the ``predicates`` families come from a separate family seed, because
their cost is heavy-tailed and a new pool per run would measure the pool,
not the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from dynacct import cli, evolving_graph, scenarios, verifier
from dynacct.evolving_graph import (EvolvingGraph, GraphFamily,
                                    ObservationModel, RoundGraph)
from dynacct.protocols import ALL_NEIGHBORS

PREDICATE_FAMILIES = 100       # about 2 s per pass on a 2-core box
PREDICATE_GROUPS = 4
PREDICATE_RHO = 3
TAIL_LIMIT = Fraction(1, 1000)

# Builtin verdicts as the paper's figures state them: exit status 0 pass,
# 1 fail with a witness.
BUILTIN_EXIT = {"ring_connectivity": 0, "fig3_indist": 0,
                "timely_violation": 1, "fig2_ambiguous": 1,
                "unsafe_three_agent": 1}

ND = ObservationModel.NEIGHBORS_AND_DEGREES


class Job(NamedTuple):
    key: str
    run: Callable[[], object]
    summarize: Callable[[object], object]
    check: Callable[[object], Optional[str]]


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# verify_gen: sigma_gen on the three connectivity families, depth 2
# ---------------------------------------------------------------------------

def gen_families() -> list[GraphFamily]:
    complete = scenarios.complete_graph
    chord = RoundGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    return [
        GraphFamily(3, (EvolvingGraph((), (complete(3),), "k3"),), ND, 8),
        GraphFamily(4, (EvolvingGraph((), (chord,), "ring_chord"),), ND, 8),
        GraphFamily(4, (EvolvingGraph((), (complete(4),), "k4"),), ND, 8),
    ]


def gen_config(family: GraphFamily, horizon: int) -> verifier.SimConfig:
    return verifier.SimConfig(
        family=family, member=family.members[0].name,
        strategies={a: "sigma_gen" for a in range(family.n)},
        horizon=horizon, params=scenarios.general_defaults())


def _coop_check(out) -> Optional[str]:
    ok, witness = out
    return None if ok and witness is None else f"on-path defection {witness}"


def _exact(x: Fraction) -> dict:
    # delta^1500 tolerances run to thousands of digits: pin a digest
    return {"sha256": hashlib.sha256(str(x).encode()).hexdigest(),
            "approx": float(x)}


def _report_summary(rep) -> dict:
    return {"max_gain": _exact(rep.max_gain), "tolerance": _exact(rep.tolerance),
            "verdict": rep.verdict, "checks": rep.checks,
            "witness_sha256": sha256_json(rep.witness)}


def _gen_check(rep) -> Optional[str]:
    if not rep.verdict or rep.max_gain > rep.tolerance:
        return f"profitable deviation, gain {rep.max_gain}"
    if rep.tolerance >= TAIL_LIMIT:
        return f"tail bound {rep.tolerance} not below 1e-3"
    return None


def verify_gen_groups() -> list[list[Job]]:
    groups = []
    for fam in gen_families():
        cfg = gen_config(fam, 1500)
        name = fam.members[0].name
        jobs = [Job(f"{name}/cooperation",
                    lambda cfg=cfg: verifier.verify_cooperation(cfg),
                    lambda out: [out[0], out[1]], _coop_check)]
        for i in range(fam.n):
            jobs.append(Job(
                f"{name}/agent{i}",
                lambda cfg=cfg, i=i: verifier.verify_one_shot(cfg, i, robust_depth=2),
                _report_summary, _gen_check))
        groups.append(jobs)
    return groups


# ---------------------------------------------------------------------------
# verify_builtins: the CLI's verify on every builtin scenario
# ---------------------------------------------------------------------------

def _cli_verify(name: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--scenario", name])
    return code, buf.getvalue()


def _builtin_check(name: str, out) -> Optional[str]:
    code, text = out
    if code != BUILTIN_EXIT[name]:
        return f"exit status {code}, expected {BUILTIN_EXIT[name]}"
    if name == "timely_violation":
        witness = json.loads(text)["one_shot"]["1"]["witness"]
        if "single_evasive" not in str(witness.get("override")):
            return f"witness is not single_evasive: {witness}"
    return None


def verify_builtins_groups() -> list[list[Job]]:
    return [[Job(name, lambda name=name: _cli_verify(name),
                 lambda out: {"exit": out[0],
                              "sha256": hashlib.sha256(out[1].encode()).hexdigest()},
                 lambda out, name=name: _builtin_check(name, out))]
            for name in sorted(BUILTIN_EXIT)]


# ---------------------------------------------------------------------------
# paired_facts: every single defection on the three families, facts F1-F6
# ---------------------------------------------------------------------------

def _action_text(a) -> str:
    return a.kind.value + (f"({a.c})" if a.c else "")


def trace_digest(trace) -> str:
    """SHA-256 over the actions, exact utilities and state snapshots."""
    h = hashlib.sha256()
    for m, profile in enumerate(trace.history.profiles, start=1):
        rec = {
            "actions": {str(i): {str(j): _action_text(a)
                                 for j, a in sorted(act.per_neighbor.items())}
                        for i, act in sorted(profile.actions.items())},
            "utilities": {str(i): str(trace.utility(i, m))
                          for i in sorted(profile.actions)},
            "state": {str(i): trace.state_log[(i, m)]
                      for i in sorted(profile.actions)
                      if trace.state_log and (i, m) in trace.state_log},
        }
        h.update(json.dumps(rec, sort_keys=True).encode())
    return h.hexdigest()


def _paired(cfg, i, m, targets):
    pair = verifier.run_paired_defection(cfg, i, m, targets)
    return pair, verifier.assert_gen_facts(cfg, pair, m)


def _paired_summary(out) -> dict:
    (conform, deviate), _ = out
    return {"conform": trace_digest(conform), "deviate": trace_digest(deviate)}


def paired_facts_groups() -> list[list[Job]]:
    groups = []
    for fam in gen_families():
        jobs = []
        n = fam.n
        cfg = gen_config(fam, 2 * n + n * n + 2)
        g = fam.members[0]
        for i in range(n):
            for m in range(1, 2 * n + 1):
                nbrs = sorted(g.at(m).neighbors(i))
                for r in range(1, len(nbrs) + 1):
                    for sub in itertools.combinations(nbrs, r):
                        targets = (ALL_NEIGHBORS if len(sub) == len(nbrs)
                                   else frozenset(sub))
                        jobs.append(Job(
                            f"{g.name}/i{i}/m{m}/{','.join(map(str, sub))}",
                            lambda cfg=cfg, i=i, m=m, t=targets: _paired(cfg, i, m, t),
                            _paired_summary,
                            lambda out: (None if out[1].passed
                                         else f"facts fail {out[1].to_json()}")))
        groups.append(jobs)
    return groups


# ---------------------------------------------------------------------------
# predicates: family checks on a seeded pool of random families
# ---------------------------------------------------------------------------

def _random_round_graph(rng: random.Random, n: int) -> RoundGraph:
    return RoundGraph.from_pairs(n, [(u, v) for u in range(n)
                                     for v in range(u + 1, n)
                                     if rng.random() < 0.45])


def predicate_families(family_seed: int) -> list[GraphFamily]:
    """Random families with 3-5 agents, 1-4 members, prefix 0-3 rounds,
    cycle 1-4 rounds, either observation model, horizon 12."""
    rng = random.Random(family_seed)
    out = []
    for _ in range(PREDICATE_FAMILIES):
        n = rng.randint(3, 5)
        obs = rng.choice([ObservationModel.NEIGHBORS_ONLY, ND])
        members = tuple(
            EvolvingGraph(
                prefix=tuple(_random_round_graph(rng, n)
                             for _ in range(rng.randint(0, 3))),
                cycle=tuple(_random_round_graph(rng, n)
                            for _ in range(rng.randint(1, 4))),
                name=f"g{k}")
            for k in range(rng.randint(1, 4)))
        horizon = max(12, max(g.period for g in members))
        out.append(GraphFamily(n=n, members=members, observation=obs,
                               horizon=horizon))
    return out


def early_edges(fam: GraphFamily) -> list[tuple[EvolvingGraph, int, int, int]]:
    """(member, i, j, m) for every i-edge in rounds 1 and 2."""
    return [(g, i, j, m) for g in fam.members for m in (1, 2)
            for i in range(fam.n) for j in sorted(g.at(m).neighbors(i))]


def run_predicates(fam: GraphFamily) -> dict:
    eg = evolving_graph
    return {
        "timely_certificate": eg.timely_certificate(fam),
        "connectivity": eg.check_connectivity_restriction(fam),
        "eventual_dist": eg.check_eventual_distinguishability(
            fam, PREDICATE_RHO, 0),
        "unsafe": [eg.is_unsafe(g, PREDICATE_RHO, fam.horizon)
                   for g in fam.members],
        "ambiguous_po": [eg.is_ambiguous_po(fam, g, i, j, m)
                         for (g, i, j, m) in early_edges(fam)],
    }


def predicates_summary(out: dict) -> dict:
    return {
        "timely_certificate": out["timely_certificate"],
        "connectivity": out["connectivity"].to_json(),
        "eventual_dist": out["eventual_dist"].to_json(),
        "unsafe": out["unsafe"],
        "ambiguous_po": {
            "edges": len(out["ambiguous_po"]),
            "ambiguous": sum(w is not None for w in out["ambiguous_po"]),
            "sha256": sha256_json([
                None if w is None
                else [w[0].name, sorted(w[1][0]), sorted(w[1][1])]
                for w in out["ambiguous_po"]])},
    }


def predicates_groups(family_seed: int) -> list[list[Job]]:
    jobs = [Job(f"family{k}", lambda fam=fam: run_predicates(fam),
                predicates_summary, lambda out: None)
            for k, fam in enumerate(predicate_families(family_seed))]
    size = len(jobs) // PREDICATE_GROUPS
    return [jobs[k * size:(k + 1) * size] for k in range(PREDICATE_GROUPS)]


# ---------------------------------------------------------------------------

def expected_section(workload: str, family_seed: int) -> str:
    """Name of the file in ``expected/`` (without ``.json``) that pins the
    workload's answers."""
    return f"predicates-{family_seed}" if workload == "predicates" else workload


def build_groups(workload: str, family_seed: int) -> list[list[Job]]:
    if workload == "verify_gen":
        return verify_gen_groups()
    if workload == "verify_builtins":
        return verify_builtins_groups()
    if workload == "paired_facts":
        return paired_facts_groups()
    if workload == "predicates":
        return predicates_groups(family_seed)
    raise ValueError(f"unknown workload {workload!r}")


def ordered_group(workload: str, seed: int, family_seed: int,
                  group: int) -> list[Job]:
    """One group's jobs in the order the run seed gives it."""
    jobs = build_groups(workload, family_seed)[group]
    random.Random(f"{seed}/{group}").shuffle(jobs)
    return jobs


def judge(job: Job, problem: Optional[str], summary, expected: dict) -> Optional[str]:
    """None when the output met the hand-written check (``problem``) and
    its summary equals the pinned one, else the reason."""
    if problem:
        return problem
    if job.key not in expected:
        return "no pinned answer"
    if summary != expected[job.key]:
        return f"differs from the pinned answer: {summary}"
    return None
