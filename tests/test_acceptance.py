"""Acceptance suite: one test per exit criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they complete.  Tolerances are pinned here, not configurable:
oracle comparisons are exact, equilibrium checks use the analytic tail
bound below 1e-3, tally assertions are exact integers, utility dominance
exact rationals.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from dynacct.evolving_graph import (EvolvingGraph, GraphFamily,
                                    ObservationModel, RoundGraph,
                                    check_timely_punishments,
                                    indistinguishable_at,
                                    is_indistinguishable_round, po_set,
                                    punishment_opportunities)
from dynacct.game_core import tail_bound
from dynacct.protocols import ALL_NEIGHBORS, SigmaGen, defect_at_rounds
from dynacct.scenarios import (builtin, complete_graph, general_defaults,
                               ring_graph, valuable_defaults)
from dynacct.verifier import (SimConfig, _simulate_machines, assert_gen_facts,
                              build_machines, expected_punishments,
                              run_paired_defection, verify_cooperation,
                              verify_one_shot)

from . import oracles
from .conftest import random_family, run_cli_subprocess
from .test_evolving_graph import (causally_influences,
                                  causally_influences_excluding)

ND = ObservationModel.NEIGHBORS_AND_DEGREES
NO = ObservationModel.NEIGHBORS_ONLY


def _report(num, name, started):
    print(f"\nACCEPTANCE {num} {name}: PASS ({time.time() - started:.1f}s)")


def criterion2_families():
    k3 = GraphFamily(3, (EvolvingGraph((), (complete_graph(3),), "k3"),), ND, 8)
    chord = RoundGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    ring_chord = GraphFamily(4, (EvolvingGraph((), (chord,), "ring_chord"),), ND, 8)
    k4 = GraphFamily(4, (EvolvingGraph((), (complete_graph(4),), "k4"),), ND, 8)
    return [k3, ring_chord, k4]


def gen_config(family, horizon=1500):
    return SimConfig(family=family, member=family.members[0].name,
                     strategies={a: "sigma_gen" for a in range(family.n)},
                     horizon=horizon, params=general_defaults())


def test_criterion_1_predicate_oracle_equivalence():
    started = time.time()
    rng = random.Random(118999)
    families = 0
    while families < 200:
        fam = random_family(rng, n=rng.randint(2, 5),
                            members=rng.randint(1, 4), horizon=12)
        families += 1
        g = fam.members[rng.randrange(len(fam.members))]
        n = fam.n
        # causal influence: full (source, target) quantification per member,
        # with and without interference from a sampled agent
        for j in range(n):
            for m in range(1, 7):
                reach = oracles.oracle_reach_map(g, j, m, 9)
                i = rng.choice([a for a in range(n) if a != j])
                reach_ex = oracles.oracle_reach_map(g, j, m, 9, exclude=i)
                for l in range(n):
                    for m2 in range(m, 10):
                        assert causally_influences(g, j, m, l, m2) == \
                            ((l, m2) in reach)
                        assert causally_influences_excluding(g, i, j, m, l, m2) \
                            == ((l, m2) in reach_ex and l != i)
        # punishment opportunities: every edge up to round 6
        for m in range(1, 7):
            for i in range(n):
                for j in sorted(g.at(m).neighbors(i)):
                    until = m + rng.randint(1, 4)
                    assert punishment_opportunities(g, i, j, m, until) == \
                        oracles.oracle_punishment_opportunities(g, i, j, m, until)
        # po sets: every agent and anchor round, sampled window
        for i in range(n):
            for m in range(1, 6):
                rho = rng.randint(1, 4)
                assert po_set(g, i, rho, m) == oracles.oracle_po_set(g, i, rho, m)
        # timeliness, full quantification both sides
        rho = rng.randint(1, 4)
        verdict = check_timely_punishments(fam, rho)
        witness = oracles.oracle_timely(fam, rho)
        assert verdict.holds == (witness is None)
        if witness is not None:
            assert verdict.counterexample == witness
        # indistinguishable rounds
        for _ in range(2):
            i, m, rho = rng.randrange(n), rng.randint(1, 4), rng.randint(2, 4)
            mine = is_indistinguishable_round(fam, g, i, rho, m)
            ref = oracles.oracle_indistinguishable_round(fam, g, i, rho, m)
            assert (mine is None) == (ref is None)
            if mine is not None:
                assert (mine[0].name, mine[1].name) == (ref[0].name, ref[1].name)
    elapsed = time.time() - started
    assert elapsed < 60, f"criterion 1 exceeded its runtime budget: {elapsed:.1f}s"
    _report(1, "predicate-oracle equivalence on 200 random families", started)


def test_criterion_2_general_protocol_equilibrium():
    started = time.time()
    for fam in criterion2_families():
        cfg = gen_config(fam)
        ok, witness = verify_cooperation(cfg)
        assert ok, witness
        for i in range(fam.n):
            rep = verify_one_shot(cfg, i, robust_depth=2)
            assert rep.verdict, (fam.members[0].name, i, rep.to_json())
            assert rep.max_gain <= rep.tolerance
            assert rep.tolerance < Fraction(1, 1000), float(rep.tolerance)
    _report(2, "bounded tally protocol passes one-shot verification "
               "(3 connectivity families, depth 2, tail < 1e-3)", started)


def test_criterion_3_single_deviation_facts():
    started = time.time()
    for fam in criterion2_families():
        n = fam.n
        horizon = 2 * n + n * n + 2
        cfg = gen_config(fam, horizon=horizon)
        g = fam.members[0]
        for i in range(n):
            for m in range(1, 2 * n + 1):
                nbrs = sorted(g.at(m).neighbors(i))
                subsets = [frozenset(c) for r in range(1, len(nbrs) + 1)
                           for c in itertools.combinations(nbrs, r)]
                for sub in subsets:
                    targets = (ALL_NEIGHBORS if sub == frozenset(nbrs)
                               else sub)
                    pair = run_paired_defection(cfg, i, m, targets)
                    rep = assert_gen_facts(cfg, pair, m)
                    assert rep.passed, (fam.members[0].name, i, m,
                                        sorted(sub), rep.to_json())
    _report(3, "facts F1-F6 hold for every single-defection paired run",
            started)


def test_criterion_4_evasive_defection_flagged(tmp_path):
    started = time.time()
    sc = builtin("timely_violation")
    sc.validate()
    cfg = sc.sim_config()
    cands = [{k: v for k, v in c.items() if k != "agent"}
             for c in sc.candidates if c["agent"] == 1]
    rep = verify_one_shot(cfg, 1, robust_depth=2, candidates=cands)
    assert not rep.verdict
    assert rep.tolerance < Fraction(1, 1000)
    assert rep.max_gain >= 1 - rep.tolerance > 0
    assert rep.witness["origin"] == "candidate"
    assert "single_evasive" in rep.witness["override"]
    # and the command-line verdict is exit status 1 with the same witness
    import contextlib
    import io

    from dynacct.cli import main
    out = tmp_path / "timely_violation_verify.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["verify", "--scenario", "timely_violation",
                     "--out", str(out)])
    assert code == 1
    with open(out) as fh:
        doc = json.load(fh)
    assert "single_evasive" in str(doc["one_shot"]["1"]["witness"]["override"])
    _report(4, "evasive defection on the timeliness-violating family nets "
               "gain >= 1 - tail, exit status 1", started)


def test_criterion_5_valuable_protocol_equilibrium():
    started = time.time()
    k3 = GraphFamily(3, (EvolvingGraph((), (complete_graph(3),), "k3"),), NO, 8)
    pairs = GraphFamily(
        4, (EvolvingGraph((), (RoundGraph.from_pairs(4, [(0, 1), (2, 3)]),),
                          "pairs"),), NO, 8)
    # the second family is disconnected yet satisfies timely punishments
    from dynacct.evolving_graph import (check_connectivity_restriction,
                                        timely_certificate)
    assert not oracles.oracle_connected_without(pairs.members[0].at(1), 0)
    for fam in (k3, pairs):
        rho = timely_certificate(fam)
        assert rho == 2
        params = valuable_defaults(fam.n, rho)
        params.validate_for(fam.n, rho)
        cfg = SimConfig(family=fam, member=fam.members[0].name,
                        strategies={a: {"strategy": "sigma_val", "rho": rho}
                                    for a in range(fam.n)},
                        horizon=1700, params=params)
        ok, witness = verify_cooperation(cfg)
        assert ok, witness
        for i in range(fam.n):
            rep = verify_one_shot(cfg, i, robust_depth=2)
            assert rep.verdict, (fam.members[0].name, i, rep.to_json())
            assert rep.tolerance < Fraction(1, 1000)
    _report(5, "proportional-punishment protocol passes on two timely "
               "families (one non-connected), tail < 1e-3", started)


def test_criterion_6_indistinguishability_reproduction():
    started = time.time()
    sc = builtin("fig3_indist")
    fam = sc.family
    g1, g2, g3 = fam.member("G1"), fam.member("G2"), fam.member("G3")
    # (a) both caption claims under neighbour-only observation
    assert indistinguishable_at(g3, g1, 1, 3, NO)
    assert indistinguishable_at(g3, g2, 2, 3, NO)
    # (a') flips to false under degree observation
    assert not indistinguishable_at(g3, g1, 1, 3, ND)
    assert not indistinguishable_at(g3, g2, 2, 3, ND)
    # (b) the witness pair at m = 1
    w = is_indistinguishable_round(fam, g3, 0, 3, 1)
    assert w is not None and (w[0].name, w[1].name) == ("G1", "G2")
    # (c) one defection of the single round-1 neighbour (k = 1) raises the
    # expected punishments by 2 per indistinguishable round
    assert g3.at(1).degree(0) == 1
    base = builtin("fig3_indist").sim_config(horizon=12)
    assert expected_punishments(base, 0, 1, 3) == 0
    dev = builtin("fig3_indist")
    dev.strategies[0] = {"deviation": {
        "kind": "defect_at_rounds", "rounds": [1, 4, 7],
        "base": {"strategy": "accusation_punisher", "rho": 3}}}
    cfg = dev.sim_config(horizon=12)
    for m in (1, 4, 7):
        assert expected_punishments(cfg, 0, m, 3) == 2
    _report(6, "indistinguishable-round reproduction: caption claims, "
               "witness at m=1, +2 punishments per defection at k=1", started)


def test_criterion_7_boundedness_and_drain():
    started = time.time()
    rng = random.Random(77)
    for fam in criterion2_families():
        n = fam.n
        bound = SigmaGen.static_state_bound(n)
        for trial in range(4):
            burst_agents = rng.sample(range(n), rng.randint(1, 2))
            last_dev = 0
            machines = build_machines(gen_config(fam, horizon=8))
            for a in burst_agents:
                rounds = sorted(rng.sample(range(1, 7), rng.randint(1, 3)))
                machines[a] = defect_at_rounds(machines[a], rounds)
                last_dev = max(last_dev, rounds[-1])
            horizon = last_dev + n * n + 1
            cfg = gen_config(fam, horizon=horizon)
            trace = _simulate_machines(cfg, machines)
            for (a, m), snap in trace.state_log.items():
                pend = dict((tuple(k), v) for k, v in snap["pend"])
                assert all(0 <= v <= n - 1 for v in pend.values())
                assert len(snap["pend"]) + len(snap["acc"]) <= bound
                if m >= last_dev + n * n:
                    assert snap["pend"] == [], (fam.members[0].name, a, m)
    _report(7, "tallies drain to zero within n^2 of the last deviation, "
               "state stays within its static bound", started)


def test_criterion_8_determinism(tmp_path):
    started = time.time()
    blobs = []
    for k, hashseed in enumerate(("0", "31337")):
        stem = str(tmp_path / f"acc8_run{k}")
        run_cli_subprocess(
            ["simulate", "--scenario", "ring_connectivity", "--horizon", "20",
             "--seed", "123", "--deviate", "agent=2,defect_all,round=3",
             "--out", stem],
            cwd=tmp_path, hashseed=hashseed)
        blobs.append((open(stem + ".jsonl", "rb").read(),
                      open(stem + ".csv", "rb").read()))
    assert blobs[0] == blobs[1]
    _report(8, "seeded simulation is byte-identical across runs and "
               "interpreter hash seeds", started)
