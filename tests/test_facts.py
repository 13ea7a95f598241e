"""``facts.gen_facts`` against ``oracles.reference_gen_facts``.

``gen_facts`` skips what cannot fail: snapshot pairs with equal tally or
report lists, punish-mass rounds whose tallies are equal at every
neighbour of the deviator, and the sort of the bounded-state walk.  The
reference compares everything in order, so the two reports must be equal
on every input: paired defections that share the honest run's snapshots,
independent runs that share none, the flat reference machine's uncapped
mutant, and pairs whose snapshots are replaced by edited copies that break
one fact each.
"""

from __future__ import annotations

import copy
import random

import pytest

from dynacct.evolving_graph import (EvolvingGraph, GraphFamily,
                                    check_connectivity_restriction)
from dynacct.facts import gen_facts
from dynacct.protocols import ALL_NEIGHBORS, ScheduledDefector, SigmaGen
from dynacct.scenarios import complete_graph, ring_graph
from dynacct.verifier import (_simulate_machines, build_machines,
                              run_paired_defection)

from .oracles import FlatSigmaGen, reference_gen_facts
from .test_paired import (connectivity_families, defections, k3_family,
                          paired_cfg, ring_chord_family)
from .test_verifier import ND, gen_cfg


def same_report(cfg, pair, m):
    """gen_facts' report, after checking it equals the reference's."""
    got = gen_facts(cfg, pair, m)
    assert got.to_json() == reference_gen_facts(cfg, pair, m).to_json()
    return got


@pytest.mark.parametrize("family", [k3_family, ring_chord_family])
def test_gen_facts_matches_reference_on_paired_defections(family):
    cfg = paired_cfg(family())
    jobs = 0
    for i, m, targets in defections(cfg):
        assert same_report(cfg, run_paired_defection(cfg, i, m, targets),
                           m).passed
        jobs += 1
    assert jobs == {3: 54, 4: 160}[cfg.family.n]


def test_gen_facts_matches_reference_on_random_connectivity_families(rng):
    for fam in connectivity_families(rng, 3):
        cfg = paired_cfg(fam)
        for i, m, targets in defections(cfg):
            same_report(cfg, run_paired_defection(cfg, i, m, targets), m)


def test_gen_facts_matches_reference_on_unshared_runs():
    # both runs simulated in full from fresh machines, the deviating run's
    # snapshots deep-copied (equal states share one cached snapshot): no
    # snapshot object is in both traces, so every pair is compared by its
    # lists
    cfg = paired_cfg(k3_family())
    conform = _simulate_machines(cfg, build_machines(cfg, honest_only=True))
    for i in range(3):
        for m in range(1, 7):
            for targets in (ALL_NEIGHBORS, *({j} for j in range(3) if j != i)):
                ms = build_machines(cfg, honest_only=True)
                ms[i] = ScheduledDefector(ms[i], {m: targets}, sincere=True)
                deviate = _simulate_machines(cfg, ms)
                deviate.state_log = copy.deepcopy(deviate.state_log)
                assert not any(deviate.state_log[k] is s
                               for k, s in conform.state_log.items())
                assert same_report(cfg, (conform, deviate), m).passed


F6 = "F6_punishment_mass_window"


@pytest.mark.parametrize("cap,inflate,broken", [
    (True, 1, {F6}), (True, 9, {F6}), (False, 0, set()), (False, 1, {F6}),
    (False, 9, {F6, "bounded_state"})])
def test_gen_facts_matches_reference_on_flat_mutants(cap, inflate, broken):
    # the flat reference machine, with or without its cap, and one gossiper
    # inflating the tallies it sends: the deviator is punished too much or
    # too late, and without the cap honest tallies pass n - 1
    fam = GraphFamily(4, (EvolvingGraph((), (ring_graph(4),), "r"),), ND, 8)
    cfg = gen_cfg(fam, horizon=30)
    conform = _simulate_machines(cfg, {a: SigmaGen(a, 4) for a in range(4)})
    ms = {a: FlatSigmaGen(a, 4, _cap=cap) for a in range(4)}
    ms[1] = FlatSigmaGen(1, 4, _cap=cap, _pend_payload_inflate=inflate)
    ms[0] = ScheduledDefector(ms[0], {2: ALL_NEIGHBORS}, sincere=True)
    deviate = _simulate_machines(cfg, ms)
    rep = same_report(cfg, (conform, deviate), 2)
    assert {k for k, v in rep.facts.items() if v is not None} == broken


# ---------------------------------------------------------------------------
# Edited snapshots: agent 0 defects on both neighbours in round 1 of k3, at
# horizon 17; the deviating run has rejoined the honest run by round 9.  A
# snapshot is never edited in place (the honest run's are shared by every
# pair of the config): the trace's own log gets an edited copy.
# ---------------------------------------------------------------------------

I, M0, N, LAST = 0, 1, 3, 17


def tallies(snap) -> dict:
    return {tuple(k): v for k, v in snap["pend"]}


def with_tally(log, key, subject, residue, value):
    pend = tallies(log[key])
    pend[(subject, residue)] = value
    log[key] = dict(log[key], pend=sorted(pend.items()))


def raise_tally(log, key, subject, residue):
    with_tally(log, key, subject, residue,
               tallies(log[key]).get((subject, residue), 0) + 1)


def with_report(log, key, report, verdict):
    acc = [e for e in log[key]["acc"] if tuple(e[0]) != report]
    log[key] = dict(log[key], acc=sorted(acc + [(report, verdict)]))


def f3_tally(C, D):
    # a tally about i at round 17's residue, whose represented round 17 is
    # not m plus a multiple of n
    raise_tally(D, (1, LAST), I, (M0 + 1) % N)
    return "F3_other_rounds_untouched", "agent 1 end of 17: pend[0][17]"


def f3_report(C, D):
    # agent 1's own report about i from round 17 turns bad
    assert ((1, I, LAST), "good") in D[(1, LAST)]["acc"]
    with_report(D, (1, LAST), (1, I, LAST), "bad")
    return "F3_other_rounds_untouched", "report (1, 0, 17) differs"


def f3_report_beside_m(C, D):
    # agent 1's report about i from round 2 turns bad where agent 2's bad
    # report from round m already differs, and sorts after it: round m's
    # own reports are exempt, so the message names round 2's
    assert ((2, I, M0), "bad") in D[(1, 2)]["acc"]
    assert ((2, I, M0), "good") in C[(1, 2)]["acc"]
    with_report(D, (1, 2), (1, I, 2), "bad")
    return "F3_other_rounds_untouched", "agent 1 end of 2: report (1, 0, 2)"


def f4(C, D):
    # the conforming run's tally for round m itself exceeds the deviating
    # run's: the residue of m is exempt from F3, not from F4
    raise_tally(C, (1, M0), I, M0 % N)
    return "F4_pend_dominance", "agent 1 end of 1: pend[0] 0 < 1"


def f5(C, D):
    # the conforming run punishes i more in round 16, which is m mod n
    raise_tally(C, (1, 15), I, 16 % N)
    return "F5_round_utility_dominance", "round 16: deviating punish mass"


def f6_late(C, D):
    # one neighbour of i still punishes it after m + n^2 = 10 (the other
    # neighbour's tallies stay equal)
    raise_tally(D, (1, 15), I, 16 % N)
    return F6, "round 16 > m+n^2 still differs"


def f6_mass(C, D):
    # half a punishment more inside the window
    raise_tally(D, (2, 9), I, 10 % N)
    return F6, "extra expected punishments 5/2"


def bounded_tally(C, D):
    # three tallies outside [0, n-1] about agent 1: the sorted walk names
    # agent 0's (i's relabelled snapshot), logged after agent 2's and
    # before agent 1's
    with_tally(D, (2, 3), 1, 0, N)
    with_tally(D, (0, 14), 1, 0, N)
    with_tally(D, (1, 16), 1, 0, N)
    return "bounded_state", "agent 0 end of 14: tally outside [0, n-1]"


def bounded_negative(C, D):
    with_tally(D, (2, 12), 1, 0, -1)
    return "bounded_state", "agent 2 end of 12: tally outside [0, n-1]"


def bounded_size(C, D):
    # reports about agent 2 from rounds long past, beyond the static bound
    bound = SigmaGen.static_state_bound(N)
    for r in range(100, 100 + bound):
        with_report(D, (1, 12), (0, 2, r), "good")
    return "bounded_state", f"agent 1 state exceeds {bound} entries"


def bounded_tally_before_size(C, D):
    # one snapshot both too large and with a tally outside [0, n-1]: the
    # tally is named
    bounded_size(C, D)
    with_tally(D, (1, 12), 1, 0, N)
    return "bounded_state", "agent 1 end of 12: tally outside [0, n-1]"


def bounded_conforming_first(C, D):
    # a violation in the conforming trace is named before any in the
    # deviating trace, even one at a smaller (agent, round)
    with_tally(D, (0, 3), 1, 0, N)
    bound = SigmaGen.static_state_bound(N)
    for r in range(100, 100 + bound):
        with_report(C, (2, 12), (0, 1, r), "good")
    return "bounded_state", f"agent 2 state exceeds {bound} entries"


EDITS = [f3_tally, f3_report, f3_report_beside_m, f4, f5, f6_late, f6_mass,
         bounded_tally, bounded_negative, bounded_size,
         bounded_tally_before_size, bounded_conforming_first]


@pytest.mark.parametrize("edit", EDITS, ids=lambda e: e.__name__)
def test_gen_facts_matches_reference_on_edited_snapshots(edit):
    cfg = paired_cfg(k3_family())
    pair = run_paired_defection(cfg, I, M0, ALL_NEIGHBORS)
    assert same_report(cfg, pair, M0).passed
    C, D = (t.state_log for t in pair)
    assert all(D[(a, M)] is C[(a, M)] for a in (1, 2) for M in range(9, 18))
    honest = cfg._honest_run.trace.state_log
    before = copy.deepcopy(honest)
    fact, message = edit(C, D)
    rep = same_report(cfg, pair, M0)
    assert message in rep.facts[fact], rep.to_json()
    # the cached honest run is untouched: a new pair passes again
    assert honest == before
    assert same_report(cfg, run_paired_defection(cfg, I, M0, ALL_NEIGHBORS),
                       M0).passed


def k4_ring_family() -> GraphFamily:
    """K4 and the 4-ring in turn: every agent's degree goes 3, 2, 3, ...,
    so the punish masses of one window have two denominators."""
    return GraphFamily(4, (EvolvingGraph((), (complete_graph(4),
                                              ring_graph(4)), "k4_ring"),),
                       ND, 8)


def shared_round(cfg, C, D, i, rounds, degree):
    """The first of ``rounds`` at which i has ``degree`` neighbours, each
    ending the round before with one snapshot in both logs."""
    rg = cfg.graph.at
    return next(M for M in rounds if rg(M).degree(i) == degree
                and all(C[(j, M - 1)] is D[(j, M - 1)]
                        for j in rg(M).neighbors(i)))


@pytest.mark.parametrize("broken", ["F5", "F6_late", "F6_window"])
def test_integer_punish_masses_over_changing_degrees(broken):
    # agent 0 defects on all neighbours in round 1 of the time-varying
    # family: its degree in the window 1..17 is 3 or 2 by round.  One
    # tally about 0 is raised at a neighbour that ends round M-1 with the
    # same snapshot in both runs: in the conforming run (F5 fails at M),
    # or in the deviating run after the window (F6 fails late) or inside
    # it at a round of degree 2, so the window's mass is 3 + 1/2
    cfg = paired_cfg(k4_ring_family())
    assert check_connectivity_restriction(cfg.family).holds
    i, m, n = 0, 1, 4
    pair = run_paired_defection(cfg, i, m, ALL_NEIGHBORS)
    assert {cfg.graph.at(M).degree(i) for M in range(m, m + n * n + 1)} == {2, 3}
    assert same_report(cfg, pair, m).passed
    C, D = (t.state_log for t in pair)
    window = range(m + 2, m + n * n + 1)
    late = range(m + n * n + 1, cfg.horizon + 1)
    if broken == "F5":
        M = shared_round(cfg, C, D, i, window, 2)
        raise_tally(C, (1, M - 1), i, M % n)
        fact, message = "F5_round_utility_dominance", (
            f"round {M}: deviating punish mass 0 < conforming 1/2")
    elif broken == "F6_late":
        M = shared_round(cfg, C, D, i, late, 3)
        raise_tally(D, (1, M - 1), i, M % n)
        fact, message = F6, f"round {M} > m+n^2 still differs (1/3 vs 0)"
    else:
        M = shared_round(cfg, C, D, i, window, 2)
        raise_tally(D, (1, M - 1), i, M % n)
        fact, message = F6, "extra expected punishments 7/2 != deg 3"
    rep = same_report(cfg, pair, m)
    assert rep.facts[fact] == message, rep.to_json()


def test_conforming_bounded_state_is_checked_per_log():
    # each conforming log is checked as it is: a tally out of range in the
    # first pair's log carries over neither to a later pair's clean log nor
    # to one with another violation
    cfg = paired_cfg(k3_family())
    pair = run_paired_defection(cfg, I, M0, ALL_NEIGHBORS)
    with_tally(pair[0].state_log, (2, 5), 1, 0, N)
    rep = same_report(cfg, pair, M0)
    assert rep.facts["bounded_state"] == "agent 2 end of 5: tally outside [0, n-1]"
    pair = run_paired_defection(cfg, I, M0, ALL_NEIGHBORS)
    assert same_report(cfg, pair, M0).passed
    with_tally(pair[0].state_log, (1, 7), 1, 0, -1)
    rep = same_report(cfg, pair, M0)
    assert rep.facts["bounded_state"] == "agent 1 end of 7: tally outside [0, n-1]"


def test_gen_facts_matches_reference_on_random_edits():
    # random tally and report edits on random pairs of the ring_chord
    # family: whatever breaks, both report it the same way
    rng = random.Random(7)     # breaks a fact in 50+ of the 150 pairs
    cfg = paired_cfg(ring_chord_family())
    jobs = list(defections(cfg))
    failed = 0
    for _ in range(150):
        i, m, targets = rng.choice(jobs)
        pair = run_paired_defection(cfg, i, m, targets)
        log = rng.choice(pair).state_log
        for _ in range(rng.randint(1, 3)):
            key = (rng.randrange(4), rng.randint(m, cfg.horizon))
            if rng.random() < 0.5:
                with_tally(log, key, rng.randrange(4), rng.randrange(4),
                           rng.randint(0, 4))
            else:
                v, s = rng.sample(range(4), 2)
                with_report(log, key, (v, s, rng.randint(1, cfg.horizon)),
                            rng.choice(["good", "bad"]))
        failed += not same_report(cfg, pair, m).passed
    assert failed > 50
