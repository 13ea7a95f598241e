from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynacct.evolving_graph import (EvolvingGraph, FamilyFormatError,
                                    GraphFamily, ObservationModel, RoundGraph,
                                    _bits, _reach, _until_final,
                                    check_connectivity_restriction,
                                    check_eventual_distinguishability,
                                    check_timely_punishments, family_from_dict,
                                    family_to_dict,
                                    indistinguishable_at, is_ambiguous_po,
                                    is_indistinguishable_round, is_unsafe,
                                    local_view, po_set,
                                    punishment_opportunities,
                                    timely_certificate)
from dynacct.scenarios import (_fig2_family, _fig3_family, _ring_family,
                               _timely_violation_family, _unsafe_family,
                               complete_graph, ring_graph)

from .conftest import random_evolving_graph, random_family, random_round_graph
from . import oracles

NO = ObservationModel.NEIGHBORS_ONLY
ND = ObservationModel.NEIGHBORS_AND_DEGREES


def rg(n, *edges):
    return RoundGraph.from_pairs(n, edges)


# Causal influence between (agent, round) points, stepped by the package's
# one temporal reach, ``_reach``; only tests ask it, so it lives here.
def causally_influences(g: EvolvingGraph, j: int, m: int, l: int,
                        m2: int) -> bool:
    """True iff information at (j, m) can reach (l, m2) forward in time."""
    return _influences(g, j, m, l, m2, -1)


def causally_influences_excluding(g: EvolvingGraph, i: int, j: int, m: int,
                                  l: int, m2: int) -> bool:
    """Causal influence where agent i neither relays nor receives."""
    if i == j:
        raise ValueError("excluded agent must differ from the source")
    return _influences(g, j, m, l, m2, ~(1 << i))


def _influences(g: EvolvingGraph, j: int, m: int, l: int, m2: int,
                keep: int) -> bool:
    """Whether (j, m)'s news can be at (l, m2), received only by ``keep``."""
    if m < 1 or m2 < 1:
        raise ValueError("rounds are 1-indexed")
    if m >= m2:
        return False
    if j == l:
        return True
    for t, got in _reach(g, j, m, keep):
        if t == m2:
            return bool(got >> l & 1)


def test_graph_at_prefix_and_cycle_convention():
    a, b, c = rg(2, (0, 1)), rg(2), rg(2, (0, 1))
    g = EvolvingGraph(prefix=(a,), cycle=(b, c))
    assert g.at(1) is a
    assert g.at(2) is b
    assert g.at(3) is c
    # (4 - 1 - 1) % 2 == 0 picks the first cycle entry again
    assert g.at(4) is b
    const = EvolvingGraph(prefix=(), cycle=(a,))
    for m in (1, 2, 7, 30):
        assert const.at(m) is a


def test_graph_at_rejects_round_zero():
    g = EvolvingGraph(prefix=(), cycle=(rg(2, (0, 1)),))
    with pytest.raises(ValueError):
        g.at(0)


def test_round_graph_validation():
    with pytest.raises(ValueError):
        RoundGraph(2, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        RoundGraph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        EvolvingGraph(prefix=(), cycle=())


# ---------------------------------------------------------------------------
# causal influence
# ---------------------------------------------------------------------------

def test_influence_fig3():
    g3 = _fig3_family().member("G3")
    # agent 1 (meets 2 at round 2) influences agent 2 by round 3
    assert causally_influences(g3, 1, 1, 2, 3)
    assert causally_influences_excluding(g3, 0, 1, 1, 2, 3)


def test_influence_reflexive_forward_step():
    g = random_evolving_graph(random.Random(5), 4, "g")
    assert causally_influences(g, 2, 3, 2, 4)
    assert not causally_influences(g, 2, 3, 2, 3)


def test_influence_excluding_cut_vertex():
    # line j - i - l every round: everything crosses i
    line = EvolvingGraph(prefix=(), cycle=(rg(3, (0, 1), (1, 2)),))
    assert causally_influences(line, 0, 1, 2, 3)
    assert not causally_influences_excluding(line, 1, 0, 1, 2, 3)


def test_influence_excluding_requires_distinct_agents():
    g = _fig3_family().member("G1")
    with pytest.raises(ValueError):
        causally_influences_excluding(g, 1, 1, 1, 2, 3)


def test_influence_matches_oracle_randomly(rng):
    for _ in range(40):
        g = random_evolving_graph(rng, rng.randint(2, 5), "g")
        n = g.n
        for _ in range(30):
            j, l = rng.randrange(n), rng.randrange(n)
            m = rng.randint(1, 8)
            m2 = rng.randint(1, 8)
            assert causally_influences(g, j, m, l, m2) == \
                oracles.oracle_influences(g, j, m, l, m2)
            i = rng.choice([a for a in range(n) if a != j])
            assert causally_influences_excluding(g, i, j, m, l, m2) == \
                oracles.oracle_influences(g, j, m, l, m2, exclude=i)


def test_exclusion_weakening(rng):
    # removing relays never adds paths
    for _ in range(30):
        g = random_evolving_graph(rng, 5, "g")
        j, l = rng.randrange(5), rng.randrange(5)
        i = rng.choice([a for a in range(5) if a != j])
        m, m2 = rng.randint(1, 6), rng.randint(2, 9)
        if causally_influences_excluding(g, i, j, m, l, m2):
            assert causally_influences(g, j, m, l, m2)


def test_temporal_monotonicity(rng):
    for _ in range(30):
        g = random_evolving_graph(rng, 4, "g")
        j, l = rng.randrange(4), rng.randrange(4)
        m, m2, m3 = sorted(rng.sample(range(1, 10), 3))
        if causally_influences(g, j, m, l, m2) and causally_influences(g, l, m2, l, m3):
            assert causally_influences(g, j, m, l, m3)


# ---------------------------------------------------------------------------
# punishment opportunities
# ---------------------------------------------------------------------------

def test_po_fig3_g2():
    g2 = _fig3_family().member("G2")
    assert punishment_opportunities(g2, 0, 1, 1, 3) == {(2, 3)}


def test_po_requires_edge():
    g2 = _fig3_family().member("G2")
    with pytest.raises(ValueError):
        punishment_opportunities(g2, 0, 2, 1, 3)


def test_po_isolated_agent_empty():
    g = EvolvingGraph(prefix=(rg(3, (0, 1)),), cycle=(rg(3, (1, 2)),))
    assert punishment_opportunities(g, 0, 1, 1, 9) == set()


def test_po_matches_oracle_randomly(rng):
    for _ in range(30):
        g = random_evolving_graph(rng, 5, "g")
        for m in range(1, 6):
            for i in range(5):
                for j in sorted(g.at(m).neighbors(i)):
                    until = m + rng.randint(1, 5)
                    assert punishment_opportunities(g, i, j, m, until) == \
                        oracles.oracle_punishment_opportunities(g, i, j, m, until)


def test_po_set_fig3():
    g3 = _fig3_family().member("G3")
    assert po_set(g3, 0, 3, 1) == {(1, 3), (2, 3)}


def test_po_set_rho_one_empty(rng):
    g = random_evolving_graph(rng, 4, "g")
    assert po_set(g, 0, 1, 3) == set()


def test_po_set_matches_oracle_and_is_monotone(rng):
    for _ in range(20):
        g = random_evolving_graph(rng, 4, "g")
        i = rng.randrange(4)
        m = rng.randint(1, 5)
        rho = rng.randint(1, 5)
        assert po_set(g, i, rho, m) == oracles.oracle_po_set(g, i, rho, m)
        assert po_set(g, i, rho, m) <= po_set(g, i, rho + 1, m)


# ---------------------------------------------------------------------------
# timely punishments
# ---------------------------------------------------------------------------

def test_timely_ring():
    fam = _ring_family(4)
    assert check_timely_punishments(fam, 4).holds
    assert timely_certificate(fam) == 2


def test_timely_one_meeting_fails():
    g = EvolvingGraph(prefix=(rg(3, (0, 1)),), cycle=(rg(3),))
    fam = GraphFamily(3, (g,), NO, 8)
    v = check_timely_punishments(fam, 5)
    assert not v.holds
    assert v.counterexample == {"member": 0, "agent": 0, "edge": [1, 1]}


def test_timely_fig2_certificate():
    # agent 0's round-1 edge gets its first opportunity at round 3 (so any
    # certificate needs rho >= 3); the partner's own first opportunity only
    # arrives at round 4, making 4 the family certificate
    fam = _fig2_family()
    g = fam.member("G")
    assert punishment_opportunities(g, 0, 1, 1, 3) == {(3, 3)}
    assert timely_certificate(fam) == 4
    v = check_timely_punishments(fam, 2)
    assert not v.holds and v.counterexample["edge"] == [1, 1]


def test_timely_monotone_in_rho(rng):
    for _ in range(15):
        fam = random_family(rng, n=4, members=1, horizon=8)
        held = False
        for rho in range(1, 9):
            ok = check_timely_punishments(fam, rho).holds
            if held:
                assert ok
            held = held or ok


def test_timely_matches_oracle(rng):
    for _ in range(15):
        fam = random_family(rng, n=rng.randint(2, 4), members=2, horizon=8)
        rho = rng.randint(1, 6)
        v = check_timely_punishments(fam, rho)
        witness = oracles.oracle_timely(fam, rho)
        assert v.holds == (witness is None)
        if witness is not None:
            assert v.counterexample == witness


def test_timely_certificate_is_smallest_passing_rho(rng):
    # the one-scan certificate against the oracle's smallest passing rho
    fams = [random_family(rng, n=rng.randint(2, 4), members=rng.randint(1, 2),
                          horizon=8) for _ in range(12)]
    fams.append(GraphFamily(3, (EvolvingGraph((), (rg(3),), "empty"),), NO, 6))
    fams.append(GraphFamily(2, (EvolvingGraph((rg(2), rg(2)), (rg(2),), "a"),
                                EvolvingGraph((), (rg(2), rg(2)), "b")), ND, 5))
    certificates = set()
    for fam in fams:
        want = next((rho for rho in range(1, fam.horizon + 1)
                     if oracles.oracle_timely(fam, rho) is None), None)
        assert timely_certificate(fam) == want
        certificates.add(want)
    assert {None, 1} < certificates and max(certificates - {None}) > 2


# ---------------------------------------------------------------------------
# connectivity restriction
# ---------------------------------------------------------------------------

def test_connectivity_complete_holds():
    for n in (3, 4, 5):
        fam = GraphFamily(n, (EvolvingGraph((), (complete_graph(n),), "k"),), ND, 6)
        assert check_connectivity_restriction(fam).holds


def test_connectivity_star_fails():
    star = rg(4, (0, 1), (0, 2), (0, 3))
    fam = GraphFamily(4, (EvolvingGraph((), (star,), "star"),), ND, 6)
    v = check_connectivity_restriction(fam)
    assert not v.holds and v.counterexample["agent"] == 0


def test_connectivity_ring5_holds_but_isolated_vertex_fails():
    fam = GraphFamily(5, (EvolvingGraph((), (ring_graph(5),), "r5"),), ND, 6)
    assert check_connectivity_restriction(fam).holds
    ring_plus_isolated = RoundGraph.from_pairs(
        6, [(i, (i + 1) % 5) for i in range(5)])
    fam6 = GraphFamily(6, (EvolvingGraph((), (ring_plus_isolated,), "r5+1"),), ND, 6)
    assert not check_connectivity_restriction(fam6).holds


def test_connectivity_needs_degree_observation():
    fam = GraphFamily(3, (EvolvingGraph((), (complete_graph(3),), "k"),), NO, 6)
    v = check_connectivity_restriction(fam)
    assert not v.holds and "observation" in v.counterexample["reason"]


def test_connectivity_matches_oracle(rng):
    for _ in range(25):
        fam = random_family(rng, n=rng.randint(2, 5), members=1, horizon=8)
        g = fam.members[0]
        for m in range(1, g.period + 1):
            for i in range(fam.n):
                from dynacct.evolving_graph import _connected_without
                assert _connected_without(g.at(m), i) == \
                    oracles.oracle_connected_without(g.at(m), i)


# ---------------------------------------------------------------------------
# views and indistinguishability
# ---------------------------------------------------------------------------

def test_local_view_ring():
    fam = _ring_family(4)
    g = fam.members[0]
    v = local_view(g, 0, 1, NO)
    assert v.neighbors == {1, 3} and v.neighbor_degrees is None
    vd = local_view(g, 0, 1, ND)
    assert vd.neighbor_degrees == {1: 2, 3: 2}


def test_local_view_fig3():
    g1 = _fig3_family().member("G1")
    assert local_view(g1, 1, 3, NO).neighbors == {0}


def test_indistinguishable_identity(rng):
    g = random_evolving_graph(rng, 4, "g")
    assert indistinguishable_at(g, g, 2, 5, ND)


def test_indistinguishable_fig3_caption():
    fam = _fig3_family()
    g1, g2, g3 = fam.members
    assert indistinguishable_at(g3, g1, 1, 3, NO)
    assert indistinguishable_at(g3, g2, 2, 3, NO)
    # degree observation separates them: agent 0's round-3 degree differs
    assert not indistinguishable_at(g3, g1, 1, 3, ND)
    assert not indistinguishable_at(g3, g2, 2, 3, ND)


def test_indistinguishable_symmetric_and_matches_oracle(rng):
    for _ in range(12):
        n = rng.randint(2, 4)
        a = random_evolving_graph(rng, n, "a")
        b = random_evolving_graph(rng, n, "b")
        i = rng.randrange(n)
        m = rng.randint(1, 5)
        for obs in (NO, ND):
            lhs = indistinguishable_at(a, b, i, m, obs)
            assert lhs == indistinguishable_at(b, a, i, m, obs)
            assert lhs == oracles.oracle_indistinguishable_at(a, b, i, m, obs)


def test_indistinguishable_deep_rounds_match_oracle(rng):
    # pairs that differ in one round graph, prefix of at least 2 rounds, and
    # every m up to the horizon: the backward sweep reaches the prefix
    answers = set()
    for _ in range(10):
        n = rng.randint(2, 4)
        prefix = tuple(random_round_graph(rng, n)
                       for _ in range(rng.randint(2, 4)))
        cycle = tuple(random_round_graph(rng, n)
                      for _ in range(rng.randint(1, 3)))
        rounds = list(prefix + cycle)
        rounds[rng.randrange(len(rounds))] = random_round_graph(rng, n)
        a = EvolvingGraph(prefix, cycle, "a")
        b = EvolvingGraph(tuple(rounds[:len(prefix)]),
                          tuple(rounds[len(prefix):]), "b")
        horizon = a.period + len(cycle)
        for i in range(n):
            for m in range(1, horizon + 1):
                for obs in (NO, ND):
                    lhs = indistinguishable_at(a, b, i, m, obs)
                    assert lhs == oracles.oracle_indistinguishable_at(
                        a, b, i, m, obs), (i, m, obs)
                    answers.add((lhs, m > 5))
    assert answers == {(False, False), (False, True), (True, False),
                       (True, True)}


def test_agreement_table_matches_oracle_in_any_query_order(rng):
    # indistinguishable_at reads one table of separating agents per
    # (g2, obs), kept on g and extended on demand: queries in shuffled order
    # over reused graphs, both observation models on every pair, rounds
    # past the horizon and a g2 equal in content to a but a distinct object
    # all answer as the cone-by-cone oracle does
    answers = set()
    for _ in range(5):
        n = rng.randint(3, 4)
        a = random_evolving_graph(rng, n, "a")
        rounds = list(a.prefix + a.cycle)
        rounds[rng.randrange(len(rounds))] = random_round_graph(rng, n)
        b = EvolvingGraph(tuple(rounds[:len(a.prefix)]),
                          tuple(rounds[len(a.prefix):]), "b")
        twin = EvolvingGraph(a.prefix, a.cycle, "a")
        assert twin == a and twin is not a
        graphs = (a, b, twin)
        horizon = a.period
        queries = [(g, g2, i, m, obs) for g in graphs for g2 in graphs
                   for i in range(n) for m in range(1, horizon + 4)
                   for obs in (NO, ND)]
        rng.shuffle(queries)
        for q in queries[:120]:
            lhs = indistinguishable_at(*q)
            assert lhs == oracles.oracle_indistinguishable_at(*q), q[2:]
            answers.add((lhs, q[3] > horizon))
    assert answers == {(False, False), (False, True), (True, False),
                       (True, True)}


def test_indistinguishable_round_fig3():
    fam = _fig3_family()
    g3 = fam.member("G3")
    w = is_indistinguishable_round(fam, g3, 0, 3, 1)
    assert w is not None and (w[0].name, w[1].name) == ("G1", "G2")
    assert po_set(fam.member("G1"), 0, 3, 1) == {(1, 3)}
    assert po_set(fam.member("G2"), 0, 3, 1) == {(2, 3)}


def test_indistinguishable_round_singleton_family():
    fam = _ring_family(4)
    g = fam.members[0]
    assert is_indistinguishable_round(fam, g, 0, 3, 1) is None


def test_indistinguishable_round_isolated_agent():
    g = EvolvingGraph(prefix=(rg(3, (1, 2)),), cycle=(rg(3, (1, 2)),), name="iso")
    fam = GraphFamily(3, (g,), NO, 6)
    assert is_indistinguishable_round(fam, g, 0, 3, 1) is None


def test_indistinguishable_round_matches_oracle(rng):
    for _ in range(12):
        fam = random_family(rng, n=rng.randint(2, 4), members=rng.randint(1, 3),
                            horizon=10)
        g = fam.members[rng.randrange(len(fam.members))]
        i = rng.randrange(fam.n)
        m = rng.randint(1, 4)
        rho = rng.randint(2, 4)
        mine = is_indistinguishable_round(fam, g, i, rho, m)
        theirs = oracles.oracle_indistinguishable_round(fam, g, i, rho, m)
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert (mine[0].name, mine[1].name) == (theirs[0].name, theirs[1].name)


def test_indistinguishable_round_matches_oracle_when_members_share_a_name(rng):
    # members are told apart by position, not by name: every member of these
    # families is named "g", so witnesses are compared by member index
    def index(fam, w):
        return None if w is None else tuple(
            next(k for k, c in enumerate(fam.members) if c is g) for g in w)

    witnesses = 0
    for _ in range(20):
        base = random_family(rng, n=rng.randint(2, 4),
                             members=rng.randint(2, 3), horizon=10)
        fam = GraphFamily(base.n, tuple(EvolvingGraph(g.prefix, g.cycle, "g")
                                        for g in base.members),
                          base.observation, base.horizon)
        m, rho = rng.randint(1, 4), rng.randint(2, 4)
        for g in fam.members:
            for i in range(fam.n):
                theirs = oracles.oracle_indistinguishable_round(fam, g, i, rho, m)
                assert index(fam, is_indistinguishable_round(
                    fam, g, i, rho, m)) == index(fam, theirs), (i, m, rho)
                witnesses += theirs is not None
    assert witnesses >= 10


def test_eventual_distinguishability_computes_each_po_set_once(rng,
                                                               monkeypatch):
    # the check's verdict is that of is_indistinguishable_round over every
    # (round, member, agent) in order, while each member's PO set of i at
    # round m is computed at most once, not once per member checked
    import dynacct.evolving_graph as eg
    calls = []
    real_po_set = eg.po_set

    def recorded(g, i, rho, m):
        calls.append((g.name, i, m))
        return real_po_set(g, i, rho, m)

    holds = 0
    for _ in range(16):
        fam = random_family(rng, n=rng.randint(2, 4),
                            members=rng.randint(1, 3), horizon=6)
        rho, m_star = rng.randint(2, 3), rng.randint(0, 2)
        want = None
        for m in range(m_star + 1, fam.horizon + 1):
            for gi, g in enumerate(fam.members):
                for i in range(fam.n):
                    w = is_indistinguishable_round(fam, g, i, rho, m)
                    if w is not None and want is None:
                        want = {"member": g.name, "agent": i, "round": m,
                                "witness": [w[0].name, w[1].name]}
        calls.clear()
        monkeypatch.setattr(eg, "po_set", recorded)
        v = check_eventual_distinguishability(fam, rho, m_star)
        monkeypatch.setattr(eg, "po_set", real_po_set)
        assert v.holds == (want is None)
        assert v.counterexample == want
        assert len(calls) == len(set(calls))
        holds += v.holds
    assert holds > 0


def test_eventual_distinguishability_fig3_fails_everywhere():
    fam = _fig3_family()
    for m_star in (0, 3, 6):
        v = check_eventual_distinguishability(fam, 3, m_star)
        assert not v.holds
        assert v.counterexample["round"] == m_star + 1


@pytest.mark.parametrize("m_star", [-3, -1, 13])
def test_eventual_distinguishability_refuses_m_star_outside_the_horizon(m_star):
    # rounds (m_star, horizon] are checked, so m_star must be in 0..horizon;
    # the refusal names m_star, not the round a scan would fail at
    fam = _fig3_family()
    assert fam.horizon == 12
    with pytest.raises(ValueError, match=f"m_star must be in 0..12 .*got {m_star}"):
        check_eventual_distinguishability(fam, 3, m_star)


@pytest.mark.parametrize("rho", [0, -3])
def test_eventual_distinguishability_refuses_rho_below_one(rho):
    # with m_star at the horizon no round is scanned, so no scan refuses it
    fam = _fig3_family()
    with pytest.raises(ValueError, match="rho must be >= 1"):
        check_eventual_distinguishability(fam, rho, fam.horizon)


def test_eventual_distinguishability_complete_with_degrees_holds():
    fam = GraphFamily(3, (EvolvingGraph((), (complete_graph(3),), "k"),), ND, 8)
    assert check_eventual_distinguishability(fam, 3, 0).holds


def test_eventual_distinguishability_edgeless_holds():
    fam = GraphFamily(3, (EvolvingGraph((), (rg(3),), "empty"),), NO, 8)
    assert check_eventual_distinguishability(fam, 3, 0).holds


# ---------------------------------------------------------------------------
# ambiguous punishment opportunities and unsafe graphs
# ---------------------------------------------------------------------------

def test_ambiguous_po_fig2():
    fam = _fig2_family()
    g = fam.member("G")
    w = is_ambiguous_po(fam, g, 0, 3, 3)
    assert w is not None
    cand, (n1, n2) = w
    assert cand.name == "Gp"
    assert (n1, n2) == ({1, 2}, {3, 4})
    assert oracles.oracle_ambiguous_po(fam, g, 0, 3, 3) is not None


def test_ambiguous_po_requires_edge_and_caps_n():
    fam = _fig2_family()
    g = fam.member("G")
    with pytest.raises(ValueError):
        is_ambiguous_po(fam, g, 0, 1, 3)   # no 0-1 edge at round 3
    # no agent cap: the crossing components come from union-find, not from
    # a search over partitions, so a 17-ring gets its answer
    ring = EvolvingGraph((), (ring_graph(17),), "ring")
    big = GraphFamily(17, (ring,), NO, 2)
    assert is_ambiguous_po(big, ring, 0, 1, 1) == (
        ring, (set(range(2, 16)), {1, 16}))


def test_ambiguous_po_complete_none():
    fam = GraphFamily(4, (EvolvingGraph((), (complete_graph(4),), "k"),), NO, 6)
    g = fam.members[0]
    assert is_ambiguous_po(fam, g, 0, 1, 2) is None
    assert oracles.oracle_ambiguous_po(fam, g, 0, 1, 2) is None


def test_ambiguous_po_vacuous_prior_edges_at_round_one():
    # at m=1 condition (3) quantifies an empty set of earlier edges
    two = EvolvingGraph((), (rg(4, (0, 1)), rg(4, (2, 3))), name="split")
    fam = GraphFamily(4, (two,), NO, 8)
    w = is_ambiguous_po(fam, two, 0, 1, 1)
    assert w is not None
    cand, (n1, n2) = w
    assert 1 in n2 and n1 | n2 == {1, 2, 3}


def test_ambiguous_po_same_on_fresh_and_reused_members(rng):
    # members keep their crossing components per agent across queries; a
    # reused family asked in shuffled order, with every returned partition
    # mutated, answers as fresh members asked one edge each
    witnesses = 0
    for _ in range(12):
        doc = family_to_dict(random_family(
            rng, n=rng.randint(3, 4), members=rng.randint(1, 3), horizon=10))
        reused = family_from_dict(doc, "family")
        edges = [(k, i, j, m) for k, g in enumerate(reused.members)
                 for m in range(1, 5) for i in range(reused.n)
                 for j in sorted(g.at(m).neighbors(i))]
        got = {}
        for (k, i, j, m) in rng.sample(edges, len(edges)):
            w = is_ambiguous_po(reused, reused.members[k], i, j, m)
            got[k, i, j, m] = w and (w[0].name, (set(w[1][0]), set(w[1][1])))
            if w is not None:
                w[1][0].add(i)
                w[1][1].clear()
        for (k, i, j, m) in edges:
            fresh = family_from_dict(doc, "family")
            w = is_ambiguous_po(fresh, fresh.members[k], i, j, m)
            assert got[k, i, j, m] == (w and (w[0].name, w[1])), (k, i, j, m)
            witnesses += w is not None
    assert witnesses > 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_reach_stabilisation_scans_a_cycle_after_the_prefix():
    # family seed 1, family 79 of the benchmark pool: in g2 the last prefix
    # round is quiet and the 1-round cycle carries 0's information to 2 at
    # round 4, so 2 joins at round 5 and then meets 1 at every round
    fam = GraphFamily(3, (
        EvolvingGraph((rg(3, (0, 1), (1, 2)),),
                      (rg(3, (1, 2)), rg(3, (0, 1)), rg(3, (0, 2))), "g0"),
        EvolvingGraph((rg(3, (0, 1), (0, 2), (1, 2)), rg(3, (0, 1), (0, 2)),
                       rg(3, (0, 1))), (rg(3, (0, 2), (1, 2)),), "g1"),
        EvolvingGraph((rg(3, (1, 2)), rg(3, (0, 1)), rg(3)),
                      (rg(3, (0, 2), (1, 2)),), "g2"),
    ), NO, 12)
    g2 = fam.member("g2")
    reach = _reach(g2, 0, 2, keep=~(1 << 1 | 1 << 0))
    joins, _ = _joins(_until_final(g2, reach))
    assert joins.get(2) == 5
    assert oracles.oracle_ambiguous_po(fam, g2, 1, 0, 2) is None
    assert is_ambiguous_po(fam, g2, 1, 0, 2) is None


def _joins(reach):
    """Each agent's first round in a reach's masks, and its last round."""
    joins, t = {}, 0
    for t, got in reach:
        for b in _bits(got):
            joins.setdefault(b, t)
    return joins, t


def test_mask_reaches_match_set_reaches(rng):
    # the one reach, stopped by the one stopping rule, returns the
    # set-based code's joins and stable rounds, its post-increment guards
    # (ROADMAP item 2) included, on random graphs and on 2+ prefix rounds
    # before a 1-round cycle, with excluded agents, blocked senders and
    # dropped steps.  The interference-free reach keeps src from receiving
    # its news back, and an excluded src spreads nothing
    for trial in range(300):
        n = rng.randint(2, 5)
        if trial % 3 == 0:
            g = EvolvingGraph(tuple(random_round_graph(rng, n)
                                    for _ in range(rng.randint(2, 4))),
                              (random_round_graph(rng, n),), "g")
        else:
            g = random_evolving_graph(rng, n, "g")
        src, exclude = rng.randrange(n), rng.randrange(n)
        m = rng.randint(1, g.period + 2)
        joins, stable = _joins(_until_final(g, _reach(
            g, src, m, keep=~(1 << exclude | 1 << src), blocked=1 << exclude)))
        assert ({src: m, **joins}, stable) == \
            oracles.set_stable_reach_with_joins(g, src, m, exclude)
        blocked = {a for a in range(n) if rng.random() < 0.3}
        t = rng.randint(m, m + g.period + 1)
        a = src if rng.random() < 0.5 else rng.randrange(n)
        nbrs = sorted(g.at(t).neighbors(a))
        b = rng.choice(nbrs) if nbrs and rng.random() < 0.8 \
            else rng.randrange(n)
        mask = sum(1 << x for x in blocked)
        assert _joins(_until_final(g, _reach(g, src, m, blocked=mask,
                                             dropped=(a, b, t)), after=t)) == \
            oracles.set_step_reached(g, src, m, blocked, (a, b, t))


def test_unsafe_three_agent_witness():
    fam = _unsafe_family()
    w = is_unsafe(fam.members[0], 3, fam.horizon)
    assert w == {"i": 0, "j": 1, "l": 2, "m": 1, "m1": 2, "m2": 3}


def test_unsafe_complete_none():
    g = EvolvingGraph((), (complete_graph(4),), name="k4")
    assert is_unsafe(g, 3, 10) is None


def test_unsafe_brute_force_agrees_on_builtins():
    g = _unsafe_family().members[0]
    assert oracles.brute_force_is_unsafe(g, 3, 12) == is_unsafe(g, 3, 12) \
        == {"i": 0, "j": 1, "l": 2, "m": 1, "m1": 2, "m2": 3}
    k4 = EvolvingGraph((), (complete_graph(4),), name="k4")
    assert oracles.brute_force_is_unsafe(k4, 3, 10) is None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_unsafe_route_check_counts_the_dropped_round_as_quiet():
    # is_unsafe answers (i, j, l, m, m1, m2) = (1, 2, 0, 1, 2, 3): the
    # quiet count of 0's news starts at the dropped round 3 itself, so
    # the one-round cycle ends the route check there.  But 0 reaches 1
    # at round 4 and 1 meets 2 at round 5, so the route is not cut
    g = EvolvingGraph((rg(3, (1, 2)), rg(3, (0, 2))),
                      (rg(3, (0, 1), (1, 2)),), "g")
    first = {"i": 0, "j": 2, "l": 1, "m": 2, "m1": 3, "m2": 4}
    assert oracles.brute_force_is_unsafe(g, 3, 12) == first
    assert is_unsafe(g, 3, 12) == first


@pytest.mark.parametrize("rho", [0, -2])
def test_unsafe_refuses_rho_below_one(rho):
    # with no round to scan, a window of rho < 1 would report "not unsafe"
    g = _unsafe_family().members[0]
    with pytest.raises(ValueError, match="rho must be >= 1"):
        is_unsafe(g, rho, 12)


def test_unsafe_no_il_edge_none():
    # l never meets i, so no witness configuration exists
    g = EvolvingGraph(
        prefix=(rg(3, (0, 1)), rg(3, (1, 2))),
        cycle=(rg(3, (0, 1)), rg(3, (1, 2))), name="no_il")
    assert is_unsafe(g, 3, 10) is None


# ---------------------------------------------------------------------------
# family files
# ---------------------------------------------------------------------------

def test_period_fold_matches_full_horizon_scans(rng):
    # the timeliness and unsafe scans stop at the period: a later
    # configuration is the phase twin of one a cycle earlier, so the
    # certificate, every counterexample and every witness equal those of
    # the set-based scans up to a horizon of three periods or more
    seen = set()
    for _ in range(30):
        n = rng.randint(3, 5)
        members = tuple(random_evolving_graph(rng, n, f"g{k}")
                        for k in range(rng.randint(1, 3)))
        periods = max(g.period for g in members)
        horizon = max(3 * periods, 4) + rng.randint(0, 2)
        fam = GraphFamily(n, members, rng.choice([NO, ND]), horizon)
        assert timely_certificate(fam) == \
            oracles.full_scan_timely_certificate(fam)
        for rho in range(1, 6):
            got = check_timely_punishments(fam, rho).to_json()
            assert got == oracles.full_scan_check_timely_punishments(
                fam, rho).to_json(), rho
            seen.add(("timely", got["holds"]))
        for g in members:
            for rho in range(2, 5):
                w = is_unsafe(g, rho, horizon)
                assert w == oracles.full_scan_is_unsafe(g, rho, horizon), rho
                seen.add(("unsafe", w is not None))
    assert seen == {("timely", True), ("timely", False), ("unsafe", True),
                    ("unsafe", False)}


def test_family_roundtrip():
    fam = _fig2_family()
    doc = family_to_dict(fam)
    fam2 = family_from_dict(doc, "family")
    assert family_to_dict(fam2) == doc


@pytest.mark.parametrize("mutate,where", [
    (lambda d: d["members"][0]["cycle"][0].append([0, 0]), "cycle[0].edges"),
    (lambda d: d["members"][0]["cycle"][0].append([0, 9]), "cycle[0].edges"),
    (lambda d: d.pop("horizon"), "missing field 'horizon'"),
    (lambda d: d.__setitem__("observation", "psychic"), "observation"),
    (lambda d: d["members"][2].__setitem__("name", "G1"),
     "members[2].name: duplicate member name 'G1'"),
    (lambda d: d["members"][1].__setitem__("name", ["G2"]),
     "members[1].name: must be a string"),
    # JSON true is no integer, though bool is an int subclass
    (lambda d: d["members"][0]["cycle"][0].append([True, 2]),
     "members[0].cycle[0].edges[1]: expected a pair of agent ids"),
    (lambda d: d.__setitem__("n", True), "family.n: must be a positive integer"),
    (lambda d: d.__setitem__("horizon", True),
     "family.horizon: must be a positive integer"),
])
def test_family_loader_positioned_errors(mutate, where):
    doc = family_to_dict(_fig3_family())
    mutate(doc)
    with pytest.raises(FamilyFormatError) as e:
        family_from_dict(doc, "family")
    assert where in str(e.value)


def test_family_horizon_invariant():
    g = EvolvingGraph((rg(2, (0, 1)),), (rg(2), rg(2)), name="g")
    with pytest.raises(ValueError):
        GraphFamily(2, (g,), NO, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_graph_at_hypothesis_periodicity(seed, n):
    r = random.Random(seed)
    g = random_evolving_graph(r, n, "g")
    P, L = len(g.prefix), len(g.cycle)
    for m in range(P + 1, P + 2 * L + 1):
        assert g.at(m) is g.at(m + L)


def test_po_set_window_shift_containment(rng):
    # shifting the anchor forward never reaches outside the widened window
    for _ in range(15):
        g = random_evolving_graph(rng, 4, "g")
        i = rng.randrange(4)
        m = rng.randint(1, 5)
        rho = rng.randint(1, 4)
        assert po_set(g, i, rho, m + 1) <= po_set(g, i, rho + 1, m)


def test_indistinguishable_round_vanishes_with_degrees():
    # the degree of the defector's round-3 partner separates the third
    # member from the other two, so the m=1 witness disappears
    from dynacct.scenarios import _fig3_family
    base = _fig3_family()
    fam = GraphFamily(base.n, base.members, ND, base.horizon)
    g3 = fam.member("G3")
    assert is_indistinguishable_round(fam, g3, 0, 3, 1) is None


def test_ambiguous_po_matches_exhaustive_oracle(rng):
    checked = 0
    attempts = 0
    while checked < 25 and attempts < 400:
        attempts += 1
        fam = random_family(rng, n=rng.randint(3, 4),
                            members=rng.randint(1, 3), horizon=10)
        g = fam.members[rng.randrange(len(fam.members))]
        m = rng.randint(1, 4)
        i = rng.randrange(fam.n)
        nbrs = sorted(g.at(m).neighbors(i))
        if not nbrs:
            continue
        j = rng.choice(nbrs)
        checked += 1
        mine = is_ambiguous_po(fam, g, i, j, m)
        ref = oracles.oracle_ambiguous_po(fam, g, i, j, m)
        assert (mine is None) == (ref is None), (i, j, m)
        if mine is not None:
            cand, (n1, n2) = mine
            assert oracles.oracle_partition_valid(fam, cand, i, j, m, n1, n2)
    assert checked == 25
