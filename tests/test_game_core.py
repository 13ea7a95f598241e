from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynacct.evolving_graph import EvolvingGraph, RoundGraph
from dynacct.game_core import (AVOID, COOPERATE, DEFECT, PUNISH, Action,
                               ActionKind, ActionProfile, History,
                               IndividualAction, Mode, Trace, UtilityParams,
                               cooperation_tail, discounted_utility,
                               prop_punish, round_utility, tail_bound)


def params(beta="2", alpha="0.1", pi="1.5", delta="0.5", mode=Mode.VALUABLE):
    return UtilityParams.make(beta, alpha, pi, delta, mode)


def profile(n, acts, m=1):
    rg = RoundGraph.from_pairs(n, [(u, v) for u in acts for v in acts[u]
                                   if u < v])
    return ActionProfile(m, {i: dict(acts.get(i, {})) for i in range(n)}), rg


def pair_profile(a01, a10, m=1, mode=Mode.VALUABLE, n=2):
    rg = RoundGraph.from_pairs(n, [(0, 1)])
    acts = {0: {1: a01}, 1: {0: a10}}
    for k in range(2, n):
        acts[k] = {}
    p = ActionProfile(m, acts)
    p.check(rg, mode)
    return p, rg


def test_mutual_cooperation():
    p, rg = pair_profile(COOPERATE, COOPERATE)
    u = round_utility(0, p, rg, params())
    assert u == Fraction(2) - 1 - Fraction("0.1") == Fraction("0.9")
    assert u == round_utility(1, p, rg, params())


def test_defector_against_cooperator():
    p, rg = pair_profile(DEFECT, COOPERATE)
    pr = params()
    assert round_utility(0, p, rg, pr) == pr.beta - pr.alpha
    assert round_utility(1, p, rg, pr) == -1


def test_proportional_punishment_value():
    p, rg = pair_profile(COOPERATE, prop_punish(3), n=5)
    u = round_utility(0, p, rg, params(beta="2", alpha="0.1", pi="1.5"))
    # 2 - 1 - 0.1 - 4.5, each term per the per-edge sum
    assert u == Fraction("-3.6")


def test_avoid_zeroes_the_edge():
    pr = params()
    for other in (COOPERATE, prop_punish(3), DEFECT):
        p, rg = pair_profile(AVOID, other, n=5)
        assert round_utility(0, p, rg, pr) == 0


def test_general_punish_nets_beta_minus_pi():
    pr = params(beta="1.2", alpha="0.1", pi="1.2", mode=Mode.GENERAL)
    p, rg = pair_profile(COOPERATE, PUNISH, mode=Mode.GENERAL)
    assert round_utility(0, p, rg, pr) == pr.beta - pr.alpha - pr.pi - 1


def test_mode_action_legality():
    with pytest.raises(ValueError):
        pair_profile(PUNISH, COOPERATE, mode=Mode.VALUABLE)
    with pytest.raises(ValueError):
        pair_profile(AVOID, COOPERATE, mode=Mode.GENERAL)
    with pytest.raises(ValueError):
        pair_profile(prop_punish(1), COOPERATE, mode=Mode.GENERAL)


def test_prop_punish_normalises_zero_weight():
    assert prop_punish(0) == COOPERATE
    with pytest.raises(ValueError):
        IndividualAction(ActionKind.COOPERATE, c=2)


def test_prop_punish_weight_capped_by_n():
    rg = RoundGraph.from_pairs(2, [(0, 1)])
    p = ActionProfile(1, {0: {1: prop_punish(2)}, 1: {0: COOPERATE}})
    with pytest.raises(ValueError):
        p.check(rg, Mode.VALUABLE)   # c=2 > n-1=1


def test_profile_holds_the_action_dicts_and_builds_actions_on_demand():
    # the profile keeps each agent's dict as given; ``actions`` wraps them
    # in ``Action``s on its first read and keeps them
    acts = {0: {1: DEFECT}, 1: {0: COOPERATE}}
    p = ActionProfile(4, acts)
    assert p.acts is acts and "actions" not in vars(p)
    assert p.actions == {0: Action(0, 4, acts[0]), 1: Action(1, 4, acts[1])}
    assert p.actions[1].per_neighbor is acts[1]
    assert p.actions is p.actions


def test_zero_interaction_round_contributes_zero():
    rg = RoundGraph.from_pairs(3, [])
    p = ActionProfile(1, {i: {} for i in range(3)})
    assert all(round_utility(i, p, rg, params()) == 0 for i in range(3))


def test_round_utility_additive_over_neighbors():
    rg = RoundGraph.from_pairs(3, [(0, 1), (0, 2)])
    pr = params()
    p = ActionProfile(1, {
        0: {1: COOPERATE, 2: DEFECT},
        1: {0: prop_punish(1)},
        2: {0: COOPERATE},
    })
    total = round_utility(0, p, rg, pr)
    # edge to 1: -1 + beta - alpha - pi ; edge to 2: beta - alpha
    e1 = -1 + pr.beta - pr.alpha - pr.pi
    e2 = pr.beta - pr.alpha
    assert total == e1 + e2


def _edge_by_rules(own, got, pr):
    """The module docstring's rules for one directed edge, term by term."""
    sending = (ActionKind.COOPERATE, ActionKind.PUNISH, ActionKind.PROP_PUNISH)
    send_cost = 1 if own.kind in sending else 0
    if own.kind is ActionKind.AVOID or got.kind not in sending:
        return -send_cost
    loss = {ActionKind.PROP_PUNISH: got.c * pr.pi,
            ActionKind.PUNISH: pr.pi}.get(got.kind, 0)
    return pr.beta - pr.alpha - loss - send_cost


MODE_ACTIONS = {
    Mode.GENERAL: lambda n: [COOPERATE, DEFECT, PUNISH],
    Mode.VALUABLE: lambda n: [COOPERATE, DEFECT, AVOID] + [
        IndividualAction(ActionKind.PROP_PUNISH, c) for c in range(n)],
}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("values", [("2", "0.1", "1.5", "0.5"),
                                    ("7/3", "1/5", "9/4", "9/10"),
                                    ("12", "0", "13", "1/3")])
def test_edge_table_equals_the_rules(mode, values):
    pr = UtilityParams.make(*values, mode)
    for n in (2, 3, 5):
        nums, over = pr.edge_numerators(n)
        assert pr.edge_numerators(n)[0] is nums    # built once per n
        actions = MODE_ACTIONS[mode](n)
        for own in actions:
            for got in actions:
                want = _edge_by_rules(own, got, pr)
                assert over[nums[own.code, got.code]] == want, (own, got)
                p, rg = pair_profile(own, got, mode=mode, n=n)
                assert round_utility(0, p, rg, pr) == want, (own, got)


def _constant_trace(u_per_round, rounds, delta="0.5"):
    h = History()
    utils = {}
    for m in range(1, rounds + 1):
        p, _ = pair_profile(COOPERATE, COOPERATE, m=m)
        h.append(p)
        utils[(0, m)] = Fraction(u_per_round)
        utils[(1, m)] = Fraction(u_per_round)
    return Trace(history=h, per_round_utilities=utils, rng_seed=0)


def test_discounted_single_round():
    t = _constant_trace(7, 1)
    assert discounted_utility(t, 0, 1, params()) == 7


def test_discounted_geometric_sum():
    pr = params(delta="0.5")
    H = 6
    t = _constant_trace(3, H)
    expect = Fraction(3) * (1 - pr.delta ** H) / (1 - pr.delta)
    assert discounted_utility(t, 0, 1, pr) == expect


def test_discounted_recursive_decomposition():
    pr = params(delta="0.9")
    rng = random.Random(3)
    t = _constant_trace(0, 8)
    for m in range(1, 9):
        t.per_round_utilities[(0, m)] = Fraction(rng.randint(-5, 5), 3)
    for start in range(1, 8):
        lhs = discounted_utility(t, 0, start, pr)
        rhs = t.per_round_utilities[(0, start)] + pr.delta * discounted_utility(
            t, 0, start + 1, pr)
        assert lhs == rhs


def test_discounted_utility_bounded_by_swing():
    pr = params(beta="2", alpha="0.1", pi="1.5", delta="0.9")
    t = _constant_trace(0, 10)
    rng = random.Random(4)
    n = 2
    y = pr.max_round_swing(n)
    for m in range(1, 11):
        t.per_round_utilities[(0, m)] = Fraction(rng.randint(-3, 3))
    assert abs(discounted_utility(t, 0, 1, pr)) <= y * n / (1 - pr.delta)


def test_deviation_arithmetic_bound():
    # one-round gain 1 beats a punishment delayed rho rounds whenever
    # delta^rho * y * n / (1 - delta) < 1
    pr = params(beta="2", alpha="0", pi="3", delta="0.3", mode=Mode.VALUABLE)
    n, rho = 3, 4
    y = pr.max_round_swing(n)
    bound = pr.delta ** rho * y * n / (1 - pr.delta)
    assert bound < 1
    assert -1 + bound < 0


def test_tail_bound_direct_formula():
    pr = params(beta="2", alpha="0", pi="1", delta="0.5")
    # y*n contrived to 4 by taking n=1: y = 2+0+1+0 = 3... use explicit check
    n = 2
    y = pr.max_round_swing(n)
    assert tail_bound(pr, n, 3) == pr.delta ** 3 * y * n / (1 - pr.delta)


def test_tail_bound_monotone_decay():
    pr = params(delta="0.8")
    vals = [tail_bound(pr, 3, h) for h in range(0, 40, 5)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_tail_bound_horizon_for_tolerance():
    pr = UtilityParams.make("1.2", "0.1", "1.2", "0.99", Mode.GENERAL)
    n = 3
    H = 1
    while tail_bound(pr, n, H) >= Fraction(1, 1000):
        H += 1
    assert tail_bound(pr, n, H) < Fraction(1, 1000)
    assert tail_bound(pr, n, H - 1) >= Fraction(1, 1000)
    assert 1300 < H < 1500


def test_params_validation():
    with pytest.raises(ValueError):
        UtilityParams.make("1.2", "0.1", "1.2", "1", Mode.GENERAL)
    with pytest.raises(TypeError):
        UtilityParams.make(1.2, "0.1", "1.2", "0.9", Mode.GENERAL)
    good = UtilityParams.make("1.2", "0.1", "1.2", "0.99", Mode.GENERAL)
    good.validate_for(4, None)
    bad = UtilityParams.make("1.05", "0.1", "1.2", "0.99", Mode.GENERAL)
    with pytest.raises(ValueError):
        bad.validate_for(4, None)
    val = UtilityParams.make("17", "0", "5", "0.99", Mode.VALUABLE)
    val.validate_for(4, rho=3)
    with pytest.raises(ValueError):
        val.validate_for(5, rho=3)       # pi must exceed n
    with pytest.raises(ValueError):
        val.validate_for(4, None)        # rho required in valuable mode


def test_params_json_roundtrip_exact():
    pr = UtilityParams.make("1.2", "0.1", "1.2", "0.99", Mode.GENERAL)
    assert UtilityParams.from_json(pr.to_json()) == pr
    assert pr.beta == Fraction(6, 5)


def test_cooperation_tail_matches_direct_sum():
    rng = random.Random(11)
    from .conftest import random_evolving_graph
    for _ in range(10):
        g = random_evolving_graph(rng, 4, "g")
        pr = params(delta="0.9", mode=Mode.GENERAL, beta="1.5", pi="1.5")
        frm = rng.randint(1, 6)
        to = frm + rng.randint(0, 25)
        direct = sum(pr.delta ** (m - frm) *
                     (pr.beta - 1 - pr.alpha) * g.at(m).degree(0)
                     for m in range(frm, to + 1))
        assert cooperation_tail(g, 0, pr, frm, to) == direct


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 20), st.integers(0, 12))
def test_cooperation_tail_hypothesis(span, start_off):
    g = EvolvingGraph(
        (RoundGraph.from_pairs(3, [(0, 1)]),),
        (RoundGraph.from_pairs(3, [(0, 1), (1, 2)]), RoundGraph.from_pairs(3, [])),
        "g")
    pr = params(delta="0.97", mode=Mode.GENERAL, beta="1.5", pi="1.5")
    frm = 1 + start_off
    to = frm + span
    direct = sum(pr.delta ** (m - frm) * (pr.beta - 1 - pr.alpha) * g.at(m).degree(0)
                 for m in range(frm, to + 1))
    assert cooperation_tail(g, 0, pr, frm, to) == direct


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_round_sums_and_cooperation_utility_are_exact(mode):
    # a round utility read from the params' memo of numerator sums is the
    # sum of its edge entries, and the cooperation memo is
    # (beta - 1 - alpha) * degree; both keep what they built
    pr = UtilityParams.make("7/3", "1/5", "9/4", "9/10", mode)
    rng = random.Random(26)
    for n in (2, 3, 5):
        nums, over = pr.edge_numerators(n)
        assert pr.edge_numerators(n)[1] is over
        keys = sorted(nums)
        for _ in range(200):
            picked = [rng.choice(keys) for _ in range(rng.randint(0, n - 1))]
            total = sum(nums[k] for k in picked)
            assert over[total] == sum((over[nums[k]] for k in picked),
                                      Fraction(0))
            assert over[total] is over[total]
    for degree in range(6):
        u = pr.cooperation_utility[degree]
        assert u == (pr.beta - 1 - pr.alpha) * degree
        assert pr.cooperation_utility[degree] is u


def _check_per_action(profile, graph, mode):
    """``ActionProfile.check`` as one neighbour check and one
    ``check_mode`` per action, in profile order: the reference."""
    if set(profile.acts) != set(range(graph.n)):
        raise ValueError("profile must cover every agent")
    for i, per in profile.acts.items():
        got, expected = frozenset(per), graph.neighbors(i)
        if got != expected:
            raise ValueError(
                f"agent {i} round {profile.round}: action keys {sorted(got)} "
                f"!= neighbours {sorted(expected)}")
        for ia in per.values():
            ia.check_mode(mode, graph.n)


def _error(check, *args):
    try:
        check(*args)
    except ValueError as e:
        return str(e)
    return None


@st.composite
def _checked_profiles(draw):
    """A round graph on 2..6 agents, a mode, and a profile of actions of
    every kind, proportional weights 0..n+1, mostly legal in the mode;
    now and then an agent's keys miss a neighbour, hold a non-neighbour
    (itself, or n), or the agent is left out."""
    n = draw(st.integers(2, 6))
    mode = draw(st.sampled_from(list(Mode)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rg = RoundGraph.from_pairs(n, draw(st.lists(st.sampled_from(pairs),
                                                unique=True)))
    every = [COOPERATE, DEFECT, PUNISH, AVOID] + [
        IndividualAction(ActionKind.PROP_PUNISH, c) for c in range(n + 2)]
    legal = [a for a in every
             if _error(a.check_mode, mode, n) is None]
    acts = {}
    for i in range(n):
        if draw(st.integers(0, 19)) == 0:
            continue
        keys = set(rg.neighbors(i))
        if draw(st.integers(0, 4)) == 0:
            keys ^= draw(st.sets(st.integers(0, n), min_size=1, max_size=2))
        per = {j: draw(st.sampled_from(legal if draw(st.integers(0, 9))
                                       else every))
               for j in sorted(keys)}
        acts[i] = per
    return ActionProfile(1, acts), rg, mode


@settings(max_examples=400, deadline=None)
@given(_checked_profiles())
def test_code_check_agrees_with_the_per_action_check(case):
    # the allowed-code test accepts and rejects exactly what check_mode and
    # check_neighbors do, with the same first error
    profile, rg, mode = case
    assert (_error(profile.check, rg, mode)
            == _error(_check_per_action, profile, rg, mode))
