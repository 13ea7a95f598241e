from __future__ import annotations

import collections
import copy
import math
from dataclasses import replace
from fractions import Fraction

import pytest

from dynacct.evolving_graph import (EvolvingGraph, GraphFamily,
                                    ObservationModel, RoundGraph)
from dynacct.game_core import (COOPERATE, ActionKind, Mode, UtilityParams,
                               _allowed_codes, cooperation_tail,
                               discounted_utility)
from dynacct.protocols import (ALL_NEIGHBORS, StrategyConfigError,
                               always_defect_until)
from dynacct.scenarios import (builtin, complete_graph, general_defaults,
                               ring_graph, valuable_defaults)
from dynacct.verifier import (EnumerationCapExceeded, SimConfig,
                              _expected_eu, _fork, _simulate_machines,
                              assert_gen_facts, build_machines,
                              expected_punishments, expected_utility,
                              monte_carlo_utilities, run_paired_defection,
                              simulate, verify_cooperation, verify_one_shot)

from .conftest import count_spent_hooks
from .oracles import FlatSigmaGen, build_branch_tree

ND = ObservationModel.NEIGHBORS_AND_DEGREES
NO = ObservationModel.NEIGHBORS_ONLY
BUILTINS = ("ring_connectivity", "fig3_indist", "timely_violation",
            "fig2_ambiguous", "unsafe_three_agent")


def mixed_degree_family():
    """4-agent family whose punish rounds land on a different cycle phase
    than the defection, forcing fractional punish draws."""
    ring = ring_graph(4)
    chord02 = RoundGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    chord13 = RoundGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    g = EvolvingGraph((), (ring, chord02, chord13), "mix")
    return GraphFamily(4, (g,), ND, 12)


def gen_cfg(family, horizon=40, seed=0, devs=None):
    strategies = {a: "sigma_gen" for a in range(family.n)}
    if devs:
        strategies.update(devs)
    return SimConfig(family=family, member=family.members[0].name,
                     strategies=strategies, horizon=horizon,
                     params=general_defaults(), seed=seed)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_honest_ring_utilities():
    sc = builtin("ring_connectivity")
    cfg = sc.sim_config(horizon=10)
    t = simulate(cfg)
    per = (cfg.params.beta - 1 - cfg.params.alpha) * 2
    assert all(t.utility(i, m) == per for i in range(4) for m in range(1, 11))


def test_simulate_replay_determinism():
    sc = builtin("ring_connectivity")
    sc.strategies[2] = {"deviation": {"kind": "always_defect_until", "round": 2,
                                      "base": "sigma_gen"}}
    cfg = sc.sim_config(horizon=25, seed=7)
    t1, t2 = simulate(cfg), simulate(cfg)
    assert t1.history.profiles == t2.history.profiles
    assert t1.per_round_utilities == t2.per_round_utilities


def test_simulate_punishments_inside_window():
    sc = builtin("ring_connectivity")
    sc.strategies[0] = {"deviation": {"kind": "always_defect_until", "round": 1,
                                      "base": "sigma_gen"}}
    cfg = sc.sim_config(horizon=30, seed=3)
    t = simulate(cfg)
    n = 4
    punish_rounds = {
        m for m in range(1, 31) for j in range(1, 4)
        if 0 in t.history.profiles[m - 1].actions[j].per_neighbor
        and t.history.profiles[m - 1].actions[j].per_neighbor[0].kind
        is ActionKind.PUNISH}
    assert punish_rounds
    assert all(1 < m <= 1 + n * n for m in punish_rounds)


def test_action_toward_a_non_neighbour_is_refused():
    # agent 2 of the 4-ring acts toward itself as well as its neighbours;
    # the profile check names the first such agent, its keys and neighbours
    from dynacct.protocols import SigmaGen

    class ActsTowardItself(SigmaGen):
        def act(self, rand):
            out = super().act(rand)
            out[self.me] = COOPERATE
            return out

    cfg = builtin("ring_connectivity").sim_config(horizon=3)
    machines = build_machines(cfg)
    machines[2] = ActsTowardItself(2, 4)
    with pytest.raises(ValueError) as exc:
        _simulate_machines(cfg, machines)
    assert str(exc.value) == (
        "agent 2 round 1: action keys [1, 2, 3] != neighbours [1, 3]")


# ---------------------------------------------------------------------------
# expected utility
# ---------------------------------------------------------------------------

def test_expected_utility_deterministic_equals_trace():
    sc = builtin("ring_connectivity")
    cfg = sc.sim_config(horizon=14)
    t = simulate(cfg)
    for i in range(4):
        assert expected_utility(cfg, i) == discounted_utility(t, i, 1, cfg.params)


def test_expected_utility_two_leaf_average():
    # a one-shot probabilistic punisher: agent 1 holds tally 1 against a
    # degree-2 deviator on the mixed family, punishing with probability 2/3
    fam = mixed_degree_family()
    cfg = gen_cfg(fam, horizon=14,
                  devs={0: {"deviation": {"kind": "always_defect_until",
                                          "round": 1, "base": "sigma_gen"}}})
    tree = build_branch_tree(cfg, max_leaves=200)
    assert len(tree.leaves) == 8   # three punishers draw at round 5
    eu = expected_utility(cfg, 0)
    manual = sum((leaf.prob * discounted_utility(leaf.trace, 0, 1, cfg.params)
                  for leaf in tree.leaves), Fraction(0))
    assert eu == manual


def test_branch_tree_probability_invariants():
    fam = mixed_degree_family()
    cfg = gen_cfg(fam, horizon=10,
                  devs={0: {"deviation": {"kind": "always_defect_until",
                                          "round": 1, "base": "sigma_gen"}}})
    tree = build_branch_tree(cfg, max_leaves=100)
    assert tree.total_probability() == 1

    def walk(node, path_prob):
        from .oracles import BranchLeaf, BranchNode
        if isinstance(node, BranchLeaf):
            assert node.prob == path_prob
            return
        assert sum(p for p, _ in node.children) == 1
        for p, child in node.children:
            walk(child, path_prob * p)

    walk(tree.root, Fraction(1))


def _after(cfg, k):
    """The machines at the start of round k + 1 of cfg's seeded run, and the
    run's first k profiles."""
    ms = build_machines(cfg)
    trace = _simulate_machines(cfg, ms, stop=lambda M, _: M > k)
    return ms, trace.history.profiles


def test_expected_utility_tower_property():
    # the whole run's value is round 1's utility plus delta times the value
    # of the walk from the machines of round 2 (round 1 is deterministic)
    fam = mixed_degree_family()
    cfg = gen_cfg(fam, horizon=12,
                  devs={0: {"deviation": {"kind": "always_defect_until",
                                          "round": 1, "base": "sigma_gen"}}})
    u1 = simulate(cfg).utility(0, 1)
    ms, _ = _after(cfg, 1)
    assert expected_utility(cfg, 0) == u1 + cfg.params.delta * _expected_eu(
        cfg, ms, 0, 2)


def test_expected_utility_conditioning_renormalises():
    # the walk from the machines of a realised 5-round prefix (which fixes
    # the round-5 punish draws) values the runs that share the prefix: their
    # mean, renormalised by their mass, discounted to round 6
    fam = mixed_degree_family()
    cfg = gen_cfg(fam, horizon=12,
                  devs={0: {"deviation": {"kind": "always_defect_until",
                                          "round": 1, "base": "sigma_gen"}}})
    tree = build_branch_tree(cfg, max_leaves=100)
    masses = set()
    for seed in range(8):
        ms, prefix = _after(replace(cfg, seed=seed), 5)
        matching = _given(tree.leaves, prefix)
        mass = sum((l.prob for l in matching), Fraction(0))
        manual = sum((l.prob * discounted_utility(l.trace, 0, 6, cfg.params)
                      for l in matching), Fraction(0)) / mass
        assert _expected_eu(cfg, ms, 0, 6) == manual
        masses.add(mass)
    assert len(masses) > 1 and 1 not in masses


def _oracle_mean(leaves, f):
    mass = sum((l.prob for l in leaves), Fraction(0))
    return sum((l.prob * f(l) for l in leaves), Fraction(0)) / mass


def _given(leaves, prefix):
    return [l for l in leaves
            if l.trace.history.profiles[:len(prefix)] == prefix]


def _punishments_toward(trace, graph, i, first, last):
    hits = 0
    for m in range(first, last + 1):
        profile = trace.history.profiles[m - 1]
        for j in graph.at(m).neighbors(i):
            a = profile.acts[j][i]
            hits += a.kind is ActionKind.PUNISH
    return hits


def test_enumerator_matches_branch_tree_oracle_on_random_families(rng):
    # sigma_gen with one always_defect_until deviator on random small
    # families: every exact expectation equals the per-draw oracle's
    # sum of p * u, over the whole tree and, from the machines of a seeded
    # run's round k + 1, over the leaves that share its first k rounds
    from .conftest import random_round_graph

    branching = forking = 0
    for _ in range(40):
        n = rng.randint(3, 4)
        g = EvolvingGraph(
            tuple(random_round_graph(rng, n, 0.7)
                  for _ in range(rng.randint(0, 2))),
            tuple(random_round_graph(rng, n, 0.7)
                  for _ in range(rng.randint(1, 3))), "g")
        horizon = rng.randint(2 * n, 2 * n + 3)
        fam = GraphFamily(n, (g,), ND, max(horizon, g.period))
        dev = rng.randrange(n)
        cfg = gen_cfg(fam, horizon=horizon, devs={dev: {"deviation": {
            "kind": "always_defect_until", "round": rng.randint(1, 2),
            "base": "sigma_gen"}}})
        tree = build_branch_tree(cfg, max_leaves=5000)
        assert tree.total_probability() == 1
        branching += len(tree.leaves) > 1
        params = cfg.params
        for i in sorted({dev, rng.randrange(n)}):
            assert expected_utility(cfg, i) == _oracle_mean(
                tree.leaves, lambda l: discounted_utility(l.trace, i, 1, params))

            k = rng.randint(1, horizon - 1)
            ms, prefix = _after(replace(cfg, seed=rng.randrange(10 ** 6)), k)
            given = _given(tree.leaves, prefix)
            forking += len(given) > 1
            assert _expected_eu(cfg, ms, i, k + 1) == _oracle_mean(
                given, lambda l: discounted_utility(l.trace, i, k + 1, params))

            frm = rng.randint(1, horizon - 1)
            rho = rng.randint(2, horizon - frm + 1)
            end = min(frm + rho - 1, horizon)
            assert expected_punishments(cfg, i, frm, rho) == _oracle_mean(
                tree.leaves,
                lambda l: _punishments_toward(l.trace, g, i, frm + 1, end))
    assert branching >= 5   # the draws, not only the rounds, are compared
    assert forking >= 5     # and so are the draws after round k


def _walker_configs(rng):
    """Every builtin member at horizon 12, and seeded bounded tally or
    accusation punisher families, on the mixed-degree graph or a random
    one, where one or two honest agents always defect: their punishers
    draw, and the cooperation check finds witnesses."""
    from .conftest import random_evolving_graph
    for name in ("ring_connectivity", "fig3_indist", "timely_violation",
                 "fig2_ambiguous", "unsafe_three_agent"):
        sc = builtin(name)
        for g in sc.family.members:
            sc.member = g.name
            yield sc.sim_config(horizon=12)
    for k in range(16):
        if k % 2:
            n = rng.randint(3, 4)
            g = random_evolving_graph(rng, n, f"w{k}", max_prefix=2,
                                      max_cycle=3)
            defectors = rng.randint(1, 2)
            horizon = rng.randint(2 * n, 2 * n + 3)
        else:
            # punishers draw on every branch here; with one defector and a
            # horizon up to 10 the branches stay within the cap
            n, g = 4, mixed_degree_family().members[0]
            defectors, horizon = 1, rng.randint(6, 10)
        # the two protocols' payloads differ, so one of them per family
        base = ({"strategy": "accusation_punisher", "rho": 3} if k % 3 == 2
                else "sigma_gen")
        strategies = {a: base for a in range(n)}
        for a in rng.sample(range(n), defectors):
            strategies[a] = "always_defect"
        yield SimConfig(family=GraphFamily(n, (g,), ND, 8), member=g.name,
                        strategies=strategies, horizon=horizon,
                        params=general_defaults(), seed=k, enum_cap=100)


def _outcome(f, *args, **kwargs):
    """f's value, or the round and leaves of its cap refusal."""
    try:
        return f(*args, **kwargs)
    except EnumerationCapExceeded as refused:
        return "refused", refused.round, refused.leaves


def test_walker_matches_leaf_enumeration(rng, monkeypatch):
    # expected utilities, punishments and the cooperation check on the one
    # branch walker equal the leaf enumerator's, from round 1 and from the
    # machines of a seeded run's round k + 1, and so do cap refusals;
    # punishments absorb now, so they may only refuse later
    from dynacct import verifier

    from . import oracles
    forks = 0      # rounds the walker visits with several draw scripts
    edges = verifier._Worlds.edges

    def counted_edges(*args):
        nonlocal forks
        scripts = edges(*args)
        forks += len(scripts) > 1
        return scripts
    monkeypatch.setattr(verifier._Worlds, "edges", counted_edges)

    forking, continued, witnesses = set(), set(), 0
    for index, cfg in enumerate(_walker_configs(rng)):
        n, horizon = cfg.family.n, cfg.horizon
        for i in sorted({0, rng.randrange(n)}):
            forks = 0
            got = _outcome(expected_utility, cfg, i)
            assert got == _outcome(oracles.enumerated_expected_utility, cfg,
                                   i), (cfg.member, i)
            if forks and not isinstance(got, tuple):
                forking.add(index)
            k = rng.randint(1, horizon - 1)
            ms, _ = _after(cfg, k)
            forks = 0
            got = _outcome(_expected_eu, cfg, _fork(ms), i, k + 1)
            assert got == _outcome(oracles._expected_eu, cfg, ms, i, k + 1,
                                   k + 1), (cfg.member, i, k)
            if forks and not isinstance(got, tuple):
                continued.add(index)
            frm = rng.randint(1, horizon - 1)
            rho = rng.randint(2, horizon - frm + 1)
            got = _outcome(expected_punishments, cfg, i, frm, rho)
            want = _outcome(oracles.enumerated_punishments, cfg, i, frm, rho)
            assert got == want or want[0] == "refused", (cfg.member, i)
        ok, witness = verify_cooperation(cfg)
        assert (ok, witness) == oracles.enumerated_cooperation(cfg)
        witnesses += not ok
        for cap in (1, 2, 5):
            capped = replace(cfg, enum_cap=cap)
            assert _outcome(expected_utility, capped, 0) == _outcome(
                oracles.enumerated_expected_utility, capped, 0)
            assert _outcome(verify_cooperation, capped) == _outcome(
                oracles.enumerated_cooperation, capped)
    assert len(forking) >= 5   # the draws, not only the rounds, are compared
    assert len(continued) >= 3     # and so are the draws after round k
    assert witnesses >= 5


def test_expected_utility_enumeration_cap():
    fam = mixed_degree_family()
    cfg = gen_cfg(fam, horizon=12,
                  devs={0: {"deviation": {"kind": "always_defect_until",
                                          "round": 1, "base": "sigma_gen"}}})
    cfg = replace(cfg, enum_cap=3)
    with pytest.raises(EnumerationCapExceeded) as refused:
        expected_utility(cfg, 0)
    assert refused.value.leaves == 3 and 1 <= refused.value.round <= 12
    # the refusal names the sampling API that exists
    assert str(refused.value).endswith("use monte_carlo_utilities instead")


def test_monte_carlo_deterministic_and_single_sample():
    sc = builtin("ring_connectivity")
    cfg = sc.sim_config(horizon=10)
    mean, se = monte_carlo_utilities(cfg, 12)[1]
    assert se == 0.0
    assert mean == expected_utility(cfg, 1)
    mean1, se1 = monte_carlo_utilities(cfg, 1)[1]
    assert se1 == 0.0 and mean1 == mean


def test_monte_carlo_agrees_with_exact_within_three_se():
    fam = mixed_degree_family()
    cfg = gen_cfg(fam, horizon=12, seed=100,
                  devs={0: {"deviation": {"kind": "always_defect_until",
                                          "round": 1, "base": "sigma_gen"}}})
    exact = expected_utility(cfg, 0)
    mean, se = monte_carlo_utilities(cfg, 1500)[0]
    assert se > 0
    assert abs(float(mean - exact)) <= 3 * se


def test_monte_carlo_utilities_one_run_per_seed_for_all_agents():
    fam = mixed_degree_family()
    cfg = gen_cfg(fam, horizon=12, seed=100,
                  devs={0: {"deviation": {"kind": "always_defect_until",
                                          "round": 1, "base": "sigma_gen"}}})
    both = monte_carlo_utilities(cfg, 40)
    assert sorted(both) == list(range(fam.n))
    assert any(se > 0 for _, se in both.values())
    for i in range(fam.n):
        assert both[i] == monte_carlo_utilities(cfg, 40)[i]
        values = [discounted_utility(simulate(replace(cfg, seed=100 + k)), i,
                                     1, cfg.params) for k in range(40)]
        mean = sum(values, Fraction(0)) / 40
        var = sum(float(v - mean) ** 2 for v in values) / 39
        assert both[i] == (mean, math.sqrt(var / 40))


# ---------------------------------------------------------------------------
# expected punishments
# ---------------------------------------------------------------------------

def test_expected_punishments_zero_on_path():
    sc = builtin("ring_connectivity")
    cfg = sc.sim_config(horizon=12)
    for m in (1, 3, 5):
        assert expected_punishments(cfg, 0, m, 4) == 0


@pytest.mark.parametrize("rho", [0, -3])
def test_expected_punishments_refuses_rho_below_one(rho):
    # an empty window is an input error, not zero punishments
    cfg = builtin("ring_connectivity").sim_config(horizon=12)
    with pytest.raises(ValueError, match="rho must be >= 1"):
        expected_punishments(cfg, 0, 1, rho)


def test_expected_punishments_ledger_equals_degree():
    # a single defection of degree d adds exactly d expected punishments
    # over (m, m+n^2], even when punish draws are fractional
    fam = mixed_degree_family()
    n, m = 4, 1
    cfg = gen_cfg(fam, horizon=m + n * n + 1,
                  devs={0: {"deviation": {"kind": "always_defect_until",
                                          "round": m, "base": "sigma_gen"}}})
    d = fam.members[0].at(m).degree(0)
    assert expected_punishments(cfg, 0, m, n * n + 1) == d


def test_expected_punishments_conservation(rng):
    # stepping the window forward one round loses at most the current
    # round's expected punishments, which are bounded by the degree
    fam = mixed_degree_family()
    cfg = gen_cfg(fam, horizon=20,
                  devs={0: {"deviation": {"kind": "always_defect_until",
                                          "round": 1, "base": "sigma_gen"}}})
    rho = 6
    for frm in range(1, 10):
        now = expected_punishments(cfg, 0, frm, rho)
        nxt = expected_punishments(cfg, 0, frm + 1, rho)
        deg_next = cfg.graph.at(frm + 1).degree(0)
        assert nxt >= now - deg_next


# ---------------------------------------------------------------------------
# one-shot verification
# ---------------------------------------------------------------------------

def test_verify_cooperation_on_path():
    sc = builtin("ring_connectivity")
    ok, witness = verify_cooperation(sc.sim_config(horizon=20))
    assert ok and witness is None


def test_verify_one_shot_sigma_gen_small():
    fam = GraphFamily(3, (EvolvingGraph((), (complete_graph(3),), "k3"),), ND, 8)
    cfg = SimConfig(family=fam, member="k3",
                    strategies={a: "sigma_gen" for a in range(3)},
                    horizon=900, params=general_defaults())
    rep = verify_one_shot(cfg, 0, robust_depth=2)
    assert rep.verdict
    assert rep.max_gain == 0      # the prescribed action itself reports zero
    assert rep.checks > 10


def test_verify_one_shot_plays_each_round_in_one_action_pass(monkeypatch):
    # every played round computes each agent's view and calls begin_round and
    # act once, and i's prescribed classes come from the round that collects
    # a context.  The report is that of the two-pass engine before (which made
    # 2,424 act calls here).  Every walk follows the config's world graph,
    # so each of the 68 worlds the walks reach is played once, by whichever
    # walk reaches it first: 204 machine-rounds, where continuations that
    # stopped at the first world already valued, context walks that stopped
    # at the first world already collected and continuations shared with
    # their symmetric twins still played 249.  A world is keyed when a walk
    # first follows an edge into it, and a forced world from its context's
    # key and its wrapper's own (two calls), so the walks make 243
    # state_key calls where they made 276 before the graph, and the
    # symmetry test keys the 3 honest machines once.  The views are built
    # once per config round: 3 agents over the 6 rounds played (333 builds
    # when every played round built its own).
    from dynacct import verifier
    from dynacct.game_core import tail_bound
    from dynacct.protocols import SigmaGen

    calls = collections.Counter()

    def count(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in ("begin_round", "act", "end_round", "state_key"):
        count(SigmaGen, name)
    count(verifier, "local_view")
    fam = GraphFamily(3, (EvolvingGraph((), (complete_graph(3),), "k3"),), ND, 8)
    cfg = SimConfig(family=fam, member="k3",
                    strategies={a: "sigma_gen" for a in range(3)},
                    horizon=30, params=general_defaults())
    rep = verify_one_shot(cfg, 0, robust_depth=2)
    for name in ("end_round", "act", "begin_round"):
        assert calls[name] == 204, name
    assert calls["state_key"] == 246
    assert calls["local_view"] == 18
    assert rep.max_gain == 0
    assert rep.witness == {"agent": 0, "round": 1, "origin": "on-path",
                           "override": {"1": "send", "2": "send"}}
    assert rep.tolerance == tail_bound(cfg.params, 3, 29)
    assert rep.verdict is True
    assert rep.checks == 60


def test_only_realised_runs_build_every_agents_utilities(monkeypatch):
    # a walk's reward reads one agent's gap from the checked profile, or no
    # utility at all, so the cooperation check and a depth-2 one-shot check
    # build no utility table; a seeded run builds one per round it plays,
    # which is what its trace records
    from dynacct import verifier
    calls = collections.Counter()

    def count(name):
        fn = getattr(verifier, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(verifier, name, counted)

    count("_round_utilities")
    count("_round_profile")
    cfg = k3_gen_cfg(horizon=12)
    assert verify_cooperation(cfg) == (True, None)
    assert verify_one_shot(cfg, 0, robust_depth=2).verdict
    assert calls["_round_utilities"] == 0 and calls["_round_profile"] > 0
    calls.clear()
    simulate(cfg)
    assert calls == {"_round_utilities": 12, "_round_profile": 12}
    for m in (1, 2, 5):
        calls.clear()
        run_paired_defection(cfg, 1, m, ALL_NEIGHBORS)
        played = calls["_round_profile"]
        assert calls["_round_utilities"] == played > 0, m


def test_integer_gap_equals_the_utility_less_cooperation(rng):
    # the walk's reward, one integer sum per round, equals i's utility from
    # the full outcome less its all-cooperate utility at its degree, on
    # random profiles of every action the mode allows (proportional weights
    # 0..n-1 and avoidance in valuable mode), and on the K4/ring family,
    # where every agent's degree goes 3, 2, 3, ...
    from dynacct.game_core import AVOID, DEFECT, PUNISH, IndividualAction
    from dynacct.verifier import _gap, _round_profile, _round_utilities

    from .test_facts import k4_ring_family
    cases = []
    for family in (k3_gen_cfg().family, mixed_degree_family(),
                   k4_ring_family()):
        n = family.n
        for params, spec in ((general_defaults(), "sigma_gen"),
                             (valuable_defaults(n, 2), "sigma_val")):
            cases.append(SimConfig(family=family,
                                   member=family.members[0].name,
                                   strategies={a: spec for a in range(n)},
                                   horizon=12, params=params))
    degrees = set()
    for cfg in cases:
        n, mode = cfg.family.n, cfg.params.mode
        actions = [a for a in [COOPERATE, DEFECT, PUNISH, AVOID] + [
            IndividualAction(ActionKind.PROP_PUNISH, c) for c in range(n)]
                   if a.code in _allowed_codes(mode, n)]
        gaps = [_gap(cfg, i) for i in range(n)]
        for m in range(1, 13):
            rg = cfg.graph.at(m)
            for _ in range(20):
                profile = _round_profile(cfg, m, {
                    i: {j: rng.choice(actions) for j in sorted(rg.neighbors(i))}
                    for i in range(n)})
                utils = _round_utilities(cfg, profile)
                for i in range(n):
                    degrees.add((n, rg.degree(i)))
                    want = utils[i] - cfg.params.cooperation_utility[rg.degree(i)]
                    assert gaps[i](m, profile) == want, (cfg.params, m, i)
    assert {(4, 3), (4, 2)} <= degrees


def test_round_views_are_built_once_per_config_and_read_only():
    # one view serves every machine, fork and pair that plays its round, so
    # its degrees cannot be written; a replaced config builds its own views
    cfg = k3_gen_cfg(horizon=12)
    run_paired_defection(cfg, 0, 2, ALL_NEIGHBORS)
    assert sorted(cfg._views) == list(range(1, 13))
    view = cfg._views[3][0]
    with pytest.raises(TypeError):
        view.neighbor_degrees[1] = 5
    assert view.neighbor_degrees == {1: 2, 2: 2}
    assert copy.deepcopy(view) is view
    run_paired_defection(cfg, 1, 3, ALL_NEIGHBORS)
    assert cfg._views[3][0] is view
    other = replace(cfg, seed=1)
    assert other._views == {}
    run_paired_defection(other, 0, 2, ALL_NEIGHBORS)
    assert other._views[3][0] is not view and other._views[3][0] == view


def _closure_contexts(cfg, i, check=False):
    """``verify_one_shot``'s report for agent i and the (round, origin, world
    key) of every context it collects; the contexts are checked only if
    ``check``.  It verifies on a copy of cfg, whose memo is empty, so i is
    walked even if an agent of its orbit was."""
    from dynacct import verifier
    contexts = []
    check_context = verifier._OneShotChecker.check_context

    def recording(self, m2, machines, world, origin, prescribed):
        contexts.append((m2, origin, world))
        if check:
            check_context(self, m2, machines, world, origin, prescribed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier._OneShotChecker, "check_context", recording)
        rep = verify_one_shot(replace(cfg), i, robust_depth=2)
    return rep, contexts


def _closure_configs(rng):
    """Every builtin member at three horizons, and seeded random bounded
    tally and valuable-exchange families."""
    from .conftest import random_evolving_graph
    for name in BUILTINS:
        sc = builtin(name)
        for g in sc.family.members:
            sc.member = g.name
            for horizon in (3, 12, sc.horizon):
                yield sc.sim_config(horizon=horizon)
    for k in range(16):
        n = rng.randint(3, 4)
        g = random_evolving_graph(rng, n, f"r{k}", max_prefix=3, max_cycle=3)
        if k % 2:
            spec, params, obs = ({"strategy": "sigma_val", "rho": 3},
                                 valuable_defaults(n, 3), NO)
        else:
            spec, params, obs = "sigma_gen", general_defaults(), ND
        yield SimConfig(family=GraphFamily(n, (g,), obs, 8), member=g.name,
                        strategies={a: spec for a in range(n)},
                        horizon=rng.choice((6, 30)), params=params)


def closure_regression_family():
    """A 4-agent family where a walk after a deviation reaches a world that
    an earlier walk met only in the last rounds before its bound cut it."""
    def rg(*pairs):
        return RoundGraph.from_pairs(4, list(pairs))
    g = EvolvingGraph((rg((0, 2), (0, 3), (2, 3)), rg((0, 3), (2, 3)),
                       rg((1, 3))),
                      (rg((1, 2), (2, 3)), rg((1, 2)), rg((0, 2), (1, 2))),
                      "reg")
    return GraphFamily(4, (g,), ND, 8)


def test_contexts_by_closure_match_windowed_walks(rng):
    # walks that stop at the first closed world, or at a world they walked
    # themselves, collect the same contexts in the same order as walks cut
    # only by the heuristic windows, on every builtin and random families
    from .oracles import windowed_contexts
    for cfg in _closure_configs(rng):
        for i in range(cfg.family.n):
            _, got = _closure_contexts(cfg, i)
            assert got == windowed_contexts(cfg, i), (cfg.member, cfg.horizon, i)
    # a world first met in the last rounds of a cut walk stays open: the walk
    # that reaches it again goes on past it and collects what follows
    cfg = gen_cfg(closure_regression_family(), horizon=40)
    checks = []
    for i in range(4):
        rep, got = _closure_contexts(cfg, i, check=True)
        assert got == windowed_contexts(cfg, i), i
        checks.append(rep.checks)
    assert checks == [34, 68, 368, 70]


def _one_shot_runs(cfg, agents, continuation=None):
    """Per agent, ``verify_one_shot``'s report and every check's (gain,
    tolerance, witness), with the continuations valued by ``continuation``
    (default: the world table); plus the rounds played and the rounds with
    more than one draw script.  Each agent is verified on its own copy of
    cfg, whose memo is empty, so every agent is walked."""
    from dynacct import verifier
    from dynacct.protocols import SigmaGen

    from . import oracles

    counts = collections.Counter()
    checkers = []
    with pytest.MonkeyPatch.context() as mp:
        init, end_round = verifier._OneShotChecker.__init__, SigmaGen.end_round
        round_scripts = verifier._round_scripts

        def recording_init(self, *args):
            init(self, *args)
            checkers.append(self)

        def counted_end_round(self, *args):
            counts["rounds"] += self.me == 0
            return end_round(self, *args)

        def counted_scripts(*args):
            scripts = round_scripts(*args)
            counts["forks"] += len(scripts) > 1
            return scripts

        mp.setattr(verifier._OneShotChecker, "__init__", recording_init)
        mp.setattr(SigmaGen, "end_round", counted_end_round)
        for module in (verifier, oracles):
            mp.setattr(module, "_round_scripts", counted_scripts)
        if continuation is not None:
            mp.setattr(verifier._OneShotChecker, "_continuation_eu",
                       continuation)
        reports = [verify_one_shot(replace(cfg), i, robust_depth=2)
                   for i in agents]
    runs = [(rep.max_gain, rep.tolerance, rep.verdict, rep.witness, rep.checks,
             checker.results) for rep, checker in zip(reports, checkers)]
    return runs, counts


def _random_gen_configs(rng, count):
    from .conftest import random_evolving_graph
    # mixed_degree_family forks on fractional punishments; at horizon 9,
    # agent 0's continuations already reuse valued worlds below forks.  At
    # horizon 5, inside the punishment window, the horizon cuts most
    # continuations, and the table must not reuse what it cut
    cfgs = [(gen_cfg(mixed_degree_family(), horizon=9), (0,)),
            (gen_cfg(mixed_degree_family(), horizon=5), range(4))]
    for k in range(count):
        g = random_evolving_graph(rng, 3, f"r{k}", max_prefix=2, max_cycle=3)
        cfgs.append((gen_cfg(GraphFamily(3, (g,), ND, 8), horizon=12),
                     range(3)))
    return cfgs


def test_world_table_matches_memo_free_continuations(rng):
    # on random sigma_gen families and a forking one, at a long and a short
    # horizon, every check's gain, tolerance and witness, and every report,
    # equal those of continuations enumerated to absorption without the
    # table; the table never plays more rounds
    from .oracles import continuation_eu
    forks = 0
    for cfg, agents in _random_gen_configs(rng, 8):
        got, counts = _one_shot_runs(cfg, agents)
        want, oracle_counts = _one_shot_runs(cfg, agents, continuation_eu)
        assert got == want, cfg.member
        assert counts["rounds"] <= oracle_counts["rounds"], cfg.member
        forks += oracle_counts["forks"]
    assert forks > 0


def _tail(cfg, i, m):
    """i's closed-form cooperative tail from round m to the horizon, which
    the one-shot checker's tail-relative values leave out."""
    return cooperation_tail(cfg.graph, i, cfg.params, m, cfg.horizon)


def test_forced_continuations_match_the_engine_level_override():
    # every context and pattern of unsafe_three_agent (86 continuations):
    # i's classes forced by a ScheduledDefector wrapper, valued relative to
    # i's cooperative tail, plus that tail are worth what the leaf
    # enumeration with the pattern applied by the round step is worth.
    # In one context the prescription defects, where "send" must cooperate
    from dynacct import verifier

    from . import oracles
    cfg = builtin("unsafe_three_agent").sim_config(horizon=12)
    check_context = verifier._OneShotChecker.check_context
    contexts = []

    def recording(self, m2, machines, world, origin, prescribed):
        contexts.append((self, m2, machines, world, prescribed))
        return check_context(self, m2, machines, world, origin, prescribed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier._OneShotChecker, "check_context", recording)
        for i in range(3):
            verify_one_shot(replace(cfg), i, robust_depth=2)
    compared = defecting = 0
    for checker, m2, machines, world, prescribed in contexts:
        nbrs = sorted(cfg.graph.at(m2).neighbors(checker.i))
        if not nbrs:
            continue
        defecting += "defect" in prescribed.values()
        for pattern in verifier._override_patterns(cfg.params.mode, nbrs):
            got = (checker._continuation_eu(machines, m2, world, pattern)
                   + _tail(cfg, checker.i, m2))
            want = oracles.continuation_eu(checker, machines, m2, world,
                                           pattern)
            assert got == want, (checker.i, m2, pattern)
            compared += 1
    assert compared == 86 and defecting == 1


def test_world_table_counts_reused_leaves_against_the_cap():
    # a valued world adds its subtree's leaves: every walked continuation
    # counts the leaves that enumerating it to absorption emits, so the
    # table refuses exactly when that enumeration would.  A continuation
    # served by its symmetric twin is not walked: it has the leaves of the
    # twin, whose walk stayed under the cap
    from dynacct import verifier

    from . import oracles
    cfg = gen_cfg(mixed_degree_family(), horizon=10)
    valued = verifier._OneShotChecker._continuation_eu
    enums, walks, leaves, shared = [], [], [], 0

    def recording(cls, into):
        init = cls.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            into.append(self)
        return recording_init

    with pytest.MonkeyPatch.context() as mp:
        def both(self, machines, m2, world, pattern):
            nonlocal shared
            before = len(walks)
            got = valued(self, machines, m2, world, pattern)
            walked = walks[before:]     # none if served, not walked
            assert oracles.continuation_eu(self, machines, m2, world,
                                           pattern) == (
                got + _tail(self.cfg, self.i, m2))
            if walked:
                (walk,) = walked
                leaves.append((walk.leaves, enums[-1].count))
            else:
                shared += 1
            return got

        mp.setattr(oracles._Enumerator, "__init__",
                   recording(oracles._Enumerator, enums))
        mp.setattr(verifier._Walk, "__init__",
                   recording(verifier._Walk, walks))
        mp.setattr(verifier._OneShotChecker, "_continuation_eu", both)
        verify_one_shot(cfg, 1, robust_depth=2)
    assert all(got == want for got, want in leaves)
    assert shared > 0
    most = max(want for _, want in leaves)
    assert most > 1
    verify_one_shot(replace(cfg, enum_cap=most), 1, robust_depth=2)
    with pytest.raises(EnumerationCapExceeded) as exc:
        verify_one_shot(replace(cfg, enum_cap=most - 1), 1, robust_depth=2)
    assert exc.value.leaves == most - 1 and 1 <= exc.value.round <= 10


def test_world_keys_stop_at_the_horizon(monkeypatch):
    # a walk keys the world of every round it plays, the horizon's included,
    # since another walk may reach that world earlier and follow its edges,
    # but no world after the horizon: a round's successors are keyed only
    # when a walk follows them.  No valued world is written at the horizon
    # (every branch from there is cut)
    from dynacct import verifier
    world_key, store = verifier._world_key, verifier._Walk._store
    rounds, stored = [], []

    def recording(graph, machines, m):
        rounds.append(m)
        return world_key(graph, machines, m)

    def storing(self, key, m, *args):
        if key is not None:
            stored.append(m)
        return store(self, key, m, *args)

    monkeypatch.setattr(verifier, "_world_key", recording)
    monkeypatch.setattr(verifier._Walk, "_store", storing)
    cfg = gen_cfg(mixed_degree_family(), horizon=9)
    verify_one_shot(cfg, 0, robust_depth=2)
    assert max(rounds) == cfg.horizon
    assert stored and max(stored) < cfg.horizon


def test_verify_one_shot_gain_strictly_negative_for_defection():
    fam = GraphFamily(3, (EvolvingGraph((), (complete_graph(3),), "k3"),), ND, 8)
    cfg = SimConfig(family=fam, member="k3",
                    strategies={a: "sigma_gen" for a in range(3)},
                    horizon=900, params=general_defaults())
    from dynacct.verifier import _OneShotChecker, _world_key
    checker = _OneShotChecker(cfg, 0)
    machines = build_machines(cfg)
    world = _world_key(cfg.graph, machines, 1)
    eu_conform = checker._continuation_eu(machines, 1, world, None)
    eu_defect = checker._continuation_eu(machines, 1, world,
                                         {1: "defect", 2: "defect"})
    # saves 2 sends now, loses beta-level punishments within n^2 rounds
    assert eu_defect < eu_conform


def test_verify_one_shot_flags_unpunished_defection():
    sc = builtin("timely_violation")
    sc.validate()
    cfg = sc.sim_config()
    cands = [{k: v for k, v in c.items() if k != "agent"}
             for c in sc.candidates if c["agent"] == 1]
    rep = verify_one_shot(cfg, 1, robust_depth=2, candidates=cands)
    assert not rep.verdict
    assert rep.max_gain >= 1 - rep.tolerance > 0
    assert rep.witness["origin"] == "candidate"
    assert "single_evasive" in rep.witness["override"]


def test_candidate_gain_equals_its_simulated_gain():
    # unsafe_three_agent's lenient candidate is not quiescent before its
    # first round, so the walk plays it instead of absorbing it at once;
    # against the honest profile it defects 0 at round 3 unpunished and
    # gains delta**2 (every draw is degenerate, so one run is the expectation)
    from dynacct.game_core import discounted_utility
    from dynacct.protocols import build_deviation
    from dynacct.verifier import _OneShotChecker
    sc = builtin("unsafe_three_agent")
    cfg = sc.sim_config(horizon=40)
    spec = {k: v for k, v in sc.candidates[0].items() if k != "agent"}
    machines = build_machines(cfg, honest_only=True)
    machines[2] = build_deviation(spec, cfg, 2)
    simulated = (
        discounted_utility(_simulate_machines(cfg, machines), 2, 1, cfg.params)
        - discounted_utility(simulate(cfg), 2, 1, cfg.params))
    assert simulated == Fraction(9801, 10000) == cfg.params.delta ** 2
    checker = _OneShotChecker(cfg, 2)
    checker.add_candidate(spec)
    gain, _, witness = checker.results[-1]
    assert witness["origin"] == "candidate"
    assert gain == simulated


def test_one_shot_candidate_is_valued_at_its_round():
    # a one-shot candidate first departs from the honest profile at its
    # round, so it is valued there exactly as a scheduled defection of the
    # same round: same gain, tolerance and witness round (valued at round 1
    # instead, its gain comes out scaled by delta**4)
    from dynacct.verifier import _OneShotChecker
    cfg = builtin("ring_connectivity").sim_config(horizon=40)
    checker = _OneShotChecker(cfg, 0)
    checker.add_candidate({"kind": "one_shot", "round": 5,
                           "override": {"defect": "all"}})
    checker.add_candidate({"kind": "defect_at_rounds", "rounds": [5]})
    (g1, t1, w1), (g2, t2, w2) = checker.results
    assert w1["round"] == w2["round"] == 5
    assert g1 == g2 < 0 and t1 == t2


@pytest.mark.parametrize("spec", [
    {"kind": "one_shot", "round": 11, "override": {"defect": "all"}},
    {"kind": "defect_at_rounds", "rounds": [11, 12]}])
def test_candidate_deviating_after_the_horizon_is_refused(spec):
    from dynacct.verifier import _OneShotChecker
    cfg = builtin("ring_connectivity").sim_config(horizon=10)
    with pytest.raises(StrategyConfigError, match="after the horizon 10"):
        _OneShotChecker(cfg, 0).add_candidate(spec)


def test_verify_one_shot_mutual_defection_trivially_stable():
    # with beta < 1 + alpha nobody gains by deviating from all-defect
    fam = GraphFamily(2, (EvolvingGraph((), (complete_graph(2),), "k2"),), NO, 8)
    params = UtilityParams.make("0.9", "0.2", "1.2", "0.9", Mode.GENERAL)
    cfg = SimConfig(family=fam, member="k2",
                    strategies={0: "always_defect", 1: "always_defect"},
                    horizon=60, params=params)
    rep = verify_one_shot(cfg, 0, robust_depth=1)
    assert rep.verdict


# ---------------------------------------------------------------------------
# one walk per automorphism orbit
# ---------------------------------------------------------------------------

def _symmetric_configs(rng, count):
    """Seeded random families with a non-trivial automorphism, under the
    three label-free accountability protocols in turn; 3-5 agents."""
    from .conftest import random_symmetric_graph
    for k in range(count):
        n = rng.randint(3, 5)
        g, _ = random_symmetric_graph(rng, n, f"s{k}")
        spec, params, obs = (
            ("sigma_gen", general_defaults(), ND),
            ({"strategy": "sigma_val", "rho": 3}, valuable_defaults(n, 3),
             rng.choice((ND, NO))),
            ({"strategy": "accusation_punisher", "rho": 3}, general_defaults(),
             rng.choice((ND, NO))))[k % 3]
        fam = GraphFamily(n, (g,), obs, max(8, g.period))
        yield SimConfig(family=fam, member=g.name,
                        strategies={a: spec for a in range(n)},
                        horizon=rng.choice((fam.horizon, 30)), params=params)


def _builtin_configs():
    """Every builtin member, with its candidates by agent as ``dynacct
    verify`` passes them."""
    for name in BUILTINS:
        sc = builtin(name)
        for g in sc.family.members:
            sc.member = g.name
            cands = collections.defaultdict(list)
            for c in sc.candidates:
                if c.get("member") in (None, g.name):
                    cands[c["agent"]].append(
                        {k: v for k, v in c.items() if k != "agent"})
            yield sc.sim_config(), cands


def test_orbit_reports_match_direct_verification(rng, monkeypatch):
    # asked in either agent order, on one config, every agent's report
    # equals byte for byte the one verified directly on a fresh config:
    # on random symmetric families, every builtin member and the three
    # connectivity families of acceptance criterion 2, at both depths; and
    # some agent is served its report with no checker of its own built
    import json

    from dynacct import verifier

    from .test_acceptance import criterion2_families, gen_config
    cases = [*((cfg, {}) for cfg in _symmetric_configs(rng, 9)),
             *_builtin_configs(),
             *((gen_config(fam), {}) for fam in criterion2_families())]
    built = []      # (config, agent) of every checker built
    init = verifier._OneShotChecker.__init__

    def recording(self, cfg, i):
        built.append((cfg, i))
        init(self, cfg, i)

    monkeypatch.setattr(verifier._OneShotChecker, "__init__", recording)
    shared = 0
    for cfg, cands in cases:
        n = cfg.family.n
        for depth in (1, 2):
            direct = [json.dumps(verify_one_shot(replace(cfg), i, depth,
                                                 cands.get(i, ())).to_json())
                      for i in range(n)]
            for order in (range(n), range(n - 1, -1, -1)):
                memo_cfg = replace(cfg)
                for i in order:
                    rep = verify_one_shot(memo_cfg, i, depth, cands.get(i, ()))
                    assert json.dumps(rep.to_json()) == direct[i], (
                        cfg.member, depth, list(order), i)
                checked = {i for c, i in built if c is memo_cfg}
                shared += sum(i not in checked for i in range(n))
    assert shared > 0


def test_symmetric_continuations_change_no_check(rng, monkeypatch):
    # a checker that serves a forced continuation stored under its key by
    # the walk of a symmetric twin reports every check (gain, tolerance,
    # witness, in order) as one whose stabilizer is forced to the identity
    # alone, and every value it serves without a walk, plus i's cooperative
    # tail, is what enumerating that continuation to absorption gives: for
    # one agent of each automorphism orbit, at depth 2 (whose checks begin
    # with depth 1's), on the orbit gate's random pool, which holds 5-agent
    # families under each protocol, and on the connectivity families k3,
    # ring_chord and k4 at a horizon that cuts continuations and at 1500
    from dynacct import verifier
    from dynacct.protocols import SigmaGen

    from . import oracles
    from .test_acceptance import criterion2_families, gen_config
    pool = list(_symmetric_configs(rng, 9))
    assert any(cfg.family.n == 5 and cfg.strategies[0] == "sigma_gen"
               for cfg in pool)
    cases = [*pool, *(gen_config(fam, horizon) for fam in criterion2_families()
                      for horizon in (10, 1500))]
    valued = verifier._OneShotChecker._continuation_eu
    relative_eu = verifier._relative_eu
    walks = reused = 0

    def walking(*args, **kwargs):
        nonlocal walks
        walks += 1
        return relative_eu(*args, **kwargs)

    def checked(self, machines, m2, world, pattern):
        nonlocal reused
        before = walks
        got = valued(self, machines, m2, world, pattern)
        if walks == before:
            reused += 1
            assert got + _tail(self.cfg, self.i, m2) == (
                oracles.continuation_eu(self, machines, m2, world, pattern))
        return got

    def results(cfg, agents):
        checks = []
        for i in agents:
            checker = verifier._OneShotChecker(replace(cfg), i)
            checker.report(build_machines(cfg, honest_only=True), 2, ())
            checks.append(checker.results)
        return checks

    monkeypatch.setattr(verifier, "_relative_eu", walking)
    monkeypatch.setattr(verifier._OneShotChecker, "_continuation_eu", checked)
    for cfg in cases:
        agents = [i for i in range(cfg.family.n)
                  if not any(next(cfg.graph._automorphisms(r, i), None)
                             for r in range(i))]
        got = results(cfg, agents)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(EvolvingGraph, "_automorphisms",
                       lambda g, r, i: iter([tuple(range(g.n))]))
            assert results(cfg, agents) == got, (cfg.member, cfg.horizon)
    assert reused > 0
    # on k3 the honest world is the same at rounds 7 and 8, and fixed by the
    # automorphism swapping 1 and 2, but a horizon of 10 cuts the
    # continuations from there differently (defecting 1 is punished in time
    # from round 7 only): a twin walked from another round is no twin
    cfg = gen_config(criterion2_families()[0], 10)
    checker = verifier._OneShotChecker(cfg, 0)
    checker.symmetries = [(0, 1, 2), (0, 2, 1)]
    checker.relabel = SigmaGen.relabel_key
    honest = cfg._honest_run.checkpoints
    world = verifier._world_key(cfg.graph, honest[6], 7)
    assert world == verifier._world_key(cfg.graph, honest[7], 8)
    before = walks
    for m2, pattern in ((7, {1: "defect", 2: "send"}),
                        (8, {1: "send", 2: "defect"})):
        got = checker._continuation_eu(honest[m2 - 1], m2, world, pattern)
        assert got + _tail(cfg, 0, m2) == oracles.continuation_eu(
            checker, honest[m2 - 1], m2, world, pattern)
    assert walks - before == 2


def test_symmetry_is_decided_from_the_honest_machines(monkeypatch):
    # agents that spell one spec differently, or stack a deviation layer on
    # it, run one honest machine: their reports equal direct verification of
    # the plainly spelt profile, and they share reports and continuations.
    # A spec that differs in a parameter the key holds is no twin
    import json

    from dynacct import verifier

    from .test_acceptance import criterion2_families, gen_config
    k4 = gen_config(criterion2_families()[2], horizon=40)
    spelt = replace(k4, strategies={
        0: "sigma_gen", 1: {"strategy": "sigma_gen"}, 2: "sigma_gen",
        3: {"deviation": {"kind": "always_defect_until", "round": 2,
                          "base": {"strategy": "sigma_gen"}}}})
    walks = calls = 0
    relative_eu = verifier._relative_eu
    valued = verifier._OneShotChecker._continuation_eu

    def walking(*args, **kwargs):
        nonlocal walks
        walks += 1
        return relative_eu(*args, **kwargs)

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return valued(self, *args)
    monkeypatch.setattr(verifier, "_relative_eu", walking)
    monkeypatch.setattr(verifier._OneShotChecker, "_continuation_eu", counted)
    for depth in (1, 2):
        direct = [verify_one_shot(replace(k4), i, depth) for i in range(4)]
        memo_cfg = replace(spelt)
        for i in range(4):
            rep = verify_one_shot(memo_cfg, i, depth)
            assert json.dumps(rep.to_json()) == json.dumps(direct[i].to_json())
        assert list(memo_cfg._one_shot_reports) == [(0, depth)]
    # with the loop's configs gone, the checker starts from an empty world
    # graph, so the sharing seen is that of its own walks
    del memo_cfg
    walks = calls = 0
    checker = verifier._OneShotChecker(replace(spelt), 0)
    checker.report(build_machines(spelt, honest_only=True), 2, ())
    assert len(checker.symmetries) == 6 and 0 < walks < calls
    rho = {a: {"strategy": "accusation_punisher", "rho": 3} for a in range(4)}
    for strategies, symmetric in ((rho, True), ({**rho, 2: dict(rho[2], rho=4)},
                                                False)):
        cfg = replace(k4, strategies=strategies)
        assert verifier._symmetric_profile(
            build_machines(cfg, honest_only=True)) is symmetric


def test_orbit_sharing_walks_once_per_orbit(monkeypatch):
    # the checkers built by verify_one_shot calls: one per orbit of a
    # label-free profile, one per call on a scripted one, one per call
    # with candidates, and a fresh memo after dataclasses.replace
    from dynacct import verifier

    from .test_acceptance import criterion2_families, gen_config
    built = []
    init = verifier._OneShotChecker.__init__

    def counting(self, cfg, i):
        built.append(i)
        init(self, cfg, i)
    monkeypatch.setattr(verifier._OneShotChecker, "__init__", counting)

    def checkers(cfg, asks):
        built.clear()
        for i, cands in asks:
            verify_one_shot(cfg, i, candidates=cands)
        return list(built)

    _, ring_chord, k4 = (gen_config(fam, horizon=40)
                         for fam in criterion2_families())
    every = [(i, ()) for i in range(4)]
    assert checkers(k4, every) == [0]
    assert checkers(ring_chord, every) == [0, 1]
    unsafe = builtin("unsafe_three_agent").sim_config(horizon=12)
    assert checkers(unsafe, [(0, ()), (1, ()), (2, ()), (1, ())]) == [0, 1, 2, 1]
    sc = builtin("timely_violation")
    cand = [{k: v for k, v in sc.candidates[0].items() if k != "agent"}]
    timely = sc.sim_config(horizon=12)
    assert checkers(timely, [(1, cand), (1, cand), (2, ()), (1, ())]) == [1, 1, 2]
    assert checkers(replace(k4), [(3, ())]) == [3]
    assert checkers(k4, [(3, ())]) == []


def test_no_hook_reaches_a_spent_scheduled_defector(tmp_path, monkeypatch):
    # a deviation wrapper leaves the machines once its last scheduled round
    # has played: the one-shot checker's forced continuations and
    # after-deviation walks, a candidate's walk and a simulated deviation
    # never call through a spent one
    from dynacct.cli import main
    spent = count_spent_hooks(monkeypatch)
    counts = []
    verify_one_shot(k3_gen_cfg(horizon=12), 0, robust_depth=2)
    counts.append(spent[0])
    sc = builtin("timely_violation")
    candidate = {k: v for k, v in sc.candidates[0].items() if k != "agent"}
    verify_one_shot(sc.sim_config(horizon=12), 1, candidates=[candidate])
    counts.append(spent[0])
    assert main(["simulate", "--scenario", "ring_connectivity",
                 "--horizon", "12", "--deviate", "agent=0,defect_all,round=2",
                 "--out", str(tmp_path / "dev")]) == 0
    counts.append(spent[0])
    assert counts == [0, 0, 0]


# ---------------------------------------------------------------------------
# paired-trace facts
# ---------------------------------------------------------------------------

def k3_gen_cfg(horizon=40):
    fam = GraphFamily(3, (EvolvingGraph((), (complete_graph(3),), "k3"),), ND, 8)
    return SimConfig(family=fam, member="k3",
                     strategies={a: "sigma_gen" for a in range(3)},
                     horizon=horizon, params=general_defaults())


def test_assert_gen_facts_single_defection_all_pass():
    cfg = k3_gen_cfg()
    pair = run_paired_defection(cfg, 1, 2, ALL_NEIGHBORS)
    rep = assert_gen_facts(cfg, pair, 2)
    assert rep.passed, rep.to_json()


def test_assert_gen_facts_subset_defection():
    cfg = k3_gen_cfg()
    pair = run_paired_defection(cfg, 0, 3, [2])
    rep = assert_gen_facts(cfg, pair, 3)
    assert rep.passed, rep.to_json()


def test_assert_gen_facts_conforming_pair_vacuous():
    cfg = k3_gen_cfg()
    t1 = _simulate_machines(cfg, build_machines(cfg))
    t2 = _simulate_machines(cfg, build_machines(cfg))
    rep = assert_gen_facts(cfg, (t1, t2), 2)
    assert rep.passed


def test_assert_gen_facts_requires_state_logs():
    cfg = k3_gen_cfg(horizon=12)
    t1 = simulate(cfg)
    t2 = simulate(cfg)
    with pytest.raises(ValueError):
        assert_gen_facts(cfg, (t1, t2), 1)


def test_assert_gen_facts_horizon_guard():
    cfg = k3_gen_cfg(horizon=3)
    pair = run_paired_defection(cfg, 0, 2, ALL_NEIGHBORS)
    rep = assert_gen_facts(cfg, pair, 2)
    assert rep.facts["F2_pend_convergence"] is not None


def test_assert_gen_facts_detects_uncapped_mutant():
    from dynacct.protocols import ScheduledDefector, SigmaGen
    fam = GraphFamily(4, (EvolvingGraph((), (ring_graph(4),), "r"),), ND, 8)
    cfg = SimConfig(family=fam, member="r",
                    strategies={a: "sigma_gen" for a in range(4)},
                    horizon=30, params=general_defaults())
    conform = _simulate_machines(cfg, {a: SigmaGen(a, 4) for a in range(4)})

    def mutated():
        ms = {a: FlatSigmaGen(a, 4, _cap=False) for a in range(4)}
        ms[1] = FlatSigmaGen(1, 4, _cap=False, _pend_payload_inflate=9)
        ms[0] = ScheduledDefector(ms[0], {2: ALL_NEIGHBORS}, sincere=True)
        return ms

    deviate = _simulate_machines(cfg, mutated())
    rep = assert_gen_facts(cfg, (conform, deviate), 2)
    assert rep.facts["bounded_state"] is not None


def test_trace_utilities_recomputable_from_profiles():
    from dynacct.game_core import round_utility
    sc = builtin("ring_connectivity")
    sc.strategies[0] = {"deviation": {"kind": "always_defect_until", "round": 1,
                                      "base": "sigma_gen"}}
    ring = sc.sim_config(horizon=20, seed=2)
    # fractional punish probabilities: at round 5 a punishment is drawn
    drawn = gen_cfg(mixed_degree_family(), horizon=20, seed=3,
                    devs={0: {"deviation": {"kind": "always_defect_until",
                                            "round": 1, "base": "sigma_gen"}}})
    for cfg in (ring, drawn):
        t = simulate(cfg)
        for m in range(1, 21):
            rg = cfg.graph.at(m)
            for i in range(cfg.family.n):
                assert t.utility(i, m) == round_utility(
                    i, t.history.profiles[m - 1], rg, cfg.params)
    assert any(a.kind is ActionKind.PUNISH
               for a in t.history.profiles[4].actions[2].per_neighbor.values())


def test_assert_gen_facts_second_deviation_with_prior_tally():
    # pair (deviate at m1 only) vs (deviate at m1 and m2 = m1 + n): the
    # traces differ only at m2, and the convergence fact exercises the
    # max(x - deg, 0) branch with x = the first deviation's tally
    from dynacct.protocols import defect_at_rounds
    cfg = k3_gen_cfg(horizon=40)
    n, m1 = 3, 2
    m2 = m1 + n

    def machines_with(rounds):
        ms = build_machines(cfg, honest_only=True)
        ms[0] = defect_at_rounds(ms[0], rounds)
        return ms

    conform = _simulate_machines(cfg, machines_with([m1]))
    deviate = _simulate_machines(cfg, machines_with([m1, m2]))
    rep = assert_gen_facts(cfg, (conform, deviate), m2)
    assert rep.passed, rep.to_json()
    # the deviating run's tally for the second round stacks on the first:
    # y + max(x - deg, 0) with x = deg = 2 gives exactly 2 again
    pend = dict((tuple(k), v) for k, v in
                deviate.state_log[(1, m2 + n - 1)]["pend"])
    assert pend[(0, (m2 + n) % n)] == 2


def test_verify_one_shot_time_varying_cycle():
    # phase-dependent degrees make the punish draws fractional; the
    # equilibrium verdict must survive the branching (depth 1 for speed,
    # the full depth-2 run passes identically)
    fam = mixed_degree_family()
    cfg = gen_cfg(fam, horizon=1500)
    rep = verify_one_shot(cfg, 0, robust_depth=1)
    assert rep.verdict and rep.max_gain == 0
    assert rep.tolerance < Fraction(1, 1000)


def test_gen_facts_on_random_connectivity_families(rng):
    # random constant families satisfying the connectivity restriction;
    # every single-defection pair must satisfy all facts exactly
    from dynacct.evolving_graph import (EvolvingGraph, GraphFamily,
                                        ObservationModel, RoundGraph,
                                        check_connectivity_restriction)
    from dynacct.protocols import ALL_NEIGHBORS
    from .conftest import random_round_graph

    trials = 0
    while trials < 6:
        n = rng.choice([3, 4])
        rg = random_round_graph(rng, n, p=0.8)
        g = EvolvingGraph((), (rg,), "rand")
        fam = GraphFamily(n, (g,), ObservationModel.NEIGHBORS_AND_DEGREES,
                          max(8, g.period))
        if not check_connectivity_restriction(fam).holds:
            continue
        if any(rg.degree(i) == 0 for i in range(n)):
            continue
        trials += 1
        cfg = SimConfig(family=fam, member="rand",
                        strategies={a: "sigma_gen" for a in range(n)},
                        horizon=2 * n + n * n + 2, params=general_defaults(),
                        seed=rng.randrange(10 ** 6))
        i = rng.randrange(n)
        m = rng.randint(1, 2 * n)
        nbrs = sorted(g.at(m).neighbors(i))
        sub = frozenset(rng.sample(nbrs, rng.randint(1, len(nbrs))))
        targets = ALL_NEIGHBORS if sub == frozenset(nbrs) else sub
        pair = run_paired_defection(cfg, i, m, targets)
        rep = assert_gen_facts(cfg, pair, m)
        assert rep.passed, (sorted(rg.edges), i, m, sorted(sub), rep.to_json())
