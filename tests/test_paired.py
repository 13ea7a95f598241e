"""Paired defections forked from the cached honest run, stopping at the
first world their config has already played.

``run_paired_defection`` simulates a config's honest run once and starts
each deviating run at its own round from a checkpoint of that run.  From
round m+1 on, the deviating run stops at the first round whose world
(every machine's ``state_key``) the config's table of played rounds
holds, the honest run's or an earlier deviating run's, and follows the
table to the horizon; the rounds it played are added to the table.  These
tests hold it to ``oracles.paired_defection_from_scratch``, which plays
both runs in full every time: on every shipped strategy, on machines whose
opaque default key is never stored, on every (agent, round, target set)
of seeded random connectivity families, in shuffled job orders, and with
the jobs of two configs interleaved.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import FrozenInstanceError, replace

import pytest

from dynacct import protocols, verifier
from dynacct.evolving_graph import (EvolvingGraph, GraphFamily, RoundGraph,
                                    check_connectivity_restriction)
from dynacct.game_core import ActionProfile, History, Trace
from dynacct.protocols import ALL_NEIGHBORS, SigmaGen, StrategyMachine
from dynacct.scenarios import complete_graph, general_defaults
from dynacct.verifier import SimConfig, assert_gen_facts, run_paired_defection

from .conftest import count_spent_hooks, random_round_graph
from .oracles import paired_defection_from_scratch
from .test_soundness import SHIPPED
from .test_verifier import ND, gen_cfg, k3_gen_cfg, mixed_degree_family

HORIZON = 12


def shipped_cfg(name, seed):
    spec, params = SHIPPED[name]
    fam = mixed_degree_family()
    return SimConfig(family=fam, member="mix",
                     strategies={a: spec for a in range(fam.n)},
                     horizon=HORIZON, params=params(fam.n), seed=seed)


def assert_same_pair(got, want):
    for g, w in zip(got, want):
        assert g.history.profiles == w.history.profiles
        assert g.per_round_utilities == w.per_round_utilities
        assert g.state_log == w.state_log
        assert g.rng_seed == w.rng_seed


def target_sets(cfg, i, m):
    nbrs = sorted(cfg.graph.at(m).neighbors(i))
    return [ALL_NEIGHBORS, frozenset(nbrs[:1]), nbrs[1:]]


def paired_cfg(fam: GraphFamily) -> SimConfig:
    """sigma_gen on fam at the benchmark's paired horizon 2n + n^2 + 2."""
    n = fam.n
    return gen_cfg(fam, horizon=2 * n + n * n + 2)


def k3_family() -> GraphFamily:
    return GraphFamily(3, (EvolvingGraph((), (complete_graph(3),), "k3"),),
                       ND, 8)


def ring_chord_family() -> GraphFamily:
    chord = RoundGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    return GraphFamily(4, (EvolvingGraph((), (chord,), "ring_chord"),), ND, 8)


def defections(cfg):
    """Every (i, m, targets) of rounds 1..2n: all neighbours and every
    non-empty proper subset."""
    for i in range(cfg.family.n):
        for m in range(1, 2 * cfg.family.n + 1):
            nbrs = sorted(cfg.graph.at(m).neighbors(i))
            for r in range(1, len(nbrs) + 1):
                for sub in itertools.combinations(nbrs, r):
                    yield i, m, (ALL_NEIGHBORS if len(sub) == len(nbrs)
                                 else frozenset(sub))


def count_rounds(monkeypatch):
    """Count ``_play_round`` calls from here on: returns the counter."""
    played = [0]
    play_round = verifier._play_round

    def counted(*args, **kwargs):
        played[0] += 1
        return play_round(*args, **kwargs)

    monkeypatch.setattr(verifier, "_play_round", counted)
    return played


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_paired_defection_matches_from_scratch(name):
    # every shipped strategy, several seeds, the first two and the last two
    # rounds, all neighbours and subsets; one cfg serves every call, so all
    # but its first call fork from the cached honest run
    for seed in (0, 1, 5):
        cfg = shipped_cfg(name, seed)
        for i in (0, 2):
            for m in (1, 2, HORIZON - 1, HORIZON):
                for targets in target_sets(cfg, i, m):
                    assert_same_pair(
                        run_paired_defection(cfg, i, m, targets),
                        paired_defection_from_scratch(cfg, i, m, targets))


def test_interleaved_calls_give_identical_pairs():
    cfg = shipped_cfg("sigma_gen", 3)
    a1 = run_paired_defection(cfg, 1, 4, ALL_NEIGHBORS)
    b = run_paired_defection(cfg, 3, 2, [0])
    a2 = run_paired_defection(cfg, 1, 4, ALL_NEIGHBORS)
    assert_same_pair(a1, a2)
    assert_same_pair(b, paired_defection_from_scratch(cfg, 3, 2, [0]))
    assert a1[0] is not a2[0] and a1[1] is not a2[1]


def test_edited_trace_leaves_later_calls_unchanged(monkeypatch):
    cfg = shipped_cfg("sigma_gen", 2)
    cfg._honest_run     # simulated here, so the count below is one job's
    played = count_rounds(monkeypatch)
    conform, deviate = run_paired_defection(cfg, 0, 1, ALL_NEIGHBORS)
    # the deviating run rejoined the honest run: its rounds
    # rejoin..HORIZON are copied from it, and the first edits reach into
    # them
    rejoin = 1 + played[0]
    assert rejoin <= HORIZON - 2
    profiles = deviate.history.profiles
    profiles[rejoin - 1] = profiles[rejoin]
    del profiles[rejoin + 1]
    for a in range(4):
        deviate.per_round_utilities[(a, rejoin)] += 7
        del deviate.per_round_utilities[(a, HORIZON)]
        deviate.state_log[(a, rejoin)] = {"pend": [], "acc": []}
        del deviate.state_log[(a, HORIZON)]
    for t in (conform, deviate):
        t.history.profiles.append(ActionProfile(99, {}))
        t.history.profiles[0] = t.history.profiles[5]
        t.per_round_utilities.clear()
        t.state_log[(0, 1)] = {"pend": [], "acc": []}
        del t.state_log[(1, 2)]
    for m in (1, 2, 3, 4):
        assert_same_pair(run_paired_defection(cfg, 0, m, ALL_NEIGHBORS),
                         paired_defection_from_scratch(cfg, 0, m, ALL_NEIGHBORS))


def test_deviation_rounds_outside_the_run_are_refused():
    # round 0 used to pass as a conforming pair, and horizon + 1 to crash
    # in _find_deviation with an IndexError
    cfg = k3_gen_cfg(horizon=17)
    pair = run_paired_defection(cfg, 0, 17, ALL_NEIGHBORS)
    last = assert_gen_facts(cfg, pair, 17)    # the last round is checked
    assert last.facts["F2_pend_convergence"] == (
        "horizon too short to reach round m+n-1")
    for m in (0, 18):
        with pytest.raises(ValueError, match=f"round {m} .*horizon 17"):
            run_paired_defection(cfg, 0, m, ALL_NEIGHBORS)
        with pytest.raises(ValueError, match=f"round {m} .*horizon 17"):
            assert_gen_facts(cfg, pair, m)


def test_traces_that_end_before_the_deviation_round_are_refused():
    # both traces cut to 3 rounds, or the deviating one alone, for a
    # deviation at round 5: a ValueError naming both rounds, not an
    # IndexError from the profile lookup
    cfg = k3_gen_cfg(horizon=17)
    pair = run_paired_defection(cfg, 0, 5, ALL_NEIGHBORS)
    cut = tuple(Trace(History(t.history.profiles[:3]),
                      {k: u for k, u in t.per_round_utilities.items()
                       if k[1] <= 3}, t.rng_seed,
                      {k: s for k, s in t.state_log.items() if k[1] <= 3})
                for t in pair)
    for traces in (cut, (pair[0], cut[1])):
        with pytest.raises(ValueError, match="end at round 3, before the "
                                             "deviation round 5"):
            assert_gen_facts(cfg, traces, 5)
    assert assert_gen_facts(cfg, pair, 5).passed


def test_sim_config_is_frozen():
    cfg = k3_gen_cfg(horizon=5)
    with pytest.raises(FrozenInstanceError):
        cfg.horizon = 0
    with pytest.raises(FrozenInstanceError):
        cfg.seed = 1
    assert cfg.horizon == 5 and cfg.seed == 0
    # the strategies are a read-only copy: neither the config's mapping nor
    # the caller's dict can change the run a cached honest run stands for
    with pytest.raises(TypeError):
        cfg.strategies[1] = "always_defect"
    specs = {a: "sigma_gen" for a in range(3)}
    cfg = SimConfig(family=cfg.family, member="k3", strategies=specs,
                    horizon=10, params=general_defaults())
    before = run_paired_defection(cfg, 0, 2, ALL_NEIGHBORS)
    specs[1] = "always_defect"
    assert cfg.strategies[1] == "sigma_gen"
    assert_same_pair(run_paired_defection(cfg, 0, 2, ALL_NEIGHBORS), before)


def test_edited_spec_leaves_the_cached_honest_run_valid():
    # one spec dict shared by every agent and edited after the honest run is
    # cached: the config holds its own deep copy, so later pairs still match
    # a from-scratch run of the config
    spec = {"strategy": "accusation_punisher", "rho": 3}
    fam = mixed_degree_family()
    cfg = SimConfig(family=fam, member="mix",
                    strategies={a: spec for a in range(fam.n)},
                    horizon=HORIZON, params=general_defaults())
    run_paired_defection(cfg, 0, 2, ALL_NEIGHBORS)
    spec["rho"] = 1
    assert_same_pair(run_paired_defection(cfg, 0, 2, ALL_NEIGHBORS),
                     paired_defection_from_scratch(cfg, 0, 2, ALL_NEIGHBORS))
    assert cfg.strategies[0] == {"strategy": "accusation_punisher", "rho": 3}


def test_replaced_config_gets_its_own_honest_run():
    cfg = shipped_cfg("sigma_gen", 0)
    run_paired_defection(cfg, 0, 2, ALL_NEIGHBORS)
    other = replace(cfg, seed=4)
    got = run_paired_defection(other, 0, 2, ALL_NEIGHBORS)
    assert other._honest_run is not cfg._honest_run
    assert got[0].rng_seed == got[1].rng_seed == 4
    assert_same_pair(got, paired_defection_from_scratch(other, 0, 2,
                                                        ALL_NEIGHBORS))
    # the seeds draw different punishments after the defection
    assert got[1].history.profiles != run_paired_defection(
        cfg, 0, 2, ALL_NEIGHBORS)[1].history.profiles


def test_k3_paired_facts_group_plays_233_rounds(monkeypatch):
    # the k3 family's paired defections as one process runs them: every
    # agent, rounds 1..2n, every non-empty target set.  One honest run of
    # 17 rounds, plus each job's deviating round m (54) and its rounds
    # from m+1 until it reaches a world some run of the config has
    # already played (162): 233 in all.  Rejoining the honest run alone,
    # the jobs played 324 rounds (341 in all); played to the horizon they
    # need 18 - m rounds each (800 in all), and simulating both runs of
    # every job in full 54 * 34 = 1,836
    cfg = paired_cfg(k3_family())
    played = count_rounds(monkeypatch)
    jobs = 0
    for i, m, targets in defections(cfg):
        pair = run_paired_defection(cfg, i, m, targets)
        assert assert_gen_facts(cfg, pair, m).passed
        jobs += 1
    assert jobs == 54
    assert played[0] == 233


def test_opaque_state_keys_never_rejoin(monkeypatch):
    # with the default ("opaque", id) key no two machines' keys are equal,
    # so every deviating run plays each round from m to the horizon
    monkeypatch.setattr(SigmaGen, "state_key", StrategyMachine.state_key)
    cfg = shipped_cfg("sigma_gen", 1)
    cfg._honest_run     # simulated here, so the counts below are per job
    played = count_rounds(monkeypatch)
    for i in (0, 3):
        for m in (1, 2, 7, HORIZON):
            played[0] = 0
            got = run_paired_defection(cfg, i, m, ALL_NEIGHBORS)
            assert played[0] == HORIZON - m + 1
            assert_same_pair(got, paired_defection_from_scratch(
                cfg, i, m, ALL_NEIGHBORS))


def test_rejoin_fires_on_mixed_degree_family(monkeypatch):
    # sigma_gen forgets a round-1 defection well before the horizon: the
    # deviating run stops playing early and still equals the full run
    cfg = gen_cfg(mixed_degree_family(), horizon=HORIZON, seed=3)
    cfg._honest_run
    played = count_rounds(monkeypatch)
    for i in range(4):
        played[0] = 0
        got = run_paired_defection(cfg, i, 1, ALL_NEIGHBORS)
        assert played[0] < HORIZON
        assert_same_pair(got, paired_defection_from_scratch(
            cfg, i, 1, ALL_NEIGHBORS))


def connectivity_families(rng, count):
    """Seeded random single-member families, time-varying or not, that
    satisfy the connectivity restriction."""
    fams = []
    while len(fams) < count:
        n = rng.choice([3, 4])
        g = EvolvingGraph(
            tuple(random_round_graph(rng, n, p=0.8)
                  for _ in range(rng.randint(0, 2))),
            tuple(random_round_graph(rng, n, p=0.8)
                  for _ in range(rng.randint(1, 3))), "rand")
        fam = GraphFamily(n, (g,), ND, max(8, g.period))
        if check_connectivity_restriction(fam).holds:
            fams.append(fam)
    return fams


def test_random_connectivity_families_fork_and_rejoin(rng, monkeypatch):
    # sigma_gen on random connectivity families: every agent, round and
    # target set (all neighbours and every non-empty proper subset)
    played = count_rounds(monkeypatch)
    rejoined = 0
    for fam in connectivity_families(rng, 3):
        cfg = gen_cfg(fam, horizon=10, seed=rng.randrange(10 ** 6))
        cfg._honest_run
        for i in range(fam.n):
            for m in range(1, cfg.horizon + 1):
                nbrs = sorted(cfg.graph.at(m).neighbors(i))
                subsets = [frozenset(sub) for r in range(1, len(nbrs))
                           for sub in itertools.combinations(nbrs, r)]
                for targets in [ALL_NEIGHBORS, *subsets]:
                    played[0] = 0
                    got = run_paired_defection(cfg, i, m, targets)
                    rejoined += played[0] < cfg.horizon - m + 1
                    assert_same_pair(got, paired_defection_from_scratch(
                        cfg, i, m, targets))
    assert rejoined >= 100


@pytest.mark.parametrize("family", [k3_family, ring_chord_family])
def test_spent_deviator_plays_as_its_base(family, monkeypatch):
    # the deviator's wrapper plays round m only: no hook goes through it
    # later, yet each of its snapshots in the deviating trace, copied or
    # played, carries the label, and the pair equals the from-scratch run
    cfg = paired_cfg(family())
    spent = count_spent_hooks(monkeypatch)
    jobs = 0
    for i, m, targets in defections(cfg):
        got = run_paired_defection(cfg, i, m, targets)
        assert spent[0] == 0
        assert all(got[1].state_log[(i, M)]["deviation"] == f"defect@{m}"
                   for M in range(1, cfg.horizon + 1))
        assert not any("deviation" in s for s in got[0].state_log.values())
        assert_same_pair(got, paired_defection_from_scratch(cfg, i, m, targets))
        jobs += 1
    assert jobs == {3: 54, 4: 160}[cfg.family.n]


def test_k3_paired_jobs_decode_each_state_once():
    # SigmaGen decodes a state once per round it is seen at: the k3
    # family's 54 paired jobs, from a cleared cache, decode exactly the
    # distinct (round, state) pairs of their logs, not one per logged
    # snapshot
    protocols._gen_snapshot.cache_clear()
    cfg = paired_cfg(k3_family())
    states, logged = set(), 0
    for i, m, targets in defections(cfg):
        for trace in run_paired_defection(cfg, i, m, targets):
            for (_, M), snap in trace.state_log.items():
                states.add((M, tuple(snap["pend"]), tuple(snap["acc"])))
                logged += 1
    decoded = protocols._gen_snapshot.cache_info().misses
    assert decoded == len(states) == 357
    assert logged == 54 * 2 * 3 * cfg.horizon


def record_chains(monkeypatch):
    """Record the rounds each deviating run follows from the table of
    played rounds (``verifier._chain``), one list per call from here on."""
    followed = []
    chain = verifier._chain

    def recorded(r):
        followed.append([])
        for x in chain(r):
            followed[-1].append(x)
            yield x

    monkeypatch.setattr(verifier, "_chain", recorded)
    return followed


@pytest.mark.parametrize("family", [k3_family, ring_chord_family])
def test_any_job_order_plays_each_world_once(family, monkeypatch):
    # every job of the family, in two shuffled orders, each on a fresh
    # config: every pair equals the from-scratch run, and both orders play
    # the same rounds, the union of the jobs' trajectories.  Each round
    # played from m+1 on is stored once: the honest run's rounds and the
    # rest of the table are all the rounds played bar each job's round m.
    # The deviating trace is built from copies of the honest trace's
    # containers, and writes only the table's rounds up to the first of
    # the honest run's own: some jobs follow rounds an earlier job stored
    # before they reach those, and editing a returned trace's containers
    # changes neither the cached honest run nor the next pair
    cfg = paired_cfg(family())
    jobs = list(defections(cfg))
    want = {job: paired_defection_from_scratch(cfg, *job) for job in jobs}
    played = count_rounds(monkeypatch)
    followed = record_chains(monkeypatch)
    counts = []
    for seed in (1, 2):
        order = random.Random(seed).sample(jobs, len(jobs))
        other = replace(cfg)
        played[0] = 0
        stored = 0
        for job in order:
            del followed[:]
            pair = run_paired_defection(other, *job)
            assert_same_pair(pair, want[job])
            honest = other._honest_run
            chain = followed[0] if followed else []
            stored += any(r is not honest.rounds[r.profile.round - 1]
                          for r in chain)
            # the chain is read up to the first of the honest run's rounds
            assert all(r is not honest.rounds[r.profile.round - 1]
                       for r in chain[:-1])
            before = [(list(t.history.profiles), dict(t.per_round_utilities),
                       dict(t.state_log)) for t in (honest.trace,)]
            for t in pair:
                t.history.profiles[job[1] - 1] = t.history.profiles[0]
                del t.history.profiles[-1]
                t.per_round_utilities[(0, cfg.horizon)] = 7
                t.state_log[(1, job[1])] = {"pend": [], "acc": []}
                del t.state_log[(2, 1)]
            h = honest.trace
            assert before == [(h.history.profiles, h.per_round_utilities,
                               h.state_log)]
        assert stored >= 1
        assert played[0] == len(jobs) + len(other._played.rounds)
        counts.append(played[0])
    assert counts[0] == counts[1] == {3: 233, 4: 794}[cfg.family.n]


def two_rings() -> list[GraphFamily]:
    """Two 4-agent rings, 0-1-2-3 and 0-2-1-3: every agent has two
    neighbours in both, but not the same ones."""
    return [GraphFamily(4, (EvolvingGraph((), (RoundGraph.from_pairs(4, [
        (a, b), (b, c), (c, d), (d, a)]),), name),), ND, 8)
        for name, (a, b, c, d) in (("ring", (0, 1, 2, 3)),
                                   ("twisted", (0, 2, 1, 3)))]


def test_interleaved_configs_keep_their_own_rounds():
    # the jobs of two configs of one horizon whose graphs differ only in
    # the neighbours' ids, alternated in one process: each config's table
    # holds its own profiles, so every pair equals the from-scratch run
    cfgs = [paired_cfg(fam) for fam in two_rings()]
    assert cfgs[0].horizon == cfgs[1].horizon
    for jobs in zip(*(defections(cfg) for cfg in cfgs)):
        for cfg, job in zip(cfgs, jobs):
            assert_same_pair(run_paired_defection(cfg, *job),
                             paired_defection_from_scratch(cfg, *job))


@pytest.mark.parametrize("wrap", [lambda key: key, lambda key: ("k", key)],
                         ids=["opaque", "nested"])
def test_opaque_worlds_are_never_stored(wrap, monkeypatch):
    # agent 2 keys as the default ("opaque", id), alone or inside a tuple:
    # over every job no world is stored, not even the honest run's, and
    # every deviating run plays to the horizon
    key = SigmaGen.state_key
    monkeypatch.setattr(SigmaGen, "state_key", lambda self: (
        wrap(StrategyMachine.state_key(self)) if self.me == 2
        else key(self)))
    cfg = paired_cfg(ring_chord_family())
    cfg._played
    played = count_rounds(monkeypatch)
    for i, m, targets in defections(cfg):
        played[0] = 0
        got = run_paired_defection(cfg, i, m, targets)
        assert played[0] == cfg.horizon - m + 1
        assert cfg._played.rounds == {}
        if m in (1, 8):
            assert_same_pair(got, paired_defection_from_scratch(
                cfg, i, m, targets))
