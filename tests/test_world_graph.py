"""The one-shot verifier's world graph: one node per world, shared by every
walk of the configs that differ in member alone."""

from __future__ import annotations

import json
import random
import weakref
from dataclasses import replace

import pytest

from dynacct import verifier
from dynacct.cli import main
from dynacct.evolving_graph import EvolvingGraph, GraphFamily, ObservationModel
from dynacct.scenarios import Scenario, builtin, general_defaults
from dynacct.verifier import (_begin_round, _deliver, _fork, _round_scripts,
                              _world_key, verify_cooperation, verify_one_shot)

from .conftest import random_round_graph
from .test_verifier import (BUILTINS, _symmetric_configs, gen_cfg,
                            k3_gen_cfg, mixed_degree_family)

ND = ObservationModel.NEIGHBORS_AND_DEGREES
NO = ObservationModel.NEIGHBORS_ONLY


def _verify(capsys, *args) -> tuple[int, dict]:
    code = main(["verify", *args])
    return code, json.loads(capsys.readouterr().out)


def _shared_cycle_scenario(rng: random.Random, k: int) -> Scenario:
    """Two members with one cycle whose prefixes differ in 1-3 rounds."""
    n = rng.randint(3, 4)
    cycle = tuple(random_round_graph(rng, n) for _ in range(rng.randint(1, 3)))
    prefix = [random_round_graph(rng, n) for _ in range(rng.randint(1, 3))]
    other = list(prefix)
    for t in rng.sample(range(len(prefix)), rng.randint(1, len(prefix))):
        while other[t] == prefix[t]:
            other[t] = random_round_graph(rng, n)
    members = (EvolvingGraph(tuple(prefix), cycle, "A"),
               EvolvingGraph(tuple(other), cycle, "B"))
    spec, obs = rng.choice(((("accusation_punisher", 3), NO),
                            (("accusation_punisher", 3), ND),
                            (("sigma_gen", None), ND)))
    name, rho = spec
    strategy = {"strategy": name} if rho is None else {"strategy": name,
                                                        "rho": rho}
    return Scenario(name=f"shared{k}", description="", member="A",
                    family=GraphFamily(n, members, obs, 8),
                    params=general_defaults(),
                    strategies={a: dict(strategy) for a in range(n)},
                    horizon=rng.choice((12, 16)))


def test_members_pooled_in_one_verify_report_as_if_verified_alone(
        rng, tmp_path, capsys, monkeypatch):
    # each member's part of one `dynacct verify` is, byte for byte, the
    # document of `--member` run alone: on fig2, whose members share their
    # last prefix round and cycle, on fig3, whose members have different
    # cycles, and on 20 random families whose members share a cycle and
    # differ in 1-3 prefix rounds; where members share worlds, verifying
    # them together plays fewer rounds than verifying each alone
    played = 0
    begin_round = verifier._begin_round

    def counted(*args):
        nonlocal played
        played += 1
        return begin_round(*args)
    monkeypatch.setattr(verifier, "_begin_round", counted)
    scenarios = ["fig2_ambiguous", "fig3_indist"]
    for k in range(20):
        path = tmp_path / f"shared{k}.json"
        path.write_text(json.dumps(_shared_cycle_scenario(rng, k).to_json()))
        scenarios.append(str(path))
    fewer = 0
    for scenario in scenarios:
        played = 0
        code, doc = _verify(capsys, "--scenario", scenario)
        together, alone = played, 0
        for member, part in doc["members"].items():
            played = 0
            one_code, one = _verify(capsys, "--scenario", scenario,
                                    "--member", member)
            alone += played
            assert list(one["members"]) == [member]
            assert (json.dumps(part, sort_keys=True)
                    == json.dumps(one["members"][member], sort_keys=True)), (
                scenario, member)
            assert one_code == (0 if part["verdict"] == "pass" else 1)
        assert code == (0 if doc["verdict"] == "pass" else 1)
        assert together <= alone, scenario
        fewer += together < alone
    assert fewer >= 10


def test_nodes_replay_from_their_machines(monkeypatch):
    # every node, replayed from a fork of the machines it was made
    # with, gives its draw scripts' probabilities and actions in order and
    # its successors' keys; every successor an edge holds is a node of the
    # graph, or the machines it is made of until a walk follows the edge.
    # On every builtin at horizon 40 with its candidates, as `dynacct
    # verify` runs it, on the k3 family of the benchmark's verify_gen, and
    # one whose punishments draw
    made = []
    node = verifier._Worlds.node

    def recording(self, cfg, machines, m, key=None, owns=False):
        before = len(self.nodes)
        got = node(self, cfg, machines, m, key, owns)
        if len(self.nodes) > before:
            made.append((got, cfg, m, _fork(machines)))
        return got
    monkeypatch.setattr(verifier._Worlds, "node", recording)
    graphs = []
    for name in BUILTINS:
        sc = builtin(name)
        for g in sc.family.members:
            sc.member = g.name
            cfg = sc.sim_config(horizon=40)
            verify_cooperation(cfg)
            for i in range(cfg.family.n):
                cands = [{k: v for k, v in c.items() if k != "agent"}
                         for c in sc.candidates if c["agent"] == i
                         and c.get("member") in (None, g.name)]
                verify_one_shot(cfg, i, candidates=cands)
            graphs.append(cfg._worlds)
    cfg = k3_gen_cfg(horizon=1500)
    verify_cooperation(cfg)
    for i in range(3):
        verify_one_shot(cfg, i, robust_depth=2)
    graphs.append(cfg._worlds)
    # and a family whose punishments draw, so that nodes have several edges
    cfg = gen_cfg(mixed_degree_family(), horizon=9)
    verify_one_shot(cfg, 0, robust_depth=2)
    graphs.append(cfg._worlds)
    replayed = forked = 0
    for got, cfg, m, machines in made:
        if got.edges is None:
            continue
        views = _begin_round(cfg, machines, m)
        scripts = _round_scripts(machines, m)
        assert [(p, raw) for raw, p in scripts] == [
            (p, profile.acts) for p, profile, _ in got.edges], got.key
        for (raw, _), (_, _, succ) in zip(scripts, got.edges):
            sub = _fork(machines)
            _deliver(views, sub, raw)
            want = succ.key if isinstance(succ, verifier._Node) else (
                _world_key(cfg.graph, succ, m + 1))
            assert _world_key(cfg.graph, sub, m + 1) == want, got.key
        replayed += 1
        forked += len(scripts) > 1
    assert replayed > 1000 and forked > 0
    for worlds in graphs:
        held = {id(node) for node in worlds.nodes.values()}
        for node in worlds.nodes.values():
            for _, _, succ in node.edges or ():
                assert type(succ) is dict or id(succ) in held, node.key


def test_short_horizon_plays_one_round_per_world(monkeypatch):
    # at horizon 8 the horizon cuts every continuation of the 5-agent
    # sigma_gen family s6, so no world is valued, but its node is played
    # once: agent 0's depth-2 check plays 1,125 rounds for its 1,125
    # worlds, where it played 2,926 when each walk played its own rounds
    rounds, worlds = 0, set()
    begin_round = verifier._begin_round

    def recording(cfg, machines, m):
        nonlocal rounds
        rounds += 1
        worlds.add(_world_key(cfg.graph, machines, m))
        return begin_round(cfg, machines, m)
    cfg = list(_symmetric_configs(random.Random(20260809), 9))[6]
    assert (cfg.member, cfg.family.n, cfg.horizon) == ("s6", 5, 8)
    monkeypatch.setattr(verifier, "_begin_round", recording)
    report = verify_one_shot(cfg, 0, robust_depth=2)
    assert report.checks == 840
    assert rounds == len(worlds) == 1125


def test_forced_worlds_key_relative_to_their_round():
    # the honest k3 world is the same at rounds 7 and 8, so one pattern
    # forced there is one world: the wrapper's own key counts its round
    # ahead relative to its base's, and both continuations read one node.
    # Another pattern keys apart
    cfg = k3_gen_cfg(horizon=10)
    checker = verifier._OneShotChecker(cfg, 0)
    honest = cfg._honest_run.checkpoints
    worlds = [_world_key(cfg.graph, honest[m - 1], m) for m in (7, 8)]
    assert worlds[0] == worlds[1]
    pattern = {1: "defect", 2: "send"}
    (ms7, key7), (ms8, key8) = (
        checker._forced(honest[m - 1], m, world, pattern)
        for m, world in zip((7, 8), worlds))
    assert key7 == key8 == _world_key(cfg.graph, ms7, 7)
    assert checker.worlds.node(cfg, ms8, 8, key8) is checker.worlds.node(
        cfg, ms7, 7, key7)
    assert key7 != checker._forced(honest[6], 7, worlds[0],
                                   {1: "send", 2: "defect"})[1]


def test_world_graph_lives_as_long_as_its_configs():
    # the members' configs of one scenario share one graph, which goes with
    # the last of them; a config of another horizon has its own
    sc = builtin("fig2_ambiguous")
    configs = []
    for g in sc.family.members:
        sc.member = g.name
        configs.append(sc.sim_config(horizon=12))
        verify_one_shot(configs[-1], 0)
    graph = weakref.ref(configs[0]._worlds)
    assert configs[1]._worlds is graph() and graph().nodes
    assert replace(configs[0], horizon=13)._worlds is not graph()
    del configs
    assert graph() is None


@pytest.mark.parametrize("first", ["cooperation", "continuations"])
def test_context_walks_replay_what_other_walks_played(first, monkeypatch):
    # a context walk that meets a world another walk played and dropped
    # gets its machines back by replaying from the last world it met with
    # machines: the reports equal those of a fresh config, though the
    # rounds it replays are played twice
    cfg = replace(k3_gen_cfg(horizon=12),
                  strategies={0: "always_defect", 1: "sigma_gen",
                              2: "sigma_gen"})
    fresh = [verify_one_shot(replace(cfg, seed=1), i) for i in range(3)]
    if first == "cooperation":
        verify_cooperation(cfg)
    else:
        for i in range(3):
            verifier._relative_eu(cfg, verifier.build_machines(
                cfg, honest_only=True), i, 1, table={})
    replays = 0
    replay = verifier._replay

    def counted(*args):
        nonlocal replays
        replays += 1
        return replay(*args)
    monkeypatch.setattr(verifier, "_replay", counted)
    assert [verify_one_shot(cfg, i) for i in range(3)] == fresh
    assert replays > 0


def test_futures_partition_a_members_rounds_as_its_phases():
    # within one member two rounds have the same future exactly when they
    # have the same phase, though unsafe_three_agent's last prefix round is
    # its cycle round, so its rounds 3 and 4 have the same rounds from
    # there on.  fig2's members share their futures from round 3, where
    # their prefixes agree, and fig3's, whose cycles differ, never do
    for name in BUILTINS:
        for g in builtin(name).family.members:
            rounds = range(1, 2 * g.period + 2)
            assert all((g.future(m) == g.future(m2))
                       == (g.phase(m) == g.phase(m2))
                       for m in rounds for m2 in rounds), name
    unsafe = builtin("unsafe_three_agent").family.members[0]
    assert [unsafe.at(3 + t) for t in range(4)] == [
        unsafe.at(4 + t) for t in range(4)]
    g, gp = builtin("fig2_ambiguous").family.members
    assert [g.future(m) == gp.future(m) for m in range(1, 8)] == [
        False, False, True, True, True, True, True]
    g1, g2, g3 = builtin("fig3_indist").family.members
    assert not {g1.future(m) for m in range(1, 4)} & {
        g.future(m) for g in (g2, g3) for m in range(1, 4)}
