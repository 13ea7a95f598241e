"""The one-shot verifier's soundness preconditions, checked on every shipped
honest strategy.

``verify_one_shot`` walks contexts with fixed draw outcomes and deduplicates
them by (graph phase, machine ``state_key``s).  Both shortcuts are sound only
if (a) a machine's state never depends on punish/cooperate draw outcomes
and (b) ``state_key`` is complete: two machines with equal keys at the
same graph phase behave identically from there on, whatever they are
told.  The walks' closure rests on (b) as well: a walk
stops at the first world whose successors are already collected, which
covers every later context only if equal keys have equal successors.  So
does ``run_paired_defection``: a deviating run stops playing, and copies
the honest run, once every machine's key equals the honest run's at the
same round.  These tests check both instead of assuming them.
A label-free class (one with a ``relabel_key``) lets the verifier map one
agent's report, and one forced continuation, onto another's through a
graph automorphism; a test checks that relabelling a one-shot deviation
leaves its value unchanged, and another that ``relabel_key`` gives the
image machine's ``state_key`` in every round of the relabelled run.
The walker absorbs a branch once every machine is quiescent and adds the
cooperative tail in closed form; a test checks that quiescence is
absorbing: from then on every machine cooperates and stays quiescent.
The enumerator forks runs with ``StrategyMachine.clone``; the last test
checks that the clone of every shipped machine, deviation wrapper and
scripted builtin candidate behaves as a deep copy and leaves the original
untouched.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest

from dynacct.evolving_graph import GraphFamily, ObservationModel, local_view
from dynacct.game_core import (AVOID, COOPERATE, DEFECT, PUNISH, ActionKind,
                               Mode, prop_punish)
from dynacct.protocols import (ALL_NEIGHBORS, RandSource, ScheduledDefector,
                               build_strategy)
from dynacct.scenarios import (BUILTIN_SCENARIOS, builtin, general_defaults,
                               valuable_defaults)
from dynacct.verifier import (SimConfig, _expected_eu, _FixedDraws, _fork,
                              _HashDraws, _play_round, build_machines,
                              run_paired_defection)

from .oracles import (gen_payload, gen_payload_items, window_payload,
                      window_payload_items)
from .test_verifier import mixed_degree_family

RHO = 3     # every shipped accusation window's
# every shipped honest strategy, with the utility mode it runs in
SHIPPED = {
    "sigma_gen": ("sigma_gen", lambda n: general_defaults()),
    "sigma_val": ({"strategy": "sigma_val", "rho": RHO},
                  lambda n: valuable_defaults(n, RHO)),
    "accusation_punisher": ({"strategy": "accusation_punisher", "rho": RHO},
                            lambda n: general_defaults()),
    "always_defect": ("always_defect", lambda n: general_defaults()),
    "unsafe_scripted": ({"strategy": "unsafe_scripted", "rho": RHO},
                        lambda n: general_defaults()),
}


def shipped_cfg(name, horizon, seed=0):
    spec, params = SHIPPED[name]
    fam = mixed_degree_family()
    return SimConfig(family=fam, member="mix",
                     strategies={a: spec for a in range(fam.n)},
                     horizon=horizon, params=params(fam.n), seed=seed)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_state_log_is_draw_independent(name):
    # a scheduled defection under different seeds: the punish draws differ
    # (for the randomised protocol), the recorded machine states must not
    runs = [run_paired_defection(shipped_cfg(name, 20, seed), 0, 1,
                                 ALL_NEIGHBORS)[1] for seed in range(8)]
    for t in runs[1:]:
        assert t.state_log == runs[0].state_log
    if name == "sigma_gen":
        assert any(t.history.profiles != runs[0].history.profiles
                   for t in runs[1:])


# ---------------------------------------------------------------------------
# state_key completeness
# ---------------------------------------------------------------------------

class _RecordingRand(RandSource):
    """Seeded draws that log each (label, p) and hold every draw to the
    ``RandSource`` contract: p an exact ``Fraction`` strictly between 0
    and 1."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.log = []

    def draw(self, agent, rnd, label, p):
        assert type(p) is Fraction and 0 < p < 1, (agent, rnd, label, p)
        self.log.append((label, p))
        return self.rng.random() < p


def _relative(payload, m, n):
    """Payload with its absolute rounds rewritten relative to round m."""
    if payload is None:
        return None
    if isinstance(payload, tuple):   # bounded tallies: residues, report slots
        tallies, reports = gen_payload_items(payload, m, n)
        return {"pend": sorted(((s, (c - m) % n), v) for (s, c), v in tallies),
                "acc": sorted(((v, s, m - r), val)
                              for (v, s, r), val in reports)}
    # an accusation window's int: its (s, r) pairs of rounds m-RHO..m-1
    return {"acc": sorted((s, m - r) for s, r in
                          window_payload_items(payload, m, n, RHO))}


def _absolute(rel, m, n):
    if rel is None:
        return None
    if "pend" in rel:
        return gen_payload(
            [((s, (m + d) % n), v) for (s, d), v in rel["pend"]],
            [((v, s, m - k), val) for (v, s, k), val in rel["acc"]], m, n)
    return window_payload([(s, m - k) for s, k in rel["acc"]], m, n, RHO)


def _random_inbox(rng, name, nbrs, n):
    """Relative-form inbox: an arbitrary action and payload per neighbour."""
    inbox = {}
    for j in sorted(nbrs):
        if name == "sigma_val":
            a = rng.choice([DEFECT, AVOID, prop_punish(0), prop_punish(1),
                            prop_punish(2)])
        else:
            a = rng.choice([COOPERATE, DEFECT, PUNISH])
        if name == "sigma_gen":
            rel = {"pend": sorted(((s, d), rng.randint(1, n - 1))
                                  for s in range(n) for d in range(n)
                                  if rng.random() < 0.3),
                   "acc": sorted(((v, s, k), rng.choice(["good", "bad"]))
                                 for v in range(n) for s in range(n) if v != s
                                 for k in range(1, n) if rng.random() < 0.3)}
        elif name == "always_defect":
            rel = None
        else:
            rel = {"acc": sorted((s, k) for s in range(n)
                                 for k in range(1, RHO + 1)
                                 if rng.random() < 0.3)}
        inbox[j] = (a, rel)
    return inbox


def _drive(mach, m, cfg, inboxes, begun=False):
    """Feed relative inboxes from round m on; return what the machine shows
    (relative payloads, actions, draw requests, quiescence, later keys).
    ``begun``: round m's ``begin_round`` has already been called."""
    n, graph, obs = cfg.family.n, cfg.graph, cfg.family.observation
    seen = []
    for s, inbox in enumerate(inboxes):
        t = m + s
        if begun and s == 0:
            view = mach.view
        else:
            view = local_view(graph, mach.me, t, obs)
            mach.begin_round(view)
        pays = {j: _relative(mach.payload_for(j), t, n)
                for j in sorted(view.neighbors)}
        rand = _RecordingRand(s)
        act = mach.act(rand)
        mach.end_round(act, {
            j: (a, None if a.kind is ActionKind.DEFECT else _absolute(p, t, n))
            for j, (a, p) in inbox.items()})
        seen.append((pays, act, rand.log, mach.is_quiescent(),
                     mach.state_key()))
    return seen


def _machines_by_key(cfg, rng):
    """Pre-round machines from many single-defection histories, grouped by
    (agent, graph phase, state_key).  The deviator is wrapped until its
    round has played, so its wrapper's pending keys are checked too."""
    graph, n = cfg.graph, cfg.family.n
    groups: dict = {}
    for dev in range(n):
        for r in range(1, 8):
            machines = build_machines(cfg)
            machines[dev] = ScheduledDefector(machines[dev], {r: ALL_NEIGHBORS},
                                              sincere=True)
            draws = _HashDraws(rng.randrange(10 ** 6))
            for m in range(1, cfg.horizon + 1):
                for a in sorted(machines):
                    key = (a, graph.phase(m), machines[a].state_key())
                    group = groups.setdefault(key, [])
                    if all(m != m2 for m2, _ in group):
                        group.append((m, copy.deepcopy(machines[a])))
                _play_round(cfg, machines, m, draws)
    return groups


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_equal_state_keys_have_equal_futures(name, rng):
    # machines reached by different histories at different rounds of the
    # same graph phase, with equal state_key: under one random inbox
    # sequence they must act, send, draw and re-key identically
    cfg = shipped_cfg(name, 24)
    n = cfg.family.n
    pairs = stateful = 0
    for (a, _, _), group in _machines_by_key(cfg, rng).items():
        (m1, mach1), (m2, mach2) = group[0], group[-1]
        if m1 == m2:
            continue
        pairs += 1
        stateful += not mach1.is_quiescent()
        steps = n * n + 2
        inboxes = [_random_inbox(rng, name,
                                 cfg.graph.at(m1 + s).neighbors(a), n)
                   for s in range(steps)]
        assert (_drive(copy.deepcopy(mach1), m1, cfg, inboxes)
                == _drive(copy.deepcopy(mach2), m2, cfg, inboxes)), (a, m1, m2)
    assert pairs > 0
    if name != "always_defect":
        assert stateful > 0


# ---------------------------------------------------------------------------
# label freedom
# ---------------------------------------------------------------------------

def _one_shot_eu(cfg, a, at, pattern):
    """a's expected utility when it forces ``pattern`` ({neighbour: class})
    at round ``at`` and everyone else plays cfg's profile."""
    machines = build_machines(cfg, honest_only=True)
    template = {o: [j for j, c in sorted(pattern.items()) if c == o]
                for o in ("defect", "avoid")}
    machines[a] = ScheduledDefector(machines[a], {at: template}, sincere=True)
    return _expected_eu(cfg, machines, a, 1)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_label_free_machines_are_equivariant(name, rng):
    # on random families with an automorphism pi, a one-shot deviation by a
    # with pattern P is worth exactly what one by pi(a) with pi(P) is worth
    # to its deviator, for every class declaring label freedom; the scripted
    # profile, which names agents 0 and 2, does not declare it, and the
    # check catches it
    from .conftest import random_symmetric_graph
    spec, params = SHIPPED[name]
    differ = 0
    for k in range(6):
        n = rng.randint(3, 4)
        g, pi = random_symmetric_graph(rng, n, f"s{k}")
        fam = GraphFamily(n, (g,), ObservationModel.NEIGHBORS_AND_DEGREES,
                          max(8, g.period))
        cfg = SimConfig(family=fam, member=g.name,
                        strategies={a: spec for a in range(n)}, horizon=12,
                        params=params(n))
        label_free = type(build_machines(cfg)[0]).relabel_key is not None
        classes = ["send", "defect"] + (
            ["avoid"] if cfg.params.mode is Mode.VALUABLE else [])
        for a in range(n):
            for at in (1, 2):
                pattern = {j: rng.choice(classes)
                           for j in g.at(at).neighbors(a)}
                eu = _one_shot_eu(cfg, a, at, pattern)
                image = _one_shot_eu(cfg, pi[a], at,
                                     {pi[j]: c for j, c in pattern.items()})
                if label_free:
                    assert eu == image, (g.name, a, at, pattern)
                differ += eu != image
    assert label_free == (name != "unsafe_scripted")
    assert label_free or differ


LABEL_FREE = sorted(set(SHIPPED) - {"unsafe_scripted"})


@pytest.mark.parametrize("name", LABEL_FREE)
def test_relabel_key_is_the_key_of_the_image_machine(name, rng):
    # on random families with an automorphism sigma: from one honest
    # checkpoint, a one-shot deviation (some agents force random send/defect
    # patterns at one round, so several subjects are accused at once) and
    # its sigma-image, where agent sigma[a] forces a's pattern with every
    # neighbour j renamed sigma[j], are played under fixed draws.  Every
    # round, each machine's key relabelled through sigma is the key of its
    # image machine
    from .conftest import random_symmetric_graph
    spec, params = SHIPPED[name]
    relabelled = 0
    for k in range(8):
        n = rng.randint(3, 5)
        g, sigma = random_symmetric_graph(rng, n, f"s{k}")
        fam = GraphFamily(n, (g,), ObservationModel.NEIGHBORS_AND_DEGREES,
                          max(8, g.period))
        cfg = SimConfig(family=fam, member=g.name,
                        strategies={a: spec for a in range(n)}, horizon=40,
                        params=params(n))
        relabel = type(build_machines(cfg)[0]).relabel_key
        at = rng.randint(1, 4)
        classes = ["send", "defect"]
        patterns = {a: {j: rng.choice(classes) for j in g.at(at).neighbors(a)}
                    for a in rng.sample(range(n), rng.randint(1, n))}
        runs = []
        for image in (False, True):
            machines = _fork(cfg._honest_run.checkpoints[at - 1])
            for a, pattern in patterns.items():
                b = sigma[a] if image else a
                forced = {sigma[j] if image else j: c for j, c in pattern.items()}
                machines[b] = ScheduledDefector(
                    machines[b], {at: {c: [j for j in forced if forced[j] == c]
                                       for c in classes}}, sincere=True)
            runs.append(machines)
        for m in range(at, at + n * n + 3):
            # a deviator is its base once its round has played
            for a in (a for a in range(n) if m > at or a not in patterns):
                key, image = (runs[0][a].state_key(),
                              runs[1][sigma[a]].state_key())
                assert relabel(key, sigma) == image, (g.name, sigma, patterns,
                                                      m, a)
                relabelled += key != runs[0][sigma[a]].state_key()
            for machines in runs:
                _play_round(cfg, machines, m, _FixedDraws())
    if name != "always_defect":
        assert relabelled > 0


# ---------------------------------------------------------------------------
# Quiescence is absorbing
# ---------------------------------------------------------------------------

BUILTIN_MEMBERS = [(sc, g.name) for sc in sorted(BUILTIN_SCENARIOS)
                   for g in builtin(sc).family.members]


@pytest.mark.parametrize("scenario,member", BUILTIN_MEMBERS)
@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_quiescence_is_absorbing(name, scenario, member):
    # the walker absorbs a branch once every machine is quiescent, past
    # the last scripted deviation, and adds the closed-form cooperative
    # tail: from that round on every action must be COOPERATE and every
    # machine must stay quiescent.  Each agent defects every neighbour at
    # one round of 1-7, under seeded draws.  The members are observed with
    # degrees, which sigma_gen needs
    spec, params = SHIPPED[name]
    base = builtin(scenario).family
    fam = GraphFamily(base.n, base.members,
                      ObservationModel.NEIGHBORS_AND_DEGREES, base.horizon)
    cfg = SimConfig(family=fam, member=member,
                    strategies={a: spec for a in range(fam.n)}, horizon=24,
                    params=params(fam.n))
    absorbed = 0
    for a in range(fam.n):
        for r in range(1, 8):
            machines = build_machines(cfg)
            machines[a] = ScheduledDefector(machines[a], {r: ALL_NEIGHBORS},
                                            sincere=True)
            draws = _HashDraws(10 * a + r)
            quiet = False
            for m in range(1, cfg.horizon + 1):
                quiet = quiet or m > r and all(
                    mach.is_quiescent() for mach in machines.values())
                profile = _play_round(cfg, machines, m, draws)
                if quiet:
                    assert all(x == COOPERATE for act in profile.actions.values()
                               for x in act.per_neighbor.values()), (a, r, m)
                    assert all(mach.is_quiescent()
                               for mach in machines.values()), (a, r, m)
            absorbed += quiet
    assert absorbed or name == "always_defect"


# ---------------------------------------------------------------------------
# clone() contract
# ---------------------------------------------------------------------------

def _scheduled(base):
    # sincere: the base records its own defections (rounds 2 and 5)
    return ScheduledDefector(base, {2: ALL_NEIGHBORS, 5: ALL_NEIGHBORS},
                             sincere=True)


def _one_shot(base):
    return ScheduledDefector(base, {5: {"defect": "all"}}, sincere=True)


def _shipped(name, wrap=None):
    """Every agent of the mixed-degree family plays ``name``, agent 0
    inside ``wrap`` if given."""
    def setup():
        cfg = shipped_cfg(name, 30)
        machines = build_machines(cfg)
        if wrap is not None:
            machines[0] = wrap(machines[0])
        return cfg, machines, 0, name
    return setup


def _candidate(scenario):
    """A builtin scenario's honest profile with its candidate deviation
    installed, as the verifier builds it."""
    def setup():
        sc = builtin(scenario)
        cfg = sc.sim_config(horizon=30)
        spec = dict(sc.candidates[0])
        me = spec.pop("agent")
        machines = build_machines(cfg)
        machines[me] = build_strategy({"deviation": spec}, cfg, me)
        return cfg, machines, me, spec["base"]["strategy"]
    return setup


# case -> setup: (config, machines, the agent under test, its base strategy)
CLONE_CASES = {name: _shipped(name) for name in SHIPPED}
CLONE_CASES.update({
    "scheduled_defector(sigma_gen)": _shipped("sigma_gen", _scheduled),
    "scheduled_defector(unsafe_scripted)": _shipped("unsafe_scripted",
                                                    _scheduled),
    "one_shot(sigma_gen)": _shipped("sigma_gen", _one_shot),
    "dual_evasive_fig2": _candidate("fig2_ambiguous"),
    "lenient_evasive_unsafe": _candidate("unsafe_three_agent"),
})


@pytest.mark.parametrize("case", sorted(CLONE_CASES))
def test_clone_is_an_independent_deepcopy(case, rng):
    # the machine under test mid-run, after agent 1 defected at round 1
    # (and, for the scheduled defector, after its own defection at round 2);
    # driving the clone must not reach the original through a shared
    # container.  A scripted candidate's clone shares its shadow world, so
    # the original must also read that world at its own round
    cfg, machines, me, name = CLONE_CASES[case]()
    n, graph = cfg.family.n, cfg.graph
    machines[1] = ScheduledDefector(machines[1], {1: ALL_NEIGHBORS},
                                    sincere=True)
    draws = _HashDraws(rng.randrange(10 ** 6))
    m = 3
    for t in range(1, m):
        _play_round(cfg, machines, t, draws)
    mach = machines[me]
    if name != "always_defect":
        assert mach.snapshot() != build_machines(cfg)[me].snapshot()
    inboxes = [_random_inbox(rng, name, graph.at(m + s).neighbors(me), n)
               for s in range(n * n + 2)]
    # forked before round m, and after its begin_round as the enumerator does
    for begun in (False, True):
        if begun:
            mach.begin_round(local_view(graph, me, m, cfg.family.observation))
        before = (mach.snapshot(), mach.state_key(), mach.is_quiescent())
        clone = mach.clone()
        assert clone is not mach
        assert (_drive(clone, m, cfg, inboxes, begun)
                == _drive(copy.deepcopy(mach), m, cfg, inboxes, begun))
        assert (mach.snapshot(), mach.state_key(), mach.is_quiescent()) == before
