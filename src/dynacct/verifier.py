"""Run execution, exact expected utilities, and equilibrium verification.

Rounds are synchronous: every machine observes its round view, all actions
are drawn simultaneously, and outcomes (individual actions toward the agent
plus monitoring payloads, which defectors omit) are revealed at the end of
the round.

Each job has exactly one implementation, and every layer reads the run's
parameters from its ``SimConfig``, which caches what depends on it alone:
the member graph, the round views, the honest run, the rounds its paired
defections have played and the one-shot reports.

* A round is one pass: ``_begin_round`` reads the round's views, built
  once per config round, and calls ``begin_round``, ``_act`` calls ``act``
  once per machine and script, ``_round_profile`` checks the profile once,
  and ``protocols._deliver`` (which the shadow worlds share) hands out
  payloads and calls ``end_round`` with the actions ``_act`` returned.
  ``_play_round`` chains the four for one draw source, and
  ``_simulate_machines`` is the only run loop.
* Only ``_simulate_machines`` builds every agent's utility
  (``_round_utilities``), for the traces it writes; a walk builds none.
* ``_act`` hands every machine the round's draw source itself, and a
  machine draws through its ``draw(agent, rnd, label, p)``
  (``protocols.RandSource``).  A realised run draws from ``_HashDraws``:
  each draw from a seed via SHA-256 (bit-exact across platforms and thread
  counts); ``simulate`` runs the configured profile through it with no
  state log (``run_paired_defection`` logs its pairs).  ``_round_scripts``
  replays ``_ScriptDraws`` draw scripts, and the context walks draw every
  outcome false from ``_FixedDraws``.
* The honest run is simulated once per ``SimConfig`` and checkpoints the
  machines at the start of every round.  ``run_paired_defection`` returns
  it as the conforming trace, and forks each deviating run from its
  round-m checkpoint: the trace starts from copies of the honest run's
  containers cut at round m-1, the deviator is wrapped for round m only,
  and play from round m stops at the first later round M whose world
  (every machine's ``state_key``) the config has already played, in the
  honest run or in an earlier deviating run (``_PlayedRounds``, the
  config's table of played rounds).  The table's rounds from M are then
  written up to the first of the honest run's own, and the rounds the run
  played are added to it.  The draws are stateless, the views depend only
  on graph and round, and ``state_key`` is complete, so the copies are
  exact.
* ``_round_scripts`` collects the actions of every draw script of a round,
  with exact rational probabilities.  ``_Walk`` is its only caller and the
  only branch walker: a depth-first Bellman recursion ``V(w) = sum over
  scripts of p * (r + d * V(w'))`` for a per-round reward r and discount d.
  Per round it reads the views, computed once per config round, and plays
  each script, forking the machines (``_fork``: one ``clone()`` per
  machine) for every script but the last; rounds with one script are
  played in a loop.  The reward ``reward(m, profile)`` is all that
  differs between its callers: i's utility minus its all-cooperate
  utility (``_gap``), discounted by delta, for ``expected_utility``, the
  candidates and the one-shot continuations (these with the world table
  below), the punishments toward i with discount 1 for
  ``expected_punishments``, and a check that raises at the first
  non-cooperative action for ``verify_cooperation``.
* The value after a history is the walk from the machines of that history
  (``_OneShotChecker._continuation_eu`` forks them at its context).  A
  branch cut by the walk's last round ``end`` is recorded as absorbed at
  ``end + 1``.
* Every deviation is a machine.  The one-shot checker forces i's send/
  defect/avoid classes in one round by wrapping i's machine in a sincere
  ``protocols.ScheduledDefector``, so the round engine and the walker take
  no override.  ``_Walk`` never absorbs or values a world in which some
  machine's first deviation round is still ahead.

Expected utilities are computed to the configured horizon.  A branch whose
machines all report quiescence is absorbed: from there every agent
cooperates forever.  Utilities are valued relative to i's cooperative tail
(``_relative_eu``): the walk's reward is i's round utility minus its
all-cooperate one, which is 0 on every round after an absorption, so a
branch absorbed at round a is worth ``pre - cooperation_tail(start .. a -
1)``, and the closed-form tail from ``start``, whose absorption
probabilities sum to 1, cancels from every gain.  No delta**horizon-sized
``Fraction`` is multiplied or subtracted per check; only
``expected_utility`` adds the tail from round 1 back.  Gains
between two continuations that both absorb before the horizon are
therefore exact even for the infinite game; the reported tolerance is
still the analytic tail bound the finite-horizon contract prescribes.

One-shot deviation checking (``_OneShotChecker.report``: one checker per
agent, owning its walk state) enumerates the agent's information-set
occurrences, deduplicated by world key (graph phase plus machine states)
and collected by closure.  A context walk plays the profile with fixed draw
outcomes, so it is deterministic in the world key: it stops at the first
closed world (one whose successors are all collected) or at a world it
walked itself, and then closes every world it walked.  The
on-path walk runs to round horizon - 1.  Robustness depth 2 also explores
information sets reached after a prior unilateral deviation by the checked
agent itself, with one walk per on-path context and deviation pattern;
these walks are also cut n*n + n + L + 2 rounds after the deviation, and a
walk cut by that bound leaves its worlds open.  The deduplication, and the
conditioning of off-path continuations on "only the observed deviator
deviated", is sound for machines whose monitoring state is independent of
punish/cooperate draw outcomes and whose utilities are additive per
directed edge.  That is a precondition the checker does not test;
``tests/test_soundness.py`` checks it on every shipped strategy.
Punish-or-cooperate substitutions are utility-equivalent for the shipped
protocols (garbage costs the sender exactly what the value costs, and
punishing is never accusable), so override enumeration ranges over
send/defect/avoid patterns per neighbour; the prescribed pattern itself
reports gain zero.  The prescribed classes
come from the walk: it plays each collected round as prescribed, with the
same fixed draws, right after collecting it.

Continuation values are shared through one table per ``verify_one_shot``
call, keyed by ``_world_key`` (``EvolvingGraph.phase`` plus every
machine's ``state_key``), with no round or horizon in the key.  A
continuation's walk stops at the first world already valued.  An entry
holds i's expected utility relative to its cooperative tail, discounted to
the round the world was reached in, the offset of its latest absorption
and the leaf count; read at round m it is worth the same.  It is exact,
not approximate, because:

* state is draw-independent and ``state_key`` is complete, so two worlds
  with equal keys at the same graph phase play identical subtrees, with the
  same utilities, draw probabilities and absorption offsets, whatever
  round they are reached in (``tests/test_soundness.py`` checks both
  preconditions);
* a world with a deviation still ahead is never valued, and no world
  holds a spent wrapper: ``protocols._deliver`` puts its base back once
  its last scheduled round has played;
* an entry is written only from a subtree whose every branch absorbed
  within the horizon, and read at round m only if m plus its latest
  absorption offset is within the horizon too, so the horizon never cuts
  a reused subtree;
* a reused entry adds its leaf count, so ``EnumerationCapExceeded`` is
  raised exactly when enumerating every branch would raise it.

Symmetric agents, and symmetric continuations, share one walk.  Both need
a symmetric profile (``_symmetric_profile``): the honest machines are all
of one class with a ``relabel_key`` and give equal ``state_key``s, so
they differ in their agent alone.  An automorphism pi of the graph (one
that maps every prefix and cycle round onto itself) then maps every run
onto a run, each machine's key relabelled by ``relabel_key`` and moved to
agent pi(a), with the same branch probabilities, absorption rounds and leaf
count, and with agent a's utilities given to pi(a).

A forced continuation is looked up by (m2, world key w of its context,
pattern P) alone.  Once walked, it is stored under (m2, sigma(w),
sigma(P)) for every sigma in the stabilizer of i, the identity included
(the identity alone without a symmetric profile).  A hit is exact: sigma
fixes i, so i's utilities are the same, and both walks start at m2, so the
horizon cuts them alike.  The stabilizer is a group, so a lookup hits
exactly when some walked continuation maps onto it, and contexts are
unique by world key, so no entry is written twice.  The enumeration cap
is checked per walk (``_Walk._stop``): a hit is the image of a walked
continuation with the same leaves, and that walk stayed under the cap.
Only values change hands: the contexts, the checks and their order, and
so every report, are those of walking every continuation.

A report is memoised on the ``SimConfig`` by (agent, robust depth) only if
another agent may take it, and agent i is given the memoised report of an
agent r relabelled through an automorphism pi with pi(r) = i (witness
agent set, override keys mapped through pi and re-sorted; gain, tolerance,
verdict and check count carried over).  Another agent may take it when:

* the profile is symmetric, so pi maps r's whole verification (views,
  degrees, payloads, world keys, checks) onto i's;
* there are no candidates;
* the witness is on-path and is either the first check or the only check
  with the selection key's maximum.  The on-path walk collects its
  contexts in round order under any labelling, but the neighbour-sorted
  order of override patterns is not label-free, so a tie elsewhere could
  pick a different witness.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .evolving_graph import (EvolvingGraph, GraphFamily, LocalView,
                             local_view)
from .facts import FactReport, check_deviation_round, gen_facts
from .game_core import (COOPERATE, ActionKind, ActionProfile, History,
                        Mode, Trace, UtilityParams, _Memo, cooperation_tail,
                        discounted_utility, tail_bound)
from .protocols import (ScheduledDefector, StrategyConfigError,
                        StrategyMachine, _deliver, _template,
                        build_deviation, build_strategy, honest_spec)

AgentId = int


class EnumerationCapExceeded(RuntimeError):
    """Refusal with how far the enumeration got: the last round played on
    the branch that broke the cap, and the leaves emitted before it."""

    def __init__(self, cap: int, round: int, leaves: int):
        self.cap = cap
        self.round = round
        self.leaves = leaves
        super().__init__(f"randomisation branching exceeds the {cap}-leaf cap "
                         f"(reached round {round} with {leaves} leaves "
                         f"emitted); use monte_carlo_utilities instead")


# ---------------------------------------------------------------------------
# Draw sources
# ---------------------------------------------------------------------------

class _HashDraws:
    """Seeded, platform-independent draw stream keyed by (agent, round, label)."""

    def __init__(self, seed: int):
        self.seed = seed

    def draw(self, agent: AgentId, rnd: int, label: str, p: Fraction) -> bool:
        key = f"{self.seed}|{agent}|{rnd}|{label}".encode()
        x = int.from_bytes(hashlib.sha256(key).digest(), "big")
        return x * p.denominator < p.numerator * (1 << 256)


class _NeedBranch(Exception):
    def __init__(self, p: Fraction):
        self.p = p


class _ScriptDraws:
    """Replays a script of outcomes; asks for a fork when it runs out."""

    def __init__(self, script: Sequence[bool]):
        self.script = list(script)
        self.cursor = 0
        self.prob = Fraction(1)

    def draw(self, agent: AgentId, rnd: int, label: str, p: Fraction) -> bool:
        if not (0 < p < 1):
            raise ValueError(f"degenerate draw probability {p} for {label}")
        if self.cursor >= len(self.script):
            raise _NeedBranch(p)
        out = self.script[self.cursor]
        self.cursor += 1
        self.prob *= p if out else 1 - p
        return out


class _FixedDraws:
    """Every draw is False; only valid when state is draw-independent."""

    def draw(self, agent, rnd, label, p) -> bool:
        return False


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

class _Round(NamedTuple):
    """One played round: its profile, each agent's utility and end-of-round
    snapshot in agent id order, and the round played after it (None after
    the horizon)."""
    profile: ActionProfile
    utils: tuple
    snaps: tuple
    next: Optional[_Round]


class _HonestRun(NamedTuple):
    """The honest profile's seeded run: its trace with state log, a fork of
    the machines at the start of every round m (``checkpoints[m - 1]``) and
    the round played from there (``rounds[m - 1]``)."""
    trace: Trace
    checkpoints: list[dict[AgentId, StrategyMachine]]
    rounds: list[_Round]


def _world(machines: dict[AgentId, StrategyMachine], m: int) -> tuple:
    """Round m and every machine's ``state_key``, in agent id order."""
    return (m, *[machines[a].state_key() for a in range(len(machines))])


def _opaque(key) -> bool:
    """Whether a state key is or holds, nested in tuples, the default
    ``("opaque", id)`` key."""
    return type(key) is tuple and (key[:1] == ("opaque",)
                                   or any(map(_opaque, key)))


class _PlayedRounds:
    """A config's rounds played from worlds of base machines: ``rounds``
    maps a world (``_world``) to the round played from it, with unlabelled
    snapshots, so a run that reaches a held world can follow its rounds to
    the horizon (``run_paired_defection`` gives the reasons this is exact).
    A world that holds an ``("opaque", id)`` key is never stored, since a
    dead machine's id can be reused.  Profiles, each with its utility
    tuple, and state keys are interned by value (equal values are
    interchangeable, and a profile's value is its round, neighbour ids and
    codes): the table keeps one of each."""

    def __init__(self):
        self.rounds: dict[tuple, _Round] = {}
        self._shared: dict = {}

    def store(self, worlds: Sequence[tuple], rounds: Sequence[_Round]):
        """Hold ``rounds[k]`` as the round played from ``worlds[k]``."""
        shared = self._shared
        for world, r in zip(worlds, rounds):
            if not any(map(_opaque, world)):
                self.rounds[tuple([shared.setdefault(k, k)
                                   for k in world])] = r

    def round(self, profile: ActionProfile, utils: tuple, snaps: tuple,
              nxt: Optional[_Round]) -> _Round:
        """A ``_Round`` whose profile and utility tuple are interned, the
        utilities with the profile they are a function of."""
        code = (profile.round,
                tuple([(a, tuple([(j, x.code) for j, x in per.items()]))
                       for a, per in profile.acts.items()]))
        return _Round(*self._shared.setdefault(code, (profile, utils)),
                      snaps, nxt)


@dataclass(frozen=True)
class SimConfig:
    """One run's configuration.  Immutable, so that what is derived from it
    can be cached on it: derive a variant with ``dataclasses.replace``,
    which validates it and starts with empty caches.  ``strategies`` is
    held as a read-only deep copy of the mapping given, so no later edit of
    the caller's specs reaches it; the specs inside it must not be edited
    either."""

    family: GraphFamily
    member: str
    strategies: Mapping[AgentId, object]
    horizon: int
    params: UtilityParams
    seed: int = 0
    enum_cap: int = 10 ** 6

    def __post_init__(self):
        strategies = copy.deepcopy(dict(self.strategies))
        object.__setattr__(self, "strategies", MappingProxyType(strategies))
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.enum_cap < 1:
            raise ValueError("enum_cap must be >= 1")
        missing = set(range(self.family.n)) - set(self.strategies)
        if missing:
            raise ValueError(f"agents without strategies: {sorted(missing)}")

    @functools.cached_property
    def graph(self) -> EvolvingGraph:
        return self.family.member(self.member)

    @functools.cached_property
    def _honest_run(self) -> _HonestRun:
        """The honest run, simulated once: every paired defection of this
        config shares it."""
        checkpoints = []

        def checkpoint(m: int, machines) -> bool:
            checkpoints.append(_fork(machines))
            return False     # never stops

        trace = _simulate_machines(self, build_machines(self, honest_only=True),
                                   stop=checkpoint)
        return _HonestRun(trace, checkpoints, _rounds(trace, 1))

    @functools.cached_property
    def _played(self) -> _PlayedRounds:
        """Every round a paired defection of this config has played from a
        world of base machines, seeded with the honest run's."""
        honest, played = self._honest_run, _PlayedRounds()
        worlds = [_world(ms, m) for m, ms in enumerate(honest.checkpoints, 1)]
        played.store(worlds, honest.rounds)
        return played

    @functools.cached_property
    def _one_shot_reports(self) -> dict:
        """``verify_one_shot``'s reports that another agent may take, by
        (agent, robust depth)."""
        return {}

    @functools.cached_property
    def _views(self) -> dict[int, dict[AgentId, LocalView]]:
        """``_begin_round``'s memo: round m's views by agent."""
        return {}

    @functools.cached_property
    def _tolerances(self) -> Mapping[int, Fraction]:
        """The tail bound by rounds left to the horizon, each computed on
        its first lookup: every checker of the config shares the powers of
        delta."""
        return _Memo(functools.partial(tail_bound, self.params, self.family.n))


def build_machines(cfg: SimConfig, honest_only: bool = False,
                   ) -> dict[AgentId, StrategyMachine]:
    machines = {}
    for a in sorted(cfg.strategies):
        spec = cfg.strategies[a]
        if honest_only:
            spec = honest_spec(spec)
        m = build_strategy(spec, cfg, a)
        if m.mode is not cfg.params.mode:
            raise StrategyConfigError(
                f"agent {a}: strategy mode {m.mode.value} != params mode "
                f"{cfg.params.mode.value}")
        machines[a] = m
    return machines


# ---------------------------------------------------------------------------
# Round engine
# ---------------------------------------------------------------------------

def _begin_round(cfg: SimConfig, machines: dict[AgentId, StrategyMachine],
                 m: int) -> dict:
    """Deliver round m's views, built once per config; returns them by
    agent."""
    views = cfg._views.get(m)
    if views is None:
        graph, obs = cfg.graph, cfg.family.observation
        views = cfg._views[m] = {i: local_view(graph, i, m, obs)
                                 for i in range(cfg.family.n)}
    for i in sorted(machines):
        machines[i].begin_round(views[i])
    return views


def _act(machines: dict[AgentId, StrategyMachine], draws) -> dict:
    return {i: machines[i].act(draws) for i in sorted(machines)}


def _round_profile(cfg: SimConfig, m: int, acts: dict) -> ActionProfile:
    """The action profile of round m, holding the action dicts ``_act``
    returned, checked by its one ``check`` per round."""
    profile = ActionProfile(m, acts)
    profile.check(cfg.graph.at(m), cfg.params.mode)
    return profile


def _round_utilities(cfg: SimConfig, profile: ActionProfile) -> dict:
    """Every agent's utility in a checked profile: exact, an integer sum of
    the per-edge table's numerators over its common denominator."""
    nums, over = cfg.params.edge_numerators(cfg.family.n)
    acts = profile.acts
    return {i: over[sum(nums[a[j].code, acts[j][i].code] for j in a)]
            for i, a in acts.items()}


def _play_round(cfg: SimConfig, machines: dict[AgentId, StrategyMachine],
                m: int, draws) -> ActionProfile:
    """One round with one draw source: views, actions, checked profile,
    delivery."""
    views = _begin_round(cfg, machines, m)
    acts = _act(machines, draws)
    profile = _round_profile(cfg, m, acts)
    _deliver(views, machines, acts)
    return profile


def _round_scripts(machines: dict[AgentId, StrategyMachine],
                   m: int) -> list[tuple[dict, Fraction]]:
    """The actions of every draw script that completes round m's action
    phase, with the script's probability."""
    stack: list[list[bool]] = [[]]
    done: list[tuple[dict, Fraction]] = []
    while stack:
        script = stack.pop()
        draws = _ScriptDraws(script)
        try:
            raw = _act(machines, draws)
        except _NeedBranch:
            stack.append(script + [False])
            stack.append(script + [True])
            continue
        done.append((raw, draws.prob))
    return done


def _fork(machines: dict[AgentId, StrategyMachine]) -> dict[AgentId, StrategyMachine]:
    """Independent copies, one ``clone()`` per machine.  Sound because no two
    machines share mutable state, except a scripted evasive strategy's
    clones, which share its shadow world: it memoises one fixed run that
    nothing in the real run changes, read at each clone's own round."""
    return {a: mach.clone() for a, mach in machines.items()}


def simulate(cfg: SimConfig) -> Trace:
    """One realised run under the seeded draw stream, with no state log."""
    return _simulate_machines(cfg, build_machines(cfg),
                              _new_trace(cfg, logged=False))


def _new_trace(cfg: SimConfig, logged: bool = True) -> Trace:
    return Trace(history=History(), per_round_utilities={},
                 rng_seed=cfg.seed, state_log={} if logged else None)


def _simulate_machines(cfg: SimConfig, machines: dict[AgentId, StrategyMachine],
                       trace: Optional[Trace] = None,
                       stop: Optional[Callable] = None) -> Trace:
    """Play ``machines`` to the horizon under cfg's seeded draw stream,
    appending to ``trace`` (default: a new one with a state log) and logging
    every machine's end-of-round snapshot if the trace has a state log.

    Given a ``trace`` of rounds 1..m-1, the machines must be those of the
    start of round m: play goes on from there.  ``stop(M, machines)`` is
    called at the start of every round M; play stops before the first round
    for which it returns true, leaving rounds M..horizon to the caller."""
    draws = _HashDraws(cfg.seed)
    if trace is None:
        trace = _new_trace(cfg)
    history, per_round = trace.history, trace.per_round_utilities
    state_log = trace.state_log
    for m in range(history.last_round + 1, cfg.horizon + 1):
        if stop is not None and stop(m, machines):
            break
        profile = _play_round(cfg, machines, m, draws)
        history.append(profile)
        for i, u in _round_utilities(cfg, profile).items():
            per_round[(i, m)] = u
        if state_log is not None:
            for i in sorted(machines):
                state_log[(i, m)] = machines[i].snapshot()
    return trace


# ---------------------------------------------------------------------------
# Exact branch walk
# ---------------------------------------------------------------------------

class _Valued(NamedTuple):
    """A world's value relative to the round it was reached in: the expected
    reward before absorption, discounted to that round; the offset of its
    latest absorption; and the leaves of its branch tree."""
    pre: Fraction
    span: int
    leaves: int


class _Walk:
    """Depth-first exact walk over every randomisation branch of a machine
    profile up to round ``end`` (default: the horizon), valuing the reward
    ``reward(m, profile)`` of each round played, discounted by ``d`` per
    round: ``V(w) = sum over scripts of p * (reward + d * V(w'))``.

    No world in which a machine's first deviation round is still ahead is
    absorbed, or read or written in the ``table`` of valued worlds.
    ``leaves`` counts the branches ended so far against the enumeration cap."""

    def __init__(self, cfg: SimConfig, reward: Callable, d,
                 end: Optional[int] = None, table: Optional[dict] = None):
        self.cfg = cfg
        self.reward = reward
        self.d = d
        self.end = cfg.horizon if end is None else end
        self.table = table
        self.leaves = 0

    def _stop(self, m: int, leaves: int):
        """Count the leaves of a branch stopping before round m against the
        enumeration cap."""
        self.leaves += leaves
        cap = self.cfg.enum_cap
        if self.leaves > cap:
            raise EnumerationCapExceeded(cap, m - 1, cap)

    def value(self, ms, m: int) -> tuple[Fraction, int]:
        """Walk the pre-round machines ``ms`` from round m: ``(pre, last)``,
        with ``pre`` the expected reward of the rounds played, discounted to
        m, and ``last`` the latest round a branch absorbed at.  A branch cut
        by ``end`` is recorded as absorbed at ``end + 1``.

        Rounds with one draw script are played in a loop, and only a round
        with several recurses.  A keyed round stops at the first world
        already valued; once every branch of the subtree absorbed, every
        keyed round of it is written back."""
        cfg, d = self.cfg, self.d
        ahead = max((mach.first_deviation_round or 0) for mach in ms.values())
        first = self.leaves
        chain: list[tuple[Optional[tuple], int, Fraction]] = []
        while True:
            key = None      # the world key of round m, if the table is used
            if m > self.end:
                self._stop(m, 1)
                pre, last = Fraction(0), self.end + 1
                break
            if m > ahead:
                if all(mach.is_quiescent() for mach in ms.values()):
                    self._stop(m, 1)
                    pre, last = Fraction(0), m
                    break
                # not at the last round: no span is 0, every branch is cut
                if self.table is not None and m < self.end:
                    key = _world_key(cfg.graph, ms, m)
                    hit = self.table.get(key)
                    if hit is not None and m + hit.span <= self.end:
                        self._stop(m, hit.leaves)
                        pre, last = hit.pre, m + hit.span
                        key = None      # already valued
                        break
            views = _begin_round(cfg, ms, m)
            outcomes = [(p, raw, _round_profile(cfg, m, raw))
                        for raw, p in _round_scripts(ms, m)]
            if len(outcomes) == 1:
                _, raw, profile = outcomes[0]
                chain.append((key, m, self.reward(m, profile)))
                _deliver(views, ms, raw)
                m += 1
                continue
            pre, last = Fraction(0), m
            for k, (p, raw, profile) in enumerate(outcomes):
                r = self.reward(m, profile)
                sub = ms if k == len(outcomes) - 1 else _fork(ms)
                _deliver(views, sub, raw)
                spre, slast = self.value(sub, m + 1)
                pre += p * (r + d * spre)
                last = max(last, slast)
            break
        complete = last <= self.end
        leaves = self.leaves - first
        if complete:
            self._store(key, m, pre, last, leaves)
        for key, t, r in reversed(chain):
            pre = r + d * pre
            if complete:
                self._store(key, t, pre, last, leaves)
        return pre, last

    def _store(self, key: Optional[tuple], m: int, pre: Fraction, last: int,
               leaves: int):
        if key is not None:
            self.table[key] = _Valued(pre, last - m, leaves)


def _gap(cfg: SimConfig, i: AgentId) -> Callable:
    """The reward ``gap(m, profile)``: i's utility minus its all-cooperate
    one, as one integer sum over i's edges of the per-edge numerator less
    the cooperate/cooperate one (cooperation earns that per edge)."""
    nums, over = cfg.params.edge_numerators(cfg.family.n)
    cc = nums[COOPERATE.code, COOPERATE.code]

    def gap(m: int, profile: ActionProfile) -> Fraction:
        acts = profile.acts
        mine = acts[i]
        return over[sum([nums[a.code, acts[j][i].code]
                         for j, a in mine.items()]) - cc * len(mine)]
    return gap


def _relative_eu(cfg: SimConfig, machines: dict[AgentId, StrategyMachine],
                 i: AgentId, start: int, table: Optional[dict] = None,
                 ) -> Fraction:
    """i's expected utility over the runs of the pre-round machines
    ``machines`` walked from round ``start``, discounted to ``start``,
    relative to i's cooperative tail from there.

    The walk's reward is i's round utility minus its all-cooperate one
    (``_gap``).  A branch absorbed at round a adds nothing after a, where
    every agent cooperates, and a branch cut by the horizon adds nothing
    after it, so the value is ``pre - sum of p_a *
    cooperation_tail(start .. a - 1)`` over the absorption rounds a: the
    closed-form tail, whose probabilities sum to 1, cancels.  Pass one
    ``table`` to share the valued worlds."""
    walk = _Walk(cfg, _gap(cfg, i), cfg.params.delta, table=table)
    return walk.value(machines, start)[0]


def _expected_eu(cfg: SimConfig, machines: dict[AgentId, StrategyMachine],
                 i: AgentId, start: int) -> Fraction:
    """Expected utility of i discounted to round ``start``, over the runs of
    the pre-round machines ``machines`` walked from there: the cooperative
    tail from ``start`` plus ``_relative_eu``."""
    return (cooperation_tail(cfg.graph, i, cfg.params, start, cfg.horizon)
            + _relative_eu(cfg, machines, i, start))


def expected_utility(cfg: SimConfig, i: AgentId) -> Fraction:
    """Exact expected discounted utility of i over the branch tree."""
    return _expected_eu(cfg, build_machines(cfg), i, 1)


def monte_carlo_utilities(cfg: SimConfig, samples: int,
                          ) -> dict[AgentId, tuple[Fraction, float]]:
    """Per agent, the sample mean and standard error of the discounted
    utility over independent seeded runs (seeds cfg.seed, cfg.seed+1, ...);
    each seed is simulated once for all agents."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    agents = range(cfg.family.n)
    values: dict[AgentId, list[Fraction]] = {i: [] for i in agents}
    for k in range(samples):
        t = simulate(replace(cfg, seed=cfg.seed + k))
        for i in agents:
            values[i].append(discounted_utility(t, i, 1, cfg.params))
    out = {}
    for i in agents:
        mean = sum(values[i], Fraction(0)) / samples
        if samples == 1:
            out[i] = (mean, 0.0)
            continue
        var = sum((float(v - mean)) ** 2 for v in values[i]) / (samples - 1)
        out[i] = (mean, math.sqrt(var / samples))
    return out


def expected_punishments(cfg: SimConfig, i: AgentId, from_round: int,
                         rho: int) -> Fraction:
    """Expected number of punishments received by i over the i-edges in
    rounds (from_round, from_round + rho).  A quiescent branch is absorbed:
    from there every agent cooperates, so no later punishment is missed."""
    if rho < 1:
        raise ValueError("rho must be >= 1")
    graph = cfg.graph

    def hits(m: int, profile: ActionProfile) -> int:
        count = 0
        if m > from_round:
            for j in graph.at(m).neighbors(i):
                a = profile.acts[j][i]
                count += a.kind is ActionKind.PUNISH or (
                    a.kind is ActionKind.PROP_PUNISH and a.c > 0)
        return count

    walk = _Walk(cfg, hits, 1, end=min(from_round + rho - 1, cfg.horizon))
    return walk.value(build_machines(cfg), 1)[0]


# ---------------------------------------------------------------------------
# One-shot deviation verification
# ---------------------------------------------------------------------------

@dataclass
class EquilibriumReport:
    max_gain: Fraction
    witness: Optional[dict]
    tolerance: Fraction
    verdict: bool
    checks: int = 0

    def to_json(self) -> dict:
        return {
            "max_gain": str(self.max_gain),
            "max_gain_float": float(self.max_gain),
            "witness": self.witness,
            "tolerance": str(self.tolerance),
            "tolerance_float": float(self.tolerance),
            "verdict": "pass" if self.verdict else "fail",
            "checks": self.checks,
        }


def _world_key(graph, machines, m):
    return graph.phase(m), tuple(machines[a].state_key() for a in sorted(machines))


def _override_patterns(mode: Mode, nbrs: Sequence[AgentId]):
    """Send/defect(/avoid) patterns per neighbour; 'send' keeps the
    prescription.  The all-send pattern comes first (the conform class)."""
    opts = ["send", "defect"] + (["avoid"] if mode is Mode.VALUABLE else [])
    patterns: list[dict] = [{}]
    for j in nbrs:
        patterns = [{**p, j: o} for p in patterns for o in opts]
    patterns.sort(key=lambda p: sum(p[j] != "send" for j in nbrs))
    return patterns


# an action's override class: every other action sends
_CLASSES = {ActionKind.DEFECT: "defect", ActionKind.AVOID: "avoid"}


class _OneShotChecker:
    def __init__(self, cfg: SimConfig, i: AgentId):
        self.cfg = cfg
        self.i = i
        # every world key walked so far, mapped to whether it is closed, and
        # the contexts collected, in collection order, each with its key
        self.seen: dict[tuple, bool] = {}
        self.contexts: list = []
        self.results: list[tuple[Fraction, Fraction, dict]] = []
        # continuation values by world key, from fully absorbed subtrees
        self.values: dict[tuple, _Valued] = {}
        # the automorphisms that fix i, the identity included, and the key
        # relabelling they use, if the profile is symmetric (set by
        # ``report``), else the identity alone; the values of the forced
        # continuations walked, by (m2, world key, pattern) and under every
        # image of that by a symmetry; and the world last walked from, with
        # its images
        self.symmetries: Sequence[tuple[int, ...]] = [tuple(range(cfg.family.n))]
        self.relabel: Callable = lambda key, pi: key
        self.continuations: dict[tuple, Fraction] = {}
        self.world_images = (None, [])
        # each override pattern's template by its items, frozen once
        self.templates = _Memo(lambda items: _template(
            {o: [j for j, c in items if c == o] for _, o in items}))

    def _walk_contexts(self, ms, start: int, end: int, origin: str):
        """Step the machines ``ms`` in place from round ``start`` with fixed
        draw outcomes (valid because state is draw-independent), collecting
        deduplicated pre-action world states with i's action classes of
        that round, which the walk plays as prescribed.  The walk stops at
        a closed world or at one it walked itself and closes what it
        walked, but a walk cut by ``end`` leaves its worlds open."""
        cfg, seen = self.cfg, self.seen
        draws = _FixedDraws()
        walked: set = set()
        for m in range(start, end + 1):
            key = _world_key(cfg.graph, ms, m)
            if seen.get(key) or key in walked:
                seen.update(dict.fromkeys(walked, True))
                return
            walked.add(key)
            state = None
            if key not in seen:
                seen[key] = False
                state = _fork(ms)
            profile = _play_round(cfg, ms, m, draws)
            if state is not None:
                mine = profile.acts[self.i]
                self.contexts.append(
                    (m, state, key, origin, {j: _CLASSES.get(a.kind, "send")
                                             for j, a in mine.items()}))

    def _forced(self, machines, m: int,
                pattern: Optional[Mapping[AgentId, str]]) -> dict:
        """A fork of ``machines`` with i's round-m classes forced to
        ``pattern`` (None: as prescribed) by a sincere ``ScheduledDefector``
        holding the pattern's frozen template."""
        ms = _fork(machines)
        if pattern is not None:
            template = self.templates[frozenset(pattern.items())]
            ms[self.i] = ScheduledDefector(ms[self.i], {m: template},
                                           sincere=True)
        return ms

    def _images(self, world: tuple) -> list:
        """``(pi, image)`` for each symmetry pi, the image of the world key
        ``world`` under pi: agent pi[a] holds a's key relabelled."""
        phase, keys = world
        images = []
        for pi in self.symmetries:
            image = list(keys)
            for a, key in enumerate(keys):
                image[pi[a]] = self.relabel(key, pi)
            images.append((pi, (phase, tuple(image))))
        return images

    def _continuation_eu(self, machines, m2: int, world: tuple,
                         pattern: Optional[Mapping[AgentId, str]]) -> Fraction:
        """i's expected utility from round m2, discounted to m2, relative to
        its cooperative tail from m2 (``_relative_eu``), with i's round-m2
        classes forced to ``pattern`` (None: as prescribed) in the context
        ``machines`` of world key ``world``.  A walked continuation is
        stored under its image by every symmetry, so one whose key was
        stored is not walked again."""
        n = self.cfg.family.n
        done = self.continuations.get((m2, world,
                                       _pattern_key(pattern, range(n))))
        if done is None:
            forced = self._forced(machines, m2, pattern)
            done = _relative_eu(self.cfg, forced, self.i, m2, table=self.values)
            # contexts are deduplicated by world key, so only this
            # context's checks read its images
            walked_from, images = self.world_images
            if walked_from is not world:
                images = self._images(world)
                self.world_images = (world, images)
            for pi, image in images:
                self.continuations[(m2, image, _pattern_key(pattern, pi))] = done
        return done

    def check_context(self, m2: int, machines, world: tuple, origin: str,
                      prescribed: dict[AgentId, str]):
        cfg = self.cfg
        nbrs = sorted(cfg.graph.at(m2).neighbors(self.i))
        if not nbrs:
            return
        conform = self._continuation_eu(machines, m2, world, None)
        for pattern in _override_patterns(cfg.params.mode, nbrs):
            if pattern == prescribed:
                gain = Fraction(0)   # forcing the prescribed class changes nothing
            else:
                gain = (self._continuation_eu(machines, m2, world, pattern)
                        - conform)
            tol = cfg._tolerances[cfg.horizon - m2]
            self.results.append((gain, tol, {
                "agent": self.i, "round": m2, "origin": origin,
                "override": {str(j): o for j, o in sorted(pattern.items())},
            }))

    @functools.cached_property
    def honest_eu(self) -> Fraction:
        """i's expected utility under the honest profile, relative to its
        cooperative tail from round 1, computed once and only if a candidate
        needs it."""
        return _relative_eu(self.cfg, build_machines(self.cfg, honest_only=True),
                            self.i, 1)

    def add_candidate(self, spec: Mapping):
        cfg = self.cfg
        machine = build_deviation(spec, cfg, self.i)
        machines = build_machines(cfg, honest_only=True)
        machines[self.i] = machine
        eu_dev = _relative_eu(cfg, machines, self.i, 1)
        m_dev = machine.first_deviation_round or 1
        if m_dev > cfg.horizon:
            raise StrategyConfigError(
                f"candidate {machine.label} first deviates at round {m_dev},"
                f" after the horizon {cfg.horizon}")
        gain = (eu_dev - self.honest_eu) / cfg.params.delta ** (m_dev - 1)
        tol = cfg._tolerances[cfg.horizon - m_dev]
        self.results.append((gain, tol, {
            "agent": self.i, "round": m_dev, "origin": "candidate",
            "override": machine.label,
        }))

    def report(self, honest, robust_depth: int, candidates: Sequence[Mapping]
               ) -> tuple[EquilibriumReport, bool]:
        """i's report from the honest machines ``honest``, and whether
        another agent may take it: the profile is symmetric, there are no
        candidates, and the witness is order-invariant."""
        cfg, i = self.cfg, self.i
        symmetric = _symmetric_profile(honest)
        if symmetric:
            self.symmetries = list(cfg.graph._automorphisms(i, i))
            self.relabel = type(honest[i]).relabel_key
        self._walk_contexts(honest, 1, cfg.horizon - 1, "on-path")
        prior_points = self.contexts[:] if robust_depth == 2 else []

        # After-deviation walks keep a bound: UnsafePunisherProtocol.state_key
        # holds the agent's own past defections forever, so its walks after a
        # defection never close.  With them dropped from the key after round 3,
        # where the script last reads them, every walk closes without the bound
        # and unsafe_three_agent has 35 contexts instead of 81.
        n = cfg.family.n
        dev_window = n * n + n + len(cfg.graph.cycle) + 2
        for (m1, state, *_) in prior_points:
            nbrs1 = sorted(cfg.graph.at(m1).neighbors(i))
            for pattern in _override_patterns(cfg.params.mode, nbrs1)[1:]:
                desc = ",".join(f"{j}:{o}" for j, o in sorted(pattern.items())
                                if o != "send")
                # play round m1 with i's classes forced
                ms = self._forced(state, m1, pattern)
                _play_round(cfg, ms, m1, _FixedDraws())
                self._walk_contexts(ms, m1 + 1,
                                    min(m1 + dev_window, cfg.horizon - 1),
                                    f"after own {desc}@{m1}")

        for context in self.contexts:
            self.check_context(*context)

        for spec in candidates:
            self.add_candidate(spec)

        results = self.results
        if not results:
            return EquilibriumReport(max_gain=Fraction(0), witness=None,
                                     tolerance=cfg._tolerances[cfg.horizon],
                                     verdict=True, checks=0), symmetric
        # on a pass the largest gain, on a fail the check that beats its
        # tolerance by most; exact ties break toward candidate machines: their
        # witnesses carry the sustained deviation rather than its first
        # one-shot prefix
        verdict = all(g <= t for (g, t, _) in results)
        if verdict:
            pool, margin = results, lambda r: r[0]
        else:
            pool, margin = [r for r in results if r[0] > r[1]], lambda r: r[0] - r[1]

        def key(r):
            return margin(r), r[2]["origin"] == "candidate"
        best = max(pool, key=key)
        gain, tol, witness = best
        top = key(best)
        shareable = (symmetric and not candidates
                     and witness["origin"] == "on-path"
                     and (best is results[0]
                          or sum(key(r) == top for r in pool) == 1))
        return EquilibriumReport(max_gain=gain, witness=witness, tolerance=tol,
                                 verdict=verdict, checks=len(results)), shareable


def verify_one_shot(cfg: SimConfig, i: AgentId, robust_depth: int = 2,
                    candidates: Sequence[Mapping] = ()) -> EquilibriumReport:
    """Enumerate one-shot deviations of agent i against the honest profile
    and report the largest expected-utility gain.

    The contexts are every world the on-path walk reaches before it closes.
    Robustness depth 2 also explores information sets reached after one
    prior unilateral deviation by i itself, from each on-path context;
    depth 1 does not.  User-supplied deviation specs are evaluated as
    whole-run candidates against the honest profile.

    A report another agent may take is memoised on cfg, and i is given the
    memoised report of an agent r relabelled through an automorphism pi with
    pi(r) = i, if there is one, instead of a walk of its own.
    """
    if robust_depth not in (1, 2):
        raise ValueError(f"robust_depth must be 1 or 2, not {robust_depth}")
    honest = build_machines(cfg, honest_only=True)
    memo = cfg._one_shot_reports
    if not candidates:
        for (r, depth), report in memo.items():
            if depth == robust_depth:
                pi = next(cfg.graph._automorphisms(r, i), None)
                if pi is not None:
                    return _relabel(report, pi, i)
    report, shareable = _OneShotChecker(cfg, i).report(honest, robust_depth,
                                                       candidates)
    if shareable:
        memo[(i, robust_depth)] = report
        report = _relabel(report, range(cfg.family.n), i)    # the caller's copy
    return report


def _pattern_key(pattern: Optional[Mapping[AgentId, str]],
                 pi: Sequence[AgentId]) -> Optional[frozenset]:
    """The override pattern with each neighbour j renamed pi[j], hashable."""
    return None if pattern is None else frozenset(
        (pi[j], o) for j, o in pattern.items())


def _symmetric_profile(honest) -> bool:
    """Whether the honest machines are all of one class with a
    ``relabel_key`` and all give an equal ``state_key``.  ``state_key``
    is complete, so they then differ in their agent alone, and an
    automorphism pi of the graph maps every run of them, their keys
    relabelled, onto a run with the same utilities for fixed points of pi,
    and maps agent r's runs onto pi(r)'s."""
    first, *others = honest.values()
    if type(first).relabel_key is None:
        return False
    key = first.state_key()
    return all(type(m) is type(first) and m.state_key() == key
               for m in others)


def _relabel(report: EquilibriumReport, pi: Sequence[AgentId],
             i: AgentId) -> EquilibriumReport:
    """A fresh copy of a candidate-free report for agent i, its override
    keys mapped through pi and re-sorted."""
    witness = report.witness
    if witness is not None:
        override = sorted((pi[int(j)], o) for j, o in witness["override"].items())
        witness = dict(witness, agent=i,
                       override={str(j): o for j, o in override})
    return replace(report, witness=witness)


class _Uncooperative(Exception):
    """The first non-cooperative action a walk meets."""


def verify_cooperation(cfg: SimConfig) -> tuple[bool, Optional[dict]]:
    """On-path accountability clause: with the honest profile installed,
    every realised individual action is cooperation.  The witness is the
    first non-cooperative action in leaf order, then round order."""
    def check(m: int, profile: ActionProfile) -> int:
        for a in sorted(profile.acts):
            for j, ia in sorted(profile.acts[a].items()):
                if ia.kind is not ActionKind.COOPERATE:
                    raise _Uncooperative({"agent": a, "round": m, "toward": j,
                                          "action": ia.kind.value})
        return 0

    try:
        _Walk(cfg, check, 1).value(build_machines(cfg, honest_only=True), 1)
    except _Uncooperative as found:
        return False, found.args[0]
    return True, None


# ---------------------------------------------------------------------------
# Paired defections of the bounded tally protocol
# ---------------------------------------------------------------------------

def _rounds(trace: Trace, start: int, nxt: Optional[_Round] = None,
            make: Callable = _Round) -> list[_Round]:
    """Rounds start..last of a logged trace, built by ``make``, each linked
    to the one after it and the last to ``nxt``."""
    per_round, log = trace.per_round_utilities, trace.state_log
    rounds = []
    for p in reversed(trace.history.profiles[start - 1:]):
        nxt = make(p, tuple([per_round[(a, p.round)] for a in p.acts]),
                   tuple([log[(a, p.round)] for a in p.acts]), nxt)
        rounds.append(nxt)
    rounds.reverse()
    return rounds


def _chain(r: Optional[_Round]):
    """``r`` and the rounds after it."""
    while r is not None:
        yield r
        r = r.next


def run_paired_defection(cfg: SimConfig, i: AgentId, m: int,
                         targets) -> tuple[Trace, Trace]:
    """Conforming and deviating traces differing only in i's round-m action
    (defecting ``targets``, or all neighbours), sharing seed and state logs.

    The conforming trace is cfg's honest run, simulated once per config.
    The deviating trace copies its rounds 1..m-1 and plays on from the
    round-m checkpoint with i wrapped.  The wrapper plays round m alone
    (``protocols._deliver`` then puts its sincere base back), so from round
    m+1 on every machine is a base machine.  At the start of every later
    round M it looks the world (every machine's ``state_key``) up in
    cfg's table of played rounds (``_PlayedRounds``), seeded with the
    honest run's: at the first world the table holds, some run of the
    config has already played from it, so it stops playing and follows the
    table to the horizon.  The rounds it played from m+1 on are stored for
    the later runs.  Every snapshot of i in the deviating trace is labelled
    as ``ScheduledDefector.snapshot`` labels it.  The copies are exact
    because:

    * draws are keyed by (seed, agent, round, label), so ``_HashDraws`` is
      stateless, and views depend only on the graph and the round;
    * the wrapper acts as its base before round m;
    * ``state_key`` is complete (``tests/test_soundness.py``), so machines
      with equal keys at the same round play the same rounds from there.
      A world holding the default ``("opaque", id(self))`` key is never
      stored, so a machine without a key of its own plays to the horizon.

    The deviating trace starts from copies of the honest trace's
    containers, its profiles cut at m-1, and only its own rounds are
    written into them: the rounds it played, and those of the table's
    chain up to the first of the honest run's own rounds, which the copies
    already hold with every round after it.  Both traces are fresh
    containers; their profiles and snapshots are shared with the cached
    runs and are read-only."""
    check_deviation_round(cfg, m)
    honest, played = cfg._honest_run, cfg._played
    worlds = []

    def known(M: int, machines) -> bool:
        if M == m:
            return False
        worlds.append(_world(machines, M))
        return worlds[-1] in played.rounds

    label = f"defect@{m}"
    machines = _fork(honest.checkpoints[m - 1])
    machines[i] = ScheduledDefector(machines[i], {m: targets}, sincere=True,
                                    label=label)
    t = honest.trace
    deviate = Trace(History(t.history.profiles[:m - 1]),
                    dict(t.per_round_utilities), t.rng_seed, dict(t.state_log))
    _simulate_machines(cfg, machines, deviate, stop=known)
    # the round of the world it stopped at; None if it played to the horizon
    held = played.rounds.get(worlds[-1]) if worlds else None
    played.store(worlds, _rounds(deviate, m + 1, held, played.round))
    profiles, per_round = deviate.history.profiles, deviate.per_round_utilities
    log = deviate.state_log
    for r in _chain(held):
        M = r.profile.round
        if r is honest.rounds[M - 1]:   # the honest run's from here on
            profiles += t.history.profiles[M - 1:]
            break
        profiles.append(r.profile)
        for a, (u, snap) in enumerate(zip(r.utils, r.snaps)):
            per_round[(a, M)], log[(a, M)] = u, snap
    for M in range(1, cfg.horizon + 1):
        log[(i, M)] = dict(log[(i, M)], deviation=label)
    return (Trace(History(list(t.history.profiles)),
                  dict(t.per_round_utilities), t.rng_seed, dict(t.state_log)),
            deviate)


def assert_gen_facts(cfg: SimConfig, paired: tuple[Trace, Trace],
                     m: int) -> FactReport:
    """Check the six single-deviation invariants of the bounded tally
    protocol, and bounded state, on a (conforming, deviating) trace pair
    (``facts.gen_facts``)."""
    return gen_facts(cfg, paired, m)
