"""Actions, per-round utilities, and discounted utility streams.

All utility arithmetic is exact: parameters parse to ``Fraction`` and every
sum, discount power, and bound stays rational.  Equilibrium verdicts at
fine tolerances must not depend on float accumulation over hundreds of
rounds.

Utility of agent i against neighbour j in one round:

* i pays the normalized send cost 1 whenever it cooperates or punishes
  (actively or proportionally); defecting and punishment avoidance cost 0.
* i receives the benefit ``beta`` minus the receive cost ``alpha`` whenever
  j cooperates or punishes, unless i played punishment avoidance.
* a received proportional punishment of weight c costs an extra ``c*pi``;
  a received active punishment costs an extra ``pi`` (the garbage carries
  the benefit clause literally, then the loss ``pi >= beta`` nets it away).

``edge_utility`` states these rules once.  ``UtilityParams.edge_numerators``
evaluates them for every (own, received) action pair of an n-agent game
and caches them on the parameters as integer numerators over one common
denominator; a round's utility is a sum of its entries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Callable, Mapping, Optional, Union

from .evolving_graph import EvolvingGraph, RoundGraph

AgentId = int
Rational = Union[int, str, Fraction]


class Mode(Enum):
    VALUABLE = "valuable"
    GENERAL = "general"


class ActionKind(Enum):
    COOPERATE = "cooperate"
    DEFECT = "defect"
    PUNISH = "punish"
    PROP_PUNISH = "prop_punish"
    AVOID = "avoid"


_SENDING = {ActionKind.COOPERATE, ActionKind.PUNISH, ActionKind.PROP_PUNISH}

_ALLOWED = {
    Mode.VALUABLE: {ActionKind.COOPERATE, ActionKind.DEFECT,
                    ActionKind.PROP_PUNISH, ActionKind.AVOID},
    Mode.GENERAL: {ActionKind.COOPERATE, ActionKind.DEFECT, ActionKind.PUNISH},
}


_KIND_CODE = {ActionKind.COOPERATE: 0, ActionKind.DEFECT: 1,
              ActionKind.PUNISH: 2, ActionKind.AVOID: 3,
              ActionKind.PROP_PUNISH: 4}


@functools.cache
def _allowed_codes(mode: Mode, n: int) -> frozenset[int]:
    """The codes of the actions ``check_mode(mode, n)`` accepts: those of
    ``_ALLOWED[mode]``, with proportional weights 0..n-1 (codes 4..n+3)."""
    kinds = _ALLOWED[mode]
    weights = range(n) if ActionKind.PROP_PUNISH in kinds else ()
    return frozenset([_KIND_CODE[k] for k in kinds
                      if k is not ActionKind.PROP_PUNISH]
                     + [_KIND_CODE[ActionKind.PROP_PUNISH] + c for c in weights])


@dataclass(frozen=True)
class IndividualAction:
    """One agent's action toward one neighbour for one round.

    ``code`` is a small integer naming the action (kind, and weight for
    proportional punishments), the key of ``UtilityParams.edge_numerators``.
    """

    kind: ActionKind
    c: int = 0

    def __post_init__(self):
        if self.c < 0:
            raise ValueError("proportional punishment weight must be >= 0")
        if self.kind is not ActionKind.PROP_PUNISH and self.c != 0:
            raise ValueError(f"{self.kind.value} carries no weight")
        object.__setattr__(self, "code", _KIND_CODE[self.kind] + self.c)

    @property
    def sends(self) -> bool:
        return self.kind in _SENDING

    def check_mode(self, mode: Mode, n: int):
        if self.kind not in _ALLOWED[mode]:
            raise ValueError(f"{self.kind.value} is not available in {mode.value} mode")
        if self.kind is ActionKind.PROP_PUNISH and self.c > n - 1:
            raise ValueError(f"proportional weight {self.c} exceeds n-1={n - 1}")


COOPERATE = IndividualAction(ActionKind.COOPERATE)
DEFECT = IndividualAction(ActionKind.DEFECT)
PUNISH = IndividualAction(ActionKind.PUNISH)
AVOID = IndividualAction(ActionKind.AVOID)


def prop_punish(c: int) -> IndividualAction:
    # weight 0 is cooperation in substance; normalise so action equality holds
    if c == 0:
        return COOPERATE
    return IndividualAction(ActionKind.PROP_PUNISH, c)


@dataclass(frozen=True)
class Action:
    """Per-neighbour individual actions of one agent for one round, as
    ``ActionProfile.actions`` presents them."""

    agent: AgentId
    round: int
    per_neighbor: Mapping[AgentId, IndividualAction]


def _check_neighbors(i: AgentId, m: int,
                     per: Mapping[AgentId, IndividualAction],
                     graph: RoundGraph):
    """Raise ``ValueError`` unless agent i's round-m actions ``per`` are
    keyed by exactly its neighbours."""
    expected = graph.neighbors(i)
    if per.keys() != expected:
        raise ValueError(
            f"agent {i} round {m}: action keys {sorted(per)} "
            f"!= neighbours {sorted(expected)}")


@dataclass(frozen=True)
class ActionProfile:
    """Round ``round``'s actions: ``acts`` maps each agent to its actions
    by neighbour, the dict its machine's ``act`` returned, held as is.
    Nothing edits either: profiles are shared between traces."""

    round: int
    acts: Mapping[AgentId, Mapping[AgentId, IndividualAction]]

    @cached_property
    def actions(self) -> dict[AgentId, Action]:
        """Each agent's ``Action``, built on the first read: the program
        reads ``acts``."""
        return {i: Action(i, self.round, per) for i, per in self.acts.items()}

    def check(self, graph: RoundGraph, mode: Mode):
        """Raise ``ValueError`` unless the profile covers every agent, each
        agent's keys are its neighbours, and every individual action passes
        ``check_mode(mode, n)``.

        An action's code names its kind and weight one to one, so testing
        it against ``_allowed_codes(mode, n)`` accepts exactly what
        ``check_mode`` accepts.  The per-action checks run only on an
        action that fails, in the same order, so they raise the same
        error."""
        n = graph.n
        if self.acts.keys() != _agents(n):
            raise ValueError("profile must cover every agent")
        allowed = _allowed_codes(mode, n)
        for i, per in self.acts.items():
            if per.keys() != graph.neighbors(i):
                _check_neighbors(i, self.round, per, graph)
            for ia in per.values():
                if ia.code not in allowed:
                    ia.check_mode(mode, n)


@functools.cache
def _agents(n: int) -> frozenset[int]:
    return frozenset(range(n))


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("pass utility parameters as int, str or Fraction, not float")
    return Fraction(x)


class _Memo(dict):
    """A dict that builds a missing value as ``make(key)`` on its first
    lookup and keeps it, so every later lookup is a plain dict hit."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


@dataclass(frozen=True)
class UtilityParams:
    """Benefit, costs, punishment unit, discount factor, and exchange mode."""

    beta: Fraction
    alpha: Fraction
    pi: Fraction
    delta: Fraction
    mode: Mode

    @staticmethod
    def make(beta: Rational, alpha: Rational, pi: Rational, delta: Rational,
             mode: Mode) -> "UtilityParams":
        p = UtilityParams(_frac(beta), _frac(alpha), _frac(pi), _frac(delta), mode)
        if not (0 < p.delta < 1):
            raise ValueError("delta must lie strictly in (0, 1)")
        return p

    @staticmethod
    def from_json(doc: dict) -> "UtilityParams":
        mode = Mode(doc["mode"])
        return UtilityParams.make(doc["beta"], doc["alpha"], doc["pi"],
                                  doc["delta"], mode)

    def to_json(self) -> dict:
        return {"beta": str(self.beta), "alpha": str(self.alpha),
                "pi": str(self.pi), "delta": str(self.delta),
                "mode": self.mode.value}

    def validate_for(self, n: int, rho: Optional[int]):
        """Mode constraints; valuable mode needs the timeliness bound rho."""
        if self.mode is Mode.VALUABLE:
            if rho is None:
                raise ValueError("valuable mode needs rho to validate beta")
            if not (self.beta > 1 + self.alpha + rho * self.pi):
                raise ValueError(
                    f"valuable mode needs beta > 1 + alpha + rho*pi "
                    f"({self.beta} <= {1 + self.alpha + rho * self.pi})")
            if not (self.pi > n):
                raise ValueError(f"valuable mode needs pi > n ({self.pi} <= {n})")
        else:
            if not (self.beta > 1 + self.alpha):
                raise ValueError(
                    f"general mode needs beta > 1 + alpha "
                    f"({self.beta} <= {1 + self.alpha})")
            if not (self.pi >= self.beta):
                raise ValueError(
                    f"general mode needs pi >= beta ({self.pi} < {self.beta})")

    def max_round_swing(self, n: int) -> Fraction:
        """Bound y on the utility swing of a single interaction."""
        return self.beta + self.alpha + 1 + (n - 1) * self.pi

    @cached_property
    def _edge_numerators(self) -> dict[int, tuple[dict, Mapping]]:
        return {}

    def edge_numerators(self, n: int) -> tuple[dict[tuple[int, int], int],
                                               Mapping[int, Fraction]]:
        """``edge_utility`` of every (own, received) action pair of an
        n-agent game (any kind, proportional weights 0..n-1) over one
        common denominator ``den``: ``(nums, over)``, with ``nums`` keyed
        by the actions' codes and ``edge_utility(own, got) ==
        over[nums[own.code, got.code]]``, where ``over[t]`` is
        ``Fraction(t, den)`` for any integer t, built on its first lookup.
        So a round's utility is an integer sum and one lookup, and each
        distinct sum is normalised once; built once per parameters and n."""
        out = self._edge_numerators.get(n)
        if out is None:
            actions = [COOPERATE, DEFECT, PUNISH, AVOID] + [
                IndividualAction(ActionKind.PROP_PUNISH, c) for c in range(n)]
            table = {(own.code, got.code): edge_utility(own, got, self)
                     for own in actions for got in actions}
            den = math.lcm(*(u.denominator for u in table.values()))
            out = self._edge_numerators[n] = (
                {k: u.numerator * (den // u.denominator)
                 for k, u in table.items()},
                _Memo(functools.partial(Fraction, denominator=den)))
        return out

    @cached_property
    def cooperation_utility(self) -> Mapping[int, Fraction]:
        """The all-cooperate round utility of an agent by its degree,
        ``(beta - 1 - alpha) * degree``, each built on its first lookup."""
        return _Memo((self.beta - 1 - self.alpha).__mul__)


def edge_utility(own: IndividualAction, received: IndividualAction,
                 params: UtilityParams) -> Fraction:
    """Utility of one directed edge: own action toward the neighbour, and
    the neighbour's action received back (the module docstring's rules)."""
    u = Fraction(0)
    if own.sends:
        u -= 1
    if received.sends and own.kind is not ActionKind.AVOID:
        u += params.beta - params.alpha
        if received.kind is ActionKind.PROP_PUNISH:
            u -= received.c * params.pi
        elif received.kind is ActionKind.PUNISH:
            u -= params.pi
    return u


def round_utility(i: AgentId, profile: ActionProfile, graph: RoundGraph,
                  params: UtilityParams) -> Fraction:
    acts = profile.acts
    _check_neighbors(i, profile.round, acts[i], graph)
    nums, over = params.edge_numerators(graph.n)
    total = 0
    for j in sorted(graph.neighbors(i)):
        a_ij, a_ji = acts[i][j], acts[j][i]
        a_ij.check_mode(params.mode, graph.n)
        a_ji.check_mode(params.mode, graph.n)
        total += nums[a_ij.code, a_ji.code]
    return over[total]


@dataclass
class History:
    """Realised action profiles over a fixed evolving graph."""

    profiles: list[ActionProfile] = field(default_factory=list)

    def append(self, profile: ActionProfile):
        expected = len(self.profiles) + 1
        if profile.round != expected:
            raise ValueError(f"expected round {expected}, got {profile.round}")
        self.profiles.append(profile)

    @property
    def last_round(self) -> int:
        return len(self.profiles)


@dataclass
class Trace:
    """A realised run: history, per-round utilities, and the seed it used.

    ``state_log`` optionally holds each machine's end-of-round state
    snapshot, keyed by (agent, round); the paired-trace fact checkers need
    it, and ``verifier.run_paired_defection`` logs it.  ``simulate`` does
    not: plain utility consumers never read it.  Snapshots are read-only:
    a ``SigmaGen`` snapshot is cached per state, and shared by every log
    entry of an equal state, so an edit goes into a copy.
    """

    history: History
    per_round_utilities: dict[tuple[AgentId, int], Fraction]
    rng_seed: int
    state_log: Optional[dict[tuple[AgentId, int], dict]] = None

    @property
    def last_round(self) -> int:
        return self.history.last_round

    def utility(self, i: AgentId, m: int) -> Fraction:
        return self.per_round_utilities[(i, m)]


def discounted_utility(t: Trace, i: AgentId, from_round: int,
                       params: UtilityParams) -> Fraction:
    if from_round < 1:
        raise ValueError("from_round must be >= 1")
    total = Fraction(0)
    scale = Fraction(1)
    for m in range(from_round, t.last_round + 1):
        total += scale * t.per_round_utilities[(i, m)]
        scale *= params.delta
    return total


def tail_bound(params: UtilityParams, n: int, horizon: int) -> Fraction:
    """Upper bound on any utility difference accrued after ``horizon``
    further rounds: delta^horizon * y * n / (1 - delta)."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    y = params.max_round_swing(n)
    return params.delta ** horizon * y * n / (1 - params.delta)


def cooperation_tail(g: EvolvingGraph, i: AgentId, params: UtilityParams,
                     from_round: int, to_round: int) -> Fraction:
    """Exact discounted all-cooperate utility over rounds [from, to],
    in units of round ``from_round`` (discount delta^0 there).

    The cyclic region is summed phase by phase with closed-form geometric
    series, so large horizons cost O(prefix + cycle + log) exact operations.
    """
    if to_round < from_round:
        return Fraction(0)
    d, cooperation = params.delta, params.cooperation_utility
    P = len(g.prefix)
    L = len(g.cycle)
    total = Fraction(0)
    m = from_round
    while m <= min(P, to_round):
        total += d ** (m - from_round) * cooperation[g.at(m).degree(i)]
        m += 1
    dL = d ** L
    # rounds m..m+L-1 are one of each cycle phase
    for first in range(m, min(m + L, to_round + 1)):
        count = (to_round - first) // L + 1
        per = cooperation[g.at(first).degree(i)]
        if per == 0:
            continue
        total += d ** (first - from_round) * per * (1 - dL ** count) / (1 - dL)
    return total
