"""Strategy machines: the equilibrium protocols and deviation wrappers.

A machine owns one agent's private protocol state.  The round contract is:

* ``begin_round(view)`` delivers the round topology observation (and is the
  only pre-action mutation point),
* ``payload_for(j)`` returns the monitoring message content for neighbour j
  as of the start of the round: an immutable value, so no receiver can
  reach the sender's state (an accusation window's one int, the bounded
  tally protocol's three, None for a machine that sends nothing).  Every
  neighbour outside the machine's ``shadowed`` set (empty unless a
  ``_Persona`` is in the machine) gets the one payload
  ``payload_for(None)`` returns, and every neighbour j in it the one
  ``payload_for(j)`` returns,
* ``act(rand)`` returns the per-neighbour individual actions and must be
  pure: no state mutation, all randomness through
  ``rand.draw(self.me, self.round, label, p)`` with a stable label and p a
  ``Fraction`` strictly between 0 and 1 (the branch enumerator replays it),
* ``end_round(own_action, inbox)`` reveals the neighbours' individual
  actions toward the agent plus their payloads (omitted by defectors) and
  advances the state; ``_deliver``, the one delivery step, calls it with
  the actions ``act`` returned, for the verifier's rounds and the shadow
  worlds below alike, and puts a ``ScheduledDefector`` whose last
  scheduled round has played back to its base,
* ``state_key()``, which every machine defines as it does ``act``, keys its
  state: hashable, complete, relative to its ``round``, never from ``id()``.

A machine's state evolution depends only on which neighbours defected,
never on punish/cooperate draw outcomes: the equilibrium verifier relies
on it, and the soundness tests check it on every shipped strategy.  A
class is label-free when it never reads an agent id except to tell agents
apart: relabelling the agents of its views, actions and payloads
relabels everything it does.
Such a class implements ``relabel_key(key, pi)``, which maps a machine's
``state_key`` to the key of its image under the agent permutation pi;
every other class leaves it None.  When the honest machines are all of
one such class and have equal keys, an automorphism of the graph maps one
agent's one-shot report onto another's, and one forced continuation onto
another: the verifier stores each walked continuation under its image by
every automorphism fixing the agent, and gives an agent another's report
(``verifier.verify_one_shot``).
``clone()`` copies shallowly: a machine's state is ints and containers
it rebinds, never mutates, so only a wrapper extends it, to clone its
base.  A deviation strategy is a base machine plus a twist:
``_Wrapper`` forwards every round hook to the base, and its subclasses
override what differs: ``ScheduledDefector`` every scripted deviation,
the verifier's forced one-shots included, and ``_Persona`` the others.
The builders read a run's parameters from its ``verifier.SimConfig``
itself; this module still imports nothing from the verifier.

Protocol window conventions follow the monitoring designs: the
accusation-window protocols keep one report bit per (agent, round) for the
last ``rho`` rounds, all in one int (``_AccusationWindow``: the accused
agents of the round k rounds before the last one played in n-bit slot
k), which is their store, payload, merge and state key; a receiver keeps
the slots its own rho covers, so windows of one run may differ in rho.
The bounded tally protocol keeps per-subject pending
punishment counters per round residue class modulo n, and per-pair
interaction reports for the last n rounds, merged from non-subject senders
only (an agent can never influence the records that drive punishments
applied to itself).  Its whole state is three ints, in one format for
store, payload, merge and state key alike, relative to the round R it
plays next: ``pend`` holds the tally of subject s for rounds R+d mod n
in unary, as that many low one-bits of the (n-1)-bit field at offset
(s*n + d)*(n-1), so the capped max of two tallies is their OR; ``known``
and ``bad`` hold the (victim, sender) report masks of round R in slot 0
and of R-n+d in slot d >= 1, n*n bits wide.  The state key is the ints
as they are; only ``snapshot()`` decodes them, once per distinct state
and round: equal states share one cached snapshot, which is read-only.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .evolving_graph import (EvolvingGraph, LocalView, ObservationModel,
                             local_view)
from .game_core import (AVOID, COOPERATE, DEFECT, PUNISH, ActionKind,
                        IndividualAction, Mode, UtilityParams, prop_punish)

AgentId = int


class StrategyConfigError(ValueError):
    """Strategy is incompatible with the scenario (mode, observation, family)."""


def _int(value, field: str) -> int:
    """An int, or a decimal string's value (``prop_punish``'s object keys
    are strings); else, a bool and a float too, a ``StrategyConfigError``
    naming the spec field."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise StrategyConfigError(f"{field} must be an integer, not {value!r}")


def _round(value, field: str) -> int:
    """``_int``'s value as a round number: round 1 is the first a run
    plays, so a round below it is refused, not run as no deviation."""
    m = _int(value, field)
    if m < 1:
        raise StrategyConfigError(f"{field} must be at least 1, not {m}")
    return m


def _ints(values, field: str) -> list[int]:
    if not isinstance(values, str):    # "12" is no list [1, 2]
        try:
            return [_int(v, field) for v in values]
        except (TypeError, StrategyConfigError):
            pass
    raise StrategyConfigError(
        f"{field} must be a list of integers, not {values!r}")


class RandSource:
    """The one draw interface: ``draw(agent, rnd, label, p)`` is true with
    probability p, a ``Fraction`` strictly between 0 and 1, for the draw
    ``label`` of ``agent`` in round ``rnd``; a machine passes its own
    ``me`` and ``round``.  Implementations live in the verifier."""

    def draw(self, agent: AgentId, rnd: int, label: str,
             p: Fraction) -> bool:  # pragma: no cover
        raise NotImplementedError


class _RefuseDraws(RandSource):
    def draw(self, agent: AgentId, rnd: int, label: str, p: Fraction) -> bool:
        raise StrategyConfigError(
            "evasive strategies replay only machines that draw nothing")


class StrategyMachine:
    """Base class; subclasses fill in the round hooks they need."""

    mode: Mode = Mode.GENERAL
    # a label-free class sets a static ``relabel_key(key, pi)``: the
    # ``state_key`` that agent pi[a] holds in the pi-image of a world in
    # which agent a holds ``key``
    relabel_key: Optional[Callable] = None
    uses_own_action: bool = False
    # the round a deviation strategy first departs from its base, if scripted
    first_deviation_round: Optional[int] = None
    # the agents that may be shown another payload than the rest: a
    # ``_Persona``'s audience and every one below it
    shadowed: frozenset = frozenset()

    def __init__(self, me: AgentId, n: int):
        self.me = me
        self.n = n
        self.round = 0
        self.view: Optional[LocalView] = None

    def clone(self) -> "StrategyMachine":
        """An independent machine in the same state: driving either one
        never changes the other.  The verifier forks runs this way, one
        machine at a time.  The default is a shallow copy, which is enough
        for attributes that are only ever rebound, as every machine's
        state is; a wrapper extends it through ``super().clone()`` to
        clone its base.

        The shallow copy is a new instance of the class with the
        instance dict's entries copied in: for a class with no
        ``__slots__`` and no ``__copy__`` or reduce/state hooks of its own,
        which no machine class defines, that is exactly what
        ``copy.copy`` does, without its reduce round trip."""
        cls = type(self)
        c = cls.__new__(cls)
        c.__dict__.update(self.__dict__)
        return c

    def begin_round(self, view: LocalView):
        self.round = view.round
        self.view = view

    def payload_for(self, j: Optional[AgentId]) -> object:
        return None

    def act(self, rand: RandSource) -> dict[AgentId, IndividualAction]:
        raise NotImplementedError

    def end_round(self, own_action: Mapping[AgentId, IndividualAction],
                  inbox: Mapping[AgentId, tuple[IndividualAction, object]]):
        pass

    def snapshot(self) -> dict:
        return {}

    def state_key(self):
        """Hashable digest of the machine's state alone, for world dedup."""
        raise NotImplementedError

    def is_quiescent(self) -> bool:
        return False


def _deliver(views: dict, machines: dict[AgentId, StrategyMachine],
             acts: dict[AgentId, dict[AgentId, IndividualAction]]) -> dict:
    """Reveal round outcomes: each machine gets its neighbours' actions
    toward it and their payloads (none from a defector), in an inbox keyed
    in id order, with its own actions; ``acts`` holds every agent's
    actions by neighbour, as ``act`` returned them.  Each sender is asked
    for its payload once, and once more for each agent of its ``shadowed``
    set, for the payload that agent gets.  A ``ScheduledDefector`` that has
    played its last scheduled round is then replaced by its base in
    ``machines``, so a wrapper is only ever in place with a round still
    ahead.  Returns the payloads ``payload_for(None)`` gave, by sender."""
    order = sorted(machines)
    payloads = {i: machines[i].payload_for(None) for i in order}
    # (sender, shadowed receiver) -> the payload it gets
    shown = {(i, j): machines[i].payload_for(j)
             for i in order for j in machines[i].shadowed}
    for i in order:
        inbox = {}
        for j in views[i].order:
            a_ji = acts[j][i]
            if a_ji.kind is ActionKind.DEFECT:
                inbox[j] = (a_ji, None)
            else:
                inbox[j] = (a_ji, shown.get((j, i), payloads[j]) if shown
                            else payloads[j])
        mach = machines[i]
        mach.end_round(acts[i], inbox)
        # a spent deviation is its base, and so may be a stacked one
        while (isinstance(mach, ScheduledDefector)
               and mach.round >= mach.last_round):
            mach = machines[i] = mach.base
    return payloads


# ---------------------------------------------------------------------------
# Accusation-window protocols
# ---------------------------------------------------------------------------

class _AccusationWindow(StrategyMachine):
    """Shared monitoring core: one report bit per (agent, round) within the
    last ``rho`` rounds; accusations spread by union, never from the accused.

    The state is one int, ``acc``, relative to the last round played: bit
    ``k*n + s`` of its n-bit slot k accuses s of the round k rounds before
    it, so after ``end_round(m)`` slots 0..rho-1 hold rounds m..m+1-rho.
    The int is the payload (immutable, so no receiver can reach the
    sender's state) and the state key as it stands; a receiver merges it
    by masked OR, whatever the sender's rho.
    """

    def __init__(self, me: AgentId, n: int, rho: int):
        super().__init__(me, n)
        if rho < 1:
            raise StrategyConfigError("rho must be >= 1")
        self.rho = rho
        self.acc = 0
        self._cols, self._keep = _window_masks(n, rho, me)

    def payload_for(self, j: Optional[AgentId]) -> int:
        return self.acc

    def end_round(self, own_action, inbox):
        """Keep slots 0..rho-2 of ``acc``, rounds m-1..m+1-rho, and OR in
        each non-defecting sender j's payload under ``keep[j]``: those
        slots only, and nothing about j or me; then age every slot by one
        and set the bit of each defecting sender in the new slot 0."""
        keep = self._keep
        acc, new = self.acc & keep[self.me], 0   # no bit about me is ever set
        for j, (a, p) in inbox.items():
            if a.kind is ActionKind.DEFECT:
                new |= 1 << j
            elif p is not None:
                acc |= p & keep[j]
        self.acc = acc << self.n | new

    def _accused(self, s: AgentId, r: int) -> bool:
        """Whether the window accuses s of round r, read before
        ``end_round`` of ``self.round``."""
        k = self.round - 1 - r
        return 0 <= k < self.rho and self.acc >> k * self.n + s & 1 == 1

    def snapshot(self) -> dict:
        """The accusations after ``end_round``, as a sorted ``(s, r)``
        list."""
        m, n = self.round, self.n
        return {"accusations": [
            (s, m - k) for s in range(n) for k in range(min(self.rho, m))[::-1]
            if self.acc >> k * n + s & 1]}

    def state_key(self):
        """``acc`` itself, relative to the last round played."""
        return type(self).__name__, self.rho, self.acc

    @staticmethod
    def relabel_key(key, pi: Sequence[AgentId]):
        name, rho, acc = key
        pi = tuple(pi)
        n = len(pi)
        return name, rho, sum(_moved_agents(acc >> k & (1 << n) - 1, pi) << k
                              for k in range(0, rho * n, n))

    def is_quiescent(self) -> bool:
        return not self.acc


@functools.lru_cache(maxsize=None)
def _window_masks(n: int, rho: int, me: AgentId) -> tuple:
    """``_AccusationWindow``'s masks for agent me of n: ``cols[s]``, the
    bits of subject s in every slot, and ``keep[j]``, every bit of slots
    0..rho-2 but those of subjects j and me."""
    cols = [sum(1 << k * n + s for k in range(rho)) for s in range(n)]
    young = (1 << (rho - 1) * n) - 1
    return cols, [young & ~cols[j] & ~cols[me] for j in range(n)]


@functools.lru_cache(maxsize=1 << 12)
def _moved_agents(mask: int, pi: tuple[AgentId, ...]) -> int:
    """An agent mask with each bit s moved to ``pi[s]``."""
    return sum(1 << t for s, t in enumerate(pi) if mask >> s & 1)


class SigmaVal(_AccusationWindow):
    """Valuable-exchange protocol: exchange values plus the full report
    window every round, punish proportionally to the accusation count.

    The proportional weight is the number of accusation rounds against the
    neighbour inside the window, saturating at min(rho, n-1); weight zero is
    played as plain cooperation.
    """

    mode = Mode.VALUABLE

    def act(self, rand: RandSource) -> dict[AgentId, IndividualAction]:
        cap, acc, cols = min(self.rho, self.n - 1), self.acc, self._cols
        # accusation rounds by subject: end_round cut the window to rho rounds
        return {j: prop_punish(min((acc & cols[j]).bit_count(), cap))
                for j in self.view.order}


class AccusationPunisher(_AccusationWindow):
    """Safe matching punisher for general exchanges: cooperate, but play the
    active punishment toward any neighbour accused inside the window."""

    mode = Mode.GENERAL

    def act(self, rand: RandSource) -> dict[AgentId, IndividualAction]:
        acc, cols = self.acc, self._cols
        return {j: (PUNISH if acc & cols[j] else COOPERATE)
                for j in self.view.order}


def sigma_val(me: AgentId, n: int, rho: int, params: UtilityParams) -> SigmaVal:
    if params.mode is not Mode.VALUABLE:
        raise StrategyConfigError("sigma_val needs valuable mode")
    return SigmaVal(me, n, rho)


# ---------------------------------------------------------------------------
# Bounded tally protocol (general exchanges under connectivity)
# ---------------------------------------------------------------------------

class SigmaGen(StrategyMachine):
    """General-exchange protocol with bounded per-subject punishment tallies.

    State, three ints, relative to the round R played next (or being
    played, until ``end_round``):
      pend   the pending punishments for subject s in rounds == R+d mod n,
             a count in [0, n-1] kept as that many low one-bits of the
             (n-1)-bit field at offset (s*n + d)*(n-1), so the capped max
             of two tallies is their OR
      known  round R's reports in slot 0 and round R-n+d's in slot d >= 1,
             n*n bits from offset d*n*n: bit ``v*n + s`` of a slot marks a
             report by victim v about sender s
      bad    the bits of the "bad" reports (never without ``known``)
    ``state_key()`` is one int: pend, then known and bad.

    Round m: punish neighbour j with probability min(1, pend[j][m]/deg_j),
    field 0.  The payload is ``(pend, known, bad)`` for every neighbour:
    ints are immutable, so no receiver can reach the sender's state.
    End of round m: record own reports in slot 0; from each non-defecting
    sender, OR in its tallies and fill the absent report bits, rejecting
    anything a sender claims about itself, reports in the receiver's own
    row and s == v, and skipping field 0 and slot 0; then, for m >= n,
    rebuild field 1 from the fully disseminated slot 1, round m-n+1:
    drain by the reported degree, re-add it if anyone reported a
    defection; clear slot 1, and move every field and slot down by one,
    field 0 and slot 0 to the top.
    """

    mode = Mode.GENERAL

    def __init__(self, me: AgentId, n: int):
        super().__init__(me, n)
        self.pend = self.known = self.bad = 0
        _, self._keep, self._fill, self._first = _gen_masks(n, me)

    def begin_round(self, view: LocalView):
        if view.neighbor_degrees is None:
            raise StrategyConfigError("sigma_gen needs neighbour degrees")
        super().begin_round(view)

    def payload_for(self, j: Optional[AgentId]) -> tuple:
        return self.pend, self.known, self.bad

    def act(self, rand: RandSource) -> dict[AgentId, IndividualAction]:
        w = self.n - 1
        out = {}
        for j in self.view.order:
            pending = (self.pend >> j * self.n * w & (1 << w) - 1).bit_count()
            deg_j = self.view.neighbor_degrees[j]
            out[j] = (COOPERATE if not pending else PUNISH if pending >= deg_j
                      or rand.draw(self.me, self.round, f"punish[{j}]",
                                   Fraction(pending, deg_j))
                      else COOPERATE)
        return out

    def end_round(self, own_action, inbox):
        """Record my reports of round m, merge the non-defecting senders'
        payloads (tallies by OR, report bits by filling the absent ones,
        lowest-id sender first: the inbox is keyed in id order, as
        ``_deliver`` builds it), rebuild, clear the slot of the round
        leaving the window, and age the state to round m+1.

        The sender order decides nothing between honest copies: a report
        bit is recorded only by its victim, from what it was dealt, and
        every other copy is that record forwarded unchanged, so all senders
        holding the bit hold the same value.  A scheduled override changes
        actions, never payloads, so this holds under the verifier's
        deviations too, and the machine is label-free."""
        n, w, nn = self.n, self.n - 1, self.n * self.n
        row = 1 << self.me * n    # my row of round m's slot
        keep, fill = self._keep, self._fill
        pend, known, bad = self.pend, self.known, self.bad
        for j, (a, p) in inbox.items():
            known |= row << j
            if a.kind is ActionKind.DEFECT:
                bad |= row << j
            elif p is not None:
                pend |= p[0] & keep[j]
                new = p[1] & fill[j] & ~known
                known |= new
                bad |= p[2] & new
        slot, first = (1 << nn) - 1, self._first
        if self.round >= n:
            second = first << w     # field 1 of every block
            pend = pend & ~second | _rebuild_pend(
                n, self.me, pend & second, known >> nn & slot, bad >> nn & slot)
        # round m-n+1 leaves slot 1; every other field and slot moves down
        # by one, field 0 and slot 0 to the top
        kept, top = ~(slot << nn), (n - 1) * nn
        known, bad = known & kept, bad & kept
        self.known = known >> nn | (known & slot) << top
        self.bad = bad >> nn | (bad & slot) << top
        self.pend = (pend & ~first) >> w | (pend & first) << (n - 1) * w

    def snapshot(self) -> dict:
        """The state ``end_round`` left, decoded (``_gen_snapshot``): shared
        by equal states at the same round, so it is read-only."""
        return _gen_snapshot(self.n, self.round, self.pend, self.known,
                             self.bad)

    def state_key(self):
        """One int: pend, then known and bad, as they are stored, relative
        to the round played next."""
        n = self.n
        return self.pend | (self.known | self.bad << n ** 3) << n * n * (n - 1)

    @staticmethod
    def relabel_key(key, pi: Sequence[AgentId]):
        """Each subject's block of pend fields moves to subject pi[s], and
        each slot's report mask, of known and of bad alike, is moved by
        ``_moved_reports``."""
        pi = tuple(pi)
        n = len(pi)
        block, nn = n * (n - 1), n * n
        out = 0
        for s, t in enumerate(pi):
            out |= (key >> s * block & (1 << block) - 1) << t * block
        for shift in range(n * block, n * block + 2 * n ** 3, nn):
            out |= _moved_reports(key >> shift & (1 << nn) - 1, pi) << shift
        return out

    def is_quiescent(self) -> bool:
        return not (self.pend or self.bad)

    @staticmethod
    def static_state_bound(n: int) -> int:
        # pend: (n-1) subjects x n residues; acc: n(n-1) ordered pairs x n rounds
        return (n - 1) * n + n * (n - 1) * n


@functools.lru_cache(maxsize=None)
def _gen_masks(n: int, me: AgentId) -> tuple:
    """``SigmaGen``'s masks for agent me of n: ``about[s]``, the bits of a
    slot that report about s (s == v excluded); ``keep[j]`` and
    ``fill[j]``, the tallies and the report bits that sender j may raise
    and fill: none about j, no tally about me or in field 0, no report by
    me or in slot 0; and ``first``, field 0 of every subject's block."""
    w, nn = n - 1, n * n
    block = (1 << n * w) - 1    # one subject's fields
    first = sum((1 << w) - 1 << s * n * w for s in range(n))
    about = [sum(1 << v * n + s for v in range(n) if v != s) for s in range(n)]
    reports = sum(about) & ~((1 << n) - 1 << me * n)
    return about, [
        (1 << nn * w) - 1 & ~(first | block << j * n * w | block << me * n * w)
        for j in range(n)], [
        (reports & ~about[j]) * sum(1 << d * nn for d in range(1, n))
        for j in range(n)], first


@functools.lru_cache(maxsize=1 << 12)
def _slot_counts(n: int, known: int, bad: int) -> tuple:
    """``(j, deg, readd)`` for each subject j that a report of one round's
    slot (``known`` and ``bad`` in its n*n bits) is about: deg reports
    about j, and readd deg if one of them is bad, else 0.  Cached: a run
    consumes few distinct slots."""
    out = []
    for j, about in enumerate(_gen_masks(n, 0)[0]):
        deg = (known & about).bit_count()
        if deg:
            out.append((j, deg, deg if bad & about else 0))
    return tuple(out)


@functools.lru_cache(maxsize=1 << 12)
def _rebuild_pend(n: int, me: AgentId, pend: int, known: int, bad: int) -> int:
    """Agent me's field 1 of every tally block, ``pend`` (no other field),
    rebuilt from the reports of round m-n+1, ``known`` and ``bad`` its
    slot: each subject j but me is drained by the reports about it and
    re-added if one is bad (``_slot_counts``).  Cached: a run consumes few
    distinct tallies and slots."""
    w = n - 1
    for j, deg, readd in _slot_counts(n, known, bad):
        if j == me:
            continue
        at = (j * n + 1) * w
        old = pend >> at & (1 << w) - 1
        new = max(0, old.bit_count() - deg) + readd
        assert new <= n - 1, "tally invariant broken"
        pend ^= (old ^ (1 << new) - 1) << at
    return pend


@functools.lru_cache(maxsize=1 << 12)
def _gen_snapshot(n: int, m: int, pend: int, known: int, bad: int) -> dict:
    """``SigmaGen.snapshot`` of state (pend, known, bad) after
    ``end_round(m)``, relative to round m+1: the tallies as a sorted
    ``((s, c), count)`` list, and the reports of slots d >= 1, rounds
    m+1-n+d, as a ``((v, s, r), "good" | "bad")`` list sorted.  Each round's
    slot is decoded once into its cached tuple of entries
    (``_slot_entries``), and the tuples are joined and sorted: the keys are
    unique, so the order is that of the keys alone.  Cached: a run's
    states recur across agents and paired runs, so one dict serves each
    distinct state; its entries are interned (``_entry``) and its tally
    list is shared by every state with the same tallies, so it costs
    little more than its lists of pointers.  Nothing edits it: callers
    that label a snapshot copy it."""
    nn = n * n
    acc = []
    for d in range(1, n):
        slot = known >> d * nn & (1 << nn) - 1
        if slot:
            acc += _slot_entries(n, m + 1 - n + d, slot, bad >> d * nn & slot)
    acc.sort()
    return {"pend": _tallies(n, pend, (m + 1) % n), "acc": acc}


@functools.lru_cache(maxsize=1 << 12)
def _slot_entries(n: int, r: int, slot: int, bad: int) -> tuple:
    """The ``_gen_snapshot`` entries of round r's reports, ``slot`` and
    ``bad`` holding its bits, sorted by (v, s)."""
    return tuple([_entry((v, s, r), "bad" if bad & bit else "good")
                  for bit, v, s in _cells(slot, 1, n)])


@functools.lru_cache(maxsize=1 << 12)
def _tallies(n: int, pend: int, c: int) -> list:
    """The ``pend`` list of ``_gen_snapshot``, field d read as residue
    c+d mod n: shared and read-only."""
    return sorted(_entry((s, (c + d) % n), bits.bit_count())
                  for bits, s, d in _cells(pend, n - 1, n))


@functools.lru_cache(maxsize=1 << 12)
def _entry(key: tuple, value) -> tuple:
    """One shared ``(key, value)`` tuple per distinct snapshot entry."""
    return key, value


@functools.lru_cache(maxsize=1 << 14)
def _moved_reports(mask: int, pi: tuple[AgentId, ...]) -> int:
    """A report mask with each bit ``v*n + s`` moved to ``pi[v]*n + pi[s]``.
    Cached: a run holds few distinct masks, and a symmetric checker
    relabels each one under every automorphism in every context."""
    n = len(pi)
    return sum(1 << pi[v] * n + pi[s] for _, v, s in _cells(mask, 1, n))


@functools.lru_cache(maxsize=1 << 12)
def _cells(x: int, width: int, n: int) -> tuple:
    """``(bits, f // n, f % n)`` for each nonzero ``width``-bit field f of
    x, lowest first, ``bits`` being x's bits in that field: the set bits
    ``v*n + s`` of a report mask (width 1), or the tallies of a pend int.
    Cached: a run holds few distinct masks and tallies."""
    cells = []
    while x:
        f = ((x & -x).bit_length() - 1) // width
        bits = x & (1 << width) - 1 << f * width
        x ^= bits
        cells.append((bits, *divmod(f, n)))
    return tuple(cells)


def sigma_gen(me: AgentId, n: int, params: UtilityParams,
              observation: ObservationModel) -> SigmaGen:
    if params.mode is not Mode.GENERAL:
        raise StrategyConfigError("sigma_gen needs general mode")
    if observation is not ObservationModel.NEIGHBORS_AND_DEGREES:
        raise StrategyConfigError("sigma_gen needs the degree observation model")
    return SigmaGen(me, n)


class AlwaysDefect(StrategyMachine):
    """Defect everyone, always; sends nothing."""

    def __init__(self, me: AgentId, n: int, mode: Mode):
        super().__init__(me, n)
        self.mode = mode

    def act(self, rand: RandSource) -> dict[AgentId, IndividualAction]:
        return {j: DEFECT for j in self.view.order}

    def state_key(self):
        return ("AlwaysDefect",)

    @staticmethod
    def relabel_key(key, pi: Sequence[AgentId]):
        return key


# ---------------------------------------------------------------------------
# Scenario-scripted protocol for the unsafe three-agent family
# ---------------------------------------------------------------------------

class UnsafePunisherProtocol(_AccusationWindow):
    """Scripted safe-bounded profile for the three-agent unsafe family.

    Agents cooperate except for one scripted punishment: at round 3 the
    round-1 victim (agent 2) and the round-1 deviator (agent 0) mutually
    defect, unless agent 2 was itself defected by agent 1 at round 2, in
    which case agent 2 forgives and keeps sending.  A deviator following
    the profile sincerely conditions on its own past defections, bit k of
    ``mine`` for the round k rounds before the last one played.  The script
    names agents 0 and 2, so the class is not label-free.
    """

    mode = Mode.GENERAL
    uses_own_action = True
    relabel_key = None

    def __init__(self, me: AgentId, n: int, rho: int):
        super().__init__(me, n, rho)
        self.mine = 0

    def act(self, rand: RandSource) -> dict[AgentId, IndividualAction]:
        out = {j: COOPERATE for j in self.view.order}
        if self.round == 3:
            if self.me == 2 and 0 in out:
                if self._accused(0, 1) and not self._accused(1, 2):
                    out[0] = DEFECT
            if self.me == 0 and 2 in out and self.mine & 2:
                out[2] = DEFECT
        return out

    def end_round(self, own_action, inbox):
        self.mine = self.mine << 1 | any(
            a.kind is ActionKind.DEFECT for a in own_action.values())
        super().end_round(own_action, inbox)

    def is_quiescent(self) -> bool:
        # a recorded own defection keeps the round-3 script armed
        return super().is_quiescent() and (self.round >= 3 or not self.mine)

    def state_key(self):
        # the script fires at absolute round 3: rounds up to it are distinct
        return super().state_key(), self.mine, min(self.round + 1, 4)

    def snapshot(self) -> dict:
        return dict(super().snapshot(), my_defections=[
            self.round - k for k in range(self.mine.bit_length())[::-1]
            if self.mine >> k & 1])


# ---------------------------------------------------------------------------
# Deviation wrappers
# ---------------------------------------------------------------------------

ALL_NEIGHBORS = "all"


class _Wrapper(StrategyMachine):
    """A base machine plus a twist.  Copies the base's declarations and
    forwards every round hook to it; subclasses override what differs."""

    def __init__(self, base: StrategyMachine, label: str):
        super().__init__(base.me, base.n)
        self.round = base.round     # what is ahead keys relative to it
        self.base = base
        self.label = label
        self.mode = base.mode
        self.uses_own_action = base.uses_own_action
        self.shadowed = base.shadowed

    def clone(self) -> "_Wrapper":
        c = super().clone()
        c.base = self.base.clone()
        return c

    def begin_round(self, view: LocalView):
        super().begin_round(view)
        self.base.begin_round(view)

    def payload_for(self, j: Optional[AgentId]) -> object:
        return self.base.payload_for(j)

    def end_round(self, own_action, inbox):
        self.base.end_round(own_action, inbox)

    def snapshot(self) -> dict:
        return dict(self.base.snapshot(), deviation=self.label)


class ScheduledDefector(_Wrapper):
    """Follow the base strategy but apply the override template
    (``_template``) of each round of ``schedule``.  ``_deliver`` puts the
    base back once the last scheduled round has played, so a wrapper in
    place has a round ahead (with an empty schedule, the next one, played
    as the base): its key carries what is still ahead, relative to its
    round, and it is never quiescent.

    ``sincere=False`` gives evasive semantics: the base state is maintained
    as if the overrides had not happened (the base is told it played its
    own prescription, which must need no draw), so all later messages
    answer from the counterfactual state.  ``sincere=True`` reconstructs
    the base state from what actually happened.
    """

    def __init__(self, base: StrategyMachine,
                 schedule: Mapping[int, object], sincere: bool = False,
                 label: str = "scheduled_defector"):
        super().__init__(base, label)
        # never mutated: clones share it
        self.schedule = {r: _template(t) for r, t in schedule.items()}
        self.sincere = sincere
        self.first_deviation_round = min(self.schedule, default=None)
        self.last_round = max(self.schedule, default=0)

    def act(self, rand: RandSource) -> dict[AgentId, IndividualAction]:
        action = self.base.act(rand)
        template = self.schedule.get(self.round)
        if template is None:
            return dict(action)
        return apply_override(template, self.view.neighbors, action)

    def end_round(self, own_action, inbox):
        if not self.sincere and self.round in self.schedule and self.base.uses_own_action:
            own_action = self.base.act(_RefuseDraws())
        super().end_round(own_action, inbox)

    def state_key(self):
        ahead = tuple((r - self.round, t)
                      for r, t in sorted(self.schedule.items()) if r > self.round)
        return ("ScheduledDefector", self.sincere, ahead, self.base.state_key())


def single_evasive(base: StrategyMachine, j: AgentId, m: int) -> ScheduledDefector:
    """Defect j at round m, then behave as if the defection never happened."""
    return ScheduledDefector(base, {m: frozenset([j])}, sincere=False,
                             label=f"single_evasive(j={j}, m={m})")


def always_defect_until(base: StrategyMachine, m: int) -> ScheduledDefector:
    """Defect every neighbour through round m, then follow the base with
    state reconstructed from actual observations."""
    return ScheduledDefector(base, {r: ALL_NEIGHBORS for r in range(1, m + 1)},
                             sincere=True, label=f"always_defect_until({m})")


def defect_at_rounds(base: StrategyMachine,
                     rounds: Sequence[int]) -> ScheduledDefector:
    """Defect every neighbour at ``rounds``, with state as observed."""
    return ScheduledDefector(base, {r: ALL_NEIGHBORS for r in rounds},
                             sincere=True,
                             label=f"defect_at_rounds({sorted(rounds)})")


# override classes in the order a template applies them; None is "send"
_OVERRIDES = {"send": None, "defect": DEFECT, "cooperate": COOPERATE,
              "punish": PUNISH, "avoid": AVOID}


def _template(value) -> tuple:
    """A schedule value, ``{class: targets, "prop_punish": {target: weight}}``
    or ``targets`` to defect, as ``(action, targets)`` pairs (None: "send"),
    with ``targets`` ``ALL_NEIGHBORS`` or a sorted tuple of ids.  A template
    already frozen, a nonempty tuple of such pairs, is returned as is."""
    if type(value) is tuple and value and all(type(p) is tuple for p in value):
        return value
    if not isinstance(value, Mapping):
        value = {"defect": value}
    for key in value:
        if key not in _OVERRIDES and key != "prop_punish":
            raise StrategyConfigError(
                f"unknown override class {key!r}: the classes are "
                f"{', '.join(_OVERRIDES)} and prop_punish")
    out = [(action, value[key] if value[key] == ALL_NEIGHBORS
            else tuple(sorted(_ints(value[key], key))))
           for key, action in _OVERRIDES.items() if key in value]
    weights = value.get("prop_punish", {})
    if not isinstance(weights, Mapping):
        raise StrategyConfigError(
            f"prop_punish must map targets to weights, not {weights!r}")
    out += [(prop_punish(_int(c, "prop_punish")), (_int(t, "prop_punish"),))
            for t, c in weights.items()]
    return tuple(out)


def apply_override(template: tuple, neighbors: frozenset[AgentId],
                   base_action: Mapping[AgentId, IndividualAction],
                   ) -> dict[AgentId, IndividualAction]:
    """Materialise a frozen override template (``_template``) over the
    current neighbours (the round's profile check checks the mode): "send"
    keeps a sending base action and cooperates where it defects or avoids."""
    out = dict(base_action)
    for action, targets in template:
        for t in sorted(neighbors) if targets == ALL_NEIGHBORS else targets:
            if t not in neighbors:
                raise ValueError(f"override target {t} is not a current neighbour")
            if action is not None:
                out[t] = action
            elif not base_action[t].sends:
                out[t] = COOPERATE
    return out


# ---------------------------------------------------------------------------
# Shadow worlds for the scripted dual and lenient evasive strategies
# ---------------------------------------------------------------------------

class _ShadowWorld:
    """Internal deterministic replay of a counterfactual run.

    Advances an honest (or designated-deviation) profile over the scenario
    graph on demand, and records each round's actions, payloads,
    quiescent agents and machine keys.  The run is fixed, so a persona's
    clones share it, each reading it at its own round.
    """

    def __init__(self, graph: EvolvingGraph, obs: ObservationModel,
                 machines: dict[AgentId, StrategyMachine]):
        self.graph = graph
        self.obs = obs
        self.machines = machines
        self.done_round = 0
        self.round_actions: dict[int, dict[AgentId, dict[AgentId, IndividualAction]]] = {}
        self.round_payloads: dict[int, dict[AgentId, object]] = {}
        self.quiescent = {0: self._quiescent()}
        self.keys = {0: self._keys()}

    def _quiescent(self) -> frozenset[AgentId]:
        return frozenset(a for a, mach in self.machines.items()
                         if mach.is_quiescent())

    def _keys(self) -> tuple:
        return tuple(self.machines[a].state_key()
                     for a in sorted(self.machines))

    def ensure_round(self, m: int):
        while self.done_round < m:
            self._step(self.done_round + 1)

    def _step(self, m: int):
        views = {i: local_view(self.graph, i, m, self.obs) for i in self.machines}
        for i in sorted(self.machines):
            self.machines[i].begin_round(views[i])
        actions = {i: self.machines[i].act(_RefuseDraws())
                   for i in sorted(self.machines)}
        self.round_payloads[m] = _deliver(views, self.machines, actions)
        self.round_actions[m] = actions
        self.quiescent[m] = self._quiescent()
        self.keys[m] = self._keys()
        self.done_round = m

    def action_of(self, i: AgentId, m: int) -> dict[AgentId, IndividualAction]:
        self.ensure_round(m)
        return self.round_actions[m][i]

    def payload_of(self, i: AgentId, m: int) -> object:
        """i's payload of round m, the same for every neighbour: no
        machine of a shadow world shadows anyone."""
        self.ensure_round(m)
        return self.round_payloads[m][i]


class _Persona(_Wrapper):
    """Scripted evasive strategy: answer the neighbours in ``audience`` with
    the actions and payloads of this agent's persona in a counterfactual
    shadow world, the others from the base, and defect ``target`` at
    ``round`` if a ``defection = (target, round)`` is scripted.

    ``dual_evasive`` (the five-agent cut scenario) defects one partner of
    the first half, then shows the second half the clean all-honest
    continuation while the first half sees the true one; the cut formed by
    the agent's own edges keeps the two stories from meeting.
    ``lenient_evasive`` (the unsafe family) shadows every other agent with
    the world in which only the first deviator deviated, ignoring the
    second deviator entirely.
    """

    def __init__(self, base: StrategyMachine, shadow: _ShadowWorld,
                 audience: frozenset[AgentId], label: str,
                 defection: Optional[tuple[AgentId, int]] = None):
        super().__init__(base, label)
        self.shadow = shadow
        self.audience = audience
        self.shadowed = audience | base.shadowed
        self.defection = defection
        # lenient deviates from round 1: no walk absorbs it before it plays
        self.first_deviation_round = 1 if defection is None else defection[1]

    def begin_round(self, view: LocalView):
        expected = self.shadow.graph.at(view.round).neighbors(self.me)
        if view.neighbors != expected:
            raise StrategyConfigError(
                f"scenario family mismatch at round {view.round}: "
                f"saw neighbours {sorted(view.neighbors)}, scripted for {sorted(expected)}")
        self.shadow.ensure_round(view.round)
        super().begin_round(view)

    def payload_for(self, j: Optional[AgentId]) -> object:
        if j in self.audience:
            return self.shadow.payload_of(self.me, self.round)
        return self.base.payload_for(j)

    def act(self, rand: RandSource) -> dict[AgentId, IndividualAction]:
        nbrs = self.view.order
        shadow_action = self.shadow.action_of(self.me, self.round)
        base_action = ({} if self.audience.issuperset(nbrs)
                       else self.base.act(rand))
        out = {j: shadow_action[j] if j in self.audience else base_action[j]
               for j in nbrs}
        if self.defection is not None:
            target, m = self.defection
            if self.round == m and target in out:
                out[target] = DEFECT
        return out

    def state_key(self):
        """What is still ahead, relative to the round: the scripted
        defection's target and offset, if it is ahead, and the shadow
        world's machine keys after this round, with the label, audience
        and base key."""
        ahead = None
        if self.defection is not None and self.defection[1] > self.round:
            ahead = (self.defection[0], self.defection[1] - self.round)
        return (self.label, self.audience, ahead,
                self.shadow.keys[self.round], self.base.state_key())

    def is_quiescent(self) -> bool:
        return (self.base.is_quiescent()
                and self.me in self.shadow.quiescent[self.round])


# ---------------------------------------------------------------------------
# Wire-format strategy construction
# ---------------------------------------------------------------------------

StrategySpec = Union[str, Mapping]


def honest_spec(spec: StrategySpec) -> StrategySpec:
    """The honest strategy under ``spec``: the base below every deviation
    layer."""
    while isinstance(spec, Mapping) and "deviation" in spec:
        spec = spec["deviation"].get("base")
        if spec is None:
            raise StrategyConfigError(
                "deviation spec needs a 'base' to define the honest profile")
    return spec


def _honest(cfg, agent: AgentId) -> StrategyMachine:
    """``agent``'s machine in cfg's honest profile."""
    return build_strategy(honest_spec(cfg.strategies[agent]), cfg, agent)


def build_strategy(spec: StrategySpec, cfg, me: AgentId) -> StrategyMachine:
    """Agent ``me``'s machine for ``spec`` under the run configuration
    ``cfg`` (a ``verifier.SimConfig``), of which it reads ``family.n``,
    ``family.observation``, ``params``, ``graph`` (the member run) and
    ``strategies`` (the shadow worlds build their honest profile from
    every agent's spec)."""
    if isinstance(spec, str):
        spec = {"strategy": spec}
    if "deviation" in spec:
        return build_deviation(spec["deviation"], cfg, me)
    name = spec.get("strategy")
    n, params = cfg.family.n, cfg.params
    if name == "sigma_val":
        return sigma_val(me, n, _int(spec.get("rho"), "rho"), params)
    if name == "sigma_gen":
        return sigma_gen(me, n, params, cfg.family.observation)
    if name == "accusation_punisher":
        return AccusationPunisher(me, n, _int(spec.get("rho"), "rho"))
    if name == "always_defect":
        return AlwaysDefect(me, n, params.mode)
    if name == "unsafe_scripted":
        return UnsafePunisherProtocol(me, n, _int(spec.get("rho", 3), "rho"))
    raise StrategyConfigError(f"unknown strategy {name!r}")


def build_deviation(dev: Mapping, cfg, me: AgentId) -> StrategyMachine:
    kind = dev.get("kind")
    base_spec = dev.get("base")
    base = (build_strategy(base_spec, cfg, me) if base_spec is not None
            else _honest(cfg, me))
    if kind == "single_evasive":
        return single_evasive(base, _int(dev.get("target"), "target"),
                              _round(dev.get("round"), "round"))
    if kind == "always_defect_until":
        return always_defect_until(base, _round(dev.get("round"), "round"))
    if kind == "defect_at_rounds":
        return defect_at_rounds(base, [_round(r, "rounds") for r in
                                       _ints(dev.get("rounds"), "rounds")])
    if kind == "one_shot":
        at, override = _round(dev.get("round"), "round"), dev.get("override")
        if not isinstance(override, Mapping):
            raise StrategyConfigError(f"one_shot override must be an object, not {override!r}")
        return ScheduledDefector(base, {at: override}, sincere=True,
                                 label=f"one_shot(round={at})")
    if kind not in ("dual_evasive_fig2", "lenient_evasive_unsafe"):
        raise StrategyConfigError(f"unknown deviation kind {kind!r}")
    graph, n = cfg.graph, cfg.family.n
    want = dev.get("member")
    if want is not None and graph.name != want:
        raise StrategyConfigError(
            f"scenario family mismatch: deviation scripted for member "
            f"{want!r}, config runs {graph.name!r}")
    others = frozenset(range(n)) - {me}
    machines = {a: _honest(cfg, a) for a in range(n)}
    if kind == "dual_evasive_fig2":
        group1, group2 = (set(_ints(dev.get(g), g)) for g in ("group1", "group2"))
        if not group1 or not group2 or group1 & group2 or group1 | group2 != others:
            raise StrategyConfigError(
                f"dual_evasive_fig2 groups {sorted(group1)} and {sorted(group2)}"
                f" must partition the other agents {sorted(others)}")
        audience, label = frozenset(group2), "dual_evasive"
        defection = (_int(dev.get("target"), "target"),
                     _round(dev.get("round"), "round"))
    else:
        first = _int(dev.get("first_deviator", 0), "first_deviator")
        if first not in machines:
            raise StrategyConfigError(
                f"first_deviator {first} is not an agent id in 0..{n - 1}")
        machines[first] = always_defect_until(
            machines[first], _round(dev.get("first_round", 1), "first_round"))
        audience, label, defection = others, "lenient_evasive", None
    shadow = _ShadowWorld(graph, cfg.family.observation, machines)
    return _Persona(base, shadow, audience, label, defection)
