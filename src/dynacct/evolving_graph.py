"""Adversary-chosen evolving graphs and the predicates decided on them.

An evolving graph is an infinite sequence of round communication graphs,
represented finitely as a prefix plus a repeating cycle.  Rounds are
1-indexed: ``at(m)`` returns ``prefix[m-1]`` for ``m <= |prefix|``
and ``cycle[(m - |prefix| - 1) % |cycle|]`` otherwise.

Causal influence follows the product-graph semantics: knowledge held by
agent ``a`` at the start of round ``t`` persists to ``(a, t+1)`` and is
transmitted over every round-``t`` edge ``(a, b)`` to ``(b, t+1)``.
``(j, m)`` causally influences ``(l, m2)`` iff ``m < m2`` and ``(l, m2)``
is reachable from ``(j, m)``; the first transmission may therefore use a
round-``m`` edge.  The interference-free variant never lets information
enter the excluded agent, which removes it both as a relay and as a
target.

Finite-scan soundness: all family checkers quantify edges up to the
family horizon (which must cover prefix plus one full cycle) while causal
searches are allowed to run past the horizon into the cyclic region.
Because every round beyond the prefix is phase-equivalent to a round at
most one cycle later than the prefix, a violation at some huge round has
a twin inside the scanned window, so the finite verdicts agree with the
infinite quantification.  The same argument folds the configuration scans
of the timeliness checks and of ``is_unsafe`` to rounds m <= period: past
the period, the configuration at m is the phase twin of the one at
m - |cycle|, which has the same verdict, a window no smaller, and comes
earlier in the scan, so the largest delay, the first counterexample and
the first witness are those of the scan up to the horizon.

Agent sets are int bitmasks (bit b for agent b).  Each graph caches the
per-agent neighbour masks of its prefix and cycle rounds.  Every temporal
reachability question (causal influence, punishment opportunities, the
crossing components of ambiguous opportunities, the routes of unsafe
graphs, and fact F1) steps news through one loop, ``_reach``, which steps
a mask by the union of its agents' neighbour masks (``_spread``).  A reach
that must be followed to its end stops at one rule, ``_until_final``: no
agent joins for a full cycle.  Its two guards, past the prefix and past a
given round, read the round after the step, so the last prefix round and
the dropped-step round of ``is_unsafe`` count as quiet rounds: these are
ROADMAP item 2's known wrong answers.
Indistinguishability reads one table per pair of graphs and observation
model: bad_t, the agents whose round-t information separates the graphs,
is the agents whose round-t views differ plus every agent a whose closed
round-(t-1) neighbourhood meets bad_(t-1); i cannot tell the graphs apart
at round m iff bit i of bad_m is clear.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

AgentId = int
Edge = tuple[int, int]


class FamilyFormatError(ValueError):
    """Raised by the family loader with the offending document position."""

    def __init__(self, where: str, message: str):
        self.where = where
        self.message = message
        super().__init__(f"{where}: {message}")


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class RoundGraph:
    """One round's undirected communication graph on agents 0..n-1."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        for (u, v) in self.edges:
            if u == v:
                raise ValueError(f"self-loop at agent {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized")

    @staticmethod
    def from_pairs(n: int, pairs: Iterable[Sequence[int]]) -> "RoundGraph":
        return RoundGraph(n, frozenset(_norm_edge(u, v) for (u, v) in pairs))

    @cached_property
    def _adjacency(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {i: set() for i in range(self.n)}
        for (u, v) in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {i: frozenset(s) for i, s in adj.items()}

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """Each agent's neighbours as a bitmask."""
        nb = [0] * self.n
        for (u, v) in self.edges:
            nb[u] |= 1 << v
            nb[v] |= 1 << u
        return tuple(nb)

    def neighbors(self, i: AgentId) -> frozenset[int]:
        return self._adjacency[i]

    def degree(self, i: AgentId) -> int:
        return len(self._adjacency[i])

    def has_edge(self, i: AgentId, j: AgentId) -> bool:
        return _norm_edge(i, j) in self.edges


@dataclass(frozen=True)
class EvolvingGraph:
    """Eventually periodic infinite sequence of round graphs."""

    prefix: tuple[RoundGraph, ...]
    cycle: tuple[RoundGraph, ...]
    name: str = ""

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("cycle must be non-empty")
        ns = {g.n for g in self.prefix} | {g.n for g in self.cycle}
        if len(ns) != 1:
            raise ValueError(f"member round graphs disagree on n: {sorted(ns)}")

    @property
    def n(self) -> int:
        return self.cycle[0].n

    @property
    def period(self) -> int:
        """Rounds after which the graph sequence provably repeats."""
        return len(self.prefix) + len(self.cycle)

    def phase(self, m: int) -> tuple[str, int]:
        """``("p", m)`` for a prefix round m, ``("c", k)`` at cycle index k:
        rounds of one phase have the same graphs from there on."""
        if m < 1:
            raise ValueError(f"rounds are 1-indexed, got {m}")
        p = len(self.prefix)
        return ("p", m) if m <= p else ("c", (m - p - 1) % len(self.cycle))

    def at(self, m: int) -> RoundGraph:
        part, k = self.phase(m)
        return self.prefix[k - 1] if part == "p" else self.cycle[k]

    @cached_property
    def _masks(self) -> tuple[tuple[int, ...], ...]:
        """Per-agent neighbour masks of every prefix round, then every
        cycle round."""
        return tuple(rg._masks for rg in self.prefix + self.cycle)

    def _masks_at(self, m: int) -> tuple[int, ...]:
        """Round m's neighbour masks, by the rule of ``phase``."""
        p = len(self.prefix)
        if m <= p:
            if m < 1:
                raise ValueError(f"rounds are 1-indexed, got {m}")
            return self._masks[m - 1]
        return self._masks[p + (m - p - 1) % len(self.cycle)]

    @cached_property
    def _crossing(self) -> dict[AgentId, dict[int, int]]:
        """Agent i -> each i-edge endpoint's crossing component mask,
        filled by ``_crossing_of`` on first use."""
        return {}

    def _automorphisms(self, r: AgentId, i: AgentId) -> Iterator[tuple[int, ...]]:
        """Every agent permutation pi (``pi[a]`` is a's image) with pi(r) = i
        that maps every prefix and cycle round onto itself; with r = i, the
        stabilizer of i.  Backtracks over the agents, r first: an agent's
        image must have its degree in every round and its edges, in every
        round, to the agents placed so far."""
        n = self.n
        rows = [tuple(nb[a] for nb in self._masks) for a in range(n)]
        degrees = [tuple(x.bit_count() for x in row) for row in rows]
        order = [r] + [a for a in range(n) if a != r]
        pi = [-1] * n

        def place(k: int, used: int) -> Iterator[tuple[int, ...]]:
            if k == n:
                yield tuple(pi)
                return
            a = order[k]
            for b in [i] if k == 0 else range(n):
                if used >> b & 1 or degrees[b] != degrees[a] or any(
                        (ra >> p & 1) != (rb >> pi[p] & 1)
                        for ra, rb in zip(rows[a], rows[b]) for p in order[:k]):
                    continue
                pi[a] = b
                yield from place(k + 1, used | 1 << b)

        return place(0, 0)

    @cached_property
    def _agreement(self) -> dict:
        """(id of the other graph, observation) -> (that graph, bad masks by
        round), extended by ``indistinguishable_at`` on demand.  An entry
        holds the other graph, so its id is not reused while the entry
        lives, and a copied entry, which holds a copy, is not read."""
        return {}


class ObservationModel(Enum):
    NEIGHBORS_ONLY = "neighbors"
    NEIGHBORS_AND_DEGREES = "neighbors_degrees"


@dataclass(frozen=True)
class LocalView:
    """What one agent learns about the round topology before acting.
    Read-only, degrees included, so that one view can serve every machine
    that plays its round."""

    agent: AgentId
    round: int
    neighbors: frozenset[int]
    neighbor_degrees: Optional[Mapping[int, int]] = None

    @cached_property
    def order(self) -> tuple[int, ...]:
        """The neighbours in id order, sorted once per view: the order in
        which ``protocols._deliver`` and every machine's ``act`` visit
        them."""
        return tuple(sorted(self.neighbors))

    def __deepcopy__(self, memo) -> "LocalView":
        return self     # immutable all the way down


def local_view(g: EvolvingGraph, i: AgentId, m: int,
               obs: ObservationModel) -> LocalView:
    rg = g.at(m)
    nbrs = rg.neighbors(i)
    degrees = None
    if obs is ObservationModel.NEIGHBORS_AND_DEGREES:
        degrees = MappingProxyType({j: rg.degree(j) for j in sorted(nbrs)})
    return LocalView(agent=i, round=m, neighbors=nbrs, neighbor_degrees=degrees)


@dataclass(frozen=True)
class GraphFamily:
    """The common-knowledge set of evolving graphs plus the observation model."""

    n: int
    members: tuple[EvolvingGraph, ...]
    observation: ObservationModel
    horizon: int

    def __post_init__(self):
        if not self.members:
            raise ValueError("family needs at least one member")
        for g in self.members:
            if g.n != self.n:
                raise ValueError(f"member {g.name!r} has n={g.n}, family has n={self.n}")
            if self.horizon < g.period:
                raise ValueError(
                    f"horizon {self.horizon} < prefix+cycle {g.period} of member {g.name!r}")

    def member(self, name: str) -> EvolvingGraph:
        for g in self.members:
            if g.name == name:
                return g
        raise KeyError(f"no member named {name!r}")


@dataclass
class FamilyVerdict:
    """Outcome of a family-level check, with certificate or witness."""

    holds: bool
    certificate: Optional[int] = None
    counterexample: Optional[dict] = None

    def __post_init__(self):
        if not self.holds and self.counterexample is None:
            raise ValueError("failing verdict needs a counterexample")

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "certificate": self.certificate,
            "counterexample": self.counterexample,
        }


# ---------------------------------------------------------------------------
# Causal influence (temporal reachability)
# ---------------------------------------------------------------------------

def _bits(mask: int) -> Iterable[int]:
    """The agents in a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _spread(nb: Sequence[int], mask: int) -> int:
    """Union of the neighbour masks ``nb`` of the agents in ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= nb[low.bit_length() - 1]
        mask ^= low
    return out


def _reach(g: EvolvingGraph, src: AgentId, m: int, keep: int = -1,
           blocked: int = 0, dropped: Optional[tuple[int, int, int]] = None,
           ) -> Iterator[tuple[int, int]]:
    """The one loop that steps news over round edges: endless ``(t, got)``
    for t = m+1, m+2, ..., with ``got`` the mask of the agents that received
    (src, m)'s news by an actual step by the start of round t.  src always
    carries; agents outside the mask ``keep`` never receive, senders in the
    mask ``blocked`` never forward, and ``dropped = (a, b, r)`` removes the
    step from a to b over round r."""
    da, db, dt = dropped or (0, 0, 0)
    carries, forwards = 1 << src, ~blocked
    got = 0
    t = m
    while True:
        nb = g._masks_at(t)
        if t == dt:
            nb = list(nb)
            nb[da] &= ~(1 << db)
        got |= _spread(nb, (got | carries) & forwards) & keep
        t += 1
        yield t, got


def _until_final(g: EvolvingGraph, reach: Iterable[tuple[int, int]],
                 after: int = 0) -> Iterator[tuple[int, int]]:
    """The one stopping rule: ``reach`` passed through up to the round at
    which its mask is final.  That is when every agent holds, or when no
    agent joined for |cycle| rounds past the prefix and past ``after``:
    growth depends only on the mask and the cycle phase, so a quiet cycle
    means the mask is final.  Both guards read the round after the step
    (ROADMAP item 2), so the last prefix round and the round ``after``
    count as quiet cycle rounds."""
    full = (1 << g.n) - 1
    last = quiet = 0
    for t, got in reach:
        yield t, got
        if got == full:
            return
        if got != last:
            last, quiet = got, 0
        elif t > len(g.prefix) and t > after:
            quiet += 1
            if quiet >= len(g.cycle):
                return


def _then_one_cycle(g: EvolvingGraph, reach: Iterable[tuple[int, int]],
                    after: int = 0) -> Iterator[tuple[int, int]]:
    """``_until_final(g, reach, after)``, then its final mask held for one
    more cycle past the later of its final round and ``after``, so a scan
    of these rounds meets the final mask at every cycle phase."""
    t = got = 0
    for t, got in _until_final(g, reach, after):
        yield t, got
    for t in range(t + 1, max(t, after) + len(g.cycle) + 1):
        yield t, got


def _opportunities(g: EvolvingGraph, i: AgentId, j: AgentId, m: int,
                   until: int) -> Iterator[tuple[int, int]]:
    """News of the i-edge (j, m): ``(t, mask)`` for t = m+1..until, with
    ``mask`` i's round-t partners that can have learned of the edge without
    i mediating.  The partner j knows first-hand, and may pass the news on
    over round m's own edges."""
    first_hand = 1 << j
    for t, got in _reach(g, j, m, ~(1 << i)):
        if t > until:
            return
        yield t, (got | first_hand) & g._masks_at(t)[i]


def punishment_opportunities(g: EvolvingGraph, i: AgentId, j: AgentId,
                             m: int, until: int) -> set[tuple[AgentId, int]]:
    """Later i-edges (l, m') whose endpoint can have learned of (j, m)
    without i mediating.  The original partner j counts (it knows first-hand)."""
    if not g.at(m).has_edge(i, j):
        raise ValueError(f"({i},{j}) is not an edge at round {m}")
    return {(l, t) for t, hit in _opportunities(g, i, j, m, until)
            for l in _bits(hit)}


def _first_opportunity(g: EvolvingGraph, i: AgentId, j: AgentId, m: int,
                       until: int) -> Optional[int]:
    """First round of a punishment opportunity for the i-edge (j, m) within
    ``until``, or None."""
    for t, hit in _opportunities(g, i, j, m, until):
        if hit:
            return t
    return None


def po_set(g: EvolvingGraph, i: AgentId, rho: int, m: int) -> set[tuple[AgentId, int]]:
    """Punishment opportunities of i, within round m + rho (exclusive), for
    any i-edge at round >= m."""
    if rho < 1:
        raise ValueError("rho must be >= 1")
    out: set[tuple[AgentId, int]] = set()
    for m2 in range(m, m + rho - 1):
        for j in _bits(g._masks_at(m2)[i]):
            out |= punishment_opportunities(g, i, j, m2, m + rho - 1)
    return out


# ---------------------------------------------------------------------------
# Family checks
# ---------------------------------------------------------------------------

def _family_i_edges(
        f: GraphFamily,
) -> Iterable[tuple[int, EvolvingGraph, AgentId, AgentId, int]]:
    """(member index, member, i, j, m) for every i-edge (j, m) up to the
    member's period, by member, round, i, then j.  A later edge is the
    phase twin of one a cycle earlier, whose opportunities are the same
    rounds shifted, so it adds no new delay and no new counterexample."""
    for gi, g in enumerate(f.members):
        for m in range(1, min(f.horizon, g.period) + 1):
            nb = g._masks_at(m)
            for i in range(f.n):
                for j in _bits(nb[i]):
                    yield gi, g, i, j, m


def check_timely_punishments(f: GraphFamily, rho: int) -> FamilyVerdict:
    """Every i-edge (j, m) must have a punishment opportunity strictly
    before round m + rho, in every member and for every agent."""
    if rho < 1:
        raise ValueError("rho must be >= 1")
    for gi, g, i, j, m in _family_i_edges(f):
        if _first_opportunity(g, i, j, m, m + rho - 1) is None:
            return FamilyVerdict(
                holds=False,
                counterexample={"member": g.name or gi, "agent": i,
                                "edge": [j, m]})
    return FamilyVerdict(holds=True, certificate=rho)


def timely_certificate(f: GraphFamily) -> Optional[int]:
    """Smallest rho in [1, horizon] passing the timeliness check, or None.

    rho passes exactly when it is at least first - m + 1 for every i-edge
    (j, m) up to the horizon, where first is the round of the edge's first
    punishment opportunity: the result is the largest such delay (1 with
    no edges), from one scan, or None if an edge has none within the horizon.
    """
    rho = 1
    for _, g, i, j, m in _family_i_edges(f):
        first = _first_opportunity(g, i, j, m, m + f.horizon - 1)
        if first is None:
            return None
        rho = max(rho, first - m + 1)
    return rho


def _connected_without(rg: RoundGraph, i: AgentId) -> bool:
    nb = rg._masks
    others = ((1 << rg.n) - 1) & ~(1 << i)
    seen = frontier = others & -others
    while frontier:
        frontier = _spread(nb, frontier) & others & ~seen
        seen |= frontier
    return seen == others


def check_connectivity_restriction(f: GraphFamily) -> FamilyVerdict:
    """Degree observation plus: every round graph minus any one agent's
    edges stays connected on the remaining agents."""
    if f.observation is not ObservationModel.NEIGHBORS_AND_DEGREES:
        return FamilyVerdict(
            holds=False,
            counterexample={"reason": "observation model does not include degrees"})
    for gi, g in enumerate(f.members):
        for m in range(1, g.period + 1):
            rg = g.at(m)
            for i in range(f.n):
                if not _connected_without(rg, i):
                    return FamilyVerdict(
                        holds=False,
                        counterexample={"member": g.name or gi, "round": m, "agent": i})
    return FamilyVerdict(holds=True)


# ---------------------------------------------------------------------------
# Indistinguishability
# ---------------------------------------------------------------------------

def indistinguishable_at(g: EvolvingGraph, g2: EvolvingGraph, i: AgentId,
                         m: int, obs: ObservationModel) -> bool:
    """Whether i's round-m information cannot separate the two graphs:
    identical influence cones at every earlier round, and identical local
    views for every agent in the cone.

    The round-(t-1) cone of (a, t) is a's closed round-(t-1) neighbourhood,
    and cones compose, so (a, t) separates the graphs iff a's round-t views
    differ or some agent of that neighbourhood separates them at t-1.  The
    neighbourhood is part of a's round-(t-1) view, so while the views agree
    it is the same in both graphs, and it is read in g.  The masks bad_t of
    separating agents are kept per (g2, obs) on g and extended forward on
    demand, so each round is compared once for all agents and rounds asked.
    """
    if g.n != g2.n:
        raise ValueError("graphs must share the same agent count")
    entry = g._agreement.get((id(g2), obs))
    if entry is None or entry[0] is not g2:
        entry = g._agreement[id(g2), obs] = (g2, [0])
    bad = entry[1]
    for t in range(len(bad), m + 1):
        nb, nb2 = g._masks_at(t), g2._masks_at(t)
        differ = sum(1 << a for a in range(g.n) if nb[a] != nb2[a])
        if obs is ObservationModel.NEIGHBORS_AND_DEGREES:
            moved = sum(1 << b for b in range(g.n)
                        if nb[b].bit_count() != nb2[b].bit_count())
            differ |= _spread(nb, moved)
        prev = bad[t - 1]
        if prev:   # bad_0 is empty, and there is no round 0
            differ |= prev | _spread(g._masks_at(t - 1), prev)
        bad.append(differ)
    return m < 1 or not bad[m] >> i & 1


def is_indistinguishable_round(
        f: GraphFamily, g: EvolvingGraph, i: AgentId, rho: int, m: int,
) -> Optional[tuple[EvolvingGraph, EvolvingGraph]]:
    """Witness pair (G1, G2) making round m ambiguous for punishing i.

    Conditions: every punishment opportunity of i in G' (within rho of m)
    cannot tell G' from g; the two PO sets overlap in fewer pairs than i's
    round-m degree; and together they cover g's own PO set.
    """
    if g not in f.members:
        raise ValueError("g must be a family member")
    return _indistinguishable_round(f, f.members.index(g), i, rho, m, {})


def _indistinguishable_round(f: GraphFamily, gi: int, i: AgentId, rho: int,
                             m: int, pos_by_agent: dict):
    """``is_indistinguishable_round`` for member ``gi``.  i's PO sets at
    round m in every member do not depend on the member checked:
    ``pos_by_agent`` keeps them by agent, for one m and rho, computed on
    first use."""
    g = f.members[gi]
    k = g._masks_at(m)[i].bit_count()
    if k == 0:
        return None
    if i not in pos_by_agent:
        pos_by_agent[i] = [po_set(cand, i, rho, m) for cand in f.members]
    pos_all = pos_by_agent[i]
    po_g = pos_all[gi]
    # by member index: names need not be unique
    ok = [all(indistinguishable_at(cand, g, j, mp, f.observation)
              for (j, mp) in pos)
          for cand, pos in zip(f.members, pos_all)]
    for a, b in itertools.combinations_with_replacement(range(len(ok)), 2):
        if not (ok[a] and ok[b]):
            continue
        po1, po2 = pos_all[a], pos_all[b]
        if len(po1 & po2) < k and (po1 | po2) == po_g:
            return (f.members[a], f.members[b])
    return None


def check_eventual_distinguishability(f: GraphFamily, rho: int,
                                      m_star: int) -> FamilyVerdict:
    """No member, agent, and round in (m_star, horizon] may admit an
    indistinguishable-round witness pair."""
    if rho < 1:
        raise ValueError("rho must be >= 1")
    if not 0 <= m_star <= f.horizon:
        raise ValueError(f"m_star must be in 0..{f.horizon} (the family "
                         f"horizon), got {m_star}")
    for m in range(m_star + 1, f.horizon + 1):
        pos_by_agent: dict = {}
        for gi, g in enumerate(f.members):
            for i in range(f.n):
                w = _indistinguishable_round(f, gi, i, rho, m, pos_by_agent)
                if w is not None:
                    return FamilyVerdict(
                        holds=False,
                        counterexample={"member": g.name or gi, "agent": i, "round": m,
                                        "witness": [w[0].name, w[1].name]})
    return FamilyVerdict(holds=True, certificate=rho)


# ---------------------------------------------------------------------------
# Ambiguous punishment opportunities
# ---------------------------------------------------------------------------

def _crossing_components(g: EvolvingGraph, i: AgentId,
                         endpoint_rounds: dict[int, list[int]]) -> list[int]:
    """Connected components (as masks) of i-edge endpoints under
    interference-free influence between their i-edges (either direction)."""
    endpoints = sorted(endpoint_rounds)
    parent = {a: a for a in endpoints}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for l in endpoints:
        for mp in endpoint_rounds[l]:
            if all(find(o) == find(l) for o in endpoints):
                break   # every endpoint is in l's component already
            # l never receives its own news back: a re-receipt would
            # reset the quiet count.  An i-edge of a holder o at any later
            # round completes the influence.
            reach = _reach(g, l, mp, keep=~(1 << i | 1 << l))
            for t, got in _then_one_cycle(g, reach):
                for o in _bits(got & g._masks_at(t)[i]):
                    union(l, o)
    comps: dict[int, int] = {}
    for a in endpoints:
        comps[find(a)] = comps.get(find(a), 0) | 1 << a
    return list(comps.values())


def _i_edge_endpoint_rounds(g: EvolvingGraph, i: AgentId) -> dict[int, list[int]]:
    """Endpoint -> source rounds worth scanning (one full period of i-edges)."""
    out: dict[int, list[int]] = {}
    for m in range(1, g.period + 1):
        for l in _bits(g._masks_at(m)[i]):
            out.setdefault(l, []).append(m)
    return out


def _crossing_of(g: EvolvingGraph, i: AgentId) -> dict[int, int]:
    """Each i-edge endpoint's crossing component mask, built once per graph
    and agent: neither depends on the edge being asked about."""
    memo = g._crossing
    if i not in memo:
        comps = _crossing_components(g, i, _i_edge_endpoint_rounds(g, i))
        memo[i] = {a: c for c in comps for a in _bits(c)}
    return memo[i]


def is_ambiguous_po(f: GraphFamily, g: EvolvingGraph, i: AgentId, j: AgentId,
                    m: int,
                    ) -> Optional[tuple[EvolvingGraph, tuple[set[int], set[int]]]]:
    """Witness that the i-edge (j, m) is ambiguous: some member G' looks
    identical to i at round m yet splits the other agents into two halves
    (j's half versus the pre-m interaction half) across which i's edges
    never exchange interference-free influence.
    """
    if not g.at(m).has_edge(i, j):
        raise ValueError(f"({i},{j}) is not an edge at round {m}")
    for cand in f.members:
        if not indistinguishable_at(cand, g, i, m, f.observation):
            continue
        n2 = _crossing_of(cand, i).get(j)
        if n2 is None:
            continue
        # i's partners before round m must all fall outside j's half
        pre = 0
        for mp in range(1, m):
            pre |= cand._masks_at(mp)[i]
        if pre & n2:
            continue
        n1 = ((1 << f.n) - 1) & ~(1 << i) & ~n2
        return (cand, (set(_bits(n1)), set(_bits(n2))))
    return None


# ---------------------------------------------------------------------------
# Unsafe graphs
# ---------------------------------------------------------------------------

def is_unsafe(g: EvolvingGraph, rho: int, horizon: int) -> Optional[dict]:
    """Witness (i, j, l, m, m1, m2) that the graph admits the lenient-cut
    configuration: i meets j at m and l at m2, j meets l at m1, l then goes
    silent until m + rho, and dropping the single transmission l -> i at m2
    cuts every route from the (j, l, m1) interaction to all later partners
    of j and (after m2) of i.  The witness search scans configuration
    rounds m up to ``horizon`` and the period (a later m is the phase twin
    of m - |cycle|, scanned first); route checking follows carriers until
    their set provably stabilises and then one more full cycle, so the "all
    later edges" quantification is exact on the prefix+cycle
    representation.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    if horizon < rho:
        raise ValueError("horizon must be at least rho")
    for m in range(1, min(horizon, g.period) + 1):
        nb_m = g._masks_at(m)
        last = min(m + rho - 1, horizon)
        for i in range(g.n):
            if not nb_m[i]:
                continue
            for m1 in range(m + 1, last + 1):
                nb_m1 = g._masks_at(m1)
                for m2 in range(m1 + 1, last + 1):
                    i_m2 = g._masks_at(m2)[i]
                    for j in _bits(nb_m[i]):
                        for l in _bits(nb_m1[j] & i_m2):
                            if any(g._masks_at(t)[l]
                                   for t in range(m2 + 1, m + rho)):
                                continue
                            # l holds only once a step brings the news back
                            reach = _reach(g, l, m1 + 1,
                                           blocked=1 << i | 1 << j,
                                           dropped=(l, i, m2))
                            if _unsafe_routes_cut(
                                    g, i, j, m2,
                                    _then_one_cycle(g, reach, after=m2)):
                                return {"i": i, "j": j, "l": l,
                                        "m": m, "m1": m1, "m2": m2}
    return None


def _unsafe_routes_cut(g: EvolvingGraph, i: AgentId, j: AgentId, m2: int,
                       reach: Iterable[tuple[int, int]]) -> bool:
    """No partner of j, nor of i after round m2, holds the news at any
    round of ``reach``."""
    for t, got in reach:
        nb = g._masks_at(t)
        if nb[j] & got or (t > m2 and nb[i] & got):
            return False
    return True


# ---------------------------------------------------------------------------
# Family files
# ---------------------------------------------------------------------------

def _expect(cond: bool, where: str, message: str):
    if not cond:
        raise FamilyFormatError(where, message)


def family_from_dict(doc: dict, where: str) -> GraphFamily:
    _expect(isinstance(doc, dict), where, "expected an object")
    for key in ("n", "observation", "horizon", "members"):
        _expect(key in doc, where, f"missing field {key!r}")
    n = doc["n"]
    # bool is an int subclass: true must not read as 1
    _expect(type(n) is int and n >= 1, f"{where}.n", "must be a positive integer")
    obs_raw = doc["observation"]
    try:
        obs = ObservationModel(obs_raw)
    except ValueError:
        raise FamilyFormatError(
            f"{where}.observation",
            f"unknown model {obs_raw!r} (expected 'neighbors' or 'neighbors_degrees')")
    horizon = doc["horizon"]
    _expect(type(horizon) is int and horizon >= 1, f"{where}.horizon",
            "must be a positive integer")
    _expect(isinstance(doc["members"], list) and doc["members"],
            f"{where}.members", "must be a non-empty list")
    members = []
    names: dict[str, int] = {}
    for mi, mdoc in enumerate(doc["members"]):
        mwhere = f"{where}.members[{mi}]"
        _expect(isinstance(mdoc, dict), mwhere, "expected an object")
        name = mdoc.get("name", f"member{mi}")
        _expect(isinstance(name, str), f"{mwhere}.name", "must be a string")
        _expect(name not in names, f"{mwhere}.name",
                f"duplicate member name {name!r} (also members[{names.get(name)}])")
        names[name] = mi
        prefix = _parse_rounds(mdoc.get("prefix", []), n, f"{mwhere}.prefix")
        _expect("cycle" in mdoc, mwhere, "missing field 'cycle'")
        cycle = _parse_rounds(mdoc["cycle"], n, f"{mwhere}.cycle")
        _expect(len(cycle) > 0, f"{mwhere}.cycle", "must be non-empty")
        members.append(EvolvingGraph(prefix=tuple(prefix), cycle=tuple(cycle), name=name))
    try:
        return GraphFamily(n=n, members=tuple(members), observation=obs, horizon=horizon)
    except ValueError as e:
        raise FamilyFormatError(where, str(e))


def _parse_rounds(rounds, n: int, where: str) -> list[RoundGraph]:
    _expect(isinstance(rounds, list), where, "expected a list of rounds")
    out = []
    for ri, edges in enumerate(rounds):
        rwhere = f"{where}[{ri}]"
        _expect(isinstance(edges, list), rwhere, "expected a list of edges")
        seen = set()
        pairs = []
        for ei, e in enumerate(edges):
            ewhere = f"{rwhere}.edges[{ei}]"
            _expect(isinstance(e, list) and len(e) == 2 and
                    all(type(x) is int for x in e), ewhere,
                    "expected a pair of agent ids")
            u, v = e
            _expect(u != v, ewhere, f"self-loop at agent {u}")
            _expect(0 <= u < n and 0 <= v < n, ewhere,
                    f"agent id out of range [0,{n})")
            ne = _norm_edge(u, v)
            _expect(ne not in seen, ewhere, f"duplicate edge {list(ne)}")
            seen.add(ne)
            pairs.append(ne)
        out.append(RoundGraph.from_pairs(n, pairs))
    return out


def load_family(path: str) -> GraphFamily:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise FamilyFormatError(f"{path}:{e.lineno}:{e.colno}", e.msg)
    return family_from_dict(doc, where=path)


def family_to_dict(f: GraphFamily) -> dict:
    return {
        "n": f.n,
        "observation": f.observation.value,
        "horizon": f.horizon,
        "members": [
            {
                "name": g.name,
                "prefix": [[list(e) for e in sorted(rg.edges)] for rg in g.prefix],
                "cycle": [[list(e) for e in sorted(rg.edges)] for rg in g.cycle],
            }
            for g in f.members
        ],
    }
