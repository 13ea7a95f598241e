"""Adversary-chosen evolving graphs and the predicates decided on them.

An evolving graph is an infinite sequence of round communication graphs,
represented finitely as a prefix plus a repeating cycle.  Rounds are
1-indexed: ``graph_at(m)`` returns ``prefix[m-1]`` for ``m <= |prefix|``
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
infinite quantification.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

AgentId = int
Edge = tuple[int, int]

PARTITION_SEARCH_CAP = 16


class FamilyFormatError(ValueError):
    """Raised by the family loader with the offending document position."""

    def __init__(self, where: str, message: str):
        self.where = where
        self.message = message
        super().__init__(f"{where}: {message}")


class PartitionSearchRefused(RuntimeError):
    """Raised when an ambiguous-PO search would exceed the agent cap."""


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

    def at(self, m: int) -> RoundGraph:
        if m < 1:
            raise ValueError(f"rounds are 1-indexed, got {m}")
        if m <= len(self.prefix):
            return self.prefix[m - 1]
        return self.cycle[(m - len(self.prefix) - 1) % len(self.cycle)]

    @cached_property
    def _crossing(self) -> dict[AgentId, dict[int, frozenset[int]]]:
        """Agent i -> each i-edge endpoint's crossing component, filled by
        ``_crossing_of`` on first use."""
        return {}


def graph_at(g: EvolvingGraph, m: int) -> RoundGraph:
    """Round-m communication graph (prefix then cyclically repeating)."""
    return g.at(m)


class ObservationModel(Enum):
    NEIGHBORS_ONLY = "neighbors"
    NEIGHBORS_AND_DEGREES = "neighbors_degrees"


@dataclass(frozen=True)
class LocalView:
    """What one agent learns about the round topology before acting."""

    agent: AgentId
    round: int
    neighbors: frozenset[int]
    neighbor_degrees: Optional[Mapping[int, int]] = None


def local_view(g: EvolvingGraph, i: AgentId, m: int,
               obs: ObservationModel) -> LocalView:
    rg = g.at(m)
    nbrs = rg.neighbors(i)
    degrees = None
    if obs is ObservationModel.NEIGHBORS_AND_DEGREES:
        degrees = {j: rg.degree(j) for j in sorted(nbrs)}
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

def _reach_frontier(g: EvolvingGraph, sources: Iterable[AgentId], m: int,
                    m2: int, exclude: Optional[AgentId] = None) -> set[int]:
    """Agents whose start-of-round-m2 knowledge the sources' start-of-round-m
    knowledge can have reached.  ``exclude`` never receives (nor relays)."""
    reached = set(sources)
    if exclude in reached:
        reached.discard(exclude)
    for t in range(m, m2):
        rg = g.at(t)
        added = set()
        for a in reached:
            for b in rg.neighbors(a):
                if b != exclude and b not in reached:
                    added.add(b)
        if added:
            reached |= added
    return reached


def causally_influences(g: EvolvingGraph, j: AgentId, m: int,
                        l: AgentId, m2: int) -> bool:
    """True iff information at (j, m) can reach (l, m2) forward in time."""
    if m < 1 or m2 < 1:
        raise ValueError("rounds are 1-indexed")
    if m >= m2:
        return False
    if j == l:
        return True
    return l in _reach_frontier(g, [j], m, m2)


def causally_influences_excluding(g: EvolvingGraph, i: AgentId, j: AgentId,
                                  m: int, l: AgentId, m2: int) -> bool:
    """Causal influence where agent i neither relays nor receives."""
    if i == j:
        raise ValueError("excluded agent must differ from the source")
    if m < 1 or m2 < 1:
        raise ValueError("rounds are 1-indexed")
    if m >= m2:
        return False
    if j == l:
        return True
    return l in _reach_frontier(g, [j], m, m2, exclude=i)


def punishment_opportunities(g: EvolvingGraph, i: AgentId, j: AgentId,
                             m: int, until: int) -> set[tuple[AgentId, int]]:
    """Later i-edges (l, m') whose endpoint can have learned of (j, m)
    without i mediating.  The original partner j counts (it knows first-hand)."""
    if not g.at(m).has_edge(i, j):
        raise ValueError(f"({i},{j}) is not an edge at round {m}")
    return {(l, mp) for mp, reached in _reach_without(g, i, j, m, until)
            for l in g.at(mp).neighbors(i) if l in reached}


def _first_opportunity(g: EvolvingGraph, i: AgentId, j: AgentId, m: int,
                       until: int) -> Optional[int]:
    """First round of a punishment opportunity for the i-edge (j, m) within
    ``until``, or None."""
    for mp, reached in _reach_without(g, i, j, m, until):
        if not reached.isdisjoint(g.at(mp).neighbors(i)):
            return mp
    return None


def _reach_without(g: EvolvingGraph, i: AgentId, j: AgentId, m: int,
                   until: int) -> Iterable[tuple[int, set[int]]]:
    """(mp, agents holding (j, m)'s information at the start of round mp)
    for mp in (m, until], with i neither relaying nor receiving."""
    reached = {j}
    for mp in range(m + 1, until + 1):
        rg_prev = g.at(mp - 1)
        added = set()
        for a in reached:
            for b in rg_prev.neighbors(a):
                if b != i and b not in reached:
                    added.add(b)
        reached |= added
        yield mp, reached


def po_set(g: EvolvingGraph, i: AgentId, rho: int, m: int) -> set[tuple[AgentId, int]]:
    """Punishment opportunities of i, within round m + rho (exclusive), for
    any i-edge at round >= m."""
    if rho < 1:
        raise ValueError("rho must be >= 1")
    out: set[tuple[AgentId, int]] = set()
    for m2 in range(m, m + rho - 1):
        for j in sorted(g.at(m2).neighbors(i)):
            out |= punishment_opportunities(g, i, j, m2, m + rho - 1)
    return out


# ---------------------------------------------------------------------------
# Family checks
# ---------------------------------------------------------------------------

def _family_i_edges(
        f: GraphFamily,
) -> Iterable[tuple[int, EvolvingGraph, AgentId, AgentId, int]]:
    """(member index, member, i, j, m) for every i-edge (j, m) up to the
    horizon, by member, round, i, then j."""
    for gi, g in enumerate(f.members):
        for m in range(1, f.horizon + 1):
            rg = g.at(m)
            for i in range(f.n):
                for j in sorted(rg.neighbors(i)):
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
    others = [v for v in range(rg.n) if v != i]
    if len(others) <= 1:
        return True
    start = others[0]
    seen = {start}
    stack = [start]
    while stack:
        a = stack.pop()
        for b in rg.neighbors(a):
            if b != i and b not in seen:
                seen.add(b)
                stack.append(b)
    return len(seen) == len(others)


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

    The round-t cone holds the agents whose round-t information can sit
    inside i's round-m information.  One backward sweep yields them all:
    the round-m cone is {i}, and the round-t cone adds the round-t
    neighbours of the round-(t+1) cone.  Those neighbours are part of the
    views compared at round t, so while the views agree both graphs grow
    the same cone, and the sweep grows it once, in g.
    """
    if g.n != g2.n:
        raise ValueError("graphs must share the same agent count")
    degrees = obs is ObservationModel.NEIGHBORS_AND_DEGREES
    cone = {i}
    for t in range(m, 0, -1):
        rg, rg2 = g.at(t), g2.at(t)
        if t < m:
            cone = cone.union(*(rg.neighbors(a) for a in cone))
        for a in cone:
            nbrs = rg.neighbors(a)
            if nbrs != rg2.neighbors(a):
                return False
            if degrees and any(rg.degree(b) != rg2.degree(b) for b in nbrs):
                return False
    return True


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
    k = g.at(m).degree(i)
    if k == 0:
        return None
    if i not in pos_by_agent:
        pos_by_agent[i] = [po_set(cand, i, rho, m) for cand in f.members]
    pos_all = pos_by_agent[i]
    po_g = pos_all[gi]
    member_pos = {}
    member_ok = {}
    for cand, pos in zip(f.members, pos_all):
        member_pos[cand.name] = pos
        member_ok[cand.name] = all(
            indistinguishable_at(cand, g, j, mp, f.observation) for (j, mp) in pos)
    for g1, g2 in itertools.combinations_with_replacement(f.members, 2):
        if not (member_ok[g1.name] and member_ok[g2.name]):
            continue
        po1, po2 = member_pos[g1.name], member_pos[g2.name]
        if len(po1 & po2) < k and (po1 | po2) == po_g:
            return (g1, g2)
    return None


def check_eventual_distinguishability(f: GraphFamily, rho: int,
                                      m_star: int) -> FamilyVerdict:
    """No member, agent, and round in (m_star, horizon] may admit an
    indistinguishable-round witness pair."""
    if m_star > f.horizon:
        raise ValueError("m_star must not exceed the family horizon")
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

def _stable_reach_with_joins(g: EvolvingGraph, src: AgentId, m: int,
                             exclude: AgentId) -> tuple[dict[int, int], int]:
    """Join round per agent for the interference-free reach from (src, m),
    iterated until the frontier is stable over a full cycle.

    Growth at round t depends only on (reached set, cycle phase), so once no
    agent joins for |cycle| consecutive rounds in the cyclic region the set
    is final.  Returns (joins, stable_round): agent -> first round at whose
    start it carries the information, and a round by which the set is final.
    """
    L = len(g.cycle)
    joins = {src: m}
    reached = {src} - {exclude}
    t = m
    quiet = 0
    while True:
        rg = g.at(t)
        added = set()
        for a in reached:
            for b in rg.neighbors(a):
                if b != exclude and b not in reached:
                    added.add(b)
        t += 1
        if added:
            reached |= added
            for b in added:
                joins.setdefault(b, t)
            quiet = 0
        elif t > len(g.prefix):
            quiet += 1
            if quiet >= L:
                return joins, t
        if len(reached) == g.n:
            return joins, t


def _crossing_components(g: EvolvingGraph, i: AgentId,
                         endpoint_rounds: dict[int, list[int]]) -> list[set[int]]:
    """Connected components of i-edge endpoints under interference-free
    influence between their i-edges (either direction)."""
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

    L = len(g.cycle)
    for l in endpoints:
        for mp in endpoint_rounds[l]:
            joins, stable = _stable_reach_with_joins(g, l, mp, exclude=i)
            for o in endpoints:
                if o == l or find(o) == find(l) or o not in joins:
                    continue
                lo = max(joins[o], mp + 1)
                # an i-edge of o at any round >= lo completes the influence;
                # scanning one cycle past stabilisation covers every phase.
                for m2 in range(lo, max(stable, lo) + L + 1):
                    if g.at(m2).has_edge(i, o):
                        union(l, o)
                        break
    comps: dict[int, set[int]] = {}
    for a in endpoints:
        comps.setdefault(find(a), set()).add(a)
    return list(comps.values())


def _i_edge_endpoint_rounds(g: EvolvingGraph, i: AgentId) -> dict[int, list[int]]:
    """Endpoint -> source rounds worth scanning (one full period of i-edges)."""
    out: dict[int, list[int]] = {}
    for m in range(1, g.period + 1):
        for l in g.at(m).neighbors(i):
            out.setdefault(l, []).append(m)
    return out


def _crossing_of(g: EvolvingGraph, i: AgentId) -> dict[int, frozenset[int]]:
    """Each i-edge endpoint's crossing component, built once per graph and
    agent: neither depends on the edge being asked about."""
    memo = g._crossing
    if i not in memo:
        comps = _crossing_components(g, i, _i_edge_endpoint_rounds(g, i))
        memo[i] = {a: c for c in map(frozenset, comps) for a in c}
    return memo[i]


def is_ambiguous_po(f: GraphFamily, g: EvolvingGraph, i: AgentId, j: AgentId,
                    m: int,
                    ) -> Optional[tuple[EvolvingGraph, tuple[set[int], set[int]]]]:
    """Witness that the i-edge (j, m) is ambiguous: some member G' looks
    identical to i at round m yet splits the other agents into two halves
    (j's half versus the pre-m interaction half) across which i's edges
    never exchange interference-free influence.
    """
    if f.n > PARTITION_SEARCH_CAP:
        raise PartitionSearchRefused(
            f"partition search needs 2^(n-1) work; n={f.n} exceeds cap {PARTITION_SEARCH_CAP}")
    if not g.at(m).has_edge(i, j):
        raise ValueError(f"({i},{j}) is not an edge at round {m}")
    for cand in f.members:
        if not indistinguishable_at(cand, g, i, m, f.observation):
            continue
        comp = _crossing_of(cand, i)
        if j not in comp:
            continue
        # i's partners before round m must all fall outside j's half
        pre = {l for mp in range(1, m) for l in cand.at(mp).neighbors(i)}
        if not pre.isdisjoint(comp[j]):
            continue
        n2 = set(comp[j])
        return (cand, (set(range(f.n)) - {i} - n2, n2))
    return None


# ---------------------------------------------------------------------------
# Unsafe graphs
# ---------------------------------------------------------------------------

def _step_reached(g: EvolvingGraph, l: AgentId, start: int,
                  blocked_senders: set[int],
                  dropped_step: Optional[tuple[int, int, int]],
                  ) -> tuple[dict[int, int], int]:
    """First round at whose start each agent has received (via at least one
    actual transmission step) the information born to l at ``start``.

    Senders in ``blocked_senders`` never forward; ``dropped_step`` removes
    one specific (sender, receiver, round) transmission.  Iterates until the
    carrier set is stable over a full cycle (growth depends only on the set
    and the cycle phase, so a quiet cycle means it is final); returns the
    join rounds and a round by which the set is final.
    """
    L = len(g.cycle)
    carriers = {l}
    via_step: dict[int, int] = {}
    t = start
    quiet = 0
    while True:
        rg = g.at(t)
        new = {}
        for a in sorted(carriers):
            if a in blocked_senders:
                continue
            for b in rg.neighbors(a):
                if dropped_step == (a, b, t):
                    continue
                if b not in via_step and b not in new:
                    new[b] = t + 1
        t += 1
        if new:
            for b, tb in new.items():
                via_step.setdefault(b, tb)
                carriers.add(b)
            quiet = 0
        elif t > len(g.prefix) and t > (dropped_step[2] if dropped_step else 0):
            quiet += 1
            if quiet >= L:
                return via_step, t
        if len(via_step) >= g.n:
            return via_step, t


def is_unsafe(g: EvolvingGraph, rho: int, horizon: int) -> Optional[dict]:
    """Witness (i, j, l, m, m1, m2) that the graph admits the lenient-cut
    configuration: i meets j at m and l at m2, j meets l at m1, l then goes
    silent until m + rho, and dropping the single transmission l -> i at m2
    cuts every route from the (j, l, m1) interaction to all later partners
    of j and (after m2) of i.  The witness search scans configuration
    rounds up to ``horizon``; route checking follows carriers until their
    set provably stabilises and then one more full cycle, so the "all later
    edges" quantification is exact on the prefix+cycle representation.
    """
    if horizon < rho:
        raise ValueError("horizon must be at least rho")
    for m in range(1, horizon + 1):
        rg_m = g.at(m)
        for i in range(g.n):
            i_nbrs_m = sorted(rg_m.neighbors(i))
            if not i_nbrs_m:
                continue
            for m1 in range(m + 1, min(m + rho - 1, horizon) + 1):
                for m2 in range(m1 + 1, min(m + rho - 1, horizon) + 1):
                    for j in i_nbrs_m:
                        for l in sorted(g.at(m1).neighbors(j)):
                            if l in (i, j):
                                continue
                            if not g.at(m2).has_edge(i, l):
                                continue
                            if any(g.at(t).degree(l) > 0
                                   for t in range(m2 + 1, m + rho)):
                                continue
                            reached, stable = _step_reached(
                                g, l, m1 + 1,
                                blocked_senders={i, j},
                                dropped_step=(l, i, m2))
                            end = max(stable, m2) + len(g.cycle)
                            if _unsafe_routes_cut(g, i, j, m1, m2, end, reached):
                                return {"i": i, "j": j, "l": l,
                                        "m": m, "m1": m1, "m2": m2}
    return None


def _unsafe_routes_cut(g: EvolvingGraph, i: AgentId, j: AgentId, m1: int,
                       m2: int, end: int, reached: dict[int, int]) -> bool:
    for mp in range(m1 + 1, end + 1):
        for p in g.at(mp).neighbors(j):
            if p in reached and reached[p] <= mp:
                return False
    for mp in range(m2 + 1, end + 1):
        for p in g.at(mp).neighbors(i):
            if p in reached and reached[p] <= mp:
                return False
    return True


# ---------------------------------------------------------------------------
# Family files
# ---------------------------------------------------------------------------

def _expect(cond: bool, where: str, message: str):
    if not cond:
        raise FamilyFormatError(where, message)


def family_from_dict(doc: dict, where: str = "family") -> GraphFamily:
    _expect(isinstance(doc, dict), where, "expected an object")
    for key in ("n", "observation", "horizon", "members"):
        _expect(key in doc, where, f"missing field {key!r}")
    n = doc["n"]
    _expect(isinstance(n, int) and n >= 1, f"{where}.n", "must be a positive integer")
    obs_raw = doc["observation"]
    try:
        obs = ObservationModel(obs_raw)
    except ValueError:
        raise FamilyFormatError(
            f"{where}.observation",
            f"unknown model {obs_raw!r} (expected 'neighbors' or 'neighbors_degrees')")
    horizon = doc["horizon"]
    _expect(isinstance(horizon, int) and horizon >= 1, f"{where}.horizon",
            "must be a positive integer")
    _expect(isinstance(doc["members"], list) and doc["members"],
            f"{where}.members", "must be a non-empty list")
    members = []
    for mi, mdoc in enumerate(doc["members"]):
        mwhere = f"{where}.members[{mi}]"
        _expect(isinstance(mdoc, dict), mwhere, "expected an object")
        name = mdoc.get("name", f"member{mi}")
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
                    all(isinstance(x, int) for x in e), ewhere,
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
