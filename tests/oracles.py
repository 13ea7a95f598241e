"""Independent brute-force oracles for the graph predicates and for exact
expectations.

The graph-predicate oracles are deliberately implemented on a different
substrate than the package: the (agent, round) product DAG is materialised
as a networkx digraph and closures come from generic graph search, so
agreement with the package's hand-rolled frontier sweeps is a two-sided
check.

The ``full_scan_*`` and ``set_*`` functions are the package's graph scans
as they were before its bitmask rewrite, kept verbatim apart from their
names: set-based reaches, and configuration rounds scanned up to the
horizon rather than folded to one period.  Both the post-increment guards
of ROADMAP item 2 (``t > len(g.prefix)`` after ``t += 1``) and every
verdict, witness and counterexample of theirs must survive the rewrite
unchanged.  ``brute_force_is_unsafe`` is the independent reference for
``is_unsafe``: it unrolls the time-expanded graph n + 2 periods past m2 and
has no stabilisation rule, so it does not share those guards.

``build_branch_tree`` is the brute-force reference for the verifier's
branch walker: it materialises the randomisation tree one draw at a time,
forking the machines and the whole history at every draw point, and keeps
a full ``Trace`` per leaf.  It shares only the round step with the
package, so exact agreement of ``sum(leaf.prob * u)`` over its leaves with
``expected_utility`` and ``expected_punishments`` checks the walker's
script batching, state sharing and absorption.

``_Enumerator`` is the leaf enumerator the verifier used before its
expectations ran on one branch walker (``verifier._Walk``): it yields
every run as a leaf with its utilities and profiles, and ``_expectation``
averages a function of the leaves.  It is the reference behind
``enumerated_expected_utility``, ``enumerated_punishments`` and
``enumerated_cooperation`` (a scan of the leaves in order), which the
walker's expectations, witnesses and cap refusals must equal, and behind
``continuation_eu``, the one-shot checker's continuation values
enumerated to absorption with no table of valued worlds.

``windowed_contexts`` is the reference for the one-shot checker's
contexts: the walks as they were before closure, cut only by three
heuristic windows and never stopped early, with a second on-path walk for
the prior deviation points.

Both references force the checker's send/defect/avoid patterns the way the
verifier did before its deviations all became ``ScheduledDefector``
wrappers: an ``Override`` ``(agent, round, pattern)`` applied by the round
step itself (``_overridden``, with its own copy of the old pattern rule),
with no absorption while the override is still ahead.

``paired_defection_from_scratch`` is the reference for
``run_paired_defection``: both runs of the pair simulated in full from
fresh machines, with nothing cached and no round shared.

``FlatSigmaGen`` is the reference for ``SigmaGen``'s three-int state:
the same protocol over a tally dict and one flat report dict.
``gen_payload_items`` and ``gen_payload`` read and write ``SigmaGen``'s
wire ints of a given round bit by bit from the layout's definition, and
``flat_sigma_gen_key`` maps the reference's state key to ``SigmaGen``'s
encoding.

``SetAccusationWindow`` and its subclasses are the reference for the
accusation-window protocols' one-int state: the same protocols over a set
of ``(subject, round)`` pairs, with ``{"acc": [...]}`` payloads.
``window_payload`` and ``window_payload_items`` write and read the
packed window's wire int bit by bit from its layout's definition, and
``window_key`` maps the reference's state key to the packed encoding.

``reference_gen_facts`` is the reference for ``facts.gen_facts``: the fact
checks as they were before they skipped what cannot fail, comparing every
unshared snapshot pair key by key and every round's punish masses.
"""

from __future__ import annotations

import copy
import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

import networkx as nx

from dynacct.evolving_graph import (EvolvingGraph, FamilyVerdict,
                                    GraphFamily, LocalView, _reach,
                                    local_view)
from dynacct.facts import (FACT_NAMES, FactReport, _find_deviation,
                           _represented_round, check_deviation_round)
from dynacct.game_core import (AVOID, COOPERATE, DEFECT, PUNISH, ActionKind,
                               ActionProfile, History, IndividualAction, Mode,
                               Trace, cooperation_tail)
from dynacct.protocols import (RandSource, SigmaGen, StrategyConfigError,
                               StrategyMachine, prop_punish)
from dynacct.verifier import (AgentId, EnumerationCapExceeded, SimConfig,
                              _act, _begin_round, _deliver,
                              _FixedDraws, _fork,
                              _NeedBranch, _override_patterns, _play_round,
                              _round_profile, _round_scripts,
                              _round_utilities, _ScriptDraws,
                              _simulate_machines, _world_key, build_machines)

# (agent, round, {neighbour: "send" | "defect" | "avoid"})
Override = tuple[AgentId, int, dict[AgentId, str]]


def _apply_pattern(actions: dict, pattern: dict[AgentId, str]) -> dict:
    """One agent's actions with its classes forced to ``pattern``: "send"
    keeps a sending action and cooperates where it would defect or avoid."""
    out = dict(actions)
    for j, o in pattern.items():
        if j not in out:
            continue
        if o == "defect":
            out[j] = DEFECT
        elif o == "avoid":
            out[j] = AVOID
        elif not out[j].sends:
            out[j] = COOPERATE
    return out


def _overridden(raw: dict, m: int, override: Optional[Override]) -> dict:
    """Round m's actions by agent, with ``override`` applied if it is
    round m's."""
    if override is None or override[1] != m:
        return raw
    agent, _, pattern = override
    return {a: _apply_pattern(acts, pattern) if a == agent else acts
            for a, acts in raw.items()}


def product_dag(g: EvolvingGraph, first: int, last: int,
                exclude=None) -> nx.DiGraph:
    """Nodes (agent, round) for rounds in [first, last]; persistence edges
    (a,t)->(a,t+1) and transmission edges (a,t)->(b,t+1) per round-t edge.
    ``exclude`` never receives information."""
    dag = nx.DiGraph()
    agents = range(g.n)
    for t in range(first, last + 1):
        for a in agents:
            dag.add_node((a, t))
    for t in range(first, last):
        rg = g.at(t)
        for a in agents:
            if exclude is None or a != exclude:
                dag.add_edge((a, t), (a, t + 1))
            for b in rg.neighbors(a):
                if exclude is None or b != exclude:
                    dag.add_edge((a, t), (b, t + 1))
    return dag


def oracle_influences(g, j, m, l, m2, exclude=None) -> bool:
    if m >= m2:
        return False
    if j == l:
        return True
    dag = product_dag(g, m, m2, exclude=exclude)
    return nx.has_path(dag, (j, m), (l, m2))


def oracle_reach_map(g, j, m, last, exclude=None):
    """All (l, m2) with influence from (j, m), for m2 in (m, last]."""
    dag = product_dag(g, m, last, exclude=exclude)
    desc = nx.descendants(dag, (j, m))
    out = {(l, m2) for (l, m2) in desc if m2 > m}
    out |= {(j, m2) for m2 in range(m + 1, last + 1)}
    return out


def oracle_punishment_opportunities(g, i, j, m, until):
    out = set()
    for mp in range(m + 1, until + 1):
        for l in g.at(mp).neighbors(i):
            if oracle_influences(g, j, m, l, mp, exclude=i):
                out.add((l, mp))
    return out


def oracle_po_set(g, i, rho, m):
    out = set()
    for m2 in range(m, m + rho - 1):
        for j in g.at(m2).neighbors(i):
            out |= oracle_punishment_opportunities(g, i, j, m2, m + rho - 1)
    return out


def oracle_timely(f: GraphFamily, rho: int):
    for gi, g in enumerate(f.members):
        for m in range(1, f.horizon + 1):
            for i in range(f.n):
                for j in sorted(g.at(m).neighbors(i)):
                    if not oracle_punishment_opportunities(g, i, j, m, m + rho - 1):
                        return {"member": g.name or gi, "agent": i, "edge": [j, m]}
    return None


def oracle_cone(g, i, m, mp):
    if mp == m:
        return frozenset([i])
    return frozenset(j for j in range(g.n)
                     if oracle_influences(g, j, mp, i, m))


def oracle_indistinguishable_at(g, g2, i, m, obs) -> bool:
    for mp in range(1, m + 1):
        c1, c2 = oracle_cone(g, i, m, mp), oracle_cone(g2, i, m, mp)
        if c1 != c2:
            return False
        for j in c1:
            v1, v2 = local_view(g, j, mp, obs), local_view(g2, j, mp, obs)
            if (v1.neighbors, v1.neighbor_degrees) != (v2.neighbors, v2.neighbor_degrees):
                return False
    return True


def oracle_indistinguishable_round(f, g, i, rho, m):
    k = g.at(m).degree(i)
    if k == 0:
        return None
    po_g = oracle_po_set(g, i, rho, m)
    for g1, g2 in itertools.combinations_with_replacement(f.members, 2):
        ok = True
        for cand in (g1, g2):
            for (j, mp) in oracle_po_set(cand, i, rho, m):
                if not oracle_indistinguishable_at(cand, g, j, mp, f.observation):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        po1, po2 = oracle_po_set(g1, i, rho, m), oracle_po_set(g2, i, rho, m)
        if len(po1 & po2) < k and (po1 | po2) == po_g:
            return (g1, g2)
    return None


def oracle_connected_without(rg, i) -> bool:
    h = nx.Graph()
    h.add_nodes_from(v for v in range(rg.n) if v != i)
    h.add_edges_from((u, v) for (u, v) in rg.edges if i not in (u, v))
    if h.number_of_nodes() <= 1:
        return True
    return nx.is_connected(h)


def oracle_ambiguous_po(f, g, i, j, m):
    """Exhaustive partition scan, quantified over one period of i-edges."""
    for cand in f.members:
        if not oracle_indistinguishable_at(cand, g, i, m, f.observation):
            continue
        others = [a for a in range(f.n) if a != i]
        pre = {l for mp in range(1, m) for l in cand.at(mp).neighbors(i)}
        edge_rounds = [(l, mp) for mp in range(1, cand.period + 1)
                       for l in cand.at(mp).neighbors(i)]
        horizon = cand.period * (f.n + 2)
        for bits in itertools.product([0, 1], repeat=len(others)):
            n1 = {a for a, b in zip(others, bits) if b == 0}
            n2 = {a for a, b in zip(others, bits) if b == 1}
            if j not in n2 or not pre <= n1:
                continue
            ok = True
            for (l, mp) in edge_rounds:
                for (o, mq) in [(o, mq) for mq in range(mp + 1, horizon + 1)
                                for o in cand.at(mq).neighbors(i)]:
                    if l == o:
                        continue
                    same = (l in n1) == (o in n1)
                    if not same and oracle_influences(cand, l, mp, o, mq, exclude=i):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return (cand, (n1, n2))
    return None


def oracle_partition_valid(f, cand, i, j, m, n1, n2) -> bool:
    """Validate a proposed partition against the raw definition."""
    if j not in n2 or (n1 | n2) != set(range(f.n)) - {i} or (n1 & n2):
        return False
    pre = {l for mp in range(1, m) for l in cand.at(mp).neighbors(i)}
    if not pre <= n1:
        return False
    horizon = cand.period * (f.n + 2)
    edge_rounds = [(l, mp) for mp in range(1, cand.period + 1)
                   for l in cand.at(mp).neighbors(i)]
    for (l, mp) in edge_rounds:
        for mq in range(mp + 1, horizon + 1):
            for o in cand.at(mq).neighbors(i):
                if l == o:
                    continue
                if (l in n1) != (o in n1) and oracle_influences(
                        cand, l, mp, o, mq, exclude=i):
                    return False
    return True


# ---------------------------------------------------------------------------
# Set-based graph scans: the package's code before its bitmask rewrite
# ---------------------------------------------------------------------------

def _set_reach_without(g: EvolvingGraph, i: AgentId, j: AgentId, m: int,
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


def _set_first_opportunity(g: EvolvingGraph, i: AgentId, j: AgentId, m: int,
                           until: int) -> Optional[int]:
    """First round of a punishment opportunity for the i-edge (j, m) within
    ``until``, or None."""
    for mp, reached in _set_reach_without(g, i, j, m, until):
        if not reached.isdisjoint(g.at(mp).neighbors(i)):
            return mp
    return None


def _full_horizon_i_edges(
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


def full_scan_check_timely_punishments(f: GraphFamily, rho: int) -> FamilyVerdict:
    """Every i-edge (j, m) must have a punishment opportunity strictly
    before round m + rho, in every member and for every agent."""
    if rho < 1:
        raise ValueError("rho must be >= 1")
    for gi, g, i, j, m in _full_horizon_i_edges(f):
        if _set_first_opportunity(g, i, j, m, m + rho - 1) is None:
            return FamilyVerdict(
                holds=False,
                counterexample={"member": g.name or gi, "agent": i,
                                "edge": [j, m]})
    return FamilyVerdict(holds=True, certificate=rho)


def full_scan_timely_certificate(f: GraphFamily) -> Optional[int]:
    """Smallest rho in [1, horizon] passing the timeliness check, or None.

    rho passes exactly when it is at least first - m + 1 for every i-edge
    (j, m) up to the horizon, where first is the round of the edge's first
    punishment opportunity: the result is the largest such delay (1 with
    no edges), from one scan, or None if an edge has none within the horizon.
    """
    rho = 1
    for _, g, i, j, m in _full_horizon_i_edges(f):
        first = _set_first_opportunity(g, i, j, m, m + f.horizon - 1)
        if first is None:
            return None
        rho = max(rho, first - m + 1)
    return rho


def set_stable_reach_with_joins(g: EvolvingGraph, src: AgentId, m: int,
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


def set_step_reached(g: EvolvingGraph, l: AgentId, start: int,
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


def full_scan_is_unsafe(g: EvolvingGraph, rho: int, horizon: int) -> Optional[dict]:
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
                            reached, stable = set_step_reached(
                                g, l, m1 + 1,
                                blocked_senders={i, j},
                                dropped_step=(l, i, m2))
                            end = max(stable, m2) + len(g.cycle)
                            if _set_unsafe_routes_cut(g, i, j, m1, m2, end, reached):
                                return {"i": i, "j": j, "l": l,
                                        "m": m, "m1": m1, "m2": m2}
    return None


def _set_unsafe_routes_cut(g: EvolvingGraph, i: AgentId, j: AgentId, m1: int,
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


def brute_force_is_unsafe(g: EvolvingGraph, rho: int,
                          horizon: int) -> Optional[dict]:
    """``is_unsafe``'s first witness, in its scan order, by brute force:
    configuration rounds up to the horizon, and every route followed round
    by round for n + 2 periods past m2 with no stabilisation rule.  By then
    the holders are final (at most n joins, none more than a cycle apart
    past the prefix) and every phase of the final set has been met."""
    if horizon < rho:
        raise ValueError("horizon must be at least rho")
    for m in range(1, horizon + 1):
        last = min(m + rho - 1, horizon)
        for i in range(g.n):
            for m1 in range(m + 1, last + 1):
                for m2 in range(m1 + 1, last + 1):
                    for j in sorted(g.at(m).neighbors(i)):
                        for l in sorted(g.at(m1).neighbors(j)):
                            if (l != i and g.at(m2).has_edge(i, l)
                                    and not any(g.at(t).degree(l) for t in
                                                range(m2 + 1, m + rho))
                                    and _unrolled_routes_cut(g, i, j, l,
                                                             m1, m2)):
                                return {"i": i, "j": j, "l": l,
                                        "m": m, "m1": m1, "m2": m2}
    return None


def _unrolled_routes_cut(g: EvolvingGraph, i: AgentId, j: AgentId,
                         l: AgentId, m1: int, m2: int) -> bool:
    """News born to l at round m1 + 1, forwarded by every agent but i and
    j, with the step l -> i over round m2 removed, reaches no partner of j
    after m1 nor of i after m2.  ``holders`` are the agents that received
    it over some step by the start of round t; l is one only once the
    news comes back to it."""
    holders: set[AgentId] = set()
    for t in range(m1 + 1, m2 + (g.n + 2) * g.period + 1):
        rg = g.at(t)
        if holders & rg.neighbors(j) or (t > m2 and holders & rg.neighbors(i)):
            return False
        holders |= {b for a in (holders | {l}) - {i, j}
                    for b in rg.neighbors(a) if (a, b, t) != (l, i, m2)}
    return True


# ---------------------------------------------------------------------------
# Branch tree: per-draw brute-force enumeration
# ---------------------------------------------------------------------------

@dataclass
class BranchLeaf:
    prob: Fraction
    trace: Trace


@dataclass
class BranchNode:
    agent: AgentId
    round: int
    label: str
    children: list[tuple[Fraction, object]]  # (edge probability, node or leaf)


@dataclass
class BranchTree:
    root: object  # BranchNode or BranchLeaf
    leaves: list[BranchLeaf]

    def total_probability(self) -> Fraction:
        return sum((l.prob for l in self.leaves), Fraction(0))


def build_branch_tree(cfg: SimConfig, max_leaves: int = 10 ** 4) -> BranchTree:
    """Materialise the full randomisation tree of the profile to the horizon."""
    machines = build_machines(cfg)
    leaves: list[BranchLeaf] = []

    class _Probe:
        """Draw source that records the first unresolved draw point."""

        def __init__(self, script):
            self.inner = _ScriptDraws(script)
            self.pending: Optional[tuple[AgentId, int, str, Fraction]] = None

        def draw(self, agent, rnd, label, p):
            try:
                return self.inner.draw(agent, rnd, label, p)
            except _NeedBranch:
                self.pending = (agent, rnd, label, p)
                raise

    def rec(machines, m, prob, history, utils, scripts_prefix):
        if len(leaves) > max_leaves:
            raise EnumerationCapExceeded(max_leaves, m - 1, len(leaves))
        if m > cfg.horizon:
            trace = Trace(history=history, per_round_utilities=utils,
                          rng_seed=cfg.seed)
            leaf = BranchLeaf(prob=prob, trace=trace)
            leaves.append(leaf)
            return leaf
        rg_views = {i: local_view(cfg.graph, i, m, cfg.family.observation)
                    for i in machines}
        for i in sorted(machines):
            machines[i].begin_round(rg_views[i])
        probe = _Probe(scripts_prefix)
        try:
            for i in sorted(machines):
                machines[i].act(probe)
        except _NeedBranch:
            agent, rnd, label, p = probe.pending
            node = BranchNode(agent=agent, round=rnd, label=label, children=[])
            for outcome, ep in ((True, p), (False, 1 - p)):
                ms = copy.deepcopy(machines)
                child = rec(ms, m, prob * ep, copy.deepcopy(history),
                            dict(utils), scripts_prefix + [outcome])
                node.children.append((ep, child))
            return node
        profile = _play_round(cfg, machines, m, _ScriptDraws(scripts_prefix))
        history.append(profile)
        for i, u in _round_utilities(cfg, profile).items():
            utils[(i, m)] = u
        return rec(machines, m + 1, prob, history, utils, [])

    root = rec(machines, 1, Fraction(1), History(), {}, [])
    return BranchTree(root=root, leaves=leaves)


# ---------------------------------------------------------------------------
# Leaf enumeration: every run to its leaf, valued leaf by leaf
# ---------------------------------------------------------------------------

# The verifier's expectations as they were before they ran on one branch
# walker: a generator of leaves, each with its utilities and profiles, and
# an expectation over them.  Kept unchanged as the reference the walker
# must match value for value and refusal for refusal.
@dataclass
class _Leaf:
    prob: Fraction
    utils: dict[tuple[AgentId, int], Fraction]
    absorbed_at: Optional[int]
    profiles: Optional[dict[int, ActionProfile]] = None


class _Enumerator:
    """Depth-first exact enumeration of all runs of a machine profile from
    round ``start`` to ``end`` (default: the horizon)."""

    def __init__(self, cfg: SimConfig,
                 machines: dict[AgentId, StrategyMachine],
                 start: int = 1, end: Optional[int] = None,
                 absorb: bool = True,
                 override: Optional[Override] = None,
                 collect_profiles: bool = False):
        self.cfg = cfg
        self.machines = machines
        self.start = start
        self.horizon = cfg.horizon if end is None else end
        self.cap = cfg.enum_cap
        self.absorb = absorb
        self.override = override
        # no absorption while the override is still ahead
        self.blocked_until = override[1] if override else 0
        self.collect_profiles = collect_profiles
        self.count = 0

    def leaves(self) -> Iterable[_Leaf]:
        yield from self._rec(self.machines, self.start, Fraction(1), {},
                             {} if self.collect_profiles else None)

    def _emit(self, m, prob, utils, absorbed, profiles) -> _Leaf:
        """The leaf of a branch that stops before playing round m."""
        self.count += 1
        if self.count > self.cap:
            raise EnumerationCapExceeded(self.cap, m - 1, self.count - 1)
        return _Leaf(prob=prob, utils=utils, absorbed_at=absorbed,
                     profiles=profiles)

    def _rec(self, machines, m, prob, utils, profiles):
        while True:
            if m > self.horizon:
                yield self._emit(m, prob, utils, None, profiles)
                return
            if self.absorb and m > self.blocked_until and all(
                    machines[i].is_quiescent() for i in machines):
                yield self._emit(m, prob, utils, m, profiles)
                return
            views = _begin_round(self.cfg, machines, m)
            scripts = _round_scripts(machines, m)
            for si, (raw, p) in enumerate(scripts):
                last = si == len(scripts) - 1
                acts = _overridden(raw, m, self.override)
                profile = _round_profile(self.cfg, m, acts)
                round_utils = _round_utilities(self.cfg, profile)
                ms = machines if last else _fork(machines)
                _deliver(views, ms, acts)
                nu = dict(utils) if not last else utils
                for i, u in round_utils.items():
                    nu[(i, m)] = u
                np = None
                if profiles is not None:
                    np = dict(profiles) if not last else profiles
                    np[m] = profile
                if last:
                    utils, profiles = nu, np
                    prob *= p
                    m += 1
                    break
                yield from self._rec(ms, m + 1, prob * p, nu, np)


def _expectation(enum: _Enumerator, f: Callable[[_Leaf], Fraction]) -> Fraction:
    """Sum of p * f(leaf) over the enumeration's leaves."""
    total = Fraction(0)
    for leaf in enum.leaves():
        total += leaf.prob * f(leaf)
    return total


def _leaf_eu(leaf: _Leaf, cfg: SimConfig, i: AgentId, from_round: int,
             tails: dict[int, Fraction]) -> Fraction:
    """i's discounted utility on one leaf; ``tails`` memoises i's closed-form
    cooperative tail by the round it starts in, apart from the verifier's
    memo."""
    d = cfg.params.delta
    total = Fraction(0)
    for (a, m), u in leaf.utils.items():
        if a == i and m >= from_round:
            total += d ** (m - from_round) * u
    if leaf.absorbed_at is not None and leaf.absorbed_at <= cfg.horizon:
        start = max(leaf.absorbed_at, from_round)
        if start not in tails:
            tails[start] = cooperation_tail(cfg.graph, i, cfg.params, start,
                                            cfg.horizon)
        total += d ** (start - from_round) * tails[start]
    return total


def _expected_eu(cfg: SimConfig, machines: dict[AgentId, StrategyMachine],
                 i: AgentId, start: int, from_round: int,
                 override: Optional[Override] = None) -> Fraction:
    """Expected utility of i discounted from ``from_round``, over the runs of
    ``machines`` enumerated from round ``start``."""
    enum = _Enumerator(cfg, machines, start, override=override)
    tails: dict[int, Fraction] = {}
    return _expectation(enum,
                        lambda leaf: _leaf_eu(leaf, cfg, i, from_round, tails))


def continuation_eu(checker, machines, m2: int, world, pattern) -> Fraction:
    """``_OneShotChecker._continuation_eu`` without the world table: i's
    expected utility over every enumerated leaf of the continuation (the
    context's world key ``world`` is not read)."""
    override = None if pattern is None else (checker.i, m2, pattern)
    return _expected_eu(checker.cfg, _fork(machines), checker.i, m2, m2,
                        override=override)


def enumerated_expected_utility(cfg: SimConfig, i: AgentId) -> Fraction:
    """``expected_utility`` over the enumerated leaves."""
    return _expected_eu(cfg, build_machines(cfg), i, 1, 1)


def enumerated_punishments(cfg: SimConfig, i: AgentId, from_round: int,
                           rho: int) -> Fraction:
    """``expected_punishments`` over the enumerated leaves, with no
    absorption."""
    graph = cfg.graph
    end = min(from_round + rho - 1, cfg.horizon)

    def hits(leaf: _Leaf) -> int:
        count = 0
        for m in range(from_round + 1, end + 1):
            for j in graph.at(m).neighbors(i):
                a = leaf.profiles[m].acts[j][i]
                if a.kind is ActionKind.PUNISH or (
                        a.kind is ActionKind.PROP_PUNISH and a.c > 0):
                    count += 1
        return count

    enum = _Enumerator(cfg, build_machines(cfg), end=end, absorb=False,
                       collect_profiles=True)
    return _expectation(enum, hits)


def enumerated_cooperation(cfg: SimConfig):
    """``verify_cooperation`` by a scan of the enumerated leaves in order."""
    enum = _Enumerator(cfg, build_machines(cfg, honest_only=True),
                       collect_profiles=True)
    for leaf in enum.leaves():
        for m, profile in sorted(leaf.profiles.items()):
            for a in sorted(profile.acts):
                for j, ia in sorted(profile.acts[a].items()):
                    if ia.kind is not ActionKind.COOPERATE:
                        return False, {"agent": a, "round": m, "toward": j,
                                       "action": ia.kind.value}
    return True, None


# ---------------------------------------------------------------------------
# Paired defections simulated from scratch
# ---------------------------------------------------------------------------

def paired_defection_from_scratch(cfg: SimConfig, i: AgentId, m: int,
                                  targets) -> tuple[Trace, Trace]:
    """Conforming and deviating traces differing only in i's round-m action
    (defecting ``targets``, or all neighbours), sharing seed and state logs.
    Every snapshot of i in the deviating trace is labelled ``defect@m``, as
    the wrapper labels those of the rounds it is in place for."""
    from dynacct.protocols import ALL_NEIGHBORS, ScheduledDefector

    conform = _simulate_machines(cfg, build_machines(cfg, honest_only=True))
    sched = ALL_NEIGHBORS if targets == ALL_NEIGHBORS else frozenset(targets)
    label = f"defect@{m}"
    machines = build_machines(cfg, honest_only=True)
    machines[i] = ScheduledDefector(machines[i], {m: sched}, sincere=True,
                                    label=label)
    deviate = _simulate_machines(cfg, machines)
    log = deviate.state_log
    for M in range(1, deviate.last_round + 1):
        log[(i, M)] = dict(log[(i, M)], deviation=label)
    return conform, deviate


# ---------------------------------------------------------------------------
# Windowed context walks: the one-shot contexts as collected before closure
# ---------------------------------------------------------------------------

def _windowed_walk(cfg: SimConfig, machines, start: int, end: int,
                   origin: str, seen: set, out: list, override=None):
    """Step the profile with fixed draw outcomes from ``start`` to ``end``,
    with no early stop, collecting each world whose key is not in ``seen``."""
    ms = _fork(machines)
    draws = _FixedDraws()
    first = override[1] if override else 0
    for m in range(start, end + 1):
        if m > first:
            key = _world_key(cfg.graph, ms, m)
            if key not in seen:
                seen.add(key)
                out.append((m, _fork(ms), origin))
        views = _begin_round(cfg, ms, m)
        acts = _overridden(_act(ms, draws), m, override)
        _round_profile(cfg, m, acts)    # checks the profile
        _deliver(views, ms, acts)


def windowed_contexts(cfg: SimConfig, i: AgentId):
    """The (round, origin, world key) contexts ``verify_one_shot`` checks for
    agent i at robustness depth 2, collected by window-bounded walks: an
    on-path walk to ``on_window``, a separate on-path walk to
    ``prior_window`` for the prior deviation points, and after-deviation
    walks of ``dev_window`` rounds."""
    honest = build_machines(cfg, honest_only=True)
    graph = cfg.graph
    n = cfg.family.n
    P, L = len(graph.prefix), len(graph.cycle)
    span = n * n + n
    on_window = min(cfg.horizon - 1, P + 2 * L + span + 2)
    prior_window = min(cfg.horizon - 1, P + L + 2 * n)
    dev_window = span + L + 2
    seen: set = set()
    contexts: list = []
    _windowed_walk(cfg, honest, 1, on_window, "on-path", seen, contexts)
    prior_points: list = []
    _windowed_walk(cfg, honest, 1, prior_window, "prior", set(), prior_points)
    for (m1, state, _) in prior_points:
        nbrs1 = sorted(graph.at(m1).neighbors(i))
        if not nbrs1:
            continue
        for pattern in _override_patterns(cfg.params.mode, nbrs1):
            if all(o == "send" for o in pattern.values()):
                continue
            desc = ",".join(f"{j}:{o}" for j, o in sorted(pattern.items())
                            if o != "send")
            end = min(m1 + dev_window, cfg.horizon - 1)
            _windowed_walk(cfg, state, m1, end, f"after own {desc}@{m1}",
                           seen, contexts, override=(i, m1, pattern))
    return [(m, origin, _world_key(graph, state, m))
            for (m, state, origin) in contexts]


# ---------------------------------------------------------------------------
# Flat-dict reference for the bounded tally protocol
# ---------------------------------------------------------------------------

# The bounded tally machine as it was before its reports were stored per
# round: one flat ``acc`` dict keyed (v, s, r), rescanned whole on every
# rebuild and prune, with a flat sorted payload.  Kept unchanged as the
# reference that ``SigmaGen`` must match action for action and state for
# state; its payload is the flat form of SigmaGen's three ints
# (``gen_payload_items``).
class FlatSigmaGen(StrategyMachine):
    """General-exchange protocol with bounded per-subject punishment tallies.

    State:
      pend[(j, c)]   pending punishments for subject j in rounds == c mod n,
                     values in [0, n-1]
      acc[(v, s, r)] report by victim v about sender s for round r, "good"
                     or "bad"; absent means no interaction known; kept for
                     the last n rounds

    Round m: punish neighbour j with probability min(1, pend[j][m]/deg_j).
    The payload is built once per round, on the first ``payload_for``, and
    every neighbour gets the same immutable content (tuples, never lists).
    End of round m: record own reports for m; merge pend (max, capped) and
    fill absent acc slots from non-defecting senders, rejecting anything a
    sender claims about itself and skipping the residue class of m; then,
    for m >= n, rebuild pend[j][m+1] from the fully disseminated round
    m-n+1 reports: drain by the reported degree, re-add it if anyone
    reported a defection.
    """

    mode = Mode.GENERAL

    def __init__(self, me: AgentId, n: int, _cap: bool = True,
                 _pend_payload_inflate: int = 0):
        super().__init__(me, n)
        self.pend: dict[tuple[AgentId, int], int] = {}
        self.acc: dict[tuple[AgentId, AgentId, int], str] = {}
        self._cap = _cap
        self._pend_payload_inflate = _pend_payload_inflate
        self._payload: Optional[tuple] = None   # this round's, once built

    def clone(self) -> "SigmaGen":
        c = copy.copy(self)
        c.pend = dict(self.pend)
        c.acc = dict(self.acc)
        return c

    def begin_round(self, view: LocalView):
        if view.neighbor_degrees is None:
            raise StrategyConfigError("sigma_gen needs neighbour degrees")
        super().begin_round(view)

    def payload_for(self, j: AgentId) -> Optional[dict]:
        if self._payload is None:
            infl = self._pend_payload_inflate
            self._payload = (
                tuple(sorted((k, v + infl) for k, v in self.pend.items())),
                tuple(sorted(self.acc.items())))
        pend, acc = self._payload
        return {"pend": pend, "acc": acc}

    def act(self, rand: RandSource) -> dict[AgentId, IndividualAction]:
        m = self.round
        out = {}
        for j in sorted(self.view.neighbors):
            pending = self.pend.get((j, m % self.n), 0)
            deg_j = self.view.neighbor_degrees[j]
            if pending == 0:
                out[j] = COOPERATE
            elif pending >= deg_j:
                out[j] = PUNISH
            else:
                out[j] = (PUNISH if rand.draw(self.me, m, f"punish[{j}]",
                                              Fraction(pending, deg_j))
                          else COOPERATE)
        return out

    def end_round(self, own_action, inbox):
        m, n = self.round, self.n
        self._payload = None
        for j in sorted(inbox):
            act_ji, _ = inbox[j]
            self.acc[(self.me, j, m)] = (
                "bad" if act_ji.kind is ActionKind.DEFECT else "good")
        self._merge(m, inbox)
        if m >= n:
            self._rebuild_pend(m)
        floor = m - n + 2
        self.acc = {k: v for k, v in self.acc.items() if k[2] >= floor}

    def _merge(self, m: int, inbox):
        n, me = self.n, self.me
        senders = [(j, p) for j, (a, p) in sorted(inbox.items())
                   if a.kind is not ActionKind.DEFECT and p is not None]
        for j, p in senders:
            for ((s, c), v) in p["pend"]:
                if s == me or s == j or c == m % n:
                    continue
                merged = max(self.pend.get((s, c), 0), v)
                if self._cap:
                    merged = min(n - 1, merged)
                if merged > 0:
                    self.pend[(s, c)] = merged
        # fill absent slots only; senders go in id order, so the lowest-id
        # sender of a slot wins
        for j, p in senders:
            reports = dict(p["acc"])
            for key in reports.keys() - self.acc.keys():
                v, s, r = key
                if s != j and v != me and s != v and m - n + 1 <= r <= m - 1:
                    self.acc[key] = reports[key]

    def _rebuild_pend(self, m: int):
        n = self.n
        r = m - n + 1
        degs: dict[AgentId, int] = {}   # reports about each sender for round r
        bad: set[AgentId] = set()
        for (v, s, rr), val in self.acc.items():
            if rr == r and v != s:
                degs[s] = degs.get(s, 0) + 1
                if val == "bad":
                    bad.add(s)
        for j in range(n):
            if j == self.me:
                continue
            deg = degs.get(j, 0)
            key = (j, (m + 1) % n)
            new = max(0, self.pend.get(key, 0) - deg) + (deg if j in bad else 0)
            if self._cap:
                assert new <= n - 1, "tally invariant broken"
            if new > 0:
                self.pend[key] = new
            else:
                self.pend.pop(key, None)

    def snapshot(self) -> dict:
        return {"pend": sorted(self.pend.items()), "acc": sorted(self.acc.items())}

    def state_key(self, m: int):
        return ("SigmaGen",
                frozenset(((s, (c - m) % self.n), v) for (s, c), v in self.pend.items()),
                frozenset(((v, s, m - r), val) for (v, s, r), val in self.acc.items()))

    def is_quiescent(self) -> bool:
        return not self.pend and all(v == "good" for v in self.acc.values())

    @staticmethod
    def static_state_bound(n: int) -> int:
        # pend: (n-1) subjects x n residues; acc: n(n-1) ordered pairs x n rounds
        return (n - 1) * n + n * (n - 1) * n


def gen_payload(tallies: Iterable, reports: Iterable, m: int, n: int
                ) -> tuple[int, int, int]:
    """The ``SigmaGen`` ints ``(pend, known, bad)`` of a state relative to
    round m holding ``tallies``, ``((s, c), count)`` pairs, each count as
    count low one-bits of the (n-1)-bit field at offset
    (s*n + (c-m) mod n)*(n-1), and ``reports``, ``((v, s, r), "good" |
    "bad")`` pairs, each at bit v*n + s of slot (r-m) mod n."""
    w, nn = n - 1, n * n
    pend = known = bad = 0
    for (s, c), count in tallies:
        pend |= ((1 << count) - 1) << (s * n + (c - m) % n) * w
    for (v, s, r), val in reports:
        bit = 1 << (r - m) % n * nn + v * n + s
        known |= bit
        if val == "bad":
            bad |= bit
    return pend, known, bad


def gen_payload_items(payload: tuple[int, int, int], m: int, n: int):
    """``gen_payload``'s inverse for a payload sent at round m: its nonzero
    tallies and its reports, each sorted, with field d read as residue
    (m+d) mod n and slot d as the round r in m-n+1..m with
    r == m+d mod n.  Bad bits without a known bit are dropped."""
    pend, known, bad = payload
    w, nn = n - 1, n * n
    tallies = sorted(((s, (m + d) % n),
                      (pend >> (s * n + d) * w & (1 << w) - 1).bit_count())
                     for s in range(n) for d in range(n))
    reports = sorted(((v, s, r), "bad" if bad >> (r - m) % n * nn + v * n + s
                      & 1 else "good")
                     for r in range(m - n + 1, m + 1)
                     for v in range(n) for s in range(n)
                     if known >> (r - m) % n * nn + v * n + s & 1)
    return [t for t in tallies if t[1]], reports


def flat_sigma_gen_key(key, n: int) -> int:
    """``FlatSigmaGen.state_key``'s frozensets in ``SigmaGen.state_key``'s
    one-int encoding: the state relative to the key's round, as
    ``gen_payload`` writes it for round 0 from the tallies of relative
    residue d and the reports of age k, then the known and the bad bits."""
    _, pend, reports = key
    w, nn = n - 1, n * n
    pend, known, bad = gen_payload(
        pend, [((v, s, -k), val) for (v, s, k), val in reports], 0, n)
    return pend | known << nn * w | bad << nn * w + n * nn


# ---------------------------------------------------------------------------
# Set-based reference for the accusation-window protocols
# ---------------------------------------------------------------------------

# The accusation-window machines as they were before their state was
# packed into one int: a set of (subject, round) pairs, rebuilt, sorted and
# copied into a ``{"acc": [...]}`` payload every round.  Kept unchanged
# apart from their names as the reference the packed classes must match
# action for action, snapshot for snapshot and key class for key class.
class SetAccusationWindow(StrategyMachine):
    """Shared monitoring core: one report bit per (agent, round) within the
    last ``rho`` rounds; accusations spread by union, never from the accused.
    """

    def __init__(self, me: AgentId, n: int, rho: int):
        super().__init__(me, n)
        if rho < 1:
            raise StrategyConfigError("rho must be >= 1")
        self.rho = rho
        self.accusations: set[tuple[AgentId, int]] = set()
        self._sorted = ()    # the accusations, sorted once a round

    def payload_for(self, j: AgentId) -> Optional[dict]:
        return {"acc": list(self._sorted)}

    def end_round(self, own_action, inbox):
        m = self.round
        lo = m + 1 - self.rho
        # a new set: the old one may be a clone's too
        got = {(s, r) for (s, r) in self.accusations if r >= lo}
        for j, (act_ji, payload) in inbox.items():
            if act_ji.kind is ActionKind.DEFECT:
                got.add((j, m))
            elif payload is not None:
                for (s, r) in payload.get("acc", ()):
                    # never accept what a sender says about itself, and never
                    # track reports about this agent's own behaviour
                    if s != j and s != self.me and lo <= r < m:
                        got.add((s, r))
        self.accusations, self._sorted = got, tuple(sorted(got))

    def snapshot(self) -> dict:
        return {"accusations": list(self._sorted)}

    def state_key(self, m: int):
        return (type(self).__name__, self.rho,
                frozenset((s, m - r) for (s, r) in self.accusations))

    @staticmethod
    def relabel_key(key, pi):
        name, rho, accusations = key
        return name, rho, frozenset((pi[s], age) for s, age in accusations)

    def is_quiescent(self) -> bool:
        return not self.accusations


class SetSigmaVal(SetAccusationWindow):
    mode = Mode.VALUABLE

    def act(self, rand: RandSource) -> dict[AgentId, IndividualAction]:
        cap = min(self.rho, self.n - 1)
        # accusation rounds by subject: end_round cut the window to rho rounds
        accused = Counter(s for s, _ in self.accusations)
        return {j: prop_punish(min(accused[j], cap))
                for j in self.view.order}


class SetAccusationPunisher(SetAccusationWindow):
    mode = Mode.GENERAL

    def act(self, rand: RandSource) -> dict[AgentId, IndividualAction]:
        accused = {s for s, _ in self.accusations}
        return {j: (PUNISH if j in accused else COOPERATE)
                for j in self.view.order}


class SetUnsafePunisher(SetAccusationWindow):
    mode = Mode.GENERAL
    uses_own_action = True
    relabel_key = None

    def __init__(self, me: AgentId, n: int, rho: int):
        super().__init__(me, n, rho)
        self.my_defections: set[int] = set()

    def act(self, rand: RandSource) -> dict[AgentId, IndividualAction]:
        out = {j: COOPERATE for j in self.view.order}
        if self.round == 3:
            if self.me == 2 and 0 in out:
                if (0, 1) in self.accusations and (1, 2) not in self.accusations:
                    out[0] = DEFECT
            if self.me == 0 and 2 in out and 1 in self.my_defections:
                out[2] = DEFECT
        return out

    def end_round(self, own_action, inbox):
        if any(a.kind is ActionKind.DEFECT for a in own_action.values()):
            self.my_defections = self.my_defections | {self.round}
        super().end_round(own_action, inbox)

    def is_quiescent(self) -> bool:
        # a recorded own defection keeps the round-3 script armed
        return super().is_quiescent() and (self.round >= 3 or not self.my_defections)

    def state_key(self, m: int):
        # the script fires at absolute round 3: rounds up to it are distinct
        return (super().state_key(m), frozenset(m - r for r in self.my_defections),
                min(m, 4))

    def snapshot(self) -> dict:
        return dict(super().snapshot(),
                    my_defections=sorted(self.my_defections))


def window_payload(items: Iterable, m: int, n: int, rho: int) -> int:
    """The packed window's payload int sent at round m by a window of rho
    rounds, holding each ``(s, r)`` of ``items`` with m-rho <= r < m as
    bit s of slot m-1-r, i.e. bit (m-1-r)*n + s; pairs outside those
    rounds are dropped."""
    out = 0
    for s, r in items:
        if m - rho <= r < m:
            out |= 1 << (m - 1 - r) * n + s
    return out


def window_payload_items(payload: int, m: int, n: int, rho: int) -> list:
    """``window_payload``'s inverse: the sorted ``(s, r)`` pairs of a
    payload sent at round m, slot k read as round m-1-k, for k < rho."""
    return sorted((s, m - 1 - k) for k in range(rho) for s in range(n)
                  if payload >> k * n + s & 1)


def window_key(key, n: int) -> tuple:
    """``SetAccusationWindow.state_key`` in the packed encoding: each
    accusation of age k (round m - k of a key for round m) at bit s of
    slot k-1."""
    name, rho, accusations = key
    return (name.replace("Set", "", 1), rho,
            sum(1 << (k - 1) * n + s for s, k in accusations))


# ---------------------------------------------------------------------------
# Reference for the paired facts
# ---------------------------------------------------------------------------

# ``facts.gen_facts`` as it was before it skipped the snapshot pairs and
# rounds that cannot fail: every pair of non-shared snapshots parsed and
# compared key by key, every round's punish masses computed as Fractions,
# and both state logs walked in sorted order for bounded state.  Kept
# unchanged apart from its name; its report must equal the package's on
# every input.
def _snap_pend(snap: dict) -> dict[tuple[int, int], int]:
    return {tuple(k): v for k, v in snap.get("pend", [])}


def _snap_acc(snap: dict, subject: AgentId) -> dict[tuple[int, int, int], str]:
    """The snapshot's reports (v, s, r) -> verdict about ``subject``."""
    return {tuple(k): v for k, v in snap.get("acc", []) if k[1] == subject}


def _cached(parse):
    """``parse`` of a snapshot, once per snapshot object, also when both
    traces hold it; they keep it alive, so its ``id`` stays its own."""
    parsed: dict[int, object] = {}
    return lambda snap: (parsed[id(snap)] if id(snap) in parsed
                         else parsed.setdefault(id(snap), parse(snap)))


def reference_gen_facts(cfg, paired: tuple[Trace, Trace], m: int) -> FactReport:
    """Check the six single-deviation invariants of the bounded tally
    protocol on a (conforming, deviating) trace pair of the
    ``verifier.SimConfig`` ``cfg``.

    Exact: tallies are compared as integers, expected punishment masses as
    rationals.  F2 and F6 presuppose a connectivity-restricted family (the
    dissemination arguments need it); on other families they fail honestly.

    A snapshot that both traces hold as the same object (the deviating
    trace shares the honest run's snapshots of rounds before m and, once
    it has rejoined the honest run, of the rounds after, except the
    deviator's relabelled ones) is equal in both: F3/F4 skip the pair, and
    the bounded-state check reads it only in the conforming trace.
    """
    conform, deviate = paired
    n = cfg.family.n
    graph = cfg.graph
    params = cfg.params
    check_deviation_round(cfg, m)
    if conform.state_log is None or deviate.state_log is None:
        raise ValueError("paired traces need state logs, as "
                         "verifier.run_paired_defection returns them")
    C, D = conform.state_log, deviate.state_log
    pend = _cached(_snap_pend)
    last = min(conform.last_round, deviate.last_round)
    found = _find_deviation(conform, deviate, m, last)
    facts: dict[str, Optional[str]] = {k: None for k in FACT_NAMES}
    if found is None:
        return FactReport(facts=facts)   # conforming pair: vacuously fine
    i, defected = found
    # F1 and F3 read only reports about i: keep just those
    acc = _cached(lambda snap: _snap_acc(snap, i))

    deg_m = graph.at(m).degree(i)
    residue = m % n

    # F1: accusation accuracy against the interference-free reachability
    # oracle: holders[v][M - m] is the mask of the agents that v's report
    # (v, i, m) can have reached by the end of round M
    end = min(m + n - 2, last)
    holders = {}
    for v in graph.at(m).neighbors(i):
        reach = _reach(graph, v, m + 1, keep=~(1 << i))
        holders[v] = [1 << v] + [1 << v | next(reach)[1] for _ in range(m, end)]
    for M in range(m, end + 1):
        for v in range(n):
            if v == i:
                continue
            reached = holders[v][M - m] if v in holders else 0
            for l in range(n):
                if l == i:
                    continue
                val = acc(D[(l, M)]).get((v, i, m))
                if not reached >> l & 1:
                    if val is not None:
                        facts["F1_accusation_accuracy"] = (
                            f"agent {l} holds ({v},{i},{m}) at end of {M} "
                            f"without an information path")
                        break
                else:
                    want = "bad" if v in defected else "good"
                    if val != want:
                        facts["F1_accusation_accuracy"] = (
                            f"agent {l} at end of {M}: report ({v},{i},{m}) "
                            f"= {val}, expected {want}")
                        break
            if facts["F1_accusation_accuracy"]:
                break
        if facts["F1_accusation_accuracy"]:
            break

    # F2: pend about i converges to y + max(x - deg, 0) at round m+n
    if m + n - 1 <= last:
        x = max(pend(D[(o, m)]).get((i, residue), 0)
                for o in range(n) if o != i)
        y = deg_m if defected else 0
        want = y + max(x - deg_m, 0)
        for l in range(n):
            if l == i:
                continue
            got = pend(D[(l, m + n - 1)]).get((i, (m + n) % n), 0)
            if got != want:
                facts["F2_pend_convergence"] = (
                    f"agent {l}: pend[i][{m + n}] = {got}, expected {want}")
                break
    else:
        facts["F2_pend_convergence"] = "horizon too short to reach round m+n-1"

    # F3/F4: deviator-subject entries for rounds other than m are untouched,
    # and the deviating run's tallies dominate.  Entries about the deviator
    # never travel through the deviator (senders cannot testify about
    # themselves), so these are exact; third-party gossip may lag one round
    # behind while the deviator's payload is suppressed and is not compared.
    # A snapshot shared by both traces is equal to itself: skip it.
    for M in range(m, last + 1):
        for l in range(n):
            if l == i or C[(l, M)] is D[(l, M)]:
                continue
            pc, pd = pend(C[(l, M)]), pend(D[(l, M)])
            for key in sorted((set(pc) | set(pd))):
                s, c = key
                if s != i:
                    continue
                rep = _represented_round(c, M, n)
                same_needed = not (rep >= m and (rep - m) % n == 0)
                if same_needed and pc.get(key, 0) != pd.get(key, 0):
                    facts["F3_other_rounds_untouched"] = (
                        f"agent {l} end of {M}: pend[{s}][{rep}] differs "
                        f"({pc.get(key, 0)} vs {pd.get(key, 0)})")
                if pd.get(key, 0) < pc.get(key, 0):
                    facts["F4_pend_dominance"] = (
                        f"agent {l} end of {M}: pend[{s}] {pd.get(key, 0)} < "
                        f"{pc.get(key, 0)}")
            ac, ad = acc(C[(l, M)]), acc(D[(l, M)])
            for key in sorted(set(ac) | set(ad)):
                if key[2] == m:     # the deviation round's own reports
                    continue
                if ac.get(key) != ad.get(key):
                    facts["F3_other_rounds_untouched"] = (
                        f"agent {l} end of {M}: report {key} differs "
                        f"({ac.get(key)} vs {ad.get(key)})")

    # F5/F6: expected punish mass toward i, computed from the tallies
    # (the sum of min(1, pend/deg_i) over i's neighbours, over one denominator)
    def expected_hits(log, M: int) -> Fraction:
        rg = graph.at(M)
        deg_i = rg.degree(i)
        if deg_i == 0:
            return Fraction(0)
        return Fraction(sum(min(pend(log[(j, M - 1)]).get((i, M % n), 0),
                                deg_i) for j in rg.neighbors(i)), deg_i)

    extra_in_window = Fraction(0)
    for M in range(m + 1, last + 1):
        hc = expected_hits(C, M)
        hd = expected_hits(D, M)
        if hd < hc:
            facts["F5_round_utility_dominance"] = (
                f"round {M}: deviating punish mass {hd} < conforming {hc}")
            break
        if M <= m + n * n:
            extra_in_window += hd - hc
        elif hd != hc:
            facts["F6_punishment_mass_window"] = (
                f"round {M} > m+n^2 still differs ({hd} vs {hc})")
            break
    if facts["F6_punishment_mass_window"] is None and defected:
        want = Fraction(deg_m)
        if last >= m + n * n and extra_in_window != want:
            facts["F6_punishment_mass_window"] = (
                f"extra expected punishments {extra_in_window} != deg {want}")
        elif params.pi * extra_in_window < params.beta * extra_in_window:
            facts["F6_punishment_mass_window"] = "pi < beta on punish mass"

    # boundedness: tallies inside [0, n-1], state within the static bound;
    # the deviating trace's snapshots shared with the conforming trace are
    # checked there
    bound = SigmaGen.static_state_bound(n)
    for log in (C, D):
        for (l, M), snap in sorted(log.items()):
            if log is D and C.get((l, M)) is snap:
                continue
            tallies = pend(snap)
            if any(v > n - 1 or v < 0 for v in tallies.values()):
                facts["bounded_state"] = (
                    f"agent {l} end of {M}: tally outside [0, n-1]")
                break
            if len(tallies) + len(snap.get("acc", ())) > bound:
                facts["bounded_state"] = f"agent {l} state exceeds {bound} entries"
                break
        if facts["bounded_state"]:
            break

    return FactReport(facts=facts)
