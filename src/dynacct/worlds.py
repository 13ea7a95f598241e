"""The one-shot verifier's world graph: one node per world, shared by
every walk of the configs on one family object that differ in member
alone (``verifier`` documents the graph and why sharing it is exact).

The nodes play their rounds with the verifier's round engine, looked up on
the ``verifier`` module when they play."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional

from . import verifier
from .protocols import _deliver


class _Node:
    """A world of a ``_Worlds`` graph: its key (``verifier._world_key``),
    whether its machines are all quiescent, its pre-round machines until it
    is played, and from then on one ``[p, profile, successor]`` edge per
    draw script in ``verifier._round_scripts`` order: the script's
    probability, its checked profile and the next round's node, held as
    that node's machines until a walk first follows the edge.  A profile
    holds the round its node was first played in: rewards read the round
    from their ``m``.

    A node ``owns`` machines that a play made and no one else holds, and
    plays them in place; it forks any others.  A node a context walk has
    visited ``keeps`` its machines, for the contexts that hold them; any
    other drops them once played."""

    __slots__ = ("key", "quiescent", "machines", "owns", "keeps", "edges")

    def __init__(self, key, machines, owns):
        self.key = key
        self.quiescent = all(mach.is_quiescent()
                             for mach in machines.values())
        self.machines = machines
        self.owns = owns
        self.keeps = False
        self.edges = None


class _Worlds:
    """The world graph of the configs that differ in member alone: its
    ``nodes`` by world key, by agent the one-shot checkers' ``values`` and
    ``continuations`` tables, and the configs' ``tolerances``.  Its state
    keys and override pattern keys are interned by value (``shared``), and
    so are its edges' ``profiles``, by each agent's neighbours and action
    codes: equal values are interchangeable (a reward reads the round from
    its ``m``)."""

    def __init__(self, tolerances: Mapping[int, Fraction]):
        self.nodes, self.shared, self.profiles = {}, {}, {}
        self.values, self.continuations = {}, {}
        self.tolerances = tolerances

    def node(self, cfg: verifier.SimConfig, machines: dict, m: int,
             key: Optional[tuple] = None, owns: bool = False) -> _Node:
        """The node of the pre-round ``machines`` at round m, whose world
        key is ``key`` if given.  A new node holds ``machines``, which no
        one may change after the call; it ``owns`` them if a play of a
        node made them, and no one else holds them."""
        if key is None:
            key = verifier._world_key(cfg.graph, machines, m)
        node = self.nodes.get(key)
        if node is None:
            key = key[0], tuple([self.shared.setdefault(k, k) for k in key[1]])
            node = self.nodes[key] = _Node(key, machines, owns)
        return node

    def follow(self, cfg: verifier.SimConfig, edge: list, m: int) -> _Node:
        """The node an edge leads to, at round m."""
        succ = edge[2]
        if type(succ) is dict:
            succ = edge[2] = self.node(cfg, succ, m, owns=True)
        return succ

    def edges(self, cfg: verifier.SimConfig, node: _Node,
              m: int) -> list[list]:
        """The node's edges, played at round m if no walk has played them
        yet."""
        if node.edges is None:
            ms = node.machines
            if node.keeps or not node.owns:
                ms = verifier._fork(ms)
            if not node.keeps:
                node.machines = None
            views = verifier._begin_round(cfg, ms, m)
            scripts = verifier._round_scripts(ms, m)
            checked = [verifier._round_profile(cfg, m, raw)
                       for raw, _ in scripts]
            edges = []      # set on the node only once the play is whole
            for (raw, p), profile in zip(scripts, checked):
                sub = ms if raw is scripts[-1][0] else verifier._fork(ms)
                _deliver(views, sub, raw)
                # each agent's neighbours, then every action's code
                code = (tuple(map(tuple, raw.values())),
                        tuple([a.code for per in raw.values()
                               for a in per.values()]))
                edges.append([p, self.profiles.setdefault(code, profile), sub])
            node.edges = edges
        return node.edges
