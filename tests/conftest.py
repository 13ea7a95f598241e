from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import dynacct
from dynacct.evolving_graph import (EvolvingGraph, GraphFamily,
                                    ObservationModel, RoundGraph)
from dynacct.protocols import ScheduledDefector


def random_round_graph(rng: random.Random, n: int, p: float = 0.45) -> RoundGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return RoundGraph.from_pairs(n, edges)


def random_evolving_graph(rng: random.Random, n: int, name: str,
                          max_prefix: int = 3, max_cycle: int = 4) -> EvolvingGraph:
    prefix = tuple(random_round_graph(rng, n)
                   for _ in range(rng.randint(0, max_prefix)))
    cycle = tuple(random_round_graph(rng, n)
                  for _ in range(rng.randint(1, max_cycle)))
    return EvolvingGraph(prefix=prefix, cycle=cycle, name=name)


def random_family(rng: random.Random, n: int = None, members: int = None,
                  horizon: int = 12) -> GraphFamily:
    n = n or rng.randint(2, 5)
    members = members or rng.randint(1, 4)
    obs = rng.choice([ObservationModel.NEIGHBORS_ONLY,
                      ObservationModel.NEIGHBORS_AND_DEGREES])
    gs = tuple(random_evolving_graph(rng, n, f"g{k}") for k in range(members))
    horizon = max(horizon, max(g.period for g in gs))
    return GraphFamily(n=n, members=gs, observation=obs, horizon=horizon)


def random_symmetric_graph(rng: random.Random, n: int, name: str,
                           max_prefix: int = 2, max_cycle: int = 3,
                           ) -> tuple[EvolvingGraph, list[int]]:
    """A random evolving graph with a non-trivial automorphism sigma
    (``sigma[a]`` is a's image), and sigma: a constant ring or complete
    graph with the rotation, or a prefix and cycle whose every round is the
    union of the sigma-orbits of random edges, for a random sigma."""
    rotation = [(a + 1) % n for a in range(n)]
    kind = rng.choice(["ring", "complete", "orbits", "orbits", "orbits"])
    if kind != "orbits":
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
                 if kind == "complete" or b == a + 1 or (a, b) == (0, n - 1)]
        return (EvolvingGraph((), (RoundGraph.from_pairs(n, pairs),), name),
                rotation)
    sigma = list(range(n))
    while sigma == list(range(n)):
        rng.shuffle(sigma)
    p = rng.uniform(0.2, 0.6)

    def orbits_round() -> RoundGraph:
        edges: set = set()
        for u in range(n):
            for v in range(u + 1, n):
                a, b = u, v
                if rng.random() < p:
                    while (min(a, b), max(a, b)) not in edges:
                        edges.add((min(a, b), max(a, b)))
                        a, b = sigma[a], sigma[b]
        return RoundGraph(n, frozenset(edges))

    prefix = tuple(orbits_round() for _ in range(rng.randint(0, max_prefix)))
    cycle = tuple(orbits_round() for _ in range(rng.randint(1, max_cycle)))
    return EvolvingGraph(prefix, cycle, name), sigma


def count_spent_hooks(monkeypatch) -> list[int]:
    """Count, in the returned one-element list, the hook and fork calls
    that reach a ``ScheduledDefector`` after its last scheduled round has
    played.  Its ``end_round`` of that round marks it spent, and its
    clones with it."""
    spent = [0]

    def counted(name):
        hook = getattr(ScheduledDefector, name)

        def wrapped(self, *args):
            spent[0] += vars(self).get("_spent", False)
            out = hook(self, *args)
            if name == "end_round" and self.round >= self.last_round:
                self._spent = True
            return out
        return wrapped

    for name in ("begin_round", "payload_for", "act", "end_round",
                 "state_key", "is_quiescent", "snapshot", "clone"):
        monkeypatch.setattr(ScheduledDefector, name, counted(name))
    return spent


@pytest.fixture
def rng():
    return random.Random(20260809)


def run_cli_child(args, cwd, env=(), **run) -> subprocess.CompletedProcess:
    """Run ``python -m dynacct.cli *args`` in a fresh interpreter, with
    ``subprocess.run`` options ``run``.

    The child starts in ``cwd`` with ``env`` added to this environment and
    imports the same ``dynacct`` as this process: the directory it was
    imported from is prepended to ``PYTHONPATH``, so a relative
    ``PYTHONPATH=src`` or an editable install both work from any working
    directory.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(dynacct.__file__)))
    env = dict(os.environ, **dict(env))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "dynacct.cli", *args],
                          env=env, cwd=cwd, **run)


def run_cli_subprocess(args, cwd, hashseed: str) -> None:
    """``run_cli_child`` with ``PYTHONHASHSEED=hashseed``.  A non-zero exit
    fails the test with the child's return code and stderr."""
    proc = run_cli_child(args, cwd, {"PYTHONHASHSEED": hashseed},
                         capture_output=True, text=True)
    assert proc.returncode == 0, (
        f"dynacct.cli {' '.join(args)} exited {proc.returncode}:\n"
        f"{proc.stderr}")
