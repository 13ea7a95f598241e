"""Per-layer spans recorded from outside the package.

The layers are the six modules of ``dynacct``.  ``install`` replaces every
public module-level function of each layer, the public methods of every
``StrategyMachine`` subclass and ``ActionProfile.check`` (one call per
round the engine plays) with wrappers, in every ``dynacct`` namespace
that bound them, and returns a handle whose ``restore`` puts the
originals back.  ``trace_imports`` adds one span per module import: the
import is part of ``setup_s``, which ``scenarios.busy_s`` is meant to
explain, and it is the only time that ``cli`` and ``scenarios`` spend on
workloads that never call them, so their busy and self times are
measured, never a constant zero.

A wrapper opens a span only on entry from outside its layer: when the
innermost open span already belongs to the same layer (a machine
delegating to its base machine, a helper calling a sibling), the call
passes straight through and is not counted.  Spans are kept in flat
arrays (name, start, end, parent) and written out after the pass.
"""

from __future__ import annotations

import array
import functools
import importlib
import importlib.machinery
import inspect
import json
import os
import sys
from time import perf_counter
from typing import Callable

LAYERS = ("cli", "scenarios", "verifier", "protocols", "game_core",
          "evolving_graph")


class Recorder:
    """Span store plus the stack of spans open right now."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []   # name id -> (layer, function)
        self._name_ids: dict[tuple[str, str], int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack: list[tuple[int, str]] = []   # (span index, layer)

    def name_id(self, layer: str, func: str) -> int:
        key = (layer, func)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
        return nid

    def call(self, layer: str, nid: int, fn, args, kwargs):
        stack = self.stack
        if stack and stack[-1][1] == layer:
            return fn(*args, **kwargs)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.end.append(0.0)
        stack.append((idx, layer))
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            stack.pop()

    def wrap(self, layer: str, func: str, fn):
        nid = self.name_id(layer, func)
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(layer, nid, fn, args, kwargs)

        wrapper.__bench_span__ = (layer, func)
        return wrapper

    def write(self, directory: str):
        """Write the spans out: four flat arrays plus the name table."""
        os.makedirs(directory, exist_ok=True)
        for field in ("name", "parent", "start", "end"):
            with open(os.path.join(directory, field + ".bin"), "wb") as fh:
                getattr(self, field).tofile(fh)
        with open(os.path.join(directory, "names.json"), "w") as fh:
            json.dump({"names": self.names, "spans": len(self.name),
                       "typecodes": {"name": "i", "parent": "i",
                                     "start": "d", "end": "d"}}, fh)


class _ImportSpans:
    """Meta-path finder giving each ``dynacct.<layer>`` import a span."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def find_spec(self, fullname, path, target=None):
        package, _, layer = fullname.partition(".")
        if package != "dynacct" or layer not in LAYERS:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        recorder = self.recorder
        nid = recorder.name_id(layer, "import")
        spec.loader.exec_module = (
            lambda module: recorder.call(layer, nid, exec_module, (module,), {}))
        return spec


def trace_imports(recorder: Recorder) -> Callable[[], None]:
    """Record imports of the layer modules; returns the undo function.
    Must run before ``dynacct`` is imported."""
    finder = _ImportSpans(recorder)
    sys.meta_path.insert(0, finder)
    return lambda: sys.meta_path.remove(finder)


def _machine_classes(base) -> list[type]:
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


class Installed:
    """Handle on installed wrappers; ``restore`` undoes every patch."""

    def __init__(self):
        self.patches: list[tuple[object, str, object]] = []

    def patch(self, owner, name: str, new):
        self.patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def restore(self):
        while self.patches:
            owner, name, old = self.patches.pop()
            setattr(owner, name, old)


def install(recorder: Recorder) -> Installed:
    """Wrap the layer boundaries of ``dynacct``."""
    modules = {layer: importlib.import_module(f"dynacct.{layer}")
               for layer in LAYERS}
    namespaces = list(modules.values()) + [sys.modules["dynacct"]]
    handle = Installed()

    wrapped: dict[int, object] = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrapped[id(obj)] = recorder.wrap(layer, name, obj)
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                handle.patch(ns, name, wrapped[id(obj)])

    for cls in _machine_classes(modules["protocols"].StrategyMachine):
        for name, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and not name.startswith("_"):
                handle.patch(cls, name, recorder.wrap("protocols", name, obj))

    profile = modules["game_core"].ActionProfile
    handle.patch(profile, "check",
                 recorder.wrap("game_core", "profile_check", profile.check))
    return handle


def wrappers_left() -> list[str]:
    """Names in ``dynacct`` that still hold a span wrapper."""
    owners = [m for name, m in sys.modules.items()
              if name == "dynacct" or name.startswith("dynacct.")]
    if "dynacct.protocols" in sys.modules:
        owners += _machine_classes(sys.modules["dynacct.protocols"].StrategyMachine)
    if "dynacct.game_core" in sys.modules:
        owners.append(sys.modules["dynacct.game_core"].ActionProfile)
    return [f"{owner.__name__}.{name}" for owner in owners
            for name, obj in list(vars(owner).items())
            if hasattr(obj, "__bench_span__")]


def summarize(names, name, parent, start, end) -> dict:
    """Calls, busy and self time per function and per layer.

    ``busy`` of a function sums its spans; ``busy`` of a layer sums the
    spans not nested inside another span of the same layer, so re-entry
    through a second layer is not counted twice.  ``self`` is a span's
    duration minus that of its direct children, which by construction
    belong to other layers.
    """
    count = len(name)
    layer_ids = {layer: k for k, layer in enumerate(LAYERS)}
    span_layer = [layer_ids[names[nid][0]] for nid in name]
    dur = [end[k] - start[k] for k in range(count)]
    child = [0.0] * count
    outer = [0] * count        # bit mask of the layers open around a span
    for k in range(count):
        p = parent[k]
        if p >= 0:
            child[p] += dur[k]
            outer[k] = outer[p] | (1 << span_layer[p])

    funcs: dict[str, dict] = {}
    layers = {layer: {"busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for k in range(count):
        layer, func = names[name[k]]
        f = funcs.setdefault(f"{layer}.{func}",
                             {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        f["calls"] += 1
        f["busy_s"] += dur[k]
        f["self_s"] += dur[k] - child[k]
        totals = layers[layer]
        totals["self_s"] += dur[k] - child[k]
        if not (outer[k] >> span_layer[k]) & 1:
            totals["busy_s"] += dur[k]
    return {"functions": funcs, "layers": layers}


def recorder_summary(recorder: Recorder) -> dict:
    return summarize(recorder.names, recorder.name, recorder.parent,
                     recorder.start, recorder.end)


def merge(summaries: list[dict]) -> dict:
    """Sum the summaries of the interpreters that together ran one pass."""
    out = {"functions": {}, "layers": {layer: {"busy_s": 0.0, "self_s": 0.0}
                                       for layer in LAYERS}}
    for summary in summaries:
        for kind in ("functions", "layers"):
            for name, values in summary[kind].items():
                into = out[kind].setdefault(name, dict.fromkeys(values, 0))
                for key, value in values.items():
                    into[key] += value
    return out
