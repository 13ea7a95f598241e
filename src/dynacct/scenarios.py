"""Scenario definitions: builtin instances and scenario-file loading.

A scenario bundles a graph family, utility parameters, a strategy per
agent, optional deviation candidates for the verifier, and run settings.
The builtins encode the constructions the checkers and verifier are
demonstrated on; agent ids are 0-based.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .evolving_graph import (EvolvingGraph, FamilyFormatError, GraphFamily,
                             ObservationModel, RoundGraph, family_from_dict,
                             family_to_dict)
from .game_core import Mode, UtilityParams
from .verifier import SimConfig


@dataclass
class Scenario:
    name: str
    description: str
    family: GraphFamily
    member: str
    params: UtilityParams
    strategies: dict[int, object]
    rho: Optional[int] = None
    horizon: int = 30
    seed: int = 0
    checks: list[str] = field(default_factory=list)
    candidates: list[dict] = field(default_factory=list)  # [{"agent": k, ...spec}]

    def sim_config(self, horizon: Optional[int] = None,
                   seed: Optional[int] = None) -> SimConfig:
        return SimConfig(
            family=self.family, member=self.member, strategies=self.strategies,
            horizon=horizon if horizon is not None else self.horizon,
            params=self.params, seed=seed if seed is not None else self.seed)

    def validate(self):
        """Parameter constraints for the mode, before anything runs."""
        self.params.validate_for(self.family.n, rho=self.rho)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "family": family_to_dict(self.family),
            "member": self.member,
            "params": self.params.to_json(),
            "strategies": {str(a): s for a, s in sorted(self.strategies.items())},
            "rho": self.rho,
            "horizon": self.horizon,
            "seed": self.seed,
            "checks": self.checks,
            "candidates": self.candidates,
        }


def _rounds(n: int, *edge_lists) -> list[RoundGraph]:
    return [RoundGraph.from_pairs(n, edges) for edges in edge_lists]


def general_defaults() -> UtilityParams:
    return UtilityParams.make("1.2", "0.1", "1.2", "0.99", Mode.GENERAL)


def valuable_defaults(n: int, rho: int) -> UtilityParams:
    # smallest round numbers satisfying beta > 1 + alpha + rho*pi and pi > n
    pi = n + 1
    beta = 1 + 0 + rho * pi + 1
    return UtilityParams.make(beta, 0, pi, "0.99", Mode.VALUABLE)


def ring_graph(n: int) -> RoundGraph:
    return RoundGraph.from_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> RoundGraph:
    return RoundGraph.from_pairs(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# ---------------------------------------------------------------------------
# Builtin scenarios
# ---------------------------------------------------------------------------

def _fig3_family() -> GraphFamily:
    n = 3
    r1 = [(0, 1)]
    r2 = [(1, 2)]
    members = []
    for name, r3 in (("G1", [(0, 1)]), ("G2", [(0, 2)]),
                     ("G3", [(0, 1), (0, 2)])):
        members.append(EvolvingGraph(
            prefix=(), cycle=tuple(_rounds(n, r1, r2, r3)), name=name))
    return GraphFamily(n=n, members=tuple(members),
                       observation=ObservationModel.NEIGHBORS_ONLY, horizon=12)


def fig3_indist() -> Scenario:
    fam = _fig3_family()
    return Scenario(
        name="fig3_indist",
        description=(
            "Three agents, three member graphs differing only in who meets "
            "agent 0 at round 3; with neighbour-only observation the third "
            "member is indistinguishable from the other two to the round-3 "
            "partners, so a single round-1 defection draws two punishments."),
        family=fam, member="G3", params=general_defaults(),
        strategies={a: {"strategy": "accusation_punisher", "rho": 3}
                    for a in range(3)},
        rho=3, horizon=1200,
        checks=["eventual_dist"])


def _fig2_family() -> GraphFamily:
    n = 5
    # cut continuation: agent 0's neighbours alternate {1,4} and {2,3};
    # the non-0 edges stay inside {1,2} and {3,4} forever
    line_14 = [(1, 2), (0, 1), (0, 4), (3, 4)]
    line_23 = [(1, 2), (0, 2), (0, 3), (3, 4)]
    cycle = tuple(_rounds(n, line_14, line_23))
    g = EvolvingGraph(
        prefix=tuple(_rounds(n, [(0, 1)], [(1, 3)], [(0, 2), (0, 3)])),
        cycle=cycle, name="G")
    gp = EvolvingGraph(
        prefix=tuple(_rounds(n, [(0, 1)], [(1, 2)], [(0, 2), (0, 3)])),
        cycle=cycle, name="Gp")
    return GraphFamily(n=n, members=(g, gp),
                       observation=ObservationModel.NEIGHBORS_ONLY, horizon=12)


def fig2_ambiguous() -> Scenario:
    fam = _fig2_family()
    honest = {a: {"strategy": "accusation_punisher", "rho": 3} for a in range(5)}
    return Scenario(
        name="fig2_ambiguous",
        description=(
            "Five agents, two member graphs identical in agent 0's view at "
            "round 3; in the second member agent 0's edges form a permanent "
            "cut between {1,2} and {3,4}, so 0 can defect 1 and then feed "
            "each side a consistent story: {3,4} never learn. The installed "
            "window punisher demonstrates the phenomenon and is itself no "
            "equilibrium here (verification exits 1: behind the cut a "
            "second defection goes unpunished)."),
        family=fam, member="Gp", params=general_defaults(),
        strategies=honest, rho=3, horizon=1200,
        checks=["ambiguous_po"],
        candidates=[{"agent": 0, "kind": "dual_evasive_fig2",
                     "base": {"strategy": "accusation_punisher", "rho": 3},
                     "member": "Gp", "group1": [1, 2], "group2": [3, 4],
                     "target": 1, "round": 1}])


def _timely_violation_family() -> GraphFamily:
    n = 4
    bridge = [(0, 1), (2, 3), (1, 2)]
    steady = [(0, 1), (2, 3)]
    g = EvolvingGraph(prefix=tuple(_rounds(n, bridge)),
                      cycle=tuple(_rounds(n, steady)), name="bridged_pairs")
    return GraphFamily(n=n, members=(g,),
                       observation=ObservationModel.NEIGHBORS_ONLY, horizon=12)


def timely_violation() -> Scenario:
    fam = _timely_violation_family()
    rho = 3
    sigma = {"strategy": "sigma_val", "rho": rho}
    return Scenario(
        name="timely_violation",
        description=(
            "Two fixed pairs plus a one-off bridge edge at round 1: the "
            "bridge partners never get a punishment opportunity, so an "
            "evasive defection across the bridge is free."),
        family=fam, member="bridged_pairs",
        params=valuable_defaults(n=4, rho=rho),
        strategies={a: dict(sigma) for a in range(4)},
        rho=rho, horizon=1700,
        checks=["timely"],
        candidates=[{"agent": 1, "kind": "single_evasive", "base": dict(sigma),
                     "target": 2, "round": 1}])


def _ring_family(n: int) -> GraphFamily:
    g = EvolvingGraph(prefix=(), cycle=(ring_graph(n),), name=f"ring{n}")
    return GraphFamily(n=n, members=(g,),
                       observation=ObservationModel.NEIGHBORS_AND_DEGREES,
                       horizon=12)


def ring_connectivity() -> Scenario:
    fam = _ring_family(4)
    return Scenario(
        name="ring_connectivity",
        description=(
            "Constant 4-ring with degree observation: removing any agent's "
            "edges leaves a path, so the connectivity restriction holds and "
            "the bounded tally protocol enforces accountability."),
        family=fam, member="ring4", params=general_defaults(),
        strategies={a: "sigma_gen" for a in range(4)},
        horizon=1500,
        checks=["connectivity", "timely"])


def _unsafe_family() -> GraphFamily:
    n = 3
    g = EvolvingGraph(
        prefix=tuple(_rounds(n, [(0, 1), (0, 2)], [(1, 2)], [(0, 2)])),
        cycle=tuple(_rounds(n, [(0, 2)])), name="unsafe3")
    return GraphFamily(n=n, members=(g,),
                       observation=ObservationModel.NEIGHBORS_ONLY, horizon=12)


def unsafe_three_agent() -> Scenario:
    fam = _unsafe_family()
    honest = {a: {"strategy": "unsafe_scripted", "rho": 3} for a in range(3)}
    return Scenario(
        name="unsafe_three_agent",
        description=(
            "Three agents: 0 meets {1,2} at round 1, 1 meets 2 at round 2, "
            "2 meets 0 at round 3 and afterwards only 0 and 2 ever meet. "
            "Every report of the round-2 interaction must cross the 2->0 "
            "step of round 3, so 2 can defect 0 there while hiding 1's "
            "defection and never be punished; verification exits 1."),
        family=fam, member="unsafe3", params=general_defaults(),
        strategies=honest, rho=3, horizon=1200,
        checks=["unsafe"],
        candidates=[{"agent": 2, "kind": "lenient_evasive_unsafe",
                     "base": {"strategy": "unsafe_scripted", "rho": 3},
                     "member": "unsafe3", "first_deviator": 0,
                     "first_round": 1}])


BUILTIN_SCENARIOS = {
    "fig2_ambiguous": fig2_ambiguous,
    "fig3_indist": fig3_indist,
    "timely_violation": timely_violation,
    "ring_connectivity": ring_connectivity,
    "unsafe_three_agent": unsafe_three_agent,
}


def builtin(name: str) -> Scenario:
    try:
        return BUILTIN_SCENARIOS[name]()
    except KeyError:
        raise KeyError(f"unknown builtin scenario {name!r}; "
                       f"known: {', '.join(sorted(BUILTIN_SCENARIOS))}")


def scenario_catalog() -> list[dict]:
    out = []
    for name in sorted(BUILTIN_SCENARIOS):
        s = BUILTIN_SCENARIOS[name]()
        out.append({"name": name, "description": s.description,
                    "checks": s.checks})
    return out


# ---------------------------------------------------------------------------
# Scenario files
# ---------------------------------------------------------------------------

def _check_spec(spec, at: str):
    """A strategy spec is a name or an object; a deviation layer is an
    object whose ``base``, if given, is a spec again."""
    if isinstance(spec, str):
        return
    if not isinstance(spec, dict):
        raise FamilyFormatError(at, "expected a strategy name or an object")
    if "deviation" in spec:
        dev = spec["deviation"]
        if not isinstance(dev, dict):
            raise FamilyFormatError(f"{at}.deviation", "expected an object")
        if dev.get("base") is not None:
            _check_spec(dev["base"], f"{at}.deviation.base")


def scenario_from_dict(doc: dict, where: str) -> Scenario:
    if not isinstance(doc, dict):
        raise FamilyFormatError(where, "expected an object")
    for key in ("name", "family", "params", "strategies"):
        if key not in doc:
            raise FamilyFormatError(where, f"missing field {key!r}")
    for key, kind, noun in (("name", str, "a string"),
                            ("description", str, "a string"),
                            ("params", dict, "an object"),
                            ("strategies", dict, "an object"),
                            ("checks", list, "a list"),
                            ("candidates", list, "a list")):
        if key in doc and not isinstance(doc[key], kind):
            raise FamilyFormatError(f"{where}.{key}", f"expected {noun}")
    ints = {"rho": doc.get("rho"), "horizon": doc.get("horizon", 30),
            "seed": doc.get("seed", 0)}
    for key, value in ints.items():
        # bool is an int subclass: true must not read as 1
        if type(value) is not int and not (key == "rho" and value is None):
            raise FamilyFormatError(f"{where}.{key}",
                                    f"expected an integer, got {value!r}")
    if ints["rho"] is not None and ints["rho"] < 1:
        raise FamilyFormatError(f"{where}.rho", "rho must be >= 1")
    checks = doc.get("checks", [])
    if not all(isinstance(c, str) for c in checks):
        raise FamilyFormatError(f"{where}.checks", "expected check names")
    family = family_from_dict(doc["family"], where=f"{where}.family")
    try:
        params = UtilityParams.from_json(doc["params"])
    except (KeyError, ValueError, TypeError) as e:
        raise FamilyFormatError(f"{where}.params", str(e))
    strategies = {}
    for k, v in doc["strategies"].items():
        try:
            agent = int(k)
        except ValueError:
            raise FamilyFormatError(f"{where}.strategies", f"bad agent id {k!r}")
        if not (0 <= agent < family.n):
            raise FamilyFormatError(f"{where}.strategies",
                                    f"agent id {agent} out of range")
        _check_spec(v, f"{where}.strategies.{k}")
        strategies[agent] = v
    member = doc.get("member", family.members[0].name)
    try:
        family.member(member)
    except KeyError as e:
        raise FamilyFormatError(f"{where}.member", str(e))
    candidates = list(doc.get("candidates", []))
    names = {g.name for g in family.members}
    for k, cand in enumerate(candidates):
        at = f"{where}.candidates[{k}]"
        if not isinstance(cand, dict):
            raise FamilyFormatError(at, "expected an object")
        agent = cand.get("agent")
        if type(agent) is not int or not 0 <= agent < family.n:
            raise FamilyFormatError(
                f"{at}.agent", f"agent {agent!r} is not an id in 0..{family.n - 1}")
        want = cand.get("member")
        if want is not None and not (isinstance(want, str) and want in names):
            raise FamilyFormatError(f"{at}.member", f"no member named {want!r}")
        if cand.get("base") is not None:
            _check_spec(cand["base"], f"{at}.base")
    return Scenario(
        name=doc["name"], description=doc.get("description", ""),
        family=family, member=member, params=params, strategies=strategies,
        candidates=candidates, checks=list(checks), **ints)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise FamilyFormatError(f"{path}:{e.lineno}:{e.colno}", e.msg)
    return scenario_from_dict(doc, where=path)


def resolve_scenario(name_or_path: str) -> Scenario:
    """The builtin scenario of that name, else the scenario file at that
    path."""
    if name_or_path in BUILTIN_SCENARIOS:
        return builtin(name_or_path)
    try:
        return load_scenario(name_or_path)
    except FileNotFoundError:
        raise ValueError(
            f"no builtin scenario or file named {name_or_path!r}; the "
            f"builtins are {', '.join(sorted(BUILTIN_SCENARIOS))}") from None
