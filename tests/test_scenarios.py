from __future__ import annotations

import json

import pytest

from dynacct.scenarios import (BUILTIN_SCENARIOS, builtin, scenario_catalog,
                               scenario_from_dict)


def edges_at(scenario, name, m):
    g = scenario.family.member(name)
    return sorted(g.at(m).edges)


def test_fig3_round_structure_pinned():
    sc = builtin("fig3_indist")
    for name in ("G1", "G2", "G3"):
        assert edges_at(sc, name, 1) == [(0, 1)]
        assert edges_at(sc, name, 2) == [(1, 2)]
    assert edges_at(sc, "G1", 3) == [(0, 1)]
    assert edges_at(sc, "G2", 3) == [(0, 2)]
    assert edges_at(sc, "G3", 3) == [(0, 1), (0, 2)]
    # the three-round pattern repeats so indistinguishable rounds recur
    assert edges_at(sc, "G3", 6) == [(0, 1), (0, 2)]


def test_fig2_round_structure_pinned():
    sc = builtin("fig2_ambiguous")
    for name in ("G", "Gp"):
        assert edges_at(sc, name, 1) == [(0, 1)]
        assert edges_at(sc, name, 3) == [(0, 2), (0, 3)]
    assert edges_at(sc, "G", 2) == [(1, 3)]
    assert edges_at(sc, "Gp", 2) == [(1, 2)]
    # the continuation alternates agent 0's partners between the two sides
    # of the cut; the non-0 edges never cross it
    for name in ("G", "Gp"):
        assert edges_at(sc, name, 4) == [(0, 1), (0, 4), (1, 2), (3, 4)]
        assert edges_at(sc, name, 5) == [(0, 2), (0, 3), (1, 2), (3, 4)]
        assert edges_at(sc, name, 6) == edges_at(sc, name, 4)


def test_timely_violation_structure_pinned():
    sc = builtin("timely_violation")
    assert edges_at(sc, "bridged_pairs", 1) == [(0, 1), (1, 2), (2, 3)]
    for m in (2, 3, 9):
        assert edges_at(sc, "bridged_pairs", m) == [(0, 1), (2, 3)]


def test_ring_connectivity_structure_pinned():
    sc = builtin("ring_connectivity")
    for m in (1, 5):
        assert edges_at(sc, "ring4", m) == [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_unsafe_three_agent_structure_pinned():
    sc = builtin("unsafe_three_agent")
    assert edges_at(sc, "unsafe3", 1) == [(0, 1), (0, 2)]
    assert edges_at(sc, "unsafe3", 2) == [(1, 2)]
    assert edges_at(sc, "unsafe3", 3) == [(0, 2)]
    for m in (4, 5, 9):
        assert edges_at(sc, "unsafe3", m) == [(0, 2)]


def test_builtin_ids_and_validation():
    assert sorted(BUILTIN_SCENARIOS) == [
        "fig2_ambiguous", "fig3_indist", "ring_connectivity",
        "timely_violation", "unsafe_three_agent"]
    for name in BUILTIN_SCENARIOS:
        sc = builtin(name)
        sc.validate()
        assert sc.description
    with pytest.raises(KeyError):
        builtin("fig9_mystery")


def test_catalog_matches_builtins():
    cat = scenario_catalog()
    assert len(cat) == 5
    assert all(set(c) == {"name", "description", "checks"} for c in cat)


def test_scenario_loader_rejects_bad_agent_ids():
    doc = builtin("ring_connectivity").to_json()
    doc["strategies"]["9"] = "sigma_gen"
    with pytest.raises(Exception) as e:
        scenario_from_dict(json.loads(json.dumps(doc)), "scenario")
    assert "out of range" in str(e.value)
