from __future__ import annotations

import csv
import json
import math
import os
import re
import subprocess
from dataclasses import replace
from fractions import Fraction

import pytest

from dynacct.cli import main
from dynacct.evolving_graph import family_to_dict, load_family
from dynacct.game_core import discounted_utility
from dynacct.scenarios import (_fig3_family, _ring_family, builtin,
                               scenario_from_dict)

from .conftest import run_cli_child, run_cli_subprocess


def write_family(tmp_path, fam, name="family.json"):
    path = tmp_path / name
    path.write_text(json.dumps(family_to_dict(fam)))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_timely_ring_passes(tmp_path, capsys):
    fam = write_family(tmp_path, _ring_family(4).members and _ring_family(4))
    code, out, _ = run_cli(["check", "timely", "--family", fam, "--rho", "4"],
                           capsys)
    doc = json.loads(out)
    assert code == 0 and doc["holds"] and doc["certificate"] == 4


def test_check_timely_searches_certificate(tmp_path, capsys):
    fam = write_family(tmp_path, _ring_family(4))
    code, out, _ = run_cli(["check", "timely", "--family", fam], capsys)
    assert code == 0 and json.loads(out)["certificate"] == 2


def test_check_connectivity_fig3_fails_on_observation(tmp_path, capsys):
    fam = write_family(tmp_path, _fig3_family())
    code, out, _ = run_cli(["check", "connectivity", "--family", fam], capsys)
    doc = json.loads(out)
    assert code == 1 and not doc["holds"]
    assert "observation" in doc["counterexample"]["reason"]


def test_check_eventual_dist_fig3_witness_round_one(tmp_path, capsys):
    fam = write_family(tmp_path, _fig3_family())
    code, out, _ = run_cli(["check", "eventual_dist", "--family", fam,
                            "--rho", "3"], capsys)
    doc = json.loads(out)
    assert code == 1
    assert doc["counterexample"]["round"] == 1


def test_check_ambiguous_and_unsafe(tmp_path, capsys):
    fam2 = write_family(tmp_path, builtin("fig2_ambiguous").family, "f2.json")
    code, out, _ = run_cli(["check", "ambiguous_po", "--family", fam2,
                            "--member", "G", "--agent", "0", "--partner", "3",
                            "--round", "3"], capsys)
    doc = json.loads(out)
    assert code == 1 and doc["counterexample"]["partition"] == [[1, 2], [3, 4]]

    fam3 = write_family(tmp_path, builtin("unsafe_three_agent").family, "f3.json")
    code, out, _ = run_cli(["check", "unsafe", "--family", fam3, "--rho", "3"],
                           capsys)
    doc = json.loads(out)
    assert code == 1 and doc["counterexample"]["m2"] == 3

    fam4 = write_family(tmp_path, _ring_family(4), "f4.json")
    code, out, _ = run_cli(["check", "unsafe", "--family", fam4, "--rho", "3"],
                           capsys)
    assert code == 0


@pytest.mark.parametrize("args, message", [
    (["unsafe", "--rho", "0"], "error: rho must be >= 1"),
    (["eventual_dist", "--rho", "4", "--m-star", "-3"],
     "error: m_star must be in 0..12 (the family horizon), got -3"),
    (["eventual_dist", "--rho", "0", "--m-star", "12"],
     "error: rho must be >= 1"),
], ids=["unsafe-rho-zero", "eventual-dist-negative-m-star",
        "eventual-dist-rho-zero"])
def test_check_refuses_windows_outside_their_range(args, message, tmp_path,
                                                   capsys):
    fam = write_family(tmp_path, builtin("fig2_ambiguous").family)
    code, out, err = run_cli(["check", *args, "--family", fam], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == [message]


def test_check_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    doc = family_to_dict(_ring_family(4))
    doc["members"][0]["cycle"][0].append([0, 0])
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(["check", "timely", "--family", str(bad),
                            "--rho", "2"], capsys)
    assert code == 2 and "cycle[0].edges" in err


def test_check_unknown_family_file(tmp_path, capsys):
    nope = tmp_path / "nope.json"
    nope.write_text("{not json")
    code, _, err = run_cli(["check", "timely", "--family", str(nope),
                            "--rho", "2"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_honest_summary_and_outputs(tmp_path, capsys):
    stem = str(tmp_path / "run")
    code, out, _ = run_cli(["simulate", "--scenario", "ring_connectivity",
                            "--horizon", "12", "--seed", "5", "--out", stem],
                           capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["rounds"] == 12
    # all agents earn the same cooperative total
    totals = {k: v[0] for k, v in summary["discounted_utility"].items()}
    assert len(set(totals.values())) == 1
    with open(stem + ".jsonl") as fh:
        recs = [json.loads(line) for line in fh]
    assert len(recs) == 12
    assert all(a == "cooperate" for r in recs
               for row in r["actions"].values() for a in row.values())
    with open(stem + ".csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["round", "agent0", "agent1", "agent2", "agent3"]
    assert len(rows) == 13


def test_simulate_deviation_punished_below_honest(tmp_path, capsys):
    stem_h = str(tmp_path / "honest")
    code, out_h, _ = run_cli(["simulate", "--scenario", "ring_connectivity",
                              "--horizon", "25", "--seed", "1",
                              "--out", stem_h], capsys)
    honest = json.loads(out_h)["discounted_utility"]["0"][1]
    stem_d = str(tmp_path / "dev")
    code, out_d, _ = run_cli(["simulate", "--scenario", "ring_connectivity",
                              "--horizon", "25", "--seed", "1",
                              "--deviate", "agent=0,defect_all,round=1",
                              "--out", stem_d], capsys)
    assert code == 0
    dev = json.loads(out_d)["discounted_utility"]["0"][1]
    assert dev < honest
    with open(stem_d + ".jsonl") as fh:
        recs = [json.loads(line) for line in fh]
    punished = [r["round"] for r in recs
                if any(a == "punish" for row in r["actions"].values()
                       for a in row.values())]
    assert punished and all(1 < m <= 17 for m in punished)


def test_simulate_replay_byte_identical(tmp_path):
    outs = []
    for k, hashseed in enumerate(("0", "424242")):
        stem = str(tmp_path / f"r{k}")
        run_cli_subprocess(
            ["simulate", "--scenario", "ring_connectivity", "--horizon", "15",
             "--seed", "9", "--deviate", "agent=1,defect_all,round=2",
             "--out", stem],
            cwd=tmp_path, hashseed=hashseed)
        outs.append((open(stem + ".jsonl", "rb").read(),
                     open(stem + ".csv", "rb").read()))
    assert outs[0] == outs[1]


def test_simulate_monte_carlo_simulates_each_seed_once(tmp_path, monkeypatch,
                                                       capsys):
    # one realised run plus one run per seed serves every agent (re-running
    # the seeds per agent took 1 + 4 x 3 = 13 runs), with the values the
    # per-agent computation gives
    from dynacct import cli, verifier
    real = verifier.simulate
    runs = []

    def counted(cfg):
        runs.append(cfg)
        return real(cfg)
    monkeypatch.setattr(verifier, "simulate", counted)
    monkeypatch.setattr(cli, "simulate", counted)
    code, out, _ = run_cli(["simulate", "--scenario", "ring_connectivity",
                            "--horizon", "12", "--seed", "4", "--deviate",
                            "agent=0,defect_all,round=2", "--samples", "3",
                            "--out", str(tmp_path / "mc")], capsys)
    assert code == 0
    assert len(runs) <= 4
    cfg = runs[0]
    summary = json.loads(out)
    summary["monte_carlo"] = {}
    for i in range(cfg.family.n):
        values = [discounted_utility(real(replace(cfg, seed=4 + k)), i, 1,
                                     cfg.params) for k in range(3)]
        mean = sum(values, Fraction(0)) / 3
        var = sum(float(v - mean) ** 2 for v in values) / 2
        summary["monte_carlo"][str(i)] = {
            "samples": 3, "mean": float(mean), "std_error": math.sqrt(var / 3)}
    assert out == json.dumps(summary, indent=2, sort_keys=True) + "\n"


def test_simulate_rejects_bad_deviate_syntax(capsys):
    code, _, err = run_cli(["simulate", "--scenario", "ring_connectivity",
                            "--deviate", "agent=0"], capsys)
    assert code == 2


def test_simulate_deviate_agent_out_of_range_exit_two(capsys):
    code, out, err = run_cli(["simulate", "--scenario", "ring_connectivity",
                              "--deviate", "agent=7,defect_all,round=1"],
                             capsys)
    assert code == 2 and not out
    assert "error: --deviate agent 7 is not an id in 0..3" in err


@pytest.mark.parametrize("spec, field", [
    ("agent=0,defect_all,round=2,target=1", "no field 'target'"),
    ("agent=0,defect_all,round=2,agent=1", "the field 'agent' twice"),
    ("agent=0,defect_all,round=2,round=2", "the field 'round' twice")])
def test_simulate_deviate_names_an_unknown_or_repeated_field(spec, field,
                                                             capsys):
    code, out, err = run_cli(["simulate", "--scenario", "ring_connectivity",
                              "--deviate", spec], capsys)
    assert code == 2 and not out
    assert "error: --deviate " in err and field in err


@pytest.mark.parametrize("spec, field", [
    ("agent=0,defect_all=yes,round=1", "'defect_all' takes no value, not 'yes'"),
    ("agent=0,defect_all=0,round=1", "'defect_all' takes no value, not '0'"),
    ("agent=x,defect_all,round=1", "'agent' needs an integer, not 'x'"),
    ("agent=0,defect_all,round=two", "'round' needs an integer, not 'two'"),
    ("agent,defect_all,round=1", "'agent' needs an integer, not ''")])
def test_simulate_deviate_names_a_field_with_a_bad_value(spec, field, capsys):
    # defect_all=yes used to run the defect-all deviation with the value
    # ignored, and agent=x to fail with int()'s message, naming no field
    code, out, err = run_cli(["simulate", "--scenario", "ring_connectivity",
                              "--horizon", "5", "--deviate", spec], capsys)
    assert code == 2 and not out
    assert "error: --deviate field " in err and field in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_ring_passes(tmp_path, capsys):
    code, out, _ = run_cli(["verify", "--scenario", "ring_connectivity",
                            "--horizon", "260", "--robust-depth", "1"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "pass"
    assert doc["on_path_cooperation"] is True


def test_verify_timely_violation_fails_with_evasive_witness(capsys):
    code, out, _ = run_cli(["verify", "--scenario", "timely_violation"], capsys)
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "fail"
    rep = doc["one_shot"]["1"]
    assert rep["verdict"] == "fail"
    assert "single_evasive" in str(rep["witness"]["override"])
    assert float(rep["max_gain_float"]) >= 1 - float(rep["tolerance_float"]) > 0


def test_verify_config_rejected_exit_two(tmp_path, capsys):
    sc = builtin("ring_connectivity")
    doc = sc.to_json()
    doc["params"]["beta"] = "1.05"   # below 1 + alpha
    path = tmp_path / "bad_scenario.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["verify", "--scenario", str(path)], capsys)
    assert code == 2 and "beta" in err


def test_verify_duplicate_member_names_exit_two(tmp_path, capsys):
    # a 4-ring and a 4-path both named "ring4": the loader refuses the file
    # rather than verify one member under the other's name
    doc = builtin("ring_connectivity").to_json()
    path_member = dict(doc["family"]["members"][0],
                       cycle=[[[0, 1], [1, 2], [2, 3]]])
    doc["family"]["members"].append(path_member)
    path = tmp_path / "twin_scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", "--scenario", str(path),
                              "--horizon", "6"], capsys)
    assert code == 2 and not out
    assert "members[1].name" in err and "duplicate member name 'ring4'" in err


def test_verify_dual_evasive_groups_not_partition_exit_two(tmp_path, capsys):
    doc = builtin("fig2_ambiguous").to_json()
    doc["candidates"][0]["group2"] = [2, 3, 4]   # 2 is in group1 as well
    path = tmp_path / "overlap_scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", "--scenario", str(path),
                              "--horizon", "9"], capsys)
    assert code == 2 and not out and "partition" in err


@pytest.mark.parametrize("field, value, message", [
    ("agent", 7, "agent 7 is not an id in 0..3"),
    ("agent", "1", "agent '1' is not an id in 0..3"),
    ("member", "nowhere", "no member named 'nowhere'"),
], ids=["agent-out-of-range", "agent-not-int", "member-unknown"])
def test_verify_candidate_refused_at_load_exit_two(field, value, message,
                                                   tmp_path, capsys):
    # a candidate no agent or member of the family can run is an input
    # error, not a candidate the verifier silently leaves out
    doc = builtin("timely_violation").to_json()
    doc["candidates"][0][field] = value
    path = tmp_path / "candidate_scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", "--scenario", str(path),
                              "--horizon", "6"], capsys)
    assert code == 2 and not out
    assert f"candidates[0].{field}: {message}" in err


def _set_spec(agent, spec):
    def mutate(doc):
        doc["strategies"][agent] = spec
    return mutate


@pytest.mark.parametrize("mutate, field", [
    (lambda d: d.update(strategies=list(d["strategies"].values())),
     "strategies"),
    (_set_spec("0", 5), "strategies.0"),
    (lambda d: d.update(params=[1, 2]), "params"),
    (lambda d: d.update(rho="x"), "rho"),
    (_set_spec("0", {"deviation": 3}), "strategies.0.deviation"),
    (lambda d: d.update(candidates=5), "candidates"),
    (lambda d: d.update(checks=5), "checks"),
    (lambda d: d.update(horizon=12.5), "horizon"),
    (lambda d: d.update(rho=True), "rho"),
    (lambda d: d.update(rho=0), "rho"),
    (lambda d: d.update(rho=-3), "rho"),
], ids=["strategies-list", "spec-int", "params-list", "rho-str",
        "deviation-int", "candidates-int", "checks-int", "horizon-float",
        "rho-bool", "rho-zero", "rho-negative"])
def test_verify_scenario_field_wrong_type_exit_two(mutate, field, tmp_path,
                                                   capsys):
    # a scenario field of the wrong type is a positioned input error: no
    # traceback, and no value silently truncated or read as a number
    doc = builtin("timely_violation").to_json()
    mutate(doc)
    path = tmp_path / "typed_scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", "--scenario", str(path),
                              "--horizon", "6"], capsys)
    assert code == 2 and out == ""
    assert re.search(rf"^error: .*typed_scenario\.json\.{re.escape(field)}: ",
                     err, re.M)


@pytest.mark.parametrize("mutate, message", [
    (_set_spec("0", {"strategy": "sigma_val", "rho": [3]}),
     "rho must be an integer, not [3]"),
    (lambda d: d["candidates"][0].update(target=[2]),
     "target must be an integer, not [2]"),
    (_set_spec("0", {"strategy": "sigma_val", "rho": 2.9}),
     "rho must be an integer, not 2.9"),
    (lambda d: d["candidates"][0].update(round=True),
     "round must be an integer, not True"),
    # agent 1's round-1 neighbours are 0 and 2: the candidate would never
    # deviate, so it is refused rather than reported
    (lambda d: d["candidates"][0].update(target=3),
     "override target 3 is not a current neighbour"),
    (lambda d: d["candidates"][0].update(kind="lenient_evasive_unsafe",
                                         first_deviator=5),
     "first_deviator 5 is not an agent id in 0..3"),
], ids=["spec-rho-list", "candidate-target-list", "spec-rho-float",
         "candidate-round-bool",
        "candidate-target-not-a-neighbour", "candidate-first-deviator-outside"])
def test_verify_strategy_field_refused_exit_two(mutate, message, tmp_path,
                                                capsys):
    # the strategy and deviation fields are read in protocols: a value
    # that is no integer (a list, a float, a bool), a target the deviator
    # cannot reach, or a first deviator outside the family, is an input
    # error
    doc = builtin("timely_violation").to_json()
    mutate(doc)
    path = tmp_path / "spec_scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", "--scenario", str(path),
                              "--horizon", "6"], capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_verify_member_verifies_that_member_only(capsys):
    code, out, _ = run_cli(["verify", "--scenario", "fig3_indist",
                            "--member", "G1", "--horizon", "40"], capsys)
    assert code == 0 and list(json.loads(out)["members"]) == ["G1"]
    code, out, err = run_cli(["verify", "--scenario", "fig3_indist",
                              "--member", "nowhere"], capsys)
    assert code == 2 and out == ""
    assert "no member named 'nowhere'" in err


@pytest.mark.parametrize("args, line", [
    (["verify", "--scenario", "fig3_indist", "--member", "nowhere"],
     "error: no member named 'nowhere'"),
    (["simulate", "--scenario", "nope"],
     "error: no builtin scenario or file named 'nope'; the builtins are "
     "fig2_ambiguous, fig3_indist, ring_connectivity, timely_violation, "
     "unsafe_three_agent"),
    (["verify", "--scenario", "ring_conectivity"],
     "error: no builtin scenario or file named 'ring_conectivity'; the "
     "builtins are fig2_ambiguous, fig3_indist, ring_connectivity, "
     "timely_violation, unsafe_three_agent"),
    (["simulate", "--scenario", "ring_connectivity", "--horizon", "5",
      "--deviate", "agent=0,defect_all,round=99"],
     "error: deviation round 99 is outside rounds 1..5 (horizon 5)"),
], ids=["verify-unknown-member", "simulate-unknown-scenario",
        "verify-misspelt-scenario", "simulate-deviation-after-the-horizon"])
def test_input_error_prints_the_message_itself(args, line, tmp_path,
                                               monkeypatch, capsys):
    # the error line is the message, with no quotes added around it
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.splitlines() == [line]


def test_unreadable_scenario_file_keeps_its_positioned_error(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # only a name that is neither a builtin nor a file lists the builtins
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text("{not json")
    code, out, err = run_cli(["verify", "--scenario", "bad.json"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: bad.json:1:2") and "builtin" not in err


def test_closed_stdout_keeps_the_verdict_exit_status(tmp_path):
    # a reader that closes the pipe early (``| head -c 1``) is no input
    # error: the command exits with its own status, and stderr stays empty
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli_child(["verify", "--scenario", "timely_violation"],
                             tmp_path, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.stderr == b"" and proc.returncode == 1


def test_verify_enumeration_refusal_exit_three(tmp_path, capsys):
    from tests.test_verifier import mixed_degree_family
    sc = builtin("ring_connectivity")
    doc = sc.to_json()
    doc["family"] = family_to_dict(mixed_degree_family())
    doc["member"] = "mix"
    doc["horizon"] = 40
    path = tmp_path / "mix_scenario.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["verify", "--scenario", str(path),
                            "--enum-cap", "2"], capsys)
    assert code == 3 and "cap" in err
    # how far it got: the round the refused branch reached, and the leaves
    reached = re.search(r"reached round (\d+) with (\d+) leaves emitted", err)
    assert reached and 1 <= int(reached[1]) <= 40 and int(reached[2]) == 2


def test_verify_scenario_roundtrip_loader():
    # every builtin serialises to a document the loader accepts unchanged
    for name in ("ring_connectivity", "fig3_indist", "timely_violation",
                 "fig2_ambiguous", "unsafe_three_agent"):
        sc = builtin(name)
        doc = sc.to_json()
        sc2 = scenario_from_dict(json.loads(json.dumps(doc)), "scenario")
        assert sc2.to_json() == doc


@pytest.mark.parametrize("args", [
    ["verify", "--scenario", "nope"],
    ["simulate", "--scenario", "nope"],
    ["check", "timely", "--family", "nope", "--rho", "3"],
    ["simulate", "--scenario", "ring_connectivity", "--samples", "-1"],
    ["simulate", "--scenario", "ring_connectivity", "--samples", "0"],
    ["verify", "--scenario", "ring_connectivity", "--robust-depth", "0"],
    ["verify", "--scenario", "ring_connectivity", "--robust-depth", "-3"],
    ["verify", "--scenario", "ring_connectivity", "--enum-cap", "0"],
    ["simulate", "--scenario", "ring_connectivity", "--horizon", "5",
     "--out", "missing/run"],
    ["simulate", "--scenario", "ring_connectivity", "--horizon", "5",
     "--deviate", "agent=0,defect_all,round=0"],
    ["simulate", "--scenario", "ring_connectivity", "--horizon", "5",
     "--deviate", "agent=0,defect_all,round=2,target=1"],
    ["simulate", "--scenario", "ring_connectivity", "--horizon", "5",
     "--deviate", "agent=0,defect_all,round=2,agent=1"],
    ["simulate", "--scenario", "ring_connectivity", "--horizon", "5",
     "--deviate", "agent=0,defect_all=yes,round=1"],
    ["simulate", "--scenario", "ring_connectivity", "--horizon", "5",
     "--deviate", "agent=x,defect_all,round=1"],
], ids=["verify-missing-scenario", "simulate-missing-scenario",
        "check-missing-family", "simulate-negative-samples",
        "simulate-zero-samples", "verify-zero-robust-depth",
        "verify-negative-robust-depth", "verify-zero-enum-cap",
        "simulate-out-missing-directory", "simulate-deviation-round-zero",
        "simulate-deviate-unknown-field", "simulate-deviate-repeated-field",
        "simulate-deviate-defect-all-value", "simulate-deviate-agent-not-int"])
def test_bad_input_exits_two_without_output(args, tmp_path, monkeypatch,
                                            capsys):
    # a missing input file or a bad option is an input error (exit 2), not
    # a failing verdict, and nothing is written before it is reported
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert any(line.startswith("error:") for line in err.splitlines())
    assert out == "" and list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def test_scenarios_lists_five_builtins_stably(capsys):
    code1, out1, _ = run_cli(["scenarios"], capsys)
    code2, out2, _ = run_cli(["scenarios"], capsys)
    assert code1 == code2 == 0 and out1 == out2
    cat = json.loads(out1)
    assert [c["name"] for c in cat] == [
        "fig2_ambiguous", "fig3_indist", "ring_connectivity",
        "timely_violation", "unsafe_three_agent"]
    fig2 = next(c for c in cat if c["name"] == "fig2_ambiguous")
    assert "cut" in fig2["description"]


def test_verify_unsafe_scripted_profile_fails(capsys):
    # the scripted profile of the unsafe family is no equilibrium: the
    # punishment-free defection is flagged once the horizon makes the
    # tail tolerance meaningful
    code, out, _ = run_cli(["verify", "--scenario", "unsafe_three_agent"],
                           capsys)
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "fail"
    rep = doc["one_shot"]["2"]
    assert rep["verdict"] == "fail"
    assert float(rep["max_gain_float"]) >= 1 - float(rep["tolerance_float"])


def test_verify_fig3_passes_all_members(capsys):
    # the recurring partners keep every defection's marginal punishment
    # alive, so the window punisher is an equilibrium at these parameters
    code, out, _ = run_cli(["verify", "--scenario", "fig3_indist"], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "pass"
    assert len(doc["members"]) == 3


def test_verify_fig2_cut_family_fails(capsys):
    # behind the permanent cut a second defection's marginal punishment
    # expires before any punisher can use it: after its own round-1
    # defection the agent defects again for free, and the verifier says so
    code, out, _ = run_cli(["verify", "--scenario", "fig2_ambiguous"], capsys)
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "fail"
    failing = [i for i, rep in doc["members"]["G"]["one_shot"].items()
               if rep["verdict"] == "fail"]
    assert failing and all(doc["members"]["G"]["one_shot"][i]["witness"]
                           ["origin"].startswith("after own") for i in failing)
