"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import array
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402


def test_self_time_arithmetic_on_synthetic_spans():
    names = [("verifier", "verify_one_shot"), ("protocols", "act"),
             ("verifier", "verify_cooperation"), ("game_core", "round_utility")]
    # verifier [0,10] -> protocols [1,6] -> verifier again [2,4];
    # verifier -> game_core [7,9]
    name = array.array("i", [0, 1, 2, 3])
    parent = array.array("i", [-1, 0, 1, 0])
    start = array.array("d", [0.0, 1.0, 2.0, 7.0])
    end = array.array("d", [10.0, 6.0, 4.0, 9.0])
    out = tracing.summarize(names, name, parent, start, end)
    layers = out["layers"]
    assert layers["verifier"] == {"busy_s": 10.0, "self_s": 5.0}
    assert layers["protocols"] == {"busy_s": 5.0, "self_s": 3.0}
    assert layers["game_core"] == {"busy_s": 2.0, "self_s": 2.0}
    assert layers["cli"] == {"busy_s": 0.0, "self_s": 0.0}
    assert sum(v["self_s"] for v in layers.values()) == 10.0
    assert out["functions"]["verifier.verify_cooperation"] == {
        "calls": 1, "busy_s": 2.0, "self_s": 2.0}
    assert out["functions"]["protocols.act"]["self_s"] == 3.0


@pytest.fixture
def traced():
    import dynacct  # noqa: F401
    recorder = tracing.Recorder()
    installed = tracing.install(recorder)
    try:
        yield recorder
    finally:
        installed.restore()


def test_wrapper_machine_delegating_to_base_counts_once(traced):
    from dynacct import evolving_graph, protocols, scenarios
    fam = scenarios.ring_connectivity().family
    g = fam.members[0]
    machine = protocols.ScheduledDefector(
        protocols.sigma_gen(0, fam.n, scenarios.general_defaults(),
                            fam.observation),
        {1: protocols.ALL_NEIGHBORS}, sincere=False)
    view = evolving_graph.local_view(g, 0, 1, fam.observation)
    machine.begin_round(view)
    actions = machine.act(protocols._RefuseDraws())
    assert set(actions) == set(view.neighbors)
    funcs = tracing.recorder_summary(traced)["functions"]
    assert funcs["protocols.begin_round"]["calls"] == 1
    assert funcs["protocols.act"]["calls"] == 1
    assert funcs["evolving_graph.local_view"]["calls"] == 1
    assert funcs["scenarios.ring_connectivity"]["calls"] == 1
    assert not traced.stack


def test_wrappers_removed_after_restore():
    import dynacct
    from dynacct import protocols, verifier

    before = {name: getattr(verifier, name) for name in dir(verifier)}
    act_before = protocols.SigmaGen.act
    installed = tracing.install(tracing.Recorder())
    assert verifier.local_view is not before["local_view"]
    assert hasattr(dynacct.verify_one_shot, "__bench_span__")
    assert tracing.wrappers_left()
    installed.restore()
    assert tracing.wrappers_left() == []
    assert {name: getattr(verifier, name) for name in dir(verifier)} == before
    assert protocols.SigmaGen.act is act_before


def _traced_group(out_dir) -> dict:
    """ring_connectivity, the third of the five verify_builtins groups"""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "one_pass.py"), "--workload",
         "verify_builtins", "--seed", "5", "--family-seed", "1",
         "--group", "2", "--groups", "5", "--trace-out", str(out_dir)],
        capture_output=True, text=True, timeout=170,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_passes_are_transparent_and_repeat_their_counts(tmp_path):
    runs = [_traced_group(tmp_path / f"run{k}") for k in range(2)]
    for run in runs:
        assert run["failures"] == [] and run["wrappers_left"] == []
        assert (tmp_path / "run0" / "start.bin").stat().st_size > 0
    calls = [{name: f["calls"] for name, f in run["trace"]["functions"].items()}
             for run in runs]
    assert calls[0] == calls[1]
    assert calls[0]["cli.main"] == 1
    assert calls[0]["verifier.verify_one_shot"] == 4  # one per agent


def test_corrupted_expected_answer_fails_the_run(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = bench / "expected" / "verify_builtins.json"
    pinned = json.loads(path.read_text())
    pinned["ring_connectivity"]["sha256"] = "0" * 64
    path.write_text(json.dumps(pinned))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "verify_builtins",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] == 5
    assert "ring_connectivity" in proc.stderr


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
         "predicates", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
