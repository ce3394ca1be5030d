"""Smoke test of the benchmark at its tiny size.

Every workload runs untraced and traced; each must pass its output check
and print every metric ``BENCHMARK.json`` names exactly once, with its unit.
The traced run must reproduce the untraced schedule (same chase steps and
aborts), which shows the layer wrappers do not perturb what they measure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_once_with_unit_and_checks_pass(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines[0]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [entry["name"] for entry in expected]
    for entry in expected:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
        table_rows = [line for line in lines[1:-1] if line.split()[0] == entry["name"]]
        assert len(table_rows) == 1, entry["name"]
    context = json.loads(lines[0])
    assert context["cpu_cores"] and context["python"] and context["source_sha256"]
    if trace and workload != "fed-socket":
        # Socket peers interleave by real timing, so only the in-process
        # workloads have a schedule that must repeat exactly.
        assert result["metrics"]["trace.schedule_identical"]["value"] == 1


def test_check_rejects_a_wrong_result(tmp_path, monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    monkeypatch.setattr(workloads, "WORK_DIR", str(tmp_path))
    chosen = workloads.workload("repo-insert")
    inputs = chosen.make_inputs("tiny")
    # A service that chases no mappings commits the bare inserts, which
    # the full mapping set must then reject.
    unchased = workloads.Inputs(inputs.streams, inputs.client_peers, inputs.environment, [])
    system = chosen.make_system(unchased)
    loop = workloads.closed_loop(system, inputs.streams)
    assert not loop.errors
    check = chosen.make_check(inputs)
    assert check(system, system.snapshot()) != ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, os.path.join(tmp_path, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("repo-insert", 0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_every_episode_is_checked(tmp_path, monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import run
    import workloads

    monkeypatch.setattr(workloads, "WORK_DIR", str(tmp_path))
    chosen = workloads.workload("repo-contended")
    inputs = chosen.make_inputs("tiny")
    checked = []

    def check(system, snapshot):
        checked.append(snapshot)
        return "wrong" if len(checked) == 3 else ""

    episodes, problems = run._episodes(chosen, inputs, None, 60.0, False, check)
    assert len(episodes) == 3
    assert problems == ["episode 3: wrong"]
