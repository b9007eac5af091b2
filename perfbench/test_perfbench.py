"""Smoke test of the benchmark harness at a tiny size.

Runs every workload's code path with tracing off and on, and checks that the
last line of output carries every metric BENCHMARK.json names, with its unit.
Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("calls", "cg_iterations", "newton_iterations", "rows", "failed")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable if arg == "python3" else arg for arg in SPEC["command"]]
    return subprocess.run(
        command + ["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    metrics = result_line(run_bench(workload, 0))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    for name, metric in metrics.items():
        assert isinstance(metric["value"], (int, float)) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_and_counts_repeat(workload):
    first = result_line(run_bench(workload, 1))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first.items()} == expected
    assert first["dtn.dtn_apply.calls"]["value"] > 0
    second = result_line(run_bench(workload, 1))["metrics"]
    for name in first:
        if name.rsplit(".", 1)[-1] in COUNTS or name.endswith("distinct_head_ratio"):
            assert first[name]["value"] == second[name]["value"], name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
