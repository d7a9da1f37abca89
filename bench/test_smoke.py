"""Smoke test: every workload once at tiny size, with its output checks.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py

It is not part of the tier-1 suite (pyproject limits that to ``tests/``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_all_workloads_tiny(trace):
    proc = _run(ROOT, "--workload", "all", "--seed", "3", "--seconds", "1", "--trace", trace, "--scale", "0.01")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    names = [f"{w['name']}.{m['name']}" for w in SPEC["workloads"] for m in wanted]
    assert list(result["metrics"]) == names
    # every metric is measured on at least one workload, so a name that
    # the benchmark never computes cannot hide as a constant 0
    for m in wanted:
        assert any(result["metrics"][f"{w['name']}.{m['name']}"]["value"] for w in SPEC["workloads"]), m


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_single_workload_reports_end_to_end(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--scale", "0.01")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
