"""Tiny runs of every workload: each prints every declared metric with its unit."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def listing():
    return sorted(
        os.path.relpath(os.path.join(d, name), ROOT)
        for d, dirs, files in os.walk(ROOT)
        if ".git" not in d.split(os.sep) and "__pycache__" not in d
        for name in files
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(workload, trace):
    before = listing()
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", str(trace)
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        assert f"{name} = " in proc.stdout
    assert listing() == before       # scratch output went to a removed temp dir


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        tmp_path, "--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
