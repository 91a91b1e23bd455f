"""Tests of the benchmark's own contract: every count repeats exactly for a
seed, and every metric is printed with its unit and sample count.

They run bench/run.py the way it is meant to be run, as a process from
the repository root, with --seconds 1 (each run still does at least one
whole pass, and untraced runs at least 100 ops); the module takes about
two minutes.

    python3 -m pytest bench/tests/test_bench.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
METRICS = {0: BENCH["end_to_end"], 1: BENCH["per_layer"]}
SEED = 3

_runs: dict = {}


def bench(workload: str, trace: int, nth: int, cwd: Path = ROOT):
    """stdout lines of the nth run of (workload, trace) on SEED."""
    key = (workload, trace, nth)
    if key not in _runs:
        cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
        out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                             timeout=600, check=True)
        _runs[key] = out.stdout.splitlines()
    return _runs[key]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_schema(workload, trace):
    lines = bench(workload, trace, 0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (100 if trace == 0 else 1)
    names = [m["name"] for m in METRICS[trace]]
    assert list(result["metrics"]) == names
    table = {}
    for line in lines[:-1]:
        m = re.fullmatch(r"(\S+)\s+(\S+)\s+(\S+)\s+samples=(\d+)", line)
        if m:
            table[m.group(1)] = (m.group(3), int(m.group(4)))
    for spec in METRICS[trace]:
        got = result["metrics"][spec["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == spec["unit"]
        assert isinstance(got["value"], (int, float))
        unit, samples = table[spec["name"]]
        assert unit == spec["unit"] and samples >= 1
    if trace == 0:
        for spec in METRICS[0]:
            assert result["metrics"][spec["name"]]["value"] > 0, spec["name"]
        assert table["op_ms_p90"][1] >= 100


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload, trace):
    first, second = bench(workload, trace, 0), bench(workload, trace, 1)
    assert first[0].split()[-1] == second[0].split()[-1]  # inputs_sha256
    a = json.loads(first[-1])["metrics"]
    b = json.loads(second[-1])["metrics"]
    counts = [m["name"] for m in METRICS[trace] if m["unit"] == "count"]
    assert counts
    assert {n: a[n]["value"] for n in counts} == {n: b[n]["value"]
                                                  for n in counts}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", WORKLOADS[0],
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                         timeout=180)
    assert out.returncode != 0
    assert "correct" not in out.stdout
