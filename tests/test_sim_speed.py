"""`tools/sim_speed.py` on one point per workload, in a process of its own:
it reloads minihls from the checkout, as `bench/run.py` does."""

import json
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "sim_speed.py"


def test_sim_speed_writes_cold_and_hot_figures(tmp_path):
    out = tmp_path / "BENCH_sim.json"
    subprocess.run([sys.executable, str(_TOOL), "--out", str(out), "--points", "1",
                    "--repeats", "1", "--warmup", "1"],
                   check=True, capture_output=True, timeout=120)
    results = json.loads(out.read_text())["results"]
    assert set(results) == {"corpus_sweep", "wide_sim", "power_3_5000"}
    for name in ("corpus_sweep", "wide_sim"):
        assert results[name]["points"] == 1 and results[name]["cycles_per_pass"] > 0
        assert results[name]["cold_us_per_cycle"] > 0
        assert results[name]["hot_us_per_cycle"] > 0
        calls = results[name]["trace_calls_per_pass"]  # a hot pass's, after one warm-up
        assert isinstance(calls, int) and calls >= 0
        assert isinstance(results[name]["cycles_per_trace_call"], float)
    assert results["power_3_5000"]["cycles"] == 50_010
    assert results["power_3_5000"]["cold_us_per_cycle"] > 0
