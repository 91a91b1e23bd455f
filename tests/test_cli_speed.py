"""`tools/cli_speed.py` on its shortest command, once, in a process of its own."""

import json
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_speed.py"


def test_cli_speed_times_one_command(tmp_path):
    out = tmp_path / "BENCH_cli.json"
    subprocess.run([sys.executable, str(_TOOL), "--out", str(out), "--repeats", "1",
                    "--only", "sim power 3 2000"],
                   check=True, capture_output=True, timeout=120)
    report = json.loads(out.read_text())
    assert report["repeats"] == 1
    (name, result), = report["results"].items()
    assert name == "sim power 3 2000"
    assert result["ref_s"] > 0 and len(result["wall_s"]) == 1
