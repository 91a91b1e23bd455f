#!/usr/bin/env python3
"""Wall time of three `minihls` commands, written to BENCH_cli.json.

Run from anywhere in a checkout of the repository (stdlib only):

    python3 tools/cli_speed.py [--out BENCH_cli.json] [--repeats 5] [--only NAME]

Each command runs as `python -m minihls ...` in a process of its own, on
this checkout's `src/`, so a figure includes start-up, parsing and
compiling as a user's call does:

- `run power 3 20000`: a long first run in the interpreters;
- `sim power 3 2000`: one untraced simulation of about 20 000 cycles;
- `diff power --sweep=-3..3 --sweep=0..400`: 2 807 checked points.

Each figure is the median over `--repeats` calls of a call's wall time
scaled to reference seconds by `bench/run.py`'s reference clock, with the
loop kernel that tracks the simulator and interpreters; `bench/run.py` is
imported and not changed.  `--only NAME` times just the command NAME.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from sim_speed import ROOT, load_bench_run

COMMANDS = {
    "run power 3 20000": ["run", "power", "3", "20000"],
    "sim power 3 2000": ["sim", "power", "3", "2000"],
    "diff power --sweep=-3..3 --sweep=0..400": [
        "diff", "power", "--sweep=-3..3", "--sweep=0..400"],
}


def time_command(bench, argv: list[str], repeats: int) -> dict:
    """The wall times of `repeats` calls of minihls with `argv`, raw and in
    reference seconds, and the median of the reference figures."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    wall, ref = [], []
    for _ in range(repeats):
        clock = bench.RefClock(bench.LOOP_KERNEL)
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "minihls", *argv], env=env,
                              capture_output=True, text=True)
        wall.append(time.perf_counter() - t0)
        ref.append(wall[-1] * clock.scale())
        if done.returncode:
            raise SystemExit(f"error: minihls {' '.join(argv)} exited {done.returncode}:\n"
                             f"{done.stderr}")
    return {"ref_s": statistics.median(ref), "wall_s": wall}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_cli.json")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--only", choices=COMMANDS)
    args = ap.parse_args(argv)
    bench = load_bench_run()
    results = {name: time_command(bench, COMMANDS[name], args.repeats)
               for name in COMMANDS if args.only in (None, name)}
    report = {"tool": "tools/cli_speed.py",
              "unit": "reference s per command, median of the repeats",
              "repeats": args.repeats, "python": platform.python_version(),
              "machine": f"{platform.machine()} {platform.processor()}".strip(),
              "results": results}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for name, r in results.items():
        print(f"{name:42} {r['ref_s']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
