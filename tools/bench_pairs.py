#!/usr/bin/env python3
"""Alternated pairs of benchmark runs, parent revision against this checkout.

Run from anywhere in a git checkout of the repository (stdlib only):

    python3 tools/bench_pairs.py --parent HEAD~1 --workload compile_ladder \\
        --seed 7 --seconds 20 --pairs 10

The parent revision is extracted with `git archive` into a temporary
directory; this checkout is the change, as its working tree stands.  Each
pair runs `bench/run.py` once on each side with the same workload, seed
and seconds, and the side that runs first alternates from pair to pair,
so a drift of the machine's speed falls on both sides alike.

For every end-to-end metric that `BENCHMARK.json` declares, the report
gives each side's values in run order, their median and quartiles, the
change of the median in percent and the pairs the change wins (is
strictly better in, by the metric's direction).  It is merged by
workload into `--out` (default `BENCH_toolchain.json` at the root of
the checkout), next to both commits, the seed and the seconds; a run
that fails an op is recorded with its count of failed ops.  The latest
comparison stands at the top of its workload's entry, and every
comparison, the latest included, is appended to the entry's `history`
without its per-pair runs, so the file keeps the trajectory.  A change
not yet committed is named by its parent commit and its `source_sha256`;
once a later run's parent has that digest, the point records the commit
it `became`.  Both sides record their `source_sha256`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, into: Path) -> None:
    """Write the files of revision `rev` under `into`."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {rev} failed")


def source_sha256(root: Path) -> str:
    """Digest of the program and benchmark sources a run builds from."""
    h = hashlib.sha256()
    for path in sorted([*root.glob("src/**/*.py"), *root.glob("bench/*.py")]):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(where: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `bench/run.py` run; its last output line is the JSON summary."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=where, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"error: bench/run.py in {where} exited "
                         f"{out.returncode}:\n{out.stderr}")
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in summary["metrics"].items()}
    return {"failed": summary["failed"], "metrics": values}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides of one metric over pairs run in the same order."""
    sign = 1 if better == "higher" else -1
    p, c = spread(parent), spread(change)
    return {"better": better, "parent": p, "change": c,
            "change_pct": (100 * (c["median"] - p["median"]) / p["median"]
                           if p["median"] else None),
            "wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
            "pairs": len(parent),
            "median_gap_exceeds_parent_iqr":
                abs(c["median"] - p["median"]) > p["q3"] - p["q1"]}


def merge(doc: dict, workload: str, comparison: dict) -> None:
    """Make `comparison` the latest of `workload` in `doc` and append it,
    without its runs, to the workload's history.  An entry written before
    histories were kept becomes the first point of its history.  Every
    earlier point of any workload whose change has the digest of this
    comparison's parent `became` the parent commit, unless an earlier
    parent of that digest was already recorded."""
    parent = comparison["parent"]
    if digest := parent.get("source_sha256"):
        for entry in doc.values():
            for point in (entry, *entry.get("history", ())):
                if point["change"].get("source_sha256") == digest:
                    point.setdefault("became", parent["commit"])
    previous = doc.get(workload, {})
    history = previous.pop("history", [previous] if previous else [])
    history = [{k: v for k, v in c.items() if k != "runs"}
               for c in (*history, comparison)]
    doc[workload] = {**comparison, "history": history}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_toolchain.json")
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        extract(args.parent, Path(tmp))
        parent_sha256 = source_sha256(Path(tmp))
        sides = {"parent": Path(tmp), "change": ROOT}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            run = {"pair": pair, "first": order[0]}
            for side in order:
                run[side] = run_once(sides[side], args.workload, args.seed,
                                     args.seconds)
            runs.append(run)
            print(json.dumps(run), flush=True)
    metrics = {m["name"]: summarize([r["parent"]["metrics"][m["name"]] for r in runs],
                                    [r["change"]["metrics"][m["name"]] for r in runs],
                                    m["better"])
               for m in declared}
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    merge(doc, args.workload, {
        "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "parent": {"commit": git("rev-parse", args.parent),
                   "source_sha256": parent_sha256},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(git("status", "--porcelain")),
                   "source_sha256": source_sha256(ROOT)},
        "failed_ops": {side: sum(r[side]["failed"] for r in runs)
                       for side in ("parent", "change")},
        "metrics": metrics, "runs": runs})
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, m in metrics.items():
        print(f"{name:14s} {m['parent']['median']:>12.6g} -> "
              f"{m['change']['median']:>12.6g}  wins {m['wins']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
