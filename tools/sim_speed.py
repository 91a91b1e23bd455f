#!/usr/bin/env python3
"""Untraced simulator speed in µs per simulated cycle, written to BENCH_sim.json.

Run from anywhere in a checkout of the repository (stdlib only, in-process):

    python3 tools/sim_speed.py [--out BENCH_sim.json] [--repeats 5]

It builds the seed-1 corpus_sweep points and the seed-1 wide_sim ladder
with `bench/run.py`'s own generators, which it imports and does not change,
and times `Simulator.run` alone, untraced, on each circuit's points:

- `cold`: the first pass over the points on a fresh plan, so a tiered
  simulator pays here for counting its snapshots;
- `hot`: one pass after `--warmup` passes on the same plan, once every
  snapshot that recurs often enough has been compiled.

After the timed passes, one more hot pass counts the calls of each plan's
compiled traces, `trace_calls_per_pass`, and the cycles those calls run,
`cycles_per_trace_call`; a call that leaves before its first cycle counts
0 cycles.

Each figure is the median over `--repeats` passes of a pass's summed run
time over its summed cycles, each run's time scaled to reference seconds by
the clock `bench/run.py` scales a simulator op's time by, which tracks a
host whose speed drifts.  `power_3_5000` is one cold run of `power(3,
5000)` on a freshly compiled circuit, the length of a `minihls sim` call,
timed the same way.  `--points N` keeps the first N points of each
workload.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_bench_run():
    """`bench/run.py` as a module, importing minihls from this checkout."""
    sys.dont_write_bytecode = True  # leave no cache files under bench/
    sys.path.insert(0, str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pass_us_per_cycle(bench, api, runs) -> tuple[float, int]:
    """µs per cycle of `Simulator.run` over one untraced pass, and its
    cycles; each run's time is in reference seconds, scaled by the clock
    `bench/run.py` scales a simulator op's time by."""
    clock = bench.RefClock(bench.LOOP_KERNEL)
    run_s = cycles = 0
    for g, args in runs:
        sim = api.sim.Simulator(g, args)
        t0 = time.perf_counter()
        cycles += sim.run().total_cycles
        run_s += (time.perf_counter() - t0) * clock.scale()
    return run_s / cycles * 1e6, cycles


def workload(bench, api, prep, points: int | None, repeats: int, warmup: int) -> dict:
    runs = [(prep.circuits[item["program"]].cdfg, tuple(item["args"]))
            for item in prep.items[:points]]
    cold = []
    for _ in range(repeats):
        for g, _ in runs:
            g.sim_plan = None  # a fresh plan
        us, cycles = pass_us_per_cycle(bench, api, runs)
        cold.append(us)
    for _ in range(warmup):
        for g, args in runs:
            api.sim.simulate(g, args)
    hot = [pass_us_per_cycle(bench, api, runs)[0] for _ in range(repeats)]
    calls = counted_trace_calls(api, runs)
    return {"points": len(runs), "cycles_per_pass": cycles,
            "cold_us_per_cycle": statistics.median(cold),
            "hot_us_per_cycle": statistics.median(hot),
            "trace_calls_per_pass": len(calls),
            "cycles_per_trace_call": sum(calls) / len(calls) if calls else 0.0}


def counted_trace_calls(api, runs) -> list[int]:
    """The cycles each trace call of one pass over `runs` runs, by wrapping
    each plan's compiled traces for the pass and restoring them after."""
    calls, tables = [], {}
    for g, _ in runs:
        tables[id(g)] = api.sim.SimPlan.of(g).cycles
    saved = [(table, dict(table)) for table in tables.values()]
    for table, steps in saved:
        for work, step in steps.items():
            if not isinstance(step, int):
                def counted(s, chan, max_cycles, step=step):
                    start = s.cycle
                    hands = step(s, chan, max_cycles)
                    calls.append(s.cycle - start)
                    return hands
                table[work] = counted
    for g, args in runs:
        api.sim.Simulator(g, args).run()
    for table, steps in saved:
        table.update((work, step) for work, step in steps.items() if not isinstance(step, int))
    return calls


def long_run(bench, api, repeats: int) -> dict:
    runs = []
    for _ in range(repeats):
        g = api.pipeline.compile_source(api.corpus.load("power"),
                                        api.corpus.SIGNATURES["power"]).cdfg
        runs.append(pass_us_per_cycle(bench, api, [(g, (3, 5000))]))
    return {"cycles": runs[0][1],
            "cold_us_per_cycle": statistics.median(us for us, _ in runs)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_sim.json")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--warmup", type=int, default=150)
    ap.add_argument("--points", type=int, default=None)
    args = ap.parse_args(argv)
    bench = load_bench_run()
    api = bench.load_minihls()
    results = {}
    for name, gen in (("corpus_sweep", bench._gen_corpus_sweep),
                      ("wide_sim", bench._gen_wide_sim)):
        results[name] = workload(bench, api, gen(api, 1), args.points, args.repeats,
                                 args.warmup)
    results["power_3_5000"] = long_run(bench, api, args.repeats)
    report = {"tool": "tools/sim_speed.py", "unit": "reference us per simulated cycle",
              "repeats": args.repeats, "warmup_passes": args.warmup,
              "python": platform.python_version(),
              "machine": f"{platform.machine()} {platform.processor()}".strip(),
              "results": results}
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for name, r in results.items():
        print(f"{name:14} " + "  ".join(f"{k}={v:.3f}" if isinstance(v, float) else f"{k}={v}"
                                        for k, v in r.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
