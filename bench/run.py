#!/usr/bin/env python3
"""Benchmark for the minihls toolchain.

Run from the repository root; minihls is imported from `src/` (no
install needed, stdlib only):

    python3 bench/run.py --workload corpus_sweep --seed 1 --seconds 10 --trace 0

One process, one single-threaded client in a closed loop: the next op
starts when the previous one returns.  There are no queues, so waiting
time is zero by construction and is not reported.  The seed alone makes
the inputs; minihls sees only the generated programs and input points.

Workloads (one op is one unit of work; a pass is one op per input):

* compile_ladder -- one op is the full compile of one generated diamond
  ladder (see ladder.py): `pipeline.compile_source`, `vhdl.emit_vhdl`
  and `vhdl.lint_netlist`, then `interp.run_source` = `interp.run_ssa`
  before and after the passes on two input points.  A pass holds 28
  programs: 20 small ones (n <= 5, so `op_ms_p50` is a corpus-sized
  compile), 6 medium ones, and n = 160 narrow plus n = 64 wide, whose
  superlinear stages dominate `ops_per_s`.  The simulator does no work.
* corpus_sweep -- one op is one checked input point, as `minihls diff`
  does per point: `run_source`, `run_ssa` on the optimized SSA and
  `sim.simulate`, compared.  The three corpus circuits are compiled in
  set-up.  A pass draws 24 if_else points, 28 power points with
  exponents stratified over 0..149 and 28 newton_raphson points with x0
  stratified log-uniformly over [0.1, 100]; stratifying keeps the work
  of a pass nearly the same for every seed.
* wide_sim -- the same checked op on one generated wide ladder (n = 10,
  about 430 components) whose loop runs once: few cycles per point, a
  large circuit and about 1.8 firings per cycle.  A pass is 40 points.

Every op is checked: integers exactly, floats to 1e-9 relative,
newton_raphson within 1e-6 of sqrt(2), the simulator's leftover tokens
must be 0 and lint must be clean (`cdfg.check` runs inside
`compile_source` and `Simulator`, which raise on a violation).  A failed
check or an exception fails the op; it is reported with its workload,
pass, op index and inputs, and counted, never dropped.  Each pass must
also reproduce the first pass's results and counts exactly.

Measurement: set-up (import of minihls, input generation, set-up
compiles) runs SETUP_REPS times and `setup_s` is the median.  Then whole
passes run until `--seconds` have passed and at least MIN_OPS ops are
done.  `ops_per_s` is the median over passes of ops / summed op time;
`op_ms_p50` and `op_ms_p90` are over every op.  Count metrics cover one
pass (plus set-up compiles), so they repeat exactly for a seed.

Times are in reference seconds, not raw wall seconds.  A shared 2-vCPU
Intel Xeon VM was measured running at speeds up to 2x apart for tens of
seconds at a time, which made raw op times spread by 15-40 % between
runs.  So a fixed kernel that never touches minihls is timed right
before and right after every op (and every set-up), and the op's wall
time is scaled by the kernel's nominal duration over their mean
(`RefClock`, `Kernel`).  Sim ops use a dict loop, compiles and set-up
an import-like kernel: each tracks that code's slowdowns best.  A change
to minihls moves the op and not the kernel, so it shows in full; the
machine's drift moves both and cancels.  The raw wall-clock medians and
the kernels' own timings are in the `--out` report under "wall_clock".

With `--trace 1` the run first measures untraced passes for half of
`--seconds`, then repeats the same number of passes under `Tracer`
(tracing.py), which replays `compile_source` stage by stage and spans
every public call.  It checks itself: every replayed circuit's
`cdfg.to_json` must equal `compile_source`'s byte for byte, and traced
and untraced ops must agree on every count.  Per-layer times are self
times: set-up plus the median over traced passes of a pass's sum.
`trace.overhead_s` is the traced minus the untraced median pass time.
Layers a workload does not exercise report 0.

Output: a table of every metric with its unit and sample count, and as
the last line one JSON object {"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}}.  `--out FILE` also writes the
full report: sample counts, op_fail_ratio with its base, failures,
input hash, the layer -> end-to-end mapping and provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import marshal
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from ladder import ladder_program
from tracing import Direct, Tracer

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "minihls"
MODULES = ("build", "cdfg", "corpus", "interp", "ir", "lower", "passes",
           "pipeline", "sim", "source", "typecheck", "vhdl")

SETUP_REPS = 15
MIN_OPS = 100
REL_TOL_FLOAT = 1e-9
ABS_TOL_NEWTON = 1e-6
SQRT2 = math.sqrt(2.0)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "components": "count",
    "peak_rss_mb": "MB",
    "op_ok_ratio": "ratio",
}

_COMPILE_P50 = "op_ms_p50 on compile_ladder; nothing on the sim workloads"
_COMPILE_BIG = ("ops_per_s and peak_rss_mb on compile_ladder (large n), "
                "components everywhere; only setup_s on the sim workloads")
_VHDL = "op_ms_p50 and ops_per_s on compile_ladder only"
_SIM = ("ops_per_s and op_ms_* on wide_sim (strongly) and corpus_sweep; "
        "nothing on compile_ladder")
# name -> (unit, which end-to-end metric it should move, on which workload)
PER_LAYER = {
    "source.parse_s": ("s", _COMPILE_P50),
    "source.tokens": ("count", _COMPILE_P50),
    "typecheck.infer_s": ("s", _COMPILE_P50),
    "lower.lower_s": ("s", _COMPILE_P50),
    "lower.blocks": ("count", _COMPILE_P50),
    "lower.instrs": ("count", _COMPILE_P50),
    "ir.verify_s": ("s", _COMPILE_BIG),
    "ir.verify_calls": ("count", _COMPILE_BIG),
    "passes.optimize_self_s": ("s", _COMPILE_BIG),
    "passes.blocks_after": ("count", _COMPILE_BIG),
    "passes.selects": ("count", _COMPILE_BIG),
    "build.build_s": ("s", _COMPILE_BIG),
    "build.channels": ("count", _COMPILE_BIG),
    "cdfg.insert_buffers_s": ("s", _COMPILE_BIG),
    "cdfg.buffers": ("count", _COMPILE_BIG),
    "cdfg.check_s": ("s", "op_ms_p50 on corpus_sweep (small share) and "
                          "on compile_ladder"),
    "cdfg.check_calls": ("count", "op_ms_p50 on corpus_sweep and "
                                  "compile_ladder"),
    "vhdl.emit_s": ("s", _VHDL),
    "vhdl.lint_s": ("s", _VHDL),
    "vhdl.bytes": ("count", _VHDL),
    "interp.run_source_s": ("s", "op_ms_p50 on corpus_sweep"),
    "interp.run_ssa_s": ("s", "op_ms_p50 on corpus_sweep"),
    "sim.init_s": ("s", _SIM),
    "sim.run_s": ("s", _SIM),
    "sim.cycles": ("count", _SIM),
    "sim.exit_cycles": ("count", "simulated time of the circuits; moves "
                                 "with sim.cycles"),
    "sim.firings": ("count", _SIM),
    "sim.fire_ratio": ("ratio", _SIM),
    "sim.us_per_cycle": ("us", _SIM),
    "sim.max_occupancy": ("count", _SIM),
    "sim.leftover": ("count", "op_ok_ratio (must stay 0)"),
    "trace.overhead_s": ("s", "none: the cost of tracing itself"),
}

# Per-layer self times and the span whose self time each one sums.
_LAYER_SPANS = {
    "source.parse_s": "source.parse", "typecheck.infer_s": "typecheck.infer",
    "lower.lower_s": "lower.lower", "ir.verify_s": "ir.verify",
    "passes.optimize_self_s": "passes.optimize", "build.build_s": "build.build",
    "cdfg.insert_buffers_s": "cdfg.insert_buffers",
    "cdfg.check_s": "cdfg.check", "vhdl.emit_s": "vhdl.emit",
    "vhdl.lint_s": "vhdl.lint", "interp.run_source_s": "interp.run_source",
    "interp.run_ssa_s": "interp.run_ssa", "sim.init_s": "sim.init",
    "sim.run_s": "sim.run",
}
# Per-layer counts summed over the records of set-up compiles and one pass.
_LAYER_SUMS = {
    "source.tokens": "tokens", "lower.blocks": "blocks_before",
    "lower.instrs": "instrs_before", "passes.blocks_after": "blocks_after",
    "passes.selects": "selects", "build.channels": "build_channels",
    "cdfg.buffers": "buffers", "vhdl.bytes": "vhdl_bytes",
    "sim.cycles": "total_cycles", "sim.exit_cycles": "exit_cycle",
    "sim.firings": "firings", "sim.leftover": "leftover",
}


class OpFailure(Exception):
    """An op ran but its output failed a check."""


# ---------------------------------------------------------------------------
# minihls from this checkout
# ---------------------------------------------------------------------------


def load_minihls() -> SimpleNamespace:
    """Import (or re-import) minihls from src/ and return its modules."""
    if not (PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no minihls sources at {PACKAGE}; run this "
                         f"from a checkout of the repository")
    if str(PACKAGE.parent) not in sys.path:
        sys.path.insert(0, str(PACKAGE.parent))
    for name in [m for m in sys.modules
                 if m == "minihls" or m.startswith("minihls.")]:
        del sys.modules[name]
    api = SimpleNamespace(**{m: importlib.import_module(f"minihls.{m}")
                             for m in MODULES})
    if Path(api.pipeline.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"error: imported minihls from "
                         f"{api.pipeline.__file__}, not from {PACKAGE}")
    return api


def agree(got, want) -> bool:
    """The repository's tolerance: exact for Int64 and Bool, 1e-9 relative
    for Float64 (two nans agree)."""
    if isinstance(want, float) and isinstance(got, float):
        if got == want or (got != got and want != want):
            return True
        scale = max(abs(got), abs(want))
        return scale > 0 and abs(got - want) / scale < REL_TOL_FLOAT
    return got == want and type(got) is type(want)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    """A workload's set-up: one pass of op inputs and the set-up circuits."""

    items: list[dict]
    programs: dict[str, tuple[str, tuple | None]] = field(default_factory=dict)
    circuits: dict[str, object] = field(default_factory=dict)

    def inputs_sha256(self) -> str:
        doc = {"items": self.items,
               "programs": {k: v[0] for k, v in self.programs.items()}}
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass
class Workload:
    generate: Callable[[SimpleNamespace, int], Prepared]
    op: Callable[[SimpleNamespace, object, Prepared, dict], tuple]
    kernel: Kernel  # the reference clock that tracks this op's code best


# (n, wide) of the programs in one compile_ladder pass.  The four
# upper-medium programs cost about the same, and p90 (the 3rd to 4th
# costliest op of a pass) falls among them rather than between two
# programs of different cost, which would make it jump with noise.
LADDER_PASS = ([(n, wide) for n in (1, 2, 3, 4, 5) for wide in (False, True)]
               * 2
               + [(24, False), (12, True)]
               + [(40, False), (40, False), (20, True), (20, True)]
               + [(160, False), (64, True)])
WIDE_SIM_N = 10
WIDE_SIM_POINTS = 40


def _gen_compile_ladder(api, seed: int) -> Prepared:
    rng = random.Random(seed)
    items = []
    for n, wide in LADDER_PASS:
        prog_seed = rng.getrandbits(32)
        items.append({"n": n, "wide": wide, "seed": prog_seed,
                      "text": ladder_program(n, wide, prog_seed),
                      "points": [[rng.randint(-50, 50), rng.randint(-50, 50)]
                                 for _ in range(2)]})
    return Prepared(items)


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k draws, one uniform draw from each of k equal slices of [lo, hi)."""
    w = (hi - lo) / k
    return [lo + (i + rng.random()) * w for i in range(k)]


def _gen_corpus_sweep(api, seed: int) -> Prepared:
    rng = random.Random(seed)
    items = [{"program": "if_else",
              "args": [rng.randint(-20, 20), rng.randint(-20, 20)]}
             for _ in range(24)]
    items += [{"program": "power", "args": [rng.randint(-3, 3), int(e)]}
              for e in _stratified(rng, 0, 150, 28)]
    items += [{"program": "newton_raphson", "args": [10 ** e]}
              for e in _stratified(rng, -1, 2, 28)]
    programs = {name: (api.corpus.load(name), api.corpus.SIGNATURES[name])
                for name in api.corpus.PROGRAMS}
    return _with_circuits(api, Prepared(items, programs))


def _gen_wide_sim(api, seed: int) -> Prepared:
    rng = random.Random(seed)
    text = ladder_program(WIDE_SIM_N, True, rng.getrandbits(32), trips=1)
    items = [{"program": "ladder",
              "args": [rng.randint(-1000, 1000), rng.randint(-1000, 1000)]}
             for _ in range(WIDE_SIM_POINTS)]
    return _with_circuits(api, Prepared(items, {"ladder": (text, None)}))


def _with_circuits(api, prep: Prepared) -> Prepared:
    for name, (text, sig) in prep.programs.items():
        prep.circuits[name] = api.pipeline.compile_source(text, sig)
    return prep


def compile_counts(api, res) -> dict:
    instrs = [i for b in res.ssa.blocks for i in b.instrs]
    return {
        "components": len(res.cdfg.components),
        "channels": len(res.cdfg.channels),
        "buffers": res.n_buffers,
        "blocks_before": len(res.ssa_unopt.blocks),
        "instrs_before": sum(len(b.instrs) for b in res.ssa_unopt.blocks),
        "blocks_after": len(res.ssa.blocks),
        "selects": sum(isinstance(i.op, api.ir.SelectOp) for i in instrs),
    }


def compile_op(api, t, prep: Prepared, item: dict) -> tuple:
    res, extra = t.compile(item["text"])
    with t.span("vhdl.emit"):
        files = api.vhdl.emit_vhdl(res.cdfg)
    with t.span("vhdl.lint"):
        bad = api.vhdl.lint_netlist(files)
    if bad:
        raise OpFailure(f"lint: {'; '.join(bad[:3])}")
    outputs = []
    for args in map(tuple, item["points"]):
        with t.span("interp.run_source"):
            want = api.interp.run_source(res.func, args)
        with t.span("interp.run_ssa"):
            before = api.interp.run_ssa(res.ssa_unopt, args)
        with t.span("interp.run_ssa"):
            after = api.interp.run_ssa(res.ssa, args)
        if not (agree(before, want) and agree(after, want)):
            raise OpFailure(f"{args}: run_source={want!r}, run_ssa before "
                            f"passes={before!r}, after={after!r}")
        outputs.append(want)
    extra["vhdl_bytes"] = sum(len(s.encode()) for s in files.values())
    extra["outputs"] = outputs
    return res, extra


def sim_op(api, t, prep: Prepared, item: dict) -> tuple:
    name, args = item["program"], tuple(item["args"])
    res = prep.circuits[name]
    with t.span("interp.run_source"):
        want = api.interp.run_source(res.func, args)
    with t.span("interp.run_ssa"):
        ssa_out = api.interp.run_ssa(res.ssa, args)
    report, extra = t.simulate(res.cdfg, args)
    got = report.output
    problems = []
    if not agree(ssa_out, want):
        problems.append(f"run_ssa={ssa_out!r} != run_source={want!r}")
    if not agree(got, want):
        problems.append(f"simulate={got!r} != run_source={want!r}")
    if report.leftover != 0:
        problems.append(f"{report.leftover} leftover token(s)")
    if name == "newton_raphson" and not abs(got - SQRT2) < ABS_TOL_NEWTON:
        problems.append(f"{got!r} not within {ABS_TOL_NEWTON} of sqrt(2)")
    if problems:
        raise OpFailure("; ".join(problems))
    extra.update(output=got, exit_cycle=report.exit_cycle,
                 total_cycles=report.total_cycles,
                 max_occupancy=report.max_occupancy, leftover=report.leftover,
                 component_cycles=report.total_cycles
                 * len(res.cdfg.components))
    return None, extra




# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _loop() -> None:
    acc: dict[int, int] = {}
    for i in range(2000):
        k = i % 31
        acc[k] = acc.get(k, 0) + len((i, k))


_MODULE = marshal.dumps(compile("from dataclasses import dataclass\n" + "".join(
    f"@dataclass\nclass C{i}:\n    a: int\n    b: str = ''\n"
    f"    def f(self, x):\n        return [self.a + x for _ in range(3)]\n"
    for i in range(6)), "<reference kernel>", "exec", dont_inherit=True))


def _import() -> None:
    exec(marshal.loads(_MODULE), {"__name__": "reference_kernel"})


@dataclass(frozen=True)
class Kernel:
    """Fixed pure-Python work that never touches minihls, used as a clock.

    A shared 2-vCPU Intel Xeon VM (Python 3.11.7) was measured running
    at speeds up to 2x apart for tens of seconds at a time, and not every
    kind of code slowed by the same factor.  On recorded traces there, a
    dict loop tracked the simulator and interpreters best, and
    unmarshalling and running a small dataclass module tracked imports
    and compiles best (run-to-run spread 2-4 % against 15-25 % for raw
    time).  `nominal_s` is about the kernel's median duration between
    ops on that VM.
    """

    work: Callable[[], None]
    nominal_s: float

    def time(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0


LOOP_KERNEL = Kernel(_loop, 0.0004)
IMPORT_KERNEL = Kernel(_import, 0.003)


class RefClock:
    """Scales intervals to reference seconds: wall seconds times the
    kernel's nominal duration over the mean of the kernel timed just
    before and just after the interval."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.ref_s: list[float] = []
        self._before = kernel.time()

    def scale(self) -> float:
        """Call right after an interval ends; returns its scale factor."""
        after = self.kernel.time()
        self.ref_s.append(after)
        factor = 2 * self.kernel.nominal_s / (self._before + after)
        self._before = after
        return factor


WORKLOADS = {
    "compile_ladder": Workload(_gen_compile_ladder, compile_op, IMPORT_KERNEL),
    "corpus_sweep": Workload(_gen_corpus_sweep, sim_op, LOOP_KERNEL),
    "wide_sim": Workload(_gen_wide_sim, sim_op, LOOP_KERNEL),
}


@dataclass
class Passes:
    """What a series of whole passes measured; times in reference seconds,
    with the raw wall-clock figures beside them."""

    latencies: list[float] = field(default_factory=list)
    wall_latencies: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)  # summed op time
    pass_wall_s: list[float] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)  # first pass, per op
    failures: list[dict] = field(default_factory=list)
    layer_self: list[dict] = field(default_factory=list)  # traced, per pass
    layer_calls: list[Counter] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    attempted: int = 0


def _failure(phase: str, pass_no: int, op: int, item: dict, error: str) -> dict:
    inputs = {k: v for k, v in item.items() if k != "text"}
    return {"phase": phase, "pass": pass_no, "op": op, "inputs": inputs,
            "error": error}


def run_passes(wl: Workload, api, t, prep: Prepared, phase: str,
               seconds: float = 0.0, min_ops: int = 0,
               n_passes: int | None = None,
               fingerprint: bool = False) -> Passes:
    """Whole passes until `seconds` and `min_ops` are reached, or exactly
    `n_passes` passes."""
    out = Passes()
    clock = RefClock(wl.kernel)
    start = time.perf_counter()
    while True:
        pass_no = len(out.pass_s)
        scale: dict[int, float] = {}
        for i, item in enumerate(prep.items):
            t.op = i
            t0 = time.perf_counter()
            try:
                res, record = wl.op(api, t, prep, item)
                error = None
            except OpFailure as e:
                error = str(e)
            except Exception as e:  # a failed op is counted, not fatal
                error = "".join(traceback.format_exception_only(e)).strip()
            wall = time.perf_counter() - t0
            scale[i] = clock.scale()
            out.wall_latencies.append(wall)
            out.latencies.append(wall * scale[i])
            out.attempted += 1
            if error is None:
                if res is not None:
                    record.update(compile_counts(api, res))
                    if fingerprint:
                        record["cdfg_sha256"] = hashlib.sha256(
                            api.cdfg.to_json(res.cdfg).encode()).hexdigest()
                if pass_no == 0:
                    out.records.append(record)
                elif record != out.records[i]:
                    error = "result or counts differ from the first pass"
            elif pass_no == 0:
                out.records.append({})
            if error is not None:
                out.failures.append(_failure(phase, pass_no, i, item, error))
        n = len(prep.items)
        out.pass_s.append(sum(out.latencies[-n:]))
        out.pass_wall_s.append(sum(out.wall_latencies[-n:]))
        if isinstance(t, Tracer):
            self_s, calls = t.take(scale)
            out.layer_self.append(self_s)
            out.layer_calls.append(calls)
        if n_passes is not None:
            if len(out.pass_s) >= n_passes:
                break
        elif (time.perf_counter() - start >= seconds
              and len(out.latencies) >= min_ops):
            break
    out.ref_s = clock.ref_s
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _p50_p90(xs: list[float]) -> tuple[float, float]:
    return statistics.median(xs), statistics.quantiles(xs, n=10)[8]


def count_failed(failures: list[dict]) -> int:
    """Failed ops: an op can fail more than one check."""
    return len({(f["phase"], f["pass"], f["op"]) for f in failures})


def end_to_end_metrics(prep: Prepared, setup: list[float], p: Passes) -> dict:
    n_items = len(prep.items)
    failed = count_failed(p.failures)
    if prep.circuits:
        components = sum(len(r.cdfg.components) for r in prep.circuits.values())
        n_circuits = len(prep.circuits)
    else:
        components = sum(r.get("components", 0) for r in p.records)
        n_circuits = n_items
    p50, p90 = _p50_p90(p.latencies)
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "ops_per_s": (statistics.median(n_items / s for s in p.pass_s),
                      len(p.pass_s)),
        "op_ms_p50": (p50 * 1e3, len(p.latencies)),
        "op_ms_p90": (p90 * 1e3, len(p.latencies)),
        "components": (components, n_circuits),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "op_ok_ratio": ((p.attempted - failed) / p.attempted, p.attempted),
    }
    return {name: {"value": v, "unit": END_TO_END[name], "samples": n}
            for name, (v, n) in values.items()}


def wall_clock(setup_wall: list[float], setup_ref: list[float],
               p: Passes) -> dict:
    """The raw wall-clock figures behind the reference-second metrics."""
    p50, p90 = _p50_p90(p.wall_latencies)
    return {"setup_s": statistics.median(setup_wall),
            "setup_kernel_ms_p50": statistics.median(setup_ref) * 1e3,
            "ops_per_s": statistics.median(
                len(p.records) / s for s in p.pass_wall_s),  # one per op
            "op_ms_p50": p50 * 1e3, "op_ms_p90": p90 * 1e3,
            "op_kernel_ms_p50": statistics.median(p.ref_s) * 1e3}


def traced_run(wl: Workload, api, prep: Prepared, seconds: float):
    """Untraced passes, then as many traced ones; returns the per-layer
    metrics, the two Passes and the self-check failures."""
    base = run_passes(wl, api, Direct(api), prep, "untraced",
                      seconds=seconds / 2, fingerprint=True)
    checks = []
    setup_records = []
    with Tracer(api) as tracer:
        clock = RefClock(IMPORT_KERNEL)
        scale = {}
        for i, (name, (text, sig)) in enumerate(prep.programs.items()):
            tracer.op = -1 - i
            res, record = tracer.compile(text, sig)
            scale[tracer.op] = clock.scale()
            record.update(compile_counts(api, res))
            setup_records.append(record)
            want = prep.circuits[name]
            if (api.cdfg.to_json(res.cdfg) != api.cdfg.to_json(want.cdfg)
                    or compile_counts(api, want) != compile_counts(api, res)):
                checks.append(_failure("trace-setup", 0, tracer.op,
                                       {"program": name},
                                       "replayed cdfg.to_json or counts "
                                       "differ from compile_source's"))
        setup_self, setup_calls = tracer.take(scale)
        traced = run_passes(wl, api, tracer, prep, "traced",
                            n_passes=len(base.pass_s), fingerprint=True)
    for i, (a, b) in enumerate(zip(base.records, traced.records)):
        shared = a.keys() & b.keys()
        if {k: a[k] for k in shared} != {k: b[k] for k in shared}:
            checks.append(_failure("trace", 0, i, prep.items[i],
                                   "traced and untraced results or counts "
                                   "differ"))
    if any(c != traced.layer_calls[0] for c in traced.layer_calls):
        checks.append(_failure("trace", 0, -1, {}, "span counts differ "
                               "between traced passes"))

    n_passes = len(traced.layer_self)
    records = setup_records + traced.records
    values = {}
    for metric, span in _LAYER_SPANS.items():
        values[metric] = (setup_self[span] + statistics.median(
            p[span] for p in traced.layer_self), n_passes)
    for metric, key in _LAYER_SUMS.items():
        values[metric] = (sum(r.get(key, 0) for r in records), len(records))
    calls = setup_calls + traced.layer_calls[0]
    values["ir.verify_calls"] = (calls["ir.verify"], len(records))
    values["cdfg.check_calls"] = (calls["cdfg.check"], len(records))
    comp_cycles = sum(r.get("component_cycles", 0) for r in records)
    values["sim.fire_ratio"] = (
        values["sim.firings"][0] / comp_cycles if comp_cycles else 0.0,
        len(records))
    cycles = values["sim.cycles"][0]
    values["sim.us_per_cycle"] = (statistics.median(
        p["sim.run"] / cycles * 1e6 for p in traced.layer_self)
        if cycles else 0.0, n_passes)
    values["sim.max_occupancy"] = (
        max((r.get("max_occupancy", 0) for r in records), default=0),
        len(records))
    values["trace.overhead_s"] = (statistics.median(traced.pass_s)
                                  - statistics.median(base.pass_s), n_passes)
    metrics = {name: {"value": values[name][0], "unit": PER_LAYER[name][0],
                      "samples": values[name][1], "moves": PER_LAYER[name][1]}
               for name in PER_LAYER}
    return metrics, base, traced, checks


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def git_head() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, inputs_sha256: str) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "machine": platform.machine(), "seed": seed,
            "git_head": git_head(), "inputs_sha256": inputs_sha256}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    setup, setup_wall = [], []
    clock = RefClock(IMPORT_KERNEL)
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        api = load_minihls()
        prep = wl.generate(api, seed)
        setup_wall.append(time.perf_counter() - t0)
        setup.append(setup_wall[-1] * clock.scale())
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace)}
    if trace:
        metrics, base, traced, failures = traced_run(wl, api, prep, seconds)
        failures += base.failures + traced.failures
        attempted = base.attempted + traced.attempted + len(prep.programs)
        report["wall_clock"] = {
            "untraced": wall_clock(setup_wall, clock.ref_s, base),
            "traced": wall_clock(setup_wall, clock.ref_s, traced)}
    else:
        p = run_passes(wl, api, Direct(api), prep, "untraced",
                       seconds=seconds, min_ops=MIN_OPS)
        metrics = end_to_end_metrics(prep, setup, p)
        failures, attempted = p.failures, p.attempted
        report["wall_clock"] = wall_clock(setup_wall, clock.ref_s, p)
    failed = count_failed(failures)
    report.update({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "op_fail_ratio": {"value": failed / attempted, "unit": "ratio",
                          "base": attempted},
        "metrics": metrics,
        "failures": failures,
        "time_basis": "reference seconds: set-up and compiles by the "
                      f"import kernel ({IMPORT_KERNEL.nominal_s} s), sim ops "
                      f"by the loop kernel ({LOOP_KERNEL.nominal_s} s)",
        "waiting": "not measured: one single-threaded closed-loop client "
                   "and no queues, so waiting time is zero by construction",
        "provenance": provenance(seed, prep.inputs_sha256()),
    })
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path,
                    help="also write the full report as JSON to this file")
    args = ap.parse_args(argv)

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for f in report["failures"]:
        print(f"FAILED {args.workload} {f['phase']} pass {f['pass']} op "
              f"{f['op']} inputs={json.dumps(f['inputs'])}: {f['error']}",
              file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={report['attempted']} failed={report['failed']} "
          f"inputs_sha256={report['provenance']['inputs_sha256']}")
    for name, m in report["metrics"].items():
        print(f"{name:24s} {m['value']:>16.6g} {m['unit']:6s} "
              f"samples={m['samples']}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in report["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
