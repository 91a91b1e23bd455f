"""Command line interface.

Subcommands cover the whole flow: compile (VHDL out), run (reference
interpreter), sim (token-flow simulator), diff (interpreter vs simulator
over argument sweeps), stats (block/component table), and the dump
commands for the intermediate artifacts.

A config file holds flat key=value lines using the long option names
(sig=i64,i64 or max_cycles=5000); command line flags win over the file.
Programs can be given as a path or as the name of a bundled example.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from pathlib import Path

from . import corpus
from .cdfg import component_stats, export_dot, to_json
from .errors import CliError, MiniHlsError, Pos
from .interp import DEFAULT_FUEL, run_source
from .ir import print_function
from .lattice import LatticeType, format_dispatch_table, format_value
from .pipeline import (STAGES, compile_source, parse_args_for, parse_sig,
                       parse_value, timed)
from .sim import DEFAULT_MAX_CYCLES, simulate
from .vhdl import emit_vhdl, lint_netlist

# Block and component totals for the bundled programs as produced by the
# toolchain this one is a reimplementation of; stats prints them beside
# our own numbers so drift stays visible.
BASELINE_COUNTS = {
    "if_else": (5, 41),
    "power": (4, 61),
    "newton_raphson": (10, 225),
}

_TIMED = (*STAGES, "emit", "lint")

STATS_COLUMNS = ("program", "bb_unopt", "bb_opt", "components_total",
                 "components_by_kind", "bb_ref", "components_ref")


# ---------------------------------------------------------------------------
# Option plumbing
# ---------------------------------------------------------------------------


# The keys `_Options.get` reads; a config file may hold no other.
CONFIG_KEYS = frozenset({"function", "sig", "lenient", "no_opt", "latency",
                         "out", "fuel", "max_cycles", "trace", "format",
                         "timing"})


def load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = value
    return cfg


def _truthy(text: str) -> bool:
    if text.lower() in ("1", "true", "yes", "on"):
        return True
    if text.lower() in ("0", "false", "no", "off"):
        return False
    raise CliError(f"expected a boolean, got {text!r}")


class _Options:
    """Merged view of command line, config file, and defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default=None, cast=None):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        if key in self.cfg:
            raw = self.cfg[key]
            return cast(raw) if cast else raw
        return default


def parse_latency_spec(spec: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise CliError(f"latency entries look like opcode=N, got {part!r}")
        opcode, _, num = part.partition("=")
        try:
            out[opcode.strip()] = int(num)
        except ValueError:
            raise CliError(f"latency for {opcode.strip()!r} must be an "
                           f"integer, got {num!r}") from None
    return out


def _resolve_program(name_or_path: str) -> tuple[str, str | None]:
    """Returns (source text, bundled name or None)."""
    p = Path(name_or_path)
    if p.exists():
        return p.read_text(), None
    if name_or_path in corpus.PROGRAMS:
        return corpus.load(name_or_path), name_or_path
    raise CliError(f"no such file or bundled program: {name_or_path!r}")


def _compile(opts: _Options):
    text, bundled = _resolve_program(opts.args.program)
    sig_text = opts.get("sig")
    if sig_text is not None:
        sig = parse_sig(sig_text)
    elif bundled is not None:
        sig = corpus.SIGNATURES[bundled]
    else:
        sig = None  # fall back to parameter annotations
    latency = opts.get("latency")
    return compile_source(
        text, sig,
        function=opts.get("function", bundled),
        strict=not opts.get("lenient", False, _truthy),
        opt=not opts.get("no_opt", False, _truthy),
        latencies=parse_latency_spec(latency) if latency else None)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_compile(opts: _Options) -> int:
    res = _compile(opts)
    files = emit_vhdl(res.cdfg)
    problems = lint_netlist(files)
    if problems:
        raise CliError("emitted netlist failed lint: " + "; ".join(problems))
    out = opts.get("out")
    if out is None:
        raise CliError("compile needs --out DIR")
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    for fname, content in files.items():
        (outdir / fname).write_bytes(content.encode())
    stats = component_stats(res.cdfg)
    print(f"{res.func.name}: blocks {len(res.ssa_unopt.blocks)} -> "
          f"{len(res.ssa.blocks)}, components {stats['total']} "
          f"({res.n_buffers} buffers), wrote {len(files)} files to {outdir}")
    return 0


def cmd_run(opts: _Options) -> int:
    res = _compile(opts)
    values = parse_args_for(res, opts.args.values)
    fuel = opts.get("fuel", DEFAULT_FUEL, int)
    print(format_value(run_source(res.func, values, fuel=fuel)))
    return 0


def cmd_sim(opts: _Options) -> int:
    res = _compile(opts)
    values = parse_args_for(res, opts.args.values)
    max_cycles = opts.get("max_cycles", DEFAULT_MAX_CYCLES, int)
    trace = opts.get("trace")
    report = simulate(res.cdfg, values, max_cycles=max_cycles,
                      trace=trace is not None)
    if trace is not None:
        with open(trace, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cycle", "component", "event"])
            writer.writerows(report.events)
    print(format_value(report.output))
    print(f"cycles={report.exit_cycle} total={report.total_cycles} "
          f"max_occupancy={report.max_occupancy} leftover={report.leftover}",
          file=sys.stderr)
    return 0


def _parse_sweep(spec: str, ty: LatticeType) -> list | range:
    """A comma-separated list of values, or lo..hi (both included) for an
    Int64; each value is spelled as `parse_value` reads it."""
    spec = spec.strip()
    if not spec:
        return []
    if ".." in spec and ty == LatticeType.INT64:
        lo, _, hi = spec.partition("..")
        return range(parse_value(lo.strip(), ty), parse_value(hi.strip(), ty) + 1)
    return [parse_value(part.strip(), ty) for part in spec.split(",")]


def _agree(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if a != a and b != b:  # both nan
            return True
        if a == b:
            return True
        scale = max(abs(a), abs(b))
        return scale > 0 and abs(a - b) / scale < 1e-9
    return a == b and type(a) is type(b)


def cmd_diff(opts: _Options) -> int:
    res = _compile(opts)
    sweeps_spec = opts.args.sweep or []
    if len(sweeps_spec) != len(res.sig):
        raise CliError(f"{res.func.name} has {len(res.sig)} parameter(s); "
                       f"pass one --sweep per parameter")
    sweeps = [_parse_sweep(s, ty) for s, ty in zip(sweeps_spec, res.sig)]
    if not all(sweeps):
        print("warning: empty sweep, nothing to compare", file=sys.stderr)
        return 0
    fuel = opts.get("fuel", DEFAULT_FUEL, int)
    max_cycles = opts.get("max_cycles", DEFAULT_MAX_CYCLES, int)
    # the product made point by point, first sweep slowest: a range may not fit
    points = functools.reduce(
        lambda head, sweep: ((*p, v) for p in head for v in sweep), sweeps, [()])
    mismatches = 0
    for n, point in enumerate(points, 1):
        want = run_source(res.func, point, fuel=fuel)
        got = simulate(res.cdfg, point, max_cycles=max_cycles).output
        if not _agree(want, got):
            mismatches += 1
            print(f"mismatch at ({', '.join(map(format_value, point))}): "
                  f"interp={format_value(want)} sim={format_value(got)}")
    print(f"{res.func.name}: {n} point(s), {mismatches} mismatch(es)")
    return 1 if mismatches else 0


def _stats_row(name: str, res, timing: bool) -> list[str]:
    stats = component_stats(res.cdfg)
    by_kind = ",".join(f"{k}={v}" for k, v in stats.items()
                       if v and k != "total")
    ref = BASELINE_COUNTS.get(name)
    times = []
    if timing:
        stage_s = dict(res.stage_s)
        files = timed(stage_s, "emit", emit_vhdl, res.cdfg)
        timed(stage_s, "lint", lint_netlist, files)
        times = [f"{stage_s[s] * 1e3:.3f}" for s in _TIMED]
    return [name, str(len(res.ssa_unopt.blocks)), str(len(res.ssa.blocks)),
            str(stats["total"]), by_kind,
            str(ref[0]) if ref else "", str(ref[1]) if ref else "", *times]


def cmd_stats(opts: _Options) -> int:
    programs = list(opts.args.programs)
    if opts.args.corpus or not programs:
        programs = list(corpus.PROGRAMS) + programs
    writer = csv.writer(sys.stdout, delimiter="\t", lineterminator="\n")
    timing = opts.get("timing", False, _truthy)
    writer.writerow([*STATS_COLUMNS, *(f"{s}_ms" for s in _TIMED if timing)])
    for prog in programs:
        opts.args.program = prog
        res = _compile(opts)
        writer.writerow(_stats_row(res.func.name, res, timing))
    return 0


def cmd_dump_ir(opts: _Options) -> int:
    res = _compile(opts)
    print("== unoptimized ==")
    print(print_function(res.ssa_unopt), end="")
    if res.ssa is not res.ssa_unopt:
        print("== optimized ==")
        print(print_function(res.ssa), end="")
    return 0


def cmd_dump_cdfg(opts: _Options) -> int:
    res = _compile(opts)
    fmt = opts.get("format", "json")
    if fmt == "dot":
        print(export_dot(res.cdfg), end="")
    else:
        print(to_json(res.cdfg), end="")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, program_arg: bool = True) -> None:
    if program_arg:
        p.add_argument("program",
                       help="source file path or bundled program name")
    p.add_argument("--function", help="function to compile (default: first)")
    p.add_argument("--sig", help="entry signature, e.g. i64,i64 or f64")
    p.add_argument("--lenient", action="store_const", const=True,
                   help="record type instability instead of rejecting it")
    p.add_argument("--no-opt", dest="no_opt", action="store_const", const=True,
                   help="skip the optimization passes")
    p.add_argument("--latency",
                   help="operator latency overrides, e.g. mul_i64=4,fdiv_f64=12")
    p.add_argument("--config", help="flat key=value option file")


class _Subcommand(argparse.ArgumentParser):
    """A subcommand parser that takes options and positionals in any
    order, so `run power --no-opt 2 3` reads as `run power 2 3 --no-opt`."""

    _intermixing = False

    def parse_known_args(self, args=None, namespace=None):
        # The intermixed parse calls this method itself, once for the
        # options and once for the positionals.
        if self._intermixing:
            return super().parse_known_args(args, namespace)
        self._intermixing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._intermixing = False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minihls",
        description="compile a small imperative language to an elastic "
                    "dataflow circuit")
    parser.add_argument("--dump-dispatch", action="store_true",
                        help="print the operator dispatch table and exit")
    sub = parser.add_subparsers(dest="command", parser_class=_Subcommand)

    p = sub.add_parser("compile", help="emit a VHDL netlist")
    _add_common(p)
    p.add_argument("--out", help="output directory for the netlist")
    p.set_defaults(handler=cmd_compile)

    p = sub.add_parser("run", help="evaluate with the reference interpreter")
    _add_common(p)
    p.add_argument("values", nargs="*", help="entry arguments")
    p.add_argument("--fuel", type=int, help="evaluation step budget")
    p.set_defaults(handler=cmd_run)

    p = sub.add_parser("sim", help="simulate the circuit cycle by cycle")
    _add_common(p)
    p.add_argument("values", nargs="*", help="entry arguments")
    p.add_argument("--max-cycles", dest="max_cycles", type=int)
    p.add_argument("--trace", help="write a cycle,component,event CSV")
    p.set_defaults(handler=cmd_sim)

    p = sub.add_parser("diff",
                       help="compare interpreter and simulator over sweeps")
    _add_common(p)
    p.add_argument("--sweep", action="append",
                   help="per-parameter values: lo..hi or a comma list "
                        "(repeat once per parameter)")
    p.add_argument("--fuel", type=int)
    p.add_argument("--max-cycles", dest="max_cycles", type=int)
    p.set_defaults(handler=cmd_diff)

    p = sub.add_parser("stats", help="print a block/component TSV table")
    p.add_argument("programs", nargs="*",
                   help="programs to measure (default: the bundled corpus)")
    p.add_argument("--corpus", action="store_true",
                   help="include the bundled corpus programs")
    p.add_argument("--timing", action="store_const", const=True,
                   help="add columns timing each compile stage, emit and lint")
    _add_common(p, program_arg=False)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("dump-ir", help="print the SSA form")
    _add_common(p)
    p.set_defaults(handler=cmd_dump_ir)

    p = sub.add_parser("dump-cdfg", help="print the circuit graph")
    _add_common(p)
    p.add_argument("--format", choices=("json", "dot"))
    p.set_defaults(handler=cmd_dump_cdfg)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.dump_dispatch:
        print(format_dispatch_table(), end="")
        return 0
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 2
    return args.handler(_Options(args))


def entry_point(argv: list[str] | None = None) -> int:
    try:
        return main(argv)
    except MiniHlsError as e:
        loc = f" {e.pos}:" if e.pos is not None and e.pos != Pos(0, 0) else ""
        print(f"error[{e.stage}]{loc} {e.message}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error[cli] {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(entry_point())
