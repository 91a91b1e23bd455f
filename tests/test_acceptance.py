"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as
they print; tolerances are pinned here and nowhere else.
"""

import time

import pytest

from conftest import SWEEPS, corpus_compile
from minihls import cli, corpus, typecheck
from minihls.cdfg import check, component_stats
from minihls.errors import UnstableTypeError
from minihls.interp import run_source, run_ssa
from minihls.ir import print_function, verify
from minihls.lower import lower
from minihls.passes import if_convert, merge_blocks, optimize
from minihls.sim import simulate
from minihls.source import parse_source
from minihls.vhdl import emit_vhdl, instance_count, lint_netlist

REL_TOL_FLOAT = 1e-9  # simulator vs interpreter, float outputs
ABS_TOL_NEWTON = 1e-6  # newton_raphson vs closed form
SQRT2 = 1.4142135623730951
TIME_BUDGET_S = 10.0

UNOPT_BLOCKS = {"if_else": 5, "power": 4}
NEWTON_UNOPT_BAND = range(7, 13)
OPT_LIMIT = {"if_else": 3, "newton_raphson": 8}
REFERENCE_TOTALS = {"if_else": 41, "power": 61, "newton_raphson": 225}


def agree(got, want):
    if isinstance(want, float):
        if got == want:
            return True
        scale = max(abs(got), abs(want))
        return scale > 0 and abs(got - want) / scale < REL_TOL_FLOAT
    return got == want and type(got) is type(want)


@pytest.fixture(scope="module")
def sweep_runs():
    """Simulate every acceptance input once; criteria 1, 2 and 5 share it."""
    runs = {}
    t0 = time.perf_counter()
    for name in corpus.PROGRAMS:
        g = corpus_compile(name).cdfg
        fn = parse_source(corpus.load(name)).functions[0]
        rows = []
        for point in SWEEPS[name]:
            rows.append((point, run_source(fn, point), simulate(g, point)))
        runs[name] = rows
    runs["elapsed"] = time.perf_counter() - t0
    return runs


def finish(num, name, problems, extra=""):
    status = "PASS" if not problems else "FAIL"
    print(f"[criterion {num}] {name}: {status}{extra}")
    assert not problems, "\n".join(problems)


def test_criterion_1_differential_correctness(sweep_runs):
    problems = []
    n_points = 0
    for name in corpus.PROGRAMS:
        for point, want, report in sweep_runs[name]:
            n_points += 1
            if not agree(report.output, want):
                problems.append(f"{name}{point}: sim={report.output!r} "
                                f"interp={want!r}")
    for (x0,), _, report in sweep_runs["newton_raphson"]:
        if abs(report.output - SQRT2) >= ABS_TOL_NEWTON:
            problems.append(f"newton_raphson({x0}) = {report.output!r}, "
                            f"not within {ABS_TOL_NEWTON} of sqrt(2)")
    elapsed = sweep_runs["elapsed"]
    if elapsed >= TIME_BUDGET_S:
        problems.append(f"sweeps took {elapsed:.2f}s, budget {TIME_BUDGET_S}s")
    finish(1, "differential correctness", problems,
           f" ({n_points} points, {elapsed:.2f}s)")


def test_criterion_2_basic_block_reproduction(sweep_runs):
    problems = []
    counts = {}
    for name in corpus.PROGRAMS:
        res = corpus_compile(name)
        unopt, opt = len(res.ssa_unopt.blocks), len(res.ssa.blocks)
        counts[name] = (unopt, opt)
        if name in UNOPT_BLOCKS and unopt != UNOPT_BLOCKS[name]:
            problems.append(f"{name}: {unopt} unoptimized blocks, "
                            f"expected {UNOPT_BLOCKS[name]}")
        if name == "newton_raphson" and unopt not in NEWTON_UNOPT_BAND:
            problems.append(f"newton_raphson: {unopt} unoptimized blocks, "
                            f"outside 7..12")
        if name == "power" and opt != 4:
            problems.append(f"power: {opt} optimized blocks, expected 4")
        if name in OPT_LIMIT and opt > OPT_LIMIT[name]:
            problems.append(f"{name}: {opt} optimized blocks, "
                            f"limit {OPT_LIMIT[name]}")
        # criterion 1 must hold on the optimized IR as well
        fn = parse_source(corpus.load(name)).functions[0]
        for point in SWEEPS[name]:
            if not agree(run_ssa(res.ssa, point), run_source(fn, point)):
                problems.append(f"{name}{point}: optimized IR diverges")
                break
    blocks = ", ".join(f"{n} {u}->{o}" for n, (u, o) in counts.items())
    finish(2, "basic block reproduction", problems, f" ({blocks})")


def test_criterion_3_component_report(capsys):
    problems = []
    code = cli.entry_point(["stats"])
    first = capsys.readouterr().out
    cli.entry_point(["stats"])
    second = capsys.readouterr().out
    if code != 0:
        problems.append(f"stats exited {code}")
    if first != second:
        problems.append("stats output is not deterministic")
    totals = {}
    for line in first.splitlines()[1:]:
        cols = line.split("\t")
        totals[cols[0]] = int(cols[3])
        if cols[6] != str(REFERENCE_TOTALS[cols[0]]):
            problems.append(f"{cols[0]}: reference column {cols[6]!r}, "
                            f"expected {REFERENCE_TOTALS[cols[0]]}")
        if int(cols[3]) <= 0:
            problems.append(f"{cols[0]}: component total {cols[3]} not > 0")
    # monotone under growth: power dwarfs the minimal straight-line graph
    from minihls.build import build_cdfg
    add = lower(typecheck.infer(
        parse_source("function addpair(a, b)\n  return a + b\nend\n").functions[0],
        corpus.SIGNATURES["if_else"]))
    minimal = component_stats(build_cdfg(add))["total"]
    if minimal != 6:
        problems.append(f"minimal graph has {minimal} components, expected 6")
    if not totals.get("power", 0) > minimal:
        problems.append("power graph not larger than the minimal graph")
    report = ", ".join(f"{k}={v}/{REFERENCE_TOTALS[k]}" for k, v in totals.items())
    finish(3, "component report", problems, f" ({report})")


def test_criterion_4_structural_invariants():
    problems = []
    for name in corpus.PROGRAMS:
        for opt in (False, True):
            bad = check(corpus_compile(name, opt=opt).cdfg)
            problems += [f"{name} (opt={opt}): {b}" for b in bad]
    # violations must also be *detectable*: break each invariant on a copy
    from minihls import cdfg as C
    from minihls.cdfg import CDFG, Port

    g = CDFG("neg")
    e = g.add_component(C.ENTRY, (), (64,), label="x")
    b = g.add_component(C.BUFFER, (64,), (64,))
    x = g.add_component(C.EXIT, (64,), ())
    g.add_channel(Port(e.id, 0), Port(b.id, 0), 64)
    g.add_channel(Port(b.id, 0), Port(x.id, 0), 64)
    if check(g):
        problems.append("negative baseline graph should be clean")

    dangling = CDFG("d1")
    dangling.add_component(C.ENTRY, (), (64,), label="x")
    if not check(dangling):
        problems.append("dangling output port not caught")

    wide = CDFG("d2")
    e = wide.add_component(C.ENTRY, (), (64,), label="x")
    x = wide.add_component(C.EXIT, (1,), ())
    wide.add_channel(Port(e.id, 0), Port(x.id, 0), 64)
    if not any("width" in p for p in check(wide)):
        problems.append("width mismatch not caught")

    forky = CDFG("d3")
    e = forky.add_component(C.ENTRY, (), (64,), label="x")
    f = forky.add_component(C.FORK, (64,), (64,))  # one output is illegal
    x = forky.add_component(C.EXIT, (64,), ())
    forky.add_channel(Port(e.id, 0), Port(f.id, 0), 64)
    forky.add_channel(Port(f.id, 0), Port(x.id, 0), 64)
    if not any("Fork" in p for p in check(forky)):
        problems.append("fork discipline violation not caught")

    loopy = CDFG("d4")
    a = loopy.add_component(C.OPERATOR, (64,), (64,), opcode="neg_i64")
    bb = loopy.add_component(C.OPERATOR, (64,), (64,), opcode="neg_i64")
    loopy.add_channel(Port(a.id, 0), Port(bb.id, 0), 64)
    loopy.add_channel(Port(bb.id, 0), Port(a.id, 0), 64)
    if not any("cycle" in p.lower() for p in check(loopy)):
        problems.append("buffer-free cycle not caught")
    finish(4, "structural invariants", problems)


def test_criterion_5_deadlock_freedom(sweep_runs):
    problems = []
    n = 0
    for name in corpus.PROGRAMS:
        for point, _, report in sweep_runs[name]:
            n += 1
            if report.leftover != 0:
                problems.append(f"{name}{point}: {report.leftover} tokens "
                                f"left in the circuit")
    # reaching here means no DeadlockError or MergeConflictError was
    # raised while the shared fixture simulated every sweep point
    finish(5, "deadlock freedom", problems, f" ({n} runs, 0 deadlocks, "
           f"0 merge conflicts)")


def test_criterion_6_pass_soundness():
    problems = []
    for name in corpus.PROGRAMS:
        unopt = corpus_compile(name, opt=False).ssa
        merged = merge_blocks(unopt)
        converted = if_convert(merged)
        for stage, func in (("merge_blocks", merged),
                            ("if_convert", converted),
                            ("optimize", optimize(unopt))):
            bad = verify(func)
            problems += [f"{name} after {stage}: {b}" for b in bad]
        again = optimize(optimize(unopt))
        if print_function(again) != print_function(optimize(unopt)):
            problems.append(f"{name}: optimize is not idempotent")
        if print_function(merge_blocks(merged)) != print_function(merged):
            problems.append(f"{name}: merge_blocks is not idempotent")
        if print_function(if_convert(converted)) != print_function(converted):
            problems.append(f"{name}: if_convert is not idempotent")
        opt = optimize(unopt)
        for point in SWEEPS[name]:
            if not agree(run_ssa(opt, point), run_ssa(unopt, point)):
                problems.append(f"{name}{point}: passes changed the result")
                break
    finish(6, "pass soundness", problems)


def test_criterion_7_emission_stability():
    problems = []
    from pathlib import Path
    golden_dir = Path(__file__).parent / "golden"
    for name in corpus.PROGRAMS:
        g = corpus_compile(name).cdfg
        files = emit_vhdl(g)
        if files != emit_vhdl(g):
            problems.append(f"{name}: emission not byte-identical across runs")
        for fname, text in files.items():
            golden = golden_dir / name / fname
            if not golden.exists() or golden.read_text() != text:
                problems.append(f"{name}/{fname}: does not match golden")
        lint = lint_netlist(files)
        problems += [f"{name}: lint: {v}" for v in lint]
        want = component_stats(g)["total"]
        got = instance_count(files)
        if got != want:
            problems.append(f"{name}: {got} instances, {want} components")
    finish(7, "emission stability", problems)


def test_criterion_8_type_inference():
    problems = []
    for name in corpus.PROGRAMS:
        tf = typecheck.infer(parse_source(corpus.load(name)).functions[0],
                             corpus.SIGNATURES[name])
        if not tf.type_stable:
            problems.append(f"{name}: inferred type-unstable")
    mixed = parse_source(
        "function m(c)\n  if c > 0\n    x = 1\n  else\n    x = 2.0\n"
        "  end\n  return x\nend\n").functions[0]
    sig = (corpus.SIGNATURES["if_else"][0],)
    try:
        typecheck.infer(mixed, sig)
        problems.append("mixed join accepted in strict mode")
    except UnstableTypeError:
        pass
    if typecheck.infer(mixed, sig, strict=False).type_stable:
        problems.append("mixed join not recorded in lenient mode")
    # exhaustive promotion table: defer to the frozen enumeration
    import test_lattice
    try:
        test_lattice.test_dispatch_matches_frozen_table_exhaustively()
        test_lattice.test_dispatch_table_covers_expected_exactly()
    except AssertionError as e:
        problems.append(f"promotion table mismatch: {e}")
    finish(8, "type inference", problems)
