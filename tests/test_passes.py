"""Optimization passes: block counts, idempotence, soundness."""

import pytest

from minihls import corpus, typecheck
from minihls.errors import PassError
from minihls.interp import run_source, run_ssa
from minihls.ir import (
    Block, CondGoto, ConstOp, Goto, Instr, Ret, SSAFunction, SelectOp,
    print_function, verify,
)
from minihls.lattice import IMPL_BY_OPCODE, LatticeType
from minihls.lower import lower
from minihls.passes import if_convert, merge_blocks, optimize
from minihls.pipeline import compile_source
from minihls.sim import simulate
from minihls.source import parse_source

I = LatticeType.INT64

OPTIMIZED_BLOCKS = {"if_else": 3, "power": 4, "newton_raphson": 4}


def lowered(name):
    prog = parse_source(corpus.load(name))
    return lower(typecheck.infer(prog.functions[0], corpus.SIGNATURES[name]))


def test_optimized_corpus_block_counts(program):
    func = optimize(lowered(program))
    assert len(func.blocks) == OPTIMIZED_BLOCKS[program]
    assert verify(func) == []


def test_merge_blocks_alone_on_newton():
    # Forwarding-block removal folds newton's empty else arm and its join.
    func = merge_blocks(lowered("newton_raphson"))
    assert len(func.blocks) == 5
    assert verify(func) == []


def test_passes_do_not_mutate_input(program):
    func = lowered(program)
    before = print_function(func)
    optimize(func)
    merge_blocks(func)
    if_convert(func)
    assert print_function(func) == before


def test_optimize_is_idempotent(program):
    once = optimize(lowered(program))
    twice = optimize(once)
    assert print_function(twice) == print_function(once)


def test_individual_passes_are_idempotent(program):
    func = lowered(program)
    m = merge_blocks(func)
    assert print_function(merge_blocks(m)) == print_function(m)
    c = if_convert(m)
    assert print_function(if_convert(c)) == print_function(c)


def test_optimization_preserves_semantics(program, sweeps):
    unopt = lowered(program)
    opt = optimize(unopt)
    for point in sweeps[program]:
        assert run_ssa(opt, point) == run_ssa(unopt, point)


def test_if_conversion_introduces_selects():
    func = optimize(lowered("newton_raphson"))
    selects = [ins for b in func.blocks for ins in b.instrs
               if isinstance(ins.op, SelectOp)]
    assert selects, "newton's |step| triangle should become a select"


def test_loops_are_never_if_converted():
    func = optimize(lowered("power"))
    # the loop header's conditional branch must survive
    assert any(isinstance(b.terminator, CondGoto) for b in func.blocks)


def test_speculation_limit_blocks_large_arms():
    # Arms of 5 instructions exceed the default budget of 4.
    text = ("function f(a, b)\n"
            "  if a > b\n    r = ((((a + b) + a) + b) + a) + b\n"
            "  else\n    r = ((((a - b) - a) - b) - a) - b\n  end\n"
            "  return r\nend\n")
    prog = parse_source(text)
    func = lower(typecheck.infer(prog.functions[0], (I, I)))
    small_budget = optimize(func)
    assert any(isinstance(b.terminator, CondGoto) for b in small_budget.blocks)
    raised = optimize(func, limit=8)
    assert not any(isinstance(b.terminator, CondGoto) for b in raised.blocks)
    for point in ((3, 1), (1, 3), (0, 0)):
        assert run_ssa(raised, point) == run_ssa(func, point)


def test_trapping_ops_are_never_speculated():
    # b % a traps on a == 0, so hoisting it past the guard is unsound.
    text = ("function f(a, b)\n"
            "  if a != 0\n    r = b % a\n"
            "  else\n    r = 0\n  end\n"
            "  return r\nend\n")
    prog = parse_source(text)
    func = optimize(lower(typecheck.infer(prog.functions[0], (I, I))))
    assert any(isinstance(b.terminator, CondGoto) for b in func.blocks)
    assert run_ssa(func, (0, 7)) == 0


def test_convertible_diamond_collapses_to_one_block():
    text = ("function f(a, b)\n"
            "  if a > b\n    r = a - b\n  else\n    r = b - a\n  end\n"
            "  return r\nend\n")
    prog = parse_source(text)
    func = optimize(lower(typecheck.infer(prog.functions[0], (I, I))))
    assert len(func.blocks) == 1
    assert run_ssa(func, (7, 2)) == 5
    assert run_ssa(func, (2, 7)) == 5


def test_optimize_rejects_invalid_input():
    bad = SSAFunction("bad", ((0, I),), I,
                      [Block(0, (), [], Ret(99))], next_value=1, next_block=1)
    with pytest.raises(PassError):
        optimize(bad)


def test_merge_folds_goto_chains():
    b0 = Block(0, (), [Instr(1, I, ConstOp(5))], Goto(1, ()))
    b1 = Block(1, (), [], Goto(2, ()))
    b2 = Block(2, (), [Instr(2, I, IMPL_BY_OPCODE["add_i64"], (0, 1))], Ret(2))
    func = SSAFunction("chain", ((0, I),), I, [b0, b1, b2],
                       next_value=3, next_block=3)
    assert verify(func) == []
    out = merge_blocks(func)
    assert len(out.blocks) == 1
    assert run_ssa(out, (4,)) == 9


# Values that pass through a join stay live in later blocks as the join's
# parameters: folding the join must rename them in every block, and an
# empty join whose parameters later blocks read must not be forwarded.
PASS_THROUGH = {"passthrough": """
function f(a::Int64, b::Int64)
    x = a
    y = b
    i = 0
    while i < 2
        if x < y
            x = x + 1
        else
            x = x - 1
        end
        if y < 3
            y = y + x
        else
            y = y - 2
        end
        i = i + 1
    end
    return x + y
end
""", "diamond_then_loop": """
function f(a::Int64, b::Int64)
    if a < b
        x = a + 1
    else
        x = b - 1
    end
    i = 0
    while i < 3
        b = b + x
        i = i + 1
    end
    return b
end
""", "forwarded_join": """
function f(a::Int64, b::Int64)
    i = 0
    s = 0
    if a < b
        x = a * b + a - b * 3 + a * a
    else
        x = b * a - a + b * 5 - b * b
    end
    while i < 3
        s = s + x
        i = i + 1
    end
    return s
end
"""}


@pytest.mark.parametrize("name", sorted(PASS_THROUGH))
def test_values_passing_through_folded_joins(name):
    res = compile_source(PASS_THROUGH[name])
    for point in ((3, -2), (-1, 4), (0, 0), (2, 2)):
        want = run_source(res.func, point)
        assert run_ssa(res.ssa_unopt, point) == want
        assert run_ssa(res.ssa, point) == want
        report = simulate(res.cdfg, point)
        assert (report.output, report.leftover) == (want, 0)


def narrow_ladder(n):
    """One loop over n if/else diamonds whose arms if-convert."""
    lines = ["function ladder(a::Int64, b::Int64)",
             "x = a", "y = b", "i = 0", "while i < 2"]
    for k in range(n):
        lines += [f"if x < y + {k}", "x = x + y", f"y = y - {k % 9 + 1}",
                  "else", "x = x - y", "y = y * 2", "end"]
    return "\n".join(lines + ["i = i + 1", "end", "return x + y", "end"]) + "\n"


def wide_ladder(n):
    """One loop over n if/else diamonds whose arms are too wide to
    if-convert, so the circuit keeps its Branch and Merge steering."""
    lines = ["function ladder(a::Int64, b::Int64)",
             "x = a", "y = b", "i = 0", "while i < 2"]
    for k in range(n):
        lines += [f"if x < y + {k}", f"x = x + y * {k % 7 + 2} - x",
                  f"y = y - x * 3 + {k}", "else", "x = x - y * 2 + x",
                  "y = y * 2 - x - 1", "end"]
    return "\n".join(lines + ["i = i + 1", "end", "return x + y", "end"]) + "\n"


def test_optimize_work_grows_with_rounds_not_rewrites(monkeypatch):
    # Counts calls, never times: the pred map and the reachable set are
    # built a bounded number of times per fixpoint round, not once per
    # rewrite, and the clone is structural.  Verification runs once on the
    # clone and once after each pass application that changed the IR:
    # here only if_convert changes it in round 1, only merge_blocks in
    # round 2 and neither in round 3, which ends the fixpoint.
    import copy
    from minihls import ir, passes
    res = compile_source(narrow_ladder(64), opt=False)
    calls = {"predecessor_edges": 0, "reachable_blocks": 0, "verify": 0,
             "deepcopy": 0}
    reports = []  # (pass, changed) per application

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    def reported(name):
        original = getattr(passes, name)

        def wrapper(*args, **kwargs):
            changed = original(*args, **kwargs)
            reports.append((name, changed))
            return changed
        monkeypatch.setattr(passes, name, wrapper)

    for module in (ir, passes):
        for name in ("predecessor_edges", "reachable_blocks", "verify"):
            if hasattr(module, name):
                counted(module, name)
    counted(copy, "deepcopy")
    reported("_merge_blocks_inplace")
    reported("_if_convert_inplace")
    out = optimize(res.ssa_unopt)
    assert len(res.ssa_unopt.blocks) == 196 and len(out.blocks) == 4
    assert [changed for _, changed in reports] == [False, True, True, False,
                                                   False, False]
    rounds = sum(name == "_merge_blocks_inplace" for name, _ in reports)
    assert rounds == 3
    assert calls["verify"] == 1 + sum(changed for _, changed in reports) == 3
    assert calls["predecessor_edges"] <= 2 * rounds
    assert calls["reachable_blocks"] <= 2 * rounds
    assert calls["deepcopy"] == 0


@pytest.mark.parametrize("stage", ["merge_blocks", "if_convert"])
def test_optimize_rejects_a_pass_that_breaks_the_ir(monkeypatch, stage):
    from minihls import passes

    def corrupting(func, *args):
        func.blocks[-1].terminator = Ret(func.next_value + 1)  # undefined
        return True
    monkeypatch.setattr(passes, f"_{stage}_inplace", corrupting)
    with pytest.raises(PassError, match=f"after {stage}"):
        optimize(lowered("power"))
