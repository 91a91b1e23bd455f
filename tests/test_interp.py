"""Reference semantics: wrapping, division, trapping, fuel, strictness."""

import dataclasses
import math

import pytest

from minihls import corpus, typecheck
from minihls.errors import (DivByZeroError, EvalError, FuelExhaustedError,
                            NoMethodError, Pos)
from minihls.interp import (
    coerce_args, eval_op, run_source, run_ssa, type_of_value, wrap64,
)
from minihls.ir import Ret
from minihls.lattice import IMPL_BY_OPCODE, LatticeType
from minihls.lower import lower
from minihls.pipeline import compile_source
from minihls.source import parse_source

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

B, I, F = LatticeType.BOOL, LatticeType.INT64, LatticeType.FLOAT64


def lowered(name):
    prog = parse_source(corpus.load(name))
    return lower(typecheck.infer(prog.functions[0], corpus.SIGNATURES[name]))


def source_fn(text):
    return parse_source(text).functions[0]


# -- arithmetic kernel -------------------------------------------------------


def test_wrap64_identity_in_range():
    for n in (0, 1, -1, INT64_MIN, INT64_MAX):
        assert wrap64(n) == n


def test_wrap64_overflow():
    assert wrap64(INT64_MAX + 1) == INT64_MIN
    assert wrap64(INT64_MIN - 1) == INT64_MAX
    assert wrap64(2**64) == 0
    assert wrap64(2**64 + 5) == 5


def test_add_and_mul_wrap():
    assert eval_op("add_i64", (INT64_MAX, 1)) == INT64_MIN
    assert eval_op("sub_i64", (INT64_MIN, 1)) == INT64_MAX
    assert eval_op("mul_i64", (2**32, 2**32)) == 0
    assert eval_op("mul_i64", (INT64_MAX, 2)) == -2


def test_neg_of_int_min_wraps_to_itself():
    assert eval_op("neg_i64", (INT64_MIN,)) == INT64_MIN


def test_mod_truncates_toward_zero():
    # unlike Python's floored %, the remainder takes the dividend's sign
    assert eval_op("mod_i64", (7, 2)) == 1
    assert eval_op("mod_i64", (-7, 2)) == -1
    assert eval_op("mod_i64", (7, -2)) == 1
    assert eval_op("mod_i64", (-7, -2)) == -1


def test_mod_by_zero_traps():
    with pytest.raises(DivByZeroError):
        eval_op("mod_i64", (1, 0))


def test_mod_int_min_by_minus_one():
    assert eval_op("mod_i64", (INT64_MIN, -1)) == 0


def test_float_division_never_traps():
    assert eval_op("fdiv_f64", (1.0, 0.0)) == math.inf
    assert eval_op("fdiv_f64", (-1.0, 0.0)) == -math.inf
    assert math.isnan(eval_op("fdiv_f64", (0.0, 0.0)))
    assert math.isnan(eval_op("fdiv_f64", (math.nan, 2.0)))
    assert eval_op("fdiv_f64", (1.0, math.inf)) == 0.0


def test_float_compare_with_nan_is_unordered():
    assert eval_op("fcmp_lt_f64", (math.nan, 1.0)) is False
    assert eval_op("fcmp_ge_f64", (math.nan, 1.0)) is False
    assert eval_op("fcmp_eq_f64", (math.nan, math.nan)) is False
    assert eval_op("fcmp_ne_f64", (math.nan, math.nan)) is True


def test_sitofp_matches_ieee_rounding():
    assert eval_op("sitofp", (3,)) == 3.0
    big = 2**53 + 1  # not representable; rounds to nearest even
    assert eval_op("sitofp", (big,)) == float(big)


def test_select_opcodes():
    assert eval_op("select_i64", (True, 10, 20)) == 10
    assert eval_op("select_i64", (False, 10, 20)) == 20
    assert eval_op("select_f64", (True, 1.5, 2.5)) == 1.5
    assert eval_op("select_i1", (False, True, False)) is False


def test_logic_and_not():
    assert eval_op("and_i1", (True, False)) is False
    assert eval_op("or_i1", (True, False)) is True
    assert eval_op("not_i1", (False,)) is True


def test_type_of_value_distinguishes_bool_from_int():
    assert type_of_value(True) == B
    assert type_of_value(1) == I
    assert type_of_value(1.0) == F


def test_coerce_args_promotes_ints_for_float_params():
    assert coerce_args((F,), (2,)) == (2.0,)
    assert coerce_args((I,), (2**64 + 3,)) == (3,)
    assert coerce_args((B, I), (True, 5)) == (True, 5)


def test_coerce_args_names_the_type_it_got():
    with pytest.raises(EvalError, match=r"argument 0 must be Int64, got Float64 1\.5$"):
        coerce_args((I,), (1.5,))
    with pytest.raises(EvalError, match="argument 1 must be Bool, got Int64 1$"):
        coerce_args((I, B), (1, 1))


# -- whole-program evaluation ------------------------------------------------


def test_power_matches_wrapping_repeated_multiplication(sweeps):
    fn = source_fn(corpus.load("power"))
    ssa = lowered("power")
    for x, n in sweeps["power"]:
        want = 1
        for _ in range(n):
            want = wrap64(want * x)
        assert run_source(fn, (x, n)) == want
        assert run_ssa(ssa, (x, n)) == want


def test_if_else_matches_direct_python_oracle(sweeps):
    fn = source_fn(corpus.load("if_else"))
    for a, b in sweeps["if_else"]:
        if a + b > 10:
            want = a - b
        elif a * b < 5:
            want = a + b
        else:
            want = a * b
        assert run_source(fn, (a, b)) == want


def test_newton_converges_to_sqrt2(sweeps):
    fn = source_fn(corpus.load("newton_raphson"))
    for (x0,) in sweeps["newton_raphson"]:
        got = run_source(fn, (x0,))
        assert abs(got - math.sqrt(2)) < 1e-6


def test_source_and_ssa_agree_on_corpus(program, sweeps):
    fn = source_fn(corpus.load(program))
    ssa = lowered(program)
    for point in sweeps[program]:
        assert run_source(fn, point) == run_ssa(ssa, point)


def test_operator_errors_keep_their_position():
    # One `+` resolves Int64+Int64 on one call and has no method for
    # Bool+Int64 on the next; one `%` traps on a zero divisor.
    fn = source_fn("function f(a, b)\n  c = a + b\n  return b % c\nend\n")
    assert run_source(fn, (2, 5)) == 5
    with pytest.raises(NoMethodError) as info:
        run_source(fn, (True, 5))
    assert info.value.pos == Pos(2, 9)
    with pytest.raises(DivByZeroError) as info:
        run_source(fn, (-5, 5))
    assert info.value.pos == Pos(3, 12)


def test_logical_and_is_strict_in_both_operands():
    # a short-circuiting && would skip the trapping b % a here
    text = ("function f(a, b)\n"
            "  return a != 0 && b % a == 0\nend\n")
    with pytest.raises(DivByZeroError):
        run_source(source_fn(text), (0, 4))


def test_fuel_exhaustion_on_infinite_loop():
    text = ("function f(a)\n"
            "  while a > 0\n    a = a + 0\n  end\n"
            "  return a\nend\n")
    with pytest.raises(FuelExhaustedError):
        run_source(source_fn(text), (1,), fuel=5000)
    ssa = lower(typecheck.infer(parse_source(text).functions[0], (I,)))
    with pytest.raises(FuelExhaustedError):
        run_ssa(ssa, (1,), fuel=5000)


def test_run_source_validates_argument_count():
    fn = source_fn("function f(a, b)\n  return a + b\nend\n")
    with pytest.raises(Exception):
        run_source(fn, (1,))


# -- pinned fuel, dispatch and trap semantics --------------------------------


def test_fuel_thresholds_are_exact():
    res = compile_source(corpus.load("power"), corpus.SIGNATURES["power"])
    assert run_source(res.func, (2, 3), fuel=41) == 8
    with pytest.raises(FuelExhaustedError) as info:
        run_source(res.func, (2, 3), fuel=40)
    assert info.value.pos == Pos(8, 12)  # the `acc` of `return acc`
    for func in (res.ssa_unopt, res.ssa):
        assert run_ssa(func, (2, 3), fuel=27) == 8
        with pytest.raises(FuelExhaustedError) as info:
            run_ssa(func, (2, 3), fuel=26)
        assert info.value.pos == Pos(0, 0)  # the return terminator


def retyped_loop(second):
    """`y = x + 1` sees an Int64 `x` on its first visit and `second` on
    its next."""
    return source_fn("function f(n)\n  x = 1\n  y = 0\n  i = 0\n"
                     "  while i < n\n    y = x + 1\n"
                     f"    x = {second}\n    i = i + 1\n  end\n"
                     "  return y\nend\n")


def test_dispatch_follows_the_operands_of_each_visit():
    assert run_source(retyped_loop("0.5"), (2,)) == 1.5
    with pytest.raises(NoMethodError) as info:
        run_source(retyped_loop("true"), (2,))
    assert info.value.pos == Pos(6, 11)


def trapping_ssa(text="function f(a, b)\n  c = a + 1\n  return c % b\nend\n"):
    return lower(typecheck.infer(source_fn(text), (I, I)))


def test_ssa_trap_keeps_its_position():
    ssa = trapping_ssa()
    assert run_ssa(ssa, (6, 4)) == 3
    with pytest.raises(DivByZeroError) as info:
        run_ssa(ssa, (6, 0))
    assert info.value.pos == Pos(3, 12)
    # the `%` is the third instruction: fuel for two stops before it traps
    assert ssa.blocks[0].instrs[2].op.opcode == "mod_i64"
    with pytest.raises(FuelExhaustedError) as info:
        run_ssa(ssa, (6, 0), fuel=2)
    assert info.value.pos == Pos(3, 12)
    with pytest.raises(DivByZeroError):
        run_ssa(ssa, (6, 0), fuel=3)


def test_fuel_runs_out_where_counting_node_by_node_would():
    # `return a % b + 1` visits return, +, %, a, b, 1; `%` runs after b
    fn = source_fn("function f(a, b)\n  return a % b + 1\nend\n")
    with pytest.raises(DivByZeroError) as info:
        run_source(fn, (1, 0), fuel=5)  # pays for the whole `a % b`
    assert info.value.pos == Pos(2, 12)
    with pytest.raises(FuelExhaustedError) as info:
        run_source(fn, (1, 0), fuel=4)  # not for b
    assert info.value.pos == Pos(2, 14)
    fn = source_fn("function f(a)\n  return x + a\nend\n")
    with pytest.raises(FuelExhaustedError) as info:
        run_source(fn, (1,), fuel=2)
    assert info.value.pos == Pos(2, 10)
    for fuel in (3, 100):
        with pytest.raises(EvalError, match="undefined variable 'x'") as info:
            run_source(fn, (1,), fuel=fuel)
        assert info.value.pos == Pos(2, 10)


def test_conditions_must_be_bool():
    for cond, pos in (("  if a\n", Pos(2, 6)), ("  while a\n", Pos(2, 9)),
                      ("  if a < 0\n  elseif a\n", Pos(3, 10))):
        fn = source_fn(f"function f(a)\n{cond}    a = 0\n  end\n  return a\nend\n")
        with pytest.raises(EvalError, match="to non-Bool 1") as info:
            run_source(fn, (1,))
        assert info.value.pos == pos


# -- plans: built once per program, rebuilt when it changes ------------------


def test_unchanged_programs_are_planned_once():
    for run, program in ((run_source, source_fn(corpus.load("power"))),
                         (run_ssa, lowered("power"))):
        assert program.plan is None
        assert run(program, (2, 3)) == 8
        plan = program.plan
        assert [run(program, (2, n)) for n in (4, 3)] == [16, 8]
        assert program.plan is plan


def test_replaced_instruction_or_terminator_is_replanned():
    ssa = trapping_ssa()
    assert run_ssa(ssa, (6, 4)) == 3
    block = ssa.blocks[0]
    k, ins = 2, block.instrs[2]  # the `%`
    block.instrs[k] = dataclasses.replace(ins, op=IMPL_BY_OPCODE["sub_i64"])
    assert run_ssa(ssa, (6, 4)) == 3  # (6 + 1) - 4
    block.instrs[k] = ins
    block.terminator = Ret(ssa.params[0][0])
    assert run_ssa(ssa, (6, 4)) == 6
    block.terminator = Ret(ins.result)
    assert run_ssa(ssa, (6, 4)) == 3
    # an equal instruction at another position is a new one too
    block.instrs[k] = dataclasses.replace(ins, pos=Pos(9, 9))
    assert block.instrs[k] == ins
    with pytest.raises(DivByZeroError) as info:
        run_ssa(ssa, (6, 0))
    assert info.value.pos == Pos(9, 9)


def test_equal_programs_report_their_own_positions():
    text = "function f(a, b)\n  c = a + 1\n  return c % b\nend\n"
    fns = [source_fn(text), source_fn("\n\n" + text)]
    ssas = [trapping_ssa(text), trapping_ssa("\n\n" + text)]
    assert fns[0] == fns[1] and ssas[0] == ssas[1]
    for _ in range(2):
        for fn, ssa, line in zip(fns, ssas, (3, 5)):
            for run, program in ((run_source, fn), (run_ssa, ssa)):
                with pytest.raises(DivByZeroError) as info:
                    run(program, (6, 0))
                assert info.value.pos == Pos(line, 12)
