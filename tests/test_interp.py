"""Reference semantics: wrapping, division, trapping, fuel, strictness."""

import math

import pytest

from minihls import corpus, typecheck
from minihls.errors import (DivByZeroError, FuelExhaustedError, NoMethodError,
                            Pos)
from minihls.interp import (
    coerce_args, eval_op, run_source, run_ssa, type_of_value, wrap64,
)
from minihls.lattice import LatticeType
from minihls.lower import lower
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
