"""Reference semantics: wrapping, division, trapping, fuel, strictness."""

import dataclasses
import gc
import math
import sys
from collections import Counter

import pytest

from test_lattice import pasted
from test_source import load_ladder_generator

from minihls import corpus, interp, lattice, typecheck
from minihls.errors import (DivByZeroError, EvalError, FuelExhaustedError,
                            MiniHlsError, NoMethodError, Pos)
from minihls.interp import eval_op, run_source, run_ssa, type_of_value
from minihls.ir import Ret, verify
from minihls.lattice import IMPL_BY_OPCODE, LatticeType, wrap64
from minihls.lower import lower
from minihls.pipeline import compile_source
from minihls.source import FunctionDef, parse_source

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

B, I, F = LatticeType.BOOL, LatticeType.INT64, LatticeType.FLOAT64


def lowered(name):
    prog = parse_source(corpus.load(name))
    return lower(typecheck.infer(prog.functions[0], corpus.SIGNATURES[name]))


def source_fn(text):
    return parse_source(text).functions[0]


# -- arithmetic kernel -------------------------------------------------------

# each edge below holds for an opcode's row called as its function, as the
# cold tiers run it, and for its expression pasted as compiled code runs it
FORMS = (eval_op, lambda opcode, args: pasted(IMPL_BY_OPCODE[opcode], args))


def test_wrap64_identity_in_range():
    for n in (0, 1, -1, INT64_MIN, INT64_MAX):
        assert wrap64(n) == n


def test_wrap64_overflow():
    assert wrap64(INT64_MAX + 1) == INT64_MIN
    assert wrap64(INT64_MIN - 1) == INT64_MAX
    assert wrap64(2**64) == 0
    assert wrap64(2**64 + 5) == 5


def test_add_and_mul_wrap():
    for op in FORMS:
        assert op("add_i64", (INT64_MAX, 1)) == INT64_MIN
        assert op("sub_i64", (INT64_MIN, 1)) == INT64_MAX
        assert op("mul_i64", (2**32, 2**32)) == 0
        assert op("mul_i64", (INT64_MAX, 2)) == -2


def test_neg_of_int_min_wraps_to_itself():
    for op in FORMS:
        assert op("neg_i64", (INT64_MIN,)) == INT64_MIN


def test_mod_truncates_toward_zero():
    # unlike Python's floored %, the remainder takes the dividend's sign
    for op in FORMS:
        assert op("mod_i64", (7, 2)) == 1
        assert op("mod_i64", (-7, 2)) == -1
        assert op("mod_i64", (7, -2)) == 1
        assert op("mod_i64", (-7, -2)) == -1


def test_mod_by_zero_traps():
    for op in FORMS:
        with pytest.raises(DivByZeroError):
            op("mod_i64", (1, 0))


def test_mod_int_min_by_minus_one():
    for op in FORMS:
        assert op("mod_i64", (INT64_MIN, -1)) == 0


def test_float_division_never_traps():
    for op in FORMS:
        assert op("fdiv_f64", (1.0, 0.0)) == math.inf
        assert op("fdiv_f64", (-1.0, 0.0)) == -math.inf
        assert math.isnan(op("fdiv_f64", (0.0, 0.0)))
        assert math.isnan(op("fdiv_f64", (math.nan, 2.0)))
        assert op("fdiv_f64", (1.0, math.inf)) == 0.0


def test_float_compare_with_nan_is_unordered():
    for op in FORMS:
        assert op("fcmp_lt_f64", (math.nan, 1.0)) is False
        assert op("fcmp_ge_f64", (math.nan, 1.0)) is False
        assert op("fcmp_eq_f64", (math.nan, math.nan)) is False
        assert op("fcmp_ne_f64", (math.nan, math.nan)) is True


def test_sitofp_matches_ieee_rounding():
    for op in FORMS:
        assert op("sitofp", (3,)) == 3.0
        big = 2**53 + 1  # not representable; rounds to nearest even
        assert op("sitofp", (big,)) == float(big)


def test_select_opcodes():
    for op in FORMS:
        assert op("select_i64", (True, 10, 20)) == 10
        assert op("select_i64", (False, 10, 20)) == 20
        assert op("select_f64", (True, 1.5, 2.5)) == 1.5
        assert op("select_i1", (False, True, False)) is False


def test_logic_and_not():
    for op in FORMS:
        assert op("and_i1", (True, False)) is False
        assert op("or_i1", (True, False)) is True
        assert op("not_i1", (False,)) is True


def test_type_of_value_distinguishes_bool_from_int():
    assert type_of_value(True) == B
    assert type_of_value(1) == I
    assert type_of_value(1.0) == F


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
    for hot in (False, True):
        assert (res.func.plan is not None and res.func.plan.compiled is not None) == hot
        assert run_source(res.func, (2, 3), fuel=41) == 8
        with pytest.raises(FuelExhaustedError) as info:
            run_source(res.func, (2, 3), fuel=40)
        assert info.value.pos == Pos(8, 12)  # the `acc` of `return acc`
        run_hot(res.func, (2, 3))
    for func in (res.ssa_unopt, res.ssa):
        for hot in (False, True):
            assert (func.plan is not None and func.plan.compiled is not None) == hot
            assert run_ssa(func, (2, 3), fuel=27) == 8
            with pytest.raises(FuelExhaustedError) as info:
                run_ssa(func, (2, 3), fuel=26)
            assert info.value.pos == Pos(0, 0)  # the return terminator
            run_hot(func, (2, 3))


def retyped_loop(second):
    """`y = x + 1` sees an Int64 `x` on its first visit and `second` on
    its next."""
    return source_fn(retyped_text(second))


def retyped_text(second):
    return ("function f(n)\n  x = 1\n  y = 0\n  i = 0\n"
            "  while i < n\n    y = x + 1\n"
            f"    x = {second}\n    i = i + 1\n  end\n"
            "  return y\nend\n")


def test_dispatch_follows_the_operands_of_each_visit():
    assert run_source(retyped_loop("0.5"), (2,)) == 1.5
    with pytest.raises(NoMethodError) as info:
        run_source(retyped_loop("true"), (2,))
    assert info.value.pos == Pos(6, 11)


def test_a_node_looks_its_method_up_once_while_its_operand_types_repeat(
        monkeypatch):
    # `x * (i % 7)` promotes Float64 x Int64 and `%` can trap
    fn = source_fn("function f(n::Int64, x::Float64)\n  i = 0\n  s = 0.0\n"
                   "  while i < n\n    s = s + x * (i % 7)\n    i = i + 1\n"
                   "  end\n  return s\nend\n")
    lookups = Counter()

    class CountingTable(dict):
        def get(self, key, default=None):
            lookups[key] += 1
            return super().get(key, default)

    methods = lattice.METHODS
    table = CountingTable(methods)
    for name, module in list(sys.modules.items()):  # every holder of the table
        if name.split(".")[0] == "minihls" and getattr(module, "METHODS", None) is methods:
            monkeypatch.setattr(module, "METHODS", table)
    # the walker looks each (node, types) key up once; one run pays for the
    # compile, and the loop test is one node for every trip
    want = {("<", I, I): 1, ("+", F, F): 1, ("*", F, I): 1, ("%", I, I): 1,
            ("+", I, I): 1}
    assert run_source(fn, (1000, 0.5)) == sum(0.5 * (i % 7) for i in range(1000))
    assert lookups == want and fn.plan.compiled is not None
    interpreted = []
    monkeypatch.setattr(fn.plan, "interpret", lambda *run: interpreted.append(run))
    # compiled, a node whose operand types the walker saw looks nothing up;
    # an Int64 `x` retypes `x * (i % 7)` and `s + ...`, whose new keys the
    # miss path looks up once in the run that first meets them, not per visit
    for args, want in (((1000, 0.5), {}), ((1000, 2), {("*", I, I): 1, ("+", F, I): 1}),
                       ((1000, 2), {}), ((10, 0.5), {})):
        lookups.clear()
        assert run_source(fn, args) == sum(args[1] * (i % 7) for i in range(args[0]))
        assert lookups == want, args
    assert interpreted == []


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
    block = ssa.blocks[0]
    k, ins = 2, block.instrs[2]  # the `%`

    def replanned(want):
        """A fresh, uncompiled plan gives `want`; the old one had compiled."""
        hot = ssa.plan
        assert hot.compiled is not None
        assert run_ssa(ssa, (6, 4)) == want
        assert ssa.plan is not hot and ssa.plan.compiled is None
        assert ssa.plan.spent == sum(b[1] for b in ssa.plan.blocks)  # one run
        run_hot(ssa, (6, 4))

    run_hot(ssa, (6, 4))
    block.instrs[k] = dataclasses.replace(ins, op=IMPL_BY_OPCODE["sub_i64"])
    replanned(3)  # (6 + 1) - 4
    block.instrs[k] = ins
    block.terminator = Ret(ssa.params[0][0])
    replanned(6)
    block.terminator = Ret(ins.result)
    replanned(3)
    # an equal instruction at another position is a new one too
    block.instrs[k] = dataclasses.replace(ins, pos=Pos(9, 9))
    assert block.instrs[k] == ins
    replanned(3)
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


def test_run_ssa_checks_the_argument_count():
    with pytest.raises(EvalError) as info:
        run_ssa(lowered("power"), (2,))
    assert info.value.message == "power takes 2 argument(s), got 1"


# -- the compiled tier: a plan compiles once it has paid for its compile ----


def run_hot(func, args):
    """Run `func`, a source or SSA function, on `args` until its plan is
    compiled; returns the runs."""
    run = run_source if isinstance(func, FunctionDef) else run_ssa
    for runs in range(1, 1000):
        run(func, args)
        if func.plan.compiled is not None:
            return runs
    raise AssertionError(f"{func.name} never compiled")


# (text, signature, points): the corpus, the trapping programs above, a loop
# that never ends, one that swaps two values each trip, and one over Bool
# and Float64 parameters that traps in its third trip when n is 3
TIER_PROGRAMS = [(corpus.load(name), corpus.SIGNATURES[name], points)
                 for name, points in (("if_else", [(3, 4), (20, -3), (-1, 0)]),
                                      ("power", [(2, 5), (-3, 9), (7, 0)]),
                                      ("newton_raphson", [(2.0,), (0.5,)]))]
TIER_PROGRAMS += [
    ("function f(a, b)\n  c = a + 1\n  return c % b\nend\n", (I, I), [(6, 4), (6, 0)]),
    ("function f(a, b)\n  c = a + b\n  return b % c\nend\n", (I, I), [(2, 5), (-5, 5)]),
    ("function f(a, b)\n  return a != 0 && b % a == 0\nend\n", (I, I), [(2, 4), (0, 4)]),
    ("function f(a)\n  while a > 0\n    a = a + 0\n  end\n  return a\nend\n", (I,),
     [(1,), (0,)]),
    ("function f(a, b, n)\n  i = 0\n  while i < n\n    t = a\n    a = b\n    b = t\n"
     "    i = i + 1\n  end\n  return a - 2 * b\nend\n", (I, I, I), [(1, 5, 3), (4, 2, 2)]),
    ("function f(p, x, n)\n  s = 0.0\n  i = 0\n  while i < n\n    if p\n"
     "      s = s + x * (7 % (n - i - 1))\n    else\n      s = s - x\n    end\n"
     "    i = i + 1\n  end\n  return s > 0.0 || p\nend\n", (B, F, I),
     [(True, 0.5, 3), (True, -1.5, 0), (False, 2.0, 4), (False, float("nan"), 2)]),
]


def outcome(run, args, fuel):
    """What a run gives: its value (told apart by type and repr, so -0.0,
    1.0 and nan are exact) or its error, message and position."""
    try:
        value = run(args, fuel)
        return type(value), repr(value)
    except MiniHlsError as err:
        return type(err), err.message, err.pos


def returned(run, args, fuel):
    """The type and repr of what `run` returns, or None if it raises one of
    the three faults `_Plan.run` catches from compiled code."""
    try:
        value = run(args, fuel)
    except (interp._Fault, NameError, MiniHlsError):
        return None
    return type(value), repr(value)


def assert_tiers_keep_the_contract(plan, points, finish=lambda result: result):
    """`plan`, as built, against its compiled function on each of `points`
    at every fuel up to one past the threshold, and at 10 000: where the
    interpreter returns, the compiled function returns the same type and
    repr; where it raises, the compiled function raises one of the three
    faults; and `_Plan.run` of the hot plan gives exactly the cold outcome.
    `finish` makes a run's result of a plan's result."""
    assert plan.spent == 0 and plan.compiled is None  # as built
    compiled = plan.compiled = plan.compile()
    interpreted = lambda args, fuel: plan.interpret(fuel, args)[0]
    cold = lambda args, fuel: finish(interpreted(args, fuel))
    hot = lambda args, fuel: finish(plan.run(fuel, args))

    def check(args, fuel):
        assert (returned(lambda a, f: compiled(f, *a), args, fuel)
                == returned(interpreted, args, fuel)), (args, fuel)
        assert outcome(hot, args, fuel) == (want := outcome(cold, args, fuel)), (args, fuel)
        return want

    for args in points:
        for fuel in range(400):
            if (got := check(args, fuel))[0] is not FuelExhaustedError:  # the threshold
                assert check(args, fuel + 1) == got
                break
        check(args, 10_000)
    assert plan.spent == 0  # a hot run spends nothing


@pytest.mark.parametrize("text, sig, points", TIER_PROGRAMS)
def test_compiled_and_interpreted_runs_agree_at_every_fuel(text, sig, points):
    res = compile_source(text, sig)
    for func in (res.ssa_unopt, res.ssa):
        assert verify(func) == []
        assert_tiers_keep_the_contract(interp._SSAPlan(func), points)


def test_a_plan_run_hot_compiles_once(monkeypatch, sweeps):
    compiles = Counter()

    def counting(plan):
        compiles[id(plan)] += 1
        return compile_plan(plan)

    compile_plan = interp._compile_ssa
    monkeypatch.setattr(interp, "_compile_ssa", counting)
    ssa = lowered("power")
    run_ssa(ssa, (2, 3))
    plan = ssa.plan
    assert plan.compiled is None and plan.spent == 27
    # a plan compiles once it has spent `_COMPILE_AFTER` times its cost
    assert plan.limit == interp._COMPILE_AFTER * sum(b[1] for b in plan.blocks)
    runs = run_hot(ssa, (2, 3))
    assert runs == -(-plan.limit // 27) - 1 and compiles == {id(plan): 1}
    compiled = plan.compiled
    for x, n in sweeps["power"]:
        assert run_ssa(ssa, (x, n)) == run_source(source_fn(corpus.load("power")), (x, n))
    assert ssa.plan is plan and plan.compiled is compiled
    assert compiles == {id(plan): 1} and plan.spent == 27 * (runs + 1)


def test_ladders_run_as_the_benchmark_compiles_them_stay_interpreted():
    # each ladder runs once per point, on two points: its source, and its
    # SSA before and after passes
    ladder = load_ladder_generator()
    for n in (1, 4, 16):
        for wide in (False, True):
            res = compile_source(ladder(n, wide, 5, trips=2))
            for args in ((3, -4), (-7, 11)):
                run_source(res.func, args)
                for func in (res.ssa_unopt, res.ssa):
                    run_ssa(func, args)
            for func in (res.func, res.ssa_unopt, res.ssa):
                assert func.plan.compiled is None
                assert 0 < func.plan.spent < func.plan.limit


# -- the compiled source tier: the same rule for `run_source`'s walker ------

# (text, points) of faults only the source interpreter meets: a variable
# assigned on one path only (read before or after an operand that traps),
# non-Bool conditions of each kind, an operand whose type changes in a loop,
# and operators on literals only, one of which traps
SOURCE_FAULTS = [
    ("function f(a, b)\n  if a > 0\n    y = a\n  end\n  return y + b % a\nend\n",
     [(1, 2), (0, 2), (-1, 3)]),
    ("function f(a, b)\n  if a > 0\n    y = a\n  end\n  return b % a + y\nend\n",
     [(1, 2), (0, 2), (-1, 3)]),
    ("function f(a, n)\n  i = 0\n  while i < n\n    y = i * a\n    i = i + 1\n  end\n"
     "  return y\nend\n", [(3, 2), (3, 0)]),
    ("function f(a)\n  if a\n    a = 0\n  end\n  return a\nend\n", [(True,), (False,), (1,)]),
    ("function f(a)\n  while a\n    a = false\n  end\n  return a\nend\n", [(True,), (1.0,)]),
    ("function f(a)\n  if a < 0\n    a = 0\n  elseif a\n    a = 1\n  end\n  return a\nend\n",
     [(-1,), (2,), (2.5,), (True,)]),
    (retyped_text("true"), [(2,), (1,), (0,)]),
    ("function f(a)\n  b = -(2 * 3)\n  if a < b\n    b = 1 % 0\n  end\n  return a + b\nend\n",
     [(1,), (-9,)]),
]


def fell_off(text):
    """The function of `text` without its last statement, a `return`."""
    func = source_fn(text)
    return dataclasses.replace(func, body=func.body[:-1])


def source_result(func):
    """What `run_source` makes of a result of `func`'s plan."""
    def finish(result):
        if result is None:
            raise EvalError(f"{func.name} fell off the end", func.pos)
        return result
    return finish


@pytest.mark.parametrize("func, points", [
    *((source_fn(text), points) for text, _, points in TIER_PROGRAMS),
    *((source_fn(text), points) for text, points in SOURCE_FAULTS),
    (fell_off(TIER_PROGRAMS[-2][0]), [(1, 5, 3)])])
def test_compiled_and_closure_source_runs_agree_at_every_fuel(func, points):
    # the walker, which visits node by node, against the compiled function,
    # which charges each unit at once and is right only when it returns
    assert_tiers_keep_the_contract(interp._SourcePlan(func), points, source_result(func))


def test_a_source_plan_hot_on_int64_runs_other_types_as_its_closures_do():
    for name, hot_args in (("power", (2, 3)), ("if_else", (3, 4))):
        func = source_fn(corpus.load(name))
        run_hot(func, hot_args)
        for args in ((2.5, 3), (True, 2), (2, True), (1.5, -2.0), (False, False),
                     (3, 4.0), hot_args, (-3, 7)):
            cold = outcome(lambda a, fuel: run_source(source_fn(corpus.load(name)), a),
                           args, None)
            assert outcome(lambda a, fuel: run_source(func, a), args, None) == cold
        assert func.plan.compiled is not None


def test_a_hot_source_plan_compiles_once(monkeypatch, sweeps):
    compiles = Counter()

    def counting(plan):
        compiles[id(plan)] += 1
        return compile_plan(plan)

    compile_plan = interp._compile_source
    monkeypatch.setattr(interp, "_compile_source", counting)
    func = source_fn(corpus.load("power"))
    run_source(func, (2, 3))
    plan = func.plan
    assert plan.compiled is None and plan.spent == 41
    # power's body has 16 statement and expression nodes
    assert plan.limit == interp._COMPILE_AFTER * 16
    runs = run_hot(func, (2, 3))
    assert runs == -(-plan.limit // 41) - 1 and compiles == {id(plan): 1}
    compiled = plan.compiled
    for x, n in sweeps["power"]:
        assert run_source(func, (x, n)) == run_ssa(lowered("power"), (x, n))
    assert func.plan is plan and plan.compiled is compiled
    assert compiles == {id(plan): 1} and plan.spent == 41 * (runs + 1)


# a hot plan, then a run of it that faults: compiled source code runs out of
# fuel, traps, reads `y` unassigned (a NameError) or tests a non-Bool; SSA
# code runs out of fuel or traps
@pytest.mark.parametrize("build, hot_args, args, fuel, error", [
    (lambda: source_fn(corpus.load("power")), (2, 3), (2, 3), 40, FuelExhaustedError),
    (lambda: source_fn(TIER_PROGRAMS[3][0]), (6, 4), (6, 0), 10_000, DivByZeroError),
    (lambda: source_fn(SOURCE_FAULTS[0][0]), (1, 2), (-1, 3), 10_000, EvalError),
    (lambda: source_fn(SOURCE_FAULTS[3][0]), (True,), (1,), 10_000, EvalError),
    (lambda: lowered("power"), (2, 3), (2, 3), 26, FuelExhaustedError),
    (trapping_ssa, (6, 4), (6, 0), 10_000, DivByZeroError)],
    ids=["source-fuel", "source-trap", "source-undefined", "source-non-bool",
         "ssa-fuel", "ssa-trap"])
def test_a_hot_run_that_faults_is_interpreted_once_from_its_start(
        build, hot_args, args, fuel, error, monkeypatch):
    func = build()
    run = run_source if isinstance(func, FunctionDef) else run_ssa
    with pytest.raises(error) as info:
        run(build(), args, fuel)
    cold = info.value.message, info.value.pos
    run_hot(func, hot_args)
    plan, calls = func.plan, []
    spent, interpret = plan.spent, plan.interpret

    def counting(fuel, args):
        calls.append((fuel, args))
        return interpret(fuel, args)

    monkeypatch.setattr(plan, "interpret", counting)
    with pytest.raises(error) as info:
        run(func, args, fuel)
    assert (info.value.message, info.value.pos) == cold
    assert calls == [(fuel, args)] and plan.spent == spent and func.plan is plan


def test_a_source_function_and_its_plan_are_freed_without_the_cycle_collector():
    # every program a compile_ladder op builds is dropped when the op ends,
    # and compiling a plan leaves no garbage cycle either
    gc.collect()
    gc.disable()
    try:
        for build in (lambda: source_fn(corpus.load("power")), lambda: lowered("power")):
            for hot in (False, True):
                func = build()
                (run_source if isinstance(func, FunctionDef) else run_ssa)(func, (2, 3))
                if hot:
                    run_hot(func, (2, 3))
                del func
                assert gc.collect() == 0, (build, hot)
    finally:
        gc.enable()


def test_equal_operators_report_their_own_trap():
    # `a % b` on lines 2 and 4 are equal nodes: each binds its own position
    fn = source_fn("function f(a, b)\n  x = a % b\n  b = b - 1\n  y = a % b\n"
                   "  return x + y\nend\n")
    for hot in (False, True):
        assert (fn.plan is not None and fn.plan.compiled is not None) == hot
        with pytest.raises(DivByZeroError) as info:
            run_source(fn, (5, 1))
        assert info.value.pos == Pos(4, 9)
        run_hot(fn, (5, 3))  # a run that traps spends nothing


PROMOTING = ("function f(n, x)\n  i = 0\n  s = 0.0\n  while i < n\n"
             "    s = s + x * (i % 7)\n    i = i + 1\n  end\n  return s\nend\n")


def test_a_hot_promoting_node_runs_its_inlined_conversion_as_the_walker_does(monkeypatch):
    # `x * (i % 7)` is Float64 x Int64: its compiled text converts `i % 7`
    func = source_fn(PROMOTING)
    run_hot(func, (50, 0.5))
    monkeypatch.setattr(func.plan, "interpret", None)  # the compiled code alone
    for args in ((1000, 0.5), (30, -0.0), (30, math.inf), (30, math.nan), (9, 5e-324),
                 (30, 1.7976931348623157e308), (30, -2.5)):
        cold = outcome(lambda a, fuel: run_source(source_fn(PROMOTING), a), args, None)
        assert outcome(lambda a, fuel: run_source(func, a), args, None) == cold, args


MOD_LOOP = ("function f(n, d)\n  s = 0\n  i = 0\n  while i < n\n"
            "    s = s + i % (d - i)\n    i = i + 1\n  end\n  return s\nend\n")


@pytest.mark.parametrize("build", [
    lambda: source_fn(MOD_LOOP), lambda: lower(typecheck.infer(source_fn(MOD_LOOP), (I, I)))],
    ids=["source", "ssa"])
def test_a_divisor_that_reaches_zero_in_a_hot_loop_traps_where_the_walker_does(build):
    func = build()
    run = run_source if isinstance(func, FunctionDef) else run_ssa
    run_hot(func, (20, 100))
    for args in ((20, 100), (20, 10), (20, 0), (20, 19)):
        cold = outcome(lambda a, fuel: run(build(), a), args, None)
        assert outcome(lambda a, fuel: run(func, a), args, None) == cold, args
    assert cold[:3] == (DivByZeroError, "integer mod by zero", Pos(5, 15))
    assert func.plan.compiled is not None


def test_a_compiled_plan_meets_a_node_with_no_method_where_the_walker_does():
    func = retyped_loop("true")
    run_hot(func, (1,))  # `y = x + 1` sees only an Int64 x
    with pytest.raises(NoMethodError) as info:
        run_source(func, (2,))
    assert info.value.pos == Pos(6, 11) and func.plan.compiled is not None


def test_an_undefined_variable_is_reported_at_its_first_read():
    # y is assigned only when a > 0; the second program reads it twice
    texts = ["function f(a, b)\n  if a > 0\n    y = a\n  end\n  return y + b % a\nend\n",
             "function f(a, b)\n  if a > 0\n    y = a\n  end\n  return y * b + y\nend\n"]
    want = {(0, 2): Pos(5, 10), (-1, 3): Pos(5, 10)}
    for text in texts:
        fn = source_fn(text)
        for hot in (False, True):
            for args, pos in want.items():
                with pytest.raises(EvalError, match="undefined variable 'y'") as info:
                    run_source(fn, args)
                assert info.value.pos == pos, (text, args, hot)
            run_hot(fn, (1, 2))


def test_a_function_nested_deeper_than_python_compiles_stays_interpreted():
    # 24 nested loops: Python compiles at most 20 nested blocks
    text = ("function f(n)\n  s = 0\n" + "  while s < 3\n" * 24
            + "  s = s + n\n" + "  end\n" * 24 + "  return s\nend\n")
    func = source_fn(text)
    assert interp._compile_source(interp._SourcePlan(func)) is None
    for _ in range(200):
        assert run_source(func, (1,)) == 3
    assert func.plan.compiled is None and func.plan.limit == math.inf
