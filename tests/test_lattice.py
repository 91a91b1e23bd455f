"""Lattice joins and operator dispatch.

The frozen table below enumerates every (operator, operand types) pair
that must dispatch, with its opcode and result type; it was written out
by hand from the promotion rules, so the dispatch code is checked
against an independent statement of the same rules.
"""

import itertools
import math
import struct

import pytest

from minihls.codegen import define
from minihls.errors import DivByZeroError, NoMethodError, Pos
from minihls.lattice import (
    DEFAULT_LATENCIES, IMPL_BY_OPCODE, METHODS, PY_GLOBALS, PY_TYPES, LatticeType, bind,
    dispatch, dispatch_table, format_dispatch_table, inline, join, join_all,
)

B, I, F = LatticeType.BOOL, LatticeType.INT64, LatticeType.FLOAT64
BOT, TOP = LatticeType.BOTTOM, LatticeType.TOP

CONCRETE = (B, I, F)

ARITH = ("+", "-", "*")
CMP = ("<", "<=", ">", ">=", "==", "!=")
LOGIC = ("&&", "||")

# (symbol, operand types) -> (opcode, result type). Promotion: Int64 and
# Float64 mix to Float64 through sitofp; Bool never promotes and never
# compares; "/" is always Float64; "%" is Int64 only. Unary minus shares
# its symbol with subtraction and is keyed by arity.
EXPECTED = {}
for op, stem in (("+", "add"), ("-", "sub"), ("*", "mul")):
    EXPECTED[(op, (I, I))] = (f"{stem}_i64", I)
    EXPECTED[(op, (F, F))] = (f"f{stem}_f64", F)
    EXPECTED[(op, (I, F))] = (f"f{stem}_f64", F)
    EXPECTED[(op, (F, I))] = (f"f{stem}_f64", F)
for op, stem in (("<", "lt"), ("<=", "le"), (">", "gt"), (">=", "ge"),
                 ("==", "eq"), ("!=", "ne")):
    EXPECTED[(op, (I, I))] = (f"cmp_{stem}_i64", B)
    EXPECTED[(op, (F, F))] = (f"fcmp_{stem}_f64", B)
    EXPECTED[(op, (I, F))] = (f"fcmp_{stem}_f64", B)
    EXPECTED[(op, (F, I))] = (f"fcmp_{stem}_f64", B)
EXPECTED[("/", (I, I))] = ("fdiv_f64", F)
EXPECTED[("/", (F, F))] = ("fdiv_f64", F)
EXPECTED[("/", (I, F))] = ("fdiv_f64", F)
EXPECTED[("/", (F, I))] = ("fdiv_f64", F)
EXPECTED[("%", (I, I))] = ("mod_i64", I)
EXPECTED[("&&", (B, B))] = ("and_i1", B)
EXPECTED[("||", (B, B))] = ("or_i1", B)
EXPECTED[("-", (I,))] = ("neg_i64", I)
EXPECTED[("-", (F,))] = ("fneg_f64", F)
EXPECTED[("!", (B,))] = ("not_i1", B)

ALL_BINARY = ARITH + CMP + LOGIC + ("/", "%")


def test_join_is_commutative_and_idempotent():
    everything = (BOT, B, I, F, TOP)
    for a, b in itertools.product(everything, repeat=2):
        assert join(a, b) == join(b, a)
    for a in everything:
        assert join(a, a) == a


def test_join_bottom_is_identity_top_absorbs():
    for t in (B, I, F, TOP):
        assert join(BOT, t) == t
        assert join(TOP, t) == TOP


def test_join_distinct_concrete_types_is_top():
    for a, b in itertools.combinations(CONCRETE, 2):
        assert join(a, b) == TOP


def test_join_all():
    assert join_all([I, I, I]) == I
    assert join_all([I, F]) == TOP
    assert join_all([]) == BOT


def test_dispatch_matches_frozen_table_exhaustively():
    """Every operator x concrete operand pair, positive and negative."""
    for op in ALL_BINARY:
        for types in itertools.product(CONCRETE, repeat=2):
            key = (op, types)
            if key in EXPECTED:
                opcode, result = EXPECTED[key]
                d = dispatch(op, types)
                assert d.impl.opcode == opcode, key
                assert d.impl.result_type == result, key
            else:
                with pytest.raises(NoMethodError):
                    dispatch(op, types)
    for op in ("-", "!"):
        for ty in CONCRETE:
            key = (op, (ty,))
            if key in EXPECTED:
                opcode, result = EXPECTED[key]
                d = dispatch(op, (ty,))
                assert (d.impl.opcode, d.impl.result_type) == (opcode, result)
            else:
                with pytest.raises(NoMethodError):
                    dispatch(op, (ty,))


def test_dispatch_inserts_conversions_only_on_promoted_side():
    d = dispatch("+", (I, F))
    assert [c is not None for c in d.conversions] == [True, False]
    assert d.conversions[0].opcode == "sitofp"
    d = dispatch("+", (F, I))
    assert [c is not None for c in d.conversions] == [False, True]
    d = dispatch("+", (I, I))
    assert all(c is None for c in d.conversions)


def test_division_always_promotes_ints():
    d = dispatch("/", (I, I))
    assert all(c is not None for c in d.conversions)
    assert d.impl.result_type == F


def test_dispatch_table_covers_expected_exactly():
    rows = {(sym, operands) for sym, operands, _ in dispatch_table()}
    assert rows == set(EXPECTED)


def test_format_dispatch_table_is_deterministic_and_complete():
    text = format_dispatch_table()
    assert text == format_dispatch_table()
    assert len(text.splitlines()) == len(EXPECTED)
    assert "sitofp" in text


def test_default_latencies_cover_every_opcode():
    # One row per opcode holds its function, latency and VHDL statement,
    # so a new opcode missing any of them fails here.
    assert len(IMPL_BY_OPCODE) == 29
    for opcode, row in IMPL_BY_OPCODE.items():
        assert row.opcode == opcode
        assert callable(row.fn) and row.vhdl.startswith("result")
    assert DEFAULT_LATENCIES == {op: row.latency
                                 for op, row in IMPL_BY_OPCODE.items()}
    assert all(v >= 0 for v in DEFAULT_LATENCIES.values())
    assert {d.impl.opcode for _, _, d in dispatch_table()} <= set(IMPL_BY_OPCODE)


def test_widths():
    assert B.width == 1
    assert I.width == 64
    assert F.width == 64


@pytest.mark.parametrize("ty", [BOT, TOP])
def test_a_non_concrete_type_has_no_width(ty):
    with pytest.raises(AttributeError):
        ty.width


def test_types_hash_by_identity():
    for ty in LatticeType:
        assert hash(ty) == object.__hash__(ty)
    assert len({B, I, F, BOT, TOP, LatticeType("Int64")}) == 5


def test_dispatch_reads_the_one_method_table():
    table = dispatch_table()
    assert len(table) == len(METHODS) == 46
    for sym, operands, d in table:
        assert dispatch(sym, operands) is d is METHODS[(sym, *operands)]


# -- each row's expression: called as its function and pasted as text -----


def pasted(impl, args, conversions=()):
    """Row `impl` (after `conversions`) on `args` as compiled code runs it:
    its expression pasted into a function over local operand names."""
    names = [f"x{k}" for k in range(len(args))]
    text = f"def run({', '.join(names)}):\n    y = {inline(impl, names, conversions)}\n"
    return define(text + "    return y\n", "<pasted row>", dict(PY_GLOBALS))(*args)


def called(impl, args, conversions=()):
    """Row `impl` (after `conversions`) on `args` as the cold tiers run it."""
    return bind(impl, Pos(1, 1), conversions)(*args)


def wrap(n):  # two's complement, written apart from the lattice's forms
    return ((n + 2**63) % 2**64) - 2**63


def trunc_rem(a, b):  # `a` less `b` times their quotient rounded toward zero
    q = a // b
    if q < 0 and q * b != a:
        q += 1
    return wrap(a - b * q)


def ieee_div(a, b):
    if b:
        return a / b
    if a != a or a == 0:
        return float("nan")
    return math.inf if (a > 0) == (math.copysign(1.0, b) > 0) else -math.inf


# the result of each opcode from plain Python, by opcode
REFERENCE = {
    "add_i64": lambda a, b: wrap(a + b), "sub_i64": lambda a, b: wrap(a - b),
    "mul_i64": lambda a, b: wrap(a * b), "neg_i64": lambda a: wrap(-a),
    "mod_i64": trunc_rem, "fadd_f64": lambda a, b: a + b, "fsub_f64": lambda a, b: a - b,
    "fmul_f64": lambda a, b: a * b, "fdiv_f64": ieee_div, "fneg_f64": lambda a: -a,
    "and_i1": lambda a, b: a & b, "or_i1": lambda a, b: a | b, "not_i1": lambda a: a ^ True,
    "sitofp": lambda a: a + 0.0,
    **{f"{p}cmp_{name}_{t}": fn for p, t in (("", "i64"), ("f", "f64")) for name, fn in (
        ("lt", lambda a, b: a < b), ("le", lambda a, b: a <= b), ("gt", lambda a, b: a > b),
        ("ge", lambda a, b: a >= b), ("eq", lambda a, b: a == b), ("ne", lambda a, b: a != b))},
    **{f"select_{t}": lambda c, a, b: (b, a)[c] for t in ("i1", "i64", "f64")},
}
INT_MIN, INT_MAX = -2**63, 2**63 - 1
VALUES = {
    I: (INT_MIN, INT_MIN + 1, -3037000500, -(2**32), -1, 0, 1, 2**32, 2**53 + 1, 3037000499,
        3037000500, INT_MAX - 1, INT_MAX),  # 3037000499 squared is just in range
    # 2.0**53 and 2.0**63 equal 2**53 + 1 and INT_MAX converted, not unconverted
    F: (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.5, 2.0**53, 2.0**63,
        1.7976931348623157e308, -1.7976931348623157e308),
    B: (False, True),
}


def exactly(v):
    """`v` told apart by type and, for a float, by its bits."""
    return type(v), struct.pack("<d", v) if isinstance(v, float) else v


@pytest.mark.parametrize("key", [*IMPL_BY_OPCODE, *(key for key, d in METHODS.items()
                                                     if any(d.conversions))],
                         ids=lambda k: k if isinstance(k, str) else
                         f"{k[0]}({','.join(t.short for t in k[1:])})")
def test_a_row_called_and_pasted_matches_plain_python_on_the_edges(key):
    """Every row, and every method with conversions, on every combination
    of its operand types' edge values: the function the cold tiers call
    and the expression the compiled tiers paste both give the reference's
    value, to the bit and the type, or both trap where it divides by 0."""
    if isinstance(key, str):
        impl, convs, types = IMPL_BY_OPCODE[key], (), IMPL_BY_OPCODE[key].operand_types
    else:
        d, types = METHODS[key], key[1:]
        impl, convs = d.impl, d.conversions
    ref = REFERENCE[impl.opcode]
    for args in itertools.product(*map(VALUES.get, types)):
        operands = [REFERENCE[c.opcode](x) if c else x
                    for x, c in zip(args, convs or (None,) * len(args))]
        if impl.traps and operands[1] == 0:
            for form in (called, pasted):
                with pytest.raises(DivByZeroError):
                    form(impl, args, convs)
            continue
        want = exactly(ref(*operands))
        assert want[0] is PY_TYPES[impl.result_type], (key, args)
        assert exactly(called(impl, args, convs)) == want, (key, args)
        assert exactly(pasted(impl, args, convs)) == want, (key, args)
