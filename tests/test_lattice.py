"""Lattice joins and operator dispatch.

The frozen table below enumerates every (operator, operand types) pair
that must dispatch, with its opcode and result type; it was written out
by hand from the promotion rules, so the dispatch code is checked
against an independent statement of the same rules.
"""

import itertools

import pytest

from minihls.errors import NoMethodError
from minihls.lattice import (
    DEFAULT_LATENCIES, IMPL_BY_OPCODE, METHODS, LatticeType, dispatch,
    dispatch_table, format_dispatch_table, join, join_all,
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
