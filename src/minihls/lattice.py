"""Type lattice and operator dispatch.

The lattice is flat: Bottom < {Bool, Int64, Float64} < Top.  Joins happen
at control-flow merges during inference; a join of two distinct concrete
types is Top (a type-stability failure).  Operator dispatch is separate:
inside a single expression, mixed Int64/Float64 operands promote to
Float64 through an explicit int-to-float conversion, division always
produces Float64, and logical operators require Bool.  Each resolved
operator names a hardware opcode (``add_i64``, ``fmul_f64``, ...), which
is the unit the circuit generator and VHDL library work with.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import NoMethodError, Pos


class LatticeType(enum.Enum):
    BOTTOM = "Bottom"
    BOOL = "Bool"
    INT64 = "Int64"
    FLOAT64 = "Float64"
    TOP = "Top"

    def __str__(self) -> str:
        return self.value

    @property
    def is_concrete(self) -> bool:
        return self in (LatticeType.BOOL, LatticeType.INT64, LatticeType.FLOAT64)

    @property
    def short(self) -> str:
        return _SHORT_NAMES[self]

    @property
    def width(self) -> int:
        """Bit width of the hardware representation of this type."""
        return _WIDTHS[self]


_SHORT_NAMES = {
    LatticeType.BOOL: "i1",
    LatticeType.INT64: "i64",
    LatticeType.FLOAT64: "f64",
    LatticeType.BOTTOM: "bottom",
    LatticeType.TOP: "top",
}

_WIDTHS = {LatticeType.BOOL: 1, LatticeType.INT64: 64, LatticeType.FLOAT64: 64}

ANNOTATION_TO_TYPE = {"Bool": LatticeType.BOOL, "Int64": LatticeType.INT64,
                      "Float64": LatticeType.FLOAT64}


def format_value(v: object) -> str:
    """A value as the language writes it: true/false, the shortest repr of
    a float and the decimal digits of an int."""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


def join(a: LatticeType, b: LatticeType) -> LatticeType:
    if a == b:
        return a
    if a == LatticeType.BOTTOM:
        return b
    if b == LatticeType.BOTTOM:
        return a
    return LatticeType.TOP


def join_all(types) -> LatticeType:
    result = LatticeType.BOTTOM
    for t in types:
        result = join(result, t)
    return result


@dataclass(frozen=True)
class OperatorImpl:
    """One concrete operator implementation selected by dispatch."""

    symbol: str
    opcode: str
    operand_types: tuple[LatticeType, ...]
    result_type: LatticeType

    def __str__(self) -> str:
        args = ", ".join(t.short for t in self.operand_types)
        return f"{self.opcode}({args}) -> {self.result_type.short}"


def _impl(symbol: str, opcode: str, operands: tuple[LatticeType, ...],
          result: LatticeType) -> OperatorImpl:
    return OperatorImpl(symbol, opcode, operands, result)


B, I, F = LatticeType.BOOL, LatticeType.INT64, LatticeType.FLOAT64

# The int-to-float conversion inserted by promotion.
SITOFP = _impl("sitofp", "sitofp", (I,), F)

# Strict (non-short-circuit) select over already computed values; created
# by if-conversion rather than by dispatch.
SELECT_OPCODES = {B: "select_i1", I: "select_i64", F: "select_f64"}

_INT_ARITH = {"+": "add_i64", "-": "sub_i64", "*": "mul_i64", "%": "mod_i64"}
_FLOAT_ARITH = {"+": "fadd_f64", "-": "fsub_f64", "*": "fmul_f64", "/": "fdiv_f64"}
_CMP_NAMES = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "==": "eq", "!=": "ne"}
_LOGICAL = {"&&": "and_i1", "||": "or_i1"}

_TABLE: dict[tuple[str, tuple[LatticeType, ...]], OperatorImpl] = {}


def _register(impl: OperatorImpl) -> None:
    key = (impl.symbol, impl.operand_types)
    assert key not in _TABLE, key
    _TABLE[key] = impl


for _sym, _op in _INT_ARITH.items():
    _register(_impl(_sym, _op, (I, I), I))
for _sym, _op in _FLOAT_ARITH.items():
    _register(_impl(_sym, _op, (F, F), F))
for _sym, _name in _CMP_NAMES.items():
    _register(_impl(_sym, f"cmp_{_name}_i64", (I, I), B))
    _register(_impl(_sym, f"fcmp_{_name}_f64", (F, F), B))
for _sym, _op in _LOGICAL.items():
    _register(_impl(_sym, _op, (B, B), B))
_register(_impl("-", "neg_i64", (I,), I))
_register(_impl("-", "fneg_f64", (F,), F))
_register(_impl("!", "not_i1", (B,), B))

# Symbols whose mixed Int64/Float64 operands promote to Float64. `/` also
# promotes an all-Int64 pair so that division always runs in Float64;
# `%` stays Int64-only and `&&`/`||` require Bool outright.
_PROMOTING = {"+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!="}


@dataclass(frozen=True)
class Dispatch:
    """Resolved operator plus any per-operand conversions to insert."""

    impl: OperatorImpl
    conversions: tuple[OperatorImpl | None, ...]


def dispatch(symbol: str, operand_types: tuple[LatticeType, ...],
             pos: Pos | None = None) -> Dispatch:
    """Select the implementation of `symbol` for concrete operand types.

    Deterministic and total over the documented promotion table; raises
    NoMethodError for combinations the lattice forbids (e.g. Bool + Int64).
    """
    for t in operand_types:
        if not t.is_concrete:
            raise NoMethodError(
                f"operator {symbol!r} applied to non-concrete type "
                f"({', '.join(map(str, operand_types))})", pos)
    exact = _TABLE.get((symbol, operand_types))
    if exact is not None:
        return Dispatch(exact, tuple(None for _ in operand_types))
    if symbol in _PROMOTING and all(t in (I, F) for t in operand_types):
        promoted = tuple(F for _ in operand_types)
        impl = _TABLE.get((symbol, promoted))
        if impl is not None:
            conversions = tuple(SITOFP if t == I else None for t in operand_types)
            return Dispatch(impl, conversions)
    raise NoMethodError(
        f"no implementation of operator {symbol!r} for operand types "
        f"({', '.join(map(str, operand_types))})", pos)


def dispatch_table() -> list[tuple[str, tuple[LatticeType, ...], Dispatch]]:
    """Enumerate dispatch over every operator and concrete type tuple.

    Used by `--dump-dispatch` and the exhaustive promotion-table tests;
    combinations without an implementation are omitted.
    """
    from .source import BINARY_OPS, UNARY_OPS

    concrete = (B, I, F)
    rows = []
    for symbol in sorted(BINARY_OPS):
        for a in concrete:
            for b in concrete:
                try:
                    rows.append((symbol, (a, b), dispatch(symbol, (a, b))))
                except NoMethodError:
                    continue
    for symbol in sorted(UNARY_OPS):
        for a in concrete:
            try:
                rows.append((symbol, (a,), dispatch(symbol, (a,))))
            except NoMethodError:
                continue
    return rows


def format_dispatch_table() -> str:
    lines = []
    for symbol, operands, d in dispatch_table():
        args = []
        for t, conv in zip(operands, d.conversions):
            args.append(t.short if conv is None else f"{t.short}~{conv.opcode}")
        lines.append(f"{symbol}\t{','.join(args)}\t{d.impl.opcode}\t{d.impl.result_type.short}")
    return "\n".join(lines) + "\n"


# Default operator latencies in cycles; overridable via the CLI/config.
# Exact values only affect cycle counts, never results.
DEFAULT_LATENCIES: dict[str, int] = {
    "add_i64": 0, "sub_i64": 0, "neg_i64": 0,
    "mul_i64": 2, "mod_i64": 8,
    "and_i1": 0, "or_i1": 0, "not_i1": 0,
    "fadd_f64": 4, "fsub_f64": 4, "fmul_f64": 4, "fdiv_f64": 8, "fneg_f64": 0,
    "sitofp": 2,
    "select_i1": 0, "select_i64": 0, "select_f64": 0,
}
for _name in _CMP_NAMES.values():
    DEFAULT_LATENCIES[f"cmp_{_name}_i64"] = 0
    DEFAULT_LATENCIES[f"fcmp_{_name}_f64"] = 1


IMPL_BY_OPCODE: dict[str, OperatorImpl] = {imp.opcode: imp for imp in _TABLE.values()}
IMPL_BY_OPCODE["sitofp"] = SITOFP
