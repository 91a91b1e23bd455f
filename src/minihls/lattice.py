"""Type lattice and operator dispatch.

The lattice is flat: Bottom < {Bool, Int64, Float64} < Top.  Joins happen
at control-flow merges during inference; a join of two distinct concrete
types is Top (a type-stability failure).  Operator dispatch is separate:
inside a single expression, mixed Int64/Float64 operands promote to
Float64 through an explicit int-to-float conversion, division always
produces Float64, and logical operators require Bool.  Each resolved
operator names a hardware opcode (``add_i64``, ``fmul_f64``, ...), which
is the unit the circuit generator and VHDL library work with.

`IMPL_BY_OPCODE` is the one opcode table: each row holds an opcode's
operator symbol, signature, default latency, function on Python values
(the arithmetic kernel every interpreter and the simulator call) and the
VHDL statement that drives its result.  Dispatch, `DEFAULT_LATENCIES`,
`SELECT_OPCODES` and `SITOFP` are derived from it, so adding an opcode
means adding one row.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import DivByZeroError, NoMethodError, Pos


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


# Int64 arithmetic wraps to 64-bit two's complement; `mod` truncates
# toward zero and traps on a zero divisor.  Float64 is IEEE double, so
# division by zero yields a signed infinity or nan where Python would raise.
_U64 = 1 << 64
_I64_MAX = (1 << 63) - 1


def wrap64(n: int) -> int:
    n &= _U64 - 1
    return n - _U64 if n > _I64_MAX else n


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _fdiv(a: float, b: float) -> float:
    if b != 0.0:
        return a / b
    if math.isnan(a) or a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _mod(a: int, b: int) -> int:
    if b == 0:  # the caller re-raises at the operator's position
        raise DivByZeroError("integer mod by zero", Pos(0, 0))
    return wrap64(a - b * _trunc_div(a, b))


@dataclass(frozen=True)
class OperatorImpl:
    """One opcode: the symbol dispatch resolves to it (None if none does),
    its signature, default latency in cycles, function on Python values,
    the VHDL statement that drives `result`, and whether it traps."""

    symbol: str | None
    opcode: str
    operand_types: tuple[LatticeType, ...]
    result_type: LatticeType
    latency: int = field(compare=False, repr=False)
    fn: Callable[..., object] = field(compare=False, repr=False)
    vhdl: str = field(compare=False, repr=False)
    traps: bool = field(default=False, compare=False, repr=False)

    def __str__(self) -> str:
        args = ", ".join(t.short for t in self.operand_types)
        return f"{self.opcode}({args}) -> {self.result_type.short}"


B, I, F = LatticeType.BOOL, LatticeType.INT64, LatticeType.FLOAT64


# VHDL statements that drive an operator's `result` signal from an expression
_INT = "result <= std_logic_vector({});"
_FLOAT = "result <= to_slv({});"
_FLAG = "result(0) <= '1' when {} else '0';"

# Every opcode, one row each.  A latency only affects cycle counts, never
# results; the CLI and config can override it.
_ROWS = [
    OperatorImpl("+", "add_i64", (I, I), I, 0, lambda a, b: wrap64(a + b),
                 _INT.format("signed(in0_data) + signed(in1_data)")),
    OperatorImpl("-", "sub_i64", (I, I), I, 0, lambda a, b: wrap64(a - b),
                 _INT.format("signed(in0_data) - signed(in1_data)")),
    OperatorImpl("*", "mul_i64", (I, I), I, 2, lambda a, b: wrap64(a * b),
                 _INT.format("resize(signed(in0_data) * signed(in1_data), 64)")),
    OperatorImpl("%", "mod_i64", (I, I), I, 8, _mod,
                 _INT.format("signed(in0_data) rem signed(in1_data)"), traps=True),
    OperatorImpl("-", "neg_i64", (I,), I, 0, lambda a: wrap64(-a),
                 _INT.format("-signed(in0_data)")),
    OperatorImpl("+", "fadd_f64", (F, F), F, 4, operator.add,
                 _FLOAT.format("to_float64(in0_data) + to_float64(in1_data)")),
    OperatorImpl("-", "fsub_f64", (F, F), F, 4, operator.sub,
                 _FLOAT.format("to_float64(in0_data) - to_float64(in1_data)")),
    OperatorImpl("*", "fmul_f64", (F, F), F, 4, operator.mul,
                 _FLOAT.format("to_float64(in0_data) * to_float64(in1_data)")),
    OperatorImpl("/", "fdiv_f64", (F, F), F, 8, _fdiv,
                 _FLOAT.format("to_float64(in0_data) / to_float64(in1_data)")),
    OperatorImpl("-", "fneg_f64", (F,), F, 0, operator.neg,
                 _FLOAT.format("-to_float64(in0_data)")),
    OperatorImpl("&&", "and_i1", (B, B), B, 0, lambda a, b: a and b,
                 _FLAG.format("(in0_data(0) and in1_data(0)) = '1'")),
    OperatorImpl("||", "or_i1", (B, B), B, 0, lambda a, b: a or b,
                 _FLAG.format("(in0_data(0) or in1_data(0)) = '1'")),
    OperatorImpl("!", "not_i1", (B,), B, 0, operator.not_,
                 _FLAG.format("in0_data(0) = '0'")),
    # the int-to-float conversion that promotion inserts
    OperatorImpl(None, "sitofp", (I,), F, 2, float,
                 _FLOAT.format("to_float(signed(in0_data), 11, 52)")),
]
for _sym, _name, _vop in (("<", "lt", "<"), ("<=", "le", "<="), (">", "gt", ">"),
                          (">=", "ge", ">="), ("==", "eq", "="), ("!=", "ne", "/=")):
    _fn = getattr(operator, _name)
    _ROWS += [
        OperatorImpl(_sym, f"cmp_{_name}_i64", (I, I), B, 0, _fn,
                     _FLAG.format(f"signed(in0_data) {_vop} signed(in1_data)")),
        OperatorImpl(_sym, f"fcmp_{_name}_f64", (F, F), B, 1, _fn,
                     _FLAG.format(f"to_float64(in0_data) {_vop} to_float64(in1_data)"))]
# Strict (non-short-circuit) select over already computed values; created
# by if-conversion rather than by dispatch.
_SELECTS = [OperatorImpl(None, f"select_{t.short}", (B, t, t), t, 0,
                         lambda c, a, b: a if c else b,
                         "result <= in1_data when in0_data(0) = '1' else in2_data;")
            for t in (B, I, F)]

IMPL_BY_OPCODE: dict[str, OperatorImpl] = {imp.opcode: imp
                                           for imp in _ROWS + _SELECTS}
DEFAULT_LATENCIES: dict[str, int] = {op: imp.latency
                                     for op, imp in IMPL_BY_OPCODE.items()}
SITOFP = IMPL_BY_OPCODE["sitofp"]
SELECT_OPCODES = {imp.result_type: imp.opcode for imp in _SELECTS}
# (symbol, operand types) -> the row dispatch picks
_TABLE = {(imp.symbol, imp.operand_types): imp
          for imp in _ROWS if imp.symbol is not None}

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

    rows = []
    for symbols, arity in ((BINARY_OPS, 2), (UNARY_OPS, 1)):
        for symbol in sorted(symbols):
            for types in itertools.product((B, I, F), repeat=arity):
                try:
                    rows.append((symbol, types, dispatch(symbol, types)))
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
