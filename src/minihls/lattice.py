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
operator symbol, signature, default latency, Python expression (the one
source of its arithmetic: its function `fn` is built from it, and compiled
code pastes it as `inline` writes it) and the VHDL statement that drives
its result.  `METHODS`, the one method table
that inference, the source interpreter and `--dump-dispatch` read,
`DEFAULT_LATENCIES`, `SELECT_OPCODES` and `SITOFP` are derived from it,
so adding an opcode means adding one row.  After dispatch an operation is
its row at every layer: a typed call and an SSA instruction hold the row
itself, and a select instruction's op is its `SelectOp` row.  `bind`
makes the one callable that every cold evaluator runs for an operation.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

from .errors import DivByZeroError, NoMethodError, Pos


class LatticeType(enum.Enum):
    BOTTOM = "Bottom"
    BOOL = "Bool"
    INT64 = "Int64"
    FLOAT64 = "Float64"
    TOP = "Top"

    __hash__ = object.__hash__  # members are singletons, compared by identity

    def __str__(self) -> str:
        return self.value

    @property
    def is_concrete(self) -> bool:
        return self in (LatticeType.BOOL, LatticeType.INT64, LatticeType.FLOAT64)

    @property
    def short(self) -> str:
        return _SHORT_NAMES[self]


_SHORT_NAMES = {
    LatticeType.BOOL: "i1",
    LatticeType.INT64: "i64",
    LatticeType.FLOAT64: "f64",
    LatticeType.BOTTOM: "bottom",
    LatticeType.TOP: "top",
}

# the bit width of a concrete type in hardware; the others have no `width`
LatticeType.BOOL.width, LatticeType.INT64.width, LatticeType.FLOAT64.width = 1, 64, 64

ANNOTATION_TO_TYPE = {"Bool": LatticeType.BOOL, "Int64": LatticeType.INT64,
                      "Float64": LatticeType.FLOAT64}
# the Python type of a concrete type's values
PY_TYPES = {LatticeType.BOOL: bool, LatticeType.INT64: int,
            LatticeType.FLOAT64: float}


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


def _fdiv(a: float, b: float) -> float:
    if b != 0.0:
        return a / b
    if math.isnan(a) or a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _mod(a: int, b: int) -> int:
    if b == 0:  # `bind` re-raises it at the operation's position
        raise DivByZeroError("integer mod by zero", Pos(0, 0))
    r = abs(a) % abs(b)  # truncated: the remainder takes the dividend's sign
    return r if a >= 0 else -r


# the globals a row's expression reads, in every scope that runs one
PY_GLOBALS = {"_fdiv": _fdiv, "_mod": _mod}
# an Int64 expression wrapped to 64 bits with no call; no compiled text names `w`
_WRAP = (f"(w if {-_I64_MAX - 1} <= (w := {{}}) <= {_I64_MAX} else "
         f"((w + {_I64_MAX + 1}) & {_U64 - 1}) - {_I64_MAX + 1})").format


@dataclass(frozen=True)
class OperatorImpl:
    """One opcode: the symbol dispatch resolves to it (None if none does),
    its signature, default latency in cycles, Python expression `py` on
    operand names `{0}` to `{2}`, each maybe read twice, the VHDL statement
    that drives `result`, whether it traps, and `fn`, `py` as a function."""

    symbol: str | None
    opcode: str
    operand_types: tuple[LatticeType, ...]
    result_type: LatticeType
    latency: int = field(compare=False, repr=False)
    py: str = field(compare=False, repr=False)
    vhdl: str = field(compare=False, repr=False)
    traps: bool = field(default=False, compare=False, repr=False)
    fn: Callable[..., object] = field(default=None, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class SelectOp(OperatorImpl):
    """A strict select row, (Bool, t, t) -> t: consumes its condition and
    both arms and yields one arm.  If-conversion, not dispatch, makes it."""


B, I, F = LatticeType.BOOL, LatticeType.INT64, LatticeType.FLOAT64


# VHDL statements that drive an operator's `result` signal from an expression
_INT = "result <= std_logic_vector({});"
_FLOAT = "result <= to_slv({});"
_FLAG = "result(0) <= '1' when {} else '0';"

# Every opcode, one row each, whose expression is its arithmetic in every tier.  A latency
# only affects cycle counts, never results; the CLI and config can override it.
_ROWS = [
    OperatorImpl("+", "add_i64", (I, I), I, 0, _WRAP("{0} + {1}"),
                 _INT.format("signed(in0_data) + signed(in1_data)")),
    OperatorImpl("-", "sub_i64", (I, I), I, 0, _WRAP("{0} - {1}"),
                 _INT.format("signed(in0_data) - signed(in1_data)")),
    OperatorImpl("*", "mul_i64", (I, I), I, 2, _WRAP("{0} * {1}"),
                 _INT.format("resize(signed(in0_data) * signed(in1_data), 64)")),
    OperatorImpl("%", "mod_i64", (I, I), I, 8, "_mod({0}, {1})",
                 _INT.format("signed(in0_data) rem signed(in1_data)"), traps=True),
    OperatorImpl("-", "neg_i64", (I,), I, 0, _WRAP("-{0}"),
                 _INT.format("-signed(in0_data)")),
    OperatorImpl("+", "fadd_f64", (F, F), F, 4, "({0} + {1})",
                 _FLOAT.format("to_float64(in0_data) + to_float64(in1_data)")),
    OperatorImpl("-", "fsub_f64", (F, F), F, 4, "({0} - {1})",
                 _FLOAT.format("to_float64(in0_data) - to_float64(in1_data)")),
    OperatorImpl("*", "fmul_f64", (F, F), F, 4, "({0} * {1})",
                 _FLOAT.format("to_float64(in0_data) * to_float64(in1_data)")),
    OperatorImpl("/", "fdiv_f64", (F, F), F, 8, "({0} / {1} if {1} else _fdiv({0}, {1}))",
                 _FLOAT.format("to_float64(in0_data) / to_float64(in1_data)")),
    OperatorImpl("-", "fneg_f64", (F,), F, 0, "(-{0})",
                 _FLOAT.format("-to_float64(in0_data)")),
    OperatorImpl("&&", "and_i1", (B, B), B, 0, "({0} and {1})",
                 _FLAG.format("(in0_data(0) and in1_data(0)) = '1'")),
    OperatorImpl("||", "or_i1", (B, B), B, 0, "({0} or {1})",
                 _FLAG.format("(in0_data(0) or in1_data(0)) = '1'")),
    OperatorImpl("!", "not_i1", (B,), B, 0, "(not {0})",
                 _FLAG.format("in0_data(0) = '0'")),
    # the int-to-float conversion that promotion inserts
    OperatorImpl(None, "sitofp", (I,), F, 2, "float({0})",
                 _FLOAT.format("to_float(signed(in0_data), 11, 52)")),
]
for _sym, _name, _vop in (("<", "lt", "<"), ("<=", "le", "<="), (">", "gt", ">"),
                          (">=", "ge", ">="), ("==", "eq", "="), ("!=", "ne", "/=")):
    _ROWS += [
        OperatorImpl(_sym, f"cmp_{_name}_i64", (I, I), B, 0, f"({{0}} {_sym} {{1}})",
                     _FLAG.format(f"signed(in0_data) {_vop} signed(in1_data)")),
        OperatorImpl(_sym, f"fcmp_{_name}_f64", (F, F), B, 1, f"({{0}} {_sym} {{1}})",
                     _FLAG.format(f"to_float64(in0_data) {_vop} to_float64(in1_data)"))]
# Strict (non-short-circuit) select over already computed values
_SELECTS = [SelectOp(None, f"select_{t.short}", (B, t, t), t, 0, "({1} if {0} else {2})",
                     "result <= in1_data when in0_data(0) = '1' else in2_data;")
            for t in (B, I, F)]

IMPL_BY_OPCODE: dict[str, OperatorImpl] = {imp.opcode: imp
                                           for imp in _ROWS + _SELECTS}
# each row's function, a `def` of its expression; all are made in one exec
exec("\n".join(f"def {op}({', '.join(xs)}): return {imp.py.format(*xs)}" for op, imp
               in IMPL_BY_OPCODE.items() for xs in ["abc"[:len(imp.operand_types)]]),
     _scope := dict(PY_GLOBALS))
for _imp in IMPL_BY_OPCODE.values():
    object.__setattr__(_imp, "fn", _scope[_imp.opcode])
DEFAULT_LATENCIES: dict[str, int] = {op: imp.latency
                                     for op, imp in IMPL_BY_OPCODE.items()}
SITOFP = IMPL_BY_OPCODE["sitofp"]
SELECT_OPCODES = {imp.result_type: imp.opcode for imp in _SELECTS}

# Symbols whose mixed Int64/Float64 operands promote to Float64. `/` also
# promotes an all-Int64 pair so that division always runs in Float64;
# `%` stays Int64-only and `&&`/`||` require Bool outright.
_PROMOTING = {"+", "-", "*", "/", "<", "<=", ">", ">=", "==", "!="}


@dataclass(frozen=True)
class Dispatch:
    """Resolved operator plus any per-operand conversions to insert."""

    impl: OperatorImpl
    conversions: tuple[OperatorImpl | None, ...]


# The method table, (symbol, *operand types) -> Dispatch: each row under its
# own types, then, where no row is exact, a promoting symbol's Float64 row
# with `sitofp` on each Int64 operand.
METHODS: dict[tuple, Dispatch] = {
    (imp.symbol, *imp.operand_types): Dispatch(imp, (None,) * len(imp.operand_types))
    for imp in _ROWS if imp.symbol is not None}
for _imp in _ROWS:
    if _imp.symbol in _PROMOTING and set(_imp.operand_types) == {F}:
        for _types in itertools.product((I, F), repeat=len(_imp.operand_types)):
            METHODS.setdefault((_imp.symbol, *_types), Dispatch(
                _imp, tuple(SITOFP if t == I else None for t in _types)))
# the type of a value by its Python type
TYPE_OF = {py: ty for ty, py in PY_TYPES.items()}


def dispatch(symbol: str, operand_types: tuple[LatticeType, ...],
             pos: Pos | None = None) -> Dispatch:
    """The method of `symbol` for concrete operand types; raises
    NoMethodError for combinations the lattice forbids (e.g. Bool + Int64)."""
    d = METHODS.get((symbol, *operand_types))
    if d is not None:
        return d
    if not all(t.is_concrete for t in operand_types):
        raise NoMethodError(
            f"operator {symbol!r} applied to non-concrete type "
            f"({', '.join(map(str, operand_types))})", pos)
    raise NoMethodError(
        f"no implementation of operator {symbol!r} for operand types "
        f"({', '.join(map(str, operand_types))})", pos)


def bind(impl: OperatorImpl, pos: Pos | None, conversions: tuple = ()) -> Callable:
    """The one callable every cold evaluator runs for an operation: row
    `impl`'s function, after `conversions` (a method's, binary only) on its
    arguments, raising a trap at `pos`."""
    fn = impl.fn
    if any(conversions):
        cx, cy = (conv.fn if conv else (lambda v: v) for conv in conversions)
        fn = lambda a, b, f=fn: f(cx(a), cy(b))
    if not impl.traps:
        return fn

    def trapping(*args, fn=fn):
        try:
            return fn(*args)
        except DivByZeroError as e:
            raise DivByZeroError(e.message, pos) from None
    return trapping


def inline(impl: OperatorImpl, names, conversions: tuple = ()) -> str:
    """What compiled code pastes for an operation: row `impl`'s expression on
    operand `names`, converted as `conversions` say; a trap has no position."""
    return impl.py.format(*(conv.py.format(x) if conv else x
                            for x, conv in zip(names, conversions or (None,) * len(names))))


def dispatch_table() -> list[tuple[str, tuple[LatticeType, ...], Dispatch]]:
    """Every method: binary symbols sorted, then unary ones, each by operand
    types in (Bool, Int64, Float64) product order.  Used by
    `--dump-dispatch` and the exhaustive promotion-table tests."""
    order = (B, I, F).index
    return [(key[0], key[1:], d) for key, d in sorted(
        METHODS.items(), key=lambda kv: (-len(kv[0]), kv[0][0], *map(order, kv[0][1:])))]


def format_dispatch_table() -> str:
    lines = []
    for symbol, operands, d in dispatch_table():
        args = []
        for t, conv in zip(operands, d.conversions):
            args.append(t.short if conv is None else f"{t.short}~{conv.opcode}")
        lines.append(f"{symbol}\t{','.join(args)}\t{d.impl.opcode}\t{d.impl.result_type.short}")
    return "\n".join(lines) + "\n"
