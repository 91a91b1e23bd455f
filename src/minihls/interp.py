"""Reference semantics.

The `fn` of each `lattice.IMPL_BY_OPCODE` row is the single arithmetic
kernel: the source-level and SSA interpreters and the circuit simulator
all call it (the interpreters through `eval_op`), so their results are
bit-identical by construction and differential runs compare scheduling,
not arithmetic.

The source-level interpreter dispatches on runtime values, independent of
static inference, which makes it an oracle for the type checker as well:
on a type-stable program both must pick the same implementations.  It
looks operators up in a table built once from `lattice.dispatch_table`.
"""

from __future__ import annotations

from . import source as src
from .errors import DivByZeroError, EvalError, FuelExhaustedError, Pos
from .ir import ConstOp, Goto, Instr, Ret, SelectOp, SSAFunction
from .lattice import (IMPL_BY_OPCODE, LatticeType, OperatorImpl, dispatch,
                      dispatch_table, wrap64)

DEFAULT_FUEL = 1_000_000

_NO_POS = Pos(0, 0)  # where no source position applies; the CLI omits it

Value = object  # bool, int in [-2^63, 2^63), or float


def eval_op(opcode: str, args: tuple, pos: Pos = _NO_POS) -> Value:
    if opcode not in IMPL_BY_OPCODE:
        raise EvalError(f"unknown opcode {opcode!r}", pos)
    try:
        return IMPL_BY_OPCODE[opcode].fn(*args)
    except DivByZeroError as e:  # the trap is the caller's, at pos
        raise DivByZeroError(e.message, pos) from None


def type_of_value(v: Value) -> LatticeType:
    if isinstance(v, bool):  # before int: bool is an int subclass
        return LatticeType.BOOL
    if isinstance(v, int):
        return LatticeType.INT64
    if isinstance(v, float):
        return LatticeType.FLOAT64
    raise EvalError(f"value {v!r} has no hardware type")


def coerce_args(sig: tuple[LatticeType, ...], raw: tuple) -> tuple:
    """Check and normalize entry arguments against a signature."""
    if len(sig) != len(raw):
        raise EvalError(f"expected {len(sig)} argument(s), got {len(raw)}")
    out = []
    for i, (ty, v) in enumerate(zip(sig, raw)):
        if ty == LatticeType.FLOAT64 and isinstance(v, int) and not isinstance(v, bool):
            v = float(v)
        if type_of_value(v) != ty:
            raise EvalError(
                f"argument {i} must be {ty}, got {type_of_value(v).__class__.__name__}"
                f" {v!r}")
        if ty == LatticeType.INT64:
            v = wrap64(v)
        out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Source-level interpreter (dynamic dispatch)
# ---------------------------------------------------------------------------


class _Fuel:
    def __init__(self, amount: int):
        self.left = amount

    def burn(self, pos: Pos) -> None:
        self.left -= 1
        if self.left < 0:
            raise FuelExhaustedError("evaluation fuel exhausted", pos)


_RETURN = object()  # sentinel key for the return slot


def run_source(func: src.FunctionDef, args: tuple,
               fuel: int = DEFAULT_FUEL) -> Value:
    if len(args) != len(func.params):
        raise EvalError(
            f"{func.name} takes {len(func.params)} argument(s), got {len(args)}",
            func.pos)
    env: dict = {p.name: v for p, v in zip(func.params, args)}
    gas = _Fuel(fuel)
    result = _exec_stmts(func.body, env, gas)
    if result is _RETURN:
        raise EvalError(f"{func.name} fell off the end", func.pos)
    return result


def _eval_expr(e: src.Expr, env: dict, gas: _Fuel) -> Value:
    gas.burn(e.pos)
    if isinstance(e, (src.IntLit, src.FloatLit, src.BoolLit)):
        return e.value
    if isinstance(e, src.Var):
        if e.name not in env:
            raise EvalError(f"undefined variable {e.name!r}", e.pos)
        return env[e.name]
    if isinstance(e, src.Unary):
        v = _eval_expr(e.operand, env, gas)
        return _apply(e.op, (v,), e.pos)
    if isinstance(e, src.Binary):
        left = _eval_expr(e.left, env, gas)
        right = _eval_expr(e.right, env, gas)  # && and || are strict
        return _apply(e.op, (left, right), e.pos)
    raise EvalError(f"unknown expression node {e!r}", e.pos)


_PY_TYPES = {LatticeType.BOOL: bool, LatticeType.INT64: int,
             LatticeType.FLOAT64: float}
# (symbol, Python type of each operand) -> Dispatch, for every dispatch
_DISPATCH = {(symbol, *map(_PY_TYPES.get, types)): d
             for symbol, types, d in dispatch_table()}


def _apply(symbol: str, operands: tuple, pos: Pos) -> Value:
    # on a miss, dispatch resolves the operands or raises NoMethodError at pos
    d = (_DISPATCH.get((symbol, *map(type, operands)))
         or dispatch(symbol, tuple(map(type_of_value, operands)), pos))
    if any(d.conversions):
        operands = tuple(v if conv is None else conv.fn(v)
                         for v, conv in zip(operands, d.conversions))
    return eval_op(d.impl.opcode, operands, pos)


def _exec_stmts(stmts, env: dict, gas: _Fuel):
    """Returns the function result, or _RETURN if control falls through."""
    for s in stmts:
        gas.burn(s.pos)
        if isinstance(s, src.Assign):
            env[s.target] = _eval_expr(s.value, env, gas)
        elif isinstance(s, src.Return):
            return _eval_expr(s.value, env, gas)
        elif isinstance(s, src.If):
            r = _exec_if(s, env, gas)
            if r is not _RETURN:
                return r
        elif isinstance(s, src.While):
            while _truth(s.cond, env, gas):
                r = _exec_stmts(s.body, env, gas)
                if r is not _RETURN:
                    return r
        else:
            raise EvalError(f"unknown statement node {s!r}", s.pos)
    return _RETURN


def _truth(cond: src.Expr, env: dict, gas: _Fuel) -> bool:
    v = _eval_expr(cond, env, gas)
    if not isinstance(v, bool):
        raise EvalError(f"condition evaluated to non-Bool {v!r}", cond.pos)
    return v


def _exec_if(s: src.If, env: dict, gas: _Fuel):
    if _truth(s.cond, env, gas):
        return _exec_stmts(s.then, env, gas)
    for cond, body in s.elifs:
        if _truth(cond, env, gas):
            return _exec_stmts(body, env, gas)
    if s.orelse is not None:
        return _exec_stmts(s.orelse, env, gas)
    return _RETURN


# ---------------------------------------------------------------------------
# SSA interpreter
# ---------------------------------------------------------------------------


def _apply_instr(ins: Instr, env: dict) -> Value:
    if isinstance(ins.op, ConstOp):
        return ins.op.value
    args = tuple(env[a] for a in ins.args)
    if isinstance(ins.op, SelectOp):
        return args[1] if args[0] else args[2]
    if isinstance(ins.op, OperatorImpl):
        return eval_op(ins.op.opcode, args, ins.pos)
    raise EvalError(f"unknown instruction op {ins.op!r}", ins.pos)


def run_ssa(func: SSAFunction, args: tuple, fuel: int = DEFAULT_FUEL) -> Value:
    if len(args) != len(func.params):
        raise EvalError(
            f"{func.name} takes {len(func.params)} argument(s), got {len(args)}")
    env: dict = {vid: v for (vid, _), v in zip(func.params, args)}
    gas = _Fuel(fuel)
    block = func.entry
    by_id = {b.id: b for b in func.blocks}
    while True:
        for ins in block.instrs:
            gas.burn(ins.pos)
            env[ins.result] = _apply_instr(ins, env)
        t = block.terminator
        gas.burn(_NO_POS)
        if isinstance(t, Ret):
            return env[t.value]
        if isinstance(t, Goto):
            target, edge_args = t.target, t.args
        else:
            if env[t.cond]:
                target, edge_args = t.then_target, t.then_args
            else:
                target, edge_args = t.else_target, t.else_args
        nxt = by_id[target]
        env.update({pid: env[a] for (pid, _), a in zip(nxt.params, edge_args)})
        block = nxt
