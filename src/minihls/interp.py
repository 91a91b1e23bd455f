"""Reference semantics.

The `fn` of each `lattice.IMPL_BY_OPCODE` row is the single arithmetic
kernel: the source-level and SSA interpreters and the circuit simulator
all call it, so their results are bit-identical by construction and
differential runs compare scheduling, not arithmetic.

Each interpreter resolves a program once into a plan kept on it; plan
closures take what they use as default arguments, as a cell per name
would double a plan's objects.  `run_source` compiles each AST node into
a closure that dispatches on runtime values, independent of static
inference, so it is an oracle for the type checker as well; an operator's
closure caches the row for the operand types it last saw.  `run_ssa`
runs IR that `ir.verify` accepts, as steps per block kept with verify's
record.  Both charge a statement's or a block's fuel at once, and with
too little left stop where counting node by node would.
"""

from __future__ import annotations

from math import inf
from operator import itemgetter

from . import source as src
from .errors import DivByZeroError, EvalError, FuelExhaustedError, Pos
from .ir import ConstOp, Instr, SelectOp, SSAFunction, successor_edges, verify
from .lattice import (IMPL_BY_OPCODE, LatticeType, dispatch, dispatch_table,
                      wrap64)

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
                f"argument {i} must be {ty}, got {type_of_value(v)} {v!r}")
        if ty == LatticeType.INT64:
            v = wrap64(v)
        out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Source-level interpreter (dynamic dispatch)
# ---------------------------------------------------------------------------


def run_source(func: src.FunctionDef, args: tuple,
               fuel: int = DEFAULT_FUEL) -> Value:
    if len(args) != len(func.params):
        raise EvalError(
            f"{func.name} takes {len(func.params)} argument(s), got {len(args)}",
            func.pos)
    if func.plan is None:
        object.__setattr__(func, "plan", _body(func.body))
    result = func.plan({p.name: v for p, v in zip(func.params, args)}, [max(fuel, 0)])
    if result is None:
        raise EvalError(f"{func.name} fell off the end", func.pos)
    return result


_PY_TYPES = {LatticeType.BOOL: bool, LatticeType.INT64: int,
             LatticeType.FLOAT64: float}
# (symbol, Python type of each operand) -> Dispatch, for every dispatch
_DISPATCH = {(symbol, *map(_PY_TYPES.get, types)): d
             for symbol, types, d in dispatch_table()}


def _apply(e: src.Unary | src.Binary, args: tuple, cache: list):
    """Operator `e` applied to `args` by dispatch, which may raise
    NoMethodError.  `cache` gets the types of `args` and the row function
    if that needs no conversion and cannot trap."""
    d = (_DISPATCH.get((e.op, *map(type, args)))
         or dispatch(e.op, tuple(map(type_of_value, args)), e.pos))
    if any(d.conversions):
        args = tuple(v if conv is None else conv.fn(v)
                     for v, conv in zip(args, d.conversions))
    elif not d.impl.traps:
        cache[:] = (*map(type, args), d.impl.fn)
    return eval_op(d.impl.opcode, args, e.pos)


def _expr(e: src.Expr, nodes: list):
    """Compile `e` into a closure of the environment; appends each node's
    (AST node, subtree size, closure) to `nodes` in evaluation order."""
    at = len(nodes)
    nodes.append(None)
    if isinstance(e, src.Var):
        run = itemgetter(e.name)  # `_replay` reports a missing name
    elif isinstance(e, src.Binary):
        def run(env, x=_expr(e.left, nodes), y=_expr(e.right, nodes), e=e,
                cache=[None, None, None]):  # operand types last seen, row fn
            a, b = x(env), y(env)  # && and || are strict
            ta, tb, fn = cache
            if type(a) is ta and type(b) is tb:
                return fn(a, b)
            return _apply(e, (a, b), cache)
    elif isinstance(e, src.Unary):
        def run(env, x=_expr(e.operand, nodes), e=e, cache=[None, None]):
            a = x(env)
            ta, fn = cache
            return fn(a) if type(a) is ta else _apply(e, (a,), cache)
    elif isinstance(e, (src.IntLit, src.FloatLit, src.BoolLit)):
        run = lambda env, v=e.value: v
    else:
        raise EvalError(f"unknown expression node {e!r}", e.pos)
    nodes[at] = (e, len(nodes) - at, run)
    return run


def _unit(e: src.Expr, stmt: src.Stmt | None = None, test: bool = False):
    """A closure of (env, gas) evaluating `e`, after the statement `stmt` if
    given, charging their fuel at once; gas is [fuel left].  A `test` must
    be a Bool."""
    value, cost = _expr(e, nodes := []), len(nodes) + (stmt is not None)

    def run(env, gas, e=e, stmt=stmt, value=value, cost=cost, test=test):
        if gas[0] < cost:
            _replay(e, stmt, gas[0], env)
        gas[0] -= cost
        try:
            v = value(env)
        except KeyError:  # a name is missing: the replay finds which read
            _replay(e, stmt, cost, env)
        if test and v is not True and v is not False:
            raise EvalError(f"condition evaluated to non-Bool {v!r}", e.pos)
        return v
    return run


def _replay(e: src.Expr, stmt: src.Stmt | None, left: int, env: dict):
    """Raise what `_unit(e, stmt)` raises run node by node with fuel for
    `left` nodes: the error of a subtree that fits, else running out."""
    nodes, i = [] if stmt is None else [(stmt, inf, None)], 0  # stmt first
    _expr(e, nodes)
    try:
        while i < left:
            _, size, run = nodes[i]
            if i + size <= left:  # a whole subtree is paid for
                run(env)
                i += size
            else:  # the node is, but its operator would run after node `left`
                i += 1
    except KeyError as err:  # from the first read of a missing name
        raise EvalError(f"undefined variable {err.args[0]!r}", next(
            n.pos for n, _, _ in nodes if n == src.Var(err.args[0]))) from None
    raise FuelExhaustedError("evaluation fuel exhausted", nodes[left][0].pos)


def _stmt(s: src.Stmt):
    """Compile a statement into a closure of (env, gas) that returns the
    function's result, or None if control falls through."""
    if isinstance(s, src.Assign):
        def run(env, gas, target=s.target, value=_unit(s.value, s)):
            env[target] = value(env, gas)
    elif isinstance(s, src.Return):
        run = _unit(s.value, s)
    elif isinstance(s, src.If):
        def run(env, gas, arms=[(_unit(s.cond, s, True), _body(s.then))] + [
                (_unit(c, None, True), _body(b)) for c, b in s.elifs],
                orelse=_body(s.orelse or ())):
            for test, body in arms:
                if test(env, gas):
                    return body(env, gas)
            return orelse(env, gas)
    elif isinstance(s, src.While):
        def run(env, gas, first=_unit(s.cond, s, True),
                again=_unit(s.cond, None, True), body=_body(s.body)):
            test = first  # also charges the statement
            while test(env, gas):
                if (result := body(env, gas)) is not None:
                    return result
                test = again
    else:
        raise EvalError(f"unknown statement node {s!r}", s.pos)
    return run


def _body(stmts):
    def run(env, gas, steps=tuple(map(_stmt, stmts))):
        for step in steps:
            if (result := step(env, gas)) is not None:
                return result
    return run


# ---------------------------------------------------------------------------
# SSA interpreter
# ---------------------------------------------------------------------------


def _step(ins: Instr) -> tuple:
    """(result id, function, argument count, argument ids padded to three
    with None); a constant has no function and its value as first id."""
    if isinstance(ins.op, ConstOp):
        return ins.result, None, 0, ins.op.value, None, None
    # every select row has the function of select_i1
    row = IMPL_BY_OPCODE["select_i1" if isinstance(ins.op, SelectOp)
                         else ins.op.opcode]
    fn = row.fn if not row.traps else (  # eval_op raises at ins
        lambda *args: eval_op(row.opcode, args, ins.pos))
    return (ins.result, fn, len(ins.args), *ins.args, None, None, None)[:6]


def run_ssa(func: SSAFunction, args: tuple, fuel: int = DEFAULT_FUEL) -> Value:
    if len(args) != len(func.params):
        raise EvalError(
            f"{func.name} takes {len(func.params)} argument(s), got {len(args)}")
    if violations := verify(func):
        raise EvalError("refusing to run invalid IR: " + "; ".join(violations))
    if func.plan is None or func.plan[0] is not func.checked:
        # per block: steps, fuel cost, instruction and terminator positions,
        # returned and branch value ids, (block index, param ids, argument
        # ids) of each out-edge, false first
        index = {b.id: i for i, b in enumerate(func.blocks)}
        params = [tuple(p for p, _ in b.params) for b in func.blocks]
        func.plan = (func.checked, [
            (tuple(map(_step, b.instrs)), len(b.instrs) + 1,
             (*(ins.pos for ins in b.instrs), _NO_POS),
             getattr(b.terminator, "value", None),
             getattr(b.terminator, "cond", None),
             tuple((index[t], params[index[t]], args)
                   for t, args in reversed(successor_edges(b.terminator))))
            for b in func.blocks])
    plan, fuel, i = func.plan[1], max(fuel, 0), 0
    env: dict = {vid: v for (vid, _), v in zip(func.params, args)}
    while True:
        steps, cost, where, ret, cond, edges = plan[i]
        for result, fn, n, x, y, z in steps if fuel >= cost else steps[:fuel]:
            env[result] = (fn(env[x], env[y]) if n == 2 else fn(env[x]) if n == 1
                           else x if n == 0 else fn(env[x], env[y], env[z]))
        if fuel < cost:  # the fuel paid for the steps run, not for `where[fuel]`
            raise FuelExhaustedError("evaluation fuel exhausted", where[fuel])
        fuel -= cost
        if ret is not None:
            return env[ret]
        i, pids, argids = edges[1] if cond is not None and env[cond] else edges[0]
        env.update(zip(pids, tuple(map(env.__getitem__, argids))))  # read all first
