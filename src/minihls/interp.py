"""Reference semantics.

The `fn` of each `lattice.IMPL_BY_OPCODE` row is the single arithmetic
kernel: the source-level and SSA interpreters and the circuit simulator
all call it, so their results are bit-identical by construction and
differential runs compare scheduling, not arithmetic.

Each interpreter resolves a program once into a plan kept on it; plan
closures take what they use as default arguments, as a cell per name
would double a plan's objects.  Every operation runs as `lattice.bind`
makes it.  `run_source` compiles each AST node into a closure that
dispatches on runtime values through `lattice.METHODS`, independent of
static inference, so it is an oracle for the type checker as well; an
operator's closure caches the bound method, conversions included, for the
operand types it last saw.  `run_ssa` runs IR that `ir.verify` accepts,
as steps per block kept with verify's record, interpreted until their
runs have spent `_COMPILE_AFTER` times their static cost in fuel and then
compiled into one Python function.  Both charge a statement's or a
block's fuel at once, and with too little left stop where counting node
by node would.
"""

from __future__ import annotations

from math import inf
from operator import itemgetter

from . import source as src
from .errors import EvalError, FuelExhaustedError, Pos
from .ir import ConstOp, Instr, SSAFunction, successor_edges, verify
from .lattice import IMPL_BY_OPCODE, METHODS, TYPE_OF, LatticeType, bind, dispatch

DEFAULT_FUEL = 1_000_000

_NO_POS = Pos(0, 0)  # where no source position applies; the CLI omits it

Value = object  # bool, int in [-2^63, 2^63), or float


def eval_op(opcode: str, args: tuple, pos: Pos = _NO_POS) -> Value:
    if opcode not in IMPL_BY_OPCODE:
        raise EvalError(f"unknown opcode {opcode!r}", pos)
    return bind(IMPL_BY_OPCODE[opcode], pos)(*args)


def type_of_value(v: Value) -> LatticeType:
    if (ty := TYPE_OF.get(type(v))) is None:
        raise EvalError(f"value {v!r} has no hardware type")
    return ty


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


def _method(e: src.Call, args: tuple):
    """The method of operator `e` for the types of `args`, bound to `e`'s
    position; dispatch may raise NoMethodError."""
    d = (METHODS.get((e.op, *map(TYPE_OF.get, map(type, args))))
         or dispatch(e.op, tuple(map(type_of_value, args)), e.pos))
    return bind(d.impl, e.pos, d.conversions)


def _expr(e: src.Expr, nodes: list):
    """Compile `e` into a closure of the environment; appends each node's
    (AST node, subtree size, closure) to `nodes` in evaluation order."""
    at = len(nodes)
    nodes.append(None)
    if isinstance(e, src.Var):
        run = itemgetter(e.name)  # `_replay` reports a missing name
    elif isinstance(e, src.Call) and len(e.args) == 2:
        def run(env, x=_expr(e.args[0], nodes), y=_expr(e.args[1], nodes), e=e,
                cache=[None, None, None]):  # operand types last seen, method
            a, b = x(env), y(env)  # && and || are strict
            ta, tb, fn = cache
            if type(a) is not ta or type(b) is not tb:
                fn = _method(e, (a, b))
                cache[:] = type(a), type(b), fn
            return fn(a, b)
    elif isinstance(e, src.Call):
        def run(env, x=_expr(e.args[0], nodes), e=e, cache=[None, None]):
            a = x(env)
            if type(a) is not cache[0]:
                cache[:] = type(a), _method(e, (a,))
            return cache[1](a)
    elif isinstance(e, src.Lit):
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
        def run(env, gas, test=_unit(s.cond, None, True), body=_body(s.body),
                pos=s.pos):
            if not gas[0]:  # the statement is charged before its first test
                raise FuelExhaustedError("evaluation fuel exhausted", pos)
            gas[0] -= 1
            while test(env, gas):
                if (result := body(env, gas)) is not None:
                    return result
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
    return (ins.result, bind(IMPL_BY_OPCODE[ins.op.opcode], ins.pos),
            len(ins.args), *ins.args, None, None, None)[:6]


# Compiling costs 45 to 70 interpreted steps per unit of static cost (25-47 µs
# against 0.4-0.8 µs on an x86-64 Xeon); a compiled step costs 1/3 to 1/8 of one.
_COMPILE_AFTER = 64


class _Plan:
    """`run_ssa`'s plan of a function whose `verify` record is `checked`:
    parameter ids; per block steps, fuel cost, instruction and terminator
    positions, returned and branch value ids, and (block index, param ids,
    argument ids) of each out-edge, false first; the fuel that interpreted
    runs which returned have `spent` and, from `limit` on, the `compiled`
    function."""

    def __init__(self, func: SSAFunction):
        target = {b.id: (i, tuple(p for p, _ in b.params))
                  for i, b in enumerate(func.blocks)}
        self.checked, self.params = func.checked, tuple(p for p, _ in func.params)
        self.blocks = [(tuple(map(_step, b.instrs)), len(b.instrs) + 1,
                        (*(ins.pos for ins in b.instrs), _NO_POS),
                        getattr(b.terminator, "value", None),
                        getattr(b.terminator, "cond", None),
                        tuple((*target[t], args) for t, args
                              in reversed(successor_edges(b.terminator))))
                       for b in func.blocks]
        self.limit = _COMPILE_AFTER * sum(b[1] for b in self.blocks)
        self.spent, self.compiled = 0, None


def run_ssa(func: SSAFunction, args: tuple, fuel: int = DEFAULT_FUEL) -> Value:
    if len(args) != len(func.params):
        raise EvalError(
            f"{func.name} takes {len(func.params)} argument(s), got {len(args)}")
    if violations := verify(func):
        raise EvalError("refusing to run invalid IR: " + "; ".join(violations))
    if func.plan is None or func.plan.checked is not func.checked:
        func.plan = _Plan(func)
    plan, fuel = func.plan, max(fuel, 0)
    if plan.compiled:
        return plan.compiled(fuel, *args)
    result, left = _interpret(plan, dict(zip(plan.params, args)), fuel, 0)
    plan.spent += fuel - left
    if plan.spent >= plan.limit:
        plan.compiled = _compile(plan)
    return result


def _interpret(plan: _Plan, env: dict, fuel: int, i: int) -> tuple:
    """(result, fuel left) of running `plan` from block index `i` on `env`."""
    while True:
        steps, cost, where, ret, cond, edges = plan.blocks[i]
        for result, fn, n, x, y, z in steps if fuel >= cost else steps[:fuel]:
            env[result] = (fn(env[x], env[y]) if n == 2 else fn(env[x]) if n == 1
                           else x if n == 0 else fn(env[x], env[y], env[z]))
        if fuel < cost:  # the fuel paid for the steps run, not for `where[fuel]`
            raise FuelExhaustedError("evaluation fuel exhausted", where[fuel])
        fuel -= cost
        if ret is not None:
            return env[ret], fuel
        i, pids, argids = edges[1] if cond is not None and env[cond] else edges[0]
        env.update(zip(pids, tuple(map(env.__getitem__, argids))))  # read all first


def _compile(plan: _Plan):
    """A function of (fuel, *args) that runs `plan` as `_interpret` does:
    value k is the local `vk` (a global if constant), operation k the global
    `fk`, and a loop finds block `b` by halving the block range."""
    scope = {"_interpret": _interpret, "plan": plan}
    names = lambda ids: "".join(f"v{v}, " for v in ids)

    def tree(lo, hi, pad):  # blocks lo to hi - 1
        if hi - lo > 1:
            mid = (lo + hi) // 2
            return [f"{pad}if b < {mid}:", *tree(lo, mid, pad + "    "),
                    f"{pad}else:", *tree(mid, hi, pad + "    ")]
        steps, cost, _, ret, cond, edges = plan.blocks[lo]
        scope.update((f"f{r}", fn) if fn else (f"v{r}", x) for r, fn, _, x, *_ in steps)
        reads = {x for _, _, n, *xs in steps for x in xs[:n]} - {s[0] for s in steps}
        env = ", ".join(f"{x}: v{x}" for x in sorted(reads))
        jumps = [f"b, {names(pids)}= {k}, {names(argids)}" for k, pids, argids in edges]
        return [pad + line for line in [  # short of fuel, `_interpret` raises in the block
            f"if fuel < {cost}: _interpret(plan, {{{env}}}, fuel, {lo})", f"fuel -= {cost}",
            *(f"v{r} = f{r}({names(xs[:n])})" for r, fn, n, *xs in steps if fn),
            *([f"return v{ret}"] if ret is not None else jumps if cond is None
              else [f"if v{cond}: {jumps[1]}", f"else: {jumps[0]}"])]]
    text = "\n".join([f"def run(fuel, {names(plan.params)}):", "    b = 0",
                      "    while True:", *tree(0, len(plan.blocks), " " * 8), ""])
    exec(compile(text, "<run_ssa plan>", "exec"), scope)
    return scope["run"]
