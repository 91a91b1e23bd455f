"""Reference semantics.

Each `lattice.IMPL_BY_OPCODE` row's text, its Python expression, is the
single source of its arithmetic: the row's `fn` is built from it, and
compiled code pastes it, so the source-level and SSA interpreters and the
circuit simulator agree bit for bit by construction and differential runs
compare scheduling, not arithmetic.

Each interpreter resolves a program once into a plan kept on it, and an
operation runs as `lattice.bind` makes it, or, compiled, as
`lattice.inline` writes it.  Both interpreters have the same two tiers: a
plan is interpreted until its runs that returned have spent
`_COMPILE_AFTER` times its static cost in fuel, and then runs as one
Python function generated from it.  `run_source` walks the AST, charging
each node one unit of fuel as it visits it, and dispatches on runtime
values through `lattice.METHODS`, independent of static inference, so it
is an oracle for the type checker as well; an operator node's method,
conversions included, is cached per operand types, and compiled code
inlines the first behind an exact type guard.  Its static cost is its AST
node count.  `run_ssa` runs IR that `ir.verify` accepts, as steps per
block kept with verify's record; its static cost is its instructions and
terminators.  Compiled code charges a statement's or a block's fuel at
once and is right only when it returns: on a fault, `_Plan.run` interprets
the run again from its start with the same fuel, and the interpreter, a
deterministic function of (args, fuel), raises it at its node.  Each fault
has one code path, the interpreter's.
"""

from __future__ import annotations

from itertools import count
from math import inf

from . import source as src
from .codegen import define, indent
from .errors import EvalError, FuelExhaustedError, MiniHlsError, Pos
from .ir import ConstOp, Instr, SSAFunction, successor_edges, verify
from .lattice import (IMPL_BY_OPCODE, METHODS, PY_GLOBALS, TYPE_OF, LatticeType, bind,
                      dispatch, inline)

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
# Two tiers: a plan is interpreted until it has paid for its compile
# ---------------------------------------------------------------------------

# Compiling costs as much as interpreting 34 to 64 SSA steps per unit of static
# cost (7-13 µs against 0.16-0.30 µs a step on an x86-64 Xeon), or walking 43 to
# 83 AST nodes per node (10-14 µs against 0.17-0.27 µs a node); a compiled step
# costs 1/2 to 1/9 of an interpreted one, a compiled node 1/4 to 1/10 of a walked
# one.  The SSA break-even and most source ones fall below 64.
_COMPILE_AFTER = 64


class _Fault(Exception):
    """Compiled code is short of fuel or tests a non-Bool condition."""


class _Plan:
    """A function's plan: run by `interpret(fuel, args)`, which returns the
    result and the fuel left, until the runs that returned have `spent`
    `_COMPILE_AFTER` times its static `cost` in fuel, then by the `compiled`
    function of (fuel, *args) that `compile()` returns.  A compiled run that
    faults is interpreted again from its start, which raises the fault."""

    def __init__(self, cost: int):
        self.limit, self.spent, self.compiled = _COMPILE_AFTER * cost, 0, None

    def run(self, fuel: int, args: tuple) -> Value:
        if self.compiled:
            try:
                return self.compiled(fuel, *args)
            except (_Fault, NameError, MiniHlsError):
                return self.interpret(fuel, args)[0]
        result, left = self.interpret(fuel, args)
        self.spent += fuel - left
        if self.spent >= self.limit:
            self.compiled = self.compile()
            if self.compiled is None:  # Python refused the text: interpret on
                self.limit = inf
        return result


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
        object.__setattr__(func, "plan", _SourcePlan(func))
    if (result := func.plan.run(max(fuel, 0), args)) is None:
        raise EvalError(f"{func.name} fell off the end", func.pos)
    return result


class _SourcePlan(_Plan):
    """`run_source`'s plan of a function: its parameter names, its body's
    statements, the methods its operator nodes have dispatched to, each
    (bound callable, `Dispatch`), and its AST node count as static cost.  A
    method is keyed by (node id, *operand types): keyed by the node, equal
    operators on two lines would share the first one's position.  It does
    not hold the function, which holds it: in a cycle, a program would wait
    for the cyclic garbage collector."""

    def __init__(self, func: src.FunctionDef):
        self.params, self.stmts = tuple(p.name for p in func.params), func.body
        self.methods = {}
        super().__init__(sum(map(_size, func.body)))

    def interpret(self, fuel: int, args: tuple) -> tuple:
        walk = _Walk(dict(zip(self.params, args)), fuel, self.methods)
        return walk.run(self.stmts), walk.fuel

    def compile(self):
        return _compile_source(self)


def _size(n: src.Expr | src.Stmt) -> int:
    """The nodes of expression or statement `n` and of all it holds."""
    parts = (() if isinstance(n, (src.Var, src.Lit)) else n.args if isinstance(n, src.Call)
             else (n.value,) if isinstance(n, (src.Assign, src.Return))
             else (n.cond, *n.body) if isinstance(n, src.While)
             else (n.cond, *n.then, *(x for c, b in n.elifs for x in (c, *b)),
                   *(n.orelse or ())))
    return 1 + sum(map(_size, parts))


def _method(e: src.Call, args: tuple) -> tuple:
    """The method of operator `e` for the types of `args`, bound to `e`'s
    position, and its `Dispatch`; dispatch may raise NoMethodError."""
    d = (METHODS.get((e.op, *map(TYPE_OF.get, map(type, args))))
         or dispatch(e.op, tuple(map(type_of_value, args)), e.pos))
    return bind(d.impl, e.pos, d.conversions), d


class _Walk:
    """A run of statements on `env`, the variables, with `fuel` left.  Each
    node is charged one unit as it is visited: a statement first, an `If`
    with its first condition and an `elseif` by its condition alone, a
    `While` once before its first test, and an operator before its operands,
    which run before it.  An operator calls the method that `methods` holds
    for its node and operand types, else the one `_method` finds."""

    __slots__ = "env", "fuel", "methods"

    def __init__(self, env: dict, fuel: int, methods: dict):
        self.env, self.fuel, self.methods = env, fuel, methods

    def run(self, stmts) -> Value | None:
        """The function's result, or None if control falls through `stmts`."""
        for s in stmts:
            if not self.fuel:
                raise FuelExhaustedError("evaluation fuel exhausted", s.pos)
            self.fuel -= 1
            if (cls := type(s)) is src.Assign:
                self.env[s.target] = self.value(s.value)
            elif cls is src.Return:
                return self.value(s.value)
            elif cls is src.If:
                body = s.then if self.test(s.cond) else next(
                    (b for c, b in s.elifs if self.test(c)), s.orelse or ())
                if (result := self.run(body)) is not None:
                    return result
            else:  # a While
                while self.test(s.cond):
                    if (result := self.run(s.body)) is not None:
                        return result

    def test(self, e: src.Expr) -> bool:
        if (v := self.value(e)) is True or v is False:
            return v
        raise EvalError(f"condition evaluated to non-Bool {v!r}", e.pos)

    def value(self, e: src.Expr) -> Value:
        if not self.fuel:
            raise FuelExhaustedError("evaluation fuel exhausted", e.pos)
        self.fuel -= 1
        if (cls := type(e)) is src.Var:
            try:
                return self.env[e.name]
            except KeyError:
                raise EvalError(f"undefined variable {e.name!r}", e.pos) from None
        if cls is src.Lit:
            return e.value
        a = self.value(e.args[0])
        if len(e.args) == 1:
            if (m := self.methods.get(key := (id(e), type(a)))) is None:
                m = self.methods[key] = _method(e, (a,))
            return m[0](a)
        b = self.value(e.args[1])  # && and || are strict
        if (m := self.methods.get(key := (id(e), type(a), type(b)))) is None:
            m = self.methods[key] = _method(e, (a, b))
        return m[0](a, b)


def _miss(methods: dict, e: src.Call, *args):
    """Operator node `e` of a compiled `run_source` plan on `args` whose
    types its guard did not match: the method `methods` holds for them,
    which `_method` looks up for a key not seen before."""
    if (m := methods.get(key := (id(e), *map(type, args)))) is None:
        m = methods[key] = _method(e, args)
    return m[0](*args)


def _compile_source(plan: _SourcePlan):
    """A function of (fuel, *args) that runs `plan` as the walker does when
    the walker returns, and otherwise raises `_Fault`, NameError or the
    walker's error.  Variables are locals `vk`, numbered from the parameters.
    A statement's unit is charged at once: short of fuel, or testing a
    non-Bool, it raises `_Fault`.  Operator node k is the global `Ek`: its
    value, held in a local `tj_m` as operand m of node j, is the inlined
    first method the walker cached for it while its operands have that
    method's types (a literal's cannot change), else what `_miss` gives."""
    text, params = _SourceText(plan), _names(range(len(plan.params)))
    return define("\n".join([f"def run(fuel, {params}):", *text.block(plan.stmts), ""]),
                   "<run_source plan>", text.scope)


class _SourceText:
    """`_compile_source`'s text of statements, variables' local names, scope
    and each node's first method, (operand types, `Dispatch`) by node id."""

    def __init__(self, plan: _SourcePlan):
        self.local = {name: f"v{i}" for i, name in enumerate(plan.params)}
        self.scope = {"_Fault": _Fault, "_miss": _miss, "M": plan.methods, **PY_GLOBALS}
        self.ids, self.first = count(), {}
        for key, (_, d) in plan.methods.items():
            self.first.setdefault(key[0], (key[1:], d))

    def value(self, e: src.Expr, lines: list) -> str:
        """Python for `e`'s value once `lines` have run."""
        if isinstance(e, src.Var):
            return self.local.setdefault(e.name, f"v{len(self.local)}")
        k = next(self.ids)
        if isinstance(e, src.Lit):
            self.scope[f"L{k}"] = e.value
            return f"L{k}"
        xs = []
        for a in e.args:  # an operator operand is held for the guard to read
            xs.append(self.value(a, lines))
            if isinstance(a, src.Call):
                lines.append(f"t{k}_{len(xs)} = {xs[-1]}")
                xs[-1] = f"t{k}_{len(xs)}"
        self.scope[f"E{k}"] = e
        miss = f"_miss(M, E{k}, {', '.join(xs)})"
        if (first := self.first.get(id(e))) is None:
            return miss
        types, d = first
        guard = " and ".join(f"type({x}) is {ty.__name__}" for x, ty, a
                             in zip(xs, types, e.args) if not isinstance(a, src.Lit))
        value = inline(d.impl, xs, d.conversions)
        return f"{value} if {guard} else {miss}" if guard else value

    def unit(self, e: src.Expr, stmt: bool, sink: str) -> list:
        """Lines that charge the unit of `e`, after its statement's node if
        `stmt`, and run `sink` formatted with `e`'s value."""
        cost, lines = _size(e) + stmt, []
        lines.append(sink.format(self.value(e, lines)))
        return [f"if fuel < {cost}: raise _Fault", f"fuel -= {cost}", *lines]

    def test(self, arms: list, orelse) -> list:
        """An if/elseif chain: its arms (condition, whether its statement's
        node is charged, body) and else body."""
        (cond, stmt, then), rest = arms[0], arms[1:]
        return [*self.unit(cond, stmt, "t = {}"), "if t is True:", *self.block(then),
                "elif t is False:",
                *(indent(self.test(rest, orelse)) if rest else self.block(orelse or ())),
                "else:", "    raise _Fault"]

    def block(self, stmts) -> list:
        lines = []
        for s in stmts:
            if isinstance(s, src.Assign):
                target = self.local.setdefault(s.target, f"v{len(self.local)}")
                lines += self.unit(s.value, True, f"{target} = {{}}")
            elif isinstance(s, src.Return):
                lines += self.unit(s.value, True, "return {}")
            elif isinstance(s, src.If):
                lines += self.test([(s.cond, True, s.then),
                                    *((c, False, b) for c, b in s.elifs)], s.orelse)
            else:  # a While, charged before its first test
                lines += ["if not fuel: raise _Fault", "fuel -= 1", "while True:",
                          *indent(self.unit(s.cond, False, "t = {}")),
                          "    if t is not True:", "        if t is False: break",
                          "        raise _Fault", *self.block(s.body)]
        return indent(lines or ["pass"])


# ---------------------------------------------------------------------------
# SSA interpreter
# ---------------------------------------------------------------------------


def _step(ins: Instr) -> tuple:
    """(result id, function, argument count, argument ids padded to three
    with None, row); a constant has neither and its value as first id."""
    if isinstance(ins.op, ConstOp):
        return ins.result, None, 0, ins.op.value, None, None, None
    row = IMPL_BY_OPCODE[ins.op.opcode]
    return ins.result, bind(row, ins.pos), len(ins.args), *(*ins.args, None, None)[:3], row


class _SSAPlan(_Plan):
    """`run_ssa`'s plan of a function whose `verify` record is `checked`:
    parameter ids; per block steps, fuel cost, instruction and terminator
    positions, returned and branch value ids, and (block index, param ids,
    argument ids) of each out-edge, false first.  Its static cost is its
    instructions and terminators."""

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
        super().__init__(sum(b[1] for b in self.blocks))

    def interpret(self, fuel: int, args: tuple) -> tuple:
        return _interpret(self.blocks, dict(zip(self.params, args)), fuel)

    def compile(self):
        return _compile_ssa(self)


def run_ssa(func: SSAFunction, args: tuple, fuel: int = DEFAULT_FUEL) -> Value:
    if len(args) != len(func.params):
        raise EvalError(
            f"{func.name} takes {len(func.params)} argument(s), got {len(args)}")
    if violations := verify(func):
        raise EvalError("refusing to run invalid IR: " + "; ".join(violations))
    if func.plan is None or func.plan.checked is not func.checked:
        func.plan = _SSAPlan(func)
    return func.plan.run(max(fuel, 0), args)


def _interpret(blocks: list, env: dict, fuel: int) -> tuple:
    """(result, fuel left) of running `blocks` on `env` from the first."""
    i = 0
    while True:
        steps, cost, where, ret, cond, edges = blocks[i]
        for result, fn, n, x, y, z, _ in steps if fuel >= cost else steps[:fuel]:
            env[result] = (fn(env[x], env[y]) if n == 2 else fn(env[x]) if n == 1
                           else x if n == 0 else fn(env[x], env[y], env[z]))
        if fuel < cost:  # the fuel paid for the steps run, not for `where[fuel]`
            raise FuelExhaustedError("evaluation fuel exhausted", where[fuel])
        fuel -= cost
        if ret is not None:
            return env[ret], fuel
        i, pids, argids = edges[1] if cond is not None and env[cond] else edges[0]
        env.update(zip(pids, tuple(map(env.__getitem__, argids))))  # read all first


def _compile_ssa(plan: _SSAPlan):
    """A function of (fuel, *args) that runs `plan` as `_interpret` does when
    it returns, and otherwise raises `_Fault` (short of a block's fuel) or
    the trap: value k is the local `vk` (a global if constant) that operation
    k's inlined row sets, and a loop finds block `b` by halving the blocks."""
    scope = {"_Fault": _Fault, **PY_GLOBALS}
    text = "\n".join([f"def run(fuel, {_names(plan.params)}):", "    b = 0",
                      "    while True:", *_ssa_tree(plan.blocks, scope, 0, len(plan.blocks),
                                                    " " * 8), ""])
    return define(text, "<run_ssa plan>", scope)


def _names(ids) -> str:
    return "".join(f"v{v}, " for v in ids)


def _ssa_tree(blocks: list, scope: dict, lo: int, hi: int, pad: str) -> list:
    """Lines that run block `b`, one of blocks `lo` to `hi` - 1."""
    if hi - lo > 1:
        mid = (lo + hi) // 2
        return [f"{pad}if b < {mid}:", *_ssa_tree(blocks, scope, lo, mid, pad + "    "),
                f"{pad}else:", *_ssa_tree(blocks, scope, mid, hi, pad + "    ")]
    steps, cost, _, ret, cond, edges = blocks[lo]
    scope.update((f"v{r}", x) for r, fn, _, x, *_ in steps if not fn)
    jumps = [f"b, {_names(pids)}= {k}, {_names(argids)}" for k, pids, argids in edges]
    return [pad + line for line in [
        f"if fuel < {cost}: raise _Fault", f"fuel -= {cost}",
        *(f"v{r} = {inline(row, [f'v{x}' for x in xs[:n]])}"
          for r, fn, n, *xs, row in steps if fn),
        *([f"return v{ret}"] if ret is not None else jumps if cond is None
          else [f"if v{cond}: {jumps[1]}", f"else: {jumps[0]}"])]]
