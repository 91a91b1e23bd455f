"""Reference semantics.

The `fn` of each `lattice.IMPL_BY_OPCODE` row is the single arithmetic
kernel: the source-level and SSA interpreters and the circuit simulator
all call it, so their results are bit-identical by construction and
differential runs compare scheduling, not arithmetic.

Each interpreter resolves a program once into a plan kept on it; plan
closures take what they use as default arguments, as a cell per name
would double a plan's objects.  Every operation runs as `lattice.bind`
makes it.  Both interpreters have the same two tiers: a plan is
interpreted until its runs that returned have spent `_COMPILE_AFTER`
times its static cost in fuel, and then runs as one Python function
generated from it.  `run_source` compiles each AST node into a closure
that dispatches on runtime values through `lattice.METHODS`, independent
of static inference, so it is an oracle for the type checker as well; an
operator's closure caches the bound method, conversions included, for the
operand types it last saw, and so does its compiled node, behind a guard
on those types.  Its static cost is its AST node count.  `run_ssa` runs
IR that `ir.verify` accepts, as steps per block kept with verify's
record; its static cost is its instructions and terminators.  Both
charge a statement's or a block's fuel at once, and with too little left
stop where counting node by node would; each fault of a compiled plan is
raised by the interpreter's own code.
"""

from __future__ import annotations

from itertools import count
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
# Two tiers: a plan is interpreted until it has paid for its compile
# ---------------------------------------------------------------------------

# Compiling costs 45 to 70 interpreted steps per unit of static cost (25-47 µs
# against 0.4-0.8 µs on an x86-64 Xeon); a compiled step costs 1/3 to 1/8 of one.
_COMPILE_AFTER = 64


class _Plan:
    """A function's plan: run by `interpret(fuel, args)`, which returns the
    result and the fuel left, until the runs that returned have `spent`
    `_COMPILE_AFTER` times its static `cost` in fuel, then by the `compiled`
    function of (fuel, *args) that `compile()` returns."""

    def __init__(self, cost: int):
        self.limit, self.spent, self.compiled = _COMPILE_AFTER * cost, 0, None

    def run(self, fuel: int, args: tuple) -> Value:
        if self.compiled:
            return self.compiled(fuel, *args)
        result, left = self.interpret(fuel, args)
        self.spent += fuel - left
        if self.spent >= self.limit:
            self.compiled = self.compile()
            if self.compiled is None:  # Python refused the text: interpret on
                self.limit = inf
        return result


def _define(text: str, name: str, scope: dict):
    """The function `run` that `text` defines in `scope`, taken out of the
    scope it keeps as its globals, or None if Python refuses `text` for
    nesting blocks or indentation deeper than it allows."""
    try:
        exec(compile(text, name, "exec"), scope)
    except SyntaxError:
        return None
    return scope.pop("run")


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
    statements and their closures, and its AST node count as static cost.
    It does not hold the function, which holds it: in a cycle, a program
    would wait for the cyclic garbage collector."""

    def __init__(self, func: src.FunctionDef):
        self.params, self.stmts, size = tuple(p.name for p in func.params), func.body, []
        self.body = _body(func.body, size)
        super().__init__(sum(size))

    def interpret(self, fuel: int, args: tuple) -> tuple:
        gas = [fuel]
        return self.body(dict(zip(self.params, args)), gas), gas[0]

    def compile(self):
        return _compile_source(self)


def _size(e: src.Expr) -> int:
    """The nodes of expression `e`."""
    return 1 + sum(map(_size, e.args)) if isinstance(e, src.Call) else 1


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


def _unit(e: src.Expr, size: list, stmt: src.Stmt | None = None, test: bool = False):
    """A closure of (env, gas) evaluating `e`, after the statement `stmt` if
    given, charging their fuel at once, which it appends to `size`; gas is
    [fuel left].  A `test` must be a Bool."""
    value, cost = _expr(e, nodes := []), len(nodes) + (stmt is not None)
    size.append(cost)

    def run(env, gas, e=e, stmt=stmt, value=value, cost=cost, test=test):
        if gas[0] < cost:
            _replay(e, stmt, gas[0], env)
        gas[0] -= cost
        try:
            v = value(env)
        except KeyError:  # a name is missing: the replay finds which read
            _replay(e, stmt, cost, env)
        if test and v is not True and v is not False:
            _not_bool(e, v)
        return v
    return run


def _not_bool(e: src.Expr, v: Value):
    raise EvalError(f"condition evaluated to non-Bool {v!r}", e.pos)


def _replay(e: src.Expr, stmt: src.Stmt | None, left: int, env: dict):
    """Raise what the `_unit` of `e` and `stmt` raises run node by node
    with fuel for `left` nodes: the error of a subtree that fits, else
    running out."""
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


def _stmt(s: src.Stmt, size: list):
    """Compile a statement into a closure of (env, gas) that returns the
    function's result, or None if control falls through; appends the fuel
    costs of its parts to `size`."""
    if isinstance(s, src.Assign):
        def run(env, gas, target=s.target, value=_unit(s.value, size, s)):
            env[target] = value(env, gas)
    elif isinstance(s, src.Return):
        run = _unit(s.value, size, s)
    elif isinstance(s, src.If):
        def run(env, gas, arms=[(_unit(s.cond, size, s, True), _body(s.then, size))] + [
                (_unit(c, size, None, True), _body(b, size)) for c, b in s.elifs],
                orelse=_body(s.orelse or (), size)):
            for test, body in arms:
                if test(env, gas):
                    return body(env, gas)
            return orelse(env, gas)
    elif isinstance(s, src.While):
        size.append(1)

        def run(env, gas, test=_unit(s.cond, size, None, True),
                body=_body(s.body, size), s=s):
            if not gas[0]:  # the statement is charged before its first test
                _replay(s.cond, s, 0, env)
            gas[0] -= 1
            while test(env, gas):
                if (result := body(env, gas)) is not None:
                    return result
    else:
        raise EvalError(f"unknown statement node {s!r}", s.pos)
    return run


def _body(stmts, size: list):
    def run(env, gas, steps=[_stmt(s, size) for s in stmts]):
        for step in steps:
            if (result := step(env, gas)) is not None:
                return result
    return run


def _miss(scope: dict, k: int, *args):
    """Operator node `k` of a compiled `run_source` plan on `args` whose
    types its guard did not match: `_method` looks its method up, which
    becomes the node's method for those types."""
    scope[f"F{k}"] = fn = _method(scope[f"E{k}"], args)
    scope.update(zip((f"A{k}", f"B{k}"), map(type, args)))
    return fn(*args)


def _compile_source(plan: _SourcePlan):
    """A function of (fuel, *args) that runs `plan` as its closures do.
    Variables are locals `vk`, numbered from the parameters.  A statement's
    unit (expression, statement or None) is the global `Uk` and its fuel is
    charged at once; short of fuel, or reading a variable not yet assigned,
    it hands the variables to `_replay`, which raises.  Operator node k is
    the global `Ek`: its value, held in a local `tk` when it is an operand,
    is the global `Fk` of its operands while their types are the globals
    `Ak` and `Bk` (a literal's cannot change), else what `_miss` gives."""
    local = {name: f"v{i}" for i, name in enumerate(plan.params)}
    scope = {"_replay": _replay, "_miss": _miss, "_not_bool": _not_bool,
             "env": lambda frame: {n: frame[v] for n, v in local.items() if v in frame}}
    ids, indent = count(), lambda lines: ["    " + line for line in lines]

    def value(e: src.Expr, lines: list) -> str:
        """Python for `e`'s value once `lines` have run."""
        if isinstance(e, src.Var):
            return local.setdefault(e.name, f"v{len(local)}")
        k = next(ids)
        if isinstance(e, src.Lit):
            scope[f"L{k}"] = e.value
            return f"L{k}"
        xs = []
        for a in e.args:  # a variable is read before a later operand can raise
            xs.append(value(a, lines))
            if isinstance(a, src.Call) or (isinstance(a, src.Var)
                                           and isinstance(e.args[-1], src.Call)):
                lines.append(f"t{k}_{len(xs)} = {xs[-1]}")
                xs[-1] = f"t{k}_{len(xs)}"
        guard = " and ".join(f"type({x}) is {c}{k}" for x, c, a in zip(xs, "AB", e.args)
                             if not isinstance(a, src.Lit))
        scope.update({f"E{k}": e, f"A{k}": None, f"B{k}": None, f"F{k}": None})
        args = ", ".join(xs)
        return f"F{k}({args}) if {guard or f'F{k}'} else _miss(globals(), {k}, {args})"

    def unit(e: src.Expr, stmt: src.Stmt | None, sink: str) -> tuple:
        """(k, lines) that charge unit k, (`e`, `stmt`), and run `sink`
        formatted with `e`'s value."""
        k, cost, lines = next(ids), _size(e) + (stmt is not None), []
        scope[f"U{k}"] = e, stmt
        lines.append(sink.format(value(e, lines)))
        return k, [f"if fuel < {cost}: _replay(*U{k}, fuel, env(locals()))",
                   f"fuel -= {cost}", "try:", *indent(lines), "except NameError:",
                   f"    _replay(*U{k}, {cost}, env(locals()))"]

    def test(arms: list, orelse) -> list:
        """An if/elseif chain: its arms (condition, statement or None,
        body) and else body."""
        (cond, stmt, then), rest = arms[0], arms[1:]
        k, lines = unit(cond, stmt, "t = {}")
        return [*lines, "if t is True:", *block(then), "elif t is False:",
                *(indent(test(rest, orelse)) if rest else block(orelse or ())),
                "else:", f"    _not_bool(U{k}[0], t)"]

    def block(stmts) -> list:
        lines = []
        for s in stmts:
            if isinstance(s, src.Assign):
                target = local.setdefault(s.target, f"v{len(local)}")
                lines += unit(s.value, s, f"{target} = {{}}")[1]
            elif isinstance(s, src.Return):
                lines += unit(s.value, s, "return {}")[1]
            elif isinstance(s, src.If):
                lines += test([(s.cond, s, s.then), *((c, None, b) for c, b in s.elifs)],
                              s.orelse)
            else:  # a While, charged before its first test
                k, loop = unit(s.cond, None, "t = {}")
                scope[f"W{k}"] = s.cond, s
                lines += [f"if not fuel: _replay(*W{k}, 0, {{}})", "fuel -= 1",
                          "while True:", *indent(loop), "    if t is not True:",
                          "        if t is False: break", f"        _not_bool(U{k}[0], t)",
                          *block(s.body)]
        return indent(lines or ["pass"])

    params = "".join(f"v{i}, " for i in range(len(plan.params)))
    return _define("\n".join([f"def run(fuel, {params}):", *block(plan.stmts), ""]),
                   "<run_source plan>", scope)


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
        return _interpret(self, dict(zip(self.params, args)), fuel, 0)

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


def _interpret(plan: _SSAPlan, env: dict, fuel: int, i: int) -> tuple:
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


def _compile_ssa(plan: _SSAPlan):
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
    return _define(text, "<run_ssa plan>", scope)
