"""Lowering of typed code, the `source` statements around `typecheck`'s
typed expressions, to SSA.

Structured control flow maps onto blocks directly: each `elseif` test gets
a block of its own, a loop becomes header/body/exit with the loop-carried
variables as header parameters, and if-joins receive parameters only for
variables whose definition actually differs between the incoming arms.
Literals are materialized as const instructions at every occurrence; no
cleanup happens here, that is what the optimization passes are for.
"""

from __future__ import annotations

from . import source as src
from . import typecheck as tc
from .errors import LowerError
from .ir import Block, CondGoto, ConstOp, Goto, Instr, Ret, SSAFunction, ValueId
from .lattice import LatticeType

Env = dict[str, ValueId]


def lower(tf: tc.TypedFunction) -> SSAFunction:
    return _Lowerer(tf).run()


def _assigned(stmts: tuple[src.Stmt, ...]) -> set[str]:
    names: set[str] = set()
    for s in stmts:
        if isinstance(s, src.Assign):
            names.add(s.target)
        elif isinstance(s, src.If):
            names |= _assigned(s.then)
            for _, body in s.elifs:
                names |= _assigned(body)
            if s.orelse is not None:
                names |= _assigned(s.orelse)
        elif isinstance(s, src.While):
            names |= _assigned(s.body)
    return names


class _Lowerer:
    def __init__(self, tf: tc.TypedFunction):
        self.tf = tf
        self.blocks: list[Block] = []
        self.types: dict[ValueId, LatticeType] = {}
        self.next_value = 0
        self.next_block = 0

    def run(self) -> SSAFunction:
        entry = self.new_block()
        env: Env = {}
        fparams = []
        for name, ty in self.tf.params:
            vid = self.fresh_value(ty)
            env[name] = vid
            fparams.append((vid, ty))
        if self.lower_stmts(entry, env, self.tf.body) is not None:
            raise LowerError("not all control paths return", self.tf.pos)
        return SSAFunction(self.tf.name, tuple(fparams), self.tf.return_type,
                           self.blocks, self.next_value, self.next_block)

    # -- bookkeeping --------------------------------------------------------

    def fresh_value(self, ty: LatticeType) -> ValueId:
        vid = self.next_value
        self.next_value += 1
        self.types[vid] = ty
        return vid

    def new_block(self, params: tuple[tuple[ValueId, LatticeType], ...] = ()) -> Block:
        block = Block(self.next_block, params, [], None)
        self.next_block += 1
        self.blocks.append(block)
        return block

    def emit(self, block: Block, ty: LatticeType, op, args, pos) -> ValueId:
        vid = self.fresh_value(ty)
        block.instrs.append(Instr(vid, ty, op, tuple(args), pos))
        return vid

    # -- expressions (never split blocks: && and || are strict) -------------

    def lower_expr(self, block: Block, env: Env, e: tc.TExpr) -> ValueId:
        if isinstance(e, tc.TConst):
            return self.emit(block, e.ty, ConstOp(e.value), (), e.pos)
        if isinstance(e, tc.TVar):
            return env[e.name]
        if isinstance(e, tc.TCall):
            args = []
            for arg in e.args:  # a plain loop: one frame per expression level
                args.append(self.lower_expr(block, env, arg))
            return self.emit(block, e.ty, e.impl, args, e.pos)
        raise TypeError(f"unknown typed expression {e!r}")

    # -- statements ---------------------------------------------------------

    def lower_stmts(self, block: Block, env: Env,
                    stmts: tuple[src.Stmt, ...]) -> tuple[Block, Env] | None:
        """Lower a statement list into `block`, possibly growing the CFG.
        Returns the block/environment control falls out of, or None when
        every path returned."""
        cur = block
        for s in stmts:
            if isinstance(s, src.Assign):
                env[s.target] = self.lower_expr(cur, env, s.value)
            elif isinstance(s, src.Return):
                value = self.lower_expr(cur, env, s.value)
                cur.terminator = Ret(value)
                return None
            elif isinstance(s, src.While):
                cur, env = self.lower_while(cur, env, s)
            elif isinstance(s, src.If):
                res = self.lower_if(cur, env, s)
                if res is None:
                    return None
                cur, env = res
            else:
                raise TypeError(f"unknown typed statement {s!r}")
        return cur, env

    def lower_if(self, block: Block, env: Env,
                 s: src.If) -> tuple[Block, Env] | None:
        tests = [(s.cond, s.then), *s.elifs]
        fallthroughs: list[tuple[Block, Env]] = []
        # Set when there is no else: the last test's false edge jumps
        # straight to the join and needs patching once the join exists.
        pending_false: tuple[Block, ValueId, Block, Env] | None = None

        cur = block
        for i, (cond, body) in enumerate(tests):
            cond_v = self.lower_expr(cur, env, cond)
            then_b = self.new_block()
            res = self.lower_stmts(then_b, dict(env), tuple(body))
            if res is not None:
                fallthroughs.append(res)
            if i < len(tests) - 1:
                else_b = self.new_block()
                cur.terminator = CondGoto(cond_v, then_b.id, (), else_b.id, ())
                cur = else_b  # env unchanged: tests do not assign
            elif s.orelse is not None:
                else_b = self.new_block()
                res = self.lower_stmts(else_b, dict(env), s.orelse)
                if res is not None:
                    fallthroughs.append(res)
                cur.terminator = CondGoto(cond_v, then_b.id, (), else_b.id, ())
            else:
                pending_false = (cur, cond_v, then_b, dict(env))

        incoming = list(fallthroughs)
        if pending_false is not None:
            incoming.append((pending_false[0], pending_false[3]))
        if not incoming:
            return None  # every arm returned

        # Variables surviving the join: defined on all incoming paths.
        # A parameter is only needed where the incoming definitions differ.
        common = set(incoming[0][1])
        for _, arm_env in incoming[1:]:
            common &= set(arm_env)
        names = sorted(common)
        differing = [n for n in names
                     if len({arm_env[n] for _, arm_env in incoming}) > 1]
        params = []
        join_env: Env = {}
        for name in names:
            if name in differing:
                ty = self.types[incoming[0][1][name]]
                vid = self.fresh_value(ty)
                params.append((vid, ty))
                join_env[name] = vid
            else:
                join_env[name] = incoming[0][1][name]
        join = self.new_block(tuple(params))

        for arm_block, arm_env in fallthroughs:
            arm_block.terminator = Goto(
                join.id, tuple(arm_env[n] for n in differing))
        if pending_false is not None:
            test_b, cond_v, then_b, false_env = pending_false
            test_b.terminator = CondGoto(
                cond_v, then_b.id, (),
                join.id, tuple(false_env[n] for n in differing))
        return join, join_env

    def lower_while(self, block: Block, env: Env,
                    s: src.While) -> tuple[Block, Env]:
        carried = sorted(_assigned(s.body) & set(env))
        params = []
        header_env = dict(env)
        for name in carried:
            ty = self.types[env[name]]
            vid = self.fresh_value(ty)
            params.append((vid, ty))
            header_env[name] = vid
        header = self.new_block(tuple(params))
        block.terminator = Goto(header.id, tuple(env[n] for n in carried))

        cond_v = self.lower_expr(header, header_env, s.cond)
        body_b = self.new_block()
        exit_b = self.new_block()
        header.terminator = CondGoto(cond_v, body_b.id, (), exit_b.id, ())

        res = self.lower_stmts(body_b, dict(header_env), s.body)
        if res is not None:
            back_block, back_env = res
            back_block.terminator = Goto(
                header.id, tuple(back_env[n] for n in carried))
        return exit_b, header_env
