"""Forward data-flow type inference over the AST.

One walker types and annotates in a single pass.  Types flow from the
entry signature through assignments; at if-joins and loop headers a
variable's type is the lattice join of the incoming types.  A loop's
condition and body are re-annotated until the header environment stops
changing (monotone in the lattice, so at most height * variable-count
walks), and the nodes of the last walk, made against the stable header,
are kept.  As Julia's `code_typed` returns lowering's statement forms
with types added, the result is the source's `Assign`, `If`, `While` and
`Return` statements holding typed expressions: each carries its lattice
type and every operator is a `TCall` of the `lattice.IMPL_BY_OPCODE` row
dispatch chose; a promotion is a `TCall` of its conversion row around
the argument.  Statements after a `return` are dropped.

A type-unstable function has no hardware: a Top-typed value or return is
an `UnstableTypeError`, so every `TCall` holds its row.
"""

from __future__ import annotations

from dataclasses import field

from . import source as src
from .errors import Pos, TypeCheckError, UndefinedVarError, UnstableTypeError, record
from .lattice import (ANNOTATION_TO_TYPE, TYPE_OF, LatticeType, OperatorImpl,
                      dispatch, join, join_all)

Env = dict[str, LatticeType]


# ---------------------------------------------------------------------------
# Typed expressions
# ---------------------------------------------------------------------------


@record
class TExpr(src.Expr):
    ty: LatticeType
    pos: Pos = field(compare=False)


@record
class TConst(TExpr):
    value: bool | int | float


@record
class TVar(TExpr):
    name: str


@record
class TCall(TExpr):
    impl: OperatorImpl
    args: tuple[TExpr, ...]


@record
class TypedFunction:
    name: str
    params: tuple[tuple[str, LatticeType], ...]
    body: tuple[src.Stmt, ...]  # whose expressions are all TExpr
    return_type: LatticeType
    pos: Pos = field(compare=False)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def _join_envs(a: Env, b: Env) -> Env:
    """Merge two fall-through environments: variables defined on both
    paths survive with joined types, others go out of scope."""
    return {name: join(a[name], b[name]) for name in a.keys() & b.keys()}


class _Inferencer:
    def __init__(self):
        self.return_types: list[LatticeType] = []

    def annotate_expr(self, env: Env, e: src.Expr) -> TExpr:
        if isinstance(e, src.Lit):
            return TConst(TYPE_OF[type(e.value)], e.pos, e.value)
        if isinstance(e, src.Var):
            if e.name not in env:
                raise UndefinedVarError(f"undefined variable {e.name!r}", e.pos)
            if env[e.name] == LatticeType.TOP:
                raise UnstableTypeError(
                    "type-unstable value: incoming control paths carry "
                    "conflicting types", e.pos)
            return TVar(env[e.name], e.pos, e.name)
        if not isinstance(e, src.Call):
            raise TypeError(f"unknown expression node {e!r}")
        args, types = [], []
        for arg in e.args:  # a plain loop: one frame per expression level
            targ = self.annotate_expr(env, arg)
            args.append(targ)
            types.append(targ.ty)
        d = dispatch(e.op, tuple(types), e.pos)
        for i, conv in enumerate(d.conversions):  # promote: call each conversion row
            if conv is not None:
                args[i] = TCall(conv.result_type, args[i].pos, conv, (args[i],))
        return TCall(d.impl.result_type, e.pos, d.impl, tuple(args))

    def _annotate_cond(self, env: Env, e: src.Expr) -> TExpr:
        cond = self.annotate_expr(env, e)
        if cond.ty != LatticeType.BOOL:
            raise TypeCheckError(f"condition must be Bool, found {cond.ty}", cond.pos)
        return cond

    def annotate_stmts(self, stmts: tuple[src.Stmt, ...],
                       env: Env) -> tuple[tuple[src.Stmt, ...], Env | None]:
        out: list[src.Stmt] = []
        for stmt in stmts:
            if env is None:
                break  # statically unreachable; dropped from the typed tree
            if isinstance(stmt, src.Assign):
                value = self.annotate_expr(env, stmt.value)
                env[stmt.target] = value.ty
                out.append(src.Assign(stmt.target, value, stmt.pos))
            elif isinstance(stmt, src.Return):
                value = self.annotate_expr(env, stmt.value)
                self.return_types.append(value.ty)
                out.append(src.Return(value, stmt.pos))
                env = None
            elif isinstance(stmt, src.If):
                cond = self._annotate_cond(env, stmt.cond)
                then, then_env = self.annotate_stmts(stmt.then, dict(env))
                telifs = []
                arm_envs = [then_env]
                for econd, ebody in stmt.elifs:
                    tcond = self._annotate_cond(env, econd)
                    tbody, arm_env = self.annotate_stmts(ebody, dict(env))
                    telifs.append((tcond, tbody))
                    arm_envs.append(arm_env)
                orelse = None
                if stmt.orelse is not None:
                    orelse, else_env = self.annotate_stmts(stmt.orelse, dict(env))
                    arm_envs.append(else_env)
                else:
                    arm_envs.append(dict(env))
                out.append(src.If(cond, then, tuple(telifs), orelse, stmt.pos))
                live = [e2 for e2 in arm_envs if e2 is not None]
                if not live:
                    env = None
                else:
                    env = live[0]
                    for e2 in live[1:]:
                        env = _join_envs(env, e2)
            elif isinstance(stmt, src.While):
                # Re-annotate until the body no longer widens the header; the
                # last walk ran against the stable header, so its nodes are
                # kept.  Earlier walks' return types stay recorded, but the
                # header only widens, so they add nothing to the join.
                header = dict(env)
                while True:
                    cond = self._annotate_cond(header, stmt.cond)
                    body, body_env = self.annotate_stmts(stmt.body, dict(header))
                    joined = header if body_env is None else _join_envs(header, body_env)
                    if joined == header:
                        break
                    header = joined
                out.append(src.While(cond, body, stmt.pos))
                env = header
            else:
                raise TypeError(f"unknown statement node {stmt!r}")
        return tuple(out), env


def infer(func: src.FunctionDef, entry_sig: tuple[LatticeType, ...],
          strict: bool = True) -> TypedFunction:
    """Type a function against a concrete entry signature; `strict` has no effect."""
    if len(entry_sig) != len(func.params):
        raise TypeCheckError(
            f"function {func.name!r} takes {len(func.params)} parameter(s) "
            f"but the signature supplies {len(entry_sig)}", func.pos)
    env: Env = {}
    params = []
    for param, ty in zip(func.params, entry_sig):
        if not ty.is_concrete:
            raise TypeCheckError(
                f"entry signature type for {param.name!r} must be concrete, "
                f"got {ty}", param.pos)
        if param.annotation is not None and ANNOTATION_TO_TYPE[param.annotation] != ty:
            raise TypeCheckError(
                f"parameter {param.name!r} is annotated ::{param.annotation} but the "
                f"signature supplies {ty}", param.pos)
        env[param.name] = ty
        params.append((param.name, ty))
    inf = _Inferencer()
    body, _ = inf.annotate_stmts(func.body, env)
    ret = join_all(inf.return_types)
    if ret == LatticeType.TOP:
        raise UnstableTypeError(
            f"function {func.name!r} returns conflicting types "
            f"({', '.join(str(t) for t in dict.fromkeys(inf.return_types))})",
            func.pos)
    return TypedFunction(func.name, tuple(params), body, ret, func.pos)
