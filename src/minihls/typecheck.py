"""Forward data-flow type inference over the AST.

One walker types and annotates in a single pass.  Types flow from the
entry signature through assignments; at if-joins and loop headers a
variable's type is the lattice join of the incoming types.  A loop's
condition and body are re-annotated until the header environment stops
changing (monotone in the lattice, so at most height * variable-count
walks), and the nodes of the last walk, made against the stable header,
are kept.  The result is a typed mirror of the AST in which every
expression carries its lattice type, every operator its resolved
implementation, and every promotion an explicit conversion node.

Strict mode (the default) rejects any Top-typed expression; lenient mode
records the instability and leaves the offending implementations
unresolved, which downstream hardware generation refuses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import source as src
from .errors import Pos, TypeCheckError, UndefinedVarError, UnstableTypeError
from .lattice import (ANNOTATION_TO_TYPE, LatticeType, OperatorImpl, dispatch, join,
                      join_all)

Env = dict[str, LatticeType]


# ---------------------------------------------------------------------------
# Typed AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TExpr:
    ty: LatticeType
    pos: Pos = field(compare=False)


@dataclass(frozen=True)
class TIntLit(TExpr):
    value: int = 0


@dataclass(frozen=True)
class TFloatLit(TExpr):
    value: float = 0.0


@dataclass(frozen=True)
class TBoolLit(TExpr):
    value: bool = False


@dataclass(frozen=True)
class TVar(TExpr):
    name: str = ""


@dataclass(frozen=True)
class TConvert(TExpr):
    impl: OperatorImpl = None
    operand: TExpr = None


@dataclass(frozen=True)
class TUnary(TExpr):
    op: str = ""
    impl: OperatorImpl | None = None  # None only for Top-typed nodes in lenient mode
    operand: TExpr = None


@dataclass(frozen=True)
class TBinary(TExpr):
    op: str = ""
    impl: OperatorImpl | None = None
    left: TExpr = None
    right: TExpr = None


@dataclass(frozen=True)
class TStmt:
    pos: Pos = field(compare=False)


@dataclass(frozen=True)
class TAssign(TStmt):
    target: str = ""
    value: TExpr = None


@dataclass(frozen=True)
class TIf(TStmt):
    cond: TExpr = None
    then: tuple[TStmt, ...] = ()
    elifs: tuple[tuple[TExpr, tuple[TStmt, ...]], ...] = ()
    orelse: tuple[TStmt, ...] | None = None


@dataclass(frozen=True)
class TWhile(TStmt):
    cond: TExpr = None
    body: tuple[TStmt, ...] = ()


@dataclass(frozen=True)
class TReturn(TStmt):
    value: TExpr = None


@dataclass(frozen=True)
class TypedFunction:
    name: str
    params: tuple[tuple[str, LatticeType], ...]
    body: tuple[TStmt, ...]
    return_type: LatticeType
    type_stable: bool
    pos: Pos = field(compare=False)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def _join_envs(a: Env, b: Env) -> Env:
    """Merge two fall-through environments: variables defined on both
    paths survive with joined types, others go out of scope."""
    return {name: join(a[name], b[name]) for name in a.keys() & b.keys()}


class _Inferencer:
    def __init__(self, strict: bool):
        self.strict = strict
        self.stable = True
        self.return_types: list[LatticeType] = []

    def _observe(self, ty: LatticeType, pos: Pos) -> LatticeType:
        if ty == LatticeType.TOP:
            if self.strict:
                raise UnstableTypeError(
                    "type-unstable value: incoming control paths carry "
                    "conflicting types", pos)
            self.stable = False
        return ty

    def annotate_expr(self, env: Env, e: src.Expr) -> TExpr:
        if isinstance(e, src.IntLit):
            return TIntLit(LatticeType.INT64, e.pos, e.value)
        if isinstance(e, src.FloatLit):
            return TFloatLit(LatticeType.FLOAT64, e.pos, e.value)
        if isinstance(e, src.BoolLit):
            return TBoolLit(LatticeType.BOOL, e.pos, e.value)
        if isinstance(e, src.Var):
            if e.name not in env:
                raise UndefinedVarError(f"undefined variable {e.name!r}", e.pos)
            return TVar(self._observe(env[e.name], e.pos), e.pos, e.name)
        if isinstance(e, src.Unary):
            operand = self.annotate_expr(env, e.operand)
            if operand.ty == LatticeType.TOP:
                self._observe(LatticeType.TOP, e.pos)
                return TUnary(LatticeType.TOP, e.pos, e.op, None, operand)
            d = dispatch(e.op, (operand.ty,), e.pos)
            operand = self._convert(operand, d.conversions[0])
            return TUnary(d.impl.result_type, e.pos, e.op, d.impl, operand)
        if isinstance(e, src.Binary):
            left = self.annotate_expr(env, e.left)
            right = self.annotate_expr(env, e.right)
            if LatticeType.TOP in (left.ty, right.ty):
                self._observe(LatticeType.TOP, e.pos)
                return TBinary(LatticeType.TOP, e.pos, e.op, None, left, right)
            d = dispatch(e.op, (left.ty, right.ty), e.pos)
            left = self._convert(left, d.conversions[0])
            right = self._convert(right, d.conversions[1])
            return TBinary(d.impl.result_type, e.pos, e.op, d.impl, left, right)
        raise TypeError(f"unknown expression node {e!r}")

    @staticmethod
    def _convert(node: TExpr, conv: OperatorImpl | None) -> TExpr:
        if conv is None:
            return node
        return TConvert(conv.result_type, node.pos, conv, node)

    def _annotate_cond(self, env: Env, e: src.Expr) -> TExpr:
        cond = self.annotate_expr(env, e)
        # Top only survives to here in lenient mode, where it has already
        # been recorded; a concrete non-Bool condition is wrong in any mode.
        if cond.ty != LatticeType.BOOL and cond.ty != LatticeType.TOP:
            raise TypeCheckError(f"condition must be Bool, found {cond.ty}", cond.pos)
        return cond

    def annotate_stmts(self, stmts: tuple[src.Stmt, ...],
                       env: Env) -> tuple[tuple[TStmt, ...], Env | None]:
        out: list[TStmt] = []
        for stmt in stmts:
            if env is None:
                break  # statically unreachable; dropped from the typed tree
            if isinstance(stmt, src.Assign):
                value = self.annotate_expr(env, stmt.value)
                env[stmt.target] = value.ty
                out.append(TAssign(stmt.pos, stmt.target, value))
            elif isinstance(stmt, src.Return):
                value = self.annotate_expr(env, stmt.value)
                self.return_types.append(value.ty)
                out.append(TReturn(stmt.pos, value))
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
                out.append(TIf(stmt.pos, cond, then, tuple(telifs), orelse))
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
                out.append(TWhile(stmt.pos, cond, body))
                env = header
            else:
                raise TypeError(f"unknown statement node {stmt!r}")
        return tuple(out), env


def infer(func: src.FunctionDef, entry_sig: tuple[LatticeType, ...],
          strict: bool = True) -> TypedFunction:
    """Type a function against a concrete entry signature."""
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
    inf = _Inferencer(strict)
    body, _ = inf.annotate_stmts(func.body, env)
    ret = join_all(inf.return_types)
    if ret == LatticeType.TOP:
        if strict:
            raise UnstableTypeError(
                f"function {func.name!r} returns conflicting types "
                f"({', '.join(str(t) for t in dict.fromkeys(inf.return_types))})",
                func.pos)
        inf.stable = False
    return TypedFunction(func.name, tuple(params), body, ret, inf.stable, func.pos)
