"""SSA intermediate representation.

A function is an ordered list of basic blocks.  Merged values are block
parameters rather than phi instructions: a terminator passes arguments to
its target's parameters, which keeps the verifier small and maps directly
onto the merge components of the elastic circuit.  Every value id is
defined exactly once (function param, block param, or instruction result)
and every use must be dominated by its definition.

An instruction's `Op` is a `ConstOp` literal or the `lattice` opcode row
that dispatch or if-conversion chose; a select's row is a `SelectOp`, so
the verifier, builder and interpreter read every operation off its row.

Instructions and terminators are immutable `errors.record`s: a rewrite
builds a new one only where an operand changes and assigns it to the
block's list or `terminator`.  So `SSAFunction.clone` copies only the
blocks and their instruction lists, sharing the rest and `verify`'s record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Union

from .errors import Pos, record
from .lattice import (IMPL_BY_OPCODE, PY_TYPES, LatticeType, OperatorImpl,
                      SelectOp, format_value)

ValueId = int
BlockId = int


@record
class ConstOp:
    """Materialize a literal."""

    value: object  # bool, int, or float matching ty


Op = Union[OperatorImpl, ConstOp]


@record
class Instr:
    result: ValueId
    ty: LatticeType
    op: Op
    args: tuple[ValueId, ...] = ()
    pos: Pos = field(default=Pos(0, 0), compare=False)


@record
class Goto:
    target: BlockId
    args: tuple[ValueId, ...] = ()


@record
class CondGoto:
    cond: ValueId
    then_target: BlockId
    then_args: tuple[ValueId, ...]
    else_target: BlockId
    else_args: tuple[ValueId, ...]


@record
class Ret:
    value: ValueId


Terminator = Union[Goto, CondGoto, Ret]


@dataclass
class Block:
    id: BlockId
    params: tuple[tuple[ValueId, LatticeType], ...]
    instrs: list[Instr]
    terminator: Terminator | None = None


@dataclass
class SSAFunction:
    name: str
    params: tuple[tuple[ValueId, LatticeType], ...]
    return_type: LatticeType
    blocks: list[Block]
    next_value: ValueId = 0
    next_block: BlockId = 0
    # the entries `verify` last found valid
    checked: list = field(default_factory=list, init=False, repr=False, compare=False)
    # the `interp.run_ssa` plan, compiled once hot, kept while built from `checked`
    plan: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def fresh_value(self) -> ValueId:
        v = self.next_value
        self.next_value += 1
        return v

    def clone(self) -> "SSAFunction":
        blocks = [Block(b.id, b.params, list(b.instrs), b.terminator)
                  for b in self.blocks]
        out = SSAFunction(self.name, self.params, self.return_type, blocks,
                          self.next_value, self.next_block)
        out.checked = self.checked  # the same entries
        return out

    def value_types(self) -> dict[ValueId, LatticeType]:
        types = dict(self.params)
        for b in self.blocks:
            types.update(b.params)
            for ins in b.instrs:
                types[ins.result] = ins.ty
        return types


def successor_edges(term: Terminator) -> list[tuple[BlockId, tuple[ValueId, ...]]]:
    if isinstance(term, Goto):
        return [(term.target, term.args)]
    if isinstance(term, CondGoto):
        return [(term.then_target, term.then_args), (term.else_target, term.else_args)]
    return []


def predecessor_edges(func: SSAFunction) -> dict[BlockId, list[tuple[BlockId, int]]]:
    """Incoming edges per block as (pred block id, edge index within the
    pred's terminator).  A CondGoto contributes two edges and may target
    the same block twice."""
    preds: dict[BlockId, list[tuple[BlockId, int]]] = {b.id: [] for b in func.blocks}
    for b in func.blocks:
        for idx, (target, _) in enumerate(successor_edges(b.terminator)):
            preds[target].append((b.id, idx))
    return preds


def terminator_uses(term: Terminator) -> list[ValueId]:
    if isinstance(term, Goto):
        return list(term.args)
    if isinstance(term, CondGoto):
        return [term.cond, *term.then_args, *term.else_args]
    return [term.value]


def postorder(func: SSAFunction) -> list[BlockId]:
    """The blocks reachable from the entry in depth-first postorder, so
    the entry comes last.  Runs on IR that does not verify: missing
    terminators and unknown targets are skipped."""
    by_id = {b.id: b for b in func.blocks}
    order: list[BlockId] = []
    seen: set[BlockId] = set()
    stack = [(func.entry.id, False)]
    while stack:
        bid, done = stack.pop()
        if done:
            order.append(bid)
        elif bid not in seen:
            seen.add(bid)
            stack.append((bid, True))
            stack.extend((t, False) for t, _ in
                         successor_edges(by_id[bid].terminator) if t in by_id)
    return order


def reachable_blocks(func: SSAFunction) -> set[BlockId]:
    return set(postorder(func))


def _dominance(order: list[BlockId], preds: dict[BlockId, list[BlockId]]):
    """`dominates(d, u)` for a block u of `order`, a postorder from the
    entry.  The immediate dominators come from Cooper, Harvey and
    Kennedy, "A Simple, Fast Dominance Algorithm" (2001); edges from
    blocks outside `order` are ignored.  A query is O(1): d dominates u
    iff u's preorder number on the dominator tree is in d's subtree."""
    num = {b: i for i, b in enumerate(order)}
    entry = order[-1]
    idom = {entry: entry}
    changed = True
    while changed:
        changed = False
        for b in reversed(order[:-1]):
            # Preds without an idom yet are unreachable or not reached in
            # this sweep; b's DFS parent always has one.
            done = [p for p in preds[b] if p in idom]
            new = done[0]
            for p in done[1:]:
                while p != new:  # walk both up to their common dominator
                    while num[p] < num[new]:
                        p = idom[p]
                    while num[new] < num[p]:
                        new = idom[new]
            if idom.get(b) != new:
                idom[b] = new
                changed = True
    size = dict.fromkeys(order, 1)
    for b in order[:-1]:  # children before their idom
        size[idom[b]] += size[b]
    pre, free = {entry: 0}, {entry: 1}
    for b in reversed(order[:-1]):  # each idom numbered before its children
        d = idom[b]
        pre[b], free[b] = free[d], free[d] + 1
        free[d] += size[b]
    return lambda d, u: d in pre and pre[d] <= pre[u] < pre[d] + size[d]


def dominators(func: SSAFunction) -> dict[BlockId, set[BlockId]]:
    """Dominator sets of the reachable blocks."""
    order = postorder(func)
    preds = {b: [p for p, _ in edges]
             for b, edges in predecessor_edges(func).items()}
    dominates = _dominance(order, preds)
    return {u: {d for d in order if dominates(d, u)} for u in order}


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------


def verify(func: SSAFunction) -> list[str]:
    """Check every structural invariant; returns violations, never raises.

    Run after lowering and after every optimization pass.  A clean walk
    keeps the entries it read (params, return type, and each block's id,
    params, terminator and instructions) in `func.checked`; while each is
    the same object, `verify` returns [] without walking.
    """
    record = [func.params, func.return_type]
    for b in func.blocks:
        record += (b.id, b.params, b.terminator, *b.instrs)
    if len(func.checked) == len(record) and all(map(is_, func.checked, record)):
        return []
    violations: list[str] = []
    if not func.blocks:
        return ["function has no blocks"]

    by_id = {b.id: b for b in func.blocks}
    if len(by_id) != len(func.blocks):
        return ["duplicate block ids"]

    if func.entry.params:
        violations.append("entry block must not declare parameters "
                          "(function parameters play that role)")

    # Single definition of every value.  Params carry order -1 so they
    # precede every instr.
    defs = [(vid, ty, func.entry.id, -1) for vid, ty in func.params]
    for b in func.blocks:
        defs += [(vid, ty, b.id, -1) for vid, ty in b.params]
        defs += [(i.result, i.ty, b.id, k) for k, i in enumerate(b.instrs)]
    types: dict[ValueId, LatticeType] = {}
    def_site: dict[ValueId, tuple[BlockId, int]] = {}  # block, order index
    for vid, ty, bid, k in defs:
        if vid in types:
            violations.append(f"value v{vid} defined more than once")
        types[vid], def_site[vid] = ty, (bid, k)

    # Terminators present and well-targeted.
    preds: dict[BlockId, list[BlockId]] = {bid: [] for bid in by_id}
    for b in func.blocks:
        if b.terminator is None:
            violations.append(f"b{b.id} has no terminator")
            continue
        for target, args in successor_edges(b.terminator):
            if target not in by_id:
                violations.append(f"b{b.id} targets unknown block b{target}")
                continue
            preds[target].append(b.id)
            tparams = by_id[target].params
            if len(args) != len(tparams):
                violations.append(
                    f"b{b.id} passes {len(args)} argument(s) to b{target} "
                    f"which declares {len(tparams)} parameter(s)")
            else:
                for arg, (pid, pty) in zip(args, tparams):
                    aty = types.get(arg)
                    if aty is not None and aty != pty:
                        violations.append(
                            f"b{b.id} passes v{arg}: {aty} to parameter "
                            f"v{pid}: {pty} of b{target}")
        if isinstance(b.terminator, CondGoto):
            cty = types.get(b.terminator.cond)
            if cty is not None and cty != LatticeType.BOOL:
                violations.append(
                    f"b{b.id} branches on v{b.terminator.cond}: {cty} (must be Bool)")
        if isinstance(b.terminator, Ret):
            rty = types.get(b.terminator.value)
            if rty is not None and rty != func.return_type:
                violations.append(
                    f"b{b.id} returns v{b.terminator.value}: {rty}, function "
                    f"declares {func.return_type}")

    if preds[func.entry.id]:
        violations.append("entry block has predecessors")

    order = postorder(func)
    reachable = set(order)
    for bid in by_id:
        if bid not in reachable:
            violations.append(f"b{bid} is unreachable")

    # Operand typing.
    for b in func.blocks:
        for ins in b.instrs:
            if isinstance(ins.op, OperatorImpl):
                expect = ins.op.operand_types
                if ins.op.opcode not in IMPL_BY_OPCODE:
                    violations.append(
                        f"v{ins.result}: unknown opcode {ins.op.opcode!r}")
                elif len(ins.args) != len(expect):
                    violations.append(
                        f"v{ins.result}: {ins.op.opcode} expects {len(expect)} "
                        f"operand(s), got {len(ins.args)}")
                else:
                    for arg, ety in zip(ins.args, expect):
                        aty = types.get(arg)
                        if aty is not None and aty != ety:
                            violations.append(
                                f"v{ins.result}: operand v{arg}: {aty} does not "
                                f"match {ins.op.opcode} signature {ety}")
                if ins.ty != ins.op.result_type:
                    violations.append(
                        f"v{ins.result} typed {ins.ty} but {ins.op.opcode} "
                        f"yields {ins.op.result_type}")
            elif isinstance(ins.op, ConstOp):
                want = PY_TYPES.get(ins.ty)
                if want is None or type(ins.op.value) is not want:
                    violations.append(
                        f"v{ins.result}: const {ins.op.value!r} does not match {ins.ty}")
            else:
                violations.append(f"v{ins.result}: unknown op {ins.op!r}")

    # Dominance of uses.
    dominates = _dominance(order, preds)

    def check_use(vid: ValueId, use_block: BlockId, use_order: int, what: str) -> None:
        if vid not in def_site:
            violations.append(f"{what} uses undefined value v{vid}")
            return
        db, dorder = def_site[vid]
        if db == use_block:
            if dorder >= use_order:
                violations.append(f"{what} uses v{vid} before its definition")
        elif use_block in reachable and not dominates(db, use_block):
            violations.append(f"{what} uses v{vid} whose definition in b{db} "
                              f"does not dominate b{use_block}")

    for b in func.blocks:
        for order, ins in enumerate(b.instrs):
            for vid in ins.args:
                check_use(vid, b.id, order, f"b{b.id}: v{ins.result}")
        if b.terminator is not None:
            for vid in terminator_uses(b.terminator):
                check_use(vid, b.id, len(b.instrs), f"b{b.id} terminator")

    if not violations:
        func.checked = record
    return violations


# ---------------------------------------------------------------------------
# Textual form (golden tests, dump-ir)
# ---------------------------------------------------------------------------


def _format_edge(target: BlockId, args: tuple[ValueId, ...]) -> str:
    if not args:
        return f"b{target}"
    return f"b{target}({', '.join(f'v{a}' for a in args)})"


def print_function(func: SSAFunction) -> str:
    lines = []
    params = ", ".join(f"v{vid}: {ty.short}" for vid, ty in func.params)
    lines.append(f"fn {func.name}({params}) -> {func.return_type.short}")
    for b in func.blocks:
        if b.params:
            plist = ", ".join(f"v{vid}: {ty.short}" for vid, ty in b.params)
            lines.append(f"b{b.id}({plist}):")
        else:
            lines.append(f"b{b.id}:")
        for ins in b.instrs:
            if isinstance(ins.op, ConstOp):
                rhs = f"const {format_value(ins.op.value)}"
            elif isinstance(ins.op, SelectOp):
                rhs = f"select {', '.join(f'v{a}' for a in ins.args)}"
            else:
                rhs = f"{ins.op.opcode} {', '.join(f'v{a}' for a in ins.args)}"
            lines.append(f"  v{ins.result} = {rhs.rstrip()} : {ins.ty.short}")
        t = b.terminator
        if isinstance(t, Goto):
            lines.append(f"  goto {_format_edge(t.target, t.args)}")
        elif isinstance(t, CondGoto):
            lines.append(f"  br v{t.cond}, {_format_edge(t.then_target, t.then_args)}, "
                         f"{_format_edge(t.else_target, t.else_args)}")
        elif isinstance(t, Ret):
            lines.append(f"  ret v{t.value}")
        else:
            lines.append("  <no terminator>")
    return "\n".join(lines) + "\n"
