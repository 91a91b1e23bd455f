"""CFG optimization passes.

Two structural passes run to a joint fixpoint:

* merge_blocks: folds a block into its unique Goto predecessor, deletes
  empty forwarding blocks by rewiring their predecessors, and drops
  unreachable blocks.
* if_convert: turns small branch diamonds and triangles into straight-line
  code with select instructions.  Arms are hoisted, so only arms whose
  instructions are safe to execute speculatively qualify, and an arm
  budget keeps the transformation from flattening everything (wide arms
  stay as real control flow so the circuit keeps its branch steering).

Public entry points are pure: they clone the function and return the
transformed copy.  `optimize` re-verifies the IR after every pass
application and refuses to hand over a broken function.
"""

from __future__ import annotations

from .errors import PassError
from .ir import (Block, CondGoto, Goto, Instr, Ret, SelectOp, SSAFunction, ValueId,
                 predecessor_edges, reachable_blocks, terminator_uses, verify)
from .lattice import OperatorImpl

# mod_i64 traps on a zero divisor, so it must never run down an untaken
# path.  Float division is fine: it yields inf/nan instead of trapping.
UNSAFE_TO_SPECULATE = frozenset({"mod_i64"})

# Max instructions hoisted per arm.  Keeps if-conversion from swallowing
# whole functions and bounds the speculative work per branch.
SPECULATION_LIMIT = 4


def merge_blocks(func: SSAFunction) -> SSAFunction:
    out = func.clone()
    _merge_blocks_inplace(out)
    return out


def if_convert(func: SSAFunction, limit: int = SPECULATION_LIMIT) -> SSAFunction:
    out = func.clone()
    _if_convert_inplace(out, limit)
    return out


def optimize(func: SSAFunction, limit: int = SPECULATION_LIMIT) -> SSAFunction:
    """Run all passes to a fixpoint, verifying after each application."""
    out = func.clone()
    _check(out, "clone")
    while True:
        changed = _merge_blocks_inplace(out)
        _check(out, "merge_blocks")
        changed |= _if_convert_inplace(out, limit)
        _check(out, "if_convert")
        if not changed:
            return out


def _check(func: SSAFunction, stage: str) -> None:
    violations = verify(func)
    if violations:
        raise PassError(
            f"IR verification failed after {stage}: " + "; ".join(violations))


# ---------------------------------------------------------------------------
# merge_blocks
# ---------------------------------------------------------------------------


def _substitute(block: Block, mapping: dict[ValueId, ValueId]) -> None:
    if not mapping:
        return

    def sub(v: ValueId) -> ValueId:
        return mapping.get(v, v)

    block.instrs = [
        Instr(i.result, i.ty, i.op, tuple(sub(a) for a in i.args), i.pos)
        for i in block.instrs]
    t = block.terminator
    if isinstance(t, Goto):
        block.terminator = Goto(t.target, tuple(sub(a) for a in t.args))
    elif isinstance(t, CondGoto):
        block.terminator = CondGoto(
            sub(t.cond),
            t.then_target, tuple(sub(a) for a in t.then_args),
            t.else_target, tuple(sub(a) for a in t.else_args))
    elif isinstance(t, Ret):
        block.terminator = Ret(sub(t.value))


def _merge_blocks_inplace(func: SSAFunction) -> bool:
    changed = _remove_unreachable_inplace(func)
    while True:
        # A folded block's parameters may be used in any block it
        # dominated, so a batch of folds renames them everywhere at once.
        renames: dict[ValueId, ValueId] = {}
        while _merge_one(func, renames):
            changed = True
            _remove_unreachable_inplace(func)
        for v, arg in renames.items():
            while arg in renames:  # the argument was itself folded away
                arg = renames[arg]
            renames[v] = arg
        for blk in func.blocks:
            _substitute(blk, renames)
        if not _forward_one(func):
            return changed
        changed = True
        _remove_unreachable_inplace(func)


def _merge_one(func: SSAFunction, renames: dict[ValueId, ValueId]) -> bool:
    """Fold a block into its unique Goto predecessor, recording the
    renaming of its parameters to the incoming arguments in `renames`."""
    preds = predecessor_edges(func)
    for p in func.blocks:
        t = p.terminator
        if not isinstance(t, Goto) or t.target == p.id:
            continue
        b = func.block(t.target)
        if len(preds[b.id]) != 1:
            continue
        p.instrs.extend(b.instrs)
        p.terminator = b.terminator
        func.blocks.remove(b)
        renames.update((pid, arg) for (pid, _), arg in zip(b.params, t.args))
        return True
    return False


def _forward_one(func: SSAFunction) -> bool:
    """Delete an empty block that just forwards to another one."""
    preds = predecessor_edges(func)
    for b in func.blocks:
        t = b.terminator
        if (b is func.entry or b.instrs or not isinstance(t, Goto)
                or t.target == b.id or not preds[b.id]):
            continue
        param_ids = [pid for pid, _ in b.params]
        if param_ids and _used_outside(func, b, set(param_ids)):
            continue  # later blocks read b's parameters; it must stay
        for pred_id, edge_idx in preds[b.id]:
            pred = func.block(pred_id)
            pt = pred.terminator
            if isinstance(pt, Goto):
                edge_args = pt.args
            else:
                edge_args = pt.then_args if edge_idx == 0 else pt.else_args
            mapping = dict(zip(param_ids, edge_args))
            new_args = tuple(mapping.get(a, a) for a in t.args)
            if isinstance(pt, Goto):
                pred.terminator = Goto(t.target, new_args)
            elif edge_idx == 0:
                pred.terminator = CondGoto(pt.cond, t.target, new_args,
                                           pt.else_target, pt.else_args)
            else:
                pred.terminator = CondGoto(pt.cond, pt.then_target, pt.then_args,
                                           t.target, new_args)
        func.blocks.remove(b)
        return True
    return False


def _used_outside(func: SSAFunction, b: Block, values: set[ValueId]) -> bool:
    """True if a block other than b reads one of `values`."""
    for blk in func.blocks:
        if blk is not b and (
                any(not values.isdisjoint(ins.args) for ins in blk.instrs)
                or not values.isdisjoint(terminator_uses(blk.terminator))):
            return True
    return False


def _remove_unreachable_inplace(func: SSAFunction) -> bool:
    live = reachable_blocks(func)
    if all(b.id in live for b in func.blocks):
        return False
    func.blocks = [b for b in func.blocks if b.id in live]
    return True


# ---------------------------------------------------------------------------
# if_convert
# ---------------------------------------------------------------------------


def _speculation_safe(ins: Instr) -> bool:
    if isinstance(ins.op, OperatorImpl):
        return ins.op.opcode not in UNSAFE_TO_SPECULATE
    return True  # consts and selects have no side conditions


def _classify_side(func, preds, origin: Block, target: int, args, limit: int):
    """A side of a CondGoto is either a hoistable arm block or a plain edge."""
    blk = func.block(target)
    if (target != origin.id and not args and not blk.params
            and len(preds[target]) == 1
            and isinstance(blk.terminator, (Goto, Ret))
            and len(blk.instrs) <= limit
            and all(_speculation_safe(i) for i in blk.instrs)):
        return ("arm", blk)
    return ("edge", target, args)


def _if_convert_inplace(func: SSAFunction, limit: int) -> bool:
    changed = False
    while _convert_one(func, limit):
        changed = True
        _remove_unreachable_inplace(func)
    return changed


def _convert_one(func: SSAFunction, limit: int) -> bool:
    preds = predecessor_edges(func)
    for p in func.blocks:
        t = p.terminator
        if not isinstance(t, CondGoto):
            continue
        then_side = _classify_side(func, preds, p, t.then_target, t.then_args, limit)
        else_side = _classify_side(func, preds, p, t.else_target, t.else_args, limit)
        if _try_convert(func, p, t.cond, then_side, else_side):
            return True
    return False


def _side_exit(side):
    """(join target, join args) for a side, or None if the arm returns."""
    if side[0] == "edge":
        return side[1], side[2]
    term = side[1].terminator
    if isinstance(term, Goto):
        return term.target, term.args
    return None


def _try_convert(func: SSAFunction, p: Block, cond: ValueId,
                 then_side, else_side) -> bool:
    then_ret = then_side[0] == "arm" and isinstance(then_side[1].terminator, Ret)
    else_ret = else_side[0] == "arm" and isinstance(else_side[1].terminator, Ret)

    if then_ret and else_ret:
        p.instrs.extend(then_side[1].instrs)
        p.instrs.extend(else_side[1].instrs)
        tv = then_side[1].terminator.value
        ev = else_side[1].terminator.value
        p.terminator = Ret(_steer(func, p, cond, tv, ev, func.return_type))
        return True
    if then_ret or else_ret:
        return False  # one arm leaves the function, the other continues

    tx = _side_exit(then_side)
    ex = _side_exit(else_side)
    if tx is None or ex is None or tx[0] != ex[0]:
        return False
    join = tx[0]
    arm_ids = {s[1].id for s in (then_side, else_side) if s[0] == "arm"}
    if join == p.id or join in arm_ids:
        return False  # a loop edge, not a diamond

    for side in (then_side, else_side):
        if side[0] == "arm":
            p.instrs.extend(side[1].instrs)
    jparams = func.block(join).params
    new_args = tuple(
        _steer(func, p, cond, ta, ea, ty)
        for (ta, ea), (_, ty) in zip(zip(tx[1], ex[1]), jparams))
    p.terminator = Goto(join, new_args)
    return True


def _steer(func: SSAFunction, p: Block, cond: ValueId,
           then_val: ValueId, else_val: ValueId, ty) -> ValueId:
    if then_val == else_val:
        return then_val
    vid = func.fresh_value()
    p.instrs.append(Instr(vid, ty, SelectOp(), (cond, then_val, else_val)))
    return vid
