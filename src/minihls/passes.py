"""CFG optimization passes.

Two structural passes run to a joint fixpoint:

* merge_blocks: folds a block into its unique Goto predecessor and
  deletes empty forwarding blocks by rewiring their predecessors.
* if_convert: turns small branch diamonds and triangles into straight-line
  code with select instructions.  Arms are hoisted, so only arms whose
  instructions are safe to execute speculatively qualify, and an arm
  budget keeps the transformation from flattening everything (wide arms
  stay as real control flow so the circuit keeps its branch steering).

Public entry points are pure: they clone the function and return the
transformed copy.  `optimize` verifies its input, so no block is
unreachable, and re-verifies the IR after every pass application that
changed it, refusing to hand over a broken function.
"""

from __future__ import annotations

from .errors import PassError
from .ir import (Block, CondGoto, Goto, Instr, Ret, SSAFunction, ValueId,
                 predecessor_edges, successor_edges, terminator_uses, verify)
from .lattice import IMPL_BY_OPCODE, SELECT_OPCODES, OperatorImpl

# Max instructions hoisted per arm.  Keeps if-conversion from swallowing
# whole functions and bounds the speculative work per branch.
SPECULATION_LIMIT = 4


def merge_blocks(func: SSAFunction) -> SSAFunction:
    out = func.clone()
    _merge_blocks_inplace(out)
    return out


def if_convert(func: SSAFunction) -> SSAFunction:
    out = func.clone()
    _if_convert_inplace(out)
    return out


def optimize(func: SSAFunction) -> SSAFunction:
    """Run all passes to a fixpoint, verifying the input and every change."""
    out = func.clone()
    _check(out, "clone")
    while True:
        if merged := _merge_blocks_inplace(out):
            _check(out, "merge_blocks")
        if converted := _if_convert_inplace(out):
            _check(out, "if_convert")
        if not (merged or converted):
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
    def sub(vs: tuple[ValueId, ...]) -> tuple[ValueId, ...]:
        return tuple(mapping.get(v, v) for v in vs)

    untouched = mapping.keys().isdisjoint
    block.instrs = [
        i if untouched(i.args) else Instr(i.result, i.ty, i.op, sub(i.args), i.pos)
        for i in block.instrs]
    t = block.terminator
    if t is None or untouched(terminator_uses(t)):
        return
    if isinstance(t, Goto):
        block.terminator = Goto(t.target, sub(t.args))
    elif isinstance(t, CondGoto):
        block.terminator = CondGoto(mapping.get(t.cond, t.cond), t.then_target,
                                    sub(t.then_args), t.else_target, sub(t.else_args))
    else:
        block.terminator = Ret(mapping[t.value])


class _Graph:
    """Id -> block, predecessor and position maps of a function being
    rewritten in place, updated at each rewrite.  A deleted block stays
    in `func.blocks` until `flush`, so positions hold until then."""

    def __init__(self, func: SSAFunction):
        self.func = func
        self.by_id = {b.id: b for b in func.blocks}
        self.preds = predecessor_edges(func)
        self.pos = {b.id: i for i, b in enumerate(func.blocks)}

    def jump(self, blk: Block, term) -> None:
        """Give blk a new terminator and move its outgoing edges."""
        for idx, (target, _) in enumerate(successor_edges(blk.terminator)):
            self.preds[target].remove((blk.id, idx))
        blk.terminator = term
        for idx, (target, _) in enumerate(successor_edges(term)):
            self.preds[target].append((blk.id, idx))

    def delete(self, blk: Block) -> None:
        self.jump(blk, None)
        del self.by_id[blk.id], self.preds[blk.id]

    def flush(self) -> None:
        self.func.blocks = [b for b in self.func.blocks if b.id in self.by_id]


def _merge_blocks_inplace(func: SSAFunction) -> bool:
    """Fold and forward, each time at the first block in block order that
    allows it.  Only a block that a rewrite touched can newly allow one,
    so each scan resumes there instead of restarting."""
    g, changed = _Graph(func), False
    todo, start = func.blocks, 0  # fold candidates; where forwarding resumes
    while True:
        # A folded block's parameters may be used in any block it
        # dominated, so a batch of folds renames them everywhere at once.
        renames: dict[ValueId, ValueId] = {}
        for p in todo:
            while p.id in g.by_id and _fold(g, p, renames):
                changed = True
                start = min(start, g.pos[p.id])
        for v, arg in renames.items():
            while arg in renames:  # the argument was itself folded away
                arg = renames[arg]
            renames[v] = arg
        if renames:
            for blk in g.by_id.values():
                _substitute(blk, renames)
        found = _forward_one(g, start)
        if found is None:
            g.flush()
            return changed
        changed = True
        start, todo = found


def _fold(g: _Graph, p: Block, renames: dict[ValueId, ValueId]) -> bool:
    """Fold p's Goto target into p if p is its only predecessor, recording
    the renaming of its parameters to the incoming arguments."""
    t = p.terminator
    if (not isinstance(t, Goto) or t.target == p.id
            or len(g.preds[t.target]) != 1):
        return False
    b = g.by_id[t.target]
    p.instrs.extend(b.instrs)
    g.jump(p, b.terminator)
    g.delete(b)
    renames.update((pid, arg) for (pid, _), arg in zip(b.params, t.args))
    return True


def _forward_one(g: _Graph, start: int):
    """Delete the first empty block from position `start` on that just
    forwards to another one.  Returns where the next search resumes and
    the block's former predecessors in block order, or None."""
    func = g.func
    for i in range(start, len(func.blocks)):
        b = func.blocks[i]
        t = b.terminator
        if (b.id not in g.by_id or b is func.entry or b.instrs
                or not isinstance(t, Goto) or t.target == b.id
                or not g.preds[b.id]):
            continue
        param_ids = [pid for pid, _ in b.params]
        if param_ids and _used_outside(g, b, set(param_ids)):
            continue  # later blocks read b's parameters; it must stay
        pred_ids = sorted({q for q, _ in g.preds[b.id]}, key=g.pos.get)
        for pred_id, edge_idx in list(g.preds[b.id]):
            pred = g.by_id[pred_id]
            pt = pred.terminator
            mapping = dict(zip(param_ids, successor_edges(pt)[edge_idx][1]))
            new_args = tuple(mapping.get(a, a) for a in t.args)
            if isinstance(pt, Goto):
                g.jump(pred, Goto(t.target, new_args))
            elif edge_idx == 0:
                g.jump(pred, CondGoto(pt.cond, t.target, new_args,
                                      pt.else_target, pt.else_args))
            else:
                g.jump(pred, CondGoto(pt.cond, pt.then_target, pt.then_args,
                                      t.target, new_args))
        g.delete(b)
        # Dropped arguments may free an earlier block's parameters.
        return (0 if param_ids else min(i, g.pos[pred_ids[0]]),
                [g.by_id[q] for q in pred_ids])
    return None


def _used_outside(g: _Graph, b: Block, values: set[ValueId]) -> bool:
    """True if a block other than b reads one of `values`."""
    for blk in g.by_id.values():
        if blk is not b and (
                any(not values.isdisjoint(ins.args) for ins in blk.instrs)
                or not values.isdisjoint(terminator_uses(blk.terminator))):
            return True
    return False


# ---------------------------------------------------------------------------
# if_convert
# ---------------------------------------------------------------------------


def _speculation_safe(ins: Instr) -> bool:
    """A trapping opcode (mod_i64 on a zero divisor) must never run down an
    untaken path; float division yields inf/nan instead, and consts and
    selects have no side conditions."""
    return not (isinstance(ins.op, OperatorImpl) and ins.op.traps)


def _classify_side(g: _Graph, origin: Block, target: int, args):
    """A side of a CondGoto is either a hoistable arm block or a plain edge."""
    blk = g.by_id[target]
    if (target != origin.id and not args and not blk.params
            and len(g.preds[target]) == 1
            and isinstance(blk.terminator, (Goto, Ret))
            and len(blk.instrs) <= SPECULATION_LIMIT
            and all(_speculation_safe(i) for i in blk.instrs)):
        return ("arm", blk)
    return ("edge", target, args)


def _if_convert_inplace(func: SSAFunction) -> bool:
    """Convert every convertible branch, visiting the branches in block
    order.  A conversion at p changes only p, its arms and its join, so
    of the earlier blocks only those branching to p can become
    convertible: the scan resumes at the first of them."""
    g = _Graph(func)
    changed = False
    i = 0
    while i < len(func.blocks):
        p = func.blocks[i]
        t = p.terminator
        if p.id in g.by_id and isinstance(t, CondGoto) and _try_convert(
                g, p, t.cond,
                _classify_side(g, p, t.then_target, t.then_args),
                _classify_side(g, p, t.else_target, t.else_args)):
            changed = True
            i = min([i + 1] + [g.pos[q] for q, _ in g.preds[p.id]])
        else:
            i += 1
    g.flush()
    return changed


def _side_exit(side):
    """(join target, join args) of a side that does not return."""
    if side[0] == "edge":
        return side[1], side[2]
    return side[1].terminator.target, side[1].terminator.args


def _try_convert(g: _Graph, p: Block, cond: ValueId,
                 then_side, else_side) -> bool:
    """Hoist the arms into p and steer with selects.  The arm blocks are
    left without predecessors and are deleted."""
    func = g.func
    arms = [s[1] for s in (then_side, else_side) if s[0] == "arm"]
    then_ret = then_side[0] == "arm" and isinstance(then_side[1].terminator, Ret)
    else_ret = else_side[0] == "arm" and isinstance(else_side[1].terminator, Ret)
    if then_ret != else_ret:
        return False  # one arm leaves the function, the other continues
    if not then_ret:
        (join, then_args), (else_join, else_args) = (_side_exit(then_side),
                                                     _side_exit(else_side))
        if join != else_join or join == p.id or join in {a.id for a in arms}:
            return False  # not a diamond: no common join, or a loop edge
    for arm in arms:
        p.instrs.extend(arm.instrs)
    if then_ret:
        g.jump(p, Ret(_steer(func, p, cond, then_side[1].terminator.value,
                             else_side[1].terminator.value, func.return_type)))
    else:
        g.jump(p, Goto(join, tuple(
            _steer(func, p, cond, ta, ea, ty)
            for ta, ea, (_, ty) in zip(then_args, else_args,
                                       g.by_id[join].params))))
    for arm in arms:
        g.delete(arm)
    return True


def _steer(func: SSAFunction, p: Block, cond: ValueId,
           then_val: ValueId, else_val: ValueId, ty) -> ValueId:
    if then_val == else_val:
        return then_val
    vid = func.fresh_value()
    row = IMPL_BY_OPCODE[SELECT_OPCODES[ty]]
    p.instrs.append(Instr(vid, ty, row, (cond, then_val, else_val)))
    return vid
