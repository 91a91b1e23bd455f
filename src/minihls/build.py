"""SSA to elastic circuit construction.

Every SSA value and every block's control token become token streams.  A
block with several predecessor edges receives each of its inputs through
a Merge with one slot per incoming edge; a conditional terminator steers
every outgoing value through a Branch driven by the condition.  Constants
are triggered by their block's control token, so they fire once per
activation rather than flooding the circuit.

The builder is demand driven.  A token source is a (component id, output
index) pair, and while walking the function the builder only records, in
one insertion-ordered map keyed by source, its width and the input ports
that demand it.  A block with one predecessor edge has no components at
its inputs: the edge hands it the sources it supplies.  So blocks are
built in block order, except that such a block waits until its
predecessor is built.  At the end a source with no demand gets a Sink,
one demand a plain channel and more a Fork.  The walk order is fixed
(blocks, then instructions, then terminator payloads), so identical IR
always yields an identical circuit, component ids included.
"""

from __future__ import annotations

from .cdfg import (BRANCH, CDFG, CONST, ENTRY, EXIT, FORK, MERGE, OPERATOR,
                   SINK, Component)
from .errors import BuildError
from .ir import (Block, CondGoto, ConstOp, Goto, Ret, SSAFunction, postorder,
                 predecessor_edges, successor_edges, terminator_uses, verify)
from .lattice import DEFAULT_LATENCIES

CONTROL = "ctrl"  # input-map key for the control token; value keys are ints
Source = tuple[int, int]  # (component id, output index)


def _name(key) -> str:
    return "ctrl" if key == CONTROL else f"v{key}"


def resolve_latencies(overrides: dict[str, int] | None) -> dict[str, int]:
    lat = dict(DEFAULT_LATENCIES)
    for opcode, value in (overrides or {}).items():
        if opcode not in lat:
            raise BuildError(f"unknown opcode {opcode!r} in latency map")
        if value < 0:
            raise BuildError(f"negative latency for {opcode}")
        lat[opcode] = value
    return lat


def build_cdfg(func: SSAFunction,
               latencies: dict[str, int] | None = None) -> CDFG:
    """Construct the unbuffered circuit; run `insert_buffers` afterwards
    to make loop graphs pass the structural check.  Every Merge is
    created before any Const, Operator, Branch or Fork, and the return
    Merge after the block Merges; `insert_buffers` relies on that order to
    cut each loop at its header's latch inputs."""
    violations = verify(func)
    if violations:
        raise BuildError("refusing to build from invalid IR: "
                         + "; ".join(violations))
    return _Builder(func, resolve_latencies(latencies)).run()


class _Builder:
    def __init__(self, func: SSAFunction, latencies: dict[str, int]):
        self.func = func
        self.lat = latencies
        self.g = CDFG(func.name, return_width=func.return_type.width)
        self.types = func.value_types()
        self.preds = predecessor_edges(func)
        self.by_id = {b.id: b for b in func.blocks}
        self.live_in = self._liveness()
        # block id -> input key -> its source; a Merge's where several
        # edges arrive, set by the one edge's wiring where one does
        self.local: dict[int, dict] = {}
        # every source, in creation order -> (width, ports demanding it)
        self.demands: dict[Source, tuple[int, list[tuple[int, int]]]] = {}

    # -- plumbing -----------------------------------------------------------

    def source(self, c: Component, i: int = 0) -> Source:
        """Output i of c, recorded as a token source with no demand yet."""
        src = (c.id, i)
        self.demands[src] = (c.out_widths[i], [])
        return src

    def demand(self, src: Source, port: tuple[int, int]) -> None:
        self.demands[src][1].append(port)

    def width_of(self, key) -> int:
        return 0 if key == CONTROL else self.types[key].width

    def layout(self, block: Block) -> list:
        """Input order of a block: control, block parameters, then the
        remaining live-in values by id."""
        return [CONTROL, *(pid for pid, _ in block.params),
                *sorted(self.live_in[block.id])]

    # -- liveness (block params count as definitions) -----------------------

    def _liveness(self) -> dict[int, set[int]]:
        """Live-in values per block.  Liveness flows backward, so the
        sweeps visit blocks in postorder, successors first; in block order
        a value crossed one block per sweep."""
        defs, use, succs = {}, {}, {}
        for b in self.func.blocks:
            d = {pid for pid, _ in b.params} | {i.result for i in b.instrs}
            u: set[int] = set()
            for ins in b.instrs:
                u.update(ins.args)
            u.update(terminator_uses(b.terminator))
            defs[b.id], use[b.id] = d, u - d
            succs[b.id] = [t for t, _ in successor_edges(b.terminator)]
        live = {bid: set(u) for bid, u in use.items()}
        order = postorder(self.func)
        changed = True
        while changed:
            changed = False
            for bid in order:
                out: set[int] = set()
                for target in succs[bid]:
                    out |= live[target]
                new = use[bid] | (out - defs[bid])
                if new != live[bid]:
                    live[bid] = new
                    changed = True
        return live

    # -- construction -------------------------------------------------------

    def run(self) -> CDFG:
        g, func = self.g, self.func

        entry = self.local[func.entry.id] = {}
        for vid, ty in func.params:
            entry[vid] = self.source(
                g.add_component(ENTRY, (), (ty.width,), label=f"v{vid}"))
        entry[CONTROL] = self.source(
            g.add_component(ENTRY, (), (0,), label="ctrl"))

        rw = func.return_type.width
        exit_c = g.add_component(EXIT, (rw,), (), label="ret")

        for b in func.blocks:
            k = len(self.preds[b.id])
            if k >= 2:
                merges = self.local[b.id] = {}
                for key in self.layout(b):
                    w = self.width_of(key)
                    merges[key] = self.source(g.add_component(
                        MERGE, (w,) * k, (w,), label=f"b{b.id}.{_name(key)}"))

        # After the block Merges: the buffer sweep cuts the lowest-id
        # stalled component, so it cuts loop headers, not the return Merge.
        ret_blocks = [b.id for b in func.blocks
                      if isinstance(b.terminator, Ret)]
        if len(ret_blocks) >= 2:
            ret_merge = g.add_component(
                MERGE, (rw,) * len(ret_blocks), (rw,), label="ret")
            g.add_channel((ret_merge.id, 0), (exit_c.id, 0), rw)
            self.return_slot = {bid: (ret_merge.id, i)
                                for i, bid in enumerate(ret_blocks)}
        else:
            self.return_slot = {bid: (exit_c.id, 0) for bid in ret_blocks}

        # A block fed by one edge waits until its predecessor has wired it.
        ready: list[Block] = []
        waiting: dict[int, list[Block]] = {}
        for b in func.blocks:
            if b.id in self.local:
                ready.append(b)
            else:
                waiting.setdefault(self.preds[b.id][0][0], []).append(b)
            while ready:
                built = ready.pop()
                self._build_block(built)
                ready += waiting.pop(built.id, ())

        for src, (w, ports) in self.demands.items():
            if not ports:
                sink = g.add_component(SINK, (w,), (), label="sink")
                g.add_channel(src, (sink.id, 0), w)
            elif len(ports) == 1:
                g.add_channel(src, ports[0], w)
            else:
                fork = g.add_component(FORK, (w,), (w,) * len(ports),
                                       label="fork")
                g.add_channel(src, (fork.id, 0), w)
                for i, port in enumerate(ports):
                    g.add_channel((fork.id, i), port, w)
        return g

    def _build_block(self, b: Block) -> None:
        g = self.g
        srcs = dict(self.local[b.id])
        for ins in b.instrs:
            w = ins.ty.width
            if isinstance(ins.op, ConstOp):
                c = g.add_component(CONST, (0,), (w,), label=f"v{ins.result}",
                                    value=ins.op.value, pos=ins.pos)
                self.demand(srcs[CONTROL], (c.id, 0))
            else:
                opcode = ins.op.opcode
                c = g.add_component(OPERATOR, tuple(t.width for t in ins.op.operand_types),
                                    (w,), label=f"v{ins.result}", opcode=opcode,
                                    latency=self.lat[opcode], pos=ins.pos)
                for i, arg in enumerate(ins.args):
                    self.demand(srcs[arg], (c.id, i))
            srcs[ins.result] = self.source(c)

        t = b.terminator
        if isinstance(t, Ret):
            self.demand(srcs[t.value], self.return_slot[b.id])
            # the control token has no demand here; it drains to a Sink
        elif isinstance(t, Goto):
            self._wire_edge(b, 0, t.target, t.args, srcs)
        elif isinstance(t, CondGoto):
            steered = dict.fromkeys(self._edge_keys(t.then_target, t.then_args)
                                    + self._edge_keys(t.else_target, t.else_args))
            true_srcs, false_srcs = {}, {}
            for key in steered:
                w = self.width_of(key)
                br = g.add_component(BRANCH, (w, 1), (w, w),
                                     label=f"b{b.id}.{_name(key)}")
                self.demand(srcs[key], (br.id, 0))
                self.demand(srcs[t.cond], (br.id, 1))
                true_srcs[key], false_srcs[key] = self.source(br, 0), self.source(br, 1)
            self._wire_edge(b, 0, t.then_target, t.then_args, true_srcs)
            self._wire_edge(b, 1, t.else_target, t.else_args, false_srcs)

    def _edge_keys(self, target: int, args: tuple) -> list:
        """Values a CFG edge carries, in the target's input order."""
        return [CONTROL, *args, *sorted(self.live_in[target])]

    def _wire_edge(self, b: Block, edge_idx: int, target: int, args: tuple,
                   supply: dict) -> None:
        keys = zip(self.layout(self.by_id[target]),
                   self._edge_keys(target, args))
        if len(self.preds[target]) == 1:
            self.local[target] = {key: supply[sk] for key, sk in keys}
            return
        slot = self.preds[target].index((b.id, edge_idx))
        for key, sk in keys:
            self.demand(supply[sk], (self.local[target][key][0], slot))
