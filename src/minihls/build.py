"""SSA to elastic circuit construction.

Every SSA value and every block's control token become token streams.  A
block with several predecessor edges receives each of its inputs through
a Merge with one slot per incoming edge; a conditional terminator steers
every outgoing value through a Branch driven by the condition.  Constants
are triggered by their block's control token, so they fire once per
activation rather than flooding the circuit.

The builder is demand driven: while walking the function it only records,
for every token source, which input ports consume it.  Materialization
happens at the end: zero consumers get a Sink, one gets a plain channel,
more get a Fork.  The walk order is fixed (blocks, then instructions,
then terminator payloads), so identical IR always yields an identical
circuit, component ids included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cdfg import (BRANCH, CDFG, CONST, ENTRY, EXIT, FORK, MERGE, OPERATOR,
                   SINK, Component, Port)
from .errors import BuildError
from .ir import (Block, CondGoto, ConstOp, Goto, Ret, SelectOp, SSAFunction,
                 postorder, predecessor_edges, successor_edges, terminator_uses,
                 verify)
from .lattice import DEFAULT_LATENCIES, SELECT_OPCODES

CONTROL = "ctrl"  # input-map key for the control token; value keys are ints


@dataclass
class _Net:
    """One token source and the input ports demanding it."""

    width: int
    src: Port | None = None
    dsts: list[Port] = field(default_factory=list)
    alias: "_Net | None" = None

    def resolve(self) -> "_Net":
        n = self
        while n.alias is not None:
            n = n.alias
        return n


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
        self.nets: list[_Net] = []
        self.preds = predecessor_edges(func)
        self.by_id = {b.id: b for b in func.blocks}
        # (pred id, edge index, target id) -> merge slot position at target
        self.edge_slot: dict[tuple[int, int, int], int] = {}
        for b in func.blocks:
            for j, (pid, ei) in enumerate(self.preds[b.id]):
                self.edge_slot[(pid, ei, b.id)] = j
        self.live_in = self._liveness()
        self.local: dict[int, dict] = {}
        self.merge_of: dict[tuple[int, object], Component] = {}

    # -- plumbing -----------------------------------------------------------

    def new_net(self, width: int, src: Port | None = None) -> _Net:
        n = _Net(width, src)
        self.nets.append(n)
        return n

    @staticmethod
    def demand(net: _Net, port: Port) -> None:
        net.resolve().dsts.append(port)

    @staticmethod
    def fuse(import_net: _Net, supply: _Net) -> None:
        i, s = import_net.resolve(), supply.resolve()
        if i is s:
            return
        if i.src is not None:
            raise BuildError("internal: input supplied twice")
        i.alias = s
        s.dsts.extend(i.dsts)
        i.dsts = []

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

        param_nets: dict[int, _Net] = {}
        for vid, ty in func.params:
            c = g.add_component(ENTRY, (), (ty.width,), label=f"v{vid}")
            param_nets[vid] = self.new_net(ty.width, Port(c.id, 0))
        ctrl_entry = g.add_component(ENTRY, (), (0,), label="ctrl")
        ctrl_net = self.new_net(0, Port(ctrl_entry.id, 0))

        rw = func.return_type.width
        exit_c = g.add_component(EXIT, (rw,), (), label="ret")

        # Per-block input nets: merges where several edges arrive, an
        # unsourced net (fused later) where only one does.
        for b in func.blocks:
            k = len(self.preds[b.id])
            srcs: dict = {}
            if b is func.entry:
                for key in self.layout(b):
                    srcs[key] = ctrl_net if key == CONTROL else param_nets[key]
            else:
                for key in self.layout(b):
                    w = self.width_of(key)
                    if k >= 2:
                        name = "ctrl" if key == CONTROL else f"v{key}"
                        mc = g.add_component(MERGE, (w,) * k, (w,),
                                             label=f"b{b.id}.{name}")
                        self.merge_of[(b.id, key)] = mc
                        srcs[key] = self.new_net(w, Port(mc.id, 0))
                    else:
                        srcs[key] = self.new_net(w)
            self.local[b.id] = srcs

        # After the block Merges: the buffer sweep cuts the lowest-id
        # stalled component, so it cuts loop headers, not the return Merge.
        ret_blocks = [b.id for b in func.blocks
                      if isinstance(b.terminator, Ret)]
        if len(ret_blocks) >= 2:
            ret_merge = g.add_component(
                MERGE, (rw,) * len(ret_blocks), (rw,), label="ret")
            g.add_channel(Port(ret_merge.id, 0), Port(exit_c.id, 0), rw)
            self.return_slot = {bid: Port(ret_merge.id, i)
                                for i, bid in enumerate(ret_blocks)}
        else:
            self.return_slot = {bid: Port(exit_c.id, 0) for bid in ret_blocks}

        for b in func.blocks:
            self._build_block(b)

        self._materialize()
        return g

    def _build_block(self, b: Block) -> None:
        g = self.g
        srcs = dict(self.local[b.id])
        for ins in b.instrs:
            w = ins.ty.width
            if isinstance(ins.op, ConstOp):
                c = g.add_component(CONST, (0,), (w,), label=f"v{ins.result}",
                                    value=ins.op.value, pos=ins.pos)
                self.demand(srcs[CONTROL], Port(c.id, 0))
            else:
                if isinstance(ins.op, SelectOp):
                    opcode = SELECT_OPCODES[ins.ty]
                    widths = (1, w, w)
                else:
                    opcode = ins.op.opcode
                    widths = tuple(t.width for t in ins.op.operand_types)
                c = g.add_component(OPERATOR, widths, (w,),
                                    label=f"v{ins.result}", opcode=opcode,
                                    latency=self.lat[opcode], pos=ins.pos)
                for i, arg in enumerate(ins.args):
                    self.demand(srcs[arg], Port(c.id, i))
            srcs[ins.result] = self.new_net(w, Port(c.id, 0))

        t = b.terminator
        if isinstance(t, Ret):
            self.demand(srcs[t.value], self.return_slot[b.id])
            # the control token has no demand here; it drains to a Sink
        elif isinstance(t, Goto):
            self._wire_edge(b, 0, t.target, t.args, srcs)
        elif isinstance(t, CondGoto):
            then_keys = self._edge_keys(t.then_target, t.then_args)
            else_keys = self._edge_keys(t.else_target, t.else_args)
            steered = list(dict.fromkeys(then_keys + else_keys))
            true_nets: dict = {}
            false_nets: dict = {}
            for key in steered:
                w = self.width_of(key)
                name = "ctrl" if key == CONTROL else f"v{key}"
                br = g.add_component(BRANCH, (w, 1), (w, w),
                                     label=f"b{b.id}.{name}")
                self.demand(srcs[key], Port(br.id, 0))
                self.demand(srcs[t.cond], Port(br.id, 1))
                true_nets[key] = self.new_net(w, Port(br.id, 0))
                false_nets[key] = self.new_net(w, Port(br.id, 1))
            self._wire_edge(b, 0, t.then_target, t.then_args, true_nets)
            self._wire_edge(b, 1, t.else_target, t.else_args, false_nets)

    def _edge_keys(self, target: int, args: tuple) -> list:
        """Values a CFG edge carries, in the target's input order."""
        return [CONTROL, *args, *sorted(self.live_in[target])]

    def _wire_edge(self, b: Block, edge_idx: int, target: int, args: tuple,
                   supply: dict) -> None:
        tblock = self.by_id[target]
        slot = self.edge_slot[(b.id, edge_idx, target)]
        many = len(self.preds[target]) >= 2
        for input_key, supply_key in zip(self.layout(tblock),
                                         self._edge_keys(target, args)):
            net = supply[supply_key]
            if many:
                self.demand(net, Port(self.merge_of[(target, input_key)].id, slot))
            else:
                self.fuse(self.local[target][input_key], net)

    def _materialize(self) -> None:
        g = self.g
        for net in self.nets:
            if net.alias is not None:
                continue
            if net.src is None:
                raise BuildError("internal: token source never supplied")
            if not net.dsts:
                sink = g.add_component(SINK, (net.width,), (), label="sink")
                g.add_channel(net.src, Port(sink.id, 0), net.width)
            elif len(net.dsts) == 1:
                g.add_channel(net.src, net.dsts[0], net.width)
            else:
                fork = g.add_component(FORK, (net.width,),
                                       (net.width,) * len(net.dsts),
                                       label="fork")
                g.add_channel(net.src, Port(fork.id, 0), net.width)
                for i, dst in enumerate(net.dsts):
                    g.add_channel(Port(fork.id, i), dst, net.width)
