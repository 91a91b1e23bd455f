"""The net-record circuit builder, the reference `build.build_cdfg` is
tested against.

It keeps a `_Net` record per token source.  A block with one predecessor
edge gets placeholder nets, which the edge joins to the supplying nets
through alias chains (`resolve`, `fuse`); two side tables give each edge's
Merge slot and each block input's Merge, and a final pass gives every
net its Sink, channel or Fork.  It builds blocks strictly in block
order.  It shares the control key and `resolve_latencies` with `build`.
"""

from dataclasses import dataclass, field

from minihls.build import CONTROL, resolve_latencies
from minihls.cdfg import (BRANCH, CDFG, CONST, ENTRY, EXIT, FORK, MERGE,
                          OPERATOR, SINK, Component)
from minihls.errors import BuildError
from minihls.ir import (Block, CondGoto, ConstOp, Goto, Ret, SelectOp,
                        SSAFunction, postorder, predecessor_edges,
                        successor_edges, terminator_uses)
from minihls.lattice import SELECT_OPCODES


def reference_build(func: SSAFunction, latencies=None) -> CDFG:
    """The unbuffered circuit of verified IR `func`."""
    return _Builder(func, resolve_latencies(latencies)).run()


@dataclass
class _Net:
    """One token source and the (component id, index) inputs demanding it."""

    width: int
    src: tuple[int, int] | None = None
    dsts: list[tuple[int, int]] = field(default_factory=list)
    alias: "_Net | None" = None

    def resolve(self) -> "_Net":
        n = self
        while n.alias is not None:
            n = n.alias
        return n


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

    def new_net(self, width: int, src: tuple[int, int] | None = None) -> _Net:
        n = _Net(width, src)
        self.nets.append(n)
        return n

    @staticmethod
    def demand(net: _Net, port: tuple[int, int]) -> None:
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
            param_nets[vid] = self.new_net(ty.width, (c.id, 0))
        ctrl_entry = g.add_component(ENTRY, (), (0,), label="ctrl")
        ctrl_net = self.new_net(0, (ctrl_entry.id, 0))

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
                        srcs[key] = self.new_net(w, (mc.id, 0))
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
            g.add_channel((ret_merge.id, 0), (exit_c.id, 0), rw)
            self.return_slot = {bid: (ret_merge.id, i)
                                for i, bid in enumerate(ret_blocks)}
        else:
            self.return_slot = {bid: (exit_c.id, 0) for bid in ret_blocks}

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
                self.demand(srcs[CONTROL], (c.id, 0))
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
                    self.demand(srcs[arg], (c.id, i))
            srcs[ins.result] = self.new_net(w, (c.id, 0))

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
                self.demand(srcs[key], (br.id, 0))
                self.demand(srcs[t.cond], (br.id, 1))
                true_nets[key] = self.new_net(w, (br.id, 0))
                false_nets[key] = self.new_net(w, (br.id, 1))
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
                self.demand(net, (self.merge_of[(target, input_key)].id, slot))
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
                g.add_channel(net.src, (sink.id, 0), net.width)
            elif len(net.dsts) == 1:
                g.add_channel(net.src, net.dsts[0], net.width)
            else:
                fork = g.add_component(FORK, (net.width,),
                                       (net.width,) * len(net.dsts),
                                       label="fork")
                g.add_channel(net.src, (fork.id, 0), net.width)
                for i, dst in enumerate(net.dsts):
                    g.add_channel((fork.id, i), dst, net.width)
