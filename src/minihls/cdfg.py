"""Elastic circuit model.

A circuit is a set of components wired by point-to-point channels.  Each
channel carries tokens of a fixed width: 64 for Int64/Float64 data, 1 for
Bool, 0 for pure control (a token with no payload).  Every output port
drives exactly one channel and every input port is fed by exactly one;
fan-out is always an explicit Fork.  Cycles are legal only when broken by
a Buffer, which `check` enforces by requiring the buffer-free subgraph to
be acyclic.  `insert_buffers` breaks each cycle where it enters a loop
header: one Buffer per loop-carried value, on the header Merge's latch
input.

Components, channels and ports are immutable records, so a circuit
changes only when an element of `components` or `channels` is appended,
removed or replaced; `insert_buffers` replaces each channel it cuts in
its list slot.  A Const payload compares by its type and repr, so -0.0
and 0.0 differ, and a source position compares too, as traps report it.
Comparing the two lists with the copies that `require_valid` recorded
when it last accepted the circuit tells whether the circuit changed
since; `sim.SimPlan` is reused while it was built from the record held now.

Kinds (`KIND_ORDER`): Entry and Exit cross the circuit boundary, Const
turns a trigger token into its payload, an Operator computes its opcode
over `latency` stages, Fork copies, Branch steers by a Bool, Merge passes
its one valid input, a Buffer holds one token and a Sink drops tokens.
An opcode is valid when `lattice.IMPL_BY_OPCODE` has a row for it; the
row gives the simulator its function and the emitter its VHDL.
Each kind is one entry per table: `check` takes its port counts from
`_PORTS` and its width and field rules from `_RULES`, `sim._BIND` its
firing rule and `vhdl._ARCH` its VHDL architecture; `vhdl.entity_name`
gives its entity name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import BuildError, Pos
from .lattice import IMPL_BY_OPCODE

ENTRY = "Entry"
EXIT = "Exit"
CONST = "Const"
OPERATOR = "Operator"
FORK = "Fork"
BRANCH = "Branch"
MERGE = "Merge"
BUFFER = "Buffer"
SINK = "Sink"

KIND_ORDER = (ENTRY, EXIT, CONST, OPERATOR, FORK, BRANCH, MERGE, BUFFER, SINK)


@dataclass(frozen=True, slots=True)
class Port:
    comp: int
    index: int


@dataclass(frozen=True, slots=True)
class Component:
    id: int
    kind: str
    in_widths: tuple[int, ...]
    out_widths: tuple[int, ...]
    label: str = ""
    opcode: str | None = None  # Operator only
    latency: int = 0  # Operator pipeline depth
    value: object = field(compare=False, default=None)  # Const payload
    pos: Pos = Pos(0, 0)  # Const, Operator: where a trap is reported
    # Compared in the payload's place: -0.0 == 0.0 and 1 == 1.0 == True,
    # but a type and a repr tell those payloads apart.
    value_key: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.value is not None:
            object.__setattr__(self, "value_key",
                               (type(self.value), repr(self.value)))


@dataclass(frozen=True, slots=True)
class Channel:
    id: int
    src: Port
    dst: Port
    width: int


@dataclass
class CDFG:
    name: str
    components: list[Component] = field(default_factory=list)
    channels: list[Channel] = field(default_factory=list)
    return_width: int = 64
    # copies of the lists `require_valid` last found valid
    checked: tuple[list, list] | None = field(
        default=None, init=False, repr=False, compare=False)
    # the last `sim.SimPlan` built, reused while the circuit is unchanged
    sim_plan: object = field(default=None, init=False, repr=False, compare=False)

    def add_component(self, kind: str, in_widths, out_widths, **kw) -> Component:
        c = Component(len(self.components), kind,
                      tuple(in_widths), tuple(out_widths), **kw)
        self.components.append(c)
        return c

    def add_channel(self, src: Port, dst: Port, width: int) -> Channel:
        ch = Channel(len(self.channels), src, dst, width)
        self.channels.append(ch)
        return ch


def component_stats(g: CDFG) -> dict[str, int]:
    """Per-kind counts plus the total, in a fixed order."""
    stats = {kind: 0 for kind in KIND_ORDER}
    for c in g.components:
        stats[c.kind] += 1
    stats["total"] = len(g.components)
    return stats


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


# kind -> (inputs, outputs); a negative count means "at least -n".
_PORTS = {ENTRY: (0, 1), EXIT: (1, 0), SINK: (1, 0), CONST: (1, 1),
          OPERATOR: (-1, 1), FORK: (1, -2), BRANCH: (2, 2), MERGE: (-2, 1),
          BUFFER: (1, 1)}

_ONE_WIDTH = ((lambda c: len(set(c.in_widths + c.out_widths)) == 1,
               "all ports must share one width"),)

# kind -> (holds, message) width and field rules, run once the counts hold.
_RULES = {
    CONST: ((lambda c: c.in_widths[0] == 0, "trigger input must have width 0"),
            (lambda c: c.out_widths[0] != 0, "output must not have width 0"),
            (lambda c: c.value is not None, "missing payload value")),
    OPERATOR: ((lambda c: c.opcode is not None, "missing opcode"),
               (lambda c: c.opcode in IMPL_BY_OPCODE or c.opcode is None,
                "unknown opcode"),
               (lambda c: c.latency >= 0, "negative latency")),
    BRANCH: ((lambda c: c.in_widths[1] == 1, "condition input must have width 1"),
             (lambda c: c.out_widths == (c.in_widths[0],) * 2,
              "output widths must match the data input")),
    FORK: _ONE_WIDTH, MERGE: _ONE_WIDTH, BUFFER: _ONE_WIDTH,
}


def _count_holds(have: int, want: int) -> bool:
    return have == want if want >= 0 else have >= -want


def _count_text(want: int, noun: str) -> str:
    if want < 0:
        return f">={-want} {noun}s"
    return f"{want} {noun}" + ("" if want == 1 else "s")


def _kind_violations(c: Component) -> list[str]:
    if c.kind not in _PORTS:
        return [f"component {c.id}: unknown kind {c.kind!r}"]
    n_in, n_out = _PORTS[c.kind]
    if (_count_holds(len(c.in_widths), n_in)
            and _count_holds(len(c.out_widths), n_out)):
        return [f"component {c.id} ({c.kind}): {msg}"
                for holds, msg in _RULES.get(c.kind, ()) if not holds(c)]
    return [f"component {c.id} ({c.kind}): must have "
            f"{_count_text(n_in, 'input')} and {_count_text(n_out, 'output')}"]


def check(g: CDFG) -> list[str]:
    """All structural violations; an empty list means the graph is well formed."""
    bad: list[str] = []
    by_id = {c.id: c for c in g.components}
    if len(by_id) != len(g.components):
        return ["duplicate component ids"]

    for c in g.components:
        bad.extend(_kind_violations(c))

    # One pass over the channels: port checks, port use counts keyed by
    # (component, index), and the buffer-free adjacency for the cycle check.
    out_seen: dict[tuple[int, int], int] = {}
    in_seen: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {c.id: [] for c in g.components
                                 if c.kind != BUFFER}
    for ch in g.channels:
        src, dst = ch.src, ch.dst
        for port, side, c in ((src, "source", by_id.get(src.comp)),
                              (dst, "dest", by_id.get(dst.comp))):
            if c is None:
                bad.append(f"channel {ch.id}: {side} component {port.comp} missing")
                continue
            plist = c.out_widths if port is src else c.in_widths
            if not 0 <= port.index < len(plist):
                bad.append(f"channel {ch.id}: {side} port {port.index} out of "
                           f"range for component {c.id} ({c.kind})")
            elif plist[port.index] != ch.width:
                bad.append(f"channel {ch.id}: width {ch.width} does not match "
                           f"{side} port width {plist[port.index]} "
                           f"on component {c.id} ({c.kind})")
        out_seen[src.comp, src.index] = out_seen.get((src.comp, src.index), 0) + 1
        in_seen[dst.comp, dst.index] = in_seen.get((dst.comp, dst.index), 0) + 1
        if src.comp in adj and dst.comp in adj:
            adj[src.comp].append(dst.comp)

    for c in g.components:
        for i in range(len(c.out_widths)):
            n = out_seen.get((c.id, i), 0)
            if n != 1:
                bad.append(f"component {c.id} ({c.kind}): output {i} drives "
                           f"{n} channels, must be exactly 1")
        for i in range(len(c.in_widths)):
            n = in_seen.get((c.id, i), 0)
            if n != 1:
                bad.append(f"component {c.id} ({c.kind}): input {i} is fed by "
                           f"{n} channels, must be exactly 1")

    cycle = _first_cycle(adj)
    if cycle is not None:
        bad.append("cycle without a Buffer through components "
                   + " -> ".join(map(str, cycle)))
    return bad


def _first_cycle(adj: dict[int, list[int]]) -> list[int] | None:
    """The first cycle that an iterative depth-first search over `adj`
    (component id -> consumer ids), rooted at each unvisited id in
    ascending order, closes: its component ids with the first repeated
    at the end.  None when `adj` is acyclic."""
    seen: set[int] = set()
    for root in sorted(adj):
        if root in seen:
            continue
        seen.add(root)
        path, on_path, stack = [root], {root}, [iter(adj[root])]
        while stack:
            nxt = next(stack[-1], None)
            if nxt is None:
                on_path.discard(path.pop())
                stack.pop()
            elif nxt in on_path:
                return path[path.index(nxt):] + [nxt]
            elif nxt not in seen:
                seen.add(nxt)
                on_path.add(nxt)
                path.append(nxt)
                stack.append(iter(adj[nxt]))
    return None


def insert_buffers(g: CDFG) -> int:
    """Splice a Buffer onto channels until every cycle holds one, and
    return the number inserted.

    A topological sweep places every component whose producers are all
    placed; Buffers count as placed from the start.  When it stalls, it
    takes the lowest-id unplaced component with a placed producer, or
    else the lowest-id unplaced one, splices a Buffer onto each of its
    inputs whose producer is unplaced, and places it.  `build` creates
    every Merge before the components of block bodies, so the cuts fall
    on Merge inputs: in a loop, on its header Merges' latch inputs, one
    Buffer per loop-carried value.  A circuit whose cycles all hold a
    Buffer gets none."""
    consumers: dict[int, list[int]] = {c.id: [] for c in g.components}
    into: dict[int, list[int]] = {c.id: [] for c in g.components}
    for k, ch in enumerate(g.channels):  # list positions, not channel ids
        consumers[ch.src.comp].append(ch.dst.comp)
        into[ch.dst.comp].append(k)
    waiting = {cid: len(ks) for cid, ks in into.items()}
    ready = [c.id for c in g.components if c.kind == BUFFER or not into[c.id]]
    placed: set[int] = set()
    fed: set[int] = set()  # unplaced ids with a placed producer
    n_buffers = 0
    while len(placed) < len(into):
        if not ready:
            cut = min(fed or into.keys() - placed)
            for k in into[cut]:
                ch = g.channels[k]
                if ch.src.comp not in placed:
                    buf = g.add_component(BUFFER, (ch.width,), (ch.width,),
                                          label="buf")
                    g.channels[k] = Channel(ch.id, ch.src, Port(buf.id, 0),
                                            ch.width)
                    g.add_channel(Port(buf.id, 0), ch.dst, ch.width)
                    n_buffers += 1
            ready.append(cut)
        cid = ready.pop()
        if cid in placed:
            continue
        placed.add(cid)
        fed.discard(cid)
        for d in consumers[cid]:
            waiting[d] -= 1
            if waiting[d] == 0:
                ready.append(d)
            elif d not in placed:
                fed.add(d)
    return n_buffers


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def to_json(g: CDFG) -> str:
    doc = {
        "name": g.name,
        "return_width": g.return_width,
        "components": [
            {"id": c.id, "kind": c.kind, "in_widths": list(c.in_widths),
             "out_widths": list(c.out_widths), "label": c.label,
             "opcode": c.opcode, "latency": c.latency, "value": c.value}
            for c in g.components],
        "channels": [
            {"id": ch.id, "src": [ch.src.comp, ch.src.index],
             "dst": [ch.dst.comp, ch.dst.index], "width": ch.width}
            for ch in g.channels],
    }
    return json.dumps(doc, indent=2) + "\n"


def from_json(text: str) -> CDFG:
    doc = json.loads(text)
    g = CDFG(doc["name"], return_width=doc["return_width"])
    for c in doc["components"]:
        g.components.append(Component(
            c["id"], c["kind"], tuple(c["in_widths"]), tuple(c["out_widths"]),
            c["label"], c["opcode"], c["latency"], c["value"]))
    for ch in doc["channels"]:
        g.channels.append(Channel(ch["id"], Port(*ch["src"]), Port(*ch["dst"]),
                                  ch["width"]))
    return g


def export_dot(g: CDFG) -> str:
    lines = [f"digraph {g.name} {{", "  rankdir=LR;"]
    for c in g.components:
        detail = c.opcode or c.label or c.kind.lower()
        lines.append(f'  c{c.id} [label="{c.id}:{c.kind}\\n{detail}"];')
    for ch in g.channels:
        lines.append(f"  c{ch.src.comp} -> c{ch.dst.comp} "
                     f'[label="{ch.width}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def require_valid(g: CDFG) -> None:
    """Raise `BuildError` listing every violation of `check`.  A circuit
    whose lists equal the ones last found valid is not checked again, and
    its record `g.checked` stays the same object."""
    if g.checked == (g.components, g.channels):
        return
    bad = check(g)
    if bad:
        raise BuildError("invalid circuit: " + "; ".join(bad))
    g.checked = (list(g.components), list(g.channels))
