"""Elastic circuit model.

A circuit is a set of components wired by point-to-point channels.  Each
channel carries tokens of a fixed width: 64 for Int64/Float64 data, 1 for
Bool, 0 for pure control (a token with no payload).  Every output port
drives exactly one channel and every input port is fed by exactly one;
fan-out is always an explicit Fork.  Cycles are legal only when broken by
a Buffer, which `check` enforces by requiring the buffer-free subgraph to
be acyclic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import BuildError

ENTRY = "Entry"
EXIT = "Exit"
CONST = "Const"
OPERATOR = "Operator"
FORK = "Fork"
BRANCH = "Branch"
MERGE = "Merge"
MUX = "Mux"
BUFFER = "Buffer"
SOURCE = "Source"
SINK = "Sink"

KIND_ORDER = (ENTRY, EXIT, CONST, OPERATOR, FORK, BRANCH, MERGE, MUX,
              BUFFER, SOURCE, SINK)


@dataclass(frozen=True)
class Port:
    comp: int
    index: int


@dataclass
class Component:
    id: int
    kind: str
    in_widths: tuple[int, ...]
    out_widths: tuple[int, ...]
    label: str = ""
    opcode: str | None = None  # Operator only
    latency: int = 0  # Operator pipeline depth
    value: object = None  # Const payload


@dataclass
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


def _arity_violations(c: Component) -> list[str]:
    n_in, n_out = len(c.in_widths), len(c.out_widths)
    bad = []

    def want(cond: bool, msg: str) -> None:
        if not cond:
            bad.append(f"component {c.id} ({c.kind}): {msg}")

    if c.kind == ENTRY or c.kind == SOURCE:
        want(n_in == 0 and n_out == 1, "must have 0 inputs and 1 output")
    elif c.kind == EXIT or c.kind == SINK:
        want(n_in == 1 and n_out == 0, "must have 1 input and 0 outputs")
    elif c.kind == CONST:
        want(n_in == 1 and n_out == 1, "must have 1 input and 1 output")
        want(n_in == 1 and c.in_widths[0] == 0, "trigger input must have width 0")
        want(c.value is not None, "missing payload value")
    elif c.kind == OPERATOR:
        want(n_out == 1 and n_in >= 1, "must have >=1 inputs and 1 output")
        want(c.opcode is not None, "missing opcode")
        want(c.latency >= 0, "negative latency")
    elif c.kind == FORK:
        want(n_in == 1 and n_out >= 2, "must have 1 input and >=2 outputs")
        want(all(w == c.in_widths[0] for w in c.out_widths),
             "output widths must match the input")
    elif c.kind == BRANCH:
        want(n_in == 2 and n_out == 2, "must have 2 inputs and 2 outputs")
        if n_in == 2 and n_out == 2:
            want(c.in_widths[1] == 1, "condition input must have width 1")
            want(c.out_widths == (c.in_widths[0],) * 2,
                 "output widths must match the data input")
    elif c.kind == MERGE:
        want(n_in >= 2 and n_out == 1, "must have >=2 inputs and 1 output")
        want(len(set(c.in_widths) | set(c.out_widths)) == 1,
             "all ports must share one width")
    elif c.kind == MUX:
        want(n_in >= 3 and n_out == 1, "must have select + >=2 inputs and 1 output")
        if n_in >= 3:
            want(c.in_widths[0] == 1, "select input must have width 1")
            want(all(w == c.out_widths[0] for w in c.in_widths[1:]),
                 "data widths must match the output")
    elif c.kind == BUFFER:
        want(n_in == 1 and n_out == 1 and c.in_widths == c.out_widths,
             "must have one input and one output of equal width")
    else:
        bad.append(f"component {c.id}: unknown kind {c.kind!r}")
    return bad


def check(g: CDFG) -> list[str]:
    """All structural violations; an empty list means the graph is well formed."""
    bad: list[str] = []
    by_id = {c.id: c for c in g.components}
    if len(by_id) != len(g.components):
        return ["duplicate component ids"]

    for c in g.components:
        bad.extend(_arity_violations(c))

    # One pass over the channels: port checks, port use counts keyed by
    # (component, index), and the buffer-free adjacency for the cycle check.
    out_seen: dict[tuple[int, int], int] = {}
    in_seen: dict[tuple[int, int], int] = {}
    adj = _buffer_free_nodes(g)
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

    cyc = _find_cycle(adj)
    if cyc is not None:
        bad.append("cycle without a Buffer through components "
                   + " -> ".join(str(c) for c in cyc))
    return bad


def _buffer_free_nodes(g: CDFG) -> dict[int, list[int]]:
    """An empty successor list for every component that is not a Buffer."""
    return {c.id: [] for c in g.components if c.kind != BUFFER}


def buffer_free_cycle(g: CDFG) -> list[int] | None:
    """A component cycle containing no Buffer, or None."""
    adj = _buffer_free_nodes(g)
    for ch in g.channels:
        if ch.src.comp in adj and ch.dst.comp in adj:
            adj[ch.src.comp].append(ch.dst.comp)
    return _find_cycle(adj)


def _find_cycle(adj: dict[int, list[int]]) -> list[int] | None:
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {cid: WHITE for cid in adj}
    for root in sorted(adj):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(adj[root]))]
        path = [root]
        color[root] = GRAY
        while stack:
            cid, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[cid] = BLACK
                stack.pop()
                path.pop()
                continue
            if color[nxt] == GRAY:
                return path[path.index(nxt):] + [nxt]
            if color[nxt] == WHITE:
                color[nxt] = GRAY
                stack.append((nxt, iter(adj[nxt])))
                path.append(nxt)
    return None


def insert_buffers(g: CDFG) -> int:
    """Splice a Buffer on every back-edge channel found by depth-first
    search from the entry components.  Returns the number inserted."""
    adj: dict[int, list[Channel]] = {c.id: [] for c in g.components}
    for ch in g.channels:
        adj[ch.src.comp].append(ch)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {c.id: WHITE for c in g.components}
    back: list[Channel] = []
    roots = [c.id for c in g.components if c.kind in (ENTRY, SOURCE)]
    roots += [cid for cid in sorted(color) if cid not in roots]
    for root in roots:
        if color[root] != WHITE:
            continue
        color[root] = GRAY
        stack = [(root, iter(adj[root]))]
        while stack:
            cid, it = stack[-1]
            ch = next(it, None)
            if ch is None:
                color[cid] = BLACK
                stack.pop()
                continue
            nxt = ch.dst.comp
            if color[nxt] == GRAY:
                back.append(ch)
            elif color[nxt] == WHITE:
                color[nxt] = GRAY
                stack.append((nxt, iter(adj[nxt])))
    for ch in back:
        buf = g.add_component(BUFFER, (ch.width,), (ch.width,), label="buf")
        old_dst = ch.dst
        ch.dst = Port(buf.id, 0)
        g.add_channel(Port(buf.id, 0), old_dst, ch.width)
    return len(back)


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
    bad = check(g)
    if bad:
        raise BuildError("invalid circuit: " + "; ".join(bad))
