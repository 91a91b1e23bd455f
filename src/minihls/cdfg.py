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

Components and channels, whose ends are component ids and port indices, are
immutable `errors.record`s, so a circuit changes only when an element of
`components` or `channels` is appended, removed or replaced; `insert_buffers`
replaces each channel it cuts in its slot.  A Const payload compares by its
type and repr, so -0.0 and 0.0 differ, and a source position compares too,
as traps report it.  Comparing the lists with the copies `require_valid`
recorded when it last accepted the circuit tells whether it changed since;
`sim.SimPlan` is reused while it was built from the record held now.

Kinds (`KIND_ORDER`): Entry and Exit cross the circuit boundary, Const
turns a trigger token into its payload, an Operator computes its opcode
over `latency` stages, Fork copies, Branch steers by a Bool, Merge passes
its one valid input, a Buffer holds one token and a Sink drops tokens.
An opcode is valid when `lattice.IMPL_BY_OPCODE` has a row for it, and
an Operator's port widths must be those of the row's signature; the row
gives the simulator its function and the emitter its VHDL.
Each kind is one entry per table: `check` takes its port counts from
`_PORTS` and its width and field rules from `_RULES`, `sim._STRICT` or
`sim._FIRE` its firing rule (the strict rule's event and compute line, or
a template of its own) and `vhdl._ARCH` its VHDL architecture;
`vhdl.entity_name` gives its entity name.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import count, starmap
from operator import attrgetter, getitem

from .errors import BuildError, Pos, record
from .lattice import IMPL_BY_OPCODE, PY_TYPES

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


@record
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
        # Widths are tuples whatever the caller passed: per-shape caches key on them.
        if type(self.in_widths) is not tuple or type(self.out_widths) is not tuple:
            object.__setattr__(self, "in_widths", tuple(self.in_widths))
            object.__setattr__(self, "out_widths", tuple(self.out_widths))
        if self.value is not None:
            object.__setattr__(self, "value_key",
                               (type(self.value), repr(self.value)))


@record
class Channel:
    id: int
    src: int  # producing component id
    src_port: int  # its output index
    dst: int  # consuming component id
    dst_port: int  # its input index
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

    def add_component(self, kind: str, in_widths, out_widths, label="", opcode=None,
                      latency=0, value=None, pos=Pos(0, 0)) -> Component:
        c = Component(len(self.components), kind, in_widths, out_widths, label,
                      opcode, latency, value, pos)  # positional: keywords cost more
        self.components.append(c)
        return c

    def add_channel(self, src: tuple, dst: tuple, width: int) -> Channel:
        """Wire output `src` to input `dst`, each a (component id, index) pair."""
        ch = Channel(len(self.channels), *src, *dst, width)
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

# opcode -> its Operator's (input widths, output widths)
_WIDTHS = {op: (tuple(t.width for t in imp.operand_types), (imp.result_type.width,))
           for op, imp in IMPL_BY_OPCODE.items()}

# the (Python type, width) pairs of a Const payload: Bool on 1 bit, Int64
# and Float64 on 64
_PAYLOADS = {(py, ty.width) for ty, py in PY_TYPES.items()}

# kind -> (holds, message) width and field rules, run once the counts hold.
_RULES = {
    CONST: ((lambda c: c.in_widths[0] == 0, "trigger input must have width 0"),
            (lambda c: c.out_widths[0] != 0, "output must not have width 0"),
            (lambda c: c.value is not None, "missing payload value"),
            (lambda c: c.value is None or c.out_widths[0] == 0
             or (type(c.value), c.out_widths[0]) in _PAYLOADS,
             "payload must be a Bool on 1 bit or an Int64 or Float64 on 64 bits")),
    OPERATOR: ((lambda c: c.opcode is not None, "missing opcode"),
               (lambda c: c.opcode in IMPL_BY_OPCODE or c.opcode is None,
                "unknown opcode"),
               (lambda c: c.latency >= 0, "negative latency"),
               (lambda c: _WIDTHS.get(c.opcode, (c.in_widths, c.out_widths))
                == (c.in_widths, c.out_widths),
                "port widths must match the opcode's signature")),
    BRANCH: ((lambda c: c.in_widths[1] == 1, "condition input must have width 1"),
             (lambda c: c.out_widths == (c.in_widths[0],) * 2,
              "output widths must match the data input")),
    FORK: _ONE_WIDTH, MERGE: _ONE_WIDTH, BUFFER: _ONE_WIDTH,
}


_SHAPE = attrgetter("kind", "in_widths", "out_widths", "opcode", "latency")
# a payload of each Python type the kind rules tell apart; a payload of any
# other type stands in as its type, which is neither None nor a hardware type
_SAMPLES = {py: py() for py in (*PY_TYPES.values(), type(None))}


@lru_cache(maxsize=1024)
def _kind_violations(shape: tuple, payload: type) -> tuple[str, ...]:
    """The messages, each to follow `component <id>`, of the kind rules,
    which read a component's `_SHAPE` and the Python type of its payload."""
    kind, in_widths, out_widths, opcode, latency = shape
    if kind not in _PORTS:
        return (f": unknown kind {kind!r}",)
    counts = tuple(zip((len(in_widths), len(out_widths)), _PORTS[kind], ("input", "output")))
    if all(have == n if n >= 0 else have >= -n for have, n, _ in counts):
        c = Component(0, kind, in_widths, out_widths, opcode=opcode,
                      latency=latency, value=_SAMPLES.get(payload, payload))
        return tuple(f" ({kind}): {msg}" for holds, msg in _RULES.get(kind, ()) if not holds(c))
    return (f" ({kind}): must have " + " and ".join(
        f">={-n} {noun}s" if n < 0 else f"{n} {noun}{'' if n == 1 else 's'}"
        for _, n, noun in counts),)


def _ends(comps: list[Component], chans: list[Channel], end: str, ports: str):
    """The component ids and port indices at each channel's `end`, and the
    widths of those ports if they are each of the `ports` once, else None."""
    ids, indices = (list(map(attrgetter(f), chans)) for f in (end, end + "_port"))
    lists = list(map(attrgetter(ports), comps))
    if (len(indices) == sum(map(len, lists)) == len(set(zip(ids, indices)))
            and min(indices, default=0) >= 0):
        by_id = dict(zip(map(attrgetter("id"), comps), lists))
        with suppress(LookupError):  # a missing component or too high an index
            return ids, indices, list(map(getitem, map(by_id.__getitem__, ids), indices))
    return ids, indices, None


def check(g: CDFG) -> list[str]:
    """All structural violations; an empty list means the graph is well formed.

    Each rule is tested in bulk, and walks the elements to word its messages
    only if that fails: kind rules once per shape (cached), ports by `_ends`."""
    comps, chans = g.components, g.channels
    if len(set(map(attrgetter("id"), comps))) != len(comps):
        return ["duplicate component ids"]
    bad = ([] if len(set(map(attrgetter("id"), chans))) == len(chans)
           else ["duplicate channel ids"])
    shapes = list(zip(map(_SHAPE, comps), map(type, map(attrgetter("value"), comps))))
    if any(starmap(_kind_violations, set(shapes))):
        for c, shape in zip(comps, shapes):
            bad += [f"component {c.id}{tail}" for tail in _kind_violations(*shape)]

    src_ids, src_idx, out_at = _ends(comps, chans, "src", "out_widths")
    dst_ids, dst_idx, in_at = _ends(comps, chans, "dst", "in_widths")
    if not out_at == list(map(attrgetter("width"), chans)) == in_at:
        by_id = {c.id: c for c in comps}
        for ch in chans:
            for (cid, index), side in (((ch.src, ch.src_port), "source"),
                                       ((ch.dst, ch.dst_port), "dest")):
                c = by_id.get(cid)
                if c is None:
                    bad.append(f"channel {ch.id}: {side} component {cid} missing")
                    continue
                plist = c.out_widths if side == "source" else c.in_widths
                if not 0 <= index < len(plist):
                    bad.append(f"channel {ch.id}: {side} port {index} out of "
                               f"range for component {c.id} ({c.kind})")
                elif plist[index] != ch.width:
                    bad.append(f"channel {ch.id}: width {ch.width} does not match "
                               f"{side} port width {plist[index]} "
                               f"on component {c.id} ({c.kind})")
    if out_at is None or in_at is None:
        out_seen, in_seen = Counter(zip(src_ids, src_idx)), Counter(zip(dst_ids, dst_idx))
        for c in comps:
            bad += [f"component {c.id} ({c.kind}): output {i} drives {n} channels, "
                    "must be exactly 1" for i in range(len(c.out_widths))
                    if (n := out_seen[c.id, i]) != 1]
            bad += [f"component {c.id} ({c.kind}): input {i} is fed by {n} channels, "
                    "must be exactly 1" for i in range(len(c.in_widths))
                    if (n := in_seen[c.id, i]) != 1]

    adj: dict[int, list[int]] = {c.id: [] for c in comps if c.kind != BUFFER}
    for s, d in zip(src_ids, dst_ids):
        if s in adj and d in adj:
            adj[s].append(d)
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
    Buffer gets none.  New Buffers and channels take ids above all in use."""
    consumers: dict[int, list[int]] = {c.id: [] for c in g.components}
    into: dict[int, list[int]] = {c.id: [] for c in g.components}
    try:
        for k, ch in enumerate(g.channels):  # list positions, not channel ids
            consumers[ch.src].append(ch.dst)
            into[ch.dst].append(k)
    except KeyError:  # an end names a missing component
        raise BuildError("invalid circuit: " + "; ".join(check(g))) from None
    comp_ids, chan_ids = (count(max(map(attrgetter("id"), xs), default=-1) + 1)
                          for xs in (g.components, g.channels))
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
                if ch.src not in placed:
                    buf = Component(next(comp_ids), BUFFER, (ch.width,), (ch.width,),
                                    label="buf")
                    g.components.append(buf)
                    g.channels[k] = replace(ch, dst=buf.id, dst_port=0)
                    g.channels.append(Channel(next(chan_ids), buf.id, 0, ch.dst,
                                              ch.dst_port, ch.width))
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
    """Strict JSON: a non-finite Const payload is written as its repr."""
    doc = {
        "name": g.name,
        "return_width": g.return_width,
        "components": [
            {"id": c.id, "kind": c.kind, "in_widths": list(c.in_widths),
             "out_widths": list(c.out_widths), "label": c.label,
             "opcode": c.opcode, "latency": c.latency,
             "value": repr(c.value) if isinstance(c.value, float)
             and not math.isfinite(c.value) else c.value}
            for c in g.components],
        "channels": [
            {"id": ch.id, "src": [ch.src, ch.src_port],
             "dst": [ch.dst, ch.dst_port], "width": ch.width}
            for ch in g.channels],
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def from_json(text: str) -> CDFG:
    doc = json.loads(text)
    g = CDFG(doc["name"], return_width=doc["return_width"])
    for c in doc["components"]:
        g.components.append(Component(
            c["id"], c["kind"], c["in_widths"], c["out_widths"], c["label"], c["opcode"],
            c["latency"], float(c["value"]) if isinstance(c["value"], str) else c["value"]))
    for ch in doc["channels"]:
        g.channels.append(Channel(ch["id"], *ch["src"], *ch["dst"], ch["width"]))
    return g


def export_dot(g: CDFG) -> str:
    lines = [f"digraph {g.name} {{", "  rankdir=LR;"]
    for c in g.components:
        detail = c.opcode or c.label or c.kind.lower()
        lines.append(f'  c{c.id} [label="{c.id}:{c.kind}\\n{detail}"];')
    for ch in g.channels:
        lines.append(f'  c{ch.src} -> c{ch.dst} [label="{ch.width}"];')
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
