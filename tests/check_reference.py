"""An element-by-element structural check, the reference `cdfg.check` is
tested against.

It collects the channel ids in a set, applies each kind rule to each
component, walks the channels one by one checking both ends, counts each
port's use in a dict and walks every declared port, with the same
messages in the same order as `cdfg.check`.
It shares the rule tables and the cycle search with `cdfg`.
"""

from minihls.cdfg import BUFFER, CDFG, Component, _PORTS, _RULES, _first_cycle


def _count_holds(have: int, want: int) -> bool:
    return have == want if want >= 0 else have >= -want


def _count_text(want: int, noun: str) -> str:
    if want < 0:
        return f">={-want} {noun}s"
    return f"{want} {noun}" + ("" if want == 1 else "s")


def reference_kind_violations(c: Component) -> list[str]:
    if c.kind not in _PORTS:
        return [f"component {c.id}: unknown kind {c.kind!r}"]
    n_in, n_out = _PORTS[c.kind]
    if (_count_holds(len(c.in_widths), n_in)
            and _count_holds(len(c.out_widths), n_out)):
        return [f"component {c.id} ({c.kind}): {msg}"
                for holds, msg in _RULES.get(c.kind, ()) if not holds(c)]
    return [f"component {c.id} ({c.kind}): must have "
            f"{_count_text(n_in, 'input')} and {_count_text(n_out, 'output')}"]


def reference_check(g: CDFG) -> list[str]:
    bad: list[str] = []
    by_id = {c.id: c for c in g.components}
    if len(by_id) != len(g.components):
        return ["duplicate component ids"]
    if len({ch.id for ch in g.channels}) != len(g.channels):
        bad.append("duplicate channel ids")

    for c in g.components:
        bad.extend(reference_kind_violations(c))

    out_seen: dict[tuple[int, int], int] = {}
    in_seen: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {c.id: [] for c in g.components
                                 if c.kind != BUFFER}
    for ch in g.channels:
        src, dst = (ch.src, ch.src_port), (ch.dst, ch.dst_port)
        for (cid, index), side in ((src, "source"), (dst, "dest")):
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
        out_seen[src] = out_seen.get(src, 0) + 1
        in_seen[dst] = in_seen.get(dst, 0) + 1
        if ch.src in adj and ch.dst in adj:
            adj[ch.src].append(ch.dst)

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
