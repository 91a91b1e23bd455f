"""An element-by-element structural check, the reference `cdfg.check` is
tested against.

It applies each kind rule to each component, walks the channels one by
one checking both ends, counts each port's use in a dict and walks every
declared port, with the same messages in the same order as `cdfg.check`.
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

    for c in g.components:
        bad.extend(reference_kind_violations(c))

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
