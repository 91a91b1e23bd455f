"""VHDL netlist emission and a lint pass over its own conventions.

The emitter produces three artifacts: a component library with one
specialized entity per (kind, width, arity, latency) combination that the
circuit actually uses, a structural top-level that instantiates every
component and wires the channels, and a manifest describing both.

Each kind's architecture is one entry of `_ARCH`; an Operator's drives its
`result` signal with the `vhdl` statement of its opcode's
`lattice.IMPL_BY_OPCODE` row.  Every data/valid/ready port triple, of an
entity, a top-level pin or a port map, comes from `_handshake`.  A circuit that `require_valid` rejects raises `BuildError`.

Text is built once per shape, in caches keyed by content and bounded, since
hand-made circuits and edited libraries bring shapes without end.  A valid
circuit's channel has the width of both its ports, so a component's
(kind, port widths, opcode, latency) fixes its entity text and instance
template (`_shape`), and a channel's width its signal declarations
(`_signals`).  The lint parses each distinct entity declaration once and
compiles its canonical port-map template once (`_declaration`).

Conventions (the lint checks the emitted text against exactly these):
* every entity takes clk and rst, and every instance connects them
* channel k becomes signals ch_<k>_valid / ch_<k>_ready, plus ch_<k>_data
  when the width is nonzero; width-0 control channels carry no data
* component i of kind K is instantiated as cmp_<i>_<k> with a full,
  named port map

Output is deterministic: identical circuits emit byte-identical files.
"""

from __future__ import annotations

import json
import re
import struct
from collections import Counter
from functools import lru_cache
from itertools import count
from operator import itemgetter

from .cdfg import (BRANCH, BUFFER, CDFG, CONST, ENTRY, EXIT, FORK, MERGE,
                   OPERATOR, SINK, Component, component_stats, require_valid)
from .errors import EmitError
from .lattice import IMPL_BY_OPCODE

_HEADER = """library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;
use ieee.float_pkg.all;
"""


def _slv(width: int) -> str:
    return f"std_logic_vector({width - 1} downto 0)"


def _data_width(c: Component) -> int:
    """An Operator's result width; for any other kind the width that
    `check` makes its data ports share."""
    return (c.out_widths or c.in_widths)[0]


def entity_name(c: Component) -> str:
    """`op_<opcode>_l<latency>` for an Operator, `<kind>_w<data width>`
    for any other kind, with `_n<ports>` on the fanned side of a Fork or
    Merge."""
    if c.kind not in _ARCH:
        raise EmitError(f"cannot name an entity for kind {c.kind!r}")
    if c.kind == OPERATOR:
        return f"op_{c.opcode}_l{c.latency}"
    name = f"{c.kind.lower()}_w{_data_width(c)}"
    if c.kind in (FORK, MERGE):
        name += f"_n{max(len(c.in_widths), len(c.out_widths))}"
    return name


def _handshake(prefix: str, width: int,
               inward: bool) -> tuple[tuple[str, str, int], ...]:
    """(name, direction, width) of the ports of one channel end:
    <prefix>_data when width > 0, <prefix>_valid and <prefix>_ready.  Data
    and valid flow in on an inward end; ready flows the other way."""
    fwd, back = ("in", "out") if inward else ("out", "in")
    valid, ready = (f"{prefix}_valid", fwd, 0), (f"{prefix}_ready", back, 0)
    return ((f"{prefix}_data", fwd, width), valid, ready) if width else (valid, ready)


def _entity(name: str, ends, generic: list[str], arch: str) -> list[str]:
    """An entity whose ports are clk, rst and the handshake of each
    (prefix, width, inward) end, then the first line of its architecture."""
    ports = [("clk", "in", 0), ("rst", "in", 0)]
    for end in ends:
        ports += _handshake(*end)
    return [f"entity {name} is", *generic, "  port (",
            ";\n".join(f"    {n} : {d} {_slv(w) if w else 'std_logic'}"
                       for n, d, w in ports),
            "  );", "end entity;", "", f"architecture {arch} of {name} is"]


# ---------------------------------------------------------------------------
# Architectures: `_ARCH` maps each kind to the body of its architecture,
# given the component and its data width.
# ---------------------------------------------------------------------------


def _arch_operator(c: Component, w: int) -> list[str]:
    n = len(c.in_widths)
    valids = " and ".join(f"in{i}_valid" for i in range(n))
    decls = [f"  signal result : {_slv(w)};"]
    body = [f"  {IMPL_BY_OPCODE[c.opcode].vhdl}"]
    if c.latency == 0:
        decls.append("  signal fire : std_logic;")
        body += [f"  fire <= {valids} and out0_ready;"]
        body += [f"  in{i}_ready <= fire;" for i in range(n)]
        body += [f"  out0_valid <= {valids};",
                 "  out0_data <= result;"]
        return decls + ["begin"] + body
    depth = c.latency
    decls += [
        f"  type pipe_t is array (0 to {depth - 1}) of {_slv(w)};",
        "  signal data_pipe : pipe_t;",
        f"  signal valid_pipe : std_logic_vector(0 to {depth - 1});",
        "  signal accept : std_logic;",
        "  signal advance : std_logic;",
    ]
    body += [
        f"  accept <= {valids} and advance;",
        f"  advance <= out0_ready or not valid_pipe({depth - 1});",
    ]
    body += [f"  in{i}_ready <= accept;" for i in range(n)]
    body += [
        f"  out0_valid <= valid_pipe({depth - 1});",
        f"  out0_data <= data_pipe({depth - 1});",
        "  process (clk)",
        "  begin",
        "    if rising_edge(clk) then",
        "      if rst = '1' then",
        "        valid_pipe <= (others => '0');",
        "      elsif advance = '1' then",
        "        data_pipe(0) <= result;",
        "        valid_pipe(0) <= accept;",
    ]
    for i in range(1, depth):
        body += [f"        data_pipe({i}) <= data_pipe({i - 1});",
                 f"        valid_pipe({i}) <= valid_pipe({i - 1});"]
    body += [
        "      end if;",
        "    end if;",
        "  end process;",
    ]
    return decls + ["begin"] + body


def _arch_pass(c: Component, w: int, data: str = "in0_data") -> list[str]:
    """Entry, Exit and Const hand their token on; a Const's data is its
    g_value generic."""
    lines = ["begin", "  out0_valid <= in0_valid;", "  in0_ready <= out0_ready;"]
    if w:
        lines.append(f"  out0_data <= {data};")
    return lines


def _arch_fork(c: Component, w: int) -> list[str]:
    n = len(c.out_widths)
    ready = " and ".join(f"out{i}_ready" for i in range(n))
    lines = ["  signal all_ready : std_logic;", "begin",
             f"  all_ready <= {ready};",
             "  in0_ready <= all_ready;"]
    for i in range(n):
        lines.append(f"  out{i}_valid <= in0_valid;")
        if w:
            lines.append(f"  out{i}_data <= in0_data;")
    return lines


def _arch_branch(c: Component, w: int) -> list[str]:
    lines = ["  signal taken : std_logic;", "begin",
             "  taken <= in0_valid and in1_valid;",
             "  out0_valid <= taken and in1_data(0);",
             "  out1_valid <= taken and not in1_data(0);",
             "  in0_ready <= taken and "
             "((in1_data(0) and out0_ready) or (not in1_data(0) and out1_ready));",
             "  in1_ready <= taken and "
             "((in1_data(0) and out0_ready) or (not in1_data(0) and out1_ready));"]
    if w:
        lines += ["  out0_data <= in0_data;", "  out1_data <= in0_data;"]
    return lines


def _arch_merge(c: Component, w: int) -> list[str]:
    n = len(c.in_widths)
    valids = " or ".join(f"in{i}_valid" for i in range(n))
    lines = ["begin", f"  out0_valid <= {valids};"]
    # inputs are mutually exclusive by construction, so per-input
    # ready needs no arbitration
    for i in range(n):
        lines.append(f"  in{i}_ready <= in{i}_valid and out0_ready;")
    if w:
        expr = f"in{n - 1}_data"
        for i in range(n - 2, -1, -1):
            expr = f"in{i}_data when in{i}_valid = '1' else " + expr
        lines.append(f"  out0_data <= {expr};")
    return lines


def _arch_buffer(c: Component, w: int) -> list[str]:
    lines = ["  signal full : std_logic;"]
    if w:
        lines.append(f"  signal data_reg : {_slv(w)};")
    lines += ["begin",
              "  in0_ready <= not full;",
              "  out0_valid <= full;"]
    if w:
        lines.append("  out0_data <= data_reg;")
    lines += [
        "  process (clk)",
        "  begin",
        "    if rising_edge(clk) then",
        "      if rst = '1' then",
        "        full <= '0';",
        "      elsif full = '0' and in0_valid = '1' then",
        "        full <= '1';"]
    if w:
        lines.append("        data_reg <= in0_data;")
    lines += [
        "      elsif full = '1' and out0_ready = '1' then",
        "        full <= '0';",
        "      end if;",
        "    end if;",
        "  end process;"]
    return lines


_ARCH = {ENTRY: _arch_pass, EXIT: _arch_pass,
         CONST: lambda c, w: _arch_pass(c, w, "g_value"),
         OPERATOR: _arch_operator, FORK: _arch_fork, BRANCH: _arch_branch,
         MERGE: _arch_merge, BUFFER: _arch_buffer,
         SINK: lambda c, w: ["begin", "  in0_ready <= '1';"]}


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


def _const_bits(c: Component) -> str:
    w = c.out_widths[0]
    v = c.value
    if w == 1:
        return '"1"' if v else '"0"'
    if isinstance(v, int):
        return f'x"{v & ((1 << 64) - 1):016x}"'
    if isinstance(v, float):
        return f'x"{struct.unpack(">Q", struct.pack(">d", v))[0]:016x}"'
    raise EmitError(f"cannot encode constant {v!r}")


@lru_cache(maxsize=256)
def _signals(width: int) -> tuple[str, ...]:
    """A channel's signal declarations, split where its id goes."""
    return tuple("\n".join(f"  signal {n} : {_slv(w) if w else 'std_logic'};"
                           for n, _, w in _handshake("ch_\0", width, True)).split("\0"))


@lru_cache(maxsize=1024)
def _shape(kind: str, in_widths: tuple[int, ...], out_widths: tuple[int, ...],
           opcode: str | None, latency: int) -> tuple[str, str, str, itemgetter]:
    """(entity name, entity text, instance template, field picker).  The
    picker takes the component id, the channel id at each port (inputs in
    order, then outputs last to first) and last an Entry's or Exit's pin or
    a Const's value bits, and gives the template's `%s` values in order."""
    c = Component(0, kind, in_widths, out_widths, opcode=opcode, latency=latency)
    name = entity_name(c)
    n = len(in_widths) + len(out_widths)
    # (port, width, inward, field): each port maps to the channel in that
    # field, but the boundary side of an Entry or Exit maps to its pin.
    ends = [(f"in{i}", w, True, i + 1) for i, w in enumerate(in_widths)]
    ends += [(f"out{i}", w, False, n - i) for i, w in enumerate(out_widths)]
    if kind == ENTRY:
        ends.insert(0, ("in0", out_widths[0], True, n + 1))
    elif kind == EXIT:
        ends.append(("out0", in_widths[0], False, n + 1))
    w = _data_width(c)
    generic = (["  generic (", f"    g_value : {_slv(w)}", "  );"]
               if kind == CONST else [])
    text = "\n".join(_entity(name, [e[:3] for e in ends], generic, "behav")
                     + _ARCH[kind](c, w) + ["end architecture;"])
    lines, order = [f"  cmp_%s_{kind.lower()} : entity work.{name}"], [0]
    if kind == CONST:
        lines += ["    generic map (", "      g_value => %s", "    )"]
        order.append(n + 1)
    maps = ["      clk => clk", "      rst => rst"]
    for port, width, inward, field in ends:
        net = "%s" if field > n else "ch_%s"
        for (formal, _, _), (actual, _, _) in zip(_handshake(port, width, inward),
                                                  _handshake(net, width, inward)):
            maps.append(f"      {formal} => {actual}")
            order.append(field)
    lines += ["    port map (", ",\n".join(maps), "    );"]
    return name, text, "\n".join(lines), itemgetter(*order)


def emit_vhdl(g: CDFG) -> dict[str, str]:
    """Returns {filename: content}; writing them is the caller's job.
    Raises `BuildError` for a circuit that `require_valid` rejects."""
    require_valid(g)
    top_name = f"{g.name}_top"
    # each component's fields for its picker, the pin or bits still to come
    fields = {c.id: [c.id] + [None] * (len(c.in_widths) + len(c.out_widths))
              for c in g.components}
    body = []
    for ch in g.channels:
        k = str(ch.id)
        body.append(k.join(_signals(ch.width)))
        fields[ch.src][~ch.src_port] = k
        fields[ch.dst][ch.dst_port + 1] = k
    body.append("begin")
    entities: dict[str, str] = {}
    pins = []  # the boundary end of each Entry and Exit
    args = map("arg{}".format, count())
    for c in g.components:
        name, text, template, pick = _shape(c.kind, c.in_widths, c.out_widths,
                                            c.opcode, c.latency)
        entities.setdefault(name, text)
        last = fields[c.id]
        if c.kind == CONST:
            last.append(_const_bits(c))
        elif c.kind in (ENTRY, EXIT):
            w = _data_width(c)
            last.append("result" if c.kind == EXIT else next(args) if w else "start")
            pins.append((last[-1], w, c.kind == ENTRY))
        body.append(template % pick(last))
    top = _entity(top_name, pins, [], "structural")
    lib = _HEADER + "\n" + "\n\n".join(
        entities[name] for name in sorted(entities)) + "\n"
    lib_file = "minihls_components.vhd"
    top_file = f"{top_name}.vhd"
    manifest = json.dumps({
        "top": top_name,
        "files": [lib_file, top_file],
        "entities": sorted(entities),
        "components": component_stats(g),
        "channels": len(g.channels),
    }, indent=2, sort_keys=True) + "\n"
    return {lib_file: lib,
            top_file: "\n".join([_HEADER, *top, *body, "end architecture;\n"]),
            "manifest.json": manifest}


# ---------------------------------------------------------------------------
# Lint
# ---------------------------------------------------------------------------


_ENTITY_RE = re.compile(
    r"entity (\w+) is\n(?:  generic \(\n.*?\n  \);\n)?  port \(\n(.*?)\n  \);\n"
    r"end entity;", re.DOTALL)
_PORT_RE = re.compile(r"^\s*(\w+) : (in|out) ")
# Scanned behind an added newline, a leading "\n" is `^` that the regex engine's
# literal scan finds; _LINES is a DOTALL `.*?` by whole lines.
_SIGNAL_RE = re.compile(r"\n  signal (\w+) : ")
_LINES = r"[^\n]*(?:\n[^\n]*)*?"
_INSTANCE_RE = re.compile(
    rf"\n  (\w+) : entity work\.(\w+)\n"
    rf"(?:    generic map \(\n{_LINES}\n    \)\n)?    port map \(\n({_LINES})\n    \);")
_MAP_RE = re.compile(r"^\s*(\w+) => (\w+),?$")
_CLOCKS = ("clk", "rst")


def _top_files(files: dict[str, str]) -> list[str]:
    return [t for n, t in sorted(files.items())
            if n.endswith(".vhd") and "architecture structural" in t]


def _picker(indices: list[int]) -> itemgetter:
    """An itemgetter that gives a tuple, also of one index or none."""
    return itemgetter(*indices) if len(indices) > 1 else itemgetter(
        slice(indices[0], indices[0] + 1) if indices else slice(0))


@lru_cache(maxsize=512)
def _declaration(ports_text: str) -> tuple:
    """An entity's port list parsed once: port -> direction (shared by
    every lint, so never changed), the lines that do not parse, and the
    template of a canonical port map (each port once in declared order,
    clk and rst mapped to themselves) with pickers of the groups, the
    other actuals, that the entity drives and reads.  It is only built if
    clk and rst are both ports."""
    ports, unparsable = {}, []
    for line in ports_text.split(";\n"):
        pm = _PORT_RE.match(line)
        if pm is None:
            unparsable.append(line.strip())
        else:
            ports[pm.group(1)] = pm.group(2)
    rest = [d for p, d in ports.items() if p not in _CLOCKS]
    maps = [f"      {p} => " + (p if p in _CLOCKS else r"(\w+)") for p in ports]
    return (ports, unparsable,
            set(_CLOCKS) <= ports.keys() and re.compile(",\n".join(maps)),
            _picker([i for i, d in enumerate(rest) if d == "out"]),
            _picker([i for i, d in enumerate(rest) if d == "in"]))


def lint_netlist(files: dict[str, str]) -> list[str]:
    """Check the emitted netlist against the emitter's own conventions."""
    bad: list[str] = []
    tops = _top_files(files)
    top = tops[0] if len(tops) == 1 else None
    top_ports = None
    entities: dict[str, tuple] = {}  # name -> `_declaration`
    for text in files.values():
        if not text.endswith("\n") or "\r" in text:
            bad.append("file must use bare LF endings and end with a newline")
        for name, ports_text in _ENTITY_RE.findall(text):
            ports, unparsable, *_ = entities[name] = _declaration(ports_text)
            bad += [f"entity {name}: unparsable port line {line!r}"
                    for line in unparsable]
            if text is top and top_ports is None:
                top_ports = ports
    if top is None:
        bad.append(f"expected exactly 1 structural top file, found {len(tops)}")
        return bad
    if top_ports is None:
        bad.append("top entity declaration not found")
        top_ports = {}

    nets = set(_SIGNAL_RE.findall("\n" + top)).union(top_ports)
    # a top-level input pin drives a net; an output pin reads one
    drivers = [p for p, d in top_ports.items() if d == "in"]
    readers = [p for p, d in top_ports.items() if d == "out"]
    # A canonical map's template takes clk and rst as they are, so it is
    # only right if they are nets of the top.
    clocked = nets.issuperset(_CLOCKS)
    for label, ename, maps_text in _INSTANCE_RE.findall("\n" + top):
        decl = entities.get(ename)
        if decl is None:
            bad.append(f"instance {label}: entity {ename} is not defined")
            continue
        ports, _, template, drives, reads = decl
        m = clocked and template and template.fullmatch(maps_text)
        if m and nets.issuperset(actuals := m.groups()):
            drivers += drives(actuals)
            readers += reads(actuals)
            continue
        seen = {}
        for line in maps_text.split("\n"):
            mm = _MAP_RE.match(line)
            if mm is None:
                bad.append(f"instance {label}: unparsable map line {line.strip()!r}")
                continue
            formal, actual = mm.group(1), mm.group(2)
            if formal not in ports:
                bad.append(f"instance {label}: {ename} has no port {formal}")
                continue
            seen[formal] = actual
            if actual not in nets:
                bad.append(f"instance {label}: actual {actual} is not a "
                           f"declared signal or top-level port")
                continue
            (drivers if ports[formal] == "out" else readers).append(actual)
        missing = set(ports) - set(seen)
        if missing:
            bad.append(f"instance {label}: unmapped ports "
                       + ", ".join(sorted(missing)))
        for pin in _CLOCKS:
            if seen.get(pin) != pin:
                bad.append(f"instance {label}: {pin} must be mapped to {pin}")

    # every net but clk and rst has exactly one driver and a reader
    checked = nets.difference(_CLOCKS)
    driven, read = Counter(drivers), set(readers)
    surplus = len(drivers) - driven["clk"] - driven["rst"] - len(checked)
    if surplus or not (driven.keys() >= checked and read >= checked):
        for net in sorted(checked):
            if driven[net] != 1:
                bad.append(f"net {net}: has {driven[net]} drivers, must be 1")
            if net not in read:
                bad.append(f"net {net}: is never read")
    return bad


def instance_count(files: dict[str, str]) -> int:
    return sum(1 for t in _top_files(files) for _ in _INSTANCE_RE.finditer("\n" + t))
