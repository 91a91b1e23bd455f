"""Netlist emission: determinism, goldens, lint, instance accounting."""

import hashlib
import random
import re
from pathlib import Path

import pytest
from test_passes import narrow_ladder, wide_ladder

from minihls import corpus
from minihls.cdfg import component_stats
from minihls.errors import BuildError
from minihls.pipeline import compile_source
from minihls.vhdl import emit_vhdl, entity_name, instance_count, lint_netlist

GOLDEN = Path(__file__).parent / "golden"


def emitted(compiled, name):
    return emit_vhdl(compiled(name).cdfg)


def test_emission_is_deterministic(program, compiled):
    a = emit_vhdl(compiled(program).cdfg)
    b = emit_vhdl(compiled(program).cdfg)
    assert a == b


def test_emission_matches_goldens(program, compiled):
    files = emitted(compiled, program)
    for fname, text in files.items():
        golden = (GOLDEN / program / fname).read_text()
        assert text == golden, f"{program}/{fname} drifted from golden"


def test_ssa_matches_goldens(program, compiled):
    from minihls.ir import print_function
    res = compiled(program)
    assert print_function(res.ssa_unopt) == \
        (GOLDEN / f"{program}.unopt.ssa").read_text()
    assert print_function(res.ssa) == \
        (GOLDEN / f"{program}.opt.ssa").read_text()


def test_lint_clean_on_corpus(program, compiled):
    assert lint_netlist(emitted(compiled, program)) == []


def test_instance_count_equals_component_total(program, compiled):
    files = emitted(compiled, program)
    total = component_stats(compiled(program).cdfg)["total"]
    assert instance_count(files) == total


def test_manifest_lists_every_file_and_entity(program, compiled):
    import json
    files = emitted(compiled, program)
    manifest = json.loads(files["manifest.json"])
    assert manifest["top"] == f"{program}_top"
    assert set(manifest["files"]) == {"minihls_components.vhd",
                                      f"{program}_top.vhd"}
    lib = files["minihls_components.vhd"]
    for ename in manifest["entities"]:
        assert f"entity {ename} is" in lib
    assert manifest["components"] == component_stats(compiled(program).cdfg)


def test_every_instance_uses_a_defined_entity(program, compiled):
    files = emitted(compiled, program)
    g = compiled(program).cdfg
    lib = files["minihls_components.vhd"]
    top = files[f"{program}_top.vhd"]
    for c in g.components:
        ename = entity_name(c)
        assert f"entity {ename} is" in lib
        assert f"cmp_{c.id}_{c.kind.lower()} : entity work.{ename}" in top


def test_const_payload_encodings(compiled):
    top = emitted(compiled, "newton_raphson")[f"newton_raphson_top.vhd"]
    # 2.0 as IEEE-754 bits
    assert 'x"4000000000000000"' in top
    int_top = emitted(compiled, "power")["power_top.vhd"]
    assert 'x"0000000000000001"' in int_top  # acc = 1 / n - 1


def test_bool_consts_are_one_bit_literals():
    g = compile_source("function f(a::Int64)\n  b = true\n  if a > 0\n"
                       "    b = false\n  end\n  return b\nend\n").cdfg
    files = emit_vhdl(g)
    values = re.findall(r"g_value => (\S+)", files["f_top.vhd"])
    assert sorted(values) == ['"0"', '"1"', 'x"0000000000000000"']
    assert lint_netlist(files) == []


def test_negative_int_const_is_twos_complement():
    # source-level -1 lowers as const 1 + neg, so build the graph by hand
    from minihls import cdfg as C
    from minihls.cdfg import CDFG, Port
    g = CDFG("negc")
    ctrl = g.add_component(C.ENTRY, (), (0,), label="ctrl")
    konst = g.add_component(C.CONST, (0,), (64,), value=-1)
    exit_ = g.add_component(C.EXIT, (64,), ())
    g.add_channel(Port(ctrl.id, 0), Port(konst.id, 0), 0)
    g.add_channel(Port(konst.id, 0), Port(exit_.id, 0), 64)
    files = emit_vhdl(g)
    assert 'x"ffffffffffffffff"' in files["negc_top.vhd"]
    assert lint_netlist(files) == []


def test_emit_rejects_an_invalid_circuit():
    from minihls import cdfg as C
    from minihls.cdfg import CDFG
    g = CDFG("loose")  # an Entry and an Exit with no channel between them
    g.add_component(C.ENTRY, (), (64,))
    g.add_component(C.EXIT, (64,), ())
    with pytest.raises(BuildError, match="invalid circuit"):
        emit_vhdl(g)


def test_emit_rejects_a_const_without_data():
    from minihls import cdfg as C
    g = C.CDFG("widthless")
    g.add_component(C.ENTRY, (), (0,))
    g.add_component(C.CONST, (0,), (0,), value=5)
    g.add_component(C.EXIT, (0,), ())
    g.add_channel(C.Port(0, 0), C.Port(1, 0), 0)
    g.add_channel(C.Port(1, 0), C.Port(2, 0), 0)
    problem = "component 1 (Const): output must not have width 0"
    assert C.check(g) == [problem]
    with pytest.raises(BuildError, match=re.escape(problem)):
        emit_vhdl(g)


def test_emit_does_not_check_a_compiled_circuit_again(monkeypatch):
    from minihls import cdfg as C
    g = compile_source(corpus.load("power"), corpus.SIGNATURES["power"]).cdfg
    monkeypatch.setattr(C, "check", lambda g: pytest.fail("checked again"))
    assert lint_netlist(emit_vhdl(g)) == []


# -- lint negatives ----------------------------------------------------------


def corrupt(files, prog, old, new, count=1):
    bad = dict(files)
    key = f"{prog}_top.vhd"
    assert old in bad[key]
    bad[key] = bad[key].replace(old, new, count)
    return bad


def test_lint_catches_undeclared_actual(program, compiled):
    files = emitted(compiled, program)
    bad = corrupt(files, program, "in0_valid => ch_", "in0_valid => zz_ch_")
    problems = lint_netlist(bad)
    assert problems
    assert any("zz_ch_" in p for p in problems)


def test_lint_catches_unknown_entity(program, compiled):
    files = emitted(compiled, program)
    bad = corrupt(files, program, "entity work.exit_w64", "entity work.exit_w65")
    problems = lint_netlist(bad)
    assert any("exit_w65" in p for p in problems)


def test_lint_catches_unmapped_clock(program, compiled):
    files = emitted(compiled, program)
    bad = corrupt(files, program, "clk => clk,\n      rst => rst,",
                  "rst => rst,")
    problems = lint_netlist(bad)
    assert any("clk" in p for p in problems)


def test_lint_catches_dangling_net(program, compiled):
    # retarget one reader so its original net loses its only reader
    files = emitted(compiled, program)
    bad = corrupt(files, program, "in0_ready => ch_0_ready",
                  "in0_ready => open_net")
    assert lint_netlist(bad)


def test_lint_accepts_the_goldens(program):
    files = {}
    for p in (GOLDEN / program).iterdir():
        files[p.name] = p.read_text()
    assert lint_netlist(files) == []


# Recorded after `insert_buffers` began cutting cycles at their loop
# headers: the corpus goldens hold at most 33 components, these ladders
# 197 and 275.
LADDER_SHA256 = {
    "narrow": (narrow_ladder(12), {
        "ladder_top.vhd": "69c3c01e194aa5cfd160c3a73f3f7f2d1a703bec010fcedf233c7ebe458eac89",
        "manifest.json": "6b40a6de11238092caf897997173653fc68755d49da4f58cf0cb4b27e3388877",
        "minihls_components.vhd": "8984a03c08a9da954c570b83815fcda84f8742d4653bf72dd8a03d80a792b527",
    }),
    "wide": (wide_ladder(6), {
        "ladder_top.vhd": "453ee3209a1691a0c803224a0d294f53a7ae94584dc43bcc1bca46a0fc1a2b64",
        "manifest.json": "fe7b62efb5359c7bc4815598d81fac98861967127290343bf84f9d2af77866a1",
        "minihls_components.vhd": "139539d7c89927886dd5436d8e0383a8a6bb46fa5c30952e51f29d0865c4c9c9",
    }),
}


@pytest.mark.parametrize("shape", sorted(LADDER_SHA256))
def test_ladder_emission_is_pinned(shape):
    text, want = LADDER_SHA256[shape]
    files = emit_vhdl(compile_source(text).cdfg)
    assert {name: hashlib.sha256(body.encode()).hexdigest()
            for name, body in files.items()} == want


# -- lint differential ---------------------------------------------------------


_REF_ENTITY_RE = re.compile(
    r"entity (\w+) is\n(?:  generic \(\n.*?\n  \);\n)?  port \(\n(.*?)\n  \);\n"
    r"end entity;", re.DOTALL)
_REF_PORT_RE = re.compile(r"^\s*(\w+) : (in|out) ")
_REF_SIGNAL_RE = re.compile(r"^  signal (\w+) : ", re.MULTILINE)
_REF_INSTANCE_RE = re.compile(
    r"^  (\w+) : entity work\.(\w+)\n(?:    generic map \(\n.*?\n    \)\n)?"
    r"    port map \(\n(.*?)\n    \);", re.DOTALL | re.MULTILINE)
_REF_MAP_RE = re.compile(r"^\s*(\w+) => (\w+),?$")


def reference_lint(files):
    """`vhdl.lint_netlist` as it was before its canonical-map fast path:
    one regex match and dict update per port-map line."""
    bad: list[str] = []
    entities: dict[str, dict[str, str]] = {}  # name -> port -> direction
    for text in files.values():
        if not text.endswith("\n") or "\r" in text:
            bad.append("file must use bare LF endings and end with a newline")
        for m in _REF_ENTITY_RE.finditer(text):
            name, ports_text = m.group(1), m.group(2)
            ports = {}
            for line in ports_text.split(";\n"):
                pm = _REF_PORT_RE.match(line)
                if pm is None:
                    bad.append(f"entity {name}: unparsable port line {line.strip()!r}")
                    continue
                ports[pm.group(1)] = pm.group(2)
            entities[name] = ports

    top_files = [t for n, t in sorted(files.items())
                 if n.endswith(".vhd") and "architecture structural" in t]
    if len(top_files) != 1:
        bad.append(f"expected exactly 1 structural top file, found {len(top_files)}")
        return bad
    top = top_files[0]

    top_m = _REF_ENTITY_RE.search(top)
    top_ports: dict[str, str] = {}
    if top_m is None:
        bad.append("top entity declaration not found")
    else:
        for line in top_m.group(2).split(";\n"):
            pm = _REF_PORT_RE.match(line)
            if pm:
                top_ports[pm.group(1)] = pm.group(2)

    signals = set(_REF_SIGNAL_RE.findall(top))
    drivers: dict[str, int] = {s: 0 for s in signals}
    readers: dict[str, int] = {s: 0 for s in signals}
    # a top-level input pin drives a net; an output pin reads one
    for pname, direction in top_ports.items():
        drivers.setdefault(pname, 0)
        readers.setdefault(pname, 0)
        if direction == "in":
            drivers[pname] += 1
        else:
            readers[pname] += 1

    n_instances = 0
    for m in _REF_INSTANCE_RE.finditer(top):
        label, ename, maps_text = m.group(1), m.group(2), m.group(3)
        n_instances += 1
        if ename not in entities:
            bad.append(f"instance {label}: entity {ename} is not defined")
            continue
        ports = entities[ename]
        seen = {}
        for line in maps_text.split("\n"):
            mm = _REF_MAP_RE.match(line)
            if mm is None:
                bad.append(f"instance {label}: unparsable map line {line.strip()!r}")
                continue
            formal, actual = mm.group(1), mm.group(2)
            if formal not in ports:
                bad.append(f"instance {label}: {ename} has no port {formal}")
                continue
            seen[formal] = actual
            if actual not in drivers:
                bad.append(f"instance {label}: actual {actual} is not a "
                           f"declared signal or top-level port")
                continue
            if ports[formal] == "out":
                drivers[actual] += 1
            else:
                readers[actual] += 1
        missing = set(ports) - set(seen)
        if missing:
            bad.append(f"instance {label}: unmapped ports "
                       + ", ".join(sorted(missing)))
        for pin in ("clk", "rst"):
            if seen.get(pin) != pin:
                bad.append(f"instance {label}: {pin} must be mapped to {pin}")

    for net in sorted(drivers):
        if net in ("clk", "rst"):
            continue
        if drivers[net] != 1:
            bad.append(f"net {net}: has {drivers[net]} drivers, must be 1")
        if readers.get(net, 0) < 1:
            bad.append(f"net {net}: is never read")
    return bad




_EDIT_CHARS = "a_0 \n,;()=>:ck"


def _mutant(files, rng):
    """files with one line of one file deleted, duplicated or swapped with
    another, or with one character overwritten."""
    name = rng.choice(sorted(files))
    lines = files[name].split("\n")
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    op = rng.randrange(4)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        lines[i], lines[j] = lines[j], lines[i]
    text = "\n".join(lines)
    if op == 3:
        k = rng.randrange(len(text))
        text = text[:k] + rng.choice(_EDIT_CHARS) + text[k + 1:]
    return {**files, name: text}


# only the line-by-line check of a port map reports these
_LINE_BY_LINE = (" map line ", " has no port ", " is not a declared ",
                 " unmapped ports ", " must be mapped to ")


def test_lint_matches_the_reference_on_mutants(compiled):
    bases = [emitted(compiled, p) for p in corpus.PROGRAMS]
    bases.append(emit_vhdl(compile_source(narrow_ladder(1)).cdfg))
    rng = random.Random(6)
    mutants = [_mutant(bases[k % len(bases)], rng) for k in range(2000)]
    # A literal clk => clk (or rst) in a map is wrong without that pin on
    # the top, and any map is wrong without that port on the entity.
    for files in bases:
        top = next(n for n in files if n.endswith("_top.vhd"))
        lib = "minihls_components.vhd"
        for pin in ("clk", "rst"):
            port = f"\n    {pin} : in std_logic;"
            mutants.append({**files, top: files[top].replace(port, "", 1)})
            mutants.append({**files, lib: files[lib].replace(port, ""),
                            top: files[top].replace(f"\n      {pin} => {pin},", "")})
    line_by_line = net_messages = 0
    for files in mutants:
        want = reference_lint(files)
        assert lint_netlist(files) == want
        line_by_line += any(s in p for p in want for s in _LINE_BY_LINE)
        net_messages += any(p.startswith("net ") for p in want)
    assert line_by_line > 500 and net_messages > 500
    for files in mutants[-4 * len(bases):]:
        assert any("clk" in p or "rst" in p for p in lint_netlist(files))
