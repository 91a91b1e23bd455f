"""Circuit graph invariants, buffer insertion, serialization."""

import dataclasses

import pytest

from test_passes import wide_ladder
from test_sim import DIAMONDS

from minihls import cdfg as C
from minihls import corpus
from minihls.build import build_cdfg
from minihls.cdfg import (
    CDFG, Port, check, component_stats, export_dot,
    from_json, insert_buffers, require_valid, to_json,
)
from minihls.errors import BuildError
from minihls.interp import run_source
from minihls.ir import successor_edges
from minihls.lattice import LatticeType
from minihls.lower import lower
from minihls.pipeline import compile_source
from minihls.sim import simulate
from minihls.source import parse_source
from minihls import typecheck

I = LatticeType.INT64


def addpair_graph():
    func = lower(typecheck.infer(
        parse_source("function addpair(a, b)\n  return a + b\nend\n").functions[0],
        (I, I)))
    return build_cdfg(func)


def tiny_passthrough():
    """Entry feeding Exit through a Buffer; smallest editable valid graph."""
    g = CDFG("tiny")
    e = g.add_component(C.ENTRY, (), (64,), label="x")
    b = g.add_component(C.BUFFER, (64,), (64,))
    x = g.add_component(C.EXIT, (64,), ())
    g.add_channel(Port(e.id, 0), Port(b.id, 0), 64)
    g.add_channel(Port(b.id, 0), Port(x.id, 0), 64)
    return g


def test_addpair_is_exactly_six_components():
    g = addpair_graph()
    stats = component_stats(g)
    assert stats["total"] == 6
    # two data entries, the control entry (whose token drains to a sink),
    # the adder, and the exit
    assert stats == {"Entry": 3, "Exit": 1, "Const": 0, "Operator": 1,
                     "Fork": 0, "Branch": 0, "Merge": 0, "Buffer": 0,
                     "Sink": 1, "total": 6}
    assert check(g) == []


def test_component_stats_deterministic():
    a = component_stats(addpair_graph())
    b = component_stats(addpair_graph())
    assert a == b
    assert list(a) == list(b)


def test_corpus_graphs_check_clean(program, compiled):
    res = compiled(program)
    assert check(res.cdfg) == []


def test_corpus_unoptimized_graphs_check_clean(program, compiled):
    res = compiled(program, opt=False)
    assert check(res.cdfg) == []


def test_loop_programs_get_buffers(compiled):
    """One Buffer per loop-carried value, the control token included."""
    assert compiled("power").n_buffers == 4
    assert compiled("newton_raphson").n_buffers == 3
    assert compiled("if_else").n_buffers == 0
    assert compile_source(wide_ladder(10)).n_buffers == 4


# The corpus, with and without the passes, and two loops of diamonds.
PLACEMENT_SOURCES = [
    *((name, opt) for name in corpus.PROGRAMS for opt in (True, False)),
    *((name, True) for name in DIAMONDS)]


def placement_circuit(name, opt):
    if name in DIAMONDS:
        return compile_source(DIAMONDS[name]).cdfg
    return compile_source(corpus.load(name), corpus.SIGNATURES[name],
                          opt=opt).cdfg


@pytest.mark.parametrize("name, opt", PLACEMENT_SOURCES)
def test_insert_buffers_on_its_own_output_adds_nothing(name, opt):
    g = placement_circuit(name, opt)
    before = to_json(g)
    assert insert_buffers(g) == 0
    assert to_json(g) == before


@pytest.mark.parametrize("name, opt", PLACEMENT_SOURCES)
def test_every_buffer_feeds_a_merge(name, opt):
    g = placement_circuit(name, opt)
    kind = {c.id: c.kind for c in g.components}
    fed = [kind[ch.dst.comp] for ch in g.channels
           if kind[ch.src.comp] == C.BUFFER]
    assert fed == [C.MERGE] * component_stats(g)["Buffer"]


EARLY_RETURN = """
function f(a::Int64, b::Int64)
    if a < 0
        return b
    end
    i = 0
    while i < a
        b = b + 1
        i = i + 1
    end
    return b
end
"""


def blocks_on_a_cycle(func):
    succs = {b.id: {t for t, _ in successor_edges(b.terminator)}
             for b in func.blocks}
    on_cycle = set()
    for start in succs:
        seen, todo = set(), [start]
        while todo:
            for t in succs[todo.pop()] - seen:
                seen.add(t)
                todo.append(t)
        if start in seen:
            on_cycle.add(start)
    return on_cycle


def test_early_return_gets_one_buffer_per_loop_carried_value():
    """The return Merge is created after the block Merges, so the cuts
    land on the loop header's latch inputs and none on the return."""
    res = compile_source(EARLY_RETURN)
    g = res.cdfg
    assert res.n_buffers == 4
    by_id = {c.id: c for c in g.components}
    fed = [by_id[ch.dst.comp] for ch in g.channels
           if by_id[ch.src.comp].kind == C.BUFFER]
    assert len(fed) == 4 and all(c.kind == C.MERGE for c in fed)
    headers = {int(c.label[1:].split(".")[0]) for c in fed}  # "b<id>.<value>"
    assert len(headers) == 1 and headers <= blocks_on_a_cycle(res.ssa)
    for point in [(-1, 5), (3, 4), (0, 2)]:
        report = simulate(g, point)
        assert report.output == run_source(res.func, point)
        assert report.leftover == 0


def test_check_catches_dangling_port():
    g = tiny_passthrough()
    g.channels.pop()  # exit input and buffer output now dangle
    problems = check(g)
    assert any("drives 0 channels" in p for p in problems)
    assert any("fed by 0 channels" in p for p in problems)


def test_check_catches_double_driven_port():
    g = tiny_passthrough()
    g.add_channel(Port(0, 0), Port(2, 0), 64)
    problems = check(g)
    assert any("drives 2 channels" in p for p in problems)
    assert any("fed by 2 channels" in p for p in problems)


def test_check_catches_width_mismatch():
    g = tiny_passthrough()
    g.channels[0] = dataclasses.replace(g.channels[0], width=1)
    assert any("width" in p for p in check(g))


def test_check_catches_bad_fork_arity():
    g = tiny_passthrough()
    # 1-in 1-out is not a legal fork
    g.components[1] = dataclasses.replace(g.components[1], kind=C.FORK)
    assert any("Fork" in p and ">=2" in p for p in check(g))


def test_check_catches_branch_condition_width():
    g = CDFG("b")
    g.add_component(C.BRANCH, (64, 64), (64, 64))
    assert any("condition input" in p for p in check(g))


def test_check_catches_missing_const_payload():
    g = CDFG("c")
    g.add_component(C.CONST, (0,), (64,))
    assert any("payload" in p for p in check(g))


# One wrong port count and one right count with a bad width or field per
# kind, as (kind, input widths, output widths, fields, the kind's messages).
# Width and field rules run only once the counts hold.
KIND_CASES = [
    (C.ENTRY, (64,), (64,), {}, ["must have 0 inputs and 1 output"]),
    (C.ENTRY, (), (1,), {}, []),
    (C.EXIT, (64, 64), (), {}, ["must have 1 input and 0 outputs"]),
    (C.EXIT, (1,), (), {}, []),
    (C.SINK, (), (), {}, ["must have 1 input and 0 outputs"]),
    (C.SINK, (0,), (), {}, []),
    (C.CONST, (), (64,), {"value": 1}, ["must have 1 input and 1 output"]),
    (C.CONST, (64,), (64,), {"value": 1},
     ["trigger input must have width 0"]),
    (C.CONST, (0,), (64,), {}, ["missing payload value"]),
    (C.OPERATOR, (), (64,), {"opcode": "neg_i64"},
     ["must have >=1 inputs and 1 output"]),
    (C.OPERATOR, (64,), (64, 64), {}, ["must have >=1 inputs and 1 output"]),
    (C.OPERATOR, (64,), (64,), {"latency": -1},
     ["missing opcode", "negative latency"]),
    (C.FORK, (64,), (64,), {}, ["must have 1 input and >=2 outputs"]),
    (C.FORK, (64,), (64, 1), {}, ["all ports must share one width"]),
    (C.BRANCH, (64,), (64, 64), {}, ["must have 2 inputs and 2 outputs"]),
    (C.BRANCH, (64, 64), (64, 64), {}, ["condition input must have width 1"]),
    (C.BRANCH, (64, 1), (64, 1), {},
     ["output widths must match the data input"]),
    (C.MERGE, (64,), (1,), {}, ["must have >=2 inputs and 1 output"]),
    (C.MERGE, (64, 1), (64,), {}, ["all ports must share one width"]),
    (C.BUFFER, (64,), (), {}, ["must have 1 input and 1 output"]),
    (C.BUFFER, (64,), (1,), {}, ["all ports must share one width"]),
    (C.OPERATOR, (64,), (64,), {"opcode": "neg"}, ["unknown opcode"]),
    (C.CONST, (0,), (0,), {"value": 5}, ["output must not have width 0"]),
]


@pytest.mark.parametrize("kind, ins, outs, fields, want", KIND_CASES)
def test_check_kind_messages(kind, ins, outs, fields, want):
    g = CDFG("k")
    g.add_component(kind, ins, outs, **fields)
    got = [p for p in check(g) if "channels, must be exactly 1" not in p]
    assert got == [f"component 0 ({kind}): {m}" for m in want]


def test_check_counts_ports_before_reading_widths():
    g = CDFG("f")
    g.add_component(C.FORK, (), (64, 64))
    assert check(g) == [
        "component 0 (Fork): must have 1 input and >=2 outputs",
        "component 0 (Fork): output 0 drives 0 channels, must be exactly 1",
        "component 0 (Fork): output 1 drives 0 channels, must be exactly 1"]


def test_check_rejects_unknown_kind():
    g = CDFG("u")
    g.add_component("Gizmo", (), (0,))
    assert check(g) == [
        "component 0: unknown kind 'Gizmo'",
        "component 0 (Gizmo): output 0 drives 0 channels, must be exactly 1"]


def test_check_catches_bufferless_cycle():
    g = tiny_passthrough()
    # close a combinational loop around two operators
    a = g.add_component(C.OPERATOR, (64,), (64,), opcode="neg_i64")
    b = g.add_component(C.OPERATOR, (64,), (64,), opcode="neg_i64")
    g.add_channel(Port(a.id, 0), Port(b.id, 0), 64)
    g.add_channel(Port(b.id, 0), Port(a.id, 0), 64)
    assert check(g) == ["cycle without a Buffer through components 3 -> 4 -> 3"]


def fork_into_add(*wiring):
    """Entry -> Fork -> two-input add -> Exit, wired by (src, dst, width)
    triples of (component, port) pairs; components are numbered 0..3."""
    g = CDFG("t")
    g.add_component(C.ENTRY, (), (64,), label="x")
    g.add_component(C.OPERATOR, (64, 64), (64,), opcode="add_i64")
    g.add_component(C.FORK, (64,), (64, 64))
    g.add_component(C.EXIT, (64,), ())
    for src, dst, width in wiring:
        g.add_channel(Port(*src), Port(*dst), width)
    return g


def test_check_messages_are_pinned():
    loop = CDFG("loop")
    loop.add_component(C.ENTRY, (), (64,), label="x")
    loop.add_component(C.MERGE, (64, 64), (64,))
    loop.add_component(C.FORK, (64,), (64, 64))
    loop.add_component(C.EXIT, (64,), ())
    for src, dst in (((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (1, 1)),
                     ((2, 1), (3, 0))):
        loop.add_channel(Port(*src), Port(*dst), 64)
    odd = CDFG("odd")
    odd.add_component(C.ENTRY, (), (64,), label="x")
    odd.add_component(C.EXIT, (64,), ())
    odd.add_channel(Port(0, 0), Port(1, 0), 64)
    odd.add_channel(Port(0, 1), Port(9, 0), 64)
    odd.add_channel(Port(1, 0), Port(1, 3), 1)
    cases = {
        "width mismatch": (fork_into_add(
            ((0, 0), (2, 0), 64), ((2, 0), (1, 0), 1), ((2, 1), (1, 1), 64),
            ((1, 0), (3, 0), 64)), [
            "channel 1: width 1 does not match source port width 64 on "
            "component 2 (Fork)",
            "channel 1: width 1 does not match dest port width 64 on "
            "component 1 (Operator)"]),
        "undriven input": (fork_into_add(
            ((0, 0), (2, 0), 64), ((2, 0), (1, 0), 64),
            ((1, 0), (3, 0), 64)), [
            "component 1 (Operator): input 1 is fed by 0 channels, must be "
            "exactly 1",
            "component 2 (Fork): output 1 drives 0 channels, must be "
            "exactly 1"]),
        "doubly driven output": (fork_into_add(
            ((0, 0), (2, 0), 64), ((2, 0), (1, 0), 64), ((2, 0), (1, 1), 64),
            ((1, 0), (3, 0), 64)), [
            "component 2 (Fork): output 0 drives 2 channels, must be "
            "exactly 1",
            "component 2 (Fork): output 1 drives 0 channels, must be "
            "exactly 1"]),
        "buffer-free cycle": (loop, [
            "cycle without a Buffer through components 1 -> 2 -> 1"]),
        "bad endpoints": (odd, [
            "channel 1: source port 1 out of range for component 0 (Entry)",
            "channel 1: dest component 9 missing",
            "channel 2: source port 0 out of range for component 1 (Exit)",
            "channel 2: dest port 3 out of range for component 1 (Exit)",
            "cycle without a Buffer through components 1 -> 1"]),
    }
    for name, (g, want) in cases.items():
        assert check(g) == want, name


def test_insert_buffers_breaks_cycles():
    g = tiny_passthrough()
    a = g.add_component(C.OPERATOR, (64,), (64,), opcode="neg_i64")
    b = g.add_component(C.OPERATOR, (64,), (64,), opcode="neg_i64")
    g.add_channel(Port(a.id, 0), Port(b.id, 0), 64)
    g.add_channel(Port(b.id, 0), Port(a.id, 0), 64)
    n = insert_buffers(g)
    assert n == 1
    assert check(g) == []


def test_insert_buffers_replaces_the_back_edge_in_its_slot():
    g = tiny_passthrough()
    a = g.add_component(C.OPERATOR, (64,), (64,), opcode="neg_i64")
    b = g.add_component(C.OPERATOR, (64,), (64,), opcode="neg_i64")
    g.add_channel(Port(a.id, 0), Port(b.id, 0), 64)
    g.add_channel(Port(b.id, 0), Port(a.id, 0), 64)
    g.channels.reverse()  # channel ids no longer equal list positions
    assert insert_buffers(g) == 1
    assert [(ch.id, ch.src.comp, ch.dst.comp) for ch in g.channels] == [
        (3, 4, 5), (2, 3, 4), (1, 1, 2), (0, 0, 1), (4, 5, 3)]
    assert check(g) == []


def test_records_are_immutable():
    g = tiny_passthrough()
    for record in (g.components[1], g.channels[0], g.channels[0].src):
        for f in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))


def test_payloads_that_compare_equal_make_unequal_records():
    const = C.Component(0, C.CONST, (0,), (64,), value=0.0)
    assert dataclasses.replace(const) == const
    for value in (-0.0, 0, False):
        assert dataclasses.replace(const, value=value) != const


def test_buffered_cycle_is_accepted():
    g = tiny_passthrough()
    a = g.add_component(C.OPERATOR, (64,), (64,), opcode="neg_i64")
    buf = g.add_component(C.BUFFER, (64,), (64,))
    g.add_channel(Port(a.id, 0), Port(buf.id, 0), 64)
    g.add_channel(Port(buf.id, 0), Port(a.id, 0), 64)
    assert check(g) == []


def test_require_valid_raises_with_all_violations():
    g = tiny_passthrough()
    g.channels.pop()
    with pytest.raises(BuildError):
        require_valid(g)


def test_json_roundtrip_is_exact(program, compiled):
    g = compiled(program).cdfg
    text = to_json(g)
    again = from_json(text)
    assert to_json(again) == text
    assert component_stats(again) == component_stats(g)
    assert check(again) == []


def test_dot_export_mentions_every_component(program, compiled):
    g = compiled(program).cdfg
    dot = export_dot(g)
    assert dot.startswith("digraph")
    for c in g.components:
        assert f"c{c.id} " in dot


def test_power_graph_strictly_larger_than_addpair(compiled):
    small = component_stats(addpair_graph())["total"]
    assert component_stats(compiled("power").cdfg)["total"] > small
