"""Circuit graph invariants, buffer insertion, serialization."""

import dataclasses
import inspect
import json
import math
import random
import re
from pathlib import Path

import pytest

from check_reference import reference_check
from test_passes import narrow_ladder, wide_ladder
from test_sim import DIAMONDS

from minihls import cdfg as C
from minihls import corpus
from minihls.build import build_cdfg
from minihls.cdfg import (
    CDFG, check, component_stats, export_dot,
    from_json, insert_buffers, require_valid, to_json,
)
from minihls import ir as ir_mod
from minihls import source as src_mod
from minihls.errors import BuildError, MaxCyclesError, Pos
from minihls.interp import run_source
from minihls.ir import successor_edges
from minihls.lattice import IMPL_BY_OPCODE, LatticeType
from minihls.lower import lower
from minihls.pipeline import compile_source
from minihls.sim import simulate
from minihls.source import parse_source
from minihls import typecheck
from minihls.vhdl import emit_vhdl

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
    g.add_channel((e.id, 0), (b.id, 0), 64)
    g.add_channel((b.id, 0), (x.id, 0), 64)
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
    fed = [kind[ch.dst] for ch in g.channels if kind[ch.src] == C.BUFFER]
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
    fed = [by_id[ch.dst] for ch in g.channels
           if by_id[ch.src].kind == C.BUFFER]
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
    g.add_channel((0, 0), (2, 0), 64)
    problems = check(g)
    assert any("drives 2 channels" in p for p in problems)
    assert any("fed by 2 channels" in p for p in problems)


def test_check_rejects_duplicate_channel_ids():
    """Two channels with one id name one net in the VHDL, which then has
    two drivers, though every port is used exactly once."""
    g = CDFG("dup")
    e = g.add_component(C.ENTRY, (), (64,), label="x")
    f = g.add_component(C.FORK, (64,), (64, 64))
    x = g.add_component(C.EXIT, (64,), ())
    sink = g.add_component(C.SINK, (64,), ())
    g.add_channel((e.id, 0), (f.id, 0), 64)
    g.add_channel((f.id, 0), (x.id, 0), 64)
    g.channels.append(C.Channel(1, f.id, 1, sink.id, 0, 64))
    assert check(g) == reference_check(g) == ["duplicate channel ids"]
    for run in (lambda: simulate(g, (5,)), lambda: emit_vhdl(g)):
        with pytest.raises(BuildError, match="duplicate channel ids"):
            run()


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
    (C.OPERATOR, (64, 64, 64), (64,), {"opcode": "add_i64"},
     ["port widths must match the opcode's signature"]),
    (C.OPERATOR, (64, 64), (1,), {"opcode": "add_i64"},
     ["port widths must match the opcode's signature"]),
    (C.OPERATOR, (1, 64, 64), (64,), {"opcode": "select_i64"}, []),
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
    g.add_channel((a.id, 0), (b.id, 0), 64)
    g.add_channel((b.id, 0), (a.id, 0), 64)
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
        g.add_channel(src, dst, width)
    return g


def test_operator_with_an_extra_input_is_rejected_before_it_runs():
    g = CDFG("three")
    g.add_component(C.ENTRY, (), (64,), label="x")
    g.add_component(C.FORK, (64,), (64, 64, 64))
    g.add_component(C.OPERATOR, (64, 64, 64), (64,), opcode="add_i64")
    g.add_component(C.EXIT, (64,), ())
    for src, dst in (((0, 0), (1, 0)), ((1, 0), (2, 0)), ((1, 1), (2, 1)),
                     ((1, 2), (2, 2)), ((2, 0), (3, 0))):
        g.add_channel(src, dst, 64)
    assert check(g) == [
        "component 2 (Operator): port widths must match the opcode's signature"]
    with pytest.raises(BuildError, match="component 2 .Operator.: port widths"):
        simulate(g, (1,))


def test_check_messages_are_pinned():
    loop = CDFG("loop")
    loop.add_component(C.ENTRY, (), (64,), label="x")
    loop.add_component(C.MERGE, (64, 64), (64,))
    loop.add_component(C.FORK, (64,), (64, 64))
    loop.add_component(C.EXIT, (64,), ())
    for src, dst in (((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (1, 1)),
                     ((2, 1), (3, 0))):
        loop.add_channel(src, dst, 64)
    odd = CDFG("odd")
    odd.add_component(C.ENTRY, (), (64,), label="x")
    odd.add_component(C.EXIT, (64,), ())
    odd.add_channel((0, 0), (1, 0), 64)
    odd.add_channel((0, 1), (9, 0), 64)
    odd.add_channel((1, 0), (1, 3), 1)
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
    g.add_channel((a.id, 0), (b.id, 0), 64)
    g.add_channel((b.id, 0), (a.id, 0), 64)
    n = insert_buffers(g)
    assert n == 1
    assert check(g) == []


def test_insert_buffers_replaces_the_back_edge_in_its_slot():
    g = tiny_passthrough()
    a = g.add_component(C.OPERATOR, (64,), (64,), opcode="neg_i64")
    b = g.add_component(C.OPERATOR, (64,), (64,), opcode="neg_i64")
    g.add_channel((a.id, 0), (b.id, 0), 64)
    g.add_channel((b.id, 0), (a.id, 0), 64)
    g.channels.reverse()  # channel ids no longer equal list positions
    assert insert_buffers(g) == 1
    assert [(ch.id, ch.src, ch.dst) for ch in g.channels] == [
        (3, 4, 5), (2, 3, 4), (1, 1, 2), (0, 0, 1), (4, 5, 3)]
    assert check(g) == []


def test_insert_buffers_takes_ids_above_those_in_use():
    """Component and channel ids need not be list positions: the new
    Buffer and channel must not reuse the length of either list."""
    g = CDFG("gaps")
    g.components += [C.Component(0, C.ENTRY, (), (64,), label="x"),
                     C.Component(2, C.MERGE, (64, 64), (64,)),
                     C.Component(3, C.FORK, (64,), (64, 64)),
                     C.Component(4, C.EXIT, (64,), ())]
    g.channels += [C.Channel(0, 0, 0, 2, 0, 64), C.Channel(1, 2, 0, 3, 0, 64),
                   C.Channel(2, 3, 0, 2, 1, 64), C.Channel(4, 3, 1, 4, 0, 64)]
    assert insert_buffers(g) == 1
    assert [c.id for c in g.components] == [0, 2, 3, 4, 5]
    assert [(ch.id, ch.src, ch.dst) for ch in g.channels] == [
        (0, 0, 2), (1, 2, 3), (2, 3, 5), (4, 3, 4), (5, 5, 2)]
    assert check(g) == []
    # The token laps the loop for ever; its first lap reaches the exit.
    with pytest.raises(MaxCyclesError) as err:
        simulate(g, (5,), max_cycles=20)
    assert err.value.report.output == 5 and err.value.report.exit_cycle == 3


@pytest.mark.parametrize("src, dst, missing", [
    ((0, 0), (9, 0), "channel 0: dest component 9 missing"),
    ((7, 0), (1, 0), "channel 0: source component 7 missing")],
    ids=["dest", "source"])
def test_insert_buffers_rejects_a_channel_to_a_missing_component(src, dst, missing):
    """Entry 0 and Exit 1 with one channel whose end names no component:
    the error is the one `require_valid` gives, not a `KeyError`."""
    g = CDFG("dangling")
    g.add_component(C.ENTRY, (), (64,), label="x")
    g.add_component(C.EXIT, (64,), ())
    g.add_channel(src, dst, 64)
    with pytest.raises(BuildError) as err:
        insert_buffers(g)
    assert missing in check(g)
    assert str(err.value) == "invalid circuit: " + "; ".join(check(g))
    with pytest.raises(BuildError) as valid_err:
        require_valid(g)
    assert str(err.value) == str(valid_err.value)


# Every class declared with `errors.record`, by module.
RECORDS = {
    src_mod: ("Expr", "Lit", "Var", "Call", "Stmt", "Assign", "If", "While",
              "Return", "Param", "FunctionDef", "SourceProgram"),
    typecheck: ("TExpr", "TConst", "TVar", "TCall", "TypedFunction"),
    ir_mod: ("ConstOp", "Instr", "Goto", "CondGoto", "Ret"),
    C: ("Component", "Channel"),
}

EVERY_FORM = """
function f(a::Int64, b::Int64)
    if a < b
        a = -a
    elseif a == b
        a = 2
    else
        a = a % 3
    end
    while b > 0
        b = b - 1
    end
    return a + b
end
"""


def one_record_of_each_class():
    """One instance per record class: the bases built directly, the others
    found in the artifacts of a compile that uses every statement form."""
    res = compile_source(EVERY_FORM, opt=False)
    found = {src_mod.Expr: src_mod.Expr(), src_mod.Stmt: src_mod.Stmt(),
             typecheck.TExpr: typecheck.TExpr(LatticeType.INT64, Pos(1, 2))}

    def walk(x):
        if isinstance(x, (list, tuple)):
            for y in x:
                walk(y)
        elif dataclasses.is_dataclass(x):
            found.setdefault(type(x), x)
            for f in dataclasses.fields(x):
                walk(getattr(x, f.name))
    walk([res.program, res.typed, res.ssa_unopt.blocks, res.cdfg])
    return found


def test_records_are_immutable():
    declared = {getattr(mod, name) for mod, names in RECORDS.items() for name in names}
    frozen = {cls for mod in RECORDS for cls in vars(mod).values()
              if isinstance(cls, type) and cls.__module__ == mod.__name__
              and dataclasses.is_dataclass(cls)
              and cls.__dataclass_params__.frozen}
    assert frozen == declared
    found = one_record_of_each_class()
    assert declared <= found.keys()
    for cls in declared:
        record, fields = found[cls], dataclasses.fields(cls)
        assert not hasattr(record, "__dict__"), cls
        for f in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, f.name)
        copy = dataclasses.replace(record)
        assert type(copy) is cls and copy is not record
        assert (copy, hash(copy), repr(copy)) == (record, hash(record), repr(record))
        if "pos" in cls.__match_args__:  # a component's compares: traps report it
            moved = dataclasses.replace(record, pos=Pos(98, 99))
            assert moved.pos == Pos(98, 99)
            assert (moved == record) is (cls is not C.Component)
            assert (hash(moved) == hash(record)) is (cls is not C.Component)
        if cls.__doc__.startswith(cls.__name__ + "("):  # generated from the fields
            assert all(f"{f.name}: " in cls.__doc__ for f in fields if f.init), cls
        params = inspect.signature(cls).parameters.values()
        assert [(p.name, p.default) for p in params] == [
            (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING
             else f.default) for f in fields if f.init], cls


# The signature of each record class: the parameters and defaults that
# `dataclass` generated, annotated with the fields' types.  A class without
# a docstring is documented as its name and this signature, as `dataclass`
# documents it.
RECORD_SIGNATURES = {
    "Expr": "()",
    "Lit": "(value: 'bool | int | float', pos: 'Pos' = Pos(line=0, col=0))",
    "Var": "(name: 'str', pos: 'Pos' = Pos(line=0, col=0))",
    "Call": "(op: 'str', args: 'tuple[Expr, ...]', pos: 'Pos' = Pos(line=0, col=0))",
    "Stmt": "()",
    "Assign": "(target: 'str', value: 'Expr', pos: 'Pos' = Pos(line=0, col=0))",
    "If": "(cond: 'Expr', then: 'tuple[Stmt, ...]', "
          "elifs: 'tuple[tuple[Expr, tuple[Stmt, ...]], ...]', "
          "orelse: 'tuple[Stmt, ...] | None', pos: 'Pos' = Pos(line=0, col=0))",
    "While": "(cond: 'Expr', body: 'tuple[Stmt, ...]', pos: 'Pos' = Pos(line=0, col=0))",
    "Return": "(value: 'Expr', pos: 'Pos' = Pos(line=0, col=0))",
    "Param": "(name: 'str', annotation: 'str | None', pos: 'Pos' = Pos(line=0, col=0))",
    "FunctionDef": "(name: 'str', params: 'tuple[Param, ...]', body: 'tuple[Stmt, ...]', "
                   "pos: 'Pos' = Pos(line=0, col=0))",
    "SourceProgram": "(functions: 'tuple[FunctionDef, ...]')",
    "TExpr": "(ty: 'LatticeType', pos: 'Pos')",
    "TConst": "(ty: 'LatticeType', pos: 'Pos', value: 'bool | int | float')",
    "TVar": "(ty: 'LatticeType', pos: 'Pos', name: 'str')",
    "TCall": "(ty: 'LatticeType', pos: 'Pos', impl: 'OperatorImpl', args: 'tuple[TExpr, ...]')",
    "TypedFunction": "(name: 'str', params: 'tuple[tuple[str, LatticeType], ...]', "
                     "body: 'tuple[src.Stmt, ...]', return_type: 'LatticeType', pos: 'Pos')",
    "ConstOp": "(value: 'object')",
    "Instr": "(result: 'ValueId', ty: 'LatticeType', op: 'Op', "
             "args: 'tuple[ValueId, ...]' = (), pos: 'Pos' = Pos(line=0, col=0))",
    "Goto": "(target: 'BlockId', args: 'tuple[ValueId, ...]' = ())",
    "CondGoto": "(cond: 'ValueId', then_target: 'BlockId', then_args: 'tuple[ValueId, ...]', "
                "else_target: 'BlockId', else_args: 'tuple[ValueId, ...]')",
    "Ret": "(value: 'ValueId')",
    "Component": "(id: 'int', kind: 'str', in_widths: 'tuple[int, ...]', "
                 "out_widths: 'tuple[int, ...]', label: 'str' = '', "
                 "opcode: 'str | None' = None, latency: 'int' = 0, value: 'object' = None, "
                 "pos: 'Pos' = Pos(line=0, col=0))",
    "Channel": "(id: 'int', src: 'int', src_port: 'int', dst: 'int', dst_port: 'int', "
               "width: 'int')",
}


def test_record_signatures_and_docstrings_are_the_dataclass_ones():
    for mod, names in RECORDS.items():
        for name in names:
            cls, sig = getattr(mod, name), RECORD_SIGNATURES[name]
            assert str(inspect.signature(cls)) == sig + " -> None", name
            assert cls.__doc__ == ("Materialize a literal." if name == "ConstOp"
                                   else name + sig), name
    assert len(RECORD_SIGNATURES) == sum(map(len, RECORDS.values()))


def test_record_defaults_init_false_fields_and_post_init():
    assert src_mod.Var("x") == src_mod.Var("x", Pos(3, 4))
    assert src_mod.Var("x").pos == Pos(0, 0)
    fn = src_mod.FunctionDef("f", (), ())
    assert fn.plan is None and fn.pos == Pos(0, 0)
    with pytest.raises(TypeError):
        src_mod.FunctionDef("f", (), (), Pos(1, 1), None)
    with pytest.raises(ValueError):
        dataclasses.replace(fn, plan=1)
    assert ir_mod.Instr(1, LatticeType.INT64, ir_mod.ConstOp(2)).args == ()
    with pytest.raises(TypeError):
        typecheck.TVar(LatticeType.INT64, Pos(1, 1))
    const = C.Component(0, C.CONST, [0], [64], value=-0.0)
    assert (const.in_widths, const.out_widths) == ((0,), (64,))
    assert const.value_key == (float, "-0.0")
    assert C.Component(1, C.SINK, (64,), ()).value_key is None
    assert dataclasses.replace(const, value=0.0) != const
    assert dataclasses.replace(const, label="c") != const
    with pytest.raises(ValueError):
        dataclasses.replace(const, value_key=None)


def test_payloads_that_compare_equal_make_unequal_records():
    const = C.Component(0, C.CONST, (0,), (64,), value=0.0)
    assert dataclasses.replace(const) == const
    for value in (-0.0, 0, False):
        assert dataclasses.replace(const, value=value) != const


def test_components_built_with_list_widths_hold_tuples():
    """Per-shape caches key on a component's widths, so a component built
    directly with lists must work like one built by `add_component`."""
    from minihls.vhdl import emit_vhdl, lint_netlist
    g = CDFG("lists")
    g.components += [C.Component(0, C.ENTRY, [], [64], label="x"),
                     C.Component(1, C.EXIT, [64], [])]
    g.add_channel((0, 0), (1, 0), 64)
    assert [c.in_widths for c in g.components] == [(), (64,)]
    assert [c.out_widths for c in g.components] == [(64,), ()]
    assert check(g) == []
    assert simulate(g, (5,)).output == 5
    assert lint_netlist(emit_vhdl(g)) == []


def test_buffered_cycle_is_accepted():
    g = tiny_passthrough()
    a = g.add_component(C.OPERATOR, (64,), (64,), opcode="neg_i64")
    buf = g.add_component(C.BUFFER, (64,), (64,))
    g.add_channel((a.id, 0), (buf.id, 0), 64)
    g.add_channel((buf.id, 0), (a.id, 0), 64)
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


def test_json_matches_goldens(program, compiled):
    golden = Path(__file__).parent / "golden" / f"{program}.cdfg.json"
    assert to_json(compiled(program).cdfg) == golden.read_text()


def _refuse(name):
    raise ValueError(f"not JSON: {name}")


def test_json_is_strict_and_keeps_a_non_finite_payload():
    res = compile_source("function f(x::Float64)\n    return x * 1e309\nend\n")
    text = to_json(res.cdfg)
    json.loads(text, parse_constant=_refuse)
    again = from_json(text)
    assert to_json(again) == text
    assert simulate(again, (2.0,)).output == math.inf


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_payloads_round_trip(value):
    g = CDFG("k")
    g.add_component(C.CONST, (0,), (64,), value=value)
    text = to_json(g)
    json.loads(text, parse_constant=_refuse)
    # a Const compares by its payload's type and repr, so nan equals nan
    assert from_json(text).components == g.components


def test_dot_export_mentions_every_component(program, compiled):
    g = compiled(program).cdfg
    dot = export_dot(g)
    assert dot.startswith("digraph")
    for c in g.components:
        assert f"c{c.id} " in dot
    for ch in g.channels:
        assert f'  c{ch.src} -> c{ch.dst} [label="{ch.width}"];' in dot


def test_power_graph_strictly_larger_than_addpair(compiled):
    small = component_stats(addpair_graph())["total"]
    assert component_stats(compiled("power").cdfg)["total"] > small


# Every message `check` words, each of which the mutants must bring about.
CHECK_FAMILIES = [re.compile(p) for p in (
    r"^duplicate component ids$",
    r"^duplicate channel ids$",
    r"^component \d+: unknown kind ",
    r"^component \d+ \(\w+\): must have ",
    *(rf"^component \d+ \(\w+\): {re.escape(msg)}$"
      for msg in sorted({msg for rules in C._RULES.values() for _, msg in rules})),
    r"^channel \d+: source component \d+ missing$",
    r"^channel \d+: dest component \d+ missing$",
    r"^channel \d+: source port -?\d+ out of range ",
    r"^channel \d+: dest port -?\d+ out of range ",
    r"^channel \d+: width \d+ does not match source port width ",
    r"^channel \d+: width \d+ does not match dest port width ",
    r"^component \d+ \(\w+\): output \d+ drives \d+ channels",
    r"^component \d+ \(\w+\): input \d+ is fed by \d+ channels",
    r"^cycle without a Buffer through components ",
)]
_KINDS = (*C.KIND_ORDER, "Gizmo")
_OPCODES = (*sorted(IMPL_BY_OPCODE), None, "bogus")


def _widths(rng, widths):
    """`widths` with one entry changed, or a new tuple of 0 to 3 widths."""
    if widths and rng.random() < 0.7:
        k = rng.randrange(len(widths))
        return widths[:k] + (rng.choice((0, 1, 64)),) + widths[k + 1:]
    return tuple(rng.choice((0, 1, 64)) for _ in range(rng.randrange(4)))


def _mutate(g, rng):
    """One edit of a component's kind, widths, opcode, latency, payload,
    id or list slot, or of a channel's width, endpoint or index, or one
    channel deleted, duplicated, swapped in the list or swapped in its
    destination with another.  Opcodes and latencies are mostly edited
    on Operators, payloads on Consts."""
    comps, chans = g.components, g.channels
    k = rng.randrange(len(comps))
    i, j = rng.randrange(len(chans)), rng.randrange(len(chans))
    ch, c = chans[i], comps[k]
    op = rng.randrange(15)
    if op in (3, 4, 5) and rng.random() < 0.8:
        kind = C.CONST if op == 5 else C.OPERATOR
        k = rng.choice([n for n, x in enumerate(comps) if x.kind == kind] or [k])
        c = comps[k]
    if op == 0:
        comps[k] = dataclasses.replace(c, kind=rng.choice(_KINDS))
    elif op == 1:
        comps[k] = dataclasses.replace(c, in_widths=_widths(rng, c.in_widths))
    elif op == 2:
        comps[k] = dataclasses.replace(c, out_widths=_widths(rng, c.out_widths))
    elif op == 3:
        comps[k] = dataclasses.replace(c, opcode=rng.choice(_OPCODES))
    elif op == 4:
        comps[k] = dataclasses.replace(c, latency=rng.choice((-1, 0, 3)))
    elif op == 5:
        comps[k] = dataclasses.replace(c, value=rng.choice((None, 5, True)))
    elif op == 6:
        comps[k] = dataclasses.replace(c, id=rng.choice(comps).id)
    elif op == 7:
        comps[k], comps[-1] = comps[-1], comps[k]
    elif op == 8:
        chans[i] = dataclasses.replace(ch, width=rng.choice((0, 1, 64, 32)))
    elif op == 9:
        side = rng.choice(("src", "dst"))
        comp = rng.choice((rng.choice(comps).id, len(comps) + 3))
        chans[i] = dataclasses.replace(ch, **{side: comp})
    elif op == 10:
        side = rng.choice(("src", "dst"))
        index = rng.choice((-1, 0, 1, 2, 3))
        chans[i] = dataclasses.replace(ch, **{side + "_port": index})
    elif op == 11:
        del chans[i]
    elif op == 12:
        chans.insert(j, ch)
    elif op == 13:
        chans[i], chans[j] = chans[j], chans[i]
    else:
        other = chans[j]
        chans[i] = dataclasses.replace(ch, dst=other.dst, dst_port=other.dst_port)
        chans[j] = dataclasses.replace(other, dst=ch.dst, dst_port=ch.dst_port)


def check_mutants(circuits, n, seed):
    """n seeded mutants, each a copy of one of `circuits` with 1 to 3 edits."""
    rng = random.Random(seed)
    for k in range(n):
        base = circuits[k % len(circuits)]
        g = CDFG(base.name, list(base.components), list(base.channels))
        for _ in range(rng.choice((1, 1, 2, 3))):
            _mutate(g, rng)
        yield g


def test_check_matches_the_reference_on_mutants(compiled):
    circuits = [compiled(p, opt=opt).cdfg for p in corpus.PROGRAMS
                for opt in (True, False)]
    circuits += [compile_source(src(n)).cdfg
                 for src in (narrow_ladder, wide_ladder) for n in (1, 2)]
    seen = [0] * len(CHECK_FAMILIES)
    clean = 0
    for g in check_mutants(circuits, 2400, 18):
        want = reference_check(g)
        assert check(g) == want
        clean += not want
        for f, family in enumerate(CHECK_FAMILIES):
            seen[f] += any(map(family.search, want))
    assert all(n >= 3 for n in seen), list(zip(seen, CHECK_FAMILIES))
    assert clean >= 100
    for g in circuits:
        assert check(g) == reference_check(g) == []


@pytest.mark.parametrize("payload, width", [(5, 1), (2.5, 1), (7, 32), (True, 64)])
def test_a_const_payload_must_fit_its_width(payload, width):
    g = CDFG("const", return_width=width)
    trigger = g.add_component(C.ENTRY, (), (0,))
    const = g.add_component(C.CONST, (0,), (width,), value=payload)
    exit_ = g.add_component(C.EXIT, (width,), ())
    g.add_channel((trigger.id, 0), (const.id, 0), 0)
    g.add_channel((const.id, 0), (exit_.id, 0), width)
    want = ["component 1 (Const): payload must be a Bool on 1 bit "
            "or an Int64 or Float64 on 64 bits"]
    assert check(g) == want == reference_check(g)
    assert check(from_json(to_json(g))) == want
    for stage in (emit_vhdl, lambda g: simulate(g, ())):
        with pytest.raises(BuildError, match="payload must be"):
            stage(g)
