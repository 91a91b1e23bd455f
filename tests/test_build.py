"""The circuit builder: byte-identical to the net-record reference on
compiled programs, and correct on hand-built IR whose blocks come before
their one predecessor."""

import pytest

from build_reference import reference_build
from test_mutants import MUTANTS
from test_source import load_ladder_generator

from minihls import corpus
from minihls.build import build_cdfg, resolve_latencies
from minihls.cdfg import check, insert_buffers, to_json
from minihls.errors import MiniHlsError
from minihls.interp import run_ssa
from minihls.ir import Block, CondGoto, ConstOp, Goto, Instr, Ret, SSAFunction, verify
from minihls.lattice import IMPL_BY_OPCODE, LatticeType
from minihls.pipeline import compile_source
from minihls.sim import simulate

B, I = LatticeType.BOOL, LatticeType.INT64
ADD, SUB, MUL, LT = (IMPL_BY_OPCODE[op] for op in
                     ("add_i64", "sub_i64", "mul_i64", "cmp_lt_i64"))

LATENCY_MAPS = [{}, {"mul_i64": 0}, {"mul_i64": 6, "add_i64": 1}]


def assert_same_circuit(func, latencies=None):
    assert (to_json(build_cdfg(func, latencies))
            == to_json(reference_build(func, latencies)))


@pytest.mark.parametrize("opt", [True, False], ids=["opt", "unopt"])
def test_builder_matches_the_reference_on_the_corpus(program, compiled, opt):
    for latencies in LATENCY_MAPS:
        assert_same_circuit(compiled(program, opt).ssa, latencies)


@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
def test_builder_matches_the_reference_on_ladders(wide):
    ladder = load_ladder_generator()
    for n in range(1, 9):
        for seed in range(3):
            assert_same_circuit(compile_source(ladder(n, wide, seed)).ssa)


def test_builder_matches_the_reference_on_compilable_mutants():
    built = 0
    for name, text in MUTANTS:
        try:
            ssa = compile_source(text, corpus.SIGNATURES[name]).ssa
        except MiniHlsError:
            continue
        assert_same_circuit(ssa)
        built += 1
    assert built > 0


# Hand-built IR whose block order puts a block with one predecessor edge
# before that predecessor, which lowering never does.


def goto_before_its_predecessor():
    """b0 -> b2 -> b1 -> ret, listed b0, b1, b2; b2 passes b1 a parameter
    and both use values from b0."""
    b0 = Block(0, (), [Instr(2, I, ADD, (0, 1))], Goto(2, ()))
    b1 = Block(1, ((5, I),), [
        Instr(6, I, MUL, (5, 0)),
        Instr(7, I, SUB, (6, 2)),
    ], Ret(7))
    b2 = Block(2, (), [
        Instr(3, I, ConstOp(3)),
        Instr(4, I, ADD, (2, 3)),
    ], Goto(1, (4,)))
    return SSAFunction("f", ((0, I), (1, I)), I, [b0, b1, b2],
                       next_value=8, next_block=3)


def branch_before_its_predecessor():
    """b0 -> b3, whose CondGoto feeds b1 and b2, listed before it; both
    arms join at b4."""
    b0 = Block(0, (), [Instr(2, I, ADD, (0, 1))], Goto(3, ()))
    b1 = Block(1, (), [Instr(4, I, MUL, (2, 0))], Goto(4, (4,)))
    b2 = Block(2, (), [Instr(5, I, SUB, (2, 1))], Goto(4, (5,)))
    b3 = Block(3, (), [Instr(3, B, LT, (2, 1))], CondGoto(3, 1, (), 2, ()))
    b4 = Block(4, ((6, I),), [Instr(7, I, ADD, (6, 0))], Ret(7))
    return SSAFunction("g", ((0, I), (1, I)), I, [b0, b1, b2, b3, b4],
                       next_value=8, next_block=5)


@pytest.mark.parametrize("make", [goto_before_its_predecessor,
                                  branch_before_its_predecessor])
def test_a_block_listed_before_its_one_predecessor_waits_for_it(make):
    func = make()
    assert verify(func) == []
    g = build_cdfg(func)
    insert_buffers(g)
    assert check(g) == []
    for args in [(a, b) for a in (-4, 0, 3, 9) for b in (-2, 1, 6)]:
        report = simulate(g, args)
        assert report.output == run_ssa(func, args)
        assert report.leftover == 0


def test_a_compile_resolves_its_latency_map_once(monkeypatch):
    """`compile_source` hands the map as given to `build_cdfg`, which
    resolves it: one resolution per compile, with the same result."""
    calls = []
    monkeypatch.setattr("minihls.build.resolve_latencies", lambda overrides:
                        calls.append(overrides) or resolve_latencies(overrides))
    res = compile_source(corpus.load("power"), corpus.SIGNATURES["power"],
                         latencies={"mul_i64": 6})
    assert calls == [{"mul_i64": 6}]
    assert {c.latency for c in res.cdfg.components
            if c.opcode == "mul_i64"} == {6}
