"""SSA verifier and printer tests on hand-built functions, and the
verifier's record on compiled ones."""

import dataclasses
import random

import pytest
from test_passes import narrow_ladder, wide_ladder

from minihls import corpus, ir
from minihls.build import build_cdfg
from minihls.errors import MiniHlsError
from minihls.interp import run_ssa
from minihls.ir import (
    Block, CondGoto, ConstOp, Goto, Instr, Ret, SSAFunction, SelectOp,
    dominators, predecessor_edges, print_function, reachable_blocks,
    successor_edges, verify,
)
from minihls.lattice import IMPL_BY_OPCODE, LatticeType
from minihls.passes import optimize
from minihls.pipeline import compile_source

B, I, F = LatticeType.BOOL, LatticeType.INT64, LatticeType.FLOAT64

ADD = IMPL_BY_OPCODE["add_i64"]
GT = IMPL_BY_OPCODE["cmp_gt_i64"]


def straightline():
    """fn f(v0: i64) -> i64 { v1 = 1; v2 = v0 + v1; ret v2 }"""
    b0 = Block(0, (), [
        Instr(1, I, ConstOp(1)),
        Instr(2, I, ADD, (0, 1)),
    ], Ret(2))
    return SSAFunction("f", ((0, I),), I, [b0], next_value=3, next_block=1)


def diamond():
    """Branch on v0 > 0, arms pass different constants to a join param."""
    b0 = Block(0, (), [
        Instr(1, I, ConstOp(0)),
        Instr(2, B, GT, (0, 1)),
    ], CondGoto(2, 1, (), 2, ()))
    b1 = Block(1, (), [Instr(3, I, ConstOp(10))], Goto(3, (3,)))
    b2 = Block(2, (), [Instr(4, I, ConstOp(20))], Goto(3, (4,)))
    b3 = Block(3, ((5, I),), [], Ret(5))
    return SSAFunction("g", ((0, I),), I, [b0, b1, b2, b3],
                       next_value=6, next_block=4)


def test_straightline_verifies():
    assert verify(straightline()) == []


def test_diamond_verifies():
    assert verify(diamond()) == []


def test_print_straightline():
    assert print_function(straightline()) == (
        "fn f(v0: i64) -> i64\n"
        "b0:\n"
        "  v1 = const 1 : i64\n"
        "  v2 = add_i64 v0, v1 : i64\n"
        "  ret v2\n")


def test_print_diamond_shows_params_and_edges():
    text = print_function(diamond())
    assert "br v2, b1, b2\n" in text
    assert "b3(v5: i64):\n" in text
    assert "  goto b3(v3)\n" in text


def test_print_literals():
    b0 = Block(0, (), [
        Instr(0, F, ConstOp(2.5)),
        Instr(1, B, ConstOp(True)),
        Instr(2, B, ConstOp(False)),
        Instr(3, F, SelectOp(), (1, 0, 0)),
    ], Ret(3))
    f = SSAFunction("h", (), F, [b0], next_value=4, next_block=1)
    text = print_function(f)
    assert "v0 = const 2.5 : f64" in text
    assert "v1 = const true : i1" in text
    assert "v2 = const false : i1" in text
    assert "v3 = select v1, v0, v0 : f64" in text
    assert verify(f) == []


def assert_caught(func, fragment):
    problems = verify(func)
    assert problems, f"expected a violation mentioning {fragment!r}"
    assert any(fragment in p for p in problems), problems


def test_verify_catches_double_definition():
    f = straightline()
    f.entry.instrs.append(Instr(1, I, ConstOp(2)))
    f.entry.terminator = Ret(1)
    assert_caught(f, "defined more than once")


def test_verify_catches_undefined_use():
    f = straightline()
    f.entry.instrs[1] = Instr(2, I, ADD, (0, 99))
    assert_caught(f, "undefined")


def test_verify_catches_use_before_definition():
    f = straightline()
    f.entry.instrs.reverse()  # add now reads the const before it exists
    assert_caught(f, "before its definition")


def test_verify_catches_sibling_arm_use():
    f = diamond()
    # b2 reads v3, which is defined only along the b1 arm
    f.blocks[2].instrs[0] = Instr(4, I, ADD, (3, 3))
    assert_caught(f, "dominate")


def test_verify_catches_arg_count_mismatch():
    f = diamond()
    f.blocks[1].terminator = Goto(3, ())
    assert_caught(f, "declares 1 parameter")


def test_verify_catches_arg_type_mismatch():
    f = diamond()
    f.blocks[1].instrs[0] = Instr(3, F, ConstOp(1.0))
    assert_caught(f, "parameter")


def test_verify_catches_non_bool_condition():
    f = diamond()
    f.entry.terminator = CondGoto(1, 1, (), 2, ())  # v1 is i64
    assert_caught(f, "Bool")


def test_verify_catches_return_type_mismatch():
    f = straightline()
    f.entry.instrs.append(Instr(3, B, ConstOp(True)))
    f.entry.terminator = Ret(3)
    assert_caught(f, "return")


def test_verify_catches_unreachable_block():
    f = straightline()
    f.blocks.append(Block(1, (), [], Ret(2)))
    f.next_block = 2
    assert_caught(f, "unreachable")


def test_verify_catches_entry_with_params():
    f = straightline()
    f.blocks[0] = Block(0, ((9, I),), f.entry.instrs, f.entry.terminator)
    assert_caught(f, "entry")


def test_verify_catches_edge_into_entry():
    f = straightline()
    f.entry.terminator = Goto(0, ())
    assert_caught(f, "entry")


def test_verify_catches_missing_terminator():
    f = straightline()
    f.entry.terminator = None
    assert_caught(f, "terminator")


def test_verify_catches_const_value_kind_mismatch():
    f = straightline()
    f.entry.instrs[0] = Instr(1, I, ConstOp(True))  # bool payload, i64 type
    assert_caught(f, "const")
    f = straightline()
    f.entry.instrs[0] = Instr(1, I, ConstOp(1.0))
    assert_caught(f, "const")


def test_verify_catches_select_arm_mismatch():
    b0 = Block(0, (), [
        Instr(1, B, ConstOp(True)),
        Instr(2, F, ConstOp(1.0)),
        Instr(3, I, SelectOp(), (1, 0, 2)),  # f64 arm feeding i64 select
    ], Ret(3))
    f = SSAFunction("s", ((0, I),), I, [b0], next_value=4, next_block=1)
    assert_caught(f, "select")


def test_dominators_of_diamond():
    doms = dominators(diamond())
    assert doms[0] == {0}
    assert doms[1] == {0, 1}
    assert doms[2] == {0, 2}
    assert doms[3] == {0, 3}


def test_clone_is_independent():
    f = diamond()
    g = f.clone()
    g.blocks[1].instrs.clear()
    assert len(f.blocks[1].instrs) == 1


def reference_dominators(func):
    """The set-based fixpoint that `verify` used before it switched to
    immediate dominators, run over the reachable blocks only."""
    live = reachable_blocks(func)
    preds = {b: [p for p, _ in es if p in live]
             for b, es in predecessor_edges(func).items() if b in live}
    entry = func.entry.id
    dom = {b: set(live) for b in live}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for b in live - {entry}:
            new = set.intersection(*(dom[p] for p in preds[b])) | {b}
            if new != dom[b]:
                dom[b], changed = new, True
    return dom


def random_cfg(rng):
    """Blocks b0..bn-1: block k defines v(k+1) and reads two values of
    random blocks; v0: Bool is the parameter every branch tests."""
    n = rng.randint(2, 9)
    blocks = []
    for k in range(n):
        uses = (rng.randrange(n) + 1, rng.randrange(n) + 1)
        instrs = [Instr(k + 1, I, ConstOp(k)),
                  Instr(n + 1 + k, I, ADD, uses)]
        r = rng.random()
        if r < 0.2:
            term = Ret(k + 1)
        elif r < 0.5:
            term = Goto(rng.randrange(1, n))
        else:
            then = rng.randrange(1, n)
            other = then if rng.random() < 0.15 else rng.randrange(1, n)
            term = CondGoto(0, then, (), other, ())
        blocks.append(Block(k, (), instrs, term))
    return SSAFunction("r", ((0, B),), I, blocks,
                       next_value=2 * n + 1, next_block=n)


def successors(term):
    return [t for t, _ in successor_edges(term)]


def test_dominance_violations_match_the_set_fixpoint():
    seen = set()
    for seed in range(300):
        f = random_cfg(random.Random(seed))
        n = len(f.blocks)
        dom = reference_dominators(f)
        expected = []
        for b in f.blocks:
            for v in b.instrs[1].args:
                d = v - 1  # v(d+1) is defined in block d
                if b.id in dom and d != b.id and d not in dom[b.id]:
                    expected.append(
                        f"b{b.id}: v{n + 1 + b.id} uses v{v} whose definition "
                        f"in b{d} does not dominate b{b.id}")
        got = [v for v in verify(f) if "dominate" in v]
        assert got == expected, f"seed {seed}"
        for b in f.blocks:
            t = b.terminator
            seen.add("unreachable" if b.id not in dom else "reachable")
            if isinstance(t, (Goto, CondGoto)) and b.id in successors(t):
                seen.add("self-loop")
            if isinstance(t, CondGoto) and t.then_target == t.else_target:
                seen.add("both edges to one block")
            if b.id in dom and any(s in dom[b.id] for s in successors(t)):
                seen.add("loop")
    assert seen == {"reachable", "unreachable", "self-loop",
                    "both edges to one block", "loop"}


def test_edge_from_unreachable_block_does_not_hide_dominance():
    # b2 is unreachable and jumps into b3, so the old fixpoint, which
    # counted that edge, found only {b3} dominating b3 and flagged b3's
    # use of v1.  b1 does dominate b3 along every path from the entry.
    b0 = Block(0, (), [], Goto(1))
    b1 = Block(1, (), [Instr(1, I, ConstOp(1))], Goto(3))
    b2 = Block(2, (), [], Goto(3))
    b3 = Block(3, (), [Instr(2, I, ADD, (1, 1))], Ret(2))
    f = SSAFunction("u", (), I, [b0, b1, b2, b3], next_value=3, next_block=4)
    assert verify(f) == ["b2 is unreachable"]
    assert dominators(f)[3] == {0, 1, 3}


# -- the verifier's record: each distinct IR is walked once -----------------


@pytest.mark.parametrize("record", [Instr(1, I, ConstOp(1)), Goto(1, (2,)),
                                   CondGoto(0, 1, (), 2, ()), Ret(2)],
                         ids=lambda r: type(r).__name__)
def test_ir_records_are_frozen(record):
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))


def count_walks(monkeypatch):
    """Full verifier walks, counted as dominance computations."""
    walks = []
    real = ir._dominance
    monkeypatch.setattr(ir, "_dominance", lambda *a: walks.append(1) or real(*a))
    return walks


def compile_shape(shape):
    if shape in corpus.PROGRAMS:
        return compile_source(corpus.load(shape), corpus.SIGNATURES[shape])
    return compile_source({"narrow": narrow_ladder, "wide": wide_ladder}[shape](40))


# Lowering's output is walked, then each pass application that changed the
# IR; the clone `optimize` checks first and the function `build_cdfg` gets
# are the ones already walked.
@pytest.mark.parametrize("shape, walks", [("narrow", 3), ("wide", 1),
                                          ("if_else", 2), ("power", 1),
                                          ("newton_raphson", 3)])
def test_a_compile_walks_each_distinct_ir_once(shape, walks, monkeypatch):
    counted = count_walks(monkeypatch)
    res = compile_shape(shape)
    assert len(counted) == walks
    point = tuple(1.0 if t == F else 1 for t in res.sig)
    for func in (res.ssa, res.ssa_unopt):  # run_ssa adds no walk
        run_ssa(func, point)
    assert len(counted) == walks


def test_a_clone_shares_the_record():
    f = straightline()
    assert verify(f) == []
    assert f.clone().checked is f.checked


def test_a_replaced_instruction_is_walked_again(monkeypatch):
    res = compile_shape("power")
    walks = count_walks(monkeypatch)
    block = next(b for b in res.ssa.blocks if b.instrs)
    ins = block.instrs[0]
    block.instrs[0] = dataclasses.replace(ins)  # equal, but another object
    assert run_ssa(res.ssa, (2, 10)) == 1024
    assert len(walks) == 1
    assert run_ssa(res.ssa, (2, 10)) == 1024 and verify(res.ssa) == []
    assert len(walks) == 1


def test_a_breaking_edit_is_rejected_everywhere():
    res = compile_shape("power")
    res.ssa.blocks[-1].terminator = Ret(res.ssa.next_value + 1)  # undefined
    for stage in (optimize, build_cdfg, lambda f: run_ssa(f, (2, 3))):
        with pytest.raises(MiniHlsError, match="undefined value"):
            stage(res.ssa)


def test_an_unknown_opcode_is_rejected():
    f = straightline()
    bogus = dataclasses.replace(ADD, opcode="bogus_i64")
    f.entry.instrs[1] = dataclasses.replace(f.entry.instrs[1], op=bogus)
    assert verify(f) == ["v2: unknown opcode 'bogus_i64'"]
    for stage in (build_cdfg, lambda f: run_ssa(f, (1,))):
        with pytest.raises(MiniHlsError, match="unknown opcode 'bogus_i64'"):
            stage(f)
