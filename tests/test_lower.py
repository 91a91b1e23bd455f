"""AST to SSA lowering: block shapes, parameters, verification."""

from minihls import corpus, typecheck
from minihls.interp import run_source, run_ssa
from minihls.ir import CondGoto, Goto, Ret, verify
from minihls.lattice import LatticeType
from minihls.lower import lower
from minihls.source import parse_source

I, F = LatticeType.INT64, LatticeType.FLOAT64

EXPECTED_BLOCKS = {"if_else": 5, "power": 4, "newton_raphson": 7}


def lower_text(text, sig, name=None):
    prog = parse_source(text)
    fn = prog.functions[0] if name is None else prog.function(name)
    return lower(typecheck.infer(fn, sig))


def test_corpus_block_counts(program):
    func = lower_text(corpus.load(program), corpus.SIGNATURES[program])
    assert len(func.blocks) == EXPECTED_BLOCKS[program]


def test_corpus_lowering_verifies(program):
    func = lower_text(corpus.load(program), corpus.SIGNATURES[program])
    assert verify(func) == []


def test_all_returning_if_has_no_join_block():
    text = ("function f(a)\n"
            "  if a > 0\n    return 1\n"
            "  else\n    return 2\n  end\nend\n")
    func = lower_text(text, (I,))
    # entry + two return arms; nothing to join
    assert len(func.blocks) == 3
    assert sum(isinstance(b.terminator, Ret) for b in func.blocks) == 2


def test_triangle_join_param_only_for_changed_vars():
    text = ("function f(a, b)\n"
            "  x = a\n"
            "  if a > b\n    x = b\n  end\n"
            "  return x + b\nend\n")
    func = lower_text(text, (I, I))
    assert verify(func) == []
    joins = [b for b in func.blocks if b.params]
    assert len(joins) == 1
    # only x changed across the arms, so exactly one join parameter
    assert len(joins[0].params) == 1


def test_if_with_identical_arms_needs_no_params():
    text = ("function f(a)\n"
            "  if a > 0\n    y = 1\n  else\n    y = 1\n  end\n"
            "  return a\nend\n")
    func = lower_text(text, (I,))
    assert verify(func) == []
    # y's value id differs per arm, so y still joins; a flows through
    joins = [b for b in func.blocks if b.params]
    assert all(len(b.params) <= 1 for b in joins)


def test_while_carries_only_assigned_live_vars():
    func = lower_text(corpus.load("power"), corpus.SIGNATURES["power"])
    headers = [b for b in func.blocks
               if isinstance(b.terminator, CondGoto) and b.params]
    assert len(headers) == 1
    # acc and n are reassigned in the loop; x is read-only and not carried
    assert len(headers[0].params) == 2


def test_loop_back_edge_points_at_header():
    func = lower_text(corpus.load("power"), corpus.SIGNATURES["power"])
    header = next(b for b in func.blocks
                  if isinstance(b.terminator, CondGoto) and b.params)
    back = [b for b in func.blocks
            if isinstance(b.terminator, Goto) and b.terminator.target == header.id
            and b.id > header.id]
    assert len(back) == 1


def test_each_literal_occurrence_gets_own_const():
    text = "function f(a)\n  return a + 1 + 1\nend\n"
    func = lower_text(text, (I,))
    consts = [ins for b in func.blocks for ins in b.instrs
              if type(ins.op).__name__ == "ConstOp"]
    assert len(consts) == 2


def test_nested_control_flow_verifies():
    text = ("function f(n)\n"
            "  total = 0\n"
            "  while n > 0\n"
            "    if n % 2 == 0\n      total = total + n\n"
            "    else\n      total = total + 1\n    end\n"
            "    n = n - 1\n"
            "  end\n"
            "  return total\nend\n")
    func = lower_text(text, (I,))
    assert verify(func) == []
    got = run_ssa(func, (6,))
    assert got == run_source(parse_source(text).functions[0], (6,))


def test_lowered_matches_source_semantics_spotcheck(program, sweeps):
    text = corpus.load(program)
    fn = parse_source(text).functions[0]
    func = lower_text(text, corpus.SIGNATURES[program])
    for point in sweeps[program][:8]:
        assert run_ssa(func, point) == run_source(fn, point)
