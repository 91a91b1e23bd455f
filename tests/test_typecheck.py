"""Type inference: promotion nodes, stability, joins, loop fixpoints."""

import pytest

from minihls import corpus, typecheck
from minihls.errors import (
    NoMethodError, Pos, TypeCheckError, UndefinedVarError, UnstableTypeError,
)
from minihls.lattice import IMPL_BY_OPCODE, LatticeType
from minihls.source import Assign, If, Return, While, parse_source

B, I, F = LatticeType.BOOL, LatticeType.INT64, LatticeType.FLOAT64


def infer_text(text, sig, name=None):
    prog = parse_source(text)
    fn = prog.functions[0] if name is None else prog.function(name)
    return typecheck.infer(fn, sig)


def test_corpus_programs_are_type_stable(program):
    tf = infer_text(corpus.load(program), corpus.SIGNATURES[program])
    assert tf.return_type.is_concrete


def test_return_type_follows_signature():
    text = "function f(a, b)\n  return a + b\nend\n"
    assert infer_text(text, (I, I)).return_type == I
    assert infer_text(text, (F, F)).return_type == F
    assert infer_text(text, (I, F)).return_type == F


def test_promotion_inserts_convert_node_on_int_side():
    tf = infer_text("function f(a, b)\n  return a + b\nend\n", (I, F))
    ret = tf.body[0]
    add = ret.value
    left, right = add.args
    assert isinstance(left, typecheck.TCall)
    assert left.impl.opcode == "sitofp"
    assert isinstance(right, typecheck.TVar)
    assert add.ty == F


def test_division_of_ints_is_float():
    tf = infer_text("function f(a)\n  return a / 2\nend\n", (I,))
    assert tf.return_type == F
    div = tf.body[0].value
    assert div.impl.opcode == "fdiv_f64"
    assert [a.impl.opcode for a in div.args] == ["sitofp", "sitofp"]


def test_modulo_requires_ints():
    infer_text("function f(a)\n  return a % 3\nend\n", (I,))
    with pytest.raises(NoMethodError):
        infer_text("function f(a)\n  return a % 3\nend\n", (F,))


def test_bool_arithmetic_rejected():
    with pytest.raises(NoMethodError):
        infer_text("function f(a, b)\n  return a + b\nend\n", (B, I))


def test_condition_must_be_bool():
    with pytest.raises(TypeCheckError):
        infer_text("function f(a)\n  if a\n    return 1\n  end\n"
                   "  return 0\nend\n", (I,))


def test_undefined_variable():
    with pytest.raises(UndefinedVarError):
        infer_text("function f(a)\n  return a + zz\nend\n", (I,))


MIXED_JOIN = ("function f(c)\n"
              "  if c > 0\n    x = 1\n  else\n    x = 2.0\n  end\n"
              "  return x\nend\n")


def test_mixed_join_rejected_in_strict_mode():
    with pytest.raises(UnstableTypeError):
        infer_text(MIXED_JOIN, (I,))


def test_conflicting_return_types_rejected():
    text = ("function f(c)\n"
            "  if c > 0\n    return 1\n  end\n"
            "  return 2.0\nend\n")
    with pytest.raises(UnstableTypeError):
        infer_text(text, (I,))


def test_loop_carried_type_change_is_unstable():
    # x enters the loop as Int64 and leaves an iteration as Float64; the
    # header fixpoint joins them to Top.
    text = ("function f(n)\n"
            "  x = 1\n"
            "  while x < 100.0\n    x = x / 2.0\n  end\n"
            "  return x\nend\n")
    with pytest.raises(UnstableTypeError):
        infer_text(text, (I,))


def test_loop_fixpoint_stable_float_carries():
    text = ("function f(x)\n"
            "  acc = 0.0\n"
            "  while acc < x\n    acc = acc + 1.5\n  end\n"
            "  return acc\nend\n")
    assert infer_text(text, (F,)).return_type == F


def test_variable_defined_on_one_arm_goes_out_of_scope():
    text = ("function f(c)\n"
            "  if c > 0\n    y = 1\n  end\n"
            "  return y\nend\n")
    with pytest.raises(UndefinedVarError):
        infer_text(text, (I,))


def test_annotation_conflicting_with_signature():
    text = "function f(a::Float64)\n  return a\nend\n"
    with pytest.raises(TypeCheckError):
        infer_text(text, (I,))
    assert infer_text(text, (F,)).return_type == F


def test_signature_arity_mismatch():
    with pytest.raises(TypeCheckError):
        infer_text("function f(a)\n  return a\nend\n", (I, I))


def test_logical_ops_evaluate_both_sides_strictly():
    tf = infer_text("function f(a, b)\n  return a > 0 && b > 0\nend\n", (I, I))
    top = tf.body[0].value
    assert top.impl.opcode == "and_i1"
    assert top.ty == B


def _exact_error(text, sig):
    with pytest.raises(TypeCheckError) as info:
        infer_text(text, sig)
    return info.type, str(info.value)


def test_loop_condition_checked_before_its_body():
    text = ("function f(a::Int64)\n"
            "  while a\n    a = a + true\n  end\n"
            "  return a\nend\n")
    assert _exact_error(text, (I,)) == (
        TypeCheckError, "2:9: condition must be Bool, found Int64")


def test_condition_non_bool_on_first_trip_rejected():
    # On the first trip x is Int64; only later trips see the Top join with
    # Bool.  The first trip's condition is already wrong.
    text = ("function f(n::Int64)\n"
            "  x = 1\n  i = 0\n"
            "  while i < n\n"
            "    if x\n      i = i + 1\n    end\n"
            "    i = i + 1\n    x = true\n"
            "  end\n"
            "  return i\nend\n")
    assert _exact_error(text, (I,)) == (
        TypeCheckError, "5:8: condition must be Bool, found Int64")


def _node(cls, ty, *fields):
    return cls(ty, Pos(0, 0), *fields)


def _var(ty, name):
    return _node(typecheck.TVar, ty, name)


def _binary(ty, opcode, left, right):
    return _node(typecheck.TCall, ty, IMPL_BY_OPCODE[opcode], (left, right))


def _float(node):
    return _node(typecheck.TCall, F, IMPL_BY_OPCODE["sitofp"], (node,))


def _assign(target, value):
    return Assign(target, value)


def _count(name):
    return _assign(name, _binary(I, "add_i64", _var(I, name),
                                 _node(typecheck.TConst, I, 1)))


def _loop(cond, *body):
    return While(cond, body)


NESTED = ("function f(n::Int64)\n"
          "  x = 0.5\n  i = 0\n"
          "  while i < n\n"
          "    j = 0\n"
          "    while j < i\n      x = x * 2 + j\n      j = j + 1\n    end\n"
          "    x = x - i\n    i = i + 1\n"
          "  end\n"
          "  return x\nend\n")


def test_nested_loops_carrying_one_variable_build_final_nodes():
    # Both loops carry x (Float64); the inner loop's bound is the outer
    # counter, so each header holds {n, x, i} or {n, x, i, j}, all concrete.
    tf = infer_text(NESTED, (I,))
    assert tf.return_type == F
    inner = _loop(
        _binary(B, "cmp_lt_i64", _var(I, "j"), _var(I, "i")),
        _assign("x", _binary(
            F, "fadd_f64",
            _binary(F, "fmul_f64", _var(F, "x"),
                    _float(_node(typecheck.TConst, I, 2))),
            _float(_var(I, "j")))),
        _count("j"))
    outer = _loop(
        _binary(B, "cmp_lt_i64", _var(I, "i"), _var(I, "n")),
        _assign("j", _node(typecheck.TConst, I, 0)),
        inner,
        _assign("x", _binary(F, "fsub_f64", _var(F, "x"),
                             _float(_var(I, "i")))),
        _count("i"))
    assert tf.body[2] == outer


def test_nested_loop_widening_reaches_the_outer_header():
    # The inner loop turns x from Int64 into Float64 without reading it, so
    # its header joins x to Top unobserved; the outer header then carries
    # Top too, and the outer body's read of x is the one rejected.
    text = ("function f(n::Int64)\n"
            "  x = 1\n  i = 0\n"
            "  while i < n\n"
            "    y = x\n"
            "    j = 0\n"
            "    while j < n\n      x = 0.5\n      j = j + 1\n    end\n"
            "    i = i + 1\n"
            "  end\n"
            "  return i\nend\n")
    with pytest.raises(UnstableTypeError) as info:
        infer_text(text, (I,))
    assert info.value.pos == Pos(5, 9)


def test_statements_after_a_return_are_dropped_before_typing():
    from minihls.interp import run_source, run_ssa
    from minihls.pipeline import compile_source
    from minihls.sim import simulate
    text = ("function f(a::Int64)\n"
            "  if a > 0\n    return 1\n    a = a + 1\n  end\n"
            "  return a\n  a = 3\nend\n")
    res = compile_source(text)
    assert res.typed.body == (
        If(_binary(B, "cmp_gt_i64", _var(I, "a"), _node(typecheck.TConst, I, 0)),
           (Return(_node(typecheck.TConst, I, 1)),), (), None),
        Return(_var(I, "a")))
    for a in range(-3, 4):
        want = 1 if a > 0 else a
        assert run_source(res.func, (a,)) == want
        assert run_ssa(res.ssa_unopt, (a,)) == want
        assert run_ssa(res.ssa, (a,)) == want
        assert simulate(res.cdfg, (a,)).output == want


def test_entry_signature_must_be_concrete():
    fn = parse_source("function f(x)\n  return x\nend\n").functions[0]
    with pytest.raises(TypeCheckError) as info:
        typecheck.infer(fn, (LatticeType.TOP,))
    assert info.value.message == "entry signature type for 'x' must be concrete, got Top"
