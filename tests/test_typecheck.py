"""Type inference: promotion nodes, stability, joins, loop fixpoints."""

import pytest

from minihls import corpus, typecheck
from minihls.errors import (
    NoMethodError, Pos, TypeCheckError, UndefinedVarError, UnstableTypeError,
)
from minihls.lattice import IMPL_BY_OPCODE, LatticeType
from minihls.source import parse_source

B, I, F = LatticeType.BOOL, LatticeType.INT64, LatticeType.FLOAT64


def infer_text(text, sig, strict=True, name=None):
    prog = parse_source(text)
    fn = prog.functions[0] if name is None else prog.function(name)
    return typecheck.infer(fn, sig, strict=strict)


def test_corpus_programs_are_type_stable(program):
    tf = infer_text(corpus.load(program), corpus.SIGNATURES[program])
    assert tf.type_stable
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
    assert isinstance(add.left, typecheck.TConvert)
    assert add.left.impl.opcode == "sitofp"
    assert isinstance(add.right, typecheck.TVar)
    assert add.ty == F


def test_division_of_ints_is_float():
    tf = infer_text("function f(a)\n  return a / 2\nend\n", (I,))
    assert tf.return_type == F
    div = tf.body[0].value
    assert div.impl.opcode == "fdiv_f64"
    assert isinstance(div.left, typecheck.TConvert)
    assert isinstance(div.right, typecheck.TConvert)


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


def test_mixed_join_recorded_in_lenient_mode():
    tf = infer_text(MIXED_JOIN, (I,), strict=False)
    assert not tf.type_stable
    assert tf.return_type == LatticeType.TOP


def test_conflicting_return_types_rejected():
    text = ("function f(c)\n"
            "  if c > 0\n    return 1\n  end\n"
            "  return 2.0\nend\n")
    with pytest.raises(UnstableTypeError):
        infer_text(text, (I,))
    tf = infer_text(text, (I,), strict=False)
    assert not tf.type_stable


def test_loop_carried_type_change_is_unstable():
    # x enters the loop as Int64 and leaves an iteration as Float64; the
    # header fixpoint joins them to Top.
    text = ("function f(n)\n"
            "  x = 1\n"
            "  while x < 100.0\n    x = x / 2.0\n  end\n"
            "  return x\nend\n")
    with pytest.raises(UnstableTypeError):
        infer_text(text, (I,))
    assert not infer_text(text, (I,), strict=False).type_stable


def test_loop_fixpoint_stable_float_carries():
    text = ("function f(x)\n"
            "  acc = 0.0\n"
            "  while acc < x\n    acc = acc + 1.5\n  end\n"
            "  return acc\nend\n")
    tf = infer_text(text, (F,))
    assert tf.type_stable and tf.return_type == F


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


def _exact_error(text, sig, strict):
    with pytest.raises(TypeCheckError) as info:
        infer_text(text, sig, strict=strict)
    return info.type, str(info.value)


@pytest.mark.parametrize("strict", [True, False])
def test_loop_condition_checked_before_its_body(strict):
    text = ("function f(a::Int64)\n"
            "  while a\n    a = a + true\n  end\n"
            "  return a\nend\n")
    assert _exact_error(text, (I,), strict) == (
        TypeCheckError, "2:9: condition must be Bool, found Int64")


@pytest.mark.parametrize("strict", [True, False])
def test_condition_non_bool_on_first_trip_rejected(strict):
    # On the first trip x is Int64; only later trips see the Top join with
    # Bool.  The first trip's condition is already wrong in either mode.
    text = ("function f(n::Int64)\n"
            "  x = 1\n  i = 0\n"
            "  while i < n\n"
            "    if x\n      i = i + 1\n    end\n"
            "    i = i + 1\n    x = true\n"
            "  end\n"
            "  return i\nend\n")
    assert _exact_error(text, (I,), strict) == (
        TypeCheckError, "5:8: condition must be Bool, found Int64")


def _node(cls, ty, *fields):
    return cls(ty, Pos(0, 0), *fields)


def _var(ty, name):
    return _node(typecheck.TVar, ty, name)


def _binary(ty, op, opcode, left, right):
    impl = None if opcode is None else IMPL_BY_OPCODE[opcode]
    return _node(typecheck.TBinary, ty, op, impl, left, right)


def _float(node):
    return _node(typecheck.TConvert, F, IMPL_BY_OPCODE["sitofp"], node)


def _assign(target, value):
    return typecheck.TAssign(Pos(0, 0), target, value)


def _count(name):
    return _assign(name, _binary(I, "+", "add_i64", _var(I, name),
                                 _node(typecheck.TIntLit, I, 1)))


def _loop(cond, *body):
    return typecheck.TWhile(Pos(0, 0), cond, body)


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
    assert tf.type_stable and tf.return_type == F
    inner = _loop(
        _binary(B, "<", "cmp_lt_i64", _var(I, "j"), _var(I, "i")),
        _assign("x", _binary(
            F, "+", "fadd_f64",
            _binary(F, "*", "fmul_f64", _var(F, "x"),
                    _float(_node(typecheck.TIntLit, I, 2))),
            _float(_var(I, "j")))),
        _count("j"))
    outer = _loop(
        _binary(B, "<", "cmp_lt_i64", _var(I, "i"), _var(I, "n")),
        _assign("j", _node(typecheck.TIntLit, I, 0)),
        inner,
        _assign("x", _binary(F, "-", "fsub_f64", _var(F, "x"),
                             _float(_var(I, "i")))),
        _count("i"))
    assert tf.body[2] == outer


def test_nested_loop_widening_reaches_the_outer_header():
    # The inner loop turns x from Int64 into Float64, so its header joins x
    # to Top; the outer header then carries Top too, and the kept nodes are
    # those of the walk against the widened headers.
    text = ("function f(n::Int64)\n"
            "  x = 1\n  i = 0\n"
            "  while i < n\n"
            "    y = x\n"
            "    j = 0\n"
            "    while j < n\n      x = x + 0.5\n      j = j + 1\n    end\n"
            "    i = i + 1\n"
            "  end\n"
            "  return i\nend\n")
    with pytest.raises(UnstableTypeError):
        infer_text(text, (I,))
    tf = infer_text(text, (I,), strict=False)
    assert not tf.type_stable and tf.return_type == I
    inner = _loop(
        _binary(B, "<", "cmp_lt_i64", _var(I, "j"), _var(I, "n")),
        _assign("x", _binary(LatticeType.TOP, "+", None, _var(LatticeType.TOP, "x"),
                             _node(typecheck.TFloatLit, F, 0.5))),
        _count("j"))
    outer = _loop(
        _binary(B, "<", "cmp_lt_i64", _var(I, "i"), _var(I, "n")),
        _assign("y", _var(LatticeType.TOP, "x")),
        _assign("j", _node(typecheck.TIntLit, I, 0)),
        inner,
        _count("i"))
    assert tf.body[2] == outer
