"""Lexer and parser tests."""

import pytest

from minihls import source
from minihls.errors import LexError, MissingReturnError, ParseError, Pos


def toks(text):
    return [(t.kind, t.value) for t in source.tokenize(text)
            if t.kind not in ("newline", "eof")]


def test_tokenize_operators_longest_match():
    assert toks("a <= b == c != d") == [
        ("ident", "a"), ("<=", "<="), ("ident", "b"), ("==", "=="),
        ("ident", "c"), ("!=", "!="), ("ident", "d")]


def test_tokenize_numbers():
    assert toks("12 3.5 0.25 7.0") == [
        ("int", 12), ("float", 3.5), ("float", 0.25), ("float", 7.0)]


def test_tokenize_keywords_vs_idents():
    kinds = [k for k, _ in toks("if iffy while whiled true trueish")]
    assert kinds == ["if", "ident", "while", "ident", "true", "ident"]


def test_tokenize_comment_runs_to_end_of_line():
    assert toks("x = 1 # comment with symbols <= &&\ny = 2") == [
        ("ident", "x"), ("=", "="), ("int", 1),
        ("ident", "y"), ("=", "="), ("int", 2)]


def test_tokenize_positions():
    t = source.tokenize("ab\n  cd")
    ab = next(tok for tok in t if tok.value == "ab")
    cd = next(tok for tok in t if tok.value == "cd")
    assert (ab.pos.line, ab.pos.col) == (1, 1)
    assert (cd.pos.line, cd.pos.col) == (2, 3)


def test_tokenize_rejects_stray_character():
    with pytest.raises(LexError) as exc:
        source.tokenize("x = 1 $ 2")
    assert "$" in str(exc.value)


@pytest.mark.parametrize("literal, col, char", [("²", 16, "²"), ("1٣", 17, "٣")],
                         ids=["superscript", "arabic_indic"])
def test_numbers_take_ascii_digits_only(literal, col, char):
    with pytest.raises(LexError) as exc:
        source.tokenize(f"function f(a)\n    return a + {literal}\nend\n")
    assert exc.value.pos == Pos(2, col)
    assert exc.value.message == f"unexpected character {char!r}"
    assert toks("x² a٣") == [("ident", "x²"), ("ident", "a٣")]


@pytest.mark.parametrize("literal, col, message", [
    ("1.e5", 17, "expected digit after decimal point"),
    ("1e", 18, "malformed exponent in numeric literal"),
    ("1.2.3", 19, "malformed numeric literal (second decimal point)")])
def test_malformed_numbers_are_reported_where_they_go_wrong(literal, col, message):
    with pytest.raises(LexError) as exc:
        source.tokenize(f"function f(a)\n    return a + {literal}\nend\n")
    assert (exc.value.pos, exc.value.message) == (Pos(2, col), message)


def test_parse_simple_function():
    prog = source.parse_source(
        "function add(a, b)\n  return a + b\nend\n")
    fn = prog.function("add")
    assert [p.name for p in fn.params] == ["a", "b"]
    assert isinstance(fn.body[0], source.Return)


def test_parse_precedence():
    prog = source.parse_source(
        "function f(a, b, c)\n  return a + b * c < a && true\nend\n")
    ret = prog.function("f").body[0]
    # && binds loosest, then <, then +, then *
    assert isinstance(ret.value, source.Binary) and ret.value.op == "&&"
    cmp = ret.value.left
    assert cmp.op == "<"
    assert cmp.left.op == "+"
    assert cmp.left.right.op == "*"


def test_parse_unary_binds_tighter_than_mul():
    prog = source.parse_source("function f(a)\n  return -a * a\nend\n")
    ret = prog.function("f").body[0]
    assert ret.value.op == "*"
    assert isinstance(ret.value.left, source.Unary)


def test_parse_if_elseif_else_chain():
    text = ("function f(a)\n"
            "  if a > 0\n    return 1\n"
            "  elseif a < 0\n    return -1\n"
            "  else\n    return 0\n  end\nend\n")
    stmt = source.parse_source(text).function("f").body[0]
    assert isinstance(stmt, source.If)
    assert len(stmt.elifs) == 1
    assert stmt.orelse is not None


def test_parse_annotations():
    prog = source.parse_source(
        "function f(a::Int64, b::Float64)\n  return b\nend\n")
    assert [p.annotation for p in prog.function("f").params] == \
        ["Int64", "Float64"]


def test_parse_missing_return_rejected():
    text = ("function f(a)\n"
            "  if a > 0\n    return 1\n  end\nend\n")
    with pytest.raises(MissingReturnError):
        source.parse_source(text)


def test_parse_return_on_all_paths_accepted():
    text = ("function f(a)\n"
            "  if a > 0\n    return 1\n"
            "  else\n    return 2\n  end\nend\n")
    source.parse_source(text)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        source.parse_source("function f(a)\n  x = \nend\n")
    assert exc.value.pos is not None
    assert exc.value.pos.line == 2


def test_parse_rejects_duplicate_param():
    with pytest.raises(ParseError):
        source.parse_source("function f(a, a)\n  return a\nend\n")


def test_parse_rejects_statement_after_end_of_function():
    with pytest.raises(ParseError):
        source.parse_source("function f(a)\n  return a\nend\nreturn 1\n")


def test_int_literal_range():
    source.parse_source("function f()\n  return 9223372036854775807\nend\n")
    with pytest.raises(LexError):
        source.parse_source("function f()\n  return 9223372036854775808\nend\n")


def test_roundtrip_through_printer(program):
    from minihls import corpus
    text = corpus.load(program)
    prog = source.parse_source(text)
    printed = source.print_program(prog)
    reparsed = source.parse_source(printed)
    assert source.print_program(reparsed) == printed


def test_roundtrip_preserves_precedence_parens():
    text = "function f(a, b)\n  return (a + b) * a\nend\n"
    printed = source.print_program(source.parse_source(text))
    assert "(a + b) * a" in printed


def returning(expr):
    return f"function f(a::Int64)\n  return {expr}\nend\n"


DEEP = source.MAX_NESTING
DEEPEST_ACCEPTED = {
    "parentheses": ("(" * DEEP + "a" + ")" * DEEP, 3),
    # The first a sits under DEEP operators.
    "chain": (" + ".join(["a"] * (DEEP + 1)), 3 * (DEEP + 1)),
}


@pytest.mark.parametrize("name", sorted(DEEPEST_ACCEPTED))
def test_deepest_accepted_expression_runs_everywhere(name):
    from minihls.interp import run_source, run_ssa
    from minihls.pipeline import compile_source
    from minihls.sim import simulate
    expr, want = DEEPEST_ACCEPTED[name]
    res = compile_source(returning(expr))
    assert run_source(res.func, (3,)) == want
    assert run_ssa(res.ssa_unopt, (3,)) == want
    assert run_ssa(res.ssa, (3,)) == want
    assert simulate(res.cdfg, (3,)).output == want


@pytest.mark.parametrize("expr, col", [
    ("(" * (DEEP + 1) + "a" + ")" * (DEEP + 1), 11 + DEEP),
    ("(" * 3000 + "a" + ")" * 3000, 11 + DEEP),
    (" + ".join(["a"] * (DEEP + 2)), 12 + 4 * DEEP),
    (" + ".join(["a"] * 5000), 12 + 4 * DEEP),
    ("-" * (DEEP + 1) + "a", 11 + DEEP),
    ("a * " + "(" * DEEP + "a" + ")" * DEEP, 14 + DEEP),
], ids=["parentheses", "3000_parentheses", "chain", "5000_term_chain",
        "unary", "parentheses_under_an_operator"])
def test_deeper_expression_is_a_parse_error(expr, col):
    with pytest.raises(ParseError) as exc:
        source.parse_source(returning(expr))
    assert exc.value.message == "expression nested too deeply"
    assert (exc.value.pos.line, exc.value.pos.col) == (2, col)
