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
    assert isinstance(ret.value, source.Call) and ret.value.op == "&&"
    cmp = ret.value.args[0]
    assert cmp.op == "<"
    assert cmp.args[0].op == "+"
    assert cmp.args[0].args[1].op == "*"


def test_parse_unary_binds_tighter_than_mul():
    prog = source.parse_source("function f(a)\n  return -a * a\nend\n")
    ret = prog.function("f").body[0]
    assert ret.value.op == "*"
    assert isinstance(ret.value.args[0], source.Call) and len(ret.value.args[0].args) == 1


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


# ---------------------------------------------------------------------------
# The scanner against the character-by-character reference lexer
# ---------------------------------------------------------------------------


def lex(tokenizer, text):
    """The tokens, or the LexError's message and position."""
    try:
        return tokenizer(text)
    except LexError as e:
        return (e.message, e.pos)


def load_ladder_generator():
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "bench" / "ladder.py"
    spec = importlib.util.spec_from_file_location("ladder", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ladder_program


def test_scanner_matches_the_reference_on_corpus_ladders_and_mutants():
    from lex_reference import reference_tokenize
    from test_mutants import all_mutants
    from minihls import corpus
    ladder = load_ladder_generator()
    texts = [corpus.load(name) for name in corpus.PROGRAMS]
    texts += [ladder(n, wide, seed) for n in range(1, 9) for wide in (False, True)
              for seed in (0, 1, 2)]
    texts += [text for _, text in all_mutants()]
    for text in texts:
        assert lex(source.tokenize, text) == lex(reference_tokenize, text), text


RANDOM_ALPHABET = (" \t\r\n#0123456789.eE+-" + ":<>=!&|*/%(),;"
                   + "abcxyzABCXYZ_" + "éª²٣Ⅷ½$")
NUMBER_ALPHABET = "0123456789.eE+- \nx"  # malformed numbers are common here


def test_scanner_matches_the_reference_on_random_strings():
    import random
    from lex_reference import reference_tokenize
    rng = random.Random(17)
    outcomes = {}
    for _ in range(20000):
        alphabet = rng.choice((RANDOM_ALPHABET, NUMBER_ALPHABET))
        text = "".join(rng.choices(alphabet, k=rng.randint(0, 16)))
        got = lex(source.tokenize, text)
        assert got == lex(reference_tokenize, text), repr(text)
        key = " ".join(got[0].split()[:2]) if isinstance(got, tuple) else "tokens"
        outcomes[key] = outcomes.get(key, 0) + 1
    # the tokens and each error but the Int64 range occur often
    assert set(outcomes) == {"tokens", "unexpected character", "expected digit",
                             "malformed exponent", "malformed numeric"}
    assert min(outcomes.values()) > 100, outcomes


@pytest.mark.parametrize("text, want", [
    ("99999999999999999999", ("integer literal 99999999999999999999 out of Int64 range",
                              Pos(1, 1))),
    ("a = 1e+\n", ("malformed exponent in numeric literal", Pos(1, 8))),
    ("a = 1.5e3.", ("malformed numeric literal (second decimal point)", Pos(1, 10))),
    ("½", ("unexpected character '½'", Pos(1, 1))),
    ("x\tⅧ", ("unexpected character 'Ⅷ'", Pos(1, 3)))])
def test_scanner_reports_lexical_errors_where_the_reference_does(text, want):
    from lex_reference import reference_tokenize
    assert lex(source.tokenize, text) == lex(reference_tokenize, text) == want


def test_tab_and_carriage_return_are_one_column_each():
    t = source.tokenize("a\t\r b\n\n  # note\n\nc # last")
    assert [(tok.kind, tok.pos) for tok in t] == [
        ("ident", Pos(1, 1)), ("ident", Pos(1, 5)), ("newline", Pos(1, 6)),
        ("ident", Pos(5, 1)), ("eof", Pos(5, 9))]


def test_token_counts_and_parse_match_the_tracer_contract(program):
    from minihls import corpus
    text = corpus.load(program)
    tokens = source.tokenize(text)
    assert len(tokens) == {"if_else": 44, "power": 37, "newton_raphson": 72}[program]
    assert source.parse(tokens) == source.parse_source(text)


# The corpus has no unary operator: (expression, its printed text, the
# same in Python), with a and b Int64 and c Bool.
UNARY_ROUNDTRIPS = [
    ("-a * a", "-a * a", lambda a, b, c: -a * a),
    ("-(a * b)", "-(a * b)", lambda a, b, c: -(a * b)),
    ("a - -b", "a - -b", lambda a, b, c: a - -b),
    ("- -a", "--a", lambda a, b, c: - -a),
    ("!(a < b) || !c", "!(a < b) || !c", lambda a, b, c: not a < b or not c)]


@pytest.mark.parametrize("expr, printed, want", UNARY_ROUNDTRIPS,
                         ids=[e for e, _, _ in UNARY_ROUNDTRIPS])
def test_unary_operators_roundtrip_through_the_printer(expr, printed, want):
    from minihls.interp import run_source
    text = f"function f(a::Int64, b::Int64, c::Bool)\n  return {expr}\nend\n"
    prog = source.parse_source(text)
    out = source.print_program(prog)
    assert out.splitlines()[1] == f"    return {printed}"
    reparsed = source.parse_source(out)
    assert reparsed == prog
    for point in ((2, 3, True), (-4, 1, False), (0, 0, True), (5, -5, False)):
        assert run_source(prog.functions[0], point) == want(*point)
        assert run_source(reparsed.functions[0], point) == want(*point)


def test_literals_keep_their_python_type():
    # Lit(1) == Lit(1.0) == Lit(True) in Python, so pin the value types.
    for text, ty in (("1", int), ("1.0", float), ("true", bool), ("false", bool)):
        lit = source.parse_source(returning(text)).functions[0].body[0].value
        assert isinstance(lit, source.Lit) and type(lit.value) is ty
