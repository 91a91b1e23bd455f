"""Frontend for the mini source language.

The accepted surface syntax is a small Julia-flavoured imperative subset:

    function power(x, n::Int64)
        acc = 1
        while n > 0
            acc = acc * x
            n = n - 1
        end
        return acc
    end

Statements are newline- or semicolon-terminated, and source files
conventionally use the ``.mjl`` extension.  Parameters may carry an
optional ``::Int64`` / ``::Float64`` annotation; unannotated parameters
are typed from the entry signature supplied to type inference.

`tokenize` scans the text with one compiled pattern, by these rules:
an identifier is a letter (``str.isalpha``) or ``_``, then letters,
digits (``str.isalnum``) or ``_``, and is a keyword if spelled as one.
A number has ASCII digits only: digits, an optional ``.`` and digits,
an optional exponent (``e`` or ``E``, a sign or none, digits); with a
point or an exponent it is a Float64, else an in-range Int64, and a
point or exponent without digits, or a second point, is an error.  An
operator is the longest of `OPERATORS` the text starts with.  Space,
tab and ``\\r`` separate tokens, one column each; a comment runs from
``#`` to the end of the line.  A run of newlines, blank lines and
comment-only lines is one ``newline`` token, and there is none before
the first token.  Any other character is an error.

`parse` builds the AST.  As in Julia's surface AST, a literal is its
value in a `Lit` and an operator application is a `Call` of the
operator's symbol on one argument (unary) or two (binary).  `typecheck`
reuses the statement classes around its typed expressions.
"""

from __future__ import annotations

import re
from dataclasses import field
from typing import NamedTuple, NoReturn

from .errors import LexError, MissingReturnError, ParseError, Pos, record
from .lattice import ANNOTATION_TO_TYPE, format_value

KEYWORDS = {
    "function", "if", "elseif", "else", "while", "end", "return", "true", "false",
}

# Multi-char operators first so the scanner matches greedily.
OPERATORS = [
    "::", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "(", ")", ",", ";",
]

UNARY_OPS = {"-", "!"}

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class Token(NamedTuple):
    kind: str  # "ident", "int", "float", "newline", "eof", a keyword, or an operator
    value: object
    pos: Pos


# One match per token: the blanks and the comment before it, then the
# token in one group.  A number matches only whole, so a malformed one,
# like a character no token starts with, ends up in `bad`; `word` holds
# identifiers with a non-ASCII first character, which must be a letter.
_SCAN = re.compile(r"""[ \t\r]*(?:\#[^\n]*)?(?:
    (?P<sym>[A-Za-z_]\w*|%s)
  | (?P<newline>\n(?:[ \t\r]*(?:\#[^\n]*)?\n)*)
  | (?P<int>[0-9]+(?![.eE0-9]))
  | (?P<float>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+(?![.0-9])|(?![.eE0-9])))
  | (?P<word>[^\W\d]\w*)
  | (?P<eof>\Z)
  | (?P<bad>.))""" % "|".join(map(re.escape, OPERATORS)), re.VERBOSE)
# the longest well-formed start of a number; `_lex_error` reads what follows
_NUMBER = re.compile(r"[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")
# the token kind of each keyword and operator; other words are identifiers
_KINDS = {w: w for w in (*KEYWORDS, *OPERATORS)}
_new = tuple.__new__  # a Token or Pos without the NamedTuple's Python __new__


def tokenize(text: str) -> list[Token]:
    """Split source text into tokens, each carrying its line/column."""
    tokens: list[Token] = []
    append = tokens.append
    line, base = 1, -1  # the index in `text` of column 0 of `line`
    for m in _SCAN.finditer(text):  # the last match is always `eof`
        kind = m.lastgroup
        start, end = m.span(kind)
        pos = _new(Pos, (line, start - base))
        if kind == "sym" or kind == "word" and text[start].isalpha():
            value = text[start:end]
            append(_new(Token, (_KINDS.get(value, "ident"), value, pos)))
        elif kind == "newline":
            if tokens:
                append(_new(Token, ("newline", "\n", pos)))
            line += text.count("\n", start, end)
            base = end - 1
        elif kind == "int" and (value := int(text[start:end])) <= INT64_MAX:
            append(_new(Token, ("int", value, pos)))
        elif kind == "float":
            append(_new(Token, ("float", float(text[start:end]), pos)))
        elif kind == "eof":
            break
        else:
            _lex_error(text, start, pos)
    append(_new(Token, ("eof", None, pos)))
    return tokens


def _lex_error(text: str, i: int, pos: Pos) -> NoReturn:
    """Raise the LexError for the token at `text[i]` and `pos`, where the
    scan stops: a character no token starts with, or a malformed or too
    large number."""
    m = _NUMBER.match(text, i)
    if m is None:
        raise LexError(f"unexpected character {text[i]!r}", pos)
    j = m.end()
    if text[j:j + 1] == ".":
        message = ("expected digit after decimal point" if m[0].isdigit()
                   else "malformed numeric literal (second decimal point)")
    elif text[j:j + 1] in ("e", "E"):
        j += 2 if text[j + 1:j + 2] in ("+", "-") else 1
        message = "malformed exponent in numeric literal"
    else:
        raise LexError(f"integer literal {m[0]} out of Int64 range", pos)
    raise LexError(message, Pos(pos.line, pos.col + j - i))


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------
# Positions are excluded from equality so reparsed pretty-printer output
# compares structurally equal to the original tree.  Values compare as in
# Python, so `Lit(1) == Lit(1.0) == Lit(True)`: a literal's type is
# `type(value)`.


@record
class Expr:
    pass


@record
class Lit(Expr):
    value: bool | int | float
    pos: Pos = field(compare=False, default=Pos(0, 0))


@record
class Var(Expr):
    name: str
    pos: Pos = field(compare=False, default=Pos(0, 0))


@record
class Call(Expr):
    op: str
    args: tuple[Expr, ...]
    pos: Pos = field(compare=False, default=Pos(0, 0))


@record
class Stmt:
    pass


@record
class Assign(Stmt):
    target: str
    value: Expr
    pos: Pos = field(compare=False, default=Pos(0, 0))


@record
class If(Stmt):
    cond: Expr
    then: tuple[Stmt, ...]
    elifs: tuple[tuple[Expr, tuple[Stmt, ...]], ...]
    orelse: tuple[Stmt, ...] | None
    pos: Pos = field(compare=False, default=Pos(0, 0))


@record
class While(Stmt):
    cond: Expr
    body: tuple[Stmt, ...]
    pos: Pos = field(compare=False, default=Pos(0, 0))


@record
class Return(Stmt):
    value: Expr
    pos: Pos = field(compare=False, default=Pos(0, 0))


@record
class Param:
    name: str
    annotation: str | None  # "Int64" or "Float64"
    pos: Pos = field(compare=False, default=Pos(0, 0))


@record
class FunctionDef:
    name: str
    params: tuple[Param, ...]
    body: tuple[Stmt, ...]
    pos: Pos = field(compare=False, default=Pos(0, 0))
    # the plan `interp.run_source` builds on its first call
    plan: object = field(default=None, init=False, repr=False, compare=False)


@record
class SourceProgram:
    functions: tuple[FunctionDef, ...]

    def function(self, name: str) -> FunctionDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Precedence-climbing table; higher binds tighter.  Comparisons do not chain.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "<": 3, "<=": 3, ">": 3, ">=": 3, "==": 3, "!=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}
_UNARY_PRECEDENCE = 6
BINARY_OPS = frozenset(_PRECEDENCE)
_NONASSOC = {"<", "<=", ">", ">=", "==", "!="}

# Most operators and parentheses around any operand of one expression.
# The parser recurses thrice per parenthesis, the typechecker, lowering
# and both interpreters once per operator: deeper nests overflow the stack.
MAX_NESTING = 200


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, *kinds: str) -> Token:
        tok = self.peek()
        if tok.kind not in kinds:
            want = " or ".join(repr(k) for k in kinds)
            raise ParseError(f"expected {want}, found {tok.kind!r}", tok.pos)
        return self.advance()

    def skip_separators(self) -> None:
        while self.peek().kind in ("newline", ";"):
            self.advance()

    def expect_separator(self) -> None:
        tok = self.peek()
        if tok.kind in ("newline", ";"):
            self.skip_separators()
        elif tok.kind not in ("end", "elseif", "else", "eof"):
            raise ParseError(f"expected end of statement, found {tok.kind!r}", tok.pos)

    # -- program structure --------------------------------------------------

    def parse_program(self) -> SourceProgram:
        functions = []
        self.skip_separators()
        while self.peek().kind != "eof":
            functions.append(self.parse_function())
            self.skip_separators()
        if not functions:
            raise ParseError("program contains no functions", self.peek().pos)
        seen = set()
        for f in functions:
            if f.name in seen:
                raise ParseError(f"duplicate function name {f.name!r}", f.pos)
            seen.add(f.name)
        return SourceProgram(tuple(functions))

    def parse_function(self) -> FunctionDef:
        kw = self.expect("function")
        name = self.expect("ident")
        self.expect("(")
        params = []
        if self.peek().kind != ")":
            while True:
                pname = self.expect("ident")
                annotation = None
                if self.peek().kind == "::":
                    self.advance()
                    ann = self.expect("ident")
                    if ann.value not in ANNOTATION_TO_TYPE:
                        raise ParseError(
                            f"unknown type annotation {ann.value!r}", ann.pos)
                    annotation = ann.value
                params.append(Param(str(pname.value), annotation, pname.pos))
                if self.peek().kind != ",":
                    break
                self.advance()
        self.expect(")")
        self.expect_separator()
        body = self.parse_stmts()
        end = self.expect("end")
        if not body:
            raise ParseError(f"function {name.value!r} has an empty body", end.pos)
        names = [p.name for p in params]
        if len(names) != len(set(names)):
            raise ParseError(f"duplicate parameter name in function {name.value!r}", kw.pos)
        func = FunctionDef(str(name.value), tuple(params), tuple(body), kw.pos)
        if not _always_returns(func.body):
            raise MissingReturnError(
                f"function {func.name!r} has a control path that does not return", kw.pos)
        return func

    def parse_stmts(self) -> list[Stmt]:
        stmts: list[Stmt] = []
        self.skip_separators()
        while self.peek().kind not in ("end", "elseif", "else", "eof"):
            stmts.append(self.parse_stmt())
            self.expect_separator()
        return stmts

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.kind == "return":
            self.advance()
            return Return(self.parse_expr(), tok.pos)
        if tok.kind == "if":
            return self.parse_if()
        if tok.kind == "while":
            self.advance()
            cond = self.parse_expr()
            self.expect_separator()
            body = self.parse_stmts()
            self.expect("end")
            return While(cond, tuple(body), tok.pos)
        if tok.kind == "ident":
            name = self.advance()
            self.expect("=")
            return Assign(str(name.value), self.parse_expr(), name.pos)
        raise ParseError(f"expected a statement, found {tok.kind!r}", tok.pos)

    def parse_if(self) -> If:
        tok = self.expect("if")
        cond = self.parse_expr()
        self.expect_separator()
        then = self.parse_stmts()
        elifs = []
        orelse = None
        while self.peek().kind == "elseif":
            self.advance()
            econd = self.parse_expr()
            self.expect_separator()
            ebody = self.parse_stmts()
            elifs.append((econd, tuple(ebody)))
        if self.peek().kind == "else":
            self.advance()
            self.expect_separator()
            orelse = tuple(self.parse_stmts())
        self.expect("end")
        return If(cond, tuple(then), tuple(elifs), orelse, tok.pos)

    # -- expressions --------------------------------------------------------

    def parse_expr(self, min_prec: int = 1, depth: int = 0) -> Expr:
        """An expression whose root sits under `depth` operators and
        parentheses; leaves the deepest operand's count in `self.deepest`."""
        left = self.parse_unary(depth)
        deepest = self.deepest
        while True:
            tok = self.peek()
            prec = _PRECEDENCE.get(tok.kind, 0)
            if tok.kind not in BINARY_OPS or prec < min_prec:
                self.deepest = deepest
                return left
            self.advance()
            right = self.parse_expr(prec + 1, depth + 1)
            deepest = max(deepest + 1, self.deepest)  # tok also encloses left
            if deepest > MAX_NESTING:
                raise ParseError("expression nested too deeply", tok.pos)
            if (tok.kind in _NONASSOC and self.peek().kind in _NONASSOC
                    and _PRECEDENCE[self.peek().kind] == prec):
                raise ParseError("comparison operators do not chain", self.peek().pos)
            left = Call(tok.kind, (left, right), tok.pos)

    def parse_unary(self, depth: int) -> Expr:
        tok = self.peek()
        if depth > MAX_NESTING:
            raise ParseError("expression nested too deeply", tok.pos)
        self.deepest = depth
        if tok.kind in UNARY_OPS:
            self.advance()
            return Call(tok.kind, (self.parse_unary(depth + 1),), tok.pos)
        return self.parse_primary(depth)

    def parse_primary(self, depth: int) -> Expr:
        tok = self.advance()
        if tok.kind == "int" or tok.kind == "float":
            return Lit(tok.value, tok.pos)
        if tok.kind == "true" or tok.kind == "false":
            return Lit(tok.kind == "true", tok.pos)
        if tok.kind == "ident":
            return Var(str(tok.value), tok.pos)
        if tok.kind == "(":
            inner = self.parse_expr(1, depth + 1)
            self.expect(")")
            return inner
        raise ParseError(f"expected an expression, found {tok.kind!r}", tok.pos)


def _always_returns(stmts: tuple[Stmt, ...]) -> bool:
    """True if every control path through `stmts` reaches a Return.

    While loops are assumed skippable, so statements after a loop must
    still lead to a Return.
    """
    for stmt in stmts:
        if isinstance(stmt, Return):
            return True
        if isinstance(stmt, If) and stmt.orelse is not None:
            arms = [stmt.then, *(body for _, body in stmt.elifs), stmt.orelse]
            if all(_always_returns(arm) for arm in arms):
                return True
    return False


def parse(tokens: list[Token]) -> SourceProgram:
    return _Parser(tokens).parse_program()


def parse_source(text: str) -> SourceProgram:
    return parse(tokenize(text))


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------


def print_expr(e: Expr, parent_prec: int = 0, rhs: bool = False) -> str:
    if isinstance(e, Lit):
        return format_value(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call) and len(e.args) == 1:  # binds tightest: no parentheses
        return f"{e.op}{print_expr(e.args[0], _UNARY_PRECEDENCE)}"
    if isinstance(e, Call):
        prec = _PRECEDENCE[e.op]
        left = print_expr(e.args[0], prec)
        right = print_expr(e.args[1], prec + 1, rhs=True)
        text = f"{left} {e.op} {right}"
        # Parenthesize when the parent binds tighter, or when we sit on the
        # right of an equally binding operator (left associativity).
        if parent_prec > prec or (parent_prec == prec and rhs):
            return f"({text})"
        return text
    raise TypeError(f"unknown expression node {e!r}")


def _print_stmts(stmts: tuple[Stmt, ...], indent: int, out: list[str]) -> None:
    pad = "    " * indent
    for stmt in stmts:
        if isinstance(stmt, Assign):
            out.append(f"{pad}{stmt.target} = {print_expr(stmt.value)}")
        elif isinstance(stmt, Return):
            out.append(f"{pad}return {print_expr(stmt.value)}")
        elif isinstance(stmt, While):
            out.append(f"{pad}while {print_expr(stmt.cond)}")
            _print_stmts(stmt.body, indent + 1, out)
            out.append(f"{pad}end")
        elif isinstance(stmt, If):
            out.append(f"{pad}if {print_expr(stmt.cond)}")
            _print_stmts(stmt.then, indent + 1, out)
            for cond, body in stmt.elifs:
                out.append(f"{pad}elseif {print_expr(cond)}")
                _print_stmts(body, indent + 1, out)
            if stmt.orelse is not None:
                out.append(f"{pad}else")
                _print_stmts(stmt.orelse, indent + 1, out)
            out.append(f"{pad}end")
        else:
            raise TypeError(f"unknown statement node {stmt!r}")


def print_program(program: SourceProgram) -> str:
    out: list[str] = []
    for func in program.functions:
        params = ", ".join(
            p.name if p.annotation is None else f"{p.name}::{p.annotation}"
            for p in func.params)
        out.append(f"function {func.name}({params})")
        _print_stmts(func.body, 1, out)
        out.append("end")
        out.append("")
    return "\n".join(out)
