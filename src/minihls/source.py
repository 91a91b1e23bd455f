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

Statements are newline- or semicolon-terminated, comments run from ``#``
to end of line, and source files conventionally use the ``.mjl``
extension.  Parameters may carry an optional ``::Int64`` / ``::Float64``
annotation; unannotated parameters are typed from the entry signature
supplied to type inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import LexError, MissingReturnError, ParseError, Pos
from .lattice import format_value

KEYWORDS = {
    "function", "if", "elseif", "else", "while", "end", "return", "true", "false",
}

# Multi-char operators first so the lexer matches greedily.
OPERATORS = [
    "::", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "(", ")", ",", ";",
]

BINARY_OPS = {"+", "-", "*", "/", "%", "<", "<=", ">", ">=", "==", "!=", "&&", "||"}
UNARY_OPS = {"-", "!"}

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
# Numeric literals take ASCII digits only; `str.isdigit` also accepts
# digits such as '²' and '٣', which `int` rejects or reads as numbers.
_DIGITS = frozenset("0123456789")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "float", "newline", "eof", a keyword, or an operator
    value: object
    pos: Pos

    def __repr__(self) -> str:
        return f"Token({self.kind!r}, {self.value!r}, {self.pos})"


def tokenize(text: str) -> list[Token]:
    """Split source text into tokens, each carrying its line/column."""
    tokens: list[Token] = []
    i = 0
    line, col = 1, 1
    n = len(text)

    def pos() -> Pos:
        return Pos(line, col)

    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            # Collapse runs of blank lines into a single separator token.
            if tokens and tokens[-1].kind != "newline":
                tokens.append(Token("newline", "\n", pos()))
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in _DIGITS:
            start, start_pos = i, pos()
            while i < n and text[i] in _DIGITS:
                i += 1
            is_float = False
            if i < n and text[i] == ".":
                if i + 1 >= n or text[i + 1] not in _DIGITS:
                    raise LexError("expected digit after decimal point",
                                   Pos(line, col + (i - start)))
                is_float = True
                i += 1
                while i < n and text[i] in _DIGITS:
                    i += 1
            if i < n and text[i] in "eE":
                is_float = True
                i += 1
                if i < n and text[i] in "+-":
                    i += 1
                if i >= n or text[i] not in _DIGITS:
                    raise LexError("malformed exponent in numeric literal",
                                   Pos(line, col + (i - start)))
                while i < n and text[i] in _DIGITS:
                    i += 1
            if i < n and text[i] == ".":
                raise LexError("malformed numeric literal (second decimal point)",
                               Pos(line, col + (i - start)))
            lexeme = text[start:i]
            if is_float:
                tokens.append(Token("float", float(lexeme), start_pos))
            else:
                value = int(lexeme)
                if value > INT64_MAX:
                    raise LexError(f"integer literal {lexeme} out of Int64 range", start_pos)
                tokens.append(Token("int", value, start_pos))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start, start_pos = i, pos()
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            word = text[start:i]
            kind = word if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, start_pos))
            col += i - start
            continue
        for op in OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(op, op, pos()))
                i += len(op)
                col += len(op)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", pos())

    tokens.append(Token("eof", None, pos()))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------
# Positions are excluded from equality so reparsed pretty-printer output
# compares structurally equal to the original tree.


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    pos: Pos = field(compare=False, default=Pos(0, 0))


@dataclass(frozen=True)
class FloatLit(Expr):
    value: float
    pos: Pos = field(compare=False, default=Pos(0, 0))


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool
    pos: Pos = field(compare=False, default=Pos(0, 0))


@dataclass(frozen=True)
class Var(Expr):
    name: str
    pos: Pos = field(compare=False, default=Pos(0, 0))


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr
    pos: Pos = field(compare=False, default=Pos(0, 0))


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr
    pos: Pos = field(compare=False, default=Pos(0, 0))


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    target: str
    value: Expr
    pos: Pos = field(compare=False, default=Pos(0, 0))


@dataclass(frozen=True)
class If(Stmt):
    cond: Expr
    then: tuple[Stmt, ...]
    elifs: tuple[tuple[Expr, tuple[Stmt, ...]], ...]
    orelse: tuple[Stmt, ...] | None
    pos: Pos = field(compare=False, default=Pos(0, 0))


@dataclass(frozen=True)
class While(Stmt):
    cond: Expr
    body: tuple[Stmt, ...]
    pos: Pos = field(compare=False, default=Pos(0, 0))


@dataclass(frozen=True)
class Return(Stmt):
    value: Expr
    pos: Pos = field(compare=False, default=Pos(0, 0))


@dataclass(frozen=True)
class Param:
    name: str
    annotation: str | None  # "Int64" or "Float64"
    pos: Pos = field(compare=False, default=Pos(0, 0))


@dataclass(frozen=True)
class FunctionDef:
    name: str
    params: tuple[Param, ...]
    body: tuple[Stmt, ...]
    pos: Pos = field(compare=False, default=Pos(0, 0))
    # the closures `interp.run_source` compiles on its first call
    plan: object = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
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

TYPE_ANNOTATIONS = ("Int64", "Float64", "Bool")

# Precedence-climbing table; higher binds tighter.  Comparisons do not chain.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "<": 3, "<=": 3, ">": 3, ">=": 3, "==": 3, "!=": 3,
    "+": 4, "-": 4,
    "*": 5, "/": 5, "%": 5,
}
_UNARY_PRECEDENCE = 6
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
            raise ParseError(f"expected {want}, found {tok.kind!r}", tok.pos, expected=kinds)
        return self.advance()

    def skip_separators(self) -> None:
        while self.peek().kind in ("newline", ";"):
            self.advance()

    def expect_separator(self) -> None:
        tok = self.peek()
        if tok.kind in ("newline", ";"):
            self.skip_separators()
        elif tok.kind not in ("end", "elseif", "else", "eof"):
            raise ParseError(f"expected end of statement, found {tok.kind!r}", tok.pos,
                             expected=("newline", ";"))

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
                    if ann.value not in TYPE_ANNOTATIONS:
                        raise ParseError(
                            f"unknown type annotation {ann.value!r}", ann.pos,
                            expected=TYPE_ANNOTATIONS)
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
        raise ParseError(f"expected a statement, found {tok.kind!r}", tok.pos,
                         expected=("ident", "if", "while", "return"))

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
            left = Binary(tok.kind, left, right, tok.pos)

    def parse_unary(self, depth: int) -> Expr:
        tok = self.peek()
        if depth > MAX_NESTING:
            raise ParseError("expression nested too deeply", tok.pos)
        self.deepest = depth
        if tok.kind in UNARY_OPS:
            self.advance()
            return Unary(tok.kind, self.parse_unary(depth + 1), tok.pos)
        return self.parse_primary(depth)

    def parse_primary(self, depth: int) -> Expr:
        tok = self.advance()
        if tok.kind == "int":
            return IntLit(int(tok.value), tok.pos)
        if tok.kind == "float":
            return FloatLit(float(tok.value), tok.pos)
        if tok.kind == "true":
            return BoolLit(True, tok.pos)
        if tok.kind == "false":
            return BoolLit(False, tok.pos)
        if tok.kind == "ident":
            return Var(str(tok.value), tok.pos)
        if tok.kind == "(":
            inner = self.parse_expr(1, depth + 1)
            self.expect(")")
            return inner
        raise ParseError(f"expected an expression, found {tok.kind!r}", tok.pos,
                         expected=("int", "float", "ident", "(", "true", "false"))


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
    if isinstance(e, (IntLit, FloatLit, BoolLit)):
        return format_value(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        inner = print_expr(e.operand, _UNARY_PRECEDENCE)
        text = f"{e.op}{inner}"
        return f"({text})" if parent_prec > _UNARY_PRECEDENCE else text
    if isinstance(e, Binary):
        prec = _PRECEDENCE[e.op]
        left = print_expr(e.left, prec)
        right = print_expr(e.right, prec + 1, rhs=True)
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
