"""A character-by-character lexer, the reference `source.tokenize` is
tested against.

It reads one character at a time and implements the lexical rules the
`source` module docstring states, with the same messages and positions.
A comment advances the column like any other character, so the end of
a file whose last line ends in a comment is reported after it.
"""

from minihls.errors import LexError, Pos
from minihls.source import INT64_MAX, KEYWORDS, OPERATORS, Token

DIGITS = frozenset("0123456789")


def reference_tokenize(text: str) -> list[Token]:
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
                col += 1
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
        if ch in DIGITS:
            start, start_pos = i, pos()
            while i < n and text[i] in DIGITS:
                i += 1
            is_float = False
            if i < n and text[i] == ".":
                if i + 1 >= n or text[i + 1] not in DIGITS:
                    raise LexError("expected digit after decimal point",
                                   Pos(line, col + (i - start)))
                is_float = True
                i += 1
                while i < n and text[i] in DIGITS:
                    i += 1
            if i < n and text[i] in "eE":
                is_float = True
                i += 1
                if i < n and text[i] in "+-":
                    i += 1
                if i >= n or text[i] not in DIGITS:
                    raise LexError("malformed exponent in numeric literal",
                                   Pos(line, col + (i - start)))
                while i < n and text[i] in DIGITS:
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
