"""Exception hierarchy shared by every stage of the toolchain.

Every user-facing error carries the pipeline stage that raised it and,
where one exists, a source position, so the CLI can print uniform
``error[stage] line:col: message`` diagnostics.
"""

from __future__ import annotations

from typing import NamedTuple


class Pos(NamedTuple):
    """1-based line / column of a token or AST node."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class MiniHlsError(Exception):
    stage = "minihls"

    def __init__(self, message: str, pos: Pos | None = None):
        self.message = message
        self.pos = pos
        super().__init__(self.format())

    def format(self) -> str:
        if self.pos is not None:
            return f"{self.pos}: {self.message}"
        return self.message


class LexError(MiniHlsError):
    stage = "lex"


class ParseError(MiniHlsError):
    stage = "parse"


class MissingReturnError(MiniHlsError):
    stage = "parse"


class TypeCheckError(MiniHlsError):
    stage = "typecheck"


class NoMethodError(TypeCheckError):
    pass


class UnstableTypeError(TypeCheckError):
    pass


class UndefinedVarError(TypeCheckError):
    pass


class LowerError(MiniHlsError):
    stage = "lower"


class PassError(MiniHlsError):
    """An optimization pass produced IR that fails verification."""

    stage = "opt"


class EvalError(MiniHlsError):
    """Runtime error of the reference semantics (interpreter and simulator)."""

    stage = "eval"


class DivByZeroError(EvalError):
    pass


class FuelExhaustedError(EvalError):
    pass


class BuildError(MiniHlsError):
    stage = "cdfg"


class SimError(MiniHlsError):
    stage = "sim"

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class DeadlockError(SimError):
    pass


class MaxCyclesError(SimError):
    pass


class MergeConflictError(SimError):
    pass


class EmitError(MiniHlsError):
    stage = "emit"


class CliError(MiniHlsError):
    stage = "cli"
