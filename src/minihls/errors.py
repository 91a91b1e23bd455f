"""Exception hierarchy and record declarations shared by every stage.

Every user-facing error carries the pipeline stage that raised it and,
where one exists, a source position, so the CLI can print uniform
``error[stage] line:col: message`` diagnostics.

`record` declares the AST, typed, IR and circuit records a compile builds by
the ten thousand: frozen, slotted dataclasses whose `__init__` stores through
slot descriptors, in half the time of `object.__setattr__` per field.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from inspect import formatannotation
from typing import NamedTuple


class Pos(NamedTuple):
    """1-based line / column of a token or AST node."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def record(cls):
    """`dataclass(frozen=True, slots=True)` with an `__init__` of the same signature,
    defaults (no `default_factory`) and `__post_init__` call that sets each field
    by its slot's `__set__`, and the same docstring."""
    doc, cls.__doc__ = cls.__doc__, "-"  # dataclass would word one from no __init__
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    params, shown, body, env = [], [], [], {}
    annotations = {f.name: f.type for f in fields(cls) if f.init} | {"return": None}
    for f in fields(cls):
        env["set_" + f.name], env["d_" + f.name] = getattr(cls, f.name).__set__, f.default
        if f.init:
            params.append(f.name if f.default is MISSING else f"{f.name}=d_{f.name}")
            shown.append(f"{f.name}: {formatannotation(f.type)}"
                         + ("" if f.default is MISSING else f" = {f.default!r}"))
        body.append(f"set_{f.name}(self, {f.name if f.init else 'd_' + f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n " + "\n ".join(body or ["pass"]), env)
    cls.__init__, env["__init__"].__annotations__ = env["__init__"], annotations
    cls.__doc__ = doc or f"{cls.__name__}({', '.join(shown)})"
    return cls


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
