"""End-to-end compilation driver.

Gathers the stages (parse, infer, lower, optimize, build, buffer) into a
single call and carries every intermediate result, which is what the
command line and the test suite both want: each stage's artifact stays
inspectable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from . import source as src
from .build import build_cdfg
from .cdfg import CDFG, insert_buffers, require_valid
from .errors import CliError
from .ir import SSAFunction, verify
from .lattice import ANNOTATION_TO_TYPE, PY_TYPES, LatticeType
from .lower import lower
from .passes import PassError, optimize
from .typecheck import TypedFunction, infer


@dataclass
class CompileResult:
    program: src.SourceProgram
    func: src.FunctionDef
    sig: tuple[LatticeType, ...]
    typed: TypedFunction
    ssa_unopt: SSAFunction
    ssa: SSAFunction
    cdfg: CDFG
    n_buffers: int
    stage_s: dict[str, float] = field(default_factory=dict)  # by STAGES name


STAGES = ("parse", "infer", "lower", "verify", "optimize", "build",
          "insert_buffers", "check")


# each concrete type's short name and its annotation in lower case
SIG_NAMES = ({t.short: t for t in PY_TYPES}
             | {name.lower(): t for name, t in ANNOTATION_TO_TYPE.items()})


def parse_sig(text: str) -> tuple[LatticeType, ...]:
    """Comma-separated signature, e.g. 'i64,i64' or 'f64'."""
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        key = part.strip().lower()
        if key not in SIG_NAMES:
            raise CliError(f"unknown signature type {part.strip()!r} "
                           f"(use i64, f64, or bool)")
        out.append(SIG_NAMES[key])
    return tuple(out)


def infer_sig(func: src.FunctionDef) -> tuple[LatticeType, ...]:
    """Signature from parameter annotations; every parameter must carry one."""
    types = []
    for p in func.params:
        if p.annotation is None:
            raise CliError(
                f"parameter {p.name!r} of {func.name!r} has no type annotation; "
                f"pass --sig to supply the entry signature")
        types.append(ANNOTATION_TO_TYPE[p.annotation])
    return tuple(types)


def timed(stage_s: dict[str, float], stage: str, fn, *args):
    """fn(*args), recording its wall time in seconds as stage_s[stage]."""
    start = time.perf_counter()
    out = fn(*args)
    stage_s[stage] = time.perf_counter() - start
    return out


def compile_source(text: str, sig: tuple[LatticeType, ...] | None = None,
                   function: str | None = None, opt: bool = True,
                   latencies: dict[str, int] | None = None) -> CompileResult:
    stage_s = dict.fromkeys(STAGES, 0.0)
    program = timed(stage_s, "parse", src.parse_source, text)
    names = [f.name for f in program.functions]
    if function is not None and function not in names:
        raise CliError(f"no function {function!r} in the program; "
                       f"it defines {', '.join(names)}")
    func = program.functions[0 if function is None else names.index(function)]
    if sig is None:
        sig = infer_sig(func)
    typed = timed(stage_s, "infer", infer, func, sig)
    ssa_unopt = timed(stage_s, "lower", lower, typed)
    violations = timed(stage_s, "verify", verify, ssa_unopt)
    if violations:
        raise PassError("lowering produced invalid IR: " + "; ".join(violations))
    ssa = timed(stage_s, "optimize", optimize, ssa_unopt) if opt else ssa_unopt
    cdfg = timed(stage_s, "build", build_cdfg, ssa, latencies)
    n_buffers = timed(stage_s, "insert_buffers", insert_buffers, cdfg)
    timed(stage_s, "check", require_valid, cdfg)
    return CompileResult(program, func, sig, typed, ssa_unopt, ssa,
                         cdfg, n_buffers, stage_s)


def parse_value(text: str, ty: LatticeType):
    """One command-line value of type `ty`: true or false; an Int64 literal
    as Python reads it with base prefixes (0x2, but not 010); or a float."""
    try:
        if ty == LatticeType.BOOL:
            if text not in ("true", "false"):
                raise ValueError(text)
            return text == "true"
        value = int(text, 0) if ty == LatticeType.INT64 else float(text)
    except ValueError:
        raise CliError(f"cannot parse {text!r} as {ty}") from None
    if ty == LatticeType.INT64 and not src.INT64_MIN <= value <= src.INT64_MAX:
        raise CliError(f"integer {text} out of Int64 range")
    return value


def parse_args_for(result: CompileResult, raw: list[str]) -> tuple:
    """Parse CLI argument strings against the compiled signature."""
    if len(raw) != len(result.sig):
        raise CliError(f"{result.func.name} expects {len(result.sig)} "
                       f"argument(s), got {len(raw)}")
    return tuple(map(parse_value, raw, result.sig))
