"""Spans around minihls's public calls, recorded from the benchmark's side.

`Direct` makes the calls a user makes: `pipeline.compile_source` and
`sim.simulate`.  `Tracer` replays `compile_source` stage by stage with
a span around each stage, runs the simulator with its event log on, and
while active wraps three cross-module functions so that nested calls
get spans of their own:

* `passes.verify` and `build.verify` (span `ir.verify`), called by
  `passes.optimize` after every pass and by `build.build_cdfg`;
* `cdfg.check` (span `cdfg.check`), called by `cdfg.require_valid`,
  which `compile_source` and every `sim.Simulator` construction run.

A span records its name, the op it belongs to, its parent span and its
start and end.  A layer's self time is its spans' durations minus the
durations of their child spans.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

SPAN_NAMES = ("source.parse", "typecheck.infer", "lower.lower", "ir.verify",
              "passes.optimize", "build.build", "cdfg.insert_buffers",
              "cdfg.check", "vhdl.emit", "vhdl.lint", "interp.run_source",
              "interp.run_ssa", "sim.init", "sim.run")


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start_ns: int
    end_ns: int = 0


class Direct:
    """Untraced: the public one-call entry points, no spans."""

    def __init__(self, api):
        self.api = api

    def span(self, name: str):
        return nullcontext()

    def compile(self, text: str, sig=None):
        return self.api.pipeline.compile_source(text, sig), {}

    def simulate(self, g, args):
        return self.api.sim.simulate(g, args), {}


class Tracer:
    """Traced: stage-by-stage compile replay and spans kept in memory.

    Use as a context manager; the cross-module wrappers are installed on
    entry and removed on exit.
    """

    def __init__(self, api):
        self.api = api
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self):
        self._wrap(self.api.passes, "verify", "ir.verify")
        self._wrap(self.api.build, "verify", "ir.verify")
        self._wrap(self.api.cdfg, "check", "cdfg.check")
        return self

    def __exit__(self, *exc):
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    def _wrap(self, module, attr: str, name: str) -> None:
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                return orig(*args, **kwargs)

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.op, parent, time.perf_counter_ns()))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end_ns = time.perf_counter_ns()

    def take(self, scale: dict[int, float]) -> tuple[dict[str, float], Counter]:
        """Self seconds and call count per span name; clears the spans.

        Each span's self time is multiplied by `scale[span.op]`."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        self_s = {name: 0.0 for name in SPAN_NAMES}
        calls: Counter = Counter()
        for s, child in zip(self.spans, child_ns):
            self_s[s.name] += ((s.end_ns - s.start_ns - child) / 1e9
                               * scale[s.op])
            calls[s.name] += 1
        self.spans = []
        return self_s, calls

    def compile(self, text: str, sig=None):
        """`pipeline.compile_source(text, sig)`, one stage at a time."""
        api = self.api
        with self.span("source.parse"):
            tokens = api.source.tokenize(text)
            program = api.source.parse(tokens)
        func = program.functions[0]
        if sig is None:
            sig = api.pipeline.infer_sig(func)
        with self.span("typecheck.infer"):
            typed = api.typecheck.infer(func, sig, strict=True)
        with self.span("lower.lower"):
            ssa_unopt = api.lower.lower(typed)
        with self.span("ir.verify"):
            violations = api.ir.verify(ssa_unopt)
        if violations:
            raise api.passes.PassError(
                "lowering produced invalid IR: " + "; ".join(violations))
        with self.span("passes.optimize"):
            ssa = api.passes.optimize(ssa_unopt)
        with self.span("build.build"):
            g = api.build.build_cdfg(ssa, api.build.resolve_latencies(None))
        build_channels = len(g.channels)
        with self.span("cdfg.insert_buffers"):
            n_buffers = api.cdfg.insert_buffers(g)
        api.cdfg.require_valid(g)
        res = api.pipeline.CompileResult(program, func, sig, typed, ssa_unopt,
                                         ssa, g, n_buffers)
        return res, {"tokens": len(tokens), "build_channels": build_channels}

    def simulate(self, g, args):
        """`sim.simulate(g, args)` with the event log on, to count firings:
        components that fired in a cycle, summed over cycles."""
        with self.span("sim.init"):
            s = self.api.sim.Simulator(g, args, trace=True)
        with self.span("sim.run"):
            report = s.run()
        firings = len({(cycle, comp) for cycle, comp, _ in report.events})
        return report, {"firings": firings}
