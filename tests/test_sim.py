"""Token-flow simulator: differential checks, stalls, conflicts, latency."""

import collections
import copy
import dataclasses
import gc
import hashlib
import random
import re
import weakref

import pytest

from minihls import cdfg as C
from minihls import codegen
from minihls import sim as sim_module
from minihls import simtrace
from minihls.cdfg import CDFG, component_stats
from minihls.errors import (BuildError, DeadlockError, DivByZeroError,
                            MaxCyclesError, MergeConflictError, MiniHlsError,
                            Pos, SimError)
from minihls.interp import run_source, run_ssa
from minihls.lattice import DEFAULT_LATENCIES, LatticeType
from minihls.pipeline import compile_source
from minihls.sim import DEFAULT_MAX_CYCLES, SimReport, Simulator, simulate
from minihls.source import parse_source
from minihls import corpus
from test_interp import run_hot
from test_passes import narrow_ladder, wide_ladder
from sim_reference import ReferenceSimulator


def source_fn(name):
    return parse_source(corpus.load(name)).functions[0]


def test_simulator_matches_interpreter_spotcheck(program, compiled, sweeps):
    res = compiled(program)
    fn = source_fn(program)
    for point in sweeps[program][:6]:
        report = simulate(res.cdfg, point)
        assert report.output == run_source(fn, point)
        assert report.leftover == 0


def test_unoptimized_circuit_agrees_too(compiled, sweeps):
    res = compiled("if_else", opt=False)
    fn = source_fn("if_else")
    for point in sweeps["if_else"][:6]:
        assert simulate(res.cdfg, point).output == run_source(fn, point)


def test_report_shape(compiled):
    report = simulate(compiled("power").cdfg, (2, 5))
    assert isinstance(report, SimReport)
    assert report.output == 32
    assert 0 < report.exit_cycle <= report.total_cycles
    assert report.max_occupancy >= 1
    assert report.events is None  # only collected under trace=True


def test_trace_collects_events(compiled):
    report = simulate(compiled("if_else").cdfg, (1, 2), trace=True)
    assert report.events
    cycle, comp, event = report.events[0]
    assert isinstance(cycle, int) and isinstance(comp, int)
    assert isinstance(event, str)


def test_latency_override_slows_but_preserves_output(compiled):
    cycles = []
    for lat in (0, 2, 6, 12):
        res = compiled("power", latencies={"mul_i64": lat})
        report = simulate(res.cdfg, (3, 5))
        assert report.output == 243
        cycles.append(report.exit_cycle)
    assert cycles == sorted(cycles), "latency increases must not speed it up"
    assert cycles[-1] > cycles[0]


# The result of a circuit must not depend on operator latencies.  This
# nested loop breaks that: the interpreters give 44, and so does the
# circuit with single-cycle multipliers, but at the default mul_i64
# latency of 2 it returns 368.  The cause is not yet diagnosed.
NESTED_LOOPS = """
function g(a::Int64, b::Int64)
  x = a
  y = b
  z = 1
  i1 = 0
  while i1 < 2
    i2 = 0
    while i2 < 2
      x = ((z * a) * x)
      y = ((x - a) * b)
      x = (x - (3 - y))
      i2 = i2 + 1
    end
    x = ((z - z) + 3)
    i1 = i1 + 1
  end
  return x + y - z
end
"""


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="nested-loop result depends on mul_i64 latency")
def test_nested_loop_result_is_latency_insensitive():
    fn = parse_source(NESTED_LOOPS).functions[0]
    assert run_source(fn, (3, -2)) == 44
    for lat in (0, 1, 2, 6):
        res = compile_source(NESTED_LOOPS, latencies={"mul_i64": lat})
        assert simulate(res.cdfg, (3, -2)).output == 44, f"mul_i64 latency {lat}"


LOOPS_IN_AN_IF = """
function g(a::Int64, b::Int64)
  x = a
  y = b
  z = 1
  if z >= (b - 2)
    i = 0
    while i < 1
      if (2 * x) >= (3 * y)
        y = a
        x = y
      end
      z = ((y * x) * (b - y))
      j = 0
      while j < 2
        y = 1
        j = j + 1
      end
      i = i + 1
    end
  end
  return z * 1
end
"""


@pytest.mark.xfail(strict=True, raises=MergeConflictError,
                   reason="two tokens reach one per-value Merge in the same cycle")
def test_loops_in_an_if_give_one_token_per_merge():
    assert run_source(parse_source(LOOPS_IN_AN_IF).functions[0], (3, -2)) == -45
    assert run_ssa(compile_source(LOOPS_IN_AN_IF).ssa, (3, -2)) == -45
    for res in (compile_source(LOOPS_IN_AN_IF, latencies={"mul_i64": 0}),
                compile_source(LOOPS_IN_AN_IF, opt=False)):
        assert simulate(res.cdfg, (3, -2)).output == -45
    for latencies in ({"add_i64": 2}, None):  # the last one raises out
        g = compile_source(LOOPS_IN_AN_IF, latencies=latencies).cdfg
        try:
            assert simulate(g, (3, -2)).output == -45
        except MergeConflictError as e:
            assert str(e) == "merge 13 (b7.v25) has 2 valid inputs in cycle 23"
            if latencies is None:
                raise


def test_max_cycles_budget(compiled):
    with pytest.raises(MaxCyclesError):
        simulate(compiled("power").cdfg, (2, 12), max_cycles=10)


def test_deadlock_detected():
    # Steer the only data token away from the Exit: with the condition
    # true it drains into a Sink and the Exit can never fire.
    g = CDFG("dead")
    data = g.add_component(C.ENTRY, (), (64,), label="x")
    cond = g.add_component(C.ENTRY, (), (1,), label="c")
    br = g.add_component(C.BRANCH, (64, 1), (64, 64))
    sink = g.add_component(C.SINK, (64,), ())
    exit_ = g.add_component(C.EXIT, (64,), ())
    g.add_channel((data.id, 0), (br.id, 0), 64)
    g.add_channel((cond.id, 0), (br.id, 1), 1)
    g.add_channel((br.id, 0), (sink.id, 0), 64)
    g.add_channel((br.id, 1), (exit_.id, 0), 64)
    assert simulate(g, (7, False)).output == 7
    with pytest.raises(DeadlockError, match=re.escape(
            "deadlock in cycle 4: no component can fire and the exit never "
            "received a token")) as info:
        simulate(g, (7, True))
    assert info.value.report.total_cycles == 4
    assert_same_outcome_traced_or_not(g, [(7, False), (7, True)])


def test_merge_conflict_detected():
    # Two tokens reach the same Merge in the same cycle.
    g = CDFG("clash")
    a = g.add_component(C.ENTRY, (), (64,), label="a")
    b = g.add_component(C.ENTRY, (), (64,), label="b")
    m = g.add_component(C.MERGE, (64, 64), (64,))
    exit_ = g.add_component(C.EXIT, (64,), ())
    g.add_channel((a.id, 0), (m.id, 0), 64)
    g.add_channel((b.id, 0), (m.id, 1), 64)
    g.add_channel((m.id, 0), (exit_.id, 0), 64)
    with pytest.raises(MergeConflictError, match=re.escape(
            "merge 2 () has 2 valid inputs in cycle 1")):
        simulate(g, (1, 2))
    assert_same_outcome_traced_or_not(g, [(1, 2)])


def test_merge_conflict_after_idle_cycles():
    # Both tokens wait six cycles in pipelines, so the engine skips the idle
    # cycles; the conflict must still surface in the cycle both arrive.
    g = CDFG("late")
    for label in ("a", "b"):
        g.add_component(C.ENTRY, (), (64,), label=label)
    for _ in range(2):
        g.add_component(C.OPERATOR, (64,), (64,), opcode="neg_i64",
                        latency=6)
    m = g.add_component(C.MERGE, (64, 64), (64,), label="join")
    exit_ = g.add_component(C.EXIT, (64,), ())
    for i in range(2):
        g.add_channel((i, 0), (2 + i, 0), 64)
        g.add_channel((2 + i, 0), (m.id, i), 64)
    g.add_channel((m.id, 0), (exit_.id, 0), 64)
    with pytest.raises(MergeConflictError, match=re.escape(
            "merge 4 (join) has 2 valid inputs in cycle 8")):
        simulate(g, (1, 2))


def slow_negate():
    """Entry -> latency-10 negate -> Exit: cycles 2..10 fire nothing."""
    g = CDFG("slow")
    x = g.add_component(C.ENTRY, (), (64,), label="x")
    op = g.add_component(C.OPERATOR, (64,), (64,), opcode="neg_i64",
                         latency=10)
    exit_ = g.add_component(C.EXIT, (64,), ())
    g.add_channel((x.id, 0), (op.id, 0), 64)
    g.add_channel((op.id, 0), (exit_.id, 0), 64)
    return g


def test_idle_cycles_are_counted():
    report = simulate(slow_negate(), (7,), trace=True)
    assert report.events == [(0, 0, "emit"), (1, 1, "accept"),
                             (11, 1, "emit"), (12, 2, "exit")]
    assert (report.output, report.exit_cycle, report.total_cycles) == (-7, 12, 14)


def test_max_cycles_inside_idle_stretch():
    with pytest.raises(MaxCyclesError,
                       match="no quiescence after 5 cycles") as info:
        simulate(slow_negate(), (7,), max_cycles=5, trace=True)
    report = info.value.report
    assert report.total_cycles == 5
    assert report.events == [(0, 0, "emit"), (1, 1, "accept")]
    assert (report.exit_cycle, report.max_occupancy, report.leftover) == (
        None, 1, 1)


def test_operator_latency_pipelines_tokens(compiled):
    # mul at latency 12 beats 3 sequential muls only if initiation is 1
    # per cycle; the loop reuses one multiplier so the effect shows as a
    # bounded, not multiplicative, slowdown per iteration.
    fast = simulate(compiled("power", latencies={"mul_i64": 1}).cdfg, (2, 8))
    slow = simulate(compiled("power", latencies={"mul_i64": 9}).cdfg, (2, 8))
    assert fast.output == slow.output == 256
    assert slow.exit_cycle - fast.exit_cycle >= 8


# Loop-free, with every operator shape the corpus lacks: unary `-` and
# `!`, Int64 -> Float64 promotion (sitofp), a guarded `%`, `/`, a Bool
# parameter and if-converted selects.
MIXED = """
function mixed(a::Int64, b::Int64, flag::Bool)
  m = 0
  if b != 0
    m = a % b
  end
  x = -a
  if !flag
    x = x + m
  end
  y = x / 2
  if flag && y > 0.5
    y = -y
  end
  return y * 1.5 - m + b
end
"""


@pytest.mark.parametrize("latencies", [
    dict.fromkeys(DEFAULT_LATENCIES, 0), None,
    dict.fromkeys(DEFAULT_LATENCIES, 3)], ids=["zero", "default", "three"])
def test_every_operator_shape_matches_interpreter(latencies):
    g = compile_source(MIXED, latencies=latencies).cdfg
    shapes = {(c.opcode, len(c.in_widths)) for c in g.components
              if c.kind == C.OPERATOR}
    assert {("neg_i64", 1), ("not_i1", 1), ("sitofp", 1), ("mod_i64", 2),
            ("fdiv_f64", 2), ("select_i64", 3), ("select_f64", 3)} <= shapes
    fn = parse_source(MIXED).functions[0]
    for point in [(7, 3, True), (-7, 0, False), (9, -4, False), (0, 5, True),
                  (5, 2, True), (-8, -3, False)]:
        report = simulate(g, point)
        assert report.output == run_source(fn, point), point
        assert report.leftover == 0


def test_simulator_rejects_invalid_graph():
    g = CDFG("broken")
    g.add_component(C.ENTRY, (), (64,), label="x")
    from minihls.errors import BuildError
    with pytest.raises(BuildError):
        simulate(g, (1,))


def test_newton_leftover_zero(compiled):
    report = simulate(compiled("newton_raphson").cdfg, (4.0,))
    assert abs(report.output - 1.4142135623730951) < 1e-9
    assert report.leftover == 0


def test_full_buffer_takes_waiting_token_after_emitting():
    # A control ring (Entry 0 into Merge 1 and Fork 2, whose output 1
    # returns to the Merge through Buffer 11) triggers Const 3 on every
    # lap.  Its constants pass through Buffer 4 into an adder that also
    # waits on a loop around Buffer 10, so Buffer 4 fills up with a token
    # waiting behind it.  After it emits (cycle 32) it must take that token
    # in the very next cycle, though no neighbour touched its channels.
    g = CDFG("throttle")
    for kind, ins, outs, kw in (
            (C.ENTRY, (), (0,), {}), (C.MERGE, (0, 0), (0,), {}),
            (C.FORK, (0,), (0, 0), {}), (C.CONST, (0,), (64,), {"value": 1}),
            (C.BUFFER, (64,), (64,), {}), (C.ENTRY, (), (64,), {}),
            (C.MERGE, (64, 64), (64,), {}),
            (C.OPERATOR, (64, 64), (64,), {"opcode": "add_i64"}),
            (C.FORK, (64,), (64, 64), {}), (C.SINK, (64,), (), {}),
            (C.BUFFER, (64,), (64,), {}), (C.BUFFER, (0,), (0,), {})):
        g.add_component(kind, ins, outs, **kw)
    for src, dst, width in (((0, 0), (1, 0), 0), ((1, 0), (2, 0), 0),
                            ((2, 0), (3, 0), 0), ((2, 1), (11, 0), 0),
                            ((11, 0), (1, 1), 0), ((3, 0), (4, 0), 64),
                            ((4, 0), (7, 0), 64), ((5, 0), (6, 0), 64),
                            ((6, 0), (7, 1), 64), ((7, 0), (8, 0), 64),
                            ((8, 0), (9, 0), 64), ((8, 1), (10, 0), 64),
                            ((10, 0), (6, 1), 64)):
        g.add_channel(src, dst, width)
    with pytest.raises(MaxCyclesError) as info:
        simulate(g, (0,), max_cycles=40, trace=True)
    report = info.value.report
    assert (32, 4, "emit") in report.events
    assert (33, 4, "accept") in report.events
    assert fingerprint(report) == (None, None, 40, 5, 5, "5cb9ee4d0be7fd44")


def fresh_power():
    """A power circuit of its own, never simulated: tests that edit a
    circuit or count its checks must not share the cached compile."""
    return compile_source(corpus.load("power"), corpus.SIGNATURES["power"]).cdfg


def test_simulate_rejects_a_short_argument_tuple():
    with pytest.raises(SimError) as err:
        simulate(fresh_power(), (2,))
    assert str(err.value) == "circuit has 2 data entries, got 1 argument(s)"


def count_checks(monkeypatch):
    checks = []
    real_check = C.check
    monkeypatch.setattr(C, "check", lambda g: checks.append(g) or real_check(g))
    return checks


def test_unchanged_circuit_is_checked_once(monkeypatch):
    checks = count_checks(monkeypatch)
    g = fresh_power()
    runs = [simulate(g, (b, 5), trace=True) for b in (-2, 3, -2, 3, 0)]
    assert len(checks) == 1  # the compile's check serves every run
    assert runs[:2] == runs[2:4]
    broken = CDFG("broken")
    broken.add_component(C.ENTRY, (), (64,), label="x")
    for _ in range(2):
        with pytest.raises(BuildError):
            simulate(broken, (1,))
    assert len(checks) == 3  # a circuit that fails is not recorded as valid


POINT = (3, 5)


def multiplier(g):
    return next(c for c in g.components if c.opcode == "mul_i64")


def replace_record(records, record, **changes):
    """Replace `record` in its list slot by a copy with `changes`."""
    records[records.index(record)] = dataclasses.replace(record, **changes)


def splice_buffer(g):
    """Splice a Buffer onto the multiplier's first input, as
    `insert_buffers` does; the result must not change."""
    ch = next(ch for ch in g.channels
              if (ch.dst, ch.dst_port) == (multiplier(g).id, 0))
    buf = g.add_component(C.BUFFER, (ch.width,), (ch.width,), label="buf")
    replace_record(g.channels, ch, dst=buf.id, dst_port=0)
    g.add_channel((buf.id, 0), (ch.dst, ch.dst_port), ch.width)
    want = run_source(source_fn("power"), POINT)
    return lambda report: report.output == want and report.leftover == 0


def unpipeline_multiplier(g):
    """Latency 0 in its slot: the events must be a fresh latency-0 compile's."""
    replace_record(g.components, multiplier(g), latency=0)
    fresh = compile_source(corpus.load("power"), corpus.SIGNATURES["power"],
                           latencies={"mul_i64": 0}).cdfg
    want = fingerprint(simulate(fresh, POINT, trace=True))
    return lambda report: fingerprint(report) == want


def narrow_channel(g):
    replace_record(g.channels, next(ch for ch in g.channels if ch.width == 64),
                   width=1)


def pop_channel(g):
    g.channels.pop()


def replace_multiplier(g):
    replace_record(g.components, multiplier(g), opcode=None)


@pytest.mark.parametrize("edit", [splice_buffer, unpipeline_multiplier,
                                  narrow_channel, pop_channel,
                                  replace_multiplier])
def test_edited_circuit_is_checked_again(edit, monkeypatch):
    """An edit after a run builds a new plan, so the circuit is checked
    again: a valid edit simulates as edited, a breaking one raises."""
    g = fresh_power()
    simulate(g, POINT)
    holds = edit(g)
    checks = count_checks(monkeypatch)
    if holds is None:
        with pytest.raises(BuildError):
            simulate(g, POINT)
    else:
        assert holds(simulate(g, POINT, trace=True))
    assert checks == [g]


def test_only_an_unequal_replacement_builds_a_new_plan(monkeypatch):
    g = fresh_power()
    simulate(g, POINT)
    plan = g.sim_plan
    checks = count_checks(monkeypatch)
    replace_record(g.components, multiplier(g))  # equal values
    replace_record(g.channels, g.channels[0])
    simulate(g, POINT)
    assert checks == [] and g.sim_plan is plan
    replace_record(g.components, multiplier(g), latency=1)
    assert simulate(g, POINT).output == 243
    assert checks == [g] and g.sim_plan is not plan


def test_a_component_moved_to_another_position_builds_a_new_plan(monkeypatch):
    g = compile_source("function f(a, b)\n  c = a + 1\n  return c % b\nend\n",
                       corpus.SIGNATURES["power"]).cdfg
    assert simulate(g, (6, 4)).output == 3
    plan = g.sim_plan
    checks = count_checks(monkeypatch)
    mod = next(c for c in g.components if c.opcode == "mod_i64")
    assert mod.pos == Pos(3, 12)
    replace_record(g.components, mod, pos=Pos(9, 9))
    with pytest.raises(DivByZeroError) as info:
        simulate(g, (6, 0))
    assert info.value.pos == Pos(9, 9)
    assert checks == [g] and g.sim_plan is not plan


def test_an_edit_to_an_equal_comparing_payload_builds_a_new_plan():
    """-0.0 == 0.0, but at a = -2.0, a * 0.0 is -0.0 and a * -0.0 is 0.0."""
    g = compile_source("function f(a)\n  return a * 0.0\nend\n",
                       (LatticeType.FLOAT64,)).cdfg
    assert repr(simulate(g, (-2.0,)).output) == "-0.0"
    const = next(c for c in g.components if c.kind == C.CONST)
    replace_record(g.components, const, value=-0.0)
    assert repr(simulate(g, (-2.0,)).output) == "0.0"


@pytest.mark.parametrize("latency", [0, 3])
def test_trap_in_a_circuit_reports_its_source_position(latency):
    g = compile_source("function f(a, b)\n  return a % b\nend\n",
                       corpus.SIGNATURES["power"],
                       latencies={"mod_i64": latency}).cdfg
    assert simulate(g, (7, 4)).output == 3
    with pytest.raises(DivByZeroError) as info:
        simulate(g, (5, 0))
    assert info.value.pos == Pos(2, 12)


# -- the exhaustive-evaluation oracle ---------------------------------------
#
# Evaluating every component in every cycle is the definition of the
# semantics: the worklist may leave a component out only if it would
# neither fire nor raise.  A worklist that `clear()` refills with every
# component turns the engine into that definition.

class EveryComponent(set):
    def __init__(self, n):
        super().__init__(range(n))
        self.n = n

    def clear(self):
        self.update(range(self.n))


def wrap_rules(sim, wrap):
    """Make sim call wrap(i, rule) in place of each rule i it would run,
    on a copy of its plan: the circuit's own plan stays as it is.  The copy
    has no table of compiled traces, so every cycle runs its rules."""
    name = "nodes" if sim.events is None else "traced_nodes"
    rules = getattr(sim.plan, name)
    sim.plan = copy.copy(sim.plan)
    sim.plan.cycles = None
    setattr(sim.plan, name, [wrap(i, rule) for i, rule in enumerate(rules)])


class Watched(dict):
    """A plan's table of snapshots as `Simulator.run` and the recordings
    see it, which passes every change on to `table` and hands out each
    trace as `noting` it in `left`, one wrapper per trace."""

    def __init__(self, table, left):
        super().__init__()
        self.table, self.left, self.wrapped = table, left, {}

    def get(self, work, default=None):
        step = self.table.get(work, default)
        if step not in self.wrapped:
            self.wrapped[step] = noting(step, self.left)
        return self.wrapped[step]

    def __setitem__(self, work, step):
        self.table[work] = getattr(step, "trace", step)

    def __len__(self):
        return len(self.table)


def noting(step, left):
    """Trace `step`, which notes in `left` the cycle it leaves to the
    kernels, or `step` if it is no trace."""
    if isinstance(step, int) or step is None:
        return step

    def call(s, chan, max_cycles):
        hands = step(s, chan, max_cycles)
        if not hands:
            left.add(s.cycle)
        return hands
    call.trace = step
    return call


def kernels_ran_only_where_traces_left(sim, max_cycles):
    """`outcome_of(sim, max_cycles)` on the circuit's compiled traces, with
    `_HOT_AFTER` at 1, so each snapshot compiles the first time the plan
    sees it.  Asserts that a kernel runs only in a cycle a trace left to
    the kernels and in the cycle that ends the run, whose recording ran
    no cycle."""
    left, ran = set(), set()
    rules = sim.plan.nodes
    sim.plan = copy.copy(sim.plan)  # sharing the circuit's compiled traces
    sim.plan.cycles = Watched(sim.plan.cycles, left)
    sim.plan.nodes = [lambda s, chan, work, rule=rule: ran.add(s.cycle) or rule(s, chan, work)
                      for rule in rules]
    compile_trace = sim_module._compile_trace
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_module, "_HOT_AFTER", 1)
        patch.setattr(sim_module, "_compile_trace",
                      lambda *a: sim.plan.cycles.wrapped.setdefault(
                          step := compile_trace(*a), noting(step, left)))
        result = outcome_of(sim, max_cycles)
    last = result.total_cycles - 1 if isinstance(result, SimReport) else sim.cycle
    assert ran - left <= {last}, (sorted(ran - left), last)
    return result


def outcome(g, args, max_cycles, exhaustive=False, trace=True, hot=False):
    """A run's report, or the type, message, position and report of the
    error it raised.  An `exhaustive` run must evaluate every component in
    every cycle it reaches, which this asserts: each rule sees all of them
    in `work`, and each cycle calls every rule unless a rule raised in it.
    A `hot` run is untraced and runs on compiled traces, which
    `kernels_ran_only_where_traces_left` asserts."""
    sim = Simulator(g, args, trace=trace and not hot)
    if hot:
        return kernels_ran_only_where_traces_left(sim, max_cycles)
    if exhaustive:
        n, calls = len(sim.plan.nodes), collections.Counter()
        sim.worklist = EveryComponent(n)

        def counted(i, rule):
            def call(s, chan, work):
                assert len(work) == n, (s.cycle, len(work), n)
                calls[s.cycle] += 1
                return rule(s, chan, work)
            return call
        wrap_rules(sim, counted)
    result = outcome_of(sim, max_cycles)
    if exhaustive:
        *whole, last = calls.values()
        assert set(whole) <= {n} and (last == n or isinstance(result, tuple))
    return result


def outcome_of(sim, max_cycles):
    try:
        return sim.run(max_cycles)
    except MiniHlsError as e:
        return type(e), e.message, e.pos, getattr(e, "report", None)


def assert_exhaustive_evaluation_agrees(g, points,
                                        budgets=(DEFAULT_MAX_CYCLES, 37)):
    """Same output, cycles, occupancy, leftover and events, or the same
    error, under the default budget and one that ends runs midway; the
    same without events on compiled traces and in the reference."""
    for args in points:
        for max_cycles in budgets:
            want = outcome(g, args, max_cycles)
            assert want == outcome(g, args, max_cycles, exhaustive=True), (
                args, max_cycles)
            assert outcome(g, args, max_cycles, hot=True) == without_events(
                want) == reference_outcome(g, args, max_cycles, trace=False)


@pytest.mark.parametrize("latencies", [
    {}, {"mul_i64": 0}, {"mul_i64": 6, "add_i64": 1}],
    ids=["default", "mul0", "mul6-add1"])
@pytest.mark.parametrize("opt", [True, False], ids=["opt", "no-opt"])
def test_exhaustive_evaluation_agrees_on_corpus(program, compiled, sweeps,
                                                opt, latencies):
    points = sweeps[program][::max(1, len(sweeps[program]) // 4)]
    g = compiled(program, opt=opt, latencies=latencies).cdfg
    assert_exhaustive_evaluation_agrees(g, points)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("ladder", [narrow_ladder, wide_ladder])
def test_exhaustive_evaluation_agrees_on_ladders(ladder, n):
    g = compile_source(ladder(n)).cdfg
    assert_exhaustive_evaluation_agrees(g, [(3, 5), (-4, 2), (0, 0)])


def spliced_power(seed):
    """power with a Buffer spliced into each of 10 channels drawn by `seed`."""
    g = fresh_power()
    for ch in random.Random(seed).sample(g.channels, 10):
        buf = g.add_component(C.BUFFER, (ch.width,), (ch.width,), label="buf")
        replace_record(g.channels, ch, dst=buf.id, dst_port=0)
        g.add_channel((buf.id, 0), (ch.dst, ch.dst_port), ch.width)
    return g


def test_exhaustive_evaluation_agrees_with_buffers_spliced_at_random():
    assert_exhaustive_evaluation_agrees(spliced_power(7),
                                        [(2, 0), (-3, 4), (2, 10)])


@pytest.mark.parametrize("latency", [0, 3])
def test_exhaustive_evaluation_agrees_on_a_trap(latency):
    g = compile_source("function f(a, b)\n  return a % b\nend\n",
                       corpus.SIGNATURES["power"],
                       latencies={"mod_i64": latency}).cdfg
    assert_exhaustive_evaluation_agrees(g, [(7, 4), (5, 0)])


def flood():
    """Two rings joined by an adder.  The fast control ring (Entry 0,
    Merge 1, 3-way Fork 2, Buffer 3) triggers Consts 4 and 5 on every lap;
    their value and flag pass a Branch and a Merge into a latency-3 negate
    that feeds the adder.  The slow ring (Merge 12 through three Buffers to
    Fork 16) gives the adder its other input.  Tokens back up from the
    adder, so the pipeline, Merge, Branch, Consts and Fork all stall."""
    g = CDFG("flood")
    for kind, ins, outs, kw in (
            (C.ENTRY, (), (0,), {}), (C.MERGE, (0, 0), (0,), {}),
            (C.FORK, (0,), (0, 0, 0), {}), (C.BUFFER, (0,), (0,), {}),
            (C.CONST, (0,), (64,), {"value": 1}),
            (C.CONST, (0,), (1,), {"value": True}),
            (C.BRANCH, (64, 1), (64, 64), {}), (C.SINK, (64,), (), {}),
            (C.ENTRY, (), (64,), {}), (C.MERGE, (64, 64), (64,), {}),
            (C.OPERATOR, (64,), (64,), {"opcode": "neg_i64", "latency": 3}),
            (C.ENTRY, (), (64,), {}), (C.MERGE, (64, 64), (64,), {}),
            (C.BUFFER, (64,), (64,), {}), (C.BUFFER, (64,), (64,), {}),
            (C.BUFFER, (64,), (64,), {}), (C.FORK, (64,), (64, 64), {}),
            (C.OPERATOR, (64, 64), (64,), {"opcode": "add_i64"}),
            (C.EXIT, (64,), (), {})):
        g.add_component(kind, ins, outs, **kw)
    for src, dst, width in (((0, 0), (1, 0), 0), ((1, 0), (2, 0), 0),
                            ((2, 0), (3, 0), 0), ((3, 0), (1, 1), 0),
                            ((2, 1), (4, 0), 0), ((2, 2), (5, 0), 0),
                            ((4, 0), (6, 0), 64), ((5, 0), (6, 1), 1),
                            ((6, 0), (9, 0), 64), ((6, 1), (7, 0), 64),
                            ((8, 0), (9, 1), 64), ((9, 0), (10, 0), 64),
                            ((10, 0), (17, 0), 64), ((11, 0), (12, 0), 64),
                            ((12, 0), (13, 0), 64), ((13, 0), (14, 0), 64),
                            ((14, 0), (15, 0), 64), ((15, 0), (16, 0), 64),
                            ((16, 0), (17, 1), 64), ((16, 1), (12, 1), 64),
                            ((17, 0), (18, 0), 64)):
        g.add_channel(src, dst, width)
    return g


def test_exhaustive_evaluation_agrees_under_backpressure_and_idle_cycles():
    assert_exhaustive_evaluation_agrees(flood(), [(5, 7)], budgets=(37, 200))
    assert_exhaustive_evaluation_agrees(slow_negate(), [(7,)])


def rule_calls(g, args):
    """(rule calls, calls that fired) in one untraced run of g: a call
    fired if the rule returned a true value."""
    _, _, calls = watch(g, args, trace=False)
    return len(calls), sum(fired for *_, fired in calls)


@pytest.mark.parametrize("source, args", [
    ("power", (2, 10)), ("newton_raphson", (1.0,)), (wide_ladder(10), (3, 5))],
    ids=["power", "newton_raphson", "wide_ladder"])
def test_worklist_wakes_only_components_that_can_fire(compiled, source, args):
    """A rule runs only once the event that blocked it has happened, so
    nearly every call fires.  The calls that fire are the traced run's
    firings: one per component and cycle with events."""
    g = (compiled(source) if source in corpus.PROGRAMS
         else compile_source(source)).cdfg
    calls, firing = rule_calls(g, args)
    events = simulate(g, args, trace=True).events
    assert firing == len({(cycle, c) for cycle, c, _ in events})
    assert calls <= 1.05 * firing, (calls, firing)


@pytest.mark.parametrize("source, args", [
    ("power", (2, 10)), ("newton_raphson", (1.0,)), (wide_ladder(10), (3, 5))],
    ids=["power", "newton_raphson", "wide_ladder"])
def test_every_rule_call_fires(compiled, source, args):
    """A filled channel wakes a join other than a Merge only once all its
    other inputs hold a token, so no call declines: newton_raphson's
    three-input select runs once per iteration, when its last input
    arrives."""
    g = (compiled(source) if source in corpus.PROGRAMS
         else compile_source(source)).cdfg
    calls, firing = rule_calls(g, args)
    assert calls == firing


def triggered_const():
    """A control-only Entry triggers Const 1, whose 7 goes to the Exit."""
    g = circuit("trigger", [(C.ENTRY, (), (0,), {}),
                            (C.CONST, (0,), I64, {"value": 7}),
                            (C.EXIT, I64, (), {})], [])
    g.add_channel((0, 0), (1, 0), 0)
    g.add_channel((1, 0), (2, 0), 64)
    return g


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_a_run_stopped_before_its_first_cycle_leaves_every_pin_full(compiled,
                                                                    trace):
    """Each Entry's token waits on its pin until cycle 0: a run with no
    cycles leaves one token per Entry, data or control, and has held none
    in a channel."""
    for g, args, entries in ((compiled("power").cdfg, (2, 10), 3),
                             (triggered_const(), (), 1)):
        assert sum(c.kind == C.ENTRY for c in g.components) == entries
        with pytest.raises(MaxCyclesError) as info:
            simulate(g, args, max_cycles=0, trace=trace)
        report = info.value.report
        assert (report.leftover, report.max_occupancy) == (entries, 0)
        assert simulate(g, args, trace=trace).leftover == 0


def test_six_kinds_share_the_strict_rule():
    """Five templates: the strict rule, which Entry, Exit, Const, Operator,
    Fork and Sink fill in with their compute line and event name, Branch,
    Merge, Buffer and the pipelined Operator."""
    assert len(sim_module._FIRE) == 5
    assert set(sim_module._STRICT) == {C.ENTRY, C.EXIT, C.CONST, C.OPERATOR,
                                       C.FORK, C.SINK}
    assert simulate(triggered_const(), (), trace=True).events == [
        (0, 0, "emit"), (1, 1, "fire"), (2, 2, "exit")]


@pytest.mark.parametrize("traced", [False, True])
def test_a_rule_with_no_outputs_has_no_stall_branch(traced):
    """An Exit or a Sink can never stall, so its kernel, traced or not,
    never adds itself to `stalled`; a Fork's still does.  Each still wakes
    its input's producer if that stalled."""
    for kind, outs in ((C.EXIT, []), (C.SINK, []), (C.FORK, ["o0"])):
        text = sim_module._fill(kind, ["i0"], outs, ["p0"], ["c0"][:len(outs)],
                                [[]][:len(outs)], traced, i="i", c="c", fn="fn", depth="depth")
        assert ("s.stalled.add(i)" in text) == bool(outs), kind
        assert ("elif" in text) == bool(outs) and "s.stalled.remove(p0)" in text


# -- the closure engine as reference -----------------------------------------
#
# `sim_reference` is the engine the per-shape kernels replaced: a closure
# per kind reading its channels through `itemgetter`, and Buffers that
# wait on the release heap like pipelines.  Both must give equal traced
# reports, or raise equal errors, on every circuit and budget.

def reference_outcome(g, args, max_cycles, trace=True):
    try:
        return ReferenceSimulator(g, args, trace=trace).run(max_cycles)
    except MiniHlsError as e:
        return type(e), e.message, e.pos, getattr(e, "report", None)


def assert_reference_agrees(g, points, budgets=(DEFAULT_MAX_CYCLES, 37)):
    for args in points:
        for max_cycles in budgets:
            assert outcome(g, args, max_cycles) == reference_outcome(
                g, args, max_cycles), (args, max_cycles)


@pytest.mark.parametrize("latencies", [
    {}, {"mul_i64": 0}, {"mul_i64": 6, "add_i64": 1}],
    ids=["default", "mul0", "mul6-add1"])
@pytest.mark.parametrize("opt", [True, False], ids=["opt", "no-opt"])
def test_reference_agrees_on_corpus(program, compiled, sweeps, opt, latencies):
    points = sweeps[program][::max(1, len(sweeps[program]) // 4)]
    assert_reference_agrees(
        compiled(program, opt=opt, latencies=latencies).cdfg, points)


@pytest.mark.parametrize("ladder", [narrow_ladder, wide_ladder])
def test_reference_agrees_on_ladders(ladder):
    for n in range(1, 9):
        assert_reference_agrees(compile_source(ladder(n)).cdfg,
                                [(3, 5), (-4, 2), (0, 0)])


@pytest.mark.parametrize("seed", [7, 11, 23])
def test_reference_agrees_with_buffers_spliced_at_random(seed):
    assert_reference_agrees(spliced_power(seed), [(2, 0), (-3, 4), (2, 10)])


def test_reference_agrees_under_backpressure_and_idle_cycles():
    assert_reference_agrees(flood(), [(5, 7)], budgets=(37, 200))
    assert_reference_agrees(slow_negate(), [(7,)])


@pytest.mark.parametrize("latency", [0, 3])
def test_reference_agrees_on_hand_built_circuits(latency):
    g = compile_source("function f(a, b)\n  return a % b\nend\n",
                       corpus.SIGNATURES["power"],
                       latencies={"mod_i64": latency}).cdfg
    assert_reference_agrees(g, [(7, 4), (5, 0)])
    assert_reference_agrees(wide_shapes(latency),
                            [(5, True), (-3, False), (0, True)])
    assert_reference_agrees(backlog(latency), [(1, 2, 3, 4, 5)])


def backlog(latency):
    """Four tokens reach a 4-input Merge two cycles apart, behind 0 to 3
    Buffers, and pass a latency-2 negate and then a Buffer towards an adder
    whose other input waits on a negate of latency 10 + `latency`.  They
    back up: one waits at the adder, one in the Buffer, one at its input
    and one is due in the negate, so the negate stalls on a due slot and
    the Buffer frees its slot with a token waiting."""
    g = CDFG("backlog")

    def add(kind, ins=(64,), outs=(64,), **kw):
        return g.add_component(kind, ins, outs, **kw)

    def link(src, dst, k=0):
        g.add_channel((src.id, 0), (dst.id, k), 64)
    merge = add(C.MERGE, (64,) * 4)
    for k in range(4):
        prev = add(C.ENTRY, ())
        for _ in range(k):
            buf = add(C.BUFFER)
            link(prev, buf)
            prev = buf
        link(prev, merge, k)
    neg = add(C.OPERATOR, opcode="neg_i64", latency=2)
    buf = add(C.BUFFER)
    slow = add(C.OPERATOR, opcode="neg_i64", latency=10 + latency)
    adder = add(C.OPERATOR, (64, 64), opcode="add_i64")
    exit_, entry = add(C.EXIT, outs=()), add(C.ENTRY, ())
    for src, dst, k in ((merge, neg, 0), (neg, buf, 0), (buf, adder, 0),
                        (entry, slow, 0), (slow, adder, 1), (adder, exit_, 0)):
        link(src, dst, k)
    return g


def wide_shapes(latency):
    """Shapes the compiler rarely makes.  Entry x feeds a 4-output Fork
    and Entry f a 3-output Fork.  A 3-input select (latency `latency`)
    chooses between two copies of x; a Branch steered by f and a negate
    one cycle slower than the select feed a 3-input Merge, whose tokens a
    3-output Fork hands to two Sinks and an adder that also takes the
    select's result.  The Merge's second token backs up in the adder."""
    g = CDFG("wide_shapes")
    for kind, ins, outs, kw in (
            (C.ENTRY, (), (64,), {"label": "x"}),
            (C.ENTRY, (), (1,), {"label": "f"}),
            (C.FORK, (64,), (64,) * 4, {}), (C.FORK, (1,), (1,) * 3, {}),
            (C.OPERATOR, (1, 64, 64), (64,),
             {"opcode": "select_i64", "latency": latency}),
            (C.BRANCH, (64, 1), (64, 64), {}),
            (C.OPERATOR, (64,), (64,),
             {"opcode": "neg_i64", "latency": latency + 1}),
            (C.MERGE, (64,) * 3, (64,), {}), (C.FORK, (64,), (64,) * 3, {}),
            (C.SINK, (64,), (), {}), (C.SINK, (64,), (), {}),
            (C.OPERATOR, (64, 64), (64,), {"opcode": "add_i64"}),
            (C.EXIT, (64,), (), {}), (C.SINK, (1,), (), {})):
        g.add_component(kind, ins, outs, **kw)
    for src, dst, width in (((0, 0), (2, 0), 64), ((1, 0), (3, 0), 1),
                            ((3, 0), (4, 0), 1), ((2, 0), (4, 1), 64),
                            ((2, 1), (4, 2), 64), ((2, 2), (5, 0), 64),
                            ((3, 1), (5, 1), 1), ((2, 3), (6, 0), 64),
                            ((5, 0), (7, 0), 64), ((5, 1), (7, 1), 64),
                            ((6, 0), (7, 2), 64), ((7, 0), (8, 0), 64),
                            ((8, 0), (9, 0), 64), ((8, 1), (10, 0), 64),
                            ((4, 0), (11, 0), 64), ((8, 2), (11, 1), 64),
                            ((11, 0), (12, 0), 64), ((3, 2), (13, 0), 1)):
        g.add_channel(src, dst, width)
    return g


@pytest.mark.parametrize("latency", [0, 3])
def test_wide_shapes_compute_what_they_should(latency):
    """The select and the Branch pass x on, so the adder doubles it; the
    negated copy waits behind the adder.  Each shape has its own kernel,
    whose code object is named after the shape."""
    g = wide_shapes(latency)
    for x, flag in [(5, True), (-3, False)]:
        report = simulate(g, (x, flag))
        assert (report.output, report.leftover) == (2 * x, 1)
    kernels = [sim_module.SimPlan.of(g).nodes[i].__code__.co_filename
               for i in (2, 3, 4, 5, 6, 7)]
    pipelined = "Operator" if latency == 0 else "Pipeline"
    assert kernels == [
        "<sim rule Fork 1x4>", "<sim rule Fork 1x3>",
        f"<sim rule {pipelined} 3x1>", "<sim rule Branch 2x2>",
        "<sim rule Pipeline 1x1>", "<sim rule Merge 3x1>"]


def fanned_merge(label, n, early=False):
    """Entry x copied by a Fork into the inputs of one n-input Merge, whose
    copies all arrive in cycle 2.  With `early` input 0 is fed by Entry 4
    instead, whose token the Merge passes on in cycle 1."""
    g = CDFG("fanned")
    x = g.add_component(C.ENTRY, (), (64,), label="x")
    fork = g.add_component(C.FORK, (64,), (64,) * (n - early))
    m = g.add_component(C.MERGE, (64,) * n, (64,), label=label)
    exit_ = g.add_component(C.EXIT, (64,), ())
    g.add_channel((x.id, 0), (fork.id, 0), 64)
    for k in range(early, n):
        g.add_channel((fork.id, k - early), (m.id, k), 64)
    g.add_channel((m.id, 0), (exit_.id, 0), 64)
    if early:
        y = g.add_component(C.ENTRY, (), (64,), label="y")
        g.add_channel((y.id, 0), (m.id, 0), 64)
    return g


@pytest.mark.parametrize("n, early", [(2, False), (3, False), (4, False),
                                      (3, True), (4, True)])
def test_merge_conflict_quotes_its_label_verbatim(n, early, monkeypatch):
    """A rule's text and a trace's hold only fixed names and numbers: the
    label reaches the message as it is and no compiled text, whatever the
    label.  Any two valid inputs conflict, also when input 0 is empty."""
    label = 'q"uo\'te {x} {{y}} %s back\\slash\nnewline'
    texts = []
    monkeypatch.setattr(codegen, "compile", lambda text, *a: texts.append(
        text) or compile(text, *a), raising=False)
    sim_module._factory.cache_clear()
    g = fanned_merge(label, n, early)
    for hot_after in (sim_module._HOT_AFTER, 1):  # the kernels, then the traces
        monkeypatch.setattr(sim_module, "_HOT_AFTER", hot_after)
        with pytest.raises(MergeConflictError) as info:
            simulate(g, (1, 2) if early else (1,))
        assert info.value.message == (
            f"merge 2 ({label}) has {n - early} valid inputs in cycle 2")
    assert_reference_agrees(g, [(1, 2) if early else (1,)])
    assert any(text.startswith("def make(") for text in texts)
    assert any(text.startswith("def run(s, chan, max_cycles)") for text in texts)
    assert not any(part in text for text in texts
                   for part in ("uo", "slash", "newline", "x}"))
    sim_module._factory.cache_clear()


@pytest.mark.parametrize("payload", [-0.0, float("nan"), True,
                                     9_223_372_036_854_775_807,
                                     -9_223_372_036_854_775_808])
def test_const_payloads_pass_unchanged(payload):
    """A Const's payload is bound to its rule, never written into its
    text: -0.0, nan, True and the Int64 extremes come out as they went in,
    as in the closure engine."""
    w = 1 if payload is True else 64
    g = CDFG("const", return_width=w)
    trigger = g.add_component(C.ENTRY, (), (0,))
    const = g.add_component(C.CONST, (0,), (w,), value=payload)
    buf = g.add_component(C.BUFFER, (w,), (w,))
    exit_ = g.add_component(C.EXIT, (w,), ())
    for a, b, width in ((trigger, const, 0), (const, buf, w), (buf, exit_, w)):
        g.add_channel((a.id, 0), (b.id, 0), width)
    report = simulate(g, (), trace=True)
    want = ReferenceSimulator(g, (), trace=True).run()
    assert repr(report.output) == repr(want.output) == repr(payload)
    assert type(report.output) is type(payload)
    assert dataclasses.replace(report, output=None) == dataclasses.replace(
        want, output=None)


# -- the schedule within a cycle --------------------------------------------
#
# A cycle runs its worklist in the order the set yields it: a rule reads
# only the start-of-cycle channels and its own state, so only the event
# log, which a traced commit orders by component, the first Exits' output
# and the error raised can tell the order, and each is defined by ascending
# component order.  A set of small ints yields them by slot, so {1, 8}
# yields 8 first.

def without_events(result):
    """`outcome` with the event log of its report dropped."""
    if isinstance(result, SimReport):
        return dataclasses.replace(result, events=None)
    *error, report = result
    return (*error, report and without_events(report))


def assert_same_outcome_traced_or_not(g, points, exhaustive=True,
                                      budgets=(DEFAULT_MAX_CYCLES, 37)):
    """The engine, untraced, traced and on compiled traces, the exhaustive
    oracle if `exhaustive` and the reference all give one outcome."""
    for args in points:
        for max_cycles in budgets:
            want = reference_outcome(g, args, max_cycles)
            assert outcome(g, args, max_cycles) == want, (args, max_cycles)
            assert outcome(g, args, max_cycles, trace=False) == without_events(
                want) == reference_outcome(g, args, max_cycles, trace=False)
            assert outcome(g, args, max_cycles, hot=True) == without_events(want)
            if exhaustive:
                for trace in (True, False):
                    assert outcome(g, args, max_cycles, exhaustive=True,
                                   trace=trace) == (
                        want if trace else without_events(want))


def twin_faults(first, latency):
    """Entries a (0) and b (2) fork (3, 4) into component 1, a Merge or
    `a % b`, and component 8, `a % b`, which take their inputs in the same
    cycle; an adder (5) sums their results through a Buffer (7) into the
    Exit (6).  With b = 0 both fault in cycle 2."""
    g = CDFG("twin_faults")
    for kind, ins, outs, kw in (
            (C.ENTRY, (), (64,), {}),
            (first, (64, 64), (64,), {"label": "m"} if first == C.MERGE else
             {"opcode": "mod_i64", "latency": latency, "pos": Pos(2, 5)}),
            (C.ENTRY, (), (64,), {}), (C.FORK, (64,), (64, 64), {}),
            (C.FORK, (64,), (64, 64), {}),
            (C.OPERATOR, (64, 64), (64,), {"opcode": "add_i64"}),
            (C.EXIT, (64,), (), {}), (C.BUFFER, (64,), (64,), {}),
            (C.OPERATOR, (64, 64), (64,),
             {"opcode": "mod_i64", "latency": latency, "pos": Pos(3, 5)})):
        g.add_component(kind, ins, outs, **kw)
    for src, dst in (((0, 0), (3, 0)), ((2, 0), (4, 0)), ((3, 0), (1, 0)),
                     ((4, 0), (1, 1)), ((3, 1), (8, 0)), ((4, 1), (8, 1)),
                     ((1, 0), (5, 0)), ((8, 0), (5, 1)), ((5, 0), (7, 0)),
                     ((7, 0), (6, 0))):
        g.add_channel(src, dst, 64)
    return g


@pytest.mark.parametrize("latency", [0, 3])
@pytest.mark.parametrize("first", [C.OPERATOR, C.MERGE])
def test_the_lowest_component_that_faults_gives_the_error(first, latency):
    assert [*{1, 8}] == [8, 1]  # component 8 runs first
    g = twin_faults(first, latency)
    for trace in (True, False):
        error = outcome(g, (7, 0), DEFAULT_MAX_CYCLES, trace=trace)
        assert error[:3] == ((DivByZeroError, "integer mod by zero",
                              Pos(2, 5)) if first == C.OPERATOR else
                             (MergeConflictError, "merge 1 (m) has 2 valid "
                              "inputs in cycle 2", None))
    assert_same_outcome_traced_or_not(g, [(7, 0), (7, 4)])


def twin_exits(delayed):
    """Entry 0 forks (2) into Exit 8 through a negate (3) and a Buffer (5)
    and into Exit 1 through `sitofp` (4) and a Buffer (6); the third copy
    sinks (7).  Buffer 9 lengthens the path to the Exit numbered `delayed`,
    or if that is None, the path to the Sink."""
    g = CDFG("twin_exits")
    for kind, ins, outs, kw in (
            (C.ENTRY, (), (64,), {}), (C.EXIT, (64,), (), {}),
            (C.FORK, (64,), (64,) * 3, {}),
            (C.OPERATOR, (64,), (64,), {"opcode": "neg_i64"}),
            (C.OPERATOR, (64,), (64,), {"opcode": "sitofp"}),
            (C.BUFFER, (64,), (64,), {}), (C.BUFFER, (64,), (64,), {}),
            (C.SINK, (64,), (), {}), (C.EXIT, (64,), (), {}),
            (C.BUFFER, (64,), (64,), {})):
        g.add_component(kind, ins, outs, **kw)
    last = {1: 6, 8: 5}
    if delayed:
        g.add_channel((last[delayed], 0), (9, 0), 64)
        last[delayed] = 9
    else:
        g.add_channel((2, 2), (9, 0), 64)  # the Buffer feeds the Sink
    for src, dst in (((0, 0), (2, 0)), ((2, 0), (3, 0)), ((3, 0), (5, 0)),
                     ((2, 1), (4, 0)), ((4, 0), (6, 0)), ((last[1], 0), (1, 0)),
                     ((last[8], 0), (8, 0)),
                     ((2, 2) if delayed else (9, 0), (7, 0))):
        g.add_channel(src, dst, 64)
    return g


@pytest.mark.parametrize("delayed, want", [(None, 7.0), (1, -7), (8, 7.0)])
def test_the_first_exits_to_fire_give_the_output(delayed, want):
    """Of the Exits that fire first, the lowest-numbered gives the output."""
    g = twin_exits(delayed)
    assert simulate(g, (7,)).output == want
    assert_same_outcome_traced_or_not(g, [(7,)])


def test_untraced_reports_are_traced_ones_without_events(compiled, sweeps):
    for program in corpus.PROGRAMS:
        assert_same_outcome_traced_or_not(
            compiled(program).cdfg, sweeps[program], exhaustive=False)
    for ladder in (narrow_ladder, wide_ladder):
        for n in range(1, 9):
            assert_same_outcome_traced_or_not(
                compile_source(ladder(n)).cdfg, [(3, 5), (-4, 2), (0, 0)],
                exhaustive=False)
    assert_same_outcome_traced_or_not(flood(), [(5, 7)], budgets=(37, 200))
    for seed in (7, 11, 23):
        assert_same_outcome_traced_or_not(spliced_power(seed),
                                          [(2, 0), (-3, 4), (2, 10)])


# -- moves done at once and moves queued ------------------------------------
#
# Only a channel's two ends read it, so a firing moves a token at once
# unless the channel's other end runs in the same cycle, and then queues
# it for the commit.  Normal runs rarely queue; the circuits below do, and
# each run must equal the reference's event for event.

def circuit(name, components, channels):
    """A circuit of 64-bit channels from (kind, ins, outs, fields) rows and
    (src, dst) port pairs, numbered in the order given."""
    g = CDFG(name)
    for kind, ins, outs, kw in components:
        g.add_component(kind, ins, outs, **kw)
    for src, dst in channels:
        g.add_channel(src, dst, 64)
    return g


def watch(g, args, trace=True):
    """One run's report, the moves it queued as (cycle, "take" or "put",
    channel) and its rule calls as (cycle, component, fired)."""
    sim = Simulator(g, args, trace=trace)
    moves, calls = [], []

    def watched(i, rule):
        def call(s, chan, work):
            took, put = len(s.consume), len(s.produce)
            fired = rule(s, chan, work)
            calls.append((s.cycle, i, bool(fired)))
            moves.extend([(s.cycle, "take", k) for k in s.consume[took:]]
                         + [(s.cycle, "put", k) for k, _ in s.produce[put:]])
            return fired
        return call
    wrap_rules(sim, watched)
    return sim.run(), moves, calls


I64 = (64,)


def test_a_move_whose_other_end_runs_too_is_queued():
    """Entry 0 reaches Merge 2 at once and Entry 1 two cycles later
    through Buffer 3; the Merge passes both to Buffer 4, then the Exit.  In
    cycle 3 the Merge fills channel 3 while Buffer 4 emits the first
    token, and in cycle 4 the Exit empties channel 4 while Buffer 4 takes
    the second: both ends of each channel run, so both moves are queued."""
    g = circuit("relay", [
        (C.ENTRY, (), I64, {}), (C.ENTRY, (), I64, {}),
        (C.MERGE, I64 * 2, I64, {}), (C.BUFFER, I64, I64, {}),
        (C.BUFFER, I64, I64, {}), (C.EXIT, I64, (), {})],
        [((0, 0), (2, 0)), ((1, 0), (3, 0)), ((3, 0), (2, 1)),
         ((2, 0), (4, 0)), ((4, 0), (5, 0))])
    report, moves, _ = watch(g, (1, 2))
    assert moves == [(3, "put", 3), (4, "take", 4)]
    assert (report.output, report.exit_cycle, report.total_cycles,
            report.leftover) == (1, 4, 8, 0)
    assert_same_outcome_traced_or_not(g, [(1, 2)])


def test_a_join_whose_inputs_arrive_while_it_runs_queues_both():
    """Forks 2 and 3 copy Entries a and b into Merges 4 and 5, which feed
    the adder 6 (latency 1) twice: the first copies directly, b's later
    through Buffer 12, the second copies through two Buffers each.
    The first pair arrives at once in cycles 2 and 4, and only the second
    arrival wakes the adder.  The second pair arrives together in cycle 6,
    when the adder releases its first sum, so both are queued and the
    commit wakes it once.  The adder runs only in the cycles it fires."""
    g = circuit("join", [
        (C.ENTRY, (), I64, {}), (C.ENTRY, (), I64, {}),
        (C.FORK, I64, I64 * 2, {}), (C.FORK, I64, I64 * 2, {}),
        (C.MERGE, I64 * 2, I64, {}), (C.MERGE, I64 * 2, I64, {}),
        (C.OPERATOR, I64 * 2, I64, {"opcode": "add_i64", "latency": 1}),
        (C.EXIT, I64, (), {}), *[(C.BUFFER, I64, I64, {})] * 5],
        [((0, 0), (2, 0)), ((1, 0), (3, 0)), ((2, 0), (4, 0)),
         ((3, 0), (12, 0)), ((12, 0), (5, 0)), ((2, 1), (8, 0)),
         ((8, 0), (9, 0)), ((9, 0), (4, 1)), ((3, 1), (10, 0)),
         ((10, 0), (11, 0)), ((11, 0), (5, 1)), ((4, 0), (6, 0)),
         ((5, 0), (6, 1)), ((6, 0), (7, 0))])
    report, moves, calls = watch(g, (3, 4))
    assert moves == [(6, "put", 11), (6, "put", 12), (7, "take", 13)]
    assert [call for call in calls if call[1] == 6] == [
        (5, 6, True), (6, 6, True), (7, 6, True), (8, 6, True)]
    assert (report.output, report.leftover) == (7, 0)
    assert_same_outcome_traced_or_not(g, [(3, 4), (-5, 0)])


def test_a_consumption_done_at_once_frees_a_stalled_producer():
    """Entry 0 reaches the negate 4 twice through Fork 1 and Merge 2, the
    second time a Buffer (3) later.  Its first result waits at the adder 7
    (latency 1) for the slow negate 6, so the negate stalls in cycle 5 on
    its second token.  The adder takes both inputs in cycle 6, at once as
    neither producer runs, which frees the negate; it fires in cycle 7,
    when the adder releases its sum, so that move is queued."""
    g = circuit("stall", [
        (C.ENTRY, (), I64, {}), (C.FORK, I64, I64 * 2, {}),
        (C.MERGE, I64 * 2, I64, {}), (C.BUFFER, I64, I64, {}),
        (C.OPERATOR, I64, I64, {"opcode": "neg_i64"}), (C.ENTRY, (), I64, {}),
        (C.OPERATOR, I64, I64, {"opcode": "neg_i64", "latency": 4}),
        (C.OPERATOR, I64 * 2, I64, {"opcode": "add_i64", "latency": 1}),
        (C.EXIT, I64, (), {})],
        [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((1, 1), (3, 0)),
         ((3, 0), (2, 1)), ((2, 0), (4, 0)), ((4, 0), (7, 0)),
         ((5, 0), (6, 0)), ((6, 0), (7, 1)), ((7, 0), (8, 0))])
    report, moves, calls = watch(g, (3, 4))
    assert [call for call in calls if call[1] in (4, 7)] == [
        (3, 4, True), (5, 4, False), (6, 7, True), (7, 4, True), (7, 7, True)]
    assert moves == [(7, "put", 5)]
    assert (report.output, report.leftover) == (-7, 1)
    assert_same_outcome_traced_or_not(g, [(3, 4)])


# -- compiled traces ---------------------------------------------------------
#
# An untraced run compiles each worklist snapshot a plan has seen
# `_HOT_AFTER` times into a trace: the cycles that follow it, recorded
# ahead on the kernels and compiled as value code that tests the
# occupancy it was recorded on.  The differential helpers above run every
# circuit they check on compiled traces as well.

def chain(n):
    """Entry 0 through n negates to the Exit: each cycle runs one
    component, so no snapshot recurs within a run."""
    return circuit("chain", [(C.ENTRY, (), I64, {}),
                             *[(C.OPERATOR, I64, I64, {"opcode": "neg_i64"})] * n,
                             (C.EXIT, I64, (), {})],
                   [((k, 0), (k + 1, 0)) for k in range(n + 1)])


def compiled_cycles(g):
    """The compiled traces of g's plan by snapshot."""
    return {work: step for work, step in sim_module.SimPlan.of(g).cycles.items()
            if not isinstance(step, int)}


def test_a_snapshot_compiles_once_when_it_recurs(monkeypatch):
    """One long run goes hot within itself, and later runs reuse its
    traces: each snapshot seen `_HOT_AFTER` times compiles once.  A
    snapshot whose cycle ends the run records no cycle and counts again
    from 0."""
    compiles = collections.Counter()

    def counting(sim, work, max_cycles):
        step = compile_trace(sim, work, max_cycles)
        compiles[work, isinstance(step, int)] += 1
        return step

    compile_trace = sim_module._compile_trace
    monkeypatch.setattr(sim_module, "_compile_trace", counting)
    monkeypatch.setattr(sim_module, "_HOT_AFTER", 8)
    g = fresh_power()
    args = [(1, 20), (-1, 10), (3, 7), (2, 0)]
    want = [reference_outcome(g, a, DEFAULT_MAX_CYCLES, trace=False) for a in args]
    assert outcome(g, args[0], DEFAULT_MAX_CYCLES, trace=False) == want[0]
    assert compiles and {w for w, cold in compiles if not cold} == set(compiled_cycles(g))
    for _ in range(8):
        assert [outcome(g, a, DEFAULT_MAX_CYCLES, trace=False) for a in args] == want
    hot, cycles = compiled_cycles(g), sim_module.SimPlan.of(g).cycles
    assert {n for (_, cold), n in compiles.items() if not cold} == {1}
    assert {w for w, cold in compiles if not cold} == set(hot)
    assert {w for w, cold in compiles if cold} == {w for w, n in cycles.items() if n == 0}
    assert all(0 <= n < 8 for n in cycles.values() if isinstance(n, int))
    assert all(not isinstance(value, (sim_module.SimPlan, Simulator))
               for step in hot.values() for value in step.__globals__.values())


def test_a_hot_circuit_is_freed_by_reference_counting():
    """A trace's globals hold operations, constants and exit records,
    never the plan or a Simulator, and a recording keeps nothing, so no
    cycle of references keeps them."""
    gc.collect()
    gc.disable()
    try:
        for hot_after in (sim_module._HOT_AFTER, 1):
            g = fresh_power()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sim_module, "_HOT_AFTER", hot_after)
                simulate(g, (2, 10))
            plan = weakref.ref(sim_module.SimPlan.of(g))
            assert bool(compiled_cycles(g)) == (hot_after == 1)
            del g
            assert plan() is None and gc.collect() == 0, hot_after
    finally:
        gc.enable()


def test_the_snapshot_table_is_bounded(monkeypatch):
    """A full table counts only the snapshots it holds: snapshots that
    never recur stop being counted instead of growing it, and once the
    counted ones go hot, only they head traces."""
    monkeypatch.setattr(sim_module, "_SNAPSHOTS", 8)
    g = chain(20)
    counted = []
    for runs in range(1, 4):
        assert simulate(g, (5,)).output == 5
        counted.append(dict(sim_module.SimPlan.of(g).cycles))
        assert list(counted[-1].values()) == [runs] * 8
    assert counted[0].keys() == counted[-1].keys()
    monkeypatch.setattr(sim_module, "_HOT_AFTER", 4)
    assert simulate(g, (5,)).output == 5
    assert set(compiled_cycles(g)) <= counted[0].keys() == sim_module.SimPlan.of(g).cycles.keys()
    assert compiled_cycles(g)


def test_a_cycle_whose_text_python_refuses_stays_cold(monkeypatch):
    """Every snapshot counted goes hot at once: its trace's text is refused
    once and it stays cold, unless its recording ran no cycle, which
    leaves it at 0 to count again."""
    define, record = simtrace.define, simtrace._record
    ran, refused, heads = {}, collections.Counter(), []  # ran: whether its last recording did

    def recording(sim, work, max_cycles):
        rec = record(sim, work, max_cycles)
        ran[work] = rec is not None
        heads.append(work)
        return rec

    def refusing(text, name, scope, fn="run"):
        if name.startswith("<sim trace"):
            refused[heads[-1]] += 1
            return None
        return define(text, name, scope, fn)

    monkeypatch.setattr(simtrace, "define", refusing)
    monkeypatch.setattr(simtrace, "_record", recording)
    monkeypatch.setattr(sim_module, "_HOT_AFTER", 1)
    g = fresh_power()
    want = reference_outcome(g, (2, 10), DEFAULT_MAX_CYCLES, trace=False)
    for _ in range(3):
        assert outcome(g, (2, 10), DEFAULT_MAX_CYCLES, trace=False) == want
    cycles = sim_module.SimPlan.of(g).cycles
    assert cycles.keys() == ran.keys()
    assert {w for w, n in cycles.items() if n == 0} == {w for w in ran if not ran[w]}
    cold = {w for w, n in cycles.items() if n != 0}
    assert cold and all(isinstance(cycles[w], int) and cycles[w] < 0 for w in cold)
    assert refused == dict.fromkeys(cold, 1)


def test_an_empty_worklist_is_never_counted(compiled):
    """A cycle with an empty worklist fires nothing, so its snapshot is
    neither counted nor compiled, on loops that wait on pipelines too."""
    for g in (compiled("newton_raphson").cdfg, compiled("power", latencies={"mul_i64": 6}).cdfg):
        for args in ((1.5,), (10.0,)) if len(sim_module.SimPlan.of(g).data_entries) == 1 \
                else ((2, 10), (-3, 4)):
            assert outcome(g, args, DEFAULT_MAX_CYCLES, hot=True) == reference_outcome(
                g, args, DEFAULT_MAX_CYCLES, trace=False)
        assert compiled_cycles(g) and frozenset() not in sim_module.SimPlan.of(g).cycles


Call = collections.namedtuple("Call", "path loop start end result max_cycles pending")


def watch_traces(patch):
    """Log each call of a trace compiled from here on as a `Call`: its
    recorded path of snapshots, the cycle its lap begins at (None if it
    does not close), the cycles it started and ended in, what it returned,
    the run's budget and the cycles of the releases pending at its start;
    and each trace's path, in the order they compiled."""
    trace, calls, paths = simtrace._trace, [], []

    def watched(plan, rec):
        run = trace(plan, rec)
        if run is None:
            return run
        path = [snap.work for snap in rec.snaps[:rec.length]]
        paths.append(path)

        def call(s, chan, max_cycles):
            start, pending = s.cycle, sorted(r for r, _ in s.releases)
            result = run(s, chan, max_cycles)
            calls.append(Call(path, rec.loop, start, s.cycle, result, max_cycles, pending))
            return result
        return call
    patch.setattr(simtrace, "_trace", watched)
    return calls, paths


@pytest.mark.parametrize("source, args", [
    ("power", (2, 10)), (narrow_ladder(6), (3, 5)), (wide_ladder(6), (-4, 2))],
    ids=["power", "narrow_ladder", "wide_ladder"])
def test_a_trace_runs_several_cycles_per_call(source, args, monkeypatch):
    """A hot run follows the recorded path: some call runs more than one
    cycle, and no trace holds a snapshot that heads one compiled before."""
    calls, paths = watch_traces(monkeypatch)
    g = fresh_power() if source == "power" else compile_source(source).cdfg
    want = reference_outcome(g, args, DEFAULT_MAX_CYCLES, trace=False)
    assert outcome(g, args, DEFAULT_MAX_CYCLES, hot=True) == want
    assert max(call.end - call.start for call in calls) > 1
    for k, path in enumerate(paths):
        assert not {head for head, *_ in paths[:k]} & set(path[1:])
        assert len(path) <= simtrace._TRACE


@pytest.mark.parametrize("args, want", [((3, 40), -6289078614652622815), ((2, 64), 0),
                                         ((-2, 63), -2**63)], ids=["3^40", "2^64", "-2^63"])
def test_power_wraps_alike_in_every_hot_tier(args, want, monkeypatch):
    """3^40 and 2^64 overflow Int64 and (-2)^63 is its least value: each
    hot tier, which pastes `mul_i64`'s expression, gives the cold tier's."""
    res = compile_source(corpus.load("power"), corpus.SIGNATURES["power"])
    assert run_source(source_fn("power"), args) == want
    for func, run in ((res.func, run_source), (res.ssa, run_ssa)):
        run_hot(func, (2, 3))
        monkeypatch.setattr(func.plan, "interpret", None)  # the compiled code alone
        assert (got := run(func, args)) == want and type(got) is int
    cold = outcome(res.cdfg, args, DEFAULT_MAX_CYCLES, trace=False)
    assert cold.output == want and compiled_cycles(res.cdfg) == {}
    assert outcome(res.cdfg, args, DEFAULT_MAX_CYCLES, hot=True) == cold
    assert compiled_cycles(res.cdfg)


def test_a_trace_compiled_inside_a_loop_closes_into_a_loop(monkeypatch):
    """A head that goes hot while power's loop runs records the loop's lap
    until its state recurs: one call then runs many laps, more cycles than
    its path holds, up to the lap that leaves the loop."""
    calls, _ = watch_traces(monkeypatch)
    monkeypatch.setattr(sim_module, "_HOT_AFTER", 8)
    g = fresh_power()
    want = reference_outcome(g, (2, 30), DEFAULT_MAX_CYCLES, trace=False)
    assert outcome(g, (2, 30), DEFAULT_MAX_CYCLES, trace=False) == want
    assert any(call.loop is not None and call.end - call.start > 2 * len(call.path)
               for call in calls)


def test_an_inner_loop_keeps_its_closed_trace(monkeypatch):
    """In a nested loop whose outer body runs fewer times than it takes to
    go hot, the inner loop's closed trace leaves at the inner exit in every
    outer pass and is kept: one trace call runs the inner laps of at least
    12 of the 13 outer passes each, and no head records more than twice."""
    calls, paths = watch_traces(monkeypatch)
    monkeypatch.setattr(sim_module, "_HOT_AFTER", 8)
    g = compile_source("""
function f(n::Int64, m::Int64)
  s = 0
  i = 0
  while i < n
    j = 0
    while j < m
      s = s + j
      j = j + 1
    end
    i = i + 1
  end
  return s
end
""").cdfg
    for args in ((6, 40), (7, 25)):
        want = reference_outcome(g, args, DEFAULT_MAX_CYCLES, trace=False)
        assert outcome(g, args, DEFAULT_MAX_CYCLES, trace=False) == want, args
    closed = [call for call in calls if call.loop is not None]
    assert max(collections.Counter(path[0] for path in paths).values()) <= 2
    assert len({call.path[0] for call in closed}) == 1 and len(closed) >= 10
    assert sum(call.end - call.start > 20 * len(call.path) for call in closed) >= 12


def test_a_branch_guard_leaves_the_loop_at_every_lap(monkeypatch):
    """power for n = 0..40 and newton_raphson from 20 starting points each
    leave their closed lap at its Branch guard after a lap count of their
    own, and give the reference outcome."""
    calls, _ = watch_traces(monkeypatch)
    g = fresh_power()
    for n in range(41):
        assert outcome(g, (3, n), DEFAULT_MAX_CYCLES, hot=True) == reference_outcome(
            g, (3, n), DEFAULT_MAX_CYCLES, trace=False), n
    laps = {call.end - call.start for call in calls if call.loop is not None}
    assert len(laps) >= 30 and not any(call.result for call in calls if call.loop is not None)
    calls.clear()
    g = compile_source(corpus.load("newton_raphson"), corpus.SIGNATURES["newton_raphson"]).cdfg
    for x0 in [0.05 * 1.6 ** k for k in range(20)]:
        assert outcome(g, (x0,), DEFAULT_MAX_CYCLES, hot=True) == reference_outcome(
            g, (x0,), DEFAULT_MAX_CYCLES, trace=False), x0
    assert len({call.end - call.start for call in calls if call.loop is not None}) >= 5


def test_a_budget_ends_a_trace_between_two_cycles(monkeypatch):
    """Every budget from 1 to 180, most of them inside a lap of the loop,
    gives the reference outcome, and some trace leaves at its budget guard
    after running cycles, where no trace leaves without a budget."""
    calls, _ = watch_traces(monkeypatch)
    g = fresh_power()
    assert outcome(g, (2, 15), DEFAULT_MAX_CYCLES, hot=True) == reference_outcome(
        g, (2, 15), DEFAULT_MAX_CYCLES, trace=False)
    unbudgeted = {call.end for call in calls}
    for max_cycles in range(1, 181):
        assert outcome(g, (2, 15), max_cycles, hot=True) == reference_outcome(
            g, (2, 15), max_cycles, trace=False), max_cycles
    assert any(call.loop is not None and call.start < call.end < call.max_cycles < 170
               and call.end not in unbudgeted for call in calls)


def test_a_trace_runs_on_past_a_release(monkeypatch):
    """Under 6-cycle multipliers a trace runs its recorded idle stretches
    as clock jumps, past the releases pending at its start."""
    calls, _ = watch_traces(monkeypatch)
    g = compile_source(corpus.load("power"), corpus.SIGNATURES["power"],
                       latencies={"mul_i64": 6}).cdfg
    for args in ((2, 10), (-3, 4)):
        for max_cycles in (DEFAULT_MAX_CYCLES, 37, 50):
            assert outcome(g, args, max_cycles, hot=True) == reference_outcome(
                g, args, max_cycles, trace=False), (args, max_cycles)
    assert any(call.start < r < call.end for call in calls for r in call.pending)


@pytest.mark.parametrize("latencies", [{"mul_i64": 6}, {"fdiv_f64": 0}],
                         ids=["mul6", "fdiv0"])
def test_traces_agree_under_other_latencies(program, compiled, sweeps, latencies):
    """Traces recorded under other latencies, whose lap lengths and
    pipeline occupancy differ, give the reference outcome."""
    g = compiled(program, latencies=latencies).cdfg
    for args in sweeps[program][::max(1, len(sweeps[program]) // 6)]:
        for max_cycles in (DEFAULT_MAX_CYCLES, 37):
            assert outcome(g, args, max_cycles, hot=True) == reference_outcome(
                g, args, max_cycles, trace=False), (args, max_cycles)


def test_a_trap_inside_a_hot_loop_is_the_kernels(monkeypatch):
    """`a % b` with b counting down to 0 inside the loop: the trace's lap
    leaves at the trap, and the kernels raise it at its position."""
    calls, _ = watch_traces(monkeypatch)
    g = compile_source("""
function f(a::Int64, b::Int64)
  s = 0
  while b > -5
    s = s + a % b
    b = b - 1
  end
  return s
end
""").cdfg
    for args in ((7, 9), (-5, 20), (3, 40), (4, -1)):
        want = reference_outcome(g, args, DEFAULT_MAX_CYCLES, trace=False)
        assert isinstance(want, SimReport) if args == (4, -1) else want[0] is DivByZeroError
        assert outcome(g, args, DEFAULT_MAX_CYCLES, hot=True) == want, args
    assert any(call.loop is not None and call.end - call.start > 20 for call in calls)


def test_a_head_entered_on_another_occupancy_leaves_at_once(monkeypatch):
    """Bool c steers x to Merge 4 directly or through a negate: the Merge's
    snapshot {4} comes with a token on input 0 or on input 1.  A run cut
    by its budget before the Merge's cycle makes its trace hand {4} over,
    which then heads a trace of its own, recorded on input 0.  On input 1
    that trace leaves at once, and the kernels run the cycle."""
    calls, _ = watch_traces(monkeypatch)
    g = CDFG("steer")
    for kind, ins, outs in ((C.ENTRY, (), (64,)), (C.ENTRY, (), (1,)),
                            (C.BRANCH, (64, 1), (64, 64)), (C.OPERATOR, (64,), (64,)),
                            (C.MERGE, (64, 64), (64,)), (C.EXIT, (64,), ())):
        g.add_component(kind, ins, outs, opcode="neg_i64" if kind == C.OPERATOR else None)
    for src, dst, width in (((0, 0), (2, 0), 64), ((1, 0), (2, 1), 1), ((2, 0), (4, 0), 64),
                            ((2, 1), (3, 0), 64), ((3, 0), (4, 1), 64), ((4, 0), (5, 0), 64)):
        g.add_channel(src, dst, width)
    for args, max_cycles in (((5, True), 2), ((5, True), DEFAULT_MAX_CYCLES),
                             ((5, False), DEFAULT_MAX_CYCLES), ((-2, True), DEFAULT_MAX_CYCLES),
                             ((9, False), DEFAULT_MAX_CYCLES)):
        assert outcome(g, args, max_cycles, hot=True) == reference_outcome(
            g, args, max_cycles, trace=False), args
    merge = frozenset({4})
    assert any(call.path[0] == merge and call.start == call.end and call.result is None
               for call in calls)
    assert any(call.path[0] == merge and call.start < call.end for call in calls)


def late_clash():
    """Entry 0 through two negates into Fork 3, both of whose copies reach
    Merge 4 in cycle 4."""
    return circuit("late_clash", [(C.ENTRY, (), I64, {}),
                                  *[(C.OPERATOR, I64, I64, {"opcode": "neg_i64"})] * 2,
                                  (C.FORK, I64, (64, 64), {}),
                                  (C.MERGE, (64, 64), I64, {"label": "m"}),
                                  (C.EXIT, I64, (), {})],
                   [((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (3, 0)),
                    ((3, 0), (4, 0)), ((3, 1), (4, 1)), ((4, 0), (5, 0))])


def twin_exit():
    """A counting loop whose two loop-exit Branches, n's and i's, both
    feed Merge 19 (twin), in place of n's Sink."""
    g = compile_source("""
function f(n::Int64)
  i = 0
  while i < n
    i = i + 1
  end
  return i
end
""").cdfg
    sink, exit_ = (next(c for c in g.components if c.kind == kind and c.in_widths == (64,))
                   for kind in (C.SINK, C.EXIT))
    to_exit = next(ch for ch in g.channels if ch.dst == exit_.id)
    replace_record(g.components, sink, kind=C.MERGE, in_widths=(64, 64), out_widths=(64,),
                   label="twin")
    replace_record(g.channels, to_exit, dst=sink.id, dst_port=1)
    g.add_channel((sink.id, 0), (exit_.id, 0), 64)
    return g


def assert_merge_conflict_is_the_kernels(g, points, monkeypatch):
    """Each point's MergeConflictError, hot, has the kernels' message,
    cycle, tokens, peak and channels, as the kernels alone and the
    reference give them.  Returns the kernels' last and the trace calls."""
    def failed(sim):
        with pytest.raises(MergeConflictError) as info:
            sim.run()
        return info.value.message, sim.cycle, sim.tokens, sim.max_occupancy, sim.chan

    calls, _ = watch_traces(monkeypatch)
    for point in points:
        kernels = Simulator(g, point)
        kernels.plan = copy.copy(kernels.plan)
        kernels.plan.cycles = None
        want = failed(kernels)
        assert outcome(g, point, DEFAULT_MAX_CYCLES, hot=True) == reference_outcome(
            g, point, DEFAULT_MAX_CYCLES, trace=False)[:3] + (None,)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim_module, "_HOT_AFTER", 1)
            assert failed(Simulator(g, point)) == want, point
    return want, calls


def test_a_merge_conflict_late_in_a_trace_leaves_the_kernels_state(monkeypatch):
    """Both copies of Fork 3 reach Merge 4 in cycle 4: one trace runs
    cycles 0 to 3 and hands the conflicting cycle to the kernels."""
    want, calls = assert_merge_conflict_is_the_kernels(late_clash(), [(7,)], monkeypatch)
    assert want[:4] == ("merge 4 (m) has 2 valid inputs in cycle 4", 4, 2, 2)
    assert (calls[0].start, calls[0].end, calls[0].result) == (0, 4, True)


def test_a_merge_conflict_after_a_closed_lap_leaves_the_kernels_state(monkeypatch):
    """The loop's last lap gives Merge 19 two tokens: the closed lap's
    Branch guard leaves to the kernels, which raise the conflict."""
    _, calls = assert_merge_conflict_is_the_kernels(
        twin_exit(), [(n,) for n in (0, 1, 3, 12, 30)], monkeypatch)
    assert any(call.loop is not None and call.end - call.start > 100 for call in calls)


# -- equivalence with the scan-every-component simulator --------------------
#
# The fingerprints below were recorded from the simulator this event-driven
# engine replaced, which evaluated every component in every cycle.  Those
# of the loop circuits were recorded again when `insert_buffers` moved
# their Buffers onto the loop headers' latch inputs; outputs and leftovers
# stayed the same and every exit cycle fell.  Each is (output, exit_cycle,
# total_cycles, max_occupancy, leftover, the first 16 hex digits of the
# sha256 of repr(events)).

def fingerprint(report):
    digest = hashlib.sha256(repr(report.events).encode()).hexdigest()[:16]
    return (report.output, report.exit_cycle, report.total_cycles,
            report.max_occupancy, report.leftover, digest)


def assert_pinned(g, pinned):
    got = {p: fingerprint(simulate(g, p, trace=True)) for p in pinned}
    assert got == pinned


def test_event_trace_pinned_on_corpus_sweeps(program, compiled, sweeps):
    assert list(SEED_FINGERPRINTS[program]) == sweeps[program]
    assert_pinned(compiled(program).cdfg, SEED_FINGERPRINTS[program])


def test_simulators_sharing_a_plan_keep_their_own_state(program):
    """Two runs set up on one circuit before either runs, then run in
    reverse order, each give the events of a run of its own."""
    g = compile_source(corpus.load(program), corpus.SIGNATURES[program]).cdfg
    pinned = SEED_FINGERPRINTS[program]
    points = [list(pinned)[0], list(pinned)[-1]]
    sims = [Simulator(g, p, trace=True) for p in points]
    assert sims[0].plan is sims[1].plan
    got = [fingerprint(s.run()) for s in reversed(sims)]
    assert got == [pinned[p] for p in reversed(points)]


@pytest.mark.parametrize("latency", [0, 2, 6, 12])
def test_event_trace_pinned_under_latencies(compiled, latency):
    res = compiled("power", latencies={"mul_i64": latency})
    assert_pinned(res.cdfg, LATENCY_FINGERPRINTS[latency])


# Two loops of two diamonds each.  Narrow arms are if-converted into
# selects, so only the loop keeps Branch/Merge steering; wide arms exceed
# the speculation limit and keep theirs.
DIAMONDS = {"narrow": """
function narrow(a::Int64, b::Int64)
  x = a
  y = b
  i = 0
  while i < 3
    if x < y
      x = x + y
      y = y - 3
    else
      x = x - y
      y = y + 5
    end
    if x > y
      x = x * 2
      y = y + x
    else
      x = x + 1
      y = y * 3
    end
    i = i + 1
  end
  return x - y
end
""", "wide": """
function wide(a::Int64, b::Int64)
  x = a
  y = b
  i = 0
  while i < 3
    if x < y
      x = x + y * 3 - x
      y = y - x * 2 + y
    else
      x = x * y - 4 + x
      y = y + x - 7 * y
    end
    if x >= y
      x = x - y + 2 * x
      y = y * x + 5 - y
    else
      x = x + 1 - y * x
      y = y - 6 * x + y
    end
    i = i + 1
  end
  return x - y
end
"""}


@pytest.mark.parametrize("name, branches", [("narrow", 4), ("wide", 12)])
def test_event_trace_pinned_on_diamond_loops(name, branches):
    g = compile_source(DIAMONDS[name]).cdfg
    assert component_stats(g)["Branch"] == branches
    assert_pinned(g, DIAMOND_FINGERPRINTS[name])


SEED_FINGERPRINTS = {
    "if_else": {
        (-5, -5): (25, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-5, -4): (20, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-5, -3): (15, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-5, -2): (10, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-5, -1): (5, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-5, 0): (-5, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-5, 1): (-4, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-5, 2): (-3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-5, 3): (-2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-5, 4): (-1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-5, 5): (0, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-4, -5): (20, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-4, -4): (16, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-4, -3): (12, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-4, -2): (8, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-4, -1): (-5, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-4, 0): (-4, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-4, 1): (-3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-4, 2): (-2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-4, 3): (-1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-4, 4): (0, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-4, 5): (1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-3, -5): (15, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-3, -4): (12, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-3, -3): (9, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-3, -2): (6, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-3, -1): (-4, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-3, 0): (-3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-3, 1): (-2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-3, 2): (-1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-3, 3): (0, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-3, 4): (1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-3, 5): (2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-2, -5): (10, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-2, -4): (8, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-2, -3): (6, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-2, -2): (-4, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-2, -1): (-3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-2, 0): (-2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-2, 1): (-1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-2, 2): (0, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-2, 3): (1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-2, 4): (2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-2, 5): (3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-1, -5): (5, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-1, -4): (-5, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-1, -3): (-4, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-1, -2): (-3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-1, -1): (-2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-1, 0): (-1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-1, 1): (0, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-1, 2): (1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-1, 3): (2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-1, 4): (3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (-1, 5): (4, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (0, -5): (-5, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (0, -4): (-4, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (0, -3): (-3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (0, -2): (-2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (0, -1): (-1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (0, 0): (0, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (0, 1): (1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (0, 2): (2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (0, 3): (3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (0, 4): (4, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (0, 5): (5, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (1, -5): (-4, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (1, -4): (-3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (1, -3): (-2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (1, -2): (-1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (1, -1): (0, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (1, 0): (1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (1, 1): (2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (1, 2): (3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (1, 3): (4, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (1, 4): (5, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (1, 5): (5, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (2, -5): (-3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (2, -4): (-2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (2, -3): (-1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (2, -2): (0, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (2, -1): (1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (2, 0): (2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (2, 1): (3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (2, 2): (4, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (2, 3): (6, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (2, 4): (8, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (2, 5): (10, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (3, -5): (-2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (3, -4): (-1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (3, -3): (0, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (3, -2): (1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (3, -1): (2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (3, 0): (3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (3, 1): (4, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (3, 2): (6, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (3, 3): (9, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (3, 4): (12, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (3, 5): (15, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (4, -5): (-1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (4, -4): (0, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (4, -3): (1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (4, -2): (2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (4, -1): (3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (4, 0): (4, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (4, 1): (5, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (4, 2): (8, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (4, 3): (12, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (4, 4): (16, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (4, 5): (20, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (5, -5): (0, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (5, -4): (1, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (5, -3): (2, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (5, -2): (3, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (5, -1): (4, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (5, 0): (5, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (5, 1): (5, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (5, 2): (10, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (5, 3): (15, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (5, 4): (20, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
        (5, 5): (25, 13, 15, 7, 0, "e1c01a1e4f8c93df"),
    },
    "power": {
        (-3, 0): (1, 8, 10, 8, 0, "1bb670b4017d5fc4"),
        (-3, 1): (-3, 18, 20, 8, 0, "49979bf3852667e5"),
        (-3, 2): (9, 28, 30, 8, 0, "474892157101a8a6"),
        (-3, 3): (-27, 38, 40, 8, 0, "21420064f28da317"),
        (-3, 4): (81, 48, 50, 8, 0, "055502c461914037"),
        (-3, 5): (-243, 58, 60, 8, 0, "b735eb872e0f8791"),
        (-3, 6): (729, 68, 70, 8, 0, "b1f71280c6de2320"),
        (-3, 7): (-2187, 78, 80, 8, 0, "32d7e6c5cf5f9af7"),
        (-3, 8): (6561, 88, 90, 8, 0, "5820e8ca1a367401"),
        (-3, 9): (-19683, 98, 100, 8, 0, "83ac6dfd9481990a"),
        (-3, 10): (59049, 108, 110, 8, 0, "55e39b60cab71368"),
        (-3, 11): (-177147, 118, 120, 8, 0, "550babbcc3bd07c6"),
        (-3, 12): (531441, 128, 130, 8, 0, "98f48b3c31d7fd92"),
        (-2, 0): (1, 8, 10, 8, 0, "1bb670b4017d5fc4"),
        (-2, 1): (-2, 18, 20, 8, 0, "49979bf3852667e5"),
        (-2, 2): (4, 28, 30, 8, 0, "474892157101a8a6"),
        (-2, 3): (-8, 38, 40, 8, 0, "21420064f28da317"),
        (-2, 4): (16, 48, 50, 8, 0, "055502c461914037"),
        (-2, 5): (-32, 58, 60, 8, 0, "b735eb872e0f8791"),
        (-2, 6): (64, 68, 70, 8, 0, "b1f71280c6de2320"),
        (-2, 7): (-128, 78, 80, 8, 0, "32d7e6c5cf5f9af7"),
        (-2, 8): (256, 88, 90, 8, 0, "5820e8ca1a367401"),
        (-2, 9): (-512, 98, 100, 8, 0, "83ac6dfd9481990a"),
        (-2, 10): (1024, 108, 110, 8, 0, "55e39b60cab71368"),
        (-2, 11): (-2048, 118, 120, 8, 0, "550babbcc3bd07c6"),
        (-2, 12): (4096, 128, 130, 8, 0, "98f48b3c31d7fd92"),
        (-1, 0): (1, 8, 10, 8, 0, "1bb670b4017d5fc4"),
        (-1, 1): (-1, 18, 20, 8, 0, "49979bf3852667e5"),
        (-1, 2): (1, 28, 30, 8, 0, "474892157101a8a6"),
        (-1, 3): (-1, 38, 40, 8, 0, "21420064f28da317"),
        (-1, 4): (1, 48, 50, 8, 0, "055502c461914037"),
        (-1, 5): (-1, 58, 60, 8, 0, "b735eb872e0f8791"),
        (-1, 6): (1, 68, 70, 8, 0, "b1f71280c6de2320"),
        (-1, 7): (-1, 78, 80, 8, 0, "32d7e6c5cf5f9af7"),
        (-1, 8): (1, 88, 90, 8, 0, "5820e8ca1a367401"),
        (-1, 9): (-1, 98, 100, 8, 0, "83ac6dfd9481990a"),
        (-1, 10): (1, 108, 110, 8, 0, "55e39b60cab71368"),
        (-1, 11): (-1, 118, 120, 8, 0, "550babbcc3bd07c6"),
        (-1, 12): (1, 128, 130, 8, 0, "98f48b3c31d7fd92"),
        (0, 0): (1, 8, 10, 8, 0, "1bb670b4017d5fc4"),
        (0, 1): (0, 18, 20, 8, 0, "49979bf3852667e5"),
        (0, 2): (0, 28, 30, 8, 0, "474892157101a8a6"),
        (0, 3): (0, 38, 40, 8, 0, "21420064f28da317"),
        (0, 4): (0, 48, 50, 8, 0, "055502c461914037"),
        (0, 5): (0, 58, 60, 8, 0, "b735eb872e0f8791"),
        (0, 6): (0, 68, 70, 8, 0, "b1f71280c6de2320"),
        (0, 7): (0, 78, 80, 8, 0, "32d7e6c5cf5f9af7"),
        (0, 8): (0, 88, 90, 8, 0, "5820e8ca1a367401"),
        (0, 9): (0, 98, 100, 8, 0, "83ac6dfd9481990a"),
        (0, 10): (0, 108, 110, 8, 0, "55e39b60cab71368"),
        (0, 11): (0, 118, 120, 8, 0, "550babbcc3bd07c6"),
        (0, 12): (0, 128, 130, 8, 0, "98f48b3c31d7fd92"),
        (1, 0): (1, 8, 10, 8, 0, "1bb670b4017d5fc4"),
        (1, 1): (1, 18, 20, 8, 0, "49979bf3852667e5"),
        (1, 2): (1, 28, 30, 8, 0, "474892157101a8a6"),
        (1, 3): (1, 38, 40, 8, 0, "21420064f28da317"),
        (1, 4): (1, 48, 50, 8, 0, "055502c461914037"),
        (1, 5): (1, 58, 60, 8, 0, "b735eb872e0f8791"),
        (1, 6): (1, 68, 70, 8, 0, "b1f71280c6de2320"),
        (1, 7): (1, 78, 80, 8, 0, "32d7e6c5cf5f9af7"),
        (1, 8): (1, 88, 90, 8, 0, "5820e8ca1a367401"),
        (1, 9): (1, 98, 100, 8, 0, "83ac6dfd9481990a"),
        (1, 10): (1, 108, 110, 8, 0, "55e39b60cab71368"),
        (1, 11): (1, 118, 120, 8, 0, "550babbcc3bd07c6"),
        (1, 12): (1, 128, 130, 8, 0, "98f48b3c31d7fd92"),
        (2, 0): (1, 8, 10, 8, 0, "1bb670b4017d5fc4"),
        (2, 1): (2, 18, 20, 8, 0, "49979bf3852667e5"),
        (2, 2): (4, 28, 30, 8, 0, "474892157101a8a6"),
        (2, 3): (8, 38, 40, 8, 0, "21420064f28da317"),
        (2, 4): (16, 48, 50, 8, 0, "055502c461914037"),
        (2, 5): (32, 58, 60, 8, 0, "b735eb872e0f8791"),
        (2, 6): (64, 68, 70, 8, 0, "b1f71280c6de2320"),
        (2, 7): (128, 78, 80, 8, 0, "32d7e6c5cf5f9af7"),
        (2, 8): (256, 88, 90, 8, 0, "5820e8ca1a367401"),
        (2, 9): (512, 98, 100, 8, 0, "83ac6dfd9481990a"),
        (2, 10): (1024, 108, 110, 8, 0, "55e39b60cab71368"),
        (2, 11): (2048, 118, 120, 8, 0, "550babbcc3bd07c6"),
        (2, 12): (4096, 128, 130, 8, 0, "98f48b3c31d7fd92"),
        (3, 0): (1, 8, 10, 8, 0, "1bb670b4017d5fc4"),
        (3, 1): (3, 18, 20, 8, 0, "49979bf3852667e5"),
        (3, 2): (9, 28, 30, 8, 0, "474892157101a8a6"),
        (3, 3): (27, 38, 40, 8, 0, "21420064f28da317"),
        (3, 4): (81, 48, 50, 8, 0, "055502c461914037"),
        (3, 5): (243, 58, 60, 8, 0, "b735eb872e0f8791"),
        (3, 6): (729, 68, 70, 8, 0, "b1f71280c6de2320"),
        (3, 7): (2187, 78, 80, 8, 0, "32d7e6c5cf5f9af7"),
        (3, 8): (6561, 88, 90, 8, 0, "5820e8ca1a367401"),
        (3, 9): (19683, 98, 100, 8, 0, "83ac6dfd9481990a"),
        (3, 10): (59049, 108, 110, 8, 0, "55e39b60cab71368"),
        (3, 11): (177147, 118, 120, 8, 0, "550babbcc3bd07c6"),
        (3, 12): (531441, 128, 130, 8, 0, "98f48b3c31d7fd92"),
    },
    "newton_raphson": {
        (0.5,): (1.4142135623730951, 213, 215, 9, 0, "73629381f45078b9"),
        (1.0,): (1.4142135623730951, 179, 181, 9, 0, "f017bce69042408a"),
        (2.0,): (1.4142135623730951, 179, 181, 9, 0, "f017bce69042408a"),
        (4.0,): (1.4142135623730951, 213, 215, 9, 0, "73629381f45078b9"),
    },
}

LATENCY_FINGERPRINTS = {
    0: {
        (3, 5): (243, 58, 60, 8, 0, "0d1a81c5fc663d4d"),
        (2, 10): (1024, 108, 110, 8, 0, "a730e1cffa84b426"),
        (-2, 7): (-128, 78, 80, 8, 0, "880b5d59e1f23396"),
    },
    2: {
        (3, 5): (243, 58, 60, 8, 0, "b735eb872e0f8791"),
        (2, 10): (1024, 108, 110, 8, 0, "55e39b60cab71368"),
        (-2, 7): (-128, 78, 80, 8, 0, "32d7e6c5cf5f9af7"),
    },
    6: {
        (3, 5): (243, 64, 66, 8, 0, "88bed68314d2f6c6"),
        (2, 10): (1024, 119, 121, 8, 0, "0876e9e33f6c0519"),
        (-2, 7): (-128, 86, 88, 8, 0, "d1791fc96c66f27f"),
    },
    12: {
        (3, 5): (243, 94, 96, 8, 0, "6ca0f20aeb80031b"),
        (2, 10): (1024, 179, 181, 8, 0, "a50fb9cf2313c39d"),
        (-2, 7): (-128, 128, 130, 8, 0, "bd598827d4603781"),
    },
}

DIAMOND_FINGERPRINTS = {
    "narrow": {
        (-3, -2): (-40, 54, 56, 19, 0, "1724b130d683b477"),
        (-3, 5): (-18, 54, 56, 19, 0, "1724b130d683b477"),
        (0, -2): (-27, 54, 56, 19, 0, "1724b130d683b477"),
        (0, 5): (-50, 54, 56, 19, 0, "1724b130d683b477"),
        (4, -2): (-63, 54, 56, 19, 0, "1724b130d683b477"),
        (4, 5): (-90, 54, 56, 19, 0, "1724b130d683b477"),
    },
    "wide": {
        (-3, -2): (-2453954371759577225, 120, 122, 9, 0, "66e6561ab1879bbe"),
        (-3, 5): (1330120470267692769, 121, 123, 9, 0, "11b207781061ebfb"),
        (0, -2): (506541151701678991, 116, 118, 9, 0, "5138068e89d0f797"),
        (0, 5): (1330120470267692769, 121, 123, 9, 0, "11b207781061ebfb"),
        (4, -2): (167166095852067791, 116, 118, 9, 0, "5138068e89d0f797"),
        (4, 5): (1330120470267692769, 121, 123, 9, 0, "11b207781061ebfb"),
    },
}
