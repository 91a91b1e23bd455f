"""Cycle-accurate, event-driven token-flow simulator.

Timing model.  Every cycle has two phases.  First, each component decides
from the start-of-cycle state whether it fires: all required input
channels must hold a token and the output channels it writes must be
free.  Then all decisions commit at once, so every channel hop costs one
cycle, the registered view of an elastic circuit (the emitted VHDL is
combinational through latency-0 components).  Operators with latency
L hold accepted tokens in a little pipeline and release them L cycles
later; a Buffer behaves like a latency-1 identity operator.  A Merge with
more than one valid input is a hard error, not an arbitration: the
builder only emits merges whose inputs are mutually exclusive.

Engine.  A `SimPlan` checks and compiles a circuit once and serves every
run until a component or channel is added, removed, replaced or edited in
place; the next run then checks the circuit again.  Each cycle a
`Simulator` evaluates only its worklist, in ascending component order: the
consumer of every channel filled and the producer of every channel emptied
in the last commit, a full pipeline that freed a slot while a token waits
at its input, and the pipelines holding a slot that comes due.  No other
component can fire: it either declined last time and nothing around it
changed, or it fired and waits for a neighbour.  Pipeline slots hold the
absolute cycle they become ready, and when nothing fires but tokens are in
flight the cycle counter jumps to the next release, never past
`max_cycles`: the cycles skipped would fire nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from heapq import heappop, heappush
from operator import attrgetter

from .cdfg import (BRANCH, BUFFER, CDFG, CONST, ENTRY, EXIT, FORK, MERGE,
                   OPERATOR, SINK, Channel, Component, require_valid)
from .errors import DeadlockError, MaxCyclesError, MergeConflictError, SimError
from .interp import eval_op

DEFAULT_MAX_CYCLES = 100_000

_ABSENT = object()


@dataclass
class SimReport:
    output: object = None
    exit_cycle: int | None = None
    total_cycles: int = 0
    max_occupancy: int = 0
    leftover: int = 0
    events: list[tuple[int, int, str]] | None = None


# Firing rules: `rule(sim, i, c, ins, outs)` decides for component c (index
# i, input and output channel indices) on the start-of-cycle channels and
# queues its consumptions, productions and events on the simulator.

def _emit(s, i, c, ins, outs):
    """Entry emits its one token."""
    if i in s.entry_tokens and s.chan[outs[0]] is _ABSENT:
        s.produce.append((outs[0], s.entry_tokens.pop(i, None)))
        s.fired.append((c.id, "emit"))


def _drain(s, i, c, ins, outs):
    """Exit and Sink take every token; an Exit's is the output."""
    value = s.chan[ins[0]]
    if value is not _ABSENT:
        s.consume.append(ins[0])
        if c.kind == EXIT:
            s.outputs[c.id] = value
        s.fired.append((c.id, "exit" if c.kind == EXIT else "sink"))


def _fork(s, i, c, ins, outs):
    chan = s.chan
    value = chan[ins[0]]
    if value is not _ABSENT and all(chan[o] is _ABSENT for o in outs):
        s.consume.append(ins[0])
        s.produce.extend((o, value) for o in outs)
        s.fired.append((c.id, "fire"))


def _branch(s, i, c, ins, outs):
    chan = s.chan
    value, cond = chan[ins[0]], chan[ins[1]]
    if value is not _ABSENT and cond is not _ABSENT:
        out = outs[0 if cond else 1]
        if chan[out] is _ABSENT:
            s.consume.extend(ins)
            s.produce.append((out, value))
            s.fired.append((c.id, "fire"))


def _merge(s, i, c, ins, outs):
    chan = s.chan
    valid = [ch for ch in ins if chan[ch] is not _ABSENT]
    if len(valid) > 1:
        raise MergeConflictError(
            f"merge {c.id} ({c.label}) has {len(valid)} valid "
            f"inputs in cycle {s.cycle}")
    if valid and chan[outs[0]] is _ABSENT:
        s.consume.append(valid[0])
        s.produce.append((outs[0], chan[valid[0]]))
        s.fired.append((c.id, "fire"))


def _operator(s, i, c, ins, outs):
    """Latency-0 Operator, or Const: its trigger token yields the payload."""
    values = [s.chan[ch] for ch in ins]
    if _ABSENT not in values and s.chan[outs[0]] is _ABSENT:
        s.consume.extend(ins)
        s.produce.append((outs[0], c.value if c.kind == CONST
                          else eval_op(c.opcode, tuple(values))))
        s.fired.append((c.id, "fire"))


def _pipeline(s, i, c, ins, outs):
    """Buffer, or Operator with latency > 0: a FIFO of up to `depth`
    (ready cycle, value) slots.  The head leaves once ready if the output
    is free, and a token enters if a slot was free at the cycle's start."""
    slots, depth = s.pipes[i], s.plan.depth[i]
    n = len(slots)
    values = [s.chan[ch] for ch in ins]
    waiting = _ABSENT not in values
    if n and slots[0][0] <= s.cycle and s.chan[outs[0]] is _ABSENT:
        s.produce.append((outs[0], slots.pop(0)[1]))
        s.tokens -= 1
        s.fired.append((c.id, "emit"))
        if n == depth and waiting:
            s.worklist.add(i)  # the freed slot takes the token next cycle
    if n < depth and waiting:
        s.consume.extend(ins)
        ready = s.cycle + depth
        slots.append((ready, values[0] if c.kind == BUFFER
                      else eval_op(c.opcode, tuple(values))))
        heappush(s.releases, (ready, i))
        s.tokens += 1
        s.fired.append((c.id, "accept"))


_FIRING = {ENTRY: _emit, EXIT: _drain, SINK: _drain, CONST: _operator,
           FORK: _fork, BRANCH: _branch, MERGE: _merge, BUFFER: _pipeline,
           OPERATOR: _operator}


_COMPONENT_FIELDS = attrgetter(*(f.name for f in fields(Component)))
_CHANNEL_FIELDS = attrgetter(*(f.name for f in fields(Channel)))


def _snapshot(g: CDFG) -> tuple[list, ...]:
    """Every component's and channel's identity and field values."""
    return (list(map(id, g.components)), list(map(id, g.channels)),
            list(map(_COMPONENT_FIELDS, g.components)),
            list(map(_CHANNEL_FIELDS, g.channels)))


class SimPlan:
    """A circuit checked by `require_valid` and compiled for simulation.
    `SimPlan.of(g)` reuses g's plan while `_snapshot(g)` is unchanged; the
    plan holds g's components and channels, so their ids stay theirs.

    Components and channels are numbered by position.  `producer[k]` and
    `consumer[k]` are the components at either end of channel k,
    `nodes[i]` is component i's (firing rule, component, input channels,
    output channels) and `depth[i]` the depth of a Buffer's or latency > 0
    Operator's pipeline.
    """

    def __init__(self, g: CDFG):
        require_valid(g)
        self.snapshot = _snapshot(g)
        comps = g.components
        self.channels = list(g.channels)
        index = {c.id: i for i, c in enumerate(comps)}
        self.producer = [index[ch.src.comp] for ch in g.channels]
        self.consumer = [index[ch.dst.comp] for ch in g.channels]
        ins = [[0] * len(c.in_widths) for c in comps]
        outs = [[0] * len(c.out_widths) for c in comps]
        for k, ch in enumerate(g.channels):
            outs[self.producer[k]][ch.src.index] = k
            ins[self.consumer[k]][ch.dst.index] = k
        self.depth = {i: c.latency if c.kind == OPERATOR else 1
                      for i, c in enumerate(comps) if c.kind == BUFFER
                      or (c.kind == OPERATOR and c.latency > 0)}
        self.nodes = [(_pipeline if i in self.depth else _FIRING[c.kind],
                       c, ins[i], outs[i]) for i, c in enumerate(comps)]
        self.entries = [i for i, c in enumerate(comps) if c.kind == ENTRY]
        self.data_entries = [i for i in self.entries
                             if comps[i].out_widths[0]]

    @classmethod
    def of(cls, g: CDFG) -> SimPlan:
        if g.sim_plan is None or g.sim_plan.snapshot != _snapshot(g):
            g.sim_plan = cls(g)
        return g.sim_plan


class Simulator:
    def __init__(self, g: CDFG, args: tuple, trace: bool = False):
        plan = SimPlan.of(g)
        if len(args) != len(plan.data_entries):
            raise SimError(f"circuit has {len(plan.data_entries)} data "
                           f"entries, got {len(args)} argument(s)")
        self.plan = plan
        self.chan: list = [_ABSENT] * len(plan.producer)
        self.entry_tokens = dict.fromkeys(plan.entries)  # control: None
        self.entry_tokens.update(zip(plan.data_entries, args))
        self.pipes: dict[int, list] = {i: [] for i in plan.depth}
        # (ready cycle, component) of every token inside a pipeline
        self.releases: list[tuple[int, int]] = []
        self.tokens = 0  # in channels and pipelines
        self.outputs: dict[int, object] = {}
        self.events: list[tuple[int, int, str]] | None = [] if trace else None
        self.cycle = 0
        self.max_occupancy = 0
        self.consume: list[int] = []
        self.produce: list[tuple[int, object]] = []
        self.fired: list[tuple[int, str]] = []
        self.worklist = set(plan.entries)  # on empty channels only Entry fires

    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> SimReport:
        nodes, producer, consumer = (self.plan.nodes, self.plan.producer,
                                     self.plan.consumer)
        chan, worklist, releases = self.chan, self.worklist, self.releases
        consume, produce, fired = self.consume, self.produce, self.fired
        exit_cycle = None
        while True:
            cycle = self.cycle
            if cycle >= max_cycles:
                raise MaxCyclesError(
                    f"no quiescence after {max_cycles} cycles",
                    report=self._report(exit_cycle))
            while releases and releases[0][0] <= cycle:
                worklist.add(heappop(releases)[1])
            work = sorted(worklist)
            worklist.clear()
            for i in work:
                rule, c, ins, outs = nodes[i]
                rule(self, i, c, ins, outs)

            # Commit.  Consumptions before productions: a channel is never
            # consumed and refilled in the same cycle because the producer
            # saw it occupied in the snapshot.
            for ch in consume:
                chan[ch] = _ABSENT
                worklist.add(producer[ch])
            for ch, value in produce:
                if chan[ch] is not _ABSENT:
                    raise SimError(f"channel {self.plan.channels[ch].id} "
                                   f"driven while occupied")
                chan[ch] = value
                worklist.add(consumer[ch])
            self.tokens += len(produce) - len(consume)
            if self.tokens + len(self.entry_tokens) > self.max_occupancy:
                self.max_occupancy = self.tokens + len(self.entry_tokens)
            if exit_cycle is None and self.outputs:
                exit_cycle = cycle

            if fired:
                if self.events is not None:
                    self.events.extend((cycle, comp, what)
                                       for comp, what in fired)
                consume.clear()
                produce.clear()
                fired.clear()
                self.cycle = cycle + 1
            elif releases:
                self.cycle = min(releases[0][0], max_cycles)
            else:
                self.cycle = cycle + 1
                break
        if not self.outputs:
            raise DeadlockError(
                f"deadlock in cycle {self.cycle}: no component can fire and "
                f"the exit never received a token",
                report=self._report(exit_cycle))
        return self._report(exit_cycle)

    def _report(self, exit_cycle) -> SimReport:
        out = next(iter(self.outputs.values())) if self.outputs else None
        return SimReport(output=out, exit_cycle=exit_cycle,
                         total_cycles=self.cycle,
                         max_occupancy=self.max_occupancy,
                         leftover=self.tokens + len(self.entry_tokens),
                         events=self.events)


def simulate(g: CDFG, args: tuple, max_cycles: int = DEFAULT_MAX_CYCLES,
             trace: bool = False) -> SimReport:
    return Simulator(g, args, trace=trace).run(max_cycles)
