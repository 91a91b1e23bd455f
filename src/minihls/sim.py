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

Engine.  A `SimPlan` binds each component of a circuit that `require_valid`
accepted to a firing rule, a kernel compiled once per shape from its kind's
template that reads each channel by name, and serves every run until a
component or channel is added, removed or replaced by an unequal one;
traced runs use the same template's kernels that also log events, built on
the first.  Each cycle a `Simulator` evaluates only its worklist: each
component whose blocking event the last commit brought.  A filled channel
wakes its consumer, but a two-input join other than a Merge only once its
other input holds a token too.  An emptied channel wakes its producer only
if that is `stalled`: holding a token that an occupied output kept back.  A
Buffer is a one-slot register that wakes itself in the cycle after it takes
a token.  A pipeline holds the absolute cycle each token becomes ready and
wakes when one comes due; a full one that freed a slot while a token waits
at its input wakes itself.  No other component can fire.  When nothing
fires but a pipeline holds tokens, the cycle counter jumps to the next
release, never past `max_cycles`: the cycles skipped would fire nothing.  A
rule reads only the start-of-cycle channels and its own state, so the
worklist runs in the order its set yields.  Where order shows, component
order rules: a traced commit sorts its events stably by component, the
lowest of the first Exits to fire gives the output, and if a rule raises,
the cycle's lower components still to run are run in ascending order and
the lowest that raises gives the error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from operator import itemgetter

from .cdfg import (BRANCH, BUFFER, CDFG, CONST, ENTRY, EXIT, FORK, MERGE,
                   OPERATOR, SINK, require_valid)
from .errors import (DeadlockError, MaxCyclesError, MergeConflictError,
                     MiniHlsError, SimError)
from .lattice import IMPL_BY_OPCODE, bind

DEFAULT_MAX_CYCLES = 100_000

_ABSENT = object()
_position = itemgetter(0)


@dataclass
class SimReport:
    output: object = None
    exit_cycle: int | None = None
    total_cycles: int = 0
    max_occupancy: int = 0
    leftover: int = 0
    events: list[tuple[int, int, str]] | None = None


# Firing rules.  A rule `fire(s, chan)` decides on the start-of-cycle
# channels and queues its consumptions, productions and traced events on the
# simulator s, which holds the run's state.  `_FIRE` holds per kind, and
# for a pipelined Operator, the body of `make(i, c, ins, outs, fn, depth)`,
# which binds component i's record, channels (ik, ok), operation (bound by
# `lattice.bind` to its position) and depth.  `_factory` fills it in per
# shape with fixed names and counts: `{read}` reads input k into xk,
# `{valid}` and `{free}` test that every input holds a token and every
# output is free, `{xs}` lists the inputs, `{fan}` pairs each output with
# x0, `{clash}` tests that two inputs hold a token and `{pick}` takes the
# one that does, or returns.

_PIPELINE = "Pipeline"

_FIRE = {ENTRY: """
    event = i, c.id, "emit"
    def fire(s, chan):
        if i in s.entry_tokens and chan[o0] is _ABSENT:
            s.produce.append((o0, s.entry_tokens.pop(i)))
            s.fired.append(event)""", EXIT: """
    event = i, c.id, "exit"
    def fire(s, chan):
        if chan[i0] is not _ABSENT:
            s.consume.append(i0)
            s.outputs[i] = s.outputs.get(i, (s.cycle,))[0], i, chan[i0]
            s.fired.append(event)""", SINK: """
    event = i, c.id, "sink"
    def fire(s, chan):
        if chan[i0] is not _ABSENT:
            s.consume.append(i0)
            s.fired.append(event)""", CONST: """
    event, value = (i, c.id, "fire"), c.value
    def fire(s, chan):
        if chan[i0] is not _ABSENT and chan[o0] is _ABSENT:
            s.consume.append(i0)
            s.produce.append((o0, value))
            s.fired.append(event)
        elif chan[i0] is not _ABSENT:
            s.stalled.add(i)""", OPERATOR: """
    event = i, c.id, "fire"
    def fire(s, chan):
        {read}
        if {valid} and chan[o0] is _ABSENT:
            s.consume.extend(ins)
            s.produce.append((o0, fn({xs})))
            s.fired.append(event)
        elif {valid}:
            s.stalled.add(i)""", FORK: """
    event = i, c.id, "fire"
    def fire(s, chan):
        x0 = chan[i0]
        if x0 is not _ABSENT and {free}:
            s.consume.append(i0)
            s.produce.extend(({fan}))
            s.fired.append(event)
        elif x0 is not _ABSENT:
            s.stalled.add(i)""", BRANCH: """
    event = i, c.id, "fire"
    def fire(s, chan):
        {read}
        out = o0 if x1 else o1  # o0 while the condition is absent
        if {valid} and chan[out] is _ABSENT:
            s.consume.extend(ins)
            s.produce.append((out, x0))
            s.fired.append(event)
        elif {valid}:
            s.stalled.add(i)""", MERGE: """
    event, conflict = (i, c.id, "fire"), "merge %s (%s) has " % (c.id, c.label)
    def fire(s, chan):
        {read}
        if {clash}:
            raise MergeConflictError(conflict + "%s valid inputs in cycle %s" % (
                sum(chan[k] is not _ABSENT for k in ins), s.cycle))
        {pick}
        if chan[o0] is _ABSENT:
            s.consume.append(ch)
            s.produce.append((o0, v))
            s.fired.append(event)
        else:
            s.stalled.add(i)""", BUFFER: """
    emitted, accepted = (i, c.id, "emit"), (i, c.id, "accept")
    def fire(s, chan):
        regs, x0 = s.regs, chan[i0]
        if regs[i] is _ABSENT and x0 is not _ABSENT:
            s.consume.append(i0)
            regs[i] = x0
            s.worklist.add(i)  # it emits from the next cycle on
            s.tokens += 1
            s.fired.append(accepted)
        elif regs[i] is not _ABSENT and chan[o0] is _ABSENT:
            s.produce.append((o0, regs[i]))
            regs[i] = _ABSENT
            s.tokens -= 1
            s.fired.append(emitted)
            if x0 is not _ABSENT:
                s.worklist.add(i)  # the freed slot takes it next cycle
        elif regs[i] is not _ABSENT:
            s.stalled.add(i)""", _PIPELINE: """
    emitted, accepted = (i, c.id, "emit"), (i, c.id, "accept")
    def fire(s, chan):
        slots, cycle = s.pipes[i], s.cycle
        n = len(slots)
        {read}
        waiting = {valid}
        if n and slots[0][0] <= cycle and chan[o0] is _ABSENT:
            s.produce.append((o0, slots.pop(0)[1]))
            s.tokens -= 1
            s.fired.append(emitted)
            if n == depth and waiting:
                s.worklist.add(i)  # the freed slot takes it next cycle
        if slots and slots[0][0] <= cycle:
            s.stalled.add(i)  # a due slot waits for the output to empty
        if n < depth and waiting:
            s.consume.extend(ins)
            slots.append((cycle + depth, fn({xs})))
            heappush(s.releases, (cycle + depth, i))
            s.tokens += 1
            s.fired.append(accepted)"""}


@lru_cache(maxsize=256)
def _factory(template: str, n_in: int, n_out: int, traced: bool):
    """`make` for one shape from `_FIRE[template]`, logging events if `traced`."""
    ins, outs = [f"i{k}" for k in range(n_in)], [f"o{k}" for k in range(n_out)]
    xs = [f"x{k}" for k in range(n_in)]
    body = "\n".join(line for line in _FIRE[template].split("\n")
                     if traced or "s.fired" not in line).format(
        read="; ".join(f"{x} = chan[{i}]" for x, i in zip(xs, ins)),
        valid=" and ".join(f"{x} is not _ABSENT" for x in xs), xs=", ".join(xs),
        free=" and ".join(f"chan[{o}] is _ABSENT" for o in outs),
        fan="".join(f"({o}, x0), " for o in outs),
        clash=" or ".join(f"{x} is not _ABSENT is not {y}"
                          for k, x in enumerate(xs) for y in xs[k + 1:]),
        pick="\n        ".join([*(f"{'elif' if k else 'if'} {x} is not _ABSENT:"
                                  f" ch, v = i{k}, {x}" for k, x in enumerate(xs)),
                                "else: return"]))
    head = "".join(f"    {', '.join(ends)}, = {name}\n"
                   for ends, name in ((ins, "ins"), (outs, "outs")) if ends)
    text = f"def make(i, c, ins, outs, fn, depth):\n{head}{body}\n    return fire\n"
    scope = {"_ABSENT": _ABSENT, "MergeConflictError": MergeConflictError,
             "heappush": heappush}
    exec(compile(text, f"<sim rule {template} {n_in}x{n_out}>", "exec"), scope)
    return scope["make"]


class SimPlan:
    """A circuit checked by `require_valid` and compiled for simulation,
    made by `SimPlan.of(g)`, which reuses it while `require_valid(g)`
    leaves the record `g.checked` it was built from in place.

    Components and channels are numbered by position.  `producer[k]` and
    `consumer[k]` are the components at either end of channel k,
    `sibling[k]` is the other input of channel k's consumer if that is a
    two-input join (any kind but Merge), else k itself, `depth[i]` is the
    depth of a pipelined Operator, `buffers` lists the Buffers and
    `nodes[i]` is component i's firing rule (`traced_nodes[i]` logs events).
    """

    def __init__(self, g: CDFG):
        self.checked = g.checked
        self.components, self.channels = comps, chans = g.checked
        index = {c.id: i for i, c in enumerate(comps)}
        self.producer = [index[ch.src] for ch in chans]
        self.consumer = [index[ch.dst] for ch in chans]
        ins = [[0] * len(c.in_widths) for c in comps]
        outs = [[0] * len(c.out_widths) for c in comps]
        for k, ch in enumerate(chans):
            outs[self.producer[k]][ch.src_port] = k
            ins[self.consumer[k]][ch.dst_port] = k
        self.sibling = list(range(len(chans)))
        for i, c in enumerate(comps):
            if len(ins[i]) == 2 and c.kind != MERGE:
                a, b = ins[i]
                self.sibling[a], self.sibling[b] = b, a
        self.ports = [*zip(map(tuple, ins), map(tuple, outs))]
        self.depth = {i: c.latency for i, c in enumerate(comps)
                      if c.kind == OPERATOR and c.latency > 0}
        self.buffers = [i for i, c in enumerate(comps) if c.kind == BUFFER]
        self.nodes = self._rules(traced=False)
        self.entries = [i for i, c in enumerate(comps) if c.kind == ENTRY]
        self.data_entries = [i for i in self.entries
                             if comps[i].out_widths[0]]

    def _rules(self, traced: bool) -> list:
        return [_factory(_PIPELINE if i in self.depth else c.kind, len(ins),
                         len(outs), traced)(i, c, ins, outs, c.kind == OPERATOR
            and bind(IMPL_BY_OPCODE[c.opcode], c.pos), self.depth.get(i))
            for i, (c, (ins, outs)) in enumerate(zip(self.components, self.ports))]

    @cached_property
    def traced_nodes(self) -> list:
        return self._rules(traced=True)

    @classmethod
    def of(cls, g: CDFG) -> SimPlan:
        require_valid(g)
        plan = g.sim_plan
        if plan is None or plan.checked is not g.checked:
            g.sim_plan = plan = cls(g)
        return plan


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
        self.regs = dict.fromkeys(plan.buffers, _ABSENT)  # a Buffer's token
        self.releases: list[tuple[int, int]] = []  # (ready cycle, i) per slot
        self.tokens = 0  # in channels, Buffers and pipelines
        self.outputs: dict[int, tuple] = {}  # per Exit: (first cycle, i, value)
        self.events: list[tuple[int, int, str]] | None = [] if trace else None
        self.cycle = self.max_occupancy = 0
        self.consume: list[int] = []
        self.produce: list[tuple[int, object]] = []
        self.fired: list[tuple[int, int, str]] = []  # (i, id, event), traced
        self.worklist = set(plan.entries)  # on empty channels only Entry fires
        self.stalled: set[int] = set()  # holding a token an output blocks

    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> SimReport:
        plan, events, fired, cycle = self.plan, self.events, self.fired, self.cycle
        nodes = plan.nodes if events is None else plan.traced_nodes
        producer, consumer, sibling = plan.producer, plan.consumer, plan.sibling
        chan, worklist, releases = self.chan, self.worklist, self.releases
        stalled, consume, produce = self.stalled, self.consume, self.produce
        while True:
            if cycle >= max_cycles:
                raise MaxCyclesError(
                    f"no quiescence after {max_cycles} cycles",
                    report=self._report())
            while releases and releases[0][0] <= cycle:
                worklist.add(heappop(releases)[1])
            work = [*worklist]
            worklist.clear()
            try:
                for i in work:
                    nodes[i](self, chan)
            except MiniHlsError:  # the lowest component that raises gives it
                for j in sorted(j for j in work[work.index(i) + 1:] if j < i):
                    nodes[j](self, chan)
                raise

            if consume or produce:  # every firing consumes or produces
                # Commit.  Consumptions before productions: a channel is
                # never consumed and refilled in the same cycle because the
                # producer saw it occupied in the snapshot.
                for ch in consume:
                    chan[ch] = _ABSENT
                    if producer[ch] in stalled:  # it holds a token for ch
                        stalled.remove(producer[ch])
                        worklist.add(producer[ch])
                for ch, value in produce:
                    if chan[ch] is not _ABSENT:
                        raise SimError(f"channel {plan.channels[ch].id} "
                                       f"driven while occupied")
                    chan[ch] = value
                    if chan[sibling[ch]] is not _ABSENT:  # a join's last input
                        worklist.add(consumer[ch])
                self.tokens = tokens = self.tokens + len(produce) - len(consume)
                if tokens > self.max_occupancy:  # Entries hold none after cycle 0
                    self.max_occupancy = tokens
                if fired:
                    fired.sort(key=_position)  # stable
                    events += [(cycle, c, e) for _, c, e in fired]
                    fired.clear()
                consume.clear()
                produce.clear()
                cycle += 1
            elif releases:
                cycle = min(releases[0][0], max_cycles)
            else:
                self.cycle = cycle + 1
                break
            self.cycle = cycle
        if not self.outputs:
            raise DeadlockError(
                f"deadlock in cycle {self.cycle}: no component can fire and "
                f"the exit never received a token",
                report=self._report())
        return self._report()

    def _report(self) -> SimReport:
        exit_cycle, _, out = min(self.outputs.values(), default=(None,) * 3)
        return SimReport(output=out, exit_cycle=exit_cycle,
                         total_cycles=self.cycle,
                         max_occupancy=self.max_occupancy,
                         leftover=self.tokens + len(self.entry_tokens),
                         events=self.events)


def simulate(g: CDFG, args: tuple, max_cycles: int = DEFAULT_MAX_CYCLES,
             trace: bool = False) -> SimReport:
    return Simulator(g, args, trace=trace).run(max_cycles)
