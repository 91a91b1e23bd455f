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
accepted to a firing rule, a kernel compiled once per shape from a template
that reads each channel by name, and serves every run until a component or
channel is added, removed or replaced by an unequal one; traced runs use
the same template's kernels that also log events, built on the first.
Untraced runs have a second tier, as Julia compiles a method once it is
called enough: a plan counts the non-empty worklist snapshot of each
cycle, and once one has recurred `_HOT_AFTER` times the cycles that follow
it are simulated ahead on the kernels, from a copy of the run, and
compiled into a trace specialised on the token occupancy they ran on, by
`simtrace`, a module imported only once a snapshot goes hot.  A
token is a local of the trace: Fork, Branch, Merge, Buffer and pipeline
moves only rename it, Operators and Consts compute it and Exits write it
out.  The trace tests each place it reads, a channel, register, pipeline,
`stalled` member or the release heap, against the recording before it
first reads it, each Branch condition for the side taken and the budget.
Where a test fails, or an operation traps, it writes back the state at
the start of that cycle, which the kernels then run.  A recorded state
that recurs closes the path into a loop, whose lap runs only its
operations and tests; a path that reaches a snapshot heading a trace
hands over to it.  Entry, Exit, Const, Operator, Fork and Sink share the
strict rule, a join of every input forked to every output: fire when
every input holds a token and every output is free.  They differ only in
the value a firing computes and the event it logs.  An Entry reads its
argument (None for control) from a pin, as in the netlist: a slot after
the channels that no component fills.  Each cycle a `Simulator` evaluates only its worklist: each
component whose blocking event the last cycle brought.  Only a channel's
two ends read it, so a firing empties its inputs and fills its outputs at
once, and queues a move for the commit only if the channel's other end runs
in the same cycle.  A filled channel wakes its consumer, but a join other
than a Merge only once its other inputs all hold a token.  An emptied
channel wakes its producer only if that is `stalled`: holding a token that
an occupied output kept back.  A Buffer is a one-slot register that wakes
itself in the cycle after it takes a token.  A pipeline holds the absolute
cycle each token becomes ready and wakes when one comes due; a full one
that freed a slot while a token waits at its input wakes itself.  No other
component can fire.  When nothing fires but a pipeline holds tokens, the
cycle counter jumps to the next release, never past `max_cycles`: the
cycles skipped would fire nothing.  A rule reads only the start-of-cycle
channels and its own state, so the worklist runs in the order its set
yields.  Where order shows, component order rules: a traced commit sorts
its events stably by component, the first token of the lowest of the first
Exits to fire gives the output, and if a rule raises, the cycle's lower
components still to run are run in ascending order and the lowest that
raises gives the error; a trace leaves a cycle that raises to the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from operator import itemgetter

from .cdfg import (BRANCH, BUFFER, CDFG, CONST, ENTRY, EXIT, FORK, MERGE,
                   OPERATOR, SINK, require_valid)
from .codegen import define, indent
from .errors import (DeadlockError, MaxCyclesError, MergeConflictError,
                     MiniHlsError, SimError)
from .lattice import IMPL_BY_OPCODE, bind

DEFAULT_MAX_CYCLES = 100_000

# A trace records and compiles in 0.9-2.6 ms (median per circuit, x86-64, CPython
# 3.11): what 500-1 600 cycles save at 1.6-2.1 µs for a traced cycle against a counted
# one, or 4-120 calls of 13 (wide_sim) to 127 (corpus_sweep) cycles.
_HOT_AFTER = 1024  # sightings of a snapshot before it heads a compiled trace
_SNAPSHOTS = 1024  # snapshots a plan counts at most

_ABSENT = object()
_position = itemgetter(0)
_OCCUPIED = "channel %s driven while occupied"


@dataclass
class SimReport:
    output: object = None
    exit_cycle: int | None = None
    total_cycles: int = 0
    max_occupancy: int = 0
    leftover: int = 0
    events: list[tuple[int, int, str]] | None = None


# Firing rules.  A rule `fire(s, chan, work)` decides on the start-of-cycle
# channels, moves its tokens and returns True if it fires; s holds the run's
# state and `work` is the set of components this cycle runs.  `_FIRE` holds
# five templates, the strict rule (under OPERATOR), Branch, Merge, Buffer and
# the pipelined Operator, each the body of `make(i, c, fn, depth, ports)`,
# which binds component i's record, operation (bound by `lattice.bind` to its
# position), depth and ports: channels ik and ok, the producer pk of ik, and
# the consumer ck of ok and its other inputs jk_m.  `_fill` fills one in with
# those names, per shape: `{read}` reads input k into xk, `{valid}` tests that
# every input holds a token and `{ready}` also that every output is free,
# `{xs}` lists the inputs, `{clash}` tests that two inputs hold a token and
# `{pick}` is the one that does, or _ABSENT.  `{take}` empties each input (a
# Merge's picked one) and `{put}` fills each output, `{putk}` output k, with v,
# as the Engine paragraph says, and `{fired}` marks a firing.  The strict rule
# takes its `{event}` name and `{compute}` line from `_STRICT` (a Const's
# operation yields its payload), and `{count}` adds outputs less inputs to the
# token count.  A rule computes what can raise before it moves a token.

_PIPELINE = "Pipeline"

_STRICT = {ENTRY: ("emit", "v = x0"), FORK: ("fire", "v = x0"), SINK: ("sink", None),
           OPERATOR: ("fire", "v = {fn}({xs})"), CONST: ("fire", "v = {fn}({xs})"),
           EXIT: ("exit", "s.outputs.setdefault({i}, (s.cycle, {i}, x0))")}

_FIRE = {OPERATOR: """
    event = i, c.id, "{event}"
    def fire(s, chan, work):
        {read}
        if {ready}:
            {compute}
            {take}
            {put}
            {count}
            s.fired.append(event)
            {fired}
        elif {valid}:
            s.stalled.add({i})""", BRANCH: """
    event = i, c.id, "fire"
    def fire(s, chan, work):
        {read}
        if {valid} and chan[{o0} if x1 else {o1}] is _ABSENT:
            v = x0
            {take}
            if x1:
                {put0}
            else:
                {put1}
            s.tokens -= 1
            s.fired.append(event)
            {fired}
        elif {valid}:
            s.stalled.add({i})""", MERGE: """
    event = i, c.id, "fire"
    def fire(s, chan, work):
        {read}
        if {clash}:
            raise MergeConflictError("merge %s (%s) has %s valid inputs in cycle %s" % (
                {c}.id, {c}.label, sum(x is not _ABSENT for x in ({xs},)), s.cycle))
        v = {pick}
        if v is not _ABSENT and chan[{o0}] is _ABSENT:
            {take}
            {put}
            s.fired.append(event)
            {fired}
        elif v is not _ABSENT:
            s.stalled.add({i})""", BUFFER: """
    emitted, accepted = (i, c.id, "emit"), (i, c.id, "accept")
    def fire(s, chan, work):
        regs, x0 = s.regs, chan[{i0}]
        if regs[{i}] is _ABSENT and x0 is not _ABSENT:
            {take}
            regs[{i}] = x0
            s.worklist.add({i})  # it emits from the next cycle on
            s.fired.append(accepted)
            {fired}
        elif regs[{i}] is not _ABSENT and chan[{o0}] is _ABSENT:
            v, regs[{i}] = regs[{i}], _ABSENT
            {put}
            s.fired.append(emitted)
            if x0 is not _ABSENT:
                s.worklist.add({i})  # the freed slot takes it next cycle
            {fired}
        elif regs[{i}] is not _ABSENT:
            s.stalled.add({i})""", _PIPELINE: """
    emitted, accepted = (i, c.id, "emit"), (i, c.id, "accept")
    def fire(s, chan, work):
        slots, cycle = s.pipes[{i}], s.cycle
        n = len(slots)
        {read}
        if accept := n < {depth} and {valid}:
            y = {fn}({xs})  # it may raise, so before any token moves
        if emit := n and slots[0][0] <= cycle and chan[{o0}] is _ABSENT:
            v = slots.pop(0)[1]
            {put}
            s.fired.append(emitted)
            if n == {depth} and {valid}:
                s.worklist.add({i})  # the freed slot takes it next cycle
        if slots and slots[0][0] <= cycle:
            s.stalled.add({i})  # a due slot waits for the output to empty
        if accept:
            {take}
            slots.append((cycle + {depth}, y))
            heappush(s.releases, (cycle + {depth}, {i}))
            {count}
            s.fired.append(accepted)
        if emit or accept:
            {fired}"""}

_GLOBALS = {"_ABSENT": _ABSENT, "MergeConflictError": MergeConflictError, "SimError": SimError,
            "MiniHlsError": MiniHlsError, "heappush": heappush}  # of every rule's and trace's text


def _fill(kind: str, ins, outs, ps, cs, js, traced: bool, **names) -> str:
    """`kind`'s template with the ports and `names` (i, c, fn and depth)
    filled in, logging events if `traced`; a move whose other end is in
    the cycle's `work` is queued for the commit."""
    xs = [f"x{k}" for k in range(len(ins))]
    event, compute = _STRICT.get(kind, (None, None))

    def take(ch, p):  # empty input ch, whose producer is p
        return [f"if {p} in work: s.consume.append({ch})", "else:", f"    chan[{ch}] = _ABSENT",
                f"    if {p} in s.stalled: s.stalled.remove({p}); s.worklist.add({p})"]

    def put(k):  # fill output k, whose consumer joins js[k] too, with v
        full = "".join(f"chan[{j}] is not _ABSENT and " for j in js[k])
        return [f"if {cs[k]} in work: s.produce.append(({outs[k]}, v))", "else:",
                f"    chan[{outs[k]}] = v", f"    {f'if {full[:-5]}: ' if full else ''}"
                f"s.worklist.add({cs[k]})"]
    takes = ([[f"{'elif' if k else 'if'} {x} is not _ABSENT:", *indent(take(ch, p))]
              for k, (x, ch, p) in enumerate(zip(xs, ins, ps))] if kind == MERGE
             else [take(ch, p) for ch, p in zip(ins, ps)])
    blocks = {"{take}": sum(takes, []), "{put}": sum(map(put, range(len(outs))), []),
              **{f"{{put{k}}}": put(k) for k in range(len(outs))},
              "{compute}": [compute] if compute else [],
              "{count}": [f"s.tokens += {len(outs) - len(ins)}"] if len(outs) != len(ins) else [],
              "{fired}": ["return True"]}
    skip = ([] if traced else ["s.fired"]) + ([] if outs else ["elif {valid}:", "s.stalled"])
    text = "\n".join(line[:len(line) - len(line.lstrip())] + block  # at its indent
                     for line in _FIRE[OPERATOR if event else kind].split("\n")
                     if not any(x in line for x in skip)  # an Exit or a Sink never stalls
                     for block in blocks.get(line.strip(), [line.strip()]))
    valid = [f"{x} is not _ABSENT" for x in xs]
    return text.format(
        read="; ".join(f"{x} = chan[{i}]" for x, i in zip(xs, ins)),
        valid=" and ".join(valid), xs=", ".join(xs), event=event,
        ready=" and ".join(valid + [f"chan[{o}] is _ABSENT" for o in outs]),
        clash=" or ".join(f"{x} is not _ABSENT is not {y}"
                          for k, x in enumerate(xs) for y in xs[k + 1:]),
        pick="".join(f"{x} if {x} is not _ABSENT else " for x in xs[1:]) + xs[0],
        **{f"i{k}": i for k, i in enumerate(ins)}, **{f"o{k}": o for k, o in enumerate(outs)},
        **names)


@lru_cache(maxsize=256)
def _factory(kind: str, n_in: int, n_out: int, joins: tuple, traced: bool):
    """`make` for one shape of `kind` (or `_PIPELINE`), logging events if
    `traced`; output k feeds a join with `joins[k]` other inputs."""
    ins, outs = [f"i{k}" for k in range(n_in)], [f"o{k}" for k in range(n_out)]
    ps, cs = [f"p{k}" for k in range(n_in)], [f"c{k}" for k in range(n_out)]
    js = [[f"j{k}_{m}" for m in range(n)] for k, n in enumerate(joins)]
    body = _fill(kind, ins, outs, ps, cs, js, traced, i="i", c="c", fn="fn", depth="depth")
    text = (f"def make(i, c, fn, depth, ports):\n"
            f"    {', '.join([*ins, *outs, *ps, *cs, *sum(js, [])])}, = ports\n"
            f"{body}\n    return fire\n")
    return define(text, f"<sim rule {kind} {n_in}x{n_out}>", dict(_GLOBALS), "make")


def _compile_trace(sim: Simulator, work: frozenset, max_cycles: int):
    """What `plan.cycles` keeps for hot snapshot `work`, from
    `simtrace.compile_trace`, whose module is imported only once a snapshot
    goes hot, so that runs that never do never compile it."""
    from . import simtrace
    return simtrace.compile_trace(sim, work, max_cycles)


class SimPlan:
    """A circuit checked by `require_valid` and compiled for simulation,
    made by `SimPlan.of(g)`, which reuses it while `require_valid(g)`
    leaves the record `g.checked` it was built from in place.

    Components and channels are numbered by position; the pin of the k-th
    Entry is slot `len(channels) + k`.  `producer[k]` and `consumer[k]` are
    the components at either end of channel k (None produces a pin),
    `sibling[k]` lists the other inputs of channel k's consumer if that is
    a join (any kind but Merge), `depth[i]` is the depth of a pipelined
    Operator, `buffers` lists the Buffers and `nodes[i]` is component i's
    firing rule (`traced_nodes[i]` logs events).  `cycles` maps each of at
    most `_SNAPSHOTS` snapshots to the times untraced runs met it, or to the
    trace it heads; None pins untraced runs to the kernels, as traced runs.
    `recording_nodes[i]` is component i's kernel on the `_Tok`s of a
    `_Recording`, which the trace's text is compiled from.
    """

    def __init__(self, g: CDFG):
        self.checked = g.checked
        self.components, self.channels = comps, chans = g.checked
        index = {c.id: i for i, c in enumerate(comps)}
        self.entries = [i for i, c in enumerate(comps) if c.kind == ENTRY]
        self.data_entries = [i for i in self.entries if comps[i].out_widths[0]]
        self.producer = [index[ch.src] for ch in chans] + [None] * len(self.entries)
        self.consumer = [index[ch.dst] for ch in chans]
        ins = [[0] * len(c.in_widths) for c in comps]
        outs = [[0] * len(c.out_widths) for c in comps]
        for k, ch in enumerate(chans):
            outs[self.producer[k]][ch.src_port] = k
            ins[self.consumer[k]][ch.dst_port] = k
        self.sibling = [()] * len(chans)
        for i, c in enumerate(comps):
            if len(ins[i]) > 1 and c.kind != MERGE:
                for k in ins[i]:
                    self.sibling[k] = tuple(j for j in ins[i] if j != k)
        for k, i in enumerate(self.entries, len(chans)):
            ins[i].append(k)
        self.ports = [*zip(ins, outs)]
        self.depth = {i: c.latency for i, c in enumerate(comps)
                      if c.kind == OPERATOR and c.latency > 0}
        self.buffers = [i for i, c in enumerate(comps) if c.kind == BUFFER]
        self.kinds = [_PIPELINE if i in self.depth else c.kind for i, c in enumerate(comps)]
        self.ops = [bind(IMPL_BY_OPCODE[c.opcode], c.pos) if c.kind == OPERATOR
                    else lambda _, v=c.value: v for c in comps]
        self.nodes = self._rules(False, self.ops)
        self.cycles: dict | None = {}  # per snapshot, times seen or its compiled trace

    def _rules(self, traced: bool, ops: list) -> list:
        p, q, sib = self.producer, self.consumer, self.sibling
        return [_factory(kind, len(a), len(b), tuple(len(sib[k]) for k in b), traced)(
            i, c, op, self.depth.get(i), (*a, *b, *(p[k] for k in a), *(q[k] for k in b),
                                          *(j for k in b for j in sib[k])))
            for i, (c, kind, op, (a, b)) in enumerate(
                zip(self.components, self.kinds, ops, self.ports))]

    @cached_property
    def traced_nodes(self) -> list:
        return self._rules(True, self.ops)

    @cached_property
    def recording_nodes(self) -> list:  # the kernels on a `_Recording`'s `_Tok`s
        ops = [lambda *xs, i=i, fn=fn: xs[0].rec().op(i, fn, xs) for i, fn in enumerate(self.ops)]
        return [lambda s, chan, work, rule=rule: s.recording.fire(rule, s, chan, work)
                for rule in self._rules(False, ops)]

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
        pins = dict(zip(plan.data_entries, args))  # a control Entry's holds None
        self.chan: list = [_ABSENT] * len(plan.producer)  # channels, then pins
        self.chan[len(plan.channels):] = map(pins.get, plan.entries)
        self.pipes: dict[int, list] = {i: [] for i in plan.depth}
        self.regs = dict.fromkeys(plan.buffers, _ABSENT)  # a Buffer's token
        self.releases: list[tuple[int, int]] = []  # (ready cycle, i) per slot
        self.tokens = len(plan.entries)  # in pins, channels, Buffers, pipelines
        self.outputs: dict[int, tuple] = {}  # per Exit: its first (cycle, i, value)
        self.events: list[tuple[int, int, str]] | None = [] if trace else None
        self.cycle = self.max_occupancy = 0
        self.consume, self.produce = [], []  # moves queued for the commit
        self.fired: list[tuple[int, int, str]] = []  # (i, id, event), traced
        self.worklist = set(plan.entries)  # on empty channels only Entry fires
        self.stalled: set[int] = set()  # holding a token an output blocks

    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> SimReport:
        plan, events, fired, cycle = self.plan, self.events, self.fired, self.cycle
        nodes = plan.nodes if events is None else plan.traced_nodes
        cycles = plan.cycles if events is None else None
        # cold: a trace left this cycle to the kernels; left: the last trace to run, if it left
        # the kernels a cycle on a path that does not close
        cold, left = False, None
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
            work = frozenset(worklist)  # a copy: rules test it as the worklist fills
            worklist.clear()
            if cycles is not None and work and not cold:  # count it, -maxsize if it stays cold
                step = cycles.get(work, 0)
                if step is left:  # its head again, no trace run since it left open: record anew
                    step = 0
                if step.__class__ is int and (step or len(cycles) < _SNAPSHOTS):
                    step = cycles[work] = (step + 1 if step + 1 < _HOT_AFTER else
                                           _compile_trace(self, work, max_cycles))
                if step.__class__ is not int:  # a trace, which writes back where it leaves
                    hands = step(self, chan, max_cycles)
                    cold, left, cycle = not hands, step if hands is None else None, self.cycle
                    continue
            cold = moved = False
            try:
                for i in work:
                    if nodes[i](self, chan, work):
                        moved = True
            except MiniHlsError:  # the lowest component that raises gives it
                order = [*work]
                for j in sorted(j for j in order[order.index(i) + 1:] if j < i):
                    nodes[j](self, chan, work)
                raise

            if moved:
                # Commit the queued moves, consumptions first: a channel is
                # never consumed and refilled in the same cycle because the
                # producer saw it occupied in the snapshot.
                if consume or produce:
                    for ch in consume:
                        chan[ch] = _ABSENT
                        if producer[ch] in stalled:  # it holds a token for ch
                            stalled.remove(producer[ch])
                            worklist.add(producer[ch])
                    for ch, value in produce:
                        if chan[ch] is not _ABSENT:
                            raise SimError(_OCCUPIED % plan.channels[ch].id)
                        chan[ch] = value
                        for j in sibling[ch]:  # a join wakes at its last input
                            if chan[j] is _ABSENT:
                                break
                        else:
                            worklist.add(consumer[ch])
                    consume.clear()
                    produce.clear()
                if self.tokens > self.max_occupancy:  # every pin emptied in cycle 0
                    self.max_occupancy = self.tokens
                if fired:
                    fired.sort(key=_position)  # stable
                    events += [(cycle, c, e) for _, c, e in fired]
                    fired.clear()
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
                         leftover=self.tokens, events=self.events)


def simulate(g: CDFG, args: tuple, max_cycles: int = DEFAULT_MAX_CYCLES,
             trace: bool = False) -> SimReport:
    return Simulator(g, args, trace=trace).run(max_cycles)
