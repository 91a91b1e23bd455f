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
component whose blocking event the last cycle brought.  Only a channel's
two ends read it, so a firing empties its inputs and fills its outputs at
once, and queues a move for the commit only if the channel's other end runs
in the same cycle.  A filled channel wakes its consumer, but a two-input
join other than a Merge only once its other input holds a token too.  An
emptied channel wakes its producer only if that is `stalled`: holding a
token that an occupied output kept back.  A Buffer is a one-slot register
that wakes itself in the cycle after it takes a token.  A pipeline holds
the absolute cycle each token becomes ready and wakes when one comes due; a
full one that freed a slot while a token waits at its input wakes itself.
No other component can fire.  When nothing fires but a pipeline holds
tokens, the cycle counter jumps to the next release, never past
`max_cycles`: the cycles skipped would fire nothing.  A rule reads only the
start-of-cycle channels and its own state, so the worklist runs in the
order its set yields.  Where order shows, component order rules: a traced
commit sorts its events stably by component, the first token of the lowest
of the first Exits to fire gives the output, and if a rule raises, the
cycle's lower components still to run are run in ascending order and the
lowest that raises gives the error.
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


# Firing rules.  A rule `fire(s, chan, work)` decides on the start-of-cycle
# channels, moves its tokens and returns True if it fires; s holds the run's
# state and `work` is the set of components this cycle runs.  `_FIRE` holds
# per kind, and for a pipelined Operator, the body of `make(i, c, fn, depth,
# ports)`, which binds component i's record, operation (bound by
# `lattice.bind` to its position), depth and ports: channels ik and ok, the
# producer pk of ik, and the consumer ck of ok and its other input jk (ok if
# none).  `_factory` fills it in per shape with fixed names and counts:
# `{read}` reads input k into xk, `{valid}` and `{free}` test that every
# input holds a token and every output is free, `{xs}` lists the inputs,
# `{clash}` tests that two inputs hold a token and `{pick}` takes the one
# that does, or returns.  `{take}` empties each input (a Merge's picked one)
# and `{put}` fills each output, `{putk}` output k, with v, as the Engine
# paragraph says.  A rule computes what can raise before it moves a token
# and adds its kind's net token change to `s.tokens`.

_PIPELINE = "Pipeline"

_FIRE = {ENTRY: """
    event = i, c.id, "emit"
    def fire(s, chan, work):
        if i in s.entry_tokens and chan[o0] is _ABSENT:
            v = s.entry_tokens.pop(i)
            {put}
            s.tokens += 1
            s.fired.append(event)
            return True""", EXIT: """
    event = i, c.id, "exit"
    def fire(s, chan, work):
        x0 = chan[i0]
        if x0 is not _ABSENT:
            s.outputs.setdefault(i, (s.cycle, i, x0))
            {take}
            s.tokens -= 1
            s.fired.append(event)
            return True""", SINK: """
    event = i, c.id, "sink"
    def fire(s, chan, work):
        if chan[i0] is not _ABSENT:
            {take}
            s.tokens -= 1
            s.fired.append(event)
            return True""", OPERATOR: """
    event = i, c.id, "fire"
    def fire(s, chan, work):
        {read}
        if {valid} and chan[o0] is _ABSENT:
            v = fn({xs})
            {take}
            {put}
            s.tokens += 1 - {n_in}
            s.fired.append(event)
            return True
        elif {valid}:
            s.stalled.add(i)""", FORK: """
    event = i, c.id, "fire"
    def fire(s, chan, work):
        v = chan[i0]
        if v is not _ABSENT and {free}:
            {take}
            {put}
            s.tokens += {n_out} - 1
            s.fired.append(event)
            return True
        elif v is not _ABSENT:
            s.stalled.add(i)""", BRANCH: """
    event = i, c.id, "fire"
    def fire(s, chan, work):
        {read}
        if {valid} and chan[o0 if x1 else o1] is _ABSENT:
            v = x0
            {take}
            if x1:
                {put0}
            else:
                {put1}
            s.tokens -= 1
            s.fired.append(event)
            return True
        elif {valid}:
            s.stalled.add(i)""", MERGE: """
    event, conflict = (i, c.id, "fire"), "merge %s (%s) has " % (c.id, c.label)
    def fire(s, chan, work):
        {read}
        if {clash}:
            raise MergeConflictError(conflict + "%s valid inputs in cycle %s" % (
                sum(x is not _ABSENT for x in ({xs},)), s.cycle))
        {pick}
        if chan[o0] is _ABSENT:
            {take}
            {put}
            s.fired.append(event)
            return True
        s.stalled.add(i)""", BUFFER: """
    emitted, accepted = (i, c.id, "emit"), (i, c.id, "accept")
    def fire(s, chan, work):
        regs, x0 = s.regs, chan[i0]
        if regs[i] is _ABSENT and x0 is not _ABSENT:
            {take}
            regs[i] = x0
            s.worklist.add(i)  # it emits from the next cycle on
            s.fired.append(accepted)
            return True
        elif regs[i] is not _ABSENT and chan[o0] is _ABSENT:
            v, regs[i] = regs[i], _ABSENT
            {put}
            s.fired.append(emitted)
            if x0 is not _ABSENT:
                s.worklist.add(i)  # the freed slot takes it next cycle
            return True
        elif regs[i] is not _ABSENT:
            s.stalled.add(i)""", _PIPELINE: """
    emitted, accepted = (i, c.id, "emit"), (i, c.id, "accept")
    def fire(s, chan, work):
        slots, cycle = s.pipes[i], s.cycle
        n = len(slots)
        {read}
        if accept := n < depth and {valid}:
            y = fn({xs})  # it may raise, so before any token moves
        if emit := n and slots[0][0] <= cycle and chan[o0] is _ABSENT:
            v = slots.pop(0)[1]
            {put}
            s.fired.append(emitted)
            if n == depth and {valid}:
                s.worklist.add(i)  # the freed slot takes it next cycle
        if slots and slots[0][0] <= cycle:
            s.stalled.add(i)  # a due slot waits for the output to empty
        if accept:
            {take}
            slots.append((cycle + depth, y))
            heappush(s.releases, (cycle + depth, i))
            s.tokens += 1 - {n_in}
            s.fired.append(accepted)
        return emit or accept"""}


_FIRE[CONST] = _FIRE[OPERATOR]  # its operation yields its payload


@lru_cache(maxsize=256)
def _factory(template: str, n_in: int, n_out: int, joins: tuple, traced: bool):
    """`make` for one shape from `_FIRE[template]`, logging events if
    `traced`; output k feeds a two-input join if `joins[k]`."""
    ins, outs = [f"i{k}" for k in range(n_in)], [f"o{k}" for k in range(n_out)]
    xs, ps = [f"x{k}" for k in range(n_in)], [f"p{k}" for k in range(n_in)]

    def take(ch, p):  # empty input ch, whose producer is p
        return [f"if {p} in work: s.consume.append({ch})", "else:",
                f"    chan[{ch}] = _ABSENT", f"    if {p} in s.stalled: "
                f"s.stalled.remove({p}); s.worklist.add({p})"]

    def put(k):  # fill output k with v
        join = f"if chan[j{k}] is not _ABSENT: " if joins[k] else ""
        return [f"if c{k} in work: s.produce.append((o{k}, v))", "else:",
                f"    chan[o{k}] = v", f"    {join}s.worklist.add(c{k})"]
    takes = [("ch", "p")] if template == MERGE else zip(ins, ps)
    blocks = {"{take}": sum((take(*t) for t in takes), []),
              "{put}": sum(map(put, range(n_out)), []),
              **{f"{{put{k}}}": put(k) for k in range(n_out)}}
    lines = [line[:len(line) - len(line.lstrip())] + block  # at its indent
             for line in _FIRE[template].split("\n")
             if traced or "s.fired" not in line
             for block in blocks.get(line.strip(), [line.strip()])]
    body = "\n".join(lines).format(
        read="; ".join(f"{x} = chan[{i}]" for x, i in zip(xs, ins)),
        valid=" and ".join(f"{x} is not _ABSENT" for x in xs), xs=", ".join(xs),
        free=" and ".join(f"chan[{o}] is _ABSENT" for o in outs),
        clash=" or ".join(f"{x} is not _ABSENT is not {y}"
                          for k, x in enumerate(xs) for y in xs[k + 1:]),
        pick="\n        ".join([*(f"{'elif' if k else 'if'} {x} is not _ABSENT:"
                                  f" ch, v, p = i{k}, {x}, p{k}"
                                  for k, x in enumerate(xs)), "else: return"]),
        n_in=n_in, n_out=n_out)
    names = [*ins, *outs, *ps, *(f"{c}{k}" for c in "cj" for k in range(n_out))]
    text = (f"def make(i, c, fn, depth, ports):\n"
            f"    {', '.join(names)}, = ports\n{body}\n    return fire\n")
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
        self.ports = [*zip(ins, outs)]
        self.depth = {i: c.latency for i, c in enumerate(comps)
                      if c.kind == OPERATOR and c.latency > 0}
        self.buffers = [i for i, c in enumerate(comps) if c.kind == BUFFER]
        self.nodes = self._rules(traced=False)
        self.entries = [i for i, c in enumerate(comps) if c.kind == ENTRY]
        self.data_entries = [i for i in self.entries
                             if comps[i].out_widths[0]]

    def _rules(self, traced: bool) -> list:
        p, q, sib = self.producer, self.consumer, self.sibling
        return [_factory(_PIPELINE if i in self.depth else c.kind, len(a), len(b),
                         tuple(sib[k] != k for k in b), traced)(
            i, c, bind(IMPL_BY_OPCODE[c.opcode], c.pos) if c.kind == OPERATOR
            else lambda _, v=c.value: v, self.depth.get(i),
            (*a, *b, *(p[k] for k in a), *(q[k] for k in b), *(sib[k] for k in b)))
            for i, (c, (a, b)) in enumerate(zip(self.components, self.ports))]

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
            work = set(worklist)  # a copy: rules test it as the worklist fills
            worklist.clear()
            moved = False
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
                            raise SimError(f"channel {plan.channels[ch].id} "
                                           f"driven while occupied")
                        chan[ch] = value
                        if chan[sibling[ch]] is not _ABSENT:  # a join's last input
                            worklist.add(consumer[ch])
                    consume.clear()
                    produce.clear()
                if self.tokens > self.max_occupancy:  # no Entry holds one now
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
                         leftover=self.tokens + len(self.entry_tokens),
                         events=self.events)


def simulate(g: CDFG, args: tuple, max_cycles: int = DEFAULT_MAX_CYCLES,
             trace: bool = False) -> SimReport:
    return Simulator(g, args, trace=trace).run(max_cycles)
