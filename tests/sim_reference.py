"""The closure-per-kind token simulator, the reference `sim.Simulator` is
tested against.

Each component is bound to a closure made by its kind's factory, which
reads its channels through `itemgetter` picks; a Buffer is a depth-1
pipeline whose tokens come due through the release heap, like a
latency > 0 Operator.  The run loop commits the same two phases and keeps
the same worklist rules as `sim.Simulator` but one: its `sibling` table
pairs only two-input joins, so it wakes a join of three or more inputs at
every input that arrives, where `sim` wakes it once, by its last.  Only the
count of rule calls differs.  It shares `SimReport` and the errors with
`sim`, builds a plan of its own for each run and gives the same reports,
events and errors.  It is the reference for both of `sim`'s tiers: the
per-shape kernels, and the compiled cycles that untraced runs switch to,
whose reports it must equal without events.
"""

from heapq import heappop, heappush
from operator import itemgetter

from minihls.cdfg import (BRANCH, BUFFER, CDFG, CONST, ENTRY, EXIT, FORK,
                          MERGE, OPERATOR, SINK, require_valid)
from minihls.errors import (DeadlockError, DivByZeroError, MaxCyclesError,
                            MergeConflictError, SimError)
from minihls.lattice import IMPL_BY_OPCODE
from minihls.sim import DEFAULT_MAX_CYCLES, SimReport

_ABSENT = object()


# Firing rules.  `ReferencePlan` binds each component once to a rule
# `fire(s, chan)` that decides on the start-of-cycle channels and queues
# its consumptions, productions and events on the simulator s.  A rule
# captures only what the circuit fixes; the run's state stays on s.

def _reader(ins):
    """chan -> the values on channels ins, in order, by one C-level call."""
    if len(ins) == 1:
        return itemgetter(slice(ins[0], ins[0] + 1))
    return itemgetter(*ins)


def _entry(i, c, ins, outs):
    """Entry emits its one token in cycle 0, on free channels: no stall."""
    out, event = outs[0], (c.id, "emit")

    def fire(s, chan):
        if i in s.entry_tokens and chan[out] is _ABSENT:
            s.produce.append((out, s.entry_tokens.pop(i)))
            s.fired.append(event)
    return fire


def _drain(i, c, ins, outs):
    """Exit and Sink take every token; an Exit's first is the output."""
    inp, is_exit = ins[0], c.kind == EXIT
    event = (c.id, "exit" if is_exit else "sink")

    def fire(s, chan):
        value = chan[inp]
        if value is not _ABSENT:
            s.consume.append(inp)
            if is_exit:
                s.outputs.setdefault(c.id, value)
            s.fired.append(event)
    return fire


def _fork(i, c, ins, outs):
    inp, event, read = ins[0], (c.id, "fire"), _reader(outs)
    free = read([_ABSENT] * (max(outs) + 1))  # what read sees on free outputs

    def fire(s, chan):
        value = chan[inp]
        if value is not _ABSENT and read(chan) == free:
            s.consume.append(inp)
            s.produce.extend([(o, value) for o in outs])
            s.fired.append(event)
        elif value is not _ABSENT:
            s.stalled.add(i)
    return fire


def _branch(i, c, ins, outs):
    (data, cond), event = ins, (c.id, "fire")

    def fire(s, chan):
        value, flag = chan[data], chan[cond]
        if value is not _ABSENT and flag is not _ABSENT:
            out = outs[0 if flag else 1]
            if chan[out] is _ABSENT:
                s.consume.extend(ins)
                s.produce.append((out, value))
                s.fired.append(event)
            else:
                s.stalled.add(i)
    return fire


def _merge(i, c, ins, outs):
    out, event = outs[0], (c.id, "fire")

    def fire(s, chan):
        valid = [ch for ch in ins if chan[ch] is not _ABSENT]
        if len(valid) > 1:
            raise MergeConflictError(
                f"merge {c.id} ({c.label}) has {len(valid)} valid "
                f"inputs in cycle {s.cycle}")
        if valid and chan[out] is _ABSENT:
            s.consume.append(valid[0])
            s.produce.append((out, chan[valid[0]]))
            s.fired.append(event)
        elif valid:
            s.stalled.add(i)
    return fire


def _operator(i, c, ins, outs):
    """Latency-0 Operator, or Const: its trigger token yields the payload."""
    out, event, read = outs[0], (c.id, "fire"), _reader(ins)
    fn = (IMPL_BY_OPCODE[c.opcode].fn if c.kind == OPERATOR
          else lambda _, v=c.value: v)

    def fire(s, chan):
        values = read(chan)
        if _ABSENT not in values and chan[out] is _ABSENT:
            s.consume.extend(ins)
            s.produce.append((out, fn(*values)))
            s.fired.append(event)
        elif _ABSENT not in values:
            s.stalled.add(i)
    return fire


def _pipeline(i, c, ins, outs, depth):
    """Buffer, or Operator with latency > 0: a FIFO of up to `depth`
    (ready cycle, value) slots.  The head leaves once ready if the output
    is free, and a token enters if a slot was free at the cycle's start."""
    out = outs[0]
    fn = IMPL_BY_OPCODE[c.opcode].fn if c.kind == OPERATOR else lambda v: v
    emitted, accepted, read = (c.id, "emit"), (c.id, "accept"), _reader(ins)

    def fire(s, chan):
        slots = s.pipes[i]
        n = len(slots)
        values = read(chan)
        waiting = _ABSENT not in values
        if n and slots[0][0] <= s.cycle and chan[out] is _ABSENT:
            s.produce.append((out, slots.pop(0)[1]))
            s.tokens -= 1
            s.fired.append(emitted)
            if n == depth and waiting:
                s.worklist.add(i)  # the freed slot takes the token next cycle
        if slots and slots[0][0] <= s.cycle:
            s.stalled.add(i)  # a due slot waits for the output to empty
        if n < depth and waiting:
            s.consume.extend(ins)
            ready = s.cycle + depth
            slots.append((ready, fn(*values)))
            heappush(s.releases, (ready, i))
            s.tokens += 1
            s.fired.append(accepted)
    return fire


_BIND = {ENTRY: _entry, EXIT: _drain, SINK: _drain, CONST: _operator,
         FORK: _fork, BRANCH: _branch, MERGE: _merge, OPERATOR: _operator}


class ReferencePlan:
    """The plan of one run: a circuit `require_valid` accepted, numbered by
    position.  `producer[k]` and `consumer[k]` are the components at either
    end of channel k, `sibling[k]` is the other input of channel k's
    consumer if that is a two-input join (any kind but Merge), else k
    itself, `depth[i]` is the depth of a Buffer's or latency > 0
    Operator's pipeline and `nodes[i]` component i's firing rule.
    """

    def __init__(self, g: CDFG):
        require_valid(g)
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
        self.depth = {i: c.latency if c.kind == OPERATOR else 1
                      for i, c in enumerate(comps) if c.kind == BUFFER
                      or (c.kind == OPERATOR and c.latency > 0)}
        self.nodes = [_pipeline(i, c, ins[i], outs[i], self.depth[i])
                      if i in self.depth
                      else _BIND[c.kind](i, c, ins[i], outs[i])
                      for i, c in enumerate(comps)]
        self.entries = [i for i, c in enumerate(comps) if c.kind == ENTRY]
        self.data_entries = [i for i in self.entries
                             if comps[i].out_widths[0]]


class ReferenceSimulator:
    def __init__(self, g: CDFG, args: tuple, trace: bool = False):
        plan = ReferencePlan(g)
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
        self.stalled: set[int] = set()  # holding a token an output blocks

    def run(self, max_cycles: int = DEFAULT_MAX_CYCLES) -> SimReport:
        nodes, producer, consumer = (self.plan.nodes, self.plan.producer,
                                     self.plan.consumer)
        chan, worklist, releases = self.chan, self.worklist, self.releases
        sibling, stalled = self.plan.sibling, self.stalled
        consume, produce, fired = self.consume, self.produce, self.fired
        cycle, exit_cycle = self.cycle, None
        while True:
            if cycle >= max_cycles:
                raise MaxCyclesError(
                    f"no quiescence after {max_cycles} cycles",
                    report=self._report(exit_cycle))
            while releases and releases[0][0] <= cycle:
                worklist.add(heappop(releases)[1])
            work = sorted(worklist)
            worklist.clear()
            try:
                for i in work:
                    nodes[i](self, chan)
            except DivByZeroError as e:  # the trap is at component i's source
                raise DivByZeroError(e.message,
                                     self.plan.components[i].pos) from None

            if fired:
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
                        raise SimError(f"channel {self.plan.channels[ch].id} "
                                       f"driven while occupied")
                    chan[ch] = value
                    if chan[sibling[ch]] is not _ABSENT:  # a join's last input
                        worklist.add(consumer[ch])
                self.tokens += len(produce) - len(consume)
                occupancy = self.tokens + len(self.entry_tokens)
                if occupancy > self.max_occupancy:
                    self.max_occupancy = occupancy
                if exit_cycle is None and self.outputs:
                    exit_cycle = cycle
                if self.events is not None:
                    self.events += [(cycle, *event) for event in fired]
                consume.clear()
                produce.clear()
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
                report=self._report(exit_cycle))
        return self._report(exit_cycle)

    def _report(self, exit_cycle) -> SimReport:
        out = next(iter(self.outputs.values())) if self.outputs else None
        return SimReport(output=out, exit_cycle=exit_cycle,
                         total_cycles=self.cycle,
                         max_occupancy=self.max_occupancy,
                         leftover=self.tokens + len(self.entry_tokens),
                         events=self.events)


def reference_simulate(g: CDFG, args: tuple,
                       max_cycles: int = DEFAULT_MAX_CYCLES,
                       trace: bool = False) -> SimReport:
    return ReferenceSimulator(g, args, trace=trace).run(max_cycles)
