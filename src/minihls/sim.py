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
called enough: a plan counts the worklist snapshot of each cycle and
records the one that last followed it, and once one has recurred
`_HOT_AFTER` times it heads a trace, one function that runs the cycles of
the path its recorded successors lead along, each filled in from the same
templates, the rules inlined in ascending order with their ports as
numbers and each move's test of the other end decided.  Between two
cycles a trace returns to `Simulator.run` unless the worklist is the path's
next snapshot; a path that comes back to itself closes into a loop.  Entry,
Exit, Const, Operator, Fork and Sink share the strict rule, a join of every
input forked to every output: fire when every input holds a token and every
output is free.  They differ only in the value a firing computes
and the event it logs.  An Entry reads its argument (None for control) from
a pin, as in the netlist: a slot after the channels that no component
fills.  Each cycle a `Simulator` evaluates only its worklist: each
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
components still to run are run in ascending order (a compiled cycle runs
in that order) and the lowest that raises gives the error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from heapq import heappop, heappush
from operator import itemgetter
from sys import maxsize

from .cdfg import (BRANCH, BUFFER, CDFG, CONST, ENTRY, EXIT, FORK, MERGE,
                   OPERATOR, SINK, require_valid)
from .codegen import define, indent
from .errors import (DeadlockError, MaxCyclesError, MergeConflictError,
                     MiniHlsError, SimError)
from .lattice import IMPL_BY_OPCODE, bind

DEFAULT_MAX_CYCLES = 100_000

# A trace compiles in 3.7-7.2 ms (median per circuit, best of 3, x86-64 Xeon), 5-7 % of
# it joining cached rule bodies into text: what 2 000-10 000 cycles save at 0.7-2.3 µs
# for a traced cycle against a counted one, or 170-2 900 calls of 3.5 (wide_sim) to 12
# (corpus_sweep) cycles.
_HOT_AFTER = 1024  # sightings of a snapshot before it heads a compiled trace
# corpus_sweep's longest loop closes after 10.  A longer trace compiles more text at once:
# at 4, 8 and 12, wide_sim's peak RSS grew 3, 5 and 6 %, corpus_sweep's ops/s 23, 26, 38 %.
_TRACE = 12  # snapshots a trace holds at most
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
# those names, per shape, or with numbers for a compiled cycle: `{read}` reads
# input k into xk, `{valid}` tests that every input holds a token and
# `{ready}` also that every output is free, `{xs}` lists the inputs, `{clash}`
# tests that two inputs hold a token and `{pick}` is the one that does, or
# _ABSENT.  `{take}` empties each input (a Merge's picked one) and `{put}`
# fills each output, `{putk}` output k, with v, as the Engine paragraph says,
# and `{fired}` marks a firing.  The strict rule takes its `{event}` name and
# `{compute}` line from `_STRICT` (a Const's operation yields its payload),
# and `{count}` adds outputs less inputs to the token count.  A rule computes
# what can raise before it moves a token.

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
            "heappush": heappush, "heappop": heappop}  # of every rule's text
# the run's state that a compiled cycle reads from locals of these names
_STATE = re.compile(r"\bs\.(?=(worklist|stalled|regs|pipes|releases|tokens|cycle)\b)")


def _emptied(ch, p) -> list:  # empty channel ch, whose producer is p
    return [f"chan[{ch}] = _ABSENT",
            f"if {p} in s.stalled: s.stalled.remove({p}); s.worklist.add({p})"]


def _filled(ch, v, c, js) -> list:  # fill ch, whose consumer c joins js too, with v
    full = " and ".join(f"chan[{j}] is not _ABSENT" for j in js)
    return [f"chan[{ch}] = {v}", f"{f'if {full}: ' if full else ''}s.worklist.add({c})"]


def _fill(kind: str, ins, outs, ps, cs, js, work, traced: bool, **names) -> str:
    """`kind`'s template with the ports and `names` (i, c, fn and depth)
    filled in, logging events if `traced`.  A kernel (`work` None) queues a
    move whose other end is in the cycle's `work`; inlined into the cycle of
    snapshot `work`, that test is decided here, and a queued move is left in
    a local: `tk` for channel k's consumption, `vk` for its production."""
    xs = [f"x{k}" for k in range(len(ins))]
    event, compute = _STRICT.get(kind, (None, None))

    def take(ch, p):  # empty input ch, whose producer is p
        if work is None:
            return [f"if {p} in work: s.consume.append({ch})", "else:",
                    *indent(_emptied(ch, p))]
        return [f"t{ch} = True"] if p in work else _emptied(ch, p)

    def put(k):  # fill output k with v
        if work is None:
            return [f"if {cs[k]} in work: s.produce.append(({outs[k]}, v))", "else:",
                    *indent(_filled(outs[k], "v", cs[k], js[k]))]
        return [f"v{outs[k]} = v"] if cs[k] in work else _filled(outs[k], "v", cs[k], js[k])
    takes = ([[f"{'elif' if k else 'if'} {x} is not _ABSENT:", *indent(take(ch, p))]
              for k, (x, ch, p) in enumerate(zip(xs, ins, ps))] if kind == MERGE
             else [take(ch, p) for ch, p in zip(ins, ps)])
    blocks = {"{take}": sum(takes, []), "{put}": sum(map(put, range(len(outs))), []),
              **{f"{{put{k}}}": put(k) for k in range(len(outs))},
              "{compute}": [compute] if compute else [],
              "{count}": [f"s.tokens += {len(outs) - len(ins)}"] if len(outs) != len(ins) else [],
              "{fired}": ["return True" if work is None else "moved = True"]}
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
    body = _fill(kind, ins, outs, ps, cs, js, None, traced,
                 i="i", c="c", fn="fn", depth="depth")
    text = (f"def make(i, c, fn, depth, ports):\n"
            f"    {', '.join([*ins, *outs, *ps, *cs, *sum(js, [])])}, = ports\n"
            f"{body}\n    return fire\n")
    return define(text, f"<sim rule {kind} {n_in}x{n_out}>", dict(_GLOBALS), "make")


def _shift(text: str) -> str:  # text one level deeper
    return "    " + text.replace("\n", "\n    ")


def _cycle(plan: SimPlan, work: frozenset) -> str:
    """The text of one untraced cycle of snapshot `work`, which leaves in
    `moved` whether anything fired: its rules inlined in ascending order, so
    the lowest that raises gives the error, with operation i and component i
    as globals `fi` and `ci`, then each move between two of them committed,
    consumptions first, as `Simulator.run` commits.  A rule's text depends
    on the snapshot only through which of its ports' other ends it holds,
    and `plan.bodies` keeps it by that."""
    p, q, sib, bodies = plan.producer, plan.consumer, plan.sibling, plan.bodies
    rules, inner = [], []
    for i in sorted(work):
        a, b = plan.ports[i]
        key = (i, *(p[k] in work for k in a), *(q[k] in work for k in b))
        if key not in bodies:
            rule = _fill(plan.kinds[i], a, b, [p[k] for k in a], [q[k] for k in b],
                         [sib[k] for k in b], work, False, i=i, c=f"c{i}", fn=f"f{i}",
                         depth=plan.depth.get(i))
            bodies[key] = _STATE.sub("", rule.split("def fire(s, chan, work):\n")[1]
                                     .replace("\n        ", "\n")[8:])
        rules.append(bodies[key])
        inner += [k for k in b if q[k] in work]
    inner.sort()
    commit = [line for k in inner for line in (f"if t{k}:", *indent(_emptied(k, p[k])))]
    for k in inner:
        commit += [f"if v{k} is not _ABSENT:", f"    if chan[{k}] is not _ABSENT:",
                   f"        raise SimError({_OCCUPIED % plan.channels[k].id!r})",
                   *indent(_filled(k, f"v{k}", q[k], sib[k]))]
    return "\n".join(["moved = False", *(f"{' = '.join(f'{x}{k}' for k in inner)} = {v}"
                                         for x, v in (("t", "False"), ("v", "_ABSENT")) if inner),
                      *rules, *(_STATE.sub("", line) for line in commit)])


def _compile_cycle(plan: SimPlan, work: frozenset):
    """The trace headed by snapshot `work` as a function of (s, chan,
    max_cycles), or None if Python refuses its text.  The path follows the
    recorded successors from `work` until one is in it already, where it
    closes into a `while` loop, or heads a compiled trace, which the lookup
    in `Simulator.run` then runs, or until it holds `_TRACE` snapshots.  The
    function runs the path's cycles in turn, snapshot k as global `Wk`, and
    returns False after a cycle that fired nothing, or None at the end of a
    path that does not close and before a cycle that reaches max_cycles or
    whose worklist, with the releases then due, is not the path's next
    snapshot; it writes back what it keeps in locals of s."""
    path, cycles, successor = [work], plan.cycles, plan.successor
    after = successor.get(work)
    while (after is not None and after not in path and len(path) < _TRACE
           and (n := cycles.get(after, 0)).__class__ is int and n >= 0):
        path.append(after)
        after = successor.get(after)
    loop = path.index(after) if after in path else len(path)
    scope = dict(_GLOBALS, **{f"W{k}": w for k, w in enumerate(path)})
    for i in set().union(*path):
        scope[f"f{i}"], scope[f"c{i}"] = plan.ops[i], plan.components[i]
    due = ("\nwhile releases and releases[0][0] <= cycle:\n"
           "    worklist.add(heappop(releases)[1])" if plan.depth else "")

    def step(k):  # cycle k, then the test that the next is the path's
        text = _cycle(plan, path[k]) + (
            "\nif not moved:\n    return False\nif tokens > peak:\n    peak = tokens\n"
            "cycle += 1")
        k = k + 1 if k + 1 < len(path) else loop
        return text if k == len(path) else text + (
            f"\nif cycle >= max_cycles:\n    return{due}\nif worklist != W{k}:\n"
            f"    return\nworklist.clear()")
    body = "\n".join([*map(step, range(loop)), *(
        ["while True:\n" + _shift("\n".join(map(step, range(loop, len(path)))))]
        if loop < len(path) else [])])
    state = [x for x in ("worklist", "stalled", "regs", "pipes", "releases") if x in body]
    head = "cycle, tokens, peak = s.cycle, s.tokens, s.max_occupancy\n" + (
        f"{', '.join(state)} = s.{', s.'.join(state)}\n" if state else "")
    return define("def run(s, chan, max_cycles):\n" + _shift(
        f"{head}try:\n{_shift(body)}\nfinally:\n"
        "    s.cycle, s.tokens, s.max_occupancy = cycle, tokens, peak") + "\n",
        f"<sim cycle trace of {len(path)}>", scope)


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
    `successor` maps each snapshot that `cycles` counts to the one that
    followed it the last time it ran on the kernels, and `bodies` holds a
    compiled cycle's text of each rule by `_cycle`'s key.
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
        self.nodes = self._rules(traced=False)
        self.cycles: dict | None = {}  # per snapshot, times seen or its compiled trace
        self.successor: dict = {}
        self.bodies: dict = {}

    def _rules(self, traced: bool) -> list:
        p, q, sib = self.producer, self.consumer, self.sibling
        return [_factory(kind, len(a), len(b), tuple(len(sib[k]) for k in b), traced)(
            i, c, op, self.depth.get(i), (*a, *b, *(p[k] for k in a), *(q[k] for k in b),
                                          *(j for k in b for j in sib[k])))
            for i, (c, kind, op, (a, b)) in enumerate(
                zip(self.components, self.kinds, self.ops, self.ports))]

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
        successor, last = plan.successor, None  # last: a counted snapshot just run on kernels
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
            moved = None
            if cycles is not None:  # count the snapshot, -maxsize if Python refused it
                if last is not None:
                    successor[last] = work
                step, last = cycles.get(work, 0), None
                if step.__class__ is int and (step or len(cycles) < _SNAPSHOTS):
                    last = work
                    step = cycles[work] = (step + 1 if step + 1 < _HOT_AFTER else
                                           _compile_cycle(plan, work) or -maxsize)
                if step.__class__ is not int:  # a trace: None to go on, False when idle
                    moved, last = step(self, chan, max_cycles), None
                    cycle = self.cycle
                    if moved is None:
                        continue
            if moved is None:
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
