"""The simulator's compiled tier: traces recorded ahead on the kernels.

When `Simulator.run` has seen a worklist snapshot `_HOT_AFTER` times, it
calls `compile_trace`, which simulates the cycles that follow on a copy of the
run and compiles them into a trace, specialised on the token occupancy
they ran on, that `Simulator.run` keeps in `plan.cycles` and calls the
next time the snapshot comes.  A `_Recording` runs the copy on the
kernels of `SimPlan.recording_nodes`: its values are `_Tok`s and its
containers log the first access to each place, ("c", k) channel or pin k,
("r", i) and ("p", i) the register and pipeline of component i, ("s", i)
its membership of `stalled` and ("h",) the release heap.  `_trace`
compiles what it recorded: a token is a local, rules only rename it, an
operation's row text computes it, and each place is tested once against
the copy's state before the recorded path first reads it.  Where a guard fails,
`_leave` writes back the state at the start of that cycle from the exit's
`_Exit` table.
"""

from __future__ import annotations

import copy
import weakref
from operator import itemgetter
from sys import maxsize

from .cdfg import CONST
from .codegen import define, indent
from .errors import DeadlockError, MaxCyclesError, MiniHlsError
from .lattice import IMPL_BY_OPCODE, PY_GLOBALS, inline
from .sim import _ABSENT, _GLOBALS, SimPlan, Simulator

# newton_raphson's lap closes after 22 recorded cycles, so a cap of 16 halves
# corpus_sweep's speed.  At 32, 48 and 64, wide_sim ran 2 810, 2 950 and 2 970 ops/s at
# the same peak RSS, its largest trace compiling at a peak of 0.95, 1.3 and 1.8 MB.
_TRACE = 48  # cycles a trace records at most


class _Stop(Exception):
    """The recording has the cycles it needs."""


class _Tok:
    """A value in the recording that `rec` refers to weakly, so that the
    recording's tokens free it; a Branch that tests it records that."""
    __slots__ = ("value", "rec")

    def __init__(self, value, rec):
        self.value, self.rec = value, rec

    def __bool__(self):
        rec = self.rec()
        rec.tested.append((rec.j, self))
        return bool(self.value)


def _logged(base, tag: str, methods: dict):
    """A subclass of `base`, made as `(rec, *args)`, whose `methods` (name:
    whether it writes) note place `(tag, key)` with recording `rec` before
    they act."""
    def note(name, writes):
        act = getattr(base, name)

        def method(self, key, *args):
            self.rec.first.setdefault((tag, key), (self.rec.j, writes))
            return act(self, key, *args)
        return method

    def __init__(self, rec, *args):
        base.__init__(self, *args)
        self.rec = rec
    return type(f"_{base.__name__}", (base,), {"__init__": __init__, **{
        name: note(name, writes) for name, writes in methods.items()}})


_Chan = _logged(list, "c", {"__getitem__": False, "__setitem__": True})
_Regs = _logged(dict, "r", {"__getitem__": False, "__setitem__": True})
_Pipes = _logged(dict, "p", {"__getitem__": False})
_Stalled = _logged(set, "s", {"__contains__": False, "add": True, "remove": True})


class _Outputs(dict):
    def setdefault(self, i, first):  # an Exit fires
        rec = first[2].rec()
        rec.exits.append((rec.j, i, first[2]))
        return dict.setdefault(self, i, first)


class _Snap:
    """A recorded run's state at the start of a cycle, after its releases:
    `key` is what decides every later cycle but the values."""
    __slots__ = ("cycle", "work", "tokens", "chan", "regs", "pipes", "stalled", "heap", "key")

    def __init__(self, s, work: frozenset, cycle: int):
        self.cycle, self.work, self.tokens = cycle, work, s.tokens
        self.chan, self.regs = list(s.chan), dict(dict.items(s.regs))
        self.pipes = {i: list(slots) for i, slots in dict.items(s.pipes)}
        self.stalled, self.heap = frozenset(s.stalled), sorted(s.releases)
        self.key = (work, self.stalled, bytes(v is not _ABSENT for v in self.chan),
                    frozenset(i for i, v in self.regs.items() if v is not _ABSENT),
                    tuple(tuple(max(r - cycle, 0) for r, _ in q) for q in self.pipes.values()))

    def toks(self):  # (place, token) of every token it holds
        yield from ((("c", k), v) for k, v in enumerate(self.chan) if v is not _ABSENT)
        yield from ((("r", i), v) for i, v in self.regs.items() if v is not _ABSENT)
        yield from ((("p", i, n), t) for i, q in self.pipes.items() for n, (_, t) in enumerate(q))


def _renaming(a: _Snap, b: _Snap) -> dict | None:
    """Token of `a` -> token of `b` at the same place, or None if a token of
    `a` would take two values."""
    at, into = dict(b.toks()), {}
    for place, x in a.toks():
        if into.setdefault(x, at[place]) is not at[place]:
            return None
    return into


class _Recording:
    """The cycles that follow a hot snapshot.  `snaps[j]` is the state at
    the start of the j-th cycle recorded, `moved[j]` whether it moved a
    token, `first` maps each place to the cycle that first touched it and
    whether that wrote it, and `ops`, `tested` and `exits` list each
    cycle's operations, Branch tests and Exit firings.  Recording stops at
    a state seen before, whose cycle `loop` is then, at a snapshot heading
    a trace or after `_TRACE` cycles; the path is the `length` cycles
    before `snaps[length]`."""

    def __init__(self, cycles: dict):
        self.cycles, self.work, self.loop, self.j = cycles, None, None, -1
        self.snaps, self.moved, self.first = [], [], {}
        self.ops, self.tested, self.exits = [], [], []

    def fire(self, rule, s, chan, work) -> bool:
        if work is not self.work:  # a new cycle
            self.work, self.j = work, self.j + 1
            self.snaps.append(snap := _Snap(s, work, s.cycle))
            self.moved.append(False)
            for k, old in enumerate(self.snaps[:-1]):
                if old.key == snap.key and _renaming(old, snap) is not None:
                    self.loop = k
                    raise _Stop
            if self.j == _TRACE or self.j and not isinstance(self.cycles.get(work, 0), int):
                raise _Stop
        if rule(s, chan, work):
            self.moved[-1] = True
            return True
        return False

    def op(self, i, fn, xs) -> _Tok:
        y = _Tok(fn(*(x.value for x in xs)), xs[0].rec)
        self.ops.append((self.j, i, xs, y))
        return y


def _record(sim: Simulator, work: frozenset, max_cycles: int) -> _Recording | None:
    """What `sim`'s run does from the cycle of snapshot `work` on, whose
    releases are in, or None if it runs no cycle to its end."""
    r, plan = copy.copy(sim), sim.plan
    r.plan = copy.copy(plan)
    r.plan.cycles, r.plan.nodes = None, plan.recording_nodes
    r.recording = rec = _Recording(plan.cycles)
    tok = lambda v, ref=weakref.ref(rec): v if v is _ABSENT else _Tok(v, ref)  # noqa: E731
    r.chan = _Chan(rec, map(tok, sim.chan))
    r.regs = _Regs(rec, ((i, tok(v)) for i, v in sim.regs.items()))
    r.pipes = _Pipes(rec, ((i, [(at, tok(v)) for at, v in q]) for i, q in sim.pipes.items()))
    r.stalled, r.outputs = _Stalled(rec, sim.stalled), _Outputs(sim.outputs)
    r.releases, r.worklist, r.consume, r.produce, r.fired = [*sim.releases], set(work), [], [], []
    quiet = False
    try:
        r.run(max_cycles)
        quiet = True
    except DeadlockError:  # as quiet as a run that returns
        quiet = True
    except MaxCyclesError:  # the state it stopped in, at the top of its budget's cycle
        rec.snaps.append(_Snap(r, frozenset(r.worklist), r.cycle))
    except (_Stop, MiniHlsError):  # the last cycle recorded is the kernels' to run
        pass
    if quiet and rec.moved[-1]:  # a cycle with an empty worklist ended the run
        rec.snaps.append(_Snap(r, frozenset(), r.cycle - 1))
    rec.length = len(rec.snaps) - 1
    return rec if rec.length else None


class _Exit:
    """Where a trace leaves, for `_leave`: the state at the start of the
    cycle `off` cycles after the trace's base.  For the places the path
    changed, `puts` gives each channel (under 0) and register (under 1)
    with the index in the trace's values of the token it holds (None for
    none), `pipes` each pipeline's slots as (ready cycle less the base,
    index) and `stalls` each component's membership of `stalled`; `work`
    is the worklist and `heap` the releases as (ready cycle less the base,
    component), unless the path changed none; `tokens` is the change of the
    count, `peak` and `later` its highest after a cycle that moved, in the
    first lap and after it; `hands` is what `_leave` returns."""
    __slots__ = ("off", "hands", "puts", "pipes", "stalls", "work", "heap", "tokens", "peak",
                 "later")


def _leave(s: Simulator, x: _Exit, base: int, max_cycles: int, values: tuple) -> bool:
    """Write the state of exit `x` back to the run, which `values` and the
    trace's `base` cycle complete; True to look the next snapshot up, False
    to run its cycle on the kernels, and None, from a path that does not
    close, to do so and record the trace anew if its head comes back first."""
    stores = s.chan, s.regs
    for m, k, n in x.puts:
        stores[m][k] = _ABSENT if n is None else values[n]
    for i, slots in x.pipes:
        s.pipes[i][:] = [(base + at, values[n]) for at, n in slots]
    for i, member in x.stalls:
        (s.stalled.add if member else s.stalled.discard)(i)
    s.worklist.update(x.work)
    if x.heap is not None:
        s.releases[:] = [(base + at, i) for at, i in x.heap]
    s.max_occupancy = max(s.max_occupancy, s.tokens + (x.peak if base == s.cycle else x.later))
    s.tokens += x.tokens
    s.cycle = min(base + x.off, max_cycles)
    return x.hands


def _trace(plan: SimPlan, rec: _Recording):
    """`rec`'s path as a function of (s, chan, max_cycles) that runs its
    cycles and returns what `_leave` returns at the guard that fails or at
    the path's end, or None if Python refuses its text.  A path that
    closes at cycle `rec.loop` runs its lap as `while True:`, whose places
    are tested on entering it, and renames its tokens after each lap."""
    snaps, end, loop = rec.snaps, rec.length, rec.loop
    entry, head = snaps[0], end if loop is None else loop
    base = entry.cycle
    off = [snap.cycle - base for snap in snaps]
    names, scope, exits = {}, dict(_GLOBALS, **PY_GLOBALS, leave=_leave, X=[]), {}

    def new(t):  # t's local, defined here
        names[t] = f"t{len(names)}"
        return names[t]

    tests, hoisted = {}, []  # by cycle, the places whose entry state the path reads first there
    for place, (j, writes) in sorted(kv for kv in rec.first.items() if kv[0][1] is not None):
        if j < head and not writes:
            tests.setdefault(j, []).append(place)
        elif head <= j < end:  # a lap's places, written first or not
            hoisted.append(place)
    if plan.depth:
        (tests.setdefault(0, []) if head else hoisted).insert(0, ("h",))
    guards, seen = {}, set()  # by cycle, the Branch conditions to test, once per stretch
    for j, t in rec.tested:
        if j < end and (j >= head, t) not in seen:
            seen.add((j >= head, t))
            guards.setdefault(j, []).append(t)

    def changed(snap):  # the places whose state differs from the entry's
        return {*(("c", k) for k, (v, w) in enumerate(zip(snap.chan, entry.chan)) if v is not w),
                *(("r", i) for i, v in snap.regs.items() if v is not entry.regs[i]),
                *(("p", i) for i, q in snap.pipes.items()
                  if [t for _, t in q] != [t for _, t in entry.pipes[i]]),
                *(("s", i) for i in snap.stalled ^ entry.stalled)}
    lapped = set().union(*map(changed, snaps)) if loop is not None else None
    delta = [snap.tokens - entry.tokens for snap in snaps]

    def peak(j):
        return max((delta[i + 1] for i in range(j) if rec.moved[i]), default=-maxsize)

    def leave(j, in_lap=False):  # the return statement of exit j
        if (j, in_lap) in exits:
            return exits[j, in_lap]
        snap, x, values = snaps[j], _Exit(), {}
        index = lambda t: values.setdefault(t, len(values))  # noqa: E731
        places = sorted(lapped if in_lap else changed(snap))
        x.off, x.work, x.tokens = off[j], snap.work, delta[j]
        x.hands = True if j == end else None if loop is None else False
        x.peak, x.later = peak(j), (peak(end) if in_lap else peak(j))
        x.puts = [(m, k, None if v is _ABSENT else index(v)) for tag, k in places
                  for m, store in enumerate((snap.chan, snap.regs)) if tag == "cr"[m]
                  for v in [store[k]]]
        x.pipes = [(i, [(max(at - base, off[j]), index(t)) for at, t in snap.pipes[i]])
                   for tag, i in places if tag == "p"]
        x.stalls = [(i, i in snap.stalled) for tag, i in places if tag == "s"]
        x.heap = [(at - base, i) for at, i in snap.heap] if plan.depth and (j or in_lap) else None
        scope["X"].append(x)
        vals = "".join(f"{names[t]}, " for t in values)
        exits[j, in_lap] = (f"return leave(s, X[{len(scope['X']) - 1}], base, max_cycles, "
                            f"({vals.rstrip()}))")
        return exits[j, in_lap]

    def test(place, code, conds, after):  # test a place's entry state, loading its tokens
        tag, i = place[0], place[-1]
        if tag == "h":
            conds.append("releases" if not entry.heap else "sorted(releases) != [%s]" % ", ".join(
                f"(base + {at - base}, {i})" for at, i in entry.heap))
        elif tag == "s":
            conds.append(f"{i} {'not in' if i in entry.stalled else 'in'} stalled")
        elif tag == "p":
            code.append(f"q{i} = pipes[{i}]")
            conds.append(f"len(q{i}) != {len(entry.pipes[i])}")
            after += [f"{new(t)} = q{i}[{n}][1]" for n, (_, t) in enumerate(entry.pipes[i])]
        else:
            store = "chan" if tag == "c" else "regs"
            v, at = getattr(entry, store)[i], f"{store}[{i}]"
            if v is _ABSENT:
                conds.append(f"{at} is not _ABSENT")
            else:
                code.append(f"{new(v)} = {at}")
                conds.append(f"{names[v]} is _ABSENT")

    def cycle(j, cover, in_lap):  # cycle j, testing the budget up to cycle `cover`
        code, conds, after = [], [], []
        if cover is not None:
            conds.append(f"base + {off[cover]} >= max_cycles")
        for place in tests.get(j, ()):
            test(place, code, conds, after)
        conds += [f"{'not ' if t.value else ''}{names[t]}" for t in guards.get(j, ())]
        if conds:
            code += [f"if {' or '.join(conds)}:", "    " + leave(j, in_lap)]
        code += after
        trapping = []
        for _, i, xs, t in sorted((op for op in rec.ops if op[0] == j), key=itemgetter(1)):
            c = plan.components[i]
            if c.kind == CONST:
                scope[f"k{i}"] = c.value
                code.append(f"{new(t)} = k{i}")
                continue
            row = IMPL_BY_OPCODE[c.opcode]
            line = f"{new(t)} = {inline(row, [names[x] for x in xs])}"
            (trapping if row.traps else code).append(line)
        if trapping:  # the kernels raise the trap from the cycle's start
            code += ["try:", *indent(trapping), "except MiniHlsError:", "    " + leave(j, in_lap)]
        code += [f"outputs.setdefault({i}, (base + {off[j]}, {i}, {names[t]}))"
                 for k, i, t in rec.exits if k == j]
        return code

    checks = [j for j in range(head) if j == 0 or j in tests or j in guards] + [head]
    cover = {j: checks[k + 1] - 1 for k, j in enumerate(checks[:-1]) if checks[k + 1] > 1}
    body = [line for j in range(head) for line in cycle(j, cover.get(j), False)]
    if loop is None:
        body.append(leave(end))
    else:
        code, conds, after = [], [], []
        for place in hoisted:
            test(place, code, conds, after)
        if conds:
            code += [f"if {' or '.join(conds)}:", "    " + leave(loop)]
        body += code + after
        lap = [line for j in range(loop, end)
               for line in cycle(j, end - 1 if j == loop else None, True)]
        lap.append(f"base += {off[end] - off[loop]}")
        pairs = {x: y for x, y in _renaming(snaps[loop], snaps[end]).items() if x is not y}
        if pairs:
            lap.append(f"{''.join(names[x] + ', ' for x in pairs)}= "
                       f"{''.join(names[y] + ', ' for y in pairs.values())}")
        body += ["while True:", *indent(lap)]
    text = "\n".join(body)
    state = [x for x in ("regs", "pipes", "stalled", "releases", "outputs") if x in text]
    head_line = "base = s.cycle" + "".join(f"; {x} = s.{x}" for x in state)
    return define("def run(s, chan, max_cycles):\n" + "\n".join(
        indent([head_line, *body])) + "\n", f"<sim trace of {end}>", scope)


def compile_trace(sim: Simulator, work: frozenset, max_cycles: int):
    """What `plan.cycles` keeps for snapshot `work` once it is hot: the
    trace it heads, recorded from `sim`'s run as it stands, 0 to count it
    again if that run ends or raises in the snapshot's cycle, or -maxsize to
    keep it cold if Python refuses the trace's text."""
    rec = _record(sim, work, max_cycles)
    return 0 if rec is None else _trace(sim.plan, rec) or -maxsize
