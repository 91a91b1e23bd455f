"""Seeded generator of "diamond ladder" programs.

A ladder is one `while` loop whose body holds n `if/else` diamonds over
two Int64 state variables, x and y.  Both arms of every diamond assign
both variables.  A narrow arm uses two operators (at most four SSA
instructions with its constant), so `passes.if_convert` flattens it
into selects; a wide arm uses six, more than the passes' speculation
limit, so it stays a real branch and the circuit keeps its Branch/Merge
steering.

The seed picks the comparison, the operators and the constants; where
variables and constants sit is fixed.  So the circuit's size depends
only on (n, wide), and programs drawn with different seeds cost about
the same to compile and to simulate.  Every wide assignment uses each of
`+`, `-` and `*` once, in seeded order, which fixes its latency sum too.

Only Int64 `+`, `-`, `*` and comparisons are used: they are total (no
`%`, no division) and wrap identically in every oracle, and with both
variables assigned on every path each program type-checks in strict
mode.  The stdlib `random.Random` drives every choice, so one
(n, wide, seed, trips) tuple always yields the same text.
"""

from __future__ import annotations

import random

_CMPS = ("<", ">", "<=", ">=")
_OPS = ("+", "-", "*")


def _narrow_arm(rng: random.Random) -> list[str]:
    return [f"x = x {rng.choice(_OPS)} y",
            f"y = y {rng.choice(_OPS)} {rng.randint(1, 9)}"]


def _wide_arm(rng: random.Random) -> list[str]:
    out = []
    for target, other in (("x", "y"), ("y", "x")):
        p = rng.sample(_OPS, 3)
        out.append(f"{target} = {target} {p[0]} {other} {p[1]} "
                   f"{rng.randint(1, 9)} {p[2]} {target}")
    return out


def ladder_program(n: int, wide: bool, seed: int, trips: int = 2,
                   name: str = "ladder") -> str:
    """Source text of a ladder with n diamonds whose loop runs `trips` times.

    The entry signature comes from the annotations: (Int64, Int64).
    """
    if n < 1 or trips < 1:
        raise ValueError("a ladder needs n >= 1 and trips >= 1")
    rng = random.Random(seed)
    arm = _wide_arm if wide else _narrow_arm
    lines = [f"function {name}(a::Int64, b::Int64)",
             "    x = a", "    y = b", "    i = 0",
             f"    while i < {trips}"]
    for _ in range(n):
        lines.append(f"        if x {rng.choice(_CMPS)} y")
        lines += [f"            {s}" for s in arm(rng)]
        lines.append("        else")
        lines += [f"            {s}" for s in arm(rng)]
        lines.append("        end")
    lines += ["        i = i + 1", "    end", "    return x - y", "end"]
    return "\n".join(lines) + "\n"
