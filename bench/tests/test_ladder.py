"""The ladder generator emits well-typed programs of the intended shape.

    python3 -m pytest bench/tests/test_ladder.py
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from ladder import ladder_program  # noqa: E402
from minihls.errors import PassError  # noqa: E402
from minihls.interp import run_source, run_ssa  # noqa: E402
from minihls.pipeline import compile_source  # noqa: E402


def test_same_seed_same_text_other_seed_other_text():
    assert ladder_program(6, True, 11) == ladder_program(6, True, 11)
    assert ladder_program(6, True, 11) != ladder_program(6, True, 12)


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_ladders_compile_and_interpreters_agree(n, wide):
    sizes = set()
    for seed in range(8):
        res = compile_source(ladder_program(n, wide, seed))
        sizes.add(len(res.cdfg.components))
        for args in [(3, -4), (-70, 12), (0, 0)]:
            want = run_source(res.func, args)
            assert run_ssa(res.ssa_unopt, args) == want
            assert run_ssa(res.ssa, args) == want
        if wide:
            # No arm is if-converted: every diamond keeps its blocks.
            assert len(res.ssa.blocks) == len(res.ssa_unopt.blocks)
        else:
            # Every diamond is if-converted: entry, header, body, exit.
            assert len(res.ssa.blocks) == 4
    # The seed moves operators and constants, never the circuit's size.
    assert len(sizes) == 1


# Why both arms of every diamond assign both variables.  After a diamond
# is if-converted, merge_blocks folds its join block into the predecessor
# but renames the join's parameters only inside the folded block; a later
# block that still names one (x below, which the second diamond does not
# assign) is left using an undefined value.
PASSTHROUGH = """\
function f(a::Int64, b::Int64)
    x = a
    y = b
    i = 0
    while i < 2
        if x < y
            x = x + 1
        else
            x = x - 1
        end
        if y < 3
            y = y + x
        else
            y = y - 2
        end
        i = i + 1
    end
    return x + y
end
"""


@pytest.mark.xfail(strict=True, raises=PassError,
                   reason="merge_blocks leaves uses of a folded join's "
                          "parameters in later blocks")
def test_variable_passing_through_a_converted_diamond():
    compile_source(PASSTHROUGH)
