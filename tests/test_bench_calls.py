"""The calls the benchmark makes of minihls, in tier-1.

`bench/tracing.py`'s `Tracer` replays `pipeline.compile_source` stage by
stage and simulates with the event log on; `bench/tests` would catch a
change to `src/` that breaks one of those calls, but it runs for about
half a minute outside `testpaths`.  This runs the same calls on the
corpus and on one small ladder from `bench/ladder.py`.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from minihls import corpus
from minihls.cdfg import to_json
from minihls.pipeline import compile_source

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from ladder import ladder_program  # noqa: E402
from tracing import Tracer  # noqa: E402

API = SimpleNamespace(**{m: importlib.import_module(f"minihls.{m}") for m in (
    "build", "cdfg", "ir", "lower", "passes", "pipeline", "sim", "source",
    "typecheck")})

POINTS = {"if_else": (3, -2), "power": (2, 5), "newton_raphson": (2.0,)}
CASES = {name: (corpus.load(name), corpus.SIGNATURES[name], args)
         for name, args in POINTS.items()}
CASES["ladder"] = (ladder_program(3, True, 7), None, (3, -4))


@pytest.mark.parametrize("case", CASES)
def test_tracer_compiles_and_simulates_as_the_pipeline_does(case):
    text, sig, args = CASES[case]
    want = compile_source(text, sig)
    with Tracer(API) as tracer:
        res, counts = tracer.compile(text, sig)
        report, sim_counts = tracer.simulate(res.cdfg, args)
    assert to_json(res.cdfg) == to_json(want.cdfg)
    assert counts["tokens"] > 0 and sim_counts["firings"] > 0
    assert report.events
    assert report.output == API.sim.simulate(want.cdfg, args).output
