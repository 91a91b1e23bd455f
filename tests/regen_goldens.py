#!/usr/bin/env python3
"""Regenerate the golden files under tests/golden/ from the current code.

Run from the repository root after an intentional change to lowering,
the passes, the circuit builder or its dump format, or the emitter, then
review the diff like any other code change:

    python3 tests/regen_goldens.py
"""

from pathlib import Path

from minihls import corpus
from minihls.cdfg import to_json
from minihls.ir import print_function
from minihls.pipeline import compile_source
from minihls.vhdl import emit_vhdl

GOLDEN = Path(__file__).parent / "golden"


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in corpus.PROGRAMS:
        res = compile_source(corpus.load(name), corpus.SIGNATURES[name])
        (GOLDEN / f"{name}.unopt.ssa").write_text(print_function(res.ssa_unopt))
        (GOLDEN / f"{name}.opt.ssa").write_text(print_function(res.ssa))
        (GOLDEN / f"{name}.cdfg.json").write_text(to_json(res.cdfg))
        bundle_dir = GOLDEN / name
        bundle_dir.mkdir(exist_ok=True)
        for fname, text in emit_vhdl(res.cdfg).items():
            (bundle_dir / fname).write_bytes(text.encode())
        print(f"{name}: {len(res.ssa.blocks)} blocks, "
              f"{len(res.cdfg.components)} components")


if __name__ == "__main__":
    main()
