"""Token mutants of the corpus programs compile or fail cleanly.

Each mutant replaces one token of a corpus program with another token
that occurs in the corpus.  Compiling it, under the program's signature
and under the one with Int64 and Float64 swapped, must either succeed or
raise a `MiniHlsError`: a malformed program never gets a traceback.  The
full set is about 5700 mutants and takes several seconds; a fixed sample
runs here.
"""

import random

import pytest

from minihls import corpus
from minihls.errors import MiniHlsError
from minihls.lattice import LatticeType
from minihls.pipeline import compile_source
from minihls.source import tokenize

I, F = LatticeType.INT64, LatticeType.FLOAT64
SAMPLE = 600


def lexeme(tok) -> str:
    return repr(tok.value) if tok.kind == "float" else str(tok.value)


def all_mutants() -> list[tuple[str, str]]:
    programs = {name: [lexeme(t) for t in tokenize(corpus.load(name))
                       if t.kind != "eof"]
                for name in corpus.PROGRAMS}
    vocab = sorted({w for words in programs.values() for w in words})
    return [(name, " ".join(words[:i] + [new] + words[i + 1:]))
            for name, words in programs.items()
            for i, old in enumerate(words) for new in vocab if new != old]


MUTANTS = random.Random(0).sample(all_mutants(), SAMPLE)


def test_unmutated_corpus_reads_back_from_its_lexemes():
    for name in corpus.PROGRAMS:
        words = [lexeme(t) for t in tokenize(corpus.load(name)) if t.kind != "eof"]
        compile_source(" ".join(words), corpus.SIGNATURES[name])


@pytest.mark.parametrize("swap", [False, True], ids=["sig", "swapped"])
def test_every_mutant_compiles_or_raises_a_minihls_error(swap):
    compiled = 0
    for name, text in MUTANTS:
        sig = corpus.SIGNATURES[name]
        if swap:
            sig = tuple({I: F, F: I}.get(t, t) for t in sig)
        try:
            compile_source(text, sig)
            compiled += 1
        except MiniHlsError:
            pass
    assert 0 < compiled < SAMPLE  # the sample holds both kinds
