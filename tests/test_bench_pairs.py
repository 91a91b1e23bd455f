"""The summary arithmetic and the history merge of `tools/bench_pairs.py`,
on fixed numbers.

No benchmark runs here: the figures are made up so that each median,
quartile and win can be checked by hand.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_spread_gives_median_and_inclusive_quartiles():
    s = bench_pairs.spread([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["q1"], s["median"], s["q3"]) == (2.0, 3.0, 4.0)
    assert s["values"] == [5.0, 1.0, 3.0, 2.0, 4.0]  # run order kept
    s = bench_pairs.spread([10.0, 20.0, 30.0, 40.0])
    assert (s["q1"], s["median"], s["q3"]) == (17.5, 25.0, 32.5)
    assert bench_pairs.spread([7.0])["q1"] == bench_pairs.spread([7.0])["q3"] == 7.0


def test_summary_of_a_higher_is_better_metric():
    parent = [38.0, 37.5, 38.5, 39.0, 38.0]
    change = [40.0, 39.5, 38.0, 40.5, 41.0]
    m = bench_pairs.summarize(parent, change, "higher")
    assert m["parent"]["median"] == 38.0 and m["change"]["median"] == 40.0
    assert (m["parent"]["q1"], m["parent"]["q3"]) == (38.0, 38.5)
    assert m["change_pct"] == pytest.approx(100 * 2 / 38)
    assert (m["wins"], m["pairs"]) == (4, 5)  # pair 2: 38.0 < 38.5
    assert m["median_gap_exceeds_parent_iqr"]  # 2.0 > 0.5


def test_summary_of_a_lower_is_better_metric_counts_ties_as_no_win():
    m = bench_pairs.summarize([9.0, 8.0, 10.0, 7.0], [8.0, 8.0, 11.0, 6.0], "lower")
    assert m["wins"] == 2  # pairs 0 and 3; a tie is no win
    assert m["parent"]["median"] == 8.5 and m["change"]["median"] == 8.0
    # parent IQR is 9.25 - 7.75 = 1.5, more than the 0.5 between medians
    assert not m["median_gap_exceeds_parent_iqr"]
    assert bench_pairs.summarize([0, 0], [0, 0], "lower")["change_pct"] is None


def comparison(parent, change, ops_per_s):
    """A made-up comparison of one workload, with one pair's run."""
    return {"seed": 7, "parent": {"commit": parent},
            "change": {"commit": change, "source_sha256": change * 2},
            "metrics": {"ops_per_s": {"change_pct": ops_per_s}},
            "runs": [{"pair": 0, "first": "parent"}]}


def test_merge_keeps_the_latest_on_top_and_every_comparison_in_history():
    legacy = comparison("a", "a", 1.0)  # written before histories were kept
    doc = {"corpus_sweep": dict(legacy), "wide_sim": comparison("a", "a", 5.0)}
    bench_pairs.merge(doc, "corpus_sweep", comparison("a", "b", 2.0))
    bench_pairs.merge(doc, "corpus_sweep", comparison("b", "c", 3.0))
    bench_pairs.merge(doc, "compile_ladder", comparison("b", "c", 4.0))
    latest = doc["corpus_sweep"]
    assert {k: v for k, v in latest.items() if k != "history"} == comparison("b", "c", 3.0)
    history = latest["history"]
    assert [(h["parent"]["commit"], h["change"]["commit"]) for h in history] == [
        ("a", "a"), ("a", "b"), ("b", "c")]
    assert [h["metrics"]["ops_per_s"]["change_pct"] for h in history] == [1.0, 2.0, 3.0]
    assert all("runs" not in h for h in history)  # the latest keeps its runs on top
    assert [h["seed"] for h in history] == [7, 7, 7]
    assert [h["change"]["commit"] for h in doc["compile_ladder"]["history"]] == ["c"]
    assert doc["wide_sim"] == comparison("a", "a", 5.0)  # other workloads untouched


def uncommitted(parent, parent_digest, change_digest):
    """A made-up comparison of a change not yet committed, on `parent`."""
    return {"seed": 7, "runs": [],
            "parent": {"commit": parent, "source_sha256": parent_digest},
            "change": {"commit": parent, "uncommitted_changes": True,
                       "source_sha256": change_digest}}


def test_merge_ties_each_earlier_point_to_the_commit_it_became():
    doc = {}
    bench_pairs.merge(doc, "corpus_sweep", uncommitted("p0", "d0", "d1"))
    bench_pairs.merge(doc, "wide_sim", uncommitted("p0", "d0", "d1"))
    bench_pairs.merge(doc, "wide_sim", uncommitted("p0", "d0", "d9"))  # abandoned
    assert not any("became" in point for entry in doc.values()
                   for point in (entry, *entry["history"]))
    # the change of digest d1 was committed as p1, and p1 is the next parent
    bench_pairs.merge(doc, "corpus_sweep", uncommitted("p1", "d1", "d2"))
    assert [p.get("became") for p in doc["corpus_sweep"]["history"]] == ["p1", None]
    assert [p.get("became") for p in doc["wide_sim"]["history"]] == ["p1", None]
    assert "became" not in doc["corpus_sweep"] and "became" not in doc["wide_sim"]
    # a later commit with the same sources, such as a docs-only one, is no
    # earlier point's commit
    bench_pairs.merge(doc, "compile_ladder", uncommitted("p1docs", "d1", "d2"))
    assert [p.get("became") for p in doc["wide_sim"]["history"]] == ["p1", None]
    bench_pairs.merge(doc, "compile_ladder", uncommitted("p2", "d2", "d3"))
    assert doc["corpus_sweep"]["became"] == "p2"  # the latest, runs and all
    assert doc["corpus_sweep"]["runs"] == []
    assert [p.get("became") for p in doc["corpus_sweep"]["history"]] == ["p1", "p2"]
    assert [p.get("became") for p in doc["compile_ladder"]["history"]] == ["p2", None]
