"""Tests of the benchmark's own check and fold code on hand-made inputs.

Run with ``python3 -m pytest perfbench``.  Each check is shown passing
on a correct input and failing on a deliberately corrupted one.
"""

from __future__ import annotations

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE]

import checks  # noqa: E402
import spans  # noqa: E402


def test_incidents_covered_and_missed():
    incidents = {"t": [(10, 20), (100, 130)]}
    windows = {"t": [(0, 14), (120, 134)]}
    assert checks.check_incidents_covered(incidents, windows) == []
    corrupted = {"t": [(0, 14)]}
    assert len(checks.check_incidents_covered(incidents, corrupted)) == 1


def test_window_spans():
    good = {"t": [(0, 14), (15, 29), (0, 9)]}
    assert checks.check_window_spans(good) == []
    bad = {"t": [(15, 28)]}
    assert checks.check_window_spans(bad) != []


def test_readback_counts_and_journal():
    emitted = {"t": (3, 7)}
    journal = {"t": {0: "appended", 1: "appended"}}
    assert checks.check_readback(emitted, {"t": (3, 7)}, journal,
                                 {"t": 2}) == []
    assert checks.check_readback(emitted, {"t": (3, 6)}, journal,
                                 {"t": 2}) != []
    torn = {"t": {0: "appended", 1: "built"}}
    assert checks.check_readback(emitted, {"t": (3, 7)}, torn,
                                 {"t": 2}) != []
    assert checks.check_readback(emitted, {"t": (3, 7)}, journal,
                                 {"t": 3}) != []


def test_track_share():
    vehicles = {0: np.array([[10.0, 10.0], [50.0, 50.0]]),
                1: np.array([[12.0, 10.0]])}
    points = {0: np.array([[11.0, 11.0], [52.0, 49.0]]),
              1: np.array([[13.0, 10.0]])}
    assert checks.track_match_share(vehicles, points) == 1.0
    assert checks.check_tracks("t", 1.0) == []
    shifted = {f: p + 30.0 for f, p in points.items()}
    share = checks.track_match_share(vehicles, shifted)
    assert share == 0.0
    assert checks.check_tracks("t", share) != []


def test_initial_ranking_scores_and_ties():
    # Bag score: max over instances of max over rows of the row's
    # square sum.  Equal scores go by clip order, then frame.
    corpus = [
        ("a", [(0, 14, [np.array([[1.0, 0.0], [0.0, 2.0]])]),   # 4
               (15, 29, [np.array([[3.0, 0.0]])]),               # 9
               (30, 44, [])]),                                   # -inf
        ("b", [(0, 14, [np.array([[2.0, 0.0]]),
                        np.array([[0.0, 3.0]])]),                # 9
               (15, 29, [np.array([[2.0, 0.0]])])]),             # 4
    ]
    assert checks.initial_ranking(corpus) == [
        ("a", 15, 29), ("b", 0, 14), ("a", 0, 14), ("b", 15, 29),
        ("a", 30, 44)]
    expected = checks.initial_ranking(corpus)[:2]
    assert checks.check_first_ranking(expected, expected) == []
    assert checks.check_first_ranking(expected, expected[::-1]) != []


def test_rankings_distinct_and_inside_corpus():
    corpus = {("a", 0, 14), ("a", 15, 29), ("b", 0, 14)}
    good = [[("a", 0, 14), ("b", 0, 14)]]
    assert checks.check_rankings(good, corpus, 2) == []
    assert checks.check_rankings([[("a", 0, 14)] * 2], corpus, 2) != []
    assert checks.check_rankings([[("a", 0, 14), ("c", 0, 14)]],
                                 corpus, 2) != []


def test_relevance_against_base_rate():
    assert checks.check_relevance(8.0, 0.2, 20) == []
    assert checks.check_relevance(4.0, 0.2, 20) != []


def test_same_rankings():
    a = [[("a", 0, 14)], [("b", 0, 14)]]
    assert checks.check_same_rankings(a, [list(r) for r in a]) == []
    assert checks.check_same_rankings(a, [a[0], a[0]]) != []


def _span(layer, start, end, parent=None, func="f"):
    span = spans.Span(0, layer, func, parent, None, None)
    span.start, span.end = start, end
    if parent is not None:
        parent.child_ns += end - start
    return span


def test_fold_self_times_add_up_to_wall():
    # handle [0, 100] holds rank [10, 60], which holds fit [20, 50].
    handle = _span("service.handle", 0, 100)
    rank = _span("core.rank", 10, 60, handle)
    fit = _span("svm.fit", 20, 50, rank)
    out = spans.fold([fit, rank, handle], wall_ns=120, units=1)
    assert out["svm.fit_ms"] == 30 / 1e6
    assert out["core.rank_ms"] == 20 / 1e6
    assert out["service.handle_ms"] == 50 / 1e6
    assert abs(out["other_ms"] - 20 / 1e6) < 1e-15
    layers = sum(out[f"{layer}_ms"] for layer in spans.LAYERS)
    assert abs(layers + out["other_ms"] - out["trace.wall_ms"]) < 1e-15
