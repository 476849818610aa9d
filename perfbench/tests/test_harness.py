"""Tests of the benchmark's own harness (run: python3 -m pytest perfbench/tests)."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from harness import (  # noqa: E402
    LAYERS,
    Span,
    SpanRecorder,
    fold_layer,
    fold_profile,
    median,
    percentile,
    samples_beyond,
    self_times,
    tail_percentile,
    total_by_name,
    valid_name,
)

MANIFEST = BENCH.parent / "BENCHMARK.json"


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------
def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values, 100.0) == 100
    assert percentile([7.0], 99.0) == 7.0


@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),  # even the median has only 9 samples above it
        (20, 50.0),
        (999, 90.0),  # p99 would leave 9 beyond
        (1000, 99.0),
        (3000, 99.0),  # live-ring
        (9999, 99.0),
        (10000, 99.9),
        (33404, 99.9),  # paper160
        (158110, 99.99),  # dataplane20
    ],
)
def test_tail_rule_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert samples_beyond(count, expected) >= 10


def test_samples_beyond_counts_strictly_above_rank():
    assert samples_beyond(100, 99.0) == 1
    assert samples_beyond(1000, 99.0) == 10


def test_median_of_even_and_odd():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
def _span(span_id, name, start, end, parent=None):
    return Span(span_id, name, start, end, parent, "run")


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "a.inner", 2.0, 3.0, parent=1),
        _span(3, "b", 5.0, 6.0, parent=0),
    ]
    own = self_times(spans)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    for span in spans:
        children = sum(s.duration for s in spans if s.parent == span.span_id)
        assert own[span.span_id] + children == pytest.approx(span.duration)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "x", 1.0, 4.0, parent=0),
        _span(2, "y", 3.0, 6.0, parent=0),
        _span(3, "z", 9.0, 12.0, parent=0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_builds_the_tree_and_totals_by_name():
    ticks = iter(range(100))
    recorder = SpanRecorder(run="t", clock=lambda: float(next(ticks)))
    root = recorder.open("root")  # t = 0
    leaf = recorder.wrap("leaf", lambda value: value)
    assert leaf(1) == 1  # t = 1 .. 2
    assert leaf(2) == 2  # t = 3 .. 4
    recorder.close(root)  # t = 5
    parents = [span.parent for span in recorder.spans]
    assert parents == [None, 0, 0]
    assert total_by_name(recorder.spans, "leaf") == 2.0
    assert total_by_name(recorder.spans, "root", self_only=True) == 3.0


def test_recorder_rejects_out_of_order_close():
    recorder = SpanRecorder(run="t")
    outer = recorder.open("outer")
    recorder.open("inner")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


# ---------------------------------------------------------------------------
# Profile folding
# ---------------------------------------------------------------------------
PKG = Path("/checkout/src/repro")
BENCH_DIR = Path("/checkout/perfbench")


@pytest.mark.parametrize(
    "filename, layer",
    [
        ("/checkout/src/repro/core/computation.py", "core"),
        ("/checkout/src/repro/sim/engine.py", "sim"),
        ("/checkout/src/repro/live/codec.py", "live"),
        ("/checkout/src/repro/probes.py", "probes"),
        ("/checkout/src/repro/sanity.py", "probes"),
        ("/checkout/src/repro/trace.py", "probes"),
        ("/checkout/src/repro/extensions/adaptive.py", "other"),
        ("/checkout/src/repro/perf.py", "other"),
        ("/checkout/perfbench/tracing.py", "bench"),
        ("/usr/lib/python3.11/heapq.py", "external"),
        ("/site-packages/networkx/algorithms/shortest_paths/weighted.py", "external"),
        ("<frozen importlib._bootstrap>", "external"),
        ("~", "external"),
    ],
)
def test_fold_layer(filename, layer):
    assert fold_layer(filename, PKG, BENCH_DIR) == layer


def test_fold_profile_sums_files_into_every_layer():
    folded = fold_profile(
        {
            "/checkout/src/repro/core/forwarding.py": 1.5,
            "/checkout/src/repro/core/computation.py": 2.0,
            "/usr/lib/python3.11/json/encoder.py": 0.25,
        },
        PKG,
        BENCH_DIR,
    )
    assert set(folded) == set(LAYERS) | {"other", "bench", "external"}
    assert folded["core"] == 3.5
    assert folded["external"] == 0.25
    assert folded["sim"] == 0.0


# ---------------------------------------------------------------------------
# Names and the manifest
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "name", ["setup_s", "core.solve_setup_s", "live-ring", "paper160", "9lives", "a" * 64]
)
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize(
    "name", ["", "_hidden", ".dot", "-dash", "has space", "a/b", "é", "a" * 65, None]
)
def test_invalid_names(name):
    assert not valid_name(name)


def test_manifest_names_units_and_bounds():
    manifest = json.loads(MANIFEST.read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [w["name"] for w in manifest["workloads"]]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    assert all(valid_name(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
