"""Pure helpers of the benchmark: statistics, spans, layer folding, names.

Nothing here imports the program under test, so the harness's own tests
(``perfbench/tests``) run without building a simulation.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles the tail rule may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)

#: Samples that must lie beyond a percentile before it may be reported.
MIN_BEYOND = 10

#: Metric names: a letter or digit, then letters, digits, ``_``, ``.``, ``-``.
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")

#: Layers of the program (``repro.<pkg>``) that profile samples fold into.
#: ``probes``, ``sanity`` and ``trace`` are one instrumentation layer.
LAYERS = (
    "sim",
    "overlay",
    "pubsub",
    "routing",
    "core",
    "ordering",
    "metrics",
    "experiments",
    "probes",
    "live",
)
_INSTRUMENTATION_MODULES = ("probes", "sanity", "trace")


def valid_name(name: str) -> bool:
    """True when *name* is a legal metric or workload name."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sequence (mean of the middle pair)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sequence")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(round(pct * count / 100.0, 6)))


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    return float(sorted_values[_rank(len(sorted_values), pct) - 1])


def samples_beyond(count: int, pct: float) -> int:
    """How many of *count* nearest-rank samples lie above the percentile."""
    return count - _rank(count, pct)


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median has fewer than ``MIN_BEYOND`` samples
    above it, i.e. the sample is too small to report a tail.
    """
    best = None
    for pct in PERCENTILE_LADDER:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            best = pct
    return best


def digest(payload: object) -> str:
    """Short stable hash of a JSON-serialisable *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
@dataclass
class Span:
    """One timed call into a layer."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
        }


@dataclass
class SpanRecorder:
    """Keeps spans in memory; the open-span stack gives each its parent."""

    run: str
    clock: Callable[[], float] = time.perf_counter
    spans: List[Span] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(span_id, name, self.clock(), math.nan, parent, self.run))
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        if not self._stack or self._stack[-1] != span_id:
            raise RuntimeError(f"span {span_id} closed out of order")
        self._stack.pop()
        self.spans[span_id].end = self.clock()

    def wrap(self, name: str, fn):
        """*fn* with every call recorded as a span called *name*."""

        def spanned(*args, **kwargs):
            span_id = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span_id)

        return spanned


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - _covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def total_by_name(spans: Sequence[Span], name: str, self_only: bool = False) -> float:
    """Summed duration (or self time) of every span called *name*."""
    own = self_times(spans) if self_only else None
    return sum(
        own[span.span_id] if own is not None else span.duration
        for span in spans
        if span.name == name
    )


# ---------------------------------------------------------------------------
# Profile folding
# ---------------------------------------------------------------------------
def fold_layer(filename: str, package_root: Path, bench_root: Path) -> str:
    """The layer a source file belongs to.

    Files under the ``repro`` package fold to their top-level package
    (``repro/core/forwarding.py`` -> ``core``); ``probes``, ``sanity``
    and ``trace`` fold to ``probes``; other ``repro`` modules to
    ``other``. The benchmark's own files fold to ``bench``; everything
    else (numpy, networkx, the standard library, builtins) is
    ``external``.
    """
    path = Path(filename)
    for root, inside in ((package_root, True), (bench_root, False)):
        try:
            relative = path.relative_to(root)
        except ValueError:
            continue
        if not inside:
            return "bench"
        top = relative.parts[0] if relative.parts else ""
        top = top[:-3] if top.endswith(".py") else top
        if top in _INSTRUMENTATION_MODULES:
            return "probes"
        return top if top in LAYERS else "other"
    return "external"


def fold_profile(
    seconds_by_file: Dict[str, float], package_root: Path, bench_root: Path
) -> Dict[str, float]:
    """Sum per-file self seconds into ``{layer: seconds}`` (every layer)."""
    folded = {layer: 0.0 for layer in LAYERS + ("other", "bench", "external")}
    for filename, seconds in seconds_by_file.items():
        folded[fold_layer(filename, package_root, bench_root)] += seconds
    return folded
