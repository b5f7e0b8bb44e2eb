"""Sample summaries, failure accounting and the result line.

The percentile rule: a timing is reported as its median and the highest
percentile that still has at least :data:`MIN_BEYOND` samples beyond it,
always together with its sample count ``n``.  Percentiles use the
nearest-rank definition, so "samples beyond" is exact: the value at rank
``ceil(p/100 * n)`` has ``n - rank`` samples above it.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

#: Metric names: a letter or digit first, then letters, digits, ``_``,
#: ``.`` and ``-``; at most 64 characters.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units: ``ms``, ``s``, ``1/s``, ``s/s``, ``count``, ...
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Percentiles the rule chooses among, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)
#: Samples a reported percentile must have beyond it.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # round() absorbs binary noise such as 99.9 * 1000 / 100 = 999.0000000000001.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th percentile."""
    return n - _rank(n, p) if n else 0


def percentile(values, p: float) -> float:
    """The nearest-rank ``p``-th percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def tail_percentile(n: int):
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` samples beyond it, or None when ``n`` is too small."""
    best = None
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


@dataclass
class Metric:
    """One reported number: value, unit, and the samples behind it."""

    name: str
    value: float
    unit: str
    n: int
    note: str = ""

    def __post_init__(self) -> None:
        if not NAME_RE.fullmatch(self.name):
            raise ValueError(f"metric name {self.name!r} breaks the grammar")
        if not UNIT_RE.fullmatch(self.unit):
            raise ValueError(f"unit {self.unit!r} of {self.name} breaks the grammar")
        self.value = float(self.value)
        if not math.isfinite(self.value):
            raise ValueError(f"metric {self.name} is not finite: {self.value!r}")

    def line(self) -> str:
        note = f"  {self.note}" if self.note else ""
        return f"{self.name:<44} {self.value:>16.6g} {self.unit:<6} n={self.n}{note}"


def timing_metrics(name: str, samples_ms, percentiles=(50.0, 95.0)) -> list[Metric]:
    """``<name>.p50`` / ``<name>.p95`` for a list of millisecond samples.

    A requested tail percentile with fewer than :data:`MIN_BEYOND`
    samples beyond it is still printed, flagged, so a reader sees the
    percentile the sample count actually supports; an empty list gives
    zeros with ``n=0`` (the layer did no such call on this workload).
    """
    n = len(samples_ms)
    tail = tail_percentile(n)
    metrics = []
    for p in percentiles:
        label = f"p{p:g}"
        if not n:
            metrics.append(Metric(f"{name}.{label}", 0.0, "ms", 0, "no samples"))
            continue
        note = ""
        if p > 50 and samples_beyond(n, p) < MIN_BEYOND:
            note = (f"only {samples_beyond(n, p)} samples beyond; highest "
                    f"supported: {'none' if tail is None else f'p{tail:g}'}")
        metrics.append(Metric(f"{name}.{label}", percentile(samples_ms, p), "ms", n, note))
    return metrics


@dataclass
class Tally:
    """Operations attempted and failed; every failure keeps its reason."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; ``ok=False`` counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.check(False, what)

    @property
    def failed_frac(self) -> float:
        if not self.attempted:
            raise ValueError("no operation was attempted")
        return self.failed / self.attempted


def result_line(tally: Tally, metrics: list[Metric], declared) -> str:
    """The final JSON line; ``metrics`` must cover exactly ``declared``."""
    values = {metric.name: metric for metric in metrics}
    if len(values) != len(metrics):
        raise ValueError("a metric name is reported twice")
    missing = set(declared) - set(values)
    if missing:
        raise ValueError(f"declared metrics not measured: {sorted(missing)}")
    return json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name].value, "unit": values[name].unit}
                    for name in declared},
    })
