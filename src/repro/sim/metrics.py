"""Aggregation of per-trial access metrics into experiment statistics.

Every metric this package summarises -- access latency, tuning time, the
first-hop wait -- is a whole number of packets times the packet size, so a
run has few distinct values however many samples it has.
:class:`MetricSummary` keeps one exact representation of a metric: the
running count, sum, range and Welford moments, plus a value->count
histogram that every percentile reads.  Figure rows, fleets and mobile
fleets share it, and one percentile algorithm answers them all.

* :meth:`MetricSummary.add` updates the running sum in arrival order, so a
  mean is bit-identical to ``sum(values) / len(values)`` -- what keeps the
  figure rows stable.
* :meth:`MetricSummary.add_many` folds a batch in with Chan's parallel
  merge (numpy pairwise sums), which equals the ``add`` loop to rounding.
* :meth:`MetricSummary.add_weighted` takes a population as ``(value,
  count)`` pairs -- how fleet runs hand over their per-execution histogram
  -- and, on integer-valued metrics, keeps the mean bit-identical to
  per-sample adds.

A summary is unbounded unless it is given a bound: ``histogram_limit=N``
(or ``exact=False``, which takes :data:`DEFAULT_HISTOGRAM_LIMIT`) caps its
distinct values, and an add that would pass the cap raises
:class:`ValueError` before it changes anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..broadcast.client import AccessMetrics

__all__ = [
    "DEFAULT_HISTOGRAM_LIMIT",
    "ExperimentResult",
    "MetricSummary",
    "deterioration",
]

#: The distinct-value bound of a summary built with ``exact=False``.
DEFAULT_HISTOGRAM_LIMIT = 4096


def _weighted_percentile_sorted(
    items: Sequence[Tuple[float, int]], n: int, q: float
) -> float:
    """The ``q``-th percentile of ``n`` samples given as ascending ``(value,
    count)`` pairs: linear interpolation between the order statistics at
    ``(n - 1) q / 100``, as ``numpy.percentile`` does over the expanded
    samples."""
    pos = (n - 1) * q / 100.0
    lower = int(math.floor(pos))
    upper = int(math.ceil(pos))

    def value_at(k: int) -> float:
        seen = 0
        for value, count in items:
            seen += count
            if k < seen:
                return value
        return items[-1][0]

    if lower == upper:
        return value_at(lower)
    frac = pos - lower
    return value_at(lower) * (1 - frac) + value_at(upper) * frac


class MetricSummary:
    """Count, mean, variance, range and exact percentiles of one metric.

    ``values=[...]`` seeds the summary sample by sample.  A summary is
    unbounded (``exact`` is true) unless ``histogram_limit`` or
    ``exact=False`` bounds its distinct values; see the module docstring.
    """

    __slots__ = (
        "_limit",
        "_count",
        "_total",
        "_min",
        "_max",
        "_w_mean",
        "_w_m2",
        "_hist",
        "_items",
    )

    def __init__(
        self,
        values: Optional[Sequence[float]] = None,
        exact: Optional[bool] = None,
        histogram_limit: Optional[int] = None,
    ) -> None:
        if exact and histogram_limit is not None:
            raise ValueError("an exact summary is unbounded; drop histogram_limit")
        if exact is False and histogram_limit is None:
            histogram_limit = DEFAULT_HISTOGRAM_LIMIT
        if histogram_limit is not None and histogram_limit < 0:
            raise ValueError(f"histogram_limit must be >= 0, got {histogram_limit}")
        self._limit = None if histogram_limit is None else int(histogram_limit)
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._w_mean = 0.0
        self._w_m2 = 0.0
        self._hist: Dict[float, int] = {}
        # The histogram's items in value order, cached between adds.
        self._items: Optional[List[Tuple[float, int]]] = None
        if values is not None:
            for v in values:
                self.add(v)

    @property
    def exact(self) -> bool:
        """Whether the summary is unbounded (no ``histogram_limit``)."""
        return self._limit is None

    # -- ingestion ------------------------------------------------------------

    def add(self, value: float) -> None:
        value = float(value)
        self._merge_histogram([value], [1])
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        delta = value - self._w_mean
        self._w_mean += delta / self._count
        self._w_m2 += delta * (value - self._w_mean)

    def add_many(self, values) -> None:
        """Absorb a batch of samples (array-like) in one call.

        Equivalent to ``add`` in a loop, to rounding: the batch's moments
        are folded in with Chan's parallel Welford merge, and its sum is
        numpy's pairwise sum, so fleet-sized batches cost one ``np.unique``.
        """
        flat = np.asarray(values, dtype=np.float64).ravel()
        if flat.size == 0:
            return
        uniq, counts = np.unique(flat, return_counts=True)
        self._merge_histogram(uniq.tolist(), counts.tolist())
        mean_b = float(flat.mean())
        self._merge_moments(
            flat.size, float(flat.sum()), mean_b, float(((flat - mean_b) ** 2).sum()),
            float(flat.min()), float(flat.max()),
        )

    def add_weighted(self, values, counts) -> None:
        """Absorb ``counts[i]`` samples of value ``values[i]`` in one call.

        The histogram form of :meth:`add_many`: a population whose samples
        repeat -- a fleet's clients collapsed onto distinct executions --
        arrives as ``(value, count)`` pairs, costing O(pairs) instead of
        O(samples).  Pairs may repeat a value; counts must be whole numbers.
        For integer-valued samples whose total stays below 2**53
        (packet-quantised broadcast metrics) every partial sum is exact, so
        the mean is bit-identical to adding the expanded samples one by one
        or through ``add_many``; the variance agrees to rounding.
        """
        vals = np.asarray(values, dtype=np.float64).ravel()
        raw = np.asarray(counts).ravel()
        if vals.shape != raw.shape:
            raise ValueError(
                f"values and counts must pair up, got {vals.size} values and "
                f"{raw.size} counts"
            )
        if raw.dtype.kind not in "iub" and not (
            np.isfinite(raw).all() and (raw == np.round(raw)).all()
        ):
            raise ValueError("counts must be whole numbers")
        cnts = raw.astype(np.int64)
        if cnts.size and cnts.min() < 0:
            raise ValueError("counts must be non-negative")
        present = cnts > 0
        if not present.any():
            return
        vals, inverse = np.unique(vals[present], return_inverse=True)
        cnts = np.bincount(inverse, weights=cnts[present]).astype(np.int64)
        self._merge_histogram(vals.tolist(), cnts.tolist())
        n_b = int(cnts.sum())
        weights = cnts.astype(np.float64)
        total_b = float(np.dot(vals, weights))
        mean_b = total_b / n_b
        self._merge_moments(
            n_b, total_b, mean_b, float(np.dot(weights, (vals - mean_b) ** 2)),
            float(vals.min()), float(vals.max()),
        )

    def _merge_moments(
        self, n_b: int, total_b: float, mean_b: float, m2_b: float, lo: float, hi: float
    ) -> None:
        """Fold one batch's count, sum, mean, M2 and range in (Chan's merge)."""
        n_a = self._count
        delta = mean_b - self._w_mean
        n = n_a + n_b
        self._w_mean += delta * n_b / n
        self._w_m2 += m2_b + delta * delta * n_a * n_b / n
        self._count = n
        self._total += total_b
        self._min = min(self._min, lo)
        self._max = max(self._max, hi)

    def _merge_histogram(self, values: List[float], counts: List[int]) -> None:
        """Count distinct ``values`` into the histogram; past the bound, raise
        before anything changes."""
        hist = self._hist
        if self._limit is not None:
            fresh = sum(1 for v in values if v not in hist)
            if len(hist) + fresh > self._limit:
                raise ValueError(
                    f"MetricSummary is bounded to histogram_limit={self._limit} "
                    f"distinct values; this add would make {len(hist) + fresh}"
                )
        for v, c in zip(values, counts):
            hist[v] = hist.get(v, 0) + c
        self._items = None

    # -- the summary surface ---------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else math.nan

    @property
    def minimum(self) -> float:
        return self._min if self._count else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._count else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (Welford / Chan), ``nan`` below two samples."""
        return self._w_m2 / (self._count - 1) if self._count > 1 else math.nan

    @property
    def stddev(self) -> float:
        var = self.variance
        return math.sqrt(var) if not math.isnan(var) else math.nan

    def percentile(self, q: float) -> float:
        """The exact ``q``-th percentile (``numpy.percentile``'s linear
        interpolation) of every sample added."""
        if not (0.0 <= q <= 100.0):
            raise ValueError("q must be within [0, 100]")
        if not self._count:
            return math.nan
        if self._items is None:
            self._items = sorted(self._hist.items())
        return _weighted_percentile_sorted(self._items, self._count, q)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = "unbounded" if self._limit is None else f"limit={self._limit}"
        if not self._count:
            return f"MetricSummary({bound}, empty)"
        return (
            f"MetricSummary({bound}, n={self._count}, mean={self.mean:.6g}, "
            f"range=[{self._min:.6g}, {self._max:.6g}])"
        )


@dataclass
class ExperimentResult:
    """Aggregated outcome of running one workload against one index.

    Its latency and tuning summaries are unbounded :class:`MetricSummary`
    objects; :meth:`streaming` builds bounded ones.
    """

    index_name: str
    workload_name: str
    latency: MetricSummary = field(default_factory=MetricSummary)
    tuning: MetricSummary = field(default_factory=MetricSummary)
    correct_trials: int = 0
    incorrect_trials: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def streaming(
        cls,
        index_name: str,
        workload_name: str,
        histogram_limit: int = DEFAULT_HISTOGRAM_LIMIT,
    ) -> "ExperimentResult":
        """A result whose summaries hold at most ``histogram_limit`` distinct
        values each; an add past the bound raises."""
        return cls(
            index_name=index_name,
            workload_name=workload_name,
            latency=MetricSummary(histogram_limit=histogram_limit),
            tuning=MetricSummary(histogram_limit=histogram_limit),
        )

    def record(self, metrics: AccessMetrics, correct: Optional[bool] = None) -> None:
        self.latency.add(metrics.latency_bytes)
        self.tuning.add(metrics.tuning_bytes)
        if correct is None:
            return
        if correct:
            self.correct_trials += 1
        else:
            self.incorrect_trials += 1

    @property
    def trials(self) -> int:
        return self.latency.count

    @property
    def mean_latency_bytes(self) -> float:
        return self.latency.mean

    @property
    def mean_tuning_bytes(self) -> float:
        return self.tuning.mean

    @property
    def accuracy(self) -> float:
        checked = self.correct_trials + self.incorrect_trials
        return self.correct_trials / checked if checked else math.nan

    def as_row(self) -> Dict[str, float]:
        return {
            "index": self.index_name,
            "workload": self.workload_name,
            "trials": self.trials,
            "latency_bytes": self.mean_latency_bytes,
            "tuning_bytes": self.mean_tuning_bytes,
            "accuracy": self.accuracy,
            **self.extra,
        }


def deterioration(baseline: ExperimentResult, degraded: ExperimentResult) -> Dict[str, float]:
    """Percentage deterioration of a degraded run versus an error-free baseline.

    This is the quantity the paper's Table 1 reports for each link-error
    ratio theta.
    """
    def pct(base: float, new: float) -> float:
        if base == 0 or math.isnan(base) or math.isnan(new):
            return math.nan
        return 100.0 * (new - base) / base

    return {
        "latency_pct": pct(baseline.mean_latency_bytes, degraded.mean_latency_bytes),
        "tuning_pct": pct(baseline.mean_tuning_bytes, degraded.mean_tuning_bytes),
    }
