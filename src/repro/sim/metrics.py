"""Aggregation of per-trial access metrics into experiment statistics.

Every metric this package summarises -- access latency, tuning time, the
first-hop wait -- is a whole number of packets times the packet size, so a
run has few distinct values however many samples it has.
:class:`MetricSummary` keeps one exact representation of a metric: its
distinct values as one ascending array, their counts as another, and the
running sum of every sample.  Count, range, variance and every percentile
are read off the two arrays; the mean is the running sum over the count.
Figure rows, fleets and mobile fleets share it, and one percentile
algorithm answers them all.

* :meth:`MetricSummary.add` updates the running sum in arrival order, so a
  mean is bit-identical to ``sum(values) / len(values)`` -- what keeps the
  figure rows stable.
* :meth:`MetricSummary.add_many` takes a batch; its sum is numpy's
  pairwise sum, which equals the ``add`` loop to rounding.
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
from typing import Dict, Optional, Sequence

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


class MetricSummary:
    """Count, mean, variance, range and exact percentiles of one metric.

    ``values=[...]`` seeds the summary sample by sample.  A summary is
    unbounded (``exact`` is true) unless ``histogram_limit`` or
    ``exact=False`` bounds its distinct values; see the module docstring.
    """

    __slots__ = ("_limit", "_values", "_counts", "_total")

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
        #: The distinct values added, ascending, and each one's sample count.
        self._values = np.empty(0, dtype=np.float64)
        self._counts = np.empty(0, dtype=np.int64)
        self._total = 0.0
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
        self._merge(np.array([value]), np.ones(1, dtype=np.int64), value)

    def add_many(self, values) -> None:
        """Absorb a batch of samples (array-like) in one call.

        Equivalent to ``add`` in a loop, to rounding: the batch's sum is
        numpy's pairwise sum, so fleet-sized batches cost one ``np.unique``.
        """
        flat = np.asarray(values, dtype=np.float64).ravel()
        if flat.size == 0:
            return
        uniq, counts = np.unique(flat, return_counts=True)
        self._merge(uniq, counts, float(flat.sum()))

    def add_weighted(self, values, counts) -> None:
        """Absorb ``counts[i]`` samples of value ``values[i]`` in one call.

        The histogram form of :meth:`add_many`: a population whose samples
        repeat -- a fleet's clients collapsed onto distinct executions --
        arrives as ``(value, count)`` pairs, costing O(pairs) instead of
        O(samples).  Pairs may repeat a value; counts must be whole numbers.
        For integer-valued samples whose total stays below 2**53
        (packet-quantised broadcast metrics) every partial sum is exact, so
        the mean is bit-identical to adding the expanded samples one by one
        or through ``add_many``.
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
        self._merge(vals, cnts, float(np.dot(vals, cnts.astype(np.float64))))

    def _merge(self, values: np.ndarray, counts: np.ndarray, total: float) -> None:
        """Fold ascending distinct ``values`` with positive ``counts``, whose
        samples sum to ``total``, in; past the bound, raise before anything
        changes."""
        at = np.searchsorted(self._values, values)
        # A value is fresh unless the one at its insertion point equals it
        # (the NaN past the end equals nothing).
        fresh = np.append(self._values, np.nan)[at] != values
        held = np.insert(self._values, at[fresh], values[fresh])
        if self._limit is not None and held.size > self._limit:
            raise ValueError(
                f"MetricSummary is bounded to histogram_limit={self._limit} "
                f"distinct values; this add would make {held.size}"
            )
        tally = np.insert(self._counts, at[fresh], 0)
        tally[np.searchsorted(held, values)] += counts
        self._values, self._counts = held, tally
        self._total += total

    # -- the summary surface ---------------------------------------------------

    @property
    def count(self) -> int:
        return int(self._counts.sum())

    @property
    def mean(self) -> float:
        n = self.count
        return self._total / n if n else math.nan

    @property
    def minimum(self) -> float:
        return float(self._values[0]) if self._values.size else math.nan

    @property
    def maximum(self) -> float:
        return float(self._values[-1]) if self._values.size else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (two passes over the histogram), ``nan`` below two
        samples."""
        n = self.count
        if n < 2:
            return math.nan
        spread = self._values - np.dot(self._values, self._counts) / n
        return float(np.dot(self._counts, spread * spread)) / (n - 1)

    @property
    def stddev(self) -> float:
        var = self.variance
        return math.sqrt(var) if not math.isnan(var) else math.nan

    def percentile(self, q: float) -> float:
        """The exact ``q``-th percentile of every sample added: linear
        interpolation between the order statistics at ``(n - 1) q / 100``,
        as ``numpy.percentile`` does over the expanded samples."""
        if not (0.0 <= q <= 100.0):
            raise ValueError("q must be within [0, 100]")
        n = self.count
        if not n:
            return math.nan
        pos = (n - 1) * q / 100.0
        lower, upper = math.floor(pos), math.ceil(pos)
        # The order statistic at k is the first value whose cumulative
        # count passes k.
        at = np.searchsorted(np.cumsum(self._counts), [lower, upper], side="right")
        low, high = self._values[at].tolist()
        if lower == upper:
            return low
        frac = pos - lower
        return low * (1 - frac) + high * frac

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = "unbounded" if self._limit is None else f"limit={self._limit}"
        if not self._values.size:
            return f"MetricSummary({bound}, empty)"
        return (
            f"MetricSummary({bound}, n={self.count}, mean={self.mean:.6g}, "
            f"range=[{self.minimum:.6g}, {self.maximum:.6g}])"
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

    def record(self, metrics: AccessMetrics) -> None:
        self.latency.add(metrics.latency_bytes)
        self.tuning.add(metrics.tuning_bytes)

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
