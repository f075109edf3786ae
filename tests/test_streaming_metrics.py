"""MetricSummary: one ascending value array and one count array answer
count, mean, range, variance and every percentile.  On integer-valued
samples ``add``, ``add_many`` and ``add_weighted`` agree on count, mean,
range and percentiles bit for bit; a bounded add raises with the summary
unchanged."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.sim.metrics import DEFAULT_HISTOGRAM_LIMIT, ExperimentResult, MetricSummary


@pytest.fixture(scope="module")
def lognormal():
    return np.random.default_rng(5).lognormal(3.0, 0.8, 20_000)


class TestStreamingMode:
    def test_mean_is_bit_identical_to_running_sum(self, lognormal):
        s = MetricSummary()
        for v in lognormal:
            s.add(v)
        assert s.mean == sum(lognormal.tolist()) / len(lognormal)

    def test_moments_and_extremes(self, lognormal):
        s = MetricSummary()
        for chunk in np.array_split(lognormal, 13):
            s.add_many(chunk)
        assert s.count == len(lognormal)
        assert s.minimum == lognormal.min()
        assert s.maximum == lognormal.max()
        assert s.variance == pytest.approx(np.var(lognormal, ddof=1), rel=1e-9)
        assert s.stddev == pytest.approx(np.std(lognormal, ddof=1), rel=1e-9)

    def test_histogram_keeps_discrete_metrics_exact(self):
        """Packet-quantised metrics with heavy ties: a batch add and
        per-sample adds answer the same exact percentiles."""
        data = np.random.default_rng(3).integers(0, 50, 30_000) * 64.0
        s, e = MetricSummary(), MetricSummary(exact=True)
        s.add_many(data)
        for v in data:
            e.add(v)
        for q in (10, 50, 90, 95):
            assert s.percentile(q) == e.percentile(q)

    def test_small_samples_are_exact(self):
        s = MetricSummary()
        for v in (1.0, 2.0, 3.0, 4.0):
            s.add(v)
        assert s.percentile(50) == pytest.approx(2.5)
        assert s.percentile(0) == 1.0 and s.percentile(100) == 4.0

    def test_add_many_matches_add_loop(self, lognormal):
        a, b = MetricSummary(), MetricSummary()
        for v in lognormal[:2_000]:
            a.add(v)
        b.add_many(lognormal[:2_000])
        assert a.count == b.count and a.minimum == b.minimum and a.maximum == b.maximum
        assert a.mean == pytest.approx(b.mean, rel=1e-12)
        assert a.variance == pytest.approx(b.variance, rel=1e-9)
        # the same samples -> the same histogram
        assert a.percentile(95) == b.percentile(95)

    def test_empty(self):
        s = MetricSummary()
        assert math.isnan(s.mean) and math.isnan(s.minimum) and math.isnan(s.percentile(50))
        assert math.isnan(s.variance)

    def test_invalid_quantiles(self):
        with pytest.raises(ValueError, match="q must be within"):
            MetricSummary().percentile(120)

    def test_pickles_across_processes(self, lognormal):
        s = MetricSummary()
        s.add_many(lognormal[:5_000])
        clone = pickle.loads(pickle.dumps(s))
        assert clone.count == s.count
        assert clone.percentile(95) == s.percentile(95)
        clone.add(1.0)  # and keeps streaming


class TestWeightedAdds:
    """add_weighted: a population handed over as (value, count) pairs."""

    @pytest.fixture(scope="class")
    def histogram(self):
        rng = np.random.default_rng(17)
        # packet-quantised values, repeated values among the pairs, zero counts
        values = rng.integers(0, 120, 300) * 64.0
        counts = rng.integers(0, 200, 300)
        return values, counts

    def test_matches_expanded_samples(self, histogram):
        """Integer-valued samples: count, mean, range and every percentile
        equal per-sample adds and add_many batches bit for bit."""
        values, counts = histogram
        expanded = np.repeat(values, counts)
        weighted, per_sample, batched = MetricSummary(), MetricSummary(), MetricSummary()
        weighted.add_weighted(values, counts)
        for v in expanded.tolist():
            per_sample.add(v)
        for chunk in np.array_split(expanded, 7):
            batched.add_many(chunk)
        for other in (per_sample, batched):
            assert weighted.count == other.count == len(expanded)
            assert weighted.mean == other.mean
            assert (weighted.minimum, weighted.maximum) == (other.minimum, other.maximum)
            assert weighted.variance == pytest.approx(other.variance, rel=1e-12)
            for q in (0, 1, 5, 25, 50, 62.5, 95, 99.9, 100):
                assert weighted.percentile(q) == other.percentile(q)

    def test_split_and_order_do_not_matter(self, histogram):
        values, counts = histogram
        whole, split = MetricSummary(), MetricSummary()
        whole.add_weighted(values, counts)
        perm = np.random.default_rng(3).permutation(len(values))
        for part in np.array_split(perm, 3):
            split.add_weighted(values[part], counts[part])
        assert (whole.count, whole.mean, whole.minimum, whole.maximum) == (
            split.count, split.mean, split.minimum, split.maximum
        )
        assert whole.variance == pytest.approx(split.variance, rel=1e-12)
        for q in (5, 50, 95):
            assert whole.percentile(q) == split.percentile(q)

    def test_zero_counts_and_validation(self):
        s = MetricSummary()
        s.add_weighted([5.0, 7.0], [0, 0])
        assert s.count == 0 and math.isnan(s.mean)
        s.add_weighted([5.0, 7.0, 5.0], [2, 0, 1])
        assert (s.count, s.mean, s.maximum) == (3, 5.0, 5.0)
        with pytest.raises(ValueError, match="pair up"):
            s.add_weighted([1.0], [1, 2])
        with pytest.raises(ValueError, match="non-negative"):
            s.add_weighted([1.0], [-1])

    def test_fractional_counts_are_rejected(self):
        """A count is a number of clients: 0.5 or 2.7 of one is a caller bug,
        not something to truncate (which dropped the 10.0 sample and made
        2.7 into 2).  Whole-valued floats and integer dtypes still pass."""
        s = MetricSummary()
        for counts in ([0.5, 2.7], [1.0, np.nan], [1.0, np.inf]):
            with pytest.raises(ValueError, match="whole numbers"):
                s.add_weighted([10.0, 20.0], counts)
        assert s.count == 0
        s.add_weighted([10.0, 20.0], [1.0, 3.0])
        s.add_weighted([10.0, 20.0], np.array([2, 0], dtype=np.uint8))
        assert (s.count, s.mean) == (6, 15.0)

    def test_exact_mode_retains_the_expanded_samples(self):
        e = MetricSummary(exact=True)
        e.add_weighted([3.0, 1.0, 3.0], [1, 2, 1])
        assert e.percentile(50) == 2.0


class TestBound:
    """A summary given a bound holds at most that many distinct values and
    raises, unchanged, on the add that would pass it."""

    def _state(self, s):
        return (s.count, s.mean, s.variance, s.minimum, s.maximum,
                [s.percentile(q) for q in (0, 50, 100)])

    def test_every_add_raises_past_the_bound(self):
        s = MetricSummary(histogram_limit=3)
        s.add_many([1.0, 2.0, 2.0])
        s.add_weighted([3.0, 1.0], [2, 5])  # the third distinct value fits
        s.add(2.0)
        before = self._state(s)
        for add in (
            lambda: s.add(4.0),
            lambda: s.add_many([1.0, 4.0]),
            lambda: s.add_weighted([2.0, 4.0], [1, 1]),
        ):
            with pytest.raises(ValueError, match="histogram_limit=3"):
                add()
            assert self._state(s) == before
        s.add_weighted([4.0], [0])  # a zero count adds no value

    def test_bound_keywords(self):
        assert MetricSummary().exact and MetricSummary(values=[1.0]).exact
        assert not MetricSummary(histogram_limit=5).exact
        bounded = MetricSummary(exact=False)
        bounded.add_many(np.arange(DEFAULT_HISTOGRAM_LIMIT))
        with pytest.raises(ValueError, match=f"histogram_limit={DEFAULT_HISTOGRAM_LIMIT}"):
            bounded.add(-1.0)
        with pytest.raises(ValueError, match="unbounded"):
            MetricSummary(exact=True, histogram_limit=10)
        with pytest.raises(ValueError, match=">= 0"):
            MetricSummary(histogram_limit=-1)
        with pytest.raises(ValueError, match="histogram_limit=0"):
            MetricSummary(histogram_limit=0).add(1.0)

    def test_streaming_results_are_bounded(self):
        r = ExperimentResult.streaming("dsi", "w", histogram_limit=1)
        r.latency.add(64.0)
        with pytest.raises(ValueError, match="histogram_limit=1"):
            r.latency.add(128.0)


class TestExactMode:
    def test_percentile_cache_invalidated_by_add(self):
        e = MetricSummary(exact=True)
        for v in (5.0, 1.0, 3.0):
            e.add(v)
        assert e.percentile(50) == 3.0
        e.add(100.0)
        assert e.percentile(100) == 100.0  # the later add is read, not a stale copy
        assert e.percentile(0) == 1.0

    def test_values_retained_and_legacy_ctor(self):
        e = MetricSummary(values=[2.0, 1.0])
        assert e.exact
        assert e.mean == 1.5

    def test_matches_numpy_interpolation(self):
        data = np.random.default_rng(11).random(501)
        e = MetricSummary(exact=True)
        for v in data:
            e.add(v)
        for q in (0, 12.5, 50, 97.3, 100):
            assert e.percentile(q) == pytest.approx(float(np.percentile(data, q)), abs=1e-12)
        # Packet-quantised integers with heavy ties: exactly numpy's answer.
        packets = np.random.default_rng(11).integers(0, 40, 501) * 64.0
        e = MetricSummary(exact=True)
        for v in packets:
            e.add(v)
        for q in (0, 12.5, 50, 97.3, 100):
            assert e.percentile(q) == float(np.percentile(packets, q))


class TestExperimentResult:
    def test_defaults_to_exact_summaries(self):
        r = ExperimentResult("dsi", "w")
        assert r.latency.exact and r.tuning.exact

    def test_streaming_factory(self):
        r = ExperimentResult.streaming("dsi", "w")
        assert not r.latency.exact and not r.tuning.exact
        assert math.isnan(r.accuracy)
