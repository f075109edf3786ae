"""Tests for query types, workloads, ground truth, the runner and the sweeps."""

from __future__ import annotations

import math

import pytest

from repro.broadcast import LinkErrorModel, SystemConfig
from repro.core import DsiParameters
from repro.queries import (
    KnnQuery,
    WindowQuery,
    answer,
    knn_workload,
    matches,
    mixed_workload,
    window_workload,
)
from repro.sim import (
    IndexSpec,
    build_index,
    default_specs,
    deterioration,
    figure_report,
    format_table,
    knn_capacity_sweep,
    knn_k_sweep,
    link_error_table,
    pivot_metric,
    reorganization_sweep,
    run_workload,
    window_capacity_sweep,
    window_ratio_sweep,
)
from repro.sim.metrics import ExperimentResult, MetricSummary
from repro.spatial import Point, Rect, uniform_dataset


class TestQueryTypes:
    def test_window_query_centered(self):
        q = WindowQuery.centered(Point(0.5, 0.5), 0.2)
        assert q.window.width == pytest.approx(0.2)
        assert q.win_side_ratio == 0.2

    def test_window_query_clips(self):
        q = WindowQuery.centered(Point(0.01, 0.99), 0.2)
        assert q.window.min_x == 0.0 and q.window.max_y == 1.0

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            WindowQuery.centered(Point(0.5, 0.5), 0.0)

    def test_knn_query_validation(self):
        with pytest.raises(ValueError):
            KnnQuery(Point(0.5, 0.5), 0)


class TestWorkloads:
    def test_window_workload_reproducible(self):
        a = window_workload(20, 0.1, seed=1)
        b = window_workload(20, 0.1, seed=1)
        assert [t.query.window for t in a] == [t.query.window for t in b]
        assert len(a) == 20

    def test_knn_workload_k(self):
        w = knn_workload(10, k=7, seed=2)
        assert all(t.query.k == 7 for t in w)
        assert all(0.0 <= t.tune_in_fraction < 1.0 for t in w)

    def test_mixed_workload_contains_both(self):
        w = mixed_workload(10, seed=3)
        kinds = {type(t.query) for t in w}
        assert kinds == {WindowQuery, KnnQuery}

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            window_workload(0)
        with pytest.raises(ValueError):
            knn_workload(0)


class TestGroundTruth:
    def test_answer_window(self, small_uniform):
        q = WindowQuery(Rect(0.0, 0.0, 0.4, 0.4))
        assert {o.oid for o in answer(small_uniform, q)} == {
            o.oid for o in small_uniform.objects_in_window(q.window)
        }

    def test_answer_knn(self, small_uniform):
        q = KnnQuery(Point(0.5, 0.5), 3)
        assert len(answer(small_uniform, q)) == 3

    def test_matches_rejects_wrong_window_answer(self, small_uniform):
        q = WindowQuery(Rect(0.0, 0.0, 0.4, 0.4))
        truth = answer(small_uniform, q)
        assert matches(small_uniform, q, truth)
        assert not matches(small_uniform, q, truth[:-1]) or not truth

    def test_matches_accepts_distance_ties(self, small_uniform):
        q = KnnQuery(Point(0.5, 0.5), 4)
        assert matches(small_uniform, q, answer(small_uniform, q))

    def test_answer_rejects_unknown_type(self, small_uniform):
        with pytest.raises(TypeError):
            answer(small_uniform, object())


class TestMetrics:
    def test_summary_statistics(self):
        s = MetricSummary()
        for v in (1.0, 2.0, 3.0, 4.0):
            s.add(v)
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0 and s.maximum == 4.0
        assert s.percentile(50) == pytest.approx(2.5)
        assert s.percentile(0) == 1.0 and s.percentile(100) == 4.0

    def test_empty_summary_is_nan(self):
        assert math.isnan(MetricSummary().mean)

    def test_percentile_validation(self):
        s = MetricSummary()
        s.add(1.0)
        with pytest.raises(ValueError):
            s.percentile(120)

    def test_deterioration(self):
        base = ExperimentResult("x", "w")
        degraded = ExperimentResult("x", "w")
        base.latency.add(100)
        base.tuning.add(10)
        degraded.latency.add(150)
        degraded.tuning.add(12)
        d = deterioration(base, degraded)
        assert d["latency_pct"] == pytest.approx(50.0)
        assert d["tuning_pct"] == pytest.approx(20.0)


@pytest.fixture(scope="module")
def tiny_dataset():
    return uniform_dataset(150, seed=99)


class TestRunner:
    def test_build_index_kinds(self, tiny_dataset, config64):
        assert build_index("dsi", tiny_dataset, config64).params.n_segments == 2
        assert build_index("dsi-original", tiny_dataset, config64).params.n_segments == 1
        assert build_index("rtree", tiny_dataset, config64).name == "R-tree"
        assert build_index("hci", tiny_dataset, config64).name == "HCI"
        with pytest.raises(ValueError):
            build_index("btree", tiny_dataset, config64)

    def test_default_specs(self):
        names = [s.display_name for s in default_specs()]
        assert names == ["DSI", "R-tree", "HCI"]
        assert [s.display_name for s in default_specs(include_rtree=False)] == ["DSI", "HCI"]

    def test_run_workload_verifies(self, tiny_dataset, config64):
        index = build_index("dsi", tiny_dataset, config64)
        workload = mixed_workload(8, seed=5)
        result = run_workload(index, tiny_dataset, config64, workload, verify=True)
        assert result.trials == 8
        assert result.accuracy == 1.0
        assert result.mean_latency_bytes > 0
        assert result.mean_tuning_bytes <= result.mean_latency_bytes

    def test_run_workload_with_errors(self, tiny_dataset, config64):
        index = build_index("dsi", tiny_dataset, config64)
        workload = window_workload(5, seed=6)
        error = LinkErrorModel(theta=0.3, scope="index", seed=1)
        result = run_workload(index, tiny_dataset, config64, workload, error_model=error)
        assert result.trials == 5 and result.accuracy == 1.0


class TestSweeps:
    def test_window_capacity_sweep_includes_rtree_only_when_buildable(self, tiny_dataset):
        rows = window_capacity_sweep(tiny_dataset, [32, 64], n_queries=3)
        caps_with_rtree = {r["capacity"] for r in rows if r["index"] == "R-tree"}
        assert caps_with_rtree == {64}
        assert {r["capacity"] for r in rows} == {32, 64}

    def test_window_ratio_sweep(self, tiny_dataset):
        rows = window_ratio_sweep(tiny_dataset, [0.05, 0.1], n_queries=3)
        assert {r["win_side_ratio"] for r in rows} == {0.05, 0.1}

    def test_knn_sweeps(self, tiny_dataset):
        rows = knn_capacity_sweep(tiny_dataset, [64], k=3, n_queries=3)
        assert all(r["k"] == 3 for r in rows)
        rows = knn_k_sweep(tiny_dataset, [1, 3], n_queries=3)
        assert {r["k"] for r in rows} == {1, 3}

    def test_reorganization_sweep_curves(self, tiny_dataset):
        rows = reorganization_sweep(tiny_dataset, [64], n_queries=3)
        knn_curves = {r["index"] for r in rows if r["figure"] == "8cd"}
        assert knn_curves == {"Conservative", "Aggressive", "Reorganized"}
        win_curves = {r["index"] for r in rows if r["figure"] == "8ab"}
        assert win_curves == {"Original", "Reorganized"}

    def test_link_error_table(self, tiny_dataset):
        rows = link_error_table(tiny_dataset, [0.5], n_queries=3)
        assert {r["index"] for r in rows} == {"DSI", "R-tree", "HCI"}
        assert all("window_latency_pct" in r for r in rows)


class TestReport:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}], title="t")
        assert "t" in text and "a" in text and "2.5" in text

    def test_format_empty(self):
        assert "(no rows)" in format_table([], title="x")

    def test_pivot_metric(self):
        rows = [
            {"capacity": 64, "index": "DSI", "latency_bytes": 1.0},
            {"capacity": 64, "index": "HCI", "latency_bytes": 2.0},
            {"capacity": 128, "index": "DSI", "latency_bytes": 3.0},
        ]
        pivot = pivot_metric(rows, "capacity", "latency_bytes")
        assert pivot[0]["DSI"] == 1.0 and pivot[0]["HCI"] == 2.0
        assert pivot[1]["DSI"] == 3.0

    def test_figure_report_contains_both_metrics(self):
        rows = [
            {"capacity": 64, "index": "DSI", "latency_bytes": 1.0, "tuning_bytes": 2.0},
        ]
        text = figure_report(rows, x_key="capacity", title="Fig")
        assert "latency_bytes" in text and "tuning_bytes" in text
