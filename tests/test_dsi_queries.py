"""Correctness and behaviour of DSI window and kNN query processing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast import ClientSession, SystemConfig
from repro.core import DsiIndex, DsiParameters
from repro.queries import KnnQuery, WindowQuery, matches
from repro.spatial import Point, Rect, real_surrogate_dataset, uniform_dataset


def run_window(index, config, window, start_fraction=0.0):
    start = int(start_fraction * index.program.cycle_packets)
    session = ClientSession(index.program, config, start_packet=start)
    return index.window_query(window, session), session


def run_knn(index, config, point, k, strategy="conservative", start_fraction=0.0):
    start = int(start_fraction * index.program.cycle_packets)
    session = ClientSession(index.program, config, start_packet=start)
    return index.knn_query(point, k, session, strategy=strategy), session


class TestWindowQueryCorrectness:
    @pytest.mark.parametrize("segments", [1, 2])
    @pytest.mark.parametrize("capacity", [64, 256])
    def test_matches_brute_force_uniform(self, segments, capacity):
        dataset = uniform_dataset(220, seed=8)
        config = SystemConfig(packet_capacity=capacity)
        index = DsiIndex(dataset, config, DsiParameters(n_segments=segments))
        rng = random.Random(4)
        for _ in range(12):
            center = Point(rng.random(), rng.random())
            window = Rect.from_center(center, rng.uniform(0.02, 0.12)).clipped_to_unit()
            result, _ = run_window(index, config, window, rng.random())
            assert matches(dataset, WindowQuery(window), result.objects)

    def test_matches_brute_force_clustered(self):
        dataset = real_surrogate_dataset(300, seed=15)
        config = SystemConfig()
        index = DsiIndex(dataset, config, DsiParameters(n_segments=2))
        rng = random.Random(6)
        for _ in range(10):
            center = Point(rng.random(), rng.random())
            window = Rect.from_center(center, 0.07).clipped_to_unit()
            result, _ = run_window(index, config, window, rng.random())
            assert matches(dataset, WindowQuery(window), result.objects)

    def test_empty_window(self, dsi_m1, config64, small_uniform):
        # A window squeezed between grid cells may legitimately be empty.
        window = Rect(0.00001, 0.00001, 0.00002, 0.00002)
        result, _ = run_window(dsi_m1, config64, window)
        assert result.objects == [] or matches(
            small_uniform, WindowQuery(window), result.objects
        )

    def test_whole_space_window(self, config64):
        dataset = uniform_dataset(60, seed=2)
        index = DsiIndex(dataset, config64, DsiParameters())
        result, _ = run_window(index, config64, Rect.unit())
        assert sorted(o.oid for o in result.objects) == list(range(60))

    def test_result_metrics_are_consistent(self, dsi_m2, config64):
        window = Rect(0.3, 0.3, 0.5, 0.5)
        result, session = run_window(dsi_m2, config64, window, 0.37)
        assert result.metrics.latency_bytes == session.latency_bytes
        assert result.metrics.tuning_bytes <= result.metrics.latency_bytes
        assert result.frames_visited >= 1
        assert result.tables_read >= 1

    def test_latency_bounded_by_a_few_cycles(self, dsi_m1, config64):
        window = Rect(0.1, 0.6, 0.35, 0.9)
        result, _ = run_window(dsi_m1, config64, window, 0.5)
        cycle_bytes = dsi_m1.program.cycle_bytes(config64.packet_capacity)
        assert result.metrics.latency_bytes <= 2.5 * cycle_bytes

    @pytest.mark.parametrize("scan", [False, True], ids=["directory", "scan"])
    def test_hc_value_straddling_frames(self, scan, monkeypatch):
        """Objects 0 and 35 share HC 1657.  An even split ends frame rank 3
        with object 0 and starts rank 4 with object 35; the build keeps
        both in one frame instead.  Tuning in at 6/12 or 7/12 of the cycle,
        where an extent-skipping walk once missed object 0, fetches it
        through the frame's directory or, with the directory lost, the
        scan."""
        from repro.core import visit
        from repro.queries.workload import window_workload
        from repro.sim.runner import build_index

        dataset = uniform_dataset(59, seed=934)
        config = SystemConfig(packet_capacity=64)
        index = build_index("dsi", dataset, config, use_cache=False)
        assert dataset.objects[0].hc == dataset.objects[35].hc == 1657
        frame = index.frames_by_rank[index.frame_rank_covering(1657)]
        assert {0, 35} <= {o.oid for o in frame.objects}
        if scan:
            monkeypatch.setattr(visit, "read_directory", lambda *a, **k: None)
        query = list(window_workload(2, 0.12, seed=934))[0].query
        cycle = index.program.cycle_packets
        for phase in (6, 7):
            session = ClientSession(
                index.program, config, start_packet=phase * cycle // 12
            )
            result = index.window_query(query.window, session)
            assert 0 in result.object_ids
            assert matches(dataset, query, result.objects)


class TestKnnQueryCorrectness:
    @pytest.mark.parametrize("segments,strategy", [(1, "conservative"), (1, "aggressive"), (2, "conservative")])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_matches_brute_force(self, segments, strategy, k):
        dataset = uniform_dataset(200, seed=12)
        config = SystemConfig()
        index = DsiIndex(dataset, config, DsiParameters(n_segments=segments))
        rng = random.Random(21)
        for _ in range(8):
            q = Point(rng.random(), rng.random())
            result, _ = run_knn(index, config, q, k, strategy, rng.random())
            assert matches(dataset, KnnQuery(q, k), result.objects)

    def test_k_larger_than_dataset(self, config64):
        dataset = uniform_dataset(15, seed=3)
        index = DsiIndex(dataset, config64, DsiParameters())
        result, _ = run_knn(index, config64, Point(0.5, 0.5), 40)
        assert len(result.objects) == 15

    def test_invalid_k(self, dsi_m1, config64):
        with pytest.raises(ValueError):
            run_knn(dsi_m1, config64, Point(0.5, 0.5), 0)

    def test_invalid_strategy(self, dsi_m1, config64):
        with pytest.raises(ValueError):
            run_knn(dsi_m1, config64, Point(0.5, 0.5), 3, strategy="bogus")

    def test_results_sorted_by_distance(self, dsi_m2, config64):
        q = Point(0.62, 0.44)
        result, _ = run_knn(dsi_m2, config64, q, 7)
        dists = [o.distance_to(q) for o in result.objects]
        assert dists == sorted(dists)

    def test_clustered_dataset(self):
        dataset = real_surrogate_dataset(250, seed=19)
        config = SystemConfig()
        index = DsiIndex(dataset, config, DsiParameters(n_segments=2))
        rng = random.Random(30)
        for _ in range(6):
            q = Point(rng.random(), rng.random())
            result, _ = run_knn(index, config, q, 5, "conservative", rng.random())
            assert matches(dataset, KnnQuery(q, 5), result.objects)

    def test_counters_populated(self, dsi_m1, config64):
        result, _ = run_knn(dsi_m1, config64, Point(0.2, 0.8), 5)
        assert result.frames_visited >= 1
        assert result.objects_downloaded >= len(result.objects)
        assert result.tables_read >= 1


class TestStrategyTradeoffs:
    """The paper's qualitative claims about the kNN strategies (Section 3.4)."""

    @pytest.fixture(scope="class")
    def setting(self):
        dataset = uniform_dataset(400, seed=44)
        config = SystemConfig()
        index = DsiIndex(dataset, config, DsiParameters(n_segments=1))
        rng = random.Random(7)
        queries = [(Point(rng.random(), rng.random()), rng.random()) for _ in range(20)]
        return dataset, config, index, queries

    def _mean(self, index, config, queries, strategy, metric):
        total = 0
        for q, frac in queries:
            result, _ = run_knn(index, config, q, 10, strategy, frac)
            total += getattr(result.metrics, metric)
        return total / len(queries)

    def test_aggressive_saves_tuning_over_conservative(self, setting):
        _ds, config, index, queries = setting
        cons = self._mean(index, config, queries, "conservative", "tuning_bytes")
        aggr = self._mean(index, config, queries, "aggressive", "tuning_bytes")
        assert aggr < cons

    def test_conservative_saves_latency_over_aggressive(self, setting):
        _ds, config, index, queries = setting
        cons = self._mean(index, config, queries, "conservative", "latency_bytes")
        aggr = self._mean(index, config, queries, "aggressive", "latency_bytes")
        assert cons < aggr


class TestWindowQueryProperty:
    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.01, max_value=0.2),
        st.floats(min_value=0.0, max_value=0.999),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_windows_match_brute_force(self, cx, cy, half, frac):
        dataset = uniform_dataset(120, seed=77)
        config = SystemConfig()
        index = _cached_index(dataset, config)
        window = Rect.from_center(Point(cx, cy), half).clipped_to_unit()
        result, _ = run_window(index, config, window, frac)
        assert matches(dataset, WindowQuery(window), result.objects)


_INDEX_CACHE = {}


def _cached_index(dataset, config):
    key = (dataset.name, config.packet_capacity)
    if key not in _INDEX_CACHE:
        _INDEX_CACHE[key] = DsiIndex(dataset, config, DsiParameters(n_segments=2))
    return _INDEX_CACHE[key]
