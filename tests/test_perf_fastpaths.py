"""Equivalence tests for the performance fast paths.

Every fast path introduced by the performance layer has a slow,
obviously-correct counterpart; these tests pin them together:

* table-driven Hilbert encode/decode (and the batch APIs) vs the classical
  per-level loop;
* the Hilbert cover sweep vs the classical recursive cover;
* ``coalesce_to_limit``'s one stable argsort vs a naive recompute-all-gaps
  loop;
* the grid ground truth vs the brute-force oracle;
* the per-kind broadcast seek vs a bucket-by-bucket channel scan;
* cached index builds vs fresh builds (identical experiment results).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import cache_stats
from repro.broadcast.config import SystemConfig
from repro.broadcast.program import BucketKind
from repro.queries.ground_truth import GridGroundTruth, answer, brute_answer, grid_for
from repro.queries.types import KnnQuery, WindowQuery
from repro.queries.workload import Workload, knn_workload, mixed_workload, window_workload
from repro.sim.parallel import parallel_map
from repro.sim.runner import (
    IndexSpec,
    build_index,
    clear_index_cache,
    run_workload,
)
from repro.spatial.datasets import uniform_dataset
from repro.spatial.geometry import Point, Rect
from repro.spatial.hilbert import HilbertCurve, coalesce_to_limit, merge_ranges

from cover_reference import classical_cover


class TestHilbertFastPath:
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_lut_matches_classical_exhaustive(self, order):
        curve = HilbertCurve(order)
        for x in range(curve.side):
            for y in range(curve.side):
                d = curve.encode(x, y)
                assert d == curve.encode_classical(x, y)
                assert curve.decode(d) == (x, y)
                assert curve.decode_classical(d) == (x, y)

    @given(st.integers(min_value=7, max_value=31), st.data())
    @settings(max_examples=80)
    def test_lut_matches_classical_random_orders(self, order, data):
        curve = HilbertCurve(order)
        x = data.draw(st.integers(min_value=0, max_value=curve.side - 1))
        y = data.draw(st.integers(min_value=0, max_value=curve.side - 1))
        d = curve.encode(x, y)
        assert d == curve.encode_classical(x, y)
        assert curve.decode(d) == (x, y)

    @pytest.mark.parametrize("order", [3, 9, 16, 31])
    def test_batch_apis_match_scalar(self, order):
        curve = HilbertCurve(order)
        rng = np.random.default_rng(5)
        xs = rng.integers(0, curve.side, size=300, dtype=np.int64)
        ys = rng.integers(0, curve.side, size=300, dtype=np.int64)
        ds = curve.encode_many(xs, ys)
        assert [int(v) for v in ds] == [
            curve.encode(int(x), int(y)) for x, y in zip(xs, ys)
        ]
        bx, by = curve.decode_many(ds)
        assert [(int(a), int(b)) for a, b in zip(bx, by)] == [
            curve.decode(int(v)) for v in ds
        ]

    def test_values_of_matches_value_of(self):
        curve = HilbertCurve(10)
        rng = np.random.default_rng(6)
        coords = rng.random((200, 2))
        points = [Point(float(x), float(y)) for x, y in coords]
        batch = curve.values_of(coords)
        assert [int(v) for v in batch] == [curve.value_of(p) for p in points]
        # Sequence-of-Point input takes the same path.
        assert [int(v) for v in curve.values_of(points)] == [int(v) for v in batch]

    def test_batch_rejects_out_of_range(self):
        curve = HilbertCurve(4)
        with pytest.raises(ValueError):
            curve.encode_many([0, curve.side], [0, 0])
        with pytest.raises(ValueError):
            curve.decode_many([0, curve.max_value])

    @given(
        st.floats(min_value=0.0, max_value=0.95),
        st.floats(min_value=0.0, max_value=0.95),
        st.floats(min_value=0.001, max_value=0.4),
        st.floats(min_value=0.001, max_value=0.4),
    )
    @settings(max_examples=40)
    def test_cover_matches_classical_reference(self, x0, y0, w, h):
        """The cover sweep equals a cover built with per-quadrant classical
        encodes (the seed implementation)."""
        curve = HilbertCurve(6)
        rect = Rect(x0, y0, min(1.0, x0 + w), min(1.0, y0 + h))
        expected = classical_cover(curve, rect, max_ranges=64, max_depth=5)
        assert curve.ranges_for_rect(rect, max_ranges=64, max_depth=5) == expected


class TestCoalesceHeap:
    @staticmethod
    def _naive(ranges, max_ranges):
        ranges = list(ranges)
        while len(ranges) > max_ranges:
            gaps = [
                (ranges[i + 1][0] - ranges[i][1], i) for i in range(len(ranges) - 1)
            ]
            _, i = min(gaps)
            ranges[i] = (ranges[i][0], ranges[i + 1][1])
            del ranges[i + 1]
        return ranges

    @given(
        st.lists(st.tuples(st.integers(0, 500), st.integers(1, 20)), max_size=40),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=120)
    def test_heap_matches_naive(self, raw, max_ranges):
        ranges = merge_ranges([(lo, lo + length) for lo, length in raw])
        assert coalesce_to_limit(ranges, max_ranges) == self._naive(ranges, max_ranges)


class TestGridGroundTruth:
    @pytest.fixture(scope="class")
    def dataset(self):
        return uniform_dataset(700, seed=19)

    def test_window_matches_brute(self, dataset):
        rng = np.random.default_rng(20)
        for _ in range(40):
            cx, cy = rng.random(2)
            query = WindowQuery.centered(Point(float(cx), float(cy)), float(rng.uniform(0.01, 0.5)))
            assert [o.oid for o in answer(dataset, query)] == sorted(
                o.oid for o in brute_answer(dataset, query)
            )

    def test_knn_matches_brute(self, dataset):
        rng = np.random.default_rng(21)
        for _ in range(40):
            qx, qy = rng.random(2)
            k = int(rng.integers(1, 40))
            query = KnnQuery(point=Point(float(qx), float(qy)), k=k)
            assert [o.oid for o in answer(dataset, query)] == [
                o.oid for o in brute_answer(dataset, query)
            ]

    def test_knn_larger_than_dataset(self, dataset):
        query = KnnQuery(point=Point(0.5, 0.5), k=len(dataset) + 5)
        assert [o.oid for o in answer(dataset, query)] == [
            o.oid for o in brute_answer(dataset, query)
        ]

    def test_window_outside_space(self, dataset):
        grid = grid_for(dataset)
        assert grid.window(Rect(1.5, 1.5, 2.0, 2.0)) == []

    def test_grid_is_cached_per_dataset(self, dataset):
        assert grid_for(dataset) is grid_for(dataset)
        assert isinstance(grid_for(dataset), GridGroundTruth)


class TestProgramKindSeek:
    def test_kind_seek_matches_scan(self):
        dataset = uniform_dataset(120, seed=23)
        config = SystemConfig(packet_capacity=64)
        index = build_index("dsi", dataset, config)
        program = index.program
        cycle = program.cycle_packets
        for position in (0, 1, 7, cycle - 1, cycle + 13):
            base = (position // cycle) * cycle
            # every airing of this cycle and the next, in broadcast order
            airings = [
                (i, base + lap * cycle + program.start_of(i))
                for lap in (0, 1)
                for i in range(len(program.buckets))
            ]
            for kind in (BucketKind.DSI_TABLE, BucketKind.DATA):
                scan = next(
                    (i, start) for i, start in airings
                    if start >= position and program.buckets[i].kind is kind
                )
                assert program.next_occurrence_of_kind(kind, position) == scan

    def test_kind_seek_missing_kind(self):
        dataset = uniform_dataset(50, seed=24)
        index = build_index("dsi", dataset, SystemConfig(packet_capacity=64))
        with pytest.raises(KeyError):
            index.program.next_occurrence_of_kind(BucketKind.TREE_NODE, 0)


class TestIndexBuildCache:
    def test_cached_builds_are_reused(self):
        clear_index_cache()
        dataset = uniform_dataset(150, seed=25)
        config = SystemConfig(packet_capacity=64)
        a = build_index("dsi", dataset, config, use_cache=True)
        b = build_index("dsi", dataset, config, use_cache=True)
        assert a is b
        stats = cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_cache_key_discriminates(self):
        clear_index_cache()
        dataset = uniform_dataset(150, seed=25)
        config = SystemConfig(packet_capacity=64)
        a = build_index("dsi", dataset, config, use_cache=True)
        b = build_index("dsi-original", dataset, config, use_cache=True)
        c = build_index("dsi", dataset, config.with_capacity(128), use_cache=True)
        d = build_index("dsi", uniform_dataset(150, seed=26), config, use_cache=True)
        assert len({id(a), id(b), id(c), id(d)}) == 4

    def test_equal_content_different_instances_hit(self):
        clear_index_cache()
        config = SystemConfig(packet_capacity=64)
        a = build_index("hci", uniform_dataset(100, seed=27), config, use_cache=True)
        b = build_index("hci", uniform_dataset(100, seed=27), config, use_cache=True)
        assert a is b

    def test_cached_and_fresh_results_identical(self):
        clear_index_cache()
        dataset = uniform_dataset(200, seed=28)
        config = SystemConfig(packet_capacity=64)
        workload = mixed_workload(n_queries=8, seed=29)
        for spec in (IndexSpec(kind="dsi"), IndexSpec(kind="rtree"), IndexSpec(kind="hci")):
            fresh = build_index(spec, dataset, config, use_cache=False)
            cached = build_index(spec, dataset, config, use_cache=True)
            res_fresh = run_workload(fresh, dataset, config, workload, verify=True)
            res_cached = run_workload(cached, dataset, config, workload, verify=True)
            assert res_fresh.accuracy == res_cached.accuracy
            for metric in ("latency", "tuning"):
                f, c = getattr(res_fresh, metric), getattr(res_cached, metric)
                assert (f.count, f.mean, f.variance) == (c.count, c.mean, c.variance)
            # Trial by trial, in order: each trial replayed as its own
            # one-trial workload, whose mean is that trial's value.
            for trial in workload:
                one = Workload(workload.name, [trial])
                a = run_workload(fresh, dataset, config, one, verify=False)
                b = run_workload(cached, dataset, config, one, verify=False)
                assert (a.latency.mean, a.tuning.mean) == (b.latency.mean, b.tuning.mean)


def _square(x: int) -> int:
    return x * x


class TestParallelExecutor:
    def test_serial_and_parallel_agree(self):
        tasks = [(i,) for i in range(6)]
        assert parallel_map(_square, tasks, processes=1) == [0, 1, 4, 9, 16, 25]
        assert parallel_map(_square, tasks, processes=3) == [0, 1, 4, 9, 16, 25]

    def test_empty_and_single(self):
        assert parallel_map(_square, [], processes=4) == []
        assert parallel_map(_square, [(7,)], processes=4) == [49]



class TestSlots:
    def test_hot_types_have_no_dict(self):
        from repro.broadcast.client import ReadResult
        from repro.broadcast.program import Bucket
        from repro.spatial.datasets import DataObject

        obj = DataObject(oid=0, point=Point(0.1, 0.2), hc=3)
        bucket = Bucket(kind=BucketKind.DATA, n_packets=1, payload=obj)
        result = ReadResult(bucket_index=0, bucket=bucket, start=0, end=1, ok=True)
        for instance in (obj, obj.point, Rect(0, 0, 1, 1), bucket, result):
            assert not hasattr(instance, "__dict__")
            # Frozen+slots dataclasses raise TypeError on CPython 3.11 (the
            # zero-arg-super quirk), AttributeError otherwise; either way the
            # assignment must fail.
            with pytest.raises((AttributeError, TypeError)):
                instance.extra = 1
