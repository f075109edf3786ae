"""Tests for the DSI index structure, sizing rules and air view."""

from __future__ import annotations

import pytest

from repro.broadcast import BucketKind, SystemConfig
from repro.core import DsiIndex, DsiParameters, derive_frame_layout
from repro.core.structure import SIZING_RULES, check_frames
from repro.spatial import (
    HilbertCurve,
    SpatialDataset,
    running_example_dataset,
    uniform_dataset,
)


class TestParameters:
    def test_defaults(self):
        params = DsiParameters()
        assert params.index_base == 2
        assert params.n_segments == 1
        assert params.sizing == "balanced"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"index_base": 1},
            {"object_factor": 0},
            {"n_segments": 0},
            {"sizing": "bogus"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DsiParameters(**kwargs)

    def test_sizing_rules_exported(self):
        assert set(SIZING_RULES) == {"balanced", "paper"}


class TestFrameLayout:
    def test_paper_rule_capacity_64(self):
        # entry = 18 bytes, so 3 entries fit a 64-byte packet -> nF = 2**3 = 8.
        layout = derive_frame_layout(
            10_000, SystemConfig(packet_capacity=64), DsiParameters(sizing="paper")
        )
        assert layout.n_frames == 8
        assert layout.object_factor == 1250

    def test_paper_rule_large_capacity_caps_at_n(self):
        layout = derive_frame_layout(
            1_000, SystemConfig(packet_capacity=512), DsiParameters(sizing="paper")
        )
        assert layout.n_frames == 1_000
        assert layout.object_factor == 1

    def test_balanced_rule_directory_comparable_to_table(self):
        layout = derive_frame_layout(10_000, SystemConfig(), DsiParameters())
        assert abs(layout.object_factor - layout.entries_per_table) <= 4

    def test_explicit_object_factor(self):
        layout = derive_frame_layout(
            100, SystemConfig(), DsiParameters(object_factor=10)
        )
        assert layout.n_frames == 10 and layout.object_factor == 10

    def test_segments_force_divisibility(self):
        layout = derive_frame_layout(
            101, SystemConfig(), DsiParameters(object_factor=10, n_segments=4)
        )
        assert layout.n_frames % 4 == 0

    def test_more_segments_than_objects_rejected(self):
        with pytest.raises(ValueError):
            derive_frame_layout(1, SystemConfig(), DsiParameters(n_segments=2))

    def test_zero_objects_rejected(self):
        with pytest.raises(ValueError):
            derive_frame_layout(0, SystemConfig(), DsiParameters())

    def test_frames_capped_at_distinct_hc_values(self):
        layout = derive_frame_layout(
            100, SystemConfig(), DsiParameters(object_factor=1), n_distinct=37
        )
        assert layout.n_frames == 37 and layout.object_factor == 3

    def test_more_segments_than_distinct_values_rejected(self):
        with pytest.raises(ValueError):
            derive_frame_layout(
                10, SystemConfig(), DsiParameters(n_segments=4), n_distinct=3
            )


def _runs_dataset(run_lengths):
    """Objects whose ascending HC values 0, 1, 2, ... repeat
    ``run_lengths[v]`` times each."""
    curve = HilbertCurve(3)
    points = [
        curve.representative_point(hc)
        for hc, length in enumerate(run_lengths)
        for _ in range(length)
    ]
    return SpatialDataset(points, name="runs", curve_order=3)


class TestFrameCuts:
    @pytest.mark.parametrize(
        "runs, object_factor, sizes",
        [
            # Targets 3, 6, 9: the nearest run starts are 4, 6 and 10.
            ([1, 3, 1, 1, 4, 2], 3, [4, 2, 4, 2]),
            # Target 4 lies between run starts 3 and 5: the tie goes down.
            ([3, 2, 3], 4, [3, 5]),
            # Targets 2, 4, 6 all sit nearest run start 0 or 5: each cut
            # moves past the previous one.
            ([5, 1, 1, 1], 2, [5, 1, 1, 1]),
            # Targets 2, 4, 6 sit at or past the third run start: each cut
            # stays early enough to leave one run per later frame.
            ([1, 1, 1, 5], 2, [1, 1, 1, 5]),
            # object_factor=1 asks for 8 frames; 4 distinct values cap it.
            ([5, 1, 1, 1], 1, [5, 1, 1, 1]),
        ],
    )
    def test_cuts_move_to_the_nearest_run_start(self, runs, object_factor, sizes):
        index = DsiIndex(
            _runs_dataset(runs), SystemConfig(),
            DsiParameters(object_factor=object_factor),
        )
        assert [len(f.objects) for f in index.frames_by_rank] == sizes
        assert index.layout.object_factor == -(-sum(runs) // len(sizes))

    def test_fewer_distinct_values_than_segments_rejected(self):
        with pytest.raises(ValueError):
            DsiIndex(_runs_dataset([4, 4, 4]), SystemConfig(), DsiParameters(n_segments=4))

    def test_build_rejects_a_value_in_two_frames(self, monkeypatch):
        cut = DsiIndex._build_frames

        def straddle(self, *args):
            cut(self, *args)
            first, second = self.frames_by_rank[:2]
            second.objects.insert(0, first.objects.pop())

        monkeypatch.setattr(DsiIndex, "_build_frames", straddle)
        with pytest.raises(ValueError, match="HC value 0 lies in frame ranks 0 and 1"):
            DsiIndex(
                _runs_dataset([2, 2, 2, 2]), SystemConfig(),
                DsiParameters(object_factor=2),
            )

    def test_check_frames_rejects_an_empty_frame(self):
        index = DsiIndex(
            _runs_dataset([2, 2, 2, 2]), SystemConfig(), DsiParameters(object_factor=2)
        )
        index.frames_by_rank[1].objects.clear()
        with pytest.raises(ValueError, match="frame rank 1 is empty"):
            check_frames(index.frames_by_rank, 1)

    def test_check_frames_rejects_a_ragged_segment_split(self):
        index = DsiIndex(
            _runs_dataset([1, 1, 1]), SystemConfig(), DsiParameters(object_factor=1)
        )
        assert index.n_frames == 3
        with pytest.raises(ValueError, match="3 frames"):
            check_frames(index.frames_by_rank, 2)


class TestDsiIndexStructure:
    @pytest.fixture(scope="class", params=[1, 2, 4])
    def index(self, request):
        ds = uniform_dataset(240, seed=17)
        return DsiIndex(ds, SystemConfig(), DsiParameters(n_segments=request.param))

    def test_frames_partition_objects_in_hc_order(self, index):
        seen = []
        for frame in index.frames_by_rank:
            assert frame.objects, "every frame holds at least one object"
            seen.extend(o.hc for o in frame.objects)
        assert seen == sorted(seen)
        assert len(seen) == len(index.dataset)

    def test_rank_position_arithmetic_is_a_bijection(self, index):
        n = index.n_frames
        ranks = {index.rank_of_pos(p) for p in range(n)}
        assert ranks == set(range(n))
        for rank in range(n):
            assert index.rank_of_pos(index.pos_of_rank(rank)) == rank

    def test_broadcast_position_matches_frame_field(self, index):
        for pos, frame in enumerate(index.frames):
            assert frame.broadcast_pos == pos
            assert index.rank_of_pos(pos) == frame.hc_rank

    def test_tables_point_to_exponential_distances(self, index):
        n = index.n_frames
        r = index.params.index_base
        for pos, table in enumerate(index.tables):
            for i, entry in enumerate(table.entries):
                expected_pos = (pos + r ** i) % n
                assert entry.frame_pos == expected_pos
                assert entry.hc == index.frames[expected_pos].min_hc

    def test_table_next_hc_min_is_successor_min(self, index):
        for table in index.tables:
            rank = index.rank_of_pos(table.frame_pos)
            if rank + 1 < index.n_frames:
                assert table.next_hc_min == index.frames_by_rank[rank + 1].min_hc
            else:
                assert table.next_hc_min == index.curve.max_value

    def test_segment_boundaries_are_increasing(self, index):
        bounds = index.segment_boundaries
        assert len(bounds) == index.params.n_segments
        assert list(bounds) == sorted(bounds)

    def test_frame_extents_cover_hc_space_disjointly(self, index):
        previous_hi = -1
        for rank in range(index.n_frames):
            lo, hi = index.frame_extent(rank)
            assert lo == previous_hi + 1 or rank == 0
            assert lo <= hi
            previous_hi = hi
        assert previous_hi == index.curve.max_value - 1

    def test_frame_rank_covering(self, index):
        for obj in index.dataset:
            rank = index.frame_rank_covering(obj.hc)
            lo, hi = index.frame_extent(rank)
            assert lo <= obj.hc <= hi

    def test_program_contains_all_objects_once(self, index):
        oids = [
            b.meta["oid"]
            for b in index.program
            if b.kind is BucketKind.DATA
        ]
        assert sorted(oids) == list(range(len(index.dataset)))

    def test_program_bucket_maps_are_consistent(self, index):
        view = index.air_view()
        for pos in range(index.n_frames):
            table_bucket = index.program.buckets[view.table_bucket(pos)]
            assert table_bucket.kind is BucketKind.DSI_TABLE
            assert table_bucket.meta["frame_pos"] == pos
            for slot, bucket_idx in enumerate(view.frame_object_buckets(pos)):
                bucket = index.program.buckets[bucket_idx]
                assert bucket.kind is BucketKind.DATA
                assert bucket.payload.oid == index.frames[pos].objects[slot].oid

    def test_directory_matches_frame_contents(self, index):
        view = index.air_view()
        for pos, frame in enumerate(index.frames):
            dir_bucket = view.directory_bucket(pos)
            if len(frame.objects) <= 1:
                assert dir_bucket is None
                continue
            directory = index.program.buckets[dir_bucket].payload
            assert [r.oid for r in directory.records] == [o.oid for o in frame.objects]
            hcs = [r.hc for r in directory.records]
            assert hcs == sorted(hcs)

    def test_describe_keys(self, index):
        info = index.describe()
        assert info["n_objects"] == len(index.dataset)
        assert info["n_frames"] == index.n_frames
        assert 0 <= info["index_overhead"] < 0.6


class TestRunningExample:
    def test_running_example_frames(self):
        ds = running_example_dataset()
        index = DsiIndex(ds, SystemConfig(), DsiParameters(object_factor=1))
        assert index.n_frames == 8
        assert [f.min_hc for f in index.frames] == [6, 11, 17, 27, 32, 40, 51, 61]

    def test_running_example_reorganized_order(self):
        # Figure 7: interleaving two segments gives O6 O32 O11 O40 O17 O51 O27 O61.
        ds = running_example_dataset()
        index = DsiIndex(ds, SystemConfig(), DsiParameters(object_factor=1, n_segments=2))
        assert [f.min_hc for f in index.frames] == [6, 32, 11, 40, 17, 51, 27, 61]

    def test_running_example_table_of_first_frame(self):
        # Figure 4: the table of O6's frame points to HC values 11, 17 and 32.
        ds = running_example_dataset()
        index = DsiIndex(ds, SystemConfig(), DsiParameters(object_factor=1))
        table = index.tables[0]
        assert [e.hc for e in table.entries[:3]] == [11, 17, 32]
