"""Compiled timelines: flat-array answers == object-model answers, always.

Hypothesis drives the compiled timeline (``repro.broadcast.timeline``)
against the legacy per-object arithmetic across random broadcast programs,
channel counts and capacities:

* ``next_occurrences`` == ``BroadcastProgram.next_occurrence`` /
  ``ScheduleView.next_occurrence`` for every bucket and position;
* ``next_navigation_starts`` == the minimum of the program/view scalar
  ``next_occurrence_of_kind`` over all navigation kinds;
* ``ClientSession.next_arrivals`` == a loop of scalar
  ``ClientSession.next_arrival`` calls;
* the fleet's landmark collapse reproduces full per-phase simulation
  bit for bit, and ``knn_query`` visit sequences are unchanged by the
  batched planner (pinned against recorded reference traces).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast import (
    BroadcastProgram,
    BroadcastSchedule,
    Bucket,
    BucketKind,
    ClientSession,
    ScheduleView,
    SystemConfig,
)
from repro.broadcast.timeline import CompiledTimeline, timeline_of

_SETTINGS = dict(max_examples=40, deadline=None)

_KINDS = (
    BucketKind.DSI_TABLE,
    BucketKind.DSI_DIRECTORY,
    BucketKind.DATA,
    BucketKind.TREE_NODE,
    BucketKind.CONTROL,
)


@st.composite
def programs(draw, min_buckets=2, max_buckets=40):
    """A random broadcast program with at least one navigation and one data
    bucket (striped schedules need both)."""
    n = draw(st.integers(min_value=min_buckets, max_value=max_buckets))
    kinds = [draw(st.sampled_from(_KINDS)) for _ in range(n)]
    kinds[0] = BucketKind.DSI_TABLE
    kinds[-1] = BucketKind.DATA
    buckets = [
        Bucket(kind=kind, n_packets=draw(st.integers(1, 5)), payload=i)
        for i, kind in enumerate(kinds)
    ]
    return BroadcastProgram(buckets, name="prop")


def _views(draw_channels, program):
    """The single-channel program itself plus a striped view when possible."""
    views = [program]
    data = sum(1 for b in program.buckets if not b.kind.is_navigation)
    if data >= draw_channels and draw_channels >= 1:
        schedule = BroadcastSchedule.striped(program, data_channels=draw_channels)
        views.append(ScheduleView(schedule))
    return views


class TestCompiledTimelineEquivalence:
    @given(program=programs(), data=st.data())
    @settings(**_SETTINGS)
    def test_next_occurrences_match_scalar(self, program, data):
        channels = data.draw(st.integers(min_value=1, max_value=3))
        for view in _views(channels, program):
            timeline = timeline_of(view)
            positions = data.draw(
                st.lists(st.integers(0, 4 * view.cycle_packets), min_size=1, max_size=16)
            )
            for bucket in range(len(program)):
                got = timeline.next_occurrences(
                    np.full(len(positions), bucket, dtype=np.int64),
                    np.asarray(positions, dtype=np.int64),
                )
                want = [view.next_occurrence(bucket, p) for p in positions]
                assert got.tolist() == want

    @given(program=programs(), data=st.data())
    @settings(**_SETTINGS)
    def test_navigation_starts_are_min_over_nav_kinds(self, program, data):
        channels = data.draw(st.integers(min_value=1, max_value=3))
        for view in _views(channels, program):
            timeline = timeline_of(view)
            positions = np.asarray(
                data.draw(
                    st.lists(st.integers(0, 3 * view.cycle_packets), min_size=1, max_size=12)
                ),
                dtype=np.int64,
            )
            best = None
            for kind in _KINDS:
                if not kind.is_navigation:
                    continue
                try:
                    # scalar seeks, as from a radio that pays no switch
                    starts = np.array(
                        [view.next_occurrence_of_kind(kind, int(p))[1] for p in positions]
                    )
                except KeyError:
                    continue
                best = starts if best is None else np.minimum(best, starts)
            assert best is not None  # programs() always airs a DSI table
            got = timeline.next_navigation_starts(positions)
            assert got.tolist() == best.tolist()

    @given(program=programs(), data=st.data())
    @settings(**_SETTINGS)
    def test_session_next_arrivals_match_scalar_loop(self, program, data):
        channels = data.draw(st.integers(min_value=1, max_value=3))
        config = SystemConfig(
            packet_capacity=64,
            n_channels=channels,
            channel_switch_packets=data.draw(st.integers(0, 5)),
        )
        for view in _views(channels, program):
            start = data.draw(st.integers(0, view.cycle_packets - 1))
            session = ClientSession(view, config, start_packet=start)
            session.initial_probe()
            buckets = data.draw(
                st.lists(st.integers(0, len(program) - 1), min_size=1, max_size=16)
            )
            got = session.next_arrivals(buckets)
            want = [session.next_arrival(b) for b in buckets]
            assert got.tolist() == want

    def test_timeline_is_cached_on_its_host(self):
        program = BroadcastProgram(
            [
                Bucket(kind=BucketKind.DSI_TABLE, n_packets=1, payload=0),
                Bucket(kind=BucketKind.DATA, n_packets=2, payload=1),
            ]
        )
        assert timeline_of(program) is timeline_of(program)
        schedule = BroadcastSchedule.striped(program, data_channels=1)
        assert timeline_of(schedule.view()) is timeline_of(schedule.view())

    def test_bucket_frame_map_lifted_from_meta(self):
        program = BroadcastProgram(
            [
                Bucket(BucketKind.DSI_TABLE, 1, None, meta={"frame_pos": 0}),
                Bucket(BucketKind.DATA, 1, None, meta={"frame_pos": 0}),
                Bucket(BucketKind.DSI_TABLE, 1, None, meta={"frame_pos": 1}),
                Bucket(BucketKind.DATA, 1, None),
            ]
        )
        timeline = CompiledTimeline(program)
        assert timeline.bucket_frame.tolist() == [0, 0, 1, -1]
        assert timeline.bucket_packets.tolist() == [1, 1, 1, 1]


class TestFleetLandmarkCollapse:
    """The phase collapse must be invisible in every reported number."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.queries.workload import window_workload
        from repro.sim.runner import build_index
        from repro.spatial import uniform_dataset

        dataset = uniform_dataset(220, seed=3)
        workload = window_workload(5, 0.12, seed=11)
        return dataset, workload

    @pytest.mark.parametrize("channels", [1, 3])
    def test_collapsed_equals_per_phase(self, setup, channels):
        from repro.core.structure import DsiIndex
        from repro.sim.fleet import run_fleet
        from repro.sim.runner import build_index

        dataset, workload = setup
        config = SystemConfig(packet_capacity=64, n_channels=channels)
        index = build_index("dsi", dataset, config, use_cache=True)
        collapsed = run_fleet(index, dataset, config, workload, 30_000, seed=5)
        saved = DsiIndex.entry_landmark
        DsiIndex.entry_landmark = lambda self, view, position, switch_packets=0: None
        try:
            reference = run_fleet(index, dataset, config, workload, 30_000, seed=5)
        finally:
            DsiIndex.entry_landmark = saved
        assert np.array_equal(collapsed.unique_latency, reference.unique_latency)
        assert np.array_equal(collapsed.unique_tuning, reference.unique_tuning)
        assert np.array_equal(collapsed.unique_counts, reference.unique_counts)
        assert collapsed.result.latency.mean == reference.result.latency.mean
        assert collapsed.result.tuning.mean == reference.result.tuning.mean

    def test_landmark_mirrors_first_table_read(self, setup):
        from repro.core.window import read_first_table
        from repro.core.knowledge import ClientKnowledge
        from repro.sim.runner import build_index

        dataset, _ = setup
        config = SystemConfig(packet_capacity=64)
        index = build_index("dsi", dataset, config, use_cache=True)
        view = index.air_view()
        cycle = index.program.cycle_packets
        for start in (0, 17, cycle // 2, cycle - 1):
            session = ClientSession(index.program, config, start_packet=start)
            knowledge = ClientKnowledge(
                view.n_frames, view.n_segments, view.curve.max_value
            )
            table = read_first_table(session, view, knowledge)
            bucket, at = index.entry_landmark(index.program, start + 1)
            assert index.program.buckets[bucket].payload is table


class TestKnnVisitSequenceUnchanged:
    """The batched kNN driver must visit exactly the frames the scalar
    reference visited, in order (pinned via the session's read trace)."""

    def _visit_trace(self, index, dataset, config, query, start):
        from repro.broadcast.client import ClientSession

        session = ClientSession(index.program, config, start_packet=start)
        reads = []
        original = session.read_bucket

        def recording(bucket_index, not_before=None):
            reads.append(bucket_index)
            return original(bucket_index, not_before)

        session.read_bucket = recording
        outcome = index.knn_query(query.point, query.k, session)
        return reads, outcome

    @pytest.mark.parametrize("strategy", ["conservative", "aggressive"])
    def test_batched_planner_matches_scalar_reference(self, strategy):
        """knn_query with the batched chooser == knn_query with a scalar
        per-rank reference chooser (the pre-timeline loop), read for read."""
        import repro.core.knn as knn_mod
        from repro.queries.ground_truth import matches
        from repro.queries.workload import knn_workload
        from repro.sim.runner import build_index
        from repro.spatial import uniform_dataset

        def scalar_choose_rank(view, session, knowledge, space, needed, strategy):
            needed_list = [int(r) for r in needed]

            def arrival(rank):
                return session.next_arrival(view.table_bucket(knowledge.pos_of_rank(rank)))

            if strategy == "aggressive" and len(space.retrieved) < space.k:
                mins = knowledge.known_mins(np.asarray(needed_list, dtype=np.int64)).tolist()
                known = {r: v for r, v in zip(needed_list, mins) if v >= 0}
                if known:
                    return min(
                        known,
                        key=lambda r: (space.estimate_distance(known[r]), arrival(r)),
                    )
            return min(needed_list, key=arrival)

        dataset = uniform_dataset(300, seed=9)
        config = SystemConfig(packet_capacity=64)
        index = build_index("dsi", dataset, config, use_cache=True)
        for trial in knn_workload(6, k=5, seed=21):
            start = int(trial.tune_in_fraction * index.program.cycle_packets)

            def run(chooser):
                saved = knn_mod._choose_rank
                knn_mod._choose_rank = chooser
                try:
                    session = ClientSession(index.program, config, start_packet=start)
                    reads = []
                    original = session.read_bucket

                    def recording(bucket_index, not_before=None):
                        reads.append(bucket_index)
                        return original(bucket_index, not_before)

                    session.read_bucket = recording
                    outcome = index.knn_query(
                        trial.query.point, trial.query.k, session, strategy=strategy
                    )
                    return reads, outcome
                finally:
                    knn_mod._choose_rank = saved

            batched_reads, batched = run(knn_mod._choose_rank)
            scalar_reads, scalar = run(scalar_choose_rank)
            assert batched_reads == scalar_reads
            assert batched.object_ids == scalar.object_ids
            assert batched.metrics == scalar.metrics
            assert batched.frames_visited == scalar.frames_visited
            assert matches(dataset, trial.query, batched.objects)
