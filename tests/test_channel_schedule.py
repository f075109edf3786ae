"""The channel subsystem: schedules, striping, and N=1 equivalence."""

from __future__ import annotations

import pytest

from repro.broadcast import (
    BroadcastProgram,
    BroadcastSchedule,
    Bucket,
    BucketKind,
    ChannelRole,
    ClientSession,
    ScheduleView,
    SystemConfig,
)
from repro.queries.ground_truth import matches
from repro.queries.workload import knn_workload, window_workload


def toy_program(n_frames: int = 6, objs_per_frame: int = 3) -> BroadcastProgram:
    """A DSI-shaped cycle: table, directory, then data buckets, per frame."""
    buckets = []
    oid = 0
    for f in range(n_frames):
        buckets.append(Bucket(BucketKind.DSI_TABLE, 2, f"table-{f}", {"frame": f}))
        buckets.append(Bucket(BucketKind.DSI_DIRECTORY, 1, f"dir-{f}", {"frame": f}))
        for _ in range(objs_per_frame):
            buckets.append(Bucket(BucketKind.DATA, 4, f"obj-{oid}", {"oid": oid}))
            oid += 1
    return BroadcastProgram(buckets, name="toy")


class TestSingleChannel:
    def test_view_is_the_legacy_program(self):
        program = toy_program()
        schedule = BroadcastSchedule.single(program)
        assert schedule.view() is program
        assert schedule.is_single
        assert schedule.n_channels == 1
        assert schedule.cycle_packets == program.cycle_packets
        assert schedule.channels[0].role is ChannelRole.HYBRID

    def test_for_config_defaults_to_single(self):
        program = toy_program()
        assert BroadcastSchedule.for_config(program, SystemConfig()).view() is program

    def test_single_schedule_view_matches_program_packet_for_packet(self):
        """A forced ScheduleView over N=1 is the legacy cycle, bucket by bucket."""
        program = toy_program()
        view = ScheduleView(BroadcastSchedule.single(program))
        assert view.cycle_packets == program.cycle_packets
        for position in range(0, 2 * program.cycle_packets, 7):
            assert view.next_bucket_after(position) == program.next_bucket_after(position)
            for kind in (BucketKind.DSI_TABLE, BucketKind.DATA):
                assert view.next_occurrence_of_kind(kind, position) == \
                    program.next_occurrence_of_kind(kind, position)
        for b in range(len(program)):
            for position in (0, 3, program.cycle_packets - 1, program.cycle_packets + 11):
                assert view.next_occurrence(b, position) == program.next_occurrence(b, position)


class TestStriping:
    def test_partition_is_exact_and_roles_are_respected(self):
        program = toy_program()
        schedule = BroadcastSchedule.striped(program, data_channels=3)
        assert schedule.n_channels == 4
        # every bucket on exactly one channel
        seen = sorted(g for ch in schedule.channels for g in ch.global_ids)
        assert seen == list(range(len(program)))
        control = schedule.channels[0]
        assert control.role is ChannelRole.CONTROL
        assert all(b.kind is BucketKind.DSI_TABLE for b in control.program)
        for ch in schedule.channels[1:]:
            assert ch.role is ChannelRole.DATA
            assert all(not b.kind.is_navigation for b in ch.program)
            # order within a channel preserves cycle order
            assert list(ch.global_ids) == sorted(ch.global_ids)

    def test_directory_travels_with_its_frame(self):
        """A frame group (directory + data run) never splits across channels
        while there are at least as many groups as channels."""
        program = toy_program(n_frames=8)
        schedule = BroadcastSchedule.striped(program, data_channels=2)
        chan_of = {g: ch.cid for ch in schedule.channels for g in ch.global_ids}
        for i, bucket in enumerate(program.buckets):
            if bucket.kind is BucketKind.DSI_DIRECTORY:
                frame = bucket.meta["frame"]
                data_ids = [
                    j for j, b in enumerate(program.buckets)
                    if b.kind is BucketKind.DATA and not b.kind.is_navigation
                    and j > i and (j - i) <= 3
                ]
                assert {chan_of[j] for j in data_ids[:3]} == {chan_of[i]}

    def test_balanced_stripes_load_every_channel(self):
        program = toy_program(n_frames=9)
        schedule = BroadcastSchedule.striped(program, 2)
        loads = [ch.cycle_packets for ch in schedule.channels[1:]]
        assert all(l > 0 for l in loads)

    def test_fine_grained_fallback_when_groups_are_scarce(self):
        # one giant frame: fewer groups than channels -> bucket granularity
        program = toy_program(n_frames=1, objs_per_frame=12)
        schedule = BroadcastSchedule.striped(program, data_channels=4)
        assert all(len(ch) > 0 for ch in schedule.channels)

    def test_errors(self):
        program = toy_program()
        with pytest.raises(ValueError, match="at least one data channel"):
            BroadcastSchedule.striped(program, 0)
        nav_only = BroadcastProgram([Bucket(BucketKind.DSI_TABLE, 1, "t")], "navonly")
        with pytest.raises(ValueError, match="no data bucket"):
            BroadcastSchedule.striped(nav_only, 1)
        data_only = BroadcastProgram([Bucket(BucketKind.DATA, 1, "d")], "dataonly")
        with pytest.raises(ValueError, match="no navigation bucket"):
            BroadcastSchedule.striped(data_only, 1)
        with pytest.raises(ValueError, match="cannot stripe"):
            BroadcastSchedule.striped(toy_program(n_frames=1, objs_per_frame=2), 5)

    def test_describe(self):
        schedule = BroadcastSchedule.striped(toy_program(), 2)
        info = schedule.describe()
        assert info["n_channels"] == 3
        assert [c["role"] for c in info["channels"]] == ["control", "data", "data"]


class TestScheduleView:
    def test_control_channel_shortens_index_waits(self):
        program = toy_program(n_frames=10)
        view = BroadcastSchedule.striped(program, 3).view()
        # on the control channel a table is never more than the (short)
        # control cycle away; on the flat cycle it can be a whole frame away
        control_cycle = view.schedule.channels[0].cycle_packets
        for position in range(0, program.cycle_packets, 13):
            _idx, start = view.next_occurrence_of_kind(BucketKind.DSI_TABLE, position)
            assert start - position <= control_cycle

    def test_switch_latency_charged_on_cross_channel_reads(self):
        program = toy_program()
        schedule = BroadcastSchedule.striped(program, 2)
        view = schedule.view()
        config = SystemConfig(n_channels=3, channel_switch_packets=0)
        config_slow = SystemConfig(n_channels=3, channel_switch_packets=50)
        data_bucket = next(
            i for i, b in enumerate(program.buckets) if b.kind is BucketKind.DATA
        )
        fast = ClientSession(view, config, start_packet=0)
        slow = ClientSession(view, config_slow, start_packet=0)
        r_fast = fast.read_bucket(data_bucket)
        r_slow = slow.read_bucket(data_bucket)
        assert slow.channel == view.channel_of(data_bucket)
        assert slow.channel_switches == 1
        assert r_slow.start >= r_fast.start
        assert r_slow.start >= 50  # cannot receive before the retune finishes
        # same-channel reads never pay the switch
        again = slow.read_bucket(data_bucket)
        assert slow.channel_switches == 1
        assert again.start - r_slow.end < slow.program.schedule.channels[slow.channel].cycle_packets

    def test_kind_seek_from_a_data_channel_waits_for_the_retune(self):
        """A radio parked on a data channel hears no table on the control
        channel before its retune completes: the kind seek's start is the
        earliest table airing from the clock plus the switch cost."""
        program = toy_program()
        view = BroadcastSchedule.striped(program, 2).view()
        kinds = [b.kind for b in program.buckets]
        tables = [i for i, kind in enumerate(kinds) if kind is BucketKind.DSI_TABLE]
        data = [i for i, kind in enumerate(kinds) if kind is BucketKind.DATA]
        shifted = 0
        for switch in (1, 3, 7):
            config = SystemConfig(n_channels=3, channel_switch_packets=switch)
            for start_packet in range(0, view.cycle_packets, 5):
                for bucket in data:
                    session = ClientSession(view, config, start_packet=start_packet)
                    session.read_bucket(bucket)
                    assert session.channel == view.channel_of(bucket) != 0
                    clock = session.clock
                    want = min((view.next_occurrence(t, clock + switch), t) for t in tables)
                    got = session.read_next_bucket(kind=BucketKind.DSI_TABLE)
                    assert (got.start, got.bucket_index) == want
                    shifted += min(view.next_occurrence(t, clock) for t in tables) < want[0]
        assert shifted  # some table aired during a retune, so the rule bites

    def test_next_arrival_matches_what_reads_achieve(self):
        """Planning (next_arrival) and execution (read_bucket) agree on the
        earliest receivable start, switch latency included -- the search
        strategies rank candidates by arrivals the reads then hit exactly."""
        program = toy_program()
        view = BroadcastSchedule.striped(program, 2).view()
        config = SystemConfig(n_channels=3, channel_switch_packets=25)
        for bucket_index in range(len(program)):
            session = ClientSession(view, config, start_packet=0)
            planned = session.next_arrival(bucket_index)
            result = session.read_bucket(bucket_index)
            assert result.start == planned
        # single-channel sessions: next_arrival is plain next_occurrence
        legacy = ClientSession(program, SystemConfig(), start_packet=0)
        assert legacy.next_arrival(4) == program.next_occurrence(4, legacy.clock)

    def test_session_metrics_report_switches(self):
        program = toy_program()
        view = BroadcastSchedule.striped(program, 2).view()
        session = ClientSession(view, SystemConfig(n_channels=3), start_packet=0)
        session.initial_probe()
        session.read_next_bucket(kind=BucketKind.DATA)
        metrics = session.metrics()
        assert metrics.channel_switches == session.channel_switches == 1


class TestMultiChannelQueries:
    @pytest.fixture(scope="class")
    def setup(self, small_uniform):
        from repro.api import build_index

        config = SystemConfig(packet_capacity=64)
        index = build_index("dsi", small_uniform, config)
        return small_uniform, config, index

    @pytest.mark.parametrize("n_channels", [2, 4])
    def test_answers_identical_to_single_channel(self, setup, n_channels):
        dataset, config, index = setup
        view = BroadcastSchedule.for_config(
            index.program, config.with_channels(n_channels)
        ).view()
        for trial in list(window_workload(5, 0.1, seed=8)) + list(knn_workload(5, k=5, seed=9)):
            query = trial.query
            cycle1 = index.program.cycle_packets
            s1 = ClientSession(index.program, config,
                               start_packet=int(trial.tune_in_fraction * cycle1) % cycle1)
            s2 = ClientSession(view, config.with_channels(n_channels),
                               start_packet=int(trial.tune_in_fraction * view.cycle_packets)
                               % view.cycle_packets)
            if hasattr(query, "window"):
                o1, o2 = index.window_query(query.window, s1), index.window_query(query.window, s2)
            else:
                o1, o2 = index.knn_query(query.point, query.k, s1), index.knn_query(
                    query.point, query.k, s2)
            assert sorted(o.oid for o in o1.objects) == sorted(o.oid for o in o2.objects)
            assert matches(dataset, query, o2.objects)
