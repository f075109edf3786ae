"""Tests for the broadcast substrate: config, program, client, errors."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast import (
    BroadcastProgram,
    Bucket,
    BucketKind,
    ClientSession,
    LinkErrorModel,
    SystemConfig,
)
from repro.broadcast.client import AccessMetrics


def make_program(sizes, kinds=None):
    kinds = kinds or [BucketKind.DATA] * len(sizes)
    buckets = [
        Bucket(kind=k, n_packets=s, payload=i, meta={"i": i})
        for i, (s, k) in enumerate(zip(sizes, kinds))
    ]
    return BroadcastProgram(buckets, name="test")


class TestSystemConfig:
    def test_defaults_match_paper(self):
        cfg = SystemConfig()
        assert cfg.packet_capacity == 64
        assert cfg.object_size == 1024
        assert cfg.coord_size == 16
        assert cfg.hc_value_size == 16
        assert cfg.pointer_size == 2

    def test_derived_entry_sizes(self):
        cfg = SystemConfig()
        assert cfg.dsi_entry_size == 18
        assert cfg.bptree_entry_size == 18
        assert cfg.rtree_entry_size == 34

    def test_object_packets(self):
        assert SystemConfig(packet_capacity=64).object_packets == 16
        assert SystemConfig(packet_capacity=512).object_packets == 2

    def test_packets_for_rounding(self):
        cfg = SystemConfig(packet_capacity=64)
        assert cfg.packets_for(1) == 1
        assert cfg.packets_for(64) == 1
        assert cfg.packets_for(65) == 2
        assert cfg.packets_for(0) == 1

    def test_with_capacity(self):
        cfg = SystemConfig().with_capacity(256)
        assert cfg.packet_capacity == 256 and cfg.object_size == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(packet_capacity=4)
        with pytest.raises(ValueError):
            SystemConfig(object_size=0)


class TestBroadcastProgram:
    def test_offsets_and_cycle_length(self):
        prog = make_program([2, 3, 1])
        assert prog.cycle_packets == 6
        assert [prog.start_of(i) for i in range(3)] == [0, 2, 5]

    def test_next_occurrence_same_cycle(self):
        prog = make_program([2, 3, 1])
        assert prog.next_occurrence(1, 0) == 2
        assert prog.next_occurrence(1, 2) == 2
        assert prog.next_occurrence(1, 3) == 8  # wrapped into the next cycle

    def test_next_occurrence_far_future(self):
        prog = make_program([2, 3, 1])
        assert prog.next_occurrence(0, 600) == 600
        assert prog.next_occurrence(2, 601) == 605

    def test_next_bucket_after(self):
        prog = make_program([2, 3, 1])
        assert prog.next_bucket_after(0) == (0, 0)
        assert prog.next_bucket_after(1) == (1, 2)
        assert prog.next_bucket_after(5) == (2, 5)
        assert prog.next_bucket_after(6) == (0, 6)

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError):
            BroadcastProgram([])

    def test_counts_by_kind(self):
        prog = make_program([1, 1, 2], [BucketKind.DATA, BucketKind.DSI_TABLE, BucketKind.DATA])
        assert 0 < prog.index_overhead_fraction() < 1
        assert prog.index_overhead_fraction() == 1 / 4

    def test_bucket_requires_positive_packets(self):
        with pytest.raises(ValueError):
            Bucket(kind=BucketKind.DATA, n_packets=0, payload=None)

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=10),
           st.integers(min_value=0, max_value=200))
    @settings(max_examples=50)
    def test_next_occurrence_is_future_start(self, sizes, not_before):
        prog = make_program(sizes)
        for i in range(len(sizes)):
            start = prog.next_occurrence(i, not_before)
            assert start >= not_before
            assert (start - prog.start_of(i)) % prog.cycle_packets == 0


class TestBucketKind:
    def test_is_index(self):
        assert BucketKind.DSI_TABLE.is_index
        assert BucketKind.TREE_NODE.is_index
        assert not BucketKind.DATA.is_index

    def test_is_navigation(self):
        assert BucketKind.DSI_TABLE.is_navigation
        assert BucketKind.CONTROL.is_navigation
        assert not BucketKind.DSI_DIRECTORY.is_navigation
        assert not BucketKind.DATA.is_navigation


class TestClientSession:
    def test_initial_probe_costs_one_packet(self):
        prog = make_program([2, 3, 1])
        cfg = SystemConfig(packet_capacity=64)
        sess = ClientSession(prog, cfg, start_packet=0)
        sess.initial_probe()
        assert sess.tuning_packets == 1
        assert sess.latency_packets == 1

    def test_read_bucket_accounting(self):
        prog = make_program([2, 3, 1])
        cfg = SystemConfig(packet_capacity=64)
        sess = ClientSession(prog, cfg, start_packet=0)
        res = sess.read_bucket(1)
        assert res.ok and res.payload == 1
        assert sess.latency_packets == 5       # waited 2, received 3
        assert sess.tuning_packets == 3
        assert sess.latency_bytes == 5 * 64

    def test_read_wrapped_bucket(self):
        prog = make_program([2, 3, 1])
        cfg = SystemConfig(packet_capacity=64)
        sess = ClientSession(prog, cfg, start_packet=4)
        res = sess.read_bucket(0)  # already passed; wait for next cycle
        assert res.start == 6
        assert sess.latency_packets == 4

    def test_tuning_never_exceeds_latency(self):
        prog = make_program([2, 3, 1, 4])
        sess = ClientSession(prog, SystemConfig(), start_packet=2)
        sess.initial_probe()
        for i in (2, 3, 0, 1):
            sess.read_bucket(i)
        assert sess.tuning_packets <= sess.latency_packets
        metrics = sess.metrics()
        assert metrics.latency_bytes >= metrics.tuning_bytes

    def test_negative_start_rejected(self):
        prog = make_program([1])
        with pytest.raises(ValueError):
            ClientSession(prog, SystemConfig(), start_packet=-1)

    def test_metrics_validation(self):
        with pytest.raises(ValueError):
            AccessMetrics(latency_bytes=0, tuning_bytes=10, latency_packets=0, tuning_packets=10)


class TestLinkErrorModel:
    def _bucket(self, kind):
        return Bucket(kind=kind, n_packets=1, payload=None)

    def test_theta_zero_never_loses(self):
        model = LinkErrorModel(theta=0.0, scope="all", seed=1)
        assert not any(model.is_lost(self._bucket(BucketKind.DSI_TABLE), t) for t in range(100))

    def test_theta_one_always_loses_in_scope(self):
        model = LinkErrorModel(theta=1.0, scope="index", seed=1)
        assert all(model.is_lost(self._bucket(BucketKind.DSI_TABLE), t) for t in range(10))
        assert not any(model.is_lost(self._bucket(BucketKind.DATA), t) for t in range(10))

    def test_scope_data(self):
        model = LinkErrorModel(theta=1.0, scope="data", seed=1)
        assert model.is_lost(self._bucket(BucketKind.DATA), 0)
        assert not model.is_lost(self._bucket(BucketKind.DSI_TABLE), 1)

    def test_scope_none(self):
        model = LinkErrorModel(theta=0.9, scope="none", seed=1)
        assert not model.is_lost(self._bucket(BucketKind.DATA), 0)

    def test_loss_rate_close_to_theta(self):
        model = LinkErrorModel(theta=0.3, scope="all", seed=7)
        losses = sum(model.is_lost(self._bucket(BucketKind.DATA), t) for t in range(4000))
        assert 0.25 < losses / 4000 < 0.35

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LinkErrorModel(theta=1.5)
        with pytest.raises(ValueError):
            LinkErrorModel(theta=0.5, scope="bogus")

    def test_session_counts_lost_reads(self):
        prog = make_program([1, 1], [BucketKind.DSI_TABLE, BucketKind.DSI_TABLE])
        sess = ClientSession(
            prog, SystemConfig(), start_packet=0,
            error_model=LinkErrorModel(theta=1.0, scope="index", seed=3),
        )
        res = sess.read_bucket(0)
        assert not res.ok and res.payload is None
        assert sess.lost_reads == 1
