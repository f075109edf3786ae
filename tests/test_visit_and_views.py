"""Tests for intra-frame object retrieval and the client-facing air view."""

from __future__ import annotations

import pytest

from repro.broadcast import ClientSession, LinkErrorModel, SystemConfig
from repro.core import ClientKnowledge, DsiIndex, DsiParameters, visit_frame_for_ranges
from repro.core.visit import fetch_object
from repro.spatial import uniform_dataset


@pytest.fixture(scope="module")
def built():
    dataset = uniform_dataset(160, seed=61)
    config = SystemConfig(packet_capacity=64)
    index = DsiIndex(dataset, config, DsiParameters(object_factor=8))
    return dataset, config, index


def knowledge_for(index):
    return ClientKnowledge(index.n_frames, index.n_segments, index.curve.max_value)


class TestFetchObject:
    def test_fetch_returns_payload(self, built):
        _dataset, config, index = built
        view = index.air_view()
        session = ClientSession(index.program, config, start_packet=0)
        obj = fetch_object(session, view, frame_pos=0, slot=0)
        assert obj is not None and obj.oid == index.frames[0].objects[0].oid

    def test_fetch_charges_object_packets(self, built):
        _dataset, config, index = built
        view = index.air_view()
        session = ClientSession(index.program, config, start_packet=0)
        before = session.tuning_packets
        fetch_object(session, view, frame_pos=0, slot=1)
        assert session.tuning_packets - before == config.object_packets

    def test_fetch_retries_once_on_data_loss(self, built):
        _dataset, config, index = built
        view = index.air_view()
        # With theta=1 on data buckets both attempts fail and None is returned.
        session = ClientSession(
            index.program, config, start_packet=0,
            error_model=LinkErrorModel(theta=1.0, scope="data", seed=1),
        )
        assert fetch_object(session, view, frame_pos=0, slot=0) is None
        assert session.lost_reads == 2


class TestVisitFrame:
    def test_visit_retrieves_exactly_matching_objects(self, built):
        _dataset, config, index = built
        view = index.air_view()
        frame = index.frames[2]
        ranges = [(frame.objects[1].hc, frame.objects[-2].hc)]
        session = ClientSession(index.program, config, start_packet=0)
        knowledge = knowledge_for(index)
        table = index.tables[2]
        visit = visit_frame_for_ranges(session, view, knowledge, 2, table, ranges)
        expected = {o.oid for o in frame.objects if ranges[0][0] <= o.hc <= ranges[0][1]}
        assert {o.oid for o in visit.retrieved} == expected
        assert knowledge.rank_of_pos(2) in knowledge.examined

    def test_visit_with_empty_ranges_reads_nothing(self, built):
        _dataset, config, index = built
        view = index.air_view()
        session = ClientSession(index.program, config, start_packet=0)
        knowledge = knowledge_for(index)
        visit = visit_frame_for_ranges(session, view, knowledge, 1, index.tables[1], [])
        assert visit.retrieved == []
        assert session.tuning_packets == 0

    def test_visit_scan_fallback_when_directory_lost(self, built):
        _dataset, config, index = built
        view = index.air_view()
        frame = index.frames[3]
        ranges = [(frame.min_hc, frame.max_hc)]
        # Corrupt every non-navigation bucket except data: scope="data" hits
        # both the directory and the data buckets, so force directory-only
        # loss by using scope="data" with retries soaking up data losses is
        # not possible; instead drop the directory by building an index
        # without one and checking the scan path.
        no_dir = DsiIndex(
            index.dataset, index.config, DsiParameters(object_factor=8, use_directory=False)
        )
        no_dir_view = no_dir.air_view()
        session = ClientSession(no_dir.program, index.config, start_packet=0)
        knowledge = ClientKnowledge(no_dir.n_frames, 1, no_dir.curve.max_value)
        frame3 = no_dir.frames[3]
        visit = visit_frame_for_ranges(
            session, no_dir_view, knowledge, 3, no_dir.tables[3],
            [(frame3.min_hc, frame3.max_hc)],
        )
        assert {o.oid for o in visit.retrieved} == {o.oid for o in frame3.objects}

    def test_directory_disabled_index_still_answers_queries(self, built):
        dataset, config, _index = built
        from repro.spatial import Point, Rect
        from repro.queries import WindowQuery, matches

        no_dir = DsiIndex(dataset, config, DsiParameters(object_factor=8, use_directory=False))
        window = Rect(0.2, 0.2, 0.6, 0.6)
        session = ClientSession(no_dir.program, config, start_packet=100)
        result = no_dir.window_query(window, session)
        assert matches(dataset, WindowQuery(window), result.objects)


class TestAirView:
    def test_view_exposes_system_constants(self, built):
        _dataset, config, index = built
        view = index.air_view()
        assert view.n_frames == index.n_frames
        assert view.n_segments == index.params.n_segments
        assert view.config is config

    def test_view_bucket_addressing_roundtrip(self, built):
        _dataset, _config, index = built
        view = index.air_view()
        for pos in range(index.n_frames):
            assert view.program.buckets[view.table_bucket(pos)].meta["frame_pos"] == pos
            buckets = view.frame_object_buckets(pos)
            assert len(buckets) == len(index.frames[pos].objects)
            assert view.object_bucket_in_frame(pos, 0) == buckets[0]

    def test_view_rank_arithmetic_delegates(self, built):
        _dataset, _config, index = built
        view = index.air_view()
        for pos in range(index.n_frames):
            assert view.rank_of_pos(pos) == index.rank_of_pos(pos)
            assert view.pos_of_rank(view.rank_of_pos(pos)) == pos
