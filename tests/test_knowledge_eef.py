"""Tests for client-side knowledge and energy-efficient forwarding."""

from __future__ import annotations

import random

import pytest

from repro.broadcast import ClientSession, SystemConfig
from repro.core import ClientKnowledge, DsiIndex, DsiParameters, read_table
from repro.spatial import Rect, uniform_dataset
from repro.spatial.hilbert import WINDOW_MAX_DEPTH, WINDOW_MAX_RANGES


def fresh_knowledge(index):
    return ClientKnowledge(index.n_frames, index.n_segments, index.curve.max_value)


def point_window(index, hc):
    """A query window whose HC cover is the single value ``hc``."""
    p = index.curve.representative_point(hc)
    window = Rect(p.x, p.y, p.x, p.y)
    cover = index.curve.ranges_for_rect(
        window, max_ranges=WINDOW_MAX_RANGES, max_depth=WINDOW_MAX_DEPTH
    )
    assert cover == [(hc, hc)]
    return window


class TestClientKnowledge:
    def test_requires_divisible_segments(self):
        with pytest.raises(ValueError):
            ClientKnowledge(10, 3, 1 << 10)
        with pytest.raises(ValueError):
            ClientKnowledge(0, 1, 1 << 10)

    def test_rank_pos_arithmetic_matches_index(self, dsi_m2):
        knowledge = fresh_knowledge(dsi_m2)
        for pos in range(dsi_m2.n_frames):
            assert knowledge.rank_of_pos(pos) == dsi_m2.rank_of_pos(pos)
            assert knowledge.pos_of_rank(knowledge.rank_of_pos(pos)) == pos

    def test_learn_table_adds_samples(self, dsi_m1):
        knowledge = fresh_knowledge(dsi_m1)
        knowledge.learn_table(dsi_m1.tables[0])
        assert knowledge.known_count >= len(dsi_m1.tables[0].entries)
        assert knowledge.global_min_hc == dsi_m1.frames_by_rank[0].min_hc

    def test_rank_interval_contains_true_candidates(self, dsi_m1):
        knowledge = fresh_knowledge(dsi_m1)
        knowledge.learn_table(dsi_m1.tables[0])
        knowledge.learn_table(dsi_m1.tables[len(dsi_m1.tables) // 2])
        rng = random.Random(5)
        space = dsi_m1.curve.max_value
        for _ in range(50):
            lo = rng.randrange(space)
            hi = min(space - 1, lo + rng.randrange(space // 10))
            candidates = set(knowledge.candidate_rank_array([(lo, hi)]).tolist())
            # Every frame whose true extent intersects [lo, hi] must be a candidate.
            for rank in range(dsi_m1.n_frames):
                e_lo, e_hi = dsi_m1.frame_extent(rank)
                if not (e_hi < lo or e_lo > hi):
                    assert rank in candidates

    def test_candidate_ranks_shrink_with_knowledge(self, dsi_m1):
        sparse = fresh_knowledge(dsi_m1)
        sparse.learn_table(dsi_m1.tables[0])
        dense = fresh_knowledge(dsi_m1)
        for table in dsi_m1.tables:
            dense.learn_table(table)
        lo, hi = dsi_m1.frame_extent(dsi_m1.n_frames // 2)
        assert len(dense.candidate_rank_array([(lo, hi)])) <= len(
            sparse.candidate_rank_array([(lo, hi)])
        )

    def test_examined_ranks_are_skipped(self, dsi_m1):
        knowledge = fresh_knowledge(dsi_m1)
        knowledge.learn_table(dsi_m1.tables[0])
        full = knowledge.candidate_rank_array([(0, dsi_m1.curve.max_value - 1)])
        knowledge.mark_examined(int(full[0]))
        assert full[0] not in knowledge.candidate_rank_array([(0, dsi_m1.curve.max_value - 1)])


class TestEnergyEfficientForwarding:
    """The paper's EEF is the planners' arrival-ordered walk (see
    ``repro.core.window``): a point window forwards to the frame whose HC
    extent covers the point, reading one index table per hop."""

    @pytest.mark.parametrize("segments", [1, 2])
    @pytest.mark.parametrize("capacity", [64, 256])
    def test_eef_reaches_covering_frame(self, segments, capacity):
        dataset = uniform_dataset(180, seed=23)
        config = SystemConfig(packet_capacity=capacity)
        index = DsiIndex(dataset, config, DsiParameters(n_segments=segments))
        rng = random.Random(99)
        for _ in range(25):
            # Values below frame rank 0's minimum belong to no frame.
            target = rng.randrange(index.frames_by_rank[0].min_hc, index.curve.max_value)
            start = rng.randrange(index.program.cycle_packets)
            session = ClientSession(index.program, config, start_packet=start)
            knowledge = fresh_knowledge(index)
            index.window_query(point_window(index, target), session, state=knowledge)
            assert index.frame_rank_covering(target) in knowledge.examined

    def test_eef_hop_count_is_logarithmic(self):
        dataset = uniform_dataset(512, seed=31)
        config = SystemConfig(packet_capacity=64)
        index = DsiIndex(dataset, config, DsiParameters(n_segments=1))
        rng = random.Random(3)
        budget = 2 * index.n_frames.bit_length() + 6
        for _ in range(10):
            target = rng.randrange(index.curve.max_value)
            session = ClientSession(index.program, config, start_packet=0)
            result = index.window_query(point_window(index, target), session)
            assert result.tables_read <= budget

    def test_read_table_learns_knowledge(self, dsi_m1, config64):
        view = dsi_m1.air_view()
        session = ClientSession(dsi_m1.program, config64, start_packet=0)
        knowledge = fresh_knowledge(dsi_m1)
        pos, table = read_table(session, view, knowledge, 3)
        assert pos == 3
        assert table.frame_pos == 3
        assert knowledge.known_count > 0
