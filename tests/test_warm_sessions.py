"""Warm continuous sessions: correctness, equivalence and accounting.

The mobility subsystem's core claim is that *warm* re-evaluation -- one
persistent :class:`ClientSession` plus per-index knowledge carried across
queries -- changes only what a query costs, never what it answers:

* hypothesis drives random (index, channels, link errors, query stream)
  scenarios and checks that a warm session re-running a query returns
  results identical to a cold session (and to brute-force ground truth);
* warm sessions must actually pay less: knowledge can only reduce tuning;
* per-query metric snapshots keep the paper's tuning <= latency invariant
  per hop and sum correctly across a journey;
* channel-switch accounting stays exact under striped multi-channel
  schedules **with link errors** (a recording session recomputes switches
  from the raw read trace);
* a tree query's ``nodes_read`` / ``objects_read`` equal the successful
  node and data receptions in the same raw trace, cold and warm.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast.client import ClientSession
from repro.broadcast.config import SystemConfig
from repro.broadcast.errors import LinkErrorModel
from repro.broadcast.program import BucketKind
from repro.broadcast.schedule import BroadcastSchedule
from repro.queries.ground_truth import matches
from repro.queries.workload import mixed_workload
from repro.sim.runner import build_index, execute_query
from repro.spatial.datasets import uniform_dataset

INDEXES = ("dsi", "rtree", "hci")

_DATASET = uniform_dataset(350, seed=7)
_WORKLOAD = mixed_workload(24, win_side_ratio=0.15, k=4, seed=11)


def _setup(index_name: str, n_channels: int):
    config = SystemConfig(packet_capacity=64, n_channels=n_channels)
    index = build_index(index_name, _DATASET, config, use_cache=True)
    view = BroadcastSchedule.for_config(index.program, config).view()
    return config, index, view


class TestWarmEqualsCold:
    @given(
        index_name=st.sampled_from(INDEXES),
        n_channels=st.sampled_from((1, 3)),
        theta=st.sampled_from((None, 0.1, 0.25)),
        start=st.integers(min_value=0, max_value=10_000),
        first=st.integers(min_value=0, max_value=len(_WORKLOAD) - 1),
        n_hops=st.integers(min_value=2, max_value=5),
        dwell=st.integers(min_value=0, max_value=5_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_warm_results_identical_to_cold(
        self, index_name, n_channels, theta, start, first, n_hops, dwell
    ):
        """A warm session's answers match a cold session's, hop for hop.

        With errors scoped to index buckets (the paper's model) every
        execution is still exact, so warm and cold must return the same
        objects even though their read sequences -- and hence their loss
        realisations -- differ.
        """
        config, index, view = _setup(index_name, n_channels)
        cycle = view.cycle_packets
        trials = list(_WORKLOAD)
        state = index.new_client_state() if hasattr(index, "new_client_state") else None

        def error_model(seed):
            if theta is None:
                return None
            return LinkErrorModel(theta=theta, scope="index", seed=seed)

        session = ClientSession(
            view, config, start_packet=start % cycle, error_model=error_model(start)
        )
        for hop in range(n_hops):
            if hop:
                session.next_query(dwell_packets=dwell)
            trial = trials[(first + hop) % len(trials)]
            warm = execute_query(index, trial.query, session, state=state)
            cold_session = ClientSession(
                view, config,
                start_packet=session.start_clock % cycle,
                error_model=error_model(start + 1 + hop),
            )
            cold = execute_query(index, trial.query, cold_session)
            warm_ids = sorted(o.oid for o in warm.objects)
            cold_ids = sorted(o.oid for o in cold.objects)
            assert warm_ids == cold_ids, (
                f"hop {hop}: warm {warm_ids} != cold {cold_ids}"
            )
            assert matches(_DATASET, trial.query, warm.objects)
            metrics = warm.metrics
            assert metrics.tuning_packets <= metrics.latency_packets + 1


class TestWarmIsCheaper:
    @pytest.mark.parametrize("index_name", INDEXES)
    def test_repeated_query_never_tunes_more(self, index_name):
        """Re-running the very same query warm cannot cost more tuning than
        the cold run did from the same relative situation."""
        config, index, view = _setup(index_name, 1)
        cycle = view.cycle_packets
        state = index.new_client_state()
        trial = list(_WORKLOAD)[0]

        session = ClientSession(view, config, start_packet=100)
        cold = execute_query(index, trial.query, session, state=state)
        # Re-tune at the same cycle phase, warm.
        resume = session.clock + (cycle - (session.clock - 100) % cycle) % cycle
        session.next_query(dwell_packets=resume - session.clock)
        warm = execute_query(index, trial.query, session, state=state)
        assert warm.metrics.tuning_bytes <= cold.metrics.tuning_bytes
        assert sorted(o.oid for o in warm.objects) == sorted(o.oid for o in cold.objects)

    @pytest.mark.parametrize("index_name", INDEXES)
    def test_journey_tuning_beats_cold_journeys(self, index_name):
        """Across a mixed stream, total warm tuning must not exceed total
        cold tuning from the identical tune-in positions."""
        config, index, view = _setup(index_name, 1)
        cycle = view.cycle_packets
        state = index.new_client_state()
        session = ClientSession(view, config, start_packet=17)
        warm_total = cold_total = 0
        for i, trial in enumerate(list(_WORKLOAD)[:10]):
            if i:
                session.next_query(dwell_packets=997)
            warm = execute_query(index, trial.query, session, state=state)
            cold_session = ClientSession(
                view, config, start_packet=session.start_clock % cycle
            )
            cold = execute_query(index, trial.query, cold_session)
            warm_total += warm.metrics.tuning_bytes
            cold_total += cold.metrics.tuning_bytes
        assert warm_total <= cold_total


class TestSessionContinuity:
    def test_next_query_resets_per_query_metrics(self):
        config, index, view = _setup("dsi", 1)
        session = ClientSession(view, config, start_packet=0)
        trial = list(_WORKLOAD)[0]
        first = execute_query(index, trial.query, session).metrics
        clock_after = session.clock
        session.next_query(dwell_packets=123)
        assert session.clock == clock_after + 123
        assert session.start_clock == session.clock
        assert session.latency_packets == 0
        assert session.query_tuning_packets == 0
        assert session.metrics().tuning_bytes == 0
        assert session.queries_started == 2
        second = execute_query(index, trial.query, session).metrics
        # Cumulative counters keep the journey total.
        assert session.tuning_packets * config.packet_capacity == (
            first.tuning_bytes + second.tuning_bytes
        )

    def test_negative_dwell_rejected(self):
        config, index, view = _setup("dsi", 1)
        session = ClientSession(view, config)
        with pytest.raises(ValueError, match="dwell_packets"):
            session.next_query(dwell_packets=-1)


class _RecordingSession(ClientSession):
    """A session that logs every reception and the channel it came on."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read_channels = []
        self.receptions = []

    def _receive(self, bucket_index, start):
        result = super()._receive(bucket_index, start)
        if self.channel is not None:
            self.read_channels.append(self.program.channel_of(bucket_index))
        self.receptions.append(result)
        return result


class TestTreeSweepCounters:
    """A tree query's counters equal the reads it made: ``nodes_read`` the
    successful TREE_NODE and CONTROL receptions, ``objects_read`` the
    successful DATA receptions -- window and kNN, lossy or not, and warm,
    where cached nodes are expanded without a reception."""

    @pytest.mark.parametrize("scope", [None, "index", "all", "data"])
    @pytest.mark.parametrize("n_channels", [1, 3])
    @pytest.mark.parametrize("index_name", ["rtree", "hci"])
    def test_counters_match_receptions(self, index_name, n_channels, scope):
        config, index, view = _setup(index_name, n_channels)
        lost = 0
        for warm in (False, True):
            state = index.new_client_state() if warm else None
            session = _RecordingSession(
                view, config, start_packet=29,
                error_model=(None if scope is None
                             else LinkErrorModel(theta=0.2, scope=scope, seed=41)),
            )
            for i, trial in enumerate(_WORKLOAD):
                if i:
                    session.next_query(dwell_packets=613)
                mark = len(session.receptions)
                outcome = execute_query(index, trial.query, session, state=state)
                received = [r.bucket.kind for r in session.receptions[mark:] if r.ok]
                assert outcome.nodes_read == (
                    received.count(BucketKind.TREE_NODE)
                    + received.count(BucketKind.CONTROL)
                )
                assert outcome.objects_read == received.count(BucketKind.DATA)
            lost += session.lost_reads
        assert (lost > 0) == (scope is not None)


class TestChannelSwitchAccountingWithErrors:
    """Striped multi-channel schedules + link errors: the switch counter
    must equal the number of channel changes in the actual read trace
    (previous coverage was error-free only)."""

    @pytest.mark.parametrize("index_name", INDEXES)
    @pytest.mark.parametrize("scope", ["index", "all"])
    def test_switches_match_read_trace(self, index_name, scope):
        config = SystemConfig(packet_capacity=64, n_channels=3)
        index = build_index(index_name, _DATASET, config, use_cache=True)
        view = BroadcastSchedule.for_config(index.program, config).view()
        home = view.home_channel
        switched_some = 0
        lost_some = 0
        for i, trial in enumerate(list(_WORKLOAD)[:8]):
            session = _RecordingSession(
                view, config,
                start_packet=(131 * i) % view.cycle_packets,
                error_model=LinkErrorModel(theta=0.15, scope=scope, seed=900 + i),
            )
            outcome = execute_query(index, trial.query, session)
            expected = 0
            current = home
            for channel in session.read_channels:
                if channel != current:
                    expected += 1
                    current = channel
            metrics = outcome.metrics
            assert metrics.channel_switches == session.channel_switches == expected
            assert session.channel == current
            assert metrics.tuning_packets <= metrics.latency_packets + 1
            switched_some += expected
            lost_some += session.lost_reads
            if scope == "index":
                # Index-scoped losses keep every answer exact.
                assert matches(_DATASET, trial.query, outcome.objects)
        # The scenario must actually exercise what it claims to test.
        assert switched_some > 0, "no channel switches observed on a striped schedule"
        assert lost_some > 0, "error model produced no losses"

    def test_warm_sessions_keep_switch_accounting(self):
        """A warm multi-hop session on a striped lossy schedule: per-hop
        switch counts sum to the session total."""
        config = SystemConfig(packet_capacity=64, n_channels=3)
        index = build_index("dsi", _DATASET, config, use_cache=True)
        view = BroadcastSchedule.for_config(index.program, config).view()
        state = index.new_client_state()
        session = _RecordingSession(
            view, config, start_packet=7,
            error_model=LinkErrorModel(theta=0.1, scope="index", seed=5),
        )
        per_hop = 0
        for i, trial in enumerate(list(_WORKLOAD)[:5]):
            if i:
                session.next_query(dwell_packets=499)
            outcome = execute_query(index, trial.query, session, state=state)
            per_hop += outcome.metrics.channel_switches
            assert matches(_DATASET, trial.query, outcome.objects)
        expected = 0
        current = view.home_channel
        for channel in session.read_channels:
            if channel != current:
                expected += 1
                current = channel
        assert per_hop == session.channel_switches == expected
