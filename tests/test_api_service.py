"""BroadcastServer / MobileClient service layer (repro.api)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BroadcastServer,
    ClientSession,
    DsiParameters,
    LinkErrorModel,
    SystemConfig,
    uniform_dataset,
)
from repro.api import IndexSpec, clear_index_cache
from repro.mobility import run_journey, trajectory_workload
from repro.mobility.trajectory import DEFAULT_DWELL_PACKETS
from repro.queries import KnnQuery, Trial, WindowQuery, knn_workload, mixed_workload
from repro.queries.workload import skewed_workload
from repro.sim import run_workload
from repro.sim.fleet import run_fleet, run_mobile_fleet
from repro.sim.runner import execute_query
from repro.spatial import Point, Rect


@pytest.fixture(scope="module")
def dataset():
    return uniform_dataset(180, seed=9)


@pytest.fixture(scope="module")
def config64():
    return SystemConfig(packet_capacity=64)


@pytest.fixture(scope="module")
def server(dataset, config64):
    return BroadcastServer(dataset, config64, index="dsi")


class TestBroadcastServer:
    def test_builds_through_registry(self, server):
        assert server.index.name == "DSI"
        assert server.cycle_packets == server.program.cycle_packets
        assert server.cycle_bytes == server.cycle_packets * 64

    def test_spec_and_string_and_instance(self, dataset, config64):
        by_spec = BroadcastServer(
            dataset, config64,
            index=IndexSpec(kind="dsi", dsi_params=DsiParameters(n_segments=1)),
        )
        assert by_spec.index.params.n_segments == 1
        prebuilt = BroadcastServer(dataset, config64, index=by_spec.index)
        assert prebuilt.index is by_spec.index and prebuilt.spec is None

    def test_rejects_non_conforming_index(self, dataset, config64):
        with pytest.raises(TypeError, match="AirIndex protocol"):
            BroadcastServer(dataset, config64, index=object())

    def test_cached_builds_shared_between_servers(self, dataset, config64):
        clear_index_cache()
        a = BroadcastServer(dataset, config64, index="hci")
        b = BroadcastServer(dataset, config64, index="hci")
        assert a.index is b.index
        fresh = BroadcastServer(dataset, config64, index="hci", use_cache=False)
        assert fresh.index is not a.index
        clear_index_cache()

    def test_stats_and_describe(self, server, dataset):
        stats = server.stats()
        assert stats["n_objects"] == len(dataset)
        assert 0 < stats["index_overhead"] < 1
        assert server.describe()["index"] == "DSI"


class TestMobileClient:
    def test_tune_in_defaults_are_seeded(self, server):
        starts_a = [server.client(seed=7).tune_in().start_clock for _ in range(3)]
        starts_b = [server.client(seed=7).tune_in().start_clock for _ in range(3)]
        assert starts_a == starts_b
        many = [server.client(seed=i).tune_in().start_clock for i in range(16)]
        assert len(set(many)) > 1  # actually random across seeds

    def test_tune_in_positions(self, server):
        client = server.client(seed=1)
        assert client.tune_in(0).start_clock == 0
        cycle = server.cycle_packets
        assert client.tune_in(0.5).start_clock == int(0.5 * cycle) % cycle
        with pytest.raises(ValueError):
            client.tune_in(1.5)
        with pytest.raises(ValueError):
            client.tune_in(-1)
        with pytest.raises(ValueError):
            client.tune_in(cycle)  # one past the last packet of the cycle
        with pytest.raises(TypeError):
            client.tune_in("now")

    def test_session_start_packet_validated(self, server, config64):
        with pytest.raises(ValueError, match="start_packet must be in"):
            ClientSession(server.program, config64, start_packet=server.cycle_packets)
        with pytest.raises(ValueError, match="start_packet must be in"):
            ClientSession(server.program, config64, start_packet=-3)

    def test_queries_record_history_and_totals(self, server):
        client = server.client(seed=11)
        w = client.window_query(Rect(0.1, 0.1, 0.5, 0.5))
        k = client.knn_query(Point(0.3, 0.3), k=3)
        assert client.queries_run == 2
        assert client.last.outcome is k
        assert client.total_latency_bytes == (
            w.metrics.latency_bytes + k.metrics.latency_bytes
        )
        assert client.total_tuning_bytes == (
            w.metrics.tuning_bytes + k.metrics.tuning_bytes
        )
        summary = client.summary()
        assert summary.trials == 2
        client.reset_metrics()
        assert client.queries_run == 0 and client.last is None

    def test_knn_strategy_forwarded(self, server, dataset, config64):
        aggressive_server = BroadcastServer(
            dataset, config64, index=IndexSpec("dsi", knn_strategy="aggressive")
        )
        conservative = server.client(seed=2).knn_query(Point(0.4, 0.6), k=3, at=0)
        aggressive = aggressive_server.client(seed=2).knn_query(Point(0.4, 0.6), k=3, at=0)
        assert [o.oid for o in conservative.objects] == [o.oid for o in aggressive.objects]

    def test_unsupported_query_moves_no_stream(self, server):
        # A rejected query opens no session: the seeded tune-in draw and the
        # lossy link's session ordinal of the next query are untouched.
        errors = LinkErrorModel(theta=0.3, scope="all", seed=5)
        query = KnnQuery(point=Point(0.3, 0.7), k=4)
        client = server.client(error_model=errors, seed=11)
        with pytest.raises(TypeError, match="unsupported query type"):
            client.run(object())
        fresh = server.client(error_model=errors, seed=11)
        assert client.queries_run == 0
        for _ in range(3):
            assert client.run(query).metrics == fresh.run(query).metrics

    def test_batch_matches_run_workload(self, server, dataset, config64):
        workload = mixed_workload(n_queries=8, seed=13)
        client = server.client()
        client.run_batch(workload)
        summary = client.summary()
        reference = run_workload(
            server.index, dataset, config64, workload, verify=False
        )
        assert summary.mean_latency_bytes == reference.mean_latency_bytes
        assert summary.mean_tuning_bytes == reference.mean_tuning_bytes

    def test_error_model_is_pluggable(self, server):
        lossy = server.client(error_model=LinkErrorModel(theta=0.5, scope="index", seed=5))
        clean = server.client(seed=5)
        query = Rect(0.2, 0.2, 0.6, 0.6)
        lossy_result = lossy.window_query(query, at=0)
        clean_result = clean.window_query(query, at=0)
        # Same answer, but the lossy client pays for corrupted receptions.
        assert lossy_result.object_ids == clean_result.object_ids
        assert lossy_result.metrics.tuning_bytes >= clean_result.metrics.tuning_bytes


class TestServerKnnStrategy:
    """A server's kNN strategy is its spec's, and every entry point runs it:
    single queries, batches, fleets, moving fleets and journeys."""

    POINT = Point(0.4, 0.6)

    @pytest.fixture(scope="class")
    def aggressive(self):
        return BroadcastServer(
            uniform_dataset(800, seed=3), SystemConfig(),
            index=IndexSpec("dsi", knn_strategy="aggressive"),
        )

    def test_rule(self, aggressive, dataset, config64):
        assert aggressive.knn_strategy == "aggressive"
        assert BroadcastServer(dataset, config64, index="dsi").knn_strategy == "conservative"
        prebuilt = BroadcastServer(aggressive.dataset, aggressive.config, index=aggressive.index)
        assert prebuilt.spec is None and prebuilt.knn_strategy == "conservative"

    def _explicit(self, server, strategy):
        session = ClientSession(server.schedule.view(), server.config, start_packet=0)
        query = KnnQuery(point=self.POINT, k=5)
        return execute_query(server.index, query, session, knn_strategy=strategy)

    def test_single_queries_run_the_server_strategy(self, aggressive):
        explicit = self._explicit(aggressive, "aggressive")
        conservative = self._explicit(aggressive, "conservative")
        # The two searches read differently here, so the rule is visible.
        assert conservative.metrics.latency_bytes == 841_152
        assert explicit.metrics.latency_bytes == 1_696_960
        query = KnnQuery(point=self.POINT, k=5)
        for outcome in (
            aggressive.client().knn_query(self.POINT, k=5, at=0),
            aggressive.client().run(query, at=0),
            aggressive.client().run_batch([Trial(query, 0.0)])[0],
        ):
            assert outcome.metrics == explicit.metrics
            assert [o.oid for o in outcome.objects] == [o.oid for o in explicit.objects]
        # The same data served from a conservative spec runs the other search.
        other = BroadcastServer(aggressive.dataset, aggressive.config, index=IndexSpec("dsi"))
        assert other.client().knn_query(self.POINT, k=5, at=0).metrics == conservative.metrics

    def test_fleets_and_journeys_run_the_server_strategy(self, aggressive):
        index, dataset, config = aggressive.index, aggressive.dataset, aggressive.config
        workload = knn_workload(6, k=5, seed=4)
        fleet = aggressive.fleet(2_000, workload=workload, seed=1)
        for strategy, same in (("aggressive", True), ("conservative", False)):
            explicit = run_fleet(
                index, dataset, config, workload, 2_000, seed=1, knn_strategy=strategy
            )
            assert np.array_equal(fleet.unique_latency, explicit.unique_latency) is same

        trajectories = trajectory_workload(4, 3, query="knn", k=5, seed=2)
        mobile = aggressive.mobile_fleet(500, trajectories, seed=1)
        explicit = run_mobile_fleet(
            index, dataset, config, trajectories, 500, seed=1, knn_strategy="aggressive"
        )
        assert np.array_equal(mobile.unique_latency, explicit.unique_latency)
        assert np.array_equal(mobile.unique_tuning, explicit.unique_tuning)

        journey = aggressive.client().travel("waypoint", 3, query="knn", k=5, at=0, seed=9)
        steps = trajectory_workload(
            1, 3, "waypoint", query="knn", k=5, dwell_packets=DEFAULT_DWELL_PACKETS, seed=9
        ).journeys[0]
        reference = run_journey(
            index, aggressive.schedule.view(), config, steps, knn_strategy="aggressive"
        )
        assert [h.metrics for h in journey.hops] == [h.metrics for h in reference.hops]


class TestServerSchedule:
    """A server's schedule is the one every entry point airs: fleets, moving
    fleets, single queries and journeys all run on ``server.schedule``."""

    def test_every_entry_point_airs_the_server_schedule(self):
        hot = skewed_workload(n_queries=12, zipf_s=1.1, seed=9)
        server = BroadcastServer(
            uniform_dataset(300, seed=4), SystemConfig(packet_capacity=64),
            index="dsi", channels=4, schedule_policy="optimized", demand=hot, budget=1.8,
        )
        index, dataset, config = server.index, server.dataset, server.config
        assert server.schedule_policy == "optimized"
        assert server.schedule.max_multiplicity > 1  # not the flat layout

        fleet = server.fleet(3_000, workload=hot, seed=5)
        explicit = run_fleet(
            index, dataset, config, hot, 3_000, seed=5, schedule=server.schedule
        )
        trajectories = trajectory_workload(3, 3, query="window", seed=6)
        mobile = server.mobile_fleet(600, trajectories, seed=5)
        explicit_mobile = run_mobile_fleet(
            index, dataset, config, trajectories, 600, seed=5, schedule=server.schedule
        )
        for ours, theirs in ((fleet, explicit), (mobile, explicit_mobile)):
            assert ours.schedule_policy == theirs.schedule_policy == "optimized"
            for name in ("unique_latency", "unique_tuning", "unique_counts"):
                assert np.array_equal(getattr(ours, name), getattr(theirs, name))
            for ours_summary, theirs_summary in (
                (ours.result.latency, theirs.result.latency),
                (ours.result.tuning, theirs.result.tuning),
                (ours.first_index_wait, theirs.first_index_wait),
            ):
                assert ours_summary.mean == theirs_summary.mean
                assert ours_summary.percentile(95) == theirs_summary.percentile(95)

        query = hot.trials[0].query
        start = server.tune_cycle_packets // 3
        single = server.client().window_query(query.window, at=start)
        session = ClientSession(server.schedule.view(), config, start_packet=start)
        reference = execute_query(index, WindowQuery(window=query.window), session)
        assert single.metrics == reference.metrics
        assert sorted(o.oid for o in single.objects) == sorted(
            o.oid for o in reference.objects
        )

        journey = server.client().travel("waypoint", 3, at=start, seed=11)
        steps = trajectory_workload(
            1, 3, "waypoint", dwell_packets=DEFAULT_DWELL_PACKETS, seed=11
        ).journeys[0]
        reference = run_journey(
            index, server.schedule.view(), config, steps, start_packet=start
        )
        assert [h.metrics for h in journey.hops] == [h.metrics for h in reference.hops]
