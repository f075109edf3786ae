"""The mobility subsystem: motion models, trajectories, journeys, fleets."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import BroadcastServer, Experiment
from repro.broadcast.config import SystemConfig
from repro.mobility import (
    ContinuousClient,
    LinearDrift,
    RandomWaypoint,
    Stationary,
    resolve_motion_model,
    run_journey,
    trajectory_workload,
)
from repro.mobility.trajectory import Journey, JourneyStep, TrajectoryWorkload
from repro.queries.ground_truth import matches
from repro.queries.types import KnnQuery, WindowQuery
from repro.sim.fleet import run_fleet, run_mobile_fleet
from repro.sim.runner import build_index
from repro.spatial.datasets import uniform_dataset

DATASET = uniform_dataset(300, seed=7)
CONFIG = SystemConfig(packet_capacity=64)


def dsi():
    return build_index("dsi", DATASET, CONFIG, use_cache=True)


def view_of(index, config=CONFIG):
    from repro.broadcast.schedule import BroadcastSchedule

    return BroadcastSchedule.for_config(index.program, config).view()


class TestMotionModels:
    @pytest.mark.parametrize(
        "model", [RandomWaypoint(), LinearDrift(), LinearDrift(heading=0.7), Stationary()]
    )
    def test_paths_shape_bounds_determinism(self, model):
        paths = model.paths(3, 5, 7, 2048)
        assert paths.shape == (5, 7, 2)
        assert paths.min() >= 0.0 and paths.max() <= 1.0
        assert np.array_equal(paths, model.paths(3, 5, 7, 2048))

    @pytest.mark.parametrize("model", [RandomWaypoint(), LinearDrift()])
    def test_prefix_stable_under_longer_journeys(self, model):
        short = model.paths(9, 4, 3, 1024)
        long = model.paths(9, 4, 8, 1024)
        assert np.array_equal(short, long[:, :3])

    def test_hop_distance_bounded_by_speed(self):
        model = RandomWaypoint(speed=1e-5)
        paths = model.paths(5, 16, 10, 2000)
        hops = np.diff(paths, axis=1)
        dist = np.hypot(hops[..., 0], hops[..., 1])
        assert dist.max() <= 1e-5 * 2000 + 1e-12

    def test_stationary_stays_put(self):
        paths = Stationary().paths(1, 3, 6, 4096)
        assert np.array_equal(paths[:, :1].repeat(6, axis=1), paths)
        fixed = Stationary(point=(0.25, 0.75)).paths(1, 2, 3, 10)
        assert np.array_equal(fixed, np.full((2, 3, 2), (0.25, 0.75)))

    def test_resolver(self):
        assert isinstance(resolve_motion_model(None), RandomWaypoint)
        assert isinstance(resolve_motion_model("drift", speed=1e-5), LinearDrift)
        model = LinearDrift()
        assert resolve_motion_model(model) is model
        with pytest.raises(ValueError, match="unknown motion model"):
            resolve_motion_model("teleport")
        with pytest.raises(ValueError, match="already-built"):
            resolve_motion_model(model, speed=1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="speed"):
            LinearDrift(speed=-1.0)
        with pytest.raises(ValueError, match="n_steps"):
            RandomWaypoint().paths(1, 2, 0, 100)
        with pytest.raises(ValueError, match="unit square"):
            Stationary(point=(2.0, 0.5))


class TestTrajectoryWorkload:
    def test_builder_shapes_queries_from_positions(self):
        tw = trajectory_workload(6, 4, "waypoint", query="window", win_side_ratio=0.2, seed=5)
        assert len(tw) == 6 and tw.n_steps == 4
        for journey in tw:
            assert journey.steps[0].dwell_packets == 0
            for step in journey.steps[1:]:
                assert step.dwell_packets == tw.journeys[0].steps[1].dwell_packets
            for step in journey:
                assert isinstance(step.query, WindowQuery)
                assert step.query.window.contains_point(step.position)

    def test_knn_queries(self):
        tw = trajectory_workload(2, 3, "drift", query="knn", k=7, seed=5)
        for journey in tw:
            for step in journey:
                assert isinstance(step.query, KnnQuery)
                assert step.query.k == 7
                assert step.query.point == step.position

    def test_name_and_seed_provenance(self):
        tw = trajectory_workload(2, 3, "waypoint", seed=123)
        assert tw.seed == 123
        assert "waypoint" in tw.name and "s3" in tw.name

    def test_validation(self):
        with pytest.raises(ValueError, match="query"):
            trajectory_workload(2, 2, query="range")
        with pytest.raises(ValueError, match="n_journeys"):
            trajectory_workload(0, 2)

    def test_negative_dwell_rejected_before_either_engine(self, monkeypatch):
        """A negative dwell steps the clock backwards.  The step rejects it,
        so a journey mutated to carry one reaches neither the kernel (which
        used to run it) nor the reference (which raised mid-run)."""
        step = trajectory_workload(1, 2, seed=3).journeys[0].steps[1]
        with pytest.raises(ValueError, match="dwell_packets must be >= 0"):
            JourneyStep(step.position, -400, step.query)
        dataset = uniform_dataset(200, seed=3)
        config = SystemConfig(n_channels=2)
        index = build_index("dsi", dataset, config)
        base = trajectory_workload(n_journeys=3, n_steps=3, seed=1)

        def run_mutated():
            journeys = [
                Journey(j.jid, j.steps[:1] + tuple(
                    dataclasses.replace(s, dwell_packets=-400) for s in j.steps[1:]
                ))
                for j in base
            ]
            workload = TrajectoryWorkload("negative-dwell", journeys, base.model)
            return run_mobile_fleet(
                index, dataset, config, workload, 2_000, seed=1, max_phases=16
            )

        for pure in ("0", "1"):
            monkeypatch.setenv("REPRO_PURE", pure)
            with pytest.raises(ValueError, match="dwell_packets must be >= 0"):
                run_mutated()


class TestContinuousClient:
    def test_journey_metrics_sum_per_hop(self):
        index = dsi()
        tw = trajectory_workload(2, 4, "waypoint", seed=9, dwell_packets=1500)
        result = run_journey(index, view_of(index), CONFIG, tw.journeys[0],
                             start_packet=11, speed=tw.model.speed)
        assert result.n_hops == 4
        assert result.total_tuning_bytes == sum(h.metrics.tuning_bytes for h in result.hops)
        assert result.mean_hop_latency_bytes == result.total_latency_bytes / 4
        for hop in result.hops:
            assert hop.metrics.tuning_packets <= hop.metrics.latency_packets + 1
            assert hop.staleness == tw.model.speed * hop.metrics.latency_packets
            assert matches(DATASET, hop.query, hop.outcome.objects)

    def test_stateless_index_runs_cold(self):
        """An index without new_client_state still journeys correctly."""
        index = dsi()
        client = ContinuousClient(index, view_of(index), CONFIG, start_packet=0)
        client.state = None  # simulate a third-party stateless index
        tw = trajectory_workload(1, 3, "waypoint", seed=2)
        for step in tw.journeys[0]:
            record = client.run(step.query, dwell_packets=step.dwell_packets)
            assert matches(DATASET, step.query, record.outcome.objects)


class TestMobileFleet:
    def test_collapse_equals_per_phase_simulation(self):
        """The journey landmark collapse is exact: disabling it (landmark
        None) must reproduce identical population statistics."""
        tw = trajectory_workload(5, 4, "waypoint", seed=9, dwell_packets=1200)
        for channels in (1, 3):
            config = SystemConfig(packet_capacity=64, n_channels=channels)
            index = build_index("dsi", DATASET, config, use_cache=True)
            ref = run_mobile_fleet(index, DATASET, config, tw, 4_000, seed=3)
            original = type(index).entry_landmark
            try:
                type(index).entry_landmark = (
                    lambda self, view, position, switch_packets=0: None
                )
                plain = run_mobile_fleet(index, DATASET, config, tw, 4_000, seed=3)
            finally:
                type(index).entry_landmark = original
            assert ref.result.latency.mean == plain.result.latency.mean
            assert ref.result.tuning.mean == plain.result.tuning.mean
            assert ref.result.latency.percentile(95) == plain.result.latency.percentile(95)

    def test_serial_parallel_parity(self):
        tw = trajectory_workload(4, 3, "waypoint", seed=9)
        index = dsi()
        serial = run_mobile_fleet(index, DATASET, CONFIG, tw, 30_000, seed=5, verify=True)
        parallel = run_mobile_fleet(
            index, DATASET, CONFIG, tw, 30_000, seed=5, verify=True, parallel=True
        )
        assert serial.result.latency.mean == parallel.result.latency.mean
        assert serial.result.tuning.mean == parallel.result.tuning.mean
        assert serial.result.accuracy == parallel.result.accuracy == 1.0
        row = serial.as_row()
        parallel_row = parallel.as_row()
        # The rows differ only in the wall-clock throughput.
        del row["clients_per_sec"], parallel_row["clients_per_sec"]
        assert row == parallel_row
        assert row["steps"] == 3 and row["n_clients"] == 30_000
        assert row["hop_latency_bytes"] * 3 == pytest.approx(row["journey_latency_bytes"])

    def test_executions_bounded_and_quantized(self):
        tw = trajectory_workload(3, 3, "waypoint", seed=9)
        index = dsi()
        result = run_mobile_fleet(index, DATASET, CONFIG, tw, 2_000, seed=5, max_phases=16)
        assert result.n_executions <= 3 * 16
        assert result.n_phases == 16
        assert result.n_journeys == 3 and result.n_steps == 3

    def test_errors_drop_collapse_but_stay_deterministic(self):
        tw = trajectory_workload(3, 3, "waypoint", seed=9)
        index = dsi()
        a = run_mobile_fleet(index, DATASET, CONFIG, tw, 3_000, seed=5,
                             error_theta=0.15, max_phases=32)
        b = run_mobile_fleet(index, DATASET, CONFIG, tw, 3_000, seed=5,
                             error_theta=0.15, max_phases=32, parallel=True)
        assert a.result.latency.mean == b.result.latency.mean
        assert a.result.tuning.mean == b.result.tuning.mean

    def test_stationary_single_step_fleet_matches_stationary_machinery(self, monkeypatch):
        """A 1-step mobile fleet is a stationary fleet in disguise: same
        physics, same per-client draws (journey ids play the role of query
        ids), so every distinct execution must agree with run_fleet over the
        equivalent one-shot workload -- on every index, for windows and kNN,
        on the kernels and on the reference path (REPRO_PURE) alike.  The
        exception is HCI kNN: the journey carries a node cache from its
        first query, and the range sweep reuses nodes the leaf sweeps read,
        so the journey can only be cheaper -- run_fleet's trials must stay
        cold."""
        from repro.queries.workload import Trial, Workload

        for pure in (False, True):
            if pure:
                monkeypatch.setenv("REPRO_PURE", "1")
            for kind in ("dsi", "rtree", "hci"):
                index = build_index(kind, DATASET, CONFIG, use_cache=True)
                for query in ("window", "knn"):
                    cell = f"{kind}-{query}-{'pure' if pure else 'kernel'}"
                    tw = trajectory_workload(4, 1, Stationary(), query=query, k=3,
                                             win_side_ratio=0.15, seed=21)
                    mobile = run_mobile_fleet(index, DATASET, CONFIG, tw, 5_000,
                                              seed=3, verify=True)
                    trials = [
                        Trial(query=j.steps[0].query, tune_in_fraction=0.0) for j in tw
                    ]
                    stationary = run_fleet(
                        index, DATASET, CONFIG, Workload(name="eq", trials=trials),
                        5_000, seed=3, verify=True,
                    )
                    assert mobile.backend == stationary.backend, cell
                    assert mobile.backend_reason == stationary.backend_reason, cell
                    np.testing.assert_array_equal(
                        mobile.unique_counts, stationary.unique_counts, err_msg=cell
                    )
                    lat, tun = mobile.unique_latency, mobile.unique_tuning
                    if kind == "hci" and query == "knn":
                        assert np.all(lat <= stationary.unique_latency), cell
                        assert np.all(tun <= stationary.unique_tuning), cell
                        assert np.any(tun < stationary.unique_tuning), cell
                    else:
                        np.testing.assert_array_equal(
                            lat, stationary.unique_latency, err_msg=cell
                        )
                        np.testing.assert_array_equal(
                            tun, stationary.unique_tuning, err_msg=cell
                        )
                    assert (
                        mobile.result.correct_trials == stationary.result.correct_trials
                    ), cell
                    assert (
                        mobile.result.incorrect_trials
                        == stationary.result.incorrect_trials
                    ), cell


class TestMobilityApi:
    def test_travel_records_history_and_metrics(self):
        server = BroadcastServer(DATASET, CONFIG, index="dsi")
        client = server.client(seed=42)
        result = client.travel("waypoint", n_steps=4, dwell_packets=1200, seed=7)
        assert result.n_hops == 4
        assert client.queries_run == 4
        assert client.total_tuning_bytes == result.total_tuning_bytes
        repeat = server.client(seed=42).travel("waypoint", n_steps=4,
                                               dwell_packets=1200, seed=7)
        assert repeat.as_row() == result.as_row()

    def test_travel_on_multi_channel_server(self):
        server = BroadcastServer(DATASET, CONFIG, index="dsi", channels=3)
        result = server.client(seed=1).travel("drift", n_steps=3, dwell_packets=900)
        assert result.n_hops == 3

    def test_server_mobile_fleet_default_workload(self):
        server = BroadcastServer(DATASET, CONFIG, index="rtree")
        result = server.mobile_fleet(2_000, seed=4)
        assert result.n_clients == 2_000
        assert result.result.index_name == "R-tree"

    def test_experiment_mobility_axis(self):
        run = (
            Experiment(DATASET)
            .indexes("dsi")
            .config(CONFIG)
            .fleet(2_000)
            .mobility(2, 4, n_journeys=3, dwell_packets=900, seed=3)
            .run(parallel=False)
        )
        steps = [row["steps"] for row in run.rows]
        assert steps == [2, 4]
        assert all("journey_tuning_bytes" in row and "staleness" in row for row in run.rows)
        longer = run.rows[1]["journey_tuning_bytes"] > run.rows[0]["journey_tuning_bytes"]
        assert longer, "longer journeys should cost more total tuning"

    def test_experiment_mobility_validation(self):
        with pytest.raises(ValueError, match="fleet"):
            Experiment(DATASET).mobility(3).run()
        with pytest.raises(ValueError, match="workloads alongside"):
            (
                Experiment(DATASET)
                .fleet(100)
                .window_workload(4)
                .mobility(3)
                .run()
            )
        with pytest.raises(ValueError, match="steps"):
            (
                Experiment(DATASET)
                .fleet(100)
                .window_workload(4)
                .sweep(steps=[2, 3])
                .run()
            )
        with pytest.raises(ValueError, match="journey length"):
            Experiment(DATASET).fleet(100).mobility()
