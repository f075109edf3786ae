"""Population-scale client fleets: validation, exactness, composition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import BroadcastServer, Experiment
from repro.broadcast import ClientSession, SystemConfig
from repro.queries.workload import window_workload
from repro.sim.fleet import FleetSpec, run_fleet, run_mobile_fleet
from repro.sim.runner import build_index


@pytest.fixture(scope="module")
def config64():
    return SystemConfig(packet_capacity=64)


@pytest.fixture(scope="module")
def dataset():
    from repro.spatial import uniform_dataset

    return uniform_dataset(200, seed=3)


@pytest.fixture(scope="module")
def dsi(dataset, config64):
    return build_index("dsi", dataset, config64, use_cache=True)


@pytest.fixture(scope="module")
def workload():
    return window_workload(6, 0.1, seed=5)


class TestFleetSpecValidation:
    def test_rejects_nonpositive_populations(self):
        with pytest.raises(ValueError, match="n_clients must be positive"):
            FleetSpec(n_clients=0)
        with pytest.raises(ValueError, match="n_clients must be positive"):
            FleetSpec(n_clients=-5)
        with pytest.raises(TypeError, match="must be an int"):
            FleetSpec(n_clients=2.5)

    def test_rejects_bad_phases_and_theta(self, dsi, dataset, config64, workload):
        with pytest.raises(ValueError, match="max_phases"):
            FleetSpec(n_clients=1, max_phases=0)
        with pytest.raises(ValueError, match="error_theta"):
            run_fleet(dsi, dataset, config64, workload, 10, error_theta=1.5)

    def test_validation_happens_at_declaration(self, dataset, config64, monkeypatch):
        """``server.fleet`` checks its arguments before any client runs."""
        from repro.sim import fleet as fleet_mod

        def no_draw(*args):
            raise AssertionError("the fleet drew clients before validating")

        monkeypatch.setattr(fleet_mod, "_draw_batches", no_draw)
        server = BroadcastServer(dataset, config64, index="dsi")
        with pytest.raises(ValueError, match="n_clients must be positive"):
            server.fleet(0)
        with pytest.raises(ValueError, match="max_phases"):
            server.fleet(10, max_phases=0)
        with pytest.raises(ValueError, match="error_theta"):
            server.fleet(10, error_theta=1.5)


class TestFleetExactness:
    def test_pinned_phases_match_per_client_sessions(self, dsi, dataset, config64):
        """With one phase per packet and one query, the fleet must equal a
        per-client ClientSession sweep over its own seeded draw exactly (no
        quantisation is involved)."""
        workload = window_workload(1, 0.15, seed=2)
        cycle = dsi.program.cycle_packets
        n_clients = 400
        fleet = run_fleet(
            dsi, dataset, config64, workload, n_clients, seed=6, max_phases=cycle,
        )
        assert fleet.n_phases == cycle and not fleet.quantized
        window = workload.trials[0].query.window
        expected = []
        for _, fracs in _seeded_draw(6, n_clients, 1):
            for p in (fracs * cycle).astype(np.int64).tolist():
                session = ClientSession(dsi.program, config64, start_packet=p)
                expected.append(dsi.window_query(window, session).metrics.latency_bytes)
        assert fleet.result.latency.count == n_clients
        assert fleet.result.latency.mean == np.mean(expected)
        for q in (0, 50, 95, 100):
            assert fleet.result.latency.percentile(q) == np.percentile(expected, q)

    def test_streaming_within_bounds_of_exact(self, dsi, dataset, config64, workload):
        """The summaries estimate nothing: on a 10k-client fleet and a 10k-client
        moving fleet, every summary's mean and percentiles equal the exact
        values of the expanded per-client samples."""
        from repro.mobility import trajectory_workload

        fleet = run_fleet(dsi, dataset, config64, workload, 10_000, seed=7)
        journeys = trajectory_workload(n_journeys=4, n_steps=3, seed=7)
        mobile = run_mobile_fleet(dsi, dataset, config64, journeys, 10_000, seed=7)
        for result in (fleet, mobile):
            for metric in ("latency", "tuning"):
                summary = getattr(result.result, metric)
                ordered = np.sort(
                    np.repeat(getattr(result, f"unique_{metric}"), result.unique_counts)
                )
                assert summary.count == len(ordered) == 10_000
                assert summary.mean == ordered.mean()
                for q in (5, 50, 95, 99):
                    pos = (len(ordered) - 1) * q / 100.0
                    lo, hi = int(np.floor(pos)), int(np.ceil(pos))
                    frac = pos - lo
                    expected = float(ordered[lo] * (1 - frac) + ordered[hi] * frac)
                    assert summary.percentile(q) == expected

    def test_memory_is_constant_in_fleet_size(self, dsi, dataset, config64, workload):
        small = run_fleet(dsi, dataset, config64, workload, 1_000, seed=7)
        large = run_fleet(dsi, dataset, config64, workload, 50_000, seed=7)
        # the retained state is the per-execution histogram, whose size is
        # bounded by queries x phases -- not by the population
        bound = len(workload) * small.n_phases
        assert small.n_executions <= bound
        assert large.n_executions <= bound
        assert large.unique_counts.sum() == 50_000

    def test_serial_parallel_identical(self, dsi, dataset, config64, workload):
        kw = dict(seed=11, max_phases=64)
        a = run_fleet(dsi, dataset, config64, workload, 5_000, parallel=False, **kw)
        b = run_fleet(dsi, dataset, config64, workload, 5_000, parallel=True, processes=4, **kw)
        assert a.result.latency.mean == b.result.latency.mean
        assert a.result.latency.percentile(95) == b.result.latency.percentile(95)
        assert np.array_equal(a.unique_latency, b.unique_latency)
        assert np.array_equal(a.unique_counts, b.unique_counts)

    def test_error_model_deterministic_and_harmful(self, dsi, dataset, config64, workload):
        clean = run_fleet(dsi, dataset, config64, workload, 2_000, seed=3, max_phases=64)
        noisy1 = run_fleet(
            dsi, dataset, config64, workload, 2_000, seed=3, max_phases=64,
            error_theta=0.2, error_seed=9,
        )
        noisy2 = run_fleet(
            dsi, dataset, config64, workload, 2_000, seed=3, max_phases=64,
            error_theta=0.2, error_seed=9,
        )
        assert noisy1.result.latency.mean == noisy2.result.latency.mean
        assert noisy1.result.latency.mean > clean.result.latency.mean

    def test_first_index_wait_covers_every_client(self, dsi, dataset, config64, workload):
        fleet = run_fleet(dsi, dataset, config64, workload, 3_000, seed=1)
        wait = fleet.first_index_wait
        assert wait.count == 3_000
        assert wait.minimum >= 0
        # a table is never further than a cycle away
        assert wait.maximum <= dsi.program.cycle_packets * config64.packet_capacity

    def test_verify_counts_weighted_by_population(self, dsi, dataset, config64):
        workload = window_workload(3, 0.1, seed=2)
        fleet = run_fleet(dsi, dataset, config64, workload, 2_000, seed=1, verify=True)
        assert fleet.result.correct_trials + fleet.result.incorrect_trials == 2_000
        assert fleet.result.accuracy == 1.0

    def test_multi_channel_fleet(self, dataset, workload):
        from repro.broadcast import BroadcastSchedule

        config = SystemConfig(packet_capacity=64, n_channels=4)
        index = build_index("dsi", dataset, config, use_cache=True)
        fleet = run_fleet(index, dataset, config, workload, 2_000, seed=1)
        schedule = BroadcastSchedule.for_config(index.program, config)
        assert fleet.result.latency.count == 2_000
        assert fleet.cycle_packets == schedule.cycle_packets


class TestExperimentComposition:
    def test_fleet_and_channels_axes_compose(self, dataset):
        make = lambda: (
            Experiment(dataset)
            .indexes("dsi")
            .window_workload(n_queries=4, seed=5)
            .fleet(2_000, seed=1, max_phases=64)
            .channels(1, 2)
            .sweep(capacity=[64, 128])
        )
        rows_serial = make().run(parallel=False).rows
        rows_parallel = make().run(parallel=True).rows
        assert rows_serial == rows_parallel
        assert len(rows_serial) == 4
        assert {(r["channels"], r["capacity"]) for r in rows_serial} == {
            (1, 64), (1, 128), (2, 64), (2, 128)
        }
        for row in rows_serial:
            assert row["n_clients"] == 2_000
            assert row["latency_p95_bytes"] >= row["latency_p50_bytes"]

    def test_fleet_axis_sweeps_population(self, dataset):
        rows = (
            Experiment(dataset)
            .indexes("dsi")
            .window_workload(n_queries=4, seed=5)
            .fleet(500, 2_000, seed=1, max_phases=32)
            .run(parallel=False)
            .rows
        )
        assert [r["n_clients"] for r in rows] == [500, 2_000]

    def test_fleet_composes_with_theta(self, dataset):
        rows = (
            Experiment(dataset)
            .indexes("dsi")
            .window_workload(n_queries=4, seed=5)
            .fleet(1_000, seed=1, max_phases=32)
            .errors(theta=0.1, seed=3)
            .sweep(theta=[0.0, 0.3])
            .run(parallel=False)
            .rows
        )
        assert rows[1]["latency_bytes"] > rows[0]["latency_bytes"]

    def test_fleet_rows_surface_backend_and_reason(self, dataset):
        """Sweep rows show which engine ran each cell -- and why the slow
        one ran, when it did (kernel declines must not be silent)."""
        rows = (
            Experiment(dataset)
            .indexes("dsi", "rtree")
            .window_workload(n_queries=4, seed=5)
            .fleet(1_000, seed=1, max_phases=32)
            .run(parallel=False)
            .rows
        )
        by_index = {r["index"]: r for r in rows}
        assert by_index["dsi"]["backend"] == "numpy"
        assert by_index["dsi"]["backend_reason"] == ""
        assert by_index["rtree"]["backend"] == "numpy"
        assert by_index["rtree"]["backend_reason"] == ""

    def test_fleet_rows_surface_kernel_decline(self, dataset):
        """A cell outside every kernel's envelope reports the decline."""
        rows = (
            Experiment(dataset)
            .indexes("rtree")
            .window_workload(n_queries=4, seed=5)
            .fleet(1_000, seed=1, max_phases=32)
            .errors(theta=0.1, scope="data", seed=3)
            .run(parallel=False)
            .rows
        )
        assert rows[0]["backend"] == "reference"
        assert "reference path" in rows[0]["backend_reason"]

    def test_sweep_fleet_requires_fleet_mode(self, dataset):
        experiment = (
            Experiment(dataset)
            .indexes("dsi")
            .window_workload(n_queries=4, seed=5)
            .sweep(fleet=[10, 20])
        )
        with pytest.raises(ValueError, match=r"\.fleet\("):
            experiment.run(parallel=False)

    def test_raw_sweep_axis_values_validated_up_front(self, dataset):
        """sweep(fleet=...)/sweep(channels=...) get the same fail-fast checks
        as the .fleet()/.channels() declarations -- not a crash mid-sweep."""
        bad_fleet = (
            Experiment(dataset)
            .indexes("dsi")
            .window_workload(n_queries=4, seed=5)
            .fleet(10)
            .sweep(fleet=[1_000, 0])
        )
        with pytest.raises(ValueError, match="fleet axis values"):
            bad_fleet.run(parallel=False)
        bad_channels = (
            Experiment(dataset)
            .indexes("dsi")
            .window_workload(n_queries=4, seed=5)
            .sweep(channels=[1, 0])
        )
        with pytest.raises(ValueError, match="channels axis values"):
            bad_channels.run(parallel=False)

    def test_channels_argument_validation(self, dataset):
        with pytest.raises(ValueError, match="at least one channel"):
            Experiment(dataset).channels()
        with pytest.raises(ValueError, match="positive ints"):
            Experiment(dataset).channels(0)
        with pytest.raises(ValueError, match="positive ints"):
            Experiment(dataset).channels(2, True)
        with pytest.raises(ValueError, match="at least one population"):
            Experiment(dataset).fleet()

    def test_channels_declaration_survives_later_config(self, dataset, config64):
        """.channels(k).config(...) must not silently revert to one channel."""
        experiment = (
            Experiment(dataset)
            .indexes("dsi")
            .channels(4)
            .config(config64)
            .window_workload(n_queries=4, seed=5)
        )
        assert experiment._config_at({}).n_channels == 4
        # and the axis form still overrides the fixed declaration per point
        assert experiment._config_at({"channels": 2}).n_channels == 2

    def test_non_fleet_channels_sweep_still_per_trial(self, dataset):
        rows = (
            Experiment(dataset)
            .indexes("dsi")
            .window_workload(n_queries=4, seed=5)
            .channels(1, 4)
            .run(parallel=False)
            .rows
        )
        assert [r["channels"] for r in rows] == [1, 4]
        assert all("n_clients" not in r for r in rows)

    def test_server_fleet_entry_point(self, dataset, config64, workload):
        server = BroadcastServer(dataset, config64, index="dsi", channels=2)
        result = server.fleet(1_500, workload=workload, seed=4)
        assert result.n_clients == 1_500
        assert result.result.latency.count == 1_500
        row = result.as_row()
        assert row["n_clients"] == 1_500 and "clients_per_sec" in row


def _seeded_draw(seed, n_clients, n_items):
    """The fleet's client draw, redrawn: one seeded generator consumed in
    65,536-client batches, each batch's item ids before its tune-in
    fractions.  Returns the ``(ids, fractions)`` batches."""
    rng = np.random.default_rng(seed)
    batches, done = [], 0
    while done < n_clients:
        m = min(1 << 16, n_clients - done)
        ids = rng.integers(0, n_items, size=m, dtype=np.int64)
        batches.append((ids, rng.random(m)))
        done += m
    return batches


def _per_client_population(result, index, config, n_items, *, seed):
    """Oracle: the population layer as a per-client stream.

    Redraws the fleet's clients (:func:`_seeded_draw`), seeks each client's
    first navigation bucket on its own and feeds every client's outcome
    through ``add_many`` in draw order.  Returns ``(latency, tuning,
    first_index_wait)`` summaries.
    """
    from repro.broadcast import BroadcastSchedule
    from repro.broadcast.timeline import timeline_of
    from repro.sim.metrics import MetricSummary

    view = BroadcastSchedule.for_config(index.program, config).view()
    cycle = view.cycle_packets
    n_phases = result.n_phases
    batches = [
        (ids * n_phases + (fracs * n_phases).astype(np.int64), fracs)
        for ids, fracs in _seeded_draw(seed, result.n_clients, n_items)
    ]
    counts = np.bincount(np.concatenate([k for k, _ in batches]), minlength=n_items * n_phases)
    keys = np.flatnonzero(counts)
    np.testing.assert_array_equal(counts[keys], result.unique_counts)
    lat_by_key = np.zeros(counts.size)
    tun_by_key = np.zeros(counts.size)
    lat_by_key[keys] = result.unique_latency
    tun_by_key[keys] = result.unique_tuning

    latency, tuning, wait = (MetricSummary(histogram_limit=1 << 17) for _ in range(3))
    timeline = timeline_of(view)
    for key, fracs in batches:
        positions = (fracs * cycle).astype(np.int64)
        wait.add_many((timeline.next_navigation_starts(positions) - positions)
                      * config.packet_capacity)
        latency.add_many(lat_by_key[key])
        tuning.add_many(tun_by_key[key])
    return latency, tuning, wait


def _assert_same_summary(summary, oracle):
    assert summary.count == oracle.count
    assert summary.mean == oracle.mean  # exact integer totals on both sides
    assert (summary.minimum, summary.maximum) == (oracle.minimum, oracle.maximum)
    assert summary.variance == pytest.approx(oracle.variance, rel=1e-9)
    for q in (0, 5, 25, 50, 62.5, 75, 90, 95, 99, 100):
        assert summary.percentile(q) == oracle.percentile(q)


def _assert_population_matches(fleet, oracle):
    for summary, expected in zip(
        (fleet.result.latency, fleet.result.tuning, fleet.first_index_wait), oracle
    ):
        _assert_same_summary(summary, expected)


class TestPopulationHistograms:
    """The population layer keeps a fleet as histograms -- one draw, one
    navigation seek per occupied tune-in packet, weighted summaries -- and
    must report what a per-client stream of the same draw reports."""

    @pytest.mark.parametrize(
        "kind, channels, queries, n_clients",
        [
            ("dsi", 1, "window", 150_000),
            ("dsi", 4, "knn", 70_000),
            ("rtree", 1, "window", 70_000),
            ("hci", 4, "window", 70_000),
        ],
    )
    def test_summaries_equal_per_client_stream(self, dataset, kind, channels, queries,
                                               n_clients):
        from repro.queries.workload import knn_workload

        config = SystemConfig(packet_capacity=64, n_channels=channels)
        index = build_index(kind, dataset, config, use_cache=True)
        workload = (window_workload(6, 0.1, seed=5) if queries == "window"
                    else knn_workload(5, k=4, seed=5))
        fleet = run_fleet(index, dataset, config, workload, n_clients, seed=13, max_phases=64)
        _assert_population_matches(
            fleet, _per_client_population(fleet, index, config, len(workload), seed=13)
        )

    def test_pinned_tune_ins(self, dsi, dataset, config64, workload):
        """A fleet smaller than one draw batch, at the default phase count:
        every client's tune-in is the seeded draw's, and the summaries equal
        the per-client stream of that draw."""
        fleet = run_fleet(dsi, dataset, config64, workload, 900, seed=2)
        assert fleet.quantized
        _assert_population_matches(
            fleet, _per_client_population(fleet, dsi, config64, len(workload), seed=2)
        )

    def test_journey_summaries_equal_per_client_stream(self, dataset):
        from repro.mobility import trajectory_workload

        config = SystemConfig(packet_capacity=64, n_channels=2)
        index = build_index("dsi", dataset, config, use_cache=True)
        journeys = trajectory_workload(4, 3, "waypoint", seed=9, dwell_packets=900)
        fleet = run_mobile_fleet(index, dataset, config, journeys, 70_000, seed=6,
                                 max_phases=32)
        _assert_population_matches(
            fleet, _per_client_population(fleet, index, config, len(journeys.journeys), seed=6)
        )

    def test_one_draw_and_one_seek_per_occupied_packet(self, dsi, dataset, config64,
                                                       workload, monkeypatch):
        from repro.broadcast.timeline import CompiledTimeline
        from repro.sim import fleet as fleet_mod

        draws, seeks = [], []
        real_draw = fleet_mod._draw_batches
        real_seek = CompiledTimeline.next_navigation_starts

        def counting_draw(*args):
            draws.append(1)
            return real_draw(*args)

        def recording_seek(self, positions):
            seeks.append(np.asarray(positions).copy())
            return real_seek(self, positions)

        monkeypatch.setattr(fleet_mod, "_draw_batches", counting_draw)
        monkeypatch.setattr(CompiledTimeline, "next_navigation_starts", recording_seek)
        n_clients = 100_000
        result = run_fleet(dsi, dataset, config64, workload, n_clients, seed=3)
        assert len(draws) == 1
        assert len(seeks) == 1
        positions = seeks[0]
        assert len(positions) <= result.cycle_packets < n_clients
        assert np.all(np.diff(positions) > 0)  # distinct packets, ascending
        assert result.first_index_wait.count == n_clients


@pytest.mark.parametrize("case", ["hci_knn_fleet", "journeys_scope_all"])
def test_reference_fan_out_parallel_matches_serial(case, monkeypatch):
    """A real worker pool gives the serial reference run's executions.

    Both cells run only on the reference path (tree-index kNN and the
    all-scope link-error model are outside the kernels), so two processes
    start a real pool, and the shared worker's context -- its items and
    warm flag -- crosses the process boundary: cold one-step items for the
    stationary HCI kNN fleet, warm three-hop items for the journeys.
    """
    from repro.mobility import trajectory_workload
    from repro.queries.workload import knn_workload
    from repro.sim import fleet as fleet_mod
    from repro.spatial import uniform_dataset

    dataset = uniform_dataset(120, seed=4)
    config = SystemConfig(packet_capacity=64)
    if case == "hci_knn_fleet":
        index = build_index("hci", dataset, config, use_cache=False)
        workload = knn_workload(4, k=3, seed=5)

        def run(**kw):
            return run_fleet(index, dataset, config, workload, 3_000, seed=2,
                             max_phases=48, verify=True, **kw)
    else:
        index = build_index("dsi", dataset, config, use_cache=False)
        trajectories = trajectory_workload(4, 3, "waypoint", seed=9,
                                           win_side_ratio=0.12)

        def run(**kw):
            return run_mobile_fleet(index, dataset, config, trajectories, 3_000,
                                    seed=2, max_phases=48, verify=True,
                                    error_theta=0.1, error_scope="all",
                                    error_seed=3, **kw)

    pools = []
    real_map = fleet_mod.parallel_map

    def spy(fn, tasks, processes=None, **kw):
        pools.append((processes, len(tasks)))
        return real_map(fn, tasks, processes=processes, **kw)

    monkeypatch.setattr(fleet_mod, "parallel_map", spy)
    serial = run()
    pooled = run(parallel=True, processes=2)
    assert pools[0][0] == 1 and pools[1][0] == 2 and pools[1][1] > 1
    assert serial.backend == pooled.backend == "reference"
    assert serial.backend_reason == pooled.backend_reason
    np.testing.assert_array_equal(serial.unique_counts, pooled.unique_counts)
    np.testing.assert_array_equal(serial.unique_latency, pooled.unique_latency)
    np.testing.assert_array_equal(serial.unique_tuning, pooled.unique_tuning)
    assert serial.result.correct_trials == pooled.result.correct_trials
    assert serial.result.incorrect_trials == pooled.result.incorrect_trials
    assert serial.result.correct_trials + serial.result.incorrect_trials > 0


def _reference_collapse(kind, monkeypatch, **fleet_kwargs):
    """Run a lossless ``REPRO_PURE=1`` fleet of 20,000 clients over
    ``skewed_workload(30, zipf_s=1.1, seed=4)`` and count its work:
    ``(execute_query calls, distinct (item, entry landmark) pairs, result)``.
    The spy on ``_simulate_item_batch`` records the landmark of every phase
    a task receives."""
    from repro.queries.workload import skewed_workload
    from repro.sim import fleet as fleet_mod
    from repro.sim import runner
    from repro.spatial import uniform_dataset

    monkeypatch.setenv("REPRO_PURE", "1")
    dataset = uniform_dataset(500, seed=3)
    config = SystemConfig(packet_capacity=64)
    index = build_index(kind, dataset, config, use_cache=False)
    workload = skewed_workload(30, zipf_s=1.1, seed=4)
    marks, calls = set(), []
    real_batch, real_execute = fleet_mod._simulate_item_batch, runner.execute_query

    def batch(iid, phases):
        ctx = fleet_mod._SIM_CTX
        for phase in phases:
            start = (int(phase) * ctx["cycle"]) // ctx["n_phases"]
            marks.add((iid, index.entry_landmark(ctx["view"], start + 1)))
        return real_batch(iid, phases)

    def execute(*args, **kwargs):
        calls.append(1)
        return real_execute(*args, **kwargs)

    monkeypatch.setattr(fleet_mod, "_simulate_item_batch", batch)
    monkeypatch.setattr(runner, "execute_query", execute)
    result = run_fleet(index, dataset, config, workload, 20_000, **fleet_kwargs)
    assert result.backend == "reference"
    return len(calls), len(marks), result


@pytest.mark.parametrize("kind", ["hci", "rtree", "dsi"])
def test_serial_reference_run_collapses_each_item_once(kind, monkeypatch):
    """A serial, lossless reference fleet runs each item's phases as one
    task, so its landmark collapse simulates one execution per distinct
    (item, entry landmark): a phase run cut into tasks restarts the
    collapse, and each later task simulates its landmarks again."""
    calls, marks, result = _reference_collapse(kind, monkeypatch)
    assert calls == marks < result.n_executions


@pytest.mark.parametrize("kind", ["hci", "rtree", "dsi"])
def test_pooled_reference_run_collapses_each_item_once(kind, monkeypatch):
    """A pooled lossless reference fleet keeps one task per item as well:
    with two workers asked for, the pool receives one task per item and
    ``execute_query`` runs once per distinct (item, entry landmark).  The
    pool runs its tasks in this process, so the spies count them."""
    from repro.sim import fleet as fleet_mod

    pools = []

    def in_process(fn, tasks, processes=None, initializer=None, initargs=()):
        pools.append((processes, [iid for iid, _ in tasks]))
        initializer(*initargs)
        return [fn(*task) for task in tasks]

    monkeypatch.setattr(fleet_mod, "parallel_map", in_process)
    calls, marks, result = _reference_collapse(
        kind, monkeypatch, parallel=True, processes=2
    )
    assert calls == marks < result.n_executions
    [(processes, items)] = pools
    assert processes == 2 and items == sorted(set(items))
