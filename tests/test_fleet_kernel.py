"""Property tests: the fleet kernel and entry-lane collapse vs brute force.

:func:`repro.sim.fleet.run_fleet` reaches its per-execution numbers through
two layers of batching -- the entry-lane collapse (distinct ``(query,
phase)`` executions deduplicated by their first entry-structure read) and,
for DSI window fleets -- flat or demand-optimized schedules, lossless or
under the index-scope link-error model, stationary or warm multi-hop
journeys -- the structure-of-arrays numpy kernel
(:mod:`repro.sim.fleet_kernel`).  Both must be *invisible*: the
``unique_latency`` / ``unique_tuning`` histograms have to equal what a
per-client brute force computes, bit for bit.

The brute force here shares nothing with either layer: it replays the
fleet's seeded client draw, then simulates every distinct execution with a
fresh :class:`ClientSession` (or a fresh warm :class:`ContinuousClient`
for journeys) and the scalar query walk -- no collapse, no kernel.
Hypothesis drives dataset, workload and fleet seeds across all three index
families, single- and four-channel schedules, flat and replicated
(multiplicity 2 and up) layouts, and the lossless and link-error regimes.
Tier-1 draws a few derandomized cases per cell; ``--hypothesis-profile=deep``
draws a hundred fresh ones (see ``tests/conftest.py``).
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.broadcast.client import ClientSession
from repro.broadcast.config import SystemConfig
from repro.broadcast.errors import LinkErrorModel
from repro.broadcast.schedule import BroadcastSchedule
from repro.broadcast.timeline import timeline_of
from repro.core import DsiIndex, DsiParameters
from repro.mobility import TrajectoryWorkload, run_journey, trajectory_workload
from repro.queries import matches
from repro.queries.types import KnnQuery, WindowQuery
from repro.queries.workload import (
    Trial,
    Workload,
    knn_workload,
    skewed_workload,
    window_workload,
)
from repro.sim.fleet import run_fleet, run_mobile_fleet
from repro.sim.runner import build_index, execute_query
from repro.spatial.datasets import grid_dataset, real_surrogate_dataset, uniform_dataset
from repro.spatial.geometry import Point, Rect

N_CLIENTS = 300
MAX_PHASES = 12

#: Examples per brute-force cell: three derandomized draws in tier-1, and
#: the ``deep`` profile's count of fresh ones (``--hypothesis-profile=deep``).
_SETTINGS = dict(
    max_examples=(
        settings.default.max_examples
        if settings.get_current_profile_name() == "deep"
        else 3
    ),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _brute_force_uniques(index, config, trials, *, n_clients, seed, max_phases,
                         theta, error_seed, schedule=None,
                         knn_strategy="conservative"):
    """Per-execution (latency_bytes, tuning_bytes, counts) with no batching.

    Replays :func:`repro.sim.fleet._draw_batches`'s seeded generator (one
    batch: ``n_clients`` is far below the batch size) to recover the
    distinct ``(query, phase)`` keys and their client counts, then walks
    each execution with a fresh scalar session.  Error runs rebuild the
    fleet's per-key loss realisation -- ``seed = (error_seed * 1_000_003 +
    key) & 0x7FFFFFFF`` -- so the comparison is exact, not statistical.
    """
    if schedule is None:
        schedule = BroadcastSchedule.for_config(index.program, config)
    view = schedule.view()
    cycle = view.cycle_packets
    n_phases = min(cycle, max_phases)
    n_q = len(trials)

    rng = np.random.default_rng(seed)
    qids = rng.integers(0, n_q, size=n_clients, dtype=np.int64)
    fracs = rng.random(n_clients)
    phases = (fracs * n_phases).astype(np.int64)
    counts = np.bincount(qids * n_phases + phases, minlength=n_q * n_phases)
    keys = np.flatnonzero(counts)

    capacity = config.packet_capacity
    lat, tun = [], []
    for key in keys.tolist():
        qid, phase = divmod(key, n_phases)
        start_packet = (phase * cycle) // n_phases
        model = None
        if theta is not None:
            model = LinkErrorModel(
                theta=theta, scope="index",
                seed=(error_seed * 1_000_003 + key) & 0x7FFFFFFF,
            )
        session = ClientSession(view, config, start_packet=start_packet,
                                error_model=model)
        outcome = execute_query(index, trials[qid].query, session,
                                knn_strategy=knn_strategy)
        lat.append(outcome.metrics.latency_packets * capacity)
        tun.append(outcome.metrics.tuning_bytes)
    return (np.array(lat, dtype=np.float64), np.array(tun, dtype=np.float64),
            counts[keys])


def _brute_force_journeys(index, config, journeys, *, n_clients, seed,
                          max_phases, theta, error_seed, schedule=None,
                          knn_strategy="conservative"):
    """Per-(journey, phase) totals with no batching: one fresh warm
    :class:`ContinuousClient` per distinct execution, scalar walks only."""
    if schedule is None:
        schedule = BroadcastSchedule.for_config(index.program, config)
    view = schedule.view()
    cycle = view.cycle_packets
    n_phases = min(cycle, max_phases)
    n_j = len(journeys)

    rng = np.random.default_rng(seed)
    jids = rng.integers(0, n_j, size=n_clients, dtype=np.int64)
    fracs = rng.random(n_clients)
    phases = (fracs * n_phases).astype(np.int64)
    counts = np.bincount(jids * n_phases + phases, minlength=n_j * n_phases)
    keys = np.flatnonzero(counts)

    lat, tun = [], []
    for key in keys.tolist():
        jid, phase = divmod(key, n_phases)
        start_packet = (phase * cycle) // n_phases
        model = None
        if theta is not None:
            model = LinkErrorModel(
                theta=theta, scope="index",
                seed=(error_seed * 1_000_003 + key) & 0x7FFFFFFF,
            )
        out = run_journey(index, view, config, journeys[jid],
                          start_packet=start_packet, error_model=model,
                          knn_strategy=knn_strategy)
        lat.append(out.total_latency_bytes)
        tun.append(out.total_tuning_bytes)
    return (np.array(lat, dtype=np.float64), np.array(tun, dtype=np.float64),
            counts[keys])


@pytest.mark.parametrize("theta", [None, 0.12], ids=["lossless", "errors"])
@pytest.mark.parametrize("channels", [1, 4])
@pytest.mark.parametrize("kind", ["dsi", "rtree", "hci"])
@given(data=st.data())
@settings(**_SETTINGS)
def test_fleet_matches_brute_force(kind, channels, theta, data):
    n_objects = data.draw(st.integers(min_value=40, max_value=90))
    dataset_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    n_queries = data.draw(st.integers(min_value=2, max_value=6))
    workload_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    fleet_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))

    dataset = uniform_dataset(n_objects, seed=dataset_seed)
    workload = window_workload(n_queries, 0.12, seed=workload_seed)
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    index = build_index(kind, dataset, config, use_cache=False)
    trials = list(workload)

    result = run_fleet(
        index, dataset, config, workload, N_CLIENTS, seed=fleet_seed,
        max_phases=MAX_PHASES, error_theta=theta, error_seed=3,
    )
    lat, tun, counts = _brute_force_uniques(
        index, config, trials, n_clients=N_CLIENTS, seed=fleet_seed,
        max_phases=MAX_PHASES, theta=theta, error_seed=3,
    )

    assert result.n_executions == len(lat)
    np.testing.assert_array_equal(result.unique_counts, counts)
    np.testing.assert_array_equal(result.unique_latency, lat)
    np.testing.assert_array_equal(result.unique_tuning, tun)
    assert result.backend == "numpy"
    assert result.backend_reason is None


@pytest.mark.parametrize("theta", [None, 0.12], ids=["lossless", "errors"])
@pytest.mark.parametrize("channels", [1, 4])
@pytest.mark.parametrize("kind", ["dsi", "rtree", "hci"])
@given(data=st.data())
@settings(**_SETTINGS)
def test_optimized_fleet_matches_brute_force(kind, channels, theta, data):
    """Demand-optimized (replicated) schedules stay on the kernel, exactly.

    The optimizer re-airs hot data buckets twice or more per macro-cycle
    (up to its copy cap), so the kernels' multiplicity-aware occurrence
    arithmetic (nearest-copy waits, entry-occurrence lane keys, replicated
    visit seeks for DSI; per-copy frontier arrivals for the tree sweeps) is
    what's under test here -- against scalar sessions walking the same
    explicit layout.
    """
    n_objects = data.draw(st.integers(min_value=40, max_value=90))
    dataset_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    workload_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    fleet_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    budget = data.draw(st.floats(min_value=1.4, max_value=3.0))

    dataset = uniform_dataset(n_objects, seed=dataset_seed)
    workload = window_workload(4, 0.15, seed=workload_seed)
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    index = build_index(kind, dataset, config, use_cache=False)
    demand = workload.bucket_demand(index, dataset)
    schedule = BroadcastSchedule.optimized(
        index.program, demand, channels=channels, budget=budget
    )
    # Any replicated layout: the kernels take any multiplicity, and most
    # 4-channel R-tree layouts here air some bucket more than 9 times.
    assume(timeline_of(schedule.view()).max_multiplicity >= 2)
    trials = list(workload)

    result = run_fleet(
        index, dataset, config, workload, N_CLIENTS, seed=fleet_seed,
        max_phases=MAX_PHASES, error_theta=theta, error_seed=5,
        schedule=schedule,
    )
    lat, tun, counts = _brute_force_uniques(
        index, config, trials, n_clients=N_CLIENTS, seed=fleet_seed,
        max_phases=MAX_PHASES, theta=theta, error_seed=5, schedule=schedule,
    )

    assert result.backend == "numpy"
    assert result.schedule_policy == "optimized"
    assert result.n_executions == len(lat)
    np.testing.assert_array_equal(result.unique_counts, counts)
    np.testing.assert_array_equal(result.unique_latency, lat)
    np.testing.assert_array_equal(result.unique_tuning, tun)


@pytest.mark.parametrize("theta", [None, 0.12], ids=["lossless", "errors"])
@pytest.mark.parametrize("channels", [1, 4])
@pytest.mark.parametrize("kind", ["dsi", "rtree", "hci"])
@given(data=st.data())
@settings(**_SETTINGS)
def test_mobile_fleet_matches_brute_force(kind, channels, theta, data):
    """Warm 3-hop journey fleets equal per-journey scalar clients exactly.

    Exercises the journey kernels' persistent lanes: knowledge and the
    parked channel carried across hops with per-hop examined/processed
    resets for DSI, and the warm node-cache bitmask (free drain cascades)
    for the tree-walk indexes.
    """
    n_objects = data.draw(st.integers(min_value=40, max_value=90))
    dataset_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    traj_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    fleet_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))

    dataset = uniform_dataset(n_objects, seed=dataset_seed)
    trajectories = trajectory_workload(
        n_journeys=4, n_steps=3, seed=traj_seed, win_side_ratio=0.12
    )
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    index = build_index(kind, dataset, config, use_cache=False)

    result = run_mobile_fleet(
        index, dataset, config, trajectories, N_CLIENTS, seed=fleet_seed,
        max_phases=MAX_PHASES, error_theta=theta, error_seed=7,
    )
    lat, tun, counts = _brute_force_journeys(
        index, config, list(trajectories), n_clients=N_CLIENTS,
        seed=fleet_seed, max_phases=MAX_PHASES, theta=theta, error_seed=7,
    )

    assert result.n_executions == len(lat)
    np.testing.assert_array_equal(result.unique_counts, counts)
    np.testing.assert_array_equal(result.unique_latency, lat)
    np.testing.assert_array_equal(result.unique_tuning, tun)
    assert result.backend == "numpy"


#: kNN fleet cells; the DSI cells keep the ids they had before the tree
#: indexes joined the suite.
_KNN_FLEET_CELLS = [
    pytest.param(
        kind, channels, strategy,
        id=f"{channels}-{strategy}" if kind == "dsi" else f"{kind}-{channels}-{strategy}",
    )
    for kind in ("dsi", "rtree", "hci")
    for channels in (1, 4)
    for strategy in ("aggressive", "conservative")
]


@pytest.mark.parametrize("kind, channels, strategy", _KNN_FLEET_CELLS)
@given(data=st.data())
@settings(**_SETTINGS)
def test_knn_fleet_matches_brute_force(kind, channels, strategy, data):
    """Cold kNN fleets equal brute force exactly, on every index.

    DSI runs the batched kernel: it compiles every per-query distance once
    and advances all ``(query, entry occurrence)`` lanes through the
    radius-driven planner loop in lockstep -- candidate covers,
    k-th-candidate radii, frame choices (conservative arrival order and the
    aggressive distance-first jump) all batched.  Tree indexes decline to
    the reference path, which must run every trial *cold*: a warm node
    cache already changes an HCI kNN query on its own, because the range
    sweep re-reads nodes the leaf sweeps read.  Either way every unique
    execution must match a fresh scalar session bit for bit.
    """
    n_objects = data.draw(st.integers(min_value=40, max_value=90))
    dataset_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    workload_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    fleet_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    k = data.draw(st.integers(min_value=1, max_value=24))

    dataset = uniform_dataset(n_objects, seed=dataset_seed)
    workload = knn_workload(4, k=k, seed=workload_seed)
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    index = build_index(kind, dataset, config, use_cache=False)
    trials = list(workload)

    result = run_fleet(
        index, dataset, config, workload, N_CLIENTS, seed=fleet_seed,
        max_phases=MAX_PHASES, verify=True, knn_strategy=strategy,
    )
    lat, tun, counts = _brute_force_uniques(
        index, config, trials, n_clients=N_CLIENTS, seed=fleet_seed,
        max_phases=MAX_PHASES, theta=None, error_seed=0,
        knn_strategy=strategy,
    )

    if kind == "dsi":
        assert result.backend == "numpy"
        assert result.backend_reason is None
    else:
        assert result.backend == "reference"
        assert "kNN trials on tree indexes" in result.backend_reason
    assert result.n_executions == len(lat)
    np.testing.assert_array_equal(result.unique_counts, counts)
    np.testing.assert_array_equal(result.unique_latency, lat)
    np.testing.assert_array_equal(result.unique_tuning, tun)
    total = result.result.correct_trials + result.result.incorrect_trials
    assert total == N_CLIENTS
    assert result.capped_executions == 0


@pytest.mark.parametrize("strategy", ["conservative", "aggressive"])
@pytest.mark.parametrize("channels", [1, 4])
@given(data=st.data())
@settings(**_SETTINGS)
def test_knn_mobile_fleet_matches_brute_force(channels, strategy, data):
    """Warm 3-hop kNN journey fleets equal per-journey scalar clients.

    Exercises the batched kernel's warm path: after the cold first hop,
    every later hop re-arms with a probe and seeds its candidate space
    from the knowledge the lane carried over -- the planner's warm start
    -- so kNN journeys no longer decline to the reference path.
    """
    n_objects = data.draw(st.integers(min_value=40, max_value=90))
    dataset_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    traj_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    fleet_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    k = data.draw(st.integers(min_value=1, max_value=24))

    dataset = uniform_dataset(n_objects, seed=dataset_seed)
    trajectories = trajectory_workload(
        n_journeys=4, n_steps=3, seed=traj_seed, query="knn", k=k
    )
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    index = build_index("dsi", dataset, config, use_cache=False)

    result = run_mobile_fleet(
        index, dataset, config, trajectories, N_CLIENTS, seed=fleet_seed,
        max_phases=MAX_PHASES, knn_strategy=strategy,
    )
    lat, tun, counts = _brute_force_journeys(
        index, config, list(trajectories), n_clients=N_CLIENTS,
        seed=fleet_seed, max_phases=MAX_PHASES, theta=None, error_seed=0,
        knn_strategy=strategy,
    )

    assert result.backend == "numpy"
    assert result.backend_reason is None
    assert result.n_executions == len(lat)
    np.testing.assert_array_equal(result.unique_counts, counts)
    np.testing.assert_array_equal(result.unique_latency, lat)
    np.testing.assert_array_equal(result.unique_tuning, tun)


def test_repro_pure_stands_down(monkeypatch):
    """REPRO_PURE=1 forces the reference path -- and its numbers agree.

    Every kernel family (DSI windows, tree windows, batched kNN lanes)
    must stand down cleanly: backend "reference", the REPRO_PURE note as
    the reason, and identical population statistics.
    """
    dataset = uniform_dataset(80, seed=11)
    config = SystemConfig(packet_capacity=64, n_channels=4)
    cases = [
        ("dsi", window_workload(4, 0.12, seed=3)),
        ("rtree", window_workload(4, 0.12, seed=3)),
        ("hci", window_workload(4, 0.12, seed=3)),
        ("dsi", knn_workload(3, k=4, seed=3)),
    ]
    for kind, workload in cases:
        index = build_index(kind, dataset, config, use_cache=False)
        fast = run_fleet(index, dataset, config, workload, 500, seed=9,
                         max_phases=8)
        assert fast.backend == "numpy"
        monkeypatch.setenv("REPRO_PURE", "1")
        try:
            pure = run_fleet(index, dataset, config, workload, 500, seed=9,
                             max_phases=8)
        finally:
            monkeypatch.delenv("REPRO_PURE")
        assert pure.backend == "reference"
        assert "REPRO_PURE" in pure.backend_reason
        np.testing.assert_array_equal(fast.unique_latency, pure.unique_latency)
        np.testing.assert_array_equal(fast.unique_tuning, pure.unique_tuning)


_LOSSY_GRID = [
    (kind, items, channels, theta)
    for kind, items in (("dsi", "windows"), ("rtree", "windows"), ("hci", "windows"),
                        ("dsi", "journeys"))
    for channels in (1, 4)
    for theta in (0.12, 0.5)
]


@pytest.mark.parametrize(
    "kind, items, channels, theta", _LOSSY_GRID,
    ids=[f"{k}-{i}-{c}ch-{t}" for k, i, c, t in _LOSSY_GRID],
)
def test_lossy_grid_kernel_matches_reference(kind, items, channels, theta, monkeypatch):
    """A fixed grid of index-scope lossy fleets -- DSI, R-tree and HCI
    windows and DSI 3-hop journeys, on 1 and 4 channels -- runs on the
    kernel with exactly the arrays of its ``REPRO_PURE=1`` twin: every
    lane tests the read it makes against its execution's model key."""
    dataset = uniform_dataset(150, seed=21)
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    index = build_index(kind, dataset, config, use_cache=False)
    if items == "journeys":
        workload = trajectory_workload(n_journeys=4, n_steps=3, seed=5,
                                       win_side_ratio=0.15)
        run = run_mobile_fleet
    else:
        workload = window_workload(5, 0.15, seed=5)
        run = run_fleet

    def fleet():
        return run(index, dataset, config, workload, 600, seed=17, max_phases=24,
                   error_theta=theta, error_seed=29, verify=True)

    fast = fleet()
    assert fast.backend == "numpy", fast.backend_reason
    monkeypatch.setenv("REPRO_PURE", "1")
    pure = fleet()
    assert pure.backend == "reference"
    np.testing.assert_array_equal(fast.unique_counts, pure.unique_counts)
    np.testing.assert_array_equal(fast.unique_latency, pure.unique_latency)
    np.testing.assert_array_equal(fast.unique_tuning, pure.unique_tuning)
    assert fast.result.accuracy == pure.result.accuracy == 1.0


@pytest.mark.parametrize("channels", [1, 4])
@pytest.mark.parametrize("kind", ["dsi", "rtree", "hci"])
def test_window_outside_the_space_answers_empty(kind, channels, monkeypatch):
    """A window that misses the unit square answers [] on every index, as
    in ground truth: the planner returns nothing, and a fleet holding it is
    correct on the kernel, with the arrays a ``REPRO_PURE=1`` fleet has."""
    dataset = uniform_dataset(80, seed=11)
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    index = build_index(kind, dataset, config, use_cache=False)
    outside = WindowQuery(Rect(1.2, 1.2, 1.5, 1.5))
    view = BroadcastSchedule.for_config(index.program, config).view()
    outcome = execute_query(index, outside, ClientSession(view, config, start_packet=5))
    assert outcome.objects == []
    workload = Workload(
        "outside", [Trial(outside, 0.0)] + window_workload(3, 0.12, seed=3).trials
    )

    def run():
        return run_fleet(index, dataset, config, workload, 500, seed=9,
                         max_phases=8, verify=True)

    fast = run()
    assert fast.backend == "numpy"
    assert fast.result.accuracy == 1.0
    monkeypatch.setenv("REPRO_PURE", "1")
    pure = run()
    assert pure.backend == "reference"
    assert pure.result.accuracy == 1.0
    np.testing.assert_array_equal(fast.unique_counts, pure.unique_counts)
    np.testing.assert_array_equal(fast.unique_latency, pure.unique_latency)
    np.testing.assert_array_equal(fast.unique_tuning, pure.unique_tuning)


def test_kernel_backend_selection():
    """The numpy kernel takes exactly the envelope it proves exact.

    Window fleets -- DSI, R-tree and HCI, lossless or index-scope lossy --
    and lossless DSI kNN fleets (both strategies) run on the lockstep
    kernels (both channel layouts); non-index error scopes and kNN-on-tree
    or lossy-kNN runs fall back to the per-execution reference simulator,
    and the decline reason is recorded on the result.
    """
    dataset = uniform_dataset(200, seed=7)
    workload = window_workload(6, 0.1, seed=3)
    for channels in (1, 4):
        config = SystemConfig(packet_capacity=64, n_channels=channels)
        for kind in ("dsi", "rtree", "hci"):
            index = build_index(kind, dataset, config, use_cache=False)
            out = run_fleet(index, dataset, config, workload, 2_000, seed=9,
                            max_phases=32)
            assert out.backend == "numpy"
            assert out.backend_reason is None
            err = run_fleet(index, dataset, config, workload, 2_000, seed=9,
                            max_phases=32, error_theta=0.05)
            assert err.backend == "numpy"
            assert err.backend_reason is None
    config = SystemConfig(packet_capacity=64)
    index = build_index("dsi", dataset, config, use_cache=False)
    all_scope = run_fleet(index, dataset, config, workload, 2_000, seed=9,
                          max_phases=32, error_theta=0.05, error_scope="all")
    assert all_scope.backend == "reference"
    assert "scope" in all_scope.backend_reason
    assert all_scope.as_row()["backend_reason"] == all_scope.backend_reason

    knn = knn_workload(4, k=5, seed=3)
    for strategy in ("conservative", "aggressive"):
        out = run_fleet(index, dataset, config, knn, 2_000, seed=9,
                        max_phases=32, knn_strategy=strategy)
        assert out.backend == "numpy"
        assert out.backend_reason is None
    err = run_fleet(index, dataset, config, knn, 2_000, seed=9, max_phases=32,
                    error_theta=0.05)
    assert err.backend == "reference"
    assert "kNN fleets with link errors" in err.backend_reason
    # Any lossy kNN fleet declines as lossy kNN, whatever its error scope.
    err = run_fleet(index, dataset, config, knn, 2_000, seed=9, max_phases=32,
                    error_theta=0.05, error_scope="all")
    assert err.backend == "reference"
    assert "kNN fleets with link errors" in err.backend_reason
    rtree = build_index("rtree", dataset, config, use_cache=False)
    out = run_fleet(rtree, dataset, config, knn, 2_000, seed=9, max_phases=32)
    assert out.backend == "reference"
    assert "kNN trials on tree indexes" in out.backend_reason


@pytest.mark.parametrize("kind", ["rtree", "hci"])
def test_tree_sweep_guard_flags_capped_executions(kind, monkeypatch):
    """A tree sweep that reaches its guard is flagged, never silent.

    With the shared guard (``TreeOnAir.sweep_guard``) patched down to two
    steps, the frontier-sweep kernel declines -- it cannot truncate like
    the reference -- and the reference sweeps stop early and flag their
    results, so window and kNN fleets and journeys all report capped
    executions, as they do for the DSI kNN planner's cap.
    """
    from repro.broadcast.treeair import TreeOnAir

    dataset = uniform_dataset(80, seed=11)
    config = SystemConfig(packet_capacity=64)
    windows = window_workload(4, 0.3, seed=3)
    knn = knn_workload(3, k=4, seed=3)
    journeys = trajectory_workload(n_journeys=3, n_steps=2, seed=3,
                                   win_side_ratio=0.3)

    def runs():
        index = build_index(kind, dataset, config, use_cache=False)
        kw = dict(seed=9, max_phases=8)
        return (
            run_fleet(index, dataset, config, windows, 500, **kw),
            run_fleet(index, dataset, config, knn, 500, **kw),
            run_mobile_fleet(index, dataset, config, journeys, 500, **kw),
        )

    window, nearest, mobile = runs()
    assert window.backend == mobile.backend == "numpy"
    assert nearest.backend == "reference"
    assert window.capped_executions == nearest.capped_executions == 0
    assert mobile.capped_executions == 0

    monkeypatch.setattr(TreeOnAir, "sweep_guard", property(lambda self: 2))
    window, nearest, mobile = runs()
    for result in (window, mobile):
        assert result.backend == "reference"
        assert result.backend_reason == "tree sweep guard exceeded"
    for result in (window, nearest, mobile):
        assert result.capped_executions > 0
        assert result.as_row()["capped_executions"] == result.capped_executions


@pytest.mark.parametrize("kind", ["rtree", "hci"])
def test_tree_root_read_retry_bound_is_shared(kind, monkeypatch):
    """Both tree engines stop retrying a lost root at one bound.

    ``TreeOnAir.read_guard`` bounds the reference's ``read_node`` and the
    kernel's root read.  Unpatched, an index-scope fleet at θ 0.5 runs on
    the kernel with the arrays of its ``REPRO_PURE=1`` twin.  Patched down
    to two tries, the kernel declines with "root read retries exhausted"
    and the fleet raises the reference's ``RuntimeError``, with and without
    ``REPRO_PURE=1``.
    """
    from repro.broadcast.treeair import TreeOnAir
    from repro.sim import fleet_kernel

    dataset = uniform_dataset(80, seed=11)
    config = SystemConfig(packet_capacity=64)
    windows = window_workload(4, 0.3, seed=3)
    declines = []
    simulate = fleet_kernel._simulate_items

    def spy(*args, **kwargs):
        try:
            return simulate(*args, **kwargs)
        except fleet_kernel.KernelUnsupported as exc:
            declines.append(str(exc))
            raise

    monkeypatch.setattr(fleet_kernel, "_simulate_items", spy)

    def run(pure):
        if pure:
            monkeypatch.setenv("REPRO_PURE", "1")
        else:
            monkeypatch.delenv("REPRO_PURE", raising=False)
        index = build_index(kind, dataset, config, use_cache=False)
        return run_fleet(index, dataset, config, windows, 500, seed=9,
                         max_phases=8, error_theta=0.5)

    fast, pure = run(False), run(True)
    assert (fast.backend, pure.backend) == ("numpy", "reference")
    assert declines == []
    np.testing.assert_array_equal(fast.unique_counts, pure.unique_counts)
    np.testing.assert_array_equal(fast.unique_latency, pure.unique_latency)
    np.testing.assert_array_equal(fast.unique_tuning, pure.unique_tuning)

    monkeypatch.setattr(TreeOnAir, "read_guard", property(lambda self: 2))
    for pure in (False, True):
        with pytest.raises(RuntimeError, match="unreadable after 2 attempts"):
            run(pure)
    assert declines == ["root read retries exhausted"]


@pytest.mark.parametrize("guard", ["window_guard", "knn_guard"])
def test_dsi_planner_guards_flag_capped_executions(guard, monkeypatch):
    """A DSI window walk or kNN search that reaches its guard is flagged.

    Each planner cap is defined once, on :class:`DsiAirView`, and read by
    both engines.  With one of them patched down to a single step, the
    walkers of that query family decline with their usual reasons -- they
    cannot truncate like the reference -- and the reference planners stop
    early and flag their results, so window fleets and window journeys (or
    kNN fleets) report capped executions.  The other family stays on the
    kernel, untruncated.
    """
    from repro.core.structure import DsiAirView

    dataset = uniform_dataset(80, seed=11)
    config = SystemConfig(packet_capacity=64)
    windows = window_workload(4, 0.3, seed=3)
    knn = knn_workload(3, k=4, seed=3)
    journeys = trajectory_workload(n_journeys=3, n_steps=2, seed=3,
                                   win_side_ratio=0.3)

    def runs():
        index = build_index("dsi", dataset, config, use_cache=False)
        kw = dict(seed=9, max_phases=8)
        return {
            "window": run_fleet(index, dataset, config, windows, 500, **kw),
            "journey": run_mobile_fleet(index, dataset, config, journeys, 500, **kw),
            "knn": run_fleet(index, dataset, config, knn, 500, **kw),
        }

    for result in runs().values():
        assert result.backend == "numpy"
        assert result.capped_executions == 0

    monkeypatch.setattr(DsiAirView, guard, property(lambda self: 1))
    capped = ("window", "journey") if guard == "window_guard" else ("knn",)
    for name, result in runs().items():
        if name not in capped:
            assert result.backend == "numpy"
            assert result.capped_executions == 0
            continue
        assert result.backend == "reference"
        assert result.backend_reason == (
            "hop limit exceeded" if guard == "window_guard"
            else "kNN planner iteration cap takes the reference path"
        )
        assert result.capped_executions > 0
        assert result.as_row()["capped_executions"] == result.capped_executions


def test_kernel_verify_counts_clients():
    """``verify=True`` through the kernel audits every client exactly once."""
    dataset = uniform_dataset(200, seed=7)
    workload = window_workload(6, 0.1, seed=3)
    config = SystemConfig(packet_capacity=64, n_channels=4)
    index = build_index("dsi", dataset, config, use_cache=False)
    out = run_fleet(index, dataset, config, workload, 2_000, seed=9,
                    max_phases=32, verify=True)
    assert out.backend == "numpy"
    total = out.result.correct_trials + out.result.incorrect_trials
    assert total == 2_000
    assert out.result.accuracy == 1.0


# --- kNN cover masks: oracle corpus, warm memo, memo bound -------------------

#: Seeded (dataset, workload, channels, strategy, k, journeys) cells whose
#: real kNN walks supply the (knowledge, cover) corpus below.
_KNN_CORPUS_CELLS = [
    (101, 7, 1, "conservative", 3, False),
    (202, 8, 4, "conservative", 5, False),
    (303, 9, 1, "aggressive", 1, False),
    (404, 10, 4, "aggressive", 12, False),
    (505, 11, 1, "conservative", 4, True),
    (606, 12, 4, "aggressive", 2, True),
]


def _piece_interval_candidates(mins, kn, covers):
    """Test oracle: the kNN lanes' former piece-interval candidacy.

    Each cover piece's global rank bounds ``a0`` (last rank whose minimum
    is <= the piece's low end) and ``b0`` (first rank whose minimum
    exceeds its high end) expand under a lane's knowledge to
    ``[kn_prev(max(a0, 0)), kn_next(b0) - 1]``; candidates are the union,
    built as a bincount difference array over padded piece matrices.
    """
    n_live, n_frames = kn.shape
    width = max(len(c) for c in covers)
    a0 = np.zeros((n_live, width), dtype=np.int64)
    b0 = np.zeros((n_live, width), dtype=np.int64)
    plen = np.array([len(c) for c in covers], dtype=np.int64)
    for row, cover in enumerate(covers):
        bounds = np.asarray(cover, dtype=np.int64).reshape(-1, 2)
        a0[row, : len(cover)] = np.searchsorted(mins, bounds[:, 0], side="right") - 1
        b0[row, : len(cover)] = np.searchsorted(mins, bounds[:, 1], side="right")
    ranks_row = np.arange(n_frames, dtype=np.int32)
    rows = np.arange(n_live)
    kn_prev = np.maximum.accumulate(np.where(kn, ranks_row, -1), axis=1)
    kn_next = np.minimum.accumulate(
        np.where(kn, ranks_row, n_frames)[:, ::-1], axis=1
    )[:, ::-1]
    kn_next_pad = np.concatenate(
        [kn_next, np.full((n_live, 1), n_frames, dtype=np.int32)], axis=1
    )
    a = np.maximum(kn_prev[rows[:, None], np.maximum(a0, 0)], 0)
    b = kn_next_pad[rows[:, None], b0] - 1
    valid = (np.arange(width)[None, :] < plen[:, None]) & (a <= b)
    vr, vp = np.nonzero(valid)
    stride = n_frames + 1
    diff = np.bincount(vr * stride + a[vr, vp], minlength=n_live * stride)
    diff -= np.bincount(vr * stride + b[vr, vp] + 1, minlength=n_live * stride)
    return np.cumsum(diff.reshape(n_live, stride)[:, :n_frames], axis=1) > 0


def _knn_index_and_run(dataset_seed, workload_seed, channels, strategy, k,
                       journeys, index=None, curve_order=None):
    dataset = uniform_dataset(70, seed=dataset_seed, curve_order=curve_order)
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    if index is None:
        index = build_index("dsi", dataset, config, use_cache=False)
    if journeys:
        workload = trajectory_workload(
            n_journeys=4, n_steps=3, seed=workload_seed, query="knn", k=k
        )
        result = run_mobile_fleet(
            index, dataset, config, workload, N_CLIENTS, seed=workload_seed,
            max_phases=MAX_PHASES, knn_strategy=strategy,
        )
    else:
        workload = knn_workload(4, k=k, seed=workload_seed)
        result = run_fleet(
            index, dataset, config, workload, N_CLIENTS, seed=workload_seed,
            max_phases=MAX_PHASES, knn_strategy=strategy,
        )
    assert result.backend == "numpy", result.backend_reason
    return index, result


def test_cover_masks_match_piece_interval_oracle(monkeypatch):
    """Cover candidacy equals the piece-interval candidacy on real walks.

    Every (knowledge row, prune circle) pair the kNN lanes meet in the
    corpus cells is captured at the walk's candidacy and replayed twice:
    through a fresh cover memo and the position-bit fill, and through the
    scalar planner's cover (``ranges_for_circle``, or the full range at an
    infinite radius) fed to the oracle.  The candidate sets must agree row
    for row.
    """
    from repro.sim import fleet_kernel as fk

    calls = []
    real_resolve = fk._KnnCovers.resolve
    real_candidates = fk._PositionBits.candidates

    def resolve(self, qids, qx, qy, prune):
        calls.append([qx[qids], qy[qids], prune.copy(), None])
        return real_resolve(self, qids, qx, qy, prune)

    def candidates(self, hit, known, examined):
        calls[-1][3] = self.unpack(known)
        return real_candidates(self, hit, known, examined)

    monkeypatch.setattr(fk._KnnCovers, "resolve", resolve)
    monkeypatch.setattr(fk._PositionBits, "candidates", candidates)
    walks = []
    for cell in _KNN_CORPUS_CELLS:
        start = len(calls)
        index, _ = _knn_index_and_run(*cell)
        walks.append((index, calls[start:]))
    monkeypatch.undo()

    n_rows = n_inf = 0
    for index, corpus in walks:
        static = fk._static_of(index)
        kst = fk._knn_static_of(index, static)
        mins, pbits = static.mins, kst.pbits
        curve = index.curve
        px, py, prune, kn_pos = (
            np.concatenate([c[f] for c in corpus]) for f in range(4)
        )
        kn = kn_pos[:, static.pos_of_rank]
        memo = fk._KnnCovers(curve, mins, kst.rank_of_pos, pbits)
        cids = memo.resolve(np.arange(len(prune)), px, py, prune)
        known = pbits.pack(kn_pos)
        cand = pbits.candidates(memo.bits.take(cids, axis=1), known, np.zeros_like(known))
        got = pbits.unpack(cand)[:, static.pos_of_rank]
        covers = [
            [(0, curve.max_value - 1)] if np.isinf(r)
            else curve.ranges_for_circle(Point(x, y), r, max_ranges=64)
            for x, y, r in zip(px.tolist(), py.tolist(), prune.tolist())
        ]
        want = _piece_interval_candidates(mins, kn, covers)
        np.testing.assert_array_equal(got, want)
        n_rows += len(kn)
        n_inf += int(np.isinf(prune).sum())
    assert n_rows > 1_000 and 0 < n_inf < n_rows


@pytest.mark.parametrize("journeys", [False, True], ids=["fleet", "journey"])
@pytest.mark.parametrize("strategy", ["conservative", "aggressive"])
@pytest.mark.parametrize("channels", [1, 4])
def test_knn_warm_cover_memo_matches_cold(channels, strategy, journeys):
    """A second kNN call on one index (warm cover memo) changes nothing.

    The rank-mask memo lives on the index, so the second call resolves
    its circles from covers the first one compiled; both must equal each
    other and a call on a freshly built index, execution for execution.
    """
    from repro.sim import fleet_kernel as fk

    cell = (77, 5, channels, strategy, 4, journeys)
    index, first = _knn_index_and_run(*cell)
    covers = fk._knn_static_of(index, fk._static_of(index)).covers
    memo = getattr(covers, fk._MEMO_ATTR)
    assert memo
    n_covers = len(memo)
    _, second = _knn_index_and_run(*cell, index=index)
    assert len(memo) == n_covers  # every circle was a memo hit
    _, fresh = _knn_index_and_run(*cell)
    for other in (second, fresh):
        np.testing.assert_array_equal(first.unique_counts, other.unique_counts)
        np.testing.assert_array_equal(first.unique_latency, other.unique_latency)
        np.testing.assert_array_equal(first.unique_tuning, other.unique_tuning)


def test_knn_cover_memo_bound_clears_mid_fleet(monkeypatch):
    """A memo that overflows its cap mid-walk resets without changing a
    single execution: ids handed out by one ``resolve`` stay valid until
    the walk has gathered their masks."""
    from repro.sim import fleet_kernel as fk

    cell = (88, 6, 4, "conservative", 5, False)
    _, full = _knn_index_and_run(*cell)
    clears = []
    real_resolve = fk._KnnCovers.resolve

    def resolve(self, *args):
        clears.append(len(getattr(self, fk._MEMO_ATTR, ())) >= fk._MEMO_MAX)
        return real_resolve(self, *args)

    monkeypatch.setattr(fk, "_MEMO_MAX", 3)
    monkeypatch.setattr(fk._KnnCovers, "resolve", resolve)
    _, capped = _knn_index_and_run(*cell)
    assert sum(clears) >= 2 and not clears[0]
    np.testing.assert_array_equal(full.unique_counts, capped.unique_counts)
    np.testing.assert_array_equal(full.unique_latency, capped.unique_latency)
    np.testing.assert_array_equal(full.unique_tuning, capped.unique_tuning)


# --- kNN candidate rows: partition oracle, equal distances, k past n ---------


def _partition_radius(walker, lanes, rows):
    """Test oracle: the kNN lanes' former radius sync.

    Rebuilds each lane's whole candidate multiset from its masks -- the
    estimates of its estimated groups and the exact distances of its
    retrieved objects -- and takes the k-th smallest with one row-wise
    ``np.partition`` per k, inf below k candidates, as the partition of the
    former value pool did.  Returns ``(radius, multiset size, sorted
    multiset)``.
    """
    lid, qid, kk = lanes.idx[rows], lanes.qid[rows], lanes.kk[rows]
    pool = np.concatenate([
        np.where(lanes.gs[lid] == 1, walker.est_g[qid], np.inf),
        np.where(lanes.rt[lid], walker.ex_d[qid], np.inf),
    ], axis=1)
    size = np.isfinite(pool).sum(axis=1)
    radius = np.full(len(rows), np.inf)
    for k in np.unique(kk).tolist():
        full = (kk == k) & (size >= k)
        if full.any():
            radius[full] = np.partition(pool[full], k - 1, axis=1)[:, k - 1]
    pool.sort(axis=1)
    return radius, size, pool


def _check_radius_reads(monkeypatch):
    """Patch the kNN walker's radius read to check every read against the
    partition oracle: the k-th entry equals its radius, and the row holds
    the multiset's W smallest values (all of them, inf beyond, while there
    are fewer).  Returns one ``(rows, full rows)`` pair per read, a full
    row holding W candidates or more (so a finite frontier)."""
    from repro.sim import fleet_kernel as fk

    reads = []
    real = fk._KnnWalker._radius

    def radius(self, lanes, rows):
        got = real(self, lanes, rows)
        want, size, pool = _partition_radius(self, lanes, rows)
        np.testing.assert_array_equal(got, want)
        w = self.width
        head = np.full((len(rows), w), np.inf)
        head[:, : min(w, pool.shape[1])] = pool[:, :w]
        np.testing.assert_array_equal(lanes.top[rows], head)
        reads.append((len(rows), int((size >= w).sum())))
        return got

    monkeypatch.setattr(fk._KnnWalker, "_radius", radius)
    return reads


#: Curve order 3 (64 cells) for 70 objects: most objects share their HC
#: value with another, so a fetch whose group another object's fetch
#: already popped adds a candidate without popping an estimate.
SHARED_HC_ORDER = 3


@pytest.mark.parametrize("journeys", [False, True], ids=["fleet", "journey"])
@pytest.mark.parametrize("strategy", ["conservative", "aggressive"])
@pytest.mark.parametrize("channels", [1, 4])
def test_knn_rows_match_partition_oracle(channels, strategy, journeys, monkeypatch):
    """Every radius a kNN lane reads is the k-th smallest candidate.

    The walker keeps each lane's smallest candidates in a sorted row and
    updates it at each change instead of re-partitioning its candidate
    multiset.  On seeded fleets and 3-hop journeys with k 1, 4 and 10,
    over data with distinct HC values and over data where objects share
    them, every read (the cover radius and each object-slot test) must
    equal the partition oracle over the multiset rebuilt from the lane's
    masks, and every row must hold the multiset's smallest values.
    """
    reads = _check_radius_reads(monkeypatch)
    for k in (1, 4, 10):
        _knn_index_and_run(60 + k, 30 + k, channels, strategy, k, journeys)
        shared = uniform_dataset(70, seed=60 + k, curve_order=SHARED_HC_ORDER)
        assert len({o.hc for o in shared.objects}) < 50
        _knn_index_and_run(60 + k, 30 + k, channels, strategy, k, journeys,
                           curve_order=SHARED_HC_ORDER)
    assert len(reads) > 40


@pytest.mark.parametrize("spare", [0, 1])
def test_knn_rows_with_few_spares(spare, monkeypatch):
    """Candidate rows only ``spare`` entries wider than k.

    With few spares a full row often drops an estimate for an exact
    distance above its frontier; it is then an entry short and rebuilds
    from the lane's masks.  On data with distinct HC values and on data
    where objects share them, every radius read equals the partition
    oracle and every execution equals the run with the default spares.
    """
    from repro.sim import fleet_kernel as fk

    cells = [((88, 6, 4, "conservative", 5, False), None),
             ((60, 40, 4, "aggressive", 10, False), SHARED_HC_ORDER)]
    default = [_knn_index_and_run(*cell, curve_order=order)[1]
               for cell, order in cells]
    reads = _check_radius_reads(monkeypatch)
    rebuilt = []
    real_rebuild = fk._KnnWalker._rebuild

    def rebuild(self, lanes, rows):
        rebuilt.append(len(rows))
        return real_rebuild(self, lanes, rows)

    monkeypatch.setattr(fk, "_KNN_ROW_SPARE", spare)
    monkeypatch.setattr(fk._KnnWalker, "_rebuild", rebuild)
    for (cell, order), want in zip(cells, default):
        n_rebuilt = sum(rebuilt)
        _, few = _knn_index_and_run(*cell, curve_order=order)
        assert sum(rebuilt) > n_rebuilt
        np.testing.assert_array_equal(want.unique_counts, few.unique_counts)
        np.testing.assert_array_equal(want.unique_latency, few.unique_latency)
        np.testing.assert_array_equal(want.unique_tuning, few.unique_tuning)
    assert sum(n_full for _, n_full in reads) > 0


def _grid_knn_workload(side, ks):
    """kNN queries on ``grid_dataset(side)`` whose answers cut rings of
    equal distance: at the grid centre, at a cell corner and at a cell
    centre (a data point), each with every k of ``ks``."""
    s = float(side)
    points = [Point(0.5, 0.5), Point(1 / s, 2 / s), Point(2.5 / s, 1.5 / s)]
    trials = [
        Trial(query=KnnQuery(point=p, k=k), tune_in_fraction=0.0)
        for p in points for k in ks
    ]
    return Workload(name=f"grid-{side}-knn", trials=trials)


@pytest.mark.parametrize("strategy", ["conservative", "aggressive"])
@pytest.mark.parametrize("channels", [1, 4])
@pytest.mark.parametrize("side", [6, 8, 16])
def test_knn_equal_distance_grids_match_brute_force(side, channels, strategy):
    """kNN fleets on data with equal distances equal brute force.

    Grid data puts rings of equidistant objects (and estimates) around
    each query; k 1, 4, 5, 8 and 9 close or cut those rings, so the
    radius, the candidate rows and the fetch tests all meet ties.  Every
    execution must equal a fresh scalar session and every answer verify.
    """
    dataset = grid_dataset(side)
    workload = _grid_knn_workload(side, (1, 4, 5, 8, 9))
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    index = build_index("dsi", dataset, config, use_cache=False)
    result = run_fleet(
        index, dataset, config, workload, N_CLIENTS, seed=side,
        max_phases=MAX_PHASES, verify=True, knn_strategy=strategy,
    )
    lat, tun, counts = _brute_force_uniques(
        index, config, list(workload), n_clients=N_CLIENTS, seed=side,
        max_phases=MAX_PHASES, theta=None, error_seed=0, knn_strategy=strategy,
    )
    assert result.backend == "numpy", result.backend_reason
    np.testing.assert_array_equal(result.unique_counts, counts)
    np.testing.assert_array_equal(result.unique_latency, lat)
    np.testing.assert_array_equal(result.unique_tuning, tun)
    assert result.result.correct_trials == N_CLIENTS
    assert result.result.incorrect_trials == 0


@pytest.mark.parametrize("strategy", ["conservative", "aggressive"])
@pytest.mark.parametrize("channels", [1, 4])
@pytest.mark.parametrize("n_objects, k", [(40, 40), (40, 45), (12, 30), (8, 8)])
def test_knn_k_at_and_past_the_object_count(n_objects, k, channels, strategy,
                                            monkeypatch):
    """k at or past the object count: past it the radius stays infinite,
    and the candidate row is wider than the whole candidate space.  Kernel
    arrays equal the reference's (``REPRO_PURE=1``), every radius read
    equals the partition oracle, and every answer verifies."""
    dataset = uniform_dataset(n_objects, seed=n_objects + k)
    workload = knn_workload(4, k=k, seed=k)
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    index = build_index("dsi", dataset, config, use_cache=False)

    def run():
        return run_fleet(
            index, dataset, config, workload, N_CLIENTS, seed=k,
            max_phases=MAX_PHASES, verify=True, knn_strategy=strategy,
        )

    reads = _check_radius_reads(monkeypatch)
    fast = run()
    assert reads
    monkeypatch.setenv("REPRO_PURE", "1")
    pure = run()
    assert fast.backend == "numpy", fast.backend_reason
    assert pure.backend == "reference"
    np.testing.assert_array_equal(fast.unique_counts, pure.unique_counts)
    np.testing.assert_array_equal(fast.unique_latency, pure.unique_latency)
    np.testing.assert_array_equal(fast.unique_tuning, pure.unique_tuning)
    assert fast.result.incorrect_trials == 0


def test_static_declines_tables_that_skip_rank_zero(monkeypatch):
    """The kernels rely on every table teaching rank 0; an index where one
    does not is declined, not simulated."""
    from repro.core.knowledge import ClientKnowledge
    from repro.sim import fleet_kernel as fk

    dataset = uniform_dataset(60, seed=3)
    config = SystemConfig(packet_capacity=64)
    index = build_index("dsi", dataset, config, use_cache=False)
    fk._Static(index)  # the built structure satisfies the invariant
    real_pairs = ClientKnowledge.table_pairs

    def pairs(self, table):
        return tuple(p for p in real_pairs(self, table) if p[0] != 0)

    monkeypatch.setattr(ClientKnowledge, "table_pairs", pairs)
    with pytest.raises(fk.KernelUnsupported, match="rank 0"):
        fk._Static(index)


# --- lane-hop helpers vs their former formulations ---------------------------


def _sweep_segment_candidates(kn, hit):
    """Test oracle: the four-sweep segment test the lane walkers ran before.

    Rank ``r`` qualifies iff ``(largest hit r' <= r) >= B(r)`` or
    ``(smallest hit r' > r) < A(r)``, with ``B``/``A`` running max/min
    sweeps over the known ranks (0 / ``F`` when none).
    """
    n_frames = kn.shape[1]
    rdt = np.int16 if n_frames < np.iinfo(np.int16).max else np.int32
    ranks_row = np.arange(n_frames, dtype=rdt)
    fill_hi = rdt(n_frames)
    below = np.maximum.accumulate(np.where(kn, ranks_row, rdt(0)), axis=1)
    prev_h = np.maximum.accumulate(np.where(hit, ranks_row, rdt(-1)), axis=1)
    above_ge = np.minimum.accumulate(
        np.where(kn, ranks_row, fill_hi)[:, ::-1], axis=1
    )[:, ::-1]
    next_h_ge = np.minimum.accumulate(
        np.where(hit, ranks_row, fill_hi)[:, ::-1], axis=1
    )[:, ::-1]
    cand = np.empty(kn.shape, dtype=bool)
    cand[:, :-1] = next_h_ge[:, 1:] < above_ge[:, 1:]
    cand[:, -1] = False
    cand |= prev_h >= below
    return cand


def _segment_candidates(kn, hit):
    """Test oracle: the dense segment test the kNN walker ran before its
    position bitsets (bool ``(rows, F)`` rank masks).

    Rank ``r`` qualifies iff some hit rank lies in ``[B(r), A(r))``, with
    ``B``/``A`` the nearest known ranks at/below and strictly above ``r``
    (0 / ``F`` when none).  Forcing rank 0 known is exactly that "0 when
    none" rule and never moves an ``A``, so on every input ``[B(r), A(r))``
    is the segment holding ``r`` once each row is cut at its known ranks: a
    flat count of segment starts numbers all segments (each row opens one
    at rank 0), a scatter marks those holding a hit, a gather reads them.
    """
    starts = kn.copy()
    starts[:, 0] = True
    seg = np.cumsum(starts.ravel(), dtype=np.int64)
    held = np.zeros(int(seg[-1]) + 1, dtype=bool)
    held[seg[hit.ravel()]] = True
    return held.take(seg).reshape(kn.shape)


def _read_nearest(geo, cl, ch, cand, tn):
    """Test oracle: the dense nearest read the kNN walker ran before its
    position bitsets -- on a ``(rows, F)`` rank mask, the first candidate
    position at or after the next position, else the first candidate one
    cycle later.  Returns ``(rank, clock, channel, tuning)``."""
    nb = geo.doze(cl, ch, geo.ctrl)
    off, pos = geo.next_position(nb)
    at = cand.take(geo.rank_of_pos, axis=1)
    ahead = at & (np.arange(at.shape[1]) >= pos[:, None])
    first = ahead.argmax(axis=1)
    wrap = ~ahead[np.arange(len(first)), first]
    np.copyto(first, at.argmax(axis=1), where=wrap)
    chosen = geo.rank_of_pos[first]
    cl, pk = geo.read(nb, off, chosen)
    return chosen, cl, np.full(len(chosen), geo.ctrl, dtype=np.int64), tn + pk


def _wait_matrix_nearest(geo, cl, ch, cand, tn):
    """Test oracle: the nearest read as the ``(rows, F)`` wait matrix the
    kNN walker read before :func:`_read_nearest` -- packets from each
    row's within-cycle offset to every rank's airing, ``% cc`` -- and its
    masked ``argmin``."""
    nb = geo.doze(cl, ch, geo.ctrl)
    wait = (geo.occ_rank[None, :] - (nb % geo.cc)[:, None]) % geo.cc
    chosen = np.argmin(np.where(cand, wait, geo.cc), axis=1)
    pk = geo.pk_of_rank[chosen]
    cl = nb + wait[np.arange(len(chosen)), chosen] + pk
    return chosen, cl, np.full(len(chosen), geo.ctrl, dtype=np.int64), tn + pk


def _segment_corpus(rng, n_frames):
    """Seeded ``(kn, hit)`` rows: random densities plus every pairing of
    edge knowledge rows (none known, all known, rank 0 unknown, rank 0
    known) with edge hit rows (none, all, the last rank only, random),
    shuffled so rows of each kind follow rows of every other kind."""
    kn_rows, hit_rows = [], []
    for p_kn, p_hit in [(0.05, 0.02), (0.3, 0.1), (0.7, 0.4), (0.95, 0.9)]:
        kn_rows.append(rng.random((25, n_frames)) < p_kn)
        hit_rows.append(rng.random((25, n_frames)) < p_hit)
    none = np.zeros(n_frames, dtype=bool)
    last = none.copy()
    last[-1] = True
    zero_unknown = rng.random(n_frames) < 0.5
    zero_unknown[0] = False
    zero_known = rng.random(n_frames) < 0.5
    zero_known[0] = True
    for k_row in (none, ~none, zero_unknown, zero_known):
        for h_row in (none, ~none, last, rng.random(n_frames) < 0.3):
            kn_rows.append(k_row[None, :])
            hit_rows.append(h_row[None, :])
    kn, hit = np.concatenate(kn_rows), np.concatenate(hit_rows)
    order = rng.permutation(len(kn))
    return kn[order], hit[order]


@pytest.mark.parametrize("n_frames", [1, 2, 3, 17, 100])
def test_segment_candidates_match_sweep_oracle(n_frames):
    """The segment-id oracle equals the four-sweep test on every row,
    whole blocks and single rows alike -- rank 0 known or not."""
    kn, hit = _segment_corpus(np.random.default_rng(1000 + n_frames), n_frames)
    assert not kn[:, 0].all() and kn[:, 0].any()
    want = _sweep_segment_candidates(kn, hit)
    np.testing.assert_array_equal(_segment_candidates(kn, hit), want)
    for row in range(len(kn)):
        got = _segment_candidates(kn[row : row + 1], hit[row : row + 1])
        np.testing.assert_array_equal(got, want[row : row + 1])


@pytest.mark.parametrize("n_frames, cc", [(1, 1), (1, 5), (2, 8), (20, 60), (100, 2700)])
def test_read_nearest_matches_wait_matrix_oracle(n_frames, cc):
    """The first candidate position at or after the next position, else
    the first candidate, reads the table the wait matrix's ``argmin``
    reads, at the same clock -- as the dense read on rank masks and as the
    kernel's lowest-set-bit pick on position bitsets: seeded airings (one
    per position, one at each cycle edge, ranks in a shuffled position
    order), clocks at and between airings and at both cycle edges, and
    candidate rows from one rank to all of them -- rows whose candidates
    all air before the clock take the wrap."""
    from repro.sim.fleet_kernel import _Geometry, _PositionBits

    rng = np.random.default_rng(77 + n_frames)
    starts = np.sort(rng.choice(cc, size=n_frames, replace=False))
    starts[[0, -1]] = 0, cc - 1
    geo = object.__new__(_Geometry)
    geo.cc, geo.starts, geo.switch, geo.ctrl = cc, starts, 0, 0
    geo.rank_of_pos = rng.permutation(n_frames)
    pos_of_rank = np.argsort(geo.rank_of_pos)
    geo.occ_rank = starts[pos_of_rank]
    geo.pk_of_rank = rng.integers(1, 4, size=n_frames)
    n = 400
    off = np.concatenate([starts, starts + 1, [0, cc - 1], rng.integers(0, cc, size=n)])[:n] % cc
    cl = off + cc * rng.integers(0, 5, size=n)
    cand = rng.random((n, n_frames)) < rng.choice([0.02, 0.3, 1.0], size=(n, 1))
    cand[np.arange(n), rng.integers(0, n_frames, size=n)] = True
    ch = np.zeros(n, dtype=np.int64)
    tn = rng.integers(0, 9, size=n)
    want = _wait_matrix_nearest(geo, cl, ch, cand, tn)
    for g, w in zip(_read_nearest(geo, cl, ch, cand, tn), want):
        np.testing.assert_array_equal(g, w)
    pbits = _PositionBits(n_frames, 1)
    pos, *got = geo.read_earliest(cl, ch, pbits.pack(cand[:, geo.rank_of_pos]), tn, pbits)
    np.testing.assert_array_equal(pos, pos_of_rank[want[0]])
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    if n_frames > 1:
        ahead = cand & (geo.occ_rank[None, :] >= off[:, None])
        assert (~ahead.any(axis=1)).any() and ahead.any(axis=1).any()


#: (F, m) cells of the position-bit test: frame counts at and around the
#: 64-bit word boundaries, each with every DSI segment count 1-4 dividing it.
_BIT_CELLS = [(f, m) for f in (1, 2, 63, 64, 65, 100, 128, 129, 192)
              for m in (1, 2, 3, 4) if f % m == 0]


@pytest.mark.parametrize("n_frames, m", _BIT_CELLS,
                         ids=[f"{f}-{m}" for f, m in _BIT_CELLS])
@given(data=st.data())
@settings(**_SETTINGS)
def test_position_bits_match_dense_oracles(n_frames, m, data):
    """The kNN lanes' position bitsets equal the dense rank-space oracles.

    Hypothesis draws lanes whose known masks hold every DSI-segment start
    (rank ``s·S``), examined masks inside them, hit masks from empty to
    full, and clocks at random next positions on a seeded cycle
    (airings in the DSI position order: rank ``s·S + t`` at position
    ``s + m·t``).  The fill's unpacked candidates must equal
    :func:`_segment_candidates` less the examined ranks, with no bit set
    past position ``F``, and on every lane
    with a candidate the lowest-set-bit pick must read the table the wait
    matrix's ``argmin`` reads, at the same clock.
    """
    from repro.sim.fleet_kernel import _Geometry, _PositionBits

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    n = data.draw(st.integers(min_value=1, max_value=64), label="lanes")
    seg_size = n_frames // m
    kn = rng.random((n, n_frames)) < rng.choice([0.0, 0.05, 0.3, 0.7, 1.0], size=(n, 1))
    kn[:, ::seg_size] = True
    ex = kn & (rng.random((n, n_frames)) < rng.choice([0.0, 0.3, 1.0], size=(n, 1)))
    hit = rng.random((n, n_frames)) < rng.choice([0.0, 0.02, 0.2, 1.0], size=(n, 1))
    ranks = np.arange(n_frames)
    pos_of_rank = (ranks % seg_size) * m + ranks // seg_size
    rank_of_pos = np.argsort(pos_of_rank)
    pbits = _PositionBits(n_frames, m)
    cand = pbits.candidates(*(pbits.pack(rows[:, rank_of_pos]) for rows in (hit, kn, ex)))
    want = _segment_candidates(kn, hit) & ~ex
    np.testing.assert_array_equal(pbits.unpack(cand)[:, pos_of_rank], want)
    np.testing.assert_array_equal(cand, pbits.pack(want[:, rank_of_pos]))  # no bit past F

    cc = n_frames + data.draw(st.integers(min_value=0, max_value=3 * n_frames + 8),
                              label="idle packets")
    starts = np.sort(rng.choice(cc, size=n_frames, replace=False))
    geo = object.__new__(_Geometry)
    geo.cc, geo.starts, geo.switch, geo.ctrl = cc, starts, 0, 0
    geo.rank_of_pos = rank_of_pos
    geo.occ_rank = starts[pos_of_rank]
    geo.pk_of_rank = rng.integers(1, 4, size=n_frames)
    # A clock whose next position is ``nxt``: an offset after the airing
    # before it, at or before its own (past the last one when nxt == F).
    nxt = rng.integers(0, n_frames + 1, size=n)
    lo = np.append(-1, starts)[nxt] + 1
    hi = np.append(starts, cc - 1)[nxt]
    off = np.minimum(lo + (rng.random(n) * (hi - lo + 1)).astype(np.int64), hi)
    cl = off + cc * rng.integers(0, 5, size=n)
    rows = np.flatnonzero(want.any(axis=1))
    ch = np.zeros(len(rows), dtype=np.int64)
    tn = rng.integers(0, 9, size=len(rows))
    expect = _wait_matrix_nearest(geo, cl[rows], ch, want[rows], tn)
    pos, *got = geo.read_earliest(cl[rows], ch, cand[:, rows], tn, pbits)
    np.testing.assert_array_equal(pos, pos_of_rank[expect[0]])
    for g, w in zip(got, expect):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("journeys", [False, True], ids=["fleet", "journey"])
@pytest.mark.parametrize("strategy", ["conservative", "aggressive"])
@pytest.mark.parametrize("channels", [1, 4])
@pytest.mark.parametrize("n_objects, n_frames", [(390, 64), (400, 66), (800, 114)])
def test_knn_fleets_across_word_boundaries(n_objects, n_frames, channels, strategy,
                                           journeys, monkeypatch):
    """kNN fleets whose frames fill one 64-bit word exactly, spill two
    positions into a second word, and span two words: kernel arrays equal
    ``REPRO_PURE=1`` arrays, stationary and as 3-hop warm journeys, and
    every answer verifies."""
    dataset = uniform_dataset(n_objects, seed=1)
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    index = build_index("dsi", dataset, config, use_cache=False)
    assert index.n_frames == n_frames
    seed = n_objects + channels

    def run():
        if journeys:
            workload = trajectory_workload(n_journeys=3, n_steps=3, seed=seed,
                                           query="knn", k=5)
            return run_mobile_fleet(index, dataset, config, workload, N_CLIENTS,
                                    seed=seed, max_phases=MAX_PHASES, verify=True,
                                    knn_strategy=strategy)
        return run_fleet(index, dataset, config, knn_workload(4, k=5, seed=seed),
                         N_CLIENTS, seed=seed, max_phases=MAX_PHASES, verify=True,
                         knn_strategy=strategy)

    fast = run()
    monkeypatch.setenv("REPRO_PURE", "1")
    pure = run()
    assert fast.backend == "numpy", fast.backend_reason
    assert pure.backend == "reference"
    np.testing.assert_array_equal(fast.unique_counts, pure.unique_counts)
    np.testing.assert_array_equal(fast.unique_latency, pure.unique_latency)
    np.testing.assert_array_equal(fast.unique_tuning, pure.unique_tuning)
    assert fast.result.incorrect_trials == 0


# --- the window walker's pending slots vs the dense rank-space hop -----------


def _dense_window_hops(monkeypatch, drive=False, segments=_segment_candidates):
    """Patch the dense window hop the slot walker replaced into
    :class:`_Walker` as a test oracle, and return its logs ``(walks,
    reads)``.

    The oracle mirrors every lane's dense known, examined and pending
    ranks: a walk starts from the entry table's row of the learn matrix
    (the cold hop, which examined and processed the entry rank when
    relevant) or from the carried known mask (a warm hop), and every read
    ORs in the table's row, marks its rank examined and clears it from
    pending.  Before each slot-walker read it computes the former hop --
    :func:`_segment_candidates` over the pending ranks, minus the examined
    ones (``segments``, the segment test), then the wait-matrix read
    :func:`_wait_matrix_nearest` -- and
    asserts that the walker retired exactly the lanes left without a
    candidate; at the end of a walk, that every remaining lane has none.  Without ``drive`` it also
    asserts that the slot walker reads the same rank at the same clock;
    with ``drive`` the oracle's read replaces the slot walker's.
    ``walks`` gets one ``(lanes, slot width, frames, entry ranks relevant,
    entry ranks not relevant, padded queries)`` record per walk and
    ``reads`` the lane count of every read.
    """
    from repro.sim import fleet_kernel as fk

    walks, reads = [], []
    real_walk = fk._Walker._walk
    real_nearest = fk._Walker._nearest
    real_absorb = fk._Walker._absorb

    def candidates(self, lanes):
        cand = segments(self.known[lanes], self.pending[lanes])
        return cand & ~self.examined[lanes]

    def walk(self, qr, rank0):
        n_lanes = len(qr)
        self.examined = np.zeros((n_lanes, self.static.n_frames), dtype=bool)
        relevant = np.zeros(n_lanes, dtype=bool)
        if rank0 is not None:
            self.known = self.static.learn[rank0]
            relevant = self.rel[qr, rank0]
            self.examined[np.flatnonzero(relevant), rank0[relevant]] = True
        self.pending = self.rel[qr] & ~self.examined
        self.lanes = np.arange(n_lanes)
        width = self.slot_rank.shape[0]
        padded = int((self.rel.sum(axis=1) < width).sum())
        walks.append((n_lanes, width, self.static.n_frames,
                      int(relevant.sum()) if rank0 is not None else 0,
                      int((~relevant).sum()) if rank0 is not None else 0, padded))
        real_walk(self, qr, rank0)
        assert not candidates(self, self.lanes).any()

    def nearest(self, w):
        cand = candidates(self, self.lanes)
        live = cand.any(axis=1)
        np.testing.assert_array_equal(w.idx, self.lanes[live])
        self.lanes = w.idx.copy()
        want = _wait_matrix_nearest(self.geo, w.cl, w.ch, cand[live], w.tn)
        reads.append(len(w.idx))
        if drive:
            fr, w.cl, w.ch, w.tn = want
            return fr
        fr = real_nearest(self, w)
        np.testing.assert_array_equal(fr, want[0])
        np.testing.assert_array_equal(w.cl, want[1])
        np.testing.assert_array_equal(w.tn, want[3])
        return fr

    def absorb(self, w, fr):
        self.known[w.idx] |= self.static.learn[fr]
        self.examined[w.idx, fr] = True
        self.pending[w.idx, fr] = False
        real_absorb(self, w, fr)

    monkeypatch.setattr(fk._Walker, "_walk", walk)
    monkeypatch.setattr(fk._Walker, "_nearest", nearest)
    monkeypatch.setattr(fk._Walker, "_absorb", absorb)
    return walks, reads


def _params_fleet(n_objects, dataset_seed, n_segments, index_base, channels,
                  capacity, kind, workload, seed, theta=None, max_phases=MAX_PHASES,
                  n_clients=N_CLIENTS):
    """One fleet over a DSI index with explicit :class:`DsiParameters`:
    ``kind`` "journey" runs ``workload`` as trajectories, "window" as
    stationary trials (window or kNN).  Returns ``(index, result)``."""
    from repro.core.structure import DsiIndex, DsiParameters

    dataset = uniform_dataset(n_objects, seed=dataset_seed)
    config = SystemConfig(packet_capacity=capacity, n_channels=channels)
    index = DsiIndex(dataset, config, DsiParameters(n_segments=n_segments,
                                                    index_base=index_base))
    run = run_mobile_fleet if kind == "journey" else run_fleet
    return index, run(index, dataset, config, workload, n_clients, seed=seed,
                      max_phases=max_phases, error_theta=theta, error_seed=3,
                      verify=theta is None)


@given(data=st.data())
@settings(**_SETTINGS)
def test_slot_walker_matches_dense_hop_oracle(data):
    """Every hop of the slot walker is the dense rank-space hop.

    Hypothesis draws the dataset, the window side (0.02--0.9), the phase
    count, the DSI segment count (1--5) and base, the channel count, loss
    and stationary or 3-hop items; at every read the slot walker must pick
    the dense oracle's rank at its clock and retire exactly the lanes the
    oracle leaves without a candidate.
    """
    m = data.draw(st.integers(min_value=1, max_value=5), label="n_segments")
    n_objects = data.draw(st.integers(min_value=12, max_value=160))
    side = data.draw(st.floats(min_value=0.02, max_value=0.9), label="side")
    kind = data.draw(st.sampled_from(["window", "journey"]))
    seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    if kind == "journey":
        workload = trajectory_workload(n_journeys=3, n_steps=3, seed=seed,
                                       win_side_ratio=side)
    else:
        workload = window_workload(4, side, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        walks, reads = _dense_window_hops(mp)
        _, result = _params_fleet(
            n_objects, seed, m, data.draw(st.sampled_from([2, 3])),
            data.draw(st.sampled_from([1, 4])), 64, kind, workload, seed,
            theta=data.draw(st.sampled_from([None, 0.12])),
            max_phases=data.draw(st.integers(min_value=1, max_value=64), label="phases"),
        )
    assert result.backend == "numpy", result.backend_reason
    assert result.result.incorrect_trials == 0
    assert walks


def _windows(*rects):
    """A workload of stationary window trials over ``rects``."""
    return Workload("windows", [Trial(WindowQuery(r), 0.0) for r in rects])


#: Fixed (name, workload, n_segments, channels, theta) cells for the slot
#: walker's edges.  The corner window lies below the dataset's least HC
#: value, so it has no relevant rank; the whole-space window makes every
#: rank relevant (slot width F); the mixed run pads its small windows'
#: slots.  The "no-successor" cells run both engines on tables that teach
#: no successor rank (unless it starts a DSI segment): built tables always
#: do, which leaves a read rank's segment nothing else to hold, so only
#: there does a walk resume a segment whose first rank it examined.
_SLOT_EDGE_CELLS = [
    ("no-relevant-rank",
     _windows(Rect(0.0, 0.0, 0.001, 0.001), Rect(0.3, 0.3, 0.4, 0.4)), 2, 1, None),
    ("every-frame", _windows(Rect(0.0, 0.0, 1.0, 1.0)), 3, 4, None),
    ("padding", _windows(Rect(0.0, 0.0, 0.9, 0.9), Rect(0.5, 0.5, 0.52, 0.52),
                         Rect(0.1, 0.6, 0.2, 0.7)), 2, 4, None),
    ("retry-chains", window_workload(6, 0.3, seed=5), 4, 1, 0.12),
    ("retry-chains-4ch", window_workload(6, 0.3, seed=6), 5, 4, 0.12),
    ("no-successor", window_workload(6, 0.3, seed=7), 1, 1, None),
    ("no-successor-4ch", window_workload(6, 0.3, seed=8), 3, 4, 0.12),
]


def _drop_successors(monkeypatch):
    """Make every table teach no successor rank -- for both engines,
    which absorb tables through ``ClientKnowledge.table_pairs`` -- except
    where the successor starts a DSI segment (``_Static`` gates those)."""
    from repro.core.knowledge import ClientKnowledge

    real_pairs = ClientKnowledge.table_pairs

    def pairs(self, table):
        nxt = self.rank_of_pos(table.frame_pos) + 1
        got = real_pairs(self, table)
        if nxt % self.seg_size == 0:
            return got
        return tuple(p for p in got if p[0] != nxt)

    monkeypatch.setattr(ClientKnowledge, "table_pairs", pairs)


@pytest.mark.parametrize(
    "name, workload, n_segments, channels, theta", _SLOT_EDGE_CELLS,
    ids=[cell[0] for cell in _SLOT_EDGE_CELLS],
)
def test_slot_walker_edges_match_dense_hop_oracle(
    name, workload, n_segments, channels, theta, monkeypatch
):
    """The slot walker's edges, each against the dense hop oracle and the
    reference: a query with no relevant rank, a window covering every
    frame, queries with different relevant counts (padded slots), entry
    ranks relevant and not, index-scope loss retry chains, and tables
    that teach no successor."""
    from repro.sim import fleet_kernel as fk

    losses = []
    real_lost = fk._Losses.lost

    def lost(self, lanes, starts):
        out = real_lost(self, lanes, starts)
        losses.append(int(out.sum()))
        return out

    def run():
        return _params_fleet(90, 21, n_segments, 2, channels, 64, "window",
                             workload, 4, theta=theta, max_phases=48)

    if name.startswith("no-successor"):
        _drop_successors(monkeypatch)
    monkeypatch.setattr(fk._Losses, "lost", lost)
    with monkeypatch.context() as mp:
        walks, reads = _dense_window_hops(mp)
        index, fast = run()
    assert fast.backend == "numpy", fast.backend_reason
    monkeypatch.setenv("REPRO_PURE", "1")
    _, pure = run()
    assert pure.backend == "reference"
    np.testing.assert_array_equal(fast.unique_counts, pure.unique_counts)
    np.testing.assert_array_equal(fast.unique_latency, pure.unique_latency)
    np.testing.assert_array_equal(fast.unique_tuning, pure.unique_tuning)
    if theta is None:
        assert fast.result.incorrect_trials == 0

    [(n_lanes, width, n_frames, entry_rel, entry_irrel, padded)] = walks
    assert reads
    rel = fk._precompute_queries(
        fk._static_of(index), index, [t.query for t in workload], False, None
    )[0]
    counts = rel.sum(axis=1)
    assert width == counts.max()
    if name == "no-relevant-rank":
        assert counts[0] == 0 < counts[1]
    elif name == "every-frame":
        assert width == n_frames and rel.all()
    else:
        assert entry_rel and entry_irrel
    if name == "padding":
        assert padded == 2 and counts.min() < width
    if theta is not None:
        assert sum(losses) > 20


@pytest.mark.parametrize("skip", ["own rank", "segment start"])
def test_static_declines_tables_that_skip_their_own_or_a_segment_start(
    skip, monkeypatch
):
    """The slot walker relies on every table teaching its own rank and
    the first rank of every DSI segment; an index where one does not is
    declined, and its fleet runs on the reference with that reason."""
    from repro.core.knowledge import ClientKnowledge
    from repro.sim import fleet_kernel as fk

    dataset = uniform_dataset(60, seed=3)
    config = SystemConfig(packet_capacity=64)
    index = build_index("dsi", dataset, config, use_cache=False)
    static = fk._Static(index)
    seg_size = static.seg_size
    assert static.n_segments == 2 and seg_size > 1
    real_pairs = ClientKnowledge.table_pairs

    def pairs(self, table):
        own = self.rank_of_pos(table.frame_pos)
        got = real_pairs(self, table)
        if skip == "own rank":
            # Rank 1 is no segment start: only its own table teaches it.
            return tuple(p for p in got if p[0] != 1 or own != 1)
        return tuple(p for p in got if p[0] != seg_size or own == seg_size)

    monkeypatch.setattr(ClientKnowledge, "table_pairs", pairs)
    want = "own rank" if skip == "own rank" else f"rank {seg_size}, the first"
    with pytest.raises(fk.KernelUnsupported, match=want):
        fk._Static(index)
    result = run_fleet(index, dataset, config, window_workload(3, 0.2, seed=1),
                       200, seed=2, max_phases=8)
    assert result.backend == "reference"
    assert want in result.backend_reason


def test_geometry_declines_a_table_airing_twice(monkeypatch):
    """A raw single-channel schedule that airs one index table twice per
    cycle breaks the once-per-cycle fact the slot walker's arithmetic
    rests on: the fleet runs on the reference, says why, and its arrays
    equal a ``REPRO_PURE=1`` fleet's."""
    from repro.broadcast.channel import Channel, ChannelRole
    from repro.broadcast.program import BroadcastProgram

    dataset = uniform_dataset(80, seed=11)
    config = SystemConfig(packet_capacity=64)
    index = build_index("dsi", dataset, config, use_cache=False)
    program = index.program
    ids = list(range(len(program))) + [index.table_bucket[0]]
    channel = Channel(
        cid=0, role=ChannelRole.HYBRID,
        program=BroadcastProgram([program.buckets[g] for g in ids], name="twice"),
        global_ids=tuple(ids),
    )
    schedule = BroadcastSchedule((channel,), program)
    assert schedule.max_multiplicity == 2
    workload = window_workload(4, 0.15, seed=2)

    def run():
        return run_fleet(index, dataset, config, workload, 500, seed=3,
                         max_phases=16, verify=True, schedule=schedule)

    fast = run()
    assert fast.backend == "reference"
    assert "once per cycle, in broadcast-position order" in fast.backend_reason
    assert fast.result.incorrect_trials == 0
    monkeypatch.setenv("REPRO_PURE", "1")
    pure = run()
    assert "REPRO_PURE" in pure.backend_reason
    np.testing.assert_array_equal(fast.unique_counts, pure.unique_counts)
    np.testing.assert_array_equal(fast.unique_latency, pure.unique_latency)
    np.testing.assert_array_equal(fast.unique_tuning, pure.unique_tuning)


#: The deterministic DSI-parameter grid: every (n_segments, index_base,
#: kind) cell runs at 1 and 3 channels and 64 and 256 B packets.
_PARAM_KINDS = ["window", "lossy", "knn", "journey"]


@pytest.mark.parametrize("kind", _PARAM_KINDS)
@pytest.mark.parametrize("index_base", [2, 3])
@pytest.mark.parametrize("n_segments", [1, 3, 4, 5])
def test_kernel_matches_reference_across_dsi_parameters(
    n_segments, index_base, kind, monkeypatch
):
    """Kernel arrays equal ``REPRO_PURE=1`` arrays off the registry's DSI
    parameters (``n_segments=2``, ``index_base=2``), where the slot
    walker's position arithmetic meets other segment counts ``m``:
    windows, index-scope lossy windows, 4NN and 3-hop journeys at 1 and 3
    channels and 64 and 256 B packets; lossless answers verify."""
    seed = 10 * n_segments + index_base
    if kind == "journey":
        workload = trajectory_workload(n_journeys=3, n_steps=3, seed=seed,
                                       win_side_ratio=0.15)
    elif kind == "knn":
        workload = knn_workload(3, k=4, seed=seed)
    else:
        workload = window_workload(4, 0.15, seed=seed)
    theta = 0.12 if kind == "lossy" else None
    for channels in (1, 3):
        for capacity in (64, 256):
            cell = (60, seed, n_segments, index_base, channels, capacity,
                    "journey" if kind == "journey" else "window", workload, seed)
            monkeypatch.delenv("REPRO_PURE", raising=False)
            index, fast = _params_fleet(*cell, theta=theta, n_clients=200)
            assert index.params.n_segments == n_segments
            monkeypatch.setenv("REPRO_PURE", "1")
            _, pure = _params_fleet(*cell, theta=theta, n_clients=200)
            assert fast.backend == "numpy", fast.backend_reason
            assert pure.backend == "reference"
            np.testing.assert_array_equal(fast.unique_counts, pure.unique_counts)
            np.testing.assert_array_equal(fast.unique_latency, pure.unique_latency)
            np.testing.assert_array_equal(fast.unique_tuning, pure.unique_tuning)
            if theta is None:
                assert fast.result.incorrect_trials == 0


#: Fixed (query kind, channels, schedule, theta) fleet cells replayed with
#: the former lane-hop helpers patched back into the kernel.
_HELPER_CELLS = [
    ("window", 1, "flat", None),
    ("window", 1, "flat", 0.12),
    ("window", 4, "flat", None),
    ("window", 4, "flat", 0.12),
    ("window", 4, "optimized", None),
    ("window", 4, "optimized", 0.12),
    ("journey", 4, "flat", None),
    ("journey", 4, "flat", 0.12),
    ("knn-conservative", 4, "flat", None),
    ("knn-aggressive", 4, "flat", None),
]


@pytest.mark.parametrize(
    "query, channels, layout, theta", _HELPER_CELLS,
    ids=["-".join(str(p) for p in cell) for cell in _HELPER_CELLS],
)
def test_lane_hop_matches_former_helpers(query, channels, layout, theta, monkeypatch):
    """Fleets through the kernel's lane hops equal fleets run on the
    former formulations, execution for execution: the four-sweep segment
    test and the ``% cc`` wait matrix's nearest read patched in for the
    kNN walker's position-bit candidacy and pick (through an unpack/pack
    adapter), and -- for window and journey cells -- the dense window hop
    driving the window walker's reads over the four-sweep test."""
    from repro.sim import fleet_kernel as fk

    dataset = uniform_dataset(120, seed=42 + channels)
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    index = build_index("dsi", dataset, config, use_cache=False)
    kw = dict(seed=13, max_phases=24, error_theta=theta, error_seed=4)
    if query == "journey":
        journeys = trajectory_workload(n_journeys=5, n_steps=3, seed=8,
                                       win_side_ratio=0.12)

        def run():
            return run_mobile_fleet(index, dataset, config, journeys, 2_000, **kw)
    else:
        workload = window_workload(6, 0.12, seed=8)
        if layout == "optimized":
            demand = workload.bucket_demand(index, dataset)
            kw["schedule"] = BroadcastSchedule.optimized(
                index.program, demand, channels=channels, budget=2.0
            )
        if query != "window":
            workload = knn_workload(5, k=4, seed=8)
            kw["knn_strategy"] = query.split("-")[1]

        def run():
            return run_fleet(index, dataset, config, workload, 2_000, **kw)

    new = run()
    calls = []

    def counted(oracle):
        def call(*args):
            calls.append(oracle.__name__)
            return oracle(*args)
        return call

    segments = counted(_sweep_segment_candidates)
    window = not query.startswith("knn")
    if window:
        _, reads = _dense_window_hops(monkeypatch, drive=True, segments=segments)
    else:
        _dense_knn_helpers(monkeypatch, index, segments, counted(_wait_matrix_nearest))
    old = run()
    assert "_sweep_segment_candidates" in calls
    if window:
        assert reads  # the dense hop drove the window walker's reads
    else:
        assert "_wait_matrix_nearest" in calls
    assert new.backend == old.backend == "numpy"
    np.testing.assert_array_equal(new.unique_counts, old.unique_counts)
    np.testing.assert_array_equal(new.unique_latency, old.unique_latency)
    np.testing.assert_array_equal(new.unique_tuning, old.unique_tuning)


def _dense_knn_helpers(monkeypatch, index, segments, nearest):
    """Patch dense rank-mask helpers in for the kNN walker's position-bit
    candidacy and pick on ``index``, through an unpack/pack adapter:
    ``segments(kn, hit)`` for the segment test (less the examined ranks)
    and ``nearest(geo, cl, ch, cand, tn)`` for the read."""
    from repro.sim import fleet_kernel as fk

    static = fk._static_of(index)
    pos_of_rank = static.pos_of_rank
    rank_of_pos = np.argsort(pos_of_rank)
    pbits = fk._PositionBits(static.n_frames, static.n_segments)

    def ranks(bits):
        return pbits.unpack(bits)[:, pos_of_rank]

    def candidates(self, hit, known, examined):
        cand = segments(ranks(known), ranks(hit)) & ~ranks(examined)
        return pbits.pack(cand[:, rank_of_pos])

    def read_earliest(self, cl, ch, cand, tn, pbits):
        chosen, cl, ch, tn = nearest(self, cl, ch, ranks(cand), tn)
        return pos_of_rank[chosen], chosen, cl, ch, tn

    monkeypatch.setattr(fk._PositionBits, "candidates", candidates)
    monkeypatch.setattr(fk._Geometry, "read_earliest", read_earliest)


# --- compiled frame visits vs the per-lane replay ----------------------------


def _split_directory_schedule(index):
    """A two-channel layout the library does not build: index tables and
    directories on the table channel, data objects on a second channel.
    A directory read waits a static time and the first data read seeks,
    so a visit ends on another channel than its first read's."""
    from repro.broadcast.channel import Channel, ChannelRole
    from repro.broadcast.program import BroadcastProgram, BucketKind

    program = index.program
    split = ([], [])
    for i, bucket in enumerate(program.buckets):
        split[bucket.kind is BucketKind.DATA].append(i)
    return BroadcastSchedule([
        Channel(cid=c, role=role, global_ids=tuple(ids), program=BroadcastProgram(
            [program.buckets[g] for g in ids], name=f"split{c}"))
        for c, (role, ids) in enumerate(zip((ChannelRole.CONTROL, ChannelRole.DATA), split))
    ], program)


#: (layout, channels, seeks) cells for the compiled visits: how many
#: compiled visits seek on the layout -- "none" (every read static), "all"
#: (each visit seeks once), "some" -- or None, a layout that keeps the
#: per-lane replay.
_VISIT_LAYOUTS = [
    ("flat", 1, "none"),
    ("optimized", 1, "none"),
    ("flat", 2, "all"),
    ("flat", 4, "all"),
    ("optimized", 2, None),
    ("optimized", 4, None),
    ("split-directory", 2, "some"),
]


@pytest.mark.parametrize("items", ["stationary", "journeys"])
@pytest.mark.parametrize("theta", [None, 0.1], ids=["lossless", "errors"])
@pytest.mark.parametrize(
    "layout, channels, seeks", _VISIT_LAYOUTS,
    ids=[f"{layout}-{channels}ch" for layout, channels, _ in _VISIT_LAYOUTS],
)
def test_compiled_visits_match_replay(layout, channels, seeks, theta, items,
                                      monkeypatch):
    """Compiled frame visits equal the per-lane replay they are compiled
    with, and ``REPRO_PURE=1``: on one-channel flat and demand-optimized
    layouts no read seeks; on striped 2- and 4-channel layouts every visit
    seeks its directory once; with directories on the table channel a
    visit ends on another channel than its first read's; 2- and 4-channel
    demand-optimized layouts, whose seek buckets air more than once per
    cycle, keep the replay, and their compile stops short.  Each runs
    lossless and under index-scope losses, for one-step items and
    five-hop warm journeys, with a retune cost wherever there is more than
    one channel."""
    from repro.sim import fleet_kernel as fk

    dataset = uniform_dataset(90, seed=61)
    config = SystemConfig(packet_capacity=64, n_channels=channels,
                          channel_switch_packets=2 if channels > 1 else 0)
    index = build_index("dsi", dataset, config, use_cache=False)
    windows = window_workload(6, 0.2, seed=62)
    kw = dict(seed=63, max_phases=24, error_theta=theta, error_seed=5,
              verify=theta is None)
    if layout == "optimized":
        kw["schedule"] = BroadcastSchedule.optimized(
            index.program, windows.bucket_demand(index, dataset),
            channels=channels, budget=2.0,
        )
    elif layout == "split-directory":
        kw["schedule"] = _split_directory_schedule(index)
    journeys = trajectory_workload(n_journeys=4, n_steps=5, seed=64, win_side_ratio=0.2)

    def run():
        if items == "journeys":
            return run_mobile_fleet(index, dataset, config, journeys, 600, **kw)
        return run_fleet(index, dataset, config, windows, 600, **kw)

    took, stopped = [], []
    real_compile, real_replay = fk._Visits._compile, fk._Visits._replay

    def compile_and_log(self, ranks):
        real_compile(self, ranks)
        if self.pre is None:
            took.append(None)
        else:
            n_seek = int((self.seek >= 0).sum())
            took.append("none" if not n_seek else "all" if n_seek == len(ranks) else "some")

    def replay_and_log(self, clock, chan, pairs, seen=None):
        paid = real_replay(self, clock, chan, pairs, seen)
        if seen is not None:
            stopped.append(paid is None)
        return paid

    monkeypatch.setattr(fk._Visits, "_compile", compile_and_log)
    monkeypatch.setattr(fk._Visits, "_replay", replay_and_log)
    fast = run()
    assert took == [seeks]
    assert stopped == [seeks is None]  # a replay layout's compile stops short
    monkeypatch.setattr(fk._Visits, "_compile", lambda self, ranks: None)
    replay = run()
    monkeypatch.setenv("REPRO_PURE", "1")
    pure = run()
    assert fast.backend == replay.backend == "numpy", fast.backend_reason
    assert pure.backend == "reference"
    for other in (replay, pure):
        np.testing.assert_array_equal(fast.unique_counts, other.unique_counts)
        np.testing.assert_array_equal(fast.unique_latency, other.unique_latency)
        np.testing.assert_array_equal(fast.unique_tuning, other.unique_tuning)
    if theta is None:
        assert fast.result.incorrect_trials == 0


# --- an HC value straddling a frame boundary ----------------------------------


def _straddling_hc_fleet():
    """Objects 0 and 35 share HC 1657, which an even split would put at the
    end of frame rank 3 and the start of rank 4; the build keeps both in
    rank 4.  Executions 6-7 (query 0, phases 6-7) need object 0."""
    dataset = uniform_dataset(59, seed=934)
    config = SystemConfig(packet_capacity=64)
    index = build_index("dsi", dataset, config, use_cache=False)
    workload = window_workload(2, 0.12, seed=934)
    return run_fleet(index, dataset, config, workload, 300, seed=0,
                     max_phases=12, verify=True, parallel=False)


def test_kernel_answers_hc_value_straddling_frames():
    """The kernel's static per-(query, rank) visits fetch the object, at
    the latencies one reference session per tune-in pays."""
    result = _straddling_hc_fleet()
    assert result.backend == "numpy"
    assert result.result.incorrect_trials == 0
    np.testing.assert_array_equal(result.unique_latency[6:8], [61_376, 65_792])


def test_reference_answers_hc_value_straddling_frames(monkeypatch):
    """The reference planner answers correctly too, and its executions
    cost what the kernel's do."""
    kernel = _straddling_hc_fleet()
    monkeypatch.setenv("REPRO_PURE", "1")
    result = _straddling_hc_fleet()
    assert result.backend == "reference"
    assert result.result.incorrect_trials == 0
    np.testing.assert_array_equal(result.unique_latency, kernel.unique_latency)
    np.testing.assert_array_equal(result.unique_tuning, kernel.unique_tuning)


@pytest.mark.parametrize(
    "fleet, n_objects, dataset_seed, workload_seed, channels, theta",
    [
        ("flat", 40, 615, 77, 1, 0.12),
        ("optimized", 55, 6096, 65536, 1, None),
        ("optimized", 79, 40, 0, 4, 0.12),
        ("mobile", 86, 140, 0, 4, 0.12),
        ("mobile", 50, 618, 165, 4, 0.12),
        # The shrunk draws behind --hypothesis-seed 107, 212, 230 and 232,
        # which failed every DSI cell they reached before the planner fix.
        ("optimized", 68, 186, 1, 1, None),
        ("optimized", 68, 186, 1, 4, 0.12),
        ("mobile", 68, 186, 6023, 1, None),
        ("mobile", 68, 186, 1, 4, 0.12),
        ("mobile", 88, 61, 91, 1, None),
        ("mobile", 88, 61, 91, 4, 0.12),
        ("optimized", 80, 196, 1, 4, None),
        ("optimized", 80, 196, 1, 1, 0.12),
        ("optimized", 56, 220, 16, 1, None),
        ("optimized", 56, 220, 16, 4, 0.12),
    ],
)
def test_straddling_hc_draws_match_brute_force(
    fleet, n_objects, dataset_seed, workload_seed, channels, theta
):
    """Shrunk property-test draws whose datasets hold an equal-HC run that
    an even split ends one frame and starts the next with (the build now
    keeps each run in one frame): the kernel equals the scalar brute force
    on each (flat windows, optimized layouts at budget 2.0, 3-hop
    journeys)."""
    dataset = uniform_dataset(n_objects, seed=dataset_seed)
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    index = build_index("dsi", dataset, config, use_cache=False)
    if fleet in ("flat", "optimized"):
        schedule, error_seed = None, 3
        workload = window_workload(2, 0.12, seed=workload_seed)
        if fleet == "optimized":
            error_seed = 5
            workload = window_workload(4, 0.15, seed=workload_seed)
            schedule = BroadcastSchedule.optimized(
                index.program, workload.bucket_demand(index, dataset),
                channels=channels, budget=2.0,
            )
        result = run_fleet(
            index, dataset, config, workload, N_CLIENTS, seed=0,
            max_phases=MAX_PHASES, error_theta=theta, error_seed=error_seed,
            schedule=schedule,
        )
        lat, tun, counts = _brute_force_uniques(
            index, config, list(workload), n_clients=N_CLIENTS, seed=0,
            max_phases=MAX_PHASES, theta=theta, error_seed=error_seed,
            schedule=schedule,
        )
    else:
        trajectories = trajectory_workload(
            n_journeys=4, n_steps=3, seed=workload_seed, win_side_ratio=0.12
        )
        result = run_mobile_fleet(
            index, dataset, config, trajectories, N_CLIENTS, seed=0,
            max_phases=MAX_PHASES, error_theta=theta, error_seed=7,
        )
        lat, tun, counts = _brute_force_journeys(
            index, config, list(trajectories), n_clients=N_CLIENTS, seed=0,
            max_phases=MAX_PHASES, theta=theta, error_seed=7,
        )
    assert result.backend == "numpy"
    np.testing.assert_array_equal(result.unique_counts, counts)
    np.testing.assert_array_equal(result.unique_latency, lat)
    np.testing.assert_array_equal(result.unique_tuning, tun)


# --- one HC value, one frame --------------------------------------------------


def _kernel_and_pure(monkeypatch, run):
    """``run()`` on the kernel and under ``REPRO_PURE=1``: every trial
    verified correct on both, with equal per-execution arrays."""
    fast = run()
    monkeypatch.setenv("REPRO_PURE", "1")
    pure = run()
    monkeypatch.delenv("REPRO_PURE")
    assert fast.backend == "numpy", fast.backend_reason
    assert pure.backend == "reference"
    assert fast.result.incorrect_trials == pure.result.incorrect_trials == 0
    np.testing.assert_array_equal(fast.unique_counts, pure.unique_counts)
    np.testing.assert_array_equal(fast.unique_latency, pure.unique_latency)
    np.testing.assert_array_equal(fast.unique_tuning, pure.unique_tuning)


def test_equal_hc_run_shares_one_frame(monkeypatch):
    """Objects 295 and 356 share HC 53,832.  An even split ends frame rank
    69 with object 295 and starts rank 70 with object 356; window 21 of
    this skewed workload covers the value but not the rest of rank 69's
    extent, so both engines skipped rank 69 and missed object 295 at every
    tune-in.  The build keeps the run in one frame: every tune-in at
    ``k·cycle/8`` answers exactly, and so does a verified fleet."""
    dataset = uniform_dataset(500, seed=756459025)
    config = SystemConfig(packet_capacity=64)
    index = build_index("dsi", dataset, config, use_cache=False)
    assert dataset.objects[295].hc == dataset.objects[356].hc == 53_832
    frame = index.frames_by_rank[index.frame_rank_covering(53_832)]
    assert {295, 356} <= {o.oid for o in frame.objects}
    trial = skewed_workload(60, zipf_s=1.1, seed=2913021248).trials[21]
    cycle = index.program.cycle_packets
    for k in range(8):
        session = ClientSession(index.program, config, start_packet=k * cycle // 8)
        result = index.window_query(trial.query.window, session)
        assert matches(dataset, trial.query, result.objects)
    workload = Workload("window-21", [trial])
    _kernel_and_pure(monkeypatch, lambda: run_fleet(
        index, dataset, config, workload, 300, seed=0, max_phases=12, verify=True,
    ))


def test_one_object_per_frame_caps_at_distinct_values(monkeypatch):
    """``object_factor=1`` on the real surrogate: 1,000 objects hold 880
    distinct HC values, so the layout has 880 frames and no two frames
    share a minimum.  The window fleet runs on the kernel and answers
    every trial, as the reference does."""
    dataset = real_surrogate_dataset(1000, seed=11)
    config = SystemConfig(packet_capacity=64)
    index = DsiIndex(dataset, config, DsiParameters(object_factor=1))
    assert index.n_frames == len({o.hc for o in dataset.objects}) == 880
    workload = window_workload(5, 0.1, seed=5)
    _kernel_and_pure(monkeypatch, lambda: run_fleet(
        index, dataset, config, workload, 500, seed=1, max_phases=8, verify=True,
    ))


@pytest.mark.parametrize("query", ["window", "knn"])
@pytest.mark.parametrize("object_factor", [None, 1, 3])
@pytest.mark.parametrize("n_segments", [1, 2, 4])
@pytest.mark.parametrize("order", [2, 3])
def test_long_equal_hc_runs(order, n_segments, object_factor, query, monkeypatch):
    """200 objects on a curve of 16 or 64 cells: equal-HC runs longer than
    a frame.  Every frame is non-empty, ``nF`` is a multiple of ``m`` and
    at most the distinct count, each object lies in the frame whose extent
    covers its HC value, and window and 5NN fleets run on the kernel with
    the arrays of their ``REPRO_PURE=1`` twins, every trial correct."""
    dataset = uniform_dataset(200, seed=order, curve_order=order)
    config = SystemConfig(packet_capacity=64)
    index = DsiIndex(dataset, config, DsiParameters(
        n_segments=n_segments, object_factor=object_factor,
    ))
    assert all(frame.objects for frame in index.frames_by_rank)
    assert index.n_frames % n_segments == 0
    assert index.n_frames <= len({o.hc for o in dataset.objects})
    for rank, frame in enumerate(index.frames_by_rank):
        assert all(index.frame_rank_covering(o.hc) == rank for o in frame.objects)
    if query == "window":
        workload = window_workload(4, 0.2, seed=order)
    else:
        workload = knn_workload(4, k=5, seed=order)
    _kernel_and_pure(monkeypatch, lambda: run_fleet(
        index, dataset, config, workload, 200, seed=3, max_phases=8, verify=True,
    ))


# --- the kernel memo: compile once per (index, query) -------------------------


@contextlib.contextmanager
def _memos_set_aside(*indexes):
    """Run the body with none of ``indexes``' memos: the kernel memo on
    each index (its statics, and with them every plan and cover) and on
    its curve (the kNN distance rows), and the flat schedules and
    timeline on each program.  What the body compiles is dropped
    afterwards and the memos come back, so an interleaving of calls keeps
    its own memo state."""
    from repro.broadcast.schedule import _FOR_CONFIG_ATTR
    from repro.broadcast.timeline import _CACHE_ATTR
    from repro.sim.fleet_kernel import _MEMO_ATTR

    held = []
    for index in indexes:
        for obj, name in ((index, _MEMO_ATTR), (getattr(index, "curve", None), _MEMO_ATTR),
                          (index.program, _FOR_CONFIG_ATTR),
                          (index.program, _CACHE_ATTR)):
            if obj is not None and not any(o is obj and n == name for o, n in held):
                held.append((obj, name))
    saved = [vars(obj).pop(name, None) for obj, name in held]
    try:
        yield
    finally:
        for (obj, name), value in zip(held, saved):
            vars(obj).pop(name, None)
            if value is not None:
                setattr(obj, name, value)


def _same_on_cleared_and_pure(monkeypatch, run, *indexes):
    """``run()`` three ways: on the memos earlier calls left, with every
    memo of ``indexes`` set aside, and under ``REPRO_PURE=1``.  The first
    two run on the kernel; all three give equal per-execution arrays and
    verdict counts.  Returns the first."""
    warm = run()
    with _memos_set_aside(*indexes):
        cold = run()
    monkeypatch.setenv("REPRO_PURE", "1")
    pure = run()
    monkeypatch.delenv("REPRO_PURE")
    assert warm.backend == cold.backend == "numpy", warm.backend_reason
    assert pure.backend == "reference"
    for other in (cold, pure):
        np.testing.assert_array_equal(warm.unique_counts, other.unique_counts)
        np.testing.assert_array_equal(warm.unique_latency, other.unique_latency)
        np.testing.assert_array_equal(warm.unique_tuning, other.unique_tuning)
        assert (warm.result.correct_trials, warm.result.incorrect_trials) == (
            other.result.correct_trials, other.result.incorrect_trials)
    return warm


def test_memo_one_program_across_channel_counts(monkeypatch):
    """One program aired at 1, then 4, then 1 channels: each channel count
    gets its own flat schedule and timeline from the program's memo, and
    the 1-channel call after the 4-channel one gets the first schedule
    back."""
    dataset = uniform_dataset(90, seed=41)
    index = build_index("dsi", dataset, SystemConfig(packet_capacity=64), use_cache=False)
    workload = window_workload(5, 0.15, seed=4)
    cycles, schedules = [], []
    for channels in (1, 4, 1):
        config = SystemConfig(packet_capacity=64, n_channels=channels,
                              channel_switch_packets=2)
        warm = _same_on_cleared_and_pure(monkeypatch, lambda: run_fleet(
            index, dataset, config, workload, N_CLIENTS, seed=7, max_phases=MAX_PHASES,
            verify=True,
        ), index)
        cycles.append(warm.cycle_packets)
        schedules.append(BroadcastSchedule.for_config(index.program, config))
    assert cycles[0] == cycles[2] != cycles[1]
    assert schedules[0] is schedules[2] is not schedules[1]


@pytest.mark.parametrize("pair", ["dsi-m1-m2", "dsi-knn-m1-m2", "rtree-hci"])
def test_memo_indexes_sharing_query_objects(pair, monkeypatch):
    """Two indexes over one dataset -- DSI with one and with two segments,
    or an R-tree and an HCI -- run the very same query objects in turn;
    each index compiles its own plans from them.  The two DSI indexes
    order the same objects, so their kNN points' distance rows are one
    shared copy, and a DSI index over another dataset holds its own."""
    from repro.sim import fleet_kernel as fk

    dataset = uniform_dataset(120, seed=43)
    config = SystemConfig(packet_capacity=64, n_channels=4)
    if pair.startswith("dsi"):
        indexes = [DsiIndex(dataset, config, DsiParameters(n_segments=m)) for m in (1, 2)]
    else:
        indexes = [build_index(kind, dataset, config, use_cache=False)
                   for kind in ("rtree", "hci")]
    if pair == "dsi-knn-m1-m2":
        workload = knn_workload(5, k=4, seed=8)
    else:
        workload = window_workload(6, 0.2, seed=8)
    for index in indexes + indexes:
        _same_on_cleared_and_pure(monkeypatch, lambda: run_fleet(
            index, dataset, config, workload, N_CLIENTS, seed=5, max_phases=MAX_PHASES,
            verify=True,
        ), *indexes)
    if pair == "dsi-knn-m1-m2":
        rows = [fk._knn_static_of(i, fk._static_of(i)).rows for i in indexes]
        assert rows[0] is rows[1] and len(fk._memo(rows[0])) == 5
        other = DsiIndex(uniform_dataset(120, seed=44), config)
        assert fk._knn_static_of(other, fk._static_of(other)).rows is not rows[0]


def test_memo_tree_plans_read_channels_per_call(monkeypatch):
    """One R-tree at 1 channel, then at 4 with a retune cost: an object
    event's packets and channel come from the call's timeline, not from
    the plan the 1-channel call compiled."""
    dataset = uniform_dataset(120, seed=47)
    index = build_index("rtree", dataset, SystemConfig(packet_capacity=64), use_cache=False)
    workload = window_workload(5, 0.2, seed=9)
    for channels in (1, 4):
        config = SystemConfig(packet_capacity=64, n_channels=channels,
                              channel_switch_packets=3)
        _same_on_cleared_and_pure(monkeypatch, lambda: run_fleet(
            index, dataset, config, workload, N_CLIENTS, seed=4, max_phases=MAX_PHASES,
        ), index)


@pytest.mark.parametrize("kind", ["dsi", "rtree", "dsi-journeys", "dsi-knn"])
def test_memo_verdicts_follow_each_call(kind, monkeypatch):
    """A ``verify=False`` call warms the memo; a ``verify=True`` call on it
    still checks every answer against the call's dataset: no wrong
    answer, and one right answer per client and hop."""
    dataset = uniform_dataset(100, seed=51)
    config = SystemConfig(packet_capacity=64, n_channels=4)
    index = build_index(kind.split("-")[0], dataset, config, use_cache=False)
    hops = 1
    if kind == "dsi-journeys":
        workload = trajectory_workload(n_journeys=4, n_steps=3, seed=2,
                                       win_side_ratio=0.15)
        hops = 3
    elif kind == "dsi-knn":
        workload = knn_workload(4, k=4, seed=2)
    else:
        workload = window_workload(5, 0.15, seed=2)
    run = run_mobile_fleet if kind == "dsi-journeys" else run_fleet

    def fleet(verify):
        return run(index, dataset, config, workload, N_CLIENTS, seed=6,
                   max_phases=MAX_PHASES, verify=verify)

    assert fleet(False).result.correct_trials == 0
    out = _same_on_cleared_and_pure(monkeypatch, lambda: fleet(True), index)
    assert out.result.incorrect_trials == 0
    assert out.result.correct_trials == N_CLIENTS * hops


def test_memo_knn_rows_leave_k_to_each_query(monkeypatch):
    """kNN queries sharing a point with k 1, 4 and 9 share the point's
    distance rows; each keeps its own ``k``."""
    dataset = uniform_dataset(90, seed=53)
    config = SystemConfig(packet_capacity=64, n_channels=4)
    index = build_index("dsi", dataset, config, use_cache=False)
    points = [t.query.point for t in knn_workload(2, k=1, seed=5).trials]
    workload = Workload("shared-points", [
        Trial(KnnQuery(point, k), 0.0) for point in points for k in (1, 4, 9)
    ])
    for _ in range(2):
        out = _same_on_cleared_and_pure(monkeypatch, lambda: run_fleet(
            index, dataset, config, workload, N_CLIENTS, seed=3, max_phases=MAX_PHASES,
            verify=True,
        ), index)
        assert out.result.incorrect_trials == 0


def test_memo_warm_window_journeys(monkeypatch):
    """Window journeys repeated on one index: every call after the first
    stacks its hops' plans from the memo."""
    dataset = uniform_dataset(120, seed=59)
    config = SystemConfig(packet_capacity=64, n_channels=4, channel_switch_packets=2)
    index = build_index("dsi", dataset, config, use_cache=False)
    journeys = trajectory_workload(n_journeys=4, n_steps=3, seed=6, win_side_ratio=0.15)
    for _ in range(3):
        _same_on_cleared_and_pure(monkeypatch, lambda: run_mobile_fleet(
            index, dataset, config, journeys, N_CLIENTS, seed=11, max_phases=MAX_PHASES,
            verify=True,
        ), index)


@pytest.mark.parametrize("kind", ["dsi", "rtree", "dsi-knn", "dsi-journeys"])
def test_memo_bound_clears_mid_fleet(kind, monkeypatch):
    """With the memo bound patched to 2 every memo empties again and again
    inside one fleet call -- statics, plans and kNN covers -- and the
    arrays stay those of the unbounded memo, a cleared one and
    ``REPRO_PURE=1``."""
    from repro.sim import fleet_kernel as fk

    dataset = uniform_dataset(100, seed=57)
    config = SystemConfig(packet_capacity=64, n_channels=4)
    index = build_index(kind.split("-")[0], dataset, config, use_cache=False)
    if kind == "dsi-journeys":
        workload = trajectory_workload(n_journeys=4, n_steps=3, seed=3,
                                       win_side_ratio=0.2)
    elif kind == "dsi-knn":
        workload = knn_workload(5, k=5, seed=3)
    else:
        workload = window_workload(6, 0.2, seed=3)
    run = run_mobile_fleet if kind == "dsi-journeys" else run_fleet

    def fleet():
        return run(index, dataset, config, workload, N_CLIENTS, seed=8,
                   max_phases=MAX_PHASES, verify=True)

    unbounded = fleet()
    clears = []
    real_memo = fk._memo

    def memo(host):
        held = len(getattr(host, fk._MEMO_ATTR, ()))
        out = real_memo(host)
        clears.append(held > len(out))
        return out

    monkeypatch.setattr(fk, "_MEMO_MAX", 2)
    monkeypatch.setattr(fk, "_memo", memo)
    for _ in range(2):
        n_before = sum(clears)
        bounded = _same_on_cleared_and_pure(monkeypatch, fleet, index)
        assert sum(clears) - n_before >= 3
        np.testing.assert_array_equal(bounded.unique_counts, unbounded.unique_counts)
        np.testing.assert_array_equal(bounded.unique_latency, unbounded.unique_latency)
        np.testing.assert_array_equal(bounded.unique_tuning, unbounded.unique_tuning)


@pytest.mark.parametrize("channels", [1, 4])
def test_memo_flat_schedule_keeps_its_policy(channels):
    """The demand-aware search labels the candidate it picks
    ``"optimized"`` -- on uniform demand the flat layout it built itself
    -- while the program's memoised flat schedule stays ``"flat"``, and
    so does every flat fleet after it."""
    from repro.broadcast.demand import DemandProfile

    dataset = uniform_dataset(90, seed=61)
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    index = build_index("dsi", dataset, config, use_cache=False)
    workload = window_workload(5, 0.15, seed=4)
    flat = BroadcastSchedule.for_config(index.program, config)
    optimized = BroadcastSchedule.optimized(
        index.program, DemandProfile.uniform(index.program), channels=channels
    )
    assert optimized.policy == "optimized" and optimized is not flat
    assert BroadcastSchedule.for_config(index.program, config) is flat
    assert flat.policy == "flat"
    kw = dict(seed=2, max_phases=MAX_PHASES)
    opt_run = run_fleet(index, dataset, config, workload, N_CLIENTS,
                        schedule=optimized, **kw)
    flat_run = run_fleet(index, dataset, config, workload, N_CLIENTS, **kw)
    assert (opt_run.schedule_policy, flat_run.schedule_policy) == ("optimized", "flat")


#: What a memo interleaving draws its calls from: an index family and its
#: query kind.
_MEMO_KINDS = ("dsi", "rtree", "hci", "dsi-knn", "dsi-journeys")


@given(data=st.data())
@settings(**_SETTINGS)
def test_memo_interleavings_match_cleared_runs(data):
    """Any interleaving of calls on shared memos equals cleared-memo runs.

    Hypothesis draws a dataset and a sequence of two to six calls, each an
    (index kind, channel count, ``verify``, query subset) over DSI, R-tree
    and HCI indexes built once: DSI, R-tree and HCI windows, DSI kNN and
    DSI window journeys.  Each call on the memos the calls before it left
    must give the arrays and verdict counts of the same call with its
    index's memos set aside, and a verified call must answer everything.
    """
    seed = data.draw(st.integers(min_value=0, max_value=1 << 16), label="seed")
    dataset = uniform_dataset(data.draw(st.integers(min_value=40, max_value=120)),
                              seed=seed)
    base = SystemConfig(packet_capacity=64)
    indexes = {kind: build_index(kind, dataset, base, use_cache=False)
               for kind in ("dsi", "rtree", "hci")}
    side = data.draw(st.floats(min_value=0.05, max_value=0.4), label="side")
    windows = window_workload(5, side, seed=seed).trials
    nearest = knn_workload(5, k=data.draw(st.integers(1, 8), label="k"), seed=seed).trials
    moves = trajectory_workload(n_journeys=5, n_steps=2, seed=seed, win_side_ratio=side)
    calls = data.draw(st.lists(
        st.tuples(st.sampled_from(_MEMO_KINDS), st.sampled_from([1, 4]), st.booleans(),
                  st.sets(st.integers(min_value=0, max_value=4), min_size=1)),
        min_size=2, max_size=6,
    ), label="calls")
    for kind, channels, verify, subset in calls:
        picked = sorted(subset)
        index = indexes[kind.split("-")[0]]
        config = SystemConfig(packet_capacity=64, n_channels=channels,
                              channel_switch_packets=2)
        if kind == "dsi-journeys":
            workload = TrajectoryWorkload(
                "picked", [moves.journeys[i] for i in picked], moves.model
            )
            run = run_mobile_fleet
        else:
            trials = nearest if kind == "dsi-knn" else windows
            workload = Workload("picked", [trials[i] for i in picked])
            run = run_fleet

        def fleet():
            return run(index, dataset, config, workload, N_CLIENTS, seed=seed,
                       max_phases=MAX_PHASES, verify=verify)

        warm = fleet()
        with _memos_set_aside(index):
            cold = fleet()
        assert warm.backend == cold.backend == "numpy", warm.backend_reason
        np.testing.assert_array_equal(warm.unique_counts, cold.unique_counts)
        np.testing.assert_array_equal(warm.unique_latency, cold.unique_latency)
        np.testing.assert_array_equal(warm.unique_tuning, cold.unique_tuning)
        assert (warm.result.correct_trials, warm.result.incorrect_trials) == (
            cold.result.correct_trials, cold.result.incorrect_trials)
        if verify:
            assert warm.result.incorrect_trials == 0
