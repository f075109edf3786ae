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
(multiplicity 2--9) layouts, and the lossless and link-error regimes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.broadcast.client import ClientSession
from repro.broadcast.config import SystemConfig
from repro.broadcast.errors import LinkErrorModel
from repro.broadcast.schedule import BroadcastSchedule
from repro.broadcast.timeline import timeline_of
from repro.mobility import run_journey, trajectory_workload
from repro.queries.workload import knn_workload, window_workload
from repro.sim.fleet import run_fleet, run_mobile_fleet
from repro.sim.runner import build_index, execute_query
from repro.spatial.datasets import uniform_dataset
from repro.spatial.geometry import Point

N_CLIENTS = 300
MAX_PHASES = 12

_SETTINGS = dict(
    max_examples=3,
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

    The optimizer re-airs hot data buckets 2--9x per macro-cycle, so the
    kernels' multiplicity-aware occurrence arithmetic (nearest-copy waits,
    entry-occurrence lane keys, replicated visit seeks for DSI; per-copy
    frontier arrivals for the tree sweeps) is what's under test here --
    against scalar sessions walking the same explicit layout.
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
    mult = timeline_of(schedule.view()).max_multiplicity
    assume(2 <= mult <= 9)
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


@pytest.mark.parametrize("strategy", ["conservative", "aggressive"])
@pytest.mark.parametrize("channels", [1, 4])
@given(data=st.data())
@settings(**_SETTINGS)
def test_knn_fleet_matches_brute_force(channels, strategy, data):
    """Cold DSI kNN fleets on the batched kernel equal brute force exactly.

    The kernel compiles every per-query distance once and advances all
    ``(query, entry occurrence)`` lanes through the radius-driven planner
    loop in lockstep -- candidate covers, k-th-candidate radii, frame
    choices (conservative arrival order and the aggressive distance-first
    jump) all batched -- so every unique execution must match a fresh
    scalar planner session bit for bit.
    """
    n_objects = data.draw(st.integers(min_value=40, max_value=90))
    dataset_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    workload_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    fleet_seed = data.draw(st.integers(min_value=0, max_value=1 << 16))
    k = data.draw(st.integers(min_value=1, max_value=6))

    dataset = uniform_dataset(n_objects, seed=dataset_seed)
    workload = knn_workload(4, k=k, seed=workload_seed)
    config = SystemConfig(packet_capacity=64, n_channels=channels)
    index = build_index("dsi", dataset, config, use_cache=False)
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

    assert result.backend == "numpy"
    assert result.backend_reason is None
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
    k = data.draw(st.integers(min_value=1, max_value=6))

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


@given(
    seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=32),
    rounds=st.integers(1, 40),
)
@settings(max_examples=30, deadline=None)
def test_err_streams_match_default_rng(seeds, rounds):
    """The vectorized PCG64 lanes reproduce numpy's seeded streams exactly.

    `_ErrStreams` reimplements SeedSequence hashing and the 128-bit LCG in
    flat uint64 arrays; every buffered uniform must equal what
    ``np.random.default_rng(seed).random()`` would have drawn, including
    across buffer growths.
    """
    from repro.sim.fleet_kernel import _ErrStreams

    streams = _ErrStreams(np.asarray(seeds, dtype=np.int64), theta=0.5)
    all_lanes = np.arange(len(seeds))
    for _ in range(rounds):
        streams.lost(all_lanes)  # lockstep draws force periodic growth
    width = streams._buf.shape[1]
    reference = np.array(
        [np.random.default_rng(int(s)).random(width) for s in seeds]
    )
    assert np.array_equal(streams._buf, reference)


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
    rtree = build_index("rtree", dataset, config, use_cache=False)
    out = run_fleet(rtree, dataset, config, knn, 2_000, seed=9, max_phases=32)
    assert out.backend == "reference"
    assert "kNN trials on tree indexes" in out.backend_reason


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
                       journeys, index=None):
    dataset = uniform_dataset(70, seed=dataset_seed)
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
    """Mask candidacy equals the piece-interval candidacy on real walks.

    Every (knowledge row, prune circle) pair the kNN lanes meet in the
    corpus cells is replayed twice: through a fresh mask memo and the
    shared segment test, and through the scalar planner's cover
    (``ranges_for_circle``, or the full range at an infinite radius) fed
    to the oracle.  The candidate sets must agree row for row.
    """
    from repro.sim import fleet_kernel as fk

    calls = []
    real_resolve = fk._KnnCovers.resolve
    real_segments = fk._segment_candidates

    def resolve(self, qids, qx, qy, prune):
        calls.append([qx[qids], qy[qids], prune.copy(), None])
        return real_resolve(self, qids, qx, qy, prune)

    def segments(kn, hit):
        calls[-1][3] = kn.copy()
        return real_segments(kn, hit)

    monkeypatch.setattr(fk._KnnCovers, "resolve", resolve)
    monkeypatch.setattr(fk, "_segment_candidates", segments)
    walks = []
    for cell in _KNN_CORPUS_CELLS:
        start = len(calls)
        index, _ = _knn_index_and_run(*cell)
        walks.append((index, calls[start:]))
    monkeypatch.undo()

    n_rows = n_inf = 0
    for index, corpus in walks:
        mins = fk._static_of(index).mins
        curve = index.curve
        px, py, prune, kn = (
            np.concatenate([c[f] for c in corpus]) for f in range(4)
        )
        memo = fk._KnnCovers(curve, mins)
        cids = memo.resolve(np.arange(len(prune)), px, py, prune)
        got = fk._segment_candidates(kn, memo.masks[cids])
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
    cell = (77, 5, channels, strategy, 4, journeys)
    index, first = _knn_index_and_run(*cell)
    memo = index._soa_knn_static.covers.memo
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
        clears.append(len(self.memo) >= fk._KNN_COVER_MEMO_MAX)
        return real_resolve(self, *args)

    monkeypatch.setattr(fk, "_KNN_COVER_MEMO_MAX", 3)
    monkeypatch.setattr(fk._KnnCovers, "resolve", resolve)
    _, capped = _knn_index_and_run(*cell)
    assert sum(clears) >= 2 and not clears[0]
    np.testing.assert_array_equal(full.unique_counts, capped.unique_counts)
    np.testing.assert_array_equal(full.unique_latency, capped.unique_latency)
    np.testing.assert_array_equal(full.unique_tuning, capped.unique_tuning)


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
