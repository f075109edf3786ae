"""Mobility microbenchmark: journey-scale moving-fleet throughput.

Times a 100k-client *moving* fleet -- every client runs a 5-hop warm
journey (random-waypoint motion, window queries from each position) --
through :func:`repro.sim.fleet.run_mobile_fleet` and writes clients/sec
and queries/sec to ``BENCH_mobility.json`` at the repository root.

The run must complete via the batched machinery (distinct (journey, phase)
executions collapsed further onto hop-1 entry landmarks), never per-client
Python loops: the executions assertion pins the collapse, and serial vs
parallel runs must produce identical population statistics.  Since PR 8
warm DSI window journeys advance on the SoA journey kernel
(``simulate_window_journeys``) -- the backend stages record it and the
full-scale run gates a clients/sec floor on it.  ``REPRO_BENCH_SMOKE=1``
shrinks the fleet for CI.  The wall-clock assertions and the
``BENCH_mobility.json`` write run only under ``REPRO_BENCH_RECORD=1``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.broadcast.config import SystemConfig
from repro.mobility import trajectory_workload
from repro.sim.fleet import run_mobile_fleet
from repro.sim.runner import build_index
from repro.spatial.datasets import uniform_dataset

from conftest import BENCH_RECORD, BENCH_SMOKE, emit, write_bench

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_mobility.json"

N_CLIENTS = 20_000 if BENCH_SMOKE else 100_000
N_OBJECTS = 300 if BENCH_SMOKE else 600
N_JOURNEYS = 6 if BENCH_SMOKE else 12
N_STEPS = 5
DWELL_PACKETS = 1_500
MAX_WALL_S = 60.0
#: Parallel may trail serial by at most this factor (scheduling noise).
PARALLEL_SLACK = 0.9
#: Full-scale clients/sec floor for the 1ch journey fleet on the SoA
#: journey kernel (warm window journeys ran ~55k/s before PR 8).
MIN_MOBILE_CPS = 250_000.0
#: Whether the full-scale wall-clock floors are asserted.
FLOORS = BENCH_RECORD and not BENCH_SMOKE


def test_mobility_bench():
    dataset = uniform_dataset(N_OBJECTS, seed=7)
    trajectories = trajectory_workload(
        N_JOURNEYS, N_STEPS, "waypoint", query="window",
        win_side_ratio=0.1, dwell_packets=DWELL_PACKETS, seed=13,
    )
    stages = {
        "smoke": BENCH_SMOKE,
        "n_clients": N_CLIENTS,
        "n_objects": N_OBJECTS,
        "n_journeys": N_JOURNEYS,
        "n_steps": N_STEPS,
    }

    config = SystemConfig(packet_capacity=64)
    index = build_index("dsi", dataset, config, use_cache=True)
    reference = None
    for mode, parallel in (("serial", False), ("parallel", True)):
        t0 = time.perf_counter()
        result = run_mobile_fleet(
            index, dataset, config, trajectories, N_CLIENTS,
            seed=9, parallel=parallel,
        )
        wall = time.perf_counter() - t0
        key = f"mobile_1ch_{mode}"
        stages[f"{key}_s"] = wall
        stages[f"{key}_clients_per_sec"] = N_CLIENTS / wall
        stages[f"{key}_queries_per_sec"] = N_CLIENTS * N_STEPS / wall
        stages[f"{key}_executions"] = result.n_executions
        stages[f"{key}_backend"] = result.backend
        if FLOORS:
            assert wall < MAX_WALL_S, f"{key} took {wall:.1f}s (> {MAX_WALL_S}s)"
        # The batched path: the fleet collapses onto distinct (journey,
        # phase) executions, orders of magnitude below the population.
        assert result.n_executions <= N_JOURNEYS * result.n_phases
        assert result.n_executions < N_CLIENTS // 10
        # serial and parallel must agree exactly
        if reference is None:
            reference = (
                result.result.latency.mean,
                result.result.tuning.mean,
                result.n_executions,
            )
        else:
            assert (
                result.result.latency.mean,
                result.result.tuning.mean,
                result.n_executions,
            ) == reference
    if BENCH_RECORD and (os.cpu_count() or 1) >= 2 and N_CLIENTS >= 100_000:
        serial_cps = stages["mobile_1ch_serial_clients_per_sec"]
        parallel_cps = stages["mobile_1ch_parallel_clients_per_sec"]
        assert parallel_cps >= PARALLEL_SLACK * serial_cps, (
            f"parallel mobile fleet lost to serial: "
            f"{parallel_cps:,.0f} vs {serial_cps:,.0f} clients/s"
        )
    # Warm window journeys must run on the SoA journey kernel at population
    # speed -- the PR 8 cliff closure.
    if not os.environ.get("REPRO_PURE"):
        assert stages["mobile_1ch_serial_backend"] == "numpy"
        if FLOORS:
            cps = stages["mobile_1ch_serial_clients_per_sec"]
            assert cps >= MIN_MOBILE_CPS, (
                f"mobile fleet kernel below floor: "
                f"{cps:,.0f} < {MIN_MOBILE_CPS:,.0f} clients/s"
            )

    # Striped multi-channel journeys, bounded phase resolution (control
    # channels keep most landmarks distinct, so this is the heavy variant).
    config4 = SystemConfig(packet_capacity=64, n_channels=4)
    index4 = build_index("dsi", dataset, config4, use_cache=True)
    t0 = time.perf_counter()
    result4 = run_mobile_fleet(
        index4, dataset, config4, trajectories, N_CLIENTS,
        seed=9, max_phases=64,
    )
    wall4 = time.perf_counter() - t0
    stages["mobile_4ch_serial_s"] = wall4
    stages["mobile_4ch_serial_clients_per_sec"] = N_CLIENTS / wall4
    stages["mobile_4ch_serial_executions"] = result4.n_executions
    stages["mobile_4ch_serial_backend"] = result4.backend

    # Journey metrics travel with the benchmark for trajectory tracking.
    stages["journey_latency_bytes"] = result.result.latency.mean
    stages["journey_tuning_bytes"] = result.result.tuning.mean
    stages["hop_latency_bytes"] = result.mean_hop_latency_bytes
    stages["staleness_distance"] = result.mean_staleness

    write_bench(BENCH_JSON, stages)
    emit(
        "BENCH mobility (journey fleets)",
        "\n".join(
            f"{k}: {v:,.0f}" if isinstance(v, float) else f"{k}: {v}"
            for k, v in sorted(stages.items())
        ),
    )
