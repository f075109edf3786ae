"""Demand-aware scheduling benchmark: optimized vs flat fleet latency.

Runs a zipf(1.1)-skewed hot-region fleet (100k clients at full scale)
against a DSI broadcast on a four-channel schedule, flat and
demand-optimized, and writes the access-latency reduction to
``BENCH_sched.json`` at the repository root.  The acceptance floor is the
tentpole claim of the scheduler subsystem:

* at full scale the optimized schedule must cut the fleet's mean access
  latency by **at least 25%** versus the flat striped layout,
* at **equal tuning time** -- the per-client tuning cost may grow by at
  most 5% (clients doze through extra hot-frame airings; selective tuning
  over the index makes expected tuning schedule-invariant up to the small
  peek cost of inserted copies),
* with the optimizer's own wall-clock recorded (``optimize_s``), so the
  "equal tuning effort" claim is auditable: the tree search is a
  sub-second, server-side, once-per-cycle cost.

R-tree and HCI legs run as informational stages (no floors): the R-tree
reduction is comparable at either scale, which EXPERIMENTS.md tabulates.
**HCI's reduction is scale-sensitive by construction**, not noise: an HCI
client reads a contiguous arc of the broadcast in curve order, so
replication only helps when the flat mean latency exceeds one cycle (the
client *wraps* and nearest copies cut the re-wait -- the smoke shape,
~50% reduction).  At the full-scale shape queries finish in ~0.6 cycles,
the exit is pinned by the last qualifying bucket's position, and extra
copies just stretch the macro-cycle: per-query ratios land at 1.00 +/-
0.06 and the mean reduction collapses to ~0.  Both regimes are pinned by
``tests/test_sched.py::TestHciScaleSensitivity``.  ``REPRO_BENCH_SMOKE=1``
shrinks the fleet for CI with a looser 15% floor (small fleets quantise
the phase grid more coarsely, but the effect must still be plainly
visible).  The wall-clock assertions and the ``BENCH_sched.json`` write run
only under ``REPRO_BENCH_RECORD=1``.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.broadcast.config import SystemConfig
from repro.broadcast.schedule import BroadcastSchedule
from repro.queries.workload import skewed_workload
from repro.sim.fleet import run_fleet
from repro.sim.runner import build_index
from repro.spatial.datasets import uniform_dataset

from conftest import BENCH_RECORD, BENCH_SMOKE, emit, write_bench

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_sched.json"

N_CLIENTS = 20_000 if BENCH_SMOKE else 100_000
N_OBJECTS = 250 if BENCH_SMOKE else 500
N_QUERIES = 30 if BENCH_SMOKE else 60
N_CHANNELS = 4
ZIPF_S = 1.1
BUDGET = 1.8
#: Acceptance floor on the DSI mean-latency reduction (full scale); the
#: smoke floor is looser but still gates CI against a broken optimizer.
MIN_REDUCTION = 0.15 if BENCH_SMOKE else 0.25
#: "Equal tuning time": optimized tuning may exceed flat by at most 5%.
MAX_TUNING_RATIO = 1.05
#: Full-scale clients/sec floor for the DSI optimized-schedule fleet: the
#: kernel's multiplicity-aware lanes must keep demand-aware layouts at
#: population speed (they ran ~11k/s on the reference path before PR 8).
MIN_OPT_CPS = 300_000.0


def test_sched_bench():
    dataset = uniform_dataset(N_OBJECTS, seed=7)
    workload = skewed_workload(N_QUERIES, zipf_s=ZIPF_S, seed=9)
    config = SystemConfig(packet_capacity=64, n_channels=N_CHANNELS)
    stages = {
        "smoke": BENCH_SMOKE,
        "n_clients": N_CLIENTS,
        "n_objects": N_OBJECTS,
        "n_queries": N_QUERIES,
    }

    for kind in ("dsi", "rtree", "hci"):
        index = build_index(kind, dataset, config, use_cache=True)
        demand = workload.bucket_demand(index, dataset)

        t0 = time.perf_counter()
        schedule = BroadcastSchedule.optimized(
            index.program, demand, channels=N_CHANNELS, budget=BUDGET
        )
        stages[f"{kind}_optimize_s"] = time.perf_counter() - t0
        assert schedule.policy == "optimized"

        flat = run_fleet(index, dataset, config, workload, N_CLIENTS, seed=9)
        opt = run_fleet(
            index, dataset, config, workload, N_CLIENTS, seed=9, schedule=schedule
        )
        flat_lat = flat.result.latency.mean
        opt_lat = opt.result.latency.mean
        reduction = 1.0 - opt_lat / flat_lat
        tuning_ratio = opt.result.tuning.mean / flat.result.tuning.mean
        stages[f"{kind}_flat_latency_bytes"] = flat_lat
        stages[f"{kind}_opt_latency_bytes"] = opt_lat
        stages[f"{kind}_latency_reduction"] = reduction
        stages[f"{kind}_tuning_ratio"] = tuning_ratio
        stages[f"{kind}_fleet_s"] = opt.elapsed_s
        stages[f"{kind}_fleet_clients_per_sec"] = N_CLIENTS / opt.elapsed_s
        stages[f"{kind}_fleet_backend"] = opt.backend
        stages[f"{kind}_max_multiplicity"] = schedule.max_multiplicity
        assert tuning_ratio <= MAX_TUNING_RATIO, (
            f"{kind}: optimized tuning {tuning_ratio:.3f}x flat exceeds "
            f"{MAX_TUNING_RATIO}x -- the schedule is not tuning-neutral"
        )
        if kind == "dsi":
            assert reduction >= MIN_REDUCTION, (
                f"dsi: optimized schedule cut latency by {reduction:.1%}, "
                f"below the {MIN_REDUCTION:.0%} floor "
                f"({flat_lat:,.0f} -> {opt_lat:,.0f} bytes)"
            )
            # the optimizer is a once-per-cycle server-side cost, not a
            # per-client one: it must stay far below the fleet wall-clock
            if BENCH_RECORD:
                assert stages["dsi_optimize_s"] < 5.0
            # Optimized (replicated) schedules must run on the SoA kernel
            # at population speed -- the PR 8 cliff closure.
            if not os.environ.get("REPRO_PURE"):
                assert opt.backend == "numpy", opt.backend_reason
                if BENCH_RECORD and not BENCH_SMOKE:
                    cps = stages["dsi_fleet_clients_per_sec"]
                    assert cps >= MIN_OPT_CPS, (
                        f"dsi optimized fleet below floor: "
                        f"{cps:,.0f} < {MIN_OPT_CPS:,.0f} clients/s"
                    )

    write_bench(
        BENCH_JSON,
        stages,
        meta={
            "n_channels": N_CHANNELS,
            "schedule_policy": ["flat", "optimized"],
            "zipf": ZIPF_S,
            "budget": BUDGET,
            "index": ["dsi", "rtree", "hci"],
        },
    )
    emit(
        "BENCH sched (optimized vs flat, zipf-skewed fleet)",
        "\n".join(
            f"{k}: {v:.4f}" if isinstance(v, float) else f"{k}: {v}"
            for k, v in sorted(stages.items())
        ),
    )
