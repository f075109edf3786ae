"""Fleet microbenchmark: population-scale simulation throughput.

Times a 100k-client fleet (window workload, DSI, single- and 4-channel
schedules, serial vs parallel unique-execution fan-out) and writes
clients-per-second figures to ``BENCH_fleet.json`` at the repository root
so later PRs can track the population-scaling trajectory.

Four regimes are measured:

* the **lossless DSI stages** run on the batched numpy fleet kernel
  (``backend == "numpy"``) and must clear hard clients-per-second floors
  at full scale -- 1M/s on one channel, 300k/s on four;
* the **tree stages** (PR 9) run the R-tree and HCI window fleets on the
  frontier-sweep kernel with a 200k/s full-scale floor;
* the **kNN stages** (``fleet_knn_1ch``, ``fleet_knn_4ch``,
  ``fleet_knn_aggressive_1ch``) run the DSI kNN fleet on the batched
  lockstep-lane kernel (``backend == "numpy"``, PR 10; the PR 9
  planner-lane replay managed ~18k/s) with full-scale floors of 150k/s,
  40k/s and 120k/s on a cold kernel -- compiled covers and distance
  tables included in the timed run;
* the **index-scope error stage** injects link errors on navigation
  buckets -- the experiments' error model -- which since PR 8 also runs on
  the kernel (vectorized per-lane loss streams), with a 500k/s floor;
* the **all-scope error stage** loses data buckets too, which every
  kernel declines (``backend == "reference"``) -- the regime where the
  multicore fan-out has real per-execution work to shard, so the
  parallel-speedup figure is measured there.  Serial and parallel legs
  must produce bit-identical per-execution histograms (on one CPU the
  "parallel" leg degrades to the serial path rather than paying executor
  overhead for nothing).

``REPRO_BENCH_SMOKE=1`` shrinks the fleet so CI can run the bench on every
push.  The wall-clock assertions (the floors, the < 30 s cap on the 100k
run, parallel not losing to serial) and the ``BENCH_fleet.json`` write run
only under ``REPRO_BENCH_RECORD=1``; the floors and the cap only at full
scale.  ``REPRO_REQUIRE_PARALLEL_SPEEDUP=<f>``
turns the parallel-vs-serial comparison into a hard gate: the all-scope
error stage must reach at least ``f``x serial throughput (CI runs this on
a multicore runner; single-core boxes must not set it -- there the
executor degrades to the serial path by design).  Under ``REPRO_PURE=1``
every stage runs the pure-python reference paths and the kernel floors
are skipped.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np

from repro.broadcast.config import SystemConfig
from repro.queries.workload import knn_workload, window_workload
from repro.sim.fleet import run_fleet
from repro.sim.runner import build_index
from repro.spatial.datasets import uniform_dataset

from conftest import BENCH_RECORD, BENCH_SMOKE, emit, write_bench

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

N_CLIENTS = 20_000 if BENCH_SMOKE else 100_000
N_OBJECTS = 300 if BENCH_SMOKE else 600
N_QUERIES = 8 if BENCH_SMOKE else 20
MAX_WALL_S = 30.0
#: Parallel may trail serial by at most this factor before it counts as a
#: regression (scheduling noise on loaded CI runners).
PARALLEL_SLACK = 0.9
#: Full-scale clients-per-second floors for the batched kernel (serial leg).
MIN_CPS = {1: 1_000_000.0, 4: 300_000.0}
#: Full-scale floor for the index-scope error stage (kernel-backed since PR 8).
MIN_ERR_CPS = 500_000.0
#: Full-scale floors for the PR 9 stages: tree-index window fleets on the
#: frontier-sweep kernel and DSI kNN fleets on the planner-lane backend.
MIN_TREE_CPS = 200_000.0
#: Full-scale floors for the batched kNN lane kernel (PR 10), keyed by
#: (n_channels, strategy) and measured cold -- cover compilation and the
#: distance tables are inside the timed run.  Multi-channel walks pay more
#: per-frame bookkeeping (per-channel wait matrices), the aggressive
#: strategy terminates in fewer frame visits.
MIN_KNN_CPS = {
    (1, "conservative"): 150_000.0,
    (4, "conservative"): 40_000.0,
    (1, "aggressive"): 120_000.0,
}
#: Whether the full-scale wall-clock floors are asserted.
FLOORS = BENCH_RECORD and not BENCH_SMOKE

#: Optional hard gate on the all-scope error stage's parallel speedup.
REQUIRE_SPEEDUP = float(os.environ.get("REPRO_REQUIRE_PARALLEL_SPEEDUP", "0") or "0")
#: All-scope error stage: data-bucket losses force the reference simulator,
#: giving the process pool real per-execution work; more phases when the
#: speedup gate is armed so the pool's fork cost amortises.
ERR_THETA = 0.05
ERR_PHASES = 256 if REQUIRE_SPEEDUP > 0 else 64


def test_fleet_bench():
    dataset = uniform_dataset(N_OBJECTS, seed=7)
    workload = window_workload(N_QUERIES, 0.1, seed=3)
    stages = {
        "smoke": BENCH_SMOKE,
        "n_clients": N_CLIENTS,
        "n_objects": N_OBJECTS,
        "n_queries": N_QUERIES,
    }

    reference = None
    for channels in (1, 4):
        config = SystemConfig(packet_capacity=64, n_channels=channels)
        index = build_index("dsi", dataset, config, use_cache=True)
        for mode, parallel in (("serial", False), ("parallel", True)):
            t0 = time.perf_counter()
            result = run_fleet(
                index, dataset, config, workload, N_CLIENTS, seed=9, parallel=parallel
            )
            wall = time.perf_counter() - t0
            key = f"fleet_{channels}ch_{mode}"
            stages[f"{key}_s"] = wall
            stages[f"{key}_clients_per_sec"] = N_CLIENTS / wall
            stages[f"{key}_executions"] = result.n_executions
            stages[f"{key}_backend"] = result.backend
            if FLOORS:
                assert wall < MAX_WALL_S, f"{key} took {wall:.1f}s (> {MAX_WALL_S}s)"
            # serial and parallel must agree exactly
            if reference is None:
                reference = (channels, result.result.latency.mean)
            elif reference[0] == channels:
                assert result.result.latency.mean == reference[1]
        # Acceptance floor: the batched kernel must sustain 1M clients/s on
        # one channel and 300k/s on four (full scale; the pure-python
        # reference backend is exempt -- it exists for auditability).
        if FLOORS and stages[f"fleet_{channels}ch_serial_backend"] == "numpy":
            cps = stages[f"fleet_{channels}ch_serial_clients_per_sec"]
            assert cps >= MIN_CPS[channels], (
                f"fleet kernel below floor at {channels} channel(s): "
                f"{cps:,.0f} < {MIN_CPS[channels]:,.0f} clients/s"
            )
        # At population scale the initializer-based pool must not lose to
        # serial; a single core cannot demonstrate a speedup, so the check
        # only applies where parallelism is physically possible.
        if BENCH_RECORD and (os.cpu_count() or 1) >= 2 and N_CLIENTS >= 100_000:
            serial_cps = stages[f"fleet_{channels}ch_serial_clients_per_sec"]
            parallel_cps = stages[f"fleet_{channels}ch_parallel_clients_per_sec"]
            assert parallel_cps >= PARALLEL_SLACK * serial_cps, (
                f"parallel fleet lost to serial at {channels} channel(s): "
                f"{parallel_cps:,.0f} vs {serial_cps:,.0f} clients/s"
            )
        reference = None

    # Tree-index window fleets (PR 9): the frontier-sweep kernel walks the
    # R-tree and HCI programs for every lane in lockstep; one- and
    # four-channel schedules, full population.
    for kind in ("rtree", "hci"):
        for channels in (1, 4):
            config = SystemConfig(packet_capacity=64, n_channels=channels)
            index = build_index(kind, dataset, config, use_cache=True)
            t0 = time.perf_counter()
            result = run_fleet(
                index, dataset, config, workload, N_CLIENTS, seed=9,
            )
            wall = time.perf_counter() - t0
            key = f"fleet_{kind}_{channels}ch"
            stages[f"{key}_s"] = wall
            stages[f"{key}_clients_per_sec"] = N_CLIENTS / wall
            stages[f"{key}_executions"] = result.n_executions
            stages[f"{key}_backend"] = result.backend
            if not os.environ.get("REPRO_PURE"):
                assert result.backend == "numpy", result.backend_reason
                if FLOORS:
                    cps = stages[f"{key}_clients_per_sec"]
                    assert cps >= MIN_TREE_CPS, (
                        f"{kind} frontier kernel below floor at {channels} "
                        f"channel(s): {cps:,.0f} < {MIN_TREE_CPS:,.0f} clients/s"
                    )

    # DSI kNN fleet (PR 10): batched lockstep lanes -- per-query covers and
    # distance tables compiled once, every lane advancing through the
    # planner loop as SoA array rows.  Each stage times a cold kernel
    # (cover compilation included); both strategies and the multi-channel
    # schedule are gated.
    knn = knn_workload(N_QUERIES, k=10, seed=3)
    for key, channels, strategy in (
        ("fleet_knn_1ch", 1, "conservative"),
        ("fleet_knn_4ch", 4, "conservative"),
        ("fleet_knn_aggressive_1ch", 1, "aggressive"),
    ):
        config = SystemConfig(packet_capacity=64, n_channels=channels)
        index = build_index("dsi", dataset, config, use_cache=True)
        t0 = time.perf_counter()
        result = run_fleet(
            index, dataset, config, knn, N_CLIENTS, seed=9,
            knn_strategy=strategy,
        )
        wall = time.perf_counter() - t0
        stages[f"{key}_s"] = wall
        stages[f"{key}_clients_per_sec"] = N_CLIENTS / wall
        stages[f"{key}_executions"] = result.n_executions
        stages[f"{key}_backend"] = result.backend
        if not os.environ.get("REPRO_PURE"):
            assert result.backend == "numpy", result.backend_reason
            if FLOORS:
                floor = MIN_KNN_CPS[(channels, strategy)]
                cps = stages[f"{key}_clients_per_sec"]
                assert cps >= floor, (
                    f"kNN kernel below floor ({key}): "
                    f"{cps:,.0f} < {floor:,.0f} clients/s"
                )

    # Index-scope error stage: the experiments' error model (navigation
    # losses only), kernel-backed since PR 8 -- vectorized per-lane loss
    # streams, bit-equal to the reference per-execution simulator.
    config = SystemConfig(packet_capacity=64, n_channels=1)
    index = build_index("dsi", dataset, config, use_cache=True)
    t0 = time.perf_counter()
    result = run_fleet(
        index, dataset, config, workload, N_CLIENTS, seed=9,
        error_theta=ERR_THETA, error_seed=5,
    )
    wall = time.perf_counter() - t0
    stages["fleet_err_s"] = wall
    stages["fleet_err_clients_per_sec"] = N_CLIENTS / wall
    stages["fleet_err_executions"] = result.n_executions
    stages["fleet_err_backend"] = result.backend
    if not os.environ.get("REPRO_PURE"):
        assert result.backend == "numpy", result.backend_reason
        if FLOORS:
            cps = stages["fleet_err_clients_per_sec"]
            assert cps >= MIN_ERR_CPS, (
                f"error-fleet kernel below floor: "
                f"{cps:,.0f} < {MIN_ERR_CPS:,.0f} clients/s"
            )

    # All-scope error stage: data-bucket losses sit outside the kernel's
    # envelope, so both legs run the per-execution reference simulator --
    # the regime where the multicore shard fan-out (key-only chunks, views
    # rebuilt per worker) does real work.  Serial and parallel must agree
    # bit for bit, per execution -- on one CPU the parallel leg degrades to
    # the serial path (no executor overhead), which this equality also
    # certifies.
    err_uniques = None
    for mode, parallel in (("serial", False), ("parallel", True)):
        t0 = time.perf_counter()
        result = run_fleet(
            index, dataset, config, workload, N_CLIENTS, seed=9,
            max_phases=ERR_PHASES, error_theta=ERR_THETA, error_scope="all",
            error_seed=5, parallel=parallel,
        )
        wall = time.perf_counter() - t0
        key = f"fleet_err_all_{mode}"
        stages[f"{key}_s"] = wall
        stages[f"{key}_clients_per_sec"] = N_CLIENTS / wall
        stages[f"{key}_executions"] = result.n_executions
        stages[f"{key}_backend"] = result.backend
        assert result.backend == "reference"
        if err_uniques is None:
            err_uniques = (result.unique_latency, result.unique_tuning)
        else:
            np.testing.assert_array_equal(result.unique_latency, err_uniques[0])
            np.testing.assert_array_equal(result.unique_tuning, err_uniques[1])
    stages["fleet_err_all_parallel_speedup"] = (
        stages["fleet_err_all_serial_s"] / stages["fleet_err_all_parallel_s"]
    )
    if REQUIRE_SPEEDUP > 0:
        assert (os.cpu_count() or 1) >= 2, (
            "REPRO_REQUIRE_PARALLEL_SPEEDUP set on a single-core host; the "
            "executor degrades to serial there, so the gate cannot pass"
        )
        speedup = stages["fleet_err_all_parallel_speedup"]
        assert speedup >= REQUIRE_SPEEDUP, (
            f"parallel fleet speedup {speedup:.2f}x below required "
            f"{REQUIRE_SPEEDUP:.2f}x "
            f"({stages['fleet_err_all_serial_s']:.2f}s serial vs "
            f"{stages['fleet_err_all_parallel_s']:.2f}s parallel)"
        )

    # memory model sanity: retained state is the execution histogram
    config = SystemConfig(packet_capacity=64)
    index = build_index("dsi", dataset, config, use_cache=True)
    small = run_fleet(index, dataset, config, workload, 1_000, seed=9)
    stages["executions_bound"] = len(workload) * small.n_phases
    assert small.n_executions <= stages["executions_bound"]

    write_bench(
        BENCH_JSON,
        stages,
        meta={"n_channels": [1, 4], "schedule_policy": "flat"},
    )
    emit(
        "BENCH fleet (clients/sec)",
        "\n".join(
            f"{k}: {v:,.0f}" if isinstance(v, float) else f"{k}: {v}"
            for k, v in sorted(stages.items())
        ),
    )
