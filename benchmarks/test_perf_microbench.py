"""Performance microbenchmark: per-stage wall-clock of the hot paths.

Times each stage of the simulate-and-sweep pipeline -- Hilbert encoding
(classical scalar loop, table-driven scalar, vectorised batch), window-cover
construction, index builds (cold and cached), workload replay and ground
truth (grid vs brute force) -- and writes the results to ``BENCH_perf.json``
at the repository root so later PRs can track the performance trajectory.

``REPRO_BENCH_SMOKE=1`` shrinks the workloads so CI can run the bench on
every push; the batch-vs-scalar speedup assertion is relaxed accordingly.
The timing assertions and the ``BENCH_perf.json`` write run only under
``REPRO_BENCH_RECORD=1``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.broadcast.config import SystemConfig
from repro.queries.ground_truth import brute_answer, grid_for, matches
from repro.queries.workload import knn_workload, window_workload
from repro.sim.runner import build_index, clear_index_cache, index_cache_stats, run_workload
from repro.spatial.datasets import uniform_dataset
from repro.spatial.geometry import Point, Rect

from conftest import BENCH_RECORD, BENCH_SMOKE, emit, write_bench

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

N_ENCODE = 2_000 if BENCH_SMOKE else 10_000
N_OBJECTS = 400 if BENCH_SMOKE else 1_200
N_QUERIES = 5 if BENCH_SMOKE else 20
N_TRUTH = 20 if BENCH_SMOKE else 60
# Numba-free pure Python vs numpy: at full scale the batch path is well over
# an order of magnitude faster; smoke scale keeps a conservative margin.
MIN_BATCH_SPEEDUP = 3.0 if BENCH_SMOKE else 10.0


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def test_perf_microbench():
    stages = {}

    # -- stage: dataset build (batch Hilbert values included) ----------------
    stages["dataset_build_s"], dataset = _timed(uniform_dataset, N_OBJECTS, 7)
    curve = dataset.curve

    # -- stage: Hilbert encoding ---------------------------------------------
    rng = np.random.default_rng(11)
    xs = rng.integers(0, curve.side, size=N_ENCODE, dtype=np.int64)
    ys = rng.integers(0, curve.side, size=N_ENCODE, dtype=np.int64)
    xs_list = [int(v) for v in xs]
    ys_list = [int(v) for v in ys]

    t_classical, expected = _timed(
        lambda: [curve.encode_classical(x, y) for x, y in zip(xs_list, ys_list)]
    )
    t_lut, got_lut = _timed(
        lambda: [curve.encode(x, y) for x, y in zip(xs_list, ys_list)]
    )
    t_batch, got_batch = _timed(curve.encode_many, xs, ys)
    assert got_lut == expected
    assert [int(v) for v in got_batch] == expected
    stages["hilbert_scalar_classical_s"] = t_classical
    stages["hilbert_scalar_lut_s"] = t_lut
    stages["hilbert_batch_s"] = t_batch
    stages["hilbert_batch_speedup_vs_scalar"] = t_classical / max(t_batch, 1e-9)
    if BENCH_RECORD:
        assert stages["hilbert_batch_speedup_vs_scalar"] >= MIN_BATCH_SPEEDUP

    # -- stage: window covers -------------------------------------------------
    windows = [
        Rect(x, y, min(1.0, x + 0.12), min(1.0, y + 0.12))
        for x, y in rng.random((N_TRUTH, 2))
    ]
    stages["window_cover_s"], _ = _timed(
        lambda: [curve.ranges_for_rect(w, max_ranges=96) for w in windows]
    )

    # -- stage: index builds (cold vs cached) --------------------------------
    clear_index_cache()
    config = SystemConfig(packet_capacity=64)
    cold = 0.0
    for kind in ("dsi", "rtree", "hci"):
        t, _ = _timed(build_index, kind, dataset, config, True)
        cold += t
    cached = 0.0
    for kind in ("dsi", "rtree", "hci"):
        t, _ = _timed(build_index, kind, dataset, config, True)
        cached += t
    stages["index_build_cold_s"] = cold
    stages["index_build_cached_s"] = cached
    stats = index_cache_stats()
    assert stats["hits"] >= 3
    if BENCH_RECORD:
        assert cached < cold

    # -- stage: workload replay ----------------------------------------------
    index = build_index("dsi", dataset, config, True)
    win = window_workload(N_QUERIES, 0.1, seed=42)
    knn = knn_workload(N_QUERIES, k=10, seed=42)
    stages["window_workload_s"], res_w = _timed(
        run_workload, index, dataset, config, win, None, True
    )
    stages["knn_workload_s"], res_k = _timed(
        run_workload, index, dataset, config, knn, None, True
    )
    assert res_w.accuracy == 1.0
    assert res_k.accuracy == 1.0

    # -- stage: ground truth (grid vs brute force) ---------------------------
    grid = grid_for(dataset)
    queries = [t.query for t in win] + [t.query for t in knn]
    stages["ground_truth_grid_s"], grid_answers = _timed(
        lambda: [grid.answer(q) for q in queries]
    )
    stages["ground_truth_brute_s"], brute_answers = _timed(
        lambda: [brute_answer(dataset, q) for q in queries]
    )
    for query, got, want in zip(queries, grid_answers, brute_answers):
        assert matches(dataset, query, got)
        assert {o.oid for o in got} == {o.oid for o in want}

    report = {
        "smoke": BENCH_SMOKE,
        "n_encode": N_ENCODE,
        "n_objects": N_OBJECTS,
        "n_queries": N_QUERIES,
        "stages": stages,
    }
    write_bench(BENCH_JSON, report)
    emit(
        "Perf microbench (per-stage wall clock)",
        "\n".join(f"{name:38s} {value:12.6f}" for name, value in stages.items())
        + f"\n\nBENCH file: {BENCH_JSON}",
    )
