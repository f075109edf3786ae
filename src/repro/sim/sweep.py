"""Parameter sweeps that regenerate the paper's figures.

Every function returns a list of plain dictionaries (one per curve point),
so the benchmark harness can print them as the rows of the corresponding
figure and EXPERIMENTS.md can archive them.

The four single-axis figure sweeps (Figures 9-12) are thin shims over the
public :class:`repro.api.experiment.Experiment` builder, which owns point
expansion, per-point index pruning (the R-tree only competes where an MBR
entry fits a packet) and the parallel fan-out.  Figure 8 and Table 1 have
bespoke structure (per-variant labels, shared error-free baselines), so
they keep module-level *point workers* fanned out through
:func:`repro.sim.parallel.parallel_map`; workers are module-level so they
pickle cleanly into worker processes.  In both forms all randomness flows
through explicit seeds, so serial and parallel runs produce identical rows
in identical order, and index builds go through the registry's build cache.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..api.experiment import Axis, Experiment
from ..broadcast.config import SystemConfig
from ..broadcast.errors import LinkErrorModel
from ..core.structure import DsiParameters
from ..queries.workload import knn_workload, window_workload
from ..spatial.datasets import SpatialDataset
from .metrics import deterioration
from .parallel import parallel_map
from .runner import IndexSpec, build_index, run_workload


# ---------------------------------------------------------------------------
# Figure 8: broadcast reorganization
# ---------------------------------------------------------------------------


def _reorganization_point(
    dataset: SpatialDataset,
    capacity: int,
    n_queries: int,
    k: int,
    win_side_ratio: float,
    seed: int,
    verify: bool,
) -> List[Dict[str, float]]:
    """One capacity of Figure 8 (all index variants, both workloads)."""
    rows: List[Dict[str, float]] = []
    win = window_workload(n_queries, win_side_ratio, seed=seed)
    knn = knn_workload(n_queries, k=k, seed=seed)
    variants = [
        ("Original", DsiParameters(n_segments=1), "conservative"),
        ("Reorganized", DsiParameters(n_segments=2), "conservative"),
        ("Aggressive", DsiParameters(n_segments=1), "aggressive"),
    ]
    config = SystemConfig(packet_capacity=capacity)
    for label, params, strategy in variants:
        index = build_index(
            IndexSpec(kind="dsi", dsi_params=params), dataset, config, use_cache=True
        )
        if label != "Aggressive":
            res_w = run_workload(
                index, dataset, config, win, verify=verify, label=label
            )
            rows.append(
                {
                    "figure": "8ab",
                    "query": "window",
                    "capacity": capacity,
                    "index": label,
                    "latency_bytes": res_w.mean_latency_bytes,
                    "tuning_bytes": res_w.mean_tuning_bytes,
                }
            )
        knn_label = "Conservative" if label == "Original" else label
        res_k = run_workload(
            index, dataset, config, knn, verify=verify, knn_strategy=strategy, label=knn_label
        )
        rows.append(
            {
                "figure": "8cd",
                "query": f"{k}NN",
                "capacity": capacity,
                "index": knn_label,
                "latency_bytes": res_k.mean_latency_bytes,
                "tuning_bytes": res_k.mean_tuning_bytes,
            }
        )
    return rows


def reorganization_sweep(
    dataset: SpatialDataset,
    capacities: Sequence[int],
    n_queries: int = 50,
    k: int = 10,
    win_side_ratio: float = 0.1,
    seed: int = 42,
    verify: bool = False,
    processes: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Figure 8: original vs reorganized broadcast, window and 10NN queries.

    Curves: ``Original``/``Reorganized`` for window queries, and
    ``Conservative``/``Aggressive``/``Reorganized`` for kNN queries.
    """
    tasks = [
        (dataset, capacity, n_queries, k, win_side_ratio, seed, verify)
        for capacity in capacities
    ]
    per_point = parallel_map(_reorganization_point, tasks, processes=processes)
    return [row for rows in per_point for row in rows]


# ---------------------------------------------------------------------------
# Figures 9-12: Experiment-builder shims
# ---------------------------------------------------------------------------


def window_capacity_sweep(
    dataset: SpatialDataset,
    capacities: Sequence[int],
    n_queries: int = 50,
    win_side_ratio: float = 0.1,
    seed: int = 42,
    verify: bool = False,
    processes: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Figure 9: window queries, DSI vs R-tree vs HCI, varying packet capacity."""
    return (
        Experiment(dataset)
        .window_workload(n_queries=n_queries, win_side_ratio=win_side_ratio, seed=seed)
        .verify(verify)
        .sweep(capacity=capacities)
        .tag(figure="9", query="window", capacity=Axis("capacity"))
        .run(processes=processes)
        .rows
    )


def window_ratio_sweep(
    dataset: SpatialDataset,
    ratios: Sequence[float],
    capacity: int = 64,
    n_queries: int = 50,
    seed: int = 42,
    verify: bool = False,
    processes: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Figure 10: window queries, varying WinSideRatio at a fixed capacity."""
    return (
        Experiment(dataset)
        .config(packet_capacity=capacity)
        .window_workload(n_queries=n_queries, seed=seed)
        .verify(verify)
        .sweep(win_side_ratio=ratios)
        .tag(figure="10", query="window", win_side_ratio=Axis("win_side_ratio"))
        .run(processes=processes)
        .rows
    )


def knn_capacity_sweep(
    dataset: SpatialDataset,
    capacities: Sequence[int],
    k: int,
    n_queries: int = 50,
    seed: int = 42,
    verify: bool = False,
    processes: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Figure 11: kNN queries (k = 1 and k = 10 in the paper), varying capacity."""
    return (
        Experiment(dataset)
        .knn_workload(n_queries=n_queries, k=k, seed=seed)
        .verify(verify)
        .sweep(capacity=capacities)
        .tag(figure="11", query=f"{k}NN", capacity=Axis("capacity"), k=k)
        .run(processes=processes)
        .rows
    )


def knn_k_sweep(
    dataset: SpatialDataset,
    ks: Sequence[int],
    capacity: int = 64,
    n_queries: int = 50,
    seed: int = 42,
    verify: bool = False,
    processes: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Figure 12: kNN queries, varying k at a fixed capacity."""
    return (
        Experiment(dataset)
        .config(packet_capacity=capacity)
        .knn_workload(n_queries=n_queries, seed=seed)
        .verify(verify)
        .sweep(k=ks)
        .tag(figure="12", query="knn", k=Axis("k"))
        .run(processes=processes)
        .rows
    )


# ---------------------------------------------------------------------------
# Table 1: link errors
# ---------------------------------------------------------------------------


def _link_error_rows_for_spec(
    dataset: SpatialDataset,
    spec: IndexSpec,
    thetas: Sequence[float],
    capacity: int,
    n_queries: int,
    k: int,
    win_side_ratio: float,
    seed: int,
    error_scope: str,
) -> List[Dict[str, float]]:
    """All thetas of Table 1 for one index (shares the error-free baseline)."""
    config = SystemConfig(packet_capacity=capacity)
    win = window_workload(n_queries, win_side_ratio, seed=seed)
    knn = knn_workload(n_queries, k=k, seed=seed)
    index = build_index(spec, dataset, config, use_cache=True)
    baselines = {
        "window": run_workload(index, dataset, config, win, verify=False, label=spec.display_name),
        "knn": run_workload(index, dataset, config, knn, verify=False, label=spec.display_name),
    }
    rows: List[Dict[str, float]] = []
    for theta in thetas:
        error = LinkErrorModel(theta=theta, scope=error_scope, seed=seed)
        degraded_w = run_workload(
            index, dataset, config, win, error_model=error, verify=False, label=spec.display_name
        )
        error = LinkErrorModel(theta=theta, scope=error_scope, seed=seed + 1)
        degraded_k = run_workload(
            index, dataset, config, knn, error_model=error, verify=False, label=spec.display_name
        )
        det_w = deterioration(baselines["window"], degraded_w)
        det_k = deterioration(baselines["knn"], degraded_k)
        rows.append(
            {
                "table": "1",
                "index": spec.display_name,
                "theta": theta,
                "window_latency_pct": det_w["latency_pct"],
                "window_tuning_pct": det_w["tuning_pct"],
                "knn_latency_pct": det_k["latency_pct"],
                "knn_tuning_pct": det_k["tuning_pct"],
            }
        )
    return rows


def link_error_table(
    dataset: SpatialDataset,
    thetas: Sequence[float],
    capacity: int = 64,
    n_queries: int = 50,
    k: int = 10,
    win_side_ratio: float = 0.1,
    seed: int = 42,
    error_scope: str = "index",
    processes: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Table 1: percentage deterioration under link errors.

    For every index and every theta the deterioration is reported relative
    to the same index running over a lossless channel (theta = 0).
    """
    from .runner import default_specs

    tasks = [
        (dataset, spec, tuple(thetas), capacity, n_queries, k, win_side_ratio, seed, error_scope)
        for spec in default_specs()
    ]
    per_spec = parallel_map(_link_error_rows_for_spec, tasks, processes=processes)
    return [row for rows in per_spec for row in rows]
