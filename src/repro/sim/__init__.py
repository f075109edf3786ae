"""Simulation harness: experiment runner, fleets, sweeps and reporting."""

from .metrics import ExperimentResult, MetricSummary, deterioration
from .fleet import (
    FleetResult,
    FleetSpec,
    MobileFleetResult,
    run_fleet,
    run_mobile_fleet,
)
from .parallel import default_processes, parallel_map
from .runner import (
    INDEX_NAMES,
    IndexSpec,
    build_index,
    clear_index_cache,
    default_specs,
    execute_query,
    run_workload,
)
from .sweep import (
    knn_capacity_sweep,
    knn_k_sweep,
    link_error_table,
    reorganization_sweep,
    window_capacity_sweep,
    window_ratio_sweep,
)
from .report import figure_report, format_table, metric_columns, pivot_metric

__all__ = [
    "ExperimentResult",
    "MetricSummary",
    "deterioration",
    "FleetResult",
    "FleetSpec",
    "MobileFleetResult",
    "run_fleet",
    "run_mobile_fleet",
    "IndexSpec",
    "INDEX_NAMES",
    "build_index",
    "clear_index_cache",
    "execute_query",
    "run_workload",
    "default_specs",
    "default_processes",
    "parallel_map",
    "reorganization_sweep",
    "window_capacity_sweep",
    "window_ratio_sweep",
    "knn_capacity_sweep",
    "knn_k_sweep",
    "link_error_table",
    "figure_report",
    "format_table",
    "metric_columns",
    "pivot_metric",
]
