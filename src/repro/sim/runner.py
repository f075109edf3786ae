"""Experiment runner: build an index, replay a workload, collect metrics.

This is the layer the benchmark harness (and the examples) drive.  Index
construction is the public registry's (:mod:`repro.api.registry`), whose
``build_index`` is re-exported here; comparing several indexes on one
workload is a single-point :class:`repro.api.experiment.Experiment`.
:func:`run_workload` replays a :class:`~repro.queries.workload.Workload`
against a built index with a given link-error model, verifying every
answer against brute force when asked; it is a view over the fleet engine
(:mod:`repro.sim.fleet`), one client per trial, so the paper's figure rows
run on the same kernels and reference planners as every fleet.
:func:`execute_query` is the one per-query dispatch those reference
planners run.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..api.registry import (
    IndexSpec,
    build_index,
    builtin_index_names,
    clear_index_cache,
    default_specs,
)
from ..broadcast.client import ClientSession
from ..broadcast.config import SystemConfig
from ..broadcast.errors import LinkErrorModel
from ..broadcast.schedule import BroadcastSchedule
from ..core.structure import DsiIndex
from ..hci.air import HciAirIndex
from ..queries.types import KnnQuery, WindowQuery
from ..queries.workload import Workload
from ..rtree.air import RTreeAirIndex
from ..spatial.datasets import SpatialDataset
from .fleet import _run_executions, _schedule_view
from .metrics import ExperimentResult

#: The built-in index names (``dsi`` is the reorganized broadcast the paper
#: uses for its comparisons; the suffixed variant exposes the original
#: broadcast).  Third-party strategies registered through
#: :func:`repro.api.register_index` are *not* listed here -- consult
#: :func:`repro.api.available_indexes` for the live set.
INDEX_NAMES = builtin_index_names()

AnyIndex = Union[DsiIndex, RTreeAirIndex, HciAirIndex]


def execute_query(
    index: AnyIndex,
    query: Union[WindowQuery, KnnQuery],
    session: ClientSession,
    knn_strategy: str = "conservative",
    state=None,
):
    """Run one query through one session (the per-query dispatch).

    Shared by the fleet engine's reference path (and so by every workload
    replay) and the mobility journey engine, so all produce identical
    outcomes for the same (query, session) pair.  ``knn_strategy``
    applies to DSI only.  ``state`` optionally passes a continuous client's
    warm state through (``None`` -- the cold default -- is never forwarded,
    so third-party indexes without a ``state=`` keyword keep working).
    """
    extra = {} if state is None else {"state": state}
    if isinstance(query, WindowQuery):
        return index.window_query(query.window, session, **extra)
    if isinstance(query, KnnQuery):
        if isinstance(index, DsiIndex):
            return index.knn_query(
                query.point, query.k, session, strategy=knn_strategy, **extra
            )
        return index.knn_query(query.point, query.k, session, **extra)
    raise TypeError(f"unsupported query type {type(query)!r}")


def run_workload(
    index: AnyIndex,
    dataset: SpatialDataset,
    config: SystemConfig,
    workload: Workload,
    error_model: Optional[LinkErrorModel] = None,
    verify: bool = True,
    knn_strategy: str = "conservative",
    label: Optional[str] = None,
    schedule: Optional[BroadcastSchedule] = None,
) -> ExperimentResult:
    """Replay every trial of ``workload`` against ``index``.

    The replay is a fleet of one client per trial on the fleet engine
    (:mod:`repro.sim.fleet`): trial ``t`` is a cold one-step item tuned in
    at packet ``start = int(tune_in_fraction * cycle) % cycle``, with one
    phase per packet, so it runs on the lockstep kernels when they accept
    the workload and on the reference planners otherwise.  The index's
    packet cycle is aired as the channel schedule ``config.n_channels``
    asks for; with one channel (the default) the schedule view *is* the
    legacy program, packet for packet.  An explicit ``schedule`` (e.g. a
    demand-aware :meth:`BroadcastSchedule.optimized` layout of the same
    program) overrides the config-derived one.  ``error_model`` gives each
    trial its own model, re-seeded for the key ``t * cycle + start``, so
    the rows do not depend on what else the model served.  The replay runs
    in-process, so sweep workers start no nested pools.
    """
    _, view = _schedule_view(index, config, schedule)
    cycle = view.cycle_packets
    trials = list(workload)
    fracs = np.array([trial.tune_in_fraction for trial in trials], dtype=np.float64)
    starts = (fracs * cycle).astype(np.int64) % cycle
    fields = _run_executions(
        index, dataset, config, view, [((trial.query, 0),) for trial in trials],
        np.arange(len(trials), dtype=np.int64), starts,
        np.ones(len(trials), dtype=np.int64), cycle, warm=False,
        label=label or getattr(index, "name", type(index).__name__),
        workload_name=workload.name,
        error_theta=None if error_model is None else error_model.theta,
        error_scope="index" if error_model is None else error_model.scope,
        error_seed=0 if error_model is None else error_model.seed,
        verify=verify, knn_strategy=knn_strategy, parallel=False, processes=None,
    )
    return fields["result"]
