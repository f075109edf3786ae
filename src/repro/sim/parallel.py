"""Deterministic multiprocessing fan-out over sweep points and fleet chunks.

Every figure sweep is an embarrassingly parallel loop over independent
points (capacities, window ratios, values of k): each point builds its own
indexes and replays a seeded workload, so points can run in separate worker
processes without any shared state.  Determinism is preserved because all
randomness flows through explicit seeds carried in the task arguments --
a parallel run produces bit-identical rows to a serial run, in the same
order.

Workloads with *shared read-only state* (the fleet simulator's schedule
view with its compiled timeline, dataset and index) install it once per
worker through ``initializer`` / ``initargs``.  Workers are forked, so
each inherits the initargs from the parent's memory -- nothing of that
state is pickled -- and the per-task tuples stay tiny (chunk keys only)
instead of re-shipping the world with every chunk.  Only the tasks, their
module-level function and the results cross the process boundary, pickled.

The executor degrades gracefully: on a single-core box, when only one task
is submitted, when ``REPRO_PROCESSES=1`` or when the platform offers no
``fork`` start method, the tasks simply run serially in-process -- which
also keeps the per-process index-build cache effective.  The serial path
runs the initializer in-process; restoring any state it replaces
afterwards is the caller's concern (the installed state is read-only by
contract).
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

#: Environment variable overriding the worker count (``1`` forces serial).
PROCESSES_ENV = "REPRO_PROCESSES"

#: Upper bound on auto-detected workers (sweep points are coarse-grained;
#: more workers than points is never useful and a modest cap keeps memory
#: bounded when every worker holds its own copies of the built indexes).
MAX_AUTO_PROCESSES = 8


def default_processes() -> int:
    """Worker count: ``REPRO_PROCESSES`` if set, else the (capped) CPU count."""
    env = os.environ.get(PROCESSES_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return max(1, min(MAX_AUTO_PROCESSES, os.cpu_count() or 1))


def parallel_map(
    fn: Callable[..., Any],
    tasks: Sequence[Tuple],
    processes: Optional[int] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
) -> List[Any]:
    """Apply ``fn(*task)`` to every task, fanning out over processes.

    ``fn`` (and ``initializer``) must be module-level callables (picklable);
    results are returned in task order.  ``processes=None`` auto-detects via
    :func:`default_processes`; any value <= 1 (or a single task, or an
    unavailable ``fork`` start method) runs serially in-process.

    ``initializer(*initargs)`` runs once per worker before any task (and
    once in-process on the serial path), letting callers install shared
    read-only state so the per-task tuples carry only keys.
    """
    tasks = list(tasks)
    if processes is None:
        processes = default_processes()

    def _serial() -> List[Any]:
        if initializer is not None:
            initializer(*initargs)
        return [fn(*task) for task in tasks]

    if processes <= 1 or len(tasks) <= 1:
        return _serial()
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        return _serial()
    with ProcessPoolExecutor(
        max_workers=min(processes, len(tasks)),
        mp_context=ctx,
        initializer=initializer,
        initargs=initargs,
    ) as pool:
        return list(pool.map(fn, *zip(*tasks)))
