"""A workload replay is a fleet of one client per trial.

``run_workload`` runs its trials on the fleet engine: the lockstep kernels
take every replay they accept, the rest decline to the reference planners,
and both give the same summaries (``REPRO_PURE=1`` forces the reference).
"""

from __future__ import annotations

import pytest

from repro.broadcast import LinkErrorModel, SystemConfig
from repro.queries.workload import Workload, knn_workload, window_workload
from repro.sim import fleet_kernel
from repro.sim.runner import build_index, run_workload
from repro.spatial import uniform_dataset


@pytest.fixture(scope="module")
def dataset():
    return uniform_dataset(400, seed=3)


@pytest.fixture(scope="module")
def config64():
    return SystemConfig(packet_capacity=64)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The outcome of every kernel call: ``"numpy"`` or the decline reason."""
    calls = []
    real = fleet_kernel._simulate_items

    def spy(*args, **kwargs):
        try:
            out = real(*args, **kwargs)
        except fleet_kernel.KernelUnsupported as exc:
            calls.append(str(exc))
            raise
        calls.append("numpy")
        return out

    monkeypatch.setattr(fleet_kernel, "_simulate_items", spy)
    return calls


def _summary(result):
    return {
        metric: (summary.count, summary.mean, summary.minimum, summary.maximum,
                 summary._values.tolist(), summary._counts.tolist())
        for metric, summary in (("latency", result.latency), ("tuning", result.tuning))
    } | {"correct": result.correct_trials, "incorrect": result.incorrect_trials}


WINDOWS = window_workload(8, 0.1, seed=21)
KNN = knn_workload(8, k=10, seed=22)

#: ``(index, workload, knn_strategy, error_model, engine)`` -- the engine a
#: replay runs on, or the decline reason it falls back with.
CASES = [
    ("dsi", WINDOWS, "conservative", None, "numpy"),
    ("dsi", KNN, "conservative", None, "numpy"),
    ("dsi", KNN, "aggressive", None, "numpy"),
    ("rtree", WINDOWS, "conservative", None, "numpy"),
    ("hci", WINDOWS, "conservative", None, "numpy"),
    ("dsi", WINDOWS, "conservative", LinkErrorModel(0.2, "index", 5), "numpy"),
    ("rtree", KNN, "conservative", None, "kNN trials on tree indexes"),
    ("hci", KNN, "conservative", None, "kNN trials on tree indexes"),
    ("dsi", WINDOWS, "conservative", LinkErrorModel(0.2, "all", 5), "error scope 'all'"),
]


@pytest.mark.parametrize(
    "kind, workload, strategy, error_model, engine", CASES,
    ids=[f"{c[0]}-{c[1].name}-{c[2]}-{c[3] and c[3].scope}" for c in CASES],
)
def test_replay_runs_on_the_kernel_and_matches_the_reference(
    kind, workload, strategy, error_model, engine, dataset, config64, kernel_calls,
    monkeypatch,
):
    index = build_index(kind, dataset, config64, use_cache=True)
    kwargs = dict(error_model=error_model, verify=True, knn_strategy=strategy)
    fast = run_workload(index, dataset, config64, workload, **kwargs)
    assert len(kernel_calls) == 1 and kernel_calls[0].startswith(engine)
    monkeypatch.setenv("REPRO_PURE", "1")
    pure = run_workload(index, dataset, config64, workload, **kwargs)
    assert len(kernel_calls) == 1  # the reference never asks the kernel
    assert fast.trials == len(workload)
    assert _summary(fast) == _summary(pure)


def test_empty_workload_gives_an_empty_result(dataset, config64):
    index = build_index("dsi", dataset, config64, use_cache=True)
    result = run_workload(index, dataset, config64, Workload(name="empty"))
    assert result.trials == 0
    assert result.correct_trials == result.incorrect_trials == 0
    assert result.workload_name == "empty"
