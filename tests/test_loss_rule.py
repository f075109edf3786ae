"""The stateless loss rule (:mod:`repro.broadcast.errors`).

A read is lost by a hash of the model's seed and the read's start packet
alone, so a shared model gives rows that do not depend on run order, the
scalar reference test and the fleet kernel's vectorised one agree bit for
bit, and every session opener derives its own model.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from repro import BroadcastServer, Experiment, LinkErrorModel, SystemConfig, uniform_dataset
from repro.broadcast.errors import _Losses, _mix64, _mix64_array, _session_seed
from repro.broadcast.program import Bucket, BucketKind
from repro.spatial import Rect

KINDS = ("dsi", "rtree", "hci")


def _same_rows(a, b):
    """Row lists equal, with NaN equal to NaN (``accuracy`` without verify)."""
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.keys() == right.keys()
        for key in left:
            x, y = left[key], right[key]
            if isinstance(x, float) and math.isnan(x):
                assert isinstance(y, float) and math.isnan(y), key
            else:
                assert x == y, (key, x, y)


@pytest.fixture(scope="module")
def dataset():
    return uniform_dataset(600, seed=7)


def _shared_model_rows(dataset, kinds):
    return {
        row["index"]: row
        for row in Experiment(dataset)
        .indexes(*kinds)
        .window_workload(n_queries=10, seed=42)
        .errors(LinkErrorModel(theta=0.3, scope="index", seed=1))
        .run(parallel=False)
        .rows
    }


def test_shared_model_rows_do_not_depend_on_index_order(dataset):
    """The same shared model gives every index the same row in every index
    order of the trio and alone."""
    first = _shared_model_rows(dataset, KINDS)
    for order in itertools.permutations(KINDS):
        rows = _shared_model_rows(dataset, order)
        _same_rows([rows[name] for name in first], list(first.values()))
    for kind in KINDS:
        [(name, row)] = _shared_model_rows(dataset, [kind]).items()
        _same_rows([row], [first[name]])


def test_shared_model_capacity_sweep_is_reproducible(dataset):
    """A capacity sweep on one shared model: serial rows equal two-process
    rows and the rows of a fresh model with the same seed per point."""

    def sweep(errors, **run):
        experiment = (
            Experiment(dataset)
            .window_workload(n_queries=4, seed=3)
            .knn_workload(n_queries=3, k=3, seed=4)
            .sweep(capacity=[64, 128])
        )
        return errors(experiment).run(**run).rows

    def shared(experiment):
        return experiment.errors(LinkErrorModel(theta=0.25, scope="all", seed=11))

    serial = sweep(shared, parallel=False)
    assert len(serial) == 12
    _same_rows(sweep(shared, processes=2), serial)
    _same_rows(
        sweep(lambda e: e.errors(theta=0.25, scope="all", seed=11), parallel=False), serial
    )


SEEDS = (0, 1, 2**31 - 1)
STARTS = (0, 1, 2**32 - 1, 2**32, 2**40)
THETAS = (0.0, 2.0**-60, 0.05, 0.5, 1.0)


@pytest.mark.parametrize("theta", THETAS)
def test_scalar_and_kernel_loss_tests_agree_bit_for_bit(theta):
    bucket = Bucket(kind=BucketKind.DSI_TABLE, n_packets=1, payload=None)
    lanes, starts = map(np.ravel, np.meshgrid(np.arange(len(SEEDS)), STARTS, indexing="ij"))
    losses = _Losses(np.asarray(SEEDS, dtype=np.int64), theta)
    vector = losses.lost(lanes, starts)
    hashed = _mix64_array(losses.keys[lanes] ^ starts.astype(np.uint64))
    for i, (lane, start) in enumerate(zip(lanes.tolist(), starts.tolist())):
        model = LinkErrorModel(theta=theta, scope="index", seed=SEEDS[lane])
        assert model.is_lost(bucket, start) == bool(vector[i])
        assert _mix64(model._key ^ start) == int(hashed[i])
        assert model._key == int(losses.keys[lane])
    if theta == 1.0:
        assert vector.all()
    elif theta <= 2.0**-60:
        assert not vector.any()


def _within_band(hits: np.ndarray, p: float) -> None:
    n = len(hits)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits.mean() - p) <= 4.5 * sigma, (hits.mean(), p, sigma)


@pytest.mark.parametrize("theta", [0.05, 0.3, 0.7])
def test_loss_rates_and_adjacent_pairs_are_binomial(theta):
    """Over 10^5 (seed, start) pairs of consecutive session seeds and
    consecutive starts, losses occur at rate theta, and adjacent starts
    (or adjacent seeds) are lost together at rate theta^2."""
    seeds = _session_seed(2024, np.arange(1_001, dtype=np.int64))
    starts = np.arange(101, dtype=np.int64) + 5_000
    lanes = np.repeat(np.arange(len(seeds)), len(starts))
    grid = _Losses(seeds, theta).lost(lanes, np.tile(starts, len(seeds))).reshape(
        len(seeds), len(starts)
    )
    _within_band(grid[:1_000, :100].ravel(), theta)
    _within_band((grid[:1_000, :100] & grid[:1_000, 1:]).ravel(), theta**2)
    _within_band((grid[:1_000, :100] & grid[1:, :100]).ravel(), theta**2)


def test_session_seed_is_the_fleet_formula():
    keys = np.array([0, 1, 12_345, 2**40], dtype=np.int64)
    for seed in (0, 7, 2**31 - 1, 2**63 + 5):
        expect = [(seed * 1_000_003 + int(k)) & 0x7FFFFFFF for k in keys]
        assert _session_seed(seed, keys).tolist() == expect
        assert [_session_seed(seed, int(k)) for k in keys] == expect


def test_model_is_a_function_of_seed_and_start():
    bucket = Bucket(kind=BucketKind.DATA, n_packets=1, payload=None)
    model = LinkErrorModel(theta=0.5, scope="all", seed=9)
    first = [model.is_lost(bucket, t) for t in range(64)]
    assert [model.is_lost(bucket, t) for t in reversed(range(64))] == first[::-1]
    assert [LinkErrorModel(0.5, "all", 9).is_lost(bucket, t) for t in range(64)] == first
    drawn = LinkErrorModel(theta=0.5, scope="all")
    assert isinstance(drawn.seed, int) and drawn.seed >= 0
    again = LinkErrorModel(theta=0.5, scope="all", seed=drawn.seed)
    assert [drawn.is_lost(bucket, t) for t in range(64)] == [
        again.is_lost(bucket, t) for t in range(64)
    ]
    with pytest.raises(ValueError):
        LinkErrorModel(theta=0.5, seed=-1)


def test_mobile_client_repeats_draw_fresh_losses():
    """A client repeating one query at one position opens a new session
    each time, on its own model: the repeats do not all lose the same
    airings, and the session ordinal leaves the tune-in stream alone."""
    server = BroadcastServer(uniform_dataset(300, seed=5), SystemConfig(), index="dsi")
    client = server.client(error_model=LinkErrorModel(theta=0.5, scope="index", seed=6))
    window = Rect(0.3, 0.3, 0.45, 0.45)
    metrics = set()
    for _ in range(6):
        client.window_query(window, at=0.25)
        metrics.add((client.last.metrics.latency_bytes, client.last.metrics.tuning_bytes))
    assert len(metrics) > 1
    clean = server.client(seed=4)
    lossy = server.client(seed=4, error_model=LinkErrorModel(theta=0.5, seed=6))
    assert [clean.tune_in().start_clock for _ in range(5)] == [
        lossy.tune_in().start_clock for _ in range(5)
    ]
