"""Random query workloads matching the paper's evaluation setup.

The paper issues queries from clients at random positions; window queries
use a ``WinSideRatio`` (default 0.1) and kNN queries vary ``k`` between 1
and 30.  A workload also fixes each query's *tune-in position* on the
broadcast channel so that the same physical situation can be replayed
against every index being compared (paired trials).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..spatial.geometry import Point
from .types import KnnQuery, Query, WindowQuery


@dataclass(frozen=True)
class Trial:
    """One query plus the (relative) channel position where the client tunes in."""

    query: Query
    tune_in_fraction: float  # position within the cycle, in [0, 1)


@dataclass
class Workload:
    """A reproducible list of trials.

    ``seed`` records the generating seed for provenance (``None`` for
    hand-built or composite workloads): a result row can always be traced
    back to the exact random stream that produced its trials.
    """

    name: str
    trials: List[Trial] = field(default_factory=list)
    seed: Optional[int] = None

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    def bucket_demand(
        self,
        index,
        dataset,
        query_weights: Optional[Sequence[float]] = None,
    ):
        """The per-bucket :class:`~repro.broadcast.demand.DemandProfile`
        this workload generates against ``index``'s broadcast cycle.

        Every trial's ground-truth answer maps onto the data buckets that
        carry the answering objects (weighted by ``query_weights`` -- e.g.
        per-query client draw counts -- when given).  ``index`` may also be
        a bare :class:`~repro.broadcast.program.BroadcastProgram`.
        """
        from ..broadcast.demand import DemandProfile

        program = getattr(index, "program", index)
        return DemandProfile.from_queries(
            program, dataset, [t.query for t in self.trials], query_weights=query_weights
        )


def window_workload(
    n_queries: int = 100,
    win_side_ratio: float = 0.1,
    seed: int = 42,
    name: str = "window",
) -> Workload:
    """Window queries with random centres (paper default ratio 0.1).

    Drawn in one vectorised pass: each trial consumes three uniforms
    (centre x, centre y, tune-in fraction), and a single ``rng.random(3n)``
    call produces the identical stream the historical per-trial loop drew
    -- workloads are bit-for-bit stable across the rewrite.
    """
    if n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    draws = np.random.default_rng(seed).random(3 * n_queries).reshape(-1, 3)
    trials = [
        Trial(
            query=WindowQuery.centered(Point(float(cx), float(cy)), win_side_ratio),
            tune_in_fraction=float(frac),
        )
        for cx, cy, frac in draws
    ]
    return Workload(name=f"{name}-r{win_side_ratio}", trials=trials, seed=seed)


def knn_workload(
    n_queries: int = 100,
    k: int = 10,
    seed: int = 42,
    name: str = "knn",
) -> Workload:
    """kNN queries at random query points (one vectorised draw, see
    :func:`window_workload`)."""
    if n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    draws = np.random.default_rng(seed).random(3 * n_queries).reshape(-1, 3)
    trials = [
        Trial(
            query=KnnQuery(point=Point(float(qx), float(qy)), k=k),
            tune_in_fraction=float(frac),
        )
        for qx, qy, frac in draws
    ]
    return Workload(name=f"{name}-k{k}", trials=trials, seed=seed)


def skewed_workload(
    n_queries: int = 100,
    kind: str = "window",
    win_side_ratio: float = 0.1,
    k: int = 10,
    zipf_s: float = 1.1,
    n_hotspots: int = 8,
    hotspot_sigma: float = 0.04,
    seed: int = 42,
    name: str = "skewed",
) -> Workload:
    """Zipf-skewed hotspot queries: the hot-region fleets the demand-aware
    scheduler optimizes for.

    ``n_hotspots`` random hotspot centres are drawn once; each query picks
    a hotspot with zipf(``zipf_s``) probability over the centre ranks
    (rank ``r`` gets weight ``(r+1)^-s``, so the first centre dominates)
    and lands a Gaussian ``hotspot_sigma`` away from it, clipped to the
    unit square.  Fully vectorised: the centre draw, the zipf assignment
    (one ``searchsorted`` over the cumulative rank weights), the offsets
    and the tune-in fractions are four array draws from one seeded
    generator, so workloads are bit-for-bit reproducible from ``seed``
    alone (recorded on the workload for provenance).
    """
    if n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    if n_hotspots < 1:
        raise ValueError("n_hotspots must be >= 1")
    if zipf_s < 0.0:
        raise ValueError("zipf_s must be >= 0 (0 = uniform over hotspots)")
    if kind not in ("window", "knn"):
        raise ValueError(f"kind must be 'window' or 'knn', got {kind!r}")
    rng = np.random.default_rng(seed)
    centers = rng.random((n_hotspots, 2))
    ranks = rng.random(n_queries)
    offsets = rng.normal(0.0, hotspot_sigma, (n_queries, 2))
    fracs = rng.random(n_queries)

    probs = (np.arange(1, n_hotspots + 1, dtype=np.float64)) ** (-zipf_s)
    cum = np.cumsum(probs / probs.sum())
    chosen = np.searchsorted(cum, ranks, side="right").clip(0, n_hotspots - 1)
    points = np.clip(centers[chosen] + offsets, 0.0, 1.0)

    trials = []
    for (qx, qy), frac in zip(points, fracs):
        point = Point(float(qx), float(qy))
        if kind == "window":
            query: Query = WindowQuery.centered(point, win_side_ratio)
        else:
            query = KnnQuery(point=point, k=k)
        trials.append(Trial(query=query, tune_in_fraction=float(frac)))
    suffix = f"r{win_side_ratio}" if kind == "window" else f"k{k}"
    return Workload(
        name=f"{name}-{kind}-{suffix}-z{zipf_s}", trials=trials, seed=seed
    )


def mixed_workload(
    n_queries: int = 100,
    win_side_ratio: float = 0.1,
    k: int = 10,
    seed: int = 42,
) -> Workload:
    """Alternating window and kNN queries (used by examples and tests)."""
    win = window_workload(n_queries=(n_queries + 1) // 2, win_side_ratio=win_side_ratio, seed=seed)
    knn = knn_workload(n_queries=n_queries // 2, k=k, seed=seed + 1)
    trials: List[Trial] = []
    for i in range(max(len(win), len(knn))):
        if i < len(win.trials):
            trials.append(win.trials[i])
        if i < len(knn.trials):
            trials.append(knn.trials[i])
    return Workload(name=f"mixed-r{win_side_ratio}-k{k}", trials=trials[:n_queries], seed=seed)
