"""Demand profiles: per-bucket access weights driving schedule optimization.

A :class:`DemandProfile` says how often clients need each bucket of a flat
broadcast cycle -- the serving-side summary of a query workload.  It is the
input of the demand-aware scheduler (:mod:`repro.sched`), which skews
airtime toward hot buckets broadcast-disks style.

Besides raw per-bucket weights handed to the constructor (navigation
buckets at 0, as every builder leaves them), profiles are built two ways:

* :meth:`DemandProfile.uniform` -- every data bucket equally hot (under
  which the optimizer reproduces the flat schedule's economics);
* :meth:`DemandProfile.from_queries` -- ground-truth answers of a query
  workload mapped onto the data buckets that carry the answering objects
  (the exact demand a fleet of clients running that workload generates).
  :meth:`Workload.bucket_demand <repro.queries.workload.Workload.
  bucket_demand>` wraps this constructor for a workload; its
  ``query_weights=`` weights each query, e.g. by how many clients asked it.

Weights are normalised to sum to 1; navigation buckets carry zero demand
(their cadence is fixed by the scheduler so index probes never degrade).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .program import BroadcastProgram, Bucket

__all__ = ["DemandProfile", "bucket_oid_map"]


def bucket_oid_map(program: BroadcastProgram) -> Dict[object, List[int]]:
    """Object id -> data bucket ids carrying that object.

    All three indexes stamp ``meta["oid"]`` on their data buckets (the DSI
    frame builder and ``TreeOnAir`` alike); the payload's own ``oid`` is the
    fallback for third-party programs.  Navigation buckets never appear.
    """
    mapping: Dict[object, List[int]] = {}
    for i, bucket in enumerate(program.buckets):
        if bucket.kind.is_navigation:
            continue
        oid = bucket.meta.get("oid")
        if oid is None:
            oid = getattr(bucket.payload, "oid", None)
        if oid is not None:
            mapping.setdefault(oid, []).append(i)
    return mapping


class DemandProfile:
    """Normalised per-bucket access weights over one flat broadcast cycle."""

    __slots__ = ("weights", "meta")

    def __init__(self, weights, meta: Optional[Dict[str, object]] = None) -> None:
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or len(w) == 0:
            raise ValueError("demand weights must be a non-empty 1-d array")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("demand weights must be finite and non-negative")
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("a demand profile needs positive total weight")
        self.weights = w / total
        self.meta: Dict[str, object] = dict(meta or {})

    def __len__(self) -> int:
        return len(self.weights)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def uniform(cls, program: BroadcastProgram) -> "DemandProfile":
        """Every data bucket equally demanded (navigation stays at zero)."""
        w = np.array(
            [0.0 if b.kind.is_navigation else 1.0 for b in program.buckets]
        )
        return cls(w, meta={"source": "uniform"})

    @classmethod
    def from_queries(
        cls,
        program: BroadcastProgram,
        dataset,
        queries: Sequence[object],
        query_weights: Optional[Iterable[float]] = None,
    ) -> "DemandProfile":
        """Exact demand of a query workload against a dataset.

        Every query's ground-truth answer (grid oracle, exact) maps to the
        data buckets carrying the answering objects; each such bucket
        receives the query's weight (client draw count, default 1).  A
        client running the workload must wait for precisely these buckets,
        so their weights are the airing incentives the scheduler trades.
        """
        from ..queries.ground_truth import answer

        oid_to_buckets = bucket_oid_map(program)
        if not oid_to_buckets:
            raise ValueError(
                f"program {program.name!r} exposes no object ids on its data "
                "buckets; pass per-bucket weights, navigation buckets at 0, "
                "to DemandProfile instead"
            )
        if query_weights is None:
            qw: List[float] = [1.0] * len(queries)
        else:
            qw = [float(x) for x in query_weights]
            if len(qw) != len(queries):
                raise ValueError("query_weights must align with queries")
        w = np.zeros(len(program), dtype=np.float64)
        for query, weight in zip(queries, qw):
            if weight <= 0.0:
                continue
            for obj in answer(dataset, query):
                for b in oid_to_buckets.get(obj.oid, ()):
                    w[b] += weight
        if not w.any():
            # Workload whose queries all answer empty: fall back to uniform
            # data demand rather than failing the schedule build.
            w[[not b.kind.is_navigation for b in program.buckets]] = 1.0
        return cls(w, meta={"source": "queries", "n_queries": len(queries)})

    # -- accessors ------------------------------------------------------------

    def top(self, k: int = 10) -> List[int]:
        """The ``k`` hottest bucket ids, descending weight (ties by id)."""
        order = np.lexsort((np.arange(len(self.weights)), -self.weights))
        return [int(i) for i in order[:k] if self.weights[i] > 0.0]

    def skew(self) -> float:
        """Top-decile weight share: 0.1 is uniform, ->1.0 extremely skewed."""
        hot = np.sort(self.weights)[::-1]
        k = max(1, len(hot) // 10)
        return float(hot[:k].sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DemandProfile(n_buckets={len(self.weights)}, "
            f"skew={self.skew():.2f})"
        )
