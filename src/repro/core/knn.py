"""k nearest neighbour queries over DSI (paper Section 3.4 and 3.5).

The search keeps a *search space*: a circle around the query point whose
radius is the distance to the k-th best candidate known so far.  Candidates
come from three sources of decreasing uncertainty:

* HC values seen in index tables (``HC'_i`` is the smallest HC value of a
  real object in the pointed frame), located at the centre of their Hilbert
  cell;
* HC values seen in intra-frame directories (every object of a visited
  frame), also located at cell centres;
* objects actually downloaded (exact coordinates).

Cell-centre estimates can be off by at most half a cell diagonal, so all
pruning decisions use ``radius + cell_diagonal`` as a safety margin -- this
keeps the result provably exact (tested against brute force) while letting
the search space shrink as aggressively as the paper describes.

Two frame-selection strategies reproduce the paper's variants:

* ``conservative`` -- always go to the *soonest broadcast* frame that may
  still contain an answer (low latency, more tuning);
* ``aggressive`` -- always go to the frame *closest to the query point*
  among those that may still contain an answer (fast convergence of the
  search space, but skipped frames may cost an extra cycle of latency).

The paper's third variant ("Reorganized") is the conservative strategy run
over a broadcast built with ``DsiParameters(n_segments=2)``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from ..broadcast.client import AccessMetrics, ClientSession
from ..spatial.datasets import DataObject
from ..spatial.geometry import Point
from ..spatial.hilbert import HCRange
from .eef import read_directory, read_table
from .knowledge import ClientKnowledge
from .structure import DsiAirView, DsiTable
from .visit import fetch_object
from .window import read_first_table

KNN_STRATEGIES = ("conservative", "aggressive")


@dataclass
class KnnQueryResult:
    """Result of one kNN query execution."""

    objects: List[DataObject]          # the k nearest objects, sorted by distance
    metrics: AccessMetrics
    frames_visited: int = 0
    tables_read: int = 0
    objects_downloaded: int = 0
    lost_objects: int = 0
    #: True when the planner's safety cap stopped the search while candidate
    #: frames remained -- the result may then be a truncated (inexact) answer.
    iterations_capped: bool = False

    @property
    def object_ids(self) -> List[int]:
        return [o.oid for o in self.objects]


class _SearchSpace:
    """Candidate bookkeeping: retrieved objects plus HC-value estimates."""

    def __init__(
        self,
        view: DsiAirView,
        q: Point,
        k: int,
    ) -> None:
        self.view = view
        self.q = q
        self.k = k
        self.slack = view.curve.cell_diagonal()
        self.estimates: Dict[int, float] = {}      # hc -> estimated distance
        self.retrieved: Dict[int, DataObject] = {}  # oid -> object
        self.exact: Dict[int, float] = {}           # oid -> exact distance
        self.retrieved_hcs: Set[int] = set()
        self.lost_objects = 0
        # hc -> distance memo (query point vs the curve's representative
        # points).
        self._est_memo: Dict[int, float] = {}
        self._radius: Optional[float] = None        # invalidated on updates
        # Cover of the current search circle, keyed by the exact radius it
        # was derived for: consecutive planner iterations whose radius did
        # not move (no new candidates learned) reuse it verbatim.
        self._cover_radius: Optional[float] = None
        self._cover: Optional[np.ndarray] = None  # (n, 2) int64 HC ranges

    def estimate_distance(self, hc: int) -> float:
        d = self._est_memo.get(hc)
        if d is None:
            d = self.q.distance_to(self.view.curve.representative_point(hc))
            self._est_memo[hc] = d
        return d

    def add_estimate(self, hc: int) -> None:
        if hc in self.estimates or hc in self.retrieved_hcs:
            return
        self.estimates[hc] = self.estimate_distance(hc)
        self._radius = None

    def add_estimates(self, hcs: Iterable[int]) -> None:
        """Batch :meth:`add_estimate`: one decode batch, one invalidation.

        The representative points of all new HC values are decoded in one
        vectorised pass (the per-value cost of estimation), then the memo
        is read back scalar -- identical floats, one radius invalidation
        instead of one per value.
        """
        fresh = [
            hc
            for hc in dict.fromkeys(hcs)
            if hc not in self.estimates and hc not in self.retrieved_hcs
        ]
        if not fresh:
            return
        memo = self._est_memo
        self.view.curve.warm_representative_points(
            [hc for hc in fresh if hc not in memo]
        )
        for hc in fresh:
            self.estimates[hc] = self.estimate_distance(hc)
        self._radius = None

    def estimate_distances(self, hcs: Iterable[int]) -> np.ndarray:
        """Batch :meth:`estimate_distance`: one decode pass + memo gather.

        Representative points of all memo-missing HC values are decoded in
        one vectorised batch; each distance itself stays a scalar
        ``math.hypot`` (its numpy counterpart is not bit-equal), so the
        gathered floats are identical to the per-value path.
        """
        hcs = [int(hc) for hc in hcs]
        memo = self._est_memo
        missing = [hc for hc in hcs if hc not in memo]
        if missing:
            self.view.curve.warm_representative_points(missing)
            for hc in missing:
                self.estimate_distance(hc)
        return np.fromiter((memo[hc] for hc in hcs), dtype=np.float64, count=len(hcs))

    def add_object(self, obj: DataObject) -> None:
        if obj.oid in self.retrieved:
            return
        self.retrieved[obj.oid] = obj
        self.exact[obj.oid] = obj.distance_to(self.q)
        self.retrieved_hcs.add(obj.hc)
        # An estimate for the same object (same HC value) would otherwise be
        # double-counted and shrink the radius below the true k-th distance.
        self.estimates.pop(obj.hc, None)
        self._radius = None

    def learn_table(self, table: DsiTable) -> None:
        self.add_estimates(
            itertools.chain((table.own_min_hc,), (e.hc for e in table.entries))
        )

    def radius(self) -> float:
        """Distance to the k-th best candidate (inf while fewer than k known).

        The value is cached between candidate updates; the k-th smallest of
        the known distances comes from an introselect partition over one
        flat array (a bounded heap below the numpy-worthwhile size) -- both
        produce the identical order statistic.
        """
        if self._radius is None:
            n = len(self.exact) + len(self.estimates)
            if n < self.k:
                self._radius = math.inf
            elif n > 48:
                values = np.fromiter(
                    itertools.chain(self.exact.values(), self.estimates.values()),
                    dtype=np.float64,
                    count=n,
                )
                self._radius = float(np.partition(values, self.k - 1)[self.k - 1])
            else:
                smallest = heapq.nsmallest(
                    self.k, itertools.chain(self.exact.values(), self.estimates.values())
                )
                self._radius = smallest[-1]
        return self._radius

    def prune_radius(self) -> float:
        r = self.radius()
        return r if math.isinf(r) else r + self.slack

    def best_objects(self) -> List[DataObject]:
        ranked = sorted(self.retrieved.values(), key=lambda o: (self.exact[o.oid], o.oid))
        return ranked[: self.k]


def knn_query(
    view: DsiAirView,
    session: ClientSession,
    q: Point,
    k: int,
    strategy: str = "conservative",
    max_ranges: int = 64,
    knowledge: Optional[ClientKnowledge] = None,
) -> KnnQueryResult:
    """Execute a kNN query through ``session`` and return the result.

    ``knowledge`` optionally warm-starts the search from a previous query's
    accumulated state (see :mod:`repro.mobility`): every frame minimum the
    client already knows is a real object's HC value, so the search space
    is seeded with all of them at once -- typically enough to bound the
    radius before a single table is read -- and the cold initial table
    read is skipped.  Exactness is untouched (the estimates are the same
    kind the cold search accumulates, and all pruning keeps the half-cell
    safety margin).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if strategy not in KNN_STRATEGIES:
        raise ValueError(f"strategy must be one of {KNN_STRATEGIES}")

    curve = view.curve
    if knowledge is None:
        knowledge = ClientKnowledge(view.n_frames, view.n_segments, curve.max_value)
    else:
        knowledge.begin_query()
    space = _SearchSpace(view, q, k)
    tables_before = knowledge.tables_read
    frames_visited = 0

    if knowledge.known_count > 0:
        # Warm start: probe, seed the search space from everything already
        # known, and let the incremental candidate walk take over.
        session.initial_probe()
        space.add_estimates(int(hc) for hc in knowledge.known_values())
    else:
        table = read_first_table(session, view, knowledge)
        space.learn_table(table)
        if strategy == "conservative":
            # The paper's conservative client also examines the frame it
            # tuned into (its data packets are about to be broadcast anyway).
            _visit_frame(view, session, knowledge, space, table.frame_pos, table)
            frames_visited += 1

    safety = 4 * view.n_frames + 256
    iterations = 0
    iterations_capped = False
    while True:
        needed = _needed_ranks(view, knowledge, space, q, max_ranges)
        if not needed.size:
            break
        if iterations >= safety:
            # The safety cap only ever fires on pathological schedules (e.g.
            # heavy loss); surface the truncation instead of hiding it.
            iterations_capped = True
            break
        iterations += 1
        rank = _choose_rank(view, session, knowledge, space, needed, strategy)
        pos = knowledge.pos_of_rank(rank)
        actual_pos, table = read_table(session, view, knowledge, pos)
        space.learn_table(table)
        _visit_frame(view, session, knowledge, space, actual_pos, table)
        frames_visited += 1

    return KnnQueryResult(
        objects=space.best_objects(),
        metrics=session.metrics(),
        frames_visited=frames_visited,
        tables_read=knowledge.tables_read - tables_before,
        objects_downloaded=len(space.retrieved),
        lost_objects=space.lost_objects,
        iterations_capped=iterations_capped,
    )


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------


def _needed_ranks(
    view: DsiAirView,
    knowledge: ClientKnowledge,
    space: _SearchSpace,
    q: Point,
    max_ranges: int,
) -> np.ndarray:
    """Ranks of frames that may still contain a query answer (sorted array)."""
    r = space.prune_radius()
    if r != space._cover_radius:
        if math.isinf(r):
            ranges: List[HCRange] = [(0, view.curve.max_value - 1)]
        else:
            ranges = view.curve.ranges_for_circle(q, r, max_ranges=max_ranges)
        space._cover = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
        space._cover_radius = r
    return knowledge.candidate_rank_array(space._cover, skip_examined=True)


def _choose_rank(
    view: DsiAirView,
    session: ClientSession,
    knowledge: ClientKnowledge,
    space: _SearchSpace,
    needed: np.ndarray,
    strategy: str,
) -> int:
    """Pick the next frame to visit according to the search strategy.

    Arrival times for the whole candidate set come from one batched
    timeline lookup; ties resolve exactly as the scalar loops did (lowest
    rank first -- ``needed`` is ascending and both ``argmin`` and stable
    ``lexsort`` keep the first minimum).
    """
    if strategy == "aggressive" and len(space.retrieved) < space.k:
        # While the search space is still wide open, jump straight towards the
        # frame closest to the query point (the paper's aggressive rule); the
        # skipped frames are revisited later if the converged circle still
        # needs them, which is where the aggressive approach pays its extra
        # access latency.  Once k objects are in hand the circle is tight and
        # the remaining needed frames are simply taken in arrival order.
        mins = knowledge.known_mins(needed)
        known = needed[mins >= 0]
        if known.size:
            distances = space.estimate_distances(knowledge.known_mins(known))
            arrivals = session.next_arrivals(view.table_buckets_of_ranks(known))
            return int(known[np.lexsort((arrivals, distances))[0]])
    arrivals = session.next_arrivals(view.table_buckets_of_ranks(needed))
    return int(needed[int(np.argmin(arrivals))])


def _visit_frame(
    view: DsiAirView,
    session: ClientSession,
    knowledge: ClientKnowledge,
    space: _SearchSpace,
    frame_pos: int,
    table: DsiTable,
) -> None:
    """Examine one frame: estimate from its directory, download what qualifies."""
    directory = read_directory(session, view, frame_pos, knowledge)
    slots = view.frame_object_buckets(frame_pos)

    if directory is not None:
        space.add_estimates(record.hc for record in directory.records)
        for record in directory.records:
            if record.oid in space.retrieved:
                continue
            if space.estimate_distance(record.hc) <= space.prune_radius():
                obj = fetch_object(session, view, frame_pos, record.slot)
                if obj is None:
                    space.lost_objects += 1
                else:
                    space.add_object(obj)
    elif len(slots) == 1:
        if space.estimate_distance(table.own_min_hc) <= space.prune_radius():
            obj = fetch_object(session, view, frame_pos, 0)
            if obj is None:
                space.lost_objects += 1
            else:
                space.add_object(obj)
    else:
        # Directory corrupted: fall back to scanning the frame's data buckets.
        for slot in range(len(slots)):
            obj = fetch_object(session, view, frame_pos, slot)
            if obj is None:
                space.lost_objects += 1
            else:
                space.add_object(obj)

    knowledge.mark_examined(knowledge.rank_of_pos(frame_pos))
