"""Window queries over DSI (paper Section 3.3, Algorithm 1).

A window query returns every data object inside a rectangular query window.
The client

1. computes the *target segment set* ``H``: a conservative cover of the
   window by contiguous HC ranges;
2. reads the first index table it encounters after tuning in;
3. repeatedly moves to the next frame that may still hold objects of ``H``
   (using the accumulated knowledge from every index table read so far to
   doze through frames that provably cannot), downloads the qualified
   objects of that frame and removes the frame's HC extent from ``H``;
4. terminates when ``H`` is empty.

Step 3 is the arrival-ordered equivalent of the paper's "follow the first
pointer whose HC range overlaps a target segment, then invoke EEF": the
client always wakes up for the earliest index table that can still matter,
and the exponentially spaced entries of each table it reads prune the frames
in between exactly like energy-efficient forwarding does.  Formulating it in
arrival order makes the very same code correct for the reorganized broadcast
(``m > 1``), where HC order and broadcast order differ.

Retrieved objects are finally filtered against the exact window, so the
conservativeness of the HC cover never affects correctness.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..broadcast.client import AccessMetrics, ClientSession
from ..broadcast.program import BucketKind
from ..spatial.datasets import DataObject
from ..spatial.geometry import Rect
from ..spatial.hilbert import (
    WINDOW_MAX_DEPTH,
    WINDOW_MAX_RANGES,
    HCRange,
    subtract_range,
)
from .knowledge import ClientKnowledge
from .structure import DsiAirView, DsiTable
from .visit import read_table, visit_frame_for_ranges

#: Arrival sentinel for candidates already walked within one hop.
_NEVER = np.iinfo(np.int64).max

#: Stale candidates tolerated per hop before the walk abandons the shrunken
#: set and recomputes it in full.
_MAX_STALE = 8


@dataclass
class WindowQueryResult:
    """Result of one window query execution."""

    objects: List[DataObject]
    metrics: AccessMetrics
    frames_visited: int = 0
    tables_read: int = 0
    lost_objects: int = 0
    #: True when the walk stopped at :attr:`DsiAirView.window_guard` with
    #: HC ranges still pending -- the answer may then miss objects.
    iterations_capped: bool = False

    @property
    def object_ids(self) -> List[int]:
        return sorted(o.oid for o in self.objects)


def read_first_table(
    session: ClientSession, view: DsiAirView, knowledge: ClientKnowledge
) -> DsiTable:
    """Initial probe: read the first index table broadcast after tune-in."""
    session.initial_probe()
    attempts = 0
    while True:
        result = session.read_next_bucket(kind=BucketKind.DSI_TABLE)
        attempts += 1
        if result.ok:
            table: DsiTable = result.payload
            knowledge.learn_table(table)
            return table
        if attempts > view.n_frames + 1:
            raise RuntimeError("unable to read any DSI table: channel fully corrupted")


def window_query(
    view: DsiAirView,
    session: ClientSession,
    window: Rect,
    knowledge: Optional[ClientKnowledge] = None,
) -> WindowQueryResult:
    """Execute a window query through ``session`` and return the result.

    ``knowledge`` optionally carries a previous query's accumulated state
    into this one (a *warm* continuous query, see :mod:`repro.mobility`):
    the tables-read counter and learned minima persist, the per-query
    examined marks are cleared, and -- once at least one table has been
    absorbed -- the cold initial table read is skipped entirely: the client
    probes, then walks straight into the incremental candidate sweep its
    knowledge already prunes.  The answer is identical to a cold run's
    (both are exact); only the reads paid for differ.
    """
    curve = view.curve
    cover: List[HCRange] = curve.ranges_for_rect(
        window, max_ranges=WINDOW_MAX_RANGES, max_depth=WINDOW_MAX_DEPTH
    )

    if knowledge is None:
        knowledge = ClientKnowledge(view.n_frames, view.n_segments, curve.max_value)
    else:
        knowledge.begin_query()
    tables_before = knowledge.tables_read
    retrieved: List[DataObject] = []
    frames_visited = 0
    lost_objects = 0

    # Warm start needs the global minimum HC (always known once any table
    # has been read: every table carries the segment boundaries, and the
    # first boundary is frame rank 0's minimum).
    if knowledge.global_min_hc is not None:
        session.initial_probe()
        table = None
        global_min = knowledge.global_min_hc
    else:
        table = read_first_table(session, view, knowledge)
        global_min = table.segment_boundaries[0]

    # HC values below the global minimum belong to no frame; clamp the cover
    # so that the extent-clearing logic below can terminate.
    pending: List[HCRange] = [
        (max(lo, global_min), hi) for lo, hi in cover if hi >= global_min
    ]
    # Mirrors of ``pending`` for the batched candidate sweep and the scalar
    # membership test (ranges stay sorted and disjoint, so the ``hi`` list
    # is itself the prefix maximum), rebuilt only when a processed frame's
    # extent is subtracted.
    pending_arr = np.asarray(pending, dtype=np.int64).reshape(-1, 2)
    p_los = [lo for lo, _ in pending]
    p_his = [hi for _, hi in pending]

    def frame_extent(frame_table: DsiTable) -> Tuple[int, int]:
        rank = knowledge.rank_of_pos(frame_table.frame_pos)
        lo = 0 if rank == 0 else frame_table.own_min_hc
        return lo, frame_table.next_hc_min - 1

    def overlaps_pending(frame_table: DsiTable) -> bool:
        # Pending ranges are sorted and disjoint, so overlap with [lo, hi]
        # reduces to one bisect: some range starts at or before hi, and the
        # last such range (his ascend with los) reaches lo.
        lo, hi = frame_extent(frame_table)
        j = bisect.bisect_right(p_los, hi)
        return j > 0 and p_his[j - 1] >= lo

    def process(frame_table: DsiTable) -> None:
        nonlocal pending, pending_arr, p_los, p_his, frames_visited, lost_objects
        lo, hi = frame_extent(frame_table)
        visit = visit_frame_for_ranges(
            session, view, knowledge, frame_table.frame_pos, frame_table, pending,
            ranges_arr=pending_arr,
        )
        frames_visited += 1
        retrieved.extend(visit.retrieved)
        lost_objects += visit.lost_objects
        pending = subtract_range(pending, lo, hi)
        pending_arr = np.asarray(pending, dtype=np.int64).reshape(-1, 2)
        p_los = [r_lo for r_lo, _ in pending]
        p_his = [r_hi for _, r_hi in pending]

    # Opportunistically process the frame we tuned into when it is relevant
    # (cold start only: a warm start read no table at tune-in).
    if table is not None and pending and overlaps_pending(table):
        process(table)

    def is_candidate(rank: int) -> bool:
        """Exact membership in the *current* candidate set (see knowledge)."""
        if not pending:
            return False
        before, after = knowledge.neighbor_known_values(rank)
        j = len(pending) if after is None else bisect.bisect_left(p_los, after)
        if j == 0:
            return False
        return before is None or p_his[j - 1] >= before

    safety = view.window_guard
    iterations = 0
    # The candidate set only ever shrinks (knowledge grows, pending shrinks,
    # examined grows), so it is computed in full once and then *walked*: each
    # hop ranks the surviving candidates by the arrival times the session's
    # reads would actually achieve and takes the first that still passes the
    # exact membership test -- the same (lowest-rank on ties) frame a full
    # recompute's argmin picks.  When many stale entries accumulate the set
    # is recomputed outright.
    candidates = knowledge.candidate_rank_array(pending_arr)
    while pending and iterations < safety:
        iterations += 1
        rank = None
        while True:
            if not candidates.size:
                break
            # Arrivals are fixed for the duration of one hop (the clock only
            # moves on reads), so stale entries are masked to +inf and the
            # argmin retaken -- the same visit order as a stable sort.
            arrivals = session.next_arrivals(view.table_buckets_of_ranks(candidates))
            examined = knowledge.examined
            stale: List[int] = []
            while True:
                at = int(np.argmin(arrivals))
                if arrivals[at] == _NEVER:
                    break  # walked the whole set without a survivor
                r = int(candidates[at])
                if r not in examined and is_candidate(r):
                    rank = r
                    break
                stale.append(at)
                arrivals[at] = _NEVER
                if len(stale) > _MAX_STALE:
                    break
            if stale:
                alive = np.ones(len(candidates), dtype=bool)
                alive[stale] = False
                candidates = candidates[alive]
            if rank is not None or len(stale) <= _MAX_STALE:
                break
            # Too many stale entries: rebuild the set and retry the walk.
            candidates = knowledge.candidate_rank_array(pending_arr)
        if rank is None:
            break
        _pos, table = read_table(session, view, knowledge, knowledge.pos_of_rank(rank))
        if overlaps_pending(table):
            process(table)
        else:
            # The table alone proved the frame irrelevant -- knowledge gained,
            # no directory or data packets received.
            knowledge.mark_examined(knowledge.rank_of_pos(table.frame_pos))

    objects = [o for o in retrieved if window.contains_point(o.point)]
    return WindowQueryResult(
        objects=objects,
        metrics=session.metrics(),
        frames_visited=frames_visited,
        tables_read=knowledge.tables_read - tables_before,
        lost_objects=lost_objects,
        iterations_capped=bool(pending) and iterations >= safety,
    )
