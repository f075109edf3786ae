"""Reading a DSI frame: its index table, its directory and its objects.

Navigation -- the paper's energy-efficient forwarding, run as the
planners' arrival-ordered candidate walk (see :mod:`repro.core.window`) --
reads one frame's index table per hop (:func:`read_table`).  Once it has
brought the client to a frame of interest, the remaining work is to
download the *qualified* objects of that frame while dozing through the
rest.  With an intra-frame directory the client knows the HC value of
every object in the frame and can wake up for exactly the right data
buckets; without one (single-object frames, or a corrupted directory) it
scans the frame's HC-sorted data buckets in order and stops as soon as the
values pass the range of interest.

Error resilience: when a table is corrupted the client simply reads the
next frame's table and carries on -- this is the behaviour the paper
credits for DSI's resilience, and it is what :func:`read_table`
implements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..broadcast.client import ClientSession
from ..spatial.datasets import DataObject
from ..spatial.hilbert import HCRange, ranges_contain
from .knowledge import ClientKnowledge
from .structure import DsiAirView, DsiDirectory, DsiTable


def read_table(
    session: ClientSession,
    view: DsiAirView,
    knowledge: ClientKnowledge,
    frame_pos: int,
) -> Tuple[int, DsiTable]:
    """Read the index table of a frame, recovering from link errors.

    If the requested table is corrupted, the client keeps listening and reads
    the table of the next frame in broadcast order (paper Section 5: "the
    client can easily resume the query processing in the next frame").
    Returns ``(frame_pos_actually_read, table)`` and updates ``knowledge``.
    """
    pos = frame_pos % view.n_frames
    attempts = 0
    while True:
        result = session.read_bucket(view.table_bucket(pos))
        attempts += 1
        if result.ok:
            table: DsiTable = result.payload
            knowledge.learn_table(table)
            return pos, table
        if attempts > view.n_frames:
            raise RuntimeError("unable to read any DSI table: channel fully corrupted")
        pos = (pos + 1) % view.n_frames


def read_directory(
    session: ClientSession,
    view: DsiAirView,
    frame_pos: int,
    knowledge: ClientKnowledge,
) -> Optional[DsiDirectory]:
    """Read a frame's intra-frame directory (None when absent or corrupted).

    A corrupted directory is not retried: the caller falls back to checking
    the frame's data buckets directly.
    """
    bucket = view.directory_bucket(frame_pos)
    if bucket is None:
        return None
    result = session.read_bucket(bucket)
    if not result.ok:
        return None
    directory: DsiDirectory = result.payload
    knowledge.learn_directory(directory)
    return directory


@dataclass
class FrameVisit:
    """Everything retrieved while visiting one frame."""

    frame_pos: int
    retrieved: List[DataObject] = field(default_factory=list)
    directory: Optional[DsiDirectory] = None
    lost_objects: int = 0


def fetch_object(
    session: ClientSession,
    view: DsiAirView,
    frame_pos: int,
    slot: int,
) -> Optional[DataObject]:
    """Download one data object bucket, retrying once on a link error."""
    bucket = view.object_bucket_in_frame(frame_pos, slot)
    result = session.read_bucket(bucket)
    if not result.ok:
        result = session.read_bucket(bucket)  # next broadcast cycle
    return result.payload if result.ok else None


def visit_frame_for_ranges(
    session: ClientSession,
    view: DsiAirView,
    knowledge: ClientKnowledge,
    frame_pos: int,
    table: DsiTable,
    ranges: Sequence[HCRange],
    ranges_arr=None,
) -> FrameVisit:
    """Retrieve from ``frame_pos`` every object whose HC value lies in ``ranges``.

    The frame's objects are fully examined afterwards (the caller may mark
    the frame's whole extent as processed).  ``ranges_arr`` optionally
    passes the caller's ``(n, 2)`` int64 mirror of ``ranges`` so the
    directory filter skips the conversion.
    """
    visit = FrameVisit(frame_pos=frame_pos)
    if not ranges:
        knowledge.mark_examined(knowledge.rank_of_pos(frame_pos))
        return visit

    directory = read_directory(session, view, frame_pos, knowledge)
    visit.directory = directory
    if directory is not None:
        records = directory.records
        if ranges_arr is None:
            ranges_arr = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
        for i in _qualified_record_indexes(directory, ranges_arr):
            obj = fetch_object(session, view, frame_pos, records[i].slot)
            if obj is None:
                visit.lost_objects += 1
            else:
                visit.retrieved.append(obj)
    else:
        _scan_frame(session, view, frame_pos, table, ranges, visit)

    knowledge.mark_examined(knowledge.rank_of_pos(frame_pos))
    return visit


#: Bound adjustment making inclusive [lo, hi] ranges half-open for parity
#: membership tests.
_HALF_OPEN = np.array([0, 1], dtype=np.int64)


def _qualified_record_indexes(directory: DsiDirectory, bounds: np.ndarray):
    """Indexes (ascending) of directory records whose HC value lies in ``bounds``.

    One ``searchsorted`` of the frame's (static, stashed) HC-value array
    against the flattened range bounds replaces a per-record binary search:
    ``bounds`` rows are sorted and disjoint, so a value is covered exactly
    when its insertion point into ``[lo0, hi0+1, lo1, hi1+1, ...]`` is odd.
    """
    records = directory.records
    hcs = getattr(directory, "_hcs_np", None)
    if hcs is None:
        hcs = np.fromiter((r.hc for r in records), dtype=np.int64, count=len(records))
        object.__setattr__(directory, "_hcs_np", hcs)
    flat = (bounds + _HALF_OPEN).ravel()
    inside = (np.searchsorted(flat, hcs, side="right") & 1) == 1
    return np.flatnonzero(inside).tolist()


def _scan_frame(
    session: ClientSession,
    view: DsiAirView,
    frame_pos: int,
    table: DsiTable,
    ranges: Sequence[HCRange],
    visit: FrameVisit,
) -> None:
    """Directory-less fallback: scan the frame's HC-sorted data buckets.

    The first object's HC value is known from the index table, so it is only
    downloaded when it qualifies; subsequent objects must be received to
    learn their HC value, and the scan stops once values pass the largest
    needed HC.
    """
    hi_needed = max(hi for _, hi in ranges)
    slots = view.frame_object_buckets(frame_pos)
    for slot in range(len(slots)):
        if slot == 0 and len(slots) > 1 and not ranges_contain(ranges, table.own_min_hc):
            continue
        obj = fetch_object(session, view, frame_pos, slot)
        if obj is None:
            visit.lost_objects += 1
            continue
        if ranges_contain(ranges, obj.hc):
            visit.retrieved.append(obj)
        if obj.hc > hi_needed:
            break
