"""Compiled broadcast timelines: flat-array seek/wait/occurrence arithmetic.

Every timing question the simulator asks -- "when does bucket ``b`` next
start?", "when does the next bucket of kind ``k`` arrive?", "which of these
candidate buckets arrives first?" -- reduces to modular arithmetic over a
periodic layout.  The object model answers them one Python call at a time
(:meth:`BroadcastProgram.next_occurrence` and friends); at population scale
those calls dominate the profile.

A :class:`CompiledTimeline` compiles a :class:`~repro.broadcast.program.
BroadcastProgram` or a multi-channel :class:`~repro.broadcast.schedule.
ScheduleView` **once** into flat numpy tables:

* per-bucket arrays (``bucket_start`` / ``bucket_cycle`` / ``bucket_channel``
  / ``bucket_packets``) addressed by global bucket id, so the next
  occurrence of *any* vector of buckets is three array operations;
* per-(channel, kind) occurrence tables (sorted start offsets plus the
  global bucket ids airing at them), from which the DSI fleet kernel reads
  where and when the index tables air;
* a merged per-channel *navigation* table (all ``BucketKind.is_navigation``
  starts in one sorted array) for the fleet simulator's first-hop
  statistics;
* a bucket -> frame map (``bucket_frame``, -1 where a bucket belongs to no
  frame) lifted from bucket metadata.

All arithmetic matches the object model bit for bit: the compiled answers
are the very same integers the per-object code computes (property-tested in
``tests/test_timeline.py``).  Compilation is cached on the compiled object
(the program or the view's schedule), which is immutable by construction --
there is no invalidation protocol beyond "build a new program".  See
DESIGN.md ("Compiled timelines") for the layout and the cases where
compilation is skipped.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .program import BroadcastProgram, BucketKind

__all__ = ["CompiledTimeline", "timeline_of"]

#: Attribute used to cache the compiled timeline on its source object.
_CACHE_ATTR = "_compiled_timeline"


def _padded_offsets(ids: np.ndarray, offs: np.ndarray, n_rows: int) -> np.ndarray:
    """Dense ``(n_rows, max_multiplicity)`` start-offset matrix per id.

    Row ``i`` lists every offset whose id is ``i`` in ascending order,
    padded with the row's *first* offset (a duplicated offset can never win
    a min-reduction wrongly, and after sorting it contributes a zero gap,
    so expected-wait formulas over the matrix stay exact).  Ids absent from
    ``ids`` keep a ``-1`` row.  The stable sort keeps each id's offsets in
    input order, which callers arrange to be ascending.
    """
    order = np.argsort(ids, kind="stable")
    gs, ss = ids[order], offs[order]
    first = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
    runlen = np.diff(np.append(first, len(gs)))
    width = int(runlen.max()) if len(runlen) else 1
    col = np.arange(len(gs)) - np.repeat(first, runlen)
    occ = np.full((n_rows, width), -1, dtype=np.int64)
    occ[gs, col] = ss
    return np.where(occ < 0, occ[:, :1], occ)


class _KindTable:
    """Occurrence table of one bucket kind on one channel."""

    __slots__ = ("starts", "bucket_ids", "cycle", "channel")

    def __init__(
        self, starts: np.ndarray, bucket_ids: np.ndarray, cycle: int, channel: int
    ) -> None:
        self.starts = starts          # sorted start offsets within the channel cycle
        self.bucket_ids = bucket_ids  # global bucket ids airing at those offsets
        self.cycle = cycle
        self.channel = channel


class CompiledTimeline:
    """Flat-array view of a periodic broadcast layout (see module docstring).

    Positions are unwrapped packet clocks exactly as in
    :class:`BroadcastProgram`; a compiled timeline never wraps or loses the
    global time origin, so its answers are interchangeable with the object
    model's.
    """

    __slots__ = (
        "n_buckets",
        "n_channels",
        "home_channel",
        "bucket_start",
        "bucket_cycle",
        "bucket_channel",
        "bucket_packets",
        "bucket_frame",
        "max_multiplicity",
        "_occ_offsets",
        "_kind_tables",
        "_nav_tables",
    )

    def __init__(self, view) -> None:
        if isinstance(view, BroadcastProgram):
            channels = [(0, view, np.arange(len(view), dtype=np.int64))]
            self.n_channels = 1
            self.home_channel = 0
        else:  # a ScheduleView
            schedule = view.schedule
            channels = [
                (ch.cid, ch.program, np.asarray(ch.global_ids, dtype=np.int64))
                for ch in schedule.channels
            ]
            self.n_channels = len(channels)
            self.home_channel = view.home_channel

        # Distinct global bucket ids -- NOT the airing count, which exceeds
        # it on replicated (demand-aware) schedules.
        n = len(view.buckets)
        self.n_buckets = n
        self.bucket_start = np.zeros(n, dtype=np.int64)
        self.bucket_cycle = np.zeros(n, dtype=np.int64)
        self.bucket_channel = np.zeros(n, dtype=np.int64)
        self.bucket_packets = np.zeros(n, dtype=np.int64)
        self.bucket_frame = np.full(n, -1, dtype=np.int64)
        self._kind_tables: Dict[BucketKind, List[_KindTable]] = {}
        self._nav_tables: List[_KindTable] = []

        all_gids: List[np.ndarray] = []
        all_offs: List[np.ndarray] = []
        for cid, program, global_ids in channels:
            starts = np.asarray(program._starts, dtype=np.int64)
            cycle = program.cycle_packets
            # Replicated buckets appear several times in ``global_ids``
            # (demand-aware schedules); assigning in reverse keeps the
            # FIRST (earliest) airing in ``bucket_start`` where plain
            # fancy indexing would keep the last write.
            self.bucket_start[global_ids[::-1]] = starts[::-1]
            self.bucket_cycle[global_ids] = cycle
            all_gids.append(global_ids)
            all_offs.append(starts)
            self.bucket_channel[global_ids] = cid
            self.bucket_packets[global_ids] = np.fromiter(
                (b.n_packets for b in program.buckets), dtype=np.int64, count=len(program)
            )
            frames = np.fromiter(
                (b.meta.get("frame_pos", -1) for b in program.buckets),
                dtype=np.int64,
                count=len(program),
            )
            self.bucket_frame[global_ids] = frames
            nav_locals: List[int] = []
            for kind, local_ids in program._kind_buckets.items():
                local = np.asarray(local_ids, dtype=np.int64)
                table = _KindTable(starts[local], global_ids[local], cycle, cid)
                self._kind_tables.setdefault(kind, []).append(table)
                if kind.is_navigation:
                    nav_locals.extend(local_ids)
            if nav_locals:
                local = np.sort(np.asarray(nav_locals, dtype=np.int64))
                self._nav_tables.append(
                    _KindTable(starts[local], global_ids[local], cycle, cid)
                )

        # Per-cycle bucket multiplicity (demand-aware schedules): when any
        # bucket airs more than once per macro-cycle, build a dense
        # (n_buckets, max_multiplicity) matrix of its start offsets, padded
        # with each row's first offset -- a duplicated offset can never win
        # the min-reduction wrongly, and after sorting it contributes a zero
        # gap, so the expected-wait formula over the matrix stays exact.
        gids = np.concatenate(all_gids) if all_gids else np.zeros(0, dtype=np.int64)
        mult = int(np.bincount(gids, minlength=n).max()) if n else 1
        self.max_multiplicity = mult
        if mult <= 1:
            self._occ_offsets = None
        else:
            # All of a bucket's copies live on one channel, whose starts
            # ascend with local position, so the stable grouping keeps each
            # row ascending and column 0 == bucket_start.
            self._occ_offsets = _padded_offsets(gids, np.concatenate(all_offs), n)

    # -- per-bucket occurrence arithmetic --------------------------------------

    def next_occurrences(self, bucket_ids, not_before) -> np.ndarray:
        """Vectorised :meth:`BroadcastProgram.next_occurrence`.

        ``bucket_ids`` is an integer array-like of global bucket ids;
        ``not_before`` is a scalar or an array of unwrapped positions (the
        earliest position each lookup may answer).  Returns the ``int64``
        array of earliest starts ``>= not_before`` of each bucket.
        """
        ids = (
            bucket_ids
            if isinstance(bucket_ids, np.ndarray)
            else np.asarray(bucket_ids, dtype=np.int64)
        )
        start = self.bucket_start[ids]
        cycle = self.bucket_cycle[ids]
        if isinstance(not_before, (int, np.integer)):
            nb = not_before if not_before > 0 else 0
        else:
            nb = np.maximum(np.asarray(not_before, dtype=np.int64), 0)
        if self._occ_offsets is not None:
            # Replicated schedule: minimum over every airing of each bucket.
            occ = self._occ_offsets[ids]
            cyc = cycle[..., None]
            nbb = nb if isinstance(nb, (int, np.integer)) else nb[..., None]
            base = (nbb // cyc) * cyc
            cand = base + occ + cyc * (occ < nbb - base)
            return np.min(cand, axis=-1)
        k = (nb - start + cycle - 1) // cycle
        np.maximum(k, 0, out=k)
        return start + k * cycle

    def arrivals(
        self,
        bucket_ids,
        clock: int,
        not_before: Optional[int] = None,
        channel: Optional[int] = None,
        switch_packets: int = 0,
    ) -> np.ndarray:
        """Earliest *receivable* starts from a session's point of view.

        The batch counterpart of :meth:`ClientSession.next_arrival`: buckets
        on a channel other than the radio's current one cannot be received
        before the retune completes, so their earliest position shifts by
        ``switch_packets``.
        """
        ids = (
            bucket_ids
            if isinstance(bucket_ids, np.ndarray)
            else np.asarray(bucket_ids, dtype=np.int64)
        )
        earliest = clock if not_before is None else max(clock, not_before)
        if channel is None or self.n_channels == 1:
            return self.next_occurrences(ids, earliest)
        nb = np.where(
            self.bucket_channel[ids] != channel,
            max(earliest, clock + switch_packets),
            earliest,
        )
        return self.next_occurrences(ids, nb)

    # -- first-hop seeks -------------------------------------------------------
    #
    # Kind seeks stay with the object model (``BroadcastProgram`` /
    # ``ScheduleView.next_occurrence_of_kind``) -- compiling buys nothing
    # for one lookup.  The one batched seek is the fleet's first hop.

    def next_navigation_starts(self, positions) -> np.ndarray:
        """Vectorised earliest starts of *any* navigation bucket.

        One ``searchsorted`` per channel over the merged navigation table,
        then the elementwise minimum over channels -- the fleet simulator's
        first-hop primitive.
        """
        if not self._nav_tables:
            raise KeyError("timeline broadcasts no navigation bucket")
        pos = np.maximum(np.asarray(positions, dtype=np.int64), 0)
        best: Optional[np.ndarray] = None
        for table in self._nav_tables:
            cycle = table.cycle
            starts = table.starts
            base = (pos // cycle) * cycle
            j = np.searchsorted(starts, pos - base, side="left")
            wrapped = j == len(starts)
            got = base + starts[np.where(wrapped, 0, j)] + wrapped * cycle
            best = got if best is None else np.minimum(best, got)
        return best


def timeline_of(view) -> CompiledTimeline:
    """The compiled timeline of a program or schedule view (cached).

    Programs and schedules are immutable once built, so the compiled form is
    cached directly on them: a :class:`BroadcastProgram` carries its own
    timeline, a :class:`ScheduleView` stores it on its (longer-lived)
    :class:`BroadcastSchedule`.  Objects that admit neither cache slot --
    third-party program stand-ins in tests, say -- are compiled afresh per
    call, which only costs the O(n_buckets) array build.
    """
    host = view if isinstance(view, BroadcastProgram) else getattr(view, "schedule", view)
    timeline = getattr(host, _CACHE_ATTR, None)
    if timeline is None:
        timeline = CompiledTimeline(view)
        try:
            setattr(host, _CACHE_ATTR, timeline)
        except (AttributeError, TypeError):  # no cache slot: compile per call
            pass
    return timeline
