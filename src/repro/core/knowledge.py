"""Client-side knowledge accumulated from DSI index tables.

The defining property of DSI is that *every* index table a client happens to
read contributes usable knowledge about the global object distribution
(paper Section 3: "multiple search paths are naturally mixed together by
sharing links").  :class:`ClientKnowledge` is that accumulated state: a
partial, monotone map from HC rank (the position of a frame in ascending-HC
order) to the frame's minimum HC value, plus the broadcast-segment
boundaries.

All reasoning happens in **rank space**.  Because the reorganized broadcast
interleaves ``m`` equal segments round-robin, the mapping between a frame's
broadcast position and its HC rank is pure arithmetic (a system constant the
client knows), so the same code serves the original (``m = 1``) and the
reorganized broadcast.

Because frame minima are non-decreasing in rank, partial knowledge admits
exact interval reasoning: for an HC interval ``[lo, hi]`` the frames that
*may* contain an object of that interval form a contiguous rank interval
``[A, B]`` where ``A`` is the largest known rank whose minimum is <= ``lo``
(rank 0 when none is) and ``B`` is one less than the smallest known rank
whose minimum is > ``hi`` (the last rank when none is).  That interval
arithmetic is what keeps the window and kNN algorithms cheap even for
thousands of frames.

Storage is a dense rank-indexed array (-1 = unknown), so learning is O(1);
the sorted known-(rank, value) arrays that the interval arithmetic
binary-searches -- with the sentinel-padded lookup tables it indexes
directly -- are rebuilt lazily, once per query burst rather than once per
learned fact.  What one index table teaches is itself a pure function of
the (static) table, so the unpacked ``(rank, value)`` pairs are stashed on
the table object and shared by every session that reads it.
The batch entry point :meth:`candidate_rank_array` answers *many* HC ranges
in a handful of array operations; it is what the window and kNN planner
loops drive (see DESIGN.md, "Compiled timelines").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..spatial.hilbert import HCRange
from .structure import DsiDirectory, DsiTable

#: Sentinel for "minimum not known" in the dense rank -> min-HC storage
#: (HC values are non-negative, so -1 can never collide).
_UNKNOWN = -1

_EMPTY_RANKS = np.empty(0, dtype=np.int64)


class ClientKnowledge:
    """Partial knowledge of the frame/HC-value distribution."""

    __slots__ = (
        "n_frames",
        "n_segments",
        "hc_space",
        "seg_size",
        "examined",
        "tables_read",
        "_mins",
        "_mins_np",
        "_known",
        "_not_examined",
        "_dirty",
        "_ranks_np",
        "_values_np",
        "_a_of_i",
        "_b_of_j",
    )

    def __init__(self, n_frames: int, n_segments: int, hc_space: int) -> None:
        if n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if n_segments < 1 or n_frames % n_segments != 0:
            raise ValueError("n_frames must be a positive multiple of n_segments")
        self.n_frames = n_frames
        self.n_segments = n_segments
        self.hc_space = hc_space          # exclusive upper bound of HC values
        self.seg_size = n_frames // n_segments
        # Dense rank -> known minimum HC (-1 = unknown); values are
        # automatically in rank order because frame minima increase with
        # rank.  Kept as a list (fast scalar writes) and a mirrored array
        # (fast batch reads).
        self._mins: List[int] = [_UNKNOWN] * n_frames
        self._mins_np = np.full(n_frames, _UNKNOWN, dtype=np.int64)
        self._known = 0
        #: ranks whose objects have been fully examined by the current query
        self.examined: Set[int] = set()
        self._not_examined = np.ones(n_frames, dtype=bool)
        self.tables_read = 0
        # Lazily rebuilt sorted arrays over the known samples, plus the
        # sentinel-padded interval lookup tables.
        self._dirty = False
        self._ranks_np = _EMPTY_RANKS
        self._values_np = _EMPTY_RANKS
        self._a_of_i = _EMPTY_RANKS
        self._b_of_j = _EMPTY_RANKS

    # -- query lifecycle ---------------------------------------------------------

    def begin_query(self) -> None:
        """Start a new query burst over the same accumulated knowledge.

        Learned frame minima are facts about the (static) broadcast and
        persist across queries; the *examined* marks are per-query progress
        ("this query has already downloaded everything relevant from that
        frame") and must be cleared, or a warm client would silently skip
        frames the new query still needs.
        """
        if self.examined:
            self.examined = set()
            self._not_examined.fill(True)

    # -- position <-> rank arithmetic -------------------------------------------

    def rank_of_pos(self, pos: int) -> int:
        return (pos % self.n_segments) * self.seg_size + pos // self.n_segments

    def pos_of_rank(self, rank: int) -> int:
        return (rank % self.seg_size) * self.n_segments + rank // self.seg_size

    # -- learning ----------------------------------------------------------------

    def learn_min(self, rank: int, min_hc: int) -> None:
        if 0 <= rank < self.n_frames and self._mins[rank] == _UNKNOWN:
            self._mins[rank] = min_hc
            self._mins_np[rank] = min_hc
            self._known += 1
            self._dirty = True

    def table_pairs(self, table: DsiTable) -> Tuple[Tuple[int, int], ...]:
        """Everything ``table`` teaches, as ``(rank, min_hc)`` pairs.

        This is the exact unpacking :meth:`learn_table` performs (own rank,
        successor, entry targets, segment boundaries), exposed so batch
        planners -- the fleet kernel compiles it into a static learn matrix
        -- absorb tables identically to a live session.  Pairs are cached
        on the (frozen, static) table itself, keyed by this knowledge's
        layout.
        """
        layout = (self.n_frames, self.n_segments, self.hc_space)
        cached = getattr(table, "_learn_pairs", None)
        if cached is not None and cached[0] == layout:
            return cached[1]
        unpacked: List[Tuple[int, int]] = []
        own_rank = self.rank_of_pos(table.frame_pos)
        unpacked.append((own_rank, table.own_min_hc))
        if own_rank + 1 < self.n_frames and table.next_hc_min < self.hc_space:
            unpacked.append((own_rank + 1, table.next_hc_min))
        for entry in table.entries:
            unpacked.append((self.rank_of_pos(entry.frame_pos), entry.hc))
        for seg, boundary in enumerate(table.segment_boundaries):
            unpacked.append((seg * self.seg_size, boundary))
        result = tuple(
            (rank, value) for rank, value in unpacked if 0 <= rank < self.n_frames
        )
        # Tables are static, frozen index structures: stash what they teach
        # directly on them (object.__setattr__ bypasses the frozen guard)
        # so every later session reads it back as one attribute lookup.
        object.__setattr__(table, "_learn_pairs", (layout, result))
        return result

    def learn_table(self, table: DsiTable) -> None:
        """Absorb everything a DSI index table reveals."""
        self.tables_read += 1
        mins = self._mins
        mins_np = self._mins_np
        learned = False
        for rank, value in self.table_pairs(table):
            if mins[rank] == _UNKNOWN:
                mins[rank] = value
                mins_np[rank] = value
                self._known += 1
                learned = True
        if learned:
            self._dirty = True

    def learn_directory(self, directory: DsiDirectory) -> None:
        rank = self.rank_of_pos(directory.frame_pos)
        if directory.records:
            self.learn_min(rank, directory.records[0].hc)

    def mark_examined(self, rank: int) -> None:
        if 0 <= rank < self.n_frames:
            self.examined.add(rank)
            self._not_examined[rank] = False

    def _refresh(self) -> None:
        """Rebuild the sorted known views (and the sentinel-padded interval
        lookup tables the batch path fancy-indexes) after new learning."""
        ranks = np.flatnonzero(self._mins_np != _UNKNOWN)
        self._ranks_np = ranks
        self._values_np = self._mins_np[ranks]
        # a = 0 when the searchsorted insertion point is 0, else ranks[i-1];
        # b = ranks[j] - 1, or n_frames - 1 past the last known rank.
        self._a_of_i = np.concatenate(([0], ranks))
        self._b_of_j = np.concatenate((ranks, [self.n_frames])) - 1
        self._dirty = False

    # -- queries over knowledge ---------------------------------------------------

    @property
    def known_count(self) -> int:
        return self._known

    @property
    def global_min_hc(self) -> Optional[int]:
        v = self._mins[0]
        return v if v != _UNKNOWN else None

    def known_mins(self, ranks: np.ndarray) -> np.ndarray:
        """Known minima of many ranks at once (-1 where unknown)."""
        return self._mins_np[ranks]

    def known_values(self) -> np.ndarray:
        """All known frame minima, ascending (each one a real object's HC
        value -- what a warm kNN search seeds its candidate estimates from)."""
        if self._dirty:
            self._refresh()
        return self._values_np

    def neighbor_known_values(self, rank: int) -> Tuple[Optional[int], Optional[int]]:
        """Known minima bracketing ``rank``: ``(value at largest known rank
        <= rank, value at smallest known rank > rank)``, ``None`` where no
        such rank is known.

        This is the membership primitive behind the planners' incremental
        candidate walks: ``rank`` may intersect an HC range ``[lo, hi]``
        exactly when the next known minimum exceeds ``lo`` (else a later
        frame already covers ``lo``) and the previous known minimum does
        not exceed ``hi`` -- the scalar form of the rank intervals
        :meth:`candidate_rank_array` computes.  Implemented as an outward
        scan of the dense store (expected O(1) once a few tables are known),
        so it never forces the sorted views to rebuild mid-burst.
        """
        mins = self._mins
        before = None
        for k in range(rank, -1, -1):
            v = mins[k]
            if v != _UNKNOWN:
                before = v
                break
        after = None
        for k in range(rank + 1, self.n_frames):
            v = mins[k]
            if v != _UNKNOWN:
                after = v
                break
        return before, after

    def candidate_rank_array(self, ranges: Sequence[HCRange]) -> np.ndarray:
        """Unexamined ranks that may hold objects in any of the HC ``ranges``.

        Each range ``[lo, hi]`` maps to its rank interval ``[A, B]`` (see
        the module docstring): every range endpoint is binary-searched in
        one call, the interval bounds come from the sentinel-padded lookup
        tables, and the union of rank intervals is materialised with one
        difference-array sweep -- no per-rank Python.  Ranks this query has
        examined are left out.  Returns an ``int64`` array (ascending).
        """
        if not len(ranges):
            return _EMPTY_RANKS
        if self._dirty:
            self._refresh()
        if isinstance(ranges, np.ndarray):
            bounds = ranges
        else:
            bounds = np.asarray(ranges, dtype=np.int64).reshape(-1, 2)
        if not len(self._ranks_np):
            # No knowledge yet: every rank is a candidate for any range.
            return np.flatnonzero(self._not_examined)
        ij = np.searchsorted(self._values_np, bounds.ravel(), side="right")
        a = self._a_of_i[ij[0::2]]
        b = self._b_of_j[ij[1::2]]
        keep = a <= b
        if not keep.all():
            if not keep.any():
                return _EMPTY_RANKS
            a, b = a[keep], b[keep]
        nf = self.n_frames
        opens = np.bincount(a, minlength=nf)[:nf]
        closes = np.bincount(b + 1, minlength=nf + 1)[:nf]
        return np.flatnonzero((np.cumsum(opens - closes) > 0) & self._not_examined)
