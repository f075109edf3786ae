"""Broadcast programs: the packet-accurate layout of one broadcast cycle.

A broadcast cycle is a fixed sequence of :class:`Bucket` objects, each
occupying an integer number of packets.  The server repeats the cycle
forever; clients address positions on an *unwrapped* packet clock (packet 0
is the start of cycle 0, packet ``cycle_packets`` the start of cycle 1, and
so on), which makes "wait for the next occurrence of bucket b" a simple
arithmetic operation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterator, List, Sequence, Tuple


class BucketKind(Enum):
    """What a bucket on the broadcast channel contains."""

    DSI_TABLE = "dsi_table"          # a DSI index table (one per frame)
    DSI_DIRECTORY = "dsi_directory"  # intra-frame object directory
    DATA = "data"                    # one data object
    TREE_NODE = "tree_node"          # an R-tree / B+-tree index node
    CONTROL = "control"              # replicated control index (distributed scheme)

    @property
    def is_index(self) -> bool:
        """True for index information (as opposed to payload data)."""
        return self is not BucketKind.DATA

    @property
    def is_navigation(self) -> bool:
        """True for buckets that carry *navigation* information.

        Link errors (paper Section 5) are applied to navigation buckets:
        DSI index tables, tree index nodes and replicated control indexes.
        The intra-frame directory is a reproduction artefact that travels
        with the frame's data area, so it is grouped with data for error
        purposes (see DESIGN.md).
        """
        return self in (BucketKind.DSI_TABLE, BucketKind.TREE_NODE, BucketKind.CONTROL)


@dataclass(slots=True)
class Bucket:
    """One bucket of the broadcast program.

    ``payload`` is whatever the owning index wants to get back when a client
    reads the bucket (a ``DsiTable``, a tree node, a ``DataObject``...).
    ``meta`` carries small identifiers (frame id, node id) used by the search
    algorithms and by tests.
    """

    kind: BucketKind
    n_packets: int
    payload: Any
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_packets < 1:
            raise ValueError("a bucket must occupy at least one packet")


class BroadcastProgram:
    """An immutable sequence of buckets forming one broadcast cycle."""

    def __init__(self, buckets: Sequence[Bucket], name: str = "program") -> None:
        if not buckets:
            raise ValueError("a broadcast program needs at least one bucket")
        self.name = name
        self.buckets: List[Bucket] = list(buckets)
        self._starts: List[int] = []
        self._kind_buckets: Dict[BucketKind, List[int]] = {}
        self._kind_starts: Dict[BucketKind, List[int]] = {}
        pos = 0
        for i, b in enumerate(self.buckets):
            self._starts.append(pos)
            self._kind_buckets.setdefault(b.kind, []).append(i)
            pos += b.n_packets
        self.cycle_packets = pos
        for kind, idxs in self._kind_buckets.items():
            self._kind_starts[kind] = [self._starts[i] for i in idxs]
        self._index_packets = sum(b.n_packets for b in self.buckets if b.kind.is_index)

    # -- basic accessors -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.buckets)

    def __iter__(self) -> Iterator[Bucket]:
        return iter(self.buckets)

    def __getitem__(self, index: int) -> Bucket:
        return self.buckets[index]

    def start_of(self, bucket_index: int) -> int:
        """Packet offset of a bucket within the cycle."""
        return self._starts[bucket_index]

    def cycle_bytes(self, packet_capacity: int) -> int:
        return self.cycle_packets * packet_capacity

    # -- unwrapped clock arithmetic -------------------------------------------

    def next_occurrence(self, bucket_index: int, not_before: int) -> int:
        """Unwrapped packet position of the next broadcast of a bucket.

        Returns the earliest position ``>= not_before`` at which bucket
        ``bucket_index`` *starts*.
        """
        if not_before < 0:
            not_before = 0
        start = self._starts[bucket_index]
        cycle = self.cycle_packets
        k = (not_before - start + cycle - 1) // cycle
        if k < 0:
            k = 0
        return start + k * cycle

    def next_bucket_after(self, position: int) -> Tuple[int, int]:
        """First bucket starting at or after an unwrapped position.

        Returns ``(bucket_index, unwrapped_start)``.
        """
        if position < 0:
            position = 0
        cycle = self.cycle_packets
        base = (position // cycle) * cycle
        offset = position - base
        idx = bisect.bisect_left(self._starts, offset)
        if idx == len(self._starts):
            return 0, base + cycle
        return idx, base + self._starts[idx]

    def next_occurrence_of_kind(self, kind: BucketKind, position: int) -> Tuple[int, int]:
        """First bucket of ``kind`` starting at or after an unwrapped position.

        Returns ``(bucket_index, unwrapped_start)``, found by a binary search
        over the per-kind start offsets.
        """
        starts = self._kind_starts.get(kind)
        if not starts:
            raise KeyError(f"program {self.name!r} broadcasts no {kind.value} bucket")
        idxs = self._kind_buckets[kind]
        if position < 0:
            position = 0
        cycle = self.cycle_packets
        base = (position // cycle) * cycle
        offset = position - base
        j = bisect.bisect_left(starts, offset)
        if j == len(starts):
            return idxs[0], base + cycle + starts[0]
        return idxs[j], base + starts[j]

    # -- summaries ------------------------------------------------------------

    def index_overhead_fraction(self) -> float:
        """Fraction of the cycle occupied by index (non-data) packets."""
        return self._index_packets / self.cycle_packets
