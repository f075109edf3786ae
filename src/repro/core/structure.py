"""The DSI index structure (paper Section 3.1) and its broadcast program.

A broadcast cycle is divided into ``nF`` frames; each frame carries an
**index table** followed by its data objects (sorted by HC value).  The
table has one entry per exponential distance: entry *i* points to the
``r**i``-th next frame in broadcast order and records the smallest HC value
(``HC'_i``) of the objects in that frame.

Sizing follows the paper's Section 4 rule: one packet is reserved for the
table, so the number of entries is ``floor(capacity / entry_size)`` and
``nF = r ** entries`` (capped at the number of distinct HC values ``D``);
the object factor is then ``n_o = ceil(N / nF)``.

Each frame's HC extent runs from its minimum ``HC'_i`` to the next
frame's, and both query algorithms skip whole frames by extent.  That is
exact only if no HC value lies in two frames, so objects sharing an HC
value always share a frame: the build cuts frames between equal-HC runs
(a frame may then hold more or fewer than ``n_o`` objects) and checks
that every frame is non-empty, that every frame's largest HC value lies
below the next frame's minimum and that ``nF`` is a multiple of ``m``.

Two reproduction extensions, both documented in DESIGN.md:

* when a frame holds more than one object, an **intra-frame directory**
  (one ``(HC value, offset)`` record per object) is broadcast right after
  the table so a client can doze to exactly the data packets it needs;
* each table also carries the frame's own minimum HC value, the minimum HC
  value of its successor *in HC order* and the ``m`` segment-boundary HC
  values of the (possibly reorganized) broadcast, which is what lets
  energy-efficient forwarding work identically on the original and the
  reorganized broadcast.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api.protocol import AirIndex
from ..broadcast.config import SystemConfig
from ..broadcast.program import BroadcastProgram, Bucket, BucketKind
from ..spatial.datasets import DataObject, SpatialDataset
from ..spatial.geometry import Point
from ..spatial.hilbert import HilbertCurve


#: Sizing rules for the object factor when it is not given explicitly.
#:
#: ``"balanced"`` (default) picks the object factor so that a frame's
#: intra-frame directory is about as large as its index table (a couple of
#: packets), which keeps the per-frame tuning overhead a small constant.
#: ``"paper"`` applies the paper's Section 4 rule literally: one packet per
#: index table, hence ``nF = r ** floor(capacity / entry_size)``.  With the
#: paper's 10,000 objects and 64-byte packets that rule yields only 8 frames
#: of 1,250 objects each; the paper never says how a client locates objects
#: inside such a frame, and once that cost is charged honestly (through the
#: directory) it dominates tuning time.  The balanced rule is therefore the
#: default configuration of this reproduction; the literal rule remains
#: available for the sizing ablation benchmark.  See DESIGN.md.
SIZING_RULES = ("balanced", "paper")


@dataclass(frozen=True)
class DsiParameters:
    """Tunable knobs of the DSI index.

    ``index_base`` is the exponential base *r*; ``object_factor`` is the
    target number of objects per frame *n_o*, which sets ``nF`` (``None``
    derives it from ``sizing``; frames cut between equal-HC runs may hold
    more or fewer); ``n_segments`` is the broadcast-reorganization factor
    *m* (1 = original ascending-HC broadcast, 2 = the paper's reorganized
    broadcast); ``use_directory`` controls the intra-frame directory.
    """

    index_base: int = 2
    object_factor: Optional[int] = None
    n_segments: int = 1
    use_directory: bool = True
    sizing: str = "balanced"

    def __post_init__(self) -> None:
        if self.index_base < 2:
            raise ValueError("index_base must be >= 2")
        if self.object_factor is not None and self.object_factor < 1:
            raise ValueError("object_factor must be >= 1")
        if self.n_segments < 1:
            raise ValueError("n_segments must be >= 1")
        if self.sizing not in SIZING_RULES:
            raise ValueError(f"sizing must be one of {SIZING_RULES}")


@dataclass(frozen=True)
class FrameLayout:
    """Derived frame parameters: number of frames, objects per frame, entries."""

    n_frames: int
    object_factor: int
    entries_per_table: int


def derive_frame_layout(
    n_objects: int,
    config: SystemConfig,
    params: DsiParameters,
    n_distinct: Optional[int] = None,
) -> FrameLayout:
    """Apply the paper's sizing rule (Section 4) to obtain ``nF`` and ``n_o``.

    ``n_distinct`` is the number of distinct HC values among the objects
    (``n_objects`` when omitted): no HC value may span two frames, so it
    caps ``nF``.
    """
    if n_objects < 1:
        raise ValueError("need at least one object")
    m = params.n_segments
    distinct = n_objects if n_distinct is None else n_distinct
    if distinct < m:
        raise ValueError(
            f"cannot split {distinct} distinct HC values into {m} broadcast segments"
        )
    r = params.index_base
    if params.object_factor is not None:
        n_frames = math.ceil(n_objects / params.object_factor)
    elif params.sizing == "paper":
        entries_fitting = max(1, config.packet_capacity // config.dsi_entry_size)
        n_frames = min(r ** entries_fitting, n_objects)
    else:  # "balanced": directory about as large as the index table
        object_factor = 1
        for _ in range(8):
            object_factor = max(
                1, round(math.log(max(2.0, n_objects / object_factor), r))
            )
        n_frames = math.ceil(n_objects / object_factor)
    # The reorganized broadcast needs nF to be a multiple of m so that the
    # position <-> HC-rank mapping stays pure arithmetic on the client, and
    # nF may never exceed D (every frame holds at least one HC value).
    n_frames = max(m, min(n_frames, distinct))
    if n_frames % m != 0:
        n_frames = (n_frames // m) * m
        n_frames = max(n_frames, m)
    object_factor = math.ceil(n_objects / n_frames)
    entries = max(1, math.ceil(math.log(max(n_frames, 2), r)))
    return FrameLayout(n_frames=n_frames, object_factor=object_factor, entries_per_table=entries)


# ---------------------------------------------------------------------------
# Static structures broadcast on air
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DsiTableEntry:
    """One ``<HC'_i, P_i>`` pair: smallest HC value of the pointed frame and
    the broadcast position of that frame."""

    hc: int
    frame_pos: int


@dataclass(frozen=True)
class DsiTable:
    """The index table associated with one frame."""

    frame_pos: int                      # broadcast position of the owning frame
    own_min_hc: int                     # smallest HC value inside the owning frame
    next_hc_min: int                    # min HC of the successor frame in HC order
    entries: Tuple[DsiTableEntry, ...]
    segment_boundaries: Tuple[int, ...]  # min HC value of each broadcast segment


@dataclass(frozen=True)
class DirectoryRecord:
    """One record of the intra-frame directory: the HC value of an object and
    its slot (0-based) inside the frame's data area."""

    hc: int
    slot: int
    oid: int


@dataclass(frozen=True)
class DsiDirectory:
    """The intra-frame directory of one frame (records sorted by HC value)."""

    frame_pos: int
    records: Tuple[DirectoryRecord, ...]


@dataclass(frozen=True)
class RankObjects:
    """Flat rank-ordered object geometry of a built DSI index.

    One row per object, ordered frame-rank major / slot minor -- the
    global HC order of the broadcast.  ``obj_start[r] + slot`` is the flat
    id of the object at ``slot`` of the frame ranked ``r``, which is what
    lets batch planners (the fleet kernel's kNN lanes) address every
    candidate object with plain integer arithmetic instead of HC-keyed
    dictionaries.  ``dir_bucket`` is -1 for frames without an intra-frame
    directory.
    """

    flen: np.ndarray        # (F,) objects per frame, rank order
    obj_start: np.ndarray   # (F,) flat id of each frame's slot-0 object
    hcs: np.ndarray         # (N,) object HC values, flat order
    oids: np.ndarray        # (N,) object ids, flat order
    buckets: np.ndarray     # (N,) broadcast bucket id of each object
    dir_bucket: np.ndarray  # (F,) directory bucket id per rank (-1 if none)
    objects: Tuple[DataObject, ...]  # the objects themselves, flat order


@dataclass
class DsiFrame:
    """Build-time description of one frame."""

    broadcast_pos: int
    hc_rank: int
    objects: List[DataObject]

    @property
    def min_hc(self) -> int:
        return self.objects[0].hc

    @property
    def max_hc(self) -> int:
        return self.objects[-1].hc


def check_frames(frames: Sequence[DsiFrame], n_segments: int) -> None:
    """Raise ``ValueError`` unless the rank-ordered frames are a valid DSI
    layout: every frame non-empty, every frame's largest HC value below the
    next frame's minimum (so each HC value lies in exactly one frame and
    the extents partition the HC space) and ``nF`` a multiple of ``m``."""
    if len(frames) % n_segments:
        raise ValueError(f"{len(frames)} frames do not split into {n_segments} segments")
    for rank, frame in enumerate(frames):
        if not frame.objects:
            raise ValueError(f"frame rank {rank} is empty")
        if rank and frame.min_hc <= frames[rank - 1].max_hc:
            raise ValueError(f"HC value {frame.min_hc} lies in frame ranks {rank - 1} and {rank}")


# ---------------------------------------------------------------------------
# The index itself
# ---------------------------------------------------------------------------


class DsiIndex(AirIndex):
    """A built DSI index: frames, tables, directories and broadcast program.

    Construction is entirely server-side; clients only ever see the bucket
    payloads handed to them by a :class:`~repro.broadcast.client.ClientSession`.
    """

    name = "DSI"

    @classmethod
    def build(cls, dataset: SpatialDataset, config: SystemConfig, spec=None) -> "DsiIndex":
        """:class:`~repro.api.protocol.AirIndex` factory honouring
        ``spec.dsi_params`` when present."""
        params = getattr(spec, "dsi_params", None)
        return cls(dataset, config, params)

    def __init__(
        self,
        dataset: SpatialDataset,
        config: SystemConfig,
        params: Optional[DsiParameters] = None,
    ) -> None:
        self.dataset = dataset
        self.config = config
        self.params = params if params is not None else DsiParameters()
        self.curve: HilbertCurve = dataset.curve
        ordered = dataset.objects_by_hc()
        runs = [i for i, o in enumerate(ordered) if i == 0 or o.hc != ordered[i - 1].hc]
        self.layout = derive_frame_layout(len(ordered), config, self.params, len(runs))

        self._build_frames(ordered, runs)
        check_frames(self.frames_by_rank, self.params.n_segments)
        self._build_tables()
        self._build_program()

    # -- construction ---------------------------------------------------------

    def _build_frames(self, ordered: List[DataObject], runs: List[int]) -> None:
        """Cut the HC-sorted objects into ``nF`` frames, never inside an
        equal-HC run (``runs`` holds the index of each run's first object).

        The even split would start rank ``r`` at ``r·base + min(r, extra)``
        (``base, extra = divmod(N, nF)``).  Each inner cut moves instead to
        the nearest run start, ties going down, clamped to lie strictly
        after the previous cut and early enough that every later rank still
        gets a run of its own.  ``nF <= D`` (see :func:`derive_frame_layout`)
        makes that always possible.
        """
        n_frames = self.layout.n_frames
        base, extra = divmod(len(ordered), n_frames)
        first = [0]  # index into ``runs`` of each rank's first run
        for rank in range(1, n_frames):
            target = rank * base + min(rank, extra)
            j = bisect.bisect_right(runs, target) - 1
            if j + 1 < len(runs) and runs[j + 1] - target < target - runs[j]:
                j += 1
            first.append(min(max(j, first[-1] + 1), len(runs) - n_frames + rank))
        cuts = [runs[j] for j in first] + [len(ordered)]
        seg_size = n_frames // self.params.n_segments
        self.frames_by_rank: List[DsiFrame] = [
            DsiFrame(self.pos_of_rank(rank), rank, ordered[a:b])
            for rank, (a, b) in enumerate(zip(cuts, cuts[1:]))
        ]
        self.frames = sorted(self.frames_by_rank, key=lambda f: f.broadcast_pos)
        self.segment_boundaries: Tuple[int, ...] = tuple(
            self.frames_by_rank[s * seg_size].min_hc for s in range(self.params.n_segments)
        )

    def _build_tables(self) -> None:
        n_frames = self.layout.n_frames
        r = self.params.index_base
        self.tables: List[DsiTable] = []
        for pos in range(n_frames):
            entries: List[DsiTableEntry] = []
            for i in range(self.layout.entries_per_table):
                distance = r ** i
                if distance >= n_frames and i > 0:
                    break
                target = (pos + distance) % n_frames
                entries.append(
                    DsiTableEntry(hc=self.frames[target].min_hc, frame_pos=target)
                )
            frame = self.frames[pos]
            rank = frame.hc_rank
            if rank + 1 < n_frames:
                next_hc_min = self.frames_by_rank[rank + 1].min_hc
            else:
                next_hc_min = self.curve.max_value
            self.tables.append(
                DsiTable(
                    frame_pos=pos,
                    own_min_hc=frame.min_hc,
                    next_hc_min=next_hc_min,
                    entries=tuple(entries),
                    segment_boundaries=self.segment_boundaries,
                )
            )

    def _build_program(self) -> None:
        cfg = self.config
        buckets: List[Bucket] = []
        self.table_bucket: List[int] = []
        self.directory_bucket: List[Optional[int]] = []
        self.frame_object_buckets: List[List[int]] = []
        self.object_bucket: Dict[int, int] = {}

        table_bytes = (
            self.layout.entries_per_table * cfg.dsi_entry_size
            + len(self.segment_boundaries) * cfg.hc_value_size
            + cfg.hc_value_size  # next_hc_min
        )
        table_packets = cfg.packets_for(table_bytes)

        for pos, frame in enumerate(self.frames):
            self.table_bucket.append(len(buckets))
            buckets.append(
                Bucket(
                    kind=BucketKind.DSI_TABLE,
                    n_packets=table_packets,
                    payload=self.tables[pos],
                    meta={"frame_pos": pos},
                )
            )
            directory = self._directory_for(frame)
            if directory is not None:
                dir_bytes = len(directory.records) * cfg.dsi_entry_size
                self.directory_bucket.append(len(buckets))
                buckets.append(
                    Bucket(
                        kind=BucketKind.DSI_DIRECTORY,
                        n_packets=cfg.packets_for(dir_bytes),
                        payload=directory,
                        meta={"frame_pos": pos},
                    )
                )
            else:
                self.directory_bucket.append(None)
            object_buckets: List[int] = []
            for obj in frame.objects:
                self.object_bucket[obj.oid] = len(buckets)
                object_buckets.append(len(buckets))
                buckets.append(
                    Bucket(
                        kind=BucketKind.DATA,
                        n_packets=cfg.object_packets,
                        payload=obj,
                        meta={"frame_pos": pos, "oid": obj.oid},
                    )
                )
            self.frame_object_buckets.append(object_buckets)

        reorg = f"-m{self.params.n_segments}" if self.params.n_segments > 1 else ""
        self.program = BroadcastProgram(buckets, name=f"dsi{reorg}-{self.dataset.name}")
        # Rank -> table-bucket id, precompiled once so the planners can rank
        # whole candidate sets with one fancy-indexing step (see
        # repro.broadcast.timeline and DsiAirView.table_buckets_of_ranks).
        self.table_bucket_by_rank = np.array(
            [self.table_bucket[self.pos_of_rank(r)] for r in range(len(self.frames))],
            dtype=np.int64,
        )
        self._air_view: Optional["DsiAirView"] = None

    def _directory_for(self, frame: DsiFrame) -> Optional[DsiDirectory]:
        if not self.params.use_directory or len(frame.objects) <= 1:
            return None
        records = tuple(
            DirectoryRecord(hc=obj.hc, slot=slot, oid=obj.oid)
            for slot, obj in enumerate(frame.objects)
        )
        return DsiDirectory(frame_pos=frame.broadcast_pos, records=records)

    # -- position <-> HC-rank arithmetic (also available to clients) ----------

    @property
    def n_frames(self) -> int:
        return self.layout.n_frames

    @property
    def n_segments(self) -> int:
        return self.params.n_segments

    def rank_of_pos(self, pos: int) -> int:
        """HC rank of the frame broadcast at position ``pos``."""
        m = self.params.n_segments
        seg_size = self.layout.n_frames // m
        return (pos % m) * seg_size + pos // m

    def pos_of_rank(self, rank: int) -> int:
        """Broadcast position of the frame with HC rank ``rank``."""
        m = self.params.n_segments
        seg_size = self.layout.n_frames // m
        return (rank % seg_size) * m + rank // seg_size

    # -- server-side lookups (ground truth / tests) ---------------------------

    def frame_rank_covering(self, hc: int) -> int:
        """HC rank of the frame whose extent covers ``hc`` (clamped at 0)."""
        lo, hi = 0, self.layout.n_frames - 1
        if hc < self.frames_by_rank[0].min_hc:
            return 0
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.frames_by_rank[mid].min_hc <= hc:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def frame_extent(self, rank: int) -> Tuple[int, int]:
        """Inclusive HC extent ``[min, max]`` assigned to the frame at ``rank``."""
        lo = self.frames_by_rank[rank].min_hc
        if rank + 1 < self.layout.n_frames:
            hi = self.frames_by_rank[rank + 1].min_hc - 1
        else:
            hi = self.curve.max_value - 1
        return lo, hi

    def air_view(self) -> "DsiAirView":
        """The client-visible face of this index (see :class:`DsiAirView`).

        Views are stateless, so one shared instance serves every query
        (fleet runs ask for thousands).
        """
        if self._air_view is None:
            self._air_view = DsiAirView(self)
        return self._air_view

    # -- uniform query interface (shared with the R-tree and HCI baselines) ---

    def window_query(self, window, session, state=None):
        """Run a window query through an existing :class:`ClientSession`.

        ``state`` optionally carries a continuous client's accumulated
        :class:`~repro.core.knowledge.ClientKnowledge` into the query (see
        :meth:`new_client_state`).
        """
        from .window import window_query as run

        return run(self.air_view(), session, window, knowledge=state)

    def knn_query(
        self, q: Point, k: int, session, strategy: str = "conservative",
        state=None,
    ):
        """Run a kNN query through an existing :class:`ClientSession`."""
        from .knn import knn_query as run

        return run(
            self.air_view(), session, q, k, strategy=strategy, knowledge=state
        )

    def new_client_state(self):
        """Warm-session state: an empty :class:`ClientKnowledge` a continuous
        client accumulates across queries (see :mod:`repro.mobility`)."""
        from .knowledge import ClientKnowledge

        return ClientKnowledge(
            self.layout.n_frames, self.params.n_segments, self.curve.max_value
        )

    def rank_object_arrays(self) -> RankObjects:
        """Flat rank-ordered object geometry (cached; see :class:`RankObjects`).

        Built once per index: the batched kNN fleet kernel compiles its
        per-query distance tables and per-frame visit loops against these
        arrays, so they live here next to the structures they flatten.
        """
        cached = getattr(self, "_rank_objects", None)
        if cached is None:
            n_frames = self.layout.n_frames
            flen = np.fromiter(
                (len(f.objects) for f in self.frames_by_rank),
                dtype=np.int64, count=n_frames,
            )
            obj_start = np.concatenate(([0], np.cumsum(flen)[:-1]))
            objects = tuple(o for f in self.frames_by_rank for o in f.objects)
            n = len(objects)
            hcs = np.fromiter((o.hc for o in objects), dtype=np.int64, count=n)
            oids = np.fromiter((o.oid for o in objects), dtype=np.int64, count=n)
            buckets = np.fromiter(
                (
                    b
                    for f in self.frames_by_rank
                    for b in self.frame_object_buckets[f.broadcast_pos]
                ),
                dtype=np.int64, count=n,
            )
            dir_bucket = np.fromiter(
                (
                    -1 if self.directory_bucket[f.broadcast_pos] is None
                    else self.directory_bucket[f.broadcast_pos]
                    for f in self.frames_by_rank
                ),
                dtype=np.int64, count=n_frames,
            )
            cached = RankObjects(
                flen=flen, obj_start=obj_start, hcs=hcs, oids=oids,
                buckets=buckets, dir_bucket=dir_bucket, objects=objects,
            )
            self._rank_objects = cached
        return cached

    def entry_landmark(self, view, position: int, switch_packets: int = 0):
        """First index-table read from ``position`` (fleet trace collapse).

        Mirrors exactly the seek a fresh :class:`ClientSession` performs in
        ``read_first_table`` -- ``read_next_bucket(kind=DSI_TABLE)`` from
        the home channel -- so executions sharing the returned
        ``(bucket, start)`` share their whole absolute trace.
        """
        home = getattr(view, "home_channel", None)
        if home is None:
            return view.next_occurrence_of_kind(BucketKind.DSI_TABLE, position)
        return view.next_occurrence_of_kind(
            BucketKind.DSI_TABLE, position,
            from_channel=home, switch_packets=switch_packets,
        )

    def describe(self) -> Dict[str, object]:
        """Small summary used by examples and reports."""
        return {
            "index": self.name,
            "dataset": self.dataset.name,
            "n_objects": len(self.dataset),
            "n_frames": self.layout.n_frames,
            "object_factor": self.layout.object_factor,
            "entries_per_table": self.layout.entries_per_table,
            "n_segments": self.params.n_segments,
            "cycle_packets": self.program.cycle_packets,
            "cycle_bytes": self.program.cycle_bytes(self.config.packet_capacity),
            "index_overhead": self.program.index_overhead_fraction(),
        }


class DsiAirView:
    """What a mobile client legitimately knows about a DSI broadcast.

    The query algorithms never touch the server-side frame contents; they
    only use (a) the system constants a real client would learn from the
    broadcast header -- number of frames, number of segments, curve order --
    and (b) the arithmetic that maps a frame's broadcast position to the
    bucket positions of its table, directory and data slots.
    Everything else must be obtained by paying for bucket reads through a
    :class:`~repro.broadcast.client.ClientSession`.
    """

    def __init__(self, index: DsiIndex) -> None:
        self._index = index
        self.config = index.config
        self.curve = index.curve
        self.n_frames = index.layout.n_frames
        self.n_segments = index.params.n_segments
        self.program = index.program

    # -- planner guards --------------------------------------------------------

    @property
    def window_guard(self) -> int:
        """How many table reads one window walk may take after its entry.

        Each read examines a new rank, so a walk needs at most ``n_frames``;
        the bound only stops a pathological schedule.  A walk that reaches
        it stops and flags its result (``WindowQueryResult.iterations_capped``);
        the fleet kernel declines instead.
        """
        return 8 * self.n_frames + 64

    @property
    def knn_guard(self) -> int:
        """How many frame choices one kNN search may take -- the kNN
        counterpart of :attr:`window_guard`, flagged as
        ``KnnQueryResult.iterations_capped``."""
        return 4 * self.n_frames + 256

    # -- position arithmetic ---------------------------------------------------

    def rank_of_pos(self, pos: int) -> int:
        return self._index.rank_of_pos(pos)

    def pos_of_rank(self, rank: int) -> int:
        return self._index.pos_of_rank(rank)

    # -- bucket addressing -----------------------------------------------------

    def table_bucket(self, frame_pos: int) -> int:
        return self._index.table_bucket[frame_pos]

    def table_buckets_of_ranks(self, ranks: np.ndarray) -> np.ndarray:
        """Table-bucket ids of many HC ranks at once (planner batch path)."""
        return self._index.table_bucket_by_rank[ranks]

    def directory_bucket(self, frame_pos: int) -> Optional[int]:
        return self._index.directory_bucket[frame_pos]

    def frame_object_buckets(self, frame_pos: int) -> List[int]:
        return list(self._index.frame_object_buckets[frame_pos])

    def object_bucket_in_frame(self, frame_pos: int, slot: int) -> int:
        return self._index.frame_object_buckets[frame_pos][slot]
