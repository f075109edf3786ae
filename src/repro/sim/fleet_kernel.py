"""Structure-of-arrays fleet kernels: lockstep DSI window, tree and DSI kNN
walks in numpy.

The one execution engine (:func:`repro.sim.fleet._run_executions`) hands
every fleet, journey fleet and workload replay over as *items* -- the
``(query, dwell_packets)`` steps one client walks: a stationary trial is a
one-step item, a journey one step per hop.
:func:`_simulate_items` runs every family's lanes.  It picks the walker of
the run's index family and query kind -- :class:`_Walker` (DSI windows),
:class:`_TreeWalker` (R-tree and HCI windows) or :class:`_KnnWalker` (DSI
kNN) -- and runs the session frame every client shares exactly once: the
loss tests, the lane collapse, the cold hop, the warm-hop loop (dwell,
re-armed probe, walk), the per-hop verification and the landmark shift of
latencies back to keys.  A walker contributes only its family's plans and
visit rule, behind one protocol:

* the constructor stacks the per-query plans, or declines (raises
  :class:`KernelUnsupported`) before compiling anything when the run lies
  outside its envelope;
* ``entry(nb)`` -- the entry airing a tune-in at clock ``nb`` reads first
  (the lane collapse's key);
* ``begin(lane_start, qrow, err)`` -- the cold hop: probe, entry read and
  walk for every lane;
* ``hop(qrow)`` -- one warm hop from the carried session;
* ``verify(qrow)`` -- per-lane correctness of the hop just walked;
* ``clock`` / ``tun`` -- the per-lane session clocks and tuning packets,
  which :func:`_simulate_items` advances between hops and reads at the
  end.

The geometries share one channel base (:class:`_Channel`: timeline, switch
cost, capacity, index channel and the switch-adjusted doze), and the two
DSI walkers share their master session, entry-table read and lane retire
(:class:`_DsiLanes`) and the table geometry (:class:`_Geometry`).

The reference path (:func:`repro.sim.fleet._simulate_item_batch`)
replays one full :class:`~repro.broadcast.client.ClientSession` per distinct
``(item, phase)`` execution.  At one channel the error-free *landmark
collapse* keeps that affordable (phases sharing their first index-table read
share one trace), but a striped multi-channel schedule keeps almost every
entry landmark distinct -- the control channel cycles many times per data
cycle -- so 4-channel fleets were paying thousands of full per-phase python
walks.  This module replaces the walk itself: all executions advance **in
lockstep** as flat per-lane arrays, one numpy hop at a time.

A *lane* is one distinct ``(query, entry-table occurrence)`` pair -- the
exact unit the landmark collapse proves shares an absolute trace, now valid
on striped schedules too because the entry occurrence is an absolute
``(bucket, start)`` pair, not a phase.  Per-lane state is exactly the state
the reference walk carries:

* ``clock`` / ``channel`` -- the session position (unwrapped packets) and
  the channel the radio is parked on;
* which frame *ranks* have a known minimum HC value (the knowledge a
  :class:`~repro.core.knowledge.ClientKnowledge` accumulates);
* which ranks this query has examined / has pending.

Three structural facts about DSI make the lockstep walk exact, not
approximate.  The index build guarantees the frame layout they rest on:
every frame is non-empty and every HC value lies in exactly one frame
(:func:`~repro.core.structure.check_frames`), so frame minima strictly
increase.  What each table teaches is checked at precompute, and the
kernel refuses -- falling back to the reference -- when that fails:

1. **Knowledge is a bitmask.**  Everything a table teaches is a true frame
   minimum (own rank, successor, entry targets, segment boundaries), so a
   client's knowledge is fully described by *which* ranks it knows -- the
   values are global constants.  What each table teaches is the static
   ``(F, F)`` boolean matrix ``learn``; absorbing a table is one row-OR.
2. **Candidacy is countable in rank space.**  With strictly increasing
   frame minima the frame extents partition the HC space, the pending set
   stays the disjoint union of the *pieces* (cover ∩ extent) of the
   unprocessed relevant ranks, and the reference's value-space candidate
   test reduces to: rank ``r`` is a candidate iff some pending rank lies
   in ``[B(r), A(r))``, where ``B``/``A`` are the nearest known ranks
   at/below and strictly above ``r`` (0 / ``F`` when none).  Every table
   teaches its own rank and the first rank of every DSI segment, so an
   examined rank is a segment start and no segment crosses a DSI segment:
   the candidates are the pending ranks' segments, less their examined
   starts.  The window walker keeps each pending rank's segment bounds per
   lane, exact across every read by an elementwise max/min against two
   static (table, rank) lookups (:class:`_Walker`).  The kNN walker, whose
   hits are cover sets, keeps each lane's known and examined frames as
   64-bit words in broadcast-position order: DSI segment ``s`` airs its
   rank ``s·S + t`` at position ``s + m·t``, so a known-rank segment is a
   run of positions with stride ``m``, and candidacy is a flood fill of
   ⌈log₂S⌉ doubling shift rounds from the cover's bits
   (:class:`_PositionBits`).
3. **Visit cost is static per (query, rank).**  Because extents are
   disjoint, the qualified objects of a relevant frame -- and therefore the
   exact bucket-read sequence of its visit (directory, then qualified data
   slots) -- depend only on the *initial* clamped cover, never on the order
   frames are processed in.  Visit sequences are compiled once per
   (index, query), and each call compiles every (query, relevant rank)
   visit once more into its timing (:class:`_Visits`).  A visit starts
   where its rank's table read ends, so its clock is known modulo the
   table channel's cycle; a read waits a static time whenever its
   bucket's channel cycle divides the modulus known at that point, and a
   *seek* -- a read whose cycle does not -- leaves the clock known modulo
   its own bucket's cycle when that bucket airs once per cycle.  So on one
   channel a visit is a per-(query, rank) constant, and on striped layouts
   one seek (the directory, on its frame group's data channel) plus
   constants.  A layout where a visit would seek twice, or seek a bucket
   airing more than once per cycle (multi-channel demand-optimized
   layouts), replays its visits per lane as occurrence arithmetic, the
   replay the compile runs and stops at the first read that needs it.

Per hop every live lane picks the earliest-arriving candidate table.  All
DSI tables air on one channel (the control channel when striped), each
once per cycle of that channel and in broadcast-position order: striping
moves data groups off that channel and the demand-aware optimizer
replicates data groups, never tables (:class:`_Geometry` declines any
other layout).  So arrival order is position order from the lane's next
position, and a candidate's wait is one modular difference.  Distinct
ranks air at distinct cycle offsets, so waits never tie and the
reference's lowest-rank tie-break stays vacuous.  Visits replay through
:meth:`~repro.broadcast.timeline.CompiledTimeline.next_occurrences`, whose
replicated branch takes the minimum over every copy of a directory or data
bucket.  A lane exits when its candidate set empties, which happens
exactly when all its relevant ranks are processed -- the reference loop's
termination condition.

**Link errors** (``scope="index"``, the experiments' default) vectorise
too: every execution owns the :class:`~repro.broadcast.errors.LinkErrorModel`
its reference run gets, and a model loses a read by a hash of its seed and
the read's start packet alone -- it keeps no stream -- so one vectorised
test decides any set of lanes' reads in any order
(:class:`~repro.broadcast.errors._Losses`).
Under the index scope only index-table reads can be lost (probes read no
bucket; directory and data buckets are out of scope).  The walker replays
the reference's retry rules: a lost entry read re-seeks the next table
airing (giving up, like the reference's ``RuntimeError``, after
``n_frames + 1`` attempts -- the kernel declines so the fallback reproduces
the error); a lost in-walk read chains to the *next broadcast position*'s
table until one lands (cap ``n_frames``).  Lost reads pay latency and
tuning but teach nothing, and because knowledge still only ever grows, the
candidacy argument above survives unchanged.  Error lanes are per
``(query, phase)`` -- distinct seeds, no dedup -- and diverge freely: the
retry chain advances each lane independently.

**Later hops** reuse the same hop engine with persistent lanes: the
knowledge bitmask and the parked channel survive across hops (exactly what
a warm session carries), while examined/processed reset per hop
(``begin_query``); the window walker keeps the dense bitmask only when a
later hop reads it.  Hop 1 runs the cold entry (probe + first table +
opportunistic entry processing); later hops advance the clock by the
step's dwell, pay the re-armed probe, and walk with the same global-minimum
clamp -- every table teaches rank 0 (``_Static`` declines indexes where one
does not), so the warm clamp equals the cold one and the per-hop precompute
is hop-invariant.  The hop-1 entry-landmark collapse carries over whole
items: lanes are ``(item, entry occurrence)`` pairs.

Latency is ``exit clock - tune-in``, summed over hops;
tuning accumulates *per phase* (identical within a lane: every phase of a
lane pays the same probe, table, directory and data packets).  Answers are
phase-independent (fact 3), so verification runs once per query.

**Tree indexes** (the R-tree-on-air and HCI baselines, both a
:class:`~repro.broadcast.treeair.TreeAirIndex`) run the same lockstep
discipline over a different structure: their one window sweep
(:meth:`~repro.broadcast.treeair.TreeOnAir.sweep`) keeps a *pending set*
of tree nodes and data objects and always reads the pending bucket that
arrives next.  The kernel compiles each
:class:`~repro.broadcast.treeair.TreeOnAir` into flat node tables (dense
node ids, padded per-node copy matrices, packet sizes) and each query into
its **qualifying subtree** -- the nodes and objects reachable from the root
through entries that intersect the window (R-tree MBRs) or its HC-range
cover (HCI intervals), computed with the same pruning rule the reference
sweeps under, the index's ``window_rule(window)``.  A ``None`` rule (HCI's
empty cover) reads nothing past the probe on both paths.  That set is
timing-independent: whichever order buckets arrive in, the sweep reads
exactly the reachable nodes and objects, because a successful node read
always expands the same children and a lost read leaves the node pending.
Each query's events (qualifying nodes in sorted id order, then objects in
sorted id order -- the reference's deterministic candidate order) carry a
padded copy-bucket matrix, a static child-adjacency matrix and a
root-expansion mask; a hop then advances every lane as a frontier sweep:
batched ``next_occurrences`` over all pending copies, masked argmin (first
minimum = the reference's tie-break), clear the landed event and OR in its
adjacency row.  Node reads are lost exactly like the reference's
(navigation kind, each lane's model key and the read's start); data reads
never are under the index scope.  Items with a second hop add a per-lane node-cache
bitmask: cached pending nodes are expanded for free to a fixpoint at the
top of every step, the vectorised counterpart of the reference sweep's
cache drain (the cascade is order-independent for window sweeps, which only union
pending sets).  One sweep reads each qualifying node once, so a one-step
item runs without the cache -- its drain scans would cost time and change
nothing.  The entry-landmark collapse keys on the first root-copy arrival --
exactly :meth:`TreeOnAir.entry_landmark` -- so lossless lanes dedup just
like DSI ones.

**kNN fleets** over DSI run the same lockstep discipline with compiled
per-query search plans.  All static geometry is decoded once per (index,
query point) -- every table value and directory record collapses to a
distance against a
flat rank-indexed object array (:meth:`DsiIndex.rank_object_arrays`), so
the planner's HC-keyed estimate/exact dictionaries become one int8
group-state row per lane (unseen, estimated, retrieved) and a retrieved
bitmask over object ids, both read against shared distance tables.
Each circle cover is compiled once per index into a knowledge-free
position bitset -- the positions of the ranks its pieces span -- memoized
on the circle's quantised cell rect, so repeated calls on one index reuse
it across queries, channel counts and strategies.  A lane's candidates are
the unexamined ranks whose known-rank segment ``[B(r), A(r))`` holds a
cover bit: fact 2's segment test with the cover in place of the
unprocessed relevant ranks, and the position-space image of
``candidate_rank_array``, run as a flood fill over the lane's known words
(:meth:`_PositionBits.candidates`); the nearest candidate is the lowest
set bit at or after the lane's next position, else the lowest one a cycle
later.  A walk keeps known and examined frames as words only, and unpacks
them to rank order just where the aggressive strategy narrows the lanes
still short of k and where a retiring lane's knowledge returns to the
dense mask a later hop reads.  The k-th-candidate
radius is kept, not recomputed: each lane holds its W smallest
candidates (all of them, inf-padded, when it has fewer) sorted in a row
W wide -- the run's largest k plus a few spares, at most one past the
object count -- and reads the radius as the row's k-th entry.  A new
value enters only at or below the row's last slot, its *frontier*; a
fetch that turns an estimate into its exact distance first drops one
equal copy of the estimate when that copy is at or below the frontier;
and a lane rebuilds its row from its masks only at a warm hop's seeding
or when such a drop lets nothing back in -- exact, because every
candidate outside the row lies at or above the frontier.  Frame
selection reproduces the scalar planner's tie-breaks bit-exactly (the
``aggressive`` strategy's distance-then-arrival order narrows the
candidates before the pick), and finished lanes compact out of the
working set.  Comparison distances stay scalar
``math.hypot`` -- the vectorised counterpart is not bit-equal -- so only
the representative-point decode batches.  Later kNN hops seed the
candidate set from the carried knowledge exactly like the planner's warm
start.

**Compile once per index.**  What a walker compiles depends only on the
index and each query's value, so it is compiled once and kept in one
bounded memo idiom (:func:`_memo`): the index holds its family's static
tables, keyed by their class; each static holds its per-query plans,
keyed by the query's value -- a window plan's relevant ranks, visit
sequences and answer, a tree window's qualifying subtree -- and the kNN
covers hold their position bitsets, keyed by quantised cells.  A kNN point's
distance rows depend only on the rank-ordered objects, so the dataset's
curve holds them once for every DSI index over that dataset
(:class:`_KnnRows`).  A call stacks the rows its queries need.  What depends
on anything else is read per call and never stored: the schedule's
timeline (geometry, and the packets and channel of a tree's object
events), each query's ``k`` and the verdict against the call's dataset.
The flat schedule and its timeline are built once per program and
channel count (:meth:`~repro.broadcast.schedule.BroadcastSchedule.
for_config`), so a repeated fleet call compiles nothing it compiled
before.

Everything matches the reference walk integer for integer;
``tests/test_fleet_kernel.py`` pins both against a brute-force per-phase
replay across indexes, schedules, error models and journeys.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..broadcast.errors import _Losses, _session_seed
from ..broadcast.program import BucketKind
from ..broadcast.timeline import timeline_of
from ..broadcast.treeair import TreeAirIndex, TreeOnAir
from ..core.knowledge import ClientKnowledge
from ..core.structure import DsiIndex
from ..queries.types import KnnQuery, WindowQuery
from ..spatial.hilbert import WINDOW_MAX_DEPTH, WINDOW_MAX_RANGES

__all__ = [
    "KernelUnsupported",
    "simulate_window_fleet",
    "simulate_window_journeys",
]


class KernelUnsupported(Exception):
    """The lane walkers cannot reproduce the reference walk for this run.

    Raised by :func:`_simulate_items` for items it has no walker for
    (unequal or empty steps, mixed window/kNN queries, window queries on an
    index type without a walker) and by a walker's constructor for runs
    outside its envelope: kNN trials on tree indexes, kNN runs with link
    errors or an unknown strategy, directory-less layouts, lossy scopes
    other than ``index``, or any precompute invariant the exactness
    argument relies on failing to hold.  A walk raises it where the
    reference raises or truncates: exhausted loss retries, or a walk past
    a planner guard (:attr:`~repro.core.structure.DsiAirView.window_guard`,
    :attr:`~repro.core.structure.DsiAirView.knn_guard`,
    :attr:`~repro.broadcast.treeair.TreeOnAir.sweep_guard`).  The fleet
    engine behind :func:`repro.sim.fleet.run_fleet` /
    :func:`repro.sim.fleet.run_mobile_fleet` catches it, falls back to the
    per-phase reference path and surfaces the message as
    ``backend_reason`` on the fleet result.
    """


#: Entries one kernel memo holds before it is emptied (the cap
#: ``repro.spatial.hilbert`` puts on its window-cover memo).
_MEMO_MAX = 8192

#: Attribute holding a host's kernel memo.
_MEMO_ATTR = "_kernel_memo"


def _memo(host: Any) -> Dict[Any, Any]:
    """The kernel memo on ``host``, emptied on entry once it holds
    ``_MEMO_MAX`` entries.

    Every memo the walkers keep is one of these dicts, one per host: an
    index holds its per-family statics, keyed by their class; a static
    holds its family's per-query plans, keyed by the query's value (a
    window's rect); a dataset's curve holds the kNN distance rows of each
    rank-ordered object set (:class:`_KnnRows`), which hold them keyed by
    the query point; the kNN covers hold their bitset ids, keyed by
    quantised cells.  A host and its keys are immutable, so an
    entry never goes stale; what else a run's arrays depend on -- the
    schedule's timeline, ``k``, the dataset a verdict is checked against
    -- is read per call and never stored.  A reset drops the memo's
    references only: a value a walker already holds stays valid.
    """
    memo = getattr(host, _MEMO_ATTR, None)
    if memo is None:
        memo = {}
        setattr(host, _MEMO_ATTR, memo)
    elif len(memo) >= _MEMO_MAX:
        memo.clear()
    return memo


def _memoized(host: Any, key: Any, build: Callable[..., Any], *args: Any) -> Any:
    """``host``'s memo entry for ``key``, ``build(*args)`` on a miss."""
    memo = _memo(host)
    value = memo.get(key)
    if value is None:
        value = memo[key] = build(*args)
    return value


class _Static:
    """Per-index constants: frame minima, extents, the learn matrix and its
    segment-bound tables.

    ``learn[t]`` is what table ``t`` teaches.  Every table must teach its
    own rank and the first rank of every DSI segment (``seg_size`` ranks
    each, ``n_segments`` of them); the constructor declines an index where
    one does not.  Then rank 0 is known after any first table read,
    examined ranks are known, and no known-rank segment crosses a DSI
    segment.  ``prev_taught[t, p]`` / ``next_taught[t, p]`` are the
    largest rank ``<= p`` / smallest rank ``> p`` that table ``t`` teaches
    (``n_frames`` when none), in ``rdt``, the smallest integer dtype that
    holds twice the frame count.  Knowledge only grows by OR-ing learn
    rows, so a walker keeps the bounds ``[B, A)`` of the segment holding
    rank ``p`` exact across a read of table ``t`` with one elementwise
    ``max(B, prev_taught[t, p])`` and ``min(A, next_taught[t, p])``.
    """

    __slots__ = ("n_frames", "n_segments", "seg_size", "mins", "ext_lo",
                 "ext_hi", "learn", "pos_of_rank", "rdt", "prev_taught",
                 "next_taught", _MEMO_ATTR)

    def __init__(self, index: DsiIndex) -> None:
        n_frames = index.n_frames
        mins = np.fromiter(
            (f.min_hc for f in index.frames_by_rank), dtype=np.int64, count=n_frames
        )
        hc_space = index.curve.max_value
        ext_lo = mins.copy()
        ext_lo[0] = 0
        ext_hi = np.empty(n_frames, dtype=np.int64)
        ext_hi[:-1] = mins[1:] - 1
        ext_hi[n_frames - 1] = hc_space - 1

        pos_of_rank = np.fromiter(
            (index.pos_of_rank(r) for r in range(n_frames)),
            dtype=np.int64,
            count=n_frames,
        )
        # What each table teaches, as a (reader-rank, taught-rank) matrix.
        # table_pairs is the very unpacking ClientKnowledge.learn_table
        # performs, so the row-OR below absorbs a table exactly like the
        # reference session does.
        knowledge = ClientKnowledge(n_frames, index.params.n_segments, hc_space)
        learn = np.zeros((n_frames, n_frames), dtype=bool)
        for rank in range(n_frames):
            table = index.tables[int(pos_of_rank[rank])]
            for taught, value in knowledge.table_pairs(table):
                if value != mins[taught]:
                    raise KernelUnsupported(
                        "table teaches a value that is not the frame minimum"
                    )
                learn[rank, taught] = True
        m = index.params.n_segments
        seg_size = n_frames // m
        for seg in range(m):
            # Rank 0 known after the first table read is what lets warm
            # hops share the cold clamp and kNN covers test candidacy by
            # known-rank segments; every segment start known keeps each
            # known-rank segment inside one DSI segment.
            if not learn[:, seg * seg_size].all():
                raise KernelUnsupported(
                    f"a table does not teach rank {seg * seg_size}, the first "
                    f"rank of DSI segment {seg}"
                )
        if not learn.diagonal().all():
            # A table read marks its rank examined; a known examined rank
            # is a segment start, never inside a segment.
            raise KernelUnsupported("a table does not teach its own rank")

        rdt = np.int16 if 2 * n_frames < np.iinfo(np.int16).max else np.int32
        self.prev_taught, self.next_taught = _rank_bounds(learn, rdt)

        self.n_frames = n_frames
        self.n_segments = m
        self.seg_size = seg_size
        self.mins = mins
        self.ext_lo = ext_lo
        self.ext_hi = ext_hi
        self.learn = learn
        self.pos_of_rank = pos_of_rank
        self.rdt = rdt


def _rank_bounds(mask: np.ndarray, rdt: Any) -> Tuple[np.ndarray, np.ndarray]:
    """For each row of a ``(rows, F)`` rank mask and each rank ``p``: the
    largest set rank ``<= p`` (0 when none) and the smallest set rank
    ``> p`` (``F`` when none), as two ``(rows, F)`` arrays of ``rdt``."""
    n_frames = mask.shape[1]
    ranks = np.arange(n_frames, dtype=rdt)
    below = np.maximum.accumulate(np.where(mask, ranks, rdt(0)), axis=1)
    above = np.full(mask.shape, n_frames, dtype=rdt)
    above[:, :-1] = np.minimum.accumulate(
        np.where(mask, ranks, rdt(n_frames))[:, :0:-1], axis=1
    )[:, ::-1]
    return below, above


def _static_of(index: Any) -> _Static:
    if not isinstance(index, DsiIndex):
        raise KernelUnsupported("the SoA kernel handles DSI indexes only")
    if not index.params.use_directory:
        raise KernelUnsupported("directory-less frames take the scan path")
    return _memoized(index, _Static, _Static, index)


def _rank_relevance(
    static: _Static, p_los: np.ndarray, p_his: np.ndarray
) -> np.ndarray:
    """Which ranks the reference's ``overlaps_pending`` accepts (bool (F,)).

    Pending ranges are sorted and disjoint, so extent ``[lo, hi]`` overlaps
    exactly when some range starts at or before ``hi`` and the last such
    range reaches ``lo`` -- the same one-bisect test, batched over ranks.
    """
    j = np.searchsorted(p_los, static.ext_hi, side="right")
    hit = j > 0
    reach = p_his[np.maximum(j - 1, 0)] >= static.ext_lo
    return hit & reach


#: Bits per bitset word.
_WORD = 64


def _shift_up(x: np.ndarray, d: int) -> np.ndarray:
    """``(words, lanes)`` bitsets moved ``d`` positions up: bit ``p`` of
    the result is bit ``p - d`` of ``x``, carried across words."""
    q, r = divmod(d, _WORD)
    n = len(x)
    out = np.empty_like(x)
    out[: min(q, n)] = 0
    if q < n:
        np.left_shift(x[: n - q], np.uint64(r), out=out[q:])
        if r and q + 1 < n:
            out[q + 1:] |= x[: n - q - 1] >> np.uint64(_WORD - r)
    return out


def _shift_down(x: np.ndarray, d: int) -> np.ndarray:
    """``(words, lanes)`` bitsets moved ``d`` positions down: bit ``p`` of
    the result is bit ``p + d`` of ``x``, carried across words."""
    q, r = divmod(d, _WORD)
    n = len(x)
    out = np.empty_like(x)
    out[max(n - q, 0):] = 0
    if q < n:
        np.right_shift(x[q:], np.uint64(r), out=out[: n - q])
        if r and q + 1 < n:
            out[: n - q - 1] |= x[q + 1:] << np.uint64(_WORD - r)
    return out


class _PositionBits:
    """Bitsets over one index's broadcast positions, for the kNN lanes.

    A set of positions is a ``(words, lanes)`` uint64 array, word-major:
    bit ``p % 64`` of word ``p // 64`` stands for position ``p``, and the
    bits past ``F`` stay clear.  :class:`_Static` guarantees that every
    table teaches every DSI-segment start, and DSI segment ``s`` airs its
    rank ``s·S + t`` at position ``s + m·t``, so a known-rank segment
    ``[B(r), A(r))`` is a run of positions with stride ``m`` that starts at
    a known position and ends before the next one.  Fact 2's candidacy --
    the unexamined ranks of the segments that hold a hit -- is then a flood
    fill from the hit bits, upward through unknown positions and downward
    until a known one, in ``rounds`` = ⌈log₂S⌉ doubling rounds of shifts by
    ``m``, ``2m``, ``4m``, ... (:meth:`candidates`).  Tables air in
    position order, so the nearest read is a lowest-set-bit pick
    (:meth:`first_set`).  Two static tables serve the pick and the
    examined mark: column ``p`` of ``ahead`` holds the positions ``p`` and
    up, column ``p`` of ``one`` position ``p`` alone.
    """

    __slots__ = ("n_frames", "words", "m", "rounds", "tail", "ahead", "one",
                 "key_base")

    def __init__(self, n_frames: int, n_segments: int) -> None:
        self.n_frames = n_frames
        self.words = -(-n_frames // _WORD)
        self.m = n_segments
        self.rounds = (n_frames // n_segments - 1).bit_length()
        # The last word's bits below F.
        self.tail = np.uint64(0xFFFFFFFFFFFFFFFF) >> np.uint64(
            _WORD * self.words - n_frames
        )
        positions = np.arange(n_frames + 1)
        self.ahead = self.pack(positions[None, :-1] >= positions[:, None])
        self.one = self.ahead[:, :-1] & ~self.ahead[:, 1:]
        self.key_base = _WORD * np.arange(2 * self.words)[:, None]

    def pack(self, rows: np.ndarray) -> np.ndarray:
        """Boolean ``(lanes, F)`` position rows as ``(words, lanes)``
        bitsets."""
        packed = np.zeros((len(rows), 8 * self.words), dtype=np.uint8)
        packed[:, : -(-self.n_frames // 8)] = np.packbits(rows, axis=1, bitorder="little")
        return np.ascontiguousarray(packed.view("<u8").T, dtype=np.uint64)

    def unpack(self, bits: np.ndarray) -> np.ndarray:
        """``(words, lanes)`` bitsets as boolean ``(lanes, F)`` position
        rows."""
        raw = np.ascontiguousarray(bits.T, dtype="<u8").view(np.uint8)
        return np.unpackbits(
            raw, axis=1, count=self.n_frames, bitorder="little"
        ).view(bool)

    def candidates(
        self, hit: np.ndarray, known: np.ndarray, examined: np.ndarray
    ) -> np.ndarray:
        """The unexamined positions whose known-rank segment holds a
        ``hit`` position.

        A round with shift ``d`` reads the gate ``G_d``: position ``p`` and
        the ``d/m - 1`` positions below it on its stride are unknown.  The
        upward fill enters ``p`` from ``p - d`` where ``G_d(p)``; the
        downward fill enters ``p`` from ``p + d`` where ``G_d(p + d)``, so
        it passes every unknown position and stops on the segment's known
        start.  ``G_2d = G_d & (G_d << d)``, and once a gate is empty no
        run of unknown positions is long enough to extend, so the later
        rounds are skipped.  The bits past ``F`` count as known."""
        gate = ~known
        gate[-1] &= self.tail
        up = down = hit
        d = self.m
        for _ in range(self.rounds):
            step = _shift_up(up, d)
            step &= gate
            step |= up
            up = step
            step = _shift_down(gate & down, d)
            step |= down
            down = step
            gate &= _shift_up(gate, d)
            d *= 2
            if not gate.any():
                break
        cand = up | down
        cand &= ~examined
        return cand

    def first_set(self, bits: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Per lane (column) of ``bits``, which holds a position: the
        lowest position at or after ``pos``, else the lowest one.

        Each word of ``bits`` cut to ``pos`` and up, then each whole word,
        is keyed ``64 · (its row) + its trailing zeros`` -- an empty word
        past every other key -- so the least key names the position."""
        words = len(bits)
        both = np.empty((2 * words, bits.shape[1]), dtype=np.uint64)
        np.bitwise_and(bits, self.ahead.take(pos, axis=1), out=both[:words])
        both[words:] = bits
        low = both & (~both + np.uint64(1))
        # A power of two converts to float64 exactly, and frexp reads its
        # exponent, one past its bit; an empty word's -1 masks to 2**31 - 1.
        key = np.frexp(low.astype(np.float64))[1] - 1
        key &= 0x7FFFFFFF
        return (key + self.key_base).min(axis=0) % (_WORD * words)

    def mark(self, bits: np.ndarray, pos: np.ndarray) -> None:
        """Set position ``pos[i]`` in lane ``i`` of ``bits``."""
        bits |= self.one.take(pos, axis=1)


def _qualified_mask(hcs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Membership of HC values in sorted disjoint inclusive ranges (parity
    test, same as ``repro.core.visit._qualified_record_indexes``)."""
    flat = (bounds + np.array([0, 1], dtype=np.int64)).ravel()
    return (np.searchsorted(flat, hcs, side="right") & 1) == 1


class _Channel:
    """The channel facts every walker's geometry carries, and the doze.

    ``ctrl`` is the channel the family's index structure airs on (the
    clients' home channel); ``switch`` is the retune cost, charged only on
    multi-channel schedules.
    """

    __slots__ = ("timeline", "switch", "capacity", "ctrl")

    def __init__(self, config: Any, timeline, ctrl: int) -> None:
        self.timeline = timeline
        self.switch = (
            int(getattr(config, "channel_switch_packets", 0))
            if timeline.n_channels > 1
            else 0
        )
        self.capacity = int(config.packet_capacity)
        self.ctrl = int(ctrl)

    def doze(self, cl: np.ndarray, ch: np.ndarray, to: Any) -> np.ndarray:
        """Earliest receive clock on channel ``to`` for a radio parked on
        ``ch`` at ``cl``: the switch cost where it retunes.  With no switch
        cost it returns ``cl`` itself and does no array work, so callers
        never write to the result."""
        if self.switch:
            return cl + self.switch * (ch != to)
        return cl


class _Geometry(_Channel):
    """Compiled channel geometry of one (index, schedule view) pair.

    Verifies the layout facts the lockstep walk relies on: all index
    tables air on the clients' home channel, each exactly once per cycle
    of that channel and in broadcast-position order.  Every layout the
    library builds does -- striping moves data groups off the table
    channel and the demand-aware optimizer replicates data groups only --
    and a layout that does not is declined.  So ``starts[p]``, the cycle
    offset of position ``p``'s table, ascends with ``p``: the entry
    kind-seek is one ``searchsorted`` and the table airing next after a
    clock is the next position.  ``occ_rank`` is each rank's one offset,
    for the table reads and the error retry chain.
    """

    __slots__ = (
        "cc", "starts", "occ_rank", "pk_of_rank", "rank_of_pos", "bchan", "bpk",
    )

    def __init__(self, static: _Static, index: Any, config: Any, timeline) -> None:
        tables = timeline._kind_tables.get(BucketKind.DSI_TABLE)
        if not tables or len(tables) != 1:
            raise KernelUnsupported("index tables must air on exactly one channel")
        kt = tables[0]
        if kt.channel != timeline.home_channel:
            raise KernelUnsupported("tables must air on the clients' home channel")
        n_frames = static.n_frames
        if not np.array_equal(
            timeline.bucket_frame[kt.bucket_ids], np.arange(n_frames)
        ):
            raise KernelUnsupported(
                "index tables must air once per cycle, in broadcast-position order"
            )
        super().__init__(config, timeline, kt.channel)
        self.cc = int(kt.cycle)  # the table channel's cycle
        self.starts = kt.starts
        rank_of_pos = np.empty(n_frames, dtype=np.int64)
        rank_of_pos[static.pos_of_rank] = np.arange(n_frames)
        self.rank_of_pos = rank_of_pos
        self.occ_rank = kt.starts[static.pos_of_rank]
        self.pk_of_rank = timeline.bucket_packets[kt.bucket_ids[static.pos_of_rank]]
        self.bchan = timeline.bucket_channel
        self.bpk = timeline.bucket_packets

    def next_position(self, nb: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(off, pos)``: the within-cycle offset of each clock in ``nb``
        and the first broadcast position whose table airs at/after it in
        this cycle (``n_frames`` when none does)."""
        off = nb - (nb // self.cc) * self.cc
        return off, np.searchsorted(self.starts, off, side="left")

    def entry_seek(self, nb: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """First table airing at/after ``nb``: ``(start, rank)`` arrays --
        the kind-seek the reference's ``read_first_table`` performs."""
        off, pos = self.next_position(nb)
        wrap = pos == len(self.starts)
        pos = np.where(wrap, 0, pos)
        start = nb - off + self.starts[pos] + wrap * self.cc
        return start, self.rank_of_pos[pos]

    def wait_rows(self, nb: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Packets from absolute clocks ``nb`` to the airing of ``ranks``."""
        return (self.occ_rank[ranks] - nb) % self.cc

    def read(
        self, nb: np.ndarray, off: np.ndarray, ranks: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Read the tables of ``ranks`` from clocks ``nb`` (within-cycle
        offsets ``off``, both on the table channel): ``(clock, packets)``
        after each read."""
        wait = self.occ_rank[ranks] - off
        wait += self.cc * (wait < 0)
        pk = self.pk_of_rank[ranks]
        return nb + wait + pk, pk

    def read_earliest(
        self, cl: np.ndarray, ch: np.ndarray, cand: np.ndarray, tn: np.ndarray,
        pbits: _PositionBits,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Doze to each lane's earliest-arriving ``cand`` table (position
        bitsets of ``pbits``) and read it.

        Tables air in position order, so that is the lowest candidate bit
        at or after the next position (:meth:`next_position`), else the
        lowest one a cycle later (:meth:`_PositionBits.first_set`).
        Distinct ranks air at distinct positions, so arrivals never tie and
        the reference's lowest-rank tie-break stays vacuous.  Returns ``(position, rank,
        clock, channel, tuning)`` after the read.
        """
        nb = self.doze(cl, ch, self.ctrl)
        off, pos = self.next_position(nb)
        first = pbits.first_set(cand, pos)
        chosen = self.rank_of_pos[first]
        cl, pk = self.read(nb, off, chosen)
        return (first, chosen, cl, np.full(len(chosen), self.ctrl, dtype=np.int64),
                tn + pk)


def _index_scope(scope: Optional[str]) -> None:
    """Decline a lossy scope other than ``index``: it loses buckets the
    window walkers' visit replay does not model losing."""
    if scope not in (None, "index"):
        raise KernelUnsupported(f"error scope {scope!r} takes the reference path")


def _tune_in(
    lane_start: np.ndarray, ctrl: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cold sessions right after the initial probe: ``(clock, chan, tun)``."""
    n = len(lane_start)
    return lane_start + 1, np.full(n, ctrl, dtype=np.int64), np.ones(n, dtype=np.int64)


class _WindowPlan:
    """One window's compiled walk over one DSI index: its relevant ranks
    (ascending), the bucket sequence each one's visit reads (``vseq``,
    ``vlen[i]`` buckets for ``ranks[i]``) and the objects the walk
    answers."""

    __slots__ = ("ranks", "vlen", "vseq", "answer")


def _window_plan(static: _Static, index: Any, window: Any) -> _WindowPlan:
    """Compile one window's plan (the memo entry behind
    :func:`_precompute_queries`): the reference's clamped cover, its
    ``overlaps_pending`` ranks and each relevant frame's visit."""
    cover = index.curve.ranges_for_rect(
        window, max_ranges=WINDOW_MAX_RANGES, max_depth=WINDOW_MAX_DEPTH
    )
    gmin = int(static.mins[0])
    pending = [(max(lo, gmin), hi) for lo, hi in cover if hi >= gmin]
    ranks: List[int] = []
    vlen: List[int] = []
    vseq: List[int] = []
    objs: List[Any] = []
    if pending:
        bounds = np.asarray(pending, dtype=np.int64).reshape(-1, 2)
        p_los = np.ascontiguousarray(bounds[:, 0])
        p_his = np.ascontiguousarray(bounds[:, 1])
        ranks = np.flatnonzero(_rank_relevance(static, p_los, p_his)).tolist()
        for rank in ranks:
            frame = index.frames_by_rank[rank]
            pos = frame.broadcast_pos
            directory = index.directory_bucket[pos]
            object_buckets = index.frame_object_buckets[pos]
            hcs = np.fromiter(
                (o.hc for o in frame.objects),
                dtype=np.int64,
                count=len(frame.objects),
            )
            inside = _qualified_mask(hcs, bounds)
            if directory is None:
                # use_directory=True means None <=> a single object: the
                # scan path reads it unconditionally, retrieves on match.
                seq = [object_buckets[0]]
                if inside[0]:
                    objs.append(frame.objects[0])
            else:
                slots = np.flatnonzero(inside).tolist()
                seq = [directory] + [object_buckets[s] for s in slots]
                objs.extend(frame.objects[s] for s in slots)
            vlen.append(len(seq))
            vseq.extend(seq)
    plan = _WindowPlan()
    plan.ranks = np.asarray(ranks, dtype=np.int64)
    plan.vlen = np.asarray(vlen, dtype=np.int64)
    plan.vseq = np.asarray(vseq, dtype=np.int64)
    plan.answer = [o for o in objs if window.contains_point(o.point)]
    return plan


def _verdicts(
    queries: Sequence[Any], answers: Sequence[Any], verify: bool, dataset: Any
) -> np.ndarray:
    """Whether each query's answer matches ground truth over ``dataset``
    (0/1 per query; -1 each when not verifying).  Never memoised: the
    dataset is the call's."""
    if not verify:
        return np.full(len(queries), -1, dtype=np.int64)
    from ..queries.ground_truth import answer, matches_truth

    return np.fromiter(
        (int(matches_truth(q, answer(dataset, q), a)) for q, a in zip(queries, answers)),
        dtype=np.int64, count=len(queries),
    )


def _precompute_queries(
    static: _Static, index: Any, queries: Sequence[WindowQuery], verify: bool,
    dataset: Any,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-query relevance masks, visit sequences and (optional) verdicts,
    stacked from each window's memoised :class:`_WindowPlan`.

    Returns ``(rel, pair, vlen, voff, vflat, correct)``: the relevant-rank
    mask; the id of each relevant (query, rank) *pair* (-1 elsewhere), in
    row-major order; per pair, the length and offset of its visit bucket
    sequence in the flat ``vflat``; and the verification verdict per query
    (-1 when not verifying).
    """
    plans = [_memoized(static, q.window, _window_plan, static, index, q.window)
             for q in queries]
    n_q = len(plans)
    at = (np.repeat(np.arange(n_q), [len(p.ranks) for p in plans]),
          np.concatenate([p.ranks for p in plans]))
    vlen = np.concatenate([p.vlen for p in plans])
    rel = np.zeros((n_q, static.n_frames), dtype=bool)
    rel[at] = True
    pair = np.full(rel.shape, -1, dtype=np.int64)
    pair[at] = np.arange(len(vlen))
    correct = _verdicts(queries, [p.answer for p in plans], verify, dataset)
    return (rel, pair, vlen, np.cumsum(vlen) - vlen,
            np.concatenate([p.vseq for p in plans]), correct)


class _Visits:
    """The frame visits of a call's relevant (query, rank) pairs: each
    pair's bucket sequence, ``vflat[voff[p]:][:vlen[p]]``, and -- when the
    layout allows -- its compiled form.

    A visit starts where its rank's table read ends, parked on the table
    channel, so its clock is known modulo that channel's cycle ``cc``.  A
    read's wait depends only on its doze-adjusted clock modulo its
    bucket's channel cycle, so it is static whenever that cycle divides
    the modulus known at that point; a read whose cycle does not is a
    *seek*.  After a seek on a bucket that airs once per cycle the clock
    is known modulo that bucket's cycle instead.  The compile replays
    every pair once from its table-end offset (``occ_rank + pk_of_rank``)
    and records a static prefix ``pre`` up to the seek's doze (the whole
    visit when there is none), the seek bucket (-1 when none), the static
    ``post`` from the seek's airing on, the packets ``paid`` and the final
    channel ``fch``.  A visit then costs gathers plus, where it seeks, one
    ``next_occurrences``.  On one channel no read seeks; on striped layouts
    a visit's first read on its data channel does, the directory whose
    frame group travels with it (``control_and_groups``).  A layout where
    some visit would seek twice, or seek a bucket airing more than once
    per cycle (multi-channel demand-optimized layouts), keeps the per-lane
    replay, the same code the compile runs; the compile stops at the first
    read that needs it, so such a layout pays for the bucket positions up
    to that read only.
    """

    __slots__ = ("geo", "vlen", "voff", "vflat", "pre", "seek", "post",
                 "paid", "fch")

    def __init__(self, geo: _Geometry, ranks: np.ndarray, vlen: np.ndarray,
                 voff: np.ndarray, vflat: np.ndarray) -> None:
        self.geo = geo
        self.vlen, self.voff, self.vflat = vlen, voff, vflat
        self.pre = self.seek = self.post = self.paid = self.fch = None
        self._compile(ranks)

    def _replay(
        self, clock: np.ndarray, chan: np.ndarray, pairs: np.ndarray,
        seen: Optional[Callable[..., bool]] = None,
    ) -> Optional[np.ndarray]:
        """Replay the visits of ``pairs`` bucket by bucket from ``clock`` /
        ``chan`` (advanced in place) and return the packets each paid;
        ``seen(on, b, nb, start)`` is told every bucket position's reads
        and stops the replay, which then returns None, by returning True.
        Visits read directory and data buckets only, which the index error
        scope never loses, so the lossless and error paths share this
        replay."""
        geo = self.geo
        timeline = geo.timeline
        lengths = self.vlen[pairs]
        offsets = self.voff[pairs]
        paid = np.zeros(len(pairs), dtype=np.int64)
        for i in range(int(lengths.max(initial=0))):
            on = lengths > i
            b = self.vflat[offsets[on] + i]
            ch = geo.bchan[b]
            nb = geo.doze(clock[on], chan[on], ch)
            # next_occurrences handles replicated buckets (min over copies).
            start = timeline.next_occurrences(b, nb)
            if seen is not None and seen(on, b, nb, start):
                return None
            clock[on] = start + geo.bpk[b]
            chan[on] = ch
            paid[on] += geo.bpk[b]
        return paid

    def _compile(self, ranks: np.ndarray) -> None:
        """Compile every pair's visit (``ranks[p]`` is pair ``p``'s rank),
        or leave the replay in place at the first read that needs it."""
        geo = self.geo
        timeline = geo.timeline
        copies = timeline._occ_offsets
        n = len(ranks)
        begin = geo.occ_rank[ranks] + geo.pk_of_rank[ranks]
        modulus = np.full(n, geo.cc, dtype=np.int64)
        seek = np.full(n, -1, dtype=np.int64)
        doze = np.zeros(n, dtype=np.int64)
        airing = np.zeros(n, dtype=np.int64)

        def seen(on, b, nb, start) -> bool:
            cycle = timeline.bucket_cycle[b]
            moving = modulus[on] % cycle != 0
            if not moving.any():
                return False
            at = np.flatnonzero(on)[moving]
            b, cycle = b[moving], cycle[moving]
            # The compiled form holds one seek, after which the clock is
            # known modulo its bucket's cycle: a second seek, or a seek
            # bucket airing more than once per cycle, needs the replay.
            twice = bool((seek[at] >= 0).any())
            replicated = copies is not None and bool((copies[b] != copies[b, :1]).any())
            if twice or replicated:
                return True
            seek[at] = b
            doze[at] = nb[moving]
            airing[at] = start[moving]
            modulus[at] = cycle
            return False

        clock = begin.copy()
        chan = np.full(n, geo.ctrl, dtype=np.int64)
        paid = self._replay(clock, chan, np.arange(n), seen)
        if paid is None:
            return
        self.pre = np.where(seek >= 0, doze, clock) - begin
        self.seek = seek
        self.post = clock - airing
        self.paid = paid
        self.fch = chan

    def apply(self, clock: np.ndarray, chan: np.ndarray, tun: np.ndarray,
              rows: np.ndarray, pairs: np.ndarray) -> None:
        """Advance ``rows`` of the session arrays through the visits of
        ``pairs`` (one each), each starting where its table read ended."""
        if self.pre is None:
            cl, ch = clock[rows], chan[rows]
            tun[rows] += self._replay(cl, ch, pairs)
            clock[rows] = cl
            chan[rows] = ch
            return
        cl = clock[rows] + self.pre[pairs]
        b = self.seek[pairs]
        at = np.flatnonzero(b >= 0)
        cl[at] = (self.geo.timeline.next_occurrences(b[at], cl[at])
                  + self.post[pairs[at]])
        clock[rows] = cl
        chan[rows] = self.fch[pairs]
        tun[rows] += self.paid[pairs]


class _DsiLanes:
    """What the DSI window and kNN walkers share: the per-lane master
    session and the table reads on it.

    The master arrays (``clock`` / ``chan`` / ``tun`` / ``know``) always
    hold every lane's session state.  A walk compacts them to the live
    lanes and :meth:`_retire` scatters each lane back as it leaves, so a
    later hop starts from the carried session and :func:`_simulate_items`
    reads the final clocks off the masters.  ``know``, the dense known-rank
    mask, is ``None`` for a walker whose items have one step: no later hop
    reads it.
    """

    def entry(self, nb: np.ndarray) -> np.ndarray:
        """The lane collapse's entry airing: the first table at/after ``nb``."""
        return self.geo.entry_seek(nb)[0]

    def _start(self, lane_start: np.ndarray, dense: bool = True) -> None:
        self.clock, self.chan, self.tun = _tune_in(lane_start, self.geo.ctrl)
        self.know = (
            np.zeros((len(lane_start), self.static.n_frames), dtype=bool)
            if dense else None
        )

    def _read_entry(self, err: Optional[_Losses]) -> np.ndarray:
        """The first index-table read after the probe (the reference's
        ``read_first_table`` kind-seek), with loss retries; every lane
        learns its table.  Returns each lane's entry rank."""
        geo, st = self.geo, self.static
        rank0 = np.zeros(len(self.clock), dtype=np.int64)
        pend = np.arange(len(self.clock))
        attempts = 0
        while len(pend):
            start, r = geo.entry_seek(self.clock[pend])
            pk = geo.pk_of_rank[r]
            self.clock[pend] = start + pk
            self.tun[pend] += pk
            ok = np.ones(len(pend), dtype=bool) if err is None else ~err.lost(pend, start)
            rank0[pend[ok]] = r[ok]
            if self.know is not None:
                self.know[pend[ok]] |= st.learn[r[ok]]
            pend = pend[~ok]
            attempts += 1
            if len(pend) and attempts > st.n_frames + 1:
                # The reference raises RuntimeError here; decline so the
                # fallback path reproduces it.
                raise KernelUnsupported("entry-table retries exhausted")
        return rank0

    def _retire(
        self, idx: np.ndarray, live: np.ndarray, cl: np.ndarray, ch: np.ndarray,
        tn: np.ndarray, kn: np.ndarray,
    ) -> None:
        """Write the session of working rows leaving a walk (``~live``) back
        to their lanes ``idx`` in the master arrays."""
        done = ~live
        ids = idx[done]
        self.clock[ids] = cl[done]
        self.chan[ids] = ch[done]
        self.tun[ids] = tn[done]
        if kn is not None:
            self.know[ids] = kn[done]


class _SlotLanes:
    """One working block of window lanes.

    Per lane: lane id ``idx``, session (``cl``/``ch``/``tn``), query row
    ``qr`` and, when a later hop reads it, the dense known mask ``kn``.
    Per (slot, lane), slot-major so that every reduction over a lane's
    slots is elementwise over lanes: the slot's rank ``rank`` and the
    bounds ``[lo, hi)`` of its candidates.  A slot that is settled --
    processed, or padding -- holds ``lo = F, hi = 0``.
    """

    __slots__ = ("idx", "cl", "ch", "tn", "qr", "kn", "rank", "lo", "hi")

    def compact(self, keep: np.ndarray) -> None:
        """Keep the lanes ``keep`` (ascending positions)."""
        for f in ("idx", "cl", "ch", "tn", "qr", "kn"):
            value = getattr(self, f)
            if value is not None:
                setattr(self, f, value[keep])
        for f in ("rank", "lo", "hi"):
            setattr(self, f, getattr(self, f).take(keep, axis=1))


class _Walker(_DsiLanes):
    """The DSI window walker: per-(query, rank) frame visits
    (:class:`_Visits`) applied over per-lane *pending slots*.

    A query's slots are its relevant ranks, padded to the run's largest
    relevant count (``slot_rank``; ``slot_on`` marks the real ones).  While
    slot rank ``p`` is pending (relevant, not yet processed) a lane keeps
    the known-rank segment ``[B, A)`` holding it as ``lo`` -- ``B``, or
    ``B + 1`` once ``B`` is examined -- and ``hi = A``.  The reference's
    candidates are the unexamined ranks of the segments that hold a
    pending rank, and an examined rank is known, so a segment start: the
    candidates are exactly the union of the pending slots' ``[lo, hi)``.
    Built tables also teach their successor, so there an examined rank's
    segment holds no other rank and the ``+ 1`` never changes a pick; it
    keeps the walker exact for every index :class:`_Static` accepts.

    A table read keeps both bounds exact with one elementwise max/min
    against :class:`_Static`'s ``prev_taught`` / ``next_taught``.  No
    segment crosses a DSI segment, whose rank ``s·S + t`` airs at position
    ``s + m·t`` once per cycle in position order (:class:`_Geometry`), so
    a slot's first candidate airing at or after the lane's next position
    ``i`` is ``max(lo, s·S + ceil((i - s) / m))`` -- or, when that reaches
    ``hi``, ``lo`` one cycle later -- and the nearest candidate is the slot
    minimum of ``(wrap, position)``: no ``(lanes, F)`` matrix per hop.  The
    dense known mask is kept only when a later hop of the items reads it,
    and a warm hop derives its slots' bounds from it.
    """

    def __init__(self, index, timeline, config, queries, n_steps, verify,
                 dataset, scope, strategy) -> None:
        self.static = st = _static_of(index)
        self.geo = _Geometry(st, index, config, timeline)
        _index_scope(scope)
        # One precompute row per (item, step): knowledge clamps pending at
        # the global minimum, which hop 1's entry read always teaches
        # (_Static gates that every table teaches rank 0), so warm hops
        # share the cold clamp and the per-row tables are hop-invariant.
        self.rel, self.pair, vlen, voff, vflat, self.correct = (
            _precompute_queries(st, index, queries, verify, dataset)
        )
        self.visits = _Visits(self.geo, np.nonzero(self.rel)[1], vlen, voff, vflat)
        self.guard = index.air_view().window_guard
        self.n_steps = n_steps
        n_frames, rdt = st.n_frames, st.rdt
        n_rel = self.rel.sum(axis=1)
        width = max(int(n_rel.max(initial=0)), 1)
        # Slot-major (width, queries) tables, like the lanes' blocks.
        self.slot_on = (np.arange(width)[:, None] < n_rel).copy()
        first = np.argsort(~self.rel, axis=1, kind="stable")[:, :width].T
        self.slot_rank = np.where(self.slot_on, first, 0).astype(rdt)
        # Position of each rank, and at rank F -- a settled slot's ``lo``
        # -- F itself, so a settled slot's key is 2F, above every live one.
        self.pos_small = np.append(st.pos_of_rank, n_frames).astype(rdt)
        # The rank behind a (wrap, position) key.
        self.rank_of_key = np.tile(self.geo.rank_of_pos, 2)

    def _visit_on(
        self,
        clock: np.ndarray,
        chan: np.ndarray,
        tun: np.ndarray,
        rows: np.ndarray,
        ranks: np.ndarray,
        qr: np.ndarray,
    ) -> None:
        """Visit frame ``ranks`` for compacted ``rows`` (query rows ``qr``),
        advancing clock/channel/tuning (:class:`_Visits`)."""
        if len(rows):
            self.visits.apply(clock, chan, tun, rows, self.pair[qr[rows], ranks])

    def begin(self, lane_start: np.ndarray, qrow: np.ndarray,
              err: Optional[_Losses]) -> None:
        """The cold hop: probe, first table read, then the reference's
        opportunistic entry-frame processing and the walk."""
        self.err = err
        self.hops_left = self.n_steps - 1
        self._start(lane_start, dense=self.hops_left > 0)
        rank0 = self._read_entry(err)
        # Entry frame: opportunistically processed when relevant; when not,
        # the table alone proved it irrelevant but it is *not* marked
        # examined (the reference only marks frames read inside the walk).
        ev = np.flatnonzero(self.rel[qrow, rank0])
        self._visit_on(self.clock, self.chan, self.tun, ev, rank0[ev], qrow)
        self._walk(qrow, rank0)

    def hop(self, qrow: np.ndarray) -> None:
        self.hops_left -= 1
        self._walk(qrow, None)

    def verify(self, qrow: np.ndarray) -> np.ndarray:
        return self.correct[qrow]

    def _slots(self, qr: np.ndarray, rank0: Optional[np.ndarray]) -> _SlotLanes:
        """Every lane's working block at the start of a walk.

        The cold hop (``rank0``, the entry ranks) knows what the entry
        table taught and has examined -- and processed -- the entry rank
        when relevant; a warm hop reads its bounds off the carried known
        mask and has examined nothing.
        """
        st = self.static
        n_frames = st.n_frames
        w = _SlotLanes()
        w.idx = np.arange(len(qr))
        w.cl, w.ch, w.tn = self.clock.copy(), self.chan.copy(), self.tun.copy()
        w.qr = qr
        w.rank = self.slot_rank.take(qr, axis=1)
        on = self.slot_on.take(qr, axis=1)
        if rank0 is None:
            below, above = _rank_bounds(self.know, st.rdt)
            at = w.idx * n_frames + w.rank
            w.lo = below.take(at)
            w.hi = above.take(at)
        else:
            at = rank0 * n_frames + w.rank
            w.lo = st.prev_taught.take(at)
            w.hi = st.next_taught.take(at)
            w.lo += (w.lo == rank0) & self.rel[qr, rank0]
            on &= w.rank != rank0
        w.lo[~on] = n_frames
        w.hi[~on] = 0
        w.kn = self.know.copy() if self.hops_left > 0 else None
        return w

    def _walk(self, qr: np.ndarray, rank0: Optional[np.ndarray]) -> None:
        """Advance every lane to pending-set exhaustion (one query hop)."""
        geo, st, err = self.geo, self.static, self.err
        n_frames = st.n_frames
        w = self._slots(qr, rank0)
        for step in range(self.guard + 1):
            live = (w.lo < w.hi).any(axis=0)
            if not live.all():
                self._retire(w.idx, live, w.cl, w.ch, w.tn, w.kn)
                w.compact(np.flatnonzero(live))
            if not len(w.idx):
                return
            if step == self.guard:
                raise KernelUnsupported("hop limit exceeded")
            fr = self._nearest(w)
            if err is not None:
                # The reference's read_table retry chain: a lost read pays
                # its packets (parking the radio on the table channel) and
                # retries the *next broadcast position*'s table from the
                # new clock, up to n_frames failures.
                active = np.flatnonzero(err.lost(w.idx, w.cl - geo.pk_of_rank[fr]))
                attempts = 0
                while len(active):
                    attempts += 1
                    if attempts > n_frames:
                        # The reference raises RuntimeError; decline so the
                        # fallback path reproduces it.
                        raise KernelUnsupported("index-table retries exhausted")
                    r = geo.rank_of_pos[(st.pos_of_rank[fr[active]] + 1) % n_frames]
                    fr[active] = r
                    nbv = w.cl[active]
                    pk = geo.pk_of_rank[r]
                    start = nbv + geo.wait_rows(nbv, r)
                    w.cl[active] = start + pk
                    w.tn[active] += pk
                    active = active[err.lost(w.idx[active], start)]
            self._absorb(w, fr)

    def _nearest(self, w: _SlotLanes) -> np.ndarray:
        """Doze every lane to its earliest-arriving candidate table and
        read it; returns the ranks read.  Each slot offers its first
        candidate airing at or after the lane's next position (or, past
        ``hi``, its first candidate one cycle later); ranks air at distinct
        positions, so the least ``(wrap, position)`` key names the
        reference's nearest candidate."""
        geo, st = self.geo, self.static
        rdt, n_frames, m = st.rdt, st.n_frames, st.n_segments
        nb = geo.doze(w.cl, w.ch, geo.ctrl)
        off, pos = geo.next_position(nb)
        # DSI segment s airs its rank s·S + t at position s + m·t, so its
        # first rank airing at/after ``pos`` is s·S + ceil((pos - s) / m).
        seg = w.rank // rdt(st.seg_size)
        first = (pos.astype(rdt) - seg + rdt(m - 1)) // rdt(m) + seg * rdt(st.seg_size)
        cand = np.maximum(w.lo, first)
        wrap = cand >= w.hi
        np.copyto(cand, w.lo, where=wrap)
        key = self.pos_small.take(cand)
        key += wrap * rdt(n_frames)
        fr = self.rank_of_key[key.min(axis=0)]
        w.cl, pk = geo.read(nb, off, fr)
        w.ch[:] = geo.ctrl
        w.tn = w.tn + pk
        return fr

    def _absorb(self, w: _SlotLanes, fr: np.ndarray) -> None:
        """Learn the table of rank ``fr`` each lane read, mark it examined
        and process it where it is pending -- exactly ``overlaps_pending``.
        A slot's ``B`` rises to the table's largest taught rank at or below
        the slot rank when that is larger; the lane did not know that rank,
        so it is examined only if it is ``fr``.  An unmoved ``B`` that is
        ``fr`` becomes examined too.  Either way ``lo`` becomes the larger
        of itself and that taught rank, plus one when the rank is ``fr``."""
        st = self.static
        n_frames = st.n_frames
        fs = fr.astype(st.rdt)
        hit = (w.rank == fs) & (w.hi > 0)
        at = fr * n_frames + w.rank
        prev = st.prev_taught.take(at)
        np.maximum(w.lo, prev + (prev == fs), out=w.lo)
        np.minimum(w.hi, st.next_taught.take(at), out=w.hi)
        rows = np.flatnonzero(hit.any(axis=0))
        if len(rows):
            np.copyto(w.lo, st.rdt(n_frames), where=hit)
            np.copyto(w.hi, st.rdt(0), where=hit)
        if w.kn is not None:
            w.kn |= st.learn[fr]
        self._visit_on(w.cl, w.ch, w.tn, rows, fr[rows], w.qr)


def _lanes(
    entry: Callable[[np.ndarray], np.ndarray],
    key_ids: np.ndarray,
    key_phases: np.ndarray,
    n_phases: int,
    cycle: int,
    lossless: bool,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Collapse ``(id, phase)`` keys onto ``(id, entry occurrence)`` lanes.

    Two error-free phases whose first entry-structure read is the same
    absolute airing share their whole absolute trace (the landmark
    collapse), so they share a lane.  ``entry`` maps the clocks right after
    the probe to that airing's absolute start -- the first table airing
    for DSI, the first root copy for trees -- and the start, not just the
    bucket, keys the dedup, which is what lets replicated (demand-aware)
    schedules collapse exactly like striped ones.  Under link errors every
    execution has its own loss realisation, so every key is its own lane.
    Returns ``(start_p, lane_of_key, lane_ids, lane_start)``.
    """
    start_p = (key_phases * cycle) // n_phases
    if not lossless:
        return start_p, np.arange(len(key_ids)), key_ids, start_p
    arr = entry(start_p + 1)
    entry_key = key_ids * np.int64(int(arr.max(initial=0)) + 2) + arr
    _, first_idx, lane_of = np.unique(entry_key, return_index=True, return_inverse=True)
    return start_p, lane_of, key_ids[first_idx], start_p[first_idx]


# --- tree-index lanes (R-tree on air, HCI) ----------------------------------

class _TreeStatic:
    """Per-tree constants: dense node ids and padded copy/packet tables."""

    __slots__ = ("node_ids", "dense_of", "n_nodes", "root_dense", "copy_mat",
                 "node_pk", _MEMO_ATTR)

    def __init__(self, air: TreeOnAir) -> None:
        node_ids = sorted(air.node_buckets)
        self.node_ids = node_ids
        self.dense_of = {nid: i for i, nid in enumerate(node_ids)}
        self.n_nodes = len(node_ids)
        self.root_dense = self.dense_of[air.root_id]
        width = max((len(c) for c in air.node_buckets.values()), default=1)
        copy_mat = np.empty((self.n_nodes, max(width, 1)), dtype=np.int64)
        node_pk = np.empty(self.n_nodes, dtype=np.int64)
        buckets = air.program.buckets
        for i, nid in enumerate(node_ids):
            copies = air.node_buckets[nid]
            if not copies:
                raise KernelUnsupported("tree node without a broadcast copy")
            copy_mat[i, : len(copies)] = copies
            # Padding repeats the first copy: a duplicate candidate never
            # changes the min-over-copies arrival.
            copy_mat[i, len(copies):] = copies[0]
            pks = {buckets[b].n_packets for b in copies}
            if len(pks) != 1:
                raise KernelUnsupported("node copies differ in packet count")
            node_pk[i] = pks.pop()
        self.copy_mat = copy_mat
        self.node_pk = node_pk


class _TreeGeometry(_Channel):
    """Verified channel geometry of one (tree, schedule view, config) triple.

    The frontier sweep's argmin tie-break (first minimum over the sorted
    event axis) equals :meth:`TreeOnAir.next_pending_event`'s lowest-id
    tie-break only because every node bucket airs on the clients' home
    channel (ties are impossible within one channel, and cross-channel
    node-vs-data ties resolve by event order on both paths only when the
    candidate order matches -- which it does, nodes sorted before objects).
    """

    __slots__ = ("root_ids", "root_pk", "guard", "read_guard")

    def __init__(self, static: _TreeStatic, air: TreeOnAir, config: Any,
                 timeline) -> None:
        home = timeline.home_channel
        ch = timeline.bucket_channel[static.copy_mat]
        if not np.all(ch == home):
            raise KernelUnsupported(
                "tree nodes must air on the clients' home channel"
            )
        if not np.array_equal(
            timeline.bucket_packets[static.copy_mat],
            np.broadcast_to(static.node_pk[:, None], static.copy_mat.shape),
        ):
            raise KernelUnsupported("node packet sizes disagree with the timeline")
        super().__init__(config, timeline, home)
        self.root_ids = np.asarray(air.node_buckets[air.root_id], dtype=np.int64)
        self.root_pk = int(static.node_pk[static.root_dense])
        self.guard = air.sweep_guard
        self.read_guard = air.read_guard

    def root_arrival(self, nb: np.ndarray) -> np.ndarray:
        """Start of the first root copy at/after each clock in ``nb`` -- the
        :meth:`TreeOnAir.entry_landmark` seek.  All root copies air on the
        home channel, so on one channel the start determines the bucket."""
        return self.timeline.next_occurrences(
            self.root_ids[None, :], np.asarray(nb, dtype=np.int64)[:, None]
        ).min(axis=1)


class _TreeQueries:
    """Per-query qualifying subtrees on a padded common event axis.

    Event ``e`` of query ``q`` is either a qualifying tree node (sorted id
    order first) or a qualifying data object (sorted oid order after) --
    exactly the candidate order ``next_pending_event`` iterates, so the
    sweep's first-minimum argmin reproduces its tie-breaks.  ``ev_adj[q]``
    is the static expansion: reading node event ``e`` adds the events in
    row ``e``; ``root_mask[q]`` is the root's own expansion row.
    """

    __slots__ = ("n_events", "n_nodes", "ev_ids", "ev_pk", "ev_chan",
                 "ev_node", "ev_dense", "ev_adj", "root_mask", "has_root",
                 "correct")


class _TreePlan:
    """One window's qualifying subtree on one tree index.

    ``nodes`` are its qualifying nodes' dense ids (sorted by node id, the
    root left out) and ``obj_buckets`` the buckets of its qualifying
    objects (sorted by oid); together they are the query's events, in the
    candidate order ``next_pending_event`` iterates.  The static expansion
    over those events is kept as its edges -- reading node event
    ``adj_from[i]`` adds event ``adj_to[i]``, reading the root adds the
    events ``root_to`` -- since a dense (events, events) matrix per
    memoised window would hold a square where a tree has one edge per
    event.  ``has_root`` is False where the rule is ``None``.  ``answer``
    holds the objects the sweep answers.
    """

    __slots__ = ("has_root", "nodes", "obj_buckets", "adj_from", "adj_to",
                 "root_to", "answer")


def _tree_plan(static: _TreeStatic, index: Any, air: TreeOnAir, window: Any) -> _TreePlan:
    """Compile one window's qualifying subtree (the memo entry behind
    :func:`_precompute_tree_queries`) under the index's own
    ``window_rule``."""
    rule = index.window_rule(window)
    children_of: Dict[int, Tuple[List[int], List[int]]] = {}
    oid_set: Set[int] = set()
    stack = [air.root_id] if rule is not None else []
    while stack:
        nid = stack.pop()
        if nid in children_of:
            continue
        hits = rule(air.nodes[nid])
        kids = [e.child for e in hits if not e.is_leaf_entry]
        oids = [e.oid for e in hits if e.is_leaf_entry]
        children_of[nid] = (kids, oids)
        oid_set.update(oids)
        stack.extend(kids)
    nodes = sorted(children_of.keys() - {air.root_id})
    oids = sorted(oid_set)
    e_of: Dict[Tuple[str, int], int] = {("node", nid): e for e, nid in enumerate(nodes)}
    for e, oid in enumerate(oids):
        e_of[("data", oid)] = len(nodes) + e
    adj_from: List[int] = []
    adj_to: List[int] = []
    root_to: List[int] = []
    for nid, (kids, n_oids) in children_of.items():
        to = [e_of[("node", child)] for child in kids]
        to += [e_of[("data", oid)] for oid in n_oids]
        if nid == air.root_id:
            root_to.extend(to)
        else:
            adj_from.extend([e_of[("node", nid)]] * len(to))
            adj_to.extend(to)
    plan = _TreePlan()
    plan.has_root = rule is not None
    plan.adj_from = np.array(adj_from, dtype=np.int64)
    plan.adj_to = np.array(adj_to, dtype=np.int64)
    plan.root_to = np.array(root_to, dtype=np.int64)
    plan.nodes = np.array([static.dense_of[nid] for nid in nodes], dtype=np.int64)
    plan.obj_buckets = np.array([air.object_bucket[oid] for oid in oids], dtype=np.int64)
    objs = [air.program.buckets[b].payload for b in plan.obj_buckets.tolist()]
    plan.answer = [o for o in objs if window.contains_point(o.point)]
    return plan


def _precompute_tree_queries(
    static: _TreeStatic,
    index: Any,
    air: TreeOnAir,
    geo: _TreeGeometry,
    queries: Sequence[WindowQuery],
    verify: bool,
    dataset: Any,
) -> _TreeQueries:
    """Stack each window's memoised :class:`_TreePlan` into flat event
    tables.

    The qualifying subtree -- every node/object reachable from the root
    under the index's own ``window_rule`` -- is timing independent (a
    successful read always expands the same children, a lost read leaves
    the node pending), so answers and adjacency are static and verification
    runs once per query.  A query whose rule is ``None`` reads nothing past
    its probe, not even the root, exactly as :meth:`TreeOnAir.sweep`.  The
    packets and channel of an object event are the schedule's, read here
    off the call's timeline.
    """
    timeline = geo.timeline
    plans = [_memoized(static, q.window, _tree_plan, static, index, air, q.window)
             for q in queries]
    n_q = len(plans)
    n_events = max(1, max(len(p.nodes) + len(p.obj_buckets) for p in plans))
    width = static.copy_mat.shape[1]
    tq = _TreeQueries()
    tq.n_events = n_events
    tq.n_nodes = static.n_nodes
    tq.ev_ids = np.zeros((n_q, n_events, width), dtype=np.int64)
    tq.ev_pk = np.zeros((n_q, n_events), dtype=np.int64)
    tq.ev_chan = np.full((n_q, n_events), geo.ctrl, dtype=np.int64)
    tq.ev_node = np.zeros((n_q, n_events), dtype=bool)
    tq.ev_dense = np.full((n_q, n_events), -1, dtype=np.int64)
    tq.ev_adj = np.zeros((n_q, n_events, n_events), dtype=bool)
    tq.root_mask = np.zeros((n_q, n_events), dtype=bool)
    tq.has_root = np.array([p.has_root for p in plans], dtype=bool)
    for qid, plan in enumerate(plans):
        nn = len(plan.nodes)
        n_ev = nn + len(plan.obj_buckets)
        tq.ev_ids[qid, :nn] = static.copy_mat[plan.nodes]
        tq.ev_pk[qid, :nn] = static.node_pk[plan.nodes]
        tq.ev_node[qid, :nn] = True
        tq.ev_dense[qid, :nn] = plan.nodes
        b = plan.obj_buckets
        tq.ev_ids[qid, nn:n_ev] = b[:, None]
        tq.ev_pk[qid, nn:n_ev] = timeline.bucket_packets[b]
        tq.ev_chan[qid, nn:n_ev] = timeline.bucket_channel[b]
        tq.ev_adj[qid, plan.adj_from, plan.adj_to] = True
        tq.root_mask[qid, plan.root_to] = True
    tq.correct = _verdicts(queries, [p.answer for p in plans], verify, dataset)
    return tq


class _TreeWalker:
    """The tree walker: qualifying-subtree event tables swept frontier-wise.

    The master arrays (``clock`` / ``chan`` / ``tun``, plus the node-cache
    bitmask when items have a second hop) always hold every lane; the sweep
    loop works on live-lane compactions and scatters back at lane exit, so
    a later hop starts from the carried session state and the final clocks
    are read straight off the masters.
    """

    def __init__(self, index, timeline, config, queries, n_steps, verify,
                 dataset, scope, strategy) -> None:
        air = index.air
        static = _memoized(index, _TreeStatic, _TreeStatic, air)
        self.geo = _TreeGeometry(static, air, config, timeline)
        _index_scope(scope)
        self.tq = _precompute_tree_queries(
            static, index, air, self.geo, queries, verify, dataset
        )
        # One sweep reads each qualifying node once, so the node cache only
        # pays off from a second hop; on a single hop its drain scans would
        # cost the walk time and change nothing.
        self.caching = n_steps > 1
        self.entry = self.geo.root_arrival

    def begin(self, lane_start: np.ndarray, qrow: np.ndarray,
              err: Optional[_Losses]) -> None:
        """The cold hop: the probe, then one window sweep per lane."""
        self.err = err
        self.clock, self.chan, self.tun = _tune_in(lane_start, self.geo.ctrl)
        if self.caching:
            self.cached = np.zeros((len(lane_start), self.tq.n_nodes), dtype=bool)
            self.root_cached = np.zeros(len(lane_start), dtype=bool)
        self.hop(qrow)

    def verify(self, qrow: np.ndarray) -> np.ndarray:
        return self.tq.correct[qrow]

    def _root_arrival(self, rows: np.ndarray) -> np.ndarray:
        geo = self.geo
        return geo.root_arrival(geo.doze(self.clock[rows], self.chan[rows], geo.ctrl))

    def _read_root(self, rows: np.ndarray) -> None:
        """Doze to the next root copy and read it (with loss retries)."""
        geo, err = self.geo, self.err
        if not len(rows):
            return
        if err is None:
            self.clock[rows] = self._root_arrival(rows) + geo.root_pk
            self.tun[rows] += geo.root_pk
            self.chan[rows] = geo.ctrl
            return
        pend = rows
        attempts = 0
        while len(pend):
            start = self._root_arrival(pend)
            self.clock[pend] = start + geo.root_pk
            self.tun[pend] += geo.root_pk
            self.chan[pend] = geo.ctrl
            pend = pend[err.lost(pend, start)]
            attempts += 1
            if len(pend) and attempts >= geo.read_guard:
                # The reference raises RuntimeError past TreeOnAir.read_guard;
                # decline so the fallback reproduces it.
                raise KernelUnsupported("root read retries exhausted")

    def hop(self, qrow: np.ndarray) -> None:
        """Run one window sweep per lane from the current session state."""
        tq = self.tq
        qr = np.asarray(qrow, dtype=np.int64)
        has_root = tq.has_root[qr]
        if self.caching:
            self._read_root(np.flatnonzero(has_root & ~self.root_cached))
            self.root_cached |= has_root
        else:
            self._read_root(np.flatnonzero(has_root))
        pending = np.zeros((len(self.clock), tq.n_events), dtype=bool)
        pending[has_root] = tq.root_mask[qr[has_root]]
        self._walk(qr, pending)

    def _drain(self, idx: np.ndarray, qv: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Expand cached pending nodes for free, to a fixpoint.

        The vectorised cache drain of :meth:`TreeOnAir.sweep`: the
        reference drains one cached node per step, but a window sweep's
        expansion only ever unions pending sets, so draining all of them
        (and whatever cached nodes that uncovers) before the next on-air
        read is order independent and lands in the identical pending state.
        """
        tq = self.tq
        dense = tq.ev_dense[qv]
        node_ev = dense >= 0
        while True:
            lr, ev = np.nonzero(P & node_ev)
            if not len(lr):
                return P
            hit = self.cached[idx[lr], dense[lr, ev]]
            lr, ev = lr[hit], ev[hit]
            if not len(lr):
                return P
            P[lr, ev] = False
            np.logical_or.at(P, lr, tq.ev_adj[qv[lr], ev])

    def _walk(self, qr: np.ndarray, pending: np.ndarray) -> None:
        geo, tq, err = self.geo, self.tq, self.err
        timeline = geo.timeline
        idx = np.arange(len(self.clock))
        cl = self.clock.copy()
        ch = self.chan.copy()
        tn = self.tun.copy()
        qv = qr.copy()
        P = pending
        ids = tq.ev_ids[qv]
        chn = tq.ev_chan[qv]
        pk = tq.ev_pk[qv]
        isn = tq.ev_node[qv]
        big = np.iinfo(np.int64).max
        steps = 0
        # Incremental arrival cache: ``arr[l, e]`` is the next on-air start
        # of event ``e`` at-or-after the doze point ``vfrom[l, e]`` it was
        # computed for.  An entry stays valid while the lane's doze point
        # sits inside ``[vfrom, arr]`` -- occurrences are immutable, only
        # the lane moves -- so each select step re-resolves just the pairs
        # the last read overran (``arr < nb``) or that a channel hop pulled
        # closer (``nb < vfrom``: the switch penalty fell away, so an
        # earlier copy may now be reachable).  That turns the per-step cost
        # from every (lane, event, copy) triple into the handful of
        # arrivals the sweep actually perturbed.
        nb = np.broadcast_to(geo.doze(cl[:, None], ch[:, None], chn), chn.shape)
        arr = timeline.next_occurrences(ids, nb[:, :, None]).min(axis=2)
        vfrom = nb.copy()
        while True:
            if self.caching:
                P = self._drain(idx, qv, P)
            live = P.any(axis=1)
            if not live.all():
                done = ~live
                self.clock[idx[done]] = cl[done]
                self.chan[idx[done]] = ch[done]
                self.tun[idx[done]] = tn[done]
                idx, cl, ch, tn, qv = idx[live], cl[live], ch[live], tn[live], qv[live]
                P, ids, chn, pk, isn = P[live], ids[live], chn[live], pk[live], isn[live]
                arr, vfrom = arr[live], vfrom[live]
            if not len(idx):
                return
            # All live lanes have walked the same number of select steps, so
            # one scalar counter realises the reference's per-sweep guard.
            steps += 1
            if steps > geo.guard:
                # The reference *truncates* the sweep here; the kernel
                # cannot, so it declines and the fallback reproduces it.
                raise KernelUnsupported("tree sweep guard exceeded")
            nb = np.broadcast_to(geo.doze(cl[:, None], ch[:, None], chn), chn.shape)
            stale = P & ((arr < nb) | (nb < vfrom))
            sl, se = np.nonzero(stale)
            if len(sl):
                snb = nb[sl, se]
                arr[sl, se] = timeline.next_occurrences(
                    ids[sl, se], snb[:, None]
                ).min(axis=1)
                vfrom[sl, se] = snb
            rows = np.arange(len(idx))
            e = np.argmin(np.where(P, arr, big), axis=1)
            epk = pk[rows, e]
            start = arr[rows, e]
            cl = start + epk
            tn = tn + epk
            ch = chn[rows, e].copy()
            node_ev = isn[rows, e]
            ok = np.ones(len(idx), dtype=bool)
            if err is not None:
                # Only navigation buckets can be lost under the index scope.
                nodes = np.flatnonzero(node_ev)
                if len(nodes):
                    ok[nodes] = ~err.lost(idx[nodes], start[nodes])
            okr = np.flatnonzero(ok)
            P[okr, e[okr]] = False
            expand = np.flatnonzero(ok & node_ev)
            if len(expand):
                P[expand] |= tq.ev_adj[qv[expand], e[expand]]
                if self.caching:
                    self.cached[idx[expand], tq.ev_dense[qv[expand], e[expand]]] = True


# --- kNN lanes (DSI) --------------------------------------------------------


class _KnnStatic:
    """Per-index kNN constants: flat object geometry plus table estimate rows.

    The scalar planner keeps two candidate sets with different keys:
    exact distances per *object* and estimates per *HC value* (objects
    sharing a cell share one estimate, and a retrieved HC blocks its
    re-estimation).  Both compile to flat integer spaces here: object ids
    (``obj_start[rank] + slot``, global HC order) and unique-HC *group*
    ids (``hc_group`` maps objects to groups).  The built index keeps each
    HC value inside one non-empty, HC-sorted frame
    (:func:`~repro.core.structure.check_frames`), so a group's objects are
    consecutive within one frame and slot 0 holds the frame's minimum.
    Every table's ``learn_table`` estimate set -- its own minimum plus its
    entry landmarks, all frame minima -- becomes a padded row of distinct
    group ids (``est_grps``, real entries marked in ``est_on``);
    ``vis_grps``/``vis_on`` add the frame's directory records, the
    estimates a visit learns from its table and directory (a frame without
    a directory holds one object, its own minimum, so its row adds
    nothing).  ``rows`` holds the query points' distance rows, shared with
    the other DSI indexes over the same rank-ordered objects
    (:class:`_KnnRows`).  ``pbits`` packs the lanes' position bitsets, and
    ``learn_bits`` holds each table's learn row as one of them (column
    ``t`` is what the table of rank ``t`` teaches).
    """

    __slots__ = (
        "n_objects", "n_groups", "flen", "obj_start", "obj_bucket", "oids",
        "hcs", "hc_group", "grp_hcs", "grp_of_rank", "dir_bucket",
        "est_grps", "est_on", "vis_grps", "vis_on", "objects", "rows",
        "rank_of_pos", "pbits", "learn_bits", "covers",
    )

    def __init__(self, static: _Static, index: Any) -> None:
        ro = index.rank_object_arrays()
        hcs = ro.hcs
        n_frames = static.n_frames
        grp_hcs, hc_group = np.unique(hcs, return_inverse=True)
        rank_of_pos = np.empty(n_frames, dtype=np.int64)
        rank_of_pos[static.pos_of_rank] = np.arange(n_frames)
        grp_of_rank = hc_group[ro.obj_start]
        est, vis = [], []
        for rank in range(n_frames):
            table = index.tables[int(static.pos_of_rank[rank])]
            targets = [rank] + [int(rank_of_pos[e.frame_pos]) for e in table.entries]
            est.append(np.unique(grp_of_rank[targets]))
            first = ro.obj_start[rank]
            vis.append(np.union1d(est[-1], hc_group[first: first + ro.flen[rank]]))
        self.n_objects = len(hcs)
        self.n_groups = len(grp_hcs)
        self.flen = ro.flen
        self.obj_start = ro.obj_start
        self.obj_bucket = ro.buckets
        self.oids = ro.oids
        self.hcs = hcs
        self.hc_group = hc_group
        self.grp_hcs = grp_hcs
        self.grp_of_rank = grp_of_rank
        self.dir_bucket = ro.dir_bucket
        self.est_grps, self.est_on = _padded(est)
        self.vis_grps, self.vis_on = _padded(vis)
        self.objects = ro.objects
        curve = index.curve
        self.rows = _memoized(curve, (_KnnRows, ro.oids.tobytes()), _KnnRows,
                              curve, grp_hcs, ro.objects)
        self.rank_of_pos = rank_of_pos
        self.pbits = _PositionBits(n_frames, static.n_segments)
        self.learn_bits = self.pbits.pack(static.learn[:, rank_of_pos])
        self.covers = _KnnCovers(curve, static.mins, rank_of_pos, self.pbits)


class _KnnRows:
    """The distance rows of one rank-ordered object set, memoised per
    query point (the memo entries behind :func:`_knn_query_tables`).

    A row depends only on the objects, their order and the query point.
    Every DSI index over a dataset orders the same objects by HC value and
    shares the dataset's curve, so the indexes whose rank-ordered object
    ids are equal share one of these, memoised on that curve: one copy of
    each point's rows per dataset, not per index.
    """

    __slots__ = ("reps", "objects", _MEMO_ATTR)

    def __init__(self, curve: Any, grp_hcs: np.ndarray, objects: Sequence[Any]) -> None:
        # Each unique HC cell's representative point, decoded in one batch.
        hc_list = grp_hcs.tolist()
        curve.warm_representative_points(hc_list)
        self.reps = [curve.representative_point(hc) for hc in hc_list]
        self.objects = objects


def _padded(rows: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Ragged int rows as one zero-padded matrix plus its real-entry mask."""
    lens = np.array([len(r) for r in rows])
    on = np.arange(lens.max()) < lens[:, None]
    out = np.zeros(on.shape, dtype=np.int64)
    out[on] = np.concatenate(rows)
    return out, on


def _knn_static_of(index: Any, static: _Static) -> _KnnStatic:
    return _memoized(index, _KnnStatic, _KnnStatic, static, index)


#: New covers swept per ``covers_for_rects_flat`` batch.  The sweep's
#: working set grows with its batch (about 53 KB per rect on the
#: fleet benchmark's 4-channel kNN inputs), so one batch bounds the peak.
_KNN_COVER_CHUNK = 256


class _KnnCovers:
    """Shared circle covers compiled to position bitsets, memoized on cell
    keys.

    ``resolve`` maps every lane's prune radius to the exact cover
    ``_needed_ranks`` would build (the same ``ranges_for_circle`` call with
    the sweep's default setting, the same infinite-radius full range).  A
    cover is a pure function of the clipped bounding rect's ceil/floor
    cell quantisation -- the key ``ranges_for_rect`` memoizes on -- so the
    quantised key is computed here vectorised for all lanes at once,
    deduplicated, and only genuinely new covers reach
    ``covers_for_rects_flat``, the sweep ``ranges_for_rect`` runs for one
    rect, in batches of ``_KNN_COVER_CHUNK``.  Each new cover compiles to
    one knowledge-free column of ``bits``, a position bitset
    (:class:`_PositionBits`): the position of rank ``r`` is set when some
    piece's global span ``[max(a0, 0), b0 - 1]`` holds ``r``, ``a0`` being
    the largest rank whose minimum is <= the piece's low end and ``b0`` the
    first rank whose minimum exceeds its high end.  Lanes test those
    columns against their own knowledge with
    :meth:`_PositionBits.candidates` -- the position-space image of
    ``ClientKnowledge.candidate_rank_array``.  A cover depends only on the
    curve, the frame minima, the query point and the radius, so one memo
    per index (this object's kernel memo, cell key -> column of ``bits``)
    serves every lane, phase, query, call, channel count and strategy that
    reaches the same cells.
    """

    __slots__ = ("curve", "mins", "rank_of_pos", "pbits", "side", "bits", "_n",
                 _MEMO_ATTR)

    def __init__(self, curve: Any, mins: np.ndarray, rank_of_pos: np.ndarray,
                 pbits: _PositionBits) -> None:
        self.curve = curve
        self.mins = mins
        self.rank_of_pos = rank_of_pos
        self.pbits = pbits
        self.side = float(curve.side)
        self.bits = np.zeros((pbits.words, 16), dtype=np.uint64)
        self._n = 0

    def _add_covers(
        self, counts: np.ndarray, los: np.ndarray, his: np.ndarray
    ) -> int:
        """Compile a flat batch of covers (``counts`` pieces each, bounds
        ``los``/``his``) to columns of ``bits``; returns the first new
        cover id."""
        n, k = self._n, len(counts)
        n_frames = len(self.mins)
        if n + k > self.bits.shape[1]:
            grown = np.zeros(
                (self.pbits.words, max(2 * self.bits.shape[1], n + k)), dtype=np.uint64
            )
            grown[:, :n] = self.bits[:, :n]
            self.bits = grown
        # Piece spans as a difference array.  b0 > a0 always, so a span is
        # never reversed; an empty one (b0 == 0) adds and removes at 0.
        a = np.maximum(np.searchsorted(self.mins, los, side="right") - 1, 0)
        b = np.searchsorted(self.mins, his, side="right")
        stride = n_frames + 1
        at = np.repeat(np.arange(k, dtype=np.int64) * stride, counts)
        diff = np.bincount(at + a, minlength=k * stride)
        diff -= np.bincount(at + b, minlength=k * stride)
        ranks = np.cumsum(diff.reshape(k, stride)[:, :n_frames], axis=1) > 0
        self.bits[:, n: n + k] = self.pbits.pack(ranks[:, self.rank_of_pos])
        self._n = n + k
        return n

    def resolve(
        self,
        qids: np.ndarray,
        qx: np.ndarray,
        qy: np.ndarray,
        prune: np.ndarray,
    ) -> np.ndarray:
        """Cover ids (columns of ``bits``) for each row of ``(qids, prune)``.

        Replays ``circle_bounding_rect(...).clipped_to_unit()`` and the
        scaled-bound quantisation of ``ranges_for_rect`` elementwise (the
        same IEEE operations, so the same integers); an infinite radius
        keys the full-range cover.  Keys the memo has not seen sweep in
        ``covers_for_rects_flat`` batches of ``_KNN_COVER_CHUNK``.  The ids
        stay valid until the next call: a full memo is reset only here, on
        entry, and an empty one hands out columns from 0 again.
        """
        memo = _memo(self)
        if not memo:
            self._n = 0
        side = self.side
        key = np.full(len(prune), -1, dtype=np.int64)
        finite = np.isfinite(prune)
        if finite.any():
            cx = qx[qids[finite]]
            cy = qy[qids[finite]]
            r = prune[finite]
            xlo = np.maximum(0.0, cx - r) * side
            ylo = np.maximum(0.0, cy - r) * side
            xhi = np.minimum(1.0, cx + r) * side
            yhi = np.minimum(1.0, cy + r) * side
            base = np.int64(side) + 1
            k = np.ceil(xlo).astype(np.int64)
            k = k * base + np.floor(xhi).astype(np.int64)
            k = k * base + np.ceil(ylo).astype(np.int64)
            k = k * base + np.floor(yhi).astype(np.int64)
            key[finite] = k
        uniq, first, inv = np.unique(key, return_index=True, return_inverse=True)
        cids = np.fromiter(
            (memo.get(uk, -1) for uk in uniq.tolist()), dtype=np.int64, count=len(uniq)
        )
        miss = np.flatnonzero(cids < 0)
        if len(miss) and uniq[miss[0]] < 0:
            # The infinite radius: one full-range piece.
            top = int(self.curve.max_value) - 1
            cids[miss[0]] = memo[-1] = self._add_covers(
                np.ones(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                np.full(1, top, dtype=np.int64),
            )
            miss = miss[1:]
        for at in range(0, len(miss), _KNN_COVER_CHUNK):
            # Genuinely new covers sweep in batched passes of at most
            # _KNN_COVER_CHUNK rects (the clipped circle bounding rects,
            # elementwise as ``circle_bounding_rect`` computes them), each
            # compiled as one block, so ids follow ``miss`` order.
            chunk = miss[at: at + _KNN_COVER_CHUNK]
            fi = first[chunk]
            cm = qx[qids[fi]]
            dm = qy[qids[fi]]
            rm = prune[fi]
            counts, los, his = self.curve.covers_for_rects_flat(
                np.maximum(0.0, cm - rm),
                np.maximum(0.0, dm - rm),
                np.minimum(1.0, cm + rm),
                np.minimum(1.0, dm + rm),
            )
            cid0 = self._add_covers(counts, los, his)
            cids[chunk] = np.arange(cid0, cid0 + len(chunk), dtype=np.int64)
        memo.update(zip(uniq[miss].tolist(), cids[miss].tolist()))
        return cids[inv]


def _knn_rows(rows: _KnnRows, point: Any) -> Tuple[np.ndarray, np.ndarray]:
    """One query point's distance rows (the memo entry behind
    :func:`_knn_query_tables`): to each unique HC cell's representative
    point, and to each object."""
    return (
        np.array([point.distance_to(p) for p in rows.reps], dtype=np.float64),
        np.array([o.distance_to(point) for o in rows.objects], dtype=np.float64),
    )


def _knn_query_tables(
    kst: _KnnStatic, queries: Sequence[KnnQuery]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The per-query static geometry, stacked from each query point's
    memoised rows.

    Returns query-major ``(est_g, ex_d)`` distance tables (estimate =
    query to each unique HC cell's representative point, exact = query to
    each object; the lanes read them with flat indices), the per-rank
    minima estimates ``min_est`` and the ``k`` array, which is the call's.
    Comparison distances stay scalar ``math.hypot`` (``Point.distance_to``)
    -- its vectorised counterpart is not bit-equal -- so only the
    representative-point decode batches.
    """
    shared = kst.rows
    rows = [_memoized(shared, q.point, _knn_rows, shared, q.point) for q in queries]
    est_g = np.stack([est for est, _ in rows])
    ex_d = np.stack([ex for _, ex in rows])
    k_arr = np.fromiter((int(q.k) for q in queries), dtype=np.int64, count=len(queries))
    return est_g, ex_d, est_g[:, kst.grp_of_rank], k_arr


#: Spare entries a kNN lane's candidate row keeps beyond the run's largest
#: k.  A fetch whose estimate leaves a full row while its exact distance
#: lands above the row's frontier costs a rebuild from the lane's
#: candidate masks; the spares make that rare.
_KNN_ROW_SPARE = 8


class _KnnLanes:
    """One struct-of-arrays block of per-lane kNN search state.

    A working block copies and compacts only the per-lane fields
    (``LANE_FIELDS``): lane id ``idx``, session position
    (``cl``/``ch``/``tn``), ``nr`` the retrieved count, the candidate row
    ``top``, and the query keys; and, word-major along its second axis,
    the ``kw`` known and ``ew`` examined positions as ``(words, lanes)``
    bitsets (:class:`_PositionBits`), which only a walk's working block
    holds.  The object-wide candidate space stays in place, shared and
    addressed by lane id: ``gs`` one int8 state per unique-HC group
    (0 unseen, 1 estimated, 2 retrieved -- a retrieval pops the group's
    estimate and blocks its re-estimation) and ``rt`` the retrieved
    bitmask over flat object ids.  A lane's candidates -- the multiset the
    planner's radius partitions -- are the estimates of its state-1 groups
    and the exact distances of its retrieved objects.

    ``top`` keeps the W smallest candidates sorted (all of them, inf
    beyond, while there are fewer) in a row W wide (W = the run's largest
    k plus ``_KNN_ROW_SPARE``, at most one past the object count).  Its
    last slot is its *frontier* -- inf while the row has a free slot --
    and every candidate outside the row is at or above it.  So the row's
    k-th entry is the k-th smallest candidate: the radius, inf below k
    candidates.
    """

    LANE_FIELDS = ("idx", "cl", "ch", "tn", "nr", "top", "qid", "qo", "qg", "kk")
    WORD_FIELDS = ("kw", "ew")
    __slots__ = LANE_FIELDS + WORD_FIELDS + ("gs", "rt")

    def copy(self) -> "_KnnLanes":
        """A working block: own lane fields, the shared candidate space."""
        out = _KnnLanes()
        for f in self.LANE_FIELDS:
            setattr(out, f, getattr(self, f).copy())
        out.gs, out.rt = self.gs, self.rt
        return out

    def compact(self, keep: np.ndarray) -> None:
        """Keep the lanes ``keep`` (ascending positions)."""
        for f in self.LANE_FIELDS:
            setattr(self, f, getattr(self, f).take(keep, axis=0))
        for f in self.WORD_FIELDS:
            setattr(self, f, getattr(self, f).take(keep, axis=1))


class _KnnWalker(_DsiLanes):
    """The DSI kNN walker: compiled per-query search plans in lockstep.

    Every lane of every query advances through the planner loop together:
    cover-driven candidacy, frame choice, table read, frame visit.  A
    walk's working block carries each lane's known and examined frames as
    position bitsets: candidacy is a flood fill from the lane's cover
    column (:meth:`_PositionBits.candidates`), the nearest read a
    lowest-set-bit pick (:meth:`_Geometry.read_earliest`) and a table read
    one OR of its learn column -- no ``(lanes, F)`` array per step.  Lanes
    whose candidate set empties leave the working block (its lane fields
    compact; their retrievals already sit in the master block ``S``); the
    walk ends when none remain.  All value comparisons reuse the compiled
    distance tables, so each step is pure array arithmetic plus the
    occasional new circle cover.  A lane's radius is its candidate row's
    k-th entry, kept up to date at each change instead of recomputed
    (:class:`_KnnLanes`).  Later hops seed the search space from the
    knowledge the lane accumulated, which is the planner's warm start
    verbatim (hop 1 always teaches at least the entry table, so the warm
    branch always applies); the dense known mask ``know`` is kept, in rank
    order, only when a later hop of the items reads it.
    """

    def __init__(self, index, timeline, config, queries, n_steps, verify,
                 dataset, scope, strategy) -> None:
        if not isinstance(index, DsiIndex):
            raise KernelUnsupported("kNN trials on tree indexes take the reference path")
        if scope is not None:
            raise KernelUnsupported("kNN fleets with link errors take the reference path")
        if strategy not in ("conservative", "aggressive"):
            raise KernelUnsupported(f"kNN strategy {strategy!r} takes the reference path")
        self.static = _static_of(index)
        self.kst = _knn_static_of(index, self.static)
        self.geo = _Geometry(self.static, index, config, timeline)
        curve = index.curve
        self.est_g, self.ex_d, self.min_est, k_arr = _knn_query_tables(self.kst, queries)
        # No lane holds more candidates than objects, so any k past the
        # object count reads the same always-inf column one past it.
        n_obj = self.kst.n_objects
        self.k_arr = np.minimum(k_arr, n_obj + 1)
        self.width = min(int(self.k_arr.max()) + _KNN_ROW_SPARE, n_obj + 1)
        self.queries, self.dataset, self.truths = queries, dataset, {}
        self.n_steps = n_steps
        self.strategy = strategy
        # The aggressive narrowing reads the per-rank minima estimates in
        # position order.
        self.min_est_pos = self.min_est[:, self.kst.rank_of_pos]
        self.slack = curve.cell_diagonal()
        self.guard = index.air_view().knn_guard
        n_q = len(queries)
        self.qx = np.fromiter((q.point.x for q in queries), dtype=np.float64, count=n_q)
        self.qy = np.fromiter((q.point.y for q in queries), dtype=np.float64, count=n_q)

    # -- per-hop plumbing ---------------------------------------------------

    def _set_queries(self, qid: np.ndarray) -> None:
        lanes = self.S
        lanes.qid = qid
        lanes.qo = qid * self.kst.n_objects
        lanes.qg = qid * self.kst.n_groups
        lanes.kk = self.k_arr[qid]

    def begin(self, lane_start: np.ndarray, qrow: np.ndarray,
              err: Optional[_Losses]) -> None:
        """The cold hop: the probe plus ``read_first_table`` (kind-seek) and
        its ``learn_table`` estimates; the conservative strategy also visits
        the entry frame (aggressive leaves it unexamined).  Then the walk,
        knowing what the entry table taught."""
        self._start(lane_start, dense=self.n_steps > 1)
        kst = self.kst
        n = len(lane_start)
        lanes = _KnnLanes()
        lanes.idx = np.arange(n)
        # The master block's session fields are the walker's master arrays.
        lanes.cl, lanes.ch, lanes.tn = self.clock, self.chan, self.tun
        lanes.gs = np.zeros((n, kst.n_groups), dtype=np.int8)
        lanes.rt = np.zeros((n, kst.n_objects), dtype=bool)
        lanes.nr = np.zeros(n, dtype=np.int64)
        lanes.top = np.full((n, self.width), np.inf)
        self.S = lanes
        self._set_queries(qrow)
        rank0 = self._read_entry(err)
        examined = np.zeros((kst.pbits.words, n), dtype=np.uint64)
        if self.strategy == "conservative":
            self._visit(lanes, lanes.idx, rank0)
            kst.pbits.mark(examined, self.static.pos_of_rank[rank0])
        else:
            self._add_est(lanes, lanes.idx, kst.est_grps[rank0], kst.est_on[rank0])
        self._walk(kst.learn_bits.take(rank0, axis=1), examined)

    def hop(self, qrow: np.ndarray) -> None:
        """A later hop on ``qrow``: reset the per-query search state
        (``begin_query`` + fresh space; session position and known ranks
        carry over), then the planner's warm start -- estimate every known
        frame minimum at once (each is a real object's HC value, so its
        unique-HC group; frame minima are strictly increasing, so the groups
        are distinct) and build each candidate row from them."""
        self._set_queries(qrow)
        lanes = self.S
        kst = self.kst
        lanes.rt[:] = False
        lanes.gs[:] = 0
        lanes.gs[:, kst.grp_of_rank] = self.know
        lanes.nr[:] = 0
        self._set_rows(
            lanes, lanes.idx, np.where(self.know, self.min_est[lanes.qid], np.inf)
        )
        known = kst.pbits.pack(self.know[:, kst.rank_of_pos])
        self._walk(known, np.zeros_like(known))

    # -- candidate-space maintenance ----------------------------------------

    def _radius(self, lanes: _KnnLanes, rows: np.ndarray) -> np.ndarray:
        """The k-th smallest candidate of ``rows`` (inf below k): the same
        order statistic the scalar partition/heap hybrid takes."""
        return lanes.top.take(rows * self.width + lanes.kk[rows] - 1)

    def _set_rows(self, lanes: _KnnLanes, rows: np.ndarray, vals: np.ndarray) -> None:
        """Rebuild ``rows``' candidate rows from their whole candidate
        multisets (``vals``, inf-padded)."""
        w = self.width
        if vals.shape[1] > w:
            vals = np.partition(vals, w - 1, axis=1)[:, :w]
        vals.sort(axis=1)
        top = np.full((len(rows), w), np.inf)
        top[:, : vals.shape[1]] = vals
        lanes.top[rows] = top

    def _rebuild(self, lanes: _KnnLanes, rows: np.ndarray) -> None:
        """Rows that dropped an entry from a full candidate row and let
        nothing back in re-read their W smallest candidates from their
        masks."""
        lid, qid = lanes.idx[rows], lanes.qid[rows]
        self._set_rows(lanes, rows, np.concatenate([
            np.where(lanes.gs[lid] == 1, self.est_g[qid], np.inf),
            np.where(lanes.rt[lid], self.ex_d[qid], np.inf),
        ], axis=1))

    def _add_est(
        self, lanes: _KnnLanes, rows: np.ndarray, grp: np.ndarray, on: np.ndarray
    ) -> None:
        """``add_estimates`` for a padded matrix of distinct HC groups per
        row (real entries ``on``): skip groups already estimated or
        retrieved, merge the new values into each row and keep its W
        smallest (a value above the frontier sorts past the last slot)."""
        if not len(rows):
            return
        flat = (lanes.idx[rows] * self.kst.n_groups)[:, None] + grp
        new = on & (lanes.gs.take(flat) == 0)
        lanes.gs.reshape(-1)[np.compress(new.ravel(), flat)] = 1
        vals = self.est_g.take(lanes.qg[rows][:, None] + grp)
        merged = np.concatenate(
            [lanes.top.take(rows, axis=0), np.where(new, vals, np.inf)], axis=1
        )
        merged.sort(axis=1)
        lanes.top[rows] = merged[:, : self.width]

    def _add_exact(
        self, lanes: _KnnLanes, rows: np.ndarray, obj: np.ndarray,
        grp: np.ndarray, est: np.ndarray,
    ) -> None:
        """``add_object`` for one fetched object per row: the exact
        distance joins, the HC's estimate ``est`` (the float that entered)
        pops when the group was estimated.  A popped copy at or below the
        frontier leaves the row and an exact distance at or below it enters
        -- one slot rewritten, one row re-sorted; a row whose copy left
        while its exact distance stayed out rebuilds."""
        w = self.width
        lid = lanes.idx[rows]
        gflat = lid * self.kst.n_groups + grp
        was_est = lanes.gs.take(gflat) == 1
        lanes.gs.reshape(-1)[gflat] = 2
        lanes.rt.reshape(-1)[lid * self.kst.n_objects + obj] = True
        exact = self.ex_d.take(lanes.qo[rows] + obj)
        front = lanes.top[rows, -1]
        drop = was_est & (est <= front)
        enter = exact <= front
        lanes.nr[rows] += 1
        upd = drop | enter
        if not upd.all():
            rows, est, exact, drop, enter = (
                a[upd] for a in (rows, est, exact, drop, enter)
            )
        row = lanes.top.take(rows, axis=0)
        # The popped copy's slot is its first equal entry; otherwise the
        # exact distance displaces the frontier (a free slot, or the
        # largest entry, which it does not exceed).
        slot = np.where(drop, np.argmax(row >= est[:, None], axis=1), w - 1)
        at = np.arange(len(rows)) * w + slot
        row.reshape(-1)[at] = np.where(enter, exact, np.inf)
        row.sort(axis=1, kind="stable")
        lanes.top[rows] = row
        lost = drop & ~enter
        if lost.any():
            self._rebuild(lanes, rows[lost])

    # -- the frame visit ----------------------------------------------------

    def _visit(self, lanes: _KnnLanes, rows: np.ndarray, fr: np.ndarray) -> None:
        """Replay ``learn_table`` and ``_visit_frame`` for ``rows`` (frame
        ``fr[i]`` each, its table just read): directory read, table and
        record estimates and conditional object fetches under the live
        prune radius.  The caller marks the frame examined."""
        geo, kst = self.geo, self.kst
        timeline = geo.timeline
        dirb = kst.dir_bucket[fr]
        hasdir = dirb >= 0
        r_dir = rows[hasdir]
        g0 = kst.obj_start[fr]
        flen = kst.flen[fr]
        if len(r_dir):
            b = dirb[hasdir]
            bch = geo.bchan[b]
            nb = geo.doze(lanes.cl[r_dir], lanes.ch[r_dir], bch)
            lanes.cl[r_dir] = timeline.next_occurrences(b, nb) + geo.bpk[b]
            lanes.tn[r_dir] += geo.bpk[b]
            lanes.ch[r_dir] = bch
        # learn_table and learn_directory estimate at once (no radius is read
        # in between); the directory re-teaches the frame's own minimum,
        # which the table already taught -- no knowledge change.
        self._add_est(lanes, rows, kst.vis_grps[fr], kst.vis_on[fr])
        slack = self.slack
        n_obj = kst.n_objects
        for j in range(int(flen.max(initial=0))):
            on = flen > j
            r_on = rows[on]
            g = g0[on] + j
            # Directory visits skip already-retrieved records; the
            # single-object scan compares unconditionally.
            keep = ~(lanes.rt.take(lanes.idx[r_on] * n_obj + g) & hasdir[on])
            r_c = r_on[keep]
            if not len(r_c):
                continue
            g_c = g[keep]
            grp_c = kst.hc_group[g_c]
            est = self.est_g.take(lanes.qg[r_c] + grp_c)
            fetch = est <= self._radius(lanes, r_c) + slack
            r_f = r_c[fetch]
            if not len(r_f):
                continue
            g_f = g_c[fetch]
            b = kst.obj_bucket[g_f]
            bch = geo.bchan[b]
            nb = geo.doze(lanes.cl[r_f], lanes.ch[r_f], bch)
            lanes.cl[r_f] = timeline.next_occurrences(b, nb) + geo.bpk[b]
            lanes.tn[r_f] += geo.bpk[b]
            lanes.ch[r_f] = bch
            self._add_exact(lanes, r_f, g_f, grp_c[fetch], est[fetch])

    # -- the planner loop ---------------------------------------------------

    def _walk(self, known: np.ndarray, examined: np.ndarray) -> None:
        """Run the planner loop until every lane's candidate set empties,
        from the ``known`` and ``examined`` position bitsets."""
        geo, st, kst = self.geo, self.static, self.kst
        covers, pbits = kst.covers, kst.pbits
        aggressive = self.strategy == "aggressive"
        slack = self.slack
        work = self.S.copy()
        work.kw, work.ew = known, examined
        for it in range(self.guard + 1):
            if not len(work.idx):
                return
            # Candidacy: resolve every lane's cover (vectorised cell-key
            # dedup; only new covers reach the sweep), then fill each
            # lane's known-rank segments from its cover's bits.  With rank
            # 0 known, the planner's piece expansion [kn_prev(a0),
            # kn_next(b0) - 1] is exactly the union of the segments
            # touching the piece (candidate_rank_array).
            rows = np.arange(len(work.idx))
            prune = self._radius(work, rows) + slack
            cids = covers.resolve(work.qid, self.qx, self.qy, prune)
            cand = pbits.candidates(covers.bits.take(cids, axis=1), work.kw, work.ew)
            live = (cand != 0).any(axis=0)
            if not live.all():
                self._retire(work.idx, live, work.cl, work.ch, work.tn, None)
                if self.know is not None:
                    done = ~live
                    self.know[work.idx[done]] = pbits.unpack(
                        work.kw[:, done]
                    )[:, st.pos_of_rank]
                keep = np.flatnonzero(live)
                work.compact(keep)
                if not len(keep):
                    return
                cand = cand.take(keep, axis=1)
            if it == self.guard:
                # The planner's safety cap: each iteration examines a new
                # rank, so only a cap below n_frames reaches it.
                raise KernelUnsupported(
                    "kNN planner iteration cap takes the reference path"
                )
            # Frame choice (_choose_rank): nearest arrival among candidates;
            # while short of k retrievals the aggressive strategy narrows
            # them to the estimate-nearest known ones (arrival breaks ties).
            if aggressive:
                open_rows = np.flatnonzero(work.nr < work.kk)
                if len(open_rows):
                    ckn = pbits.unpack(cand[:, open_rows] & work.kw[:, open_rows])
                    dmat = np.where(ckn, self.min_est_pos[work.qid[open_rows]], np.inf)
                    dmin = dmat.min(axis=1)
                    use = np.isfinite(dmin)
                    if use.any():
                        tie = dmat[use] == dmin[use, None]
                        cand[:, open_rows[use]] = pbits.pack(tie)
            # read_table of the chosen rank, then learn_table + the visit.
            pos, chosen, work.cl, work.ch, work.tn = geo.read_earliest(
                work.cl, work.ch, cand, work.tn, pbits
            )
            work.kw |= kst.learn_bits.take(chosen, axis=1)
            self._visit(work, np.arange(len(work.idx)), chosen)
            pbits.mark(work.ew, pos)

    # -- results ------------------------------------------------------------

    def verify(self, qrow: np.ndarray) -> np.ndarray:
        """Per-lane correctness of ``best_objects`` against ground truth
        (``truths`` memoizes each query's answer across hops)."""
        from ..queries.ground_truth import answer, matches_truth

        lanes = self.S
        kst = self.kst
        cor = np.empty(len(qrow), dtype=np.int64)
        for row, qid in enumerate(qrow.tolist()):
            query = self.queries[qid]
            truth = self.truths.get(qid)
            if truth is None:
                truth = answer(self.dataset, query)
                self.truths[qid] = truth
            gids = np.flatnonzero(lanes.rt[row])
            dists = self.ex_d[qid, gids]
            order = np.lexsort((kst.oids[gids], dists))[: int(query.k)]
            objs = [kst.objects[int(g)] for g in gids[order]]
            cor[row] = int(matches_truth(query, truth, objs))
        return cor


# --- dispatch ---------------------------------------------------------------


def _simulate_items(
    index: Any,
    view: Any,
    config: Any,
    items: Sequence[Sequence[Tuple[Any, int]]],
    key_ids: np.ndarray,
    key_phases: np.ndarray,
    *,
    n_phases: int,
    cycle: int,
    verify: bool,
    dataset: Any,
    error_theta: Optional[float],
    error_scope: str,
    error_seed: int,
    knn_strategy: str,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate every ``(item, phase)`` execution off the reference path.

    An item is the ``(query, dwell_packets)`` steps one client walks: a
    stationary trial is a one-step item, a journey one step per hop.
    Equal-step window items run the DSI or tree walker and equal-step kNN
    items the DSI kNN walker; anything else declines with the reason the
    fleet result surfaces.  The walker compiles its plans or declines; this
    function then collapses the lanes, runs the cold hop and every warm
    hop, and shifts latencies back to the keys.  Returns ``(latency_bytes,
    tuning_bytes, correct_hops)`` summed over each item's hops and aligned
    with the key order (``correct_hops`` is -1 when not verifying).
    """
    n_steps = len(items[0]) if len(items) else 0
    if any(len(steps) != n_steps for steps in items):
        raise KernelUnsupported("journeys have unequal step counts")
    if not n_steps:
        raise KernelUnsupported("empty journeys take the reference path")
    queries = [query for steps in items for query, _ in steps]
    timeline = timeline_of(view)
    if all(isinstance(q, WindowQuery) for q in queries):
        if isinstance(index, DsiIndex):
            family = _Walker
        elif isinstance(index, TreeAirIndex):
            family = _TreeWalker
        else:
            raise KernelUnsupported("no lockstep kernel for this index type")
    elif all(isinstance(q, KnnQuery) for q in queries):
        family = _KnnWalker
    else:
        noun = "workloads" if n_steps == 1 else "journeys"
        raise KernelUnsupported(f"mixed window/kNN {noun} take the reference path")
    # theta == 0 and scope "none" sessions lose nothing and run the
    # (deduplicated) lossless path; the walker declines scopes it cannot run.
    lossless = error_theta is None or float(error_theta) == 0.0 or error_scope == "none"
    walker = family(index, timeline, config, queries, n_steps, verify, dataset,
                    None if lossless else error_scope, knn_strategy)

    key_ids = np.asarray(key_ids, dtype=np.int64)
    key_phases = np.asarray(key_phases, dtype=np.int64)
    start_p, lane_of, ids_c, lane_start = _lanes(
        walker.entry, key_ids, key_phases, n_phases, cycle, lossless
    )
    err = None
    if not lossless:
        # One model per execution, seeded like its reference LinkErrorModel.
        keys = key_ids * np.int64(n_phases) + key_phases
        err = _Losses(_session_seed(int(error_seed), keys), float(error_theta))

    dwell = np.array([[d for _, d in steps] for steps in items], dtype=np.int64)
    qrow = ids_c * n_steps
    correct = np.full(len(ids_c), 0 if verify else -1, dtype=np.int64)
    walker.begin(lane_start, qrow, err)
    total_lat = walker.clock - lane_start
    for h in range(n_steps):
        if h:
            # next_query: advance by the step's dwell, snapshot the hop
            # start, re-arm the probe; per-query state starts empty, the
            # session persists.
            walker.clock += dwell[ids_c, h]
            hop_start = walker.clock.copy()
            walker.clock += 1
            walker.tun += 1
            walker.hop(qrow + h)
            total_lat += walker.clock - hop_start
        if verify:
            correct += walker.verify(qrow + h)

    # Only hop 1's latency depends on the tune-in: shift each phase by its
    # offset from the lane representative (the landmark collapse).
    capacity = walker.geo.capacity
    lat_b = (total_lat[lane_of] + (lane_start[lane_of] - start_p)) * capacity
    return lat_b, walker.tun[lane_of] * capacity, correct[lane_of]


# The two names ``fleetbench`` drives the kernels through, with the
# signatures and 4-tuple return (the backend tag last) it unpacks.


def simulate_window_fleet(
    index: Any, view: Any, config: Any, trials: Sequence[Any],
    key_qids: np.ndarray, key_phases: np.ndarray, *, n_phases: int, cycle: int,
    verify: bool, dataset: Any, error_theta: Optional[float] = None,
    error_scope: str = "index", error_seed: int = 0, knn_strategy: str = "conservative",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Stationary trials as one-step items: ``(latency_bytes, tuning_bytes,
    correct, "numpy")`` per ``(query, phase)`` key."""
    items = [((trial.query, 0),) for trial in trials]
    return _simulate_items(
        index, view, config, items, key_qids, key_phases, n_phases=n_phases,
        cycle=cycle, verify=verify, dataset=dataset, error_theta=error_theta,
        error_scope=error_scope, error_seed=error_seed, knn_strategy=knn_strategy,
    ) + ("numpy",)


def simulate_window_journeys(
    index: Any, view: Any, config: Any, journeys: Sequence[Any],
    key_jids: np.ndarray, key_phases: np.ndarray, *, n_phases: int, cycle: int,
    verify: bool, dataset: Any, error_theta: Optional[float] = None,
    error_scope: str = "index", error_seed: int = 0, knn_strategy: str = "conservative",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Warm journeys: ``(journey_latency_bytes, journey_tuning_bytes,
    correct_hops, "numpy")`` per ``(journey, phase)`` key."""
    items = [tuple((s.query, int(s.dwell_packets)) for s in j.steps) for j in journeys]
    return _simulate_items(
        index, view, config, items, key_jids, key_phases, n_phases=n_phases,
        cycle=cycle, verify=verify, dataset=dataset, error_theta=error_theta,
        error_scope=error_scope, error_seed=error_seed, knn_strategy=knn_strategy,
    ) + ("numpy",)
