"""Structure-of-arrays fleet kernel: lockstep DSI window sweeps in numpy.

The reference fleet path (:func:`repro.sim.fleet._simulate_query_batch`)
replays one full :class:`~repro.broadcast.client.ClientSession` per distinct
``(query, phase)`` execution.  At one channel the error-free *landmark
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
* ``K``   -- which frame *ranks* have a known minimum HC value (the
  knowledge a :class:`~repro.core.knowledge.ClientKnowledge` accumulates);
* ``EX`` / ``PR`` -- which ranks this query has examined / processed.

Three structural facts about DSI make the lockstep walk exact, not
approximate (each is asserted at precompute and the kernel refuses --
falling back to the reference -- when one fails):

1. **Knowledge is a bitmask.**  Everything a table teaches is a true frame
   minimum (own rank, successor, entry targets, segment boundaries), so a
   client's knowledge is fully described by *which* ranks it knows -- the
   values are global constants.  What each table teaches is the static
   ``(F, F)`` boolean matrix ``learn``; absorbing a table is one row-OR.
2. **Candidacy is countable in rank space.**  With strictly increasing
   frame minima the frame extents partition the HC space, the pending set
   stays the disjoint union of the *pieces* (cover ∩ extent) of the
   unprocessed relevant ranks, and the reference's value-space candidate
   test reduces to: rank ``r`` is a candidate iff some unprocessed relevant
   rank lies in ``[B(r), A(r))``, where ``B``/``A`` are the nearest known
   ranks at/below and strictly above ``r`` (0 / ``F`` when none).  That is
   four running min/max sweeps per hop (:func:`_segment_candidates`).
3. **Visit cost is static per (query, rank).**  Because extents are
   disjoint, the qualified objects of a relevant frame -- and therefore the
   exact bucket-read sequence of its visit (directory, then qualified data
   slots) -- depend only on the *initial* clamped cover, never on the order
   frames are processed in.  Visit sequences are precomputed once per query
   and replayed per lane as pure occurrence arithmetic.

Per hop every live lane picks the earliest-arriving candidate table.  All
DSI tables air on one channel (the control channel when striped), so
arrival is modular arithmetic over that channel's cycle.  On *replicated*
(demand-aware) schedules a rank may air several times per cycle; the hop
keeps a per-rank **occurrence matrix** (padded with the first airing) and
takes the wait to each rank's *nearest* copy -- ``min`` over the matrix
columns -- before the candidate argmin.  Distinct airings occupy distinct
cycle offsets, so waits never tie and the reference's lowest-rank tie-break
stays vacuous.  Visits replay through
:meth:`~repro.broadcast.timeline.CompiledTimeline.next_occurrences`, whose
replicated branch already takes the minimum over every copy of a directory
or data bucket.  A lane exits when its candidate set empties, which happens
exactly when all its relevant ranks are processed -- the reference loop's
termination condition.

**Link errors** (``scope="index"``, the experiments' default) vectorise
too: every execution owns one PCG64 stream seeded exactly like its
reference :class:`~repro.broadcast.errors.LinkErrorModel`, and under the
index scope that model draws one uniform per index-*table* reception
attempt, in walk order, and nothing else (probes read no bucket; directory
and data buckets are out of scope).  A chunked stream prefix equals the
same number of scalar ``.random()`` calls, so the kernel buffers each
lane's stream in batched array reads (:class:`_ErrStreams`, which advances
every lane's PCG64 as flat uint64 arrays -- no per-lane ``Generator``
objects -- seeded bit-identically to numpy's) and replays the
reference's retry rules draw for draw: a lost entry read re-seeks the next
table airing (giving up, like the reference's ``RuntimeError``, after
``n_frames + 1`` attempts -- the kernel declines so the fallback reproduces
the error); a lost in-walk read chains to the *next broadcast position*'s
table until one lands (cap ``n_frames``).  Lost reads pay latency and
tuning but teach nothing, and because knowledge still only ever grows, the
candidacy argument above survives unchanged.  Error lanes are per
``(query, phase)`` -- distinct seeds, no dedup -- and diverge freely: the
retry chain advances each lane independently.

**Warm journeys** reuse the same hop engine with persistent lanes: the
knowledge bitmask and the parked channel survive across hops (exactly what
a warm :class:`~repro.mobility.continuous.ContinuousClient` session
carries), while examined/processed reset per hop (``begin_query``).  Hop 1
runs the cold entry (probe + first table + opportunistic entry
processing); later hops advance the clock by the step's dwell, pay the
re-armed probe, and walk with the same global-minimum clamp -- every table
teaches rank 0 (``_Static`` declines indexes where one does not), so the
warm clamp equals the cold one and the per-hop precompute is
hop-invariant.  The hop-1 entry-landmark collapse carries
over whole journeys: lanes are ``(journey, entry occurrence)`` pairs.

Latency is ``exit clock - tune-in`` (summed over hops for journeys);
tuning accumulates *per phase* (identical within a lane: every phase of a
lane pays the same probe, table, directory and data packets).  Answers are
phase-independent (fact 3), so verification runs once per query.

**Tree indexes** (the R-tree-on-air and HCI baselines) run the same
lockstep discipline over a different structure: their window sweeps keep a
*pending set* of tree nodes and data objects and always read the pending
bucket that arrives next.  The kernel compiles each
:class:`~repro.broadcast.treeair.TreeOnAir` into flat node tables (dense
node ids, padded per-node copy matrices, packet sizes) and each query into
its **qualifying subtree** -- the nodes and objects reachable from the root
through entries that intersect the window (R-tree MBRs) or its HC-range
cover (HCI intervals), computed with the indexes' own pruning rules
(``window_children`` / ``range_children``).  That set is timing-independent:
whichever order buckets arrive in, the sweep reads exactly the reachable
nodes and objects, because a successful node read always expands the same
children and a lost read leaves the node pending.  Each query's events
(qualifying nodes in sorted id order, then objects in sorted id order --
the reference's deterministic candidate order) carry a padded copy-bucket
matrix, a static child-adjacency matrix and a root-expansion mask; a hop
then advances every lane as a frontier sweep: batched
``next_occurrences`` over all pending copies, masked argmin (first minimum
= the reference's tie-break), clear the landed event and OR in its
adjacency row.  Node reads draw link errors exactly like the reference
(navigation kind, per-lane streams, in walk order); data reads never do
under the index scope.  Warm journeys add a per-lane node-cache bitmask:
cached pending nodes are expanded for free to a fixpoint at the top of
every step, the vectorised counterpart of ``drain_cached_nodes`` (the
cascade is order-independent for window sweeps, which only union pending
sets).  The entry-landmark collapse keys on the first root-copy arrival --
exactly :meth:`TreeOnAir.entry_landmark` -- so lossless lanes dedup just
like DSI ones.

**kNN fleets** over DSI run the same lockstep discipline with compiled
per-query search plans.  All static geometry is decoded once per query --
every table value and directory record collapses to a distance against a
flat rank-indexed object array (:meth:`DsiIndex.rank_object_arrays`), so
the planner's HC-keyed estimate/exact dictionaries become boolean bitmask
rows over object ids with a shared value row.  Each circle cover is
compiled once per index into a knowledge-free *rank mask* -- the ranks
its pieces span -- memoized on the circle's quantised cell rect, so
repeated calls on one index reuse it across queries, channel counts and
strategies.  A lane's candidates are the ranks whose known-rank segment
``[B(r), A(r))`` holds a mask bit: the window walkers' segment test with
the mask in place of the unprocessed relevant ranks, and the rank-space
image of ``candidate_rank_array``.  The k-th-candidate radius
is a row-wise ``np.partition`` over radius-dirty lanes, frame selection a
batched ``argmin`` reproducing the scalar planner's tie-breaks bit-exactly
(including the ``aggressive`` distance-then-arrival lexsort), and finished
lanes compact out of the working set.  Comparison distances stay scalar
``math.hypot`` -- the vectorised counterpart is not bit-equal -- so only
the representative-point decode batches.  Warm (journey) kNN hops seed the
candidate set from the carried knowledge exactly like the planner's warm
start, so kNN journeys no longer decline to the reference path.

Everything matches the reference walk integer for integer;
``tests/test_fleet_kernel.py`` pins both against a brute-force per-phase
replay across indexes, schedules, error models and journeys.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..broadcast.client import ClientSession
from ..broadcast.program import BucketKind
from ..broadcast.timeline import timeline_of
from ..broadcast.treeair import TreeOnAir
from ..core.knowledge import ClientKnowledge
from ..core.structure import DsiIndex
from ..queries.types import KnnQuery, WindowQuery

__all__ = [
    "KernelUnsupported",
    "simulate_window_fleet",
    "simulate_window_journeys",
]


class KernelUnsupported(Exception):
    """The SoA kernel cannot reproduce the reference walk for this run.

    Raised (and caught by :func:`repro.sim.fleet.run_fleet` /
    :func:`repro.sim.fleet.run_mobile_fleet`, which fall back to the
    per-phase reference path) for non-DSI indexes, kNN trials,
    directory-less layouts, duplicate frame minima, non-index error scopes,
    exhausted loss retries (where the reference raises), or any precompute
    invariant the kernel's exactness argument relies on failing to hold.
    The message is surfaced as ``backend_reason`` on the fleet result.
    """


#: Attribute caching the channel-independent static tables on the index.
_STATIC_ATTR = "_soa_fleet_static"

#: Cover parameters -- must match ``repro.core.window.window_query``.
_MAX_RANGES = 96
_MAX_DEPTH_CAP = 10


class _Static:
    """Per-index constants: frame minima, extents and the learn matrix."""

    __slots__ = ("n_frames", "mins", "ext_lo", "ext_hi", "learn", "pos_of_rank")

    def __init__(self, index: DsiIndex) -> None:
        n_frames = index.n_frames
        mins = np.fromiter(
            (f.min_hc for f in index.frames_by_rank), dtype=np.int64, count=n_frames
        )
        if n_frames > 1 and not np.all(mins[1:] > mins[:-1]):
            # Tied minima make visit contents order-dependent (two frames
            # sharing a minimum share HC values across the extent boundary);
            # the reference path handles that, the lockstep kernel does not.
            raise KernelUnsupported("frame minima are not strictly increasing")
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
        if not learn[:, 0].all():
            # Rank 0 known after the first table read is what lets warm
            # hops share the cold clamp and kNN covers test candidacy by
            # known-rank segments.
            raise KernelUnsupported("a table does not teach rank 0")

        self.n_frames = n_frames
        self.mins = mins
        self.ext_lo = ext_lo
        self.ext_hi = ext_hi
        self.learn = learn
        self.pos_of_rank = pos_of_rank


def _static_of(index: Any) -> _Static:
    if not isinstance(index, DsiIndex):
        raise KernelUnsupported("the SoA kernel handles DSI indexes only")
    if not index.params.use_directory:
        raise KernelUnsupported("directory-less frames take the scan path")
    static = getattr(index, _STATIC_ATTR, None)
    if static is None:
        static = _Static(index)
        setattr(index, _STATIC_ATTR, static)
    return static


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


def _segment_candidates(kn: np.ndarray, hit: np.ndarray) -> np.ndarray:
    """Ranks whose known-rank segment holds a ``hit`` rank (bool rows).

    Rank ``r`` qualifies iff some hit rank ``r'`` lies in ``[B(r), A(r))``,
    with ``B``/``A`` the nearest known ranks at/below and strictly above
    ``r`` (0 / ``F`` when none).  Any such ``r' <= r`` satisfies
    ``r' < A(r)`` outright, so the test splits at ``r``:
    ``(largest hit r' <= r) >= B(r)`` or ``(smallest hit r' > r) < A(r)``
    -- four running sweeps and two elementwise compares, gather-free.
    """
    n_frames = kn.shape[1]
    # Rank-valued sweeps use the smallest dtype that fits: the hop loops
    # are memory-bound and every byte per cell is wall-clock.
    rdt = np.int16 if n_frames < np.iinfo(np.int16).max else np.int32
    ranks_row = np.arange(n_frames, dtype=rdt)
    fill_hi = rdt(n_frames)
    below = np.maximum.accumulate(np.where(kn, ranks_row, rdt(0)), axis=1)
    prev_h = np.maximum.accumulate(np.where(hit, ranks_row, rdt(-1)), axis=1)
    above_ge = np.minimum.accumulate(
        np.where(kn, ranks_row, fill_hi)[:, ::-1], axis=1
    )[:, ::-1]
    next_h_ge = np.minimum.accumulate(
        np.where(hit, ranks_row, fill_hi)[:, ::-1], axis=1
    )[:, ::-1]
    cand = np.empty(kn.shape, dtype=bool)
    cand[:, :-1] = next_h_ge[:, 1:] < above_ge[:, 1:]
    cand[:, -1] = False
    cand |= prev_h >= below
    return cand


def _qualified_mask(hcs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Membership of HC values in sorted disjoint inclusive ranges (parity
    test, same as ``repro.core.visit._qualified_record_indexes``)."""
    flat = (bounds + np.array([0, 1], dtype=np.int64)).ravel()
    return (np.searchsorted(flat, hcs, side="right") & 1) == 1


class _Geometry:
    """Compiled channel geometry of one (index, schedule view) pair.

    Verifies the layout facts the lockstep walk relies on (all index
    tables on the clients' home channel, every rank aired) and bundles the
    multiplicity-aware arrival tables: per-airing arrays for the entry
    kind-seek and the padded per-rank occurrence matrix for in-walk wait
    arithmetic.
    """

    __slots__ = (
        "timeline", "switch", "capacity", "ctrl", "cc",
        "airing_starts", "airing_rank", "occ_rank", "occ_small", "wdtype",
        "pk_of_rank", "rank_of_pos", "bchan", "bpk",
    )

    def __init__(self, static: _Static, index: Any, config: Any, timeline) -> None:
        tables = timeline._kind_tables.get(BucketKind.DSI_TABLE)
        if not tables or len(tables) != 1:
            raise KernelUnsupported("index tables must air on exactly one channel")
        kt = tables[0]
        if kt.channel != timeline.home_channel:
            raise KernelUnsupported("tables must air on the clients' home channel")
        n_frames = static.n_frames
        self.timeline = timeline
        self.switch = (
            int(getattr(config, "channel_switch_packets", 0))
            if timeline.n_channels > 1
            else 0
        )
        self.capacity = int(config.packet_capacity)
        self.ctrl = int(kt.channel)
        self.cc = int(kt.cycle)  # the table channel's cycle

        m = index.params.n_segments
        seg_size = n_frames // m
        # Per *airing* (possibly several per rank on replicated schedules):
        # sorted cycle offsets plus the rank airing at each, for entry seeks.
        bf = timeline.bucket_frame[kt.bucket_ids]
        self.airing_starts = kt.starts
        self.airing_rank = (bf % m) * seg_size + bf // m
        # Per *rank*: the padded occurrence matrix and packet size.
        ids, occ = kt.occurrence_matrix()
        if len(ids) != n_frames:
            raise KernelUnsupported("table buckets and frames disagree")
        bfd = timeline.bucket_frame[ids]
        rank_of_row = (bfd % m) * seg_size + bfd // m
        if not np.array_equal(np.sort(rank_of_row), np.arange(n_frames)):
            raise KernelUnsupported("table buckets do not cover every rank once")
        row_of_rank = np.empty(n_frames, dtype=np.int64)
        row_of_rank[rank_of_row] = np.arange(n_frames)
        self.occ_rank = occ[row_of_rank]
        self.pk_of_rank = timeline.bucket_packets[ids[row_of_rank]]
        rank_of_pos = np.empty(n_frames, dtype=np.int64)
        rank_of_pos[static.pos_of_rank] = np.arange(n_frames)
        self.rank_of_pos = rank_of_pos
        # The hop loop is memory-bound: wait matrices use the smallest
        # dtype the cycle fits (offsets and waits both live in [0, cc)).
        self.wdtype = np.int32 if self.cc < np.iinfo(np.int32).max else np.int64
        self.occ_small = self.occ_rank.astype(self.wdtype)
        self.bchan = timeline.bucket_channel
        self.bpk = timeline.bucket_packets

    def entry_seek(self, nb: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """First table airing at/after ``nb``: ``(start, rank)`` arrays.

        The kind-seek the reference's ``read_first_table`` performs, over
        every airing -- on replicated schedules the nearest *copy* wins.
        """
        base = (nb // self.cc) * self.cc
        off = nb - base
        j = np.searchsorted(self.airing_starts, off, side="left")
        wrap = j == len(self.airing_starts)
        j = np.where(wrap, 0, j)
        start = base + self.airing_starts[j] + wrap * self.cc
        return start, self.airing_rank[j]

    def wait_matrix(self, off: np.ndarray) -> np.ndarray:
        """``(rows, F)`` packets until each rank's *nearest* airing.

        ``off`` holds within-cycle offsets; the elementwise min over the
        occurrence-matrix columns realises the replicated-schedule wait
        (padding repeats the first airing, which never wins wrongly).
        """
        occ = self.occ_small
        o = off.astype(self.wdtype)[:, None]
        cyc = self.wdtype(self.cc)
        w = (occ[:, 0][None, :] - o) % cyc
        for c in range(1, occ.shape[1]):
            np.minimum(w, (occ[:, c][None, :] - o) % cyc, out=w)
        return w

    def wait_rows(self, nb: np.ndarray, ranks: np.ndarray) -> np.ndarray:
        """Packets from absolute clocks ``nb`` to the nearest airing of
        ``ranks`` (one rank per row; the error retry chain's arrival)."""
        occ = self.occ_rank[ranks]
        off = nb - (nb // self.cc) * self.cc
        return ((occ - off[:, None]) % self.cc).min(axis=1)


# --- vectorized PCG64 lanes -----------------------------------------------
#
# ``np.random.default_rng(seed)`` is Generator(PCG64(SeedSequence(seed))).
# Building thousands of those objects costs more than the whole lockstep
# walk (~15 us apiece), so the error streams run the same algorithms as
# flat uint64 lanes instead: O'Neill's seed-hash (SeedSequence) to expand
# each 32-bit seed into PCG64's 256-bit init, then the 128-bit LCG with
# XSL-RR output, carried as (hi, lo) uint64 pairs.  Every constant below is
# numpy's; `tests/test_fleet_kernel.py` pins the streams draw-for-draw
# against ``default_rng`` (numpy guarantees stream stability per seed).

_U32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_XSHIFT = np.uint64(16)
_M32 = (1 << 32) - 1
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)
_D53 = 1.0 / 9007199254740992.0  # 2**-53, Generator.random's scaling


def _seedseq_state(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, uint64)`` for a vector of scalar
    32-bit entropies: (4, n) uint64 -- PCG64's (state, inc) init words."""
    n = len(seeds)
    ent = np.asarray(seeds, dtype=np.uint64) & _U32
    # hash constants evolve identically across lanes (data-independent),
    # so they stay python scalars while the values vectorise.
    hc = [0x43B0D7E5]  # INIT_A

    def hashmix(val: np.ndarray) -> np.ndarray:
        val = (val ^ np.uint64(hc[0])) & _U32
        hc[0] = (hc[0] * 0x931E8875) & _M32  # MULT_A
        val = (val * np.uint64(hc[0])) & _U32
        return val ^ (val >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = ((x * np.uint64(0xCA01F9DD)) - (y * np.uint64(0x4973F715))) & _U32
        return r ^ (r >> _XSHIFT)

    pool = [hashmix(ent)]
    for _ in range(3):
        pool.append(hashmix(np.zeros(n, dtype=np.uint64)))
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    hcb = 0x8B51F9DD  # INIT_B
    out32 = []
    for i in range(8):
        v = pool[i % 4] ^ np.uint64(hcb)
        hcb = (hcb * 0x58F38DED) & _M32  # MULT_B
        v = (v * np.uint64(hcb)) & _U32
        out32.append(v ^ (v >> _XSHIFT))
    out64 = np.empty((4, n), dtype=np.uint64)
    for j in range(4):  # uint32 word pairs assemble little-endian
        out64[j] = out32[2 * j] | (out32[2 * j + 1] << _S32)
    return out64


def _pcg64_step(shi, slo, ihi, ilo):
    """One LCG step ``state = state * PCG_MULT + inc`` in 128 bits."""
    al, ah = slo & _U32, slo >> _S32
    bl, bh = _PCG_MULT_LO & _U32, _PCG_MULT_LO >> _S32
    ll = al * bl
    lh = al * bh
    hl = ah * bl
    mid = (ll >> _S32) + (lh & _U32) + (hl & _U32)
    lo = (ll & _U32) | ((mid & _U32) << _S32)
    hi = ah * bh + (lh >> _S32) + (hl >> _S32) + (mid >> _S32)
    hi = hi + slo * _PCG_MULT_HI + shi * _PCG_MULT_LO
    lo2 = lo + ilo
    return hi + ihi + (lo2 < lo), lo2


def _pcg64_init(seeds: np.ndarray):
    """Per-lane (state_hi, state_lo, inc_hi, inc_lo) after PCG64 seeding:
    ``inc = (initseq << 1) | 1; state = 0; step; state += initstate; step``."""
    init_hi, init_lo, seq_hi, seq_lo = _seedseq_state(seeds)
    ihi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    ilo = (seq_lo << np.uint64(1)) | np.uint64(1)
    shi, slo = _pcg64_step(np.zeros_like(ihi), np.zeros_like(ilo), ihi, ilo)
    lo2 = slo + init_lo
    shi, slo = shi + init_hi + (lo2 < slo), lo2
    shi, slo = _pcg64_step(shi, slo, ihi, ilo)
    return shi, slo, ihi, ilo


class _ErrStreams:
    """Per-lane link-error draw streams, bit-equal to the reference models.

    The reference path seeds one :class:`LinkErrorModel` per ``(query,
    phase)`` execution; under ``scope="index"`` it draws exactly one
    uniform per index-table reception attempt, in walk order.  This helper
    advances the matching PCG64 stream for every lane at once (flat uint64
    state arrays, no ``Generator`` objects) and serves the draws from a
    batched buffer: the chunked prefix of a lane's stream equals the same
    number of scalar ``.random()`` calls, so extending every lane's buffer
    by chunks preserves draw-for-draw equality.
    """

    __slots__ = ("theta", "_shi", "_slo", "_ihi", "_ilo", "_buf", "_ptr")

    _CHUNK = 16

    def __init__(self, seeds: np.ndarray, theta: float) -> None:
        self.theta = float(theta)
        self._shi, self._slo, self._ihi, self._ilo = _pcg64_init(seeds)
        self._buf = self._draw(self._CHUNK)
        self._ptr = np.zeros(len(seeds), dtype=np.int64)

    def _draw(self, k: int) -> np.ndarray:
        """Advance every lane ``k`` draws: (n, k) uniforms in [0, 1).

        ``Generator.random`` is ``(next_uint64 >> 11) * 2**-53``; the
        XSL-RR output mixes the *post-step* 128-bit state (rotate the
        xor-folded halves by the top 6 bits).
        """
        shi, slo = self._shi, self._slo
        ihi, ilo = self._ihi, self._ilo
        out = np.empty((len(slo), k), dtype=np.float64)
        r11, r58, r63, r64 = (np.uint64(11), np.uint64(58), np.uint64(63),
                              np.uint64(64))
        for j in range(k):
            shi, slo = _pcg64_step(shi, slo, ihi, ilo)
            rot = shi >> r58
            x = shi ^ slo
            word = (x >> rot) | (x << ((r64 - rot) & r63))
            out[:, j] = (word >> r11).astype(np.float64) * _D53
        self._shi, self._slo = shi, slo
        return out

    def lost(self, lanes: np.ndarray) -> np.ndarray:
        """One loss draw per requested lane (lanes must be unique)."""
        width = self._buf.shape[1]
        if len(lanes) and int(self._ptr[lanes].max()) >= width:
            self._buf = np.concatenate([self._buf, self._draw(width)], axis=1)
        p = self._ptr[lanes]
        self._ptr[lanes] = p + 1
        return self._buf[lanes, p] < self.theta


def _make_err_streams(
    error_theta: Optional[float],
    error_scope: str,
    error_seed: int,
    key_ids: np.ndarray,
    key_phases: np.ndarray,
    n_phases: int,
) -> Optional[_ErrStreams]:
    """The per-execution loss streams, or None when the run is lossless.

    ``theta == 0`` and ``scope == "none"`` sessions draw nothing and run
    the (deduplicated) lossless path; any lossy scope other than ``index``
    reads buckets the kernel's visit replay does not model losing.
    """
    if error_theta is None or float(error_theta) == 0.0 or error_scope == "none":
        return None
    if error_scope != "index":
        raise KernelUnsupported(
            f"error scope {error_scope!r} takes the reference path"
        )
    keys = key_ids * np.int64(n_phases) + key_phases
    seeds = (np.int64(int(error_seed) * 1_000_003) + keys) & np.int64(0x7FFFFFFF)
    return _ErrStreams(seeds, float(error_theta))


def _precompute_queries(
    static: _Static, index: Any, queries: Sequence[WindowQuery], verify: bool,
    dataset: Any,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-query relevance masks, visit sequences and (optional) answers.

    Returns ``(rel, vlen, voff, vflat, correct)``: the relevant-rank mask,
    the flattened per-(query, rank) visit bucket sequences, and the
    verification verdict per query (-1 when not verifying).
    """
    n_q = len(queries)
    n_frames = static.n_frames
    curve = index.curve
    max_depth = min(curve.order, _MAX_DEPTH_CAP)
    rel = np.zeros((n_q, n_frames), dtype=bool)
    vlen = np.zeros((n_q, n_frames), dtype=np.int64)
    voff = np.zeros((n_q, n_frames), dtype=np.int64)
    vflat: List[int] = []
    correct_q = np.full(n_q, -1, dtype=np.int64)
    if verify:
        from ..queries.ground_truth import answer, matches_truth

    for qid, query in enumerate(queries):
        window = query.window
        cover = curve.ranges_for_rect(
            window, max_ranges=_MAX_RANGES, max_depth=max_depth
        )
        gmin = int(static.mins[0])
        pending = [(max(lo, gmin), hi) for lo, hi in cover if hi >= gmin]
        objs: List[Any] = []
        if pending:
            bounds = np.asarray(pending, dtype=np.int64).reshape(-1, 2)
            p_los = np.ascontiguousarray(bounds[:, 0])
            p_his = np.ascontiguousarray(bounds[:, 1])
            rel_q = _rank_relevance(static, p_los, p_his)
            rel[qid] = rel_q
            for rank in np.flatnonzero(rel_q).tolist():
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
                    if len(object_buckets) != 1:
                        raise KernelUnsupported("multi-object frame without directory")
                    seq = [object_buckets[0]]
                    if inside[0]:
                        objs.append(frame.objects[0])
                else:
                    slots = np.flatnonzero(inside).tolist()
                    seq = [directory] + [object_buckets[s] for s in slots]
                    objs.extend(frame.objects[s] for s in slots)
                voff[qid, rank] = len(vflat)
                vlen[qid, rank] = len(seq)
                vflat.extend(seq)
        if verify:
            final = [o for o in objs if window.contains_point(o.point)]
            truth = answer(dataset, query)
            correct_q[qid] = int(matches_truth(query, truth, final))
    return rel, vlen, voff, np.asarray(vflat, dtype=np.int64), correct_q


class _Walker:
    """Per-lane lockstep state plus the hop engine both kernels share.

    The master arrays (``clock`` / ``chan`` / ``tun`` / ``know`` /
    ``examined`` / ``processed``) always hold every lane; the hop loop
    works on live-lane compactions and scatters back at lane exit, so the
    journey kernel can carry session state into the next hop and the fleet
    kernel reads final clocks straight off the masters.
    """

    def __init__(
        self,
        geo: _Geometry,
        static: _Static,
        rel: np.ndarray,
        vlen: np.ndarray,
        voff: np.ndarray,
        vflat: np.ndarray,
        n_lanes: int,
        err: Optional[_ErrStreams],
    ) -> None:
        self.geo = geo
        self.static = static
        self.rel = rel
        self.vlen = vlen
        self.voff = voff
        self.vflat = vflat
        self.err = err
        self.n_lanes = n_lanes
        n_frames = static.n_frames
        self.clock = np.zeros(n_lanes, dtype=np.int64)
        self.chan = np.full(n_lanes, geo.ctrl, dtype=np.int64)
        self.tun = np.zeros(n_lanes, dtype=np.int64)
        self.know = np.zeros((n_lanes, n_frames), dtype=bool)
        self.examined = np.zeros((n_lanes, n_frames), dtype=bool)
        self.processed = np.zeros((n_lanes, n_frames), dtype=bool)

    def _visit_on(
        self,
        clock: np.ndarray,
        chan: np.ndarray,
        tun: np.ndarray,
        rows: np.ndarray,
        ranks: np.ndarray,
        qr: np.ndarray,
    ) -> None:
        """Replay the visit sequences of ``ranks`` for compacted ``rows``:
        pure occurrence arithmetic advancing clock/channel/tuning.  Visits
        read directory and data buckets only, which the index error scope
        never loses, so the lossless and error paths share this replay."""
        if not len(rows):
            return
        geo = self.geo
        timeline = geo.timeline
        lengths = self.vlen[qr[rows], ranks]
        offsets = self.voff[qr[rows], ranks]
        vclock = clock[rows]
        vchan = chan[rows]
        paid = np.zeros(len(rows), dtype=np.int64)
        for i in range(int(lengths.max(initial=0))):
            on = lengths > i
            b = self.vflat[offsets[on] + i]
            ch = geo.bchan[b]
            nb = vclock[on]
            if geo.switch:
                nb = nb + geo.switch * (ch != vchan[on])
            # next_occurrences handles replicated buckets (min over copies).
            vclock[on] = timeline.next_occurrences(b, nb) + geo.bpk[b]
            vchan[on] = ch
            paid[on] += geo.bpk[b]
        clock[rows] = vclock
        chan[rows] = vchan
        tun[rows] += paid

    def cold_entry(self, qrow: np.ndarray, start_clock: np.ndarray) -> np.ndarray:
        """The probe plus the first index-table read (with loss retries),
        then the reference's opportunistic entry-frame processing."""
        geo, st, err = self.geo, self.static, self.err
        self.clock[:] = np.asarray(start_clock, dtype=np.int64) + 1  # the probe
        self.tun[:] = 1
        if err is None:
            start, rank0 = geo.entry_seek(self.clock)
            pk = geo.pk_of_rank[rank0]
            self.clock[:] = start + pk
            self.tun += pk
            self.know |= st.learn[rank0]
        else:
            rank0 = np.zeros(self.n_lanes, dtype=np.int64)
            pend = np.arange(self.n_lanes)
            attempts = 0
            while len(pend):
                start, r = geo.entry_seek(self.clock[pend])
                pk = geo.pk_of_rank[r]
                self.clock[pend] = start + pk
                self.tun[pend] += pk
                lost = err.lost(pend)
                ok = pend[~lost]
                rank0[ok] = r[~lost]
                self.know[ok] |= st.learn[r[~lost]]
                pend = pend[lost]
                attempts += 1
                if len(pend) and attempts > st.n_frames + 1:
                    # The reference raises RuntimeError here; decline so the
                    # fallback path reproduces it.
                    raise KernelUnsupported("entry-table retries exhausted")
        # Entry frame: opportunistically processed when relevant; when not,
        # the table alone proved it irrelevant but it is *not* marked
        # examined (the reference only marks frames read inside the walk).
        ev = np.flatnonzero(self.rel[qrow, rank0])
        self.examined[ev, rank0[ev]] = True
        self.processed[ev, rank0[ev]] = True
        self._visit_on(self.clock, self.chan, self.tun, ev, rank0[ev], qrow)
        return rank0

    def walk(self, qrow: np.ndarray) -> None:
        """Advance every lane to pending-set exhaustion (one query hop)."""
        geo, st, err = self.geo, self.static, self.err
        n_frames = st.n_frames
        idx = np.arange(self.n_lanes)
        cl = self.clock.copy()
        ch = self.chan.copy()
        tn = self.tun.copy()
        kn = self.know.copy()
        ex = self.examined.copy()
        pr = self.processed.copy()
        qr = np.asarray(qrow, dtype=np.int64)
        rl = self.rel[qr]
        big = geo.wdtype(geo.cc)
        hop_limit = 8 * n_frames + 64  # the reference walk's safety bound
        for hop in range(hop_limit + 1):
            if not len(idx):
                break
            # Candidacy: r is a candidate iff it is unexamined and its
            # known-rank segment holds an unprocessed relevant rank.
            cand = _segment_candidates(kn, rl & ~pr)
            cand &= ~ex
            has = cand.any(axis=1)

            if not has.all():
                done = idx[~has]
                self.clock[done] = cl[~has]
                self.chan[done] = ch[~has]
                self.tun[done] = tn[~has]
                self.know[done] = kn[~has]
                idx = idx[has]
                if not len(idx):
                    break
                cl, ch, tn = cl[has], ch[has], tn[has]
                kn, ex, pr = kn[has], ex[has], pr[has]
                rl, qr, cand = rl[has], qr[has], cand[has]
            if hop == hop_limit:
                raise KernelUnsupported("hop limit exceeded")  # pragma: no cover

            # Earliest-arriving candidate: wait to each rank's *nearest*
            # airing from the (switch-adjusted) clock; distinct airings sit
            # at distinct cycle offsets, so waits never tie and the
            # reference's lowest-rank tie-break stays vacuous.
            nb = cl
            if geo.switch:
                nb = nb + geo.switch * (ch != geo.ctrl)
            base = (nb // geo.cc) * geo.cc
            off = nb - base
            wait = geo.wait_matrix(off)
            rows_all = np.arange(len(idx))
            chosen = np.argmin(np.where(cand, wait, big), axis=1)

            if err is None:
                pk = geo.pk_of_rank[chosen]
                cl = nb + wait[rows_all, chosen].astype(np.int64) + pk
                ch = np.full(len(idx), geo.ctrl, dtype=np.int64)
                tn = tn + pk
                fr = chosen
            else:
                # The reference's read_table retry chain: a lost read pays
                # its packets (parking the radio on the table channel) and
                # retries the *next broadcast position*'s table from the
                # new clock, up to n_frames failures.
                fr = chosen.copy()
                pos = st.pos_of_rank[chosen]
                active = rows_all
                nbv = nb  # first attempt: the switch-adjusted clock
                attempts = 0
                while True:
                    r = fr[active]
                    w = geo.wait_rows(nbv, r)
                    pk = geo.pk_of_rank[r]
                    cl[active] = nbv + w + pk
                    tn[active] += pk
                    ch[active] = geo.ctrl
                    lost = err.lost(idx[active])
                    still = active[lost]
                    if not len(still):
                        break
                    attempts += 1
                    if attempts > n_frames:
                        # The reference raises RuntimeError; decline so the
                        # fallback path reproduces it.
                        raise KernelUnsupported("index-table retries exhausted")
                    pos[still] = (pos[still] + 1) % n_frames
                    fr[still] = geo.rank_of_pos[pos[still]]
                    active = still
                    nbv = cl[active]

            # Absorb the (successfully read) table; process when relevant
            # and not already processed -- exactly overlaps_pending.
            kn |= st.learn[fr]
            ex[rows_all, fr] = True
            do = rl[rows_all, fr] & ~pr[rows_all, fr]
            rows = np.flatnonzero(do)
            pr[rows, fr[rows]] = True
            self._visit_on(cl, ch, tn, rows, fr[rows], qr)


def _entry_lanes(
    geo: _Geometry,
    key_ids: np.ndarray,
    start_p: np.ndarray,
    cycle: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse ``(id, phase)`` keys onto ``(id, entry occurrence)`` lanes.

    Two error-free phases whose first table read is the same absolute
    airing share their whole absolute trace (the landmark collapse), so
    they share a lane; the entry *occurrence index* -- the absolute start,
    not just the bucket -- keys the dedup, which is what lets replicated
    (demand-aware) schedules collapse exactly like striped ones.  Returns
    ``(first_idx, lane_of_key)``.
    """
    entry_start, _ = geo.entry_seek(start_p + 1)
    # entry_start < cycle + 2*cc, so the multiplier keeps keys collision-free.
    entry_key = key_ids * np.int64(2 * (cycle + geo.cc) + 4) + entry_start
    _, first_idx, lane_of = np.unique(entry_key, return_index=True, return_inverse=True)
    return first_idx, lane_of


def _simulate_dsi_fleet(
    index: Any,
    view: Any,
    config: Any,
    queries: Sequence[WindowQuery],
    key_qids: np.ndarray,
    key_phases: np.ndarray,
    *,
    n_phases: int,
    cycle: int,
    verify: bool,
    dataset: Any,
    error_theta: Optional[float],
    error_scope: str,
    error_seed: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate every DSI ``(query, phase)`` execution in lockstep.

    Returns ``(latency_bytes, tuning_bytes, correct)`` aligned with the
    ``key_qids`` / ``key_phases`` order -- the exact triple the reference
    per-phase path emits (``correct`` is -1 when not verifying).  Raises
    :class:`KernelUnsupported` whenever the run falls outside the kernel's
    proven-exact envelope.
    """
    static = _static_of(index)
    timeline = timeline_of(view)
    geo = _Geometry(static, index, config, timeline)
    key_qids = np.asarray(key_qids, dtype=np.int64)
    key_phases = np.asarray(key_phases, dtype=np.int64)
    err = _make_err_streams(
        error_theta, error_scope, error_seed, key_qids, key_phases, n_phases
    )
    rel, vlen, voff, vflat, correct_q = _precompute_queries(
        static, index, queries, verify, dataset
    )

    start_p = (key_phases * cycle) // n_phases
    if err is None:
        first_idx, lane_of = _entry_lanes(geo, key_qids, start_p, cycle)
        qrow = key_qids[first_idx]
        lane_start = start_p[first_idx]
    else:
        # Every execution draws its own loss realisation: one lane per key.
        lane_of = np.arange(len(key_qids))
        qrow = key_qids
        lane_start = start_p

    walker = _Walker(geo, static, rel, vlen, voff, vflat, len(qrow), err)
    walker.cold_entry(qrow, lane_start)
    walker.walk(qrow)

    lat_b = (walker.clock[lane_of] - start_p) * geo.capacity
    tun_b = walker.tun[lane_of] * geo.capacity
    return lat_b, tun_b, correct_q[key_qids]


def _simulate_dsi_journeys(
    index: Any,
    view: Any,
    config: Any,
    queries: Sequence[WindowQuery],
    dwell_arr: np.ndarray,
    n_steps: int,
    key_jids: np.ndarray,
    key_phases: np.ndarray,
    *,
    n_phases: int,
    cycle: int,
    verify: bool,
    dataset: Any,
    error_theta: Optional[float],
    error_scope: str,
    error_seed: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate every warm DSI ``(journey, phase)`` execution in lockstep.

    Returns ``(journey_latency_bytes, journey_tuning_bytes, correct_hops)``
    aligned with the key order -- the exact triple the reference per-phase
    journey path emits (``correct_hops`` is -1 when not verifying).  Lanes
    persist across hops: knowledge and the parked channel carry over, while
    examined/processed reset per hop, exactly like a warm session.
    """
    static = _static_of(index)
    timeline = timeline_of(view)
    geo = _Geometry(static, index, config, timeline)
    key_jids = np.asarray(key_jids, dtype=np.int64)
    key_phases = np.asarray(key_phases, dtype=np.int64)
    err = _make_err_streams(
        error_theta, error_scope, error_seed, key_jids, key_phases, n_phases
    )
    # One precompute row per (journey, step): knowledge clamps pending at
    # the global minimum, which hop 1's entry read always teaches (_Static
    # gates that every table teaches rank 0), so warm hops share the cold
    # clamp and the per-row tables are hop-invariant.
    rel, vlen, voff, vflat, correct_q = _precompute_queries(
        static, index, queries, verify, dataset
    )
    n_j = len(queries) // n_steps
    if verify:
        correct_hops = correct_q.reshape(n_j, n_steps).sum(axis=1)
    else:
        correct_hops = np.full(n_j, -1, dtype=np.int64)

    start_p = (key_phases * cycle) // n_phases
    if err is None:
        first_idx, lane_of = _entry_lanes(geo, key_jids, start_p, cycle)
        jid_c = key_jids[first_idx]
        lane_start = start_p[first_idx]
    else:
        lane_of = np.arange(len(key_jids))
        jid_c = key_jids
        lane_start = start_p

    walker = _Walker(geo, static, rel, vlen, voff, vflat, len(jid_c), err)
    total_lat = np.zeros(len(jid_c), dtype=np.int64)
    qrow = jid_c * n_steps
    walker.cold_entry(qrow, lane_start)
    walker.walk(qrow)
    total_lat += walker.clock - lane_start
    for h in range(1, n_steps):
        # next_query: advance by the step's dwell, snapshot the hop start,
        # re-arm the probe; per-query state resets, session state persists.
        walker.clock += dwell_arr[jid_c, h]
        hop_start = walker.clock.copy()
        walker.clock += 1
        walker.tun += 1
        walker.examined[:] = False
        walker.processed[:] = False
        walker.walk(jid_c * n_steps + h)
        total_lat += walker.clock - hop_start

    # Only hop 1's latency depends on the tune-in: shift each phase by its
    # offset from the lane representative (the landmark collapse).
    lat_b = (total_lat[lane_of] + (lane_start[lane_of] - start_p)) * geo.capacity
    tun_b = walker.tun[lane_of] * geo.capacity
    return lat_b, tun_b, correct_hops[key_jids]


# --- tree-index lanes (R-tree on air, HCI) ----------------------------------

#: Attribute caching the schedule-independent tree tables on the TreeOnAir.
_TREE_STATIC_ATTR = "_soa_tree_static"


class _TreeStatic:
    """Per-tree constants: dense node ids and padded copy/packet tables."""

    __slots__ = ("node_ids", "dense_of", "n_nodes", "root_dense", "copy_mat",
                 "node_pk")

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


def _tree_static_of(air: TreeOnAir) -> _TreeStatic:
    static = getattr(air, _TREE_STATIC_ATTR, None)
    if static is None:
        static = _TreeStatic(air)
        setattr(air, _TREE_STATIC_ATTR, static)
    return static


class _TreeGeometry:
    """Verified channel geometry of one (tree, schedule view, config) triple.

    The frontier sweep's argmin tie-break (first minimum over the sorted
    event axis) equals :meth:`TreeOnAir.next_pending_event`'s lowest-id
    tie-break only because every node bucket airs on the clients' home
    channel (ties are impossible within one channel, and cross-channel
    node-vs-data ties resolve by event order on both paths only when the
    candidate order matches -- which it does, nodes sorted before objects).
    """

    __slots__ = ("timeline", "switch", "capacity", "ctrl", "root_ids",
                 "root_pk", "guard")

    def __init__(self, static: _TreeStatic, air: TreeOnAir, config: Any,
                 timeline) -> None:
        home = timeline.home_channel
        if home is None:
            home = 0
        ch = timeline.bucket_channel[static.copy_mat]
        if not np.all(ch == int(home)):
            raise KernelUnsupported(
                "tree nodes must air on the clients' home channel"
            )
        if not np.array_equal(
            timeline.bucket_packets[static.copy_mat],
            np.broadcast_to(static.node_pk[:, None], static.copy_mat.shape),
        ):
            raise KernelUnsupported("node packet sizes disagree with the timeline")
        self.timeline = timeline
        self.switch = (
            int(getattr(config, "channel_switch_packets", 0))
            if timeline.n_channels > 1
            else 0
        )
        self.capacity = int(config.packet_capacity)
        self.ctrl = int(home)
        self.root_ids = np.asarray(air.node_buckets[air.root_id], dtype=np.int64)
        self.root_pk = int(static.node_pk[static.root_dense])
        self.guard = 64 * len(air.program) + 256


def _tree_geometry_of(
    static: _TreeStatic, air: TreeOnAir, config: Any, timeline
) -> _TreeGeometry:
    """The verified geometry, cached on the timeline's scratch ``aux`` slot.

    Keyed weakly by the air layout plus the config facts that enter the
    geometry (capacity, switch cost), so repeated fleet calls over the same
    schedule skip re-verification without ever serving a stale geometry.
    """
    cache = timeline.aux.get("tree_geometry")
    if cache is None:
        cache = weakref.WeakKeyDictionary()
        timeline.aux["tree_geometry"] = cache
    per_air = cache.get(air)
    if per_air is None:
        per_air = {}
        cache[air] = per_air
    key = (
        int(config.packet_capacity),
        int(getattr(config, "channel_switch_packets", 0)),
    )
    geo = per_air.get(key)
    if geo is None:
        geo = _TreeGeometry(static, air, config, timeline)
        per_air[key] = geo
    return geo


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


def _precompute_tree_queries(
    static: _TreeStatic,
    index: Any,
    air: TreeOnAir,
    geo: _TreeGeometry,
    queries: Sequence[WindowQuery],
    verify: bool,
    dataset: Any,
) -> _TreeQueries:
    """Compile each window query's qualifying subtree into flat event tables.

    The qualifying subtree -- every node/object reachable from the root
    through entries the index's own pruning rule accepts -- is timing
    independent (a successful read always expands the same children, a lost
    read leaves the node pending), so answers and adjacency are static and
    verification runs once per query.
    """
    from ..hci.air import HciAirIndex
    from ..rtree.air import RTreeAirIndex

    timeline = geo.timeline
    is_rtree = isinstance(index, RTreeAirIndex)
    is_hci = isinstance(index, HciAirIndex)
    if not (is_rtree or is_hci):
        raise KernelUnsupported("no lockstep kernel for this index type")
    if verify:
        from ..queries.ground_truth import answer, matches_truth

    n_q = len(queries)
    width = static.copy_mat.shape[1]
    per_query: List[Optional[Tuple[List[int], List[int], Dict[int, Tuple[List[int], List[int]]]]]] = []
    has_root = np.ones(n_q, dtype=bool)
    correct_q = np.full(n_q, -1, dtype=np.int64)
    n_events = 1
    for qid, query in enumerate(queries):
        window = query.window
        if is_rtree:
            def prune(node):
                return RTreeAirIndex.window_children(node, window)
        else:
            cover = index.window_cover(window)
            if not cover:
                # The reference's empty-cover early return: the probe is
                # paid but not even the root is read.
                has_root[qid] = False
                per_query.append(None)
                if verify:
                    truth = answer(dataset, query)
                    correct_q[qid] = int(matches_truth(query, truth, []))
                continue

            def prune(node):
                return HciAirIndex.range_children(node, cover)

        children_of: Dict[int, Tuple[List[int], List[int]]] = {}
        oid_set: Set[int] = set()
        stack = [air.root_id]
        while stack:
            nid = stack.pop()
            if nid in children_of:
                continue
            kids, oids = prune(air.nodes[nid])
            children_of[nid] = (kids, oids)
            oid_set.update(oids)
            stack.extend(kids)
        nodes = sorted(children_of.keys() - {air.root_id})
        oids = sorted(oid_set)
        per_query.append((nodes, oids, children_of))
        n_events = max(n_events, len(nodes) + len(oids))
        if verify:
            objs = [
                air.program.buckets[air.object_bucket[oid]].payload
                for oid in oids
            ]
            final = [o for o in objs if window.contains_point(o.point)]
            truth = answer(dataset, query)
            correct_q[qid] = int(matches_truth(query, truth, final))

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
    tq.has_root = has_root
    tq.correct = correct_q
    for qid, ev in enumerate(per_query):
        if ev is None:
            continue
        nodes, oids, children_of = ev
        e_of: Dict[Tuple[str, int], int] = {
            ("node", nid): e for e, nid in enumerate(nodes)
        }
        base = len(nodes)
        for e, oid in enumerate(oids):
            e_of[("data", oid)] = base + e
        for e, nid in enumerate(nodes):
            d = static.dense_of[nid]
            tq.ev_ids[qid, e] = static.copy_mat[d]
            tq.ev_pk[qid, e] = static.node_pk[d]
            tq.ev_node[qid, e] = True
            tq.ev_dense[qid, e] = d
        for e, oid in enumerate(oids):
            b = air.object_bucket[oid]
            tq.ev_ids[qid, base + e] = b
            tq.ev_pk[qid, base + e] = timeline.bucket_packets[b]
            tq.ev_chan[qid, base + e] = timeline.bucket_channel[b]
        for nid, (kids, n_oids) in children_of.items():
            row = (
                tq.root_mask[qid]
                if nid == air.root_id
                else tq.ev_adj[qid, e_of[("node", nid)]]
            )
            for child in kids:
                row[e_of[("node", child)]] = True
            for oid in n_oids:
                row[e_of[("data", oid)]] = True
    return tq


class _TreeWalker:
    """Per-lane lockstep state plus the frontier-sweep hop engine.

    The master arrays (``clock`` / ``chan`` / ``tun``, plus the node-cache
    bitmask on warm journeys) always hold every lane; the sweep loop works
    on live-lane compactions and scatters back at lane exit, so the journey
    kernel carries session state into the next hop and the fleet kernel
    reads final clocks straight off the masters.
    """

    def __init__(
        self,
        geo: _TreeGeometry,
        tq: _TreeQueries,
        n_lanes: int,
        err: Optional[_ErrStreams],
        caching: bool,
    ) -> None:
        self.geo = geo
        self.tq = tq
        self.err = err
        self.n_lanes = n_lanes
        self.caching = caching
        self.clock = np.zeros(n_lanes, dtype=np.int64)
        self.chan = np.full(n_lanes, geo.ctrl, dtype=np.int64)
        self.tun = np.zeros(n_lanes, dtype=np.int64)
        if caching:
            self.cached = np.zeros((n_lanes, tq.n_nodes), dtype=bool)
            self.root_cached = np.zeros(n_lanes, dtype=bool)

    def begin(self, start_clock: np.ndarray) -> None:
        """Tune in: the initial probe of a cold session."""
        self.clock[:] = np.asarray(start_clock, dtype=np.int64) + 1
        self.tun[:] = 1

    def probe(self) -> None:
        """The re-armed probe of a warm hop (after ``next_query``)."""
        self.clock += 1
        self.tun += 1

    def _root_arrival(self, rows: np.ndarray) -> np.ndarray:
        geo = self.geo
        nb = self.clock[rows]
        if geo.switch:
            nb = nb + geo.switch * (self.chan[rows] != geo.ctrl)
        return geo.timeline.next_occurrences(
            geo.root_ids[None, :], nb[:, None]
        ).min(axis=1)

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
            self.clock[pend] = self._root_arrival(pend) + geo.root_pk
            self.tun[pend] += geo.root_pk
            self.chan[pend] = geo.ctrl
            lost = err.lost(pend)
            pend = pend[lost]
            attempts += 1
            if len(pend) and attempts >= 48:
                # read_node's max_attempts: the reference raises
                # RuntimeError; decline so the fallback reproduces it.
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
        pending = np.zeros((self.n_lanes, tq.n_events), dtype=bool)
        pending[has_root] = tq.root_mask[qr[has_root]]
        self._walk(qr, pending)

    def _drain(self, idx: np.ndarray, qv: np.ndarray, P: np.ndarray) -> np.ndarray:
        """Expand cached pending nodes for free, to a fixpoint.

        The vectorised ``drain_cached_nodes`` cascade: the reference drains
        one cached node per step, but a window sweep's expansion only ever
        unions pending sets, so draining all of them (and whatever cached
        nodes that uncovers) before the next on-air read is order
        independent and lands in the identical pending state.
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
        idx = np.arange(self.n_lanes)
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
        if geo.switch:
            nb = cl[:, None] + geo.switch * (chn != ch[:, None])
        else:
            nb = np.broadcast_to(cl[:, None], chn.shape)
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
            if geo.switch:
                nb = cl[:, None] + geo.switch * (chn != ch[:, None])
            else:
                nb = np.broadcast_to(cl[:, None], chn.shape)
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
            cl = arr[rows, e] + epk
            tn = tn + epk
            ch = chn[rows, e].copy()
            node_ev = isn[rows, e]
            if err is None:
                ok = np.ones(len(idx), dtype=bool)
            else:
                # Only navigation buckets draw under the index scope, in
                # walk order -- one uniform per node reception attempt.
                ok = np.ones(len(idx), dtype=bool)
                nodes = np.flatnonzero(node_ev)
                if len(nodes):
                    ok[nodes] = ~err.lost(idx[nodes])
            okr = np.flatnonzero(ok)
            P[okr, e[okr]] = False
            expand = np.flatnonzero(ok & node_ev)
            if len(expand):
                P[expand] |= tq.ev_adj[qv[expand], e[expand]]
                if self.caching:
                    self.cached[idx[expand], tq.ev_dense[qv[expand], e[expand]]] = True


def _tree_entry_lanes(
    geo: _TreeGeometry, key_ids: np.ndarray, start_p: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse ``(id, phase)`` keys onto ``(id, root occurrence)`` lanes.

    The tree landmark is the first root-copy read
    (:meth:`TreeOnAir.entry_landmark`): error-free phases sharing it share
    their whole absolute trace.  All root copies air on the home channel
    the radio tunes in on, so the arrival alone keys the dedup (one
    channel: a start determines its bucket).
    """
    arr = geo.timeline.next_occurrences(
        geo.root_ids[None, :],
        (np.asarray(start_p, dtype=np.int64) + 1)[:, None],
    ).min(axis=1)
    entry_key = key_ids * np.int64(int(arr.max(initial=0)) + 2) + arr
    _, first_idx, lane_of = np.unique(
        entry_key, return_index=True, return_inverse=True
    )
    return first_idx, lane_of


def _simulate_tree_fleet(
    index: Any,
    air: TreeOnAir,
    view: Any,
    config: Any,
    queries: Sequence[WindowQuery],
    key_qids: np.ndarray,
    key_phases: np.ndarray,
    *,
    n_phases: int,
    cycle: int,
    verify: bool,
    dataset: Any,
    error_theta: Optional[float],
    error_scope: str,
    error_seed: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lockstep frontier sweeps for every tree-index ``(query, phase)``."""
    static = _tree_static_of(air)
    timeline = timeline_of(view)
    geo = _tree_geometry_of(static, air, config, timeline)
    key_qids = np.asarray(key_qids, dtype=np.int64)
    key_phases = np.asarray(key_phases, dtype=np.int64)
    err = _make_err_streams(
        error_theta, error_scope, error_seed, key_qids, key_phases, n_phases
    )
    tq = _precompute_tree_queries(static, index, air, geo, queries, verify, dataset)

    start_p = (key_phases * cycle) // n_phases
    if err is None:
        first_idx, lane_of = _tree_entry_lanes(geo, key_qids, start_p)
        qrow = key_qids[first_idx]
        lane_start = start_p[first_idx]
    else:
        lane_of = np.arange(len(key_qids))
        qrow = key_qids
        lane_start = start_p

    walker = _TreeWalker(geo, tq, len(qrow), err, caching=False)
    walker.begin(lane_start)
    walker.hop(qrow)

    lat_b = (walker.clock[lane_of] - start_p) * geo.capacity
    tun_b = walker.tun[lane_of] * geo.capacity
    return lat_b, tun_b, tq.correct[key_qids]


def _simulate_tree_journeys(
    index: Any,
    air: TreeOnAir,
    view: Any,
    config: Any,
    queries: Sequence[WindowQuery],
    dwell_arr: np.ndarray,
    n_steps: int,
    key_jids: np.ndarray,
    key_phases: np.ndarray,
    *,
    n_phases: int,
    cycle: int,
    verify: bool,
    dataset: Any,
    error_theta: Optional[float],
    error_scope: str,
    error_seed: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Warm tree journeys: persistent node caches, per-hop frontier sweeps."""
    static = _tree_static_of(air)
    timeline = timeline_of(view)
    geo = _tree_geometry_of(static, air, config, timeline)
    key_jids = np.asarray(key_jids, dtype=np.int64)
    key_phases = np.asarray(key_phases, dtype=np.int64)
    err = _make_err_streams(
        error_theta, error_scope, error_seed, key_jids, key_phases, n_phases
    )
    tq = _precompute_tree_queries(static, index, air, geo, queries, verify, dataset)
    n_j = len(queries) // n_steps
    if verify:
        correct_hops = tq.correct.reshape(n_j, n_steps).sum(axis=1)
    else:
        correct_hops = np.full(n_j, -1, dtype=np.int64)

    start_p = (key_phases * cycle) // n_phases
    if err is None:
        first_idx, lane_of = _tree_entry_lanes(geo, key_jids, start_p)
        jid_c = key_jids[first_idx]
        lane_start = start_p[first_idx]
    else:
        lane_of = np.arange(len(key_jids))
        jid_c = key_jids
        lane_start = start_p

    walker = _TreeWalker(geo, tq, len(jid_c), err, caching=True)
    total_lat = np.zeros(len(jid_c), dtype=np.int64)
    walker.begin(lane_start)
    walker.hop(jid_c * n_steps)
    total_lat += walker.clock - lane_start
    for h in range(1, n_steps):
        walker.clock += dwell_arr[jid_c, h]
        hop_start = walker.clock.copy()
        walker.probe()
        walker.hop(jid_c * n_steps + h)
        total_lat += walker.clock - hop_start

    lat_b = (total_lat[lane_of] + (lane_start[lane_of] - start_p)) * geo.capacity
    tun_b = walker.tun[lane_of] * geo.capacity
    return lat_b, tun_b, correct_hops[key_jids]


# --- kNN lanes (DSI) --------------------------------------------------------


_KNN_STATIC_ATTR = "_soa_knn_static"

KNN_SAFETY_MARGIN = 256  # mirrors the planner's ``4 * n_frames + 256`` cap


class _KnnStatic:
    """Per-index kNN constants: flat object geometry plus table estimate rows.

    The scalar planner keeps two candidate sets with different keys:
    exact distances per *object* and estimates per *HC value* (objects
    sharing a cell share one estimate, and a retrieved HC blocks its
    re-estimation).  Both compile to flat integer spaces here: object ids
    (``obj_start[rank] + slot``, global HC order) and unique-HC *group*
    ids (``hc_group`` maps objects to groups; duplicates are consecutive
    in the flat order).  Every table's ``learn_table`` estimate set -- its
    own minimum plus its entry landmarks, all frame minima -- becomes a
    padded row of group ids (``est_grps``/``est_len``).
    """

    __slots__ = (
        "n_objects", "n_groups", "flen", "obj_start", "obj_bucket", "oids",
        "hcs", "hc_group", "grp_hcs", "grp_of_rank", "dir_bucket",
        "est_grps", "est_len", "objects", "covers",
    )

    def __init__(self, static: _Static, index: Any) -> None:
        ro = index.rank_object_arrays()
        hcs = ro.hcs
        n_frames = static.n_frames
        if np.any(ro.flen < 1):
            raise KernelUnsupported("empty frames take the reference path")
        if len(hcs) > 1 and np.any(hcs[1:] < hcs[:-1]):
            raise KernelUnsupported(
                "unsorted broadcast objects take the reference path"
            )
        if not np.array_equal(static.mins, hcs[ro.obj_start]):
            raise KernelUnsupported(
                "frame minima do not map to slot-0 objects"
            )
        if np.any((ro.dir_bucket < 0) & (ro.flen > 1)):
            # The reference would scan such a frame unconditionally; the
            # built structure never produces it under use_directory.
            raise KernelUnsupported(
                "multi-object frame without directory takes the reference path"
            )
        grp_hcs, hc_group = np.unique(hcs, return_inverse=True)
        rank_of_pos = np.empty(n_frames, dtype=np.int64)
        rank_of_pos[static.pos_of_rank] = np.arange(n_frames)
        width = 1 + max(len(t.entries) for t in index.tables)
        est_grps = np.zeros((n_frames, width), dtype=np.int64)
        est_len = np.zeros(n_frames, dtype=np.int64)
        grp_of_rank = hc_group[ro.obj_start]
        for rank in range(n_frames):
            table = index.tables[int(static.pos_of_rank[rank])]
            targets = [rank] + [int(rank_of_pos[e.frame_pos]) for e in table.entries]
            grps = grp_of_rank[targets]
            est_len[rank] = len(grps)
            est_grps[rank, : len(grps)] = grps
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
        self.est_grps = est_grps
        self.est_len = est_len
        self.objects = ro.objects
        self.covers = _KnnCovers(index.curve, static.mins)


def _knn_static_of(index: Any, static: _Static) -> _KnnStatic:
    kst = getattr(index, _KNN_STATIC_ATTR, None)
    if kst is None:
        kst = _KnnStatic(static, index)
        setattr(index, _KNN_STATIC_ATTR, kst)
    return kst


#: Covers kept per index in the kNN cover memo before it is reset (the
#: same cap ``repro.spatial.hilbert`` puts on its window-cover memo).
_KNN_COVER_MEMO_MAX = 8192


class _KnnCovers:
    """Shared circle covers compiled to rank masks, memoized on cell keys.

    ``resolve`` maps every lane's prune radius to the exact cover
    ``_needed_ranks`` would build (same ``ranges_for_circle`` call, same
    ``max_ranges``, same infinite-radius full range).  The cover sweep in
    ``ranges_for_rect`` is a pure function of the clipped bounding rect's
    ceil/floor cell quantisation -- the invariant its own cover cache
    memoizes on -- so the quantised key is computed here vectorised for
    all lanes at once, deduplicated, and only genuinely new covers reach
    the sweep.  Each new cover compiles to one knowledge-free row of
    ``masks`` over frame ranks: rank ``r`` is set when some piece's global
    span ``[max(a0, 0), b0 - 1]`` holds it, ``a0`` being the largest rank
    whose minimum is <= the piece's low end and ``b0`` the first rank whose
    minimum exceeds its high end.  Lanes test those rows against their own
    knowledge with :func:`_segment_candidates` -- the rank-space image of
    ``ClientKnowledge.candidate_rank_array``.  A cover depends only on the
    curve, the frame minima, the query point and the radius, so one memo
    per index (on :class:`_KnnStatic`) serves every lane, phase, query,
    call, channel count and strategy that reaches the same cells.
    """

    __slots__ = ("curve", "mins", "max_ranges", "side", "memo", "masks", "_n")

    def __init__(self, curve: Any, mins: np.ndarray, max_ranges: int = 64) -> None:
        self.curve = curve
        self.mins = mins
        self.max_ranges = max_ranges
        self.side = float(curve.side)
        self.memo: Dict[int, int] = {}
        self.masks = np.zeros((16, len(mins)), dtype=bool)
        self._n = 0

    def _add_masks(
        self, counts: np.ndarray, los: np.ndarray, his: np.ndarray
    ) -> int:
        """Compile a flat batch of covers (``counts`` pieces each, bounds
        ``los``/``his``) to mask rows; returns the first new cover id."""
        n, k = self._n, len(counts)
        n_frames = len(self.mins)
        if n + k > len(self.masks):
            grown = np.zeros((max(2 * len(self.masks), n + k), n_frames), dtype=bool)
            grown[:n] = self.masks[:n]
            self.masks = grown
        # Piece spans as a difference array.  b0 > a0 always, so a span is
        # never reversed; an empty one (b0 == 0) adds and removes at 0.
        a = np.maximum(np.searchsorted(self.mins, los, side="right") - 1, 0)
        b = np.searchsorted(self.mins, his, side="right")
        stride = n_frames + 1
        at = np.repeat(np.arange(k, dtype=np.int64) * stride, counts)
        diff = np.bincount(at + a, minlength=k * stride)
        diff -= np.bincount(at + b, minlength=k * stride)
        self.masks[n: n + k] = (
            np.cumsum(diff.reshape(k, stride)[:, :n_frames], axis=1) > 0
        )
        self._n = n + k
        return n

    def resolve(
        self,
        qids: np.ndarray,
        qx: np.ndarray,
        qy: np.ndarray,
        prune: np.ndarray,
    ) -> np.ndarray:
        """Cover ids (rows of ``masks``) for each row of ``(qids, prune)``.

        Replays ``circle_bounding_rect(...).clipped_to_unit()`` and the
        scaled-bound quantisation of ``ranges_for_rect`` elementwise (the
        same IEEE operations, so the same integers); an infinite radius
        keys the full-range cover.  Keys the memo has not seen sweep in
        one ``covers_for_rects_flat`` batch.  The ids stay valid until the
        next call: a full memo is reset only here, on entry.
        """
        if len(self.memo) >= _KNN_COVER_MEMO_MAX:
            self.memo.clear()
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
        memo = self.memo
        cids = np.fromiter(
            (memo.get(uk, -1) for uk in uniq.tolist()), dtype=np.int64, count=len(uniq)
        )
        miss = np.flatnonzero(cids < 0)
        if len(miss) and uniq[miss[0]] < 0:
            # The infinite radius: one full-range piece.
            top = int(self.curve.max_value) - 1
            cids[miss[0]] = memo[-1] = self._add_masks(
                np.ones(1, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                np.full(1, top, dtype=np.int64),
            )
            miss = miss[1:]
        if len(miss):
            # All genuinely new covers sweep in one batched pass (the
            # clipped circle bounding rects, elementwise as the scalar
            # path computes them), then compile as one block.
            fi = first[miss]
            cm = qx[qids[fi]]
            dm = qy[qids[fi]]
            rm = prune[fi]
            counts, los, his = self.curve.covers_for_rects_flat(
                np.maximum(0.0, cm - rm),
                np.maximum(0.0, dm - rm),
                np.minimum(1.0, cm + rm),
                np.minimum(1.0, dm + rm),
                max_ranges=self.max_ranges,
            )
            cid0 = self._add_masks(counts, los, his)
            cids[miss] = np.arange(cid0, cid0 + len(miss), dtype=np.int64)
            memo.update(zip(uniq[miss].tolist(), cids[miss].tolist()))
        return cids[inv]


def _knn_query_tables(
    kst: _KnnStatic, curve: Any, queries: Sequence[KnnQuery]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Compile the per-query static geometry: every distance, decoded once.

    Returns flat query-major ``(est_g, ex_d)`` distance tables (estimate =
    query to each unique HC cell's representative point, exact = query to
    each object), the per-rank minima estimates ``min_est`` and the ``k``
    array.  Comparison distances stay scalar ``math.hypot``
    (``Point.distance_to``) -- its vectorised counterpart is not bit-equal
    -- so only the representative-point decode batches.
    """
    hc_list = kst.grp_hcs.tolist()
    curve.warm_representative_points(hc_list)
    reps = [curve.representative_point(hc) for hc in hc_list]
    n_q = len(queries)
    est_g = np.empty((n_q, kst.n_groups), dtype=np.float64)
    ex_d = np.empty((n_q, kst.n_objects), dtype=np.float64)
    for qi, query in enumerate(queries):
        q = query.point
        est_g[qi] = [q.distance_to(p) for p in reps]
        ex_d[qi] = [o.distance_to(q) for o in kst.objects]
    min_est = est_g[:, kst.grp_of_rank].copy()
    k_arr = np.fromiter((int(q.k) for q in queries), dtype=np.int64, count=n_q)
    return est_g.reshape(-1), ex_d.reshape(-1), min_est, k_arr


class _KnnLanes:
    """One struct-of-arrays block of per-lane kNN search state.

    Session position (``cl``/``ch``/``tn``), knowledge (``kn`` known
    ranks, ``ex`` examined ranks) and the planner's candidate space in
    its two key spaces: ``rt`` retrieved bitmasks over flat object ids,
    ``es``/``rh`` estimate/retrieved-HC bitmasks over unique-HC group ids
    (``es`` and ``rh`` are always disjoint, matching the estimate pop on
    retrieval), ``vl`` the candidate value pool (an append-only row of
    the ``nc`` live values per lane, inf beyond; a retrieval overwrites
    its group's estimate slot -- ``sl`` -- in place, so the pool is the
    candidate multiset verbatim and never exceeds ``n_objects`` wide),
    ``nc``/``nr`` candidate and retrieved counts, and ``rad`` the
    k-th-candidate radius with its ``dirty`` flag.
    """

    __slots__ = (
        "idx", "cl", "ch", "tn", "kn", "ex", "es", "rh", "rt", "vl", "sl",
        "nc", "nr", "rad", "dirty", "qid", "qo", "qg", "kk", "me",
    )

    def copy(self) -> "_KnnLanes":
        out = _KnnLanes()
        for f in self.__slots__:
            setattr(out, f, getattr(self, f).copy())
        return out

    def compact(self, keep: np.ndarray) -> None:
        for f in self.__slots__:
            setattr(self, f, getattr(self, f)[keep])


class _KnnWalker:
    """Lockstep kNN lanes over one DSI broadcast.

    Every lane of every query advances through the planner loop together:
    cover-driven candidacy, frame choice, table read, frame visit.  Lanes
    whose candidate set empties leave the working block (compaction); the
    walk ends when none remain.  All value comparisons reuse the compiled
    distance tables, so each step is pure array arithmetic plus the
    occasional new circle cover.
    """

    def __init__(
        self,
        geo: _Geometry,
        static: _Static,
        kst: _KnnStatic,
        qpoints: Sequence[Any],
        est_g: np.ndarray,
        ex_d: np.ndarray,
        min_est: np.ndarray,
        k_arr: np.ndarray,
        qid: np.ndarray,
        strategy: str,
        slack: float,
    ) -> None:
        self.geo = geo
        self.static = static
        self.kst = kst
        self.qpoints = qpoints
        self.est_g = est_g
        self.ex_d = ex_d
        self.min_est = min_est
        self.k_arr = k_arr
        self.strategy = strategy
        self.slack = slack
        n = len(qid)
        n_frames = static.n_frames
        n_obj = kst.n_objects
        n_grp = kst.n_groups
        lanes = _KnnLanes()
        lanes.idx = np.arange(n)
        lanes.cl = np.zeros(n, dtype=np.int64)
        lanes.ch = np.full(n, geo.ctrl, dtype=np.int64)
        lanes.tn = np.zeros(n, dtype=np.int64)
        lanes.kn = np.zeros((n, n_frames), dtype=bool)
        lanes.ex = np.zeros((n, n_frames), dtype=bool)
        lanes.es = np.zeros((n, n_grp), dtype=bool)
        lanes.rh = np.zeros((n, n_grp), dtype=bool)
        lanes.rt = np.zeros((n, n_obj), dtype=bool)
        lanes.vl = np.full((n, n_obj), np.inf)
        lanes.sl = np.zeros((n, n_grp), dtype=np.int32)
        lanes.nc = np.zeros(n, dtype=np.int64)
        lanes.nr = np.zeros(n, dtype=np.int64)
        lanes.rad = np.full(n, np.inf)
        lanes.dirty = np.zeros(n, dtype=bool)
        self.S = lanes
        self.qx = np.fromiter(
            (p.x for p in qpoints), dtype=np.float64, count=len(qpoints)
        )
        self.qy = np.fromiter(
            (p.y for p in qpoints), dtype=np.float64, count=len(qpoints)
        )
        self.set_queries(np.asarray(qid, dtype=np.int64))

    # -- per-hop plumbing ---------------------------------------------------

    def set_queries(self, qid: np.ndarray) -> None:
        lanes = self.S
        lanes.qid = np.asarray(qid, dtype=np.int64)
        lanes.qo = lanes.qid * self.kst.n_objects
        lanes.qg = lanes.qid * self.kst.n_groups
        lanes.kk = self.k_arr[lanes.qid]
        lanes.me = self.min_est[lanes.qid]

    def begin_hop(self) -> None:
        """Reset the per-query search state (``begin_query`` + fresh space);
        session position and known ranks carry over."""
        lanes = self.S
        lanes.ex[:] = False
        lanes.es[:] = False
        lanes.rh[:] = False
        lanes.rt[:] = False
        lanes.vl[:] = np.inf
        lanes.nc[:] = 0
        lanes.nr[:] = 0
        lanes.rad[:] = np.inf
        lanes.dirty[:] = False

    def seed_warm(self) -> None:
        """The planner's warm start: estimate every known frame minimum at
        once (each is a real object's HC value, so its unique-HC group;
        frame minima are strictly increasing, so the groups are distinct
        and pool slots just count known ranks along the row)."""
        lanes = self.S
        grps = self.kst.grp_of_rank
        lanes.es[:, grps] = lanes.kn
        rrow, rrk = np.nonzero(lanes.kn)
        slots = (np.cumsum(lanes.kn, axis=1) - 1)[rrow, rrk]
        g = grps[rrk]
        lanes.vl[rrow, slots] = self.est_g[lanes.qg[rrow] + g]
        lanes.sl[rrow, g] = slots
        lanes.nc[:] = lanes.kn.sum(axis=1)
        lanes.dirty[:] = True

    def cold_entry(self, start_clock: np.ndarray, conservative: bool) -> None:
        """The probe plus ``read_first_table`` (kind-seek) and its
        ``learn_table`` estimates; the conservative strategy additionally
        visits the entry frame (aggressive leaves it unexamined)."""
        geo, st, kst = self.geo, self.static, self.kst
        lanes = self.S
        lanes.cl[:] = np.asarray(start_clock, dtype=np.int64) + 1  # the probe
        lanes.tn[:] = 1
        start, rank0 = geo.entry_seek(lanes.cl)
        pk = geo.pk_of_rank[rank0]
        lanes.cl[:] = start + pk
        lanes.tn += pk
        lanes.kn |= st.learn[rank0]
        rows = np.arange(len(lanes.idx))
        egrps = kst.est_grps[rank0]
        elen = kst.est_len[rank0]
        for e in range(int(elen.max(initial=0))):
            on = elen > e
            self._add_est(lanes, rows[on], egrps[on, e])
        if conservative:
            self._visit(lanes, rows, rank0)

    # -- candidate-space maintenance ----------------------------------------

    def _add_est(self, lanes: _KnnLanes, rows: np.ndarray, grp: np.ndarray) -> None:
        """``add_estimates`` for one HC group per row: idempotent, skipping
        retrieved HC values, flagging the radius dirty."""
        if not len(rows):
            return
        new = ~(lanes.es[rows, grp] | lanes.rh[rows, grp])
        r_new = rows[new]
        if not len(r_new):
            return
        g_new = grp[new]
        slots = lanes.nc[r_new]
        lanes.es[r_new, g_new] = True
        lanes.sl[r_new, g_new] = slots
        lanes.vl[r_new, slots] = self.est_g[lanes.qg[r_new] + g_new]
        lanes.nc[r_new] = slots + 1
        lanes.dirty[r_new] = True

    def _add_est_many(
        self, lanes: _KnnLanes, rows: np.ndarray, grp: np.ndarray
    ) -> None:
        """``_add_est`` for several groups per row at once.

        ``rows`` must be sorted and each row's groups distinct (a frame's
        estimate groups are); new values take consecutive pool slots in
        input order, the same multiset the per-group calls build.
        """
        if not len(rows):
            return
        new = ~(lanes.es[rows, grp] | lanes.rh[rows, grp])
        r_new = rows[new]
        if not len(r_new):
            return
        g_new = grp[new]
        # Within-row rank (r_new stays sorted): offset from the row's
        # first entry, so simultaneous additions stack like serial ones.
        first = np.searchsorted(r_new, r_new)
        slots = lanes.nc[r_new] + (np.arange(len(r_new), dtype=np.int64) - first)
        lanes.es[r_new, g_new] = True
        lanes.sl[r_new, g_new] = slots
        lanes.vl[r_new, slots] = self.est_g[lanes.qg[r_new] + g_new]
        urows = r_new[first == np.arange(len(r_new))]
        lanes.nc[urows] += np.bincount(r_new, minlength=0)[urows]
        lanes.dirty[r_new] = True

    def _sync_radius(self, lanes: _KnnLanes) -> None:
        """Recompute radius-dirty rows: the k-th smallest candidate value,
        the same order statistic the scalar partition/heap hybrid takes.
        Only the pool prefix up to the widest dirty row's value count is
        partitioned -- every column beyond a row's ``nc`` is inf, and
        extra inf values never change the k-th smallest."""
        d = np.flatnonzero(lanes.dirty)
        if not len(d):
            return
        new = np.full(len(d), np.inf)
        kd = lanes.kk[d]
        full = lanes.nc[d] >= kd
        if full.any():
            for kv in np.unique(kd[full]):
                m = full & (kd == kv)
                kth = int(kv) - 1
                rows_m = d[m]
                sub = lanes.vl[rows_m, : int(lanes.nc[rows_m].max())]
                sub.partition(kth, axis=1)
                new[m] = sub[:, kth]
        lanes.rad[d] = new
        lanes.dirty[d] = False

    # -- the frame visit ----------------------------------------------------

    def _visit(self, lanes: _KnnLanes, rows: np.ndarray, fr: np.ndarray) -> None:
        """Replay ``_visit_frame`` for ``rows`` (frame ``fr[i]`` each):
        directory read, record estimates, conditional object fetches under
        the live prune radius, and the examined mark."""
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
            nb = lanes.cl[r_dir]
            if geo.switch:
                nb = nb + geo.switch * (bch != lanes.ch[r_dir])
            lanes.cl[r_dir] = timeline.next_occurrences(b, nb) + geo.bpk[b]
            lanes.tn[r_dir] += geo.bpk[b]
            lanes.ch[r_dir] = bch
            # learn_directory re-teaches the frame's own minimum, which the
            # table read already taught -- no knowledge change.  Estimate
            # every record (slot order; the set result is order-free).
            gd = g0[hasdir]
            fld = flen[hasdir]
            for j in range(int(fld.max(initial=0))):
                on = fld > j
                self._add_est(lanes, r_dir[on], kst.hc_group[gd[on] + j])
        slack = self.slack
        for j in range(int(flen.max(initial=0))):
            on = flen > j
            r_on = rows[on]
            g = g0[on] + j
            # Directory visits skip already-retrieved records; the
            # single-object scan compares unconditionally.
            keep = ~(lanes.rt[r_on, g] & hasdir[on])
            r_c = r_on[keep]
            if not len(r_c):
                continue
            g_c = g[keep]
            grp_c = kst.hc_group[g_c]
            self._sync_radius(lanes)
            prune = lanes.rad[r_c] + slack
            fetch = self.est_g[lanes.qg[r_c] + grp_c] <= prune
            r_f = r_c[fetch]
            if not len(r_f):
                continue
            g_f = g_c[fetch]
            grp_f = grp_c[fetch]
            b = kst.obj_bucket[g_f]
            bch = geo.bchan[b]
            nb = lanes.cl[r_f]
            if geo.switch:
                nb = nb + geo.switch * (bch != lanes.ch[r_f])
            lanes.cl[r_f] = timeline.next_occurrences(b, nb) + geo.bpk[b]
            lanes.tn[r_f] += geo.bpk[b]
            lanes.ch[r_f] = bch
            # add_object: the exact distance joins, the HC's estimate pops
            # -- in pool terms the estimate's slot is overwritten in place
            # (same multiset delta), a group already retrieved appends.
            was_est = lanes.es[r_f, grp_f]
            lanes.es[r_f, grp_f] = False
            lanes.rh[r_f, grp_f] = True
            slots = np.where(
                was_est, lanes.sl[r_f, grp_f].astype(np.int64), lanes.nc[r_f]
            )
            lanes.vl[r_f, slots] = self.ex_d[lanes.qo[r_f] + g_f]
            lanes.rt[r_f, g_f] = True
            lanes.nc[r_f] += ~was_est
            lanes.nr[r_f] += 1
            lanes.dirty[r_f] = True
        lanes.ex[rows, fr] = True

    # -- the planner loop ---------------------------------------------------

    def _scatter(self, work: _KnnLanes, done: np.ndarray) -> None:
        """Write finished lanes' session/result state back to the block."""
        lanes = self.S
        ids = work.idx[done]
        lanes.cl[ids] = work.cl[done]
        lanes.ch[ids] = work.ch[done]
        lanes.tn[ids] = work.tn[done]
        lanes.kn[ids] = work.kn[done]
        lanes.rt[ids] = work.rt[done]

    def walk(self) -> None:
        """Run the planner loop until every lane's candidate set empties."""
        geo, st, kst = self.geo, self.static, self.kst
        covers = kst.covers
        n_frames = st.n_frames
        aggressive = self.strategy == "aggressive"
        big = geo.wdtype(geo.cc)
        slack = self.slack
        work = self.S.copy()
        safety = 4 * n_frames + KNN_SAFETY_MARGIN
        for it in range(safety + 1):
            if not len(work.idx):
                return
            # Candidacy: resolve every lane's cover (vectorised cell-key
            # dedup; only new covers reach the sweep), then test each
            # lane's known-rank segments against its cover's rank mask.
            # With rank 0 known, the planner's piece expansion
            # [kn_prev(a0), kn_next(b0) - 1] is exactly the union of the
            # segments touching the piece (candidate_rank_array).
            self._sync_radius(work)
            cids = covers.resolve(work.qid, self.qx, self.qy, work.rad + slack)
            cand = _segment_candidates(work.kn, covers.masks[cids])
            cand &= ~work.ex
            live = cand.any(axis=1)
            if not live.all():
                self._scatter(work, ~live)
                work.compact(live)
                if not len(work.idx):
                    return
                cand = cand[live]
            n_live = len(work.idx)
            rows = np.arange(n_live)
            if it == safety:
                # The planner's safety cap: structurally unreachable here
                # (each iteration examines a new rank, so the loop runs at
                # most n_frames times), kept as an honest decline.
                raise KernelUnsupported(
                    "kNN planner iteration cap takes the reference path"
                )  # pragma: no cover
            # Frame choice (_choose_rank): nearest arrival among candidates;
            # the aggressive strategy jumps to the estimate-nearest known
            # candidate (arrival breaks ties) while short of k retrievals.
            nb = work.cl
            if geo.switch:
                nb = work.cl + geo.switch * (work.ch != geo.ctrl)
            off = nb - (nb // geo.cc) * geo.cc
            wait = geo.wait_matrix(off)
            chosen = np.argmin(np.where(cand, wait, big), axis=1)
            if aggressive:
                open_rows = work.nr < work.kk
                if open_rows.any():
                    ckn = cand & work.kn
                    dmat = np.where(ckn, work.me, np.inf)
                    dmin = dmat.min(axis=1)
                    use = open_rows & np.isfinite(dmin)
                    if use.any():
                        tie = dmat == dmin[:, None]
                        agg = np.argmin(np.where(tie, wait, big), axis=1)
                        chosen = np.where(use, agg, chosen)
            # read_table of the chosen rank, then learn_table + the visit.
            w = wait[rows, chosen].astype(np.int64)
            pk = geo.pk_of_rank[chosen]
            work.cl = nb + w + pk
            work.ch = np.full(n_live, geo.ctrl, dtype=np.int64)
            work.tn = work.tn + pk
            work.kn |= st.learn[chosen]
            egrps = kst.est_grps[chosen]
            elen = kst.est_len[chosen]
            er, ee = np.nonzero(np.arange(egrps.shape[1])[None, :] < elen[:, None])
            self._add_est_many(work, er, egrps[er, ee])
            self._visit(work, rows, chosen)

    # -- results ------------------------------------------------------------

    def verify(
        self,
        queries: Sequence[KnnQuery],
        dataset: Any,
        truths: Optional[Dict[int, Any]] = None,
    ) -> np.ndarray:
        """Per-lane correctness of ``best_objects`` against ground truth."""
        from ..queries.ground_truth import answer, matches_truth

        lanes = self.S
        kst = self.kst
        if truths is None:
            truths = {}
        cor = np.empty(len(lanes.idx), dtype=np.int64)
        for row in range(len(lanes.idx)):
            qid = int(lanes.qid[row])
            query = queries[qid]
            truth = truths.get(qid)
            if truth is None:
                truth = answer(dataset, query)
                truths[qid] = truth
            gids = np.flatnonzero(lanes.rt[row])
            dists = self.ex_d[lanes.qo[row] + gids]
            order = np.lexsort((kst.oids[gids], dists))[: int(query.k)]
            objs = [kst.objects[int(g)] for g in gids[order]]
            cor[row] = int(matches_truth(query, truth, objs))
        return cor


def _knn_gates(
    index: Any, error_theta: Optional[float], error_scope: str, knn_strategy: str
) -> None:
    if not isinstance(index, DsiIndex):
        raise KernelUnsupported("kNN trials on tree indexes take the reference path")
    if error_theta is not None and float(error_theta) != 0.0 and error_scope != "none":
        raise KernelUnsupported("kNN fleets with link errors take the reference path")
    if knn_strategy not in ("conservative", "aggressive"):
        raise KernelUnsupported(
            f"kNN strategy {knn_strategy!r} takes the reference path"
        )


def _simulate_knn_fleet(
    index: Any,
    view: Any,
    config: Any,
    queries: Sequence[KnnQuery],
    key_qids: np.ndarray,
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
    """Batched lockstep kNN lanes over DSI with compiled search plans.

    Phases collapse onto ``(query, entry occurrence)`` lanes exactly like
    the window kernels, every lane advances through the planner loop in
    lockstep, and all per-query geometry (distances, covers, arrivals) is
    compiled or memoized once -- see the module docstring.  Bit-equal to
    the reference planner wherever it does not decline.
    """
    _knn_gates(index, error_theta, error_scope, knn_strategy)
    static = _static_of(index)
    kst = _knn_static_of(index, static)
    timeline = timeline_of(view)
    geo = _Geometry(static, index, config, timeline)
    key_qids = np.asarray(key_qids, dtype=np.int64)
    key_phases = np.asarray(key_phases, dtype=np.int64)
    start_p = (key_phases * cycle) // n_phases
    first_idx, lane_of = _entry_lanes(geo, key_qids, start_p, cycle)
    qrow = key_qids[first_idx]
    lane_start = start_p[first_idx]
    curve = index.curve
    qpoints = [q.point for q in queries]
    est_g, ex_d, min_est, k_arr = _knn_query_tables(kst, curve, queries)
    walker = _KnnWalker(
        geo, static, kst, qpoints, est_g, ex_d, min_est, k_arr,
        qid=qrow, strategy=knn_strategy, slack=curve.cell_diagonal(),
    )
    walker.cold_entry(lane_start, conservative=knn_strategy == "conservative")
    walker.walk()
    lanes = walker.S
    lat_b = (lanes.cl[lane_of] - start_p) * geo.capacity
    tun_b = lanes.tn[lane_of] * geo.capacity
    if verify:
        cor = walker.verify(queries, dataset)[lane_of]
    else:
        cor = np.full(len(key_qids), -1, dtype=np.int64)
    return lat_b, tun_b, cor


def _simulate_knn_journeys(
    index: Any,
    view: Any,
    config: Any,
    queries: Sequence[KnnQuery],
    dwell_arr: np.ndarray,
    n_steps: int,
    key_jids: np.ndarray,
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
    """Warm multi-hop kNN journeys: the fleet lanes plus carried knowledge.

    Hop 1 runs the cold entry; every later hop re-arms with the probe and
    seeds the search space from the knowledge the lane accumulated, which
    is the planner's warm start verbatim (hop 1 always teaches at least
    the entry table, so the warm branch always applies).
    """
    _knn_gates(index, error_theta, error_scope, knn_strategy)
    static = _static_of(index)
    kst = _knn_static_of(index, static)
    timeline = timeline_of(view)
    geo = _Geometry(static, index, config, timeline)
    key_jids = np.asarray(key_jids, dtype=np.int64)
    key_phases = np.asarray(key_phases, dtype=np.int64)
    start_p = (key_phases * cycle) // n_phases
    first_idx, lane_of = _entry_lanes(geo, key_jids, start_p, cycle)
    jid_c = key_jids[first_idx]
    lane_start = start_p[first_idx]
    curve = index.curve
    qpoints = [q.point for q in queries]
    est_g, ex_d, min_est, k_arr = _knn_query_tables(kst, curve, queries)
    walker = _KnnWalker(
        geo, static, kst, qpoints, est_g, ex_d, min_est, k_arr,
        qid=jid_c * n_steps, strategy=knn_strategy,
        slack=curve.cell_diagonal(),
    )
    n_lanes = len(jid_c)
    total_lat = np.zeros(n_lanes, dtype=np.int64)
    cor_hops = np.zeros(n_lanes, dtype=np.int64)
    truths: Dict[int, Any] = {}
    walker.cold_entry(lane_start, conservative=knn_strategy == "conservative")
    walker.walk()
    lanes = walker.S
    total_lat += lanes.cl - lane_start
    if verify:
        cor_hops += walker.verify(queries, dataset, truths)
    for h in range(1, n_steps):
        lanes.cl += dwell_arr[jid_c, h]
        hop_start = lanes.cl.copy()
        lanes.cl += 1  # the re-armed probe
        lanes.tn += 1
        walker.set_queries(jid_c * n_steps + h)
        walker.begin_hop()
        walker.seed_warm()
        walker.walk()
        total_lat += lanes.cl - hop_start
        if verify:
            cor_hops += walker.verify(queries, dataset, truths)
    lat_b = (total_lat[lane_of] + (lane_start[lane_of] - start_p)) * geo.capacity
    tun_b = lanes.tn[lane_of] * geo.capacity
    if verify:
        cor = cor_hops[lane_of]
    else:
        cor = np.full(len(key_jids), -1, dtype=np.int64)
    return lat_b, tun_b, cor


# --- dispatch ---------------------------------------------------------------


def simulate_window_fleet(
    index: Any,
    view: Any,
    config: Any,
    trials: Sequence[Any],
    key_qids: np.ndarray,
    key_phases: np.ndarray,
    *,
    n_phases: int,
    cycle: int,
    verify: bool,
    dataset: Any,
    error_theta: Optional[float] = None,
    error_scope: str = "index",
    error_seed: int = 0,
    knn_strategy: str = "conservative",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Simulate every ``(query, phase)`` execution off the reference path.

    Dispatches on the index and workload shape: DSI window fleets, tree
    (R-tree / HCI) window fleets and DSI kNN fleets all run the lockstep
    numpy kernels.  Returns ``(latency_bytes,
    tuning_bytes, correct, backend)`` aligned with the ``key_qids`` /
    ``key_phases`` order -- the exact triple the reference per-phase path
    emits (``correct`` is -1 when not verifying) plus the backend tag the
    fleet result reports.  Raises :class:`KernelUnsupported` whenever the
    run falls outside the kernels' proven-exact envelope.
    """
    queries = [trial.query for trial in trials]
    if all(isinstance(q, WindowQuery) for q in queries):
        common = dict(
            n_phases=n_phases, cycle=cycle, verify=verify, dataset=dataset,
            error_theta=error_theta, error_scope=error_scope,
            error_seed=error_seed,
        )
        if isinstance(index, DsiIndex):
            out = _simulate_dsi_fleet(
                index, view, config, queries, key_qids, key_phases, **common
            )
            return out + ("numpy",)
        air = getattr(index, "air", None)
        if isinstance(air, TreeOnAir):
            out = _simulate_tree_fleet(
                index, air, view, config, queries, key_qids, key_phases, **common
            )
            return out + ("numpy",)
        raise KernelUnsupported("no lockstep kernel for this index type")
    if all(isinstance(q, KnnQuery) for q in queries):
        out = _simulate_knn_fleet(
            index, view, config, queries, key_qids, key_phases,
            n_phases=n_phases, cycle=cycle, verify=verify, dataset=dataset,
            error_theta=error_theta, error_scope=error_scope,
            error_seed=error_seed, knn_strategy=knn_strategy,
        )
        return out + ("numpy",)
    raise KernelUnsupported("mixed window/kNN workloads take the reference path")


def simulate_window_journeys(
    index: Any,
    view: Any,
    config: Any,
    journeys: Sequence[Any],
    key_jids: np.ndarray,
    key_phases: np.ndarray,
    *,
    n_phases: int,
    cycle: int,
    verify: bool,
    dataset: Any,
    error_theta: Optional[float] = None,
    error_scope: str = "index",
    error_seed: int = 0,
    knn_strategy: str = "conservative",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """Simulate every warm ``(journey, phase)`` execution off the reference.

    Equal-step window journeys run the lockstep kernels (DSI or tree) and
    equal-step kNN journeys over DSI run the batched kNN lanes; anything
    else declines with the reason the fleet result surfaces.  Returns
    ``(journey_latency_bytes, journey_tuning_bytes, correct_hops,
    backend)`` aligned with the key order.
    """
    n_steps = 0
    queries: List[Any] = []
    dwell: List[List[int]] = []
    for journey in journeys:
        steps = journey.steps
        if n_steps == 0:
            n_steps = len(steps)
        elif len(steps) != n_steps:
            raise KernelUnsupported("journeys have unequal step counts")
        queries.extend(step.query for step in steps)
        dwell.append([int(step.dwell_packets) for step in steps])
    if not n_steps:
        raise KernelUnsupported("empty journeys take the reference path")
    dwell_arr = np.asarray(dwell, dtype=np.int64)

    common = dict(
        n_phases=n_phases, cycle=cycle, verify=verify, dataset=dataset,
        error_theta=error_theta, error_scope=error_scope, error_seed=error_seed,
    )
    if all(isinstance(q, WindowQuery) for q in queries):
        if isinstance(index, DsiIndex):
            out = _simulate_dsi_journeys(
                index, view, config, queries, dwell_arr, n_steps,
                key_jids, key_phases, **common
            )
            return out + ("numpy",)
        air = getattr(index, "air", None)
        if isinstance(air, TreeOnAir):
            out = _simulate_tree_journeys(
                index, air, view, config, queries, dwell_arr, n_steps,
                key_jids, key_phases, **common
            )
            return out + ("numpy",)
        raise KernelUnsupported("no lockstep kernel for this index type")
    if all(isinstance(q, KnnQuery) for q in queries):
        out = _simulate_knn_journeys(
            index, view, config, queries, dwell_arr, n_steps,
            key_jids, key_phases, knn_strategy=knn_strategy, **common
        )
        return out + ("numpy",)
    raise KernelUnsupported("mixed window/kNN journeys take the reference path")
