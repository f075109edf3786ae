"""The mobile client model: selective tuning over a broadcast program.

A :class:`ClientSession` represents one query execution by one mobile
client.  It keeps an *unwrapped* packet clock that only moves forward (time
on the broadcast channel), charges **tuning time** for every packet actually
received, and derives **access latency** from how far the clock advanced
since the client tuned in.  Both can be read in packets or bytes.

The session knows nothing about any particular index structure; DSI, the
R-tree and HCI all drive it through the same three primitives:

* :meth:`initial_probe` -- tune in and read the current packet (its header
  is assumed to carry the offset to the next bucket boundary, as in the
  classical air-indexing model);
* :meth:`read_bucket` -- doze until the next occurrence of a given bucket
  and receive it (possibly corrupted, see :mod:`repro.broadcast.errors`);
* :meth:`read_next_bucket` -- doze until the next bucket of a given kind
  (the seek to the next index structure) and receive it.

A session is not restricted to one query: :meth:`next_query` advances the
clock through a radio-off *dwell* (the client travelling between query
positions) and re-arms the initial probe, so a moving client can keep one
session -- one unwrapped clock, one parked channel -- across a whole
journey of continuous queries.  All metric accessors report the *current*
query (the counters snapshot at each :meth:`next_query`), which keeps the
paper's per-query latency/tuning semantics intact; cumulative journey
totals live with the caller (see :mod:`repro.mobility`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from ..purity import pure_mode
from .config import SystemConfig
from .errors import LinkErrorModel, NO_ERRORS
from .program import BroadcastProgram, Bucket, BucketKind
from .timeline import timeline_of

@dataclass(slots=True)
class ReadResult:
    """Outcome of one bucket reception."""

    bucket_index: int
    bucket: Bucket
    start: int           # unwrapped packet position where the bucket started
    end: int             # unwrapped packet position just after the bucket
    ok: bool             # False when the bucket was corrupted by link errors

    @property
    def payload(self) -> Any:
        """The bucket payload, or ``None`` when the reception failed."""
        return self.bucket.payload if self.ok else None


class ClientSession:
    """One client executing one query against a broadcast program."""

    def __init__(
        self,
        program: BroadcastProgram,
        config: SystemConfig,
        start_packet: int = 0,
        error_model: Optional[LinkErrorModel] = None,
    ) -> None:
        cycle = program.cycle_packets
        if not 0 <= start_packet < cycle:
            # Failing here beats wrapping silently (a tune-in position is a
            # point of the cycle) or erroring deep inside the seek logic.
            raise ValueError(
                f"start_packet must be in [0, {cycle}) -- one packet of the "
                f"broadcast cycle -- got {start_packet}"
            )
        self.program = program
        self.config = config
        self.error_model = error_model if error_model is not None else NO_ERRORS
        # Loss-free sessions (the overwhelming majority at fleet scale) skip
        # the per-read error-model dispatch entirely.
        self._lossless = self.error_model.theta == 0.0 or self.error_model.scope == "none"
        self.start_clock = start_packet
        self.clock = start_packet
        self.tuning_packets = 0
        self.lost_reads = 0
        self._probed = False
        # Per-query counter snapshots: zero for a fresh session, reset by
        # next_query() so every metric accessor reports the current query.
        self.queries_started = 1
        self._q_tuning0 = 0
        self._q_lost0 = 0
        self._q_switches0 = 0
        # Multi-channel schedules (see repro.broadcast.schedule) expose the
        # same read surface plus a channel dimension; the session then tracks
        # which channel its radio is parked on and pays the configured switch
        # latency when it retunes.  A plain single-channel program leaves
        # ``channel`` at None and every code path below is the legacy one.
        self.channel: Optional[int] = getattr(program, "home_channel", None)
        self.channel_switches = 0
        self._switch = (
            getattr(config, "channel_switch_packets", 0) if self.channel is not None else 0
        )
        # The compiled timeline answers *batched* occurrence questions (see
        # next_arrivals); scalar reads keep driving the program's own O(1)
        # arithmetic.  Compiled lazily so bare program stand-ins in tests
        # never pay for (or need to support) compilation.
        self._timeline = None

    # -- session continuity ----------------------------------------------------

    def next_query(self, dwell_packets: int = 0) -> None:
        """Start the session's next query after a radio-off dwell.

        The clock advances ``dwell_packets`` without any tuning cost (the
        client is travelling, radio off), the initial probe is re-armed (a
        re-tuning client must resynchronise with the packet stream exactly
        like a fresh one), and the per-query counters are snapshot so every
        metric accessor reports the new query.  The radio stays parked on
        its current channel and everything the client has *learned* -- its
        index knowledge, cached tree nodes -- is untouched: warm state is
        the caller's to keep (see :mod:`repro.mobility`).
        """
        if dwell_packets < 0:
            raise ValueError(f"dwell_packets must be >= 0, got {dwell_packets}")
        self.clock += dwell_packets
        self.start_clock = self.clock
        self._probed = False
        self.queries_started += 1
        self._q_tuning0 = self.tuning_packets
        self._q_lost0 = self.lost_reads
        self._q_switches0 = self.channel_switches

    # -- channel primitives ----------------------------------------------------

    def initial_probe(self) -> Tuple[int, int]:
        """Tune in: read the current packet and learn the next bucket boundary.

        Returns ``(bucket_index, unwrapped_start)`` of the first bucket that
        starts at or after the probe.  The probe itself costs one packet of
        tuning time (the standard "initial probe" of air indexing).
        """
        if not self._probed:
            self.tuning_packets += 1
            self.clock += 1
            self._probed = True
        return self.peek_next()

    def peek_next(self) -> Tuple[int, int]:
        """Next bucket boundary at or after the current clock (no cost).

        On a multi-channel schedule this is the next boundary on the channel
        the radio is parked on (the control channel at tune-in).
        """
        if self.channel is None:
            return self.program.next_bucket_after(self.clock)
        return self.program.next_bucket_after(self.clock, channel=self.channel)

    def next_arrival(self, bucket_index: int, not_before: Optional[int] = None) -> int:
        """Earliest *receivable* start of a bucket from the session's state.

        This is the planning counterpart of :meth:`read_bucket`: on a
        multi-channel schedule it accounts for the retune latency to the
        bucket's channel, so search strategies rank candidate buckets by the
        same arrival times the reads will actually achieve.  ``not_before``
        plans past a future position (never before the current clock).
        """
        earliest = self.clock if not_before is None else max(self.clock, not_before)
        if self.channel is not None and self.program.channel_of(bucket_index) != self.channel:
            earliest = max(earliest, self.clock + self._switch)
        return self.program.next_occurrence(bucket_index, earliest)

    def next_arrivals(self, bucket_ids, not_before: Optional[int] = None):
        """Vectorised :meth:`next_arrival`: earliest receivable starts of many
        candidate buckets in one array operation over the compiled timeline.

        Search strategies rank whole candidate sets with this (the arrivals
        are the very same integers the scalar path computes, including the
        retune latency to off-channel buckets).  Program stand-ins the
        compiler cannot read (duck-typed test doubles without the real
        program internals) degrade to a loop of scalar arrivals.
        """
        timeline = self._timeline
        if timeline is None:
            if pure_mode():
                timeline = False  # REPRO_PURE: stay with scalar arrivals
            else:
                try:
                    timeline = timeline_of(self.program)
                except (AttributeError, TypeError):
                    timeline = False  # uncompilable: remember and stay scalar
            self._timeline = timeline
        if timeline is False:
            return np.array(
                [self.next_arrival(b, not_before) for b in bucket_ids],
                dtype=np.int64,
            )
        return timeline.arrivals(
            bucket_ids,
            self.clock,
            not_before=not_before,
            channel=self.channel,
            switch_packets=self._switch,
        )

    def read_bucket(self, bucket_index: int, not_before: Optional[int] = None) -> ReadResult:
        """Doze until the next occurrence of ``bucket_index`` and receive it."""
        earliest = self.clock if not_before is None else max(self.clock, not_before)
        if self.channel is not None and self.program.channel_of(bucket_index) != self.channel:
            # The retune starts now and must finish before receiving; it can
            # overlap a longer doze.
            earliest = max(earliest, self.clock + self._switch)
        start = self.program.next_occurrence(bucket_index, earliest)
        return self._receive(bucket_index, start)

    def read_next_bucket(self, kind: BucketKind) -> ReadResult:
        """Receive the next bucket of ``kind`` -- the seek to the next index
        structure.

        The occurrence is a binary search over the per-kind layout of every
        channel airing ``kind``; on a multi-channel schedule an occurrence
        on another channel counts only once the radio could retune to it.
        Buckets airing before it pass in doze mode at no tuning cost.
        """
        if self.channel is None:
            idx, start = self.program.next_occurrence_of_kind(kind, self.clock)
        else:
            idx, start = self.program.next_occurrence_of_kind(
                kind, self.clock,
                from_channel=self.channel, switch_packets=self._switch,
            )
        return self._receive(idx, start)

    def _receive(self, bucket_index: int, start: int) -> ReadResult:
        if start < self.clock:
            raise RuntimeError(
                "attempted to read a bucket occurrence that already passed "
                f"(start={start} < clock={self.clock})"
            )
        bucket = self.program.buckets[bucket_index]
        self.clock = start + bucket.n_packets
        self.tuning_packets += bucket.n_packets
        if self.channel is not None:
            target = self.program.channel_of(bucket_index)
            if target != self.channel:
                self.channel_switches += 1
                self.channel = target
        lost = False if self._lossless else self.error_model.is_lost(bucket, start)
        if lost:
            self.lost_reads += 1
        return ReadResult(
            bucket_index=bucket_index,
            bucket=bucket,
            start=start,
            end=self.clock,
            ok=not lost,
        )

    # -- metrics ----------------------------------------------------------------

    @property
    def latency_packets(self) -> int:
        """Packets elapsed on the channel since the current query started."""
        return self.clock - self.start_clock

    @property
    def latency_bytes(self) -> int:
        return self.latency_packets * self.config.packet_capacity

    @property
    def query_tuning_packets(self) -> int:
        """Packets received for the current query (``tuning_packets`` stays
        the session-cumulative count)."""
        return self.tuning_packets - self._q_tuning0

    @property
    def tuning_bytes(self) -> int:
        """Bytes received for the *current* query.

        Like every metric accessor this is per-query once
        :meth:`next_query` has been called; the raw ``tuning_packets``
        counter stays session-cumulative.
        """
        return self.query_tuning_packets * self.config.packet_capacity

    def metrics(self) -> "AccessMetrics":
        """The paper metrics of the *current* query.

        For a single-query session (the overwhelming case) the snapshots are
        all zero and these are the session totals, exactly as before
        sessions learned to persist.
        """
        return AccessMetrics(
            latency_bytes=self.latency_bytes,
            tuning_bytes=self.tuning_bytes,
            latency_packets=self.latency_packets,
            tuning_packets=self.query_tuning_packets,
            lost_reads=self.lost_reads - self._q_lost0,
            channel_switches=self.channel_switches - self._q_switches0,
        )


@dataclass(frozen=True, slots=True)
class AccessMetrics:
    """The two paper metrics (plus bookkeeping) for one query execution."""

    latency_bytes: int
    tuning_bytes: int
    latency_packets: int
    tuning_packets: int
    lost_reads: int = 0
    channel_switches: int = 0

    def __post_init__(self) -> None:
        if self.tuning_packets > self.latency_packets + 1:
            # The +1 allows the initial probe packet to straddle a boundary.
            raise ValueError("tuning time cannot exceed access latency")
