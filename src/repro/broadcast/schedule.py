"""Broadcast schedules: N parallel channels airing one logical cycle.

A :class:`BroadcastSchedule` generalises the single flat cycle of
:class:`~repro.broadcast.program.BroadcastProgram` to ``N`` parallel
channels.  The single-channel schedule (:meth:`BroadcastSchedule.single`)
is the exact legacy system: its :meth:`~BroadcastSchedule.view` returns the
base program itself, so every existing code path stays packet-for-packet
identical.  The multi-channel schedule (:meth:`BroadcastSchedule.striped`)
implements the classic multi-channel air-indexing layout: navigation
buckets (index tables, tree nodes, replicated control indexes) repeat on a
short **control** channel while data frames -- data objects together with
the intra-frame directories that travel with them -- are striped across
``k`` **data** channels.

Time is global: packet ``t`` occupies the same wall-clock slot on every
channel, so access latency keeps its single-channel meaning (packets
elapsed since tune-in) and the unwrapped-clock arithmetic of
:class:`BroadcastProgram` applies per channel unchanged.  A client listens
to one channel at a time; retuning to another channel costs
``SystemConfig.channel_switch_packets`` packets of latency (never tuning
time -- the radio is not receiving while it retunes).

:class:`ScheduleView` exposes a multi-channel schedule through the same
read surface :class:`~repro.broadcast.client.ClientSession` drives on a
plain program, with buckets addressed by their ids in the flat base
program.  That surface is the three seeks of the paper's client model:
``next_bucket_after`` behind the initial probe, ``next_occurrence_of_kind``
for the next index structure, and ``next_occurrence`` for a chosen bucket's
next airing (plus ``buckets``, ``cycle_packets`` and ``channel_of``).  The
query algorithms therefore run unmodified over any channel topology.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .channel import Channel, ChannelRole
from .program import BroadcastProgram, Bucket, BucketKind

__all__ = [
    "BroadcastSchedule",
    "ScheduleView",
    "control_and_groups",
]

#: Attribute holding, on a program, the schedules :meth:`BroadcastSchedule.
#: for_config` derived from it, keyed by channel count.
_FOR_CONFIG_ATTR = "_config_schedules"


def control_and_groups(program: BroadcastProgram) -> Tuple[List[int], List[List[int]]]:
    """Split a flat cycle into control buckets and data *frame groups*.

    Navigation buckets (``BucketKind.is_navigation``) belong on a control
    channel in cycle order; the remaining buckets form maximal runs of
    consecutive non-navigation buckets -- a frame's data together with the
    intra-frame directory that travels with it.  A group is the atomic unit
    for both striping and the demand-aware optimizer: keeping it whole on
    one channel keeps ``channel_of`` well defined for every bucket in it.
    """
    control_ids: List[int] = []
    groups: List[List[int]] = []
    for i, bucket in enumerate(program.buckets):
        if bucket.kind.is_navigation:
            control_ids.append(i)
        elif groups and groups[-1] and groups[-1][-1] == i - 1:
            groups[-1].append(i)
        else:
            groups.append([i])
    if not control_ids:
        raise ValueError(
            f"program {program.name!r} has no navigation bucket to air on a "
            "control channel; a striped schedule needs index information"
        )
    if not groups:
        raise ValueError(
            f"program {program.name!r} has no data bucket to stripe; use a "
            "single-channel schedule instead"
        )
    return control_ids, groups


class BroadcastSchedule:
    """An immutable assignment of one logical broadcast cycle to N channels.

    Construct through :meth:`single`, :meth:`striped` or :meth:`for_config`;
    the raw constructor is internal.  ``base_program`` is the flat
    single-channel cycle the schedule was derived from -- bucket ids used by
    clients and query algorithms always refer to it.
    """

    def __init__(self, channels: Sequence[Channel], base_program: BroadcastProgram) -> None:
        if not channels:
            raise ValueError("a broadcast schedule needs at least one channel")
        self.channels: Tuple[Channel, ...] = tuple(channels)
        for position, channel in enumerate(self.channels):
            # Views and sessions index `channels` by cid, so ids must be
            # exactly the positions -- reject reordered/mislabelled channels
            # here instead of consulting the wrong program later.
            if channel.cid != position:
                raise ValueError(
                    f"channel ids must match their positions: found cid "
                    f"{channel.cid} at position {position}"
                )
        self.base_program = base_program
        n = len(base_program)
        chan_of = [-1] * n
        local_of = [-1] * n
        # Demand-aware schedules may air a hot bucket several times per
        # macro-cycle -- but only on its *own* channel, so ``channel_of``
        # stays well defined and clients never race two copies of one
        # bucket across channels.  ``_locals_of`` is built lazily: it is
        # None for the (common) multiplicity-1 schedule.
        locals_of: Optional[List[Optional[List[int]]]] = None
        max_mult = 1
        for channel in self.channels:
            for local, g in enumerate(channel.global_ids):
                if not 0 <= g < n:
                    raise ValueError(f"channel {channel.cid} maps unknown bucket {g}")
                if chan_of[g] == -1:
                    chan_of[g] = channel.cid
                    local_of[g] = local
                elif chan_of[g] != channel.cid:
                    raise ValueError(f"bucket {g} assigned to more than one channel")
                else:
                    if locals_of is None:
                        locals_of = [None] * n
                    if locals_of[g] is None:
                        locals_of[g] = [local_of[g]]
                    locals_of[g].append(local)
                    max_mult = max(max_mult, len(locals_of[g]))
        missing = [g for g, c in enumerate(chan_of) if c == -1]
        if missing:
            raise ValueError(f"buckets {missing[:5]}... assigned to no channel")
        self._chan_of = chan_of
        self._local_of = local_of  # first (earliest) airing of each bucket
        self._locals_of = locals_of
        self.max_multiplicity = max_mult
        #: How the layout was produced ("flat" constructors, "optimized" for
        #: demand-aware search results); carried into fleet/experiment rows.
        self.policy = "flat"

    # -- constructors ---------------------------------------------------------

    @classmethod
    def single(cls, program: BroadcastProgram) -> "BroadcastSchedule":
        """The N=1 schedule: one hybrid channel airing the legacy cycle."""
        channel = Channel(
            cid=0,
            role=ChannelRole.HYBRID,
            program=program,
            global_ids=tuple(range(len(program))),
        )
        return cls((channel,), program)

    @classmethod
    def striped(
        cls,
        program: BroadcastProgram,
        data_channels: int,
    ) -> "BroadcastSchedule":
        """Index-to-data channel split: control channel + striped data channels.

        Navigation buckets (``BucketKind.is_navigation``) go to the control
        channel in cycle order.  The remaining buckets form *frame groups*
        (maximal runs of consecutive non-navigation buckets, which keeps an
        intra-frame directory on the same channel as its frame's data) and
        each group is assigned whole to the least-loaded of the
        ``data_channels`` data channels in packets (ties to the lowest id),
        so the split is deterministic.  When the program has fewer frame groups
        than data channels (e.g. a replicated tree with one long data run
        per branch), striping falls back to bucket granularity so every
        channel carries data.
        """
        if data_channels < 1:
            raise ValueError("striped schedules need at least one data channel")
        control_ids, groups = control_and_groups(program)
        n_data_buckets = sum(len(g) for g in groups)
        if n_data_buckets < data_channels:
            raise ValueError(
                f"cannot stripe {n_data_buckets} data buckets across "
                f"{data_channels} data channels; use fewer channels"
            )
        if len(groups) < data_channels:
            groups = [[g] for group in groups for g in group]

        per_channel: List[List[int]] = [[] for _ in range(data_channels)]
        loads = [0] * data_channels
        for group in groups:
            target = min(range(data_channels), key=lambda c: (loads[c], c))
            per_channel[target].extend(group)
            loads[target] += sum(program.buckets[g].n_packets for g in group)

        channels = [
            Channel(
                cid=0,
                role=ChannelRole.CONTROL,
                program=BroadcastProgram(
                    [program.buckets[g] for g in control_ids],
                    name=f"{program.name}/control",
                ),
                global_ids=tuple(control_ids),
            )
        ]
        for c, ids in enumerate(per_channel):
            channels.append(
                Channel(
                    cid=c + 1,
                    role=ChannelRole.DATA,
                    program=BroadcastProgram(
                        [program.buckets[g] for g in ids],
                        name=f"{program.name}/data{c}",
                    ),
                    global_ids=tuple(ids),
                )
            )
        return cls(channels, program)

    @classmethod
    def optimized(
        cls,
        program: BroadcastProgram,
        demand,
        channels: int = 1,
        budget: float = 1.5,
    ) -> "BroadcastSchedule":
        """Demand-aware schedule: tree-search optimized orderings/frequencies.

        ``demand`` is a :class:`~repro.broadcast.demand.DemandProfile` over
        the base program's bucket ids.  Data frame groups are replicated per
        macro-cycle according to the square-root rule and sequenced by a
        beam search over partial schedules with per-channel availability
        (see :mod:`repro.sched`); navigation buckets keep their flat cadence
        (the control channel for ``channels >= 2``, evenly interleaved for
        ``channels == 1``), so index probes cost exactly what they cost on
        the flat schedule.  ``budget`` bounds data airtime as a multiple of
        the flat data airtime (1.0 = no replication headroom).
        """
        from ..sched.search import build_optimized_schedule

        return build_optimized_schedule(program, demand, n_channels=channels, budget=budget)

    @classmethod
    def for_config(cls, program: BroadcastProgram, config) -> "BroadcastSchedule":
        """The schedule a :class:`SystemConfig` asks for.

        ``n_channels == 1`` is the legacy single-channel system; ``n >= 2``
        is a control channel plus ``n - 1`` striped data channels.  The
        program is immutable, so each channel count's schedule is built
        once and returned to every later call -- and with it the timeline
        :func:`~repro.broadcast.timeline.timeline_of` caches on it.  Only
        this constructor shares: :meth:`single` and :meth:`striped` build
        afresh, so the demand-aware search can label the flat candidate it
        picks ``"optimized"`` without relabelling a shared schedule.
        """
        n = max(int(getattr(config, "n_channels", 1)), 1)
        built = getattr(program, _FOR_CONFIG_ATTR, None)
        if built is None:
            built = {}
            setattr(program, _FOR_CONFIG_ATTR, built)
        schedule = built.get(n)
        if schedule is None:
            schedule = built[n] = (
                cls.single(program) if n == 1 else cls.striped(program, data_channels=n - 1)
            )
        return schedule

    # -- basic accessors ------------------------------------------------------

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def is_single(self) -> bool:
        return len(self.channels) == 1

    @property
    def control_channel(self) -> int:
        """Id of the channel a freshly tuned-in client starts on."""
        return 0

    @property
    def buckets(self) -> List[Bucket]:
        """The flat bucket list of the base program (global bucket ids)."""
        return self.base_program.buckets

    @property
    def cycle_packets(self) -> int:
        """The longest per-channel cycle (== the legacy cycle when N=1).

        Tune-in positions are drawn over this range; every channel's
        occurrence arithmetic works from any unwrapped position, so a
        position is simply a point of global time.
        """
        return max(channel.cycle_packets for channel in self.channels)

    def channel_of(self, bucket_index: int) -> int:
        """Channel carrying a (global) bucket id."""
        return self._chan_of[bucket_index]

    def view(self) -> "BroadcastProgram | ScheduleView":
        """The program-like read surface client sessions drive.

        Single-channel schedules airing the base program verbatim return
        the program itself -- the legacy system, bit for bit; multi-channel
        and reordered/replicated single-channel schedules return a
        :class:`ScheduleView`.
        """
        if self.is_single and self.channels[0].program is self.base_program:
            return self.base_program
        return ScheduleView(self)

    # -- summaries ------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        return {
            "n_channels": self.n_channels,
            "cycle_packets": self.cycle_packets,
            "policy": self.policy,
            "max_multiplicity": self.max_multiplicity,
            "channels": tuple(
                {
                    "cid": channel.cid,
                    "role": channel.role.value,
                    "buckets": len(channel),
                    "cycle_packets": channel.cycle_packets,
                }
                for channel in self.channels
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cycles = ", ".join(str(c.cycle_packets) for c in self.channels)
        return f"BroadcastSchedule(n_channels={self.n_channels}, cycles=[{cycles}])"


class ScheduleView:
    """Program-like read surface over a multi-channel schedule.

    Implements the subset of :class:`BroadcastProgram` the client session
    and the query algorithms drive, with buckets addressed by their ids in
    the schedule's flat base program.  Positions are global (unwrapped)
    packet time; channel-local occurrence arithmetic stays O(log n) per
    channel.  Stateless -- the *session* tracks which channel its radio is
    tuned to and pays switch latency.
    """

    __slots__ = ("schedule", "buckets", "cycle_packets", "home_channel")

    def __init__(self, schedule: BroadcastSchedule) -> None:
        self.schedule = schedule
        self.buckets = schedule.buckets
        self.cycle_packets = schedule.cycle_packets
        self.home_channel = schedule.control_channel

    def __len__(self) -> int:
        return len(self.buckets)

    @property
    def name(self) -> str:
        return f"{self.schedule.base_program.name}@{self.schedule.n_channels}ch"

    def channel_of(self, bucket_index: int) -> int:
        return self.schedule._chan_of[bucket_index]

    # -- unwrapped clock arithmetic -------------------------------------------

    def next_occurrence(self, bucket_index: int, not_before: int) -> int:
        sched = self.schedule
        channel = sched.channels[sched._chan_of[bucket_index]]
        locs = sched._locals_of[bucket_index] if sched._locals_of is not None else None
        if locs is None:
            return channel.program.next_occurrence(
                sched._local_of[bucket_index], not_before
            )
        # Replicated bucket: the earliest of its airings on its channel.
        return min(channel.program.next_occurrence(loc, not_before) for loc in locs)

    def next_bucket_after(
        self, position: int, channel: Optional[int] = None
    ) -> Tuple[int, int]:
        """First bucket at/after ``position`` on one channel (default control)."""
        sched = self.schedule
        ch = sched.channels[sched.control_channel if channel is None else channel]
        local, start = ch.program.next_bucket_after(position)
        return ch.global_ids[local], start

    def next_occurrence_of_kind(
        self,
        kind: BucketKind,
        position: int,
        from_channel: Optional[int] = None,
        switch_packets: int = 0,
    ) -> Tuple[int, int]:
        """Earliest bucket of ``kind`` over all channels carrying it.

        ``from_channel``/``switch_packets`` describe the asking radio:
        occurrences on other channels cannot be received before the retune
        completes, so their earliest position shifts by the switch latency.
        Ties break towards the lowest channel id (the control channel).
        """
        best: Optional[Tuple[int, int, int]] = None  # (start, cid, global id)
        for channel in self.schedule.channels:
            earliest = position
            if from_channel is not None and channel.cid != from_channel:
                earliest += switch_packets
            try:
                local, start = channel.program.next_occurrence_of_kind(kind, earliest)
            except KeyError:
                continue
            key = (start, channel.cid, channel.global_ids[local])
            if best is None or key < best:
                best = key
        if best is None:
            raise KeyError(f"schedule {self.name!r} broadcasts no {kind.value} bucket")
        return best[2], best[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ScheduleView({self.schedule!r})"
