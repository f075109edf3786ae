"""Demand-aware schedule search: square-root seeding + beam tree search.

Turns a :class:`~repro.broadcast.demand.DemandProfile` into a
:class:`~repro.broadcast.schedule.BroadcastSchedule` that airs hot data
frames more often and spaces their airings evenly, broadcast-disks style.
The pipeline:

1. **Multiplicity planning** (:func:`plan_multiplicities`): each data frame
   group ``g`` (weight ``w_g``, airtime ``l_g``) should air with frequency
   proportional to ``sqrt(w_g / l_g)`` -- the square-root rule, optimal for
   independent items under an airtime budget.  Ideal copy counts are
   floored to keep every group airing at least once per macro-cycle, then
   leftover airtime is spent by greedy marginal gain (``w / (m (m+1) l)``,
   the per-packet payoff of copy ``m -> m+1``) and trimmed the same way if
   the floors overshoot the budget.

2. **Sequencing** (beam tree search over partial schedules): a search node
   holds per-channel availability times, per-group remaining copies and
   last-placed positions, and the incurred cost -- the ``TreeNode`` idiom
   of multi-channel task scheduling.  Each step extends the earliest-free
   channel with one of the :data:`BRANCH_FACTOR` most *overdue* groups (due
   time = last placement + ideal spacing ``C/m``; unplaced groups are due
   immediately, which also pins coverage early so every data channel gets
   work before any second copies land).  Nodes are ranked by incurred cost
   plus an optimistic tail (every remaining gap at its ideal spacing) and
   pruned against the greedy incumbent; the best :data:`BEAM_WIDTH` survive
   each depth.  Groups pin to the channel of their first placement, so a
   bucket never airs on two channels and ``channel_of`` stays well defined.

3. **Selection**: every completed leaf (plus the pure-greedy seed and the
   flat layout itself) is materialised as a real schedule and scored with
   the exact vectorized cost model (:mod:`repro.sched.cost`); the cheapest
   wins.  Including the flat layout makes the optimizer *never worse* than
   flat under its own cost model -- with uniform demand it simply returns
   the flat economics.

Navigation buckets are never searched over: with ``channels >= 2`` they
keep the striped layout's control channel verbatim (index probes cost
exactly what they cost flat); with ``channels == 1`` they are interleaved
evenly through the optimized data sequence in their original relative
order, each airing once per macro-cycle.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..broadcast.channel import Channel, ChannelRole
from ..broadcast.program import BroadcastProgram
from ..broadcast.schedule import BroadcastSchedule, control_and_groups
from .cost import expected_latency_packets

__all__ = ["plan_multiplicities", "build_optimized_schedule"]

#: Hard cap on per-group copies: bounds both cycle growth and search depth.
MAX_COPIES = 32

#: The beam search's shape: nodes kept per depth, and overdue groups tried
#: per expansion (the greedy seed pass runs 1 and 1).
BEAM_WIDTH = 8
BRANCH_FACTOR = 4


def plan_multiplicities(
    weights: Sequence[float],
    lengths: Sequence[int],
    budget: float,
) -> np.ndarray:
    """Square-root-rule copy counts under an airtime budget.

    ``budget`` is the total-airtime multiplier (1.0 = every group airs
    exactly once, the flat cycle).  Returns an int array of per-group
    copies per macro-cycle, each >= 1, with total airtime
    ``sum(m * l) <= budget * sum(l)`` (up to the minimum of one airing per
    group, which a budget of 1.0 exactly affords).
    """
    w = np.asarray(weights, dtype=np.float64)
    l = np.asarray(lengths, dtype=np.float64)
    if len(w) != len(l) or len(w) == 0:
        raise ValueError("weights and lengths must be equal-length, non-empty")
    if budget < 1.0:
        raise ValueError(f"budget must be >= 1.0 (got {budget}); every bucket "
                         "airs at least once per macro-cycle")
    airtime = float(budget) * float(l.sum())
    s = np.sqrt(np.maximum(w, 0.0) / l)
    denom = float((l * s).sum())
    if denom <= 0.0:  # no demanded group: the flat cycle is optimal
        return np.ones(len(w), dtype=np.int64)
    m = np.floor(airtime * s / denom).astype(np.int64)
    np.clip(m, 1, MAX_COPIES, out=m)

    def gain(g: int) -> float:
        # Payoff per airtime packet of copy m -> m+1: the expected-wait
        # identity gives w C (1/(2m) - 1/(2(m+1))) = w C / (2 m (m+1)); the
        # constant C/2 is common to all candidates and dropped.
        return w[g] / (m[g] * (m[g] + 1) * l[g])

    spent = float((m * l).sum())
    heap = [(-gain(g), g) for g in range(len(w)) if w[g] > 0 and m[g] < MAX_COPIES]
    heapq.heapify(heap)
    while heap:
        _, g = heapq.heappop(heap)
        if spent + l[g] > airtime:
            continue  # cannot afford this group; a smaller one may still fit
        m[g] += 1
        spent += l[g]
        if m[g] < MAX_COPIES:
            heapq.heappush(heap, (-gain(g), g))
    # Floors can overshoot a tight budget on skewed profiles; shed the
    # cheapest copies (smallest loss per packet freed) down to the budget.
    while spent > airtime:
        over = [g for g in range(len(w)) if m[g] > 1]
        if not over:
            break  # one airing each is the floor a >=1.0 budget affords
        g = min(over, key=lambda g: (w[g] / ((m[g] - 1) * m[g] * l[g]), g))
        m[g] -= 1
        spent -= l[g]
    return m


class _Node:
    """A partial schedule: per-channel availability + per-group placement."""

    __slots__ = (
        "avail", "seqs", "remaining", "last", "first", "chan",
        "cost", "tail", "left",
    )

    def __init__(self, avail, seqs, remaining, last, first, chan, cost, tail, left):
        self.avail = avail          # per-channel next-free packet time
        self.seqs = seqs            # per-channel tuple of placed group ids
        self.remaining = remaining  # per-group copies still to place
        self.last = last            # per-group last placed start (-1 = none)
        self.first = first          # per-group first placed start (-1 = none)
        self.chan = chan            # per-group pinned channel (-1 = free)
        self.cost = cost            # incurred weighted gap cost
        self.tail = tail            # optimistic cost of remaining gaps
        self.left = left            # total placements still to make

    @property
    def bound(self) -> float:
        return self.cost + self.tail


def _beam_search(
    weights: np.ndarray,
    lengths: np.ndarray,
    mults: np.ndarray,
    n_channels: int,
    beam_width: int,
    branch_factor: int,
    incumbent: float = float("inf"),
) -> List[_Node]:
    """All completed leaves of one beam pass (see module docstring)."""
    n_groups = len(weights)
    cbar = float((mults * lengths).sum()) / n_channels  # target channel cycle
    ideal = weights * cbar / (2.0 * mults.astype(np.float64) ** 2)
    spacing = cbar / mults.astype(np.float64)
    root = _Node(
        avail=[0] * n_channels,
        seqs=tuple(() for _ in range(n_channels)),
        remaining=list(mults),
        last=[-1] * n_groups,
        first=[-1] * n_groups,
        chan=[-1] * n_groups,
        cost=0.0,
        tail=float((mults * ideal).sum()),
        left=int(mults.sum()),
    )
    beam = [root]
    complete: List[_Node] = []
    while beam:
        frontier: List[_Node] = []
        for node in beam:
            if node.left == 0:
                complete.append(node)
                continue
            # Earliest-free channel that can still legally take a group.
            cands: List[int] = []
            for c in sorted(range(n_channels), key=lambda c: (node.avail[c], c)):
                cands = [
                    g for g in range(n_groups)
                    if node.remaining[g] > 0 and node.chan[g] in (-1, c)
                ]
                if cands:
                    break
            if not cands:  # pragma: no cover - left > 0 guarantees a group
                continue
            p = node.avail[c]
            cands.sort(
                key=lambda g: (
                    0.0 if node.last[g] < 0 else node.last[g] + spacing[g], g
                )
            )
            for g in cands[:branch_factor]:
                cost = node.cost
                first = node.first
                if node.last[g] >= 0:
                    gap = p - node.last[g]
                    cost += weights[g] * gap * gap / (2.0 * cbar)
                else:
                    first = list(first)
                    first[g] = p
                tail = node.tail - ideal[g]
                if cost + tail > incumbent:
                    continue
                avail = list(node.avail)
                avail[c] = p + int(lengths[g])
                remaining = list(node.remaining)
                remaining[g] -= 1
                last = list(node.last)
                last[g] = p
                chan = node.chan
                if chan[g] == -1:
                    chan = list(chan)
                    chan[g] = c
                seqs = list(node.seqs)
                seqs[c] = seqs[c] + (g,)
                frontier.append(
                    _Node(avail, tuple(seqs), remaining, last, first, chan,
                          cost, tail, node.left - 1)
                )
        if not frontier:
            break
        frontier.sort(key=lambda nd: nd.bound)
        beam = frontier[:beam_width]
    # Close the cycle: charge each group's wrap-around gap.
    for node in complete:
        for g in range(n_groups):
            if weights[g] <= 0.0 or node.first[g] < 0:
                continue
            cyc = node.avail[node.chan[g]]
            wrap = (cyc - node.last[g]) + node.first[g]
            node.cost += weights[g] * wrap * wrap / (2.0 * cbar)
    return complete


def _spine_with_insertions(
    program: BroadcastProgram,
    groups: Sequence[Sequence[int]],
    control_ids: Sequence[int],
    mults: np.ndarray,
) -> List[int]:
    """Single-channel layout: the base cycle order plus replicated copies.

    A single-channel index (DSI's (1,m) distributed scheme in particular)
    earns its latency from the *relative order* of tables and frames -- a
    client traverses the cycle in one pass.  So the base program is kept
    verbatim as the spine (budget 1.0 reproduces it exactly) and each hot
    group's ``m - 1`` extra copies are inserted at evenly spaced *atom
    boundaries* (between frame groups / navigation buckets, never inside a
    group), giving replicated frames ~``C/m`` spacing without perturbing
    the traversal order.
    """
    # Atoms: the spine's indivisible units in base-cycle order.
    atoms: List[Tuple[int, Sequence[int]]] = [(c, (c,)) for c in control_ids]
    atoms.extend((group[0], group) for group in groups)
    atoms.sort()
    n = len(program)
    inserts: List[Tuple[float, int]] = []
    for gi, group in enumerate(groups):
        for j in range(1, int(mults[gi])):
            inserts.append(((group[0] + j * n / mults[gi]) % n, gi))
    inserts.sort()
    ids: List[int] = []
    k = 0
    for pos, members in atoms:
        while k < len(inserts) and inserts[k][0] <= pos:
            ids.extend(groups[inserts[k][1]])
            k += 1
        ids.extend(members)
    for _, gi in inserts[k:]:
        ids.extend(groups[gi])
    return ids


def build_optimized_schedule(
    program: BroadcastProgram,
    demand,
    n_channels: int = 1,
    budget: float = 1.5,
) -> BroadcastSchedule:
    """The demand-aware schedule of a flat cycle (see module docstring).

    ``n_channels`` follows :meth:`BroadcastSchedule.for_config` semantics:
    1 is a single hybrid channel, ``N >= 2`` is a control channel plus
    ``N - 1`` data channels.
    """
    if n_channels < 1:
        raise ValueError("a schedule needs at least one channel")
    weights_full = np.asarray(demand.weights, dtype=np.float64)
    if len(weights_full) != len(program):
        raise ValueError(
            f"demand covers {len(weights_full)} buckets, program has "
            f"{len(program)}"
        )
    control_ids, groups = control_and_groups(program)
    n_data = max(1, n_channels - 1)
    if len(groups) < n_data:
        groups = [[g] for group in groups for g in group]
    if sum(len(g) for g in groups) < n_data:
        raise ValueError(
            f"cannot schedule {sum(len(g) for g in groups)} data buckets "
            f"across {n_data} data channels; use fewer channels"
        )
    weights = np.array([weights_full[g].sum() for g in groups])
    lengths = np.array(
        [sum(program.buckets[i].n_packets for i in g) for g in groups],
        dtype=np.int64,
    )
    mults = plan_multiplicities(weights, lengths, budget)

    def materialise(node: _Node) -> Optional[BroadcastSchedule]:
        if any(len(s) == 0 for s in node.seqs):
            return None  # a silent data channel is not a valid layout
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
        for c, seq in enumerate(node.seqs):
            ids = [i for g in seq for i in groups[g]]
            channels.append(
                Channel(
                    cid=c + 1,
                    role=ChannelRole.DATA,
                    program=BroadcastProgram(
                        [program.buckets[i] for i in ids],
                        name=f"{program.name}/opt{c}",
                    ),
                    global_ids=tuple(ids),
                )
            )
        return BroadcastSchedule(channels, program)

    candidates: List[BroadcastSchedule] = []
    if n_channels == 1:
        # One channel: the traversal order *is* the index performance, so
        # only the replication frequencies are searched (spine layout).
        ids = _spine_with_insertions(program, groups, control_ids, mults)
        channels = [
            Channel(
                cid=0,
                role=ChannelRole.HYBRID,
                program=BroadcastProgram(
                    [program.buckets[i] for i in ids],
                    name=f"{program.name}/opt",
                ),
                global_ids=tuple(ids),
            )
        ]
        candidates.append(BroadcastSchedule(channels, program))
    else:
        greedy = _beam_search(weights, lengths, mults, n_data, 1, 1)
        incumbent = min((n.cost for n in greedy), default=float("inf"))
        leaves = _beam_search(
            weights, lengths, mults, n_data, BEAM_WIDTH, BRANCH_FACTOR,
            incumbent=incumbent * 1.0001 if incumbent < float("inf") else incumbent,
        )
        seen = set()
        for node in greedy + leaves:
            if node.seqs in seen:
                continue
            seen.add(node.seqs)
            schedule = materialise(node)
            if schedule is not None:
                candidates.append(schedule)
    # The flat layout competes too: the optimizer is never worse than flat
    # under its own cost model (uniform demand degrades to flat economics).
    if n_channels == 1:
        candidates.append(BroadcastSchedule.single(program))
    else:
        candidates.append(BroadcastSchedule.striped(program, n_data))
    scored = [(expected_latency_packets(s, demand), i) for i, s in enumerate(candidates)]
    best_cost, best_i = min(scored)
    best = candidates[best_i]
    best.policy = "optimized"
    best.policy_meta = {
        "budget": float(budget),
        "n_groups": len(groups),
        "max_copies": int(mults.max()),
        "expected_latency_packets": float(best_cost),
        "flat_latency_packets": float(scored[-1][0]),
    }
    return best
