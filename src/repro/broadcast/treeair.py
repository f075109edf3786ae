"""Broadcasting tree indexes on air: the *distributed indexing* scheme.

Both baselines of the paper -- the STR-packed R-tree and the Hilbert Curve
Index (a B+-tree) -- are broadcast with the classical distributed indexing
organisation of Imielinski et al. [9]: the top levels of the tree (the
"replicated part") are re-broadcast in front of every non-replicated
subtree, followed by that subtree's index nodes (preorder) and then its data
objects in leaf order.

This module provides the tree-agnostic pieces:

* :class:`AirTreeEntry` / :class:`AirTreeNode` -- a generic paged tree node
  (the ``key`` is an MBR for the R-tree and an HC interval for the B+-tree);
* :class:`TreeOnAir` -- turns a node dictionary plus a data ordering into a
  :class:`~repro.broadcast.program.BroadcastProgram`, and offers the
  client-side helpers the search algorithms need (waiting for the next copy
  of the root, reading a specific node, reading a data object).

Error recovery follows the paper's discussion of tree indexes: a node is
only reachable through its parent, so when a node bucket is corrupted the
client has to wait for that node's next broadcast copy (the next replica for
replicated nodes, the next cycle otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .client import ClientSession, ReadResult
from .config import SystemConfig
from .program import BroadcastProgram, Bucket, BucketKind
from .timeline import timeline_of
from ..spatial.datasets import DataObject


@dataclass(frozen=True)
class AirTreeEntry:
    """One entry of a paged tree node.

    Index entries carry ``child`` (a node id); leaf entries carry ``oid``
    (a data object id).  ``key`` is whatever the owning tree prunes with.
    """

    key: Any
    child: Optional[int] = None
    oid: Optional[int] = None

    @property
    def is_leaf_entry(self) -> bool:
        return self.oid is not None


@dataclass
class AirTreeNode:
    """A paged tree node broadcast as one bucket."""

    node_id: int
    level: int                      # 0 = leaf level
    entries: List[AirTreeEntry] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.level == 0


def drain_cached_nodes(
    pending: set,
    cache: Dict[int, AirTreeNode],
    expand: Callable[[AirTreeNode], None],
) -> bool:
    """Expand one cached pending node for free; ``True`` when one was found.

    The warm-session primitive shared by the tree-based search sweeps: a
    node the client has already paid for is static broadcast content, so a
    later query expands the cached copy instead of dozing for the next
    on-air one.  Exactly one node is expanded per call (the lowest pending
    id, a deterministic order) and the caller re-enters its sweep loop, so
    cached expansion interleaves with the pending-set updates precisely as
    an instantaneous read would.  The common no-hit iteration is one set
    intersection (the helper runs at the top of every sweep step).
    """
    hits = pending & cache.keys()
    if not hits:
        return False
    nid = min(hits)
    pending.discard(nid)
    expand(cache[nid])
    return True


class TreeOnAir:
    """A tree index laid out on a broadcast channel (distributed indexing)."""

    def __init__(
        self,
        nodes: Dict[int, AirTreeNode],
        root_id: int,
        objects_in_leaf_order: Sequence[DataObject],
        config: SystemConfig,
        entry_size: int,
        replication_levels: int = 1,
        name: str = "tree",
    ) -> None:
        if root_id not in nodes:
            raise ValueError("root_id not present in nodes")
        if replication_levels < 0:
            raise ValueError("replication_levels must be >= 0")
        self.nodes = nodes
        self.root_id = root_id
        self.config = config
        self.entry_size = entry_size
        self.replication_levels = replication_levels
        self.name = name
        self._build_program(objects_in_leaf_order)

    # -- construction ----------------------------------------------------------

    def node_packets(self, node: AirTreeNode) -> int:
        return self.config.packets_for(len(node.entries) * self.entry_size)

    def _leaf_oids(self, node_id: int) -> List[int]:
        """Object ids under ``node_id`` in leaf order."""
        node = self.nodes[node_id]
        if node.is_leaf:
            return [e.oid for e in node.entries if e.oid is not None]
        out: List[int] = []
        for entry in node.entries:
            if entry.child is not None:
                out.extend(self._leaf_oids(entry.child))
        return out

    def _preorder(self, node_id: int) -> List[int]:
        node = self.nodes[node_id]
        out = [node_id]
        if not node.is_leaf:
            for entry in node.entries:
                if entry.child is not None:
                    out.extend(self._preorder(entry.child))
        return out

    def _build_program(self, objects_in_leaf_order: Sequence[DataObject]) -> None:
        objects_by_id = {o.oid: o for o in objects_in_leaf_order}
        root = self.nodes[self.root_id]
        depth_cut = min(self.replication_levels, max(0, self._tree_height() - 1))

        # Branch nodes: the roots of the non-replicated subtrees, left to right.
        branches: List[Tuple[int, List[int]]] = []  # (branch node id, ancestor path)

        def collect(node_id: int, depth: int, path: List[int]) -> None:
            if depth == depth_cut:
                branches.append((node_id, list(path)))
                return
            node = self.nodes[node_id]
            for entry in node.entries:
                if entry.child is not None:
                    collect(entry.child, depth + 1, path + [node_id])

        collect(self.root_id, 0, [])

        buckets: List[Bucket] = []
        self.node_buckets: Dict[int, List[int]] = {nid: [] for nid in self.nodes}
        self.object_bucket: Dict[int, int] = {}

        for branch_id, path in branches:
            for ancestor in path:  # replicated copies of the upper levels
                node = self.nodes[ancestor]
                self.node_buckets[ancestor].append(len(buckets))
                buckets.append(
                    Bucket(
                        kind=BucketKind.CONTROL,
                        n_packets=self.node_packets(node),
                        payload=node,
                        meta={"node_id": ancestor, "replica_for": branch_id},
                    )
                )
            for node_id in self._preorder(branch_id):
                node = self.nodes[node_id]
                self.node_buckets[node_id].append(len(buckets))
                buckets.append(
                    Bucket(
                        kind=BucketKind.TREE_NODE,
                        n_packets=self.node_packets(node),
                        payload=node,
                        meta={"node_id": node_id},
                    )
                )
            for oid in self._leaf_oids(branch_id):
                obj = objects_by_id[oid]
                self.object_bucket[oid] = len(buckets)
                buckets.append(
                    Bucket(
                        kind=BucketKind.DATA,
                        n_packets=self.config.object_packets,
                        payload=obj,
                        meta={"oid": oid},
                    )
                )

        self.program = BroadcastProgram(buckets, name=self.name)

    def _tree_height(self) -> int:
        return self.nodes[self.root_id].level + 1

    # -- client-side helpers ------------------------------------------------------

    def next_node_occurrence(
        self, node_id: int, not_before: int, session: Optional[ClientSession] = None
    ) -> Tuple[int, int]:
        """Earliest upcoming ``(bucket_index, start)`` of any copy of a node.

        With a ``session``, arrivals are computed from the session's state
        (its schedule view and parked channel, including retune latency), so
        planning ranks copies by the times a read will actually achieve;
        without one, the tree's own single-channel program is used.
        """
        if session is not None:
            arrival = lambda b: session.next_arrival(b, not_before)
        else:
            arrival = lambda b: self.program.next_occurrence(b, not_before)
        best: Optional[Tuple[int, int]] = None
        for bucket_index in self.node_buckets[node_id]:
            start = arrival(bucket_index)
            if best is None or start < best[1]:
                best = (bucket_index, start)
        if best is None:
            raise KeyError(f"node {node_id} is not broadcast")
        return best

    def entry_landmark(self, view, position: int, switch_packets: int = 0):
        """First root-copy read from ``position`` (fleet trace collapse).

        Mirrors :meth:`next_node_occurrence` for a freshly tuned-in session
        (clock at ``position``, radio on the home channel): executions whose
        first root read is the same ``(bucket, start)`` share their whole
        absolute trace.
        """
        home = getattr(view, "home_channel", None)
        best = None
        for bucket_index in self.node_buckets[self.root_id]:
            earliest = position
            if home is not None and view.channel_of(bucket_index) != home:
                earliest = position + switch_packets
            start = view.next_occurrence(bucket_index, earliest)
            if best is None or start < best[1]:
                best = (bucket_index, start)
        return best

    def next_pending_event(
        self,
        clock: int,
        node_ids: Iterable[int],
        oids: Iterable[int] = (),
        session: Optional[ClientSession] = None,
    ) -> Optional[Tuple[str, int, int]]:
        """Earliest upcoming pending bucket: ``("node"|"data", id, bucket_index)``.

        The search algorithms keep *pending sets* of node ids and object ids
        they still need; the next relevant bucket on the channel is simply
        the pending bucket with the earliest next occurrence.  All candidate
        buckets (every copy of every pending node, every pending object) are
        ranked in one batched timeline lookup -- the same buckets, in the
        very same arrival order, as the scalar occurrence sweep computed.

        Candidates are iterated in sorted id order (nodes before objects),
        so arrival ties resolve deterministically: lowest pending node id,
        then lowest pending object id.  On one channel ties are impossible
        (distinct buckets occupy distinct cycle offsets), so the ordering
        only ever decides cross-channel ties -- and it is the ordering the
        lockstep fleet kernel (:mod:`repro.sim.fleet_kernel`) mirrors.
        """
        buckets: List[int] = []
        events: List[Tuple[str, int]] = []
        firsts: List[int] = []
        for node_id in sorted(node_ids):
            copies = self.node_buckets[node_id]
            firsts.append(len(buckets))
            buckets.extend(copies)
            events.append(("node", node_id))
        for oid in sorted(oids):
            firsts.append(len(buckets))
            buckets.append(self.object_bucket[oid])
            events.append(("data", oid))
        if not buckets:
            return None
        if session is not None:
            starts = session.next_arrivals(buckets, not_before=clock)
        else:
            timeline = timeline_of(self.program)
            starts = timeline.next_occurrences(
                np.asarray(buckets, dtype=np.int64), clock if clock > 0 else 0
            )
        # Segment minima per event (a node's copies form one segment), then
        # the first event attaining the global minimum and its first
        # minimal copy -- identical tie-breaking to the scalar sweep's
        # strictly-first-minimum updates.
        firsts.append(len(buckets))
        bounds = np.asarray(firsts, dtype=np.int64)
        mins = np.minimum.reduceat(starts, bounds[:-1])
        e = int(np.argmin(mins))
        lo, hi = int(bounds[e]), int(bounds[e + 1])
        at = lo + (int(np.argmin(starts[lo:hi])) if hi - lo > 1 else 0)
        kind, ident = events[e]
        return kind, ident, buckets[at]

    def read_node(
        self, session: ClientSession, node_id: int, max_attempts: int = 48
    ) -> AirTreeNode:
        """Doze to the next copy of ``node_id`` and read it.

        On a link error the client has no alternative route to the node (the
        paper's point about tree indexes), so it waits for the next copy.
        """
        attempts = 0
        while True:
            bucket_index, _ = self.next_node_occurrence(node_id, session.clock, session)
            result = session.read_bucket(bucket_index)
            attempts += 1
            if result.ok:
                return result.payload
            if attempts >= max_attempts:
                raise RuntimeError(f"node {node_id} unreadable after {attempts} attempts")

    def read_object(
        self, session: ClientSession, oid: int, max_attempts: int = 16
    ) -> Optional[DataObject]:
        attempts = 0
        while attempts < max_attempts:
            result = session.read_bucket(self.object_bucket[oid])
            attempts += 1
            if result.ok:
                return result.payload
        return None

    def root_arrival(self, not_before: int) -> int:
        return self.next_node_occurrence(self.root_id, not_before)[1]

    def index_node_count(self) -> int:
        return len(self.nodes)

    @property
    def sweep_guard(self) -> int:
        """How many select steps one sweep over this tree may take.

        The shared safety bound of the R-tree and HCI sweeps and of the
        fleet kernel's frontier sweeps.  A sweep takes one step per pending
        event it resolves, lost reads included, so only heavy link loss
        comes near it.  A reference sweep that reaches it stops and flags
        its result (``TreeQueryResult.iterations_capped``); the kernel
        declines instead.
        """
        return 64 * len(self.program) + 256

    def describe(self) -> Dict[str, object]:
        return {
            "tree": self.name,
            "nodes": len(self.nodes),
            "height": self._tree_height(),
            "replication_levels": self.replication_levels,
            "cycle_packets": self.program.cycle_packets,
            "cycle_bytes": self.program.cycle_bytes(self.config.packet_capacity),
            "index_overhead": self.program.index_overhead_fraction(),
        }
