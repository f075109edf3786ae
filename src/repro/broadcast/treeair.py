"""Broadcasting tree indexes on air: the *distributed indexing* scheme.

Both baselines of the paper -- the STR-packed R-tree and the Hilbert Curve
Index (a B+-tree) -- are broadcast with the classical distributed indexing
organisation of Imielinski et al. [9]: the top levels of the tree (the
"replicated part") are re-broadcast in front of every non-replicated
subtree, followed by that subtree's index nodes (preorder) and then its data
objects in leaf order.

Both also answer a query with the same search.  Navigation order must
follow broadcast order (paper Section 2): a node that has already passed is
only available again at its next copy.  So the client keeps *pending sets*
of the node and object buckets it still needs, dozes through everything
else and reads whichever pending bucket arrives next.  This module provides
the tree-agnostic pieces:

* :class:`AirTreeEntry` / :class:`AirTreeNode` -- a generic paged tree node
  (the ``key`` is an MBR for the R-tree and an HC interval for the B+-tree);
* :class:`TreeOnAir` -- turns a node dictionary plus a data ordering into a
  :class:`~repro.broadcast.program.BroadcastProgram`, and runs that one
  pending-set search, :meth:`TreeOnAir.sweep`, under a *pruning rule*
  (:data:`TreeRule`) that picks the entries of a node the search follows;
* :class:`TreeAirIndex` -- the shared base of the two baselines and their
  one window query: probe, ask the index's :meth:`~TreeAirIndex.window_rule`
  for its rule, sweep under it.  The lockstep fleet kernel
  (:mod:`repro.sim.fleet_kernel`) compiles the same rule;
* :class:`TreeQueryResult` -- what a tree query returns.

Error recovery follows the paper's discussion of tree indexes: a node is
only reachable through its parent, so when a node bucket is corrupted the
client has to wait for that node's next broadcast copy (the next replica for
replicated nodes, the next cycle otherwise).
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..api.protocol import AirIndex
from .client import AccessMetrics, ClientSession
from .config import SystemConfig
from .program import BroadcastProgram, Bucket, BucketKind
from ..spatial.datasets import DataObject
from ..spatial.geometry import Rect


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


#: A pruning rule: the entries of a node a sweep follows -- child entries
#: to subtrees it reads next, leaf entries to objects it downloads.
TreeRule = Callable[[AirTreeNode], List[AirTreeEntry]]


@dataclass
class TreeQueryResult:
    """Result of a window/kNN query over a tree-based air index."""

    objects: List[DataObject]
    metrics: AccessMetrics
    nodes_read: int = 0
    objects_read: int = 0
    #: True when a sweep stopped at :attr:`TreeOnAir.sweep_guard` with
    #: work still pending, so the answer may be incomplete.
    iterations_capped: bool = False

    @property
    def object_ids(self) -> List[int]:
        return sorted(o.oid for o in self.objects)


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
        self, node_id: int, not_before: int, session: ClientSession
    ) -> Tuple[int, int]:
        """Earliest upcoming ``(bucket_index, start)`` of any copy of a node.

        Arrivals are computed from the session's state (its schedule view
        and parked channel, including retune latency), so copies are ranked
        by the times a read will actually achieve.
        """
        best: Optional[Tuple[int, int]] = None
        for bucket_index in self.node_buckets[node_id]:
            start = session.next_arrival(bucket_index, not_before)
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
        oids: Iterable[int],
        session: ClientSession,
    ) -> Optional[Tuple[str, int, int]]:
        """Earliest upcoming pending bucket: ``("node"|"data", id, bucket_index)``.

        The search algorithms keep *pending sets* of node ids and object ids
        they still need; the next relevant bucket on the channel is simply
        the pending bucket with the earliest next occurrence.  All candidate
        buckets (every copy of every pending node, every pending object) are
        ranked in one batched arrival lookup from the session's state -- the
        same buckets, in the very same arrival order, as a scalar occurrence
        sweep would compute.

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
        starts = session.next_arrivals(buckets, not_before=clock)
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

    def read_node(self, session: ClientSession, node_id: int) -> AirTreeNode:
        """Doze to the next copy of ``node_id`` and read it.

        On a link error the client has no alternative route to the node (the
        paper's point about tree indexes), so it waits for the next copy, at
        most :attr:`read_guard` copies in all.
        """
        for _attempt in range(self.read_guard):
            bucket_index, _ = self.next_node_occurrence(node_id, session.clock, session)
            result = session.read_bucket(bucket_index)
            if result.ok:
                return result.payload
        raise RuntimeError(f"node {node_id} unreadable after {self.read_guard} attempts")

    def read_object(self, session: ClientSession, oid: int) -> Optional[DataObject]:
        """Read object ``oid``, trying up to 16 copies; ``None`` if all are lost."""
        for _attempt in range(16):
            result = session.read_bucket(self.object_bucket[oid])
            if result.ok:
                return result.payload
        return None

    def read_root(
        self, session: ClientSession, cache: Optional[Dict[int, AirTreeNode]]
    ) -> Tuple[AirTreeNode, int]:
        """The root (free from a warm ``cache``) and how many reads it cost."""
        if cache is not None and self.root_id in cache:
            return cache[self.root_id], 0
        root = self.read_node(session, self.root_id)
        if cache is not None:
            cache[self.root_id] = root
        return root, 1

    def sweep(
        self,
        session: ClientSession,
        rule: Optional[TreeRule],
        cache: Optional[Dict[int, AirTreeNode]],
    ) -> Tuple[List[DataObject], int, bool]:
        """The pending-set search both tree baselines answer queries with.

        The client reads the root, then keeps the node and object buckets it
        still needs in two pending sets and reads whichever of them arrives
        next (:meth:`next_pending_event`).  Every node it reads is expanded
        under ``rule``: the children and objects of the entries the rule
        picks become pending.  A lost read leaves its bucket pending, so the
        client waits for the next copy.  A ``None`` rule reads nothing, not
        even the root.

        With a warm ``cache`` every node read joins it, and a pending node
        found there is static content the client has already paid for: it is
        expanded for free instead of dozing for the next on-air copy.  One
        cached node is expanded per step (the lowest pending id, a
        deterministic order), so cached expansion interleaves with the
        pending-set updates precisely as an instantaneous read would.

        Returns ``(objects, nodes_read, capped)``: the objects read, in read
        order (one per successful data read); the successful node reads; and
        whether the sweep stopped at :attr:`sweep_guard` with work pending.
        """
        if rule is None:
            return [], 0, False
        pending_nodes: Set[int] = set()
        pending_objects: Set[int] = set()

        def expand(node: AirTreeNode) -> None:
            for entry in rule(node):
                if entry.is_leaf_entry:
                    pending_objects.add(entry.oid)
                else:
                    pending_nodes.add(entry.child)

        root, nodes_read = self.read_root(session, cache)
        expand(root)
        found: List[DataObject] = []
        guard = self.sweep_guard
        steps = 0
        while pending_nodes or pending_objects:
            hits = pending_nodes & cache.keys() if cache else None
            if hits:
                nid = min(hits)
                pending_nodes.discard(nid)
                expand(cache[nid])
                continue
            steps += 1
            if steps > guard:
                return found, nodes_read, True
            kind, ident, bucket_index = self.next_pending_event(
                session.clock, pending_nodes, pending_objects, session
            )
            result = session.read_bucket(bucket_index)
            if not result.ok:
                continue  # wait for the next copy (tree recovery rule)
            if kind == "node":
                pending_nodes.discard(ident)
                nodes_read += 1
                if cache is not None:
                    cache[ident] = result.payload
                expand(result.payload)
            else:
                pending_objects.discard(ident)
                found.append(result.payload)
        return found, nodes_read, False

    @property
    def sweep_guard(self) -> int:
        """How many select steps one sweep over this tree may take.

        The shared safety bound of :meth:`sweep`, the R-tree's kNN search
        and the fleet kernel's frontier sweeps.  A sweep takes one step per
        pending event it resolves, lost reads included, so only heavy link
        loss comes near it.  A reference sweep that reaches it stops and
        flags its result (``TreeQueryResult.iterations_capped``); the kernel
        declines instead.
        """
        return 64 * len(self.program) + 256

    @property
    def read_guard(self) -> int:
        """How many copies of one node a client tries before giving up.

        The shared retry bound of :meth:`read_node` and of the fleet
        kernel's root read.  Past it the reference raises ``RuntimeError``;
        the kernel declines, so its fallback raises the same.
        """
        return 48

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


class TreeAirIndex(AirIndex):
    """What the R-tree and HCI baselines share: a tree on air and one
    window query.

    A subclass builds ``air`` (a :class:`TreeOnAir`) and sets ``dataset``
    and ``fanout``; it defines :meth:`window_rule` and ``knn_query``.
    """

    air: TreeOnAir
    fanout: int

    @property
    def program(self) -> BroadcastProgram:
        return self.air.program

    def describe(self) -> Dict[str, object]:
        info = self.air.describe()
        info.update({"index": self.name, "fanout": self.fanout, "n_objects": len(self.dataset)})
        return info

    def entry_landmark(self, view, position: int, switch_packets: int = 0):
        """Delegate to the on-air tree's root-copy seek (fleet trace collapse)."""
        return self.air.entry_landmark(view, position, switch_packets)

    def new_client_state(self) -> Dict[int, AirTreeNode]:
        """Warm-session state: a cache of index nodes already received.

        Tree nodes are static broadcast content, so a continuous client that
        has paid for a node once never needs to wait for another copy of it;
        cached nodes are expanded for free on later queries (see
        :mod:`repro.mobility`).
        """
        return {}

    @abstractmethod
    def window_rule(self, window: Rect) -> Optional[TreeRule]:
        """The window query's pruning rule, or ``None`` to read nothing.

        The one source of truth for which subtrees and objects a window
        query reads: :meth:`window_query` sweeps under it, and the lockstep
        fleet kernel (:mod:`repro.sim.fleet_kernel`) compiles it into each
        query's qualifying subtree, so both prune identically.
        """

    def window_query(
        self,
        window: Rect,
        session: ClientSession,
        state: Optional[Dict[int, AirTreeNode]] = None,
    ) -> TreeQueryResult:
        session.initial_probe()
        found, nodes_read, capped = self.air.sweep(session, self.window_rule(window), state)
        return TreeQueryResult(
            objects=[o for o in found if window.contains_point(o.point)],
            metrics=session.metrics(),
            nodes_read=nodes_read,
            objects_read=len(found),
            iterations_capped=capped,
        )
