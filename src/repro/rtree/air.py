"""The R-tree baseline: STR-packed R-tree broadcast on air.

The search algorithms must follow the broadcast order of the index nodes
(paper Section 2.1, Figure 1): a node that has already passed is only
available again in the next cycle.  Both queries therefore run as a *sweep*
over the channel: the client keeps a pending set of node/object buckets it
still needs, dozes through everything else, and reads pending buckets as
they arrive -- exactly the "navigation order must follow broadcast order"
discipline the paper describes, with the resulting extra latency whenever a
needed subtree has already gone by.

A window query is the shared :meth:`TreeOnAir.sweep` under this index's
:meth:`RTreeAirIndex.window_rule` (entries whose MBR meets the window).  A
kNN query is a branch-and-bound sweep of its own: it drops pending entries
as they arrive, against a bound that shrinks while it reads.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..broadcast.client import ClientSession
from ..broadcast.config import SystemConfig
from ..broadcast.treeair import (
    AirTreeNode,
    TreeAirIndex,
    TreeOnAir,
    TreeQueryResult,
    TreeRule,
)
from ..spatial.datasets import DataObject, SpatialDataset
from ..spatial.geometry import Point, Rect
from .str_pack import build_str_rtree, rtree_fanout

__all__ = ["RTreeAirIndex", "TreeQueryResult"]


class RTreeAirIndex(TreeAirIndex):
    """STR R-tree over the broadcast channel (the paper's "R-tree" curves)."""

    name = "R-tree"

    def __init__(
        self,
        dataset: SpatialDataset,
        config: SystemConfig,
        replication_levels: int = 1,
    ) -> None:
        self.dataset = dataset
        self.config = config
        fanout = rtree_fanout(config.packet_capacity, config.rtree_entry_size)
        nodes, root_id, leaf_order = build_str_rtree(dataset, fanout)
        self.fanout = fanout
        self.air = TreeOnAir(
            nodes,
            root_id,
            leaf_order,
            config,
            entry_size=config.rtree_entry_size,
            replication_levels=replication_levels,
            name=f"rtree-{dataset.name}",
        )

    def window_rule(self, window: Rect) -> TreeRule:
        """Follow the entries whose MBR intersects ``window``."""
        return lambda node: [e for e in node.entries if e.key.intersects(window)]

    # -- kNN query ----------------------------------------------------------------

    def knn_query(
        self,
        q: Point,
        k: int,
        session: ClientSession,
        state: Optional[Dict[int, AirTreeNode]] = None,
    ) -> TreeQueryResult:
        if k < 1:
            raise ValueError("k must be >= 1")
        session.initial_probe()
        sweep = _KnnSweepState(q=q, k=k)
        root, nodes_read = self.air.read_root(session, state)
        sweep.expand(root)

        guard = self.air.sweep_guard
        steps = 0
        capped = False
        while not sweep.finished():
            if state and self._drain_knn_cached(sweep, state):
                continue
            steps += 1
            if steps > guard:
                capped = True
                break
            event = self.air.next_pending_event(
                session.clock, sweep.pending_nodes, sweep.pending_data, session
            )
            if event is None:
                break  # nothing pending; missing answers are fetched below
            kind, ident, bucket_index = event
            if kind == "node":
                if sweep.pending_nodes[ident] > sweep.bound():
                    del sweep.pending_nodes[ident]
                    continue
                result = session.read_bucket(bucket_index)
                if not result.ok:
                    continue
                del sweep.pending_nodes[ident]
                nodes_read += 1
                if state is not None:
                    state[ident] = result.payload
                sweep.expand(result.payload)
            else:
                if sweep.pending_data[ident] > sweep.bound():
                    del sweep.pending_data[ident]
                    continue
                result = session.read_bucket(bucket_index)
                if not result.ok:
                    continue
                del sweep.pending_data[ident]
                sweep.downloaded[ident] = result.payload

        # Any of the final k answers not downloaded yet must still be fetched
        # (possibly waiting for the next cycle): the query is not satisfied
        # until the data objects themselves have been received.
        for dist, oid in sweep.best_k():
            if oid not in sweep.downloaded:
                obj = self.air.read_object(session, oid)
                if obj is not None:
                    sweep.downloaded[oid] = obj

        ranked = [sweep.downloaded[oid] for _d, oid in sweep.best_k() if oid in sweep.downloaded]
        return TreeQueryResult(
            objects=ranked,
            metrics=session.metrics(),
            nodes_read=nodes_read,
            objects_read=len(sweep.downloaded),
            iterations_capped=capped,
        )

    @staticmethod
    def _drain_knn_cached(
        sweep: "_KnnSweepState", cache: Dict[int, AirTreeNode]
    ) -> bool:
        """Resolve one cached pending node without a read: prune it when its
        mindist exceeds the current bound (exactly as the on-air path would),
        expand it for free otherwise."""
        hits = sweep.pending_nodes.keys() & cache.keys()
        if not hits:
            return False
        nid = min(hits)
        mindist = sweep.pending_nodes.pop(nid)
        if mindist <= sweep.bound():
            sweep.expand(cache[nid])
        return True


@dataclass
class _KnnSweepState:
    """Bookkeeping of the on-air branch-and-bound kNN sweep."""

    q: Point
    k: int
    pending_nodes: Dict[int, float] = field(default_factory=dict)   # node id -> mindist
    pending_data: Dict[int, float] = field(default_factory=dict)    # oid -> exact distance
    downloaded: Dict[int, DataObject] = field(default_factory=dict)
    # Sorted list of (guaranteed distance, tag) upper bounds: a leaf entry
    # guarantees an object at its exact distance, an index entry guarantees
    # at least one object within MAXDIST of its MBR.  Each bound must stand
    # for a *distinct* object, so the bound contributed by an index entry is
    # retired as soon as the node it points to is expanded (its descendants
    # then contribute their own bounds).
    _upper: List[Tuple[float, int]] = field(default_factory=list)
    _upper_by_tag: Dict[int, float] = field(default_factory=dict)
    # Sorted list of exact candidate distances (dist, oid) from leaf entries.
    _candidates: List[Tuple[float, int]] = field(default_factory=list)

    def bound(self) -> float:
        """Upper bound of the k-th nearest neighbour distance."""
        if len(self._upper) < self.k:
            return float("inf")
        return self._upper[self.k - 1][0]

    def _add_bound(self, value: float, tag: int) -> None:
        self._upper_by_tag[tag] = value
        bisect.insort(self._upper, (value, tag))

    def _retire_bound(self, tag: int) -> None:
        value = self._upper_by_tag.pop(tag, None)
        if value is not None:
            i = bisect.bisect_left(self._upper, (value, tag))
            if i < len(self._upper) and self._upper[i] == (value, tag):
                del self._upper[i]

    def expand(self, node: AirTreeNode) -> None:
        # The bound that stood for "some object below this node" is replaced
        # by the bounds of the node's own entries.
        self._retire_bound(-1 - node.node_id)
        for entry in node.entries:
            if entry.is_leaf_entry:
                dist = entry.key.mindist(self.q)  # point MBR: exact distance
                self._add_bound(dist, entry.oid)
                bisect.insort(self._candidates, (dist, entry.oid))
                if dist <= self.bound():
                    self.pending_data[entry.oid] = dist
            else:
                mindist = entry.key.mindist(self.q)
                maxdist = entry.key.maxdist(self.q)
                self._add_bound(maxdist, -1 - entry.child)
                if mindist <= self.bound():
                    self.pending_nodes[entry.child] = mindist

    def best_k(self) -> List[Tuple[float, int]]:
        return self._candidates[: self.k]

    def finished(self) -> bool:
        bound = self.bound()
        if any(d <= bound for d in self.pending_nodes.values()):
            return False
        best = self._candidates[: self.k]
        return all(oid in self.downloaded for _d, oid in best)
