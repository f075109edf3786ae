"""The Hilbert Curve Index (HCI) baseline on air.

HCI broadcasts objects in ascending HC order and indexes them with a
B+-tree over HC values (paper Section 2.2, [18]), organised on the channel
with the distributed indexing scheme.  Queries are mapped to HC intervals:

* a **window query** becomes the conservative HC-range cover of the window
  (the same target segments DSI uses) followed by B+-tree range lookups;
* a **kNN query** runs in two phases, following the HCI design: first the
  objects nearest to the query point *along the curve* are located through
  the tree, which yields a provably sufficient search radius; then a window
  query over the bounding box of that circle retrieves the candidates and
  the k nearest by exact distance are returned.

Both phases must follow the broadcast order of the tree nodes, so a kNN
query typically spans more than one broadcast cycle -- the effect the
paper's Figure 11 shows as HCI's large access latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..api.protocol import AirIndex
from ..broadcast.client import ClientSession
from ..broadcast.config import SystemConfig
from ..broadcast.treeair import AirTreeNode, TreeOnAir, drain_cached_nodes as _drain_cached
from ..rtree.air import TreeQueryResult
from ..spatial.datasets import DataObject, SpatialDataset
from ..spatial.geometry import Point, Rect, circle_bounding_rect
from ..spatial.hilbert import WINDOW_MAX_DEPTH, WINDOW_MAX_RANGES, HCRange
from .bptree import bptree_fanout, build_bptree

HCInterval = Tuple[int, int]


def _intersects_any(interval: HCInterval, ranges: Sequence[HCRange]) -> bool:
    lo, hi = interval
    return any(not (hi < rlo or lo > rhi) for rlo, rhi in ranges)


class HciAirIndex(AirIndex):
    """Hilbert Curve Index over the broadcast channel (the paper's "HCI")."""

    name = "HCI"

    def __init__(
        self,
        dataset: SpatialDataset,
        config: SystemConfig,
        replication_levels: int = 1,
    ) -> None:
        self.dataset = dataset
        self.config = config
        self.curve = dataset.curve
        fanout = bptree_fanout(config.packet_capacity, config.bptree_entry_size)
        nodes, root_id, hc_order = build_bptree(dataset, fanout)
        self.fanout = fanout
        self.air = TreeOnAir(
            nodes,
            root_id,
            hc_order,
            config,
            entry_size=config.bptree_entry_size,
            replication_levels=replication_levels,
            name=f"hci-{dataset.name}",
        )

    @property
    def program(self):
        return self.air.program

    def describe(self) -> Dict[str, object]:
        info = self.air.describe()
        info.update({"index": self.name, "fanout": self.fanout, "n_objects": len(self.dataset)})
        return info

    def entry_landmark(self, view, position: int, switch_packets: int = 0):
        """Delegate to the on-air tree's root-copy seek (fleet trace collapse)."""
        return self.air.entry_landmark(view, position, switch_packets)

    def new_client_state(self) -> Dict[int, AirTreeNode]:
        """Warm-session state: a cache of B+-tree nodes already received
        (static broadcast content; see :mod:`repro.mobility`)."""
        return {}

    # -- window query -----------------------------------------------------------

    def window_cover(self, window: Rect) -> List[HCRange]:
        """The conservative HC-range cover a window query traverses for.

        Shared by :meth:`window_query` and the lockstep fleet kernel's
        per-query precompute (:mod:`repro.sim.fleet_kernel`), so both map
        windows to the identical interval set (an empty cover means the
        query reads nothing beyond its initial probe).
        """
        return self.curve.ranges_for_rect(
            window, max_ranges=WINDOW_MAX_RANGES, max_depth=WINDOW_MAX_DEPTH
        )

    def window_query(
        self,
        window: Rect,
        session: ClientSession,
        state: Optional[Dict[int, AirTreeNode]] = None,
    ) -> TreeQueryResult:
        cover = self.window_cover(window)
        session.initial_probe()
        retrieved, nodes_read, objects_read, capped = self._range_sweep(
            session, cover, collect_data=True, cache=state
        )
        objects = [o for o in retrieved if window.contains_point(o.point)]
        return TreeQueryResult(
            objects=objects,
            metrics=session.metrics(),
            nodes_read=nodes_read,
            objects_read=objects_read,
            iterations_capped=capped,
        )

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
        nodes_read_total = 0
        objects_read_total = 0
        capped = False

        # Phase 1: locate the objects nearest to q along the curve and derive
        # a provably sufficient search radius from their (cell-centre)
        # positions.  The HC window is widened until it holds >= k objects.
        hc_q = self.curve.value_of(q)
        expected_gap = max(1, self.curve.max_value // max(1, len(self.dataset)))
        width = max(1, 2 * k * expected_gap)
        candidate_hcs: List[int] = []
        for _attempt in range(8):
            lo = max(0, hc_q - width)
            hi = min(self.curve.max_value - 1, hc_q + width)
            entries, nodes_read, sweep_capped = self._leaf_entry_sweep(
                session, [(lo, hi)], cache=state
            )
            nodes_read_total += nodes_read
            capped |= sweep_capped
            candidate_hcs = entries
            if len(candidate_hcs) >= k or (lo == 0 and hi == self.curve.max_value - 1):
                break
            width *= 4

        slack = self.curve.cell_diagonal()
        if candidate_hcs:
            dists = sorted(
                q.distance_to(self.curve.representative_point(hc)) for hc in candidate_hcs
            )
            kth = dists[min(k, len(dists)) - 1]
            radius = kth + slack
            if len(candidate_hcs) < k:
                radius = max(radius, 1.5)  # degenerate tiny datasets: search everything
        else:
            radius = 1.5  # the whole unit space

        # Phase 2: a window query over the search circle's bounding box.
        box = circle_bounding_rect(q, radius)
        cover = self.curve.ranges_for_rect(
            box, max_ranges=WINDOW_MAX_RANGES, max_depth=WINDOW_MAX_DEPTH
        )
        retrieved, nodes_read, objects_read, sweep_capped = self._range_sweep(
            session, cover, collect_data=True, cache=state
        )
        nodes_read_total += nodes_read
        objects_read_total += objects_read

        ranked = sorted(retrieved, key=lambda o: (o.distance_to(q), o.oid))[:k]
        return TreeQueryResult(
            objects=ranked,
            metrics=session.metrics(),
            nodes_read=nodes_read_total,
            objects_read=objects_read_total,
            iterations_capped=capped or sweep_capped,
        )

    # -- shared sweeps -------------------------------------------------------------

    def _read_root(
        self,
        session: ClientSession,
        cache: Optional[Dict[int, AirTreeNode]],
    ) -> Tuple[AirTreeNode, int]:
        """The tree root (cached for free on a warm session) and its read cost."""
        if cache is not None and self.air.root_id in cache:
            return cache[self.air.root_id], 0
        root = self.air.read_node(session, self.air.root_id)
        if cache is not None:
            cache[root.node_id] = root
        return root, 1

    def _range_sweep(
        self,
        session: ClientSession,
        ranges: Sequence[HCRange],
        collect_data: bool,
        cache: Optional[Dict[int, AirTreeNode]] = None,
    ) -> Tuple[List[DataObject], int, int, bool]:
        """Traverse the tree for every HC range, retrieving matching objects.

        Returns ``(objects, nodes_read, objects_read, capped)``; ``capped``
        is True when the sweep stopped at the tree's sweep guard.
        """
        if not ranges:
            return [], 0, 0, False
        root, nodes_read = self._read_root(session, cache)
        objects_read = 0
        retrieved: List[DataObject] = []
        pending_nodes: Set[int] = set()
        pending_objects: Set[int] = set()
        self._expand(root, ranges, pending_nodes, pending_objects)

        guard = self.air.sweep_guard
        steps = 0
        while pending_nodes or (collect_data and pending_objects):
            if cache and _drain_cached(
                pending_nodes, cache,
                lambda node: self._expand(node, ranges, pending_nodes, pending_objects),
            ):
                continue
            steps += 1
            if steps > guard:
                return retrieved, nodes_read, objects_read, True
            kind, ident, bucket_index = self.air.next_pending_event(
                session.clock, pending_nodes, pending_objects if collect_data else (),
                session=session,
            )
            result = session.read_bucket(bucket_index)
            if not result.ok:
                continue
            if kind == "node":
                pending_nodes.discard(ident)
                nodes_read += 1
                if cache is not None:
                    cache[ident] = result.payload
                self._expand(result.payload, ranges, pending_nodes, pending_objects)
            else:
                pending_objects.discard(ident)
                objects_read += 1
                retrieved.append(result.payload)
        return retrieved, nodes_read, objects_read, False

    def _leaf_entry_sweep(
        self,
        session: ClientSession,
        ranges: Sequence[HCRange],
        cache: Optional[Dict[int, AirTreeNode]] = None,
    ) -> Tuple[List[int], int, bool]:
        """Traverse the tree for the ranges but collect only leaf-entry HC
        values: ``(hcs, nodes_read, capped)``, as for :meth:`_range_sweep`."""
        root, nodes_read = self._read_root(session, cache)
        found: List[int] = []
        pending_nodes: Set[int] = set()
        sink: Set[int] = set()
        self._expand(root, ranges, pending_nodes, sink, found)

        guard = self.air.sweep_guard
        steps = 0
        while pending_nodes:
            if cache and _drain_cached(
                pending_nodes, cache,
                lambda node: self._expand(node, ranges, pending_nodes, sink, found),
            ):
                continue
            steps += 1
            if steps > guard:
                return found, nodes_read, True
            _kind, ident, bucket_index = self.air.next_pending_event(
                session.clock, pending_nodes, session=session
            )
            result = session.read_bucket(bucket_index)
            if not result.ok:
                continue
            pending_nodes.discard(ident)
            nodes_read += 1
            if cache is not None:
                cache[ident] = result.payload
            self._expand(result.payload, ranges, pending_nodes, sink, found)
        return found, nodes_read, False

    @staticmethod
    def range_children(
        node: AirTreeNode, ranges: Sequence[HCRange]
    ) -> Tuple[List[int], List[int]]:
        """The range sweep's pruning rule: ``(child_ids, oids)`` of the
        entries whose HC interval intersects any of ``ranges``.

        The single source of truth for which subtrees and objects a range
        sweep must read -- shared by :meth:`_expand` and the lockstep fleet
        kernel's per-query frontier precompute
        (:mod:`repro.sim.fleet_kernel`), so both prune identically.
        """
        children: List[int] = []
        oids: List[int] = []
        for entry in node.entries:
            if not _intersects_any(entry.key, ranges):
                continue
            if entry.is_leaf_entry:
                oids.append(entry.oid)
            else:
                children.append(entry.child)
        return children, oids

    def _expand(
        self,
        node: AirTreeNode,
        ranges: Sequence[HCRange],
        pending_nodes: Set[int],
        pending_objects: Set[int],
        found_hcs: Optional[List[int]] = None,
    ) -> None:
        if found_hcs is None:
            children, oids = self.range_children(node, ranges)
            pending_nodes.update(children)
            pending_objects.update(oids)
            return
        for entry in node.entries:
            if not _intersects_any(entry.key, ranges):
                continue
            if entry.is_leaf_entry:
                found_hcs.append(entry.key[0])
            else:
                pending_nodes.add(entry.child)
