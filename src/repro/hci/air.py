"""The Hilbert Curve Index (HCI) baseline on air.

HCI broadcasts objects in ascending HC order and indexes them with a
B+-tree over HC values (paper Section 2.2, [18]), organised on the channel
with the distributed indexing scheme.  Queries are mapped to HC intervals
and answered with the shared pending-set search, :meth:`TreeOnAir.sweep`:

* a **window query** sweeps under :meth:`HciAirIndex.window_rule`: the
  conservative HC-range cover of the window (the same target segments DSI
  uses), read through the entries whose HC interval meets it;
* a **kNN query** runs in two phases, following the HCI design: first the
  objects nearest to the query point *along the curve* are located through
  the tree (a sweep that records leaf HC values and reads no object), which
  yields a provably sufficient search radius; then a window sweep over the
  bounding box of that circle retrieves the candidates and the k nearest
  by exact distance are returned.

Both phases must follow the broadcast order of the tree nodes, so a kNN
query typically spans more than one broadcast cycle -- the effect the
paper's Figure 11 shows as HCI's large access latency.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..broadcast.client import ClientSession
from ..broadcast.config import SystemConfig
from ..broadcast.treeair import (
    AirTreeEntry,
    AirTreeNode,
    TreeAirIndex,
    TreeOnAir,
    TreeQueryResult,
    TreeRule,
)
from ..spatial.datasets import SpatialDataset
from ..spatial.geometry import Point, Rect, circle_bounding_rect
from ..spatial.hilbert import WINDOW_MAX_DEPTH, WINDOW_MAX_RANGES, HCRange
from .bptree import bptree_fanout, build_bptree

HCInterval = Tuple[int, int]


def _intersects_any(interval: HCInterval, ranges: Sequence[HCRange]) -> bool:
    lo, hi = interval
    return any(not (hi < rlo or lo > rhi) for rlo, rhi in ranges)


class HciAirIndex(TreeAirIndex):
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

    def window_rule(self, window: Rect) -> Optional[TreeRule]:
        """Follow the entries whose HC interval meets the window's
        conservative HC-range cover; ``None`` when the cover is empty (the
        window misses the data space), so the query reads nothing past its
        probe."""
        cover = self.curve.ranges_for_rect(
            window, max_ranges=WINDOW_MAX_RANGES, max_depth=WINDOW_MAX_DEPTH
        )
        if not cover:
            return None
        return lambda node: [e for e in node.entries if _intersects_any(e.key, cover)]

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
        nodes_read = 0
        capped = False

        # Phase 1: locate the objects nearest to q along the curve and derive
        # a provably sufficient search radius from their (cell-centre)
        # positions.  The HC window is widened until it holds >= k objects.
        # Its sweep reads no object: the rule records the HC value of every
        # leaf entry in the window and descends only through index entries.
        hc_q = self.curve.value_of(q)
        expected_gap = max(1, self.curve.max_value // max(1, len(self.dataset)))
        width = max(1, 2 * k * expected_gap)
        candidate_hcs: List[int] = []
        for _attempt in range(8):
            lo = max(0, hc_q - width)
            hi = min(self.curve.max_value - 1, hc_q + width)
            span = [(lo, hi)]
            candidate_hcs = []

            def leaf_hcs(node: AirTreeNode) -> List[AirTreeEntry]:
                hits = [e for e in node.entries if _intersects_any(e.key, span)]
                candidate_hcs.extend(e.key[0] for e in hits if e.is_leaf_entry)
                return [e for e in hits if not e.is_leaf_entry]

            _, reads, sweep_capped = self.air.sweep(session, leaf_hcs, state)
            nodes_read += reads
            capped |= sweep_capped
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

        # Phase 2: a window sweep over the search circle's bounding box.
        retrieved, reads, sweep_capped = self.air.sweep(
            session, self.window_rule(circle_bounding_rect(q, radius)), state
        )
        ranked = sorted(retrieved, key=lambda o: (o.distance_to(q), o.oid))[:k]
        return TreeQueryResult(
            objects=ranked,
            metrics=session.metrics(),
            nodes_read=nodes_read + reads,
            objects_read=len(retrieved),
            iterations_capped=capped or sweep_capped,
        )
