"""B+-tree over Hilbert-curve values (the index structure behind HCI).

The Hilbert Curve Index broadcasts data objects in ascending HC order and
indexes them with a B+-tree whose keys are the HC values (paper Section 2.2
and [18]).  The tree is bulk-loaded bottom-up: leaves are filled left to
right with the HC-sorted objects, then each upper level packs runs of
``fanout`` children.

Every entry's ``key`` is the inclusive HC interval covered by the entry
(a single value for leaf entries), which is what the on-air search uses for
pruning.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from ..broadcast.treeair import AirTreeEntry, AirTreeNode
from ..spatial.datasets import DataObject, SpatialDataset

HCInterval = Tuple[int, int]


def bptree_fanout(packet_capacity: int, entry_size: int) -> int:
    """Entries per node.  HCI remains buildable at tiny packets by letting a
    node span more than one packet (minimum fanout of 2), which is the
    flexibility the paper contrasts with the R-tree's 32-byte limitation."""
    return max(2, packet_capacity // entry_size)


def node_interval(node: AirTreeNode) -> HCInterval:
    lo = min(entry.key[0] for entry in node.entries)
    hi = max(entry.key[1] for entry in node.entries)
    return lo, hi


def build_bptree(
    dataset: SpatialDataset, fanout: int
) -> Tuple[Dict[int, AirTreeNode], int, List[DataObject]]:
    """Bulk-load a B+-tree over the dataset's HC values.

    Returns ``(nodes, root_id, objects_in_hc_order)``.
    """
    if fanout < 2:
        raise ValueError("B+-tree fanout must be at least 2")
    ordered = dataset.objects_by_hc()
    nodes: Dict[int, AirTreeNode] = {}
    next_id = 0

    def new_node(level: int, entries: List[AirTreeEntry]) -> AirTreeNode:
        nonlocal next_id
        node = AirTreeNode(node_id=next_id, level=level, entries=entries)
        nodes[next_id] = node
        next_id += 1
        return node

    leaves: List[AirTreeNode] = []
    for at in range(0, len(ordered), fanout):
        group = ordered[at : at + fanout]
        entries = [AirTreeEntry(key=(o.hc, o.hc), oid=o.oid) for o in group]
        leaves.append(new_node(0, entries))

    level_nodes = leaves
    level = 0
    while len(level_nodes) > 1:
        level += 1
        parents: List[AirTreeNode] = []
        for at in range(0, len(level_nodes), fanout):
            group = level_nodes[at : at + fanout]
            entries = [
                AirTreeEntry(key=node_interval(child), child=child.node_id) for child in group
            ]
            parents.append(new_node(level, entries))
        level_nodes = parents

    root = level_nodes[0]
    return nodes, root.node_id, ordered
