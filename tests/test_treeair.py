"""Tests for the distributed-indexing broadcast layout shared by the baselines."""

from __future__ import annotations

import pytest

from repro.broadcast import BucketKind, ClientSession, SystemConfig
from repro.broadcast.treeair import TreeOnAir
from repro.hci.bptree import build_bptree
from repro.rtree.str_pack import build_str_rtree
from repro.spatial import uniform_dataset


@pytest.fixture(scope="module")
def tree_air():
    dataset = uniform_dataset(120, seed=6)
    config = SystemConfig()
    nodes, root_id, order = build_bptree(dataset, fanout=4)
    air = TreeOnAir(
        nodes, root_id, order, config, entry_size=config.bptree_entry_size,
        replication_levels=1, name="test-tree",
    )
    return dataset, config, air


class TestLayout:
    def test_every_object_broadcast_once(self, tree_air):
        dataset, _config, air = tree_air
        data_oids = [b.meta["oid"] for b in air.program if b.kind is BucketKind.DATA]
        assert sorted(data_oids) == [o.oid for o in dataset]

    def test_every_node_broadcast_at_least_once(self, tree_air):
        _dataset, _config, air = tree_air
        assert all(air.node_buckets[nid] for nid in air.nodes)

    def test_root_is_replicated(self, tree_air):
        _dataset, _config, air = tree_air
        root_copies = air.node_buckets[air.root_id]
        non_leaf_children = len(air.nodes[air.root_id].entries)
        assert len(root_copies) == non_leaf_children
        for bucket_idx in root_copies:
            assert air.program.buckets[bucket_idx].kind is BucketKind.CONTROL

    def test_non_replicated_nodes_appear_once(self, tree_air):
        _dataset, _config, air = tree_air
        root = air.root_id
        for nid, buckets in air.node_buckets.items():
            if nid != root:
                assert len(buckets) == 1

    def test_parent_precedes_descendants_within_segment(self, tree_air):
        _dataset, _config, air = tree_air
        for nid, node in air.nodes.items():
            if node.is_leaf or nid == air.root_id:
                continue
            start = air.program.start_of(air.node_buckets[nid][0])
            for entry in node.entries:
                if entry.child is not None:
                    child_start = air.program.start_of(air.node_buckets[entry.child][0])
                    assert child_start > start

    def test_replication_zero_broadcasts_root_once(self):
        dataset = uniform_dataset(50, seed=3)
        config = SystemConfig()
        nodes, root_id, order = build_bptree(dataset, fanout=4)
        air = TreeOnAir(nodes, root_id, order, config,
                        entry_size=config.bptree_entry_size, replication_levels=0)
        assert len(air.node_buckets[root_id]) == 1

    def test_invalid_construction(self, tree_air):
        dataset, config, air = tree_air
        with pytest.raises(ValueError):
            TreeOnAir(air.nodes, root_id=-42, objects_in_leaf_order=list(dataset),
                      config=config, entry_size=18)

    def test_describe(self, tree_air):
        _dataset, _config, air = tree_air
        info = air.describe()
        assert info["nodes"] == len(air.nodes)
        assert info["cycle_packets"] == air.program.cycle_packets


class TestClientHelpers:
    def test_next_node_occurrence_picks_earliest_copy(self, tree_air):
        _dataset, config, air = tree_air
        session = ClientSession(air.program, config, start_packet=0)
        copies = air.node_buckets[air.root_id]
        assert len(copies) >= 2
        first_start = air.program.start_of(copies[0])
        second_start = air.program.start_of(copies[1])
        bucket, start = air.next_node_occurrence(air.root_id, first_start + 1, session)
        assert start == second_start

    def test_read_node_and_object(self, tree_air):
        dataset, config, air = tree_air
        session = ClientSession(air.program, config, start_packet=0)
        root = air.read_node(session, air.root_id)
        assert root.node_id == air.root_id
        obj = air.read_object(session, dataset[0].oid)
        assert obj.oid == dataset[0].oid
        assert session.tuning_packets > 0

    def test_root_arrival_monotone(self, tree_air):
        _dataset, config, air = tree_air
        session = ClientSession(air.program, config, start_packet=0)
        a = air.next_node_occurrence(air.root_id, 0, session)[1]
        b = air.next_node_occurrence(air.root_id, a + 1, session)[1]
        assert b > a
