"""Tests for the topology partitioner (service.sharding.partition)."""

import pytest

from repro.service.sharding import (
    graph_fingerprint,
    partition_topology,
    reassemble,
)
from repro.topology import (
    balanced_tree,
    dumbbell,
    grid,
    two_campus,
)


class TestPartitionTopology:
    def test_dumbbell_cuts_at_the_trunk(self):
        g = dumbbell(4, 4)
        plan = partition_topology(g, 2)
        assert plan.k == 2
        # The only boundary link is the switch-to-switch trunk.
        assert plan.trunk_keys == {frozenset({"sw-left", "sw-right"})}
        left = next(s for s in plan.shards if "sw-left" in s)
        assert {f"l{i}" for i in range(4)} <= left

    def test_two_campus_cuts_at_the_wan(self):
        g = two_campus(fast_hosts=5, slow_hosts=5)
        plan = partition_topology(g, 2)
        assert plan.trunk_keys == {frozenset({"campusA", "campusB"})}

    def test_balanced_tree_keeps_lans_whole(self):
        g = balanced_tree(depth=3, fanout=3)
        plan = partition_topology(g, 3)
        # No host-switch edge ever becomes a trunk edge: leaves follow
        # their uplink switch.
        for key in plan.trunk_keys:
            u, v = tuple(key)
            assert not g.node(u).is_compute or g.degree(u) > 1
            assert not g.node(v).is_compute or g.degree(v) > 1

    def test_grid_generic_edge_cut(self):
        g = grid(6, 6)
        plan = partition_topology(g, 4)
        assert plan.k == 4
        sizes = sorted(len(s) for s in plan.shards)
        assert sizes[0] >= 1 and sum(sizes) == 36
        plan.validate()

    def test_single_shard_has_no_trunk(self):
        g = dumbbell(3, 3)
        plan = partition_topology(g, 1)
        assert plan.k == 1 and not plan.trunk_keys
        assert plan.shards[0] == frozenset(g.node_names())

    def test_deterministic(self):
        g = grid(5, 5)
        a = partition_topology(g, 3)
        b = partition_topology(g, 3)
        assert a.shard_of == b.shard_of
        assert a.trunk_keys == b.trunk_keys

    def test_validation_errors(self):
        g = dumbbell(2, 2)
        with pytest.raises(ValueError):
            partition_topology(g, 0)
        with pytest.raises(ValueError):
            partition_topology(g, g.num_nodes + 1)

    def test_disconnected_graph_rejected(self):
        from repro.topology import TopologyGraph
        g = TopologyGraph()
        g.add_compute("a")
        g.add_compute("b")
        with pytest.raises(ValueError, match="connected"):
            partition_topology(g, 2)

    def test_subgraph_is_a_copy(self):
        g = dumbbell(3, 3)
        plan = partition_topology(g, 2)
        sub = plan.subgraph(0)
        name = sub.compute_nodes()[0].name
        sub.node(name).load_average = 99.0
        assert g.node(name).load_average != 99.0


class TestReassemble:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_bit_identical_roundtrip(self, k):
        g = two_campus(fast_hosts=6, slow_hosts=6)
        # Perturb availabilities so the fingerprint is load-bearing.
        for i, link in enumerate(g.links()):
            link.available_fwd = link.maxbw * (0.3 + 0.1 * (i % 5))
            link.available_rev = link.maxbw * (0.9 - 0.1 * (i % 4))
        plan = partition_topology(g, k)
        assert graph_fingerprint(reassemble(plan)) == graph_fingerprint(g)

    def test_fingerprint_detects_capacity_drift(self):
        g = dumbbell(3, 3)
        fp = graph_fingerprint(g)
        h = dumbbell(3, 3)
        next(iter(h.links())).available_fwd *= 0.5
        assert graph_fingerprint(h) != fp

