"""Tests for the topology partitioner (service.sharding.partition)."""

import numpy as np
import pytest

from repro.service.sharding import (
    ShardPlan,
    graph_fingerprint,
    partition_topology,
    reassemble,
)
from repro.topology import (
    TopologyGraph,
    balanced_tree,
    dumbbell,
    grid,
    random_tree,
    torus,
    two_campus,
)
from tests.core.cyclic_graphs import random_cyclic
from tests.oracles import reference_partition


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
        g = TopologyGraph()
        g.add_compute("a")
        g.add_compute("b")
        for k in (1, 2):
            with pytest.raises(
                ValueError, match="partitioning requires a connected topology"
            ):
                partition_topology(g, k)

    def test_subgraph_is_a_copy(self):
        g = dumbbell(3, 3)
        plan = partition_topology(g, 2)
        sub = plan.subgraph(0)
        name = sub.compute_nodes()[0].name
        sub.node(name).load_average = 99.0
        assert g.node(name).load_average != 99.0


def _assert_same_plan(graph, k):
    got, want = partition_topology(graph, k), reference_partition(graph, k)
    assert got.shard_of == want.shard_of
    assert got.trunk_keys == want.trunk_keys
    assert got.shards == want.shards


class TestSamePlanAsReference:
    """The indexed cut and the copy-free validation return the plans of
    the full-scan partitioner they replaced, frozen in
    ``tests/oracles.py::reference_partition``."""

    @pytest.mark.parametrize("graph", [
        dumbbell(4, 4),
        two_campus(fast_hosts=6, slow_hosts=6),
        balanced_tree(depth=3, fanout=3),
        grid(6, 6),
        torus(6, 6),
        random_cyclic(3, 14, 8, 4),
        random_cyclic(11, 20, 6, 7),
    ], ids=["dumbbell", "two_campus", "balanced_tree", "grid", "torus",
            "random_cyclic-3", "random_cyclic-11"])
    def test_named_shapes(self, graph):
        for k in range(1, min(12, graph.num_nodes) + 1):
            _assert_same_plan(graph, k)

    @pytest.mark.parametrize("seed", range(32))
    def test_random_trees(self, seed):
        rng = np.random.default_rng(seed)
        hosts = int(rng.integers(4, 300))
        graph = random_tree(hosts, int(rng.integers(1, hosts // 2 + 2)), rng)
        for k in range(1, min(12, graph.num_nodes) + 1):
            _assert_same_plan(graph, k)

    def test_a_path_cut_everywhere(self):
        graph = grid(1, 40)
        for k in range(1, 41):
            _assert_same_plan(graph, k)

    def test_two_thousand_hosts_sixteen_ways(self):
        graph = random_tree(2000, 400, np.random.default_rng(7))
        _assert_same_plan(graph, 16)


def _ring_plan(**overrides) -> ShardPlan:
    """A valid two-shard plan of the ring a-b-c-d-a, cut between b|c and
    d|a, with ``overrides`` applied to its fields."""
    g = TopologyGraph()
    for name in "abcd":
        g.add_compute(name)
    for u, v in ("ab", "bc", "cd", "da"):
        g.add_link(u, v, 1e8)
    fields = dict(
        graph=g,
        shard_of={"a": 0, "b": 0, "c": 1, "d": 1},
        shards=(frozenset("ab"), frozenset("cd")),
        trunk_keys=frozenset({frozenset("bc"), frozenset("da")}),
    )
    fields.update(overrides)
    return ShardPlan(**fields)


class TestValidateRejects:
    """One hand-built plan per broken invariant; ``validate`` raises
    ``ValueError`` (not ``assert``, so ``python -O`` keeps the checks)."""

    def test_the_ring_plan_is_valid(self):
        _ring_plan().validate()

    @pytest.mark.parametrize("overrides, message", [
        (dict(  # a-b-c-d-a cut so that shard 0 holds a and c only
            shard_of={"a": 0, "c": 0, "b": 1, "d": 1},
            shards=(frozenset("ac"), frozenset("bd")),
            trunk_keys=frozenset(frozenset(p) for p in ("ab", "bc", "cd",
                                                          "da")),
        ), "shard 0 is disconnected"),
        (dict(
            shard_of={"a": 0, "b": 0, "c": 0, "d": 0},
            shards=(frozenset("abcd"), frozenset()),
            trunk_keys=frozenset(),
        ), "shard 1 is empty"),
        (dict(shards=(frozenset("ab"), frozenset("c"))),
         "shards must cover every node exactly once"),
        (dict(shards=(frozenset("abc"), frozenset("cd"))),
         "shards must cover every node exactly once"),
        (dict(shard_of={"a": 0, "b": 0, "c": 1}),
         "shard_of must cover every node"),
        (dict(shard_of={"a": 0, "b": 1, "c": 1, "d": 1}),
         "'b' maps to shard 1 but is not a member"),
        (dict(trunk_keys=frozenset(
            frozenset(p) for p in ("ab", "bc", "da"))),
         r"link \['a', 'b'\] must be intra-shard XOR trunk"),
        (dict(trunk_keys=frozenset({frozenset("bc")})),
         r"link \['a', 'd'\] must be intra-shard XOR trunk"),
    ], ids=["disconnected", "empty", "node-in-no-shard",
            "node-in-two-shards", "shard_of-short",
            "shard_of-disagrees", "intra-link-as-trunk",
            "crossing-link-not-trunk"])
    def test_rejects(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            _ring_plan(**overrides).validate()


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

