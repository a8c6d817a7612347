"""Tests for static routing and routed views on cyclic topologies."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.topology import (
    RoutedView,
    TopologyGraph,
    fat_tree_pod,
    grid,
    random_tree,
    star,
    torus,
)
from repro.units import Mbps

from ..oracles import bfs_path, routing_table_route


@pytest.fixture
def ring():
    """4-switch ring with one host per switch (cyclic)."""
    g = TopologyGraph()
    for i in range(4):
        g.add_network(f"s{i}")
    for i in range(4):
        g.add_link(f"s{i}", f"s{(i + 1) % 4}", 100 * Mbps, latency=1e-4)
    for i in range(4):
        g.add_compute(f"h{i}")
        g.add_link(f"h{i}", f"s{i}", 100 * Mbps, latency=1e-4)
    return g


class TestRoutingTable:
    """The graph's fixed routes: :meth:`TopologyGraph.path` is the table."""

    def test_route_on_tree_matches_bfs_path(self):
        g = star(5)
        assert g.path("h0", "h3") == ["h0", "switch", "h3"]

    def test_route_to_self(self, ring):
        assert ring.path("h0", "h0") == ["h0"]

    def test_route_is_fixed_single_path(self, ring):
        """Static routing: repeated queries return the identical path."""
        paths = {tuple(ring.path("h0", "h2")) for _ in range(10)}
        assert len(paths) == 1

    def test_route_length_is_shortest(self, ring):
        # h0 to h1 is adjacent switches: h0-s0-s1-h1
        assert len(ring.path("h0", "h1")) == 4

    def test_unknown_node_raises(self, ring):
        with pytest.raises(KeyError):
            ring.path("h0", "ghost")
        with pytest.raises(KeyError):
            ring.path("ghost", "h0")

    def test_disconnected_returns_none(self, ring):
        ring.add_compute("lone")
        assert not ring.is_acyclic()
        assert ring.path("h0", "lone") is None
        assert ring.path("lone", "h0") is None
        assert ring.path_available_bandwidth("h0", "lone") == 0.0
        assert ring.path_latency("h0", "lone") == float("inf")

    def test_bottleneck_bandwidth(self, ring):
        path = ring.path("h0", "h2")
        # Throttle one link on the chosen path.
        a, b = path[1], path[2]
        ring.link(a, b).set_available(7 * Mbps)
        assert ring.path_available_bandwidth("h0", "h2") == 7 * Mbps

    def test_networkx_cross_check_shortest_lengths(self):
        """Route lengths match networkx shortest paths on a fat tree."""
        nx = pytest.importorskip("networkx")
        g = fat_tree_pod(num_pods=4, hosts_per_edge=2)
        G = nx.Graph((l.u, l.v) for l in g.links())
        hosts = [n.name for n in g.compute_nodes()]
        for i, a in enumerate(hosts):
            for b in hosts[i + 1:]:
                ours = len(g.path(a, b)) - 1
                theirs = nx.shortest_path_length(G, a, b)
                assert ours == theirs, (a, b)

    def test_routes_on_random_trees_match_unique_path(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = random_tree(8, 4, rng)
            hosts = [n.name for n in g.compute_nodes()]
            for a in hosts[:4]:
                for b in hosts[4:]:
                    assert g.path(a, b) == bfs_path(g, a, b)

    def test_each_hop_is_the_smallest_named_neighbour_closer_to_dst(self):
        g = torus(4, 4)
        for a, b in itertools.permutations(g.node_names(), 2):
            path = g.path(a, b)
            for i, here in enumerate(path[:-1]):
                left = len(path) - 1 - i  # hops from ``here`` to ``b``
                closer = [
                    n for n in g.neighbors(here)
                    if len(bfs_path(g, n, b)) - 1 == left - 1
                ]
                assert path[i + 1] == min(closer), (a, b, here)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(
        st.builds(torus, st.integers(3, 5), st.integers(3, 5)),
        st.builds(grid, st.integers(2, 5), st.integers(2, 5)),
        st.builds(fat_tree_pod, st.integers(3, 6), st.integers(1, 3)),
    ))
    def test_routes_equal_the_routing_table_reference(self, g):
        for a, b in itertools.product(g.node_names(), repeat=2):
            assert g.path(a, b) == routing_table_route(g, a, b), (a, b)

    def test_routes_are_per_ordered_pair_not_symmetric(self):
        """A route need not be its reverse pair's route reversed: the
        rule is per ordered pair, and the ledger claims each direction's
        channels on their own."""
        g = TopologyGraph()
        for name in ("a", "b", "m1", "z1", "m2", "z2"):
            g.add_compute(name)
        for u, v in (("a", "m1"), ("m1", "z1"), ("z1", "b"),
                     ("b", "m2"), ("m2", "z2"), ("z2", "a")):
            g.add_link(u, v, 100 * Mbps)
        assert g.path("a", "b") == ["a", "m1", "z1", "b"]
        assert g.path("b", "a") == ["b", "m2", "z2", "a"]
        assert g.path("a", "b") == routing_table_route(g, "a", "b")
        assert g.path("b", "a") == routing_table_route(g, "b", "a")


class TestRoutedView:
    def test_overlay_on_tree_is_whole_used_subtree(self):
        g = star(4)
        view = RoutedView(g)
        overlay = view.overlay()
        assert overlay.num_nodes == 5
        assert overlay.num_links == 4
        assert overlay.is_acyclic()

    def test_overlay_on_ring_is_acyclic_for_subset(self, ring):
        # Two adjacent hosts only use the s0-s1 arc; overlay is a tree.
        view = RoutedView(ring, compute_nodes=["h0", "h1"])
        overlay = view.overlay()
        assert overlay.is_acyclic()
        assert overlay.is_connected()

    def test_overlay_excludes_unused_links(self, ring):
        view = RoutedView(ring, compute_nodes=["h0", "h1"])
        overlay = view.overlay()
        assert not overlay.has_node("h3") or overlay.degree("h3") == 0

    def test_pair_matrix_complete_and_positive(self, ring):
        view = RoutedView(ring)
        mat = view.pair_bandwidth_matrix()
        hosts = [n.name for n in ring.compute_nodes()]
        assert len(mat) == len(hosts) * (len(hosts) - 1)
        assert all(v > 0 for v in mat.values())

    def test_pair_matrix_reflects_congestion(self, ring):
        path = ring.path("h0", "h1")
        ring.link(path[1], path[2]).set_available(3 * Mbps)
        view = RoutedView(ring)
        mat = view.pair_bandwidth_matrix()
        assert mat[("h0", "h1")] == 3 * Mbps
