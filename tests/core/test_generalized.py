"""Tests for the §3.3/§3.4 generalized selection procedures."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    NoFeasibleSelection,
    min_pairwise_bandwidth,
    select_client_server,
    select_routed,
    select_variable_nodes,
    select_with_bandwidth_floor,
    select_with_cpu_floor,
)
from repro.topology import (
    dumbbell,
    fat_tree_pod,
    random_tree,
    star,
)
from repro.units import Mbps

from .cyclic_graphs import asymmetric_ring, random_cyclic


class TestBandwidthFloor:
    def test_floor_excludes_congested_component(self):
        g = dumbbell(4, 4)
        # Left access links congested below the floor; left CPUs idle.
        for i in range(4):
            g.link(f"l{i}", "sw-left").set_available(20 * Mbps)
            g.node(f"r{i}").load_average = 1.0
        sel = select_with_bandwidth_floor(g, 4, floor_bps=50 * Mbps)
        assert sorted(sel.nodes) == ["r0", "r1", "r2", "r3"]
        assert min_pairwise_bandwidth(g, sel.nodes) >= 50 * Mbps

    def test_maximizes_cpu_under_constraint(self):
        g = star(5)
        g.node("h0").load_average = 0.0
        for n in ("h1", "h2", "h3", "h4"):
            g.node(n).load_average = 2.0
        sel = select_with_bandwidth_floor(g, 2, floor_bps=10 * Mbps)
        assert "h0" in sel.nodes
        assert sel.objective == pytest.approx(1.0 / 3.0)  # worst of pair

    def test_infeasible_floor(self):
        g = star(4)
        for l in g.links():
            l.set_available(1 * Mbps)
        with pytest.raises(NoFeasibleSelection):
            select_with_bandwidth_floor(g, 2, floor_bps=50 * Mbps)

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            select_with_bandwidth_floor(star(3), 2, floor_bps=-1)

    def test_zero_floor_equals_max_compute(self):
        g = star(5)
        g.node("h4").load_average = 3.0
        sel = select_with_bandwidth_floor(g, 4, floor_bps=0.0)
        assert "h4" not in sel.nodes


class TestCpuFloor:
    def test_floor_excludes_loaded_nodes(self):
        g = star(5)
        g.node("h0").load_average = 4.0   # cpu .2 < floor
        sel = select_with_cpu_floor(g, 3, floor=0.5)
        assert "h0" not in sel.nodes

    def test_maximizes_bandwidth_among_eligible(self):
        g = dumbbell(3, 3)
        g.link("sw-left", "sw-right").set_available(5 * Mbps)
        # Only 2 nodes per side pass the floor; m=3 must cross the trunk...
        g.node("l2").load_average = 9.0
        g.node("r2").load_average = 9.0
        sel = select_with_cpu_floor(g, 3, floor=0.5)
        assert "l2" not in sel.nodes and "r2" not in sel.nodes
        assert sel.objective == 5 * Mbps  # forced across the trunk

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            select_with_cpu_floor(star(3), 2, floor=1.5)

    def test_infeasible_when_all_below_floor(self):
        g = star(3)
        for n in g.compute_nodes():
            n.load_average = 10.0
        with pytest.raises(NoFeasibleSelection):
            select_with_cpu_floor(g, 2, floor=0.9)


class TestRouted:
    def test_acyclic_overlay_falls_through_to_balanced(self):
        g = star(5)
        sel = select_routed(g, 3)
        assert sel.algorithm == "routed-balanced"
        assert sel.size == 3

    def test_cyclic_topology_pairwise_greedy(self):
        g = fat_tree_pod(num_pods=4, hosts_per_edge=2)
        sel = select_routed(g, 4)
        assert sel.size == 4
        assert sel.algorithm.startswith("routed-pairwise")

    def test_avoids_congested_pod(self):
        g = fat_tree_pod(num_pods=4, hosts_per_edge=2)
        # Congest pod 0's uplink so its hosts have poor paths out.
        g.link("edge0", "core0").set_available(1 * Mbps)
        sel = select_routed(g, 4, objective="bandwidth")
        assert not any(n.startswith("p0") for n in sel.nodes)

    def test_compute_objective_on_cyclic(self):
        g = fat_tree_pod(num_pods=4, hosts_per_edge=2)
        g.node("p1h0").load_average = 9.0
        sel = select_routed(g, 6, objective="compute")
        assert "p1h0" not in sel.nodes

    def test_single_node(self):
        g = fat_tree_pod(num_pods=3, hosts_per_edge=1)
        g.node("p0h0").load_average = 2.0
        sel = select_routed(g, 1)
        assert sel.size == 1
        assert sel.nodes[0] != "p0h0"

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            select_routed(star(3), 2, objective="nope")

    def test_infeasible(self):
        with pytest.raises(NoFeasibleSelection):
            select_routed(star(2), 5)

    def test_matches_tree_algorithms_on_trees(self):
        """On acyclic inputs the routed path must agree with Figure 2."""
        from repro.core import select_max_bandwidth
        rng = np.random.default_rng(11)
        for _ in range(5):
            g = random_tree(6, 3, rng)
            for l in g.links():
                l.set_available(float(rng.uniform(1, 100)) * Mbps)
            routed = select_routed(g, 3, objective="bandwidth")
            tree = select_max_bandwidth(g, 3)
            assert routed.objective == pytest.approx(tree.objective)

    def test_reverse_route_bounds_the_pair(self):
        # Only path(b, a) crosses the 10 Mbps link: the overlay holds
        # both directions' routes, so the pair reports that link.
        g = asymmetric_ring(slow_bps=10 * Mbps)
        sel = select_routed(g, 2)
        assert sel.min_bw_bps == 10 * Mbps
        assert sel.min_bw_bps == min_pairwise_bandwidth(g, sel.nodes)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        chords=st.integers(1, 4),
        m=st.integers(2, 4),
        objective=st.sampled_from(["balanced", "bandwidth", "compute"]),
    )
    def test_min_bw_is_the_pairwise_minimum_on_cyclic_graphs(
        self, seed, chords, m, objective
    ):
        g = random_cyclic(seed, chords=chords)
        sel = select_routed(g, m, objective=objective)
        assert sel.min_bw_bps == min_pairwise_bandwidth(g, sel.nodes)
        # Two eligible hosts keep the overlay to their two routes, so a
        # missed reverse route is what would leave it acyclic.
        for pair in itertools.combinations(g.compute_nodes(), 2):
            names = {n.name for n in pair}
            sel = select_routed(g, 2, objective=objective,
                                eligible=lambda n: n.name in names)
            assert sel.min_bw_bps == min_pairwise_bandwidth(g, sel.nodes)


class TestClientServer:
    @pytest.fixture
    def g(self):
        g = dumbbell(4, 4)
        g.node("l0").attrs["arch"] = "alpha"
        g.node("r0").attrs["arch"] = "alpha"
        return g

    def test_server_gets_max_cpu_node(self, g):
        for n in g.compute_nodes():
            n.load_average = 1.0
        g.node("r2").load_average = 0.0
        sel = select_client_server(g, num_clients=3)
        assert sel.extras["servers"] == ["r2"]

    def test_clients_maximize_server_to_client_bw(self, g):
        # Server ends up at l0 (all idle, name tie-break); congest the trunk
        # so the right-side clients are poor choices.
        g.link("sw-left", "sw-right").set_available(2 * Mbps)
        sel = select_client_server(g, num_clients=3)
        assert sel.extras["servers"] == ["l0"]
        assert sel.extras["clients"] == ["l1", "l2", "l3"]

    def test_only_server_to_client_direction_scored(self):
        """Reverse-direction congestion must not matter (paper §3.4)."""
        g = star(4)
        # Congest h1 -> switch (client->server direction only).
        g.link("h1", "switch").set_available(1 * Mbps, direction="switch")
        sel = select_client_server(g, num_clients=2)
        assert sel.extras["servers"] == ["h0"]
        assert "h1" in sel.extras["clients"]  # unaffected: h0->h1 is clean

    def test_server_constraint(self, g):
        sel = select_client_server(
            g, num_clients=2,
            server_eligible=lambda n: n.attrs.get("arch") == "alpha",
        )
        assert sel.extras["servers"][0] in ("l0", "r0")

    def test_server_not_reused_as_client(self, g):
        sel = select_client_server(g, num_clients=7)
        assert sel.extras["servers"][0] not in sel.extras["clients"]

    def test_infeasible_clients(self, g):
        with pytest.raises(NoFeasibleSelection):
            select_client_server(g, num_clients=8)  # 8 hosts, 1 is server

    def test_validation(self, g):
        with pytest.raises(ValueError):
            select_client_server(g, num_clients=0)

    def test_unreachable_client_raises(self):
        g = dumbbell(1, 2)
        g.remove_link("sw-left", "sw-right")
        g.node("l0").load_average = 0.0
        for n in ("r0", "r1"):
            g.node(n).load_average = 1.0
        with pytest.raises(NoFeasibleSelection):
            select_client_server(g, num_clients=2)


class TestVariableNodes:
    def test_prefers_more_nodes_when_clean(self):
        g = star(8)
        sel = select_variable_nodes(
            g, range(1, 9), speedup=lambda m: m / (1 + 0.01 * m)
        )
        assert sel.size == 8

    def test_stops_growing_into_loaded_nodes(self):
        g = star(8)
        for i in range(4, 8):
            g.node(f"h{i}").load_average = 9.0   # cpu .1
        sel = select_variable_nodes(g, range(1, 9), speedup=lambda m: float(m))
        # 4 clean nodes give rate 4*1.0=4; 5th node drops rate to 5*.1=.5.
        assert sel.size == 4

    def test_estimated_rate_exposed(self):
        sel = select_variable_nodes(star(4), [2, 3], speedup=lambda m: float(m))
        assert sel.extras["estimated_rate"] == pytest.approx(3.0)

    def test_skips_infeasible_sizes(self):
        sel = select_variable_nodes(star(3), [2, 9], speedup=lambda m: float(m))
        assert sel.size == 2

    def test_empty_range(self):
        with pytest.raises(ValueError):
            select_variable_nodes(star(3), [], speedup=lambda m: 1.0)

    def test_all_infeasible(self):
        with pytest.raises(NoFeasibleSelection):
            select_variable_nodes(star(2), [5, 6], speedup=lambda m: 1.0)
