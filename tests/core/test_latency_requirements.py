"""Tests for latency-bounded selection and node requirements (§3.4)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    NoFeasibleSelection,
    NodeRequirements,
    max_pairwise_latency,
    select_balanced,
    select_with_latency_bound,
)
from repro.topology import Node, dumbbell, linear_lan_chain, star
from repro.units import MB

from .cyclic_graphs import asymmetric_ring, random_cyclic


def wan_dumbbell(trunk_latency=0.020):
    """Two LANs (0.1 ms hops) joined by a high-latency WAN trunk."""
    g = dumbbell(4, 4, latency=1e-4)
    g.link("sw-left", "sw-right").latency = trunk_latency
    return g


class TestMaxPairwiseLatency:
    def test_singleton_zero(self):
        assert max_pairwise_latency(star(3), ["h0"]) == 0.0

    def test_lan_pair(self):
        g = star(3, latency=1e-4)
        assert max_pairwise_latency(g, ["h0", "h1"]) == pytest.approx(2e-4)

    def test_diameter_is_worst_pair(self):
        g = wan_dumbbell()
        lat = max_pairwise_latency(g, ["l0", "l1", "r0"])
        assert lat == pytest.approx(2e-4 + 0.020)

    def test_disconnected_inf(self):
        g = dumbbell(2, 2)
        g.remove_link("sw-left", "sw-right")
        assert max_pairwise_latency(g, ["l0", "r0"]) == float("inf")

    def test_reverse_route_counts(self):
        # Only path(b, a) crosses the 0.5 s link.
        g = asymmetric_ring(slow_latency=0.5)
        assert max_pairwise_latency(g, ["a", "b"]) == pytest.approx(0.502)
        assert max_pairwise_latency(g, ["b", "a"]) == pytest.approx(0.502)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), chords=st.integers(1, 4),
           size=st.integers(2, 4))
    def test_order_of_names_never_matters(self, seed, chords, size):
        g = random_cyclic(seed, hosts=6, chords=chords)
        names = [n.name for n in g.compute_nodes()][:size]
        want = max_pairwise_latency(g, names)
        for order in itertools.permutations(names):
            assert max_pairwise_latency(g, order) == want


class TestLatencyBound:
    def test_unconstrained_choice_kept_when_feasible(self):
        g = star(5, latency=1e-4)
        sel = select_with_latency_bound(g, 3, max_latency_s=1.0)
        assert sel.algorithm == "latency-bound"
        assert sel.extras["max_latency_s"] <= 1.0

    def test_bound_forces_one_lan(self):
        g = wan_dumbbell()
        # Load the left side so the unconstrained choice wants to span.
        for i in range(2, 4):
            g.node(f"l{i}").load_average = 1.0
        unconstrained = select_balanced(g, 4)
        sides = {n[0] for n in unconstrained.nodes}
        assert sides == {"l", "r"}  # spans the WAN link
        sel = select_with_latency_bound(g, 4, max_latency_s=1e-3)
        sides = {n[0] for n in sel.nodes}
        assert len(sides) == 1  # forced onto one LAN
        assert max_pairwise_latency(g, sel.nodes) <= 1e-3

    def test_picks_best_feasible_ball(self):
        g = wan_dumbbell()
        # Right LAN is idle; left LAN is loaded: under the bound the right
        # LAN must win.
        for i in range(4):
            g.node(f"l{i}").load_average = 2.0
        sel = select_with_latency_bound(g, 4, max_latency_s=1e-3)
        assert all(n.startswith("r") for n in sel.nodes)

    def test_infeasible_bound(self):
        g = star(4, latency=1e-3)
        with pytest.raises(NoFeasibleSelection):
            select_with_latency_bound(g, 3, max_latency_s=1e-6)

    def test_bound_zero_single_node_semantics(self):
        g = star(4)
        with pytest.raises(NoFeasibleSelection):
            select_with_latency_bound(g, 2, max_latency_s=0.0)
        sel = select_with_latency_bound(g, 1, max_latency_s=0.0)
        assert sel.size == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            select_with_latency_bound(star(3), 0, max_latency_s=1.0)
        with pytest.raises(ValueError):
            select_with_latency_bound(star(3), 2, max_latency_s=-1.0)

    def test_three_lan_chain(self):
        """On a chain of LANs, a tight bound never mixes distant LANs."""
        g = linear_lan_chain([3, 3, 3], latency=5e-4)
        sel = select_with_latency_bound(g, 3, max_latency_s=2.1e-3)
        lans = {n.split("-")[0] for n in sel.nodes}
        assert len(lans) == 1

    def test_eligible_composes_with_bound(self):
        g = wan_dumbbell()
        sel = select_with_latency_bound(
            g, 3, max_latency_s=1e-3,
            eligible=lambda n: n.name != "r0",
        )
        assert "r0" not in sel.nodes
        assert max_pairwise_latency(g, sel.nodes) <= 1e-3


class TestNodeRequirements:
    def node(self, **attrs):
        load = attrs.pop("load", 0.0)
        return Node("x", load_average=load, attrs=attrs)

    def test_arch(self):
        reqs = NodeRequirements(arch="alpha")
        assert reqs.admits(self.node(arch="alpha"))
        assert not reqs.admits(self.node(arch="x86"))
        assert not reqs.admits(self.node())

    def test_memory_and_disk(self):
        reqs = NodeRequirements(
            min_memory_bytes=512 * MB, min_free_disk_bytes=100 * MB
        )
        good = self.node(memory_bytes=1024 * MB, free_disk_bytes=200 * MB)
        small = self.node(memory_bytes=256 * MB, free_disk_bytes=200 * MB)
        full = self.node(memory_bytes=1024 * MB, free_disk_bytes=10 * MB)
        assert reqs.admits(good)
        assert not reqs.admits(small)
        assert not reqs.admits(full)

    def test_missing_resource_attr_fails_closed(self):
        reqs = NodeRequirements(min_memory_bytes=1.0)
        assert not reqs.admits(self.node())

    def test_allowed_and_forbidden(self):
        assert NodeRequirements(allowed_nodes=["x"]).admits(self.node())
        assert not NodeRequirements(allowed_nodes=["y"]).admits(self.node())
        assert not NodeRequirements(forbidden_nodes=["x"]).admits(self.node())

    def test_max_load(self):
        reqs = NodeRequirements(max_load_average=1.0)
        assert reqs.admits(self.node(load=0.5))
        assert not reqs.admits(self.node(load=2.0))

    def test_custom_attrs(self):
        reqs = NodeRequirements(attrs={"gpu": True})
        assert reqs.admits(self.node(gpu=True))
        assert not reqs.admits(self.node(gpu=False))

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeRequirements(min_memory_bytes=-1)
        with pytest.raises(ValueError):
            NodeRequirements(max_load_average=-1)

    def test_predicate_composition(self):
        reqs = NodeRequirements(arch="alpha")
        pred = reqs.predicate(extra=lambda n: n.name != "x")
        assert not pred(self.node(arch="alpha"))  # name is "x"

    def test_and_composition(self):
        both = NodeRequirements(arch="alpha") & NodeRequirements(
            max_load_average=1.0
        )
        assert both(Node("y", load_average=0.1, attrs={"arch": "alpha"}))
        assert not both(Node("y", load_average=5.0, attrs={"arch": "alpha"}))

    def test_drives_selection(self):
        g = star(6)
        for name in ("h0", "h3"):
            g.node(name).attrs["memory_bytes"] = 1024 * MB
        reqs = NodeRequirements(min_memory_bytes=512 * MB)
        sel = select_balanced(g, 2, eligible=reqs.predicate())
        assert sorted(sel.nodes) == ["h0", "h3"]
