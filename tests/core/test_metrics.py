"""Tests for resource metrics and objective evaluators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    References,
    link_bandwidth_fraction,
    min_cpu_fraction,
    min_pairwise_bandwidth,
    min_pairwise_bandwidth_fraction,
    minresource,
    node_compute_fraction,
)
from repro.core.metrics import _pairwise_minima
from repro.topology import (
    Link, Node, TopologyGraph, dumbbell, grid, random_tree, star,
)
from repro.units import Mbps

from ..oracles import pairwise_minima_by_paths, routing_table_route


class TestReferences:
    def test_defaults_are_homogeneous(self):
        refs = References()
        assert refs.node_capacity is None
        assert refs.link_bandwidth is None

    def test_priority_validation(self):
        with pytest.raises(ValueError):
            References(compute_priority=0)
        with pytest.raises(ValueError):
            References(comm_priority=-1)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            References(node_capacity=0)
        with pytest.raises(ValueError):
            References(link_bandwidth=-5)

    def test_priority_scaling_example_from_paper(self):
        # §3.3: computation prioritized by 2 -> 50% CPU == 25% comm.
        refs = References(compute_priority=2.0)
        assert refs.scale_cpu(0.5) == pytest.approx(0.25)
        assert refs.scale_bw(0.25) == pytest.approx(0.25)


class TestNodeComputeFraction:
    def test_homogeneous_is_cpu(self):
        n = Node("x", load_average=1.0)
        assert node_compute_fraction(n) == 0.5

    def test_heterogeneous_scales_by_reference(self):
        # A 2x-capacity node at 50% availability == 1.0 of the reference.
        refs = References(node_capacity=1.0)
        n = Node("x", load_average=1.0, compute_capacity=2.0)
        assert node_compute_fraction(n, refs) == pytest.approx(1.0)

    def test_slow_node_penalized(self):
        refs = References(node_capacity=2.0)
        n = Node("x", load_average=0.0, compute_capacity=1.0)
        assert node_compute_fraction(n, refs) == pytest.approx(0.5)


class TestLinkBandwidthFraction:
    def test_homogeneous_is_bwfactor(self):
        l = Link("a", "b", maxbw=100 * Mbps, available_fwd=25 * Mbps)
        assert link_bandwidth_fraction(l) == pytest.approx(0.25)

    def test_reference_link_example_from_paper(self):
        # §3.3: with a 100 Mbps reference, 50% of a 155 Mbps ATM link
        # (77.5 Mbps available) counts as 0.775, not 0.5.
        refs = References(link_bandwidth=100 * Mbps)
        atm = Link("a", "b", maxbw=155 * Mbps, available_fwd=77.5 * Mbps)
        assert link_bandwidth_fraction(atm, refs) == pytest.approx(0.775)
        assert link_bandwidth_fraction(atm) == pytest.approx(0.5)


class TestSetObjectives:
    @pytest.fixture
    def g(self):
        g = star(4)
        g.node("h0").load_average = 0.0
        g.node("h1").load_average = 1.0
        g.node("h2").load_average = 3.0
        g.link("h1", "switch").set_available(20 * Mbps)
        return g

    def test_min_cpu_is_most_loaded_node(self, g):
        assert min_cpu_fraction(g, ["h0", "h1", "h2"]) == pytest.approx(0.25)

    def test_min_cpu_empty_set_is_inf(self, g):
        assert min_cpu_fraction(g, []) == float("inf")

    def test_min_pairwise_bandwidth_is_bottleneck_path(self, g):
        assert min_pairwise_bandwidth(g, ["h0", "h1"]) == 20 * Mbps
        assert min_pairwise_bandwidth(g, ["h0", "h3"]) == 100 * Mbps

    def test_min_pairwise_bandwidth_singleton_inf(self, g):
        assert min_pairwise_bandwidth(g, ["h0"]) == float("inf")

    def test_min_pairwise_bandwidth_disconnected_zero(self, g):
        g.remove_link("h3", "switch")
        assert min_pairwise_bandwidth(g, ["h0", "h3"]) == 0.0

    def test_min_pairwise_fraction(self, g):
        assert min_pairwise_bandwidth_fraction(g, ["h0", "h1"]) == pytest.approx(0.2)

    def test_fraction_uses_per_link_peak_without_reference(self):
        # A path crossing a 10 Mbps hop at 5 Mbps available: fraction 0.5
        # even though the other hop is 100 Mbps.
        g = TopologyGraph()
        g.add_compute("a")
        g.add_compute("b")
        g.add_network("s")
        g.add_link("a", "s", 10 * Mbps, available=5 * Mbps)
        g.add_link("s", "b", 100 * Mbps)
        assert min_pairwise_bandwidth_fraction(g, ["a", "b"]) == pytest.approx(0.5)

    def test_fraction_with_reference_uses_absolute_scale(self):
        g = TopologyGraph()
        g.add_compute("a")
        g.add_compute("b")
        g.add_network("s")
        g.add_link("a", "s", 155 * Mbps, available=77.5 * Mbps)
        g.add_link("s", "b", 155 * Mbps, available=77.5 * Mbps)
        refs = References(link_bandwidth=100 * Mbps)
        assert min_pairwise_bandwidth_fraction(g, ["a", "b"], refs) == pytest.approx(0.775)

    def test_minresource_is_min_of_scaled_terms(self, g):
        # h0,h1: cpu = min(1, .5) = .5 ; bw fraction = .2 -> minresource .2
        assert minresource(g, ["h0", "h1"]) == pytest.approx(0.2)

    def test_minresource_respects_priority(self, g):
        # Prioritizing comm by 5 scales bw fraction .2 -> .04 vs cpu .5
        refs = References(comm_priority=5.0)
        assert minresource(g, ["h0", "h1"], refs) == pytest.approx(0.04)

    def test_minresource_directional_bottleneck(self):
        g = dumbbell(2, 2)
        trunk = g.link("sw-left", "sw-right")
        trunk.set_available(10 * Mbps, direction="sw-right")
        # §3.3: bidirectional capacity is min over directions.
        assert min_pairwise_bandwidth(g, ["l0", "r0"]) == 10 * Mbps
        assert minresource(g, ["l0", "r0"]) == pytest.approx(0.1)


def _pairwise_oracle(g, names, link_bandwidth):
    """Both pairwise minima the long way: the reference route of every
    ordered pair, every hop counted in its own direction."""
    fraction = bps = float("inf")
    for a in names:
        for b in names:
            if a == b:
                continue
            path = routing_table_route(g, a, b)
            if path is None:
                return 0.0, 0.0
            for x, y in zip(path, path[1:]):
                link = g.link(x, y)
                bw = link.available_towards(y)
                bps = min(bps, bw)
                fraction = min(fraction, bw / (link_bandwidth or link.maxbw))
    return fraction, bps


def _hex(minima):
    return tuple(float(x).hex() for x in minima)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    cyclic=st.booleans(),
    drop=st.integers(0, 2),
    half=st.integers(0, 4),
    k=st.integers(0, 5),
    link_bandwidth=st.sampled_from([None, 60 * Mbps]),
)
def test_pairwise_minima_match_per_direction_bfs(
    seed, cyclic, drop, half, k, link_bandwidth
):
    # On a forest each unordered pair is walked once and a hop counts
    # the smaller of its two directions; the values must not change, to
    # the bit, whatever the duplex of the links crossed.
    rng = np.random.default_rng(seed)
    g = grid(3, 3) if cyclic else random_tree(12, 4, rng, bandwidth=100 * Mbps)
    for link in g.links():
        link.available_fwd = float(rng.uniform(1, 100)) * Mbps
        link.available_rev = float(rng.uniform(1, 100)) * Mbps
    links = list(g.links())
    for i in rng.choice(len(links), size=min(half, len(links)), replace=False):
        links[i].attrs["duplex"] = "half"
    for link in links[:drop]:
        g.remove_link(link.u, link.v)
    hosts = [n.name for n in g.compute_nodes()]
    names = [str(n) for n in rng.choice(hosts, size=min(k, len(hosts)),
                                        replace=False)]
    refs = References(link_bandwidth=link_bandwidth)
    got = (min_pairwise_bandwidth_fraction(g, names, refs),
           min_pairwise_bandwidth(g, names))
    want = _pairwise_oracle(g, names, link_bandwidth)
    assert _hex(got) == _hex(want)
    by_paths = pairwise_minima_by_paths(g, names, refs)
    assert _hex(got) == _hex(
        (by_paths[0], pairwise_minima_by_paths(g, names, References())[1])
    )


def _min_fold(g, names, refs):
    """The forest branch as ``min`` wrote it, over the same span."""
    links, connected = g.span(names)
    if not connected:
        return 0.0, 0.0
    fraction = bps = float("inf")
    ref_bw = refs.link_bandwidth
    for link in links:
        bw = min(link.available_fwd, link.available_rev)
        bps = min(bps, bw)
        fraction = min(fraction, bw / (link.maxbw if ref_bw is None else ref_bw))
    return fraction, bps


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    nan=st.lists(st.tuples(st.integers(0, 30), st.booleans()), max_size=3),
    k=st.integers(2, 5),
    link_bandwidth=st.sampled_from([None, 60 * Mbps]),
)
def test_forest_minima_compare_as_min_does_nan_included(
    seed, nan, k, link_bandwidth
):
    # ``min`` keeps its first argument unless the second is strictly
    # smaller, so a NaN answers by where it sits: the plain compares
    # must land on the same float, NaN or not.
    rng = np.random.default_rng(seed)
    g = random_tree(12, 4, rng, bandwidth=100 * Mbps)
    links = list(g.links())
    for link in links:
        link.available_fwd = float(rng.uniform(1, 100)) * Mbps
        link.available_rev = float(rng.uniform(1, 100)) * Mbps
    for i, fwd in nan:
        setattr(links[i % len(links)],
                "available_fwd" if fwd else "available_rev", float("nan"))
    hosts = [n.name for n in g.compute_nodes()]
    names = [str(n) for n in rng.choice(hosts, size=min(k, len(hosts)),
                                        replace=False)]
    refs = References(link_bandwidth=link_bandwidth)
    assert _hex(_pairwise_minima(g, names, refs)) == \
        _hex(_min_fold(g, names, refs))
