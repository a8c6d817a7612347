"""Differential tests: incremental kernel vs the naive reference.

The kernel (:mod:`repro.core.kernel`) must be *bit-identical* to the naive
transcription of the paper's Figures 2/3 (:mod:`repro.core.reference`) —
same nodes, same objective, same iteration count, same exceptions — on
every topology, including the adversarial ones: equal-bandwidth ties
everywhere, disconnected graphs, strict-greedy early exit, heterogeneous
references, and eligibility predicates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NoFeasibleSelection, References
from repro.core.types import node_is_selectable
from repro.core.kernel import (
    select_balanced,
    select_max_bandwidth,
    select_with_bandwidth_floor,
)
from repro.core.reference import (
    reference_select_balanced,
    reference_select_max_bandwidth,
    reference_select_with_bandwidth_floor,
)
from repro.topology import random_tree
from repro.units import Mbps


def _outcome(fn, *args, **kwargs):
    """Run a selector, normalizing result/exception into a comparable value."""
    try:
        sel = fn(*args, **kwargs)
    except NoFeasibleSelection as e:
        return ("infeasible", str(e))
    except ValueError as e:
        return ("valueerror", str(e))
    return {
        "nodes": sel.nodes,
        "objective": sel.objective,
        "min_cpu_fraction": sel.min_cpu_fraction,
        "min_bw_fraction": sel.min_bw_fraction,
        "min_bw_bps": sel.min_bw_bps,
        "algorithm": sel.algorithm,
        "iterations": sel.iterations,
        "extras": sel.extras,
    }


def _assert_identical(kernel_fn, reference_fn, *args, **kwargs):
    got = _outcome(kernel_fn, *args, **kwargs)
    want = _outcome(reference_fn, *args, **kwargs)
    assert got == want


def build_graph(seed: int, n: int, switches: int, quantize: bool, drop: int):
    """A randomized tree topology with contended links and loaded nodes.

    ``quantize`` snaps bandwidths/loads onto a tiny grid so that ties —
    including the all-equal degenerate case — are common rather than
    measure-zero.  ``drop`` removes that many links, disconnecting the
    graph.
    """
    rng = np.random.default_rng(seed)
    g = random_tree(n, switches, rng, bandwidth=100 * Mbps)
    for link in g.links():
        if quantize:
            link.available_fwd = link.available_rev = (
                float(rng.integers(1, 4)) * 25 * Mbps
            )
        else:
            link.available_fwd = float(rng.uniform(1, 100)) * Mbps
            link.available_rev = float(rng.uniform(1, 100)) * Mbps
    for node in g.compute_nodes():
        if quantize:
            node.load_average = float(rng.integers(0, 3)) * 0.5
        else:
            node.load_average = float(rng.uniform(0, 4))
    links = list(g.links())
    for link in links[: max(0, drop)]:
        g.remove_link(link.u, link.v)
    return g


REFS = [
    References(),
    References(compute_priority=2.0),
    References(comm_priority=3.0, node_capacity=2.0),
]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 16),
    switches=st.integers(1, 6),
    quantize=st.booleans(),
    drop=st.integers(0, 2),
    m=st.integers(1, 6),
    strict=st.booleans(),
    refs_i=st.integers(0, len(REFS) - 1),
    restrict=st.booleans(),
)
def test_balanced_matches_reference(
    seed, n, switches, quantize, drop, m, strict, refs_i, restrict
):
    g = build_graph(seed, n, switches, quantize, drop)
    eligible = (lambda node: node.name.endswith(("0", "1", "2"))) if restrict else None
    _assert_identical(
        select_balanced,
        reference_select_balanced,
        g, m, refs=REFS[refs_i], eligible=eligible, strict_greedy=strict,
    )


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 16),
    switches=st.integers(1, 6),
    quantize=st.booleans(),
    drop=st.integers(0, 2),
    m=st.integers(1, 6),
    refs_i=st.integers(0, len(REFS) - 1),
    restrict=st.booleans(),
)
def test_max_bandwidth_matches_reference(
    seed, n, switches, quantize, drop, m, refs_i, restrict
):
    g = build_graph(seed, n, switches, quantize, drop)
    eligible = (lambda node: node.name.endswith(("0", "1", "2"))) if restrict else None
    _assert_identical(
        select_max_bandwidth,
        reference_select_max_bandwidth,
        g, m, refs=REFS[refs_i], eligible=eligible,
    )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 16),
    switches=st.integers(1, 6),
    quantize=st.booleans(),
    drop=st.integers(0, 2),
    m=st.integers(0, 6),
    floor_mbps=st.sampled_from([-1.0, 0.0, 25.0, 50.0, 75.0, 200.0]),
    floor_link=st.one_of(st.none(), st.integers(0, 40)),
    refs_i=st.integers(0, len(REFS) - 1),
    equal_cpu=st.booleans(),
    restrict=st.booleans(),
    unhealthy=st.integers(0, 3),
)
def test_bandwidth_floor_matches_reference(
    seed, n, switches, quantize, drop, m, floor_mbps, floor_link, refs_i,
    equal_cpu, restrict, unhealthy,
):
    # quantize=False leaves every link with unequal directions.
    g = build_graph(seed, n, switches, quantize, drop)
    hosts = g.compute_nodes()
    if equal_cpu:
        # Only the name tie-break separates candidates and components.
        for node in hosts:
            node.load_average = 1.0
    for i, node in enumerate(hosts[:unhealthy]):
        node.attrs["down" if i % 2 else "unmonitorable"] = True
    links = list(g.links())
    floor_bps = floor_mbps * Mbps
    if floor_link is not None and links:
        # Exactly a link's availability: that link must survive.
        floor_bps = links[floor_link % len(links)].available

    def eligible(node):
        return node_is_selectable(node) and (
            not restrict or node.name.endswith(("0", "1", "2"))
        )

    _assert_identical(
        select_with_bandwidth_floor,
        reference_select_with_bandwidth_floor,
        g, m, floor_bps=floor_bps, refs=REFS[refs_i],
        eligible=eligible if restrict or unhealthy else None,
    )


class TestDegenerateTies:
    """All-equal bandwidths: every peel step is a pure tie-break."""

    def _uniform_graph(self, n=9):
        rng = np.random.default_rng(3)
        g = random_tree(n, 3, rng, bandwidth=100 * Mbps)
        for node in g.compute_nodes():
            node.load_average = 1.0
        return g

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    @pytest.mark.parametrize("strict", [False, True])
    def test_balanced_all_ties(self, m, strict):
        g = self._uniform_graph()
        _assert_identical(
            select_balanced, reference_select_balanced,
            g, m, strict_greedy=strict,
        )

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_bandwidth_all_ties(self, m):
        g = self._uniform_graph()
        _assert_identical(
            select_max_bandwidth, reference_select_max_bandwidth, g, m
        )

    def test_invalid_m_matches(self):
        g = self._uniform_graph(4)
        for fn_pair in (
            (select_balanced, reference_select_balanced),
            (select_max_bandwidth, reference_select_max_bandwidth),
        ):
            _assert_identical(*fn_pair, g, 0)
        _assert_identical(
            select_with_bandwidth_floor,
            reference_select_with_bandwidth_floor,
            g, 0, floor_bps=1.0,
        )
        _assert_identical(
            select_with_bandwidth_floor,
            reference_select_with_bandwidth_floor,
            g, 2, floor_bps=-1.0,
        )
