"""On a graph with a cycle, a floor holds on the routes the traffic takes.

A service request's claims fold into a selection floor, and the claim
is then verified on the channels of :meth:`TopologyGraph.path` between
every ordered pair of the set.  On a tree the raw graph's floor
components are those routes; with a cycle they are not, so both floors
run the routed procedure there.  Checked on a torus, a grid and random
cyclic graphs (``tests/core/cyclic_graphs.py::random_cyclic``):

- a bandwidth-floor selection routes at least its floor between every
  ordered pair, and one exists whenever some set does (``m <= 3``:
  exhaustive over the sets);
- a CPU-floor selection clears its CPU floor and reports the routed
  bandwidth of its set;
- an empty :class:`SelectionService` admits the same request with the
  floor as its bandwidth claim whenever a set clears it.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ApplicationSpec,
    NodeSelector,
    NoFeasibleSelection,
    References,
)
from repro.core.metrics import node_compute_fraction
from repro.service import SelectionService
from repro.topology import grid, torus
from repro.units import Mbps

from ..core.cyclic_graphs import random_cyclic


def _contend(g, rng):
    for link in g.links():
        link.set_available(float(rng.uniform(5, 100)) * Mbps, direction=link.v)
        link.set_available(float(rng.uniform(5, 100)) * Mbps, direction=link.u)
    for node in g.compute_nodes():
        node.load_average = float(rng.uniform(0, 2))
    return g


def _shape(name, seed, small=False):
    rng = np.random.default_rng(seed)
    if name == "torus":
        return _contend(torus(4, 4) if small else torus(6, 6), rng)
    if name == "grid":
        return _contend(grid(4, 4) if small else grid(6, 6), rng)
    return random_cyclic(seed, 12 if small else 14, 6 if small else 8, 4)


def _pair_bw(g):
    """Routed bandwidth of every unordered host pair: the smaller of its
    two directions' bottlenecks."""
    hosts = [n.name for n in g.compute_nodes()]
    return hosts, {
        frozenset((a, b)): min(g.path_available_bandwidth(a, b),
                               g.path_available_bandwidth(b, a))
        for a, b in itertools.combinations(hosts, 2)
    }


def _routed_min(pair_bw, names):
    return min(pair_bw[frozenset(p)] for p in itertools.combinations(names, 2))


def _feasible(hosts, pair_bw, m, floor):
    return any(
        all(pair_bw[frozenset(p)] >= floor
            for p in itertools.combinations(s, 2))
        for s in itertools.combinations(hosts, m)
    )


def _check_bandwidth_floor(g, hosts, pair_bw, m, floor, exhaustive):
    spec = ApplicationSpec(num_nodes=m, min_bandwidth_bps=floor)
    try:
        sel = NodeSelector(g).select(spec)
    except NoFeasibleSelection:
        assert not (exhaustive and _feasible(hosts, pair_bw, m, floor))
        return False
    assert len(sel.nodes) == m
    assert _routed_min(pair_bw, sel.nodes) >= floor
    assert sel.min_bw_bps == _routed_min(pair_bw, sel.nodes)
    return True


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(["torus", "grid", "random_cyclic"]),
    seed=st.integers(0, 2**16),
    m=st.integers(2, 4),
    share=st.sampled_from([0.2, 0.5]),
)
def test_floors_select_on_routed_bandwidth(shape, seed, m, share):
    g = _shape(shape, seed)
    assert not g.is_acyclic()
    hosts, pair_bw = _pair_bw(g)
    floor = share * max(link.available for link in g.links())
    _check_bandwidth_floor(g, hosts, pair_bw, m, floor, exhaustive=m <= 3)

    # A floor that about 2m hosts clear.
    cpus = sorted((node_compute_fraction(g.node(h), References())
                   for h in hosts), reverse=True)
    cpu_floor = cpus[min(len(cpus), 2 * m) - 1]
    sel = NodeSelector(g).select(
        ApplicationSpec(num_nodes=m, min_cpu_fraction=cpu_floor)
    )
    assert all(
        node_compute_fraction(g.node(name), References()) >= cpu_floor
        for name in sel.nodes
    )
    assert sel.algorithm.startswith("routed")
    assert sel.min_bw_bps == _routed_min(pair_bw, sel.nodes)


@pytest.mark.parametrize("shape", ["torus", "grid", "random_cyclic"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("m", [2, 3])
def test_a_set_that_clears_the_floor_is_found_and_admitted(shape, seed, m):
    """Exhaustive over the sets of a 12–16-host graph, at floors spread
    over every pair bandwidth it routes."""
    g = _shape(shape, seed, small=True)
    hosts, pair_bw = _pair_bw(g)
    assert len(hosts) <= 16 and not g.is_acyclic()
    values = sorted(set(pair_bw.values()))
    floors = values[::max(1, len(values) // 12)] + [values[-1]]
    tightest = None
    for floor in floors:
        if _check_bandwidth_floor(g, hosts, pair_bw, m, floor, True):
            tightest = floor
    assert tightest is not None
    # The service admits the tightest floor some set clears as a claim.
    svc = SelectionService(g.copy())
    grant = svc.request("app", ApplicationSpec(num_nodes=m), bw_bps=tightest)
    assert grant.admitted, grant
    assert _routed_min(pair_bw, grant.selection.nodes) >= tightest
    svc.check_invariants()
