"""Cyclic test topologies whose routes differ by direction.

With a cycle, :meth:`TopologyGraph.path` picks each ordered pair's route
on its own, so ``path(b, a)`` need not retrace ``path(a, b)``: whatever
walks pairs must walk both directions.
"""

from __future__ import annotations

import numpy as np

from repro.topology import TopologyGraph, random_tree
from repro.units import Mbps


def asymmetric_ring(slow_bps: float = 10 * Mbps,
                    slow_latency: float = 0.5) -> TopologyGraph:
    """A 6-ring with hosts ``a`` and ``b`` opposite each other.

    ``path(a, b)`` is ``a-p-z-b`` and ``path(b, a)`` is ``b-c-s-a``; only
    the second crosses the slow link ``c--s`` (``slow_bps``,
    ``slow_latency``), every other link is 100 Mbps with 1 ms latency.
    """
    g = TopologyGraph()
    g.add_compute("a")
    g.add_compute("b")
    for name in ("p", "z", "c", "s"):
        g.add_network(name)
    ring = ["a", "p", "z", "b", "c", "s", "a"]
    for u, v in zip(ring, ring[1:]):
        if {u, v} == {"c", "s"}:
            g.add_link(u, v, slow_bps, latency=slow_latency)
        else:
            g.add_link(u, v, 100 * Mbps, latency=0.001)
    return g


def random_cyclic(seed: int, hosts: int = 10, switches: int = 6,
                  chords: int = 3) -> TopologyGraph:
    """A random tree plus ``chords`` links between any two of its nodes,
    with random directional availability, latencies and loads."""
    rng = np.random.default_rng(seed)
    g = random_tree(hosts, switches, rng, bandwidth=100 * Mbps)
    names = g.node_names()
    added = 0
    while added < chords:
        u, v = (names[int(i)] for i in rng.integers(0, len(names), size=2))
        if u != v and not g.has_link(u, v):
            g.add_link(u, v, 100 * Mbps)
            added += 1
    for link in g.links():
        link.set_available(float(rng.uniform(5, 100)) * Mbps, direction=link.v)
        link.set_available(float(rng.uniform(5, 100)) * Mbps, direction=link.u)
        link.latency = float(rng.uniform(1e-4, 1e-2))
    for node in g.compute_nodes():
        node.load_average = float(rng.uniform(0, 2))
    return g
