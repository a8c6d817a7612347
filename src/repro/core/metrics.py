"""Resource metrics and selection objectives (paper §3.1–§3.3).

The selection algorithms reason in *fractions of peak capacity*:

- a compute node's fraction is ``cpu = 1/(1+load)`` scaled by its relative
  capacity against a **reference node** (heterogeneous systems, §3.3);
- a link's fraction is available bandwidth against a **reference link**
  (heterogeneous links, §3.3); in the homogeneous case this reduces to the
  paper's ``bwfactor = bw/maxbw``.

This module also provides the exact objective evaluators used to score a
chosen node set after the fact — the quantities the algorithms maximize:
the minimum CPU fraction over the set, and the minimum available bandwidth
between any pair of selected nodes (bottleneck path).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..topology.graph import Node, TopologyGraph

__all__ = [
    "References",
    "node_compute_fraction",
    "link_bandwidth_fraction",
    "min_cpu_fraction",
    "min_pairwise_bandwidth",
    "min_pairwise_bandwidth_fraction",
    "minresource",
]


@dataclass(frozen=True)
class References:
    """Reference capacities for heterogeneous balancing (§3.3).

    ``node_capacity`` is the ops/s rate fractions are measured against;
    ``link_bandwidth`` (bps) plays the same role for links.  ``None`` means
    "measure each element against its own peak", which is exactly the
    paper's homogeneous formulation (``bwfactor = bw/maxbw``).

    ``compute_priority``/``comm_priority`` implement the §3.3 prioritization:
    with ``compute_priority=2``, 50% CPU availability is treated as
    equivalent to 25% availability of communication paths, so the balanced
    algorithm works harder to preserve CPU.
    """

    node_capacity: Optional[float] = None
    link_bandwidth: Optional[float] = None
    compute_priority: float = 1.0
    comm_priority: float = 1.0

    def __post_init__(self) -> None:
        if self.compute_priority <= 0 or self.comm_priority <= 0:
            raise ValueError("priorities must be positive")
        if self.node_capacity is not None and self.node_capacity <= 0:
            raise ValueError("reference node capacity must be positive")
        if self.link_bandwidth is not None and self.link_bandwidth <= 0:
            raise ValueError("reference link bandwidth must be positive")

    def scale_cpu(self, fraction: float) -> float:
        """CPU fraction on the common comparison scale."""
        return fraction / self.compute_priority

    def scale_bw(self, fraction: float) -> float:
        """Bandwidth fraction on the common comparison scale."""
        return fraction / self.comm_priority


#: The paper's plain homogeneous setting.
DEFAULT_REFERENCES = References()


def node_compute_fraction(node: Node, refs: References = DEFAULT_REFERENCES) -> float:
    """Fraction of reference compute capacity available on ``node``.

    Homogeneous (no reference): ``1/(1+load)``.  Heterogeneous: the node's
    available ops/s divided by the reference rate, so a twice-as-fast node
    at 50% availability still scores 1.0 against a baseline reference.
    """
    base = node.cpu
    if refs.node_capacity is None:
        return base
    return base * node.compute_capacity / refs.node_capacity


def link_bandwidth_fraction(link, refs: References = DEFAULT_REFERENCES) -> float:
    """Fraction of reference bandwidth available on ``link``.

    Homogeneous: the paper's ``bwfactor = bw/maxbw``.  Heterogeneous: the
    available bps divided by the reference link's capacity (§3.3's
    "50% available bandwidth is 50 Mbps or 77.5 Mbps" example).
    """
    if refs.link_bandwidth is None:
        return link.bwfactor
    return link.available / refs.link_bandwidth


def min_cpu_fraction(
    graph: TopologyGraph,
    nodes: Iterable[str],
    refs: References = DEFAULT_REFERENCES,
) -> float:
    """Minimum compute fraction over a node set (``inf`` for empty set).

    This is the set's *computation capacity*: §3.2, "determined by the most
    loaded node".
    """
    return min(
        (node_compute_fraction(graph.node(n), refs) for n in nodes),
        default=float("inf"),
    )


def _pairwise_minima(
    graph: TopologyGraph, nodes: Sequence[str], refs: References
) -> tuple[float, float]:
    """``(fraction, bps)``: both pairwise minima, zero when a pair is
    disconnected.

    Every ordered pair contributes each hop's availability *towards* the
    next node, in bps and as a fraction of the reference link (of the
    hop's own peak without one).  On a forest the pairs' paths together
    are :meth:`TopologyGraph.span`'s links, each crossed both ways: a
    link counts the smaller of its directions, O(m · depth), and since a
    minimum ignores the order of its terms the floats are the pair
    walk's.  That loop compares plain floats: ``b if b < a else a`` is
    what ``min(a, b)`` returns, bit for bit, NaN included (its first
    argument unless the second is strictly smaller).  A graph with a
    cycle walks a path per ordered pair.
    """
    names = list(nodes)
    fraction = bps = float("inf")
    if len(names) < 2:
        return fraction, bps
    ref_bw = refs.link_bandwidth
    span = graph.span(names)
    if span is not None:
        links, connected = span
        if not connected:
            return 0.0, 0.0
        for link in links:
            fwd, rev = link.available_fwd, link.available_rev
            bw = rev if rev < fwd else fwd
            if bw < bps:
                bps = bw
            share = bw / (link.maxbw if ref_bw is None else ref_bw)
            if share < fraction:
                fraction = share
        return fraction, bps
    hops = []
    for src, dst in itertools.permutations(names, 2):
        path = graph.path(src, dst)
        if path is None:
            return 0.0, 0.0
        for x, y in zip(path, path[1:]):
            link = graph.link(x, y)
            hops.append((link.available_towards(y), link))
    for bw, link in hops:
        bps = min(bps, bw)
        fraction = min(
            fraction, bw / (link.maxbw if ref_bw is None else ref_bw)
        )
    return fraction, bps


def min_pairwise_bandwidth(graph: TopologyGraph, nodes: Sequence[str]) -> float:
    """Minimum available bandwidth (bps) between any pair in ``nodes``.

    Evaluated exactly via bottleneck paths.  Returns ``inf`` for fewer than
    two nodes and ``0`` if any pair is disconnected.  This is the
    communication objective Figure 2 maximizes.
    """
    return _pairwise_minima(graph, nodes, DEFAULT_REFERENCES)[1]


def min_pairwise_bandwidth_fraction(
    graph: TopologyGraph,
    nodes: Sequence[str],
    refs: References = DEFAULT_REFERENCES,
) -> float:
    """Minimum *fractional* bandwidth over pairs of ``nodes``.

    With a reference link, the absolute bottleneck is divided by the
    reference capacity.  Without one, each path hop contributes its own
    ``bwfactor`` and the minimum fraction along the bottleneck hop is used
    (homogeneous capacities make the two formulations identical).
    """
    return _pairwise_minima(graph, nodes, refs)[0]


def minresource(
    graph: TopologyGraph,
    nodes: Sequence[str],
    refs: References = DEFAULT_REFERENCES,
) -> float:
    """The balanced objective of Figure 3, evaluated exactly on a node set.

    ``min(scaled min CPU fraction, scaled min pairwise bandwidth fraction)``
    — the largest fraction of peak compute *and* communication capacity the
    set can deliver simultaneously.
    """
    cpu = refs.scale_cpu(min_cpu_fraction(graph, nodes, refs))
    bw = refs.scale_bw(min_pairwise_bandwidth_fraction(graph, nodes, refs))
    return min(cpu, bw)
