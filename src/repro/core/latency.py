"""Latency-bounded selection (§3.4 "latency and other considerations").

The paper's procedures use only load and bandwidth, noting that "a number
of other factors can affect application performance, some examples being
latency on the links ... Remos API includes this information and we plan
to take these factors into consideration in future work."  This module is
that future work for latency: select nodes under a bound on the maximum
pairwise path latency (tightly-coupled codes cannot tolerate cross-campus
round trips), maximizing the balanced objective among feasible sets.

On a tree topology any node set with pairwise latency diameter ≤ D lies
inside a latency ball of radius D/2 around some point; enumerating balls
centred on nodes (and verifying each candidate exactly) yields a sound
and, in practice, exhaustive search at topology scale.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from ..topology.graph import Node, TopologyGraph
from .kernel import select_balanced
from .metrics import (
    DEFAULT_REFERENCES,
    References,
    minresource,
)
from .types import ExtrasKey, NoFeasibleSelection, Selection

__all__ = ["max_pairwise_latency", "select_with_latency_bound"]


def max_pairwise_latency(graph: TopologyGraph, nodes) -> float:
    """The latency diameter of a node set (``inf`` if any pair is
    disconnected, ``0`` for singletons).

    Each ordered pair is measured along its own route, so the answer does
    not depend on the order ``nodes`` are named in.
    """
    return max(
        (graph.path_latency(a, b)
         for a, b in itertools.permutations(nodes, 2)),
        default=0.0,
    )


def select_with_latency_bound(
    graph: TopologyGraph,
    m: int,
    *,
    max_latency_s: float,
    refs: References = DEFAULT_REFERENCES,
    eligible: Optional[Callable[[Node], bool]] = None,
) -> Selection:
    """Select ``m`` nodes whose pairwise latency never exceeds the bound,
    maximizing the exact balanced objective among feasible candidates.

    Strategy: if the unconstrained balanced choice already satisfies the
    bound, keep it.  Otherwise enumerate latency balls of radius
    ``max_latency_s / 2`` centred on each node, run the balanced selection
    restricted to each ball, verify the bound exactly, and return the
    best-scoring verified set.

    Raises
    ------
    NoFeasibleSelection
        If no ball contains a verified feasible set.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if max_latency_s < 0:
        raise ValueError("latency bound cannot be negative")

    def feasible(names) -> bool:
        return max_pairwise_latency(graph, names) <= max_latency_s + 1e-15

    try:
        unconstrained = select_balanced(graph, m, refs=refs, eligible=eligible)
        if feasible(unconstrained.nodes):
            unconstrained.algorithm = "latency-bound"
            unconstrained.extras[ExtrasKey.MAX_LATENCY_S] = max_pairwise_latency(
                graph, unconstrained.nodes
            )
            return unconstrained
    except NoFeasibleSelection:
        raise

    radius = max_latency_s / 2.0
    best: Optional[tuple[float, Selection]] = None
    compute_names = {n.name for n in graph.compute_nodes()}
    for center in graph.node_names():
        ball = {
            name for name in compute_names
            if graph.path_latency(center, name) <= radius + 1e-15
        }
        if len(ball) < m:
            continue

        def in_ball(node: Node, ball=ball) -> bool:
            if node.name not in ball:
                return False
            return eligible is None or eligible(node)

        try:
            sel = select_balanced(graph, m, refs=refs, eligible=in_ball)
        except NoFeasibleSelection:
            continue
        if not feasible(sel.nodes):
            continue
        score = minresource(graph, sel.nodes, refs)
        if best is None or score > best[0]:
            best = (score, sel)
    if best is None:
        raise NoFeasibleSelection(
            f"no set of {m} compute nodes within a "
            f"{max_latency_s * 1e3:.3g} ms latency diameter"
        )
    _score, sel = best
    sel.algorithm = "latency-bound"
    sel.extras[ExtrasKey.MAX_LATENCY_S] = max_pairwise_latency(graph, sel.nodes)
    return sel
