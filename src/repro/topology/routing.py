"""Static routing over topology graphs (paper §3.3, "cycles in network
topology").

Networks often contain cycles, but with *static routing* every source /
destination pair uses one fixed path, so the selection algorithms remain
applicable: the effective communication graph between compute nodes is
determined by the routes, and the bandwidth available between a pair is
the bottleneck along its routed path.

The route of a pair is :meth:`TopologyGraph.path` — the one rule the
simulated fabric, the Remos flow queries, the selection procedures and the
service's ledger all use (bottleneck and latency along it:
:meth:`~TopologyGraph.path_available_bandwidth`,
:meth:`~TopologyGraph.path_latency`).  :class:`RoutedView` reduces a
cyclic topology to the overlay its compute traffic routes over.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from .graph import TopologyGraph

__all__ = ["RoutedView"]


class RoutedView:
    """Reduce a routed (possibly cyclic) topology to an acyclic *overlay*.

    The paper's algorithms assume an acyclic graph.  For cyclic networks with
    static routing we build the union of all routed paths between the
    candidate compute nodes; if that union is a tree, the algorithms apply
    unchanged on it.  If the union still has cycles, the per-pair bottleneck
    matrix from :meth:`pair_bandwidth_matrix` feeds the pairwise fallback
    selector (:func:`repro.core.generalized.select_routed`).
    """

    def __init__(
        self,
        graph: TopologyGraph,
        compute_nodes: Optional[Iterable[str]] = None,
    ) -> None:
        self.graph = graph
        if compute_nodes is None:
            self.compute_names = [n.name for n in graph.compute_nodes()]
        else:
            self.compute_names = list(compute_nodes)

    def used_link_keys(self) -> set[frozenset]:
        """Keys of links used by at least one routed compute-pair path.

        Routes belong to ordered pairs (``path(b, a)`` need not retrace
        ``path(a, b)``), so both directions of every pair are walked.
        """
        used: set[frozenset] = set()
        for a, b in itertools.permutations(self.compute_names, 2):
            path = self.graph.path(a, b)
            if path:
                used.update(l.key for l in self.graph.path_links(path))
        return used

    def overlay(self) -> TopologyGraph:
        """Subgraph of nodes/links actually used by routed compute traffic."""
        used = self.used_link_keys()
        names: set[str] = set(self.compute_names)
        for key in used:
            names.update(key)
        sub = self.graph.subgraph(names)
        for link in list(sub.links()):
            if link.key not in used:
                sub.remove_link(link.u, link.v)
        return sub

    def pair_bandwidth_matrix(self) -> dict[tuple[str, str], float]:
        """Bottleneck available bandwidth for every ordered compute pair."""
        out: dict[tuple[str, str], float] = {}
        for a in self.compute_names:
            for b in self.compute_names:
                if a != b:
                    out[(a, b)] = self.graph.path_available_bandwidth(a, b)
        return out
