"""Reservation-aware residual capacity views of topology graphs.

A multi-tenant selection service admits several applications against one
shared network (see :mod:`repro.service`).  Each admitted application
*claims* a CPU fraction on its nodes and bandwidth on the link channels
its traffic routes over (:meth:`~repro.topology.graph.Link.channel`).
This module turns a topology snapshot plus those claims into the
**residual** graph subsequent selections must run on: what one more
application would actually get.

The debit rules mirror the paper's capacity model (§3.1):

- A CPU claim of ``c`` on a node with available fraction ``cpu = 1/(1+load)``
  leaves ``cpu - c``; the residual graph encodes that as the equivalent
  load average (``load_from_cpu_fraction``), so every downstream formula
  keeps working unchanged.
- A bandwidth claim of ``b`` bps on a channel reduces its available
  bandwidth by ``b`` (floored at zero, capacities untouched — claims
  never alter ``maxbw``); a half-duplex link's shared channel reads the
  link's ``available`` and writes both directions.
"""

from __future__ import annotations

from typing import Mapping

from .graph import ChannelId, TopologyGraph, load_from_cpu_fraction

__all__ = ["residual_graph"]

#: Residual CPU fraction below which a node is considered fully claimed.
#: Keeps the equivalent load average finite for serialization/arithmetic.
_MIN_RESIDUAL_CPU = 1e-9


def residual_graph(
    graph: TopologyGraph,
    node_cpu_claims: Mapping[str, float],
    edge_bw_claims: Mapping[ChannelId, float],
) -> TopologyGraph:
    """A copy of ``graph`` with reserved capacity debited.

    Claims on nodes or links absent from the snapshot are ignored (the
    resource crashed or was removed; its capacity is gone anyway).  The
    input graph is never mutated.

    >>> from repro.topology import star
    >>> g = star(4)
    >>> r = residual_graph(g, {"h0": 0.5}, {})
    >>> round(r.node("h0").cpu, 3)
    0.5
    """
    g = graph.copy()
    for name, claim in node_cpu_claims.items():
        if claim <= 0.0 or not g.has_node(name):
            continue
        node = g.node(name)
        residual = max(node.cpu - claim, _MIN_RESIDUAL_CPU)
        node.load_average = load_from_cpu_fraction(residual)
    for (key, dst), claim in edge_bw_claims.items():
        if claim <= 0.0:
            continue
        ends = tuple(key)
        if len(ends) != 2 or not g.has_link(*ends):
            continue
        link = g.link(*ends)
        remaining = max(link.available_towards(dst) - claim, 0.0)
        link.set_available(remaining, direction=dst)
    return g
