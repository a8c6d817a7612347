"""Selection provenance: *why* a node set was (or was not) chosen.

The selection kernel answers "what"; an :class:`ExplainRecord` answers
"why": the peel sequence the Figure 2/3 loops removed (each edge with
its residual bandwidth at deletion), the **bottleneck edge and node
pair** that fix the final min-bandwidth, every selected node's
fractional CPU at decision time, and the measurement provenance the
decision read — snapshot epoch, snapshot age, and per-resource staleness
ages where the snapshot carries them.  Infeasible requests get a record
too, carrying the rejection reason instead of a placement.

Records are built **post hoc** from the same graph the decision ran on:
the peel sequence is recomputed from :func:`repro.core.kernel.peel_order`
(deterministic — the peel order is a pure function of the graph) and
truncated at the selection's recorded iteration count, so the kernel's
hot loop carries zero explain overhead when nobody asks.

Surfaces: ``repro-select --explain``, ``repro.select(..., explain=True)``
(the record lands in ``Selection.extras[ExtrasKey.EXPLAIN]``), and
``SelectionService.request(..., explain=True)`` (on the returned
:class:`~repro.service.Grant`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..core.kernel import peel_order
from ..core.metrics import (
    DEFAULT_REFERENCES,
    References,
    link_bandwidth_fraction,
    node_compute_fraction,
)

__all__ = [
    "BottleneckEdge",
    "ExplainRecord",
    "PeelStep",
    "bottleneck_edge",
    "explain_rejection",
    "explain_selection",
]

#: Peel steps kept on a record before truncating (a 10k-edge peel is
#: provenance nobody reads; the head of the sequence is what matters).
MAX_PEEL_STEPS = 64


def _num(v: Optional[float]) -> Optional[float]:
    """JSON-safe number: non-finite floats become None."""
    if v is None:
        return None
    f = float(v)
    if f != f or f in (float("inf"), float("-inf")):
        return None
    return f


@dataclass(frozen=True)
class PeelStep:
    """One edge removal of the peeling loop, in execution order."""

    u: str
    v: str
    #: The peel metric at deletion (bps for Figure 2, a fraction for the
    #: balanced Figure 3 peel).
    metric: float
    #: Residual available bandwidth (bps) on the edge at deletion.
    available_bps: float

    def to_dict(self) -> dict:
        return {
            "edge": f"{self.u}--{self.v}",
            "metric": _num(self.metric),
            "available_bps": _num(self.available_bps),
        }


@dataclass(frozen=True)
class BottleneckEdge:
    """The edge fixing the selection's final min-bandwidth.

    ``pair`` is the (ordered) selected node pair whose bottleneck path
    crosses the edge; ``towards`` the direction the binding traffic
    flows.
    """

    u: str
    v: str
    towards: str
    available_bps: float
    pair: tuple[str, str]

    def to_dict(self) -> dict:
        return {
            "edge": f"{self.u}--{self.v}",
            "towards": self.towards,
            "available_bps": _num(self.available_bps),
            "pair": list(self.pair),
        }


@dataclass
class ExplainRecord:
    """Provenance for one selection decision (or rejection)."""

    procedure: str = ""
    algorithm: str = ""
    nodes: tuple[str, ...] = ()
    objective: Optional[float] = None
    min_bw_bps: Optional[float] = None
    #: Edge removals the peeling loop performed, in order (truncated at
    #: :data:`MAX_PEEL_STEPS`; empty for non-peeling procedures).
    peel_sequence: list[PeelStep] = field(default_factory=list)
    peel_truncated: bool = False
    #: None for single-node selections (no pair to bottleneck) and for
    #: rejections.
    bottleneck: Optional[BottleneckEdge] = None
    #: Fractional CPU of each selected node at decision time.
    node_cpu: dict[str, float] = field(default_factory=dict)
    #: Snapshot generation the decision ran on (service-side only).
    snapshot_epoch: Optional[int] = None
    #: Measurement staleness of the inputs the decision read.
    staleness: dict = field(default_factory=dict)
    #: Why the request was infeasible (None on success).
    rejection: Optional[str] = None

    def to_dict(self) -> dict:
        """JSON-safe dict (non-finite numbers become null)."""
        return {
            "procedure": self.procedure,
            "algorithm": self.algorithm,
            "nodes": list(self.nodes),
            "objective": _num(self.objective),
            "min_bw_bps": _num(self.min_bw_bps),
            "peel_sequence": [s.to_dict() for s in self.peel_sequence],
            "peel_truncated": self.peel_truncated,
            "bottleneck": (
                None if self.bottleneck is None else self.bottleneck.to_dict()
            ),
            "node_cpu": {k: _num(v) for k, v in self.node_cpu.items()},
            "snapshot_epoch": self.snapshot_epoch,
            "staleness": self.staleness,
            "rejection": self.rejection,
        }


def bottleneck_edge(graph, nodes) -> Optional[BottleneckEdge]:
    """The directed edge binding the min pairwise bandwidth of ``nodes``.

    Walks every ordered pair's path (the same bottleneck-path evaluation
    :func:`repro.core.metrics.min_pairwise_bandwidth` scores) and returns
    the first strictly-smallest edge, deterministically: pairs in sorted
    order, hops in path order.  None for fewer than two nodes or when a
    pair is disconnected (min bandwidth is 0 with no single edge to
    blame).
    """
    names = sorted(set(nodes))
    if len(names) < 2:
        return None
    best: Optional[BottleneckEdge] = None
    for a, b in itertools.combinations(names, 2):
        for src, dst in ((a, b), (b, a)):
            path = graph.path(src, dst)
            if path is None:
                return None
            for u, v in zip(path, path[1:]):
                link = graph.link(u, v)
                avail = link.available_towards(v)
                if best is None or avail < best.available_bps:
                    best = BottleneckEdge(
                        u=link.u, v=link.v, towards=v,
                        available_bps=avail, pair=(src, dst),
                    )
    return best


def _peel_sequence(
    graph, selection, refs: References, max_steps: int
) -> tuple[list[PeelStep], bool]:
    """Re-derive the edge removals the peeling loop performed.

    The peel order is a pure function of the graph and the metric family
    (:func:`repro.core.kernel.peel_order` — the same strict total order
    the kernel's reverse replay consumed), and ``selection.iterations``
    records how far the forward loop got, so the removal sequence is
    exactly the order's first ``iterations`` entries.  A CPU floor is
    Figure 2 over the hosts at or above it, so it peels the same order.
    """
    if selection.iterations <= 0:
        return [], False
    if selection.algorithm in ("max-bandwidth", "cpu-floor"):
        def metric(link):
            return link.available
    elif selection.algorithm == "balanced":
        def metric(link):
            return link_bandwidth_fraction(link, refs)
    else:
        return [], False
    order = peel_order(graph, metric)[: selection.iterations]
    truncated = len(order) > max_steps
    steps = [
        PeelStep(
            u=link.u, v=link.v, metric=value,
            available_bps=link.available,
        )
        for value, link in order[:max_steps]
    ]
    return steps, truncated


def _staleness(graph, nodes, snapshot_age_s: Optional[float]) -> dict:
    """Measurement-health provenance for the inputs the decision read.

    Per-resource sample ages are collected where the snapshot carries
    them (:meth:`repro.topology.TopologyGraph.node_age`);
    stale/unmonitorable marks are reported graph-wide — an excluded node
    shapes the decision exactly by being excluded.
    """
    node_ages = {}
    for name in nodes:
        if graph.has_node(name):
            age = graph.node_age(name)
            if age is not None:
                node_ages[name] = _num(age)
    link_ages = {}
    stale_links = []
    seen = set()
    for a, b in itertools.permutations(sorted(set(nodes)), 2):
        path = graph.path(a, b)
        if path is None:
            continue
        for u, v in zip(path, path[1:]):
            link = graph.link(u, v)
            if link.key in seen:
                continue
            seen.add(link.key)
            tag = f"{link.u}--{link.v}"
            age = graph.link_age(u, v)
            if age is not None:
                link_ages[tag] = _num(age)
            if link.attrs.get("stale"):
                stale_links.append(tag)
    unmonitorable = sorted(
        n.name for n in graph.nodes() if n.attrs.get("unmonitorable")
    )
    out: dict = {}
    if snapshot_age_s is not None:
        out["snapshot_age_s"] = _num(snapshot_age_s)
    if node_ages:
        out["node_age_s"] = node_ages
    if link_ages:
        out["link_age_s"] = link_ages
    if stale_links:
        out["stale_links"] = sorted(stale_links)
    if unmonitorable:
        out["unmonitorable_nodes"] = unmonitorable
    return out


def explain_selection(
    graph,
    selection,
    *,
    refs: Optional[References] = None,
    snapshot_epoch: Optional[int] = None,
    snapshot_age_s: Optional[float] = None,
    max_peel: int = MAX_PEEL_STEPS,
) -> ExplainRecord:
    """Build the provenance record for a completed selection.

    ``graph`` must be the graph the selection actually ran on (for the
    service, the residual view at decision time).  ``refs`` should match
    the references the procedure used (priorities perturb the balanced
    peel metric); defaults to the homogeneous references.
    """
    refs = refs if refs is not None else DEFAULT_REFERENCES
    steps, truncated = _peel_sequence(graph, selection, refs, max_peel)
    node_cpu = {
        name: node_compute_fraction(graph.node(name), refs)
        for name in selection.nodes
        if graph.has_node(name)
    }
    return ExplainRecord(
        procedure=str(selection.extras.get("procedure", "")),
        algorithm=selection.algorithm,
        nodes=tuple(selection.nodes),
        objective=selection.objective,
        min_bw_bps=selection.min_bw_bps,
        peel_sequence=steps,
        peel_truncated=truncated,
        bottleneck=bottleneck_edge(graph, selection.nodes),
        node_cpu=node_cpu,
        snapshot_epoch=snapshot_epoch,
        staleness=_staleness(graph, selection.nodes, snapshot_age_s),
    )


def explain_rejection(
    reason: str,
    *,
    graph=None,
    snapshot_epoch: Optional[int] = None,
    snapshot_age_s: Optional[float] = None,
) -> ExplainRecord:
    """A provenance record for an infeasible request."""
    staleness = (
        _staleness(graph, (), snapshot_age_s) if graph is not None
        else ({"snapshot_age_s": _num(snapshot_age_s)}
              if snapshot_age_s is not None else {})
    )
    return ExplainRecord(
        rejection=reason,
        snapshot_epoch=snapshot_epoch,
        staleness=staleness,
    )
