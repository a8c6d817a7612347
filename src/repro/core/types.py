"""Shared result types for the selection algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ExtrasKey",
    "EXTRAS_SCHEMA",
    "Selection",
    "NoFeasibleSelection",
    "node_is_selectable",
]


class ExtrasKey:
    """The stable schema of :attr:`Selection.extras` keys.

    Every key a selection procedure may put in ``extras`` is declared here;
    producers reference these constants instead of ad-hoc strings, and
    consumers can rely on the meanings below staying stable across
    releases.  :data:`EXTRAS_SCHEMA` maps each key to its documentation.
    """

    #: Balanced algorithm's internal min CPU fraction of the winning
    #: component's chosen nodes (the conservative bound it maximized, which
    #: can differ from the exact path-based ``min_cpu_fraction``).
    ALG_MINCPU = "alg_mincpu"
    #: Balanced algorithm's internal min fractional bandwidth over the
    #: winning component's edges (``inf`` for an edgeless component).
    ALG_MINBW = "alg_minbw"
    #: Client/server placement: server node names, in rank order.
    SERVERS = "servers"
    #: Client/server placement: client node names, sorted.
    CLIENTS = "clients"
    #: Group placement: ``{group name: [node names]}`` for every group of
    #: the application spec.
    GROUP_NAMES = "group_names"
    #: Variable-m selection: the winning ``speedup(m) * minresource``
    #: estimate.
    ESTIMATED_RATE = "estimated_rate"
    #: Latency-bounded selection: the achieved pairwise latency diameter
    #: of the returned set, in seconds.
    MAX_LATENCY_S = "max_latency_s"
    #: Pattern-aware selection: max-min fair rate (bps) of the slowest
    #: flow when the declared pattern fires all at once.
    EFFECTIVE_PATTERN_BW_BPS = "effective_pattern_bw_bps"
    #: Name of the registry procedure the selector dispatched to (set by
    #: :meth:`repro.core.NodeSelector.select`).
    PROCEDURE = "procedure"
    #: Provenance record (:class:`repro.obs.ExplainRecord`) attached when
    #: the caller asked for ``explain=True``.
    EXPLAIN = "explain"


#: Key → meaning, for documentation and validation tooling.
EXTRAS_SCHEMA: dict[str, str] = {
    ExtrasKey.ALG_MINCPU: (
        "balanced: internal min CPU fraction of the winning component"
    ),
    ExtrasKey.ALG_MINBW: (
        "balanced: internal min fractional bandwidth of the winning "
        "component (inf when edgeless)"
    ),
    ExtrasKey.SERVERS: "client-server: server node names in rank order",
    ExtrasKey.CLIENTS: "client-server: client node names, sorted",
    ExtrasKey.GROUP_NAMES: "groups: {group name: [node names]}",
    ExtrasKey.ESTIMATED_RATE: (
        "variable-m: winning speedup(m) * minresource estimate"
    ),
    ExtrasKey.MAX_LATENCY_S: (
        "latency-bound: achieved pairwise latency diameter (s)"
    ),
    ExtrasKey.EFFECTIVE_PATTERN_BW_BPS: (
        "pattern-aware: max-min fair rate of the slowest simultaneous "
        "flow (bps)"
    ),
    ExtrasKey.PROCEDURE: "selector: the §3 procedure that produced this",
    ExtrasKey.EXPLAIN: (
        "selector: ExplainRecord provenance (present iff explain=True "
        "was requested)"
    ),
}


def node_is_selectable(node) -> bool:
    """False for nodes a snapshot marks failed or unmonitorable.

    ``attrs["down"]`` is set by the ground-truth oracle
    (:meth:`repro.network.cluster.Cluster.snapshot`) for crashed hosts;
    ``attrs["unmonitorable"]`` by degraded-mode Remos queries
    (:meth:`repro.remos.api.RemosAPI.topology`) for nodes whose monitoring
    went stale.  Selection must never place work on either.
    """
    attrs = node.attrs
    return not (attrs.get("down") or attrs.get("unmonitorable"))


class NoFeasibleSelection(Exception):
    """Raised when no node set satisfying the request exists.

    Examples: fewer than ``m`` compute nodes in the graph, no connected
    component with ``m`` compute nodes, or constraints (floors, group
    attributes) that no candidate set meets.
    """


@dataclass
class Selection:
    """The outcome of a node-selection run.

    Attributes
    ----------
    nodes:
        The selected compute node names (deterministic order).
    objective:
        Value of the criterion the algorithm maximized (semantics depend on
        the algorithm: bps for pure-bandwidth, a fraction for balanced/CPU).
    min_cpu_fraction:
        Exact minimum CPU fraction over the selected set.
    min_bw_fraction:
        Exact minimum fractional bandwidth between selected pairs.
    min_bw_bps:
        Exact minimum absolute bandwidth (bps) between selected pairs.
    algorithm:
        Name of the procedure that produced the selection.
    iterations:
        Number of edge-removal iterations performed (0 for O(n) selection).
    extras:
        Procedure-specific details.  Keys follow the stable schema of
        :class:`ExtrasKey` / :data:`EXTRAS_SCHEMA`; consumers should use
        those constants rather than string literals.
    """

    nodes: list[str]
    objective: float
    min_cpu_fraction: float = float("nan")
    min_bw_fraction: float = float("nan")
    min_bw_bps: float = float("nan")
    algorithm: str = ""
    iterations: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.nodes = list(self.nodes)

    @property
    def size(self) -> int:
        return len(self.nodes)

    def __contains__(self, name: str) -> bool:
        return name in self.nodes

    def __iter__(self):
        return iter(self.nodes)
