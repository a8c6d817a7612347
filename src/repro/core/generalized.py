"""Generalized node selection (paper §3.3 and §3.4 extensions).

The balanced algorithm already absorbs heterogeneity and prioritization via
:class:`~repro.core.metrics.References`.  This module adds the remaining
generalizations:

- **Fixed requirements**: a hard CPU floor while maximizing bandwidth ("the
  algorithm structure is not modified and new constraints are added that
  define eligible node sets"); its dual, the bandwidth floor, is
  :func:`repro.core.kernel.select_with_bandwidth_floor`.
- **Cyclic topologies with static routing**: selection on the routed
  overlay, falling back to a pairwise greedy when the overlay itself is
  cyclic.
- **Group/custom execution patterns** (§3.4, future work in the paper): a
  first implementation for client–server style requirements.
- **Variable number of execution nodes** (§3.4): couples selection with a
  caller-supplied performance estimator.

All entry points share the unified signature convention of the
``select_*`` family: ``(graph, m, *, ...)`` with every option — ``refs``,
``eligible``, and procedure-specific knobs — keyword-only.  The peeling
variants run on the incremental kernel (:mod:`repro.core.kernel`).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..topology.graph import Node, TopologyGraph
from ..topology.routing import RoutedView
from .compute import select_max_compute, top_compute_nodes
from .kernel import (
    select_balanced,
    select_max_bandwidth,
    select_with_bandwidth_floor,
)
from .metrics import (
    DEFAULT_REFERENCES,
    References,
    min_cpu_fraction,
    min_pairwise_bandwidth,
    min_pairwise_bandwidth_fraction,
    node_compute_fraction,
)
from .types import ExtrasKey, NoFeasibleSelection, Selection

__all__ = [
    "cpu_floor_eligible",
    "select_with_cpu_floor",
    "select_routed",
    "select_client_server",
    "select_variable_nodes",
]


def select_with_cpu_floor(
    graph: TopologyGraph,
    m: int,
    *,
    floor: float,
    refs: References = DEFAULT_REFERENCES,
    eligible: Optional[Callable[[Node], bool]] = None,
) -> Selection:
    """Maximize pairwise bandwidth subject to a per-node CPU-fraction floor.

    The dual of :func:`repro.core.kernel.select_with_bandwidth_floor`:
    nodes below the floor are simply ineligible, and Figure 2 runs on the
    survivors.
    """
    sel = select_max_bandwidth(
        graph, m, refs=refs, eligible=cpu_floor_eligible(floor, refs, eligible),
    )
    sel.algorithm = "cpu-floor"
    return sel


def cpu_floor_eligible(
    floor: float,
    refs: References = DEFAULT_REFERENCES,
    eligible: Optional[Callable[[Node], bool]] = None,
) -> Callable[[Node], bool]:
    """``eligible`` narrowed to nodes whose CPU fraction is at least
    ``floor``: how a CPU floor enters any procedure."""
    if not 0 <= floor <= 1:
        raise ValueError(f"cpu floor must be in [0, 1], got {floor}")

    def ok(node: Node) -> bool:
        if eligible is not None and not eligible(node):
            return False
        return node_compute_fraction(node, refs) >= floor

    return ok


def select_routed(
    graph: TopologyGraph,
    m: int,
    *,
    objective: str = "balanced",
    floor_bps: Optional[float] = None,
    refs: References = DEFAULT_REFERENCES,
    eligible: Optional[Callable[[Node], bool]] = None,
) -> Selection:
    """Selection on a (possibly cyclic) statically routed topology (§3.3).

    Builds the overlay of links actually used by routed paths between
    candidate compute nodes.  If the overlay is acyclic — the common case
    on LANs, where static routes form trees — the standard algorithms run
    on it unchanged.  Otherwise a pairwise greedy operates directly on the
    routed bottleneck-bandwidth matrix: starting from the best pair, grow
    the set by the node maximizing the resulting objective.

    ``floor_bps`` is the bandwidth floor on routes (objective
    ``"compute"`` only): every ordered pair of the set must route at
    least that much.  On a tree overlay that is
    :func:`~repro.core.kernel.select_with_bandwidth_floor`; on a cyclic
    one, pairs below the floor are dropped from the matrix, and seeds
    are grown past the usual count until one completes, so a feasible
    pair (``m = 2``) or triangle (``m = 3``) is always found.
    """
    if objective not in ("balanced", "bandwidth", "compute"):
        raise ValueError(f"unknown objective {objective!r}")
    if floor_bps is not None and objective != "compute":
        raise ValueError("a bandwidth floor maximizes the compute objective")
    candidates = [
        n.name for n in graph.compute_nodes()
        if eligible is None or eligible(n)
    ]
    if len(candidates) < m:
        raise NoFeasibleSelection(
            f"need {m} eligible compute nodes, only {len(candidates)} exist"
        )
    view = RoutedView(graph, compute_nodes=candidates)
    overlay = view.overlay()

    if overlay.is_acyclic():
        if floor_bps is not None:
            sel = select_with_bandwidth_floor(
                overlay, m, floor_bps=floor_bps, refs=refs, eligible=eligible,
            )
        elif objective == "balanced":
            sel = select_balanced(overlay, m, refs=refs, eligible=eligible)
        elif objective == "bandwidth":
            sel = select_max_bandwidth(overlay, m, refs=refs, eligible=eligible)
        else:
            sel = select_max_compute(overlay, m, refs=refs, eligible=eligible)
        sel.algorithm = f"routed-{sel.algorithm}"
        return sel

    # Cyclic overlay: pairwise greedy on the routed bandwidth matrix.
    matrix = view.pair_bandwidth_matrix()

    def pair_bw(a: str, b: str) -> float:
        return min(matrix[(a, b)], matrix[(b, a)])

    def clears(a: str, b: str) -> bool:
        return floor_bps is None or pair_bw(a, b) >= floor_bps

    def cpu_frac(name: str) -> float:
        return node_compute_fraction(graph.node(name), refs)

    def set_score(names: Sequence[str]) -> float:
        bw = min(
            (pair_bw(a, b) for i, a in enumerate(names) for b in names[i + 1:]),
            default=float("inf"),
        )
        bw_frac = bw / (refs.link_bandwidth or _max_capacity(graph))
        cpu = min(cpu_frac(n) for n in names)
        if objective == "bandwidth":
            return bw
        if objective == "compute":
            return cpu
        return min(refs.scale_cpu(cpu), refs.scale_bw(bw_frac))

    def grow(seed: list[str]) -> Optional[list[str]]:
        out = list(seed)
        while len(out) < m:
            remaining = [
                c for c in candidates
                if c not in out and all(clears(c, o) for o in out)
            ]
            if not remaining:
                return None
            nxt = max(remaining, key=lambda c: (set_score(out + [c]), c))
            out.append(nxt)
        return sorted(out)

    # A single best-pair seed can trap the greedy inside a well-connected
    # but poorly-expandable pocket (e.g. a congested pod whose two hosts
    # talk fast to each other).  Grow from several of the best-scoring
    # seed pairs and keep the best completed set.
    if m == 1:
        chosen = [max(candidates, key=lambda n: (cpu_frac(n), n))]
    else:
        pairs = sorted(
            (
                (set_score([a, b]), (a, b))
                for i, a in enumerate(candidates)
                for b in candidates[i + 1:]
                if clears(a, b)
            ),
            key=lambda t: (-t[0], t[1]),
        )
        max_seeds = max(8, len(candidates))
        grown: list[list[str]] = []
        for tried, (_score, pair) in enumerate(pairs, 1):
            names = grow(list(pair))
            if names is not None:
                grown.append(names)
            if grown and tried >= max_seeds:
                break
        if not grown:
            raise NoFeasibleSelection(
                f"no {m} eligible compute nodes route the floor of "
                f"{floor_bps!r} bps between every pair"
            )
        chosen = max(grown, key=lambda names: (set_score(names), names))

    bw = min(
        (pair_bw(a, b) for i, a in enumerate(chosen) for b in chosen[i + 1:]),
        default=float("inf"),
    )
    return Selection(
        nodes=chosen,
        objective=set_score(chosen),
        min_cpu_fraction=min_cpu_fraction(graph, chosen, refs),
        min_bw_fraction=bw / (refs.link_bandwidth or _max_capacity(graph)),
        min_bw_bps=bw,
        algorithm=f"routed-pairwise-{objective}",
    )


def _max_capacity(graph: TopologyGraph) -> float:
    return max((l.maxbw for l in graph.links()), default=1.0)


def select_client_server(
    graph: TopologyGraph,
    *,
    num_clients: int,
    num_servers: int = 1,
    server_eligible: Optional[Callable[[Node], bool]] = None,
    client_eligible: Optional[Callable[[Node], bool]] = None,
    refs: References = DEFAULT_REFERENCES,
) -> Selection:
    """Client–server placement (§3.4 "custom execution patterns").

    Servers get the nodes with the maximum available computation capacity
    (among server-eligible nodes); clients are then chosen to maximize the
    minimum available bandwidth *from the servers to the clients* — only
    server→client communication is scored, per the paper's example.
    """
    if num_servers < 1 or num_clients < 1:
        raise ValueError("need at least one server and one client")
    server_nodes = [
        n for n in graph.compute_nodes()
        if server_eligible is None or server_eligible(n)
    ]
    servers = [
        n.name for n in top_compute_nodes(server_nodes, num_servers, refs)
    ]

    def is_client_candidate(node: Node) -> bool:
        if node.name in servers:
            return False
        return client_eligible is None or client_eligible(node)

    candidates = [
        n.name for n in graph.compute_nodes() if is_client_candidate(n)
    ]
    if len(candidates) < num_clients:
        raise NoFeasibleSelection(
            f"need {num_clients} client nodes, only {len(candidates)} eligible"
        )

    def client_bw(name: str) -> float:
        # Only server->client direction matters.
        return min(
            graph.path_available_bandwidth(s, name) for s in servers
        )

    ranked = sorted(candidates, key=lambda n: (-client_bw(n), n))
    clients = sorted(ranked[:num_clients])
    worst_bw = min(client_bw(c) for c in clients)
    if worst_bw == 0.0:
        raise NoFeasibleSelection("some required client is unreachable from a server")
    names = servers + clients
    return Selection(
        nodes=names,
        objective=worst_bw,
        min_cpu_fraction=min_cpu_fraction(graph, names, refs),
        min_bw_fraction=min_pairwise_bandwidth_fraction(graph, names, refs),
        min_bw_bps=min_pairwise_bandwidth(graph, names),
        algorithm="client-server",
        extras={ExtrasKey.SERVERS: servers, ExtrasKey.CLIENTS: clients},
    )


def select_variable_nodes(
    graph: TopologyGraph,
    m_range: Sequence[int],
    *,
    speedup: Callable[[int], float],
    refs: References = DEFAULT_REFERENCES,
    eligible: Optional[Callable[[Node], bool]] = None,
) -> Selection:
    """Choose the number *and* set of nodes (§3.4 "variable number").

    For each candidate ``m``, run the balanced selection and estimate
    delivered performance as ``speedup(m) * minresource(m)`` — the paper
    notes that its decision procedures must be coupled with a performance
    estimation method; ``speedup`` is that method (e.g. an Amdahl model).
    The ``m`` with the best estimate wins.  Each per-``m`` probe runs on
    the incremental kernel, so sweeping a wide ``m_range`` stays cheap.
    """
    if not m_range:
        raise ValueError("m_range must be non-empty")
    best: Optional[tuple[float, Selection]] = None
    for m in m_range:
        try:
            sel = select_balanced(graph, m, refs=refs, eligible=eligible)
        except NoFeasibleSelection:
            continue
        rate = speedup(m) * sel.objective
        if best is None or rate > best[0]:
            best = (rate, sel)
    if best is None:
        raise NoFeasibleSelection(
            f"no feasible selection for any m in {list(m_range)}"
        )
    rate, sel = best
    sel.algorithm = "variable-m"
    sel.extras[ExtrasKey.ESTIMATED_RATE] = rate
    return sel
