"""Naive reference implementations of the edge-peeling algorithms.

These are the direct transcriptions of the paper's Figure 2 and Figure 3
loops (and the §3.3 bandwidth-floor variant) that the public entry points
in :mod:`repro.core.kernel` replace: after every edge removal they re-scan
for the minimum-bandwidth link, re-derive connected components by BFS,
and re-rank candidates per component.

They are kept verbatim as the *semantic oracle* for the incremental kernel
(:mod:`repro.core.kernel`): ``tests/core/test_kernel_differential.py``
asserts both paths return bit-identical selections (nodes, objective,
iteration count, extras) on random topologies, and
``benchmarks/bench_selection_kernel.py`` measures the speedup against
them.  Do not "optimize" this module — its value is being obviously
faithful to the paper, not fast.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..topology.graph import Node, TopologyGraph
from .compute import top_compute_nodes
from .metrics import (
    DEFAULT_REFERENCES,
    References,
    link_bandwidth_fraction,
    min_cpu_fraction,
    min_pairwise_bandwidth,
    min_pairwise_bandwidth_fraction,
    node_compute_fraction,
)
from .types import ExtrasKey, NoFeasibleSelection, Selection

__all__ = [
    "reference_select_balanced",
    "reference_select_max_bandwidth",
    "reference_select_with_bandwidth_floor",
]


def _component_score(
    graph: TopologyGraph,
    component: set[str],
    m: int,
    refs: References,
    eligible: Optional[Callable[[Node], bool]],
) -> Optional[tuple[float, float, float, list[str]]]:
    """Score one component: (minresource, mincpu, minbw, chosen-m-nodes).

    Returns None if the component lacks ``m`` eligible compute nodes.
    ``minbw`` follows the paper exactly: the minimum fractional bandwidth
    over *all* edges of the component (a conservative bound on any path the
    application might use inside it).
    """
    nodes = [graph.node(n) for n in component]
    candidates = [
        n for n in nodes
        if n.is_compute and (eligible is None or eligible(n))
    ]
    if len(candidates) < m:
        return None
    chosen = top_compute_nodes(candidates, m, refs)
    mincpu = min(node_compute_fraction(n, refs) for n in chosen)
    minbw = float("inf")
    seen: set[frozenset] = set()
    for name in component:
        for link in graph.incident_links(name):
            if link.key in seen:
                continue
            seen.add(link.key)
            minbw = min(minbw, link_bandwidth_fraction(link, refs))
    score = min(refs.scale_cpu(mincpu), refs.scale_bw(minbw))
    return score, mincpu, minbw, [n.name for n in chosen]


def reference_select_balanced(
    graph: TopologyGraph,
    m: int,
    *,
    refs: References = DEFAULT_REFERENCES,
    eligible: Optional[Callable[[Node], bool]] = None,
    strict_greedy: bool = False,
) -> Selection:
    """Figure 3 by per-step recomputation (the paper's literal loop).

    See :func:`repro.core.select_balanced` for the contract; this naive
    path recomputes components and candidate rankings after every removal.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    work = graph.copy()

    # Step 1: best pure-compute choice, scored over the whole graph.
    all_nodes = list(work.nodes())
    candidates = [
        n for n in all_nodes
        if n.is_compute and (eligible is None or eligible(n))
    ]
    if len(candidates) < m:
        raise NoFeasibleSelection(
            f"need {m} eligible compute nodes, only {len(candidates)} exist"
        )
    chosen = top_compute_nodes(candidates, m, refs)
    best_nodes = [n.name for n in chosen]
    mincpu = min(node_compute_fraction(n, refs) for n in chosen)
    minbw = min(
        (link_bandwidth_fraction(l, refs) for l in work.links()),
        default=float("inf"),
    )
    best_score = min(refs.scale_cpu(mincpu), refs.scale_bw(minbw))
    best_cpu, best_bw = mincpu, minbw

    # Require the initial choice to be co-located in one component.  (The
    # paper assumes a connected input graph, where this is automatic.)
    if not graph.is_connected():
        feasible_initial = None
        for comp in work.connected_components():
            scored = _component_score(work, comp, m, refs, eligible)
            if scored is None:
                continue
            if feasible_initial is None or scored[0] > feasible_initial[0]:
                feasible_initial = scored
        if feasible_initial is None:
            raise NoFeasibleSelection(
                f"no connected component with {m} eligible compute nodes"
            )
        best_score, best_cpu, best_bw, best_nodes = feasible_initial

    iterations = 0
    # Steps 2-4: peel minimum-fractional-bandwidth edges.
    while True:
        worst = work.min_bandwidth_link(
            key=lambda l: link_bandwidth_fraction(l, refs)
        )
        if worst is None:
            break
        work.remove_link(worst.u, worst.v)
        iterations += 1

        newset = False
        feasible = False
        for comp in work.connected_components():
            scored = _component_score(work, comp, m, refs, eligible)
            if scored is None:
                continue
            feasible = True
            score, cpu, bw, names = scored
            if score > best_score:
                best_score, best_cpu, best_bw, best_nodes = score, cpu, bw, names
                newset = True
        if not feasible:
            break
        if strict_greedy and not newset:
            break

    return Selection(
        nodes=best_nodes,
        objective=best_score,
        min_cpu_fraction=min_cpu_fraction(graph, best_nodes, refs),
        min_bw_fraction=min_pairwise_bandwidth_fraction(graph, best_nodes, refs),
        min_bw_bps=min_pairwise_bandwidth(graph, best_nodes),
        algorithm="balanced",
        iterations=iterations,
        extras={ExtrasKey.ALG_MINCPU: best_cpu, ExtrasKey.ALG_MINBW: best_bw},
    )


def _largest_compute_component(
    graph: TopologyGraph, eligible: Optional[Callable[[Node], bool]]
) -> tuple[set[str], int]:
    """The component with the most eligible compute nodes (and that count).

    Ties break toward the component containing the lexicographically
    smallest node name, keeping runs reproducible.
    """
    best: set[str] = set()
    best_count = -1
    best_key = ""
    for comp in graph.connected_components():
        count = 0
        for name in comp:
            node = graph.node(name)
            if node.is_compute and (eligible is None or eligible(node)):
                count += 1
        key = min(comp)
        if count > best_count or (count == best_count and key < best_key):
            best, best_count, best_key = comp, count, key
    return best, max(best_count, 0)


def reference_select_max_bandwidth(
    graph: TopologyGraph,
    m: int,
    *,
    refs: References = DEFAULT_REFERENCES,
    eligible: Optional[Callable[[Node], bool]] = None,
) -> Selection:
    """Figure 2 by per-step recomputation (the paper's literal loop).

    See :func:`repro.core.select_max_bandwidth` for the contract.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    work = graph.copy()

    comp, count = _largest_compute_component(work, eligible)
    if count < m:
        raise NoFeasibleSelection(
            f"no connected component with {m} eligible compute nodes"
        )

    def pick(component: set[str]) -> list[str]:
        nodes = [work.node(n) for n in component]
        if eligible is not None:
            nodes = [n for n in nodes if not n.is_compute or eligible(n)]
        chosen = top_compute_nodes(nodes, m, refs)
        return [n.name for n in chosen]

    # Step 1: any m compute nodes of the (feasible) largest component.
    selected = pick(comp)
    iterations = 0

    # Steps 2-4: peel minimum-bandwidth edges while feasibility holds.
    while True:
        worst = work.min_bandwidth_link()
        if worst is None:
            break
        work.remove_link(worst.u, worst.v)
        iterations += 1
        comp, count = _largest_compute_component(work, eligible)
        if count < m:
            break
        selected = pick(comp)

    min_bw = min_pairwise_bandwidth(graph, selected)
    return Selection(
        nodes=selected,
        objective=min_bw,
        min_cpu_fraction=min_cpu_fraction(graph, selected, refs),
        min_bw_fraction=min_pairwise_bandwidth_fraction(graph, selected, refs),
        min_bw_bps=min_bw,
        algorithm="max-bandwidth",
        iterations=iterations,
    )


def reference_select_with_bandwidth_floor(
    graph: TopologyGraph,
    m: int,
    *,
    floor_bps: float,
    refs: References = DEFAULT_REFERENCES,
    eligible: Optional[Callable[[Node], bool]] = None,
) -> Selection:
    """Bandwidth-floor selection by copy-and-delete (the naive path).

    See :func:`repro.core.kernel.select_with_bandwidth_floor` for the contract.
    """
    if floor_bps < 0:
        raise ValueError(f"floor must be non-negative, got {floor_bps}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    work = graph.copy()
    for link in list(work.links()):
        if link.available < floor_bps:
            work.remove_link(link.u, link.v)

    best: Optional[tuple[float, list[str]]] = None
    for comp in work.connected_components():
        candidates = [
            work.node(n) for n in comp
            if work.node(n).is_compute
            and (eligible is None or eligible(work.node(n)))
        ]
        if len(candidates) < m:
            continue
        chosen = top_compute_nodes(candidates, m, refs)
        mincpu = min(node_compute_fraction(n, refs) for n in chosen)
        names = [n.name for n in chosen]
        if (
            best is None
            or mincpu > best[0]
            or (mincpu == best[0] and names < best[1])
        ):
            best = (mincpu, names)
    if best is None:
        raise NoFeasibleSelection(
            f"no component of {m} compute nodes meets a "
            f"{floor_bps / 1e6:.1f} Mbps pairwise floor"
        )
    mincpu, names = best
    return Selection(
        nodes=names,
        objective=mincpu,
        min_cpu_fraction=min_cpu_fraction(graph, names, refs),
        min_bw_fraction=min_pairwise_bandwidth_fraction(graph, names, refs),
        min_bw_bps=min_pairwise_bandwidth(graph, names),
        algorithm="bandwidth-floor",
    )
