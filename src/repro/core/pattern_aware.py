"""Pattern-aware node selection (addressing the §3.4 limitation).

The paper computes availability of bandwidth between pairs of nodes
*independently*, and notes the limitation: "if multiple communication
operations in an application happen at exactly the same time and share a
network link, then one or both may achieve a lower effective bandwidth ...
this is a difficult problem that is not addressed by this research."

This module addresses it for declared communication patterns.  Given the
application's pattern (§2.1: all-to-all, master-slave, ring, pipeline), a
candidate node set induces a concrete set of simultaneous flows; running
the max-min fair allocation (:mod:`repro.network.fairshare`) of those
flows over the links' *available* capacities yields the **effective
bandwidth** the slowest operation would see with everything firing at
once.  :func:`select_pattern_aware` then improves a balanced seed
selection by local search on the combined objective
``min(scaled min-CPU, effective bandwidth / reference)``.

Example where this matters: on a dumbbell with ample per-pair bandwidth,
an all-to-all across the trunk piles O(m²/4) flows onto one link — the
pairwise view says every pair has full bandwidth, the pattern-aware view
correctly prefers co-locating the set.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..network.fairshare import routed_fair_rates
from ..topology.graph import Node, TopologyGraph
from .kernel import select_balanced
from .metrics import (
    DEFAULT_REFERENCES,
    References,
    min_cpu_fraction,
    min_pairwise_bandwidth,
    min_pairwise_bandwidth_fraction,
    node_compute_fraction,
)
from .spec import CommPattern
from .types import ExtrasKey, Selection

__all__ = [
    "pattern_flows",
    "effective_pattern_bandwidth",
    "select_pattern_aware",
]


def pattern_flows(
    nodes: Sequence[str], pattern: str, master: Optional[str] = None
) -> list[tuple[str, str]]:
    """The simultaneous (src, dst) flows a pattern induces on a node set.

    - ``all-to-all``: every ordered pair (the FFT transpose).
    - ``master-slave``: master→slave and slave→master for every slave
      (``master`` defaults to the first node).
    - ``ring``: each node sends to both neighbours.
    - ``pipeline``: node i sends to node i+1.
    - ``none``: no flows.
    """
    names = list(nodes)
    if len(names) < 2 or pattern == CommPattern.NONE:
        return []
    if pattern == CommPattern.ALL_TO_ALL:
        return [(a, b) for a in names for b in names if a != b]
    if pattern == CommPattern.MASTER_SLAVE:
        root = master if master is not None else names[0]
        if root not in names:
            raise ValueError(f"master {root!r} not in the node set")
        out = []
        for n in names:
            if n != root:
                out.append((root, n))
                out.append((n, root))
        return out
    if pattern == CommPattern.RING:
        out = []
        for i, a in enumerate(names):
            out.append((a, names[(i + 1) % len(names)]))
            out.append((a, names[(i - 1) % len(names)]))
        # A 2-ring degenerates to duplicated pairs; dedup preserves order.
        seen = set()
        uniq = []
        for f in out:
            if f not in seen:
                seen.add(f)
                uniq.append(f)
        return uniq
    if pattern == CommPattern.PIPELINE:
        return [(a, b) for a, b in zip(names, names[1:])]
    raise ValueError(f"unknown pattern {pattern!r}")


def effective_pattern_bandwidth(
    graph: TopologyGraph,
    nodes: Sequence[str],
    pattern: str,
    master: Optional[str] = None,
) -> float:
    """Max-min fair rate of the slowest flow when the pattern fires at once.

    Capacities are the links' *available* bandwidths (background traffic
    already subtracted), shared as Remos flow queries share them
    (:func:`~repro.network.fairshare.routed_fair_rates`).  Returns ``inf``
    with no flows and ``0`` when any required pair is disconnected.
    """
    flows = pattern_flows(nodes, pattern, master=master)
    return min(routed_fair_rates(graph, graph, flows), default=float("inf"))


def select_pattern_aware(
    graph: TopologyGraph,
    m: int,
    *,
    pattern: str,
    refs: References = DEFAULT_REFERENCES,
    eligible: Optional[Callable[[Node], bool]] = None,
    max_passes: int = 8,
) -> Selection:
    """Select ``m`` nodes maximizing the pattern-aware balanced objective.

    Seeds with the Figure 3 balanced selection, then hill-climbs with
    single-node swaps on

        ``min(scaled min-CPU fraction, effective pattern bw / reference)``

    where the reference bandwidth is ``refs.link_bandwidth`` (or the
    largest link capacity).  The seed guarantees the result is never worse
    than plain balanced selection *under this objective*.

    For ``master-slave`` patterns the master is taken to be the
    highest-CPU node of the candidate set at evaluation time.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    ref_bw = refs.link_bandwidth or max(
        (l.maxbw for l in graph.links()), default=1.0
    )

    def master_of(names: Sequence[str]) -> Optional[str]:
        if pattern != CommPattern.MASTER_SLAVE:
            return None
        return max(
            names,
            key=lambda n: (node_compute_fraction(graph.node(n), refs), n),
        )

    def score(names: Sequence[str]) -> float:
        cpu = refs.scale_cpu(min_cpu_fraction(graph, names, refs))
        eff = effective_pattern_bandwidth(
            graph, names, pattern, master=master_of(names)
        )
        bw = refs.scale_bw(min(eff / ref_bw, 1.0) if eff != float("inf") else 1.0)
        return min(cpu, bw)

    seed = select_balanced(graph, m, refs=refs, eligible=eligible)
    current = list(seed.nodes)
    current_score = score(current)

    candidates = [
        n.name for n in graph.compute_nodes()
        if (eligible is None or eligible(n))
    ]
    passes = 0
    improved = True
    while improved and passes < max_passes:
        improved = False
        passes += 1
        outside = [c for c in candidates if c not in current]
        best_swap = None
        best_score = current_score
        for i, old in enumerate(current):
            for new in outside:
                trial = current[:i] + [new] + current[i + 1:]
                s = score(trial)
                if s > best_score + 1e-12:
                    best_score = s
                    best_swap = (i, new)
        if best_swap is not None:
            i, new = best_swap
            current[i] = new
            current_score = best_score
            improved = True
    current.sort()

    eff = effective_pattern_bandwidth(
        graph, current, pattern, master=master_of(current)
    )
    return Selection(
        nodes=current,
        objective=current_score,
        min_cpu_fraction=min_cpu_fraction(graph, current, refs),
        min_bw_fraction=min_pairwise_bandwidth_fraction(graph, current, refs),
        min_bw_bps=min_pairwise_bandwidth(graph, current),
        algorithm=f"pattern-aware-{pattern}",
        iterations=passes,
        extras={ExtrasKey.EFFECTIVE_PATTERN_BW_BPS: eff},
    )
