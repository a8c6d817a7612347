"""Application runtime estimation on a candidate placement (§3.4).

The paper notes that choosing the *number* of nodes "ha[s] to be coupled
with methods for performance estimation" (citing Fahringer and
Schopf/Berman).  This module provides such a method for the loosely
synchronous phase-structured applications the evaluation uses: given a
workload description (compute demand + communication pattern and volume
per iteration) and a placement on an annotated topology, predict the
execution time from

- the placement's minimum available CPU fraction (the slowest node gates
  every loosely synchronous phase), and
- the *effective* bandwidth of the pattern's simultaneous flows
  (:mod:`repro.core.pattern_aware`), which gates every exchange.

The estimate feeds :func:`repro.core.select_variable_nodes` (via
:func:`speedup_model`) and gives launchers an absolute time prediction
that bench ``bench_estimator`` validates against the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..topology.graph import TopologyGraph
from ..units import BITS_PER_BYTE
from .metrics import DEFAULT_REFERENCES, References, node_compute_fraction
from .pattern_aware import effective_pattern_bandwidth
from .spec import CommPattern

__all__ = ["PhaseWorkload", "estimate_runtime", "speedup_model"]


@dataclass(frozen=True)
class PhaseWorkload:
    """One iterated phase of a loosely synchronous application.

    Attributes
    ----------
    compute_seconds_total:
        Aggregate dedicated-CPU seconds per iteration across all ranks
        (divided evenly over the placement).
    comm_bytes_per_pair:
        Bytes each rank ships to each *pattern peer* per iteration.
    pattern:
        Communication pattern of the exchange (:class:`CommPattern`).
    iterations:
        Number of iterations of this phase.
    """

    compute_seconds_total: float = 0.0
    comm_bytes_per_pair: float = 0.0
    pattern: str = CommPattern.ALL_TO_ALL
    iterations: int = 1

    def __post_init__(self) -> None:
        if self.compute_seconds_total < 0 or self.comm_bytes_per_pair < 0:
            raise ValueError("workload quantities cannot be negative")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.pattern not in CommPattern.ALL:
            raise ValueError(f"unknown pattern {self.pattern!r}")


def estimate_runtime(
    graph: TopologyGraph,
    nodes: Sequence[str],
    phases: Sequence[PhaseWorkload],
    refs: References = DEFAULT_REFERENCES,
    base_capacity: float = 1.0,
) -> float:
    """Predicted execution time (seconds) of ``phases`` on ``nodes``.

    Per iteration of each phase:

    - compute time = (total / m) / (min CPU fraction × base_capacity) —
      loosely synchronous codes wait for the slowest node;
    - comm time = per-pair bytes / effective per-flow bandwidth of the
      pattern fired simultaneously.

    Returns ``inf`` for infeasible placements (disconnected pairs).
    """
    names = list(nodes)
    if not names:
        raise ValueError("placement must name at least one node")
    m = len(names)
    min_cpu = min(
        node_compute_fraction(graph.node(n), refs) for n in names
    )
    total = 0.0
    for phase in phases:
        compute = 0.0
        if phase.compute_seconds_total > 0:
            if min_cpu <= 0:
                return float("inf")
            compute = (phase.compute_seconds_total / m) / (
                min_cpu * base_capacity
            )
        comm = 0.0
        if phase.comm_bytes_per_pair > 0 and m > 1:
            eff = effective_pattern_bandwidth(graph, names, phase.pattern)
            if eff <= 0:
                return float("inf")
            if eff != float("inf"):
                comm = phase.comm_bytes_per_pair * BITS_PER_BYTE / eff
        total += phase.iterations * (compute + comm)
    return total


def speedup_model(
    graph: TopologyGraph,
    phases: Sequence[PhaseWorkload],
    refs: References = DEFAULT_REFERENCES,
    base_capacity: float = 1.0,
):
    """A ``m -> relative speed`` callable for variable-m selection (§3.4).

    Speed at ``m`` is ``T(1-node equivalent) / T(best m nodes)`` estimated
    on an *idle copy* of the topology, so it captures the serial
    communication overhead growth that caps useful parallelism.  The
    returned callable is what :func:`repro.core.select_variable_nodes`
    expects.
    """
    from .kernel import select_balanced
    from .types import NoFeasibleSelection

    idle = graph.copy()
    for node in idle.nodes():
        node.load_average = 0.0
    for link in idle.links():
        link.set_available(link.maxbw)

    serial = sum(p.iterations * p.compute_seconds_total for p in phases)
    serial /= base_capacity

    def speedup(m: int) -> float:
        try:
            placement = select_balanced(idle, m, refs=refs).nodes
        except NoFeasibleSelection:
            return 0.0
        t = estimate_runtime(idle, placement, phases, refs, base_capacity)
        if t <= 0 or t == float("inf"):
            return 0.0
        return serial / t if serial > 0 else 1.0 / t

    return speedup
