"""The NodeSelector facade: spec + network information → node set.

This is the piece that ties the framework of §2 together: it accepts an
:class:`~repro.core.spec.ApplicationSpec`, obtains the current logical
topology (directly, or through a Remos query interface), and dispatches to
the appropriate selection procedure of §3.

Dispatch is one function, :func:`_dispatch`: it tests the spec's features
in precedence order, calls the procedure that fits, and names it in
``extras["procedure"]``.

Selection is resilient to partial information: snapshots mark crashed
(``attrs["down"]``) and unmonitorable (``attrs["unmonitorable"]``) nodes,
and the selector excludes them from every procedure by default.
:meth:`NodeSelector.validate` re-checks an existing placement against a
fresh snapshot so callers can trigger re-selection when a chosen node or
link fails mid-run.
"""

from __future__ import annotations

from typing import (
    Callable,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from ..topology.graph import Node, TopologyGraph
from .compute import select_max_compute
from .generalized import (
    cpu_floor_eligible,
    select_client_server,
    select_routed,
    select_variable_nodes,
    select_with_cpu_floor,
)
from .kernel import (
    select_balanced,
    select_max_bandwidth,
    select_with_bandwidth_floor,
)
from .latency import select_with_latency_bound
from .pattern_aware import select_pattern_aware
from .metrics import DEFAULT_REFERENCES, References
from .spec import ApplicationSpec, Objective
from .types import ExtrasKey, NoFeasibleSelection, Selection, node_is_selectable

__all__ = [
    "NodeSelector",
    "TopologyProvider",
    "select",
    "unhealthy_nodes",
]

#: Eligibility predicate handed to every procedure (health gate already
#: composed with the spec's own predicate).
Eligible = Optional[Callable[[Node], bool]]


def unhealthy_nodes(graph: TopologyGraph, names: Sequence[str]) -> list[str]:
    """The subset of ``names`` that ``graph`` reports failed or missing.

    A node is unhealthy when it is absent from the snapshot, marked
    crashed/unmonitorable, or — for multi-node placements — cut off from
    the other named nodes (a failed link partitioned the set).
    """
    bad = [
        n for n in names
        if not graph.has_node(n) or not node_is_selectable(graph.node(n))
    ]
    bad_set = set(bad)
    good = [n for n in names if n not in bad_set]
    if len(good) > 1:
        component = graph.component_of(good[0])
        bad.extend(n for n in good[1:] if n not in component)
    return bad


@runtime_checkable
class TopologyProvider(Protocol):
    """Anything that can produce a logical topology snapshot.

    The Remos API (:class:`repro.remos.api.RemosAPI`) implements this; so
    does a plain closure in tests.
    """

    def topology(self) -> TopologyGraph:  # pragma: no cover - protocol
        ...


def _select_groups(
    g: TopologyGraph, spec: ApplicationSpec, refs: References,
    eligible: Eligible,
) -> Selection:
    """Group placement: currently the client/server pattern (§3.4).

    Supported shapes: exactly two groups, where one is the "server-like"
    group (listed first) and the other holds the remaining workers.
    Richer patterns raise ``NoFeasibleSelection`` so callers learn the
    limitation explicitly rather than getting a silent wrong placement.
    """
    if len(spec.groups) != 2:
        raise NoFeasibleSelection(
            "group placement currently supports exactly two groups "
            f"(got {len(spec.groups)})"
        )
    server, client = spec.groups

    def server_ok(node: Node) -> bool:
        if eligible is not None and not eligible(node):
            return False
        return server.admits(node)

    def client_ok(node: Node) -> bool:
        if eligible is not None and not eligible(node):
            return False
        return client.admits(node)

    sel = select_client_server(
        g,
        num_clients=client.size,
        num_servers=server.size,
        server_eligible=server_ok,
        client_eligible=client_ok,
        refs=refs,
    )
    sel.extras[ExtrasKey.GROUP_NAMES] = {
        server.name: sel.extras[ExtrasKey.SERVERS],
        client.name: sel.extras[ExtrasKey.CLIENTS],
    }
    return sel


def _dispatch(
    g: TopologyGraph, spec: ApplicationSpec, refs: References,
    eligible: Eligible,
) -> tuple[str, Selection]:
    """Run the §3 procedure that fits ``spec`` on ``g``: ``(name, result)``.

    Spec *features* (groups, variable node counts, hard floors, latency
    bounds, simultaneous-stream accounting) outrank topology shape
    (cyclic → routed), which outranks the plain ``objective`` procedures;
    the balanced algorithm is the fallback.  A floor is the exception: on
    a graph with a cycle it runs the routed procedure, the CPU floor as
    eligibility and the bandwidth floor on the routed pair matrix, since
    the raw graph's components are not the routes its traffic takes.
    """
    m = spec.num_nodes
    if spec.groups:
        return "groups", _select_groups(g, spec, refs, eligible)
    if spec.num_nodes_range is not None:
        assert spec.speedup_model is not None
        return "variable-m", select_variable_nodes(
            g, spec.num_nodes_range, speedup=spec.speedup_model, refs=refs,
            eligible=eligible,
        )
    if spec.min_bandwidth_bps is not None:
        if not g.is_acyclic():
            # A floor holds on the routes the traffic takes (§3.3).
            return "bandwidth-floor", select_routed(
                g, m, objective="compute", floor_bps=spec.min_bandwidth_bps,
                refs=refs, eligible=eligible,
            )
        return "bandwidth-floor", select_with_bandwidth_floor(
            g, m, floor_bps=spec.min_bandwidth_bps, refs=refs,
            eligible=eligible,
        )
    if spec.min_cpu_fraction is not None:
        if not g.is_acyclic():
            return "cpu-floor", select_routed(
                g, m, objective="bandwidth", refs=refs,
                eligible=cpu_floor_eligible(
                    spec.min_cpu_fraction, refs, eligible,
                ),
            )
        return "cpu-floor", select_with_cpu_floor(
            g, m, floor=spec.min_cpu_fraction, refs=refs, eligible=eligible,
        )
    if spec.max_latency_s is not None:
        return "latency-bound", select_with_latency_bound(
            g, m, max_latency_s=spec.max_latency_s, refs=refs,
            eligible=eligible,
        )
    if spec.account_simultaneous_streams:
        return "pattern-aware", select_pattern_aware(
            g, m, pattern=spec.pattern, refs=refs, eligible=eligible,
        )
    if not g.is_acyclic():
        # Cycles + static routing (§3.3): route-aware procedures.
        return "routed", select_routed(
            g, m, objective=spec.objective, refs=refs, eligible=eligible,
        )
    if spec.objective == Objective.COMPUTE:
        return "max-compute", select_max_compute(
            g, m, refs=refs, eligible=eligible,
        )
    if spec.objective == Objective.BANDWIDTH:
        return "max-bandwidth", select_max_bandwidth(
            g, m, refs=refs, eligible=eligible,
        )
    return "balanced", select_balanced(g, m, refs=refs, eligible=eligible)


class NodeSelector:
    """Automatic node selection for one execution environment.

    Parameters
    ----------
    provider:
        A :class:`TopologyProvider` (e.g. a Remos API handle) queried for a
        fresh snapshot at each :meth:`select` call, **or** a static
        :class:`TopologyGraph` used as-is.
    exclude_unhealthy:
        If True (default), nodes the snapshot marks crashed or
        unmonitorable are never selected, whatever procedure runs.  Setting
        False restores the naive behaviour (the fault-resilience bench uses
        it as the control arm).

    Examples
    --------
    >>> from repro.topology import star
    >>> from repro.core import ApplicationSpec, NodeSelector
    >>> sel = NodeSelector(star(8)).select(ApplicationSpec(num_nodes=4))
    >>> len(sel.nodes)
    4
    """

    def __init__(
        self,
        provider: TopologyProvider | TopologyGraph,
        exclude_unhealthy: bool = True,
    ) -> None:
        self._provider = provider
        self.exclude_unhealthy = exclude_unhealthy
        #: The last selection's references, reused while the spec's
        #: priorities repeat.
        self._refs = DEFAULT_REFERENCES

    def snapshot(self) -> TopologyGraph:
        """A fresh topology snapshot from the provider."""
        if isinstance(self._provider, TopologyGraph):
            return self._provider
        return self._provider.topology()

    def _gate(self, eligible: Eligible) -> Eligible:
        """Compose an eligibility predicate with the health exclusion."""
        if not self.exclude_unhealthy:
            return eligible
        if eligible is None:
            return node_is_selectable

        def healthy(node: Node) -> bool:
            return node_is_selectable(node) and eligible(node)

        return healthy

    def validate(self, nodes: Sequence[str]) -> list[str]:
        """Re-check a placement against a fresh snapshot.

        Returns the selected nodes that have since failed (crashed, gone
        unmonitorable, or been partitioned away); an empty list means the
        placement is still viable.  Callers re-select when it is not —
        link *degradation* (capacity loss without partition) is left to
        the hysteresis-gated migration path instead, since the placement
        can still limp along.
        """
        return unhealthy_nodes(self.snapshot(), nodes)

    def select(
        self,
        spec: ApplicationSpec,
        graph: Optional[TopologyGraph] = None,
        *,
        explain: bool = False,
    ) -> Selection:
        """Run the appropriate selection procedure for ``spec``.

        ``graph`` overrides the provider snapshot (used by the migration
        engine, which pre-adjusts the snapshot for self-load).  The
        procedure that ran is named in ``extras["procedure"]``.

        ``explain=True`` attaches provenance — the peel sequence, the
        bottleneck edge fixing the final min-bandwidth, per-node CPU, and
        input staleness — as an :class:`repro.obs.ExplainRecord` under
        ``extras[ExtrasKey.EXPLAIN]``.  Built post hoc, so the selection
        procedures themselves are untouched.
        """
        g = graph if graph is not None else self.snapshot()
        refs = self._refs
        if (
            spec.compute_priority != refs.compute_priority
            or spec.comm_priority != refs.comm_priority
        ):
            refs = self._refs = References(
                compute_priority=spec.compute_priority,
                comm_priority=spec.comm_priority,
            )
        name, sel = _dispatch(g, spec, refs, self._gate(spec.eligible))
        sel.extras[ExtrasKey.PROCEDURE] = name
        if explain:
            # Deferred import: repro.obs.explain imports core.kernel and
            # core.metrics, and nothing pays for it unless asked.
            from ..obs.explain import explain_selection

            sel.extras[ExtrasKey.EXPLAIN] = explain_selection(
                g, sel, refs=refs
            )
        return sel


def select(
    graph_or_provider: TopologyProvider | TopologyGraph,
    spec: Optional[ApplicationSpec] = None,
    /,
    *,
    explain: bool = False,
    **spec_fields,
) -> Selection:
    """One-call selection: the package-level convenience entry point.

    Accepts either a ready :class:`ApplicationSpec` or its keyword fields
    directly::

        import repro
        repro.select(graph, num_nodes=4)                      # build a spec
        repro.select(remos_api, ApplicationSpec(num_nodes=4)) # or pass one

    Equivalent to ``NodeSelector(graph_or_provider).select(spec)`` with the
    default health gating.  ``explain=True``
    attaches an :class:`repro.obs.ExplainRecord` under
    ``extras[ExtrasKey.EXPLAIN]``.
    """
    if spec is None:
        spec = ApplicationSpec(**spec_fields)
    elif spec_fields:
        raise TypeError(
            "pass either an ApplicationSpec or spec keyword fields, not both"
        )
    return NodeSelector(graph_or_provider).select(spec, explain=explain)
