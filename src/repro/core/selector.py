"""The NodeSelector facade: spec + network information → node set.

This is the piece that ties the framework of §2 together: it accepts an
:class:`~repro.core.spec.ApplicationSpec`, obtains the current logical
topology (directly, or through a Remos query interface), and dispatches to
the appropriate selection procedure of §3.

Dispatch is driven by a declarative **procedure registry** rather than a
hard-coded if-chain: each :class:`Procedure` pairs a predicate over
``(spec, graph)`` with a runner, and the first match in precedence order
wins.  The registry is data, so embedders can inspect the dispatch table
(:meth:`NodeSelector.procedure_for`), reorder it, or plug in their own
procedures (:func:`register_procedure`) without monkey-patching
``select``.

Selection is resilient to partial information: snapshots mark crashed
(``attrs["down"]``) and unmonitorable (``attrs["unmonitorable"]``) nodes,
and the selector excludes them from every procedure by default.
:meth:`NodeSelector.validate` re-checks an existing placement against a
fresh snapshot so callers can trigger re-selection when a chosen node or
link fails mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from ..topology.graph import Node, TopologyGraph
from .balanced import select_balanced
from .bandwidth import select_max_bandwidth
from .compute import select_max_compute
from .generalized import (
    select_client_server,
    select_routed,
    select_variable_nodes,
    select_with_bandwidth_floor,
    select_with_cpu_floor,
)
from .latency import select_with_latency_bound
from .pattern_aware import select_pattern_aware
from .metrics import References
from .spec import ApplicationSpec, Objective
from .types import ExtrasKey, NoFeasibleSelection, Selection, node_is_selectable

__all__ = [
    "NodeSelector",
    "Procedure",
    "TopologyProvider",
    "default_procedures",
    "register_procedure",
    "select",
    "unhealthy_nodes",
]

#: Eligibility predicate handed to every procedure runner (health gate
#: already composed with the spec's own predicate).
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


@dataclass(frozen=True)
class Procedure:
    """One entry of the selection dispatch table.

    Attributes
    ----------
    name:
        Stable identifier; recorded in ``Selection.extras["procedure"]``.
    matches:
        Predicate over ``(spec, graph)`` deciding whether this procedure
        should handle the request.  The first matching procedure in
        registry order wins, so put more specific features earlier.
    run:
        Runner ``(graph, spec, refs, eligible) -> Selection``; ``eligible``
        arrives already composed with the selector's health gate.
    """

    name: str
    matches: Callable[[ApplicationSpec, TopologyGraph], bool]
    run: Callable[
        [TopologyGraph, ApplicationSpec, References, Eligible], Selection
    ]


# -- default procedure runners ----------------------------------------------

def _run_groups(
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


def _run_variable_m(
    g: TopologyGraph, spec: ApplicationSpec, refs: References,
    eligible: Eligible,
) -> Selection:
    assert spec.num_nodes_range is not None and spec.speedup_model is not None
    return select_variable_nodes(
        g, spec.num_nodes_range, speedup=spec.speedup_model, refs=refs,
        eligible=eligible,
    )


def _run_bandwidth_floor(
    g: TopologyGraph, spec: ApplicationSpec, refs: References,
    eligible: Eligible,
) -> Selection:
    assert spec.min_bandwidth_bps is not None
    return select_with_bandwidth_floor(
        g, spec.num_nodes, floor_bps=spec.min_bandwidth_bps, refs=refs,
        eligible=eligible,
    )


def _run_cpu_floor(
    g: TopologyGraph, spec: ApplicationSpec, refs: References,
    eligible: Eligible,
) -> Selection:
    assert spec.min_cpu_fraction is not None
    return select_with_cpu_floor(
        g, spec.num_nodes, floor=spec.min_cpu_fraction, refs=refs,
        eligible=eligible,
    )


def _run_latency_bound(
    g: TopologyGraph, spec: ApplicationSpec, refs: References,
    eligible: Eligible,
) -> Selection:
    assert spec.max_latency_s is not None
    return select_with_latency_bound(
        g, spec.num_nodes, max_latency_s=spec.max_latency_s, refs=refs,
        eligible=eligible,
    )


def _run_pattern_aware(
    g: TopologyGraph, spec: ApplicationSpec, refs: References,
    eligible: Eligible,
) -> Selection:
    return select_pattern_aware(
        g, spec.num_nodes, pattern=spec.pattern, refs=refs, eligible=eligible
    )


def _run_routed(
    g: TopologyGraph, spec: ApplicationSpec, refs: References,
    eligible: Eligible,
) -> Selection:
    # Cycles + static routing (§3.3): route-aware procedures.
    return select_routed(
        g, spec.num_nodes, objective=spec.objective, refs=refs,
        eligible=eligible,
    )


def _run_max_compute(
    g: TopologyGraph, spec: ApplicationSpec, refs: References,
    eligible: Eligible,
) -> Selection:
    return select_max_compute(g, spec.num_nodes, refs=refs, eligible=eligible)


def _run_max_bandwidth(
    g: TopologyGraph, spec: ApplicationSpec, refs: References,
    eligible: Eligible,
) -> Selection:
    return select_max_bandwidth(g, spec.num_nodes, refs=refs, eligible=eligible)


def _run_balanced(
    g: TopologyGraph, spec: ApplicationSpec, refs: References,
    eligible: Eligible,
) -> Selection:
    return select_balanced(g, spec.num_nodes, refs=refs, eligible=eligible)


def default_procedures() -> list[Procedure]:
    """A fresh copy of the built-in dispatch table, in precedence order.

    Spec *features* (groups, variable node counts, hard floors, latency
    bounds, simultaneous-stream accounting) outrank topology shape
    (cyclic → routed), which outranks the plain ``objective`` procedures;
    the balanced algorithm is the unconditional fallback.
    """
    return [
        Procedure(
            "groups",
            lambda spec, g: bool(spec.groups),
            _run_groups,
        ),
        Procedure(
            "variable-m",
            lambda spec, g: spec.num_nodes_range is not None,
            _run_variable_m,
        ),
        Procedure(
            "bandwidth-floor",
            lambda spec, g: spec.min_bandwidth_bps is not None,
            _run_bandwidth_floor,
        ),
        Procedure(
            "cpu-floor",
            lambda spec, g: spec.min_cpu_fraction is not None,
            _run_cpu_floor,
        ),
        Procedure(
            "latency-bound",
            lambda spec, g: spec.max_latency_s is not None,
            _run_latency_bound,
        ),
        Procedure(
            "pattern-aware",
            lambda spec, g: spec.account_simultaneous_streams,
            _run_pattern_aware,
        ),
        Procedure(
            "routed",
            lambda spec, g: not g.is_acyclic(),
            _run_routed,
        ),
        Procedure(
            "max-compute",
            lambda spec, g: spec.objective == Objective.COMPUTE,
            _run_max_compute,
        ),
        Procedure(
            "max-bandwidth",
            lambda spec, g: spec.objective == Objective.BANDWIDTH,
            _run_max_bandwidth,
        ),
        Procedure(
            "balanced",
            lambda spec, g: True,
            _run_balanced,
        ),
    ]


#: The shared registry new :class:`NodeSelector` instances copy.
PROCEDURES: list[Procedure] = default_procedures()


def register_procedure(
    procedure: Procedure,
    *,
    before: Optional[str] = None,
    registry: Optional[list[Procedure]] = None,
) -> None:
    """Insert ``procedure`` into the dispatch table.

    ``before`` names an existing procedure to take precedence over
    (default: the ``"balanced"`` fallback, i.e. after every built-in
    feature but before the catch-all).  Pass a selector's own
    ``procedures`` list as ``registry`` to scope the registration to one
    instance; the default mutates the shared module-level table used by
    selectors created afterwards.
    """
    table = PROCEDURES if registry is None else registry
    if any(p.name == procedure.name for p in table):
        raise ValueError(f"procedure {procedure.name!r} already registered")
    anchor = before if before is not None else "balanced"
    for i, existing in enumerate(table):
        if existing.name == anchor:
            table.insert(i, procedure)
            return
    raise ValueError(f"no procedure named {anchor!r} to insert before")


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
    procedures:
        Optional dispatch table overriding the shared registry (a copy of
        which is taken at construction, so later global registrations do
        not mutate existing selectors).

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
        procedures: Optional[Sequence[Procedure]] = None,
    ) -> None:
        self._provider = provider
        self.exclude_unhealthy = exclude_unhealthy
        self.procedures: list[Procedure] = list(
            PROCEDURES if procedures is None else procedures
        )

    def snapshot(self) -> TopologyGraph:
        """A fresh topology snapshot from the provider."""
        if isinstance(self._provider, TopologyGraph):
            return self._provider
        return self._provider.topology()

    def _gate(self, eligible: Eligible) -> Eligible:
        """Compose an eligibility predicate with the health exclusion."""
        if not self.exclude_unhealthy:
            return eligible

        def healthy(node: Node) -> bool:
            return node_is_selectable(node) and (
                eligible is None or eligible(node)
            )

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

    def procedure_for(
        self, spec: ApplicationSpec, graph: Optional[TopologyGraph] = None
    ) -> Procedure:
        """The registry entry that would handle ``spec`` on ``graph``.

        ``graph`` defaults to a fresh snapshot (topology shape participates
        in matching — cyclic graphs dispatch to the routed procedures).
        """
        g = graph if graph is not None else self.snapshot()
        for procedure in self.procedures:
            if procedure.matches(spec, g):
                return procedure
        raise LookupError(
            "no registered procedure matches the spec; the default table "
            "ends with an unconditional 'balanced' fallback"
        )

    def select(
        self,
        spec: ApplicationSpec,
        graph: Optional[TopologyGraph] = None,
        *,
        explain: bool = False,
    ) -> Selection:
        """Run the appropriate selection procedure for ``spec``.

        ``graph`` overrides the provider snapshot (used by the migration
        engine, which pre-adjusts the snapshot for self-load).  The chosen
        registry entry is recorded in ``extras["procedure"]``.

        ``explain=True`` attaches provenance — the peel sequence, the
        bottleneck edge fixing the final min-bandwidth, per-node CPU, and
        input staleness — as an :class:`repro.obs.ExplainRecord` under
        ``extras[ExtrasKey.EXPLAIN]``.  Built post hoc, so the selection
        procedures themselves are untouched.
        """
        g = graph if graph is not None else self.snapshot()
        refs = References(
            compute_priority=spec.compute_priority,
            comm_priority=spec.comm_priority,
        )
        procedure = self.procedure_for(spec, g)
        eligible = self._gate(spec.eligible)
        sel = procedure.run(g, spec, refs, eligible)
        sel.extras.setdefault(ExtrasKey.PROCEDURE, procedure.name)
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
    default health gating and procedure registry.  ``explain=True``
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
