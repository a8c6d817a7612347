"""Multi-application scenarios: concurrent tenants on the CMU testbed.

The Table 1 harness runs one application per trial; this module runs
*several* against one live network through the multi-tenant selection
service (:mod:`repro.service`), which is exactly the situation the
service exists for — concurrent selections must be debited against
shared capacity or every tenant lands on the same "best" nodes.

:func:`run_multi_tenant` builds the standard rig (cluster + collector +
Remos + fault injector), warms the monitor up, submits a stream of tenant
requests at their arrival times, and reports every grant plus the
service's metrics.  The ``naive`` arm answers the same stream from a
plain :class:`~repro.core.NodeSelector` with no ledger — the control
that shows the overlap the service removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..core.selector import NodeSelector
from ..core.spec import ApplicationSpec
from ..core.types import NoFeasibleSelection
from ..des.simulator import Simulator
from ..faults.injector import Fault, FaultInjector
from ..network.cluster import Cluster
from ..obs import MetricsRegistry, Tracer
from ..remos.api import RemosAPI
from ..remos.collector import Collector
from ..service.admission import Priority
from ..service.api import PlacementBackend
from ..service.service import Grant, SelectionService
from ..service.sharding import ShardRouter
from .cmu import cmu_testbed

__all__ = ["TenantRequest", "MultiTenantResult", "run_multi_tenant"]

#: Simulated seconds the collector is polled before the first tenant.
_WARMUP_S = 60.0
#: The collector's poll period, in simulated seconds.
_REMOS_PERIOD_S = 5.0
#: The lease every grant is given; nothing renews, so it bounds a hold.
_LEASE_S = 120.0
#: The single service's admission-queue bound.
_QUEUE_LIMIT = 8


@dataclass(frozen=True)
class TenantRequest:
    """One tenant's arrival in a multi-application scenario."""

    app_id: str
    at: float
    num_nodes: int = 4
    cpu_fraction: float = 0.25
    bw_bps: float = 0.0
    priority: str = Priority.SILVER
    #: Simulated seconds the tenant holds its lease (None: forever).
    hold_s: Optional[float] = None
    #: Minimum shards (fault domains) the placement must span — only
    #: meaningful in the sharded arm (``run_multi_tenant(shards=K)``).
    spread: int = 1

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"arrival time cannot be negative: {self.at}")
        if self.hold_s is not None and self.hold_s <= 0:
            raise ValueError(f"hold_s must be positive: {self.hold_s}")
        if self.spread < 1:
            raise ValueError(f"spread must be >= 1: {self.spread}")


@dataclass
class MultiTenantResult:
    """Grants, the naive control's placements, and service metrics."""

    grants: dict[str, Grant] = field(default_factory=dict)
    #: What a ledger-less selector would have picked per tenant (None when
    #: even the naive arm found nothing feasible).
    naive_nodes: dict[str, Optional[list[str]]] = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    fault_log: list[tuple[float, str, str]] = field(default_factory=list)
    #: Observability artifacts written by the campaign (``trace_out`` /
    #: ``metrics_out``): path -> span count / exposition byte count.
    artifacts: dict[str, int] = field(default_factory=dict)

    @property
    def admitted(self) -> list[str]:
        return sorted(
            a for a, g in self.grants.items()
            if g.selection is not None and g.admitted
        )

    def overlapping_tenants(self) -> list[tuple[str, str]]:
        """Pairs of admitted tenants sharing a node (service arm)."""
        apps = self.admitted
        out = []
        for i, a in enumerate(apps):
            for b in apps[i + 1:]:
                sa = set(self.grants[a].selection.nodes)
                sb = set(self.grants[b].selection.nodes)
                if sa & sb:
                    out.append((a, b))
        return out

    def naive_overlaps(self) -> list[tuple[str, str]]:
        """Pairs of tenants the naive control co-located on some node."""
        apps = sorted(a for a, n in self.naive_nodes.items() if n)
        out = []
        for i, a in enumerate(apps):
            for b in apps[i + 1:]:
                if set(self.naive_nodes[a]) & set(self.naive_nodes[b]):
                    out.append((a, b))
        return out


def run_multi_tenant(
    tenants: Sequence[TenantRequest],
    *,
    horizon: float = 300.0,
    fault_plan: Sequence[Fault] = (),
    graph=None,
    trace_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    preempt: bool = False,
    shards: int = 1,
) -> MultiTenantResult:
    """Run a multi-tenant stream against one simulated network.

    Builds a fresh rig (``graph`` defaults to the CMU testbed), warms the
    collector for 60 s (``_WARMUP_S``), schedules every tenant's request
    at ``_WARMUP_S + tenant.at`` (and its release after ``hold_s``),
    injects ``fault_plan``, and runs to ``_WARMUP_S + horizon``.  Every
    grant is a 120 s lease (``_LEASE_S``); the services keep their
    default snapshot TTL.

    ``trace_out`` records every request's trace tree (plus collector
    sweeps and fault events) as JSONL; ``metrics_out`` writes the final
    Prometheus exposition of the whole rig — collector and service share
    one registry.  Written paths land in ``result.artifacts``.

    ``preempt=True`` runs the preemption-enabled arm: gold tenants that
    arrive infeasible reclaim bronze/silver leases instead of queueing
    behind them (the campaign's metrics then carry ``preempted``
    counts).

    ``shards=K`` (K > 1) runs the sharded arm: a
    :class:`~repro.service.ShardRouter` partitions the live topology and
    fronts one service per shard; tenants with ``spread > 1`` are placed
    across shards through the two-phase trunk grant.  The sharded arm
    never queues, and fault injection / preemption are single-service
    features — combining them raises ``ValueError``.

    Both arms are driven purely through the
    :class:`~repro.service.PlacementBackend` protocol — anything
    implementing it can stand in for the service here.
    """
    if shards > 1 and (fault_plan or preempt):
        raise ValueError(
            "shards > 1 does not compose with fault_plan or preempt; run "
            "those arms against the single service"
        )
    sim = Simulator()
    tracer = Tracer() if trace_out else None
    registry = MetricsRegistry() if metrics_out else None
    cluster = Cluster(sim, graph if graph is not None else cmu_testbed())
    collector = Collector(
        cluster, period=_REMOS_PERIOD_S, stale_after=3,
        tracer=tracer, registry=registry,
    )
    api = RemosAPI(collector, tracer=tracer)
    injector = FaultInjector(cluster, collector, tracer=tracer)
    service: PlacementBackend
    if shards > 1:
        service = ShardRouter(
            api,
            shards=shards,
            lease_s=_LEASE_S,
            tracer=tracer,
            registry=registry,
        )
    else:
        service = SelectionService(
            api,
            lease_s=_LEASE_S,
            queue_limit=_QUEUE_LIMIT,
            tracer=tracer,
            registry=registry,
            preempt=preempt,
        )
        service.attach_injector(injector)
    naive = NodeSelector(api)
    result = MultiTenantResult()

    def submit(tenant: TenantRequest) -> None:
        spec = ApplicationSpec(num_nodes=tenant.num_nodes)
        try:
            result.naive_nodes[tenant.app_id] = naive.select(spec).nodes
        except NoFeasibleSelection:
            result.naive_nodes[tenant.app_id] = None
        kwargs = dict(
            cpu_fraction=tenant.cpu_fraction,
            bw_bps=tenant.bw_bps,
            priority=tenant.priority,
        )
        if shards > 1:
            kwargs["spread"] = tenant.spread
        grant = service.request(tenant.app_id, spec, **kwargs)
        result.grants[tenant.app_id] = grant
        if tenant.hold_s is not None:
            sim.call_in(tenant.hold_s, lambda: _release(tenant.app_id))

    def _release(app_id: str) -> None:
        try:
            service.release(app_id)
        except KeyError:
            pass  # already expired, evicted, or never admitted

    for tenant in tenants:
        sim.call_at(_WARMUP_S + tenant.at, lambda t=tenant: submit(t))
    if fault_plan:
        injector.schedule(fault_plan)
    sim.run(until=_WARMUP_S + horizon)

    # Standing outcomes supersede arrival-time grants (queued tenants may
    # have been admitted later, crashed ones evicted).
    for app_id in list(result.grants):
        result.grants[app_id] = service.status(app_id)
    result.metrics = service.metrics_snapshot()
    result.fault_log = list(injector.log)
    if tracer is not None:
        result.artifacts[trace_out] = tracer.write_jsonl(trace_out)
    if metrics_out is not None:
        exposition = service.registry.expose_text()
        with open(metrics_out, "w", encoding="utf-8") as fh:
            fh.write(exposition)
        result.artifacts[metrics_out] = len(exposition)
    return result
