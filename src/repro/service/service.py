"""The multi-tenant selection service facade.

:class:`SelectionService` is the long-running layer the paper implies but
a one-shot library cannot provide: applications on a *shared* network ask
it for placements, and it answers against residual capacity — what is
actually left after every earlier admission — instead of handing two
concurrent applications the same "best" nodes and trunk links.

Wiring (one instance per network):

- a :class:`~repro.service.SnapshotCache` in front of the topology
  provider (Remos handle, cluster oracle, or a static graph) memoizes the
  expensive sweep with a TTL and coalesces simultaneous bursts;
- a :class:`~repro.service.ReservationLedger` records admitted claims and
  debits them from every snapshot (plugged into the selector as its
  capacity ``view``);
- admission (:mod:`repro.service.admission`) queues or rejects requests
  whose floors do not fit, with priority classes and bounded queueing;
- leases expire (:meth:`tick`), renew (:meth:`renew`), release
  (:meth:`release`), and are force-evicted when an attached
  :class:`~repro.faults.FaultInjector` crashes a reserved node
  (:meth:`attach_injector`) — crashed clients never leak capacity.

The request/release hot path is O(Δ), not O(V+E): a
:class:`~repro.service.ResidualView` overlay is debited in place by
ledger events instead of rebuilding a residual graph per attempt, and it
carries the route memo each lease's channels come from.  A new snapshot
that names what it replaced (:attr:`TopologyGraph.measurement`) is
adopted by re-basing the overlay over just that; the overlay is rebuilt
only when there is no such delta or after a cache invalidation (every
known-down change comes with one).

Every walker — serial admission, :meth:`~SelectionService.probe`,
``admit_batch``'s planner, preemption planning, push migration — is a
caller of one read-only placement (``_place``) and one commit tail
(``_commit``); the naive rebuild those are checked against lives in
``tests/oracles.py``.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import replace
from time import perf_counter
from typing import Callable, Collection, Optional, Sequence

from ..core.kernel import ComputeRanking
from ..core.metrics import DEFAULT_REFERENCES, References
from ..core.selector import NodeSelector
from ..core.spec import ApplicationSpec
from ..core.types import (
    ExtrasKey,
    NoFeasibleSelection,
    Selection,
    node_is_selectable,
)
from ..obs.metrics import MetricsRegistry
from ..obs.slo import SloMonitor
from ..obs.trace import NULL_TRACER
from ..topology.graph import TopologyGraph
from .admission import (
    AdmissionQueue,
    Decision,
    Priority,
    SelectionRequest,
    check_request,
    plain_spec,
)
from .api import BatchRequest, PlacementGrant, iter_batch
from .cache import _SELECTION_MEMO_LIMIT, SnapshotCache
from .ledger import (
    CAPACITY_RETURNING_KINDS,
    LedgerError,
    Reservation,
    ReservationLedger,
    check_lease,
    route_edges,
)
from .metrics import ServiceMetrics
from .residual_view import ChannelTable, ResidualView
from .wal import LedgerWal, open_ledger

__all__ = ["FrontDoor", "Grant", "SelectionService"]

logger = logging.getLogger("repro.service")

#: Slack when checking claims against residual floating-point capacity.
_EPS = 1e-9

#: The refusal a selection-memo entry of proven infeasibility answers.
_MEMO_INFEASIBLE = "no feasible selection on residual capacity"

#: The refusal of a selected set the request's claims do not fit.
_CLAIMS_EXCEED = "claims exceed residual capacity on the selected set"

def _copy_selection(selection: Selection) -> Selection:
    """An independent copy (memo entries must not alias caller state)."""
    return replace(
        selection,
        nodes=list(selection.nodes),
        extras=dict(selection.extras),
    )


#: Outcome status (and so metrics counter) for each capacity-returning
#: release kind (the :meth:`SelectionService.release` ``kind=``
#: vocabulary is the ledger's :data:`CAPACITY_RETURNING_KINDS`).
_STATUS_BY_RELEASE_KIND = {
    "release": Decision.RELEASED,
    "expire": Decision.EXPIRED,
    "evict": Decision.EVICTED,
    "preempt": Decision.PREEMPTED,
}


#: How many ended outcomes (every status but admitted and queued) a
#: backend keeps for :meth:`FrontDoor.status`, the most recent ones; a
#: live outcome is kept for as long as it is live.
KEPT_ENDED_OUTCOMES = 1024

#: The statuses of a live request: a lease, or a queue slot.
_LIVE_STATUSES = frozenset({Decision.ADMITTED, Decision.QUEUED})


#: The service's answer (and later, the standing status) for one app.
#: Since the PlacementBackend redesign this *is* the unified
#: :class:`~repro.service.api.PlacementGrant` — the name ``Grant`` is
#: kept as the service-local alias every existing caller imports.
Grant = PlacementGrant


class _StaticProvider:
    """Adapts a bare TopologyGraph to the provider protocol."""

    def __init__(self, graph: TopologyGraph) -> None:
        self._graph = graph

    def topology(self) -> TopologyGraph:
        return self._graph


class ManualClock:
    """A hand-advanced clock for static providers and offline replay."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FrontDoor:
    """What every placement backend does around placing a request: the
    clock, the count and duplicate check that open a request or
    (atomically, after a tick) a batch, the span and SLO sample around a
    request, the release kinds and the standing outcome of every live
    application (and of the last :data:`KEPT_ENDED_OUTCOMES` that ended).

    A bare :class:`TopologyGraph` is served as a static provider on a
    hand-advanced :class:`ManualClock`; any other provider follows its
    simulator, else wall time; an explicit ``clock`` always wins.  A
    backend (:class:`SelectionService`, the shard router) names its
    request span (``_SPAN``) and supplies :meth:`_holds`, ``tick``,
    ``renew``, ``check_invariants`` and its metrics.
    """

    #: The trace span each request runs in.
    _SPAN = ""

    def __init__(
        self,
        provider,
        *,
        lease_s: float,
        clock: Optional[Callable[[], float]],
        tracer,
        registry: Optional[MetricsRegistry],
    ) -> None:
        check_lease(lease_s)
        self._manual_clock: Optional[ManualClock] = None
        if isinstance(provider, TopologyGraph):
            provider = _StaticProvider(provider)
            if clock is None:
                clock = self._manual_clock = ManualClock()
        if clock is None:
            collector = getattr(provider, "collector", None)
            if collector is not None:  # a RemosAPI
                sim = collector.cluster.sim
            else:  # a Cluster (oracle provider), if anything
                sim = getattr(provider, "sim", None)
            clock = (lambda: sim.now) if sim is not None else time.monotonic
        self.provider = provider
        self.clock = clock
        self.lease_s = float(lease_s)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.registry = registry if registry is not None else MetricsRegistry()
        self.metrics = ServiceMetrics(self.registry)
        #: Admit latency and availability objectives (``metrics_snapshot``).
        self.slo = SloMonitor(clock=clock)
        #: Latest standing outcome per application (poll with
        #: :meth:`status`): every live one, and the last
        #: :data:`KEPT_ENDED_OUTCOMES` ended ones.
        self.outcomes: dict[str, PlacementGrant] = {}
        #: The ended outcomes :meth:`_note` wrote, a ring of fixed length
        #: whose next slot (``_ended_at``) holds the oldest.
        self._ended: list[Optional[PlacementGrant]] = \
            [None] * KEPT_ENDED_OUTCOMES
        self._ended_at = 0
        #: RecoveryReport when the ledgers were restored from a state dir.
        self.recovery = None

    # -- time -----------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.clock()

    def advance(self, dt: float) -> None:
        """Advance the manual clock (static-provider mode only), then tick."""
        if self._manual_clock is None:
            raise RuntimeError(
                "advance() only applies to the manual clock; this backend "
                "follows its provider's simulator"
            )
        # NaN or infinity would stamp every later grant's deadline with
        # it (and the WAL with a lease that never lapses).
        if not (dt >= 0 and math.isfinite(dt)):
            raise ValueError(f"dt must be non-negative and finite: {dt}")
        self._manual_clock.now += dt
        self.tick()

    def _catch_up(self, latest: float) -> None:
        """Never restart behind recovered grants: a replayed lease was
        granted at a simulated time a fresh manual clock has not reached."""
        if self._manual_clock is not None and latest > self._manual_clock.now:
            self._manual_clock.now = latest

    # -- the way in -------------------------------------------------------------
    def _holds(self, app_id: str) -> bool:
        """Whether ``app_id`` has a live request (a lease or a queue slot)."""
        raise NotImplementedError

    def _open_request(self, app_id: str) -> None:
        """Count one admission attempt and refuse an ``app_id`` that
        already has a live request (the caller has ticked)."""
        self.metrics.requests += 1
        if self._holds(app_id):
            raise ValueError(
                f"application {app_id!r} already has a live request; "
                "release() it first"
            )

    def _open_batch(self, requests: Sequence[BatchRequest]) -> list:
        """A tick, then :meth:`_open_request` for a whole batch,
        atomically: a duplicate ``app_id`` in the batch or against a live
        request raises ``ValueError`` before anything is counted or
        admitted."""
        batch = list(iter_batch(requests))
        if not batch:
            return batch
        self.tick()
        for b in batch:
            if self._holds(b.app_id):
                raise ValueError(
                    f"application {b.app_id!r} already has a live request; "
                    "release() it first (no request from this batch was "
                    "admitted)"
                )
        self.metrics.requests += len(batch)
        self.metrics.batches += 1
        self.metrics.batch_requests += len(batch)
        return batch

    def _serve(self, place: Callable, args: tuple, **attrs) -> PlacementGrant:
        """``place(*args)`` as one request: inside its ``_SPAN`` span
        (``attrs``, then the outcome) when tracing, and timed into the
        SLO sample.  A queued request counts as available: it is parked,
        not refused."""
        t0 = perf_counter()
        if not self.tracer.enabled:
            grant = place(*args)
        else:
            with self.tracer.span(self._SPAN, **attrs) as span:
                grant = place(*args)
                span.set(**self._span_outcome(grant))
        self.slo.observe_request(
            perf_counter() - t0, ok=grant.status != Decision.REJECTED,
        )
        return grant

    def _span_outcome(self, grant: PlacementGrant) -> dict:
        """The attributes a request span closes with."""
        return {"outcome": grant.status}

    # -- releases and outcomes ----------------------------------------------------
    def _release_status(self, kind: str) -> str:
        """The outcome status of release ``kind`` (one of the ledger's
        :data:`~repro.service.CAPACITY_RETURNING_KINDS`)."""
        status = _STATUS_BY_RELEASE_KIND.get(kind)
        if status is None:
            raise ValueError(
                f"unknown release kind {kind!r}; expected one of "
                f"{sorted(_STATUS_BY_RELEASE_KIND)}"
            )
        return status

    def _note(self, grant: PlacementGrant) -> PlacementGrant:
        """Make ``grant`` its application's standing outcome and count it
        on the metrics counter its status names: the one way an outcome
        is recorded.  Only an admitted outcome is written otherwise:
        restored by WAL recovery (not counted), or rewritten by a renewal
        or a migration (counted on ``renewed`` / ``migrations``).

        An ended outcome takes the ring slot of the oldest one kept,
        which is forgotten unless its application has an outcome since:
        O(1), nothing allocated."""
        outcomes = self.outcomes
        outcomes[grant.app_id] = grant
        if grant.status not in _LIVE_STATUSES:
            at = self._ended_at
            oldest = self._ended[at]
            if oldest is not None and outcomes.get(oldest.app_id) is oldest:
                del outcomes[oldest.app_id]
            self._ended[at] = grant
            self._ended_at = at + 1 if at + 1 < KEPT_ENDED_OUTCOMES else 0
        metrics = self.metrics
        setattr(metrics, grant.status, getattr(metrics, grant.status) + 1)
        return grant

    def status(self, app_id: str) -> PlacementGrant:
        """The standing outcome for ``app_id`` (admitted apps stay
        admitted); ``KeyError`` once it ended and
        :data:`KEPT_ENDED_OUTCOMES` others ended after it."""
        try:
            return self.outcomes[app_id]
        except KeyError:
            raise KeyError(f"unknown application {app_id!r}") from None


def _untimed(_name: str, start: float, **_attrs) -> float:
    """The stage hook of a walker that keeps no stage timers."""
    return start


class SelectionService(FrontDoor):
    """Admission-controlled node selection for concurrent applications.

    Parameters
    ----------
    provider:
        Topology source: a :class:`~repro.remos.RemosAPI`, a
        :class:`~repro.network.Cluster` (oracle), or a static
        :class:`TopologyGraph` (offline replay — the service then runs on
        a manual clock, advanced with :meth:`advance`).
    snapshot_ttl:
        Seconds a cached topology sweep stays fresh.
    lease_s:
        Lease duration granted at admission and on each renewal.
    queue_limit:
        Bound on the admission queue (0: never queue, reject instead).
    clock:
        Override the time source (defaults to the provider's simulator
        when it has one, else a manual clock for static graphs).
    tracer:
        A :class:`repro.obs.Tracer` for per-request trace trees.  Default
        is the shared null tracer (tracing off, near-zero overhead).
    registry:
        A :class:`repro.obs.MetricsRegistry` to export into.  Each
        service builds its own by default (callback instruments bind to
        one live instance); pass a shared registry — e.g.
        ``repro.obs.REGISTRY`` — to scrape several services at once.
    state_dir:
        Durability directory.  When set, the ledger is **recovered**
        from the directory's snapshot + write-ahead log at construction
        (``service.recovery`` reports what was restored) and every
        subsequent ledger mutation is logged through an attached
        :class:`~repro.service.LedgerWal` — a crashed service restarts
        without losing leases.  Call :meth:`close` (or
        :meth:`flush_state`) for a final compacted snapshot.
    wal_fsync:
        Force every WAL append to stable storage (power-loss
        durability; default off — flush-to-OS survives process crashes).
    wal_snapshot_every:
        WAL records between compacted snapshots.
    preempt:
        Enable priority preemption: a **gold** request that is
        infeasible on residual capacity may reclaim the cheapest set of
        bronze (then silver) leases whose release makes it feasible.
        Victims are never gold, and nothing is evicted unless the
        reclamation actually yields feasibility.  The victims are
        released (kind ``"preempt"``) and the gold request admitted in
        the same call.
    """

    _SPAN = "service.request"

    def __init__(
        self,
        provider,
        *,
        snapshot_ttl: float = 5.0,
        lease_s: float = 60.0,
        queue_limit: int = 16,
        clock: Optional[Callable[[], float]] = None,
        tracer=None,
        registry: Optional[MetricsRegistry] = None,
        state_dir: Optional[str] = None,
        wal_fsync: bool = False,
        wal_snapshot_every: int = 256,
        preempt: bool = False,
    ) -> None:
        super().__init__(
            provider, lease_s=lease_s, clock=clock, tracer=tracer,
            registry=registry,
        )
        self.preempt = bool(preempt)
        self.wal: Optional[LedgerWal] = None
        if state_dir is not None:
            # Durability first: the WAL sees every mutation before any
            # derived state (overlay, metrics) reacts to it.
            self.ledger, self.wal = open_ledger(
                state_dir, snapshot_every=wal_snapshot_every,
                fsync=wal_fsync,
            )
            self.recovery = self.ledger.recovery
        else:
            self.ledger = ReservationLedger()
        self.cache = SnapshotCache(
            self.provider, ttl=snapshot_ttl, clock=self.clock,
            tracer=self.tracer,
        )
        self.selector = NodeSelector(self.cache)
        self.queue = AdmissionQueue(queue_limit)
        #: Nodes an attached injector reported crashed and not yet
        #: recovered.  Ground truth that outruns the monitor: the collector
        #: only notices a dead host after missed polls, but the service
        #: must not place work there in the meantime.
        self._known_down: set[str] = set()
        #: The live residual overlay, re-based or rebuilt lazily by
        #: :meth:`_residual`; ``_view_key`` is the ``(snapshot epoch,
        #: invalidations)`` it is current for.  Every change of
        #: ``_known_down`` follows an invalidation (:meth:`attach_injector`),
        #: so the key moves with the down set.
        self._view: Optional[ResidualView] = None
        self._view_key: Optional[tuple] = None
        #: Bumped whenever capacity may have *increased*: a release
        #: (explicit, expiry, or eviction), a node recovery, or a fresh
        #: snapshot.  ``_drain_queue`` skips requests that already failed
        #: at the current epoch — an identical attempt would fail
        #: identically.
        self._residual_epoch = 0
        #: Route cache counters harvested from retired residual
        #: views (the live view's counters reset at each rebuild; totals
        #: here keep the registry's counters monotone).
        self._view_totals = {"route_hits": 0, "route_misses": 0}
        #: The spec each live lease was admitted with — proactive
        #: migration re-runs selection with the original shape.  Entries
        #: drop when the ledger returns the capacity.  (WAL-recovered
        #: leases have no spec on file; migration falls back to a
        #: same-size plain spec.)
        self._live_specs: dict[str, ApplicationSpec] = {}
        #: Collector push subscription (see :meth:`enable_push`).
        self._push_unsub: Optional[Callable[[], None]] = None
        self._advisor = None
        if state_dir is not None:
            for app_id, r in self.ledger.reservations.items():
                self.outcomes[app_id] = Grant(
                    app_id=app_id,
                    status=Decision.ADMITTED,
                    reservation=r,
                    reason="recovered from WAL",
                )
            self._catch_up(max(
                (r.granted_at for r in self.ledger.reservations.values()),
                default=0.0,
            ))
            logger.info(
                "recovered %d leases from WAL (%d records, snapshot seq "
                "%d%s)",
                self.recovery.leases, self.recovery.records,
                self.recovery.snapshot_seq,
                ", torn tail dropped" if self.recovery.truncated_tail
                else "",
            )
        self.ledger.subscribe(self._on_ledger_event)
        self._bind_registry()
        self.slo.bind(self.registry)

    # -- metrics registry ------------------------------------------------------
    def _kernel_stat(self, key: str, live) -> float:
        """Harvested total for ``key`` plus the live view's counter."""
        total = self._view_totals[key]
        if self._view is not None:
            total += live(self._view)
        return float(total)

    def _harvest_view_stats(self, view: ResidualView) -> None:
        t = self._view_totals
        t["route_hits"] += view.routes.hits
        t["route_misses"] += view.routes.misses

    def _ledger_headroom(self, resource: str) -> float:
        util = self.ledger.utilization()
        if resource == "cpu":
            return max(0.0, 1.0 - util["max_node_claim"])
        return max(0.0, 1.0 - util["max_edge_claim_fraction"])

    def _bind_registry(self) -> None:
        """Export snapshot/kernel/ledger/admission instruments.

        Everything here is callback-backed — collection-time reads of
        counters the hot path already maintains, costing the request
        path nothing.  (The service's own counters and stage histograms
        are registered by its :class:`ServiceMetrics`.)
        """
        reg = self.registry
        cache = self.cache
        reg.counter("repro_snapshot_cache_hits_total",
                    "Topology queries answered from the snapshot cache.",
                    fn=lambda: float(cache.hits))
        reg.counter("repro_snapshot_cache_misses_total",
                    "Topology queries that swept the provider.",
                    fn=lambda: float(cache.misses))
        reg.counter("repro_snapshot_cache_coalesced_total",
                    "Same-instant queries coalesced onto one sweep.",
                    fn=lambda: float(cache.coalesced))
        reg.counter("repro_snapshot_cache_invalidations_total",
                    "Snapshots dropped by fault/recovery events.",
                    fn=lambda: float(cache.invalidations))
        reg.gauge("repro_snapshot_epoch",
                  "Snapshot generation counter.",
                  fn=lambda: float(cache.epoch))
        reg.gauge("repro_snapshot_age_seconds",
                  "Age of the cached snapshot (+Inf when empty).",
                  fn=lambda: cache.age)
        reg.counter("repro_kernel_route_cache_hits_total",
                    "Node-set route lookups answered from the route memo.",
                    fn=lambda: self._kernel_stat(
                        "route_hits", lambda v: v.routes.hits))
        reg.counter("repro_kernel_route_cache_misses_total",
                    "Node-set route lookups that ran BFS.",
                    fn=lambda: self._kernel_stat(
                        "route_misses", lambda v: v.routes.misses))
        reg.gauge("repro_ledger_active_leases",
                  "Live reservations by priority class.",
                  labels={"class": "all"},
                  fn=lambda: float(self.ledger.active))
        for cls in Priority.ALL:
            reg.gauge(
                "repro_ledger_active_leases",
                "Live reservations by priority class.",
                labels={"class": cls},
                fn=(lambda c=cls: float(sum(
                    1 for r in self.ledger.reservations.values()
                    if r.priority == c
                ))),
            )
        for resource in ("cpu", "bandwidth"):
            reg.gauge(
                "repro_ledger_residual_headroom_fraction",
                "Residual headroom on the busiest claimed resource.",
                labels={"resource": resource},
                fn=(lambda r=resource: self._ledger_headroom(r)),
            )
        reg.gauge("repro_admission_queue_depth",
                  "Requests waiting in the admission queue.",
                  fn=lambda: float(len(self.queue)))
        reg.gauge("repro_admission_queue_limit",
                  "Bound on the admission queue.",
                  fn=lambda: float(self.queue.limit))
        self.metrics.gauge(
            "known_down_nodes", "repro_service_known_down_nodes",
            "Nodes the injector reported crashed and not recovered.",
            lambda: len(self._known_down),
        )
        for cls in Priority.ALL:
            reg.counter(
                "repro_service_preemptions_total",
                "Leases preempted, by their priority class.",
                labels={"class": cls},
                fn=(lambda c=cls: float(
                    self.metrics.preempted_by_class.get(c, 0)
                )),
            )

    # -- the request path -------------------------------------------------------
    def request(
        self,
        app_id: str,
        spec: ApplicationSpec,
        *,
        cpu_fraction: float = 0.0,
        bw_bps: float = 0.0,
        priority: str = Priority.SILVER,
        explain: bool = False,
    ) -> Grant:
        """Ask for a placement; returns an admitted/queued/rejected grant.

        ``cpu_fraction`` and ``bw_bps`` are the capacity claims debited
        from the shared pool while the lease lives.  A queued request is
        retried automatically whenever capacity frees up; poll
        :meth:`status` for its standing outcome.

        ``explain=True`` attaches provenance to the grant (see
        :attr:`Grant.explain`): for admissions, the peel sequence and the
        bottleneck edge on the residual view the decision ran against;
        for queued/rejected requests, the failing pipeline stage.

        The front door around :meth:`admit`, shaped like the router's:
        the claim is checked before anything moves, then a tick, then
        the admission inside the request's span and SLO sample.
        """
        check_request(app_id, cpu_fraction=cpu_fraction, bw_bps=bw_bps,
                      priority=priority)
        self.tick()
        return self._serve(
            self.admit,
            (app_id, spec, cpu_fraction, bw_bps, priority, explain),
            app=app_id, m=spec.num_nodes, priority=priority,
        )

    def _holds(self, app_id: str) -> bool:
        return app_id in self.ledger.reservations or app_id in self.queue

    def admit(
        self, app_id: str, spec: ApplicationSpec, cpu_fraction: float = 0.0,
        bw_bps: float = 0.0, priority: str = Priority.SILVER,
        explain: bool = False,
    ) -> Grant:
        """:meth:`request` without its front door: count the attempt,
        refuse an ``app_id`` already held, place and record the outcome.
        No tick, no request span, no SLO sample: the shard router reaches
        a shard here, having ticked and opened the request itself."""
        req = SelectionRequest(app_id, spec, cpu_fraction, bw_bps, priority,
                               submitted_at=self.now, explain=explain)
        self._open_request(app_id)
        grant = self._admit_serial(req)
        if grant is not None:
            self._record_admit(req, grant)
            return grant
        return self._settle_failure(req)

    def _admit_serial(self, req: SelectionRequest) -> Optional[Grant]:
        """The exact one-request admission attempt (+ gold preemption)."""
        grant = self._try_admit(req)
        if (
            grant is None
            and self.preempt
            and req.priority == Priority.GOLD
        ):
            grant = self._preempt_for(req)
        return grant

    def _record_admit(self, req: SelectionRequest, grant: Grant) -> None:
        """Bookkeeping shared by every successful admission path."""
        self._note(grant)
        self._live_specs[req.app_id] = req.spec

    def _settle_failure(self, req: SelectionRequest) -> Grant:
        """Queue (or reject) a request admission could not place.

        The shared failure tail of :meth:`admit` and
        :meth:`admit_batch`: offer the request to the bounded priority
        queue, handling displacement, and record the standing outcome.
        """
        # Recorded *after* the attempt: the attempt itself can advance the
        # epoch (a fresh snapshot rebuilds the view), and that newer epoch
        # is the one this failure was measured against.
        req.last_failed_epoch = self._residual_epoch
        displaced = self.queue.offer(req)
        record = self._explain_failure(req) if req.explain else None
        if displaced is req:
            return self._note(Grant(
                app_id=req.app_id,
                status=Decision.REJECTED,
                reason="infeasible on residual capacity and queue full",
                explain=record,
            ))
        if displaced is not None:
            self.metrics.queue_displaced += 1
            self._note(Grant(
                app_id=displaced.app_id,
                status=Decision.REJECTED,
                reason="displaced from queue by higher priority",
            ))
        return self._note(Grant(
            app_id=req.app_id,
            status=Decision.QUEUED,
            reason="waiting for capacity",
            explain=record,
        ))

    def _explain_failure(self, req: SelectionRequest):
        """Rejection provenance from the request's last failed attempt."""
        from ..obs.explain import explain_rejection

        age = self.cache.age
        return explain_rejection(
            req.last_reason or "infeasible on residual capacity",
            snapshot_epoch=self.cache.epoch,
            snapshot_age_s=age if age != float("inf") else None,
        )

    def _capacity_view(
        self, graph: TopologyGraph, without: Sequence[Reservation] = ()
    ) -> TopologyGraph:
        """Residual capacity plus injector-reported crashes (a copy).

        The naive O(V+E) rebuild: full graph copy and re-debit of every
        claim.  The hot path runs on :meth:`_residual`'s overlay; this,
        with ``without``, is the *trial* residual preemption planning
        and migration place on: capacity as it would read once those
        leases were released.
        """
        g = self.ledger.apply(graph, without)
        for name in self._known_down:
            if g.has_node(name):
                g.node(name).attrs["down"] = True
        return g

    def _on_ledger_event(self, kind: str, reservation: Reservation) -> None:
        """Ledger subscription: tell the overlay of the claim move (a
        grant is refreshed at the overlay's next read, a release at
        once unless its grant is still unread) and keep the books."""
        if self._view is not None:
            self._view.on_ledger_event(kind, reservation)
        if kind in CAPACITY_RETURNING_KINDS:
            self._live_specs.pop(reservation.app_id, None)
            self._residual_epoch += 1
            if kind == "preempt":  # every preempt path ends here
                by_class = self.metrics.preempted_by_class
                cls = reservation.priority
                by_class[cls] = by_class.get(cls, 0) + 1

    def _residual(self, base: TopologyGraph) -> ResidualView:
        """The overlay admission runs on, O(Δ)-maintained: the live
        view, moved to a new snapshot by re-basing over what the
        snapshot says it replaced, and rebuilt only without such a delta
        or after an invalidation (which every known-down change follows).

        Its :attr:`~ResidualView.graph` is not read here: a placement
        the selection memo answers never reads it, so claim moves it
        has not caught up with wait for the next reader."""
        view = self._view
        key = (self.cache.epoch, self.cache.invalidations)
        if view is not None and view.base is base and self._view_key == key:
            return view
        moved = None
        if (
            view is not None
            and self._view_key[1] == key[1]
            and base.measurement is not None
        ):
            moved = base.measurement.delta_from(view.base.measurement)
        if moved is not None:
            view.rebase(base, *moved)
        else:
            if view is not None:
                # The retiring view's cache counters feed the registry's
                # monotone kernel totals.
                self._harvest_view_stats(view)
            view = self._view = ResidualView(
                base, self.ledger, down=self._known_down
            )
            self.metrics.view_rebuilds += 1
        self._view_key = key
        # A fresh snapshot can carry newly measured capacity.
        self._residual_epoch += 1
        return view

    def _verify_claims(
        self,
        req: SelectionRequest,
        graph: TopologyGraph,
        nodes: Sequence[str],
        view: Optional[ResidualView] = None,
    ) -> tuple[bool, Optional[Collection]]:
        """Check the claims fit ``graph``'s capacity on ``nodes``;
        returns ``(fits, edges)`` — the routed channels, ``None`` when
        infeasible or no bandwidth claim.  ``view`` is the overlay
        ``graph`` belongs to (its route cache answers, in ledger order,
        and its channel table resolves the links); a trial graph routes
        and resolves on itself."""
        for name in nodes:
            if graph.node(name).cpu + _EPS < req.cpu_fraction:
                return False, None
        edges = None
        if req.bw_bps > 0:
            if view is not None:
                edges, channels = view.routes.edges_for(nodes), view.channels
            else:
                edges = route_edges(graph, nodes)
                channels = ChannelTable(graph, graph)
            bw = req.bw_bps
            for edge in edges:
                link, towards_v, _base = channels[edge]
                available = (
                    link.available if towards_v is None  # a shared channel
                    else link.available_fwd if towards_v else link.available_rev
                )
                if available + _EPS < bw:
                    return False, None
        return True, edges

    def _place(
        self,
        req: SelectionRequest,
        view: Optional[ResidualView],
        trial: Optional[TopologyGraph] = None,
        *,
        memo: bool = False,
        stage=_untimed,
    ) -> tuple[Optional[Selection], Optional[Collection], str]:
        """The one read-only placement every walker runs.

        (Memo lookup) → effective spec → select → claim-verify on the
        live overlay ``view`` (its graph read only after a memo miss) or
        on a ``trial`` residual (``view`` ``None``).  Returns
        ``(selection, edges, reason)`` with ``selection`` ``None`` and
        ``reason`` set when infeasible; nothing is debited or recorded
        on the request.

        ``memo`` consults and feeds the view's selection memo: on one
        base snapshot the whole placement — selection, routed channels
        and claim-check outcome — is a pure function of the spec, the
        request's two claims and the exact claim state (the down set is
        fixed for the view's lifetime, and a re-base empties the memo),
        infeasibility included.  An entry is found by the spec, the two
        claims and the two claim counts, O(1), and answers only when
        the claim totals it was stored with equal the ledger's;
        otherwise it is overwritten.  A hit answers without folding the
        spec, routing or checking a claim, and counts on the view's
        ``selection_hits``.  ``stage`` receives the ``select`` /
        ``claim_verify`` stage boundaries.  Serial admission passes
        both, probes ``memo`` alone, trials neither.
        """
        start = perf_counter()
        if memo:
            selections, ledger = view.selections, self.ledger
            if not req.spec_key:
                req.spec_key = repr(req.spec)
            sel_key = (
                req.spec_key, req.cpu_fraction, req.bw_bps,
                *ledger.claim_counts(),
            )
            entry = selections.get(sel_key)
            if entry is not None and ledger.same_claims(entry[0], entry[1]):
                view.selection_hits += 1
                kept, routed = entry[2], entry[3]
                if kept is None:  # proven infeasible at this claim state
                    stage("select", start, memo="negative-hit")
                    return None, None, _MEMO_INFEASIBLE
                start = stage("select", start, nodes=len(kept.nodes))
                stage("claim_verify", start)
                if routed is None:
                    return None, None, _CLAIMS_EXCEED
                return _copy_selection(kept), routed[0], ""
        graph = trial if view is None else view.graph
        spec = req.effective_spec or req.fold()
        try:
            selection = self.selector.select(spec, graph)
        except NoFeasibleSelection as exc:
            stage("select", start, infeasible=str(exc))
            if memo:
                self._remember(selections, sel_key, None, None)
            return None, None, f"no feasible selection: {exc}"
        start = stage("select", start, nodes=len(selection.nodes))
        fits, edges = self._verify_claims(req, graph, selection.nodes, view)
        stage("claim_verify", start)
        if memo:
            self._remember(
                selections, sel_key, _copy_selection(selection),
                (edges,) if fits else None,
            )
        if not fits:
            return None, None, _CLAIMS_EXCEED
        return selection, edges, ""

    def _remember(self, selections: dict, key: tuple, selection, routed):
        """File a placement under ``key`` with the claim state it holds
        at (the memo is cleared wholesale when full)."""
        if len(selections) >= _SELECTION_MEMO_LIMIT:
            selections.clear()
        selections[key] = (*self.ledger.claims_without(), selection, routed)

    def _commit(
        self,
        req: SelectionRequest,
        selection: Selection,
        edges,
        base: TopologyGraph,
        stage=_untimed,
        expires_at: Optional[float] = None,
    ) -> Optional[Grant]:
        """The one commit tail: reserve a verified placement, grant it
        (lapsing ``lease_s`` from now, or at a moved lease's
        ``expires_at``).

        A :class:`LedgerError` — claims fit measured availability but
        not the ledger caps, e.g. measured idle capacity on an already
        fully-claimed node — is treated exactly like infeasibility
        (``None``, with ``req.last_reason`` saying so).  An explain
        record is read off the overlay before the reservation debits
        it — the capacity the decision ran against — and attached only
        to a grant.
        """
        explain_record = None
        if req.explain:
            from ..obs.explain import explain_selection

            age = self.cache.age
            explain_record = explain_selection(
                self._view.graph,
                selection,
                refs=References(
                    compute_priority=req.spec.compute_priority,
                    comm_priority=req.spec.comm_priority,
                ),
                snapshot_epoch=self.cache.epoch,
                snapshot_age_s=age if age != float("inf") else None,
            )
        start = perf_counter()
        try:
            reservation = self.ledger.reserve(
                req.app_id,
                selection.nodes,
                cpu_fraction=req.cpu_fraction,
                bw_bps=req.bw_bps,
                graph=base,
                now=self.now,
                lease_s=self.lease_s,
                priority=req.priority,
                edges=edges,
                expires_at=expires_at,
            )
        except LedgerError as exc:
            stage("ledger_commit", start, error=str(exc))
            req.last_reason = f"ledger caps exceeded: {exc}"
            return None
        stage("ledger_commit", start)
        if explain_record is not None:
            selection.extras[ExtrasKey.EXPLAIN] = explain_record
        return Grant(
            app_id=req.app_id,
            status=Decision.ADMITTED,
            selection=selection,
            reservation=reservation,
            explain=explain_record,
        )

    def _stage(self, name: str, start: float, **attrs) -> float:
        """Close pipeline stage ``name``, opened at ``start``: feed its
        :attr:`ServiceMetrics.stages` histogram (``repro-serve --profile``
        reads the p50/p95/p99 summaries) and, with tracing on, a
        ``stage.*`` span.  Returns the end time, the next stage's start."""
        end = perf_counter()
        self.metrics.observe_stage(name, end - start)
        if self.tracer.enabled:
            self.tracer.record(f"stage.{name}", start, end, **attrs)
        return end

    def _try_admit(
        self, req: SelectionRequest, expires_at: Optional[float] = None
    ) -> Optional[Grant]:
        """One admission attempt on current residual capacity: place on
        the live overlay (memo, stage timers, spans), then commit."""
        tracer = self.tracer
        if not tracer.enabled:
            return self._try_admit_inner(req, expires_at)
        with tracer.span(
            "service.admit", app=req.app_id, priority=req.priority,
        ) as span:
            grant = self._try_admit_inner(req, expires_at)
            span.set(
                outcome="admitted" if grant is not None else "infeasible"
            )
            if grant is None and req.last_reason:
                span.set(reason=req.last_reason)
            return grant

    def _try_admit_inner(
        self, req: SelectionRequest, expires_at: Optional[float] = None
    ) -> Optional[Grant]:
        stage = self._stage
        start = perf_counter()
        base = self.cache.topology()
        start = stage("snapshot_fetch", start)
        view = self._residual(base)
        stage("residual_view", start)
        hits = view.selection_hits
        selection, edges, reason = self._place(
            req, view, memo=True, stage=stage
        )
        if view.selection_hits != hits:  # the memo answered this admission
            self.metrics.select_memo_hits += 1
            if reason == _MEMO_INFEASIBLE:
                self.metrics.select_memo_negative_hits += 1
        if selection is None:
            req.last_reason = reason
            return None
        return self._commit(req, selection, edges, base, stage, expires_at)

    def probe(
        self,
        spec: ApplicationSpec,
        *,
        cpu_fraction: float = 0.0,
        bw_bps: float = 0.0,
    ) -> Optional[Selection]:
        """Read-only admission check: the selection this service *would*
        admit right now, or ``None`` when the request is infeasible.

        Runs the same placement as :meth:`admit` on the live overlay,
        selection memo included, but commits nothing: no ledger
        mutation, no queueing, no outcome, no counters (a memo hit
        counts on the view's ``selection_hits`` only).  An entry
        answers only at the exact claim state it was stored on, so a
        hit is the selection the kernel would return, and a miss leaves
        an entry a later admission or probe at that state finds.  The
        shard router's two-phase cross-shard grant probes every shard
        first, so a composite admission that cannot complete never has
        partial claims to roll back, then commits each part through
        :meth:`admit`, which the entry its probe filed answers.
        """
        view = self._residual(self.cache.topology())
        req = SelectionRequest(
            app_id="__probe__",
            spec=spec,
            cpu_fraction=cpu_fraction,
            bw_bps=bw_bps,
            submitted_at=self.now,
        )
        return self._place(req, view, memo=True)[0]

    # -- batched admission --------------------------------------------------------
    def _plannable(self, req: SelectionRequest) -> bool:
        """Whether the greedy batch planner may place this request: it
        only understands claim floors on plain fixed-size specs, so
        anything else (or a request wanting provenance) runs the exact
        serial pipeline instead."""
        return (
            not req.explain
            and req.spec.eligible is None
            and plain_spec(req.spec)
        )

    def admit_batch(self, requests: Sequence[BatchRequest]) -> list[Grant]:
        """Admit a whole arrival batch; returns per-request grants in order.

        Amortizes the admission pipeline across the batch: one
        :meth:`tick`, one snapshot fetch and one residual view serve every
        request.  The first request (and any request the greedy planner
        cannot place — non-plain specs, contended capacity) runs the
        exact serial pipeline; the rest are packed by a claim-aware greedy
        planner reading the live residual overlay, which the ledger
        updates in place after each commit.

        A batch of one is **bit-identical** to :meth:`request`: it takes
        the serial path with the same selector, memo, and ledger
        arithmetic.

        Validation is atomic — a duplicate ``app_id`` within the batch
        or against a live lease/queue entry raises ``ValueError`` with
        *nothing* admitted.  Admission is **not** atomic: each request
        settles individually (admit / queue / reject), and an infeasible
        tail never rolls back an already-admitted head (see DESIGN.md
        §15 for the non-guarantees).
        """
        batch = self._open_batch(requests)
        now = self.now
        reqs = [
            SelectionRequest(
                app_id=b.app_id, spec=b.spec, cpu_fraction=b.cpu_fraction,
                bw_bps=b.bw_bps, priority=b.priority, submitted_at=now,
            )
            for b in batch
        ]
        grants: list[Grant] = []
        planner: Optional[_BatchPlanner] = None
        for i, req in enumerate(reqs):
            grant = None
            if i > 0 and self._plannable(req):
                if planner is None or planner.outdated():
                    # First planned request, or the view was rebuilt or
                    # re-based mid-batch (a serial fallback swept a
                    # fresh snapshot) — (re)build the candidate pool.
                    planner = _BatchPlanner(self)
                t0 = perf_counter()
                grant = planner.try_admit(req)
                self.metrics.observe_stage("batch_plan", perf_counter() - t0)
                if grant is not None:
                    self.metrics.batch_planned += 1
                else:
                    self.metrics.batch_fallbacks += 1
            if grant is None:
                grant = self._admit_serial(req)
            if grant is not None:
                self._record_admit(req, grant)
                grants.append(grant)
            else:
                grants.append(self._settle_failure(req))
        return grants

    # -- priority preemption ------------------------------------------------------
    def _preempt_cost(self, r: Reservation) -> float:
        """Cheapness order for victims: how much capacity eviction frees.

        A coarse scalar — CPU claim summed over the reservation's nodes
        plus its bandwidth claim summed over its routed channels (scaled
        to commodity-link units so neither term swamps the other).  Used
        only to rank victims within a priority class; correctness comes
        from the trial-feasibility check, not from this estimate.
        """
        return (
            r.cpu_fraction * len(r.nodes)
            + r.bw_bps * len(r.edges) / 1e8
        )

    def _plan_preemption(
        self, req: SelectionRequest, base: TopologyGraph
    ) -> Optional[list[Reservation]]:
        """The cheapest victim set whose reclamation admits ``req``.

        Candidates are every non-gold lease, ordered bronze before silver
        and cheapest first within a class.
        Victims are accumulated greedily: after each addition the request
        is re-placed on a *trial* residual with the victims' claims
        credited back by :meth:`ReservationLedger.release`'s own
        arithmetic, so trial feasibility equals post-eviction
        feasibility.  Returns ``None`` when even evicting every
        candidate leaves the request infeasible (nothing is evicted
        uselessly).
        """
        candidates = [
            r for r in self.ledger.reservations.values()
            if r.priority != Priority.GOLD
        ]
        candidates.sort(
            key=lambda r: (
                -Priority.RANK[r.priority],
                self._preempt_cost(r),
                r.app_id,
            )
        )
        for n in range(1, len(candidates) + 1):
            victims = candidates[:n]
            trial = self._capacity_view(base, without=victims)
            if self._place(req, None, trial)[0] is not None:
                return victims
        return None

    def _preempt_for(self, req: SelectionRequest) -> Optional[Grant]:
        """Admit an infeasible gold request by reclaiming lesser leases.

        Plans first, commits only on a feasible plan: no lease is touched
        unless the planned evictions provably admit ``req``.  The victims
        are released and the gold request is admitted in this same call.
        """
        base = self.cache.topology()
        victims = self._plan_preemption(req, base)
        if victims is None:
            req.last_reason = (
                "infeasible even after preempting all lower-priority leases"
            )
            return None
        with self.tracer.span(
            "service.preempt",
            app=req.app_id,
            victims=",".join(v.app_id for v in victims),
            n_victims=len(victims),
        ):
            for v in victims:
                logger.warning(
                    "lease preempted: app=%r class=%s by=%r",
                    v.app_id, v.priority, req.app_id,
                )
                self.ledger.release(v.app_id, kind="preempt")
                self._note(Grant(
                    app_id=v.app_id,
                    status=Decision.PREEMPTED,
                    reason=f"preempted for gold request {req.app_id!r}",
                ))
            grant = self._try_admit(req)
        if grant is None:  # pragma: no cover - planning guarantees success
            logger.error(
                "preemption plan for %r freed capacity but admission "
                "still failed", req.app_id,
            )
        return grant

    # -- lease lifecycle ---------------------------------------------------------
    def release(self, app_id: str, *, kind: str = "release") -> Grant:
        """Give back ``app_id``'s capacity (or withdraw its queued request).

        ``kind`` labels the ledger record and the standing outcome — one
        of :data:`~repro.service.CAPACITY_RETURNING_KINDS` (``release``,
        ``expire``, ``evict``, ``preempt``); operators evicting on behalf
        of a dead client pass ``kind="evict"`` so the WAL and metrics
        say what actually happened.
        """
        status = self._release_status(kind)
        if self.queue.remove(app_id) is not None:
            grant = Grant(app_id=app_id, status=Decision.RELEASED,
                          reason="withdrawn from queue")
        else:
            self.ledger.release(app_id, kind=kind)  # KeyError when unknown
            grant = Grant(app_id=app_id, status=status)
        self._note(grant)
        self._drain_queue()
        return grant

    def renew(self, app_id: str, *, extend: Optional[float] = None) -> Grant:
        """Extend ``app_id``'s lease; returns the refreshed grant.

        ``extend`` overrides the service's lease duration for this one
        renewal (``None``: the configured ``lease_s``).
        """
        lease = self.lease_s if extend is None else float(extend)
        reservation = self.ledger.renew(app_id, self.now, lease)
        self.metrics.renewed += 1
        prev = self.outcomes.get(app_id)
        grant = Grant(
            app_id=app_id,
            status=Decision.ADMITTED,
            selection=prev.selection if prev is not None else None,
            reservation=reservation,
            reason="renewed",
        )
        self.outcomes[app_id] = grant
        return grant

    def tick(self) -> list[str]:
        """Expire lapsed leases and retry the queue; returns expired apps.

        Called automatically on every request and manual-clock advance;
        simulator-driven deployments can also schedule it periodically
        (``sim.call_in(period, service.tick)``).
        """
        expired = self.ledger.expire(self.now)
        for app_id in expired:
            self._note(Grant(
                app_id=app_id,
                status=Decision.EXPIRED,
                reason="lease lapsed without renewal",
            ))
        if expired:
            self._drain_queue()
        return expired

    def _drain_queue(self) -> None:
        """Re-run admission over the queue in priority order.

        A request that already failed at the current residual epoch is
        skipped outright: no capacity has been returned since, so the
        identical attempt would fail identically.  Releases, expiries,
        evictions, recoveries, and fresh snapshots all advance the epoch
        and re-arm every queued request.
        """
        for req in self.queue.waiting():
            if req.last_failed_epoch == self._residual_epoch:
                self.metrics.drain_skipped += 1
                continue
            grant = self._try_admit(req)
            if grant is None:
                req.last_failed_epoch = self._residual_epoch
                continue  # keep waiting; smaller requests may still fit
            self.queue.remove(req.app_id)
            self._record_admit(req, grant)
            self.metrics.admitted_from_queue += 1

    # -- fault integration ---------------------------------------------------------
    def attach_injector(self, injector) -> None:
        """Subscribe to a :class:`~repro.faults.FaultInjector`.

        Every fault/recovery event invalidates the snapshot cache (the
        network just changed; a pre-event snapshot must not outlive it).
        A node crash additionally force-expires every lease holding that
        node — the service-side half of lease safety: expiry reclaims
        capacity from clients that died silently, eviction reclaims it the
        moment the infrastructure *knows* the node is gone.
        """
        def on_event(_t: float, kind: str, target: str) -> None:
            self.cache.invalidate()
            if kind == "node-recover":
                self._known_down.discard(target)
                self._residual_epoch += 1  # capacity came back
                self._drain_queue()
                return
            if kind != "node-crash":
                return
            self._known_down.add(target)
            for app_id in self.ledger.apps_on_node(target):
                self.ledger.release(app_id, kind="evict")
                # The known-down set has outrun the monitor: make the
                # divergence observable without reading code — one
                # structured WARN line plus the known_down gauge.
                logger.warning(
                    "lease evicted: app=%r node=%r reason=node-crash "
                    "known_down=%d active=%d",
                    app_id, target,
                    len(self._known_down), self.ledger.active,
                )
                self.tracer.event(
                    "service.evict", app=app_id, node=target,
                )
                self._note(Grant(
                    app_id=app_id,
                    status=Decision.EVICTED,
                    reason=f"reserved node {target!r} crashed",
                ))
            self._drain_queue()

        injector.subscribe(on_event)

    def enable_push(self, collector) -> Callable[[], None]:
        """Subscribe to a collector's staleness events (push pipeline).

        Instead of discovering a degrading node at the next TTL sweep,
        the service reacts the moment the
        :class:`~repro.remos.Collector` marks it: every event
        invalidates the snapshot cache; a recovery (``*-fresh``) drains
        the admission queue against the returned capacity; a host going
        stale (``host-stale``) triggers *proactive re-selection* — each
        lease on the degrading host is re-evaluated through the
        :class:`~repro.core.MigrationAdvisor` and moved to a fresh
        placement while the host is still only degraded, instead of
        waiting for the crash-eviction hammer in
        :meth:`attach_injector`.

        Returns the unsubscribe callable; calling it detaches the
        pipeline.  Raises :class:`RuntimeError` if push is already
        enabled (one collector per service).
        """
        if self._push_unsub is not None:
            raise RuntimeError("push pipeline already enabled")
        from ..core.migration import MigrationAdvisor

        self._advisor = MigrationAdvisor(self.selector)

        def on_push(_t: float, kind: str, target: object) -> None:
            self.metrics.push_events += 1
            self.cache.invalidate()
            if kind in ("host-fresh", "channel-fresh"):
                self._residual_epoch += 1  # capacity may be back
                self._drain_queue()
                return
            if kind == "host-stale":
                for app_id in self.ledger.apps_on_node(str(target)):
                    self._migrate_lease(app_id, str(target))

        unsub = collector.subscribe(on_push)

        def disable() -> None:
            unsub()
            self._push_unsub = None

        self._push_unsub = disable
        return disable

    def _migrate_lease(self, app_id: str, node: str) -> bool:
        """Move ``app_id``'s lease off degrading ``node`` (best effort).

        Evaluates the advisor on a *trial* residual with this app's own
        claims credited back by release()'s arithmetic (the
        service-level analogue of the paper's self-footprint correction
        — what a re-admission would actually run against), then
        release-and-readmit pinned to the advisor's candidate.  Any
        failure leaves the lease exactly as it was: an unmovable lease
        simply waits for crash eviction.
        """
        r = self.ledger.reservations.get(app_id)
        if r is None:
            return False
        spec = self._live_specs.get(app_id)
        if spec is None:
            spec = ApplicationSpec(num_nodes=len(r.nodes))
        base = self.cache.topology()  # fresh: the event invalidated it
        trial = self._capacity_view(base, without=[r])
        from ..core.migration import SelfFootprint

        try:
            decision = self._advisor.evaluate(
                spec, r.nodes, SelfFootprint(), graph=trial
            )
        except NoFeasibleSelection:
            return False  # nowhere to go; leave it for eviction
        if not decision.migrate:
            return False
        self.ledger.release(app_id, kind="release")
        pinned = frozenset(decision.candidate.nodes)
        req = SelectionRequest(
            app_id=app_id,
            spec=replace(
                spec,
                num_nodes=len(decision.candidate.nodes),
                num_nodes_range=None,
                eligible=lambda node, _p=pinned: node.name in _p,
            ),
            cpu_fraction=r.cpu_fraction,
            bw_bps=r.bw_bps,
            priority=r.priority,
            submitted_at=self.now,
        )
        # The lease moves; its deadline does not (only renew moves one).
        grant = self._try_admit(req, r.expires_at)
        if grant is None:
            # Put the original lease back as it was, lapsed or not: the
            # next tick expires it if its time is up.
            self.ledger.reserve(
                app_id, r.nodes,
                cpu_fraction=r.cpu_fraction, bw_bps=r.bw_bps,
                graph=base, now=r.granted_at, lease_s=self.lease_s,
                priority=r.priority, edges=r.edges, expires_at=r.expires_at,
            )
            return False
        self.metrics.migrations += 1
        self._live_specs[app_id] = spec  # the original, not the pinned one
        self.outcomes[app_id] = replace(
            grant, reason=f"migrated off degrading node {node!r}"
        )
        logger.warning(
            "lease migrated: app=%r off=%r onto=%r reason=%s",
            app_id, node, list(decision.candidate.nodes), decision.reason,
        )
        self.tracer.event(
            "service.migrate", app=app_id, node=node,
            onto=",".join(decision.candidate.nodes),
        )
        return True

    # -- introspection --------------------------------------------------------------
    def active_apps(self) -> list[str]:
        """Applications currently holding a lease, sorted."""
        return sorted(self.ledger.reservations)

    def check_invariants(self) -> None:
        """Ledger caps + overlay/rebuild bit-identity, in one call."""
        self.ledger.check_invariants(view=self._view)

    @property
    def view(self) -> Optional[ResidualView]:
        """The live residual overlay (``None`` before the first request)."""
        return self._view

    def metrics_snapshot(self) -> dict:
        """Counters plus live cache/ledger/queue gauges and SLO burn."""
        return self.metrics.snapshot(
            cache=self.cache, ledger=self.ledger, queue=self.queue,
            slo=self.slo.evaluate(),
        )

    # -- durability -----------------------------------------------------------------
    def flush_state(self) -> None:
        """Write a compacted snapshot now (no-op without a state dir)."""
        if self.wal is not None:
            self.wal.snapshot()

    def close(self) -> None:
        """Flush a final snapshot and detach the WAL (idempotent)."""
        if self.wal is not None:
            self.wal.close()
            self.wal = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SelectionService {self.ledger.active} leases, "
            f"{len(self.queue)} queued, t={self.now:g}>"
        )


class _BatchPlanner:
    """Claim-aware greedy packer for :meth:`SelectionService.admit_batch`.

    One exact selection per batch is enough to validate the snapshot;
    the remaining plain requests are placed by walking the *live*
    overlay's compute ranking (:class:`~repro.core.kernel.ComputeRanking`,
    the one the floor procedure reads; each commit's grant is refreshed
    into it when the next call reads the overlay) best first.  Per
    request: the candidates down to the ``m``-th
    that fits, one connectivity memo probe per chosen node, and the same
    ledger ``reserve`` every serial admission ends in — the planner only
    replaces the selection, never the claim arithmetic, so its grants
    respect exactly the caps the serial path would.

    The planner is valid for one residual view on one base snapshot;
    ``try_admit`` returns ``None`` (serial fallback) whenever the
    service's view was rebuilt or re-based underneath it, whenever no
    feasible placement exists, or when the ledger refuses the claim —
    the caller then runs the exact pipeline, which also produces the
    authoritative rejection reason.
    """

    def __init__(self, service: SelectionService) -> None:
        base = service.cache.topology()
        self.service = service
        self.base = base
        self.view = service._residual(base)

    def outdated(self) -> bool:
        """Whether the service moved to another overlay, or this one to
        another snapshot (commits must name the snapshot they were
        planned on)."""
        return (
            self.service._view is not self.view
            or self.view.base is not self.base
        )

    def try_admit(self, req: SelectionRequest) -> Optional[Grant]:
        service = self.service
        view = self.view
        if self.outdated():
            return None  # view moved mid-batch; caller rebuilds us
        m = req.spec.num_nodes
        need = req.cpu_fraction
        caps = service.ledger._node_claims
        graph = view.graph
        chosen: list[str] = []
        avail = 0.0
        for neg, name in ComputeRanking.of(graph, DEFAULT_REFERENCES):
            avail = -neg
            if avail + _EPS < need:
                break  # best first: nobody further down has it either
            if (
                caps.get(name, 0.0) + need > 1.0 + _EPS
                or not node_is_selectable(graph.node(name))
                or (chosen and not view.routes.connected(chosen[0], name))
            ):
                continue
            chosen.append(name)
            if len(chosen) == m:
                break
        if len(chosen) < m:
            return None
        fits, edges = service._verify_claims(req, graph, chosen, view)
        if not fits:
            return None
        selection = Selection(  # best first: the last chosen is the worst
            nodes=chosen,
            objective=avail,
            min_cpu_fraction=avail,
            algorithm="batch-greedy",
        )
        # The next call's read of the overlay re-ranks what this commits.
        return service._commit(req, selection, edges, self.base)
