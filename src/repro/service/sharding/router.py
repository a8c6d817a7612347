"""The shard router: per-shard selection services behind one front door.

:class:`ShardRouter` cuts a topology with
:func:`~repro.service.sharding.partition_topology`, runs one
:class:`~repro.service.SelectionService` per shard (each with its own
shard-local snapshot cache, residual view, and epoch — the global
residual sweep the ROADMAP names as the scale wall simply no longer
exists), behind the single service's front door
(:class:`~repro.service.service.FrontDoor`).

Routing:

- **Local requests** (the common case) are admitted by exactly one
  shard's service.  Shards are tried in headroom order; the first
  admission wins.
- **Cross-shard requests** — a request no single shard can host, or one
  asking for fault-domain spread (``spread=N`` places across at least N
  shards) — run a *probe-first two-phase grant*:

  1. **Probe** (read-only): greedily split the node count across shards
     using :meth:`SelectionService.probe`, which mutates no claim (it
     reads and feeds the shard's exact selection memo); then check
     trunk headroom for the bandwidth claim on every boundary channel
     the combined placement routes over.
  2. **Commit**: only after every probe and the trunk check pass, the
     split's one trunk record is reserved, then each part is admitted
     through the shard's :meth:`SelectionService.admit`.  No claim
     moves between the phases, so the selection memo answers it with
     the probed placement (no second select, route or verify); a part
     admitted on any other node set aborts the commit.

  Every *reachable* failure happens in the probe phase, before anything
  is committed — a refused cross-shard request leaves all shard ledgers
  and the trunk ledger **bit-identical** to before the request (float
  release arithmetic is only slack-exact, so "mutate nothing" is the
  only way to guarantee bit-identity; the commit-phase rollback exists
  purely as a defensive measure and logs an error if ever taken, and a
  commit error that is no refusal propagates only once every part is
  given back).

A routed request passes one front door, the router's: it ticks, opens
the request's span and takes its SLO sample.  A shard is reached only
through :meth:`SelectionService.admit`, which counts the attempt on the
shard and places it, with no tick, span or SLO sample of its own; the
router's tick has already expired whatever lapsed at that ``now``.

The trunk ledger (:attr:`ShardRouter.trunk`) is a plain
:class:`~repro.service.ReservationLedger` holding one zero-CPU record
per cross-shard grant, named like the composite and reserved before any
part commits: it names every node of the split and claims the
bandwidth on its trunk channels (links whose ends lie in different
shards; none when the grant claims no bandwidth).  The shard services
account every other channel.  Sub-grants are named ``{app_id}@{shard}``
inside shard services, so a durable router (``state_dir=``) recovers
composites from the per-shard WALs plus the trunk WAL by one rule
(:meth:`ShardRouter._recover_composites`), and
:meth:`ShardRouter.check_invariants` holds the record to the parts.
``repro-serve --shards K`` and ``run_multi_tenant(shards=K)`` expose the
router through the existing entry points.

A router is fixed at birth: :attr:`ShardRouter.plan` is set once, and
the shard ledgers and WAL directories are keyed to it for the router's
life.  Either executor builds the shard services through the one
:func:`~repro.service.sharding.workers.build_shard_services`, from the
one ``service_kwargs`` dict and ``state_dirs`` map made here.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import replace
from time import perf_counter
from typing import Iterable, Optional, Sequence

from ...core.spec import ApplicationSpec
from ...core.types import Selection
from ...obs.metrics import MetricsFederation, MetricsRegistry
from ...topology.graph import TopologyGraph
from ..admission import Decision, Priority, check_request, plain_spec
from ..api import BatchRequest, PlacementGrant
from ..cache import RouteCache, SnapshotCache
from ..ledger import LedgerError, ReservationLedger, ledger_order
from ..service import FrontDoor, SelectionService
from ..wal import RecoveryReport, open_ledger
from .partition import ShardPlan, partition_topology
from .workers import (
    WORKER_ERRORS_HELP,
    WORKER_ERRORS_METRIC,
    InprocExecutor,
    ShardWorkerPool,
    WorkerCrashError,
)

__all__ = ["ShardRouter"]

logger = logging.getLogger("repro.service.sharding")

#: Slack when checking the bandwidth claim against trunk headroom.
_EPS = 1e-9


class _CommitAbort(Exception):
    """A commit-phase admission diverged from its probe (defensive only)."""


class _ShardProvider:
    """One shard's topology source: the router's snapshot, restricted.
    A router snapshot is cut once, so the shard's cache sees a new graph
    only when the router holds a new snapshot.  The cut shares the
    snapshot's node and link objects (:meth:`TopologyGraph.restricted`):
    a shard service reads its snapshot and writes only its overlay, a
    copy, so the shard holds that one copy of its slice."""

    def __init__(self, snapshots: SnapshotCache, members: frozenset) -> None:
        self._snapshots = snapshots
        self._members = members
        self._full: Optional[TopologyGraph] = None
        self._cut: Optional[TopologyGraph] = None

    def topology(self) -> TopologyGraph:
        full = self._snapshots.topology()
        if full is not self._full:
            self._full, self._cut = full, full.restricted(self._members)
        return self._cut


class _TrunkRoutes(RouteCache):
    """The router's route memo on the full graph.  Each ordered pair
    keeps its route's cut: the hops whose ends lie in different shards,
    which are the trunk channels (every link is intra-shard XOR trunk,
    :meth:`ShardPlan.validate`).  So :meth:`edges_between`, the one
    method the router asks, answers trunk channels only, including every
    hop of a route between two shards that crosses a third."""

    def __init__(self, graph: TopologyGraph, shard_of: dict) -> None:
        super().__init__(graph)
        self._shard_of = shard_of

    def _hops(self, path: list[str]) -> tuple:
        shard_of = self._shard_of
        return tuple(
            self._hop(u, v) for u, v in zip(path, path[1:])
            if shard_of[u] != shard_of[v]
        )


class ShardRouter(FrontDoor):
    """One :class:`SelectionService` per shard behind a single request API.

    Parameters
    ----------
    provider:
        Topology source — a static :class:`TopologyGraph` (manual clock),
        a :class:`~repro.remos.RemosAPI`, or a cluster oracle; the same
        protocol :class:`SelectionService` accepts.
    shards:
        Number of shards to cut the topology into (ignored when ``plan``
        is given).
    plan:
        A precomputed :class:`ShardPlan` (optional).  Either way the
        plan is fixed for the router's life.
    spread (per-request, on :meth:`request`):
        Minimum number of shards a placement must span — fault-domain
        spread.  ``1`` (default) prefers a single shard.
    state_dir:
        Durability root.  Shard ``i`` logs under ``state_dir/shard-i``,
        the trunk ledger under ``state_dir/trunk``; a restarted router
        recovers every composite grant from those WALs.
    executor:
        Where the shard services run.  The router reaches them through
        one call surface (``call`` / ``call_many`` / ``tick_all`` /
        ``sync`` / ``drain`` / ``close``) whichever it is: ``"inproc"``
        (default) answers it inside this process
        (:class:`~repro.service.sharding.workers.InprocExecutor`),
        ``"process"`` with a
        :class:`~repro.service.sharding.ShardWorkerPool` of
        ``multiprocessing`` workers (``repro-serve --workers N``), where
        a cross-shard commit's parts run on their workers
        concurrently, a sub-batch is one envelope and releases are
        posted (acked later, see :meth:`ShardWorkerPool.drain`).  The
        pool requires a static :class:`TopologyGraph` provider; grants
        for an identical request stream, serial or batched, are
        bit-identical between the two regardless of worker count.
    workers:
        Worker process count for the process executor (default: one per
        shard, clamped to ``[1, shards]``); shard ``i`` runs in worker
        ``i % workers``.  ``ValueError`` with ``executor="inproc"``.

    Remaining keyword arguments mirror :class:`SelectionService`.  Shard
    services always run with ``queue_limit=0``: the router rejects what
    no shard (or split) can host instead of parking requests in one
    shard's queue while another has capacity.
    """

    _SPAN = "router.request"

    def __init__(
        self,
        provider,
        *,
        shards: int = 2,
        plan: Optional[ShardPlan] = None,
        snapshot_ttl: float = 5.0,
        lease_s: float = 60.0,
        clock=None,
        tracer=None,
        registry: Optional[MetricsRegistry] = None,
        state_dir: Optional[str] = None,
        wal_fsync: bool = False,
        wal_snapshot_every: int = 256,
        executor: str = "inproc",
        workers: Optional[int] = None,
    ) -> None:
        if executor not in ("inproc", "process"):
            raise ValueError(
                f"unknown executor {executor!r}; "
                "expected 'inproc' or 'process'"
            )
        if executor == "process" and not isinstance(provider, TopologyGraph):
            raise ValueError(
                "executor='process' requires a static TopologyGraph "
                "provider: worker clocks follow the router's envelope "
                "timestamps, not a live simulator"
            )
        if workers is not None and executor != "process":
            raise ValueError(
                f"workers={workers!r} needs executor=\"process\": the "
                "in-process executor has no workers to count"
            )
        super().__init__(
            provider, lease_s=lease_s, clock=clock, tracer=tracer,
            registry=registry,
        )
        #: Merges worker/shard registries into :attr:`registry` under a
        #: ``shard=`` label, keeping counters monotone across worker
        #: restarts (DESIGN.md §17).
        self._federation = MetricsFederation(self.registry)
        #: Worker restarts already fed to the SLO monitor.
        self._slo_restarts_seen = 0
        self.executor = executor
        #: The worker pool: ``_exec`` again when that is one, else
        #: ``None`` (for what only a pool has — see :attr:`pool`).
        self._pool: Optional[ShardWorkerPool] = None
        self._services: Optional[list[SelectionService]] = None
        #: ``per_shard`` as last read; served once the executor is closed.
        self._per_shard: dict = {}
        #: The router's one snapshot cache over the provider: every
        #: shard is cut from it (:class:`_ShardProvider`) and the trunk
        #: reads availability from it, so a period costs one sweep.
        self._snapshots = SnapshotCache(self.provider, snapshot_ttl, self.clock)
        #: The first snapshot, for structure only (the plan, trunk
        #: routes, link capacities), which never changes in a deployment.
        self._full = self._snapshots.topology()
        if plan is None:
            plan = partition_topology(self._full, shards)
        self.plan = plan
        #: Live sub-grant count per shard — the router's only source for
        #: it (shard ordering, ``repro_shard_active_leases``).  Shard
        #: services never admit, expire or migrate anything except
        #: inside a router-issued command, so the commit/release/tick
        #: paths keep it exact; :meth:`check_invariants` asserts it
        #: against every shard.  Written only through :meth:`_rekey`.
        self._sub_count = {shard: 0 for shard in range(plan.k)}
        #: Each shard's sort key in :meth:`_shard_order`, kept beside
        #: ``_sub_count``: ``(live per host, shard)``.
        self._order_key = [(0.0, shard) for shard in range(plan.k)]
        #: Full-graph route memo that keeps trunk channels only.
        self.routes = _TrunkRoutes(self._full, plan.shard_of)
        #: Admitted composites still holding capacity.
        self._active: dict[str, PlacementGrant] = {}
        self._build_shards(workers, state_dir, {
            # The router's TTL is the only one: a shard re-reads the
            # router's snapshot on every request.
            "snapshot_ttl": 0.0,
            "queue_limit": 0,
            "wal_fsync": bool(wal_fsync),
            "wal_snapshot_every": int(wal_snapshot_every),
        })
        #: The trunk ledger (see the module docstring) and its WAL, which
        #: is ``None`` when not durable.  The shard services own theirs.
        if state_dir is None:
            self.trunk, self.wal = ReservationLedger(), None
        else:
            self.trunk, self.wal = open_ledger(
                os.path.join(state_dir, "trunk"),
                snapshot_every=int(wal_snapshot_every), fsync=bool(wal_fsync),
            )
            self._recover_composites()
        self._bind_registry()
        self.slo.bind(self.registry)
        # Every scrape/dump re-harvests the shard registries first, so
        # the merged exposition is always fresh (satellite of §17); the
        # pool's transport lock makes the harvest race-safe against the
        # request path.
        self.registry.add_collect_hook(self._harvest_shard_metrics)

    # -- construction ----------------------------------------------------------
    def _build_shards(
        self, workers: Optional[int], state_dir: Optional[str],
        service_kwargs: dict,
    ) -> None:
        """Start the executor, which builds every shard's service."""
        plan = self.plan
        #: Per-shard facts fixed by the plan, reported in ``per_shard``.
        self._shard_facts = [
            {"hosts": sum(
                1 for name in members if self._full.node(name).is_compute
            )}
            for members in plan.shards
        ]
        build = dict(
            clock=self.clock,
            tracer=self.tracer,
            lease_s=self.lease_s,
            service_kwargs=service_kwargs,
            state_dirs={
                shard: (
                    os.path.join(state_dir, f"shard-{shard}")
                    if state_dir else None
                )
                for shard in range(plan.k)
            },
        )
        if self.executor == "process":
            self._exec = self._pool = ShardWorkerPool(
                {
                    shard: plan.graph.restricted(members)
                    for shard, members in enumerate(plan.shards)
                },
                workers=plan.k if workers is None else workers,
                **build,
            )
            for shard, facts in enumerate(self._shard_facts):
                facts["worker"] = self._pool.worker_of(shard)
        else:
            self._exec = InprocExecutor(
                {
                    shard: _ShardProvider(self._snapshots, members)
                    for shard, members in enumerate(plan.shards)
                },
                **build,
            )
            self._services = self._exec.services

    @property
    def services(self) -> list[SelectionService]:
        """The in-process shard services (in-process executor only)."""
        if self._services is None:
            raise RuntimeError(
                "shard services are remote with executor='process'; "
                "go through the router API (or the worker pool)"
            )
        return self._services

    @property
    def pool(self) -> Optional[ShardWorkerPool]:
        """The worker pool (``None`` with the in-process executor)."""
        return self._pool

    def _fan_out(self, op: str) -> list[tuple[str, object]]:
        """``op`` on every shard at once; one reply per shard, in order."""
        return self._exec.call_many(
            [(shard, op, (), {}) for shard in range(self.plan.k)]
        )

    def _recover_composites(self) -> None:
        """Rebuild composite grants from recovered shard + trunk leases.

        One rule: a lease held by one shard with no trunk record is a
        local grant; any other set of parts is a composite only if its
        record exists and names exactly the parts' nodes.  Everything
        else — parts a crash cut from their siblings or their record, a
        record whose parts are gone — is evicted, parts and record alike.
        """
        reservation_maps = [
            self._exec.call(shard, "reservation_map")
            for shard in range(self.plan.k)
        ]
        parts_by_app: dict[str, dict[int, str]] = {}
        for shard, reservations in enumerate(reservation_maps):
            self._rekey(shard, len(reservations))
            for sub_id in reservations:
                base = sub_id.rsplit("@", 1)[0]
                parts_by_app.setdefault(base, {})[shard] = sub_id
        trunk = self.trunk.reservations
        latest = max((r.granted_at for r in trunk.values()), default=0.0)
        for app_id, parts in sorted(parts_by_app.items()):
            held = [reservation_maps[shard][parts[shard]]
                    for shard in sorted(parts)]
            latest = max(latest, *(granted_at for _, granted_at in held))
            nodes = [name for names, _ in held for name in names]
            record = trunk.get(app_id)
            if (len(parts) > 1 if record is None
                    else set(record.nodes) != set(nodes)):
                logger.warning("evicting %r: its parts and record disagree",
                               app_id)
                for shard, sub in parts.items():
                    self._release_sub(shard, sub, "evict")
                    self._rekey(shard, self._sub_count[shard] - 1)
                continue
            grant = PlacementGrant(
                app_id=app_id,
                status=Decision.ADMITTED,
                selection=Selection(
                    nodes=nodes, objective=0.0,
                    algorithm="sharded-recovered",
                ),
                shards=tuple(sorted(parts)),
                parts=dict(sorted(parts.items())),
                trunk=record,
                reason="recovered from WAL",
            )
            self._active[app_id] = grant
            self.outcomes[app_id] = grant
        for app_id in sorted(trunk.keys() - self._active.keys()):
            logger.warning("evicting the trunk record of %r", app_id)
            self.trunk.release(app_id, kind="evict")
        self._catch_up(latest)
        reports = [*self._exec.recoveries.values(), self.trunk.recovery]
        reports = [r for r in reports if r is not None]
        self.recovery = RecoveryReport(
            leases=len(self._active),
            records=sum(r.records for r in reports),
            snapshot_seq=max((r.snapshot_seq for r in reports), default=0),
            last_seq=max((r.last_seq for r in reports), default=0),
            truncated_tail=any(r.truncated_tail for r in reports),
        )
        if self._active:
            logger.info(
                "recovered %d composite grants across %d shards + trunk",
                len(self._active), self.plan.k,
            )

    def _bind_registry(self) -> None:
        """Export ``repro_shard_*`` instruments (callback-backed).

        Per-shard callbacks read the router's own books; the one thing
        a scrape asks the shards is the collect hook's
        ``metrics_state`` — k calls for k shards.  The rows the flat
        snapshot also shows are declared once, through
        :meth:`ServiceMetrics.gauge`.
        """
        m = self.metrics
        m.gauge("shard_count", "repro_shard_count",
                "Shards behind the router.", lambda: self.plan.k)
        m.gauge("cross_shard_fraction", "repro_shard_cross_fraction",
                "Fraction of routed admissions that spanned shards.",
                lambda: m.routed_cross
                / max(1, m.routed_local + m.routed_cross))
        m.gauge("trunk_active_reservations",
                "repro_shard_trunk_active_reservations",
                "Live cross-shard composites (one trunk record each).",
                lambda: self.trunk.active)
        m.gauge("trunk_channels_claimed", "repro_shard_trunk_channels_claimed",
                "Directed trunk channels carrying at least one claim.",
                lambda: len(self.trunk.edge_claims()))
        reg = self.registry
        if self._pool is not None:
            m.gauge("workers", "repro_shard_workers",
                    "Worker processes behind the router.",
                    lambda: self._pool.workers)
            m.gauge("worker_restarts", "repro_shard_worker_restarts_total",
                    "Crashed shard workers restarted in place.",
                    lambda: self._pool.restarts)
            for site in ("startup", "posted_ack"):
                reg.counter(WORKER_ERRORS_METRIC, WORKER_ERRORS_HELP,
                            labels={"site": site},
                            fn=(lambda s=site: float(self._pool.errors[s])))
        reg.gauge("repro_shard_trunk_links",
                  "Links crossing shard boundaries.",
                  fn=lambda: float(len(self.plan.trunk_keys)))
        reg.gauge("repro_shard_trunk_min_headroom_fraction",
                  "Worst-case remaining headroom fraction across claimed "
                  "trunk channels (1.0 when none are claimed).",
                  fn=self._trunk_min_headroom)
        reg.counter("repro_shard_routed_local_total",
                    "Admissions hosted by a single shard.",
                    fn=lambda: float(self.metrics.routed_local))
        reg.counter("repro_shard_routed_cross_total",
                    "Admissions split across shards.",
                    fn=lambda: float(self.metrics.routed_cross))
        reg.counter("repro_shard_trunk_rejections_total",
                    "Cross-shard requests refused for trunk capacity.",
                    fn=lambda: float(self.metrics.trunk_rejections))
        for shard in range(self.plan.k):
            labels = {"shard": str(shard)}
            reg.counter(
                "repro_shard_requests_total",
                "Sub-requests attempted per shard.", labels=labels,
                fn=(lambda s=shard: self._federation.read(
                    s, "repro_service_requests_total")),
            )
            reg.gauge(
                "repro_shard_active_leases",
                "Live sub-grants per shard.", labels=labels,
                fn=(lambda s=shard: float(self._sub_count[s])),
            )
            reg.gauge(
                "repro_shard_hosts",
                "Compute nodes per shard.", labels=labels,
                fn=(lambda s=shard: float(self._shard_facts[s]["hosts"])),
            )

    def _trunk_headroom(self, channel) -> float:
        """Unclaimed capacity (bps) on a trunk channel: availability in
        the snapshot the router holds, minus the trunk's claim.  Reading
        it never sweeps (a scrape asks too); the request path refreshes
        the snapshot first."""
        key, dst = channel
        graph = self._snapshots.held  # never dropped: nothing invalidates it
        available = graph.link_by_key(key).available_towards(dst)
        return available - self.trunk.edge_claim(channel)

    def _trunk_min_headroom(self) -> float:
        """Worst remaining-capacity fraction over claimed trunk channels."""
        graph, worst = self._snapshots.held, 1.0
        for key, dst in self.trunk.edge_claims():
            capacity = graph.link_by_key(key).available_towards(dst)
            if capacity <= 0.0:
                return 0.0
            worst = min(worst, self._trunk_headroom((key, dst)) / capacity)
        return max(0.0, worst)

    def _harvest_shard_metrics(self) -> None:
        """Merge every shard registry into the router's (collect hook).

        Runs before each ``expose_text()``/``dump()`` of the router
        registry, so a scrape always sees fresh worker-side kernel and
        stage counters — labeled ``shard=`` and kept monotone across
        worker restarts by the federation baselines.
        """
        if self._exec.closed:
            return  # close() already did the final harvest
        replies = self._fan_out("metrics_state")
        for shard, (kind, payload) in enumerate(replies):
            if kind == "ok":
                self._federation.ingest(shard, payload)

    # -- time ------------------------------------------------------------------
    def tick(self) -> list[str]:
        """Expire lapsed leases in every shard + the trunk; returns the
        composite apps whose grants lapsed."""
        # Whoever died since the last command is replaced *now*, so its
        # lost (non-durable) leases are reaped this tick instead of
        # whenever traffic next routes its way.
        restarted = self._exec.sync()
        if self._exec.restarts > self._slo_restarts_seen:
            self.slo.observe_restart(
                self._exec.restarts - self._slo_restarts_seen
            )
            self._slo_restarts_seen = self._exec.restarts
        now = self.now
        replies = self._exec.tick_all(force=bool(restarted))
        if replies is None:  # no shard can have expired anything
            self.trunk.expire(now)
            return []
        dead_subs: set[str] = set()
        for shard, (kind, payload) in enumerate(replies):
            if kind == "ok":
                dead_subs.update(payload)
            else:
                # Worker died mid-tick and was restarted from its WAL
                # (or empty, if non-durable); the resync below reaps
                # anything the restart lost.
                restarted = restarted | {shard}
        #: What each restarted shard still holds (recovered, or nothing).
        held = {
            shard: self._exec.call(shard, "reservation_map")
            for shard in sorted(restarted)
        }
        expired = []
        for app_id, grant in list(self._active.items()):
            alive = []
            for shard, sub in grant.parts.items():
                if sub in dead_subs:
                    continue
                if shard in held and sub not in held[shard]:
                    continue
                alive.append(shard)
            if len(alive) == len(grant.parts):
                continue
            # Sub-leases share one deadline; a partial lapse means this
            # tick caught the composite mid-expiry — reclaim the rest.
            for shard in alive:
                self._release_sub(shard, grant.parts[shard], "expire")
                self._rekey(shard, self._sub_count[shard] - 1)
            if app_id in self.trunk.reservations:
                self.trunk.release(app_id, kind="expire")
            for shard, sub in grant.parts.items():
                if shard not in alive and sub not in dead_subs:
                    # Lost to a worker restart, not a lease expiry; the
                    # shard never logged it dead, so only the composite
                    # bookkeeping needs adjusting.
                    self._rekey(shard, self._sub_count[shard] - 1)
            self._note(PlacementGrant(
                app_id=app_id,
                status=Decision.EXPIRED,
                shards=grant.shards,
                reason="lease lapsed without renewal",
            ))
            del self._active[app_id]
            expired.append(app_id)
        for sub in dead_subs:
            shard = int(sub.rsplit("@", 1)[1])
            self._rekey(shard, self._sub_count[shard] - 1)
        self.trunk.expire(now)  # records last, as in release()
        # The fan-out read every posted ack on its way; an error among
        # them is raised now that the books are settled.
        self._exec.drain()
        return sorted(expired)

    # -- the request path ------------------------------------------------------
    def request(
        self,
        app_id: str,
        spec: ApplicationSpec,
        *,
        cpu_fraction: float = 0.0,
        bw_bps: float = 0.0,
        priority: str = Priority.SILVER,
        spread: int = 1,
    ) -> PlacementGrant:
        """Ask for a placement; returns an admitted/rejected composite.

        ``spread`` is the minimum number of shards (fault domains) the
        placement must span; the default 1 prefers a single shard and
        only splits when no shard can host the request alone.  The
        router never queues — what no shard or split can host is
        rejected (poll-free, like ``queue_limit=0``).
        """
        if spread < 1:
            raise ValueError(f"spread must be >= 1: {spread}")
        claim = {"cpu_fraction": cpu_fraction, "bw_bps": bw_bps,
                 "priority": priority}
        check_request(app_id, **claim)  # before anything counts it
        # The tick stays outside the span and the SLO sample.
        self.tick()
        self._open_request(app_id)
        spread = min(int(spread), self.plan.k)
        return self._serve(
            self._request_inner, (app_id, spec, claim, spread),
            app=app_id, m=spec.num_nodes, priority=priority, spread=spread,
        )

    def _holds(self, app_id: str) -> bool:
        return app_id in self._active

    def _span_outcome(self, grant: PlacementGrant) -> dict:
        return {
            "outcome": grant.status,
            "shards": ",".join(str(s) for s in grant.shards),
        }

    def _shard_order(self) -> list[int]:
        """Shards by load headroom: least-loaded (per host) first, by
        the router's own live count (``_sub_count``) — no shard is asked."""
        return [shard for _load, shard in sorted(self._order_key)]

    def _rekey(self, shard: int, count: int) -> None:
        """Set ``shard``'s live sub-grant count (never below 0) and its
        key in the kept shard order."""
        count = max(0, count)
        self._sub_count[shard] = count
        self._order_key[shard] = (
            count / max(1, self._shard_facts[shard]["hosts"]), shard
        )

    def _request_inner(
        self, app_id: str, spec: ApplicationSpec, claim: dict, spread: int
    ) -> PlacementGrant:
        """Place one checked and counted request — ``claim`` is the
        ``cpu_fraction`` / ``bw_bps`` / ``priority`` keywords every shard
        call takes — wholly inside one shard in headroom order, else
        split across shards."""
        t0 = perf_counter()
        order = self._shard_order()
        if spread <= 1:
            for shard in order:
                sub = f"{app_id}@{shard}"
                try:
                    g = self._exec.call(shard, "admit", sub, spec, **claim)
                except WorkerCrashError as exc:
                    self._give_back([(shard, sub)])
                    return self._note(PlacementGrant(
                        app_id=app_id, status=Decision.REJECTED,
                        reason=f"shard worker crashed mid-request: {exc}",
                    ))
                if g.admitted:
                    grant = PlacementGrant(
                        app_id=app_id,
                        status=Decision.ADMITTED,
                        selection=g.selection,
                        shards=(shard,),
                        parts={shard: sub},
                    )
                    self._commit(grant)
                    self.metrics.routed_local += 1
                    self.metrics.observe_stage(
                        "route_local", perf_counter() - t0
                    )
                    return grant
        grant = self._cross_shard(app_id, spec, claim, spread, order)
        if not grant.admitted:
            return self._note(grant)
        self._commit(grant)
        self.metrics.routed_cross += 1
        self.metrics.observe_stage("route_cross", perf_counter() - t0)
        return grant

    def _commit(self, grant: PlacementGrant) -> None:
        self._note(grant)
        self._active[grant.app_id] = grant
        for shard in grant.parts:
            self._rekey(shard, self._sub_count[shard] + 1)

    # -- batched admission -----------------------------------------------------
    def admit_batch(
        self, requests: Sequence[BatchRequest]
    ) -> list[PlacementGrant]:
        """Admit a whole arrival batch; returns per-request grants in order.

        The batch is routed shard-by-shard in headroom order: each shard
        receives the still-unplaced requests as *one*
        :meth:`SelectionService.admit_batch` call (one snapshot fetch
        per shard, not per request).  Requests no single shard admits
        fall back to the exact serial path, which can split them across
        shards; requests nothing can host are rejected.  Validation is
        atomic (duplicate ``app_id`` raises ``ValueError`` with nothing
        admitted); admission is not — see
        :meth:`SelectionService.admit_batch`.

        Both executors run this same loop — a shard's sub-batch is one
        call in-process and one envelope to its worker — so the grants
        are bit-identical between them.  A worker that dies mid-batch
        has its sub-batch moved on to the next shard.
        """
        batch = self._open_batch(requests)
        grants: dict[str, PlacementGrant] = {}
        pending = list(batch)
        for shard in self._shard_order():
            if not pending:
                break
            sub_batch = [
                replace(b, app_id=f"{b.app_id}@{shard}") for b in pending
            ]
            try:
                sub_grants = self._exec.call(shard, "admit_batch", sub_batch)
            except WorkerCrashError:
                # The next shard (or the serial fallback) starts clean.
                self._give_back((shard, b.app_id) for b in sub_batch)
                continue
            still_pending = []
            for b, g in zip(pending, sub_grants):
                if g.admitted:
                    grant = PlacementGrant(
                        app_id=b.app_id,
                        status=Decision.ADMITTED,
                        selection=g.selection,
                        shards=(shard,),
                        parts={shard: g.app_id},
                    )
                    self._commit(grant)
                    self.metrics.routed_local += 1
                    grants[b.app_id] = grant
                else:
                    still_pending.append(b)
            pending = still_pending
        for b in pending:
            # No single shard could host it — the serial path can still
            # split it across shards (or produce the rejection reason).
            claim = {"cpu_fraction": b.cpu_fraction, "bw_bps": b.bw_bps,
                     "priority": b.priority}
            grants[b.app_id] = self._request_inner(b.app_id, b.spec, claim, 1)
        return [grants[b.app_id] for b in batch]

    def _plan_split(
        self, spec: ApplicationSpec, claim: dict, order: list[int],
        min_parts: int,
    ) -> Optional[list[tuple[int, ApplicationSpec, Selection]]]:
        """Greedy read-only split of ``spec.num_nodes`` across shards.

        Chunk sizes are capped at ``ceil(m / min_parts)`` (so at least
        ``min_parts`` shards participate) and halved on probe failure.
        Returns ``[(shard, sub_spec, probed_selection), ...]`` covering
        the full node count — ``sub_spec`` is the part's spec as probed,
        which the commit admits — or ``None``, without mutating anything.
        """
        m = spec.num_nodes
        cap = math.ceil(m / min_parts)
        remaining = m
        split: list[tuple[int, ApplicationSpec, Selection]] = []
        for shard in order:
            if remaining <= 0:
                break
            # Leave at least one node for every shard still needed.
            still_needed = max(0, min_parts - len(split) - 1)
            size = min(cap, remaining - still_needed,
                       self._shard_facts[shard]["hosts"])
            while size >= 1:
                sub_spec = replace(spec, num_nodes=size)
                selection = self._exec.call(
                    shard, "probe", sub_spec,
                    cpu_fraction=claim["cpu_fraction"], bw_bps=claim["bw_bps"],
                )
                if selection is not None:
                    split.append((shard, sub_spec, selection))
                    remaining -= size
                    break
                size //= 2
        if remaining > 0 or len(split) < min_parts:
            return None
        return split

    def _cross_shard(
        self, app_id: str, spec: ApplicationSpec, claim: dict, spread: int,
        order: list[int],
    ) -> PlacementGrant:
        """Phase 1 (probe, read-only) + phase 2 (commit) of a split grant."""
        bw_bps = claim["bw_bps"]
        # Anything but a plain spec couples the node set globally;
        # splitting it per shard would silently change its meaning.
        if not plain_spec(spec):
            return PlacementGrant(
                app_id=app_id, status=Decision.REJECTED,
                reason=(
                    "cross-shard split supports plain fixed-size specs "
                    "only (no groups, ranges, latency bounds, or floors)"
                ),
            )
        min_parts = max(2, spread)
        if spec.num_nodes < min_parts:
            return PlacementGrant(
                app_id=app_id, status=Decision.REJECTED,
                reason=(
                    f"cannot spread {spec.num_nodes} nodes across "
                    f"{min_parts} shards"
                ),
            )
        split = self._plan_split(spec, claim, order, min_parts)
        if split is None:
            return PlacementGrant(
                app_id=app_id, status=Decision.REJECTED,
                reason=(
                    "infeasible on every shard and no feasible "
                    "cross-shard split"
                ),
            )
        # Trunk accounting covers inter-part traffic only: each part is a
        # connected shard, so its internal routes never cross a boundary.
        channels: tuple = ()
        if bw_bps > 0:
            channels = tuple(sorted(
                self.routes.edges_between([sel.nodes for _, _, sel in split]),
                key=ledger_order,
            ))
            self._snapshots.topology()  # fresh for _trunk_headroom
            for channel in channels:
                headroom = self._trunk_headroom(channel)
                if headroom + _EPS * max(1.0, bw_bps) < bw_bps:
                    self.metrics.trunk_rejections += 1
                    u, v = sorted(channel[0])
                    return PlacementGrant(
                        app_id=app_id, status=Decision.REJECTED,
                        reason=(
                            f"trunk channel {u}--{v} towards "
                            f"{channel[1]!r} lacks {bw_bps:g} bps "
                            f"({headroom:g} available)"
                        ),
                    )
        # Commit phase: first the trunk record, naming every node of the
        # split (parts a crash cuts from it never match it), then each
        # part through the shard's admit, which the memo entry its probe
        # filed answers.  No claim moves between the phases, so the
        # rollback is defensive.
        nodes = [name for _, _, sel in split for name in sel.nodes]
        parts: dict[int, str] = {}
        subs = [(shard, f"{app_id}@{shard}") for shard, _spec, _sel in split]
        replies: list = []
        try:
            t_trunk = perf_counter()
            trunk_res = self.trunk.reserve(
                app_id, nodes, cpu_fraction=0.0, bw_bps=bw_bps,
                graph=self._full, now=self.now, lease_s=self.lease_s,
                priority=claim["priority"], edges=channels,
            )
            self.metrics.observe_stage(
                "trunk_reserve", perf_counter() - t_trunk
            )
            # Out together: different workers commit concurrently.
            replies = self._exec.call_many([
                (shard, "admit", (sub, sub_spec), claim)
                for (shard, sub), (_, sub_spec, _) in zip(subs, split)
            ])
            failure: Optional[Exception] = None
            for (shard, sub), (kind, g), (_, _, sel) in zip(subs, replies, split):
                if kind == "ok" and g.admitted and (
                    set(g.selection.nodes) == set(sel.nodes)
                ):
                    parts[shard] = sub
                    continue
                failure = g if kind == "err" else _CommitAbort(
                    f"shard {shard} refused at commit: {g.reason}"
                    if not g.admitted
                    else f"shard {shard} admitted another set than its probe"
                )
            if failure is not None:
                raise failure
        except Exception as exc:
            # No part and no record outlives a failed commit; the parts
            # go first, as in release().  A refusal (a stale probe, a
            # part on another set, a ledger cap, a mid-commit crash) is
            # unreachable while probes are sound and workers stay up, and
            # answers REJECTED; any other error (a shard's log append, a
            # bug) propagates once the parts and the record are given
            # back.
            self._give_back(
                (shard, sub)
                for (shard, sub), (kind, g) in zip(subs, replies)
                if kind == "err" or g.admitted
            )
            if app_id in self.trunk.reservations:
                self.trunk.release(app_id, kind="evict")
            if not isinstance(
                exc, (_CommitAbort, LedgerError, WorkerCrashError)
            ):
                raise
            logger.error(
                "cross-shard commit for %r aborted after probe success "
                "(%s); partial claims released", app_id, exc,
            )
            return PlacementGrant(
                app_id=app_id, status=Decision.REJECTED,
                reason=f"cross-shard commit aborted: {exc}",
            )
        selection = Selection(
            nodes=nodes,
            objective=min(sel.objective for _, _, sel in split),
            algorithm="sharded",
        )
        return PlacementGrant(
            app_id=app_id,
            status=Decision.ADMITTED,
            selection=selection,
            shards=tuple(parts),
            parts=parts,
            trunk=trunk_res,
        )

    # -- lease lifecycle -------------------------------------------------------
    def _release_sub(self, shard: int, sub: str, kind: str) -> None:
        """Release one sub-lease, if the shard still holds it.

        Posted: "not held" (the shard's ``KeyError``) is no error, and
        a restarted worker gets the release replayed, having either
        recovered the lease from its WAL or nothing to release.  Does
        not touch ``_sub_count`` — callers own that bookkeeping.
        """
        self._exec.call_many(
            [(shard, "release", (sub,), {"kind": kind})], wait=False
        )

    def _give_back(self, sent: Iterable[tuple[int, str]]) -> None:
        """The one release rule of every aborted admission: whatever
        sub-request the router sent and did not get a refusal for, it
        posts a release for — the shard admitted it, or its worker died
        before answering and a durable replacement recovers the lease
        if the commit reached the WAL.  Never held: :meth:`_release_sub`.
        """
        for shard, sub in sent:
            self._release_sub(shard, sub, "evict")

    def release(self, app_id: str, *, kind: str = "release") -> PlacementGrant:
        """Give back every sub-lease, then the trunk record, of ``app_id``
        (a crash between leaves a record its parts no longer match).

        ``kind`` labels the record in every shard WAL and the trunk WAL
        (``release``/``expire``/``evict``/``preempt``), exactly as on
        :meth:`SelectionService.release`.
        """
        status = self._release_status(kind)
        grant = self._active.get(app_id)
        if grant is None:
            raise KeyError(f"no live grant for {app_id!r}")
        for shard, sub in grant.parts.items():
            self._release_sub(shard, sub, kind)
            self._rekey(shard, self._sub_count[shard] - 1)
        if app_id in self.trunk.reservations:
            self.trunk.release(app_id, kind=kind)
        del self._active[app_id]
        return self._note(PlacementGrant(
            app_id=app_id, status=status, shards=grant.shards,
        ))

    def renew(
        self, app_id: str, *, extend: Optional[float] = None
    ) -> PlacementGrant:
        """Extend every sub-lease (and the trunk record).

        ``extend`` overrides the router's ``lease_s`` for this renewal.
        """
        grant = self._active.get(app_id)
        if grant is None:
            raise KeyError(f"no live grant for {app_id!r}")
        lease = self.lease_s if extend is None else float(extend)
        for shard, sub in grant.parts.items():
            try:
                self._exec.call(shard, "renew", sub, extend=lease)
            except WorkerCrashError:
                try:  # once more, against the restarted worker
                    self._exec.call(shard, "renew", sub, extend=lease)
                except KeyError:
                    raise KeyError(
                        f"sub-lease {sub!r} for {app_id!r} was lost to a "
                        "worker crash; the next tick() reaps the composite"
                    ) from None
        if app_id in self.trunk.reservations:
            self.trunk.renew(app_id, self.now, lease)
        self.metrics.renewed += 1
        return grant

    # -- introspection ---------------------------------------------------------
    @property
    def k(self) -> int:
        return self.plan.k

    def active_apps(self) -> list[str]:
        return sorted(self._active)

    def check_invariants(self) -> None:
        """Every shard's ledger + overlay invariants, trunk caps, the
        intra/trunk claim partition (no shard ever claims a trunk
        channel; the trunk claims trunk channels only), the router's
        live count against what each shard holds, and the trunk against
        the composites: a live composite has more than one part exactly
        when it has a trunk record, and the record names exactly the
        nodes its parts hold."""
        self._exec.drain()
        trunk_keys = self.plan.trunk_keys
        part_nodes: dict[str, list] = {}
        for shard in range(self.plan.k):
            self._exec.call(shard, "check_invariants")
            for key, dst in self._exec.call(shard, "edge_claims"):
                assert key not in trunk_keys, (
                    f"shard {shard} claimed trunk channel "
                    f"{sorted(key)} towards {dst!r}"
                )
            held = self._exec.call(shard, "reservation_map")
            part_nodes.update((sub, n) for sub, (n, _) in held.items())
            live = len(held)
            assert self._sub_count[shard] == live, (
                f"router sub-lease count for shard {shard} drifted: "
                f"{self._sub_count[shard]} counted, {live} live"
            )
            hosts = max(1, self._shard_facts[shard]["hosts"])
            assert self._order_key[shard] == (live / hosts, shard), (
                f"shard {shard}'s order key {self._order_key[shard]} "
                f"is stale for {live} live"
            )
        self.trunk.check_invariants()
        for key, dst in self.trunk.edge_claims():
            assert key in trunk_keys, (
                f"trunk claimed non-trunk channel {sorted(key)} "
                f"towards {dst!r}"
            )
        composites = {
            app_id: {name for sub in grant.parts.values()
                     for name in part_nodes.get(sub, ())}
            for app_id, grant in self._active.items() if len(grant.parts) > 1
        }
        named = {a: set(r.nodes) for a, r in self.trunk.reservations.items()}
        assert named == composites, f"trunk records {named} != {composites}"

    def _read_per_shard(self) -> dict:
        """``per_shard``: every shard's own ``metrics_snapshot``, cut
        down to one schema, plus the plan's facts about the shard.  A
        closed executor is not asked; the last reading stands."""
        if not self._exec.closed:
            self._per_shard = {}
            for shard, (kind, snap) in enumerate(
                self._fan_out("metrics_snapshot")
            ):
                if kind != "ok":  # its worker died under the question
                    snap = {}
                self._per_shard[str(shard)] = {
                    "requests": snap.get("requests", 0),
                    "admitted": snap.get("admitted", 0),
                    "rejected": snap.get("rejected", 0),
                    "active_leases": int(snap.get("active_reservations", 0)),
                    "stages": snap.get("stages", {}),
                    **self._shard_facts[shard],
                }
        return self._per_shard

    def metrics_snapshot(self) -> dict:
        """The frozen flat schema plus ``per_shard`` nested gauges."""
        out = self.metrics.snapshot(slo=self.slo.evaluate(self.now))
        out["per_shard"] = self._read_per_shard()
        return out

    # -- durability ------------------------------------------------------------
    def flush_state(self) -> None:
        """Compacted snapshots for every shard WAL + the trunk WAL."""
        self._exec.drain()
        for shard in range(self.plan.k):
            self._exec.call(shard, "flush_state")
        if self.wal is not None:
            self.wal.snapshot()

    def close(self) -> None:
        """Flush final snapshots, detach every WAL and shut the executor
        down (idempotent), reading ``per_shard`` and the shard
        registries one last time first so :meth:`metrics_snapshot` and
        scrapes keep answering afterwards."""
        try:
            if not self._exec.closed:
                self._read_per_shard()
                self._harvest_shard_metrics()
            self._exec.close()  # raises a posted release's error ack
        finally:
            if self.wal is not None:
                self.wal.close()
                self.wal = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardRouter k={self.plan.k} "
            f"{len(self._active)} composite grants, t={self.now:g}>"
        )
