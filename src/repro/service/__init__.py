"""The multi-tenant selection service (beyond the paper's one-shot library).

The paper frames node selection as a service applications call on a
*shared* network (§3.3 even excludes an application's own load so it can
re-select while running), but a library answering one ``select()`` at a
time would hand two concurrent applications the same "best" nodes.  This
subpackage is the long-running layer that makes concurrent use sound:

- :class:`ReservationLedger` — per-application CPU and bandwidth claims,
  debited from every snapshot (:meth:`ReservationLedger.apply`) so
  selection always runs on *residual* capacity; leases expire, renew,
  release, and are evicted on node crashes.
- :mod:`~repro.service.admission` — priority classes
  (:class:`Priority`), a bounded request queue (:class:`AdmissionQueue`),
  and explicit admit/queue/reject outcomes (:class:`Decision`) instead of
  silent degradation.
- :class:`SnapshotCache` — TTL memoization plus same-instant coalescing
  of the Remos topology sweep, invalidated on fault events; the hot
  path revalidates its memoization when :attr:`~SnapshotCache.epoch`
  moves.
- :class:`ResidualView` — the O(Δ) mutable residual overlay the ledger
  updates in place and a measured snapshot re-bases over what it
  replaced, carrying the :class:`RouteCache` that routes each lease's
  nodes; bit-identical to a from-scratch rebuild by construction.
- :class:`LedgerWal` (:mod:`repro.service.wal`) — durability: a JSONL
  write-ahead log of every ledger mutation plus periodic compacted
  snapshots, replayed by :meth:`ReservationLedger.recover` into a
  bit-identical ledger after a crash (:class:`RecoveryReport` says what
  was restored; :class:`WalCorruptError` refuses unreplayable damage).
- :class:`SelectionService` — the facade wiring it all to a
  :class:`~repro.core.NodeSelector`; :class:`ServiceMetrics` counts
  requests, admissions, rejections, preemptions, queue depth, cache hits
  and ledger utilization, and profiles the admission pipeline per stage
  in its registry's stage histograms.  ``repro-serve``
  (:mod:`repro.service.cli`) drives it from serialized topologies and
  workload files, durably when given ``--state-dir``.
"""

from .admission import AdmissionQueue, Decision, Priority, SelectionRequest
from .api import BatchRequest, PlacementBackend, PlacementGrant, iter_batch
from .cache import RouteCache, SnapshotCache
from .ledger import (
    CAPACITY_RETURNING_KINDS,
    LedgerError,
    Reservation,
    ReservationLedger,
    route_edges,
)
from .metrics import ServiceMetrics
from .residual_view import ResidualView
from .service import Grant, SelectionService
from .sharding import (
    ShardPlan,
    ShardRouter,
    ShardWorkerPool,
    WorkerCrashError,
    partition_topology,
)
from .wal import LedgerWal, RecoveryReport, WalCorruptError, WalError

__all__ = [
    "AdmissionQueue",
    "BatchRequest",
    "CAPACITY_RETURNING_KINDS",
    "Decision",
    "Grant",
    "PlacementBackend",
    "PlacementGrant",
    "LedgerError",
    "LedgerWal",
    "Priority",
    "RecoveryReport",
    "Reservation",
    "ReservationLedger",
    "ResidualView",
    "RouteCache",
    "SelectionRequest",
    "SelectionService",
    "ServiceMetrics",
    "ShardPlan",
    "ShardRouter",
    "ShardWorkerPool",
    "SnapshotCache",
    "WalCorruptError",
    "WorkerCrashError",
    "WalError",
    "iter_batch",
    "partition_topology",
    "route_edges",
]
