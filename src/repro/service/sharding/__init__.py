"""The sharded selection service: partitioner, trunk ledger, router.

Cuts a topology into k connected shards (:mod:`.partition`), accounts
cross-shard bandwidth on the boundary links (:mod:`.trunk`), and fronts
one per-shard :class:`~repro.service.SelectionService` with a single
request API (:mod:`.router`).  ``repro-serve --shards K`` and
``run_multi_tenant(shards=K)`` are the entry points.
"""

from .partition import (
    ShardPlan,
    graph_fingerprint,
    partition_topology,
    reassemble,
)
from .router import ShardRouter
from .trunk import TrunkLedger
from .workers import ShardWorkerPool, WorkerCrashError

__all__ = [
    "ShardPlan",
    "ShardRouter",
    "ShardWorkerPool",
    "TrunkLedger",
    "WorkerCrashError",
    "graph_fingerprint",
    "partition_topology",
    "reassemble",
]
