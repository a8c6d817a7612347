"""The sharded selection service: partitioner and router.

Cuts a topology into k connected shards (:mod:`.partition`) and fronts
one per-shard :class:`~repro.service.SelectionService` with a single
request API (:mod:`.router`), which also accounts cross-shard bandwidth
on the boundary links in its trunk ledger.  ``repro-serve --shards K``
and ``run_multi_tenant(shards=K)`` are the entry points.
"""

from .partition import (
    ShardPlan,
    graph_fingerprint,
    partition_topology,
    reassemble,
)
from .router import ShardRouter
from .workers import ShardWorkerPool, WorkerCrashError

__all__ = [
    "ShardPlan",
    "ShardRouter",
    "ShardWorkerPool",
    "WorkerCrashError",
    "graph_fingerprint",
    "partition_topology",
    "reassemble",
]
