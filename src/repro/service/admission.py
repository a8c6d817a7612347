"""Admission control: priority classes and the bounded request queue.

The service never silently degrades everyone when the network fills up.
A request whose CPU/bandwidth floors cannot be met on residual capacity
is *queued* (bounded, priority-ordered) or *rejected* — capacity freed by
releases, lease expiries, or crash evictions re-runs admission for the
queue in priority order.

When the queue is full, a newly arriving request of strictly higher
priority displaces the worst queued request (which becomes rejected);
equal or lower priority is rejected outright.  Within a priority class
the queue is FIFO.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..core.spec import ApplicationSpec
from .ledger import check_claim

__all__ = [
    "AdmissionQueue",
    "Decision",
    "Priority",
    "SelectionRequest",
    "check_request",
    "plain_spec",
]


def plain_spec(spec: ApplicationSpec) -> bool:
    """Whether ``spec`` is a fixed node count with no floor, bound or
    structure of its own.

    Only then can a request's claims stand in as its selection floors
    (the spec admits at most one floor), and only then does the spec
    keep its meaning when the batch planner packs it greedily or the
    shard router cuts its node count across shards.
    """
    return (
        spec.min_bandwidth_bps is None
        and spec.min_cpu_fraction is None
        and spec.max_latency_s is None
        and not spec.account_simultaneous_streams
        and not spec.groups
        and spec.num_nodes_range is None
    )


class Priority:
    """Priority classes for admission (gold outranks silver outranks bronze)."""

    GOLD = "gold"
    SILVER = "silver"
    BRONZE = "bronze"

    ALL = (GOLD, SILVER, BRONZE)
    #: Lower rank admits first.
    RANK = {GOLD: 0, SILVER: 1, BRONZE: 2}


def check_request(
    app_id: str, *, cpu_fraction: float, bw_bps: float, priority: str
) -> None:
    """Refuse a request before any backend counts it: an empty
    ``app_id``, an unknown priority class, or a claim
    :func:`~repro.service.ledger.check_claim` refuses.  Both request
    records (:class:`SelectionRequest`, :class:`~repro.service.BatchRequest`)
    run it when built, the shard router on its arguments."""
    if not app_id:
        raise ValueError("app_id cannot be empty")
    if priority not in Priority.ALL:
        raise ValueError(
            f"unknown priority {priority!r}; expected one of {Priority.ALL}"
        )
    check_claim(cpu_fraction, bw_bps)


class Decision:
    """Outcome states of a service request (see :class:`~repro.service.Grant`).

    Each value is also the name of the metrics counter
    (:data:`~repro.service.metrics.COUNTERS`) that counts the outcome."""

    ADMITTED = "admitted"
    QUEUED = "queued"
    REJECTED = "rejected"
    RELEASED = "released"
    EXPIRED = "expired"
    EVICTED = "evicted"
    #: Lease released at once to make an otherwise-infeasible gold
    #: request feasible.
    PREEMPTED = "preempted"

    ALL = (
        ADMITTED, QUEUED, REJECTED, RELEASED, EXPIRED, EVICTED, PREEMPTED,
    )


@dataclass
class SelectionRequest:
    """One application's ask: a spec plus the capacity it will claim.

    ``cpu_fraction`` and ``bw_bps`` are the *claims* debited from the
    shared pool if admitted — the floors admission checks on residual
    capacity.  They are deliberately separate from any floors inside
    ``spec``: the spec shapes which nodes are picked, the claims shape
    what the ledger debits.
    """

    app_id: str
    spec: ApplicationSpec
    cpu_fraction: float = 0.0
    bw_bps: float = 0.0
    priority: str = Priority.SILVER
    submitted_at: float = 0.0
    #: FIFO tie-break within a priority class, assigned by the queue.
    seq: int = field(default=0, compare=False)
    #: The service's residual-epoch counter at this request's last failed
    #: admission attempt.  ``_drain_queue`` skips re-attempting while the
    #: epoch is unchanged — no capacity came back, so the identical
    #: attempt would fail identically.  -1: never attempted.
    last_failed_epoch: int = field(default=-1, compare=False)
    #: Caller asked for provenance: the grant carries an
    #: :class:`repro.obs.ExplainRecord` (admitted *and* infeasible).
    explain: bool = field(default=False, compare=False)
    #: Why the last admission attempt failed (set by the service's
    #: pipeline; feeds the rejection side of the explain record).
    last_reason: str = field(default="", compare=False)
    #: The spec selection runs on (:meth:`fold`, on a selection-memo
    #: miss) and the memo's name for :attr:`spec`, its ``repr``: each
    #: derived when a placement first needs it, once however often the
    #: request is re-attempted.
    effective_spec: Optional[ApplicationSpec] = field(
        default=None, compare=False, repr=False
    )
    spec_key: str = field(default="", compare=False, repr=False)

    def __post_init__(self) -> None:
        check_request(self.app_id, cpu_fraction=self.cpu_fraction,
                      bw_bps=self.bw_bps, priority=self.priority)

    @property
    def rank(self) -> tuple[int, float, int]:
        """Sort key: priority class, then submission order."""
        return (Priority.RANK[self.priority], self.submitted_at, self.seq)

    def fold(self) -> ApplicationSpec:
        """Set and return :attr:`effective_spec`: the claims folded into
        the spec as selection floors.

        Only when the spec declares no floor of its own (the spec admits at
        most one), so claim-aware selection steers toward sets that can
        actually host the claim instead of failing admission afterwards.
        """
        spec = self.spec
        if plain_spec(spec):
            if self.bw_bps > 0:
                spec = replace(spec, min_bandwidth_bps=self.bw_bps)
            elif self.cpu_fraction > 0:
                spec = replace(spec, min_cpu_fraction=self.cpu_fraction)
        self.effective_spec = spec
        return spec


class AdmissionQueue:
    """A bounded, priority-ordered queue of waiting requests.

    ``limit`` bounds memory and waiting-time exposure: beyond it, arriving
    work is rejected (or displaces strictly lower-priority work) instead
    of queueing unboundedly — the service's back-pressure mechanism.
    """

    def __init__(self, limit: int) -> None:
        if limit < 0:
            raise ValueError(f"queue limit cannot be negative: {limit}")
        self.limit = limit
        self._waiting: list[SelectionRequest] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._waiting)

    def __contains__(self, app_id: str) -> bool:
        return any(r.app_id == app_id for r in self._waiting)

    def offer(self, request: SelectionRequest) -> Optional[SelectionRequest]:
        """Try to enqueue; returns the request displaced to make room.

        Returns ``request`` itself when the queue is full and nothing
        queued is strictly lower priority (the arrival is rejected), the
        displaced lower-priority request when one was evicted, or ``None``
        when the request simply fit.
        """
        self._seq += 1
        request.seq = self._seq
        if len(self._waiting) < self.limit:
            self._waiting.append(request)
            self._waiting.sort(key=lambda r: r.rank)
            return None
        if not self._waiting:
            return request  # limit == 0: nothing ever queues
        worst = self._waiting[-1]
        if Priority.RANK[request.priority] < Priority.RANK[worst.priority]:
            self._waiting[-1] = request
            self._waiting.sort(key=lambda r: r.rank)
            return worst
        return request

    def waiting(self) -> list[SelectionRequest]:
        """Queued requests in admission order (do not mutate)."""
        return list(self._waiting)

    def remove(self, app_id: str) -> Optional[SelectionRequest]:
        """Withdraw ``app_id``'s queued request, if present."""
        for i, request in enumerate(self._waiting):
            if request.app_id == app_id:
                return self._waiting.pop(i)
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<AdmissionQueue {len(self._waiting)}/{self.limit}>"
