"""The unified placement API: one grant type, one backend protocol.

Historically :class:`~repro.service.service.SelectionService` and
:class:`~repro.service.sharding.ShardRouter` grew parallel-but-divergent
surfaces — separate ``Grant``/``ShardGrant`` result types and slightly
different ``request/release/renew/tick/probe`` signatures.  Callers that
wanted to run the same campaign against either backend (the testbed, the
CLI) had to special-case both.

This module collapses the split:

* :class:`PlacementGrant` — the single frozen result/status record.  The
  shard fields (``shards``, ``parts``, ``trunk``) default to empty, so a
  plain service grant and a router composite grant are the same type.
* :class:`BatchRequest` — one element of an :meth:`admit_batch` arrival
  batch (app id + spec + claims + priority).
* :class:`PlacementBackend` — the structural protocol both backends
  satisfy.  ``run_multi_tenant`` and ``repro-serve`` program against it;
  new backends only need to match the shape.

Signature convention (mirrors the PR-3 ``select_*`` redesign): required
identity/spec arguments are positional, everything that tunes behaviour
is keyword-only — ``release(app_id, *, kind=...)``,
``renew(app_id, *, extend=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from ..core.spec import ApplicationSpec
from ..core.types import Selection
from .admission import Decision, Priority, check_request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .ledger import Reservation

__all__ = ["BatchRequest", "PlacementBackend", "PlacementGrant"]


@dataclass(frozen=True)
class PlacementGrant:
    """A backend's answer (and later, the standing status) for one app.

    One type serves both backends: a plain :class:`SelectionService`
    grant leaves the shard fields at their empty defaults; a
    :class:`ShardRouter` composite fills them in.  Construct with
    keyword arguments — the field order is not part of the API.
    """

    app_id: str
    status: str  # a Decision value
    selection: Optional[Selection] = None
    reservation: Optional["Reservation"] = None
    reason: str = ""
    #: Provenance (:class:`repro.obs.ExplainRecord`) when the request
    #: asked for ``explain=True`` — set on admitted grants (why these
    #: nodes) and on queued/rejected ones (why infeasible).
    explain: Optional[object] = None
    #: Shard indices hosting the placement (one element when local,
    #: empty for a plain unsharded service grant).
    shards: tuple = ()
    #: Shard index -> sub-grant id inside that shard's service.
    parts: dict = field(default_factory=dict)
    #: The cross-shard split's trunk record, naming all its nodes and
    #: claiming its trunk channels (``None`` when local or unsharded).
    trunk: Optional[object] = None

    @property
    def admitted(self) -> bool:
        return self.status == Decision.ADMITTED

    @property
    def cross_shard(self) -> bool:
        return len(self.shards) > 1


@dataclass(frozen=True)
class BatchRequest:
    """One element of an ``admit_batch`` arrival batch.

    Mirrors the keyword surface of :meth:`PlacementBackend.request`:
    the spec shapes which nodes are picked, ``cpu_fraction``/``bw_bps``
    are the claims the ledger debits if admitted.
    """

    app_id: str
    spec: ApplicationSpec
    cpu_fraction: float = 0.0
    bw_bps: float = 0.0
    priority: str = Priority.SILVER

    def __post_init__(self) -> None:
        check_request(self.app_id, cpu_fraction=self.cpu_fraction,
                      bw_bps=self.bw_bps, priority=self.priority)


@runtime_checkable
class PlacementBackend(Protocol):
    """What the testbed/CLI need from a placement backend.

    Both :class:`~repro.service.SelectionService` and
    :class:`~repro.service.sharding.ShardRouter` satisfy this protocol
    structurally.  Implementations may accept *additional* keyword-only
    arguments with defaults (e.g. ``explain=`` on the service,
    ``spread=`` on the router) — the protocol pins the shared core.
    """

    @property
    def now(self) -> float: ...

    def request(
        self,
        app_id: str,
        spec: ApplicationSpec,
        *,
        cpu_fraction: float = 0.0,
        bw_bps: float = 0.0,
        priority: str = Priority.SILVER,
    ) -> PlacementGrant: ...

    def admit_batch(
        self, requests: Sequence[BatchRequest]
    ) -> list[PlacementGrant]: ...

    def release(
        self, app_id: str, *, kind: str = "release"
    ) -> PlacementGrant: ...

    def renew(
        self, app_id: str, *, extend: Optional[float] = None
    ) -> PlacementGrant: ...

    def status(self, app_id: str) -> Optional[PlacementGrant]: ...

    def active_apps(self) -> list[str]: ...

    def tick(self) -> None: ...

    def advance(self, dt: float) -> None: ...

    def check_invariants(self) -> None: ...

    def metrics_snapshot(self) -> dict: ...

    def flush_state(self) -> None: ...

    def close(self) -> None: ...


def iter_batch(
    requests: Sequence[BatchRequest],
) -> Iterator[BatchRequest]:
    """Validate and iterate an arrival batch (shared backend helper).

    Raises ``ValueError`` on a duplicate ``app_id`` *within* the batch —
    per-app identity is the unit of release/renew, so one batch must not
    mint the same id twice.
    """
    seen: set[str] = set()
    for req in requests:
        if req.app_id in seen:
            raise ValueError(
                f"duplicate app_id in batch: {req.app_id!r}"
            )
        seen.add(req.app_id)
        yield req


Unsubscribe = Callable[[], None]
