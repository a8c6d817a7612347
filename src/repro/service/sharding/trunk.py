"""The trunk ledger: bandwidth claims on shard-boundary links only.

A cross-shard grant claims CPU and intra-shard bandwidth inside each
participating shard's own :class:`~repro.service.ReservationLedger`, but
the channels *between* shards belong to no single shard.
:class:`TrunkLedger` owns exactly those: it wraps an inner
:class:`~repro.service.ReservationLedger` whose reservations carry a
zero CPU claim and a bandwidth claim restricted to trunk channels, so
the float-slack claim arithmetic, lease expiry/renewal, invariant
checking, and WAL durability of the single-service ledger carry over
unchanged.

Each composite grant reserves its trunk capacity **exactly once** (one
trunk reservation per application, covering every boundary channel its
routes cross), and the router checks trunk headroom *before* committing
anything — a request refused for trunk capacity leaves every ledger
bit-identical to before the request.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ...topology.graph import TopologyGraph
from ...topology.residual import DirectedEdge
from ..ledger import Reservation, ReservationLedger, ledger_order
from ..wal import LedgerWal

__all__ = ["TrunkLedger"]


class TrunkLedger:
    """Bandwidth accounting for the channels that cross shard boundaries.

    Parameters
    ----------
    trunk_keys:
        Undirected link keys of the boundary edges (from
        :attr:`~repro.service.sharding.ShardPlan.trunk_keys`).
    state_dir:
        Durability directory (optional).  Recovered at construction and
        WAL-logged afterwards, exactly like a service ledger — trunk
        claims survive a router crash alongside the per-shard ledgers.
    """

    def __init__(
        self,
        trunk_keys: Iterable[frozenset],
        *,
        state_dir: Optional[str] = None,
        wal_fsync: bool = False,
        wal_snapshot_every: int = 256,
    ) -> None:
        self.trunk_keys = frozenset(trunk_keys)
        self.recovery = None
        self.wal: Optional[LedgerWal] = None
        if state_dir is not None:
            self.ledger = ReservationLedger.recover(state_dir)
            self.recovery = self.ledger.recovery
            self.wal = LedgerWal(
                state_dir,
                snapshot_every=wal_snapshot_every,
                fsync=wal_fsync,
            )
            self.wal.attach(self.ledger)
        else:
            self.ledger = ReservationLedger()

    # -- routing helpers ------------------------------------------------------
    def trunk_channels(
        self, edges: Iterable[DirectedEdge]
    ) -> list[DirectedEdge]:
        """The subset of ``edges`` crossing shard boundaries, sorted."""
        return sorted(
            (edge for edge in edges if edge[0] in self.trunk_keys),
            key=ledger_order,
        )

    def headroom(self, channel: DirectedEdge, graph: TopologyGraph) -> float:
        """Unclaimed capacity (bps) towards the channel's destination.

        Measured availability on ``graph`` minus the summed trunk claims
        — the read-only check the router runs before committing a
        cross-shard grant.
        """
        key, dst = channel
        link = graph.link_by_key(key)
        if link is None:
            raise KeyError("no link {!r}--{!r}".format(*sorted(key)))
        return link.available_towards(dst) - self.ledger.edge_claim(channel)

    # -- lifecycle ------------------------------------------------------------
    def reserve(
        self,
        app_id: str,
        nodes: Sequence[str],
        channels: Iterable[DirectedEdge],
        bw_bps: float,
        *,
        graph: TopologyGraph,
        now: float,
        lease_s: float,
        priority: str = "silver",
    ) -> Reservation:
        """Claim ``bw_bps`` on every trunk channel in ``channels``.

        Non-trunk channels are filtered out (the shard services account
        for those); raises ``ValueError`` when nothing remains — a grant
        with no boundary crossing must not touch the trunk ledger.
        Raises :class:`~repro.service.LedgerError` on oversubscription,
        leaving the ledger unchanged.
        """
        trunk = self.trunk_channels(channels)
        if not trunk:
            raise ValueError(
                f"no trunk channels in the routed set for {app_id!r}; "
                "single-shard grants never reserve trunk capacity"
            )
        if bw_bps <= 0:
            raise ValueError(f"trunk claims need bw_bps > 0: {bw_bps}")
        return self.ledger.reserve(
            app_id,
            nodes,
            cpu_fraction=0.0,
            bw_bps=bw_bps,
            graph=graph,
            now=now,
            lease_s=lease_s,
            edges=trunk,
            priority=priority,
        )

    def release(self, app_id: str, *, kind: str = "release") -> Reservation:
        """Return ``app_id``'s trunk capacity (raises ``KeyError`` if none)."""
        return self.ledger.release(app_id, kind=kind)

    def renew(self, app_id: str, now: float, lease_s: float) -> Reservation:
        return self.ledger.renew(app_id, now, lease_s)

    def expire(self, now: float) -> list[str]:
        """Reclaim lapsed trunk leases; returns the reclaimed app ids."""
        return self.ledger.expire(now)

    def holds(self, app_id: str) -> bool:
        return app_id in self.ledger.reservations

    # -- introspection --------------------------------------------------------
    @property
    def active(self) -> int:
        return self.ledger.active

    def edge_claims(self) -> dict[DirectedEdge, float]:
        return self.ledger.edge_claims()

    def claims_fingerprint(self) -> tuple:
        return self.ledger.claims_fingerprint()

    def check_invariants(self) -> None:
        """Inner ledger invariants plus trunk-only channel membership."""
        self.ledger.check_invariants()
        for key, dst in self.ledger.edge_claims():
            assert key in self.trunk_keys, (
                f"non-trunk channel claimed: {sorted(key)} towards {dst!r}"
            )

    # -- durability -----------------------------------------------------------
    def flush_state(self) -> None:
        if self.wal is not None:
            self.wal.snapshot()

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()
            self.wal = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TrunkLedger {self.active} reservations over "
            f"{len(self.trunk_keys)} trunk links>"
        )
