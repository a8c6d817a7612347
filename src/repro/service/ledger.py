"""The reservation ledger: who holds how much of the shared network.

One `select()` against a fresh snapshot is correct for a single
application, but two applications selecting concurrently would both be
handed the same "best" nodes and trunk links.  The ledger is the service's
account book: per admitted application it records the CPU fraction claimed
on each selected node and the bandwidth claimed on each link channel
its traffic routes over (``Link.channel``), and :meth:`ReservationLedger.apply`
debits those claims from any topology snapshot so the next selection sees
*residual* capacity.

Claims are **leases**: each reservation carries an expiry time, and
:meth:`expire` reclaims capacity from applications that stopped renewing
— a crashed client (PR 1's fault machinery) cannot leak capacity forever.
Explicit :meth:`release` and :meth:`renew` complete the lifecycle: a
lease ends only through a release of one of the
:data:`CAPACITY_RETURNING_KINDS`, and its deadline moves only through
:meth:`renew`.

Hard invariants, enforced at :meth:`reserve` time and checkable at any
moment with :meth:`check_invariants`:

- the summed CPU claims on any node never exceed 1.0 — the whole
  node, the paper's one processor per node;
- the summed bandwidth claims on any link channel never exceed
  that link's peak capacity.

The ledger is durable when paired with :class:`~repro.service.LedgerWal`
(:mod:`repro.service.wal`): every mutation flows through the listener
path, and :meth:`ReservationLedger.recover` replays a state directory's
snapshot + write-ahead log into a ledger whose claim tallies — and
therefore its residual graph — are bit-identical to the pre-crash state.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..topology.graph import ChannelId, TopologyGraph
from ..topology.residual import residual_graph

__all__ = [
    "CAPACITY_RETURNING_KINDS",
    "DEADLINE_KINDS",
    "LedgerError",
    "Reservation",
    "ReservationLedger",
    "check_claim",
    "check_lease",
    "ledger_order",
    "route_edges",
]

#: Slack for floating-point claim accumulation at the caps.  Bandwidth
#: claims run at 1e7-1e8 bps where incremental summation alone drifts by
#: a few ulps of the running total, so every comparison scales the slack
#: by the magnitudes involved instead of using a fixed absolute epsilon.
_EPS = 1e-9

#: How far a claim tally may drift from the exact sum of its leases'
#: claims, as a fraction of its resource's capacity.  One addition or
#: subtraction rounds by at most 2**-53 of its result, and a tally never
#: exceeds the capacity by more than slack, so this covers 2**17 of them
#: all rounding the same way (and a random walk of far more).  A release
#: drops a tally within it of zero, and a claim must exceed twice it:
#: no live lease's claim is taken for zero, and no tally outlives every
#: lease that held it.
_DRIFT = 2.0 ** -36


def _slack(*magnitudes: float) -> float:
    # Hot loops write the one-argument, non-negative case out in place.
    return _EPS * max(1.0, *(abs(m) for m in magnitudes))


def ledger_order(edge: ChannelId) -> tuple[list[str], str]:
    """The one order :attr:`Reservation.edges` is kept (and so claimed,
    logged and replayed) in: by the link's end names, then the channel tag."""
    return sorted(edge[0]), edge[1]


def _subtract(
    claims: dict, keys: Iterable, amount: float, caps: Iterable[float]
) -> list:
    """Take ``amount`` off each ``claims[key]``; a remainder within
    :data:`_DRIFT` of the key's capacity (``caps``, aligned with
    ``keys``) deletes the entry.  Returns the deleted keys.

    The bound scales with the capacity, not the tally: rounding grows
    with the largest total a tally has held, and a small last claim may
    follow a large one.  No live claim is within it: every positive
    claim is more than twice it (:func:`check_claim` on a node,
    :meth:`ReservationLedger.reserve` on a channel)."""
    dropped = []
    for key, cap in zip(keys, caps):
        remaining = claims[key] - amount
        if remaining <= _DRIFT * cap:
            del claims[key]
            dropped.append(key)
        else:
            claims[key] = remaining
    return dropped


def _credit(
    reservation: Reservation, node_claims: dict, edge_claims: dict
) -> list:
    """Return ``reservation``'s claims to the given tallies, in place.

    The one copy of the release arithmetic: :meth:`ReservationLedger.release`
    runs it on the ledger's own tallies, :meth:`claims_without` on trial
    copies.  Returns the channels whose claim collapsed to nothing.
    """
    if reservation.cpu_fraction > 0.0:  # zero claims were never recorded
        _subtract(node_claims, reservation.nodes, reservation.cpu_fraction,
                  itertools.repeat(1.0))  # the whole node
    return _subtract(
        edge_claims, reservation.edges, reservation.bw_bps, reservation.caps
    )


#: Stale deadline-heap entries tolerated before :meth:`release`/
#: :meth:`renew` rebuild the heap.  Below this lazy deletion is cheaper
#: than rebuilding; beyond it (and once stale entries outnumber live
#: leases) a renew-heavy workload would grow the heap without bound.
_HEAP_COMPACT_MIN = 64

#: Listener kinds that return capacity to the pool (the reservation was
#: removed); ``reserve`` debits it.
CAPACITY_RETURNING_KINDS = frozenset(
    {"release", "expire", "evict", "preempt"}
)

#: Listener kinds that move a lease's deadline and no claim: the log keeps
#: them, whoever mirrors the claims (the residual overlay) passes them over.
DEADLINE_KINDS = frozenset({"renew"})


def check_claim(cpu_fraction: float, bw_bps: float) -> None:
    """Refuse a claim no lease can hold: a CPU fraction outside the
    whole node, [0, 1], or positive but no more than twice the drift its
    tally may carry (:data:`_DRIFT`), or a bandwidth that is negative,
    infinite or NaN.  The one copy of the claim rule: both request
    records and :meth:`ReservationLedger.reserve` run it (``reserve``
    holds a bandwidth to the same floor, scaled to each channel)."""
    if not 0 <= cpu_fraction <= 1.0:
        raise ValueError(f"cpu_fraction must be in [0, 1]: {cpu_fraction}")
    if 0 < cpu_fraction <= 2 * _DRIFT:
        raise ValueError(
            f"cpu_fraction must be 0 or above {2 * _DRIFT:g}: {cpu_fraction}"
        )
    if bw_bps < 0:
        raise ValueError(f"bw_bps cannot be negative: {bw_bps}")
    if not math.isfinite(bw_bps):
        raise ValueError(f"bw_bps must be finite: {bw_bps}")


def check_lease(lease_s: float) -> None:
    """Refuse a lease length that is not a positive finite number: ``not
    lease_s > 0`` holds for NaN too, which no deadline could order, and
    an infinite lease would never lapse (nor log as JSON).  The same rule
    on non-finite values as :func:`check_claim`'s."""
    if not (lease_s > 0 and math.isfinite(lease_s)):
        raise ValueError(f"lease_s must be positive and finite: {lease_s}")


class LedgerError(Exception):
    """A reservation request that would violate ledger invariants."""


@dataclass(frozen=True)
class Reservation:
    """One application's recorded claim on the shared network.

    ``edges`` are the link channels the application's traffic
    crosses (union over the routed paths between its node pairs); the
    bandwidth claim applies once per channel — the ledger models the
    application's bandwidth *floor* on every link it touches, not a
    per-flow sum.  ``caps`` are those channels' peak capacities at grant
    time, aligned with ``edges``: what a release measures each tally's
    remainder against, and the one store of a claimed channel's cap.
    """

    app_id: str
    nodes: tuple[str, ...]
    cpu_fraction: float
    bw_bps: float
    edges: tuple[ChannelId, ...]
    priority: str
    granted_at: float
    expires_at: float
    caps: tuple[float, ...] = field(repr=False)

    def expired(self, now: float) -> bool:
        return now >= self.expires_at


def route_edges(
    graph: TopologyGraph, nodes: Sequence[str]
) -> set[ChannelId]:
    """Link channels used by traffic among ``nodes``.

    Every ordered pair routes over its fixed path
    (:meth:`TopologyGraph.path`, the route the fabric sends it on); each
    hop contributes the fabric's channel towards the next node
    (:meth:`Link.channel`).  Disconnected pairs contribute nothing.
    """
    edges: set[ChannelId] = set()
    for a, b in itertools.permutations(nodes, 2):
        path = graph.path(a, b)
        if path is None:
            continue
        for u, v in zip(path, path[1:]):
            edges.add(graph.link(u, v).channel(v))
    return edges


class ReservationLedger:
    """Tracks capacity claims for all admitted applications."""

    def __init__(self) -> None:
        self.reservations: dict[str, Reservation] = {}
        self._node_claims: dict[str, float] = {}
        self._edge_claims: dict[ChannelId, float] = {}
        #: Entries releases deleted from each tally since it was last
        #: packed (see :meth:`claims_without`).
        self._deleted_nodes = self._deleted_edges = 0
        #: Min-heap of (expires_at, app_id) lease deadlines.  Entries are
        #: lazily deleted: release/renew leave them in place, and
        #: :meth:`expire` drops any popped entry whose deadline no longer
        #: matches the live reservation.  Every live lease has exactly
        #: one entry that reaps it, so ``len(_deadlines) - active`` are
        #: stale; see :meth:`_compact_deadlines`.
        self._deadlines: list[tuple[float, str]] = []
        #: Mutation observers, called as ``fn(kind, reservation)`` after
        #: the claim tallies (or lease deadlines) mutate.  The service's
        #: residual overlay subscribes so debits are applied in place,
        #: O(Δ) in the reservation's size; the WAL subscribes so every
        #: mutation is durable.
        self._listeners: list[Callable[[str, Reservation], None]] = []
        #: Set by :meth:`recover` — the replay's RecoveryReport.
        self.recovery = None

    def subscribe(self, fn: Callable[[str, Reservation], None]) -> None:
        """Observe mutations: ``fn(kind, reservation)`` after every
        successful :meth:`reserve` (kind ``"reserve"``), every
        :meth:`renew` (``"renew"``), and every removal —
        ``"release"``, ``"expire"`` (lease lapsed), ``"evict"`` (node
        crash), or ``"preempt"`` (priority reclamation).  The removal
        kinds all return capacity (:data:`CAPACITY_RETURNING_KINDS`)."""
        self._listeners.append(fn)

    def _notify(self, kind: str, reservation: Reservation) -> None:
        for fn in self._listeners:
            fn(kind, reservation)

    # -- lifecycle -----------------------------------------------------------
    def reserve(
        self,
        app_id: str,
        nodes: Sequence[str],
        *,
        cpu_fraction: float,
        bw_bps: float,
        graph: TopologyGraph,
        now: float,
        lease_s: float,
        priority: str = "silver",
        edges: Optional[Iterable[ChannelId]] = None,
        expires_at: Optional[float] = None,
    ) -> Reservation:
        """Record a claim for ``app_id`` on ``nodes``.

        ``graph`` supplies routes and link capacities (claims are checked
        against ``maxbw``, never against transient availability — that is
        the admission controller's job).  ``edges`` optionally supplies
        the routed channels up front — what :func:`route_edges` would
        compute on ``graph``.  A ``tuple`` is taken to be in
        :func:`ledger_order` already and becomes :attr:`Reservation.edges`
        as it is (the route cache's answer, an old lease's ``edges``);
        any other iterable is sorted.  The lease lapses at ``now +
        lease_s``, or at ``expires_at`` when given: a lease that moves,
        or is put back, keeps its own deadline.  One pass validates
        every channel against its capacity and works out its new total,
        so the mutation only writes.  Raises :class:`LedgerError` when the claim
        would oversubscribe a node or channel or is too small for a
        channel's tally to tell from its drift (:func:`check_claim`'s
        floor, scaled to the channel's capacity), ``KeyError`` for an
        unknown node or link and ``ValueError`` on malformed requests;
        on error the ledger is unchanged.
        """
        if app_id in self.reservations:
            raise ValueError(f"application {app_id!r} already holds a lease")
        if not nodes:
            raise ValueError("reservation needs at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate nodes in reservation: {list(nodes)}")
        check_claim(cpu_fraction, bw_bps)
        check_lease(lease_s)
        for name in nodes:
            graph.node(name)  # unknown nodes raise KeyError here

        if bw_bps <= 0:
            edges = ()
        elif not isinstance(edges, tuple):
            if edges is None:
                edges = route_edges(graph, nodes)
            edges = tuple(sorted(edges, key=ledger_order))
        for name in nodes:
            claimed = self._node_claims.get(name, 0.0)
            if claimed + cpu_fraction > 1.0 + _EPS:
                raise LedgerError(
                    f"node {name!r} oversubscribed: "
                    f"{claimed:.3f} + {cpu_fraction:.3f} > 1.0"
                )
        # The graph's key -> link dict, bound once and only read: one
        # ``get`` per channel, not a ``link_by_key`` call.
        # check_claim's floor on each channel, bw <= 2 * _DRIFT * cap,
        # as cap >= floor_cap: exactly, 2 * _DRIFT being a power of two.
        floor_cap = bw_bps / (2 * _DRIFT)
        claims, links = self._edge_claims, graph._links
        totals, caps = [], []
        for edge in edges:
            key, dst = edge
            link = links.get(key)
            if link is None:
                raise KeyError("no link {!r}--{!r}".format(*sorted(key)))
            cap = link.maxbw
            claimed = claims.get(edge, 0.0)
            total = claimed + bw_bps
            if total > cap + (_EPS * cap if cap > 1.0 else _EPS):
                u, v = sorted(key)
                raise LedgerError(
                    f"channel {u}->{v} towards {dst!r} oversubscribed: "
                    f"{claimed:g} + {bw_bps:g} > capacity {cap:g} bps"
                )
            if cap >= floor_cap:
                u, v = sorted(key)
                raise LedgerError(
                    f"channel {u}->{v} towards {dst!r} cannot hold "
                    f"{bw_bps:g} bps: a claim must exceed "
                    f"{2 * _DRIFT * cap:g} bps of its {cap:g} bps"
                )
            totals.append(total)
            caps.append(cap)

        reservation = Reservation(
            app_id=app_id,
            nodes=tuple(nodes),
            cpu_fraction=cpu_fraction,
            bw_bps=bw_bps,
            edges=edges,
            priority=priority,
            granted_at=now,
            expires_at=now + lease_s if expires_at is None else expires_at,
            caps=tuple(caps),
        )
        self._write_grant(reservation, totals)
        return reservation

    def _write_grant(
        self, reservation: Reservation, totals: Sequence[float]
    ) -> None:
        """The one grant write, of :meth:`reserve` and of replay: debit
        the CPU claim on every node, set each channel's new claim total
        (in ``reservation.edges`` order), file the deadline and tell the
        listeners (none yet while a log replays)."""
        # A zero claim is no claim: recording 0.0 entries would collapse
        # to deletion when ANY overlapping reservation releases, stranding
        # the rest (bandwidth-only reservations share nodes freely).
        cpu_fraction = reservation.cpu_fraction
        if cpu_fraction > 0.0:
            node_claims = self._node_claims
            for name in reservation.nodes:
                node_claims[name] = node_claims.get(name, 0.0) + cpu_fraction
        self._edge_claims.update(zip(reservation.edges, totals))
        self.reservations[reservation.app_id] = reservation
        heapq.heappush(
            self._deadlines, (reservation.expires_at, reservation.app_id)
        )
        self._notify("reserve", reservation)

    def release(self, app_id: str, *, kind: str = "release") -> Reservation:
        """Return ``app_id``'s capacity to the pool.

        ``kind`` labels the removal for listeners (and hence the WAL):
        ``"release"`` (explicit), ``"expire"`` (lease lapsed),
        ``"evict"`` (reserved node crashed), or ``"preempt"`` (reclaimed
        for a higher-priority request).  The capacity arithmetic is
        identical for all four.
        """
        if kind not in CAPACITY_RETURNING_KINDS:
            raise ValueError(f"unknown release kind {kind!r}")
        try:
            reservation = self.reservations.pop(app_id)
        except KeyError:
            raise KeyError(f"no reservation for {app_id!r}") from None
        node_claims = self._node_claims
        held = len(node_claims)
        dropped = _credit(reservation, node_claims, self._edge_claims)
        self._deleted_nodes += held - len(node_claims)
        self._deleted_edges += len(dropped)
        # The deadline heap entry stays behind (lazy deletion): expire()
        # discards it because the app_id no longer resolves to a live
        # reservation with that deadline.
        self._compact_deadlines()
        self._notify(kind, reservation)
        return reservation

    def renew(self, app_id: str, now: float, lease_s: float) -> Reservation:
        """Extend ``app_id``'s lease to ``now + lease_s``."""
        if app_id not in self.reservations:
            raise KeyError(f"no reservation for {app_id!r}")
        check_lease(lease_s)
        return self._write_deadline(app_id, now + lease_s)

    def _write_deadline(self, app_id: str, expires_at: float) -> Reservation:
        """The one deadline write, of :meth:`renew` and of replay."""
        moved = dataclasses.replace(
            self.reservations[app_id], expires_at=expires_at
        )
        self.reservations[app_id] = moved
        # The old heap entry is lazily deleted: when popped it no longer
        # matches the live reservation's deadline and is discarded.
        heapq.heappush(self._deadlines, (expires_at, app_id))
        self._compact_deadlines()
        self._notify("renew", moved)
        return moved

    def expire(self, now: float) -> list[str]:
        """Release every lease past its expiry; returns the reclaimed apps.

        Heap-driven: pops lease deadlines from the min-heap until the
        earliest outstanding one is in the future — O(log n) per event,
        not a scan over every live reservation.  Stale entries (released,
        renewed, or re-reserved app ids) are discarded as they surface.
        """
        lapsed = []
        while self._deadlines and self._deadlines[0][0] <= now:
            deadline, app_id = heapq.heappop(self._deadlines)
            r = self.reservations.get(app_id)
            if r is None or r.expires_at != deadline:
                continue  # lazily-deleted entry (released/renewed)
            self.release(app_id, kind="expire")
            lapsed.append(app_id)
        return sorted(lapsed)

    @property
    def next_deadline(self) -> Optional[float]:
        """A lower bound on the earliest live lease deadline (``None``:
        no heap entry at all).  The heap's head may be a stale entry,
        which only makes it earlier: while ``now`` is below it,
        :meth:`expire` pops nothing."""
        return self._deadlines[0][0] if self._deadlines else None

    def _compact_deadlines(self) -> None:
        """Rebuild the heap once its stale entries reach the fixed
        threshold and outnumber the live leases.

        Every release and renew strands exactly one heap entry, and the
        heap holds one live entry per lease, so the stale count is
        ``len(_deadlines) - active``.  Lazy deletion alone lets a
        renew-heavy workload grow the heap without bound; this keeps it
        O(active) at amortized O(1) per mutation.
        """
        live = len(self.reservations)
        stale = len(self._deadlines) - live
        if stale >= _HEAP_COMPACT_MIN and stale > live:
            self._rebuild_deadlines()

    def _rebuild_deadlines(self) -> None:
        """Rebuild the deadline heap from the live reservations alone."""
        self._deadlines = [
            (r.expires_at, app_id)
            for app_id, r in self.reservations.items()
        ]
        heapq.heapify(self._deadlines)

    # -- durability (see repro.service.wal) ------------------------------------
    @classmethod
    def recover(cls, state_dir: str):
        """Rebuild a ledger from a state directory's snapshot + WAL.

        Replay repeats the original process's claim arithmetic in the
        original order, so the recovered tallies — and any residual
        graph built from them — are **bit-identical** to the pre-crash
        state.  The recovered ledger carries a
        :class:`~repro.service.wal.RecoveryReport` on ``.recovery``.
        Raises :class:`~repro.service.wal.WalCorruptError` on damage a
        torn-tail truncation cannot repair, and ``AssertionError`` if
        the replayed state violates the ledger invariants.
        """
        from .wal import recover_ledger

        return recover_ledger(state_dir)

    def _restore_grant(self, reservation: Reservation) -> None:
        """Replay one grant record through :meth:`reserve`'s own write
        (the same float additions in the same order), so replayed tallies
        stay bit-identical to the originals.  Validation is skipped — the
        original ``reserve`` already enforced the caps, and
        :meth:`check_invariants` re-checks the final replayed state.
        """
        if reservation.app_id in self.reservations:
            raise ValueError(
                f"duplicate grant for {reservation.app_id!r} in replay"
            )
        if len(reservation.caps) != len(reservation.edges):
            raise ValueError(
                f"grant for {reservation.app_id!r} carries "
                f"{len(reservation.caps)} caps for "
                f"{len(reservation.edges)} edges"
            )
        bw = reservation.bw_bps
        totals = [self.edge_claim(edge) + bw for edge in reservation.edges]
        self._write_grant(reservation, totals)

    def apps_on_node(self, name: str) -> list[str]:
        """Applications whose reservation includes node ``name``."""
        return sorted(
            app_id
            for app_id, r in self.reservations.items()
            if name in r.nodes
        )

    # -- the residual-capacity view -------------------------------------------
    def claims_without(
        self, reservations: Iterable[Reservation] = ()
    ) -> tuple[dict[str, float], dict[ChannelId, float]]:
        """``(node_claims, edge_claims)`` copies as they would read after
        releasing ``reservations`` in order — :meth:`release`'s own
        arithmetic, so trial feasibility equals post-release feasibility
        bit for bit.  No later grant or release touches them (the
        selection memo keeps them).

        CPython copies a dict as one block while at most half as many of
        its slots are deleted as are live, and entry by entry past that.
        A tally that releases have left past that is handed out itself,
        and the ledger carries on with a packed copy of it."""
        nodes, edges = self._node_claims, self._edge_claims
        if 2 * self._deleted_nodes > len(nodes):
            self._node_claims, self._deleted_nodes = dict(nodes), 0
        else:
            nodes = nodes.copy()
        if 2 * self._deleted_edges > len(edges):
            self._edge_claims, self._deleted_edges = dict(edges), 0
        else:
            edges = edges.copy()
        for reservation in reservations:
            _credit(reservation, nodes, edges)
        return nodes, edges

    def apply(
        self, graph: TopologyGraph, without: Iterable[Reservation] = ()
    ) -> TopologyGraph:
        """Debit all recorded claims from a snapshot (returns a copy).

        This is the capacity view the service plugs into
        :class:`repro.core.NodeSelector` (its ``view`` parameter): every
        selection runs on what is actually left after earlier admissions
        — or, with ``without``, what would be left once those leases
        were released (preemption and migration trials).
        """
        return residual_graph(graph, *self.claims_without(without))

    # -- introspection ----------------------------------------------------------
    def node_claim(self, name: str) -> float:
        """Summed CPU fraction currently claimed on ``name``."""
        return self._node_claims.get(name, 0.0)

    def edge_claim(self, edge: ChannelId) -> float:
        """Summed bandwidth (bps) currently claimed on a channel."""
        return self._edge_claims.get(edge, 0.0)

    def node_claims(self) -> dict[str, float]:
        return dict(self._node_claims)

    def edge_claims(self) -> dict[ChannelId, float]:
        return dict(self._edge_claims)

    def claim_counts(self) -> tuple[int, int]:
        """How many nodes and channels carry a claim: the O(1) signature
        the selection memo files an entry under."""
        return len(self._node_claims), len(self._edge_claims)

    def same_claims(self, node_claims: dict, edge_claims: dict) -> bool:
        """Whether the live totals equal these (earlier
        :meth:`claims_without` copies) exactly — what comparing two
        :meth:`claims_fingerprint` would say, with nothing built."""
        return (
            self._node_claims == node_claims
            and self._edge_claims == edge_claims
        )

    def claims_fingerprint(self) -> tuple:
        """A hashable snapshot of the exact current claim state.

        Two ledgers with equal fingerprints produce bit-identical
        residual graphs from the same snapshot.  O(active claims) to
        build — one tuple per claimed node and channel — so it is the
        oracle recovery, the router tests and the benchmark's output
        checks compare with, and no request, batch or probe builds one.
        """
        return (
            frozenset(self._node_claims.items()),
            frozenset(self._edge_claims.items()),
        )

    @property
    def active(self) -> int:
        """Number of live reservations."""
        return len(self.reservations)

    def _channel_caps(self) -> dict[ChannelId, float]:
        """Each claimed channel's cap, off the live lease granted on it
        last (largest ``granted_at``, then ``app_id``): read from the
        leases alone, so a recovered ledger reads what the live one did."""
        caps: dict[ChannelId, float] = {}
        for _, _, r in sorted(
            (r.granted_at, app_id, r)
            for app_id, r in self.reservations.items() if r.edges
        ):
            caps.update(zip(r.edges, r.caps))
        return caps

    def utilization(self) -> dict[str, float]:
        """Summary load factors for metrics and reports.

        ``max_node_claim`` is the busiest node's claimed CPU fraction;
        ``max_edge_claim_fraction`` the busiest channel's claimed share of
        its cap (:meth:`_channel_caps`); the means average over *claimed*
        resources only (0.0 when nothing is claimed).
        """
        nodes = list(self._node_claims.values())
        caps = self._channel_caps()
        edge_fracs = [
            claim / caps[e] for e, claim in self._edge_claims.items()
        ]
        return {
            "active_reservations": float(len(self.reservations)),
            "max_node_claim": max(nodes, default=0.0),
            "mean_node_claim": sum(nodes) / len(nodes) if nodes else 0.0,
            "max_edge_claim_fraction": max(edge_fracs, default=0.0),
            "mean_edge_claim_fraction": (
                sum(edge_fracs) / len(edge_fracs) if edge_fracs else 0.0
            ),
        }

    def check_invariants(self, view=None) -> None:
        """Raise ``AssertionError`` if any claim total breaches its cap.

        The totals are recomputed from the reservations themselves, so this
        also catches bookkeeping drift between the per-app records and the
        incremental claim tallies; every reservation's ``edges`` must be
        strictly increasing in :func:`ledger_order`.  Pass the service's
        residual ``view`` (anything with ``assert_matches_rebuild()``) to
        additionally cross-check the in-place overlay against a
        from-scratch :func:`~repro.topology.residual.residual_graph` rebuild.
        """
        node_totals: dict[str, float] = {}
        edge_totals: dict[ChannelId, float] = {}
        for r in self.reservations.values():
            if r.cpu_fraction > 0.0:  # zero claims are never recorded
                for name in r.nodes:
                    node_totals[name] = (
                        node_totals.get(name, 0.0) + r.cpu_fraction
                    )
            for edge in r.edges:
                edge_totals[edge] = edge_totals.get(edge, 0.0) + r.bw_bps
            order = list(map(ledger_order, r.edges))
            assert all(a < b for a, b in zip(order, order[1:])), (
                f"{r.app_id!r}: edges out of ledger order"
            )
        for name, total in node_totals.items():
            assert total <= 1.0 + _EPS, (
                f"node {name!r} oversubscribed: {total} > 1.0"
            )
            tally = self._node_claims.get(name, 0.0)
            assert abs(total - tally) <= _slack(total, tally), (
                f"node {name!r} tally drift"
            )
        caps = self._channel_caps()
        for edge, total in edge_totals.items():
            cap = caps[edge]
            assert total <= cap + _slack(cap), (
                f"channel {edge} oversubscribed: {total} > {cap}"
            )
            # A tally's rounding grows with the largest total it has
            # held, which the cap bounds; a lost or doubled claim is
            # more than twice this off (reserve's floor).
            tally = self._edge_claims.get(edge, 0.0)
            assert abs(total - tally) <= _DRIFT * cap, (
                f"channel {edge} tally drift"
            )
        assert set(node_totals) == set(self._node_claims), "node tally drift"
        assert set(edge_totals) == set(self._edge_claims), "edge tally drift"
        if view is not None:
            view.assert_matches_rebuild()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ReservationLedger {len(self.reservations)} active, "
            f"{len(self._node_claims)} nodes, "
            f"{len(self._edge_claims)} channels claimed>"
        )
