"""The mutable residual overlay: O(Δ) capacity views for the hot path.

:meth:`ReservationLedger.apply` is correct but O(V+E) per call — it
copies the whole snapshot and re-debits every claim, even though one
admission or release only touches the handful of nodes and channels in
*that* reservation.  At 33 hosts the copy is noise; at 1000+ it
dominates the request/release cycle (README "Service hot-path
performance" keeps the measured 33 → 1000-host table).

:class:`ResidualView` keeps **one** debited copy alive across claims
and across snapshots, and moves it in place:

- the service subscribes it to the ledger, and the overlay is brought
  up to date when it is read, not when the ledger moves.  A grant only
  files its reservation as stale.  A release (expiry, crash eviction,
  preemption) of a lease whose grant is still stale joins that entry;
  any other release refreshes at once.  Reading :attr:`graph` settles
  every stale entry first, one :meth:`apply_delta` each — O(Δ) in the
  reservation's node/edge count.  So a grant + release cycle the
  selection memo answers refreshes nothing, while a release after the
  overlay was read (``churn_1k``'s) is not pushed into the next
  admission.  Entries are keyed by node set and routed-channel tuple
  (by identity: the memo hands out one tuple per placement), so a
  repeated placement is one entry.  They pile up only between reads:
  every memo miss reads, and so does every other way to a grant (the
  batch planner, an explain record) before it grants; a re-base
  settles first.  So they number at most the placements the memo holds
  (at most 256), plus the one grant that followed the last read.  A renewal moves a deadline, no claim:
  :data:`~repro.service.ledger.DEADLINE_KINDS` are passed over;
- updates are *recomputations from base*, never incremental arithmetic:
  a touched node or channel is reset to exactly what
  :func:`~repro.topology.residual.residual_graph` would compute from
  the base snapshot and the ledger's **current total** claim.  Floating
  point addition is not associative, so subtracting a delta from the
  overlay could drift a few ulps from the rebuild; recomputing from
  base keeps the overlay *bit-identical* to a from-scratch rebuild
  (enforced by :meth:`assert_matches_rebuild`, wired into
  ``ledger.check_invariants(view=...)`` and a hypothesis property
  test);
- the overlay carries its memoization with it: a
  :class:`~repro.service.cache.RouteCache` (routes are pure structure —
  neither claims nor measurements touch them; a lease's channels come
  out of it in the ledger's order and are walked here as stored), a
  :class:`ChannelTable` resolving each channel to its overlay and base
  links once, and a
  :class:`~repro.core.kernel.ComputeRanking` on the ``compute_ranking``
  hook — the candidates best first, for the bandwidth-floor procedure
  and the batch planner to walk.  A node update only names what moved;
  the next selection to read the ranking re-keys it;
- a new snapshot that says which resources it replaced
  (:attr:`TopologyGraph.measurement`; ``RemosAPI.topology()`` does) is
  adopted by :meth:`rebase`: the same recompute-from-base over those
  nodes and links only, routes kept.

The service rebuilds the view only when it has no such delta to go by —
the first snapshot, a provider that publishes none (static graph,
cluster oracle, a shard's subgraph), one that skipped a generation —
and after :meth:`SnapshotCache.invalidate`, which every change of the
known-down node set follows.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional

from ..core.kernel import ComputeRanking
from ..topology.graph import (
    MAXBW_SLACK, SHARED, ChannelId, TopologyGraph, load_from_cpu_fraction,
)
from ..topology.residual import _MIN_RESIDUAL_CPU, residual_graph
from .cache import RouteCache
from .ledger import DEADLINE_KINDS, Reservation, ReservationLedger

__all__ = ["ChannelTable", "ResidualView"]


class ChannelTable(dict):
    """Channel -> ``(link, towards_v, base_link)``: ``graph``'s own link
    object, whether the channel runs towards its ``v`` end (its
    availability is ``available_fwd``, else ``available_rev``; ``None``:
    a shared channel, both), and ``base``'s link of the same key, which
    the overlay recomputes it from; ``None`` when ``graph`` has no link.

    An entry is filled on first use, which is the one pair of key
    lookups and endpoint check it costs.  Its overlay link stays right
    for as long as ``graph`` keeps its link objects — an overlay's for
    the view's life, re-bases included (they write into the same
    links); its base link is re-pointed by :meth:`rebase`.
    """

    __slots__ = ("graph", "base")

    def __init__(self, graph: TopologyGraph, base: TopologyGraph) -> None:
        super().__init__()
        self.graph = graph
        self.base = base

    def __missing__(self, edge: ChannelId) -> Optional[tuple]:
        key, dst = edge
        link = self.graph.link_by_key(key)
        entry = None
        if link is not None:
            link.available_towards(dst)  # a tag it has not: KeyError
            towards_v = None if dst == SHARED else dst == link.v
            entry = (link, towards_v, self.base.link_by_key(key))
        self[edge] = entry
        return entry

    def rebase(
        self, base: TopologyGraph, channels: Iterable[ChannelId]
    ) -> None:
        """Adopt ``base``, whose links differ from the current base's in
        those ``channels`` run on only: their entries carry its links."""
        self.base = base
        for channel in channels:
            entry = self.get(channel)
            if entry is not None:
                link = base.link_by_key(channel[0])
                self[channel] = (entry[0], entry[1], link)


def _refresh_shared(link, base, claim: float) -> None:
    """:meth:`ResidualView.refresh_edges` on a shared channel of overlay
    ``link``: a claim comes off ``base``'s ``available`` both ways; no claim
    leaves each way as ``base`` reads it, as :func:`residual_graph` does."""
    fwd, rev = base.available_fwd, base.available_rev
    if claim > 0.0:
        fwd = rev = max(base.available - claim, 0.0)
    link.set_available(fwd, direction=link.v)
    link.set_available(rev, direction=link.u)


class ResidualView:
    """A live residual-capacity overlay of one topology snapshot.

    Parameters
    ----------
    base:
        The snapshot (shared, never mutated — the overlay is a copy).
    ledger:
        The claim source the overlay tracks.  The view reads the
        ledger's *current totals* on every update; callers wire
        :meth:`on_ledger_event` to :meth:`ReservationLedger.subscribe`
        so the two never drift.
    down:
        Node names to mark ``down`` in the overlay's attrs (the
        service's injector ground truth).
    """

    def __init__(
        self,
        base: TopologyGraph,
        ledger: ReservationLedger,
        *,
        down: Iterable[str] = (),
    ) -> None:
        self.base = base
        self.ledger = ledger
        # The overlay itself, read through :attr:`graph` by everyone but
        # the view's own methods.
        self._overlay = overlay = residual_graph(
            base, ledger.node_claims(), ledger.edge_claims()
        )
        # Routed on the overlay the kernel selects on: the span a
        # selection is scored with is the one its lease is routed by.
        self.routes = RouteCache(overlay)
        #: The overlay's channels, resolved once each to the overlay's
        #: link and the base link it is recomputed from.
        self.channels = ChannelTable(overlay, base)
        # The kernel hook: refresh_nodes() names what moved, the next
        # reader (floor procedure, batch planner) re-keys it.
        self.ranking = overlay.compute_ranking = ComputeRanking(overlay)
        #: Nodes flagged ``down`` in the overlay's attrs, fixed for the
        #: view's life: a new down set is a new view.
        self._down = frozenset(down)
        for name in self._down:
            if overlay.has_node(name):
                overlay.node(name).attrs["down"] = True
        #: Claim moves (grants and releases) the ledger has reported.
        self.deltas = 0
        #: Reservations whose claims the overlay does not show yet,
        #: keyed by ``(nodes, id(edges))``: the next read of
        #: :attr:`graph` refreshes each.  The entry holds its ``edges``
        #: tuple alive, so the id names that one tuple while it waits.
        self.stale: dict[tuple, Reservation] = {}
        #: Selection memo: ``(spec key, CPU claim, bandwidth claim,
        #: claimed nodes, claimed channels) -> (node claims, channel
        #: claims, Selection | None, (edges,) | None)`` — the whole
        #: placement: ``None`` selection = proven infeasible, ``None``
        #: channels = the claims do not fit the selected set.  The key
        #: is an O(1) signature; an entry answers only while its two
        #: claim dicts equal the ledger's live totals, and a miss
        #: overwrites it.  On one base a placement is a pure function of
        #: the spec, the request's claims and the exact claim state —
        #: the down set is fixed for the view's lifetime — so a
        #: confirmed entry must yield the bit-identical answer;
        #: :meth:`rebase` empties it.  Maintained by the service;
        #: bounded there.
        self.selections: dict = {}
        self.selection_hits = 0

    # -- O(Δ) updates ---------------------------------------------------------
    def refresh_nodes(self, names: Collection[str]) -> None:
        """Reset each node to base capacity minus its current total claim.

        Mirrors :func:`residual_graph` exactly: no claim restores the
        base load average verbatim; a claim recomputes the equivalent
        load from the base CPU fraction.  Names absent from the snapshot
        are ignored (crashed/removed — their capacity is gone anyway).
        """
        self.ranking.mark(names)
        # The graphs' name -> node dicts and the ledger's live totals,
        # bound once and only read: no ``has_node`` / ``node`` /
        # ``node_claim`` call per name.
        nodes, base = self._overlay._nodes, self.base._nodes
        claims = self.ledger._node_claims
        for name in names:
            node = nodes.get(name)
            if node is None:
                continue
            base_node = base[name]
            claim = claims.get(name, 0.0)
            if claim <= 0.0:
                node.load_average = base_node.load_average
            else:
                residual = base_node.cpu - claim
                if residual < _MIN_RESIDUAL_CPU:  # as max would, to the bit
                    residual = _MIN_RESIDUAL_CPU
                node.load_average = load_from_cpu_fraction(residual)

    def refresh_edges(self, edges: Iterable[ChannelId]) -> None:
        """Reset each channel from base availability and the ledger's
        current total claim (absent links ignored).

        Walks the channels' resolved entries: the base read and the
        overlay write are attribute accesses, the clamp an ``if`` (what
        ``max`` returns, bit for bit: its first argument unless the
        second is strictly greater), and the write keeps
        :meth:`Link.set_available`'s range check."""
        channels = self.channels
        claims = self.ledger._edge_claims  # the live totals, read in place
        for edge in edges:
            entry = channels[edge]
            if entry is None:
                continue
            link, towards_v, base = entry
            claim = claims.get(edge, 0.0)
            if towards_v is None:  # a half-duplex link's one channel
                _refresh_shared(link, base, claim)
                continue
            remaining = base.available_fwd if towards_v else base.available_rev
            if not claim <= 0.0:  # residual_graph's test, negated
                remaining -= claim
                if remaining < 0.0:
                    remaining = 0.0
            if remaining < 0.0 or remaining > link.maxbw + MAXBW_SLACK:
                raise ValueError(
                    f"available bw {remaining} outside [0, maxbw={link.maxbw}]"
                )
            if towards_v:
                link.available_fwd = remaining
            else:
                link.available_rev = remaining

    def apply_delta(self, reservation: Reservation) -> None:
        """Fold one reservation's grant or release into the overlay.

        O(Δ): touches only the reservation's own nodes and channels.
        The direction of the change is irrelevant — both sides recompute
        from base + current ledger totals.
        """
        self.refresh_nodes(reservation.nodes)
        self.refresh_edges(reservation.edges)

    @property
    def graph(self) -> TopologyGraph:
        """The overlay, every stale reservation refreshed first."""
        if self.stale:
            self._settle()
        return self._overlay

    def _settle(self) -> None:
        stale, self.stale = self.stale, {}
        for reservation in stale.values():
            self.apply_delta(reservation)

    def rebase(
        self,
        base: TopologyGraph,
        nodes: Collection[str],
        links: Collection[frozenset],
    ) -> None:
        """Adopt ``base``: a snapshot of the same structure that differs
        from the current one in ``nodes`` and ``links`` (keys) only.

        Those are recomputed from the new base and the ledger's current
        totals, as a claim's delta is, and take the new base's attrs
        (health marks); the rest, the route cache included, stands.  The
        selection memo is valid for one base and is emptied.  The result
        equals a view built on ``base`` from scratch
        (:meth:`assert_matches_rebuild`).  Stale reservations are
        settled first: the memo that bounds their number is emptied.
        """
        if self.stale:
            self._settle()
        self.base = base
        # Named by the route cache, as every lease's channels are.
        named = self.routes._named
        channels = [c for k in links for c in named(base.link(*k))]
        self.channels.rebase(base, channels)
        overlay = self._overlay
        overlay.measurement = base.measurement
        self.selections.clear()
        for name in nodes:
            attrs = dict(base.node(name).attrs)
            if name in self._down:
                attrs["down"] = True
            overlay.node(name).attrs = attrs
        self.refresh_nodes(nodes)
        for key in links:
            u, v = key
            overlay.link(u, v).attrs = dict(base.link(u, v).attrs)
        self.refresh_edges(channels)

    def on_ledger_event(self, kind: str, reservation: Reservation) -> None:
        """Ledger subscription hook (``subscribe(view.on_ledger_event)``):
        a grant waits for the next read; a release refreshes at once
        unless its grant is still waiting, which then covers both."""
        if kind in DEADLINE_KINDS:
            return
        self.deltas += 1
        key = (reservation.nodes, id(reservation.edges))
        if kind == "reserve":
            self.stale[key] = reservation
        elif key not in self.stale:
            self.apply_delta(reservation)

    @property
    def down(self) -> frozenset:
        return self._down

    # -- verification ------------------------------------------------------------
    def assert_matches_rebuild(self) -> None:
        """Raise ``AssertionError`` unless the overlay is bit-identical
        to a from-scratch :func:`residual_graph` rebuild.

        Every float is compared with ``==`` — the overlay's contract is
        exact equality with the rebuild, not approximate agreement —
        and so are the attrs (health marks among them) and the sample
        ages, which a re-base has to carry over.
        """
        graph = self.graph
        rebuilt = residual_graph(
            self.base, self.ledger.node_claims(), self.ledger.edge_claims()
        )
        assert set(graph.node_names()) == set(rebuilt.node_names()), (
            "overlay node set drifted from snapshot"
        )
        for node in rebuilt.nodes():
            mine = graph.node(node.name)
            assert mine.load_average == node.load_average, (
                f"node {node.name!r}: overlay load {mine.load_average!r} != "
                f"rebuild {node.load_average!r}"
            )
            expected_down = (
                True if node.name in self._down
                else node.attrs.get("down")
            )
            assert mine.attrs.get("down") == expected_down, (
                f"node {node.name!r}: overlay down-flag "
                f"{mine.attrs.get('down')!r} != expected {expected_down!r}"
            )
            got = _sans_down(mine.attrs), graph.node_age(node.name)
            want = _sans_down(node.attrs), rebuilt.node_age(node.name)
            assert got == want, (
                f"node {node.name!r}: overlay attrs/age {got!r} != "
                f"rebuild {want!r}"
            )
        assert graph.num_links == rebuilt.num_links, (
            "overlay link set drifted from snapshot"
        )
        for link in rebuilt.links():
            mine = graph.link(link.u, link.v)
            assert mine.available_fwd == link.available_fwd, (
                f"link {link.u}--{link.v} fwd: overlay "
                f"{mine.available_fwd!r} != rebuild {link.available_fwd!r}"
            )
            assert mine.available_rev == link.available_rev, (
                f"link {link.u}--{link.v} rev: overlay "
                f"{mine.available_rev!r} != rebuild {link.available_rev!r}"
            )
            got = mine.attrs, graph.link_age(link.u, link.v)
            want = link.attrs, rebuilt.link_age(link.u, link.v)
            assert got == want, (
                f"link {link.u}--{link.v}: overlay attrs/age {got!r} != "
                f"rebuild {want!r}"
            )
        refs = self.ranking.refs
        assert list(ComputeRanking.of(graph, refs)) == \
            list(ComputeRanking.of(rebuilt, refs)), (
                "kept compute ranking drifted from the rebuild's"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ResidualView {self._overlay.num_nodes} nodes, "
            f"{len(self._down)} down, {self.deltas} claim moves, "
            f"{len(self.stale)} stale>"
        )


def _sans_down(attrs: dict) -> dict:
    return {k: v for k, v in attrs.items() if k != "down"}
