"""The mutable residual overlay: O(Δ) capacity views for the hot path.

:meth:`ReservationLedger.apply` is correct but O(V+E) per call — it
copies the whole snapshot and re-debits every claim, even though one
admission or release only touches the handful of nodes and channels in
*that* reservation.  At 33 hosts the copy is noise; at 1000+ it
dominates the request/release cycle (README "Service hot-path
performance" keeps the measured 33 → 1000-host table).

:class:`ResidualView` keeps **one** debited copy alive across claims
and across snapshots, and moves it in place:

- the service subscribes it to the ledger, so every grant, release,
  expiry and crash eviction triggers :meth:`apply_delta` — O(Δ) in the
  reservation's node/edge count (a renewal moves a deadline, no claim:
  :data:`~repro.service.ledger.DEADLINE_KINDS` are passed over);
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
  out of it in the ledger's order and are walked here as stored) and a
  :class:`~repro.service.cache.PeelScheduleCache` exposed to the kernel
  through the ``peel_schedule_provider`` graph hook, so selections
  against the view skip the O(E log E) re-sort while no claimed link is
  in it, a :class:`ChannelTable` resolving each channel to
  its overlay and base links once, and a
  :class:`~repro.core.kernel.ComputeRanking` on the ``compute_ranking``
  hook — the candidates best first, for the bandwidth-floor procedure
  and the batch planner to walk.  A node update only names what moved;
  the next selection to read the ranking re-keys it, so a cycle the
  selection memo answers pays nothing;
- a new snapshot that says which resources it replaced
  (:attr:`TopologyGraph.measurement`; ``RemosAPI.topology()`` does) is
  adopted by :meth:`rebase`: the same recompute-from-base over those
  nodes and links only, routes kept, peel schedules forgotten.

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
from .cache import PeelScheduleCache, RouteCache
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

    def rebase(self, base: TopologyGraph, keys: Iterable[frozenset]) -> None:
        """Adopt ``base``, whose links differ from the current base's in
        ``keys`` only: the entries of those channels carry its links."""
        self.base = base
        for key in keys:
            link = base.link_by_key(key)
            for channel in link.channels():
                entry = self.get(channel)
                if entry is not None:
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
        self.graph = residual_graph(
            base, ledger.node_claims(), ledger.edge_claims()
        )
        self.routes = RouteCache(base)
        #: The overlay's channels, resolved once each to the overlay's
        #: link and the base link it is recomputed from.
        self.channels = ChannelTable(self.graph, base)
        self.schedules = PeelScheduleCache(base)
        # The kernel hook (see repro.core.kernel._schedule): selections
        # against this overlay reuse the base peel sort while no claimed
        # link is in it.
        self.graph.peel_schedule_provider = self.schedules.provider(
            self.graph, ledger.claimed_link_keys
        )
        # The other kernel hook: refresh_nodes() names what moved, the
        # next reader (floor procedure, batch planner) re-keys it.
        self.ranking = self.graph.compute_ranking = ComputeRanking(self.graph)
        #: Nodes flagged ``down`` in the overlay's attrs, fixed for the
        #: view's life: a new down set is a new view.
        self._down = frozenset(down)
        for name in self._down:
            if self.graph.has_node(name):
                self.graph.node(name).attrs["down"] = True
        #: In-place updates applied since construction (for metrics).
        self.deltas = 0
        #: Selection memo: ``(spec key, claimed nodes, claimed channels)
        #: -> (node claims, channel claims, Selection | None)`` (``None``
        #: = proven infeasible).  The key is an O(1) signature; an entry
        #: answers only while its two claim dicts equal the ledger's live
        #: totals, and a miss overwrites it.  On one base a selection is
        #: a pure function of the spec and the exact claim state — the
        #: down set is fixed for the view's lifetime — so a confirmed
        #: entry must yield the bit-identical selection; :meth:`rebase`
        #: empties it.  Maintained by the service; bounded there.
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
        for name in names:
            if not self.graph.has_node(name):
                continue
            base_node = self.base.node(name)
            claim = self.ledger.node_claim(name)
            if claim <= 0.0:
                self.graph.node(name).load_average = base_node.load_average
            else:
                residual = max(base_node.cpu - claim, _MIN_RESIDUAL_CPU)
                self.graph.node(name).load_average = load_from_cpu_fraction(
                    residual
                )

    def refresh_edges(self, edges: Iterable[ChannelId]) -> None:
        """Reset each channel from base availability and the ledger's
        current total claim (absent links ignored).

        Walks the channels' resolved entries: the base read and the
        overlay write are attribute accesses, and the write keeps
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
            base_avail = (
                base.available_fwd if towards_v else base.available_rev
            )
            if claim <= 0.0:
                remaining = base_avail
            else:
                remaining = max(base_avail - claim, 0.0)
            if remaining < 0 or remaining > link.maxbw + MAXBW_SLACK:
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
        self.deltas += 1
        self.refresh_nodes(reservation.nodes)
        self.refresh_edges(reservation.edges)

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
        (:meth:`assert_matches_rebuild`).
        """
        self.schedules.rebase(base)
        self.base = self.routes.graph = base
        self.channels.rebase(base, links)
        self.graph.measurement = base.measurement
        self.selections.clear()
        for name in nodes:
            attrs = dict(base.node(name).attrs)
            if name in self._down:
                attrs["down"] = True
            self.graph.node(name).attrs = attrs
        self.refresh_nodes(nodes)
        for key in links:
            u, v = key
            self.graph.link(u, v).attrs = dict(base.link(u, v).attrs)
        self.refresh_edges(c for k in links for c in base.link_by_key(k).channels())

    def on_ledger_event(self, kind: str, reservation: Reservation) -> None:
        """Ledger subscription hook (``subscribe(view.on_ledger_event)``)."""
        if kind not in DEADLINE_KINDS:
            self.apply_delta(reservation)  # grant or release, no matter

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
        rebuilt = residual_graph(
            self.base, self.ledger.node_claims(), self.ledger.edge_claims()
        )
        assert set(self.graph.node_names()) == set(rebuilt.node_names()), (
            "overlay node set drifted from snapshot"
        )
        for node in rebuilt.nodes():
            mine = self.graph.node(node.name)
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
            got = _sans_down(mine.attrs), self.graph.node_age(node.name)
            want = _sans_down(node.attrs), rebuilt.node_age(node.name)
            assert got == want, (
                f"node {node.name!r}: overlay attrs/age {got!r} != "
                f"rebuild {want!r}"
            )
        assert self.graph.num_links == rebuilt.num_links, (
            "overlay link set drifted from snapshot"
        )
        for link in rebuilt.links():
            mine = self.graph.link(link.u, link.v)
            assert mine.available_fwd == link.available_fwd, (
                f"link {link.u}--{link.v} fwd: overlay "
                f"{mine.available_fwd!r} != rebuild {link.available_fwd!r}"
            )
            assert mine.available_rev == link.available_rev, (
                f"link {link.u}--{link.v} rev: overlay "
                f"{mine.available_rev!r} != rebuild {link.available_rev!r}"
            )
            got = mine.attrs, self.graph.link_age(link.u, link.v)
            want = link.attrs, rebuilt.link_age(link.u, link.v)
            assert got == want, (
                f"link {link.u}--{link.v}: overlay attrs/age {got!r} != "
                f"rebuild {want!r}"
            )
        refs = self.ranking.refs
        assert ComputeRanking.of(self.graph, refs) == \
            ComputeRanking.of(rebuilt, refs), (
                "kept compute ranking drifted from the rebuild's"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ResidualView {self.graph.num_nodes} nodes, "
            f"{len(self._down)} down, {self.deltas} deltas applied>"
        )


def _sans_down(attrs: dict) -> dict:
    return {k: v for k, v in attrs.items() if k != "down"}
