"""Snapshot caching and epoch-keyed memoization for the selection service.

A Remos topology query is a full sweep: every host's load history and
every link's counter history pass through the predictor
(:meth:`repro.remos.api.RemosAPI.topology`).  A service fielding a burst
of selection requests cannot afford N sweeps for N requests when the
underlying measurements only change once per collector poll period.

:class:`SnapshotCache` memoizes the provider's snapshot with a TTL and
exposes the same ``topology()`` protocol, so it drops transparently in
front of a :class:`~repro.core.NodeSelector`:

- requests within ``ttl`` of the last sweep share it (**hits**);
- requests at the *same instant* as the last sweep share it even with
  ``ttl=0`` (**coalescing** — a simultaneous burst is one sweep by
  definition, caching disabled or not);
- :meth:`invalidate` drops the snapshot immediately; the selection
  service wires it to fault/recovery events so a crash never serves a
  pre-crash snapshot for up to a TTL.

Every sweep that answers a new graph and every invalidation advances
:attr:`SnapshotCache.epoch`, the generation counter the rest of the hot
path revalidates on.  When
the new snapshot names what differs from the one the overlay stands on
(:attr:`TopologyGraph.measurement`), the overlay is re-based and its
:class:`RouteCache` (routed channel sets per node set — pure topology
*structure*, unchanged by claims and measurements alike) is kept;
otherwise, and after any invalidation, it is rebuilt with the overlay.

Callers must treat the returned graph as shared and immutable — debit
views (:class:`repro.service.ResidualView`) copy it anyway.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from ..obs.trace import NULL_TRACER
from ..topology.graph import ChannelId, Link, TopologyGraph
from .ledger import ledger_order

__all__ = ["RouteCache", "SnapshotCache"]


class SnapshotCache:
    """A TTL + coalescing cache in front of any topology provider.

    Parameters
    ----------
    provider:
        Anything with a ``topology() -> TopologyGraph`` method.
    ttl:
        Seconds a snapshot stays fresh (0 disables caching but keeps
        same-instant coalescing).
    clock:
        Time source (the service passes simulated time; defaults would be
        meaningless here, so it is required).
    """

    def __init__(
        self,
        provider,
        ttl: float,
        clock: Callable[[], float],
        tracer=None,
    ) -> None:
        if not ttl >= 0:  # NaN too: no age would compare within it
            raise ValueError(f"ttl must be a non-negative number: {ttl}")
        self.provider = provider
        self.ttl = float(ttl)
        self.clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._graph: Optional[TopologyGraph] = None
        self._taken_at = float("-inf")
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.invalidations = 0
        #: Snapshot generation: advances on every invalidation and every
        #: sweep whose answer is not the held graph.
        #: Anything memoized against a snapshot (residual overlays, route
        #: caches) revalidates when this moves.
        self.epoch = 0

    def topology(self) -> TopologyGraph:
        """The cached snapshot, refreshed via the provider when stale."""
        now = self.clock()
        if self._graph is not None:
            age = now - self._taken_at
            if age <= self.ttl:
                self.hits += 1
                if age == 0.0:
                    self.coalesced += 1
                return self._graph
        if self.tracer.enabled:
            with self.tracer.span("snapshot.sweep", epoch=self.epoch + 1):
                graph = self.provider.topology()
        else:
            graph = self.provider.topology()
        # Counted only once there is a graph to show for it: a sweep
        # that raised leaves the previous snapshot and its epoch standing,
        # and one that answered the held graph (a static provider's)
        # is no new snapshot.
        self._taken_at = now
        self.misses += 1
        if graph is not self._graph:
            self._graph = graph
            self.epoch += 1
        return graph

    def invalidate(self) -> None:
        """Drop the cached snapshot (next query sweeps afresh)."""
        if self._graph is not None:
            self._graph = None
            self._taken_at = float("-inf")
            self.invalidations += 1
            self.epoch += 1

    @property
    def held(self) -> Optional[TopologyGraph]:
        """The snapshot held now, fresh or not (``None`` once dropped);
        reading it never sweeps."""
        return self._graph

    @property
    def age(self) -> float:
        """Seconds since the cached snapshot was taken (inf when empty)."""
        if self._graph is None:
            return float("inf")
        return self.clock() - self._taken_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<SnapshotCache ttl={self.ttl:g}s hits={self.hits} "
            f"misses={self.misses} coalesced={self.coalesced}>"
        )


#: Bound on each memo an overlay carries (selections, routed node sets;
#: its square on routed pairs, which number as the square of the names
#: they join); a full one is cleared wholesale.
_SELECTION_MEMO_LIMIT = 256


class RouteCache:
    """Memoized routed channel sets for one topology structure.

    :func:`repro.service.route_edges` asks for one path per ordered node
    pair and the service used to pay that twice per admission attempt
    (claim verification, then again inside ``reserve``).  Routes depend
    only on topology *structure*, which neither capacity claims nor
    fresh measurements touch, so a node *set* resolves to its channels
    once and is remembered (up to :data:`_SELECTION_MEMO_LIMIT` sets).
    On a forest they are the channels of every
    :meth:`~repro.topology.TopologyGraph.span` link, O(m · depth); with
    a cycle every ordered pair is resolved through the per-pair memo
    (bounded at the square; each miss follows the graph's kept next-hop
    map, O(path length)).  Either way the answer is a tuple in
    :func:`~repro.service.ledger.ledger_order`, which ``reserve`` stores
    as it is.  Its channels are interned (:meth:`_named`): a channel is
    one object in every tuple the cache hands out, so the claim
    verification, the ledger, the overlay and the WAL find it in their
    dicts by identity.

    The cache answers for any graph sharing its graph's structure, and
    every copy shares its links' keys, so the channels are the same
    objects whichever copy named them.  A residual view routes on its
    overlay, the graph its selections run on: a lease's span is then the
    one :meth:`~repro.topology.TopologyGraph.span` just climbed to score
    the selection, answered again without a climb.  The snapshots a
    re-base moves the overlay to have the same structure; the service
    discards the cache only with the overlay, on a rebuild.
    """

    def __init__(self, graph: TopologyGraph) -> None:
        self.graph = graph
        #: Link key -> the link's channels, built once (see :meth:`_named`).
        self._channels: dict[frozenset, tuple[ChannelId, ...]] = {}
        #: Ordered pair -> channel tuple (None: pair is disconnected).
        self._pairs: dict[
            tuple[str, str], Optional[tuple[ChannelId, ...]]
        ] = {}
        #: Sorted node tuple -> its channels, in ledger order.
        self._sets: dict[tuple[str, ...], tuple[ChannelId, ...]] = {}
        self.hits = 0
        self.misses = 0

    def _pair_edges(self, a: str, b: str) -> Optional[tuple[ChannelId, ...]]:
        key = (a, b)
        if key in self._pairs:
            return self._pairs[key]
        path = self.graph.path(a, b)
        edges = None if path is None else self._hops(path)
        if len(self._pairs) >= _SELECTION_MEMO_LIMIT ** 2:
            self._pairs.clear()
        self._pairs[key] = edges
        return edges

    def _hops(self, path: list[str]) -> tuple[ChannelId, ...]:
        """The channels the pair memo keeps of a routed ``path``: all."""
        return tuple(self._hop(u, v) for u, v in zip(path, path[1:]))

    def _hop(self, u: str, v: str) -> ChannelId:
        """The channel of the hop from ``u`` to ``v``: towards ``v``."""
        named = self._named(self.graph.link(u, v))
        return named[-1] if u < v else named[0]

    def _named(self, link: Link) -> tuple[ChannelId, ...]:
        """``link``'s channels in ledger order, as :meth:`Link.channel`
        names them from the graph's own ``link.key`` (a half-duplex
        link's one channel once): built the first time the link is
        named, the same objects for the cache's life.  The one place
        the cache builds a channel."""
        named = self._channels.get(link.key)
        if named is None:
            named = tuple(sorted(link.channels(), key=ledger_order))
            self._channels[link.key] = named
        return named

    def connected(self, a: str, b: str) -> bool:
        """Whether a routed path exists from ``a`` to ``b`` (memoized).

        The batch-admission planner uses this to keep greedy placements
        inside one component without a per-request O(V+E) sweep.
        """
        return a == b or self._pair_edges(a, b) is not None

    def edges_for(self, nodes: Sequence[str]) -> tuple[ChannelId, ...]:
        """Link channels used by traffic among ``nodes``: those of
        :func:`repro.service.route_edges` on the cache's graph (and so on
        any same-structure copy of it), in ledger order.  The tuple is
        the memo's own and shared between callers.
        """
        key = tuple(sorted(nodes))
        edges = self._sets.get(key)
        if edges is not None:
            self.hits += 1
            return edges
        self.misses += 1
        span = self.graph.span(nodes)
        if span is not None:
            named = self._named
            hops: list[ChannelId] = []
            # Distinct links have distinct ends: no link is compared.
            for _ends, link in sorted(
                ((l.u, l.v) if l.u < l.v else (l.v, l.u), l) for l in span[0]
            ):
                hops += named(link)
            edges = tuple(hops)
        else:
            found: set[ChannelId] = set()
            for a, b in itertools.permutations(nodes, 2):
                found.update(self._pair_edges(a, b) or ())
            edges = tuple(sorted(found, key=ledger_order))
        if len(self._sets) >= _SELECTION_MEMO_LIMIT:
            self._sets.clear()
        self._sets[key] = edges
        return edges

    def edges_between(
        self, groups: Sequence[Sequence[str]]
    ) -> set[ChannelId]:
        """Link channels used by traffic *between* distinct groups
        (those the pair memo keeps: see :meth:`_hops`).

        Pairs wholly inside one group are skipped — the sharded router
        uses this for trunk accounting, where each group is a connected
        shard whose internal routes never leave it, so only inter-group
        pairs can touch a boundary link.
        """
        edges: set[ChannelId] = set()
        for i, ga in enumerate(groups):
            for j, gb in enumerate(groups):
                if i == j:
                    continue
                for a in ga:
                    for b in gb:
                        hops = self._pair_edges(a, b)
                        if hops:
                            edges.update(hops)
        return edges
