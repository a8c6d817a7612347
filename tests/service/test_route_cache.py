"""A channel is one object per route cache.

:class:`RouteCache` names every channel it hands out from the graph's
own ``link.key`` (``RouteCache._named``) and hands out the same object
each time, so the claim verification, the ledger's tallies, the overlay's
channel table and the WAL text memo find it in their dicts by identity.
Checked here on random trees (the span path), random graphs with cycles
and a half-duplex ring (the pair path): the channels equal the
pair-by-pair walk's (``route_edges``) by value, each one is a single
object across calls and node sets, its ``[0]`` *is* the graph's
``link.key``, a half-duplex link's one channel is one object from both
directions, the ledger keys a grant's tallies by those objects, and the
router's trunk memo (``_TrunkRoutes``) does the same.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApplicationSpec
from repro.service import (
    ReservationLedger,
    RouteCache,
    SelectionService,
    route_edges,
)
from repro.service.ledger import ledger_order
from repro.service.sharding.router import _TrunkRoutes
from repro.topology import TopologyGraph, random_tree
from repro.units import Mbps

from ..core.cyclic_graphs import asymmetric_ring, random_cyclic
from .test_ledger_matches_fabric import half_duplex


def _tree(seed):
    return random_tree(8, 4, np.random.default_rng(seed))


def _ring(_seed):
    return half_duplex(asymmetric_ring())


def _ring_one_half(_seed):
    return half_duplex(asymmetric_ring(), ("c", "s"))


SHAPES = {
    "random_tree": _tree,
    "random_cyclic": lambda seed: random_cyclic(seed, 8, 4, 3),
    "half_duplex_ring": _ring,
    "half_duplex_chord": _ring_one_half,
}


@st.composite
def cases(draw):
    """``(graph, node sets)``: a shape, and a few node sets drawn from
    its compute nodes (repeats and overlaps likely)."""
    shape = draw(st.sampled_from(sorted(SHAPES)))
    graph = SHAPES[shape](draw(st.integers(0, 2**16)))
    names = sorted(n.name for n in graph.compute_nodes())
    sets = draw(st.lists(
        st.lists(st.sampled_from(names), min_size=1, max_size=4,
                 unique=True),
        min_size=1, max_size=6,
    ))
    return graph, sets


def _assert_interned(graph, channels):
    """One object per channel value, and each one's key *is* the key of
    the graph's link."""
    by_value = {}
    for channel in channels:
        assert by_value.setdefault(channel, channel) is channel, channel
        key, dst = channel
        link = graph.link_by_key(key)
        assert link is not None and key is link.key
        assert channel == link.channel(dst if dst in key else link.u)


def _path_channels(graph, a, b):
    path = graph.path(a, b)
    return None if path is None else tuple(
        graph.link(u, v).channel(v) for u, v in zip(path, path[1:])
    )


@given(cases())
@settings(max_examples=60, deadline=None)
def test_one_object_per_channel(case):
    graph, sets = case
    cache = RouteCache(graph)
    seen = []
    for nodes in sets + sets[::-1]:
        edges = cache.edges_for(nodes)
        assert isinstance(edges, tuple)
        assert set(edges) == route_edges(graph, nodes)
        assert list(edges) == sorted(edges, key=ledger_order)
        assert len(set(edges)) == len(edges)
        seen += edges
        for a, b in itertools.permutations(nodes, 2):
            hops = cache._pair_edges(a, b)
            assert hops == _path_channels(graph, a, b)
            seen += hops or ()
    _assert_interned(graph, seen)


def test_a_half_duplex_channel_is_one_object_both_ways():
    """``a-p-z-b`` and ``b-c-s-a`` cross no common link, so every
    direction of every ring link is routed; the half-duplex chord
    ``c--s`` is one channel whichever way the hop runs."""
    graph = _ring_one_half(0)
    cache = RouteCache(graph)
    shared = graph.link("c", "s")
    hops = [cache._pair_edges("b", "a"), cache._pair_edges("s", "c"),
            cache._pair_edges("c", "s"), cache.edges_for(["a", "b"])]
    found = [h for hop in hops for h in hop if h[0] == shared.key]
    assert len(found) == 4
    assert all(h is found[0] for h in found)
    assert found[0] == shared.channel("c") == shared.channel("s")
    assert found[0][0] is shared.key
    # A full-duplex link's two channels stay two, on its one key.
    full = graph.link("a", "p")
    (to_p,) = cache._pair_edges("a", "p")
    (to_a,) = cache._pair_edges("p", "a")
    assert (to_p, to_a) == (full.channel("p"), full.channel("a"))
    assert to_p[0] is to_a[0] is full.key


@given(cases())
@settings(max_examples=40, deadline=None)
def test_the_ledger_keys_a_grant_by_the_cache_objects(case):
    graph, sets = case
    cache = RouteCache(graph)
    ledger = ReservationLedger()
    handed = {}
    for i, nodes in enumerate(sets):
        edges = cache.edges_for(nodes)
        handed.update((id(e), e) for e in edges)
        r = ledger.reserve(f"a{i}", nodes, cpu_fraction=0.0,
                           bw_bps=1 * Mbps, graph=graph, now=0.0,
                           lease_s=60.0, edges=edges)
        assert r.edges is edges
        assert all(id(k) in handed for k in ledger._edge_claims)
        assert len(r.caps) == len(edges)
        assert all(id(k) in handed for k in ledger._channel_caps())
    ledger.check_invariants()


def test_a_service_grant_is_keyed_by_its_overlay_cache():
    """End to end: the ledger's tallies, the overlay's channel table and
    the grant's edges hold the one object the overlay's route cache
    named for each channel."""
    svc = SelectionService(_tree(3), lease_s=60.0)
    grant = svc.request("app", ApplicationSpec(num_nodes=3),
                        cpu_fraction=0.1, bw_bps=1 * Mbps)
    assert grant.admitted
    view = svc._view
    edges = svc.ledger.reservations["app"].edges
    assert edges
    named = {
        id(c) for e in edges
        for c in view.routes._named(view.base.link_by_key(e[0]))
    }
    assert {id(e) for e in edges} <= named
    assert {id(k) for k in svc.ledger._edge_claims} <= named
    assert {id(k) for k in view.channels} <= named
    svc.check_invariants()


@given(cases(), st.integers(2, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_trunk_channels_are_interned_too(case, shards, data):
    """``_TrunkRoutes`` keeps only the hops between shards of any
    assignment; what it answers equals the full routes filtered, and
    is interned as the base cache's channels are."""
    graph, sets = case
    names = graph.node_names()
    shard_of = {
        name: data.draw(st.integers(0, shards - 1)) for name in names
    }
    routes = _TrunkRoutes(graph, shard_of)
    seen = []
    for nodes in sets:
        groups = [[n] for n in nodes]
        got = routes.edges_between(groups)
        want = set()
        for a, b in itertools.permutations(nodes, 2):
            want.update(
                e for e in route_edges(graph, (a, b))
                if len({shard_of[end] for end in e[0]}) == 2
            )
        assert got == want
        seen += got
        seen += routes.edges_between(groups)
    _assert_interned(graph, seen)


def test_one_span_per_admission(monkeypatch):
    """A bandwidth claim that misses both the selection memo and the
    route cache climbs the selected set's span once: the kernel scores
    the selection with it and the lease is routed by the same answer.
    The grant's channels are still the pair walk's, named by the
    overlay's route cache."""
    svc = SelectionService(_tree(5), lease_s=60.0)
    svc.request("warm", ApplicationSpec(num_nodes=2),
                cpu_fraction=0.1, bw_bps=1 * Mbps)
    view = svc._view
    calls = []
    span = TopologyGraph.span

    def recording(self, names):
        names = tuple(names)
        answer = span(self, names)
        calls.append((self, names, answer))  # keeps each answer alive
        return answer

    monkeypatch.setattr(TopologyGraph, "span", recording)
    misses, memo = view.routes.misses, svc.metrics.select_memo_hits
    grant = svc.request("counted", ApplicationSpec(num_nodes=4),
                        cpu_fraction=0.1, bw_bps=1 * Mbps)
    monkeypatch.undo()
    assert grant.admitted
    assert svc.metrics.select_memo_hits == memo
    assert view.routes.misses == misses + 1
    nodes = sorted(grant.selection.nodes)
    mine = [c for c in calls if sorted(c[1]) == nodes]
    assert len(mine) == 2  # the kernel's scoring, the lease's routing
    climbs = {id(answer[0]) for _, _, answer in mine}
    assert len(climbs) == 1, "the selected set's span was climbed twice"
    assert all(graph is view.graph for graph, _, _ in mine)
    edges = svc.ledger.reservations["counted"].edges
    assert set(edges) == route_edges(view.base, grant.selection.nodes)
    named = {
        id(c) for e in edges
        for c in view.routes._named(view.base.link_by_key(e[0]))
    }
    assert {id(e) for e in edges} <= named
    svc.check_invariants()
