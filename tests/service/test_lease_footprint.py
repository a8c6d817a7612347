"""A lease's footprint is one subtree: span == the union of pair paths.

On a forest :meth:`TopologyGraph.span` finds the links joining a node set
by one climb per name, and three layers read it instead of walking every
pair: ``core.metrics._pairwise_minima`` (both minima over the span's
links), ``RouteCache.edges_for`` (both directions of each span link, in
the ledger's order) and, through the tuple the cache hands over,
``ReservationLedger.reserve`` and the residual overlay (one pass each).
Every one is compared with ``==`` against the pair-by-pair walk it
replaced — on generated forests and on a cyclic grid, where the pair
walk is still what runs — then end to end: a durable service fed the
cache's tuples writes the WAL it writes when ``reserve`` routes for
itself, one admission on 1 000 hosts walks no pair, and a refused
reservation leaves no trace.
"""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApplicationSpec, References
from repro.core.metrics import _pairwise_minima
from repro.service import (
    LedgerError,
    ReservationLedger,
    ResidualView,
    RouteCache,
    SelectionService,
    route_edges,
)
from repro.service.cache import _SELECTION_MEMO_LIMIT
from repro.service.ledger import ledger_order
from repro.topology import TopologyGraph, grid, random_tree
from repro.units import Mbps

from ..oracles import pairwise_minima_by_paths

REFS = [References(), References(link_bandwidth=155 * Mbps)]
BANDWIDTHS = st.sampled_from([0.0, 10.0, 10.0, 40.0, 70.0, 100.0])


@st.composite
def forests(draw):
    """``(graph, names)``: up to 14 nodes under several roots, interior
    nodes network-only, every link with its own two availabilities, and
    a duplicate-free pick of names of any kind (none, one and two among
    the sizes)."""
    n = draw(st.integers(1, 14))
    # -1: a new root; else the node hangs under an earlier one.
    parents = [-1] + [
        draw(st.integers(-1, i - 1)) for i in range(1, n)
    ]
    interior = {p for p in parents if p >= 0}
    g = TopologyGraph()
    for i in range(n):
        if i in interior:
            g.add_network(f"n{i}")
        else:
            g.add_compute(f"n{i}")
    for i, p in enumerate(parents):
        if p >= 0:
            link = g.add_link(f"n{i}", f"n{p}", 100 * Mbps)
            link.available_fwd = draw(BANDWIDTHS) * Mbps
            link.available_rev = draw(BANDWIDTHS) * Mbps
    names = draw(st.lists(
        st.sampled_from(g.node_names()), unique=True, max_size=6,
    ))
    return g, names


def contended_grid():
    rng = np.random.default_rng(3)
    g = grid(3, 3, bandwidth=100 * Mbps)
    for link in g.links():
        link.available_fwd = float(rng.integers(0, 6)) * 20 * Mbps
        link.available_rev = float(rng.integers(0, 6)) * 20 * Mbps
    return g


def ordered(edges):
    return tuple(sorted(edges, key=ledger_order))


# -- the primitive -------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(forests())
def test_span_is_the_union_of_pair_paths(forest):
    g, names = forest
    links, connected = g.span(names)
    want, every_pair = set(), True
    for a, b in itertools.combinations(names, 2):
        path = g.path(a, b)
        if path is None:
            every_pair = False
        else:
            want.update(frozenset(hop) for hop in zip(path, path[1:]))
    assert connected == every_pair
    assert len(links) == len(want)  # no link twice
    assert {link.key for link in links} == want
    assert all(link is g.link(link.u, link.v) for link in links)


def test_span_counts_a_repeated_name_once_per_mention():
    g = random_tree(6, 3, np.random.default_rng(1))
    assert g.span(["c0", "c0"]) == ([], True)
    once = {l.key for l in g.span(["c0", "c4"])[0]}
    assert {l.key for l in g.span(["c0", "c4", "c0"])[0]} == once


def test_span_refuses_cycles_and_unknown_names():
    assert grid(3, 3).span(["g0-0", "g2-2"]) is None
    with pytest.raises(KeyError):
        random_tree(4, 2, np.random.default_rng(0)).span(["c0", "nobody"])


# -- scoring -------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(forests(), st.sampled_from(REFS))
def test_minima_over_the_span_equal_the_pair_walk_on_forests(forest, refs):
    g, names = forest
    assert _pairwise_minima(g, names, refs) == \
        pairwise_minima_by_paths(g, names, refs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(grid(3, 3).node_names()), unique=True,
             max_size=5),
    st.sampled_from(REFS),
)
def test_minima_equal_the_pair_walk_on_a_cyclic_grid(names, refs):
    g = contended_grid()
    assert _pairwise_minima(g, names, refs) == \
        pairwise_minima_by_paths(g, names, refs)


# -- routing -------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(forests())
def test_route_cache_equals_ordered_route_edges_on_forests(forest):
    g, names = forest
    cache = RouteCache(g)
    want = ordered(route_edges(g, names))
    got = cache.edges_for(names)
    assert got == want and isinstance(got, tuple)
    assert cache.edges_for(list(reversed(names))) is got  # the memo's own
    assert not cache._pairs  # nothing was walked pair by pair


@pytest.mark.parametrize("reverse", [False, True])
def test_route_cache_equals_ordered_route_edges_on_a_cyclic_grid(reverse):
    """Each set is asked in name order or reversed: on a cycle a pair's
    path is not always its reverse's, so the answer must still cover
    every ordered pair whichever name comes first."""
    g = grid(3, 3)
    cache = RouteCache(g)
    hosts = g.node_names()
    for names in itertools.combinations(hosts, 3):
        if reverse:
            names = names[::-1]
        assert cache.edges_for(names) == ordered(route_edges(g, names))


def test_route_memo_is_bounded():
    g = random_tree(40, 6, np.random.default_rng(2))
    cache = RouteCache(g)
    hosts = [n.name for n in g.compute_nodes()]
    for names in itertools.islice(
        itertools.combinations(hosts, 3), 3 * _SELECTION_MEMO_LIMIT
    ):
        cache.edges_for(names)
        assert len(cache._sets) <= _SELECTION_MEMO_LIMIT
    assert cache.misses == 3 * _SELECTION_MEMO_LIMIT and not cache._pairs


@pytest.mark.parametrize("cyclic", [False, True])
def test_pair_memo_is_bounded_where_pairs_are_walked(cyclic, monkeypatch):
    """``connected`` and ``edges_between`` resolve pair by pair on any
    graph, and ``edges_for`` does too on a cyclic one; the pair memo
    holds the square of what the others hold (the routers' live
    pair sets on ``sharded_10k`` / ``workers_10k`` are 336 and 379:
    at the plain limit they were re-walked after every clear)."""
    limit = 4
    monkeypatch.setattr("repro.service.cache._SELECTION_MEMO_LIMIT", limit)
    g = grid(3, 3) if cyclic else random_tree(
        9, 3, np.random.default_rng(2)
    )
    cache = RouteCache(g)
    hosts = g.node_names()[:9]
    assert len(hosts) * (len(hosts) - 1) > 2 * limit ** 2
    for names in itertools.combinations(hosts, 3):
        assert cache.edges_for(names) == ordered(route_edges(g, names))
        assert len(cache._sets) <= limit
        assert len(cache._pairs) <= limit ** 2
    for a, b in itertools.permutations(hosts, 2):
        assert cache.connected(a, b)
        assert len(cache._pairs) <= limit ** 2
    halves = [hosts[:4], hosts[4:]]
    assert cache.edges_between(halves) == {
        edge for a in halves[0] for b in halves[1]
        for edge in route_edges(g, (a, b))
    }
    assert 0 < len(cache._pairs) <= limit ** 2


# -- the ledger ----------------------------------------------------------------

def tree_1k():
    rng = np.random.default_rng(0)
    g = random_tree(1000, 200, rng, bandwidth=100 * Mbps)
    for link in g.links():
        link.available_fwd = float(rng.uniform(20, 100)) * Mbps
        link.available_rev = float(rng.uniform(20, 100)) * Mbps
    for node in g.compute_nodes():
        node.load_average = float(rng.uniform(0, 0.5))
    return g


def churn(svc, ops=120):
    """Sizes vary, a window of leases stays live, leases are renewed and
    the clock moves (``churn_1k`` in small)."""
    rng = np.random.default_rng(4)
    live = []
    for i in range(ops):
        app = f"app-{i}"
        grant = svc.request(
            app, ApplicationSpec(num_nodes=int(rng.integers(2, 9))),
            cpu_fraction=0.1, bw_bps=float(rng.integers(1, 4)) * Mbps,
        )
        if grant.admitted:
            live.append(app)
            if len(live) > 12:
                svc.release(live.pop(0))
        svc.renew(live[i % len(live)])
        if i % 8 == 7:
            svc.advance(1.0)
            svc.tick()
    svc.check_invariants()
    return live


def test_durable_service_writes_the_same_wal_with_and_without_edges(tmp_path):
    """The cache's tuple is what ``reserve`` would have routed and
    sorted for itself: same records, same bytes, same recovered ledger."""
    g = random_tree(120, 24, np.random.default_rng(7), bandwidth=100 * Mbps)
    dirs = [str(tmp_path / "cached"), str(tmp_path / "routed")]
    services = [
        SelectionService(
            g, snapshot_ttl=1e9, lease_s=30.0, queue_limit=0,
            state_dir=d, wal_fsync=False, wal_snapshot_every=50,
        )
        for d in dirs
    ]
    reserve = services[1].ledger.reserve
    services[1].ledger.reserve = (
        lambda *args, **kw: reserve(*args, **{**kw, "edges": None})
    )
    assert churn(services[0]) == churn(services[1])
    for svc in services:
        svc.wal.close()
    for name in sorted(os.listdir(dirs[0])):
        with open(os.path.join(dirs[0], name), "rb") as a, \
                open(os.path.join(dirs[1], name), "rb") as b:
            assert a.read() == b.read(), name
    assert sorted(os.listdir(dirs[0])) == sorted(os.listdir(dirs[1]))
    recovered = [ReservationLedger.recover(d) for d in dirs]
    for ledger, svc in zip(recovered, services):
        ledger.check_invariants()
        assert ledger.reservations == svc.ledger.reservations
        assert ledger._edge_claims == svc.ledger._edge_claims
        assert {a: r.caps for a, r in ledger.reservations.items()} == {
            a: r.caps for a, r in svc.ledger.reservations.items()
        }
        assert ledger._node_claims == svc.ledger._node_claims
    assert recovered[0].reservations == recovered[1].reservations


def test_one_admission_walks_no_pair_and_reads_each_channel_four_times(
    monkeypatch,
):
    svc = SelectionService(tree_1k(), snapshot_ttl=1e9, lease_s=60.0,
                           queue_limit=0)
    assert svc.request("warm", ApplicationSpec(num_nodes=3),
                       cpu_fraction=0.1, bw_bps=1 * Mbps).admitted
    calls = {"path": 0, "link": 0, "link_by_key": 0}
    for name in calls:
        method = getattr(TopologyGraph, name)

        def counting(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(TopologyGraph, name, counting)
    misses = svc._view.routes.misses
    grant = svc.request("counted", ApplicationSpec(num_nodes=8),
                        cpu_fraction=0.1, bw_bps=1 * Mbps)
    assert grant.admitted
    assert svc._view.routes.misses == misses + 1  # a set never seen
    edges = grant.reservation.edges
    assert len(edges) >= 16
    assert calls["path"] == 0
    assert calls["link"] + calls["link_by_key"] <= 4 * len(edges)
    monkeypatch.undo()
    svc.check_invariants()


def footprint_rig():
    g = random_tree(12, 4, np.random.default_rng(9), bandwidth=100 * Mbps)
    ledger = ReservationLedger()
    view = ResidualView(g, ledger)
    ledger.subscribe(view.on_ledger_event)
    nodes = ["c5", "c7", "c9"]
    ledger.reserve("standing", nodes, cpu_fraction=0.2, bw_bps=60 * Mbps,
                   graph=g, now=0.0, lease_s=10.0,
                   edges=view.routes.edges_for(nodes))
    return g, ledger, view, nodes


def books(ledger, view):
    return (
        dict(ledger._edge_claims),
        {a: r.caps for a, r in ledger.reservations.items()},
        dict(ledger._node_claims), sorted(ledger.reservations),
        [(l.available_fwd, l.available_rev) for l in view.graph.links()],
        [n.load_average for n in view.graph.nodes()],
    )


def test_a_refused_reservation_leaves_no_trace():
    g, ledger, view, nodes = footprint_rig()
    before = books(ledger, view)
    # The last channels in ledger order are the full ones: every earlier
    # channel has passed validation by the time one is refused.
    wide = ["c0", "c1", "c5", "c9"]
    edges = view.routes.edges_for(wide)
    full = [i for i, e in enumerate(edges) if e in ledger._edge_claims]
    assert full and full[0] > 0
    with pytest.raises(LedgerError, match="oversubscribed"):
        ledger.reserve("late", wide, cpu_fraction=0.1, bw_bps=50 * Mbps,
                       graph=g, now=0.0, lease_s=10.0, edges=edges)
    assert books(ledger, view) == before
    # A channel on a link the graph lacks, sorting after real ones.
    ghost = frozenset(("zz-a", "zz-b"))
    with pytest.raises(KeyError, match="zz-a"):
        ledger.reserve("lost", nodes, cpu_fraction=0.1, bw_bps=1 * Mbps,
                       graph=g, now=0.0, lease_s=10.0,
                       edges=edges + ((ghost, "zz-a"),))
    assert books(ledger, view) == before
    ledger.check_invariants(view=view)


def test_check_invariants_catches_edges_out_of_ledger_order():
    g, ledger, view, nodes = footprint_rig()
    ledger.check_invariants(view=view)
    edges = view.routes.edges_for(["c1", "c2"])
    assert len(edges) >= 2
    ledger.reserve("shuffled", ["c1", "c2"], cpu_fraction=0.0,
                   bw_bps=1 * Mbps, graph=g, now=0.0, lease_s=10.0,
                   edges=edges[::-1])
    with pytest.raises(AssertionError, match="ledger order"):
        ledger.check_invariants()
    # Anything but a tuple is sorted on the way in.
    ledger.release("shuffled")
    ledger.reserve("sorted", ["c1", "c2"], cpu_fraction=0.0,
                   bw_bps=1 * Mbps, graph=g, now=0.0, lease_s=10.0,
                   edges=list(edges[::-1]))
    assert ledger.reservations["sorted"].edges == edges
    ledger.check_invariants(view=view)
