"""Tests for the router's trunk ledger (``ShardRouter.trunk``).

The trunk is a plain :class:`ReservationLedger` of zero-CPU claims on
shard-boundary channels: the router's pair memo keeps only those
channels of a cross-shard grant's routes, and the router checks their
headroom and reserves them once.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spec import ApplicationSpec
from repro.service import LedgerError, ShardRouter
from repro.service.ledger import ledger_order
from repro.topology import dumbbell, grid, random_tree, torus
from repro.units import Mbps

from ..oracles import routed_trunk_channels

TRUNK = frozenset({"sw-left", "sw-right"})
CH = (TRUNK, "sw-right")


def _router(cross_bw=20 * Mbps, **kwargs):
    r = ShardRouter(dumbbell(3, 3, cross_bandwidth=cross_bw), shards=2,
                    **kwargs)
    assert r.plan.trunk_keys == {TRUNK}
    return r


def _cross(r, app="x", bw_bps=5 * Mbps):
    grant = r.request(app, ApplicationSpec(num_nodes=2), bw_bps=bw_bps,
                      spread=2)
    assert grant.admitted and grant.trunk is not None
    return grant


def _parts(r, grant):
    return [
        tuple(n for n in grant.selection.nodes if r.plan.shard_of[n] == s)
        for s in grant.shards
    ]


def _reserve(r, app, nodes, edges, bw_bps, **kwargs):
    """A claim made on the plain ledger directly, as the router would."""
    kwargs.setdefault("lease_s", 60.0)
    return r.trunk.reserve(app, nodes, cpu_fraction=0.0, bw_bps=bw_bps,
                           graph=r._full, now=r.now, edges=edges, **kwargs)


class TestTrunkChannels:
    def test_filters_to_boundary_links(self):
        """The router's pair memo keeps each route's trunk channels and
        nothing else, so its answer is what the trunk claims."""
        r = _router()
        grant = _cross(r)
        routed = r.routes.edges_between(_parts(r, grant))
        assert routed == set(grant.trunk.edges)
        assert grant.trunk.edges == ((TRUNK, "sw-left"), (TRUNK, "sw-right"))
        assert grant.trunk.cpu_fraction == 0.0
        assert r.routes._pairs and all(
            key in r.plan.trunk_keys
            for hops in r.routes._pairs.values() for key, _ in hops
        )
        r.check_invariants()

    def test_sorted_deterministically(self):
        def grant_edges():
            g = random_tree(60, 12, np.random.default_rng(3))
            r = ShardRouter(g, shards=4)
            grant = r.request("x", ApplicationSpec(num_nodes=8),
                              bw_bps=1 * Mbps, spread=4)
            assert grant.admitted and len(grant.shards) == 4
            boundary = {
                e for e in r.routes.edges_between(_parts(r, grant))
                if e[0] in r.plan.trunk_keys
            }
            assert set(grant.trunk.edges) == boundary
            r.check_invariants()
            return grant.trunk.edges

        edges = grant_edges()
        assert len({key for key, _ in edges}) > 1
        assert list(edges) == sorted(edges, key=ledger_order)
        assert grant_edges() == edges


@st.composite
def partitioned_shapes(draw):
    """A random tree, or a grid or torus, whose cuts are cyclic: a route
    between two shards may cross a third."""
    shape = draw(st.sampled_from(["tree", "grid", "torus"]))
    if shape == "tree":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
        return random_tree(draw(st.integers(8, 40)),
                           draw(st.integers(2, 8)), rng)
    rows, cols = draw(st.integers(3, 5)), draw(st.integers(3, 6))
    return grid(rows, cols) if shape == "grid" else torus(rows, cols)


@settings(max_examples=40, deadline=None)
@given(
    partitioned_shapes(), st.integers(2, 5),
    st.lists(st.tuples(st.integers(2, 6), st.integers(2, 4)),
             min_size=1, max_size=6),
)
def test_trunk_channels_equal_the_full_route_oracle(graph, shards, stream):
    """Grant after grant (the pair memo warm with earlier grants' pairs),
    the router's answer and the trunk's claim are the full routes'
    trunk channels, in ledger order."""
    r = ShardRouter(graph, shards=shards)
    for i, (m, spread) in enumerate(stream):
        grant = r.request(f"x{i}", ApplicationSpec(num_nodes=m),
                          bw_bps=1 * Mbps, spread=spread)
        if not grant.cross_shard:
            continue
        parts = _parts(r, grant)
        want = routed_trunk_channels(r.plan, parts)
        assert want
        assert tuple(sorted(r.routes.edges_between(parts),
                            key=ledger_order)) == want
        assert grant.trunk.edges == want
    r.check_invariants()


@pytest.mark.parametrize("shape", [grid, torus])
def test_a_route_through_a_third_shard_keeps_every_crossing(shape):
    r = ShardRouter(shape(4, 6), shards=4)
    shard_of = r.plan.shard_of
    for a, b in itertools.permutations(sorted(shard_of), 2):
        path = r._full.path(a, b)
        if shard_of[a] != shard_of[b] and len({shard_of[n] for n in path}) > 2:
            break
    else:
        pytest.fail("no route between two shards crosses a third")
    want = routed_trunk_channels(r.plan, [[a], [b]])
    assert len({key for key, _ in want}) >= 2
    assert tuple(sorted(r.routes.edges_between([[a], [b]]),
                        key=ledger_order)) == want


class TestReserve:
    def test_claims_reduce_headroom(self):
        r = _router()
        before = r._trunk_headroom(CH)
        _cross(r, bw_bps=5 * Mbps)
        assert r._trunk_headroom(CH) == pytest.approx(before - 5 * Mbps)
        assert r.trunk.active == 1 and "x" in r.trunk.reservations

    def test_non_trunk_channels_filtered_out(self):
        r = _router()
        grant = _cross(r)
        assert all(key in r.plan.trunk_keys for key, _ in grant.trunk.edges)
        assert all(
            key in r.plan.trunk_keys for key, _ in r.trunk.edge_claims()
        )

    def test_oversubscription_raises_and_mutates_nothing(self):
        r = _router(cross_bw=10 * Mbps)
        _reserve(r, "a", ["l0", "r0"], [CH], 8 * Mbps)
        fp = r.trunk.claims_fingerprint()
        with pytest.raises(LedgerError):
            _reserve(r, "b", ["l1", "r1"], [CH], 8 * Mbps)
        assert r.trunk.claims_fingerprint() == fp
        r.trunk.check_invariants()


class TestLifecycle:
    def test_release_returns_capacity_exactly(self):
        r = _router()
        empty = r.trunk.claims_fingerprint()
        _cross(r, bw_bps=7 * Mbps)
        r.release("x")
        assert r.trunk.claims_fingerprint() == empty
        assert r.trunk.active == 0
        r.check_invariants()

    def test_expire_reclaims(self):
        r = _router(lease_s=10.0)
        _cross(r)
        r.advance(5.0)
        assert r.trunk.active == 1
        r.advance(6.0)
        assert r.trunk.active == 0 and "x" not in r.trunk.reservations
        r.check_invariants()

    def test_renew_extends(self):
        r = _router(lease_s=10.0)
        _cross(r)
        r.advance(5.0)
        r.renew("x")
        r.advance(6.0)
        assert r.trunk.reservations["x"].expires_at == 15.0
        r.advance(5.0)
        assert r.trunk.active == 0
        r.check_invariants()


class TestDurability:
    def test_recovered_claims_bit_identical(self, tmp_path):
        state = str(tmp_path / "router")
        r1 = _router(state_dir=state)
        _cross(r1, bw_bps=3 * Mbps)
        fp = r1.trunk.claims_fingerprint()
        r1.close()
        r2 = _router(state_dir=state)
        assert r2.trunk.claims_fingerprint() == fp
        assert r2.trunk.recovery is not None
        assert r2.trunk.recovery.leases == 1
        assert r2.recovery.leases == 1
        r2.check_invariants()
        r2.close()


def test_an_intra_shard_trunk_claim_fails_the_invariants():
    """The trunk claims trunk channels only: a claim on an intra-shard
    channel, made directly on the ledger for a live local composite
    (so every other trunk check holds), is caught."""
    r = _router()
    local = r.request("a", ApplicationSpec(num_nodes=2), bw_bps=1 * Mbps)
    assert local.admitted and not local.cross_shard
    r.check_invariants()
    nodes = list(local.selection.nodes)
    switch = "sw-left" if nodes[0].startswith("l") else "sw-right"
    _reserve(r, "a", nodes, [(frozenset({nodes[0], switch}), switch)],
             1 * Mbps)
    r.trunk.check_invariants()  # the ledger alone sees nothing wrong
    with pytest.raises(AssertionError, match="non-trunk channel"):
        r.check_invariants()


@pytest.mark.parametrize("bw_bps", [0.0, 1 * Mbps])
@pytest.mark.parametrize("mutant", ["skips the record", "names one part"])
def test_a_split_without_its_whole_record_fails_the_invariants(
    bw_bps, mutant
):
    """A split's trunk record names every node of it, with or without a
    bandwidth claim: a router that skips the record for one split, or
    names only one part in it, is caught while every ledger alone
    agrees."""
    r = _router()
    real_reserve = r.trunk.reserve

    def reserve(app_id, nodes, **kwargs):
        if mutant == "skips the record":
            return None
        return real_reserve(app_id, nodes[:1], **kwargs)

    r.trunk.reserve = reserve
    grant = r.request("x", ApplicationSpec(num_nodes=2), bw_bps=bw_bps,
                      spread=2)
    assert grant.admitted and len(grant.parts) == 2
    r.trunk.check_invariants()
    for svc in r.services:
        svc.check_invariants()
    with pytest.raises(AssertionError, match="trunk records"):
        r.check_invariants()
