"""Unit tests for the reservation ledger and route-edge accounting."""

import pytest

from repro.service import LedgerError, ReservationLedger, route_edges
from repro.service.ledger import _DRIFT, _HEAP_COMPACT_MIN
from repro.topology import dumbbell, star
from repro.units import Mbps


@pytest.fixture
def graph():
    return dumbbell(4, 4)


class TestRouteEdges:
    def test_adjacent_pair_uses_both_directions(self):
        g = star(3)
        edges = route_edges(g, ["h0", "h1"])
        # h0->h1 and h1->h0 each cross two hops; 4 directed channels total.
        assert len(edges) == 4
        assert (frozenset(("h0", "switch")), "switch") in edges
        assert (frozenset(("h0", "switch")), "h0") in edges

    def test_cross_trunk_pair_includes_trunk(self, graph):
        edges = route_edges(graph, ["l0", "r0"])
        trunk = frozenset(("sw-left", "sw-right"))
        assert (trunk, "sw-right") in edges
        assert (trunk, "sw-left") in edges

    def test_same_side_pair_avoids_trunk(self, graph):
        edges = route_edges(graph, ["l0", "l1"])
        trunk = frozenset(("sw-left", "sw-right"))
        assert not any(key == trunk for key, _ in edges)

    def test_disconnected_pair_contributes_nothing(self, graph):
        graph.add_compute("island")
        assert route_edges(graph, ["l0", "island"]) == set()


class TestReserve:
    def test_records_claims(self, graph):
        ledger = ReservationLedger()
        r = ledger.reserve(
            "fft", ["l0", "l1"], cpu_fraction=0.5, bw_bps=10 * Mbps,
            graph=graph, now=0.0, lease_s=60.0,
        )
        assert ledger.active == 1
        assert ledger.node_claim("l0") == pytest.approx(0.5)
        assert r.edges  # bandwidth claim implies routed channels
        for edge in r.edges:
            assert ledger.edge_claim(edge) == pytest.approx(10 * Mbps)
        ledger.check_invariants()

    def test_zero_bw_claims_no_edges(self, graph):
        ledger = ReservationLedger()
        r = ledger.reserve(
            "a", ["l0", "r0"], cpu_fraction=0.3, bw_bps=0.0,
            graph=graph, now=0.0, lease_s=60.0,
        )
        assert r.edges == ()

    def test_cpu_oversubscription_rejected(self, graph):
        ledger = ReservationLedger()
        ledger.reserve("a", ["l0"], cpu_fraction=0.7, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=60.0)
        with pytest.raises(LedgerError, match="oversubscribed"):
            ledger.reserve("b", ["l0"], cpu_fraction=0.5, bw_bps=0.0,
                           graph=graph, now=0.0, lease_s=60.0)
        # Failed reserve leaves the ledger untouched.
        assert ledger.active == 1
        ledger.check_invariants()

    def test_bandwidth_oversubscription_rejected(self, graph):
        ledger = ReservationLedger()
        ledger.reserve("a", ["l0", "r0"], cpu_fraction=0.1, bw_bps=80 * Mbps,
                       graph=graph, now=0.0, lease_s=60.0)
        with pytest.raises(LedgerError, match="oversubscribed"):
            # Trunk capacity is 100 Mbps; 80 + 30 does not fit.
            ledger.reserve("b", ["l1", "r1"], cpu_fraction=0.1,
                           bw_bps=30 * Mbps,
                           graph=graph, now=0.0, lease_s=60.0)
        ledger.check_invariants()

    def test_duplicate_app_rejected(self, graph):
        ledger = ReservationLedger()
        ledger.reserve("a", ["l0"], cpu_fraction=0.1, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=60.0)
        with pytest.raises(ValueError, match="already holds"):
            ledger.reserve("a", ["l1"], cpu_fraction=0.1, bw_bps=0.0,
                           graph=graph, now=0.0, lease_s=60.0)

    def test_unknown_node_rejected(self, graph):
        ledger = ReservationLedger()
        with pytest.raises(KeyError):
            ledger.reserve("a", ["nope"], cpu_fraction=0.1, bw_bps=0.0,
                           graph=graph, now=0.0, lease_s=60.0)

    @pytest.mark.parametrize("kwargs", [
        {"cpu_fraction": -0.1, "bw_bps": 0.0},
        {"cpu_fraction": 1.5, "bw_bps": 0.0},
        {"cpu_fraction": 0.1, "bw_bps": -1.0},
        {"cpu_fraction": 0.1, "bw_bps": 0.0, "lease_s": 0.0},
    ])
    def test_malformed_requests_rejected(self, graph, kwargs):
        ledger = ReservationLedger()
        kwargs.setdefault("lease_s", 60.0)
        with pytest.raises(ValueError):
            ledger.reserve("a", ["l0"], graph=graph, now=0.0, **kwargs)


class TestLifecycle:
    def test_release_returns_capacity(self, graph):
        ledger = ReservationLedger()
        ledger.reserve("a", ["l0"], cpu_fraction=0.9, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=60.0)
        ledger.release("a")
        assert ledger.active == 0
        assert ledger.node_claim("l0") == 0.0
        # Freed capacity is reusable immediately.
        ledger.reserve("b", ["l0"], cpu_fraction=0.9, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=60.0)
        ledger.check_invariants()

    def test_release_unknown_raises(self):
        with pytest.raises(KeyError):
            ReservationLedger().release("ghost")

    def test_expire_reclaims_lapsed_leases(self, graph):
        ledger = ReservationLedger()
        ledger.reserve("short", ["l0"], cpu_fraction=0.5, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=10.0)
        ledger.reserve("long", ["l1"], cpu_fraction=0.5, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=100.0)
        assert ledger.expire(5.0) == []
        assert ledger.expire(10.0) == ["short"]
        assert ledger.active == 1
        assert "long" in ledger.reservations
        ledger.check_invariants()

    def test_renew_extends_lease(self, graph):
        ledger = ReservationLedger()
        ledger.reserve("a", ["l0"], cpu_fraction=0.5, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=10.0)
        renewed = ledger.renew("a", now=8.0, lease_s=10.0)
        assert renewed.expires_at == pytest.approx(18.0)
        assert ledger.expire(10.0) == []
        assert ledger.expire(18.0) == ["a"]

    def test_apps_on_node(self, graph):
        ledger = ReservationLedger()
        ledger.reserve("a", ["l0", "l1"], cpu_fraction=0.2, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=60.0)
        ledger.reserve("b", ["l1", "l2"], cpu_fraction=0.2, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=60.0)
        assert ledger.apps_on_node("l1") == ["a", "b"]
        assert ledger.apps_on_node("l0") == ["a"]
        assert ledger.apps_on_node("r0") == []


class TestResidualView:
    def test_apply_debits_cpu(self, graph):
        ledger = ReservationLedger()
        ledger.reserve("a", ["l0"], cpu_fraction=0.6, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=60.0)
        residual = ledger.apply(graph)
        assert residual.node("l0").cpu == pytest.approx(0.4)
        # The original snapshot is untouched.
        assert graph.node("l0").cpu == pytest.approx(1.0)

    def test_apply_debits_bandwidth(self, graph):
        ledger = ReservationLedger()
        ledger.reserve("a", ["l0", "r0"], cpu_fraction=0.1, bw_bps=40 * Mbps,
                       graph=graph, now=0.0, lease_s=60.0)
        residual = ledger.apply(graph)
        trunk = residual.link("sw-left", "sw-right")
        assert trunk.available_towards("sw-right") == pytest.approx(60 * Mbps)
        assert graph.link("sw-left", "sw-right").available_towards(
            "sw-right") == pytest.approx(100 * Mbps)

    def test_utilization_summary(self, graph):
        ledger = ReservationLedger()
        assert ledger.utilization()["active_reservations"] == 0.0
        ledger.reserve("a", ["l0", "r0"], cpu_fraction=0.25, bw_bps=50 * Mbps,
                       graph=graph, now=0.0, lease_s=60.0)
        u = ledger.utilization()
        assert u["active_reservations"] == 1.0
        assert u["max_node_claim"] == pytest.approx(0.25)
        assert u["max_edge_claim_fraction"] == pytest.approx(0.5)


class TestDeadlineHeapCompaction:
    def test_renew_heavy_workload_keeps_the_heap_bounded(self, graph):
        ledger = ReservationLedger()
        ledger.reserve("a", ["l0"], cpu_fraction=0.1, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=60.0)
        for i in range(500):
            ledger.renew("a", float(i), 60.0)
        # Lazy deletion alone would have left ~500 stranded entries;
        # compaction rebuilds once stale entries pass the threshold and
        # outnumber the single live lease.
        assert len(ledger._deadlines) < 2 * _HEAP_COMPACT_MIN
        assert len(ledger._deadlines) - ledger.active < _HEAP_COMPACT_MIN

    def test_release_heavy_workload_compacts_too(self, graph):
        ledger = ReservationLedger()
        for i in range(200):
            ledger.reserve(f"a{i}", ["l0"], cpu_fraction=0.001, bw_bps=0.0,
                           graph=graph, now=0.0, lease_s=60.0)
            ledger.release(f"a{i}")
        assert ledger.active == 0
        assert len(ledger._deadlines) < 2 * _HEAP_COMPACT_MIN

    def test_expiry_still_exact_after_compaction(self, graph):
        ledger = ReservationLedger()
        ledger.reserve("keep", ["r0"], cpu_fraction=0.1, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=1000.0)
        ledger.reserve("lapse", ["l0"], cpu_fraction=0.1, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=5.0)
        for i in range(300):
            ledger.renew("keep", float(i % 3), 1000.0)
        assert ledger.expire(6.0) == ["lapse"]
        assert ledger.active == 1
        # The survivor's single live deadline still reaps on time
        # (stranded future-dated entries linger until popped — lazy
        # deletion — but never resurrect a released lease).
        ledger.renew("keep", 10.0, 5.0)
        assert ledger.expire(16.0) == ["keep"]
        assert ledger.active == 0
        assert ledger.expire(2000.0) == []

    def test_expire_does_not_overcount_stale_entries(self, graph):
        ledger = ReservationLedger()
        ledger.reserve("a", ["l0"], cpu_fraction=0.1, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=5.0)
        ledger.expire(6.0)
        # The expired lease's entry was popped live, not stranded: only
        # nothing should remain counted as stale.
        assert len(ledger._deadlines) - ledger.active == 0


class TestZeroCpuClaims:
    """Bandwidth-only reservations (cpu_fraction=0) must share nodes
    freely: a zero claim is no claim, so releasing one overlapping
    reservation can never strand another's bookkeeping.  (Regression:
    0.0 node-claim entries used to collapse-to-delete on the first
    release, crashing the second and drifting check_invariants.)"""

    def test_overlapping_zero_claims_release_cleanly(self, graph):
        ledger = ReservationLedger()
        for app in ("a", "b"):
            ledger.reserve(app, ["l0", "r0"], cpu_fraction=0.0,
                           bw_bps=1 * Mbps, graph=graph, now=0.0,
                           lease_s=60.0)
            ledger.check_invariants()
        assert ledger.node_claims() == {}  # zero claims never recorded
        ledger.release("a")
        ledger.check_invariants()
        ledger.release("b")  # used to raise KeyError
        assert ledger.active == 0
        assert ledger.edge_claims() == {}

    def test_zero_claim_leaves_cpu_capacity_untouched(self, graph):
        ledger = ReservationLedger()
        ledger.reserve("bw-only", ["l0"], cpu_fraction=0.0, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=60.0)
        # A full-CPU tenant still fits on the same node.
        ledger.reserve("cpu", ["l0"], cpu_fraction=1.0, bw_bps=0.0,
                       graph=graph, now=0.0, lease_s=60.0)
        ledger.check_invariants()


class TestSlackSizedClaims:
    """A positive claim far below its resource's capacity, beside one
    that fills it.  Releasing the large lease leaves the small one's
    claim standing, and releasing the small one leaves no tally behind;
    a claim too small for the tally to tell from its rounding drift is
    refused up front, with nothing recorded."""

    @pytest.mark.parametrize("kind, large, small", [
        ("cpu", 0.25, 5e-10),
        ("bw", 1e8 - 0.05, 0.05),  # one 1e8 bps channel's whole capacity
        ("bw", 1e8 - 0.2, 0.2),  # its last release leaves ~3e-9 bps drift
    ], ids=["cpu", "bw", "bw-residue"])
    def test_survives_an_overlapping_release(self, kind, large, small):
        graph = dumbbell(2, 2)
        ledger = ReservationLedger()

        def claim(app, amount):
            cpu, bw = (amount, 0.0) if kind == "cpu" else (0.0, amount)
            return ledger.reserve(app, ["l0", "r0"], cpu_fraction=cpu,
                                  bw_bps=bw, graph=graph, now=0.0,
                                  lease_s=60.0)

        claim("a", large)
        before = ledger.claims_fingerprint()
        with pytest.raises(ValueError if kind == "cpu" else LedgerError):
            claim("c", 2 * _DRIFT * (1.0 if kind == "cpu" else 1e8))
        assert ledger.claims_fingerprint() == before
        assert "c" not in ledger.reservations
        b = claim("b", small)
        ledger.release("a")
        ledger.check_invariants()
        held = (
            [ledger.node_claim(name) for name in b.nodes] if kind == "cpu"
            else [ledger.edge_claim(edge) for edge in b.edges]
        )
        assert held and all(c == pytest.approx(small) for c in held)
        ledger.release("b")
        ledger.check_invariants()
        assert ledger.node_claims() == ledger.edge_claims() == {}
