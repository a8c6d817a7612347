"""Integration tests for the SelectionService facade.

Most tests drive the service on a static dumbbell with the manual clock;
the fault-eviction tests build the full simulated rig (cluster +
collector + Remos + injector) to prove the crash path end to end.
"""

import numpy as np
import pytest

from repro.core import ApplicationSpec
from repro.des import Simulator
from repro.faults import FaultInjector, NodeCrash
from repro.network import Cluster
from repro.remos import Collector, RemosAPI
from repro.service import Decision, Priority, SelectionService
from repro.topology import TopologyGraph, dumbbell, random_tree, star
from repro.units import Mbps

from ..oracles import bfs_path


@pytest.fixture
def service():
    # dumbbell(4, 4): 8 compute nodes, idle, all links 100 Mbps.
    return SelectionService(dumbbell(4, 4), snapshot_ttl=5.0, lease_s=60.0)


def spec(n=2):
    return ApplicationSpec(num_nodes=n)


class TestAdmission:
    def test_admits_and_reserves(self, service):
        grant = service.request("a", spec(2), cpu_fraction=0.5)
        assert grant.admitted
        assert len(grant.selection.nodes) == 2
        assert grant.reservation.cpu_fraction == 0.5
        assert service.active_apps() == ["a"]
        service.ledger.check_invariants()

    def test_tenants_see_residual_capacity(self, service):
        first = service.request("a", spec(4), cpu_fraction=0.6)
        second = service.request("b", spec(4), cpu_fraction=0.6)
        assert first.admitted and second.admitted
        # 0.6 + 0.6 > cpu_cap: the tenants cannot share any node.
        assert not set(first.selection.nodes) & set(second.selection.nodes)

    def test_queues_when_infeasible(self, service):
        for name in ("a", "b"):
            assert service.request(name, spec(4), cpu_fraction=0.9).admitted
        third = service.request("c", spec(4), cpu_fraction=0.9)
        assert third.status == Decision.QUEUED
        assert "c" in service.queue

    def test_release_admits_queued_request(self, service):
        service.request("a", spec(4), cpu_fraction=0.9)
        service.request("b", spec(4), cpu_fraction=0.9)
        service.request("c", spec(4), cpu_fraction=0.9)
        service.release("a")
        grant = service.status("c")
        assert grant.admitted
        assert service.metrics.admitted_from_queue == 1
        assert "c" not in service.queue

    def test_rejects_when_queue_full(self):
        service = SelectionService(star(2), queue_limit=0)
        assert service.request("a", spec(2), cpu_fraction=0.9).admitted
        grant = service.request("b", spec(2), cpu_fraction=0.9)
        assert grant.status == Decision.REJECTED
        assert service.metrics.rejected == 1

    def test_gold_displaces_queued_bronze(self):
        service = SelectionService(star(2), queue_limit=1)
        service.request("hog", spec(2), cpu_fraction=1.0)
        service.request("waiting", spec(2), cpu_fraction=1.0,
                        priority=Priority.BRONZE)
        grant = service.request("vip", spec(2), cpu_fraction=1.0,
                                priority=Priority.GOLD)
        assert grant.status == Decision.QUEUED
        assert service.status("waiting").status == Decision.REJECTED
        assert service.metrics.queue_displaced == 1

    def test_duplicate_live_request_rejected(self, service):
        service.request("a", spec(2), cpu_fraction=0.1)
        with pytest.raises(ValueError, match="live request"):
            service.request("a", spec(2), cpu_fraction=0.1)

    def test_bandwidth_claims_respect_trunk(self):
        # Force cross-trunk placement: 2 hosts per side, 4 wanted.
        service = SelectionService(dumbbell(2, 2))
        first = service.request("a", spec(4), bw_bps=60 * Mbps)
        assert first.admitted
        second = service.request("b", spec(4), bw_bps=60 * Mbps)
        # 60 + 60 exceeds the 100 Mbps trunk in each direction.
        assert second.status == Decision.QUEUED
        service.ledger.check_invariants()


class TestLeaseLifecycle:
    def test_lease_expires_without_renewal(self, service):
        service.request("a", spec(2), cpu_fraction=0.5)
        service.advance(59.0)
        assert service.active_apps() == ["a"]
        service.advance(1.0)
        assert service.active_apps() == []
        assert service.status("a").status == Decision.EXPIRED
        assert service.metrics.expired == 1

    def test_renewal_keeps_lease_alive(self, service):
        service.request("a", spec(2), cpu_fraction=0.5)
        service.advance(50.0)
        service.renew("a")
        service.advance(50.0)  # t=100 < 50+60
        assert service.active_apps() == ["a"]

    def test_expiry_frees_capacity_for_queue(self, service):
        service.request("a", spec(4), cpu_fraction=0.9)
        service.request("b", spec(4), cpu_fraction=0.9)
        service.request("c", spec(4), cpu_fraction=0.9)
        assert service.status("c").status == Decision.QUEUED
        service.advance(60.0)  # both leases lapse
        assert service.status("c").admitted

    def test_release_then_rerequest(self, service):
        service.request("a", spec(2), cpu_fraction=0.5)
        assert service.release("a").status == Decision.RELEASED
        assert service.request("a", spec(2), cpu_fraction=0.5).admitted

    def test_release_queued_request_withdraws_it(self, service):
        service.request("a", spec(4), cpu_fraction=0.9)
        service.request("b", spec(4), cpu_fraction=0.9)
        service.request("c", spec(4), cpu_fraction=0.9)
        grant = service.release("c")
        assert grant.status == Decision.RELEASED
        assert "withdrawn" in grant.reason
        assert "c" not in service.queue

    def test_release_unknown_raises(self, service):
        with pytest.raises(KeyError):
            service.release("ghost")


class TestCacheWiring:
    def test_burst_is_one_sweep(self, service):
        for i in range(20):
            service.request(f"app-{i}", spec(1), cpu_fraction=0.05)
        assert service.cache.misses == 1
        assert service.cache.hits == 19

    def test_sweeps_after_ttl(self, service):
        service.request("a", spec(1), cpu_fraction=0.1)
        service.advance(6.0)  # past the 5 s TTL
        service.request("b", spec(1), cpu_fraction=0.1)
        assert service.cache.misses == 2
        # The static graph came back: no new epoch, the overlay stands.
        assert service.cache.epoch == 1
        assert service.metrics.view_rebuilds == 1


class TestClockModes:
    def test_manual_clock_advance(self, service):
        assert service.now == 0.0
        service.advance(12.5)
        assert service.now == 12.5
        with pytest.raises(ValueError):
            service.advance(-1.0)

    def test_advance_refused_on_simulated_clock(self):
        sim = Simulator()
        cluster = Cluster(sim, dumbbell(2, 2))
        service = SelectionService(cluster)
        with pytest.raises(RuntimeError, match="manual clock"):
            service.advance(1.0)
        assert service.now == sim.now

    def test_invalid_lease_rejected(self):
        with pytest.raises(ValueError):
            SelectionService(star(2), lease_s=0.0)


class TestFaultEviction:
    def _rig(self, graph):
        sim = Simulator()
        cluster = Cluster(sim, graph)
        collector = Collector(cluster, period=5.0, stale_after=3)
        api = RemosAPI(collector)
        injector = FaultInjector(cluster, collector)
        service = SelectionService(api, snapshot_ttl=5.0, lease_s=1e6)
        service.attach_injector(injector)
        return sim, injector, service

    def test_crash_evicts_tenants_on_node(self):
        sim, injector, service = self._rig(star(4))
        sim.run(until=30.0)  # warm the collector up
        grant = service.request("a", spec(2), cpu_fraction=0.5)
        assert grant.admitted
        victim = grant.selection.nodes[0]
        injector.schedule([NodeCrash(node=victim, at=60.0)])
        sim.run(until=90.0)
        assert service.status("a").status == Decision.EVICTED
        assert victim in service.status("a").reason
        assert service.active_apps() == []
        assert service.metrics.evicted == 1

    def test_crash_does_not_evict_unrelated_tenants(self):
        sim, injector, service = self._rig(dumbbell(2, 2))
        sim.run(until=30.0)
        a = service.request("a", spec(2), cpu_fraction=0.5)
        b = service.request("b", spec(2), cpu_fraction=0.6)
        assert a.admitted and b.admitted
        assert not set(a.selection.nodes) & set(b.selection.nodes)
        injector.schedule([NodeCrash(node=a.selection.nodes[0], at=60.0)])
        sim.run(until=90.0)
        assert service.status("a").status == Decision.EVICTED
        assert service.status("b").admitted

    def test_fault_event_invalidates_cache(self):
        sim, injector, service = self._rig(star(4))
        sim.run(until=30.0)
        service.request("a", spec(1), cpu_fraction=0.1)
        before = service.cache.invalidations
        injector.schedule([NodeCrash(node="h3", at=31.0)])
        sim.run(until=40.0)
        assert service.cache.invalidations == before + 1

    def test_eviction_admits_queued_tenant(self):
        sim, injector, service = self._rig(star(2))
        sim.run(until=30.0)
        service.request("hog", spec(2), cpu_fraction=1.0)
        service.request("next", spec(1), cpu_fraction=1.0)
        assert service.status("next").status == Decision.QUEUED
        victim = service.status("hog").selection.nodes[0]
        injector.schedule([NodeCrash(node=victim, at=60.0)])
        sim.run(until=90.0)
        assert service.status("hog").status == Decision.EVICTED
        # The crash freed the hog's claims; the queued tenant fits on a
        # surviving healthy node.
        assert service.status("next").admitted
        assert victim not in service.status("next").selection.nodes


class TestMetrics:
    def test_snapshot_counts(self, service):
        service.request("a", spec(4), cpu_fraction=0.9)
        service.request("b", spec(4), cpu_fraction=0.9)
        service.request("c", spec(4), cpu_fraction=0.9)  # queued
        service.release("a")  # admits c
        snap = service.metrics_snapshot()
        assert snap["requests"] == 3
        assert snap["admitted"] == 3
        assert snap["queued"] == 1
        assert snap["released"] == 1
        assert snap["queue_depth"] == 0
        assert snap["snapshot_sweeps"] == service.cache.misses
        assert snap["active_reservations"] == 2.0

    def test_format_is_readable(self, service):
        service.request("a", spec(2), cpu_fraction=0.5)
        text = service.metrics.format(
            cache=service.cache, ledger=service.ledger, queue=service.queue,
        )
        assert "requests" in text and "admitted" in text

    def test_status_unknown_raises(self, service):
        with pytest.raises(KeyError):
            service.status("ghost")


class TestForestIndexBitIdentity:
    """The path index changes no placement: a churning service answers
    the same with ``TopologyGraph.path`` swapped for the BFS it replaced."""

    @staticmethod
    def _churn(ops=120, window=8):
        rng = np.random.default_rng(0)
        g = random_tree(200, 40, rng, bandwidth=100 * Mbps)
        for link in g.links():
            link.available_fwd = float(rng.uniform(5, 100)) * Mbps
            link.available_rev = float(rng.uniform(5, 100)) * Mbps
        for node in g.compute_nodes():
            node.load_average = float(rng.uniform(0, 0.5))
        svc = SelectionService(g, snapshot_ttl=1e9, lease_s=60.0,
                               queue_limit=0)
        live, grants = [], []
        for i in range(ops):
            app = f"app-{i}"
            grant = svc.request(app, spec(3 + i % 4), cpu_fraction=0.1,
                                bw_bps=1 * Mbps)
            sel = grant.selection
            grants.append((grant.status, sel and (
                sel.nodes, sel.objective, sel.min_cpu_fraction,
                sel.min_bw_fraction, sel.min_bw_bps,
            )))
            if grant.admitted:
                live.append(app)
                if len(live) > window:
                    svc.release(live.pop(0))
            svc.renew(live[i % len(live)])
            if i % 16 == 15:
                svc.advance(1.0)
                svc.tick()
        svc.check_invariants()
        assert svc.active_apps() == sorted(live)
        return grants, svc.ledger.claims_fingerprint()

    def test_churn_stream_is_identical_under_the_bfs_oracle(self, monkeypatch):
        indexed = self._churn()
        assert all(status == Decision.ADMITTED for status, _ in indexed[0])
        monkeypatch.setattr(TopologyGraph, "path", bfs_path)
        assert self._churn() == indexed
