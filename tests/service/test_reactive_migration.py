"""The push-driven reactive pipeline: events in, migrations out.

The tentpole guarantee: a lease on a host the collector marks stale is
*proactively* re-selected through the MigrationAdvisor and moved to
healthy nodes while the host is merely degraded — before the crash
eviction :meth:`attach_injector` would eventually apply.  These tests
run the full deterministic rig (simulator, cluster, collector, Remos,
injector, service) and assert the migrate-before-evict ordering, the
rollback path, and the subscription lifecycle.
"""

import pytest

from repro.core import ApplicationSpec
from repro.des import Simulator
from repro.faults import AgentOutage, FaultInjector
from repro.network import Cluster
from repro.remos import Collector, RemosAPI
from repro.service import Decision, SelectionService
from repro.service.ledger import ReservationLedger
from repro.testbed.cmu import cmu_testbed


def make_rig(**service_kw):
    sim = Simulator()
    cluster = Cluster(sim, cmu_testbed())
    collector = Collector(cluster, period=1.0, stale_after=2, start=True)
    api = RemosAPI(collector)
    service_kw.setdefault("snapshot_ttl", 0.5)
    service_kw.setdefault("lease_s", 1e9)
    service_kw.setdefault("queue_limit", 4)
    service = SelectionService(api, **service_kw)
    injector = FaultInjector(cluster, collector)
    service.attach_injector(injector)
    return sim, cluster, collector, api, service, injector


class TestProactiveMigration:
    def test_lease_moves_off_degrading_node_before_eviction(self):
        sim, cluster, collector, api, service, injector = make_rig()
        service.enable_push(collector)
        sim.run(until=3.0)
        grant = service.request(
            "app", ApplicationSpec(num_nodes=2), cpu_fraction=0.3,
        )
        assert grant.admitted
        victim = grant.selection.nodes[0]

        # The monitoring agents on one reserved host stop answering —
        # the host is degrading but NOT crashed.
        injector.schedule([
            AgentOutage(device=victim, at=sim.now + 0.5, duration=1e6),
        ])
        sim.run(until=sim.now + 6.0)

        # The push event fired and the lease moved — no eviction ran.
        assert service.metrics.push_events >= 1
        assert service.metrics.migrations == 1
        assert service.metrics.evicted == 0
        assert victim not in service.ledger.reservations["app"].nodes
        standing = service.status("app")
        assert standing.status == Decision.ADMITTED
        assert "migrated off degrading node" in standing.reason
        service.check_invariants()

        # The crash arrives later: the lease is already elsewhere, so
        # crash eviction has nothing to reclaim from this app.
        injector.crash_node(victim)
        assert service.metrics.evicted == 0
        assert "app" in service.ledger.reservations

    def test_migrated_claims_stay_ledger_consistent(self):
        sim, cluster, collector, api, service, injector = make_rig()
        service.enable_push(collector)
        sim.run(until=3.0)
        for i in range(3):
            assert service.request(
                f"app-{i}", ApplicationSpec(num_nodes=2), cpu_fraction=0.2,
                bw_bps=1e6,
            ).admitted
        victims = {
            node
            for r in service.ledger.reservations.values()
            for node in r.nodes
        }
        target = sorted(victims)[0]
        injector.schedule([
            AgentOutage(device=target, at=sim.now + 0.5, duration=1e6),
        ])
        sim.run(until=sim.now + 6.0)
        service.check_invariants()
        for r in service.ledger.reservations.values():
            assert target not in r.nodes

    def test_without_push_the_lease_waits_for_crash_eviction(self):
        sim, cluster, collector, api, service, injector = make_rig()
        # No enable_push: the control arm.
        sim.run(until=3.0)
        grant = service.request(
            "app", ApplicationSpec(num_nodes=2), cpu_fraction=0.3,
        )
        victim = grant.selection.nodes[0]
        injector.schedule([
            AgentOutage(device=victim, at=sim.now + 0.5, duration=1e6),
        ])
        sim.run(until=sim.now + 6.0)
        assert service.metrics.migrations == 0
        assert victim in service.ledger.reservations["app"].nodes
        injector.crash_node(victim)
        assert service.metrics.evicted == 1
        assert service.status("app").status == Decision.EVICTED

    def test_bandwidth_only_lease_never_raises_into_the_collector(self):
        # A zero-CPU lease records no node claim; crediting it back for
        # the advisor's trial must not look one up.  Any exception here
        # would escape the collector's subscriber loop via sim.run().
        sim, cluster, collector, api, service, injector = make_rig()
        service.enable_push(collector)
        sim.run(until=3.0)
        grant = service.request(
            "app", ApplicationSpec(num_nodes=2), bw_bps=1e6,
        )
        assert grant.admitted
        before = service.ledger.reservations["app"]
        victim = grant.selection.nodes[0]
        injector.schedule([
            AgentOutage(device=victim, at=sim.now + 0.5, duration=1e6),
        ])
        sim.run(until=sim.now + 6.0)
        assert service.metrics.push_events >= 1
        after = service.ledger.reservations["app"]
        if service.metrics.migrations:
            assert victim not in after.nodes
        else:
            assert after == before  # left exactly as it was
        service.check_invariants()


class TestMigrationKeepsTheDeadline:
    """A deadline moves only through ``renew``: a migration moves the
    lease and keeps its ``expires_at``, and a migration that cannot
    re-admit puts the original lease back as it was."""

    def start(self, **service_kw):
        sim, cluster, collector, api, service, injector = make_rig(
            **service_kw
        )
        service.enable_push(collector)
        sim.run(until=3.0)
        grant = service.request(
            "app", ApplicationSpec(num_nodes=2), cpu_fraction=0.3,
            bw_bps=1e6,
        )
        assert grant.admitted
        victim = grant.selection.nodes[0]
        injector.schedule([
            AgentOutage(device=victim, at=sim.now + 0.5, duration=1e6),
        ])
        return sim, service, service.ledger.reservations["app"], victim

    def test_a_moved_lease_keeps_its_expiry_and_replays(self, tmp_path):
        state = str(tmp_path / "state")
        sim, service, before, victim = self.start(
            lease_s=100.0, state_dir=state
        )
        sim.run(until=sim.now + 6.0)
        assert service.metrics.migrations == 1
        assert service.metrics.renewed == 0
        after = service.ledger.reservations["app"]
        assert victim not in after.nodes
        assert after.expires_at == before.expires_at == 103.0
        service.check_invariants()
        replayed = ReservationLedger.recover(state)
        assert replayed.claims_fingerprint() == \
            service.ledger.claims_fingerprint()
        assert {a: r.expires_at for a, r in replayed.reservations.items()} \
            == {"app": 103.0}

    def test_a_failed_move_puts_the_lease_back_unchanged(self, monkeypatch):
        # A short lease whose deadline passes before the host goes stale:
        # it is put back as it was, and the next tick expires it.
        sim, service, before, victim = self.start(lease_s=2.0)
        monkeypatch.setattr(
            service, "_try_admit", lambda req, expires_at=None: None
        )
        sim.run(until=sim.now + 6.0)
        assert service.metrics.migrations == 0
        assert service.ledger.reservations["app"] == before
        assert before.expires_at < service.now
        service.check_invariants()
        assert service.tick() == ["app"]
        assert service.status("app").status == Decision.EXPIRED


class TestPushLifecycle:
    def test_enable_twice_raises(self):
        sim, cluster, collector, api, service, injector = make_rig()
        service.enable_push(collector)
        with pytest.raises(RuntimeError, match="already enabled"):
            service.enable_push(collector)

    def test_disable_detaches_the_pipeline(self):
        sim, cluster, collector, api, service, injector = make_rig()
        disable = service.enable_push(collector)
        disable()
        sim.run(until=3.0)
        grant = service.request(
            "app", ApplicationSpec(num_nodes=2), cpu_fraction=0.3,
        )
        victim = grant.selection.nodes[0]
        injector.schedule([
            AgentOutage(device=victim, at=sim.now + 0.5, duration=1e6),
        ])
        sim.run(until=sim.now + 6.0)
        assert service.metrics.push_events == 0
        assert service.metrics.migrations == 0
        # Re-enabling after a disable is allowed.
        service.enable_push(collector)

    def test_queue_drains_on_recovery_event(self):
        sim, cluster, collector, api, service, injector = make_rig()
        service.enable_push(collector)
        sim.run(until=3.0)
        # Saturate the compute hosts so the next request queues.
        hosts = [n.name for n in api.topology().compute_nodes()]
        assert service.request(
            "big", ApplicationSpec(num_nodes=len(hosts)), cpu_fraction=0.9,
        ).admitted
        queued = service.request(
            "waiter", ApplicationSpec(num_nodes=1), cpu_fraction=0.5,
        )
        assert queued.status == Decision.QUEUED
        # A host degrades and recovers; the fresh event invalidates the
        # snapshot and drains the queue (still infeasible here, but the
        # drain must at least run against fresh capacity).  Retries make
        # a failing round take 1.5 s, so a ~6 s outage spans exactly the
        # two consecutive missed rounds the threshold needs.
        injector.schedule([
            AgentOutage(device=hosts[0], at=sim.now + 0.5, duration=5.8),
        ])
        sim.run(until=sim.now + 15.0)
        assert service.metrics.push_events >= 2  # stale + fresh
        # Now release the blocker: the queued app admits on drain.
        service.release("big")
        assert service.status("waiter").status == Decision.ADMITTED
