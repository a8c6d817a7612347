"""End-to-end observability through the service: traces, registry, explain.

Covers the acceptance criteria of the observability tentpole: one
request produces one trace tree spanning admission and every pipeline
stage; the unified registry's Prometheus exposition parses under the
validator and covers at least four subsystems; fault-driven snapshot
invalidation is visible in both the cache counters and the metrics; and
``explain=True`` grants carry full provenance.
"""

import logging

from repro.core import ApplicationSpec
from repro.des import Simulator
from repro.faults import FaultInjector, LinkFlap, NodeCrash
from repro.network import Cluster
from repro.obs import MetricsRegistry, Tracer, validate_exposition
from repro.remos import Collector, RemosAPI
from repro.service import SelectionService, ShardRouter
from repro.topology import dumbbell, star
from repro.units import Mbps


def spec(n, **kw):
    return ApplicationSpec(num_nodes=n, **kw)


def make_rig(graph, tracer=None, registry=None):
    sim = Simulator()
    cluster = Cluster(sim, graph)
    collector = Collector(cluster, period=5.0, stale_after=3,
                          tracer=tracer, registry=registry)
    api = RemosAPI(collector, tracer=tracer)
    injector = FaultInjector(cluster, collector, tracer=tracer)
    service = SelectionService(
        api, snapshot_ttl=5.0, lease_s=1e6,
        tracer=tracer, registry=registry,
    )
    service.attach_injector(injector)
    return sim, injector, service


class TestRequestTracing:
    def test_one_request_is_one_tree_with_every_stage(self):
        tracer = Tracer()
        service = SelectionService(dumbbell(4, 4), tracer=tracer)
        grant = service.request("app", spec(2), cpu_fraction=0.2)
        assert grant.admitted

        spans = tracer.spans
        names = {s["name"] for s in spans}
        assert {"service.request", "service.admit", "stage.snapshot_fetch",
                "stage.residual_view", "stage.select", "stage.claim_verify",
                "stage.ledger_commit", "snapshot.sweep"} <= names
        # Single tree: every span shares the request's trace id.
        root = next(s for s in spans if s["name"] == "service.request")
        assert all(s["trace"] == root["trace"] for s in spans)
        assert root["attrs"]["outcome"] == "admitted"

    def test_infeasible_request_span_carries_reason(self):
        tracer = Tracer()
        service = SelectionService(dumbbell(2, 2), tracer=tracer)
        grant = service.request("big", spec(100), cpu_fraction=0.1)
        assert not grant.admitted
        admit = next(
            s for s in tracer.spans if s["name"] == "service.admit"
        )
        assert admit["attrs"]["outcome"] == "infeasible"
        assert "reason" in admit["attrs"]

    def test_request_span_attributes(self):
        """Each backend's request span opens with its own name and
        attributes and closes with the outcome (the router adds its
        shards)."""
        tracer = Tracer()
        service = SelectionService(dumbbell(4, 4), tracer=tracer)
        service.request("a", spec(2), cpu_fraction=0.2, priority="gold")
        router = ShardRouter(dumbbell(4, 4), shards=2, tracer=tracer)
        router.request("b", spec(2), cpu_fraction=0.2, spread=5)
        router.request("c", spec(99))
        roots = [(s["name"], s["attrs"]) for s in tracer.spans
                 if s["parent"] is None]
        assert roots == [
            ("service.request", {"app": "a", "m": 2, "priority": "gold",
                                 "outcome": "admitted"}),
            ("router.request", {"app": "b", "m": 2, "priority": "silver",
                                "spread": 2, "outcome": "admitted",
                                "shards": "0,1"}),
            ("router.request", {"app": "c", "m": 99, "priority": "silver",
                                "spread": 1, "outcome": "rejected",
                                "shards": ""}),
        ]

    def test_untraced_service_stays_silent(self):
        service = SelectionService(dumbbell(2, 2))
        service.request("app", spec(2), cpu_fraction=0.2)
        assert service.tracer.spans == ()

    def test_fault_events_land_in_the_trace(self):
        tracer = Tracer()
        sim, injector, service = make_rig(star(4), tracer=tracer)
        sim.run(until=30.0)
        grant = service.request("a", spec(2), cpu_fraction=0.5)
        assert grant.admitted
        victim = grant.selection.nodes[0]
        injector.schedule([NodeCrash(node=victim, at=60.0)])
        sim.run(until=90.0)
        names = [s["name"] for s in tracer.spans]
        assert "fault.node-crash" in names
        evict = [
            e
            for s in tracer.spans
            for e in s.get("events", [])
            if e["name"] == "service.evict"
        ] + [s for s in tracer.spans if s["name"] == "service.evict"]
        assert evict, "lease eviction should be visible in the trace"


class TestRegistryExposition:
    def test_static_service_covers_four_subsystems_and_validates(self):
        service = SelectionService(dumbbell(4, 4))
        service.request("app", spec(2), cpu_fraction=0.2,
                        bw_bps=1 * Mbps)
        text = service.registry.expose_text()
        assert validate_exposition(text) == []
        assert len(service.registry.subsystems()) >= 4
        assert {"service", "snapshot", "kernel", "ledger",
                "admission"} <= service.registry.subsystems()

    def test_full_rig_adds_collector_subsystem(self):
        registry = MetricsRegistry()
        sim, _, service = make_rig(star(4), registry=registry)
        sim.run(until=30.0)
        service.request("app", spec(2), cpu_fraction=0.2)
        assert validate_exposition(registry.expose_text()) == []
        assert "collector" in registry.subsystems()
        dump = registry.dump()
        assert dump["repro_collector_polls_total"] > 0

    def test_counters_track_the_plain_metrics(self):
        service = SelectionService(dumbbell(4, 4))
        for i in range(3):
            service.request(f"app-{i}", spec(2), cpu_fraction=0.1)
        dump = service.registry.dump()
        assert dump["repro_service_requests_total"] == 3.0
        assert (
            dump["repro_service_admitted_total"]
            == float(service.metrics.admitted)
        )
        assert dump['repro_ledger_active_leases{class="all"}'] == float(
            service.ledger.active
        )

    def test_kernel_counters_survive_view_rebuilds(self):
        service = SelectionService(dumbbell(4, 4), snapshot_ttl=0.0)
        service.request("a", spec(2), cpu_fraction=0.1)
        service.advance(1.0)
        service.request("b", spec(2), cpu_fraction=0.1)
        before = service.registry.dump()["repro_kernel_route_cache_misses_total"]
        service.advance(1.0)
        service.request("c", spec(2), cpu_fraction=0.1)
        after = service.registry.dump()["repro_kernel_route_cache_misses_total"]
        assert after >= before

    def test_stage_histograms_populate(self):
        service = SelectionService(dumbbell(4, 4))
        service.request("app", spec(2), cpu_fraction=0.2)
        text = service.registry.expose_text()
        assert 'repro_service_stage_duration_seconds_bucket' in text
        assert 'stage="select"' in text


class TestFaultDrivenInvalidation:
    """Satellite: fault events advance the snapshot epoch and count."""

    def test_node_crash_invalidates_snapshot_cache(self):
        sim, injector, service = make_rig(star(4))
        sim.run(until=30.0)
        service.request("a", spec(1), cpu_fraction=0.1)
        epoch_before = service.cache.epoch
        invalidations_before = service.cache.invalidations
        injector.schedule([NodeCrash(node="h3", at=31.0)])
        sim.run(until=40.0)
        assert service.cache.epoch > epoch_before
        assert service.cache.invalidations == invalidations_before + 1
        dump = service.registry.dump()
        assert dump["repro_snapshot_cache_invalidations_total"] == float(
            service.cache.invalidations
        )

    def test_link_flap_invalidates_on_both_edges(self):
        sim, injector, service = make_rig(dumbbell(2, 2))
        sim.run(until=30.0)
        service.request("a", spec(1), cpu_fraction=0.1)  # warm the cache
        before = service.cache.invalidations
        injector.schedule([
            LinkFlap(u="sw-left", v="sw-right", at=31.0, downtime=4.0),
        ])
        sim.run(until=32.0)  # link-down landed on a warm cache
        assert service.cache.invalidations == before + 1
        service.request("b", spec(1), cpu_fraction=0.1)  # re-warm
        sim.run(until=40.0)  # link-up at t=35 invalidates again
        assert service.cache.invalidations == before + 2
        assert service.registry.dump()["repro_snapshot_epoch"] == float(
            service.cache.epoch
        )


class TestEvictionDiagnostics:
    """Satellite fix: crashed-node eviction emits a WARN and a gauge."""

    def test_eviction_logs_warning_with_divergence_counts(self, caplog):
        sim, injector, service = make_rig(star(4))
        sim.run(until=30.0)
        grant = service.request("a", spec(2), cpu_fraction=0.5)
        victim = grant.selection.nodes[0]
        injector.schedule([NodeCrash(node=victim, at=60.0)])
        with caplog.at_level(logging.WARNING, logger="repro.service"):
            sim.run(until=90.0)
        records = [
            r for r in caplog.records if "lease evicted" in r.getMessage()
        ]
        assert len(records) == 1
        message = records[0].getMessage()
        assert victim in message
        assert "known_down=" in message

    def test_known_down_gauge_tracks_crashes(self):
        sim, injector, service = make_rig(star(4))
        sim.run(until=30.0)
        assert service.registry.dump()["repro_service_known_down_nodes"] == 0.0
        injector.schedule([NodeCrash(node="h1", at=31.0, downtime=20.0)])
        sim.run(until=40.0)
        assert service.registry.dump()["repro_service_known_down_nodes"] == 1.0
        sim.run(until=60.0)
        assert service.registry.dump()["repro_service_known_down_nodes"] == 0.0


class TestGrantExplain:
    def test_admitted_grant_carries_provenance(self):
        service = SelectionService(dumbbell(4, 4))
        grant = service.request(
            "app", spec(5, objective="bandwidth"),
            cpu_fraction=0.2, explain=True,
        )
        assert grant.admitted
        record = grant.explain
        assert record is not None
        assert record.nodes == tuple(grant.selection.nodes)
        assert record.snapshot_epoch == service.cache.epoch
        assert record.bottleneck is not None
        assert set(record.node_cpu) == set(grant.selection.nodes)

    def test_the_record_reads_capacity_before_the_grant_debits_it(self):
        """The record is the capacity the decision ran against: four
        idle hosts read a whole CPU each, not what the grant's own
        claim leaves, and the bottleneck carries the bandwidth the
        selection scored, not that minus the claim."""
        service = SelectionService(dumbbell(4, 4))
        grant = service.request(
            "app", spec(6), cpu_fraction=0.2, bw_bps=10 * Mbps,
            explain=True,
        )
        assert grant.admitted
        record, selection = grant.explain, grant.selection
        assert record.node_cpu == dict.fromkeys(selection.nodes, 1.0)
        assert min(record.node_cpu.values()) == selection.min_cpu_fraction
        assert record.bottleneck.available_bps == 100 * Mbps
        assert record.bottleneck.available_bps == selection.min_bw_bps
        # The claim is on the books all the same.
        after = service.view.graph
        assert {after.node(n).cpu for n in selection.nodes} == {0.8}

    def test_infeasible_grant_carries_rejection_reason(self):
        service = SelectionService(dumbbell(2, 2), queue_limit=0)
        grant = service.request("big", spec(100), explain=True)
        assert not grant.admitted
        assert grant.explain is not None
        assert grant.explain.rejection
        assert "100" in grant.explain.rejection

    def test_explain_off_by_default(self):
        service = SelectionService(dumbbell(2, 2))
        grant = service.request("app", spec(2), cpu_fraction=0.1)
        assert grant.explain is None
