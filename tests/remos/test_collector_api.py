"""Tests for SNMP agents, the collector, and the Remos API."""

import pytest

from repro.des import Simulator
from repro.network import Cluster
from repro.obs import Tracer
from repro.remos import (
    Collector,
    Ewma,
    HostTable,
    InterfaceTable,
    LastValue,
    RemosAPI,
    SlidingMean,
)
from repro.topology import TopologyGraph, dumbbell, star
from repro.network.fairshare import max_min_fair
from repro.units import MB, Mbps

from ..oracles import assert_same_snapshot, full_sweep_topology


@pytest.fixture
def rig():
    sim = Simulator()
    g = dumbbell(2, 2, latency=0.0)
    cluster = Cluster(sim, g, base_capacity=1.0, load_tau=5.0)
    collector = Collector(cluster, period=2.0)
    api = RemosAPI(collector)
    return sim, g, cluster, collector, api


def run_probe(sim, gen):
    p = sim.process(gen)
    sim.run(until=p)
    return p.value


class TestSnmpAgents:
    def test_interface_agent_covers_incident_links(self, rig):
        sim, g, cluster, *_ = rig
        iface = InterfaceTable(cluster).agents
        hosts = HostTable(cluster).agents
        # sw-left touches l0, l1 and sw-right: 3 outbound channels.
        assert len(iface["sw-left"].interfaces) == 3
        assert len(iface["l0"].interfaces) == 1
        assert set(hosts) == {"l0", "l1", "r0", "r1"}

    def test_counters_monotonic(self, rig):
        sim, g, cluster, *_ = rig
        iface = InterfaceTable(cluster).agents
        cluster.transfer("l0", "r0", 50 * MB)

        def probe(sim):
            readings = []
            for _ in range(5):
                yield sim.timeout(1.0)
                recs = {r.channel: r.out_octets for r in iface["l0"].read()}
                readings.append(sum(recs.values()))
            return readings

        readings = run_probe(sim, probe(sim))
        assert readings == sorted(readings)
        assert readings[-1] > 0

    def test_host_agent_reads_load(self, rig):
        sim, g, cluster, *_ = rig
        hosts = HostTable(cluster).agents
        cluster.compute("l0", 1e9)

        def probe(sim):
            yield sim.timeout(30.0)
            return hosts["l0"].read()

        t, load = run_probe(sim, probe(sim))
        assert t == 30.0
        assert load == pytest.approx(1.0, abs=1e-2)


class TestCollector:
    def test_validation(self, rig):
        _, _, cluster, *_ = rig
        with pytest.raises(ValueError):
            Collector(cluster, period=0.0, start=False)
        with pytest.raises(ValueError):
            Collector(cluster, period=1.0, history=1, start=False)

    def test_polls_on_schedule(self, rig):
        sim, g, cluster, collector, _ = rig
        sim.run(until=10.0)
        # Polls at t=0,2,4,6,8,10.
        assert collector.polls_completed == 6

    def test_utilization_from_counter_deltas(self, rig):
        sim, g, cluster, collector, _ = rig
        cluster.transfer("l0", "r0", 10000 * MB)  # long-lived bulk flow
        sim.run(until=11.0)
        cid = cluster.fabric.channel_for("sw-left", "sw-right")
        hist = collector.utilization_history(cid)
        assert hist, "no samples derived"
        # Steady 100 Mbps flow should measure ~100 Mbps.
        assert hist[-1][1] == pytest.approx(100 * Mbps, rel=1e-3)

    def test_idle_channel_measures_zero(self, rig):
        sim, g, cluster, collector, _ = rig
        sim.run(until=11.0)
        cid = cluster.fabric.channel_for("sw-left", "sw-right")
        hist = collector.utilization_history(cid)
        assert all(u == 0.0 for _t, u in hist)

    def test_load_history_tracks_host(self, rig):
        sim, g, cluster, collector, _ = rig
        cluster.compute("l0", 1e9)
        sim.run(until=30.0)
        hist = collector.load_history("l0")
        assert hist[0][1] < hist[-1][1]
        assert hist[-1][1] == pytest.approx(1.0, abs=1e-2)

    def test_unknown_host_raises(self, rig):
        _, _, _, collector, _ = rig
        with pytest.raises(KeyError):
            collector.load_history("ghost")

    def test_age_reflects_staleness(self, rig):
        sim, g, cluster, collector, _ = rig
        sim.run(until=3.0)
        # Last poll at t=2 -> age 1.
        assert collector.age() == pytest.approx(1.0)

    def test_history_bounded(self, rig):
        sim, g, cluster, collector, _ = rig
        sim.run(until=2.0 * 300)
        assert len(collector.load_history("l0")) <= collector.history


class TestChangeLog:
    def test_logs_value_changes_first_samples_and_crossings(self, rig):
        sim, g, cluster, collector, api = rig
        cursor, moved = collector.changes_since(-1)
        assert moved is None  # before the log began: assume everything
        sim.run(until=0.5)  # the round at t=0: every host's first sample
        cursor, moved = collector.changes_since(cursor)
        assert set(moved) == set(cluster.hosts)
        sim.run(until=2.5)  # second readings: every link's first sample
        cursor, moved = collector.changes_since(cursor)
        assert set(moved) == {link.key for link in g.links()}
        cluster.compute("l0", 1e9)
        sim.run(until=4.5)
        cursor, moved = collector.changes_since(cursor)
        assert moved == ["l0"]  # the idle rest repeated their values
        sim.run(until=6.5)
        again, moved = collector.changes_since(cursor)
        assert moved == ["l0"] and again == cursor + 1
        assert collector.changes_since(again) == (again, [])

    def test_log_is_bounded_and_says_when_it_fell_behind(self, rig):
        sim, g, cluster, collector, api = rig
        cluster.compute("l0", 1e9)  # one entry a round, for ever
        sim.run(until=10.0)
        cursor, _ = collector.changes_since(-1)
        sim.run(until=2000.0)
        assert len(collector._changes) <= collector._changes_limit
        assert collector.changes_since(cursor)[1] is None
        assert_same_snapshot(api.topology(), full_sweep_topology(api))

    def test_round_time_and_late_resources(self, rig):
        sim, g, cluster, collector, api = rig
        sim.run(until=4.5)
        assert collector.round_at == 4.0
        assert collector.late_resources() == frozenset()
        collector.host_agents["l1"].silence_for(1.8)  # misses 6.0, not 6.5
        sim.run(until=6.2)
        assert collector.round_at == 6.0
        assert collector.late_resources() == {"l1"}
        assert api.topology().node_age("l1") == pytest.approx(2.2)
        sim.run(until=7.0)  # the retry at 6.5 landed: sampled off the round
        assert collector.late_resources() == {"l1"}
        snap = api.topology()
        assert snap.node_age("l1") == 0.5 and snap.node_age("l0") == 1.0
        sim.run(until=8.5)
        assert collector.late_resources() == frozenset()


class TestRemosAPI:
    def test_node_load_before_any_poll_is_zero(self):
        sim = Simulator()
        cluster = Cluster(sim, star(2))
        collector = Collector(cluster, period=5.0, start=False)
        api = RemosAPI(collector)
        assert api.node_load("h0") == 0.0

    def test_topology_reflects_measured_load(self, rig):
        sim, g, cluster, collector, api = rig
        cluster.compute("l0", 1e9)
        sim.run(until=30.0)
        topo = api.topology()
        assert topo.node("l0").load_average == pytest.approx(1.0, abs=1e-2)
        assert topo.node("r0").load_average == 0.0

    def test_topology_reflects_measured_traffic_directionally(self, rig):
        sim, g, cluster, collector, api = rig
        cluster.transfer("l0", "r0", 10000 * MB)
        sim.run(until=11.0)
        trunk = api.topology().link("sw-left", "sw-right")
        assert trunk.available_towards("sw-right") == pytest.approx(0.0, abs=1e4)
        assert trunk.available_towards("sw-left") == pytest.approx(100 * Mbps)

    def test_topology_is_stale_not_clairvoyant(self, rig):
        """Between polls the API reports the old world — by design."""
        sim, g, cluster, collector, api = rig
        sim.run(until=2.5)  # polls at 0 and 2; idle so far
        cluster.transfer("l0", "r0", 10000 * MB)
        sim.run(until=3.5)  # traffic running, but no poll since t=2
        trunk = api.topology().link("sw-left", "sw-right")
        assert trunk.available_towards("sw-right") == pytest.approx(100 * Mbps)

    def test_link_info_orientation(self, rig):
        sim, g, cluster, collector, api = rig
        cluster.transfer("l0", "r0", 10000 * MB)
        sim.run(until=11.0)
        fwd = api.link_info("sw-left", "sw-right")
        rev = api.link_info("sw-right", "sw-left")
        assert fwd.utilization_fwd_bps == pytest.approx(100 * Mbps, rel=1e-3)
        assert rev.utilization_rev_bps == pytest.approx(100 * Mbps, rel=1e-3)
        assert rev.utilization_fwd_bps == 0.0

    def test_flow_query_bottleneck(self, rig):
        sim, g, cluster, collector, api = rig
        cluster.transfer("l0", "r0", 10000 * MB)
        sim.run(until=11.0)
        assert api.flow_query("l1", "r1") == pytest.approx(0.0, abs=1e4)
        # l1 -> l0 avoids both saturated channels (trunk and l0's uplink).
        assert api.flow_query("l1", "l0") == pytest.approx(100 * Mbps, rel=1e-3)

    def test_flows_query_shares_common_links(self, rig):
        sim, g, cluster, collector, api = rig
        sim.run(until=5.0)
        quotes = api.flows_query([("l0", "r0"), ("l1", "r1")])
        assert quotes[0] == pytest.approx(50 * Mbps, rel=1e-3)
        assert quotes[1] == pytest.approx(50 * Mbps, rel=1e-3)

    def test_flows_query_quotes_survive_patched_sweeps(self, rig):
        """Each query is one (cheap, patched) sweep; what it quotes is
        what the full sweep's availabilities would have it quote."""
        sim, g, cluster, collector, api = rig
        cluster.transfer("l0", "r0", 10000 * MB)
        pairs = [("l0", "r0"), ("l1", "r1"), ("l1", "l0"), ("r1", "r0")]
        for until in (5.0, 9.0, 13.0):
            sim.run(until=until)
            quotes = api.flows_query(pairs)
            oracle = full_sweep_topology(api)

            def fair(src, dst):
                path = g.path(src, dst)
                return [(frozenset((a, b)), b) for a, b in zip(path, path[1:])]

            flows = {i: fair(*pair) for i, pair in enumerate(pairs)}
            caps = {
                cid: oracle.link(*tuple(cid[0])).available_towards(cid[1])
                for route in flows.values() for cid in route
            }
            want = max_min_fair(flows, caps)
            assert quotes == [want[i] for i in range(len(pairs))]
        assert api.topology_sweeps == 3

    def test_flow_query_self_and_disconnected(self):
        sim = Simulator()
        g = dumbbell(1, 1)
        g.remove_link("sw-left", "sw-right")
        cluster = Cluster(sim, g)
        api = RemosAPI(Collector(cluster, period=5.0, start=False))
        assert api.flow_query("l0", "l0") == float("inf")
        assert api.flow_query("l0", "r0") == 0.0

    def test_custom_predictor_is_used(self, rig):
        sim, g, cluster, collector, _ = rig
        cluster.compute("l0", 1e9)
        sim.run(until=30.0)
        sticky = RemosAPI(collector, predictor=Ewma(alpha=0.05))
        fresh = RemosAPI(collector)
        # EWMA lags the load ramp-up, so it must report less than last-value.
        assert sticky.node_load("l0") < fresh.node_load("l0")

    def test_api_drives_node_selector(self, rig):
        """End-to-end §2: Remos feeds the selection framework."""
        from repro.core import ApplicationSpec, NodeSelector
        sim, g, cluster, collector, api = rig
        cluster.compute("l0", 1e9)
        cluster.compute("l1", 1e9)
        sim.run(until=60.0)
        sel = NodeSelector(api).select(ApplicationSpec(num_nodes=2))
        assert sorted(sel.nodes) == ["r0", "r1"]

    def test_half_duplex_link_info(self):
        sim = Simulator()
        g = TopologyGraph()
        g.add_compute("a")
        g.add_compute("b")
        g.add_link("a", "b", 100 * Mbps, duplex="half")
        cluster = Cluster(sim, g)
        collector = Collector(cluster, period=2.0)
        cluster.transfer("a", "b", 10000 * MB)
        sim.run(until=11.0)
        api = RemosAPI(collector)
        info = api.link_info("a", "b")
        assert info.utilization_fwd_bps == pytest.approx(100 * Mbps, rel=1e-3)
        assert info.utilization_rev_bps == pytest.approx(100 * Mbps, rel=1e-3)


class TestQueryLevels:
    """§2.2: history window / current conditions / future estimate, each
    a ``RemosAPI`` over one collector with its own predictor."""

    @staticmethod
    def views(collector, **kw):
        return [
            RemosAPI(collector, predictor=LastValue(), **kw),
            RemosAPI(collector, predictor=SlidingMean(30.0), **kw),
            RemosAPI(collector, predictor=Ewma(0.3), **kw),
        ]

    def test_views_share_the_collector(self, rig):
        sim, g, cluster, collector, api = rig
        for view in self.views(collector):
            assert view.collector is collector
        assert type(api.predictor) is LastValue  # the paper's default

    def test_views_differ_on_a_ramp(self, rig):
        """While load ramps up, current > window mean > heavy-smoothing."""
        sim, g, cluster, collector, api = rig
        cluster.compute("l0", 1e9)
        sim.run(until=20.0)  # partway up the damped ramp
        current = RemosAPI(collector, predictor=LastValue()).node_load("l0")
        window = RemosAPI(
            collector, predictor=SlidingMean(60.0)
        ).node_load("l0")
        smooth = RemosAPI(collector, predictor=Ewma(0.1)).node_load("l0")
        assert current > window > 0
        assert current > smooth > 0

    def test_views_keep_the_tracer_and_their_own_patch_state(self, rig):
        sim, g, cluster, collector, _ = rig
        tracer = Tracer()
        api = RemosAPI(collector, tracer=tracer)
        cluster.compute("l0", 1e9)
        sim.run(until=9.0)
        views = self.views(collector, tracer=tracer)
        for view in views:
            assert view.tracer is tracer
            assert_same_snapshot(view.topology(), full_sweep_topology(view))
        sim.run(until=15.0)
        for view in views:  # second answers: patches, each from its own cursor
            assert_same_snapshot(view.topology(), full_sweep_topology(view))
            assert view.topology_sweeps == 2
        assert api.topology_sweeps == 0
        spans = [s for s in tracer.spans if s["name"] == "remos.topology"]
        assert len(spans) == 6
        assert {s["attrs"]["stale_resources"] for s in spans} == {0}
        collector.host_agents["r1"].silence_for(60.0)
        sim.run(until=30.0)
        views[0].topology()
        assert tracer.spans[-1]["attrs"]["stale_resources"] == 1

    def test_current_equals_default(self, rig):
        sim, g, cluster, collector, api = rig
        cluster.compute("l1", 1e9)
        sim.run(until=30.0)
        current = RemosAPI(collector, predictor=LastValue())
        assert current.node_load("l1") == api.node_load("l1")
