"""Tests for fault injection and the hardened monitoring pipeline.

End-to-end through the real stack: injected faults are only ever visible
to Remos through missed polls and counter anomalies, and selection only
reacts through the topology the degraded-mode API reports.
"""

import numpy as np
import pytest

from repro.core import ApplicationSpec, NodeSelector
from repro.des import Simulator
from repro.faults import (
    AgentOutage,
    CounterReset,
    FaultInjector,
    LinkFlap,
    NodeCrash,
    random_fault_plan,
)
from repro.network import Cluster, HostDownError
from repro.remos import Collector, RemosAPI
from repro.topology import dumbbell
from repro.units import MB, Mbps


def make_rig(counter_bits=None, stale_after=3):
    sim = Simulator()
    g = dumbbell(2, 2, latency=0.0)
    cluster = Cluster(sim, g, base_capacity=1.0, load_tau=5.0)
    collector = Collector(
        cluster,
        period=2.0,
        max_retries=2,
        backoff=0.5,
        stale_after=stale_after,
        counter_bits=counter_bits,
    )
    api = RemosAPI(collector)
    return sim, cluster, collector, api, FaultInjector(cluster, collector)


class TestFaultValidation:
    def test_fault_dataclasses_validate(self):
        with pytest.raises(ValueError):
            NodeCrash(node="l0", at=-1.0)
        with pytest.raises(ValueError):
            NodeCrash(node="l0", at=1.0, downtime=0.0)
        with pytest.raises(ValueError):
            LinkFlap(u="a", v="b", at=0.0, downtime=0.0)
        with pytest.raises(ValueError):
            LinkFlap(u="a", v="b", at=0.0, downtime=1.0, cycles=0)
        with pytest.raises(ValueError):
            AgentOutage(device="l0", at=0.0, duration=-2.0)
        with pytest.raises(ValueError):
            CounterReset(device="l0", at=-0.5)

    def test_schedule_validates_targets_eagerly(self):
        sim, cluster, collector, api, inj = make_rig()
        with pytest.raises(KeyError):
            inj.schedule([NodeCrash(node="ghost", at=1.0)])
        with pytest.raises(KeyError):
            inj.schedule([LinkFlap(u="l0", v="r0", at=1.0, downtime=1.0)])
        with pytest.raises(KeyError):
            inj.schedule([AgentOutage(device="ghost", at=1.0, duration=1.0)])

    def test_monitoring_faults_need_collector(self):
        sim = Simulator()
        cluster = Cluster(sim, dumbbell(1, 1))
        inj = FaultInjector(cluster)  # no collector
        with pytest.raises(ValueError):
            inj.silence_agents("l0", 5.0)
        with pytest.raises(ValueError):
            inj.reset_counters("l0")


class TestHostFailure:
    def test_crash_aborts_tasks_and_refuses_work(self):
        sim, cluster, collector, api, inj = make_rig()
        task = cluster.compute("l0", 1e9)  # would run ~forever
        sim.call_at(1.0, lambda: inj.crash_node("l0"))
        sim.run(until=2.0)
        host = cluster.host("l0")
        assert not host.up
        assert not task.done.ok
        with pytest.raises(HostDownError):
            host.run(1.0)

    def test_recover_restores_a_fresh_host(self):
        sim, cluster, collector, api, inj = make_rig()
        sim.call_at(1.0, lambda: inj.crash_node("l0"))
        sim.call_at(5.0, lambda: inj.recover_node("l0"))
        sim.run(until=6.0)
        host = cluster.host("l0")
        assert host.up
        assert host.load_average == 0.0
        task = host.run(1.0)
        sim.run(until=8.0)
        assert task.done.ok

    def test_crash_downs_incident_links(self):
        sim, cluster, collector, api, inj = make_rig()
        inj.crash_node("l0")
        assert not cluster.fabric.link_up("l0", "sw-left")
        assert cluster.fabric.link_up("l1", "sw-left")
        inj.recover_node("l0")
        assert cluster.fabric.link_up("l0", "sw-left")


class TestAgentOutageStaleness:
    def test_timeout_marks_resources_stale_then_recovers(self):
        sim, cluster, collector, api, inj = make_rig()
        inj.schedule([AgentOutage(device="l0", at=0.5, duration=10.0)])
        # Polls at 2/4/6 all fall inside the silence window (retries
        # included), so after stale_after=3 missed rounds l0 is stale.
        sim.run(until=9.0)
        status = collector.host_status("l0")
        assert status.missed_polls >= 3
        assert status.stale
        assert collector.stale_hosts() == ["l0"]
        assert api.node_info("l0").stale
        assert api.node_info("l0").age_s > collector.period
        # The agent answers again after t=10.5; one good poll clears it.
        sim.run(until=13.0)
        assert not collector.host_status("l0").stale
        assert not api.node_info("l0").stale

    def test_short_glitch_absorbed_by_retries(self):
        """An outage shorter than the backoff never causes a missed round."""
        sim, cluster, collector, api, inj = make_rig()
        inj.schedule([AgentOutage(device="l0", at=3.9, duration=0.3)])
        sim.run(until=9.0)
        assert collector.failed_polls > 0          # the poll at t=4 timed out
        assert collector.host_status("l0").missed_polls == 0
        assert not collector.host_status("l0").stale

    def test_stale_link_flagged_in_link_info(self):
        sim, cluster, collector, api, inj = make_rig()
        # sw-left reports the trunk's forward channel; silencing it (only)
        # stales the trunk but not the hosts.
        inj.schedule([AgentOutage(device="sw-left", at=0.5, duration=10.0)])
        sim.run(until=9.0)
        assert api.link_info("sw-left", "sw-right").stale
        assert not api.node_info("l0").stale


class TestCrashExclusionAndRecovery:
    def test_crashed_node_excluded_once_stale(self):
        sim, cluster, collector, api, inj = make_rig()
        inj.schedule([NodeCrash(node="l0", at=1.0)])
        sim.run(until=12.0)  # 3+ missed rounds -> unmonitorable
        assert cluster.snapshot().node("l0").attrs.get("down")
        topo = api.topology()
        assert topo.node("l0").attrs.get("unmonitorable")
        sel = NodeSelector(api).select(ApplicationSpec(num_nodes=3))
        assert "l0" not in sel.nodes
        assert sorted(sel.nodes) == ["l1", "r0", "r1"]

    def test_validate_reports_failed_members(self):
        sim, cluster, collector, api, inj = make_rig()
        selector = NodeSelector(api)
        placement = ["l0", "r0"]
        assert selector.validate(placement) == []
        inj.schedule([NodeCrash(node="l0", at=1.0)])
        sim.run(until=12.0)
        assert selector.validate(placement) == ["l0"]

    def test_recovered_node_selectable_again(self):
        sim, cluster, collector, api, inj = make_rig()
        inj.schedule([NodeCrash(node="l0", at=1.0, downtime=10.0)])
        sim.run(until=9.0)  # rounds at 2/4/6 missed -> stale
        assert "l0" not in NodeSelector(api).select(
            ApplicationSpec(num_nodes=3)
        ).nodes
        sim.run(until=20.0)  # recovered at t=11; polls succeed again
        assert cluster.host("l0").up
        assert not collector.host_status("l0").stale
        sel = NodeSelector(api).select(ApplicationSpec(num_nodes=4))
        assert sorted(sel.nodes) == ["l0", "l1", "r0", "r1"]

    def test_exclusion_can_be_disabled(self):
        """The naive control arm still sees the full node set."""
        sim, cluster, collector, api, inj = make_rig()
        inj.schedule([NodeCrash(node="l0", at=1.0)])
        sim.run(until=12.0)
        naive = NodeSelector(api, exclude_unhealthy=False)
        sel = naive.select(ApplicationSpec(num_nodes=4))
        assert sorted(sel.nodes) == ["l0", "l1", "r0", "r1"]


class TestLinkFlap:
    def test_flap_cycles_down_and_up(self):
        sim, cluster, collector, api, inj = make_rig()
        inj.schedule(
            [LinkFlap(u="sw-left", v="sw-right", at=1.0, downtime=2.0,
                      cycles=2, gap=3.0)]
        )
        fab = cluster.fabric
        sim.run(until=2.0)
        assert not fab.link_up("sw-left", "sw-right")   # down at 1..3
        sim.run(until=4.0)
        assert fab.link_up("sw-left", "sw-right")       # up at 3..6
        sim.run(until=7.0)
        assert not fab.link_up("sw-left", "sw-right")   # down at 6..8
        sim.run(until=9.0)
        assert fab.link_up("sw-left", "sw-right")
        kinds = [k for _t, k, _x in inj.log]
        assert kinds.count("link-down") == 2
        assert kinds.count("link-up") == 2

    def test_transfer_survives_a_flap(self):
        """Flows stall while the link is down and finish after repair."""
        sim, cluster, collector, api, inj = make_rig()
        # ~2.1 s unimpeded at 100 Mbps; the 4 s flap stretches it.
        done = cluster.transfer("l0", "r0", 25 * MB)
        inj.schedule(
            [LinkFlap(u="sw-left", v="sw-right", at=1.0, downtime=4.0)]
        )
        sim.run(until=20.0)
        assert done.processed and done.ok
        unimpeded = 25 * MB * 8 / (100 * Mbps)
        assert done.value == pytest.approx(unimpeded + 4.0, rel=1e-6)


class TestCounterAnomalies:
    def test_wrapped_counter_yields_sane_utilization(self):
        # 2**26 octets wraps every ~5.4 s under a 100 Mbps stream, so the
        # collector sees several wraps; every delta must still be recovered.
        sim, cluster, collector, api, inj = make_rig(counter_bits=26)
        cluster.transfer("l0", "r0", 10000 * MB)
        sim.run(until=31.0)
        cid = cluster.fabric.channel_for("sw-left", "sw-right")
        assert cluster.fabric.octet_counter(cid) > 2.0**26  # wraps happened
        hist = collector.utilization_history(cid)
        assert len(hist) >= 10
        assert all(0.0 <= u <= 100 * Mbps * 1.0001 for _t, u in hist)
        assert hist[-1][1] == pytest.approx(100 * Mbps, rel=1e-3)
        assert collector.dropped_samples == 0

    def test_counter_reset_drops_interval_never_negative(self):
        sim, cluster, collector, api, inj = make_rig()
        cluster.transfer("l0", "r0", 10000 * MB)
        inj.schedule([CounterReset(device="sw-left", at=7.0)])
        sim.run(until=15.0)
        cid = cluster.fabric.channel_for("sw-left", "sw-right")
        hist = collector.utilization_history(cid)
        assert collector.dropped_samples >= 1   # the reboot interval
        assert all(u >= 0.0 for _t, u in hist)
        assert hist[-1][1] == pytest.approx(100 * Mbps, rel=1e-3)

    def test_reset_with_bounded_counters_not_mistaken_for_wrap(self):
        """A reset early in the counter's range implies an absurd rate if
        interpreted as a wrap; the plausibility test must drop it."""
        sim, cluster, collector, api, inj = make_rig(counter_bits=40)
        cluster.transfer("l0", "r0", 10000 * MB)
        inj.schedule([CounterReset(device="sw-left", at=7.0)])
        sim.run(until=15.0)
        cid = cluster.fabric.channel_for("sw-left", "sw-right")
        hist = collector.utilization_history(cid)
        assert collector.dropped_samples >= 1
        assert all(0.0 <= u <= 100 * Mbps * 1.0001 for _t, u in hist)


class TestRandomFaultPlan:
    def test_plan_reproducible_and_sorted(self):
        sim, cluster, collector, api, inj = make_rig()
        a = random_fault_plan(cluster, np.random.default_rng(7), horizon=50.0)
        b = random_fault_plan(cluster, np.random.default_rng(7), horizon=50.0)
        assert a == b
        times = [f.at for f in a]
        assert times == sorted(times)
        assert all(0.0 <= t <= 50.0 for t in times)

    def test_plan_respects_down_fraction(self):
        sim, cluster, collector, api, inj = make_rig()
        plan = random_fault_plan(
            cluster, np.random.default_rng(3), horizon=50.0,
            n_crashes=10, max_down_fraction=0.34,
        )
        crashes = [f for f in plan if isinstance(f, NodeCrash)]
        # 4 hosts * 0.34 -> at most 1 simultaneous crash target.
        assert len(crashes) == 1

    def test_plan_schedules_and_runs(self):
        sim, cluster, collector, api, inj = make_rig()
        plan = random_fault_plan(
            cluster, np.random.default_rng(11), horizon=30.0, start=1.0
        )
        n = inj.schedule(plan)
        assert n == len(plan) > 0
        sim.run(until=60.0)
        assert inj.log  # something actually fired
