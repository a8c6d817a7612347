"""Degraded-mode Remos queries: staleness annotation and answer policies."""

import pytest

from repro.des import Simulator
from repro.faults import AgentOutage, FaultInjector, NodeCrash
from repro.network import Cluster
from repro.obs import Tracer
from repro.remos import (
    Collector,
    DegradedPolicy,
    Ewma,
    LastValue,
    RemosAPI,
    SlidingMean,
    apply_degraded_policy,
)
from repro.remos.api import _UNMONITORABLE_LOAD
from repro.topology import dumbbell
from repro.units import MB, Mbps


def make_rig(degraded=DegradedPolicy.LAST_GOOD):
    sim = Simulator()
    g = dumbbell(2, 2, latency=0.0)
    cluster = Cluster(sim, g, base_capacity=1.0, load_tau=5.0)
    collector = Collector(
        cluster, period=2.0, max_retries=1, backoff=0.5, stale_after=3
    )
    api = RemosAPI(collector, degraded=degraded)
    return sim, cluster, collector, api, FaultInjector(cluster, collector)


def stale_node_rig(degraded):
    """A rig where l0 ran hot, then its monitoring went stale."""
    sim, cluster, collector, api, inj = make_rig(degraded)
    cluster.compute("l0", 1e9)
    inj.schedule([AgentOutage(device="l0", at=20.5, duration=30.0)])
    sim.run(until=30.0)
    return sim, cluster, collector, api


class TestArgumentValidation:
    def test_collector_rejects_bad_arguments(self):
        sim = Simulator()
        cluster = Cluster(sim, dumbbell(1, 1))
        with pytest.raises(ValueError):
            Collector(cluster, max_retries=-1, start=False)
        with pytest.raises(ValueError):
            Collector(cluster, backoff=0.0, start=False)
        with pytest.raises(ValueError):
            Collector(cluster, stale_after=0, start=False)
        with pytest.raises(ValueError):
            Collector(cluster, counter_bits=4, start=False)

    def test_api_rejects_bad_arguments(self):
        sim = Simulator()
        cluster = Cluster(sim, dumbbell(1, 1))
        collector = Collector(cluster, start=False)
        with pytest.raises(TypeError):
            RemosAPI(cluster)  # not a Collector
        with pytest.raises(ValueError):
            RemosAPI(collector, degraded="hopeful")

    def test_flow_query_unknown_node_raises(self):
        sim, cluster, collector, api, _ = make_rig()
        with pytest.raises(KeyError, match="ghost"):
            api.flow_query("l0", "ghost")
        with pytest.raises(KeyError, match="ghost"):
            api.flows_query([("l0", "r0"), ("ghost", "r1")])

    def test_status_queries_unknown_resource_raises(self):
        sim, cluster, collector, api, _ = make_rig()
        with pytest.raises(KeyError):
            collector.host_status("ghost")
        with pytest.raises(KeyError):
            collector.channel_status(("nope", "x"))


class TestStalenessAnnotation:
    def test_fresh_answers_not_stale(self):
        sim, cluster, collector, api, _ = make_rig()
        cluster.transfer("l0", "r0", 100 * MB)
        sim.run(until=10.0)
        info = api.link_info("sw-left", "sw-right")
        assert not info.stale
        assert 0.0 <= info.age_s <= collector.period
        node = api.node_info("l0")
        assert not node.stale
        assert 0.0 <= node.age_s <= collector.period

    def test_never_polled_is_not_stale(self):
        sim = Simulator()
        cluster = Cluster(sim, dumbbell(1, 1))
        api = RemosAPI(Collector(cluster, start=False))
        info = api.node_info("l0")
        assert info.load_average == 0.0
        assert not info.stale
        assert info.age_s == float("inf")

    def test_age_grows_while_agent_silent(self):
        sim, cluster, collector, api, inj = make_rig()
        inj.schedule([AgentOutage(device="l0", at=0.5, duration=30.0)])
        sim.run(until=20.0)
        # Only the t=0 poll succeeded.
        assert api.node_info("l0").age_s == pytest.approx(20.0)
        assert api.node_info("l0").stale


class TestPolicyLadder:
    def test_optimistic_never_marks(self):
        sim, cluster, collector, api = stale_node_rig(DegradedPolicy.OPTIMISTIC)
        info = api.node_info("l0")
        assert not info.stale
        assert info.load_average > 0.5          # last-known-good, unmarked
        topo = api.topology()
        assert "unmonitorable" not in topo.node("l0").attrs

    def test_last_good_marks_but_keeps_values(self):
        sim, cluster, collector, api = stale_node_rig(DegradedPolicy.LAST_GOOD)
        info = api.node_info("l0")
        assert info.stale
        assert 0.5 < info.load_average < 10.0   # the last real measurement
        topo = api.topology()
        assert topo.node("l0").attrs.get("unmonitorable")

    def test_conservative_assumes_the_worst(self):
        sim, cluster, collector, api = stale_node_rig(
            DegradedPolicy.CONSERVATIVE
        )
        assert api.node_info("l0").load_average == float("inf")
        topo = api.topology()
        # Topology substitutes a huge finite load (serializable, cpu ~ 0).
        assert topo.node("l0").load_average > 1e8
        assert topo.node("l0").attrs.get("unmonitorable")

    def test_conservative_stale_link_has_zero_available(self):
        sim, cluster, collector, api, inj = make_rig(
            DegradedPolicy.CONSERVATIVE
        )
        inj.schedule([AgentOutage(device="sw-left", at=0.5, duration=30.0)])
        sim.run(until=15.0)
        info = api.link_info("sw-left", "sw-right")
        assert info.stale
        assert info.available_fwd_bps == 0.0
        assert info.available_rev_bps == 0.0
        # LAST_GOOD on the same history would answer the idle link's truth.
        relaxed = RemosAPI(collector, degraded=DegradedPolicy.LAST_GOOD)
        assert relaxed.link_info(
            "sw-left", "sw-right"
        ).available_fwd_bps == pytest.approx(100 * Mbps)

    def test_views_propagate_policy(self):
        # Whatever the predictor, the policy answers the stale host.
        sim, cluster, collector, _ = stale_node_rig(DegradedPolicy.LAST_GOOD)
        for predictor in (LastValue(), SlidingMean(30.0), Ewma(0.3)):
            api = RemosAPI(collector, predictor=predictor,
                           degraded=DegradedPolicy.CONSERVATIVE)
            assert api.node_info("l0").load_average == float("inf")
            assert api.topology().node("l0").attrs.get("unmonitorable")


class TestDegradedQueriesNeverRaise:
    def test_queries_survive_a_crashed_node(self):
        sim, cluster, collector, api, inj = make_rig()
        inj.schedule([NodeCrash(node="l0", at=1.0)])
        sim.run(until=15.0)
        # Every query level answers; nothing propagates AgentTimeout.
        for name in cluster.hosts:
            api.node_info(name)
        for link in cluster.graph.links():
            api.link_info(link.u, link.v)
        api.topology()
        quotes = api.flows_query([("l1", "r0"), ("l0", "r1")])
        # Last-known-good answers stay finite and non-negative; the dead
        # node may still be quoted (Remos answers from measurements — it is
        # selection's job to exclude unmonitorable nodes).
        assert all(0.0 <= q < float("inf") for q in quotes)
        # The conservative policy zeroes the stale access link instead.
        pessimist = RemosAPI(collector, degraded=DegradedPolicy.CONSERVATIVE)
        assert pessimist.flow_query("l0", "r1") == 0.0


class TestTracedSweepCountsStaleMarksAsItGoes:
    """``stale_resources`` on the ``remos.topology`` span is carried from
    sweep to sweep with the patch, not recounted over the answer: it must
    still be what a count over the answer gives."""

    @pytest.mark.parametrize("policy", DegradedPolicy.ALL)
    def test_stale_recovered_stale(self, policy):
        sim, cluster, collector, _, inj = make_rig(policy)
        tracer = Tracer()
        api = RemosAPI(collector, degraded=policy, tracer=tracer)
        cluster.compute("l0", 1e9)
        # l0 and the trunk's left end go quiet, come back, go quiet again
        # (one of them for good); r1 goes stale once in between.
        inj.schedule([
            AgentOutage(device="l0", at=4.5, duration=9.0),
            AgentOutage(device="sw-left", at=4.5, duration=9.0),
            AgentOutage(device="r1", at=10.5, duration=11.0),
            AgentOutage(device="l0", at=24.5, duration=100.0),
            AgentOutage(device="sw-left", at=24.5, duration=9.0),
        ])
        counts = []
        for until in range(2, 50, 2):
            sim.run(until=until + 0.5)
            topo = api.topology()
            marks = sum(
                bool(n.attrs.get("unmonitorable")) for n in topo.nodes()
            ) + sum(bool(l.attrs.get("stale")) for l in topo.links())
            assert tracer.spans[-1]["name"] == "remos.topology"
            assert tracer.spans[-1]["attrs"]["stale_resources"] == marks
            assert (topo.measurement.nodes is None) == (until == 2)
            counts.append(marks)
        if policy == DegradedPolicy.OPTIMISTIC:
            assert set(counts) == {0}
        else:
            # Up, down to nothing, up again, and down to what stays
            # away (l0 and its access link): marks set, replaced, set.
            peaks = [c for c, nxt in zip(counts, counts[1:]) if c > nxt]
            assert len(peaks) >= 2 and 0 in counts[5:], counts
            assert max(counts) >= 3 and counts[-1] == 2, counts


def outage_rig():
    """A host down from t=0 (never sampled), a busy host and both
    switches whose agents go silent for good at t=8.5, a half-duplex
    trunk and traffic across it."""
    sim = Simulator()
    g = dumbbell(2, 2, latency=0.0)
    g.link("sw-left", "sw-right").attrs["duplex"] = "half"
    cluster = Cluster(sim, g, base_capacity=1.0, load_tau=5.0)
    collector = Collector(
        cluster, period=2.0, max_retries=1, backoff=0.5, stale_after=3
    )
    inj = FaultInjector(cluster, collector)
    cluster.host("l0").fail()
    cluster.compute("r1", 1e9)
    cluster.transfer("l1", "r0", 1000 * MB)
    inj.schedule([
        AgentOutage(device="r1", at=8.5, duration=1e3),
        AgentOutage(device="sw-left", at=8.5, duration=1e3),
        AgentOutage(device="sw-right", at=8.5, duration=1e3),
    ])
    return sim, cluster, collector


class TestPointQueriesAgreeWithTheSweep:
    """``node_info`` / ``link_info`` and ``topology()`` derive a resource
    one way and read the policy from one rule, so under every policy and
    predictor they agree on every value and mark — up to the two
    substitutions a snapshot makes: an infinite load is stored as
    ``_UNMONITORABLE_LOAD``, and a link utilized to capacity has zero
    available bandwidth."""

    @pytest.mark.parametrize("predictor", ["last", "mean", "ewma"])
    @pytest.mark.parametrize("policy", DegradedPolicy.ALL)
    def test_every_resource_every_round(self, policy, predictor):
        sim, cluster, collector = outage_rig()
        make = {"last": LastValue, "mean": lambda: SlidingMean(5.0),
                "ewma": lambda: Ewma(0.3)}[predictor]
        api = RemosAPI(collector, predictor=make(), degraded=policy)
        seen = set()
        for until in (1.0, 6.0, 12.0, 20.0, 30.0, 40.0):
            sim.run(until=until)
            topo = api.topology()  # full first, then patched (last value)
            for name in cluster.hosts:
                info, node = api.node_info(name), topo.node(name)
                assert node.load_average == (
                    _UNMONITORABLE_LOAD if info.load_average == float("inf")
                    else info.load_average
                ), (until, name)
                assert bool(node.attrs.get("unmonitorable")) == info.stale
                seen.add(("node", info.stale))
            for link in topo.links():
                info = api.link_info(link.u, link.v)
                tag = (until, link.u, link.v)
                assert link.available_fwd == info.available_fwd_bps, tag
                assert link.available_rev == info.available_rev_bps, tag
                assert bool(link.attrs.get("stale")) == info.stale, tag
                seen.add(("link", info.stale))
        # The rig reaches a stale host and a stale link (marked or not).
        marked = policy != DegradedPolicy.OPTIMISTIC
        assert {("node", marked), ("link", marked)} <= seen, seen


class TestLiveAndOfflinePoliciesAgree:
    """A policy applied live (``RemosAPI(degraded=P)``) answers what the
    same policy applied offline to the marked last-known-good snapshot
    (:func:`apply_degraded_policy`) does: loads, both availabilities and
    the marks.  The rig has a host down from t=0 (never sampled), a
    busy host and both switches whose agents go silent for good, a
    half-duplex trunk and traffic across it."""

    @staticmethod
    def answers(graph):
        nodes = {
            n.name: (n.load_average, bool(n.attrs.get("unmonitorable")))
            for n in graph.nodes()
        }
        links = {
            link.key: (link.available_fwd, link.available_rev,
                       bool(link.attrs.get("stale")))
            for link in graph.links()
        }
        return nodes, links

    @pytest.mark.parametrize("policy", DegradedPolicy.ALL)
    def test_live_policy_equals_offline_policy(self, policy):
        sim = Simulator()
        g = dumbbell(2, 2, latency=0.0)
        g.link("sw-left", "sw-right").attrs["duplex"] = "half"
        cluster = Cluster(sim, g, base_capacity=1.0, load_tau=5.0)
        collector = Collector(
            cluster, period=2.0, max_retries=1, backoff=0.5, stale_after=3
        )
        inj = FaultInjector(cluster, collector)
        cluster.host("l0").fail()
        cluster.compute("r1", 1e9)
        cluster.transfer("l1", "r0", 1000 * MB)
        inj.schedule([
            AgentOutage(device="r1", at=8.5, duration=1e3),
            AgentOutage(device="sw-left", at=8.5, duration=1e3),
            AgentOutage(device="sw-right", at=8.5, duration=1e3),
        ])
        for until in (1.0, 6.0, 20.0, 40.0):
            sim.run(until=until)
            marked = RemosAPI(collector, degraded=DegradedPolicy.LAST_GOOD)
            live = RemosAPI(collector, degraded=policy).topology()
            offline = apply_degraded_policy(marked.topology(), policy)
            assert self.answers(live) == self.answers(offline), until
        # The rig reaches every case the policies tell apart.
        nodes, links = self.answers(marked.topology())
        assert nodes["l0"][1] and nodes["r1"][1] and nodes["r1"][0] > 0.5
        assert links[frozenset(("sw-left", "sw-right"))][2]
