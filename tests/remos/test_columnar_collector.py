"""The columnar collector answers exactly what the scalar one did.

The shipped :class:`~repro.remos.Collector` walks its agents as columns
and keeps its histories in ring matrices; ``oracles.scalar_collector``
is the collector as it was — one ``agent.read()`` per device, one record
at a time through ``_ingest_record``, a deque of tuples per resource.
One generated history drives both, each over its own copy of the same
deterministic cluster, and after every step everything a caller can see
must be **equal** (``==`` on floats, no tolerance): the arithmetic is
the same arithmetic in the same order, only batched.

The second half is the cost gate: a round's *Python-level call count*
(``sys.setprofile``, so no wall clock) grows with the hosts that are
loaded and the agents that are silenced, not with the hosts or channels
there are; with every host loaded it is bounded by the number of hosts.
"""

import sys

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.des.simulator import Simulator
from repro.network.cluster import Cluster
from repro.remos import Collector, DegradedPolicy, RemosAPI
from repro.remos.predictor import LastValue, SlidingMean
from repro.topology import dumbbell, random_tree
from repro.units import GB, MB, Gbps, Mbps

from ..oracles import assert_same_snapshot, scalar_collector

HOSTS = ["l0", "l1", "l2", "r0", "r1", "r2"]
SWITCHES = ["sw-left", "sw-right"]
DEVICES = HOSTS + SWITCHES
LINKS = [(h, "sw-left") for h in HOSTS[:3]] + \
    [(h, "sw-right") for h in HOSTS[3:]] + [("sw-left", "sw-right")]


class Rig:
    """One simulated cluster under one collector, recording its events."""

    def __init__(
        self, make, counter_bits, stale_after, history, half_duplex=True
    ) -> None:
        graph = dumbbell(3, 3, bandwidth=100 * Mbps)
        if half_duplex:
            # Two half-duplex links, so that a shared channel is reported
            # by a host and a switch, in either table order.  Without
            # them a clean round reads its columns whole.
            graph.link("r2", "sw-right").attrs["duplex"] = "half"
            graph.link("l0", "sw-left").attrs["duplex"] = "half"
        self.sim = Simulator()
        self.cluster = Cluster(self.sim, graph)
        self.collector = make(
            self.cluster, period=5.0, history=history, max_retries=2,
            backoff=0.5, stale_after=stale_after, counter_bits=counter_bits,
        )
        self.events = []
        self.collector.subscribe(
            lambda t, kind, target: self.events.append((t, kind, target))
        )

    def observe(self) -> dict:
        """Everything the collector's surface answers, right now."""
        c = self.collector
        channels = self.cluster.fabric.channels()
        return {
            "util": {cid: list(c.utilization_history(cid)) for cid in channels},
            "load": {h: list(c.load_history(h)) for h in HOSTS},
            "host_status": {h: c.host_status(h) for h in HOSTS},
            "channel_status": {cid: c.channel_status(cid) for cid in channels},
            "changes": c.changes_since(-1),
            "late": c.late_resources(),
            "events": list(self.events),
            "round_at": c.round_at,
            "age": c.age(),
            "stale_hosts": c.stale_hosts(),
            "stale_resources": c.stale_resources(),
            "channels": sorted(c.channels(), key=repr),
            "dropped_samples": c.dropped_samples,
            "failed_polls": c.failed_polls,
            "wrap_disambiguations": c.wrap_disambiguations,
            "polls_completed": c.polls_completed,
            "events_emitted": c.events_emitted,
        }


class ColumnarMatchesScalar(RuleBasedStateMachine):
    @initialize(
        counter_bits=st.sampled_from([None, 8, 32]),
        stale_after=st.sampled_from([1, 2, 3]),
        history=st.sampled_from([2, 3, 120]),
        half_duplex=st.booleans(),
    )
    def build(self, counter_bits, stale_after, history, half_duplex=True):
        args = (counter_bits, stale_after, history, half_duplex)
        self.shipped = Rig(Collector, *args)
        self.oracle = Rig(scalar_collector, *args)
        self.rigs = (self.shipped, self.oracle)

    # -- what happens on the network -------------------------------------------
    @rule(src=st.sampled_from(HOSTS), dst=st.sampled_from(HOSTS),
          megabytes=st.sampled_from([0.001, 3, 40, 400]))
    def transfer(self, src, dst, megabytes):
        for rig in self.rigs:
            if src != dst and all(map(rig.cluster.node_is_up, (src, dst))):
                rig.cluster.transfer(src, dst, megabytes * MB)

    @rule(host=st.sampled_from(HOSTS), ops=st.sampled_from([0.5, 5.0, 60.0]))
    def compute(self, host, ops):
        for rig in self.rigs:
            if rig.cluster.node_is_up(host):
                rig.cluster.compute(host, ops)

    @rule(host=st.sampled_from(HOSTS))
    def crash(self, host):
        for rig in self.rigs:
            if rig.cluster.node_is_up(host):
                rig.cluster.fail_node(host)

    @rule(host=st.sampled_from(HOSTS))
    def recover(self, host):
        for rig in self.rigs:
            if not rig.cluster.node_is_up(host):
                rig.cluster.recover_node(host)

    # The host itself, not through the cluster: whatever reaches a Host
    # keeps ``Cluster.awake`` (links stay up under a bare fail()).
    @rule(host=st.sampled_from(HOSTS), ops=st.sampled_from([0.0, 5.0]))
    def host_run(self, host, ops):
        for rig in self.rigs:
            if rig.cluster.hosts[host].up:
                rig.cluster.hosts[host].run(ops)

    @rule(host=st.sampled_from(HOSTS))
    def host_fail(self, host):
        for rig in self.rigs:
            rig.cluster.hosts[host].fail()

    @rule(host=st.sampled_from(HOSTS))
    def host_recover(self, host):
        for rig in self.rigs:
            rig.cluster.hosts[host].recover()

    @rule()
    def ground_truth(self):
        # Another reader of every load average, down hosts included.
        loads = [
            [n.load_average for n in rig.cluster.snapshot().compute_nodes()]
            for rig in self.rigs
        ]
        assert loads[0] == loads[1]

    @rule(link=st.sampled_from(LINKS),
          mbps=st.sampled_from([0.0, 0.0, 1.0, 10.0, 100.0]))
    def set_capacity(self, link, mbps):
        # Speed 0 is a link flap: ifSpeed reads 0 and flows stall.
        for rig in self.rigs:
            rig.cluster.fabric.degrade_link(*link, mbps * Mbps)

    # -- what happens to the monitoring plane ----------------------------------
    @rule(device=st.sampled_from(DEVICES), which=st.sampled_from("ihb"),
          seconds=st.sampled_from([0.2, 0.7, 1.2, 1.6, 4.0, 12.0]))
    def silence(self, device, which, seconds):
        # 0.7 ends between the first and second retry (0.5, 1.5 into
        # the round), 1.2 and 1.6 around the second: windows that end
        # mid-retry.
        for rig in self.rigs:
            c = rig.collector
            if which in "ib":
                c.iface_agents[device].silence_for(seconds)
            if which in "hb" and device in c.host_agents:
                c.host_agents[device].silence_for(seconds)

    @rule(device=st.sampled_from(DEVICES))
    def reset_counters(self, device):
        for rig in self.rigs:
            rig.collector.iface_agents[device].reset_counters()

    # -- time ------------------------------------------------------------------
    @rule(dt=st.sampled_from([0.1, 0.6, 1.0, 2.5, 5.0, 7.0, 11.0]))
    def advance(self, dt):
        # The background ``_run``: rounds, retries with backoff, cadence.
        for rig in self.rigs:
            rig.sim.run(until=rig.sim.now + dt)

    @rule()
    def poll_once(self):
        assert self.shipped.collector.poll_once() == \
            self.oracle.collector.poll_once()

    @invariant()
    def same_answers(self):
        got, want = self.shipped.observe(), self.oracle.observe()
        for key in want:
            assert got[key] == want[key], key
        # The views themselves, not only their list() copies.
        c = self.shipped.collector
        for cid, samples in want["util"].items():
            view = c.utilization_history(cid)
            assert view == samples and len(view) == len(samples)
            assert not samples or (view[-1], view[0]) == (samples[-1], samples[0])
            assert view[1:] == samples[1:]
        for host, samples in want["load"].items():
            view = c.load_history(host)
            assert view == samples and samples == view
            assert not samples or view[-1] == samples[-1]
            assert view[:-1] == samples[:-1]

    @invariant()
    def a_full_walk_skips_only_what_cannot_differ(self):
        for rig in self.rigs:
            cluster = rig.cluster
            # Outside ``awake`` a host reads "up, load 0.0".
            for name, host in cluster.hosts.items():
                if not host.up or host.active_tasks or host._load_avg != 0.0:
                    assert name in cluster.awake, name
            # ifSpeed's column is the capacity map.
            fabric = cluster.fabric
            column = fabric.capacity_column()
            for cid, capacity in fabric.capacities().items():
                assert column[fabric.channel_index(cid)] == capacity, cid
            # A silent agent is in its family's ``silenced``.
            c = rig.collector
            for agents in (c.iface_agents, c.host_agents):
                for name, agent in agents.items():
                    if agent.silent_until > rig.sim.now:
                        assert name in agent.table.silenced, name


ColumnarMatchesScalar.TestCase.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None,
)
TestColumnarMatchesScalar = ColumnarMatchesScalar.TestCase


def test_scripted_history_walks_the_rare_branches():
    """Wraps, resets, a link at speed 0, a shared channel with one end
    silent, a retry that answers late and a stale/fresh crossing — the
    branches a generated history may miss on a given day."""
    for counter_bits in (None, 8, 32):
        m = ColumnarMatchesScalar()
        m.build(counter_bits=counter_bits, stale_after=2, history=3)
        script = [
            # A retry pass (0.5 s in) that reads no interface must not
            # settle the fabric: a flow's byte sum would split there.
            (m.silence, dict(device="l0", which="h", seconds=0.2)),
            (m.advance, dict(dt=0.1)),
            (m.transfer, dict(src="l1", dst="l0", megabytes=40)),
            (m.advance, dict(dt=0.6)),
            (m.poll_once, {}),
            (m.transfer, dict(src="l0", dst="r2", megabytes=400)),
            (m.transfer, dict(src="r0", dst="l1", megabytes=40)),
            (m.compute, dict(host="l1", ops=60.0)),
            (m.advance, dict(dt=7.0)),
            (m.silence, dict(device="sw-right", which="i", seconds=0.7)),
            (m.advance, dict(dt=5.0)),
            (m.silence, dict(device="r2", which="b", seconds=12.0)),
            (m.advance, dict(dt=11.0)),
            (m.reset_counters, dict(device="sw-left")),
            (m.set_capacity, dict(link=("sw-left", "sw-right"), mbps=0.0)),
            (m.advance, dict(dt=5.0)),
            (m.poll_once, {}),
            (m.set_capacity, dict(link=("sw-left", "sw-right"), mbps=100.0)),
            (m.crash, dict(host="l1")),
            (m.advance, dict(dt=11.0)),
            (m.recover, dict(host="l1")),
            (m.silence, dict(device="l0", which="i", seconds=1.2)),
            (m.advance, dict(dt=7.0)),
            (m.advance, dict(dt=7.0)),
        ]
        for step, kwargs in script:
            step(**kwargs)
            m.same_answers()
        c = m.shipped.collector
        assert c.failed_polls > 0 and c.events_emitted > 0
        assert c.dropped_samples > 0
        if counter_bits == 8:
            assert c.wrap_disambiguations > 0
        m.teardown()


# -- the Remos view over either collector ----------------------------------------

def _remos_rig(make, degraded, predictor):
    """``(sim, cluster, collector, api)``: a 1 Gbps dumbbell, one
    half-duplex link, 32-bit counters (a saturated link wraps one about
    every 34 s) and a Remos view over ``make``'s collector."""
    graph = dumbbell(3, 3, bandwidth=1 * Gbps)
    graph.link("r2", "sw-right").attrs["duplex"] = "half"
    sim = Simulator()
    cluster = Cluster(sim, graph)
    collector = make(
        cluster, period=5.0, history=3, max_retries=2, backoff=0.5,
        stale_after=2, counter_bits=32,
    )
    api = RemosAPI(collector, predictor=predictor(), degraded=degraded)
    return sim, cluster, collector, api


def _measurement(graph):
    m = graph.measurement
    return (m.generation, m.nodes, m.links, m.age_s, dict(m.late))


@pytest.mark.parametrize("degraded", [
    DegradedPolicy.OPTIMISTIC, DegradedPolicy.LAST_GOOD,
    DegradedPolicy.CONSERVATIVE,
])
@pytest.mark.parametrize("predictor", [LastValue, lambda: SlidingMean(3)],
                         ids=["last-value", "sliding-mean"])
def test_remos_answers_alike_over_either_collector(degraded, predictor):
    """``RemosAPI`` over the scalar collector and over the shipped one:
    every ``topology()`` answer equal (loads, availabilities, stale
    marks, sample ages, the patch's ``Measurement``) and every point
    query equal, round after round, through silenced agents, crashes
    and counter wraps."""
    rigs = [_remos_rig(make, degraded, predictor)
            for make in (Collector, scalar_collector)]
    rng = np.random.default_rng(7)
    went_stale = 0
    for step in range(48):
        transfers = [(str(a), str(b)) for a, b in
                     rng.choice(HOSTS, size=(2, 2)) if a != b]
        silenced = str(rng.choice(DEVICES))
        which = str(rng.choice(list("ihb")))
        seconds = float(rng.choice([0.7, 1.6, 7.0, 16.0]))
        for sim, cluster, collector, api in rigs:
            for a, b in transfers:
                if cluster.node_is_up(a) and cluster.node_is_up(b):
                    cluster.transfer(a, b, 8 * GB)
            if step % 3 == 0:
                if which in "ib":
                    collector.iface_agents[silenced].silence_for(seconds)
                if which in "hb" and silenced in collector.host_agents:
                    collector.host_agents[silenced].silence_for(seconds)
            if step % 5 == 0 and cluster.node_is_up(HOSTS[step % 6]):
                cluster.compute(HOSTS[step % 6], 60.0)
            if step == 20:
                cluster.fail_node("l2")
            if step == 30:
                cluster.recover_node("l2")
            sim.run(until=sim.now + 5.0)
        (_, _, shipped, ours), (_, _, scalar, theirs) = rigs
        got, want = ours.topology(), theirs.topology()
        assert_same_snapshot(got, want)
        assert _measurement(got) == _measurement(want), step
        assert ours._marks == theirs._marks, step
        for name in HOSTS:
            assert ours.node_info(name) == theirs.node_info(name), name
        for u, v in LINKS:
            assert ours.link_info(u, v) == theirs.link_info(u, v), (u, v)
        went_stale += bool(shipped.stale_resources())
    assert shipped.wrap_disambiguations == scalar.wrap_disambiguations > 0
    assert shipped.failed_polls == scalar.failed_polls > 0
    assert went_stale


# -- the cost gate: calls per round, counted ------------------------------------

def count_calls(fn) -> int:
    """Python-level function calls made while ``fn()`` runs."""
    calls = 0

    def profiler(_frame, event, _arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def polled_tree(hosts: int, fanout: int, saturated: bool = False):
    """A ``random_tree`` of ``hosts`` compute nodes with standing
    transfers and load on 8 hosts (on every host if ``saturated``),
    polled twice so that every series has a sample to compare the next
    one with."""
    graph = random_tree(
        hosts, hosts // fanout, np.random.default_rng(hosts + fanout)
    )
    sim = Simulator()
    cluster = Cluster(sim, graph)
    collector = Collector(cluster, period=5.0, start=False)
    names = sorted(cluster.hosts)
    for i in range(8):
        cluster.transfer(names[i], names[-1 - i], 1e9 * MB)
    for name in names if saturated else names[:16:2]:
        cluster.compute(name, 1e12)
    for _ in range(2):
        sim.run(until=sim.now + 5.0)
        collector.poll_once()
    sim.run(until=sim.now + 5.0)
    return sim, cluster, collector


class TestRoundCost:
    #: Calls a round makes whatever the size of the network.
    CONSTANT = 250
    #: Calls per loaded host, silenced agent or retried host, at most.
    PER = 3

    def test_calls_bounded_by_hosts_not_channels(self):
        # A quiet round (the same 8 loaded hosts) costs the same at 256
        # and 1 024 hosts, under ~1.25x and ~1.5x as many devices and
        # channels: it asks what can differ, not every agent.
        calls = [
            count_calls(polled_tree(hosts, fanout)[2].poll_once)
            for hosts in (256, 1024)
            for fanout in (4, 2)
        ]
        assert max(calls) - min(calls) <= self.CONSTANT, calls

    def test_silencing_k_agents_adds_calls_in_k(self):
        for k in (4, 64, 256):
            sim, cluster, collector = polled_tree(1024, 4)
            clean = count_calls(collector.poll_once)
            for name in sorted(cluster.hosts)[-k:]:
                collector.iface_agents[name].silence_for(1e9)
                collector.host_agents[name].silence_for(1e9)
            sim.run(until=sim.now + 5.0)
            silenced = count_calls(collector.poll_once)
            assert silenced - clean <= self.PER * k + self.CONSTANT, (
                k, clean, silenced
            )

    def test_saturated_round_keeps_the_old_bound(self):
        # Every host loaded: every load average is read, as before.
        for hosts in (256, 1024):
            calls = count_calls(
                polled_tree(hosts, 4, saturated=True)[2].poll_once
            )
            assert calls <= 3 * hosts + self.CONSTANT, (hosts, calls)

    def test_retry_pass_costs_its_subset(self):
        sim, cluster, collector = polled_tree(1024, 4)
        for k in (3, 30):
            failed = sorted(cluster.hosts)[:k]
            retry = count_calls(lambda: collector._poll_subset(failed, failed))
            assert retry <= self.PER * k + self.CONSTANT, (k, retry)
