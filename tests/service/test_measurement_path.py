"""The measurement path pays for what changed — and answers the same.

``RemosAPI.topology()`` patches its previous answer and
``SelectionService`` re-bases its residual overlay over the patch.  Both
have a from-scratch counterpart that is kept as the oracle:
``oracles.full_sweep_topology`` (the sweep as it was) and
``ResidualView.assert_matches_rebuild``.  One generated history —
partial poll rounds, staleness crossings, crashes, invalidations,
counter wraps, requests and releases between sweeps — is run on two
independent, deterministic rigs: the shipped chain, and a service fed
by the full sweep that rebuilds its view on every attempt.  Snapshots,
overlays and grants must agree after every step.
"""

import copy
import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApplicationSpec
from repro.des.simulator import Simulator
from repro.faults import FaultInjector
from repro.network.cluster import Cluster
from repro.remos import (
    Collector,
    DegradedPolicy,
    Ewma,
    LastValue,
    RemosAPI,
    SlidingMean,
)
from repro.service import BatchRequest, SelectionService
from repro.topology import TopologyGraph, dumbbell
from repro.units import MB, Mbps

from ..oracles import (
    assert_same_snapshot,
    full_sweep_topology,
    naive_rebuild_service,
)

PREDICTORS = {
    "last": LastValue,
    "mean": lambda: SlidingMean(12.0),
    "ewma": lambda: Ewma(0.3),
}

HOSTS = ["l0", "l1", "l2", "r0", "r1", "r2"]
DEVICES = HOSTS + ["sw-left", "sw-right"]


class FullSweep:
    """A provider answering with the pre-patch sweep (no provenance)."""

    def __init__(self, api: RemosAPI) -> None:
        self.api = api
        self.collector = api.collector  # the service's clock follows it

    def topology(self) -> TopologyGraph:
        return full_sweep_topology(self.api)


class Rig:
    """One simulated cluster, polled, with a service on top."""

    def __init__(self, policy, predictor, counter_bits, *, oracle) -> None:
        graph = dumbbell(3, 3, bandwidth=100 * Mbps)
        graph.link("r2", "sw-right").attrs["duplex"] = "half"
        self.sim = Simulator()
        self.cluster = Cluster(self.sim, graph)
        self.collector = Collector(
            self.cluster, period=5.0, stale_after=2, counter_bits=counter_bits,
        )
        self.api = RemosAPI(
            self.collector, predictor=PREDICTORS[predictor](), degraded=policy,
        )
        #: Swept at every step, whatever the service's cache is doing
        #: (its own patch state and its own cursor into the change log).
        self.probe = RemosAPI(
            self.collector, predictor=PREDICTORS[predictor](), degraded=policy,
        )
        if oracle:
            self.service = naive_rebuild_service(
                FullSweep(self.api), snapshot_ttl=2.0, lease_s=40.0,
                queue_limit=2,
            )
        else:
            self.service = SelectionService(
                self.api, snapshot_ttl=2.0, lease_s=40.0, queue_limit=2,
            )
        self.injector = FaultInjector(self.cluster, self.collector)
        self.service.attach_injector(self.injector)
        self.apps = 0

    def apply(self, step):
        """Run one step; returns what a caller could observe of it."""
        kind, *args = step
        svc = self.service
        if kind == "advance":
            self.sim.run(until=self.sim.now + args[0])
        elif kind == "silence":
            device, seconds = args
            self.injector.silence_agents(device, seconds)
        elif kind == "crash":
            if self.cluster.node_is_up(args[0]):
                self.injector.crash_node(args[0])
        elif kind == "recover":
            if not self.cluster.node_is_up(args[0]):
                self.injector.recover_node(args[0])
        elif kind == "invalidate":
            svc.cache.invalidate()
        elif kind == "load":
            if self.cluster.node_is_up(args[0]):
                self.cluster.compute(args[0], args[1])
        elif kind == "traffic":
            src, dst, megabytes = args
            if src != dst and all(map(self.cluster.node_is_up, (src, dst))):
                self.cluster.transfer(src, dst, megabytes * MB)
        elif kind == "request":
            m, cpu, bw = args
            self.apps += 1
            grant = svc.request(
                f"app-{self.apps}", ApplicationSpec(num_nodes=m),
                cpu_fraction=cpu, bw_bps=bw * Mbps,
            )
            return grant.status, grant.admitted and grant.selection.nodes
        elif kind in ("release", "renew"):
            live = svc.active_apps()
            if live:
                getattr(svc, kind)(live[args[0] % len(live)])
        elif kind == "tick":
            return svc.tick()
        return None


def check_chain(rig: Rig) -> None:
    """Snapshot == full sweep, overlay == rebuild."""
    svc = rig.service
    assert_same_snapshot(rig.probe.topology(), full_sweep_topology(rig.probe))
    base = svc.cache.topology()
    if svc.cache.age == 0.0:  # swept just now: the oracle's instant
        assert_same_snapshot(base, full_sweep_topology(rig.api))
    svc._residual(base)
    assert svc.view.base is base
    svc.check_invariants()  # ledger caps + view.assert_matches_rebuild()


steps = st.one_of(
    st.tuples(st.just("advance"), st.sampled_from([0.3, 0.6, 2.5, 5.0, 7.0])),
    st.tuples(st.just("silence"), st.sampled_from(DEVICES),
              st.sampled_from([0.7, 4.0, 12.0, 30.0])),
    st.tuples(st.just("crash"), st.sampled_from(HOSTS)),
    st.tuples(st.just("recover"), st.sampled_from(HOSTS)),
    st.tuples(st.just("invalidate")),
    st.tuples(st.just("load"), st.sampled_from(HOSTS),
              st.sampled_from([5.0, 60.0])),
    st.tuples(st.just("traffic"), st.sampled_from(HOSTS),
              st.sampled_from(HOSTS), st.sampled_from([40, 400])),
    st.tuples(st.just("request"), st.integers(1, 4),
              st.sampled_from([0.0, 0.2, 0.5]), st.sampled_from([0, 5, 40])),
    st.tuples(st.just("release"), st.integers(0, 5)),
    st.tuples(st.just("renew"), st.integers(0, 5)),
    st.tuples(st.just("tick")),
)


@settings(max_examples=60, deadline=None)
@given(
    policy=st.sampled_from(DegradedPolicy.ALL),
    predictor=st.sampled_from(sorted(PREDICTORS)),
    counter_bits=st.sampled_from([None, 27, 32]),
    history=st.lists(steps, min_size=1, max_size=40),
)
def test_patched_chain_matches_full_sweep_and_rebuild(
    policy, predictor, counter_bits, history
):
    shipped = Rig(policy, predictor, counter_bits, oracle=False)
    oracle = Rig(policy, predictor, counter_bits, oracle=True)
    check_chain(shipped)
    for step in history:
        assert shipped.apply(step) == oracle.apply(step), step
        check_chain(shipped)
        # Same instants queried on both sides, so that the two caches
        # sweep in step.
        oracle.service.cache.topology()
    assert shipped.service.active_apps() == oracle.service.active_apps()
    assert shipped.collector.wrap_disambiguations == \
        oracle.collector.wrap_disambiguations


#: A history that walks every branch the generated ones may miss on a
#: given day: a retry landing mid-round, a node going stale and coming
#: back, a crash, an invalidation, with leases held throughout.
SCRIPTED = [
    ("traffic", "l0", "r0", 400), ("load", "l1", 60.0),
    ("request", 2, 0.2, 5), ("advance", 5.0), ("request", 3, 0.2, 5),
    ("silence", "l2", 0.7), ("advance", 5.0), ("advance", 0.6),
    ("request", 2, 0.1, 0), ("silence", "r1", 12.0), ("advance", 7.0),
    ("advance", 7.0), ("request", 2, 0.1, 5), ("advance", 7.0),
    ("crash", "l1"), ("advance", 5.0), ("request", 2, 0.1, 5),
    ("recover", "l1"), ("invalidate",), ("advance", 7.0),
    ("release", 0), ("renew", 0), ("advance", 5.0), ("tick",),
    ("request", 4, 0.2, 40),
]


@pytest.mark.parametrize("policy", DegradedPolicy.ALL)
@pytest.mark.parametrize("predictor", sorted(PREDICTORS))
def test_scripted_history_rebases_instead_of_rebuilding(policy, predictor):
    shipped = Rig(policy, predictor, 27, oracle=False)
    oracle = Rig(policy, predictor, 27, oracle=True)
    for step in SCRIPTED:
        assert shipped.apply(step) == oracle.apply(step), step
        check_chain(shipped)
        oracle.service.cache.topology()
    svc = shipped.service
    assert shipped.collector.wrap_disambiguations > 0
    assert svc.cache.misses == 14
    # The first snapshot and the five injector / invalidate() steps
    # rebuilt; every other sweep was a measurement-only epoch move and
    # re-based the view that was there.
    assert svc.metrics.view_rebuilds == 6


def test_last_value_patch_shares_what_did_not_move():
    rig = Rig(DegradedPolicy.LAST_GOOD, "last", None, oracle=False)
    rig.apply(("load", "l1", 60.0))
    rig.apply(("advance", 6.0))
    first = rig.api.topology()
    rig.apply(("advance", 5.0))
    second = rig.api.topology()
    moved = second.measurement.delta_from(first.measurement)
    assert moved == (frozenset({"l1"}), frozenset())
    assert second is not first
    assert second.node("l1") is not first.node("l1")
    assert second.node("l0") is first.node("l0")
    for link in first.links():
        assert second.link(link.u, link.v) is link
    # A third generation cannot be reached from the first by one delta.
    rig.apply(("advance", 5.0))
    assert rig.api.topology().measurement.delta_from(first.measurement) is None


def test_held_snapshot_is_never_mutated_and_generations_do_not_chain():
    rig = Rig(DegradedPolicy.CONSERVATIVE, "last", None, oracle=False)
    rig.apply(("traffic", "l0", "r0", 400))
    rig.apply(("load", "l2", 60.0))
    rig.apply(("request", 2, 0.2, 5))
    held = rig.service.cache.topology()
    frozen = copy.deepcopy(held)
    generations = [weakref.ref(held)]
    rig.apply(("silence", "l2", 12.0))
    for _ in range(3):
        rig.apply(("advance", 5.0))
        rig.apply(("request", 2, 0.1, 5))
        generations.append(weakref.ref(rig.service.cache.topology()))
        check_chain(rig)
    assert_same_snapshot(held, frozen)
    # Nothing in a generation refers back to an older one: once the
    # caller lets go, only the snapshot the service stands on is left.
    del held
    gc.collect()
    alive = [ref() for ref in generations if ref() is not None]
    assert len(alive) == 1 and alive[0] is rig.service.view.base


def test_admit_batch_spanning_a_sweep_rebuilds_its_planner():
    """A serial fallback in mid-batch lets a poll round through, and with
    it a node that had gone stale comes back: capacity the planner's
    heap, ranked before the sweep, has no entry for.  The planner must
    notice that the same view now stands on another base."""

    def run(oracle):
        rig = Rig(DegradedPolicy.LAST_GOOD, "last", None, oracle=oracle)
        rig.apply(("advance", 1.0))
        rig.apply(("silence", "l0", 12.0))  # misses the rounds at 5 and 10
        rig.apply(("advance", 10.5))
        fired = []

        def picky(node):
            if not fired:  # once, during the first non-plain selection
                fired.append(True)
                rig.sim.run(until=rig.sim.now + 6.0)  # the round at 15
            return True

        claims = {"cpu_fraction": 0.3, "bw_bps": 1 * Mbps}
        plain = ApplicationSpec(num_nodes=2)
        grants = rig.service.admit_batch([
            BatchRequest("b0", plain, **claims),
            BatchRequest("b1", plain, **claims),
            BatchRequest("b2", ApplicationSpec(num_nodes=2, eligible=picky),
                         **claims),
            BatchRequest("b3", ApplicationSpec(num_nodes=1, eligible=picky),
                         **claims),
            BatchRequest("b4", ApplicationSpec(num_nodes=1), **claims),
        ])
        rig.service.check_invariants()
        return rig, [(g.status, g.admitted and g.selection.nodes)
                     for g in grants]

    shipped, got = run(oracle=False)
    _oracle, want = run(oracle=True)
    assert got == want
    # l0 was unmonitorable when the batch began and is the one unclaimed
    # node when b4 is planned.
    assert all("l0" not in nodes for _status, nodes in got[:3])
    assert got[4][1] == ["l0"]
    svc = shipped.service
    assert svc.cache.misses == 2 and svc.metrics.view_rebuilds == 1
    assert svc.view.base is svc.cache.topology()
    assert svc.metrics.batch_planned == 2  # b1, then b4 on a new planner
