"""The Remos sweep reads its hosts as columns — and answers the same.

``RemosAPI._sweep`` and ``node_info`` go through one reader over
``Collector.host_columns`` (fill count, newest value, missed polls).
What that reader must reproduce is kept as the oracle:
``oracles.node_info_from_history``, the per-host history view + status +
predictor call it replaced.  One scripted history puts a host in each
state the degraded policies tell apart — never sampled, fresh, late,
stale, recovered — and after every round, under every policy and
predictor, compares ``node_info`` with the oracle (``==`` on the
dataclass) and every compute node of ``topology()`` with what
``node_info`` implies, on a first sweep and on a patched one.

The second half is the cost gate, counted (``sys.setprofile``): a sweep
builds no ``_History``, ``ResourceStatus`` or ``NodeInfo``, links
included, but a status per late host (its sample age).
"""

import sys

import numpy as np
import pytest

from repro.des import Simulator
from repro.network import Cluster
from repro.remos import (
    Collector,
    DegradedPolicy,
    Ewma,
    LastValue,
    RemosAPI,
    SlidingMean,
)
from repro.remos.api import _UNMONITORABLE_LOAD, NodeInfo
from repro.remos.collector import ResourceStatus, _History
from repro.topology import dumbbell, random_tree
from repro.units import MB

from ..oracles import (
    assert_same_snapshot,
    full_sweep_topology,
    node_info_from_history,
)

PREDICTORS = {
    "last": LastValue,
    "mean": lambda: SlidingMean(5.0),
    "ewma": lambda: Ewma(0.3),
}
STALE_AFTER = 3
ROUNDS = 10

#: host -> the rounds (1-based) its agent does not answer.
SILENT = {
    "never": range(1, ROUNDS + 1),      # r2: not one sample, stale from 3
    "stale": range(6, ROUNDS + 1),      # l2: hot, then gone for good
    "recovered": range(2, 6),           # r0: stale at 4, back at 6
    "late": (ROUNDS,),                  # l1: one miss, not stale
}
HOST = {"never": "r2", "stale": "l2", "recovered": "r0", "late": "l1",
        "fresh": "l0", "idle": "r1"}


class History:
    """A polled ``dumbbell(3, 3)`` whose hosts live through ``SILENT``."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.cluster = Cluster(
            self.sim, dumbbell(3, 3, latency=0.0), load_tau=5.0
        )
        self.collector = Collector(
            self.cluster, period=2.0, start=False, stale_after=STALE_AFTER
        )
        self.round = 0
        for state in ("fresh", "stale", "recovered", "late"):
            self.cluster.compute(HOST[state], 1e12)  # loads that move

    def poll(self) -> None:
        self.round += 1
        self.sim.run(until=self.sim.now + 2.0)
        for state, rounds in SILENT.items():
            if self.round in rounds:
                self.collector.host_agents[HOST[state]].silence_for(0.5)
        self.collector.poll_once()
        self.sim.run(until=self.sim.now + 0.75)


def apis(collector):
    return {
        (policy, name): RemosAPI(collector, predictor=make(), degraded=policy)
        for policy in DegradedPolicy.ALL
        for name, make in PREDICTORS.items()
    }


def assert_nodes_as_node_info_implies(api, topo) -> None:
    for name in api.cluster.hosts:
        info = api.node_info(name)
        assert info == node_info_from_history(api, name), name
        assert api.node_load(name) == info.load_average
        node = topo.node(name)
        assert node.load_average == (
            info.load_average if info.load_average != float("inf")
            else _UNMONITORABLE_LOAD
        ), name
        assert node.attrs == ({"unmonitorable": True} if info.stale else {})


def test_every_state_policy_and_predictor_first_sweep_and_patched():
    h = History()
    c = h.collector
    kept = apis(c)  # swept every round: a first answer, then patches
    seen, patched = set(), {}
    for _ in range(ROUNDS + 1):
        for key, fresh in apis(c).items():  # a first sweep, every round
            for api in (fresh, kept[key]):
                topo = api.topology()
                assert_nodes_as_node_info_implies(api, topo)
                assert_same_snapshot(topo, full_sweep_topology(api))
            if key[1] == "last" and h.round:
                patched[h.round] = topo.measurement.nodes
        late = c.late_resources()
        for state, name in HOST.items():
            status = c.host_status(name)
            (count,), (newest,), (missed,) = c.host_columns([name])
            history = c.load_history(name)
            assert min(count, c.history) == len(history)
            assert missed == status.missed_polls
            assert not count or newest == history[-1][1]
            seen.add((
                state,
                "unsampled" if not count else "sampled",
                "stale" if status.stale
                else "late" if name in late else "on-round",
            ))
        if h.round < ROUNDS:
            h.poll()
    assert seen >= {
        ("never", "unsampled", "on-round"), ("never", "unsampled", "stale"),
        ("fresh", "sampled", "on-round"), ("late", "sampled", "late"),
        ("stale", "sampled", "stale"),
        ("recovered", "sampled", "stale"), ("recovered", "sampled", "on-round"),
    }
    # The last-value handles did answer with patches: the idle host
    # only in the first, the never-sampled one only as it went stale.
    assert [r for r, nodes in patched.items() if HOST["idle"] in nodes] == [1]
    assert [r for r, nodes in patched.items() if HOST["never"] in nodes] == \
        [STALE_AFTER]


def test_conservative_answers_for_each_state():
    """The table the reader implements, spelled out once."""
    h = History()
    for _ in range(ROUNDS):
        h.poll()
    api = RemosAPI(h.collector, degraded=DegradedPolicy.CONSERVATIVE)
    info = {state: api.node_info(name) for state, name in HOST.items()}
    # Never sampled and stale is assumed the worst, as a stale sampled
    # host is (and as apply_degraded_policy reads the marked snapshot).
    assert (info["never"].load_average, info["never"].stale) == \
        (float("inf"), True)
    assert info["never"].age_s == float("inf")
    assert (info["stale"].load_average, info["stale"].stale) == \
        (float("inf"), True)
    assert 0.5 < info["recovered"].load_average < 10 and \
        not info["recovered"].stale
    assert 0.5 < info["late"].load_average < 10 and not info["late"].stale
    assert info["late"].age_s > info["fresh"].age_s
    assert info["idle"] == NodeInfo("r1", 0.0, info["fresh"].age_s, False)
    relaxed = RemosAPI(h.collector, degraded=DegradedPolicy.OPTIMISTIC)
    assert 0.5 < relaxed.node_info("l2").load_average < 10
    assert not relaxed.node_info("l2").stale


def test_unknown_host_is_a_key_error_naming_it():
    h = History()
    api = RemosAPI(h.collector)
    with pytest.raises(KeyError, match="no monitored host 'ghost'"):
        api.node_info("ghost")
    with pytest.raises(KeyError, match="ghost"):
        api.node_load("ghost")
    with pytest.raises(KeyError, match="no monitored host 'sw-left'"):
        h.collector.host_columns(["l0", "sw-left"])
    assert h.collector.host_columns([]) == ([], [], [])


# -- the cost gate: what a patched sweep constructs, counted -------------------

def constructions(fn) -> dict[str, int]:
    """How many ``_History``, ``ResourceStatus`` and ``NodeInfo`` objects
    ``fn()`` constructs (their ``__init__`` frames, so no wall clock)."""
    watched = {
        cls.__init__.__code__: cls.__name__
        for cls in (_History, ResourceStatus, NodeInfo)
    }
    built = dict.fromkeys(watched.values(), 0)

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code in watched:
            built[watched[frame.f_code]] += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return built


@pytest.mark.parametrize("policy", DegradedPolicy.ALL)
def test_a_patched_sweep_constructs_no_per_host_object(policy):
    graph = random_tree(256, 64, np.random.default_rng(7))
    sim = Simulator()
    cluster = Cluster(sim, graph)
    collector = Collector(cluster, period=5.0, start=False, stale_after=2)
    api = RemosAPI(collector, degraded=policy)
    names = sorted(cluster.hosts)
    for name in names[:40]:
        cluster.compute(name, 1e15)  # 40 loads that move every round

    def sweep_after_a_round():
        sim.run(until=sim.now + 5.0)
        collector.poll_once()
        out = {}
        built = constructions(lambda: out.update(topo=api.topology()))
        return built, out["topo"]

    none = {"_History": 0, "ResourceStatus": 0, "NodeInfo": 0}
    assert constructions(lambda: api.node_info(names[0])) == \
        {"_History": 0, "ResourceStatus": 1, "NodeInfo": 1}  # it sees them
    first, _ = sweep_after_a_round()
    assert first == none  # a full sweep reads hosts and links as columns
    sweep_after_a_round()  # every channel's first utilization: all links
    for _ in range(3):
        built, topo = sweep_after_a_round()
        assert len(topo.measurement.nodes) == 40
        assert not topo.measurement.links and not collector.late_resources()
        assert built == none

    # Late resources are asked their age: a status per late host, still
    # nothing per moved host or link.
    for name in names[40:44]:
        collector.host_agents[name].silence_for(1e9)
    cluster.transfer(names[0], names[-1], 1e9 * MB)
    for _ in range(3):
        built, topo = sweep_after_a_round()
        assert len(topo.measurement.nodes) >= 40
        assert built == dict(none, ResourceStatus=4), built
    assert sum(
        bool(node.attrs.get("unmonitorable")) for node in topo.nodes()
    ) == (4 if policy != DegradedPolicy.OPTIMISTIC else 0)
