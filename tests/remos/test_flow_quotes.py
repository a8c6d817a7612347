"""Remos flow quotes agree with the fabric that would carry the flows.

``RemosAPI.flows_query`` quotes a set of flows their max-min fair shares
of the channels their routes cross (paper §2.2); the fabric allocates
rates to real transfers the same way.  Both name a hop's channel with
``Link.channel``, so on an idle cluster the quotes must equal the
allocation over the fabric's own ``channel_for`` hops and capacities,
half-duplex links included (one channel both directions share).  The
pattern-aware selector's ``effective_pattern_bandwidth`` runs the same
routing and sharing, so it must equal the slowest quote of the
pattern's flows on the same snapshot.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pattern_aware import effective_pattern_bandwidth, pattern_flows
from repro.core.spec import CommPattern
from repro.des import Simulator
from repro.network import Cluster, max_min_fair
from repro.remos import Collector, RemosAPI
from repro.topology import random_tree

from ..core.cyclic_graphs import random_cyclic

PATTERNS = [
    CommPattern.ALL_TO_ALL, CommPattern.MASTER_SLAVE,
    CommPattern.RING, CommPattern.PIPELINE,
]


def build(cyclic: bool, seed: int, half: list):
    """A random tree or cyclic graph whose links are half duplex where
    ``half`` (cycled over the links) says so."""
    if cyclic:
        graph = random_cyclic(seed, hosts=8, switches=5, chords=3)
    else:
        graph = random_tree(8, 5, np.random.default_rng(seed))
    for link, shared in zip(graph.links(), itertools.cycle(half)):
        if shared:
            link.attrs["duplex"] = "half"
    return graph


def fabric_rates(fabric, pairs) -> list:
    """The fabric's allocation to ``pairs`` fired at once."""
    graph = fabric.graph
    routes = {}
    for i, (src, dst) in enumerate(pairs):
        path = graph.path(src, dst)
        routes[i] = [fabric.channel_for(a, b) for a, b in zip(path, path[1:])]
    rates = max_min_fair(routes, fabric.capacities())
    return [rates[i] for i in range(len(pairs))]


@settings(max_examples=40, deadline=None)
@given(
    cyclic=st.booleans(),
    seed=st.integers(0, 2**16),
    half=st.lists(st.booleans(), min_size=1, max_size=7),
    data=st.data(),
)
def test_flow_quotes_equal_the_fabric_allocation(cyclic, seed, half, data):
    sim = Simulator()
    cluster = Cluster(sim, build(cyclic, seed, half))
    collector = Collector(cluster, start=False)
    collector.poll_once()
    api = RemosAPI(collector)
    hosts = sorted(cluster.hosts)
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(hosts), st.sampled_from(hosts)).filter(
            lambda p: p[0] != p[1]),
        min_size=1, max_size=10,
    ))
    assert api.flows_query(pairs) == fabric_rates(cluster.fabric, pairs)

    nodes = data.draw(st.lists(
        st.sampled_from(hosts), min_size=2, max_size=5, unique=True))
    pattern = data.draw(st.sampled_from(PATTERNS))
    snapshot = api.topology()
    assert effective_pattern_bandwidth(snapshot, nodes, pattern) == min(
        api.flows_query(pattern_flows(nodes, pattern))
    )
