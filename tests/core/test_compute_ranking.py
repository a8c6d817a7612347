"""The kept compute ranking equals a from-scratch sort, read after read.

:class:`repro.core.kernel.ComputeRanking` keeps the compute nodes best
first: a main list as of its last fold, plus a small sorted side run of
the nodes whose key moved since, merged on each read.  Whatever was
marked and written in between, every read must walk exactly
``sorted((-node_compute_fraction(n, refs), n.name))`` — the order the
floor kernel and the batch planner stop inside, ties by name.  The
state machine below writes quantised loads (long plateaus of exact
ties), marks names (twice over, back onto their old key, network nodes
that are no compute node), stops reads after ``k`` candidates, switches
``refs.node_capacity`` and forces side-run folds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.core import kernel
from repro.core.kernel import ComputeRanking
from repro.core.metrics import (
    DEFAULT_REFERENCES,
    References,
    node_compute_fraction,
)
from repro.topology import random_tree
from repro.units import Mbps

#: Loads on a coarse grid: equal keys everywhere.
LOADS = [0.0, 0.0, 0.25, 0.5, 1.0, 3.0]
REFS = [DEFAULT_REFERENCES, References(node_capacity=2.0)]


def oracle(graph, refs) -> list[tuple[float, str]]:
    return sorted(
        (-node_compute_fraction(node, refs), node.name)
        for node in graph.nodes() if node.is_compute
    )


class RankingHistory(RuleBasedStateMachine):
    @initialize(seed=st.integers(0, 2**16), hosts=st.integers(4, 24))
    def build(self, seed, hosts):
        rng = np.random.default_rng(seed)
        self.graph = random_tree(hosts, max(1, hosts // 4), rng,
                                 bandwidth=100 * Mbps)
        for node in self.graph.compute_nodes():
            node.load_average = LOADS[int(rng.integers(len(LOADS)))]
            node.compute_capacity = float(rng.choice([1.0, 1.0, 2.0]))
        self.hosts = sorted(n.name for n in self.graph.compute_nodes())
        self.others = sorted(
            n.name for n in self.graph.nodes() if not n.is_compute
        )
        self.ranking = ComputeRanking(self.graph)
        self.refs = DEFAULT_REFERENCES
        #: Written and not yet marked: marked before any read, as the
        #: contract asks of whoever moves the loads.
        self.unmarked: set[str] = set()

    def _write(self, name: str, load: float) -> None:
        self.graph.node(name).load_average = load
        self.unmarked.add(name)

    @rule(data=st.data(), load=st.sampled_from(LOADS))
    def write_load(self, data, load):
        self._write(data.draw(st.sampled_from(self.hosts)), load)

    @rule(data=st.data(), load=st.sampled_from(LOADS[2:]), read=st.booleans())
    def move_and_back(self, data, load, read):
        """A node leaves its key and comes back to it exactly (a lease
        granted and released), read in between or not."""
        name = data.draw(st.sampled_from(self.hosts))
        node = self.graph.node(name)
        old = node.load_average
        self._write(name, old + load)
        if read:
            self.read(None)
        self._write(name, old)

    @rule(data=st.data())
    def mark(self, data):
        extra = data.draw(st.lists(
            st.sampled_from(self.hosts + self.others), max_size=4,
        ))
        names = sorted(self.unmarked) + extra + extra[:1]  # one twice
        self.ranking.mark(names)
        self.ranking.mark(extra[:1])  # and again, in another call
        self.unmarked.clear()

    @rule(k=st.one_of(st.none(), st.integers(0, 6)))
    def read(self, k):
        self.ranking.mark(self.unmarked)
        self.unmarked.clear()
        keys = self.ranking.keys(self.refs)
        if k is None:
            got = list(keys)
        else:
            got = [key for key, _ in zip(keys, range(k))]
        want = oracle(self.graph, self.refs)
        assert got == (want if k is None else want[:k])
        assert len(self.ranking._side) <= \
            kernel._SIDE_RUN_SHARE * len(self.ranking._keys)

    @rule(refs=st.sampled_from(REFS))
    def switch_refs(self, refs):
        self.refs = refs

    @rule(data=st.data(), load=st.sampled_from(LOADS[3:]))
    def move_many(self, data, load):
        """Enough nodes move at once for the side run to fold."""
        for name in data.draw(st.lists(
            st.sampled_from(self.hosts), min_size=len(self.hosts) // 2,
            unique=True,
        )):
            self._write(name, self.graph.node(name).load_average + load)


TestRankingHistory = RankingHistory.TestCase
TestRankingHistory.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None,
)


def test_mark_is_a_set_update():
    """Marking costs a set update and nothing else: the work waits for
    the next read (an eager patch cost a memo-hit cycle 20 %)."""
    ranking = ComputeRanking(random_tree(8, 2, np.random.default_rng(0)))
    assert ranking.mark == ranking._dirty.update
    ranking.mark(["h0", "nobody"])
    assert ranking._dirty == {"h0", "nobody"} and ranking._keys is None


def test_a_full_side_run_folds_into_the_main_list():
    graph = random_tree(40, 8, np.random.default_rng(1))
    ranking = ComputeRanking(graph)
    assert list(ranking.keys(DEFAULT_REFERENCES)) == \
        oracle(graph, DEFAULT_REFERENCES)
    hosts = sorted(n.name for n in graph.compute_nodes())
    limit = kernel._SIDE_RUN_SHARE * len(hosts)
    moved = 0
    for name in hosts:
        graph.node(name).load_average += 0.5
        ranking.mark([name])
        keys = list(ranking.keys(DEFAULT_REFERENCES))
        assert keys == oracle(graph, DEFAULT_REFERENCES)
        moved += 1
        # The run holds every move since the last fold, up to the limit.
        assert len(ranking._side) == (moved if moved <= limit else 0)
        if moved > limit:
            moved = 0
