"""Bandwidth-floor selection on a moving ledger: kept ranking == nothing kept.

The floor kernel walks the residual overlay's kept
:class:`~repro.core.kernel.ComputeRanking` best first and finds each
candidate's floor-component by climbing the forest index (union-find on
a graph with a cycle).  Three arms must agree after every step of a
generated history — grants, releases, renewals, deadline clamps,
expiries, health marks, measured re-bases, eligibility predicates, a
switch of the reference node capacity — on a tree, a cyclic grid and random
cyclic graphs (`tests/core/cyclic_graphs.py::random_cyclic`):

1. the kernel on the live overlay (kept ranking, lazily re-keyed);
2. the same kernel on a fresh ``residual_graph()`` rebuild (no ranking:
   built on the spot);
3. ``reference_select_with_bandwidth_floor`` on that rebuild.

Floors are drawn both far from every link and exactly at (one ulp around)
a claimed link's residual availability, and re-asked after the claim
state moved, so links cross the floor in both directions between
selections.  A second test bounds the work with exact counts.

The last section is about ties — an idle cluster ranks as one long
plateau: the kernel against the reference on loads drawn from three
values, the three cases its stop rule turns on built by hand, and the
work bound again with every load 0.0.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import References
from repro.core import kernel
from repro.core.kernel import select_with_bandwidth_floor
from repro.core.reference import reference_select_with_bandwidth_floor
from repro.core.types import node_is_selectable
from repro.service import LedgerError, ReservationLedger, ResidualView
from repro.topology import TopologyGraph, grid, random_tree
from repro.topology.residual import residual_graph
from repro.units import Mbps

from ..core.cyclic_graphs import random_cyclic
from ..core.test_kernel_differential import _outcome as outcome
from ..oracles import PinnedNodes

REFS = [References(), References(node_capacity=1.0),
        References(node_capacity=2.5)]


def small_tree():
    """Nine hosts under three switches; loads on a three-value grid so
    equal CPU fractions across components are the common case."""
    rng = np.random.default_rng(5)
    g = random_tree(9, 3, rng, bandwidth=100 * Mbps)
    _contend(g, rng)
    return g


def cyclic_grid():
    rng = np.random.default_rng(6)
    g = grid(3, 3, bandwidth=100 * Mbps)
    _contend(g, rng)
    return g


def _contend(g, rng):
    for link in g.links():
        link.available_fwd = float(rng.integers(1, 5)) * 20 * Mbps
        link.available_rev = float(rng.integers(1, 5)) * 20 * Mbps
    for node in g.compute_nodes():
        node.load_average = float(rng.integers(0, 3)) * 0.5
        node.compute_capacity = float(rng.integers(1, 3))


class Rig:
    """A snapshot, a ledger and its subscribed overlay, driven by hand."""

    def __init__(self, base) -> None:
        self.ledger = ReservationLedger()
        self.view = ResidualView(base, self.ledger)
        self.ledger.subscribe(lambda *event: self.view.on_ledger_event(*event))
        self.hosts = sorted(n.name for n in base.compute_nodes())
        self.now = 0.0
        self.apps = 0
        self.floor = 1 * Mbps  # the last "at a link" floor, re-askable

    # -- the three arms --------------------------------------------------------
    def rebuilt(self):
        view = self.view
        g = residual_graph(
            view.base, self.ledger.node_claims(), self.ledger.edge_claims()
        )
        for name in view.down:
            g.node(name).attrs["down"] = True
        assert g.compute_ranking is None
        return g

    def select(self, query):
        m, floor, who, refs = query
        floor = self.resolve_floor(floor)
        kwargs = dict(floor_bps=floor, refs=REFS[refs],
                      eligible=self.eligible(who))
        rebuilt = self.rebuilt()
        live = outcome(select_with_bandwidth_floor,
                       self.view.graph, m, **kwargs)
        cold = outcome(select_with_bandwidth_floor,
                       rebuilt, m, **kwargs)
        naive = outcome(reference_select_with_bandwidth_floor,
                        rebuilt, m, **kwargs)
        assert live == cold == naive, (query, floor)
        self.view.assert_matches_rebuild()
        return live

    def resolve_floor(self, floor) -> float:
        kind, arg = floor
        if kind == "far":
            return arg * Mbps
        if kind == "again":
            return self.floor
        # Exactly at (``ulps`` off) a claimed link's residual availability.
        which, ulps = arg
        keys = sorted(map(sorted, self.ledger.claimed_link_keys()))
        links = (
            [self.view.graph.link(*k) for k in keys]
            or list(self.view.graph.links())
        )
        at = links[which % len(links)].available
        for _ in range(abs(ulps)):
            at = math.nextafter(at, math.inf if ulps > 0 else 0.0)
        self.floor = at
        return at

    def eligible(self, who):
        kind, arg = who
        if kind == "anyone":
            return None
        if kind == "healthy":
            return node_is_selectable
        if kind == "pinned":
            pin = PinnedNodes(self.hosts[i % len(self.hosts)] for i in arg)
            return lambda node: node_is_selectable(node) and pin(node)
        return lambda node: (
            node_is_selectable(node) and node.compute_capacity != arg
        )

    # -- the history -----------------------------------------------------------
    def apply(self, action) -> None:
        kind, *args = action
        ledger, view = self.ledger, self.view
        live = sorted(ledger.reservations)
        if kind == "request":
            query, cpu, bw = args
            picked = self.select(query)
            if isinstance(picked, dict):
                self.apps += 1
                try:
                    ledger.reserve(
                        f"app-{self.apps}", picked["nodes"],
                        cpu_fraction=cpu, bw_bps=bw * Mbps, graph=view.base,
                        now=self.now, lease_s=10.0,
                    )
                except LedgerError:
                    pass  # over a cap: the ledger is unchanged
        elif kind == "release" and live:
            ledger.release(live[args[0] % len(live)])
        elif kind == "renew" and live:
            ledger.renew(live[args[0] % len(live)], self.now, 10.0)
        elif kind == "clamp" and live:
            ledger.clamp_expiry(live[args[0] % len(live)], self.now + args[1])
        elif kind == "advance":
            self.now += args[0]
            ledger.expire(self.now)
        elif kind in ("down", "up"):
            # A new down set is a new view, as the service builds it.
            host = {self.hosts[args[0] % len(self.hosts)]}
            down = view.down | host if kind == "down" else view.down - host
            self.view = ResidualView(view.base, ledger, down=down)
        elif kind == "rebase":
            self.rebase(*args)

    def rebase(self, loads, bandwidths) -> None:
        """A measured snapshot: same structure, some loads and some
        availabilities moved (either way), named to the overlay."""
        base = self.view.base
        nodes, links = [], []
        for i, load in loads:
            node = base.node(self.hosts[i % len(self.hosts)]).copy()
            node.load_average = load
            nodes.append(node)
        every = list(base.links())
        for i, fwd, rev in bandwidths:
            link = every[i % len(every)].copy()
            link.available_fwd, link.available_rev = fwd * Mbps, rev * Mbps
            links.append(link)
        # Later duplicates win, as in a dict of replacements.
        nodes = list({n.name: n for n in nodes}.values())
        links = list({l.key: l for l in links}.values())
        self.view.rebase(
            base.replaced(nodes, links),
            {n.name for n in nodes}, {l.key for l in links},
        )


index = st.integers(0, 63)
floors = st.one_of(
    st.tuples(st.just("far"), st.sampled_from([0.0, 1.0, 30.0, 50.0, 500.0])),
    st.tuples(st.just("at"),
              st.tuples(index, st.sampled_from([-1, 0, 0, 1]))),
    st.tuples(st.just("again"), st.none()),
)
eligibles = st.one_of(
    st.tuples(st.just("anyone"), st.none()),
    st.tuples(st.just("healthy"), st.none()),
    st.tuples(st.just("pinned"), st.lists(index, min_size=1, max_size=6)),
    st.tuples(st.just("not-capacity"), st.sampled_from([1.0, 2.0])),
)
queries = st.tuples(
    st.integers(1, 5), floors, eligibles, st.sampled_from([0, 0, 0, 1, 2])
)
actions = st.one_of(
    st.tuples(st.just("request"), queries,
              st.sampled_from([0.0, 0.1, 0.25]),
              st.sampled_from([0.0, 5.0, 20.0])),
    st.tuples(st.just("release"), index),
    st.tuples(st.just("renew"), index),
    st.tuples(st.just("clamp"), index, st.sampled_from([0.5, 3.0, 20.0])),
    st.tuples(st.just("advance"), st.sampled_from([1.0, 4.0, 11.0])),
    st.tuples(st.just("down"), index),
    st.tuples(st.just("up"), index),
    st.tuples(
        st.just("rebase"),
        st.lists(st.tuples(index, st.sampled_from([0.0, 0.5, 1.0, 1.5])),
                 max_size=3),
        st.lists(st.tuples(index, st.sampled_from([20.0, 40.0, 60.0, 80.0]),
                           st.sampled_from([20.0, 40.0, 60.0, 80.0])),
                 max_size=3),
    ),
)


@settings(max_examples=90, deadline=None)
@given(
    build=st.sampled_from([small_tree, cyclic_grid]) | st.integers(0, 999).map(
        lambda seed: functools.partial(random_cyclic, seed)
    ),
    history=st.lists(st.tuples(actions, queries), min_size=1, max_size=30),
)
def test_live_overlay_equals_rebuild_and_reference(build, history):
    rig = Rig(build())
    assert rig.view.graph.is_acyclic() == (build is small_tree)
    for action, query in history:
        rig.apply(action)
        rig.select(query)
    rig.ledger.check_invariants(view=rig.view)


@pytest.mark.parametrize("build", [small_tree, cyclic_grid])
def test_a_link_crosses_a_standing_floor_both_ways(build):
    """The case the history must not miss, pinned down by hand."""
    rig = Rig(build())
    everyone = ("healthy", None)
    first = rig.select((3, ("far", 1.0), everyone, 0))
    rig.apply(("request", (3, ("far", 1.0), everyone, 0), 0.25, 5.0))
    assert rig.ledger.active == 1
    # A floor exactly at a claimed link: it meets the floor now ...
    at = rig.select((3, ("at", (0, 0)), everyone, 0))
    key = sorted(map(sorted, rig.ledger.claimed_link_keys()))[0]
    link = rig.view.graph.link(*key)
    assert link.available == rig.floor
    # ... a second claim over the same hosts takes it below ...
    rig.apply(("request", (3, ("far", 1.0), ("pinned", [
        rig.hosts.index(n) for n in first["nodes"]
    ]), 0), 0.1, 5.0))
    assert rig.ledger.active == 2 and link.available < rig.floor
    rig.select((3, ("again", None), everyone, 0))
    # ... and releasing it brings the link back above.
    rig.apply(("release", 1))
    assert link.available == rig.floor
    assert rig.select((3, ("again", None), everyone, 0)) == at


@pytest.mark.parametrize("cyclic", [False, True])
def test_components_completing_on_one_fraction_tie_break_by_names(cyclic):
    """Two floor-components reach ``m`` on the same CPU fraction, and the
    one the walk completes *second* has the smaller names: the walk must
    go on through the tied keys, and ``names`` must decide."""
    g = TopologyGraph()
    for switch, hosts in (("s0", ["h0", "h3", "h5"]), ("s1", ["h1", "h2"])):
        g.add_network(switch)
        for host in hosts:
            g.add_compute(host, load_average=0.5)
            g.add_link(host, switch, 100 * Mbps)
    g.node("h5").load_average = 1.0  # a worse key past the tie: not reached
    g.add_link("s0", "s1", 100 * Mbps, available=10 * Mbps)
    if cyclic:
        g.add_link("h1", "h2", 100 * Mbps)
    rig = Rig(g)
    asked = []

    def eligible(node):
        asked.append(node.name)
        return True

    rig.eligible = lambda who: eligible
    picked = rig.select((2, ("far", 50.0), None, 0))
    assert picked["nodes"] == ["h0", "h3"]  # walk order: h0 h1 h2* h3*
    # Three arms, two of them walking: nobody looked past the tie.
    assert asked.count("h5") == 1 and asked.count("h3") == 3
    # One claim later the tie is gone and the other component wins.
    rig.ledger.reserve("a", ["h0"], cpu_fraction=0.1, bw_bps=0.0,
                       graph=g, now=0.0, lease_s=10.0)
    assert rig.select((2, ("far", 50.0), None, 0))["nodes"] == ["h1", "h2"]
    rig.ledger.release("a")
    assert rig.select((2, ("far", 50.0), None, 0)) == picked


def test_work_is_bounded_by_the_walk_not_the_graph(monkeypatch):
    """1 000 hosts and a floor every link meets whatever is claimed on
    it (one component): a selection asks ``eligible`` about the ``m``
    nodes it picks (it was all 1 000) and re-keys the nodes the ledger
    touched since the last one, nothing else."""
    rng = np.random.default_rng(0)
    base = random_tree(1000, 200, rng, bandwidth=100 * Mbps)
    for link in base.links():
        link.available_fwd = float(rng.uniform(5, 100)) * Mbps
        link.available_rev = float(rng.uniform(5, 100)) * Mbps
    for node in base.compute_nodes():
        node.load_average = float(rng.uniform(0, 0.5))
    ledger = ReservationLedger()
    view = ResidualView(base, ledger)
    ledger.subscribe(view.on_ledger_event)

    asked, keyed = [], []
    fraction = kernel.node_compute_fraction

    def counting_fraction(node, refs):
        keyed.append(node.name)
        return fraction(node, refs)

    def eligible(node):
        asked.append(node.name)
        return True

    def select(m):
        del asked[:], keyed[:]
        return select_with_bandwidth_floor(
            view.graph, m, floor_bps=0.0, eligible=eligible,
        )

    select(3)  # the one full ranking, before the counting starts
    monkeypatch.setattr(kernel, "node_compute_fraction", counting_fraction)
    touched: set[str] = set()
    live: list[str] = []
    for step in range(100):
        m = 3 + step % 4
        sel = select(m)
        assert len(asked) == m <= 2 * m and asked == sel.nodes
        assert sorted(keyed) == sorted(touched)
        ledger.reserve(
            f"app-{step}", sel.nodes, cpu_fraction=0.1, bw_bps=1 * Mbps,
            graph=base, now=0.0, lease_s=1e9,
        )
        touched = set(sel.nodes)
        live.append(f"app-{step}")
        if len(live) > 8:
            touched |= set(ledger.release(live.pop(0)).nodes)

    select(3)  # re-keys what the last step touched
    lease = ledger.release(live.pop(0))
    select(3)
    assert sorted(keyed) == sorted(lease.nodes)
    view.assert_matches_rebuild()


# -- ties: an idle cluster is one long plateau --------------------------------
#
# The kernel leaves the walk as soon as no component can beat the one it
# holds (first names decide; see its docstring).  The reference scores
# every component, so ``==`` against it on tied loads is the whole proof.

#: Three loads, drawn from uniformly: the idle cluster (a long top
#: plateau), and a long plateau under a sparse one (``best`` is then
#: often named by a node ranked a whole plateau before it filled).
PALETTES = [[0.0, 0.0, 0.0, 0.5, 1.0], [0.0] + [0.5] * 5 + [1.0]]


def tied_forest(palette, seed: int, hosts: int, switches: int, roots: int):
    """A forest of ``roots`` trees whose host names are scattered over
    its switches; loads mostly one per switch (so that whole components
    start on a later plateau), links on three availabilities."""
    rng = np.random.default_rng(seed)
    g = TopologyGraph()
    usual = rng.choice(palette, size=switches)
    for s in range(switches):
        g.add_network(f"s{s}")
        if s >= roots:
            g.add_link(f"s{s}", f"s{int(rng.integers(0, s))}", 100 * Mbps)
    for h in rng.permutation(hosts):
        s = int(rng.integers(0, switches))
        load = usual[s] if rng.random() < 0.7 else rng.choice(palette)
        g.add_compute(f"h{h:02d}", load_average=float(load))
        g.add_link(f"h{h:02d}", f"s{s}", 100 * Mbps)
    return _tie(g, rng)


def tied_grid(palette, seed: int):
    rng = np.random.default_rng(seed)
    g = grid(3, 3, bandwidth=100 * Mbps)
    for node in g.compute_nodes():
        node.load_average = float(rng.choice(palette))
    return _tie(g, rng)


def _tie(g, rng):
    for link in g.links():
        link.available_fwd = float(rng.choice([20, 60, 100])) * Mbps
        link.available_rev = float(rng.choice([20, 60, 100])) * Mbps
    for node in g.compute_nodes():
        if rng.random() < 0.1:
            node.attrs["unmonitorable"] = True
    return g


def same_selection(g, m, **kwargs):
    """The kernel's answer, having checked it is the reference's: equal
    ``Selection``s (every field) or the same refusal."""
    try:
        want = reference_select_with_bandwidth_floor(g, m, **kwargs)
    except kernel.NoFeasibleSelection as refusal:
        with pytest.raises(kernel.NoFeasibleSelection) as mine:
            select_with_bandwidth_floor(g, m, **kwargs)
        assert str(mine.value) == str(refusal)
        return None
    got = select_with_bandwidth_floor(g, m, **kwargs)
    assert got == want
    return got


@settings(max_examples=400, deadline=None)
@given(
    palette=st.sampled_from(PALETTES),
    shape=st.one_of(
        st.tuples(st.integers(0, 10**6), st.integers(2, 40),
                  st.integers(1, 8), st.integers(1, 3)),
        st.tuples(st.integers(0, 10**6)),
    ),
    m=st.integers(1, 6),
    floor=st.sampled_from([0.0, 20.0, 50.0, 60.0, 90.0, 100.0, 500.0]),
    who=st.one_of(
        st.just("anyone"), st.just("healthy"),
        st.lists(st.integers(0, 39), min_size=1, max_size=20),
    ),
)
def test_tied_loads_select_what_the_reference_selects(
    palette, shape, m, floor, who
):
    if len(shape) == 1:
        g = tied_grid(palette, *shape)
    else:
        seed, hosts, switches, roots = shape
        g = tied_forest(palette, seed, hosts, switches, min(roots, switches))
    assert g.is_acyclic() == (len(shape) > 1)
    if who == "anyone":
        eligible = None
    elif who == "healthy":
        eligible = node_is_selectable
    else:
        names = sorted(n.name for n in g.compute_nodes())
        eligible = PinnedNodes(names[i % len(names)] for i in who)
    same_selection(g, m, floor_bps=floor * Mbps, eligible=eligible)


def islands(spec, cyclic=False):
    """``{switch: {host: load}}``: hosts on 100 Mbps under their switch,
    switches chained over 10 Mbps — under a 50 Mbps floor, an island a
    switch.  ``cyclic`` closes a triangle inside the first island."""
    g = TopologyGraph()
    for switch, hosts in spec.items():
        g.add_network(switch)
        for host, load in hosts.items():
            g.add_compute(host, load_average=load)
            g.add_link(host, switch, 100 * Mbps)
    for a, b in zip(spec, list(spec)[1:]):
        g.add_link(a, b, 100 * Mbps, available=10 * Mbps)
    if cyclic:
        first = list(next(iter(spec.values())))
        g.add_link(first[0], first[-1], 100 * Mbps)
    assert g.is_acyclic() != cyclic
    return g


def walk_of(g, m):
    """(picked names, the names ``eligible`` was asked about, in order)
    for a 50 Mbps floor — checked against the reference."""
    asked = []

    def eligible(node):
        asked.append(node.name)
        return True

    select_with_bandwidth_floor(
        g, m, floor_bps=50 * Mbps, eligible=eligible
    )
    mine = list(asked)
    picked = same_selection(g, m, floor_bps=50 * Mbps, eligible=eligible)
    return picked.nodes, mine


@pytest.mark.parametrize("cyclic", [False, True])
def test_a_smaller_first_name_that_fills_later_wins(cyclic):
    """``s1`` fills first; ``s0`` holds a smaller first name (a rival)
    and fills two keys later: the walk must wait for it, and stop there."""
    g = islands({"s0": {"a": 0.0, "e": 0.0, "f": 0.0},
                 "s1": {"b": 0.0, "c": 0.0, "d": 0.0},
                 "s2": {"g": 0.0, "h": 0.0, "i": 0.0}}, cyclic)
    picked, asked = walk_of(g, 3)
    assert picked == ["a", "e", "f"]
    assert asked == ["a", "b", "c", "d", "e", "f"]  # s2 cannot win: unasked


@pytest.mark.parametrize("cyclic", [False, True])
def test_a_rival_that_never_fills_costs_the_whole_plateau(cyclic):
    """The documented worst case: ``a`` alone on its island stays an open
    rival, so every tied key is visited — and only those."""
    g = islands({"s0": {"b": 0.0, "c": 0.0, "y": 0.5},
                 "s1": {"a": 0.0},
                 "s2": {"d": 0.0}, "s3": {"e": 0.0},
                 "s4": {"f": 0.0, "z": 0.5}}, cyclic)
    picked, asked = walk_of(g, 2)
    assert picked == ["b", "c"]
    assert asked == ["a", "b", "c", "d", "e", "f"]  # not ``y``, not ``z``


@pytest.mark.parametrize("cyclic", [False, True])
def test_best_named_on_an_earlier_plateau_can_lose_to_a_later_start(cyclic):
    """``[m, b]`` fills on the 0.5 plateau but is named by ``m``, idle
    and so ranked before it.  No rival is open when it fills, yet ``c``
    then starts an island below ``m`` and is still short at ``n``, past
    ``m``: the walk must go on until ``[c, p]`` fills, and wins."""
    g = islands({"s0": {"m": 0.0, "b": 0.5},
                 "s1": {"c": 0.5, "p": 0.5},
                 "s2": {"n": 0.5, "q": 0.5}}, cyclic)
    picked, asked = walk_of(g, 2)
    assert picked == ["c", "p"]
    assert asked == ["m", "b", "c", "n", "p"]  # past ``p`` nothing can win


def test_tied_work_is_bounded_by_the_picks_not_the_plateau():
    """The 1 000-host tree of the work bound above with every load 0.0
    and one component: one plateau of 1 000 keys, of which a selection
    climbs from, and asks ``eligible`` about, exactly the ``m`` it picks
    (it was all 1 000)."""
    rng = np.random.default_rng(0)
    g = random_tree(1000, 200, rng, bandwidth=100 * Mbps)
    assert {n.load_average for n in g.compute_nodes()} == {0.0}
    asked, climbed = [], []
    floor_components = g.floor_components

    def counting(floor_bps):
        climb = floor_components(floor_bps)

        def counted(name):
            climbed.append(name)
            return climb(name)

        return counted

    def eligible(node):
        asked.append(node.name)
        return True

    g.floor_components = counting
    for m in range(1, 7):
        del asked[:], climbed[:]
        sel = select_with_bandwidth_floor(
            g, m, floor_bps=0.0, eligible=eligible
        )
        assert asked == sel.nodes == sorted(n.name for n in g.compute_nodes())[:m]
        assert len(climbed) <= m
    del g.floor_components
    same_selection(g, 4, floor_bps=0.0)
