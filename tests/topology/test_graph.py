"""Unit tests for the topology graph structure."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.topology import (
    Link,
    Measurement,
    Node,
    NodeKind,
    TopologyGraph,
    cpu_fraction,
    from_json,
    load_from_cpu_fraction,
    star,
    to_json,
)
from repro.units import Mbps

from ..oracles import bfs_path, routing_table_route


@pytest.fixture
def small_tree():
    """sw0--sw1 trunk; a,b on sw0; c,d on sw1."""
    g = TopologyGraph()
    g.add_network("sw0")
    g.add_network("sw1")
    for name, sw in (("a", "sw0"), ("b", "sw0"), ("c", "sw1"), ("d", "sw1")):
        g.add_compute(name)
        g.add_link(name, sw, 100 * Mbps, latency=1e-4)
    g.add_link("sw0", "sw1", 100 * Mbps, latency=2e-4)
    return g


class TestCpuFunction:
    def test_idle_node_is_full_cpu(self):
        assert cpu_fraction(0.0) == 1.0

    def test_paper_formula(self):
        # cpu = 1/(1+load): load 1 -> half, load 3 -> quarter
        assert cpu_fraction(1.0) == 0.5
        assert cpu_fraction(3.0) == 0.25

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            cpu_fraction(-0.1)

    def test_roundtrip_with_inverse(self):
        for load in (0.0, 0.5, 2.0, 10.0):
            assert load_from_cpu_fraction(cpu_fraction(load)) == pytest.approx(load)

    def test_inverse_domain(self):
        with pytest.raises(ValueError):
            load_from_cpu_fraction(0.0)
        with pytest.raises(ValueError):
            load_from_cpu_fraction(1.5)


class TestNode:
    def test_cpu_property(self):
        n = Node("x", load_average=1.0)
        assert n.cpu == 0.5

    def test_copy_is_independent(self):
        n = Node("x", attrs={"arch": "alpha"})
        c = n.copy()
        c.attrs["arch"] = "x86"
        c.load_average = 9.0
        assert n.attrs["arch"] == "alpha"
        assert n.load_average == 0.0

    def test_kind_flags(self):
        assert Node("x", kind=NodeKind.COMPUTE).is_compute
        assert not Node("x", kind=NodeKind.NETWORK).is_compute


class TestLink:
    def test_defaults_to_full_availability(self):
        l = Link("a", "b", maxbw=100 * Mbps)
        assert l.available == 100 * Mbps
        assert l.bwfactor == 1.0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "a", maxbw=1.0)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "b", maxbw=0.0)

    def test_available_is_min_of_directions(self):
        # Paper §3.3: bidirectional link capacity = min of the directions.
        l = Link("a", "b", maxbw=100.0, available_fwd=80.0, available_rev=30.0)
        assert l.available == 30.0
        assert l.available_towards("b") == 80.0
        assert l.available_towards("a") == 30.0

    def test_set_available_directional(self):
        l = Link("a", "b", maxbw=100.0)
        l.set_available(25.0, direction="b")
        assert l.available_towards("b") == 25.0
        assert l.available_towards("a") == 100.0
        assert l.available == 25.0

    def test_set_available_bounds(self):
        l = Link("a", "b", maxbw=100.0)
        with pytest.raises(ValueError):
            l.set_available(150.0)
        with pytest.raises(ValueError):
            l.set_available(-1.0)

    def test_other_endpoint(self):
        l = Link("a", "b", maxbw=1.0)
        assert l.other("a") == "b"
        assert l.other("b") == "a"
        with pytest.raises(KeyError):
            l.other("c")

    def test_bwfactor(self):
        l = Link("a", "b", maxbw=100.0, available_fwd=40.0)
        assert l.bwfactor == pytest.approx(0.4)


class TestGraphConstruction:
    def test_duplicate_node_rejected(self):
        g = TopologyGraph()
        g.add_compute("a")
        with pytest.raises(ValueError):
            g.add_compute("a")

    def test_link_requires_existing_nodes(self):
        g = TopologyGraph()
        g.add_compute("a")
        with pytest.raises(KeyError):
            g.add_link("a", "ghost", 1.0)

    def test_duplicate_link_rejected(self, small_tree):
        with pytest.raises(ValueError):
            small_tree.add_link("a", "sw0", 1.0)

    def test_counts(self, small_tree):
        assert small_tree.num_nodes == 6
        assert small_tree.num_links == 5
        assert len(small_tree.compute_nodes()) == 4
        assert len(small_tree.network_nodes()) == 2

    def test_neighbors(self, small_tree):
        assert sorted(small_tree.neighbors("sw0")) == ["a", "b", "sw1"]

    def test_remove_link(self, small_tree):
        small_tree.remove_link("sw0", "sw1")
        assert not small_tree.has_link("sw0", "sw1")
        assert small_tree.num_links == 4
        with pytest.raises(KeyError):
            small_tree.remove_link("sw0", "sw1")

    def test_remove_node_drops_incident_links(self, small_tree):
        small_tree.remove_node("sw0")
        assert small_tree.num_nodes == 5
        assert small_tree.num_links == 2  # only c, d links remain
        assert small_tree.degree("a") == 0

    def test_contains(self, small_tree):
        assert "a" in small_tree
        assert "zzz" not in small_tree

    def test_validate_passes_on_consistent_graph(self, small_tree):
        small_tree.validate()


class TestStructureQueries:
    def test_connected_components_single(self, small_tree):
        comps = small_tree.connected_components()
        assert len(comps) == 1
        assert comps[0] == set(small_tree.node_names())

    def test_components_after_cut(self, small_tree):
        small_tree.remove_link("sw0", "sw1")
        comps = sorted(small_tree.connected_components(), key=len)
        assert len(comps) == 2
        assert {"a", "b", "sw0"} in comps
        assert {"c", "d", "sw1"} in comps

    def test_component_of(self, small_tree):
        small_tree.remove_link("sw0", "sw1")
        assert small_tree.component_of("a") == {"a", "b", "sw0"}

    def test_is_connected(self, small_tree):
        assert small_tree.is_connected()
        small_tree.remove_link("a", "sw0")
        assert not small_tree.is_connected()

    def test_empty_graph_is_connected_and_acyclic(self):
        g = TopologyGraph()
        assert g.is_connected()
        assert g.is_acyclic()

    def test_is_acyclic(self, small_tree):
        assert small_tree.is_acyclic()
        small_tree.add_link("a", "b", 1.0)  # creates cycle a-sw0-b-a
        assert not small_tree.is_acyclic()

    def test_path_unique_in_tree(self, small_tree):
        assert small_tree.path("a", "d") == ["a", "sw0", "sw1", "d"]

    def test_path_to_self(self, small_tree):
        assert small_tree.path("a", "a") == ["a"]

    def test_path_disconnected_is_none(self, small_tree):
        small_tree.remove_link("sw0", "sw1")
        assert small_tree.path("a", "d") is None

    def test_path_bottleneck_bandwidth(self, small_tree):
        small_tree.link("sw0", "sw1").set_available(10 * Mbps)
        assert small_tree.path_available_bandwidth("a", "d") == 10 * Mbps
        assert small_tree.path_available_bandwidth("a", "b") == 100 * Mbps

    def test_path_bandwidth_directional(self, small_tree):
        small_tree.link("sw0", "sw1").set_available(10 * Mbps, direction="sw1")
        # a->d crosses sw0->sw1: limited; d->a uses the reverse channel.
        assert small_tree.path_available_bandwidth("a", "d") == 10 * Mbps
        assert small_tree.path_available_bandwidth("d", "a") == 100 * Mbps

    def test_path_bandwidth_same_node_inf(self, small_tree):
        assert small_tree.path_available_bandwidth("a", "a") == float("inf")

    def test_path_bandwidth_disconnected_zero(self, small_tree):
        small_tree.remove_link("sw0", "sw1")
        assert small_tree.path_available_bandwidth("a", "d") == 0.0

    def test_path_latency(self, small_tree):
        assert small_tree.path_latency("a", "d") == pytest.approx(4e-4)
        assert small_tree.path_latency("a", "a") == 0.0

    def test_min_bandwidth_link(self, small_tree):
        small_tree.link("c", "sw1").set_available(5 * Mbps)
        worst = small_tree.min_bandwidth_link()
        assert worst.key == frozenset({"c", "sw1"})

    def test_min_bandwidth_link_deterministic_tie(self):
        g = star(4)
        # All equal: tie broken by sorted endpoint names -> h0--switch.
        assert g.min_bandwidth_link().key == frozenset({"h0", "switch"})

    def test_min_bandwidth_link_empty(self):
        assert TopologyGraph().min_bandwidth_link() is None


class TestViews:
    def test_copy_independent(self, small_tree):
        c = small_tree.copy()
        c.remove_link("sw0", "sw1")
        c.node("a").load_average = 7.0
        assert small_tree.has_link("sw0", "sw1")
        assert small_tree.node("a").load_average == 0.0

    def test_copy_preserves_availability(self, small_tree):
        small_tree.link("a", "sw0").set_available(42.0, direction="sw0")
        c = small_tree.copy()
        assert c.link("a", "sw0").available_towards("sw0") == 42.0

    def test_subgraph(self, small_tree):
        sub = small_tree.subgraph(["a", "b", "sw0"])
        assert sub.num_nodes == 3
        assert sub.num_links == 2
        assert not sub.has_link("sw0", "sw1")

    def test_subgraph_unknown_node(self, small_tree):
        with pytest.raises(KeyError):
            small_tree.subgraph(["a", "ghost"])

    def test_replaced_shares_everything_it_was_not_given(self, small_tree):
        small_tree.path("a", "d")  # builds the forest index
        node = small_tree.node("a").copy()
        node.load_average = 3.0
        link = small_tree.link("sw0", "sw1").copy()
        link.set_available(5 * Mbps, direction="sw1")
        patched = small_tree.replaced([node], [link])
        assert patched.node("a") is node and patched.link("sw1", "sw0") is link
        assert link in patched.incident_links("sw0")
        assert link in patched.incident_links("sw1")
        assert patched.path_available_bandwidth("a", "d") == 5 * Mbps
        # The original is as it was; the rest is the same objects.
        assert small_tree.node("a").load_average == 0.0
        assert small_tree.path_available_bandwidth("a", "d") == 100 * Mbps
        assert patched.node("b") is small_tree.node("b")
        assert patched.link("a", "sw0") is small_tree.link("a", "sw0")
        assert patched._adj["a"] is small_tree._adj["a"]
        assert patched._adj["sw0"] is not small_tree._adj["sw0"]
        assert patched._forest is small_tree._forest is not None
        assert patched.node_names() == small_tree.node_names()
        patched.validate()
        # Structure is its own: growing the patch does not grow the source.
        patched.add_compute("e")
        patched.add_link("e", "sw1", 100 * Mbps)
        assert not small_tree.has_node("e") and small_tree.path("a", "d")
        assert patched.path("a", "e") == ["a", "sw0", "sw1", "e"]

    def test_replaced_rejects_strangers(self, small_tree):
        with pytest.raises(KeyError):
            small_tree.replaced([Node("ghost")])
        with pytest.raises(KeyError):
            small_tree.replaced(links=[Link("a", "b", 100 * Mbps)])

    def test_sample_ages_ride_beside_the_graph(self, small_tree):
        small_tree.node("a").attrs["age_s"] = 7.0  # a loaded snapshot's way
        assert small_tree.node_age("a") == 7.0
        assert small_tree.node_age("b") is None
        assert small_tree.link_age("a", "sw0") is None
        key = small_tree.link("a", "sw0").key
        small_tree.measurement = Measurement(
            source=object(), generation=4, nodes=frozenset({"a"}),
            links=frozenset(), age_s=2.5,
            late={"b": 9.0, "c": float("inf"), key: 4.0},
        )
        assert small_tree.node_age("a") == 2.5
        assert small_tree.node_age("b") == 9.0
        assert small_tree.node_age("c") is None  # never sampled
        assert small_tree.node_age("sw0") is None  # not a measured resource
        assert small_tree.link_age("sw0", "a") == 4.0
        assert small_tree.link_age("sw0", "sw1") == 2.5
        # Copies keep the ages; a subgraph keeps them but not the delta.
        assert small_tree.copy().measurement is small_tree.measurement
        sub = small_tree.subgraph(["a", "b", "sw0"]).measurement
        assert (sub.nodes, sub.links, sub.age_s) == (None, None, 2.5)
        held = small_tree.measurement
        newer = Measurement(held.source, 5, frozenset(), frozenset(), 0.0, {})
        assert newer.delta_from(held) == (frozenset(), frozenset())
        assert sub.delta_from(held) is None  # a subgraph publishes none
        assert held.delta_from(newer) is None
        assert newer.delta_from(None) is None
        other = Measurement(object(), 5, frozenset(), frozenset(), 0.0, {})
        assert other.delta_from(held) is None
        # Serialized, ages are plain attrs again.
        loaded = from_json(to_json(small_tree))
        assert loaded.measurement is None
        assert loaded.node("b").attrs["age_s"] == 9.0
        assert loaded.link_age("sw0", "sw1") == 2.5
        assert "age_s" not in loaded.node("c").attrs

    def test_networkx_cross_check_components(self, small_tree):
        """Our component finder agrees with networkx on a mutated graph."""
        nx = pytest.importorskip("networkx")
        small_tree.remove_link("sw0", "sw1")
        small_tree.remove_link("b", "sw0")
        G = nx.Graph()
        G.add_nodes_from(small_tree.node_names())
        G.add_edges_from((l.u, l.v) for l in small_tree.links())
        ours = sorted(map(sorted, small_tree.connected_components()))
        theirs = sorted(map(sorted, nx.connected_components(G)))
        assert ours == theirs


def _assert_paths_match_bfs(g: TopologyGraph) -> None:
    """Every answer equals its reference: on a forest the BFS the index
    replaced, with a cycle the routing-table rule the next-hop maps
    replaced."""
    acyclic = g.num_links == g.num_nodes - len(g.connected_components())
    want = bfs_path if acyclic else routing_table_route
    names = g.node_names()
    for a in names:
        for b in names:
            assert g.path(a, b) == want(g, a, b), (a, b)
    assert g.is_acyclic() == acyclic
    for pair in (("ghost", "ghost"), ("ghost", names[0]), (names[0], "ghost")):
        with pytest.raises(KeyError):
            g.path(*pair)


def _build(order, parents, extra) -> TopologyGraph:
    """Nodes inserted in ``order``; node ``i`` hangs under ``parents[i]``
    (an earlier index, ``None`` starts a new component) plus ``extra``
    links, which may close cycles."""
    g = TopologyGraph()
    for i in order:
        g.add_compute(f"n{i}")
    links = [(p, i) for i, p in enumerate(parents) if p is not None] + extra
    for u, v in links:
        if u != v and not g.has_link(f"n{u}", f"n{v}"):
            g.add_link(f"n{u}", f"n{v}", 100 * Mbps)
    return g


@st.composite
def _graphs(draw, max_extra):
    n = draw(st.integers(1, 10))
    order = draw(st.permutations(range(n)))
    parents = [None] + [
        draw(st.one_of(st.none(), st.integers(0, i - 1))) for i in range(1, n)
    ]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    extra = draw(st.lists(pair, max_size=max_extra))
    return _build(order, parents, extra)


class TestForestIndex:
    @settings(max_examples=150, deadline=None)
    @given(g=_graphs(max_extra=0))
    def test_forests(self, g):
        assert g.is_acyclic()
        _assert_paths_match_bfs(g)

    @settings(max_examples=150, deadline=None)
    @given(g=_graphs(max_extra=4))
    def test_graphs_with_cycles(self, g):
        _assert_paths_match_bfs(g)

    @settings(max_examples=150, deadline=None)
    @given(
        g=_graphs(max_extra=2),
        ops=st.lists(
            st.tuples(
                st.sampled_from([
                    "add_link", "remove_link", "remove_node", "add_node",
                    "copy", "subgraph", "json", "pickle",
                ]),
                st.integers(0, 99),
                st.integers(0, 99),
            ),
            max_size=12,
        ),
    )
    def test_survives_any_interleaving_of_changes(self, g, ops):
        # Asking for paths between changes builds the index each time,
        # so a change that forgot to drop it answers from a stale one.
        _assert_paths_match_bfs(g)
        fresh = 0
        for op, i, j in ops:
            names = g.node_names()
            a, b = names[i % len(names)], names[j % len(names)]
            links = list(g.links())
            if op == "add_link":
                if a != b and not g.has_link(a, b):
                    g.add_link(a, b, 100 * Mbps)
            elif op == "remove_link":
                if links:
                    link = links[i % len(links)]
                    g.remove_link(link.u, link.v)
            elif op == "remove_node":
                if len(names) > 1:
                    g.remove_node(a)
            elif op == "add_node":
                fresh += 1
                g.add_compute(f"new{fresh}")
            elif op == "copy":
                g = g.copy()
            elif op == "subgraph":
                g = g.subgraph([n for k, n in enumerate(names)
                                if k == 0 or (k + i) % 3])
            elif op == "json":
                g = from_json(to_json(g))
            else:
                g = pickle.loads(pickle.dumps(g))
            _assert_paths_match_bfs(g)

    def test_next_hops_are_shared_by_replaced_and_dropped_by_copies(
        self, small_tree
    ):
        g = small_tree
        g.add_link("a", "c", 100 * Mbps)  # a cycle: a-sw0-sw1-c-a
        assert g.path("b", "d") == ["b", "sw0", "sw1", "d"]
        kept = g._next_hops
        assert set(kept) == {"d"}
        patched = g.replaced(links=[Link("sw0", "sw1", 100 * Mbps)])
        assert patched._next_hops is kept
        assert patched.path("d", "b") == ["d", "sw1", "sw0", "b"]
        assert set(g._next_hops) == {"b", "d"}  # built once, for both
        for other in (g.copy(), pickle.loads(pickle.dumps(g))):
            assert other._next_hops is None
            assert other.path("b", "d") == ["b", "sw0", "sw1", "d"]
        assert "_next_hops" not in g.__getstate__()
        # A structural change to the patched graph leaves the original's.
        patched.remove_link("sw0", "sw1")
        assert patched.path("b", "d") == ["b", "sw0", "a", "c", "sw1", "d"]
        assert g._next_hops is kept
        assert g.path("b", "d") == ["b", "sw0", "sw1", "d"]

    def test_a_repeated_span_is_answered_until_the_structure_changes(
        self, small_tree
    ):
        g = small_tree
        first = g.span(["a", "d"])
        assert g.span(("a", "d")) is first  # the same names, in order
        assert g.span(["d", "a"]) is not first
        assert {l.key for l in g.span(["d", "a"])[0]} == \
            {l.key for l in first[0]}
        assert "_last_span" not in g.__getstate__()
        assert g.copy()._last_span is None
        g.remove_link("sw0", "sw1")
        assert g.span(["a", "d"]) == ([], False)
        g.add_link("sw0", "sw1", 100 * Mbps)
        again = g.span(["a", "d"])
        assert again is not first and again[1]
        assert [l.key for l in again[0]] == [l.key for l in first[0]]
        trunk = g.link("sw0", "sw1")  # the new link object
        assert any(link is trunk for link in again[0])

    def test_index_is_not_pickled_and_defaults_on_old_pickles(self, small_tree):
        assert small_tree.path("a", "d") == ["a", "sw0", "sw1", "d"]
        state = small_tree.__getstate__()
        assert set(state) == {"_nodes", "_links", "_adj"}
        # A graph pickled before the index existed has no such attribute.
        old = TopologyGraph.__new__(TopologyGraph)
        old.__dict__.update(state)
        assert old.path("a", "d") == ["a", "sw0", "sw1", "d"]
        old.remove_link("sw0", "sw1")
        assert old.path("a", "d") is None


def _keys_by_identity(graph):
    """``{link key: the key object graph._links holds}``."""
    return {key: key for key in graph._links}


class TestGraphRecords:
    """Nodes and links are slotted records, and every copy of a graph
    keys its links by the source's own key objects."""

    def test_nodes_and_links_have_no_instance_dict(self, small_tree):
        for record in (*small_tree.nodes(), *small_tree.links()):
            assert not hasattr(record, "__dict__")
            with pytest.raises(AttributeError):
                record.extra = 1
        link = small_tree.link("a", "sw0")
        assert link.key == frozenset(("a", "sw0"))
        assert link.copy().key is link.key
        assert Link("a", "sw0", 100 * Mbps, latency=1e-4) == link

    def test_copies_share_the_source_keys(self, small_tree):
        from repro.service.ledger import ReservationLedger
        from repro.service.residual_view import ResidualView

        source = _keys_by_identity(small_tree)
        view = ResidualView(small_tree, ReservationLedger())
        copies = {
            "copy": small_tree.copy(),
            "subgraph": small_tree.subgraph(["a", "b", "sw0", "sw1"]),
            "restricted": small_tree.restricted(["a", "b", "sw0", "sw1"]),
            "overlay": view.graph,
        }
        for how, graph in copies.items():
            assert graph._links, how
            for key, link in graph._links.items():
                assert key is source[key] is link.key, how
            for name, row in graph._adj.items():
                for other, link in row.items():
                    assert link is graph._links[link.key], how

    def test_restricted_shares_what_subgraph_copies(self, small_tree):
        names = ["a", "b", "sw0"]
        cut, sub = small_tree.restricted(names), small_tree.subgraph(names)
        assert cut.node_names() == sub.node_names() == ["sw0", "a", "b"]
        assert list(cut._links) == list(sub._links)
        assert {n: list(r) for n, r in cut._adj.items()} == \
            {n: list(r) for n, r in sub._adj.items()}
        for name in names:
            assert cut.node(name) is small_tree.node(name)
            assert sub.node(name) is not small_tree.node(name)
        for link in cut.links():
            assert link is small_tree.link(link.u, link.v)
            assert sub.link(link.u, link.v) is not link
        cut.validate()
        assert cut.path("a", "b") == ["a", "sw0", "b"]
        # Structure is the cut's own: a removed link stays in the source.
        cut.remove_link("a", "sw0")
        assert small_tree.has_link("a", "sw0")
        with pytest.raises(KeyError):
            small_tree.restricted(["a", "ghost"])

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_slotted_graph_round_trips_through_pickle(
        self, small_tree, protocol
    ):
        from repro.core import ApplicationSpec
        from repro.service import SelectionService

        small_tree.link("a", "sw0").set_available(42.0, direction="sw0")
        small_tree.node("c").load_average = 1.5
        small_tree.node("d").attrs["arch"] = "alpha"
        # A live service's overlay after one grant: it carries the
        # kernel's hook, which is derived state and not shipped.
        svc = SelectionService(small_tree, snapshot_ttl=1e9)
        assert svc.request("app", ApplicationSpec(num_nodes=2),
                           cpu_fraction=0.25, bw_bps=5 * Mbps).admitted
        overlay = svc.view.graph
        assert overlay.compute_ranking is not None
        for graph in (small_tree, overlay):
            loaded = pickle.loads(pickle.dumps(graph, protocol=protocol))
            assert list(loaded.nodes()) == list(graph.nodes())
            assert list(loaded.links()) == list(graph.links())
            assert loaded.node_names() == graph.node_names()
            for key, link in loaded._links.items():
                assert link.key is key  # one key object per link, still
            assert loaded.compute_ranking is None
            loaded.validate()
            assert loaded.path("a", "d") == graph.path("a", "d")
