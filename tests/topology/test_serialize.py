"""Tests for topology serialization (JSON round-trip, DOT export)."""

import json

import numpy as np
import pytest

from repro.topology import (
    Link,
    Node,
    figure1_network,
    from_dict,
    from_json,
    random_tree,
    star,
    to_dict,
    to_dot,
    to_json,
)
from repro.units import Mbps


def graphs_equal(a, b):
    if sorted(n.name for n in a.nodes()) != sorted(n.name for n in b.nodes()):
        return False
    for n in a.nodes():
        m = b.node(n.name)
        if (n.kind, n.load_average, n.compute_capacity, n.attrs) != (
            m.kind, m.load_average, m.compute_capacity, m.attrs,
        ):
            return False
    if sorted(l.key for l in a.links()) != sorted(l.key for l in b.links()):
        return False
    for l in a.links():
        m = b.link(l.u, l.v)
        if (l.maxbw, l.latency, l.available_fwd, l.available_rev) != (
            m.maxbw, m.latency,
            m.available_towards(l.v), m.available_towards(l.u),
        ):
            return False
    return True


class TestJsonRoundTrip:
    def test_figure1_roundtrip(self):
        g = figure1_network()
        g.node("host2").load_average = 1.5
        g.link("host1", "seg-A").set_available(3 * Mbps, direction="seg-A")
        g2 = from_json(to_json(g))
        assert graphs_equal(g, g2)

    def test_empty_graph_roundtrip(self):
        from repro.topology import TopologyGraph
        g = TopologyGraph()
        assert graphs_equal(g, from_dict(to_dict(g)))

    def test_attrs_preserved(self):
        g = star(2)
        g.node("h0").attrs["arch"] = "alpha"
        g.link("h0", "switch").attrs["medium"] = "atm"
        g2 = from_dict(to_dict(g))
        assert g2.node("h0").attrs == {"arch": "alpha"}
        assert g2.link("h0", "switch").attrs == {"medium": "atm"}

    def test_json_is_valid_json(self):
        parsed = json.loads(to_json(star(3)))
        assert parsed["version"] == 1
        assert len(parsed["nodes"]) == 4

    def test_bad_version_rejected(self):
        data = to_dict(star(2))
        data["version"] = 99
        with pytest.raises(ValueError):
            from_dict(data)

    def test_dangling_link_rejected(self):
        data = to_dict(star(2))
        data["links"].append({"u": "h0", "v": "ghost", "maxbw": 1.0})
        with pytest.raises(ValueError):
            from_dict(data)

    def test_duplicate_link_rejected(self):
        data = to_dict(star(2))
        data["links"].append(dict(data["links"][0]))
        with pytest.raises(ValueError):
            from_dict(data)


class TestDot:
    def test_contains_all_nodes_and_edges(self):
        g = figure1_network()
        dot = to_dot(g)
        for n in g.nodes():
            assert f'"{n.name}"' in dot
        assert dot.count(" -- ") == g.num_links

    def test_compute_nodes_are_boxes(self):
        dot = to_dot(star(1))
        assert 'shape=box' in dot
        assert 'shape=ellipse' in dot

    def test_bandwidth_labels_in_mbps(self):
        g = star(1, bandwidth=100 * Mbps)
        g.link("h0", "switch").set_available(40 * Mbps)
        assert "40/100 Mbps" in to_dot(g)

    def test_load_shown_on_compute_nodes(self):
        g = star(1)
        g.node("h0").load_average = 2.0
        assert "load=2.00" in to_dot(g)


class TestNotANumberRefused:
    """A topology enters through ``Node`` / ``Link`` construction, and
    ``from_dict`` builds through them: a NaN load, peak or availability
    (which ``json`` reads without complaint) and a negative load are
    refused there, so no ranking or claim ever sees one."""

    def test_a_nan_host_is_refused_before_any_service_sees_it(self):
        # The churn rig that broke the kept ranking: one NaN host in a
        # random tree.  It cannot be built.
        data = to_dict(random_tree(40, 8, np.random.default_rng(7)))
        host = next(nd for nd in data["nodes"] if nd["kind"] == "compute")
        host["load_average"] = float("nan")
        with pytest.raises(ValueError, match="load average"):
            from_dict(data)
        with pytest.raises(ValueError, match="load average"):
            from_json(json.dumps(data))  # NaN survives json

    @pytest.mark.parametrize("load", [float("nan"), -0.5])
    def test_node_refuses_a_load_that_is_not_a_non_negative_number(
        self, load
    ):
        with pytest.raises(ValueError, match="load average"):
            Node(name="h", load_average=load)

    @pytest.mark.parametrize("field", ["maxbw", "available_fwd",
                                       "available_rev", "latency"])
    def test_link_refuses_nan(self, field):
        kwargs = {"maxbw": 100 * Mbps, field: float("nan")}
        with pytest.raises(ValueError):
            Link("a", "b", **kwargs)

    def test_a_valid_node_copies_unchecked_and_equal(self):
        node = Node(name="h", load_average=0.25, attrs={"arch": "x"})
        twin = node.copy()
        assert twin == node and twin.attrs is not node.attrs
