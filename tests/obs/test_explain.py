"""Tests for selection provenance: peel sequence, bottleneck, staleness."""

import pytest

import repro
from repro.core import ApplicationSpec, NodeSelector, Objective
from repro.core.types import ExtrasKey
from repro.obs import bottleneck_edge, explain_rejection
from repro.obs.explain import MAX_PEEL_STEPS
from repro.service import SelectionService
from repro.topology import dumbbell
from repro.units import Mbps


@pytest.fixture
def figure2_graph():
    """The paper's Figure 2 shape: two LANs behind a thin 5 Mbps trunk.

    Asking for m=5 on a 4+4 dumbbell forces the selection to straddle
    the trunk, so the trunk is the unique bottleneck of the result.
    """
    g = dumbbell(4, 4)
    g.link("sw-left", "sw-right").set_available(5 * Mbps)
    return g


class TestFigure2Explain:
    def test_names_exact_bottleneck_edge_and_min_bandwidth(self, figure2_graph):
        spec = ApplicationSpec(num_nodes=5, objective=Objective.BANDWIDTH)
        selection = NodeSelector(figure2_graph).select(spec, explain=True)
        record = selection.extras[ExtrasKey.EXPLAIN]

        assert {record.bottleneck.u, record.bottleneck.v} == {
            "sw-left", "sw-right"
        }
        assert record.bottleneck.available_bps == 5 * Mbps
        assert record.min_bw_bps == 5 * Mbps
        assert record.min_bw_bps == selection.min_bw_bps
        # The binding pair really does straddle the trunk.
        left, right = record.bottleneck.pair
        assert left[0] != right[0]

    def test_peel_sequence_matches_iterations(self, figure2_graph):
        spec = ApplicationSpec(num_nodes=5, objective=Objective.BANDWIDTH)
        selection = NodeSelector(figure2_graph).select(spec, explain=True)
        record = selection.extras[ExtrasKey.EXPLAIN]

        assert len(record.peel_sequence) == selection.iterations
        assert not record.peel_truncated
        # The thin trunk is peeled first.
        first = record.peel_sequence[0]
        assert {first.u, first.v} == {"sw-left", "sw-right"}
        assert first.available_bps == 5 * Mbps

    def test_node_cpu_covers_every_selected_node(self, figure2_graph):
        spec = ApplicationSpec(num_nodes=5, objective=Objective.BANDWIDTH)
        selection = NodeSelector(figure2_graph).select(spec, explain=True)
        record = selection.extras[ExtrasKey.EXPLAIN]
        assert set(record.node_cpu) == set(selection.nodes)
        assert all(0 <= v <= 1 for v in record.node_cpu.values())

    def test_no_explain_by_default(self, figure2_graph):
        spec = ApplicationSpec(num_nodes=5, objective=Objective.BANDWIDTH)
        selection = NodeSelector(figure2_graph).select(spec)
        assert ExtrasKey.EXPLAIN not in selection.extras


class TestCpuFloorExplain:
    """A CPU floor is Figure 2 over the hosts at or above it: its record
    carries the same peel as an unconstrained Figure 2 run."""

    def test_a_cpu_floor_records_its_peel(self, figure2_graph):
        figure2_graph.node("l0").load_average = 9.0  # CPU fraction 0.1
        spec = ApplicationSpec(num_nodes=5, objective=Objective.BANDWIDTH,
                               min_cpu_fraction=0.5)
        selection = NodeSelector(figure2_graph).select(spec, explain=True)
        record = selection.extras[ExtrasKey.EXPLAIN]
        assert selection.algorithm == "cpu-floor"
        assert "l0" not in selection.nodes
        assert selection.iterations > 0
        assert len(record.peel_sequence) == selection.iterations
        first = record.peel_sequence[0]
        assert {first.u, first.v} == {"sw-left", "sw-right"}

    def test_a_cpu_only_claim_records_its_peel(self):
        svc = SelectionService(dumbbell(4, 4), snapshot_ttl=1e9)
        grant = svc.request("a", ApplicationSpec(num_nodes=4),
                            cpu_fraction=0.2, explain=True)
        assert grant.admitted
        assert grant.selection.algorithm == "cpu-floor"
        assert grant.selection.iterations > 0
        assert len(grant.explain.peel_sequence) == min(
            grant.selection.iterations, MAX_PEEL_STEPS
        )


class TestModuleLevelSelect:
    def test_repro_select_explain_kwarg(self, figure2_graph):
        selection = repro.select(
            figure2_graph, num_nodes=5,
            objective=Objective.BANDWIDTH, explain=True,
        )
        record = selection.extras[ExtrasKey.EXPLAIN]
        assert record.nodes == tuple(selection.nodes)


class TestBottleneckEdge:
    def test_single_node_has_no_bottleneck(self, figure2_graph):
        assert bottleneck_edge(figure2_graph, ["l0"]) is None

    def test_same_lan_pair_avoids_trunk(self, figure2_graph):
        edge = bottleneck_edge(figure2_graph, ["l0", "l1"])
        assert "sw-right" not in (edge.u, edge.v)


class TestSerialization:
    def test_to_dict_is_json_safe(self, figure2_graph):
        import json
        spec = ApplicationSpec(num_nodes=5, objective=Objective.BANDWIDTH)
        selection = NodeSelector(figure2_graph).select(spec, explain=True)
        record = selection.extras[ExtrasKey.EXPLAIN]
        payload = json.dumps(record.to_dict())
        parsed = json.loads(payload)
        assert parsed["bottleneck"]["available_bps"] == 5 * Mbps
        assert parsed["rejection"] is None

    def test_infinite_min_bw_becomes_null(self):
        g = dumbbell(2, 2)
        spec = ApplicationSpec(num_nodes=1)
        selection = NodeSelector(g).select(spec, explain=True)
        record = selection.extras[ExtrasKey.EXPLAIN]
        assert record.to_dict()["min_bw_bps"] is None


class TestRejection:
    def test_rejection_record_carries_reason(self):
        record = explain_rejection(
            "no feasible selection: need 100 nodes, only 8 exist",
            snapshot_epoch=4, snapshot_age_s=1.5,
        )
        assert record.rejection.startswith("no feasible selection")
        assert record.snapshot_epoch == 4
        assert record.staleness["snapshot_age_s"] == 1.5
        assert record.nodes == ()
        assert record.bottleneck is None


class TestStaleness:
    def test_staleness_collects_input_ages(self, figure2_graph):
        figure2_graph.node("l0").attrs["age_s"] = 7.0
        figure2_graph.link("sw-left", "sw-right").attrs["stale"] = True
        spec = ApplicationSpec(num_nodes=5, objective=Objective.BANDWIDTH)
        selection = NodeSelector(figure2_graph).select(spec, explain=True)
        record = selection.extras[ExtrasKey.EXPLAIN]
        if "l0" in selection.nodes:
            assert record.staleness["node_age_s"]["l0"] == 7.0
        assert "sw-left--sw-right" in record.staleness["stale_links"]
