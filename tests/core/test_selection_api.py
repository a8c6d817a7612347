"""The unified selection API: one dispatch + ``repro.select``.

Covers which procedure each spec dispatches to, the ``extras["procedure"]``
provenance key, the documented extras schema, and the one-call
``repro.select`` entry point.
"""

from __future__ import annotations

import pytest

import repro
from repro.core import (
    EXTRAS_SCHEMA,
    ApplicationSpec,
    ExtrasKey,
    NodeSelector,
    Objective,
    select,
)
from repro.topology import dumbbell, fat_tree_pod, star
from repro.units import Mbps


class TestProcedureRegistry:
    def test_dispatch_names(self):
        sel = NodeSelector(star(8))
        cases = [
            (ApplicationSpec(num_nodes=4), "balanced"),
            (ApplicationSpec(num_nodes=4, objective=Objective.COMPUTE),
             "max-compute"),
            (ApplicationSpec(num_nodes=4, objective=Objective.BANDWIDTH),
             "max-bandwidth"),
            (ApplicationSpec(num_nodes=4, min_bandwidth_bps=10 * Mbps),
             "bandwidth-floor"),
            (ApplicationSpec(num_nodes=4, min_cpu_fraction=0.2), "cpu-floor"),
            (ApplicationSpec(num_nodes=4, max_latency_s=1.0), "latency-bound"),
            (ApplicationSpec(num_nodes=4, account_simultaneous_streams=True),
             "pattern-aware"),
            (ApplicationSpec(num_nodes=2, num_nodes_range=[2, 3],
                             speedup_model=lambda m: float(m)), "variable-m"),
        ]
        for spec, expected in cases:
            assert sel.select(spec).extras[ExtrasKey.PROCEDURE] == expected

    def test_cyclic_graph_dispatches_routed(self):
        out = NodeSelector(fat_tree_pod()).select(ApplicationSpec(num_nodes=4))
        assert out.extras[ExtrasKey.PROCEDURE] == "routed"

    def test_procedure_recorded_in_extras(self):
        out = NodeSelector(star(8)).select(ApplicationSpec(num_nodes=4))
        assert out.extras[ExtrasKey.PROCEDURE] == "balanced"
        out = NodeSelector(star(8)).select(
            ApplicationSpec(num_nodes=4, min_bandwidth_bps=1.0)
        )
        assert out.extras[ExtrasKey.PROCEDURE] == "bandwidth-floor"

    def test_feature_outranks_objective(self):
        spec = ApplicationSpec(
            num_nodes=4,
            objective=Objective.COMPUTE,
            min_bandwidth_bps=1.0,
        )
        out = NodeSelector(star(8)).select(spec)
        assert out.extras[ExtrasKey.PROCEDURE] == "bandwidth-floor"


class TestTopLevelSelect:
    def test_kwargs_build_a_spec(self):
        out = repro.select(star(8), num_nodes=4)
        assert len(out.nodes) == 4
        assert out.extras[ExtrasKey.PROCEDURE] == "balanced"

    def test_explicit_spec(self):
        out = select(star(8), ApplicationSpec(num_nodes=3))
        assert len(out.nodes) == 3

    def test_spec_and_kwargs_conflict(self):
        with pytest.raises(TypeError):
            select(star(8), ApplicationSpec(num_nodes=3), num_nodes=4)

    def test_provider_accepted(self):
        class Provider:
            def topology(self):
                return dumbbell(3, 3)

        out = select(Provider(), num_nodes=2)
        assert len(out.nodes) == 2

    def test_health_gating_applies(self):
        g = star(5)
        g.node("h0").attrs["down"] = True
        out = select(g, num_nodes=4)
        assert "h0" not in out.nodes


class TestExtrasSchema:
    def test_every_key_documented(self):
        declared = {
            v for k, v in vars(ExtrasKey).items()
            if not k.startswith("_") and isinstance(v, str)
        }
        assert declared == set(EXTRAS_SCHEMA)

    def test_runtime_extras_stay_within_schema(self):
        sel = NodeSelector(star(8))
        for spec in (
            ApplicationSpec(num_nodes=4),
            ApplicationSpec(num_nodes=4, max_latency_s=10.0),
            ApplicationSpec(num_nodes=2, num_nodes_range=[2, 3],
                            speedup_model=lambda m: float(m)),
            ApplicationSpec(num_nodes=4, account_simultaneous_streams=True),
        ):
            out = sel.select(spec)
            assert set(out.extras) <= set(EXTRAS_SCHEMA), out.extras
