"""Node selection — the paper's primary contribution (§3).

Fundamental algorithms (§3.2):

- :func:`select_max_compute` — maximize available computation capacity.
- :func:`select_max_bandwidth` — Figure 2: maximize the minimum available
  bandwidth between any pair of selected nodes.
- :func:`select_balanced` — Figure 3: maximize the minimum of fractional
  compute and communication capacity.

Generalizations (§3.3–§3.4): floors, routed/cyclic topologies, group
placement, variable node counts, and dynamic migration.  Baselines used by
the evaluation: random, static, exhaustive-optimal.

The :class:`NodeSelector` facade dispatches an :class:`ApplicationSpec`
against a topology provider (typically the Remos API).
"""

from .baselines import select_exhaustive, select_random, select_static
from .compute import select_max_compute, top_compute_nodes
from .estimate import PhaseWorkload, estimate_runtime, speedup_model
from .kernel import (
    peel_order,
    select_balanced,
    select_max_bandwidth,
    select_with_bandwidth_floor,
)
from .latency import max_pairwise_latency, select_with_latency_bound
from .reference import (
    reference_select_balanced,
    reference_select_max_bandwidth,
    reference_select_with_bandwidth_floor,
)
from .requirements import NodeRequirements
from .generalized import (
    select_client_server,
    select_routed,
    select_variable_nodes,
    select_with_cpu_floor,
)
from .metrics import (
    References,
    link_bandwidth_fraction,
    min_cpu_fraction,
    min_pairwise_bandwidth,
    min_pairwise_bandwidth_fraction,
    minresource,
    node_compute_fraction,
)
from .migration import MigrationAdvisor, MigrationDecision, SelfFootprint
from .pattern_aware import (
    effective_pattern_bandwidth,
    pattern_flows,
    select_pattern_aware,
)
from .selector import (
    NodeSelector,
    TopologyProvider,
    select,
    unhealthy_nodes,
)
from .spec import ApplicationSpec, CommPattern, GroupSpec, Objective
from .types import (
    EXTRAS_SCHEMA,
    ExtrasKey,
    NoFeasibleSelection,
    Selection,
    node_is_selectable,
)

__all__ = [
    "ApplicationSpec",
    "CommPattern",
    "EXTRAS_SCHEMA",
    "ExtrasKey",
    "GroupSpec",
    "MigrationAdvisor",
    "MigrationDecision",
    "NoFeasibleSelection",
    "NodeRequirements",
    "NodeSelector",
    "Objective",
    "PhaseWorkload",
    "References",
    "Selection",
    "SelfFootprint",
    "TopologyProvider",
    "link_bandwidth_fraction",
    "min_cpu_fraction",
    "min_pairwise_bandwidth",
    "min_pairwise_bandwidth_fraction",
    "max_pairwise_latency",
    "minresource",
    "node_compute_fraction",
    "node_is_selectable",
    "peel_order",
    "reference_select_balanced",
    "reference_select_max_bandwidth",
    "reference_select_with_bandwidth_floor",
    "unhealthy_nodes",
    "effective_pattern_bandwidth",
    "estimate_runtime",
    "pattern_flows",
    "select",
    "select_balanced",
    "select_client_server",
    "select_exhaustive",
    "select_max_bandwidth",
    "select_max_compute",
    "select_pattern_aware",
    "select_random",
    "select_routed",
    "select_static",
    "speedup_model",
    "select_variable_nodes",
    "select_with_bandwidth_floor",
    "select_with_latency_bound",
    "select_with_cpu_floor",
    "top_compute_nodes",
]
