"""Logical network topology graphs — the Remos graph model (paper §3.1).

This subpackage provides the data structure the node-selection algorithms
operate on (:class:`TopologyGraph` of compute/network nodes and links with
peak and available bandwidth), static routing for cyclic networks, builders
for standard shapes including the paper's Figure 1 example, and JSON/DOT
serialization.
"""

from .builders import (
    balanced_tree,
    two_campus,
    dumbbell,
    fat_tree_pod,
    figure1_network,
    grid,
    linear_lan_chain,
    random_tree,
    star,
    torus,
)
from .graph import (
    SHARED,
    ChannelId,
    Link,
    Measurement,
    Node,
    NodeKind,
    TopologyGraph,
    cpu_fraction,
    load_from_cpu_fraction,
)
from .residual import residual_graph
from .routing import RoutedView
from .serialize import from_dict, from_json, to_dict, to_dot, to_json

__all__ = [
    "SHARED",
    "ChannelId",
    "Link",
    "Measurement",
    "Node",
    "NodeKind",
    "RoutedView",
    "TopologyGraph",
    "balanced_tree",
    "cpu_fraction",
    "dumbbell",
    "fat_tree_pod",
    "figure1_network",
    "from_dict",
    "from_json",
    "grid",
    "linear_lan_chain",
    "load_from_cpu_fraction",
    "random_tree",
    "residual_graph",
    "star",
    "to_dict",
    "to_dot",
    "to_json",
    "torus",
    "two_campus",
]
