"""Remos — the network-information query substrate (paper §2.2).

A faithful model of the Remos LAN implementation: simulated SNMP agents on
every device export octet counters and host load (laid out as an interface
table and a host table, walked as columns); a polling collector turns counter deltas into
utilization history (ring matrices, one column per resource); and
:class:`RemosAPI` answers flow queries and logical-topology queries through
a pluggable forecast policy.
The selection framework (:class:`repro.core.NodeSelector`) consumes a
``RemosAPI`` directly as its topology provider.
"""

from .api import (
    DegradedPolicy,
    LinkInfo,
    NodeInfo,
    RemosAPI,
    apply_degraded_policy,
)
from .collector import Collector, ResourceStatus
from .predictor import Ewma, LastValue, Predictor, SlidingMean
from .snmp import (
    AgentTimeout,
    HostAgent,
    HostTable,
    InterfaceAgent,
    InterfaceRecord,
    InterfaceTable,
)

__all__ = [
    "AgentTimeout",
    "Collector",
    "DegradedPolicy",
    "Ewma",
    "HostAgent",
    "HostTable",
    "InterfaceAgent",
    "InterfaceRecord",
    "InterfaceTable",
    "LastValue",
    "LinkInfo",
    "NodeInfo",
    "Predictor",
    "RemosAPI",
    "ResourceStatus",
    "SlidingMean",
    "apply_degraded_policy",
]
