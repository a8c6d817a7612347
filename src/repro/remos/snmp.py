"""Simulated SNMP agents.

The real Remos LAN implementation gathers link statistics by polling SNMP
daemons on network devices and host statistics from the compute nodes.  We
model that layer honestly: an :class:`InterfaceAgent` per device exposes
monotonically increasing per-interface octet counters read from the fabric
(the equivalent of ``ifOutOctets``), and a :class:`HostAgent` exposes the
host's damped load average.  The collector (:mod:`repro.remos.collector`)
only ever sees these agents — never the fabric's instantaneous truth — so
Remos queries inherit realistic measurement lag and quantization.

Agents also model the ways real SNMP daemons misbehave:

- a request to a crashed host, or to a device inside a silence window set
  by the fault injector, raises :class:`AgentTimeout` (an unanswered poll);
- interface counters may be bounded (``counter_bits=32`` reproduces the
  classic 32-bit ``ifOutOctets`` wrap at 2^32 octets);
- :meth:`InterfaceAgent.reset_counters` reproduces a device reboot, after
  which counters restart near zero.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..network.cluster import Cluster
from ..network.fabric import ChannelId

__all__ = [
    "AgentTimeout",
    "InterfaceRecord",
    "InterfaceAgent",
    "HostAgent",
    "build_agents",
]


class AgentTimeout(Exception):
    """An SNMP request went unanswered (crashed node, drop, or overload)."""


class InterfaceRecord(NamedTuple):
    """One interface counter reading (an SNMP GET response).

    ``counter_max`` is the counter modulus in octets (``2**counter_bits``)
    when the device exports bounded counters, else None; the collector
    needs it to disambiguate wraps from resets.
    """

    channel: ChannelId
    speed_bps: float
    out_octets: float
    timestamp: float
    counter_max: Optional[float] = None


class _FaultyAgent:
    """Shared unreliability state: a silence window set by fault injection
    and, on a compute node, the host whose crash takes the agent down."""

    def __init__(self, cluster: Cluster, device: str) -> None:
        self.cluster = cluster
        self.silent_until = float("-inf")
        #: Network devices have no host: they are always up in this model.
        self._host = cluster.hosts.get(device)

    def silence_for(self, seconds: float) -> None:
        """Make the agent unresponsive for ``seconds`` from now."""
        if seconds < 0:
            raise ValueError(f"silence duration cannot be negative: {seconds}")
        now = self.cluster.sim.now
        self.silent_until = max(self.silent_until, now + seconds)

    def _check_reachable(self, device: str) -> None:
        now = self.cluster.sim.now
        if now < self.silent_until:
            raise AgentTimeout(f"agent on {device!r} not responding")
        if self._host is not None and not self._host.up:
            raise AgentTimeout(f"agent on {device!r} unreachable (node down)")


class InterfaceAgent(_FaultyAgent):
    """SNMP agent on one device, exporting counters for incident channels.

    Each directional channel whose traffic *leaves* this device appears as
    one interface.  (For half-duplex links the single shared channel is
    reported by both endpoint agents; the collector deduplicates by channel
    id.)

    Parameters
    ----------
    counter_bits:
        If set, exported octet counters are bounded at ``2**counter_bits``
        octets and wrap (32 reproduces SNMPv1 ``ifOutOctets``).  Default
        None: unbounded counters, the pre-fault-model behaviour.
    """

    def __init__(
        self,
        cluster: Cluster,
        device: str,
        counter_bits: Optional[int] = None,
    ) -> None:
        super().__init__(cluster, device)
        self.device = device
        self.counter_bits = counter_bits
        self._channels: list[ChannelId] = []
        #: per-channel baseline subtracted from the fabric's cumulative
        #: counter — advanced by reset_counters() to model a reboot.
        self._base: dict[ChannelId, float] = {}
        graph = cluster.graph
        for link in graph.incident_links(device):
            if link.attrs.get("duplex") == "half":
                self._channels.append((link.key, "shared"))
            else:
                # The outbound direction: towards the other endpoint.
                self._channels.append((link.key, link.other(device)))
        for cid in self._channels:
            self._base[cid] = 0.0

    @property
    def interfaces(self) -> list[ChannelId]:
        """Channel ids of the interfaces this agent reports."""
        return list(self._channels)

    @property
    def counter_max(self) -> Optional[float]:
        """Counter modulus in octets, or None for unbounded counters."""
        if self.counter_bits is None:
            return None
        return float(2 ** self.counter_bits)

    def reset_counters(self) -> None:
        """Model a device reboot: all exported counters restart at zero."""
        fab = self.cluster.fabric
        for cid in self._channels:
            self._base[cid] = fab.octet_counter(cid)

    def read(self) -> list[InterfaceRecord]:
        """Poll all interfaces (one SNMP walk)."""
        self._check_reachable(self.device)
        fab = self.cluster.fabric
        capacity, octets = fab.capacity, fab.octet_counters()
        now = self.cluster.sim.now
        base = self._base
        wrap = self.counter_max
        return [
            InterfaceRecord(
                cid,
                capacity(cid),
                octets[cid] - base[cid] if wrap is None
                else (octets[cid] - base[cid]) % wrap,
                now,
                wrap,
            )
            for cid in self._channels
        ]


class HostAgent(_FaultyAgent):
    """Per-host agent exporting the load average (rstat/host-MIB style)."""

    def __init__(self, cluster: Cluster, host: str) -> None:
        cluster.host(host)  # KeyError for anything but a compute node
        super().__init__(cluster, host)
        self.host = host

    def read(self) -> tuple[float, float]:
        """(timestamp, load_average) for the host."""
        self._check_reachable(self.host)
        return self.cluster.sim.now, self._host.load_average


def build_agents(
    cluster: Cluster,
    counter_bits: Optional[int] = None,
) -> tuple[dict[str, InterfaceAgent], dict[str, HostAgent]]:
    """One interface agent per device and one host agent per compute node."""
    iface = {
        node.name: InterfaceAgent(cluster, node.name, counter_bits=counter_bits)
        for node in cluster.graph.nodes()
    }
    hosts = {name: HostAgent(cluster, name) for name in cluster.hosts}
    return iface, hosts
