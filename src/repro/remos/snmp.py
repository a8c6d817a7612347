"""Simulated SNMP agents.

The real Remos LAN implementation gathers link statistics by polling SNMP
daemons on network devices and host statistics from the compute nodes.  We
model that layer honestly: an :class:`InterfaceAgent` per device exposes
monotonically increasing per-interface octet counters read from the fabric
(the equivalent of ``ifOutOctets``), and a :class:`HostAgent` exposes the
host's damped load average.  The collector (:mod:`repro.remos.collector`)
only ever sees what these agents answer — never the fabric's
instantaneous truth — so Remos queries inherit realistic measurement lag
and quantization.

Agents also model the ways real SNMP daemons misbehave:

- a request to a crashed host, or to a device inside a silence window set
  by the fault injector, goes unanswered (:class:`AgentTimeout` from a
  single ``read()``, a name in the failed list of a walk);
- interface counters may be bounded (``counter_bits=32`` reproduces the
  classic 32-bit ``ifOutOctets`` wrap at 2^32 octets);
- :meth:`InterfaceAgent.reset_counters` reproduces a device reboot, after
  which counters restart near zero.

**Layout.**  Every device's interfaces are rows of one
:class:`InterfaceTable` — agent after agent, each agent's interfaces in
link order — holding, per row, the slot of the fabric counter it exports
and the base a reboot subtracts from it.  A poll round is
:meth:`InterfaceTable.walk` over the named devices: reachability, base
and wrap are applied here, agent-side, and what comes back is columns
(which rows answered, what their counters read).  ``InterfaceAgent.read()``
is the one-device case of the same walk.  Host agents are walked the same
way (:func:`walk_hosts`), one ``Host.load_average`` read per answering
host.
"""

from __future__ import annotations

from typing import Collection, NamedTuple, Optional

import numpy as np

from ..network.cluster import Cluster
from ..network.fabric import ChannelId

__all__ = [
    "AgentTimeout",
    "InterfaceRecord",
    "InterfaceAgent",
    "InterfaceTable",
    "HostAgent",
    "build_agents",
    "walk_hosts",
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


def _timed_out(agents: dict, names: Collection[str], now: float) -> list[str]:
    """Which of the named agents do not answer a request made at
    ``now`` (pass order).  The one place the reachability rule lives,
    and no call per agent."""
    return [
        name
        for name in names
        if now < (agent := agents[name]).silent_until
        or ((host := agent._host) is not None and not host.up)
    ]


class InterfaceTable:
    """The interface rows of every device's agent, walked as columns.

    Row ``r`` is one (device, interface): ``row_channels[r]`` is the
    channel it reports, ``channel[r]`` that channel's number (channels
    are numbered in order of first appearance; a half-duplex channel is
    a row of both endpoint agents and one number), ``base[r]`` what a
    reboot subtracts.  ``agents[device].rows`` is the device's slice.

    Parameters
    ----------
    counter_bits:
        If set, exported octet counters are bounded at ``2**counter_bits``
        octets and wrap (32 reproduces SNMPv1 ``ifOutOctets``).  Default
        None: unbounded counters, the pre-fault-model behaviour.
    """

    def __init__(
        self, cluster: Cluster, counter_bits: Optional[int] = None
    ) -> None:
        self.cluster = cluster
        self.counter_bits = counter_bits
        #: Counter modulus in octets, or None for unbounded counters.
        self.counter_max: Optional[float] = (
            None if counter_bits is None else float(2 ** counter_bits)
        )
        self.agents: dict[str, InterfaceAgent] = {}
        graph = cluster.graph
        rows: list[ChannelId] = []
        for node in graph.nodes():
            device = node.name
            first = len(rows)
            for link in graph.incident_links(device):
                if link.attrs.get("duplex") == "half":
                    rows.append((link.key, "shared"))
                else:
                    # The outbound direction: towards the other endpoint.
                    rows.append((link.key, link.other(device)))
            self.agents[device] = InterfaceAgent(
                self, device, slice(first, len(rows)), tuple(rows[first:])
            )
        self.row_channels: tuple[ChannelId, ...] = tuple(rows)
        #: channel id -> channel number
        self.channel_number: dict[ChannelId, int] = {}
        for cid in rows:
            self.channel_number.setdefault(cid, len(self.channel_number))
        self.channel_ids: tuple[ChannelId, ...] = tuple(self.channel_number)
        self.channel = np.array(
            [self.channel_number[cid] for cid in rows], dtype=np.intp
        )
        #: How many agents report each channel (2 for half duplex).
        self.reporters = np.bincount(
            self.channel, minlength=len(self.channel_ids)
        )
        fabric = cluster.fabric
        self._fabric_index = np.array(
            [fabric.channel_index(cid) for cid in rows], dtype=np.intp
        )
        #: Per-row baseline subtracted from the fabric's cumulative
        #: counter — advanced by reset_counters() to model a reboot.
        self.base = np.zeros(len(rows))
        self._all_rows = np.arange(len(rows), dtype=np.intp)

    def walk(
        self, names: Collection[str], now: float
    ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """One SNMP walk over the named devices at time ``now``.

        Returns ``(failed, rows, octets)``: the devices that did not
        answer, the table rows that did (pass order), and their counter
        readings — base subtracted, wrapped at the counter modulus.
        """
        agents = self.agents
        failed = _timed_out(agents, names, now)
        if names is agents and not failed:
            rows = self._all_rows  # a clean full round: the table, in order
        else:
            dead = set(failed)
            answered = [
                self._all_rows[agents[name].rows]
                for name in names
                if name not in dead
            ]
            if not answered:
                # Nobody read a counter, so the fabric is not settled:
                # settling splits its byte sums at another instant.
                return failed, self._all_rows[:0], self.base[:0]
            rows = np.concatenate(answered)
        counters = self.cluster.fabric.octet_counters()
        octets = counters[self._fabric_index[rows]] - self.base[rows]
        if self.counter_max is not None:
            octets %= self.counter_max
        return failed, rows, octets

    def speeds(self, rows) -> list[float]:
        """``ifSpeed`` of the given rows, in bps, as of now."""
        capacity = self.cluster.fabric.capacities()
        channels = self.row_channels
        return [capacity[channels[r]] for r in rows]


class InterfaceAgent(_FaultyAgent):
    """SNMP agent on one device, exporting counters for incident channels.

    Each directional channel whose traffic *leaves* this device appears as
    one interface.  (For half-duplex links the single shared channel is
    reported by both endpoint agents; the collector deduplicates by channel
    id.)  An agent is its device's slice of an :class:`InterfaceTable`.
    """

    def __init__(
        self,
        table: InterfaceTable,
        device: str,
        rows: slice,
        interfaces: tuple[ChannelId, ...],
    ) -> None:
        super().__init__(table.cluster, device)
        self.table = table
        self.device = device
        #: This device's rows of the table.
        self.rows = rows
        #: Channel ids of the interfaces this agent reports.
        self.interfaces = interfaces
        self.counter_bits = table.counter_bits
        #: Counter modulus in octets, or None for unbounded counters.
        self.counter_max = table.counter_max

    def reset_counters(self) -> None:
        """Model a device reboot: all exported counters restart at zero."""
        table = self.table
        counters = self.cluster.fabric.octet_counters()
        table.base[self.rows] = counters[table._fabric_index[self.rows]]

    def read(self) -> list[InterfaceRecord]:
        """Poll all interfaces (a one-device SNMP walk)."""
        table = self.table
        now = self.cluster.sim.now
        failed, rows, octets = table.walk((self.device,), now)
        if failed:
            raise AgentTimeout(f"agent on {self.device!r} not responding")
        return [
            InterfaceRecord(
                table.row_channels[r], speed, out, now, table.counter_max
            )
            for r, speed, out in zip(
                rows.tolist(), table.speeds(rows.tolist()), octets.tolist()
            )
        ]


class HostAgent(_FaultyAgent):
    """Per-host agent exporting the load average (rstat/host-MIB style)."""

    def __init__(self, cluster: Cluster, host: str) -> None:
        cluster.host(host)  # KeyError for anything but a compute node
        super().__init__(cluster, host)
        self.host = host

    def read(self) -> tuple[float, float]:
        """(timestamp, load_average) for the host."""
        now = self.cluster.sim.now
        failed, _, loads = walk_hosts({self.host: self}, (self.host,), now)
        if failed:
            raise AgentTimeout(f"agent on {self.host!r} not responding")
        return now, loads[0]


def walk_hosts(
    agents: dict[str, HostAgent], names: Collection[str], now: float
) -> tuple[list[str], list[str], list[float]]:
    """Poll the named host agents once at time ``now``.

    Returns ``(failed, answered, loads)``: the hosts whose agent did not
    answer, those whose did, and their load averages (pass order).
    ``Host.load_average`` is read host by host: its ``math.exp`` damping
    is the simulator's truth, and ``np.exp`` may differ from it by an ulp.
    """
    failed = _timed_out(agents, names, now)
    if failed:
        dead = set(failed)
        answered = [name for name in names if name not in dead]
    else:
        answered = list(names)
    return (
        failed,
        answered,
        [agents[name]._host.load_average for name in answered],
    )


def build_agents(
    cluster: Cluster,
    counter_bits: Optional[int] = None,
) -> tuple[dict[str, InterfaceAgent], dict[str, HostAgent]]:
    """One interface agent per device (the slices of one
    :class:`InterfaceTable`, reachable as ``agent.table``) and one host
    agent per compute node."""
    iface = InterfaceTable(cluster, counter_bits=counter_bits).agents
    hosts = {name: HostAgent(cluster, name) for name in cluster.hosts}
    return iface, hosts
