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

**Layout.**  Each family of agents is one table, walked as columns:
every device's interfaces are rows of one :class:`InterfaceTable` —
agent after agent, each agent's interfaces in link order — holding, per
row, the slot of the fabric counter it exports and the base a reboot
subtracts from it, and every compute node's host agent is a row of one
:class:`HostTable`.  A poll round is ``table.walk(names, now)``:
reachability, base and wrap are applied here, agent-side, and what comes
back is columns (which rows answered, what they read).  An agent's
``read()`` is the one-agent case of the same walk.  A walk over a whole
table asks only what can differ: the agents the table has ``silenced``,
those on a host in ``Cluster.awake`` (loaded, decaying or down), and
only the answered awake hosts' ``Host.load_average`` (others read 0.0).
"""

from __future__ import annotations

from array import array
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
    "HostTable",
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
    and, on a compute node, the host whose crash takes the agent down;
    ``index`` is the agent's place in pass order, ``rows`` its slice."""

    def __init__(self, table, name: str, index: int, rows: slice) -> None:
        self.table = table
        self.cluster: Cluster = table.cluster
        self.name = name
        self.index = index
        self.rows = rows
        self.silent_until = float("-inf")
        #: Network devices have no host: they are always up in this model.
        self._host = self.cluster.hosts.get(name)

    def silence_for(self, seconds: float) -> None:
        """Make the agent unresponsive for ``seconds`` from now."""
        if seconds < 0:
            raise ValueError(f"silence duration cannot be negative: {seconds}")
        now = self.cluster.sim.now
        self.silent_until = max(self.silent_until, now + seconds)
        self.table.silenced.add(self.name)


def _timed_out(table, names: Collection[str], now: float) -> list[str]:
    """Which of the named agents of ``table`` do not answer a request
    made at ``now`` (pass order): the one place the reachability rule
    lives.  A full walk (``names is table.agents``) tests only the
    silenced (dropping those whose window ended) and the awake."""
    agents = table.agents
    full = names is agents
    if full:
        silenced = table.silenced
        silenced.difference_update(
            [name for name in silenced if now >= agents[name].silent_until]
        )
        # Tested in place: every awake host is in every family.
        awake = table.cluster.awake
        names = silenced.union(awake) if silenced else awake
    failed = [
        name
        for name in names
        if now < (agent := agents[name]).silent_until
        or ((host := agent._host) is not None and not host.up)
    ]
    if full:
        failed.sort(key=lambda name: agents[name].index)
    return failed


def _answered_rows(table, names: Collection[str], failed: list[str]):
    """The rows of the named agents not in ``failed``, in pass order:
    ``table.all_rows`` itself when a full walk failed nowhere."""
    agents, rows = table.agents, table.all_rows
    if names is not agents:
        dead = set(failed)
        answered = [rows[agents[n].rows] for n in names if n not in dead]
        return np.concatenate(answered) if answered else rows[:0]
    if failed:
        keep = np.ones(len(rows), dtype=bool)
        for name in failed:
            keep[agents[name].rows] = False
        rows = rows[keep]
    return rows


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
        #: Devices whose silence window may not have ended.
        self.silenced: set[str] = set()
        graph = cluster.graph
        rows: list[ChannelId] = []
        for node in graph.nodes():
            device = node.name
            first = len(rows)
            for link in graph.incident_links(device):
                # The outbound direction: towards the other endpoint.
                rows.append(link.channel(link.other(device)))
            self.agents[device] = InterfaceAgent(
                self, device, len(self.agents), slice(first, len(rows)),
                tuple(rows[first:]),
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
        #: Every row, in order: what a full walk that every agent
        #: answered returns (this very array, so ``is`` tells).
        self.all_rows = np.arange(len(rows), dtype=np.intp)

    def walk(
        self, names: Collection[str], now: float
    ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """One SNMP walk over the named devices at time ``now``.

        Returns ``(failed, rows, octets)``: the devices that did not
        answer, the table rows that did (pass order), and their counter
        readings — base subtracted, wrapped at the counter modulus.
        """
        failed = _timed_out(self, names, now)
        rows = _answered_rows(self, names, failed)
        if not len(rows):
            # Nobody read a counter, so the fabric is not settled:
            # settling splits its byte sums at another instant.
            return failed, rows, self.base[:0]
        counters = self.cluster.fabric.octet_counters()
        at = slice(None) if rows is self.all_rows else rows
        octets = counters[self._fabric_index[at]] - self.base[at]
        if self.counter_max is not None:
            octets %= self.counter_max
        return failed, rows, octets

    def speeds(self, rows) -> np.ndarray:
        """``ifSpeed`` of the given rows, in bps, as of now."""
        return self.cluster.fabric.capacity_column()[self._fabric_index[rows]]


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
        index: int,
        rows: slice,
        interfaces: tuple[ChannelId, ...],
    ) -> None:
        super().__init__(table, device, index, rows)
        #: Channel ids of the interfaces this agent reports.
        self.interfaces = interfaces

    def reset_counters(self) -> None:
        """Model a device reboot: all exported counters restart at zero."""
        table = self.table
        counters = self.cluster.fabric.octet_counters()
        table.base[self.rows] = counters[table._fabric_index[self.rows]]

    def read(self) -> list[InterfaceRecord]:
        """Poll all interfaces (a one-device SNMP walk)."""
        table = self.table
        now = self.cluster.sim.now
        failed, rows, octets = table.walk((self.name,), now)
        if failed:
            raise AgentTimeout(f"agent on {self.name!r} not responding")
        return [
            InterfaceRecord(
                table.row_channels[r], speed, out, now, table.counter_max
            )
            for r, speed, out in zip(
                rows.tolist(), table.speeds(rows).tolist(), octets.tolist()
            )
        ]


class HostTable:
    """The host agent of every compute node, one row each (cluster
    order), walked as one column of load averages."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._row = {name: i for i, name in enumerate(cluster.hosts)}
        self.agents: dict[str, HostAgent] = {
            name: HostAgent(self, name, i, slice(i, i + 1))
            for name, i in self._row.items()
        }
        #: Hosts whose agent's silence window may not have ended.
        self.silenced: set[str] = set()
        #: Every row, in order (see :attr:`InterfaceTable.all_rows`).
        self.all_rows = np.arange(len(self.agents), dtype=np.intp)

    def walk(
        self, names: Collection[str], now: float
    ) -> tuple[list[str], np.ndarray, np.ndarray]:
        """Poll the named host agents once at time ``now``.

        Returns ``(failed, rows, loads)``: the hosts whose agent did not
        answer, the rows that did (pass order) and their load averages.
        ``Host.load_average`` is read host by host: its ``math.exp``
        damping is the simulator's truth, and ``np.exp`` may differ from
        it by an ulp.  A full walk reads it for the answered awake hosts
        only: any other would read 0.0.
        """
        agents = self.agents
        failed = _timed_out(self, names, now)
        rows = _answered_rows(self, names, failed)
        # A copy: reading a load average may take a host out of ``awake``.
        asked = set(self.cluster.awake if names is agents else names)
        asked.difference_update(failed)
        hosts, row = self.cluster.hosts, self._row
        # Doubles written one by one, cheaper than numpy's element write.
        loads = array("d", [0.0]) * len(agents)
        for name in asked:
            loads[row[name]] = hosts[name].load_average
        column = np.frombuffer(loads)
        return failed, rows, column if rows is self.all_rows else column[rows]


class HostAgent(_FaultyAgent):
    """Per-host agent exporting the load average (rstat/host-MIB style):
    its host's row of a :class:`HostTable`."""

    def read(self) -> tuple[float, float]:
        """(timestamp, load_average) for the host (a one-row walk)."""
        now = self.cluster.sim.now
        failed, _, loads = self.table.walk((self.name,), now)
        if failed:
            raise AgentTimeout(f"agent on {self.name!r} not responding")
        return now, loads.item(0)

