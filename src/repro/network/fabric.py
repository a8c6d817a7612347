"""The flow-level network fabric.

Transfers between nodes become *flows* along statically routed paths.  At
any instant the rate of every flow is the max-min fair allocation over the
directional link channels it crosses (:mod:`repro.network.fairshare`); when
flows start or finish the allocation is recomputed and the pending
completion re-scheduled — the standard flow-level network simulation
technique, which captures exactly what matters to the paper (who shares
which link, and the resulting available bandwidth) without per-packet cost.

Each topology link is modelled as the channels
:meth:`~repro.topology.graph.Link.channel` names: two directional ones
(full duplex, the default) or one shared one (half duplex).  Per-channel
byte counters are maintained for the simulated SNMP agents in
:mod:`repro.remos.snmp`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..des.events import Event
from ..des.simulator import Simulator
from ..topology.graph import ChannelId, TopologyGraph
from ..units import BITS_PER_BYTE
from .fairshare import max_min_fair

__all__ = ["Fabric", "Flow", "ChannelId"]


class Flow:
    """One in-flight transfer.

    ``done`` fires with the flow's elapsed transfer time when the last byte
    drains.  ``rate`` is the currently allocated bandwidth (bps).
    ``index`` holds the octet-counter slots of ``channels``.
    """

    __slots__ = (
        "fid", "src", "dst", "size_bytes", "remaining_bytes",
        "channels", "index", "rate", "done", "started_at",
    )

    def __init__(
        self,
        fid: int,
        src: str,
        dst: str,
        size_bytes: float,
        channels: list[ChannelId],
        index: np.ndarray,
        done: Event,
        started_at: float,
    ) -> None:
        self.fid = fid
        self.src = src
        self.dst = dst
        self.size_bytes = float(size_bytes)
        self.remaining_bytes = float(size_bytes)
        self.channels = channels
        self.index = index
        self.rate = 0.0
        self.done = done
        self.started_at = started_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Flow {self.src}->{self.dst} "
            f"{self.remaining_bytes:.0f}/{self.size_bytes:.0f}B>"
        )


class Fabric:
    """Flow-level simulator for one topology.

    Parameters
    ----------
    sim:
        Simulation kernel.
    graph:
        The *physical* topology; ``maxbw`` per link is the channel capacity.
        The graph is not mutated — current utilization lives in the fabric.
        Every transfer takes the graph's fixed route
        (:meth:`~repro.topology.TopologyGraph.path`).
    """

    def __init__(self, sim: Simulator, graph: TopologyGraph) -> None:
        self.sim = sim
        self.graph = graph
        self._flows: dict[int, Flow] = {}
        self._next_fid = 0
        self._capacities: dict[ChannelId, float] = {}
        for link in graph.links():
            for cid in link.channels():
                self._capacities[cid] = link.maxbw
        #: channel -> its slot in the octet-counter column
        self._index: dict[ChannelId, int] = {
            cid: i for i, cid in enumerate(self._capacities)
        }
        self._octets = np.zeros(len(self._index))
        #: The capacities once more, as a column in counter-slot order.
        self._capacity = np.array(list(self._capacities.values()), dtype=float)
        self._last_settle = sim.now
        self._wake: Optional[Event] = None

    # -- channel bookkeeping ---------------------------------------------------
    def channel_for(self, u: str, v: str) -> ChannelId:
        """The channel carrying traffic from ``u`` to ``v`` over link u--v."""
        return self.graph.link(u, v).channel(v)

    def channels(self) -> list[ChannelId]:
        """All channel ids."""
        return list(self._capacities)

    def capacity(self, cid: ChannelId) -> float:
        return self._capacities[cid]

    def capacities(self) -> dict[ChannelId, float]:
        """Every channel's capacity in bps (read-only)."""
        return self._capacities

    def capacity_column(self) -> np.ndarray:
        """:meth:`capacities` as a column indexed by :meth:`channel_index`
        (read-only): what an SNMP walk reads as ``ifSpeed``."""
        return self._capacity

    def channel_index(self, cid: ChannelId) -> int:
        """The channel's slot in :meth:`octet_counters`."""
        return self._index[cid]

    def octet_counter(self, cid: ChannelId) -> float:
        """Cumulative bytes carried by the channel (SNMP ifOutOctets-like)."""
        self._settle()
        return float(self._octets[self._index[cid]])

    def octet_counters(self) -> np.ndarray:
        """Every channel's cumulative byte counter, settled to now, as
        one column indexed by :meth:`channel_index`: what an SNMP walk
        over the devices' interfaces reads (read-only)."""
        self._settle()
        return self._octets

    def used_bandwidth(self, cid: ChannelId) -> float:
        """Sum of flow rates currently crossing the channel (bps)."""
        return sum(
            f.rate for f in self._flows.values() if cid in f.channels
        )

    def available_bandwidth(self, cid: ChannelId) -> float:
        """Capacity minus instantaneous use (bps) — the ground truth."""
        return max(0.0, self._capacities[cid] - self.used_bandwidth(cid))

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def set_capacity(self, cid: ChannelId, capacity_bps: float) -> None:
        """Change a channel's capacity at runtime (degradation/repair).

        Models events outside the flow population — a link renegotiating a
        lower rate, an operator cap, partial failure (capacity 0 stalls
        flows until repair).  In-flight transfers are settled at their old
        rates first, then re-allocated under the new capacity.
        """
        if cid not in self._capacities:
            raise KeyError(f"unknown channel {cid!r}")
        if capacity_bps < 0:
            raise ValueError(f"capacity cannot be negative: {capacity_bps}")
        self._settle()
        self._capacities[cid] = float(capacity_bps)
        self._capacity[self._index[cid]] = capacity_bps
        self._reallocate()

    def degrade_link(self, u: str, v: str, capacity_bps: float) -> None:
        """Set both directions of link ``u``--``v`` to ``capacity_bps``."""
        for cid in self.graph.link(u, v).channels():
            self.set_capacity(cid, capacity_bps)

    def restore_link(self, u: str, v: str) -> None:
        """Restore link ``u``--``v`` to its nominal peak capacity."""
        self.degrade_link(u, v, self.graph.link(u, v).maxbw)

    def fail_link(self, u: str, v: str) -> None:
        """Take link ``u``--``v`` down (capacity 0: flows stall until repair)."""
        self.degrade_link(u, v, 0.0)

    def link_up(self, u: str, v: str) -> bool:
        """True while every channel of link ``u``--``v`` has capacity."""
        return all(
            self._capacities[cid] > 0
            for cid in self.graph.link(u, v).channels()
        )

    # -- transfers ---------------------------------------------------------------
    def transfer(self, src: str, dst: str, size_bytes: float) -> Event:
        """Send ``size_bytes`` from ``src`` to ``dst``.

        Returns an event firing with the transfer's elapsed time.  Transfers
        to self complete after zero time; zero-byte transfers complete after
        the path latency only.  Fails immediately if the nodes are
        disconnected.
        """
        if size_bytes < 0:
            raise ValueError(f"size must be non-negative, got {size_bytes}")
        done = self.sim.event()
        if src == dst:
            done.succeed(0.0)
            return done
        path = self.graph.path(src, dst)
        if path is None:
            done.fail(ConnectionError(f"{src!r} and {dst!r} are disconnected"))
            return done
        latency = sum(
            self.graph.link(a, b).latency for a, b in zip(path, path[1:])
        )
        channels = [self.channel_for(a, b) for a, b in zip(path, path[1:])]
        start = self.sim.now

        if size_bytes == 0:
            latency_ev = self.sim.timeout(latency)
            latency_ev.callbacks.append(
                lambda _ev: done.succeed(self.sim.now - start)
            )
            return done

        def _begin(_ev: Event) -> None:
            self._settle()
            fid = self._next_fid
            self._next_fid += 1
            index = np.array(
                [self._index[cid] for cid in channels], dtype=np.intp
            )
            flow = Flow(fid, src, dst, size_bytes, channels, index, done, start)
            self._flows[fid] = flow
            self._reallocate()

        head = self.sim.timeout(latency)
        head.callbacks.append(_begin)
        return done

    # -- internals ------------------------------------------------------------
    def _settle(self) -> None:
        """Drain bytes at current rates up to ``sim.now``."""
        now = self.sim.now
        elapsed = now - self._last_settle
        if elapsed <= 0:
            return
        octets = self._octets
        for flow in self._flows.values():
            moved_bytes = flow.rate * elapsed / BITS_PER_BYTE
            flow.remaining_bytes -= moved_bytes
            # A route crosses a channel once, so the fancy-indexed add
            # is one add per channel, flow by flow as before.
            octets[flow.index] += moved_bytes
        self._last_settle = now

    #: Flows with less than this many bytes left are complete.
    _BYTE_EPS = 1e-6
    #: ... or whose drain time is below the clock's useful resolution.
    #: (At t ~ 1e3 s a float64 ulp is ~2e-13 s; scheduling a wake closer
    #: than that would not advance the clock and would spin forever.)
    _TIME_EPS = 1e-9

    def _reallocate(self) -> None:
        """Recompute max-min rates and re-arm the next completion."""
        finished = [
            f
            for f in self._flows.values()
            if f.remaining_bytes <= self._BYTE_EPS
            or (
                f.rate > 0
                and f.remaining_bytes * BITS_PER_BYTE / f.rate <= self._TIME_EPS
            )
        ]
        for flow in finished:
            del self._flows[flow.fid]
            flow.remaining_bytes = 0.0
            flow.done.succeed(self.sim.now - flow.started_at)

        self._wake = None
        if not self._flows:
            return

        rates = max_min_fair(
            {fid: f.channels for fid, f in self._flows.items()},
            self._capacities,
        )
        for fid, flow in self._flows.items():
            flow.rate = rates[fid]

        times = [
            f.remaining_bytes * BITS_PER_BYTE / f.rate
            for f in self._flows.values()
            if f.rate > 0
        ]
        if not times:  # pragma: no cover - zero-capacity channels are rejected
            return
        # Floor the delay at the completion epsilon so the clock always
        # advances; the finished-test above absorbs the residual bytes.
        next_in = max(min(times), self._TIME_EPS)
        wake = self.sim.timeout(next_in)
        self._wake = wake

        def _on_wake(_ev: Event, me: Event = wake) -> None:
            if self._wake is not me:
                return
            self._wake = None
            self._settle()
            self._reallocate()

        wake.callbacks.append(_on_wake)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Fabric flows={len(self._flows)}>"
