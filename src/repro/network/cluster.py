"""The simulated cluster: hosts + fabric behind one facade.

This is our stand-in for the paper's physical testbed.  A
:class:`Cluster` owns a :class:`~repro.network.host.Host` per compute node
and a :class:`~repro.network.fabric.Fabric` for the links, all driven by a
single DES kernel.  Applications, load/traffic generators, and the Remos
collector all operate against this object.
"""

from __future__ import annotations

from ..des.events import Event
from ..des.simulator import Simulator
from ..topology.graph import TopologyGraph
from .fabric import Fabric
from .host import ComputeTask, Host

__all__ = ["Cluster"]


class Cluster:
    """Hosts and network for one topology, on one simulator.

    Parameters
    ----------
    sim:
        The simulation kernel.
    graph:
        The physical topology.  Compute nodes become hosts whose peak rate
        is ``node.compute_capacity * base_capacity`` ops/s.
    base_capacity:
        Ops/second of a capacity-1.0 node (calibration knob).
    load_tau:
        Load-average damping constant passed to every host.
    """

    def __init__(
        self,
        sim: Simulator,
        graph: TopologyGraph,
        base_capacity: float = 1.0,
        load_tau: float = 60.0,
    ) -> None:
        self.sim = sim
        self.graph = graph
        self.fabric = Fabric(sim, graph)
        #: The hosts' shared ``awake`` set: loaded, decaying or down.
        self.awake: set[str] = set()
        self.hosts: dict[str, Host] = {
            node.name: Host(
                sim,
                node.name,
                capacity=node.compute_capacity * base_capacity,
                load_tau=load_tau,
            )
            for node in graph.compute_nodes()
        }
        for host in self.hosts.values():
            host.awake = self.awake

    def host(self, name: str) -> Host:
        """The host for compute node ``name``."""
        try:
            return self.hosts[name]
        except KeyError:
            raise KeyError(f"no compute host {name!r}") from None

    # -- failure state --------------------------------------------------------
    def node_is_up(self, name: str) -> bool:
        """True unless ``name`` is a crashed compute host.

        Network nodes (switches/routers) are always up in this model; link
        failures are expressed through the fabric's channel capacities.
        """
        host = self.hosts.get(name)
        return host.up if host is not None else True

    def fail_node(self, name: str) -> None:
        """Crash compute node ``name``.

        The host aborts its tasks and refuses new work, and every incident
        link goes down (a dead machine's NIC answers nobody), stalling
        in-flight flows that touch it.  Its SNMP agents stop answering, so
        Remos learns of the crash only through missed polls — exactly the
        partial information a real monitor has.
        """
        self.host(name).fail()
        for link in self.graph.incident_links(name):
            self.fabric.fail_link(link.u, link.v)

    def recover_node(self, name: str) -> None:
        """Bring a crashed node back (fresh boot, incident links restored)."""
        self.host(name).recover()
        for link in self.graph.incident_links(name):
            self.fabric.restore_link(link.u, link.v)

    def compute(self, name: str, ops: float) -> ComputeTask:
        """Run ``ops`` operations on host ``name`` (processor-shared)."""
        return self.host(name).run(ops)

    def transfer(self, src: str, dst: str, size_bytes: float) -> Event:
        """Move ``size_bytes`` from ``src`` to ``dst`` over the fabric."""
        return self.fabric.transfer(src, dst, size_bytes)

    def snapshot(self) -> TopologyGraph:
        """Ground-truth topology snapshot (oracle, zero measurement lag).

        Compute nodes carry the hosts' *instantaneous damped* load average;
        links carry capacity minus the instantaneous flow allocation.  The
        Remos substrate (:mod:`repro.remos`) provides the realistic,
        measurement-based alternative — tests use this oracle to separate
        algorithm behaviour from measurement noise.
        """
        g = self.graph.copy()
        for name, host in self.hosts.items():
            g.node(name).load_average = host.load_average
            if not host.up:
                g.node(name).attrs["down"] = True
        for link in g.links():
            for cid in link.channels():
                avail = self.fabric.available_bandwidth(cid)
                link.set_available(avail, direction=cid[1])
        return g

    def topology(self) -> TopologyGraph:
        """Alias so a Cluster satisfies the TopologyProvider protocol."""
        return self.snapshot()
