"""The Remos query API (paper §2.2).

Remos exports network information at two levels of abstraction:

- **Logical network topology** (:meth:`RemosAPI.topology`): a functional
  snapshot of the network with current traffic on links and load on nodes —
  the structural information the node-selection procedures exploit (§5
  argues this is the key advantage over pairwise measurement systems).
- **Flow queries** (:meth:`RemosAPI.flow_query` /
  :meth:`RemosAPI.flows_query`): available bandwidth between node pairs,
  accounting for the sharing of links by the queried flows themselves.

All answers derive from the collector's measurement history — never from
the simulator's hidden ground truth — passed through a configurable
:class:`~repro.remos.predictor.Predictor` (§2.2: a history window is
``SlidingMean``, current conditions ``LastValue``, a future estimate
``Ewma``).

**Degraded mode.**  On a shared network the collector inevitably loses
samples (agent timeouts, crashed nodes, flapping links).  Instead of
raising, every answer carries its sample age and a staleness flag.  A
host or link is derived one way — its last-known-good value and the
collector's stale flag — and one rule (:meth:`DegradedPolicy.rule`)
decides what a stale resource then reports:

- ``OPTIMISTIC``: last-known-good values, resources never marked — the
  pre-fault-model behaviour, kept as the naive baseline;
- ``LAST_GOOD`` (default): last-known-good values, but the topology
  marks stale nodes ``unmonitorable`` (selection can exclude them);
- ``CONSERVATIVE``: additionally assume the worst — a stale link has zero
  available bandwidth and a stale node infinite load (CPU fraction 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..network.cluster import Cluster
from ..network.fairshare import routed_fair_rates
from ..obs.trace import NULL_TRACER
from ..topology.graph import Measurement, TopologyGraph
from .collector import Collector
from .predictor import LastValue, Predictor

__all__ = [
    "RemosAPI",
    "LinkInfo",
    "NodeInfo",
    "DegradedPolicy",
    "apply_degraded_policy",
]


class DegradedPolicy:
    """How queries answer for resources with stale/missing measurements."""

    OPTIMISTIC = "optimistic"
    LAST_GOOD = "last-known-good"
    CONSERVATIVE = "conservative"

    ALL = (OPTIMISTIC, LAST_GOOD, CONSERVATIVE)

    @staticmethod
    def rule(policy: str) -> tuple[bool, bool]:
        """``(worst, marked)``: whether ``policy`` answers a stale resource
        with the worst case instead of its last-known-good value, and
        whether it marks it stale.  The live sweep, the point queries and
        :func:`apply_degraded_policy` all read a policy, and refuse an
        unknown one (``ValueError``), here."""
        if policy not in DegradedPolicy.ALL:
            raise ValueError(
                f"unknown degraded policy {policy!r}; "
                f"expected one of {DegradedPolicy.ALL}"
            )
        return (policy == DegradedPolicy.CONSERVATIVE,
                policy != DegradedPolicy.OPTIMISTIC)


@dataclass(frozen=True)
class LinkInfo:
    """Per-link information exported by Remos (§2.2).

    ``age_s`` is the oldest sample age over the link's channels; ``stale``
    is set once the collector has missed enough consecutive polls of the
    link's counters (degraded-mode answer).
    """

    u: str
    v: str
    capacity_bps: float
    utilization_fwd_bps: float  # traffic u -> v
    utilization_rev_bps: float  # traffic v -> u
    latency_s: float
    age_s: float = 0.0
    stale: bool = False

    @property
    def available_fwd_bps(self) -> float:
        return max(0.0, self.capacity_bps - self.utilization_fwd_bps)

    @property
    def available_rev_bps(self) -> float:
        return max(0.0, self.capacity_bps - self.utilization_rev_bps)


@dataclass(frozen=True)
class NodeInfo:
    """Per-node information exported by Remos, with measurement health."""

    name: str
    load_average: float
    age_s: float = 0.0
    stale: bool = False


class RemosAPI:
    """Query interface to (simulated) network resource information.

    Parameters
    ----------
    collector:
        The polling collector backing every answer.
    predictor:
        Forecast policy applied to measurement histories (default: the
        paper's most-recent-measurement rule).
    degraded:
        A :class:`DegradedPolicy` value selecting how stale resources are
        answered (default: last-known-good, marked).
    tracer:
        A :class:`repro.obs.Tracer`; every :meth:`topology` sweep becomes
        a ``remos.topology`` span carrying the degraded policy and how
        many resources answered stale.  Default: off.
    """

    def __init__(
        self,
        collector: Collector,
        predictor: Optional[Predictor] = None,
        degraded: str = DegradedPolicy.LAST_GOOD,
        tracer=None,
    ) -> None:
        if not isinstance(collector, Collector):
            raise TypeError(
                f"collector must be a Collector, got {type(collector).__name__}"
            )
        DegradedPolicy.rule(degraded)
        self.collector = collector
        self.predictor = predictor or LastValue()
        self.degraded = degraded
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Topology queries answered, each with a whole annotated graph
        #: (derived in full the first time, then as a patch of the
        #: previous answer).  The selection service's snapshot cache is
        #: judged against this counter.
        self.topology_sweeps = 0
        #: The previous answer and where it read the collector's change
        #: log up to.  ``_lineage`` names this handle in its snapshots'
        #: provenance (a token: a pickled snapshot must not drag the
        #: collector along).
        self._lineage = object()
        self._snapshot: Optional[TopologyGraph] = None
        self._cursor = -1
        #: ``unmonitorable`` nodes plus ``stale`` links in ``_snapshot``.
        self._marks = 0

    @property
    def cluster(self) -> Cluster:
        return self.collector.cluster

    # -- the one derivation ---------------------------------------------------
    def _forecast(self):
        """The predictor's ``predict``; ``None`` under :class:`LastValue`,
        whose forecast is the collector's newest-value column."""
        predictor = self.predictor
        return None if type(predictor) is LastValue else predictor.predict

    def _last_good(self, keys, hosts=True):
        """``(value, stale)`` per host name (or channel id, ``hosts=False``)
        of ``keys``: the last-known-good answer and the collector's raw
        stale flag, the policy not applied."""
        c = self.collector
        columns, history = (
            (c.host_columns, c.load_history) if hosts
            else (c.channel_columns, c.utilization_history)
        )
        predict = self._forecast()
        for key, count, newest, misses in zip(keys, *columns(keys)):
            if not count:
                # An unmonitored resource looks idle — exactly the
                # optimistic error a fresh monitor makes.
                value = 0.0
            elif predict is None:
                value = max(0.0, newest)
            else:
                value = max(0.0, predict(history(key)))
            yield value, misses >= c.stale_after

    def _link_rows(self, links):
        """``(utilization towards v, towards u, stale)`` per link: a
        half-duplex link's one channel answers both ways, and a link is
        stale when any of its channels is."""
        pairs = [link.channels() for link in links]
        rows = self._last_good([c for pair in pairs for c in pair], False)
        for pair in pairs:
            got = [next(rows) for _ in pair]  # towards u, then v
            yield got[-1][0], got[0][0], got[0][1] or got[-1][1]

    # -- point queries --------------------------------------------------------
    def node_info(self, name: str) -> NodeInfo:
        """Forecast load plus measurement health for one compute node."""
        (load, stale), = self._last_good([name])
        worst, marked = DegradedPolicy.rule(self.degraded)
        return NodeInfo(
            name,
            float("inf") if stale and worst else load,
            age_s=self.collector.host_status(name).age_s,
            stale=stale and marked,
        )

    def node_load(self, name: str) -> float:
        """Forecast load average of a compute node.

        Returns 0.0 when no measurement exists yet; under the conservative
        degraded policy a *stale* node reports infinite load instead.
        """
        return self.node_info(name).load_average

    def link_info(self, u: str, v: str) -> LinkInfo:
        """Capacity, measured utilization, latency and health for one link."""
        link = self.cluster.graph.link(u, v)
        (fwd, rev, stale), = self._link_rows([link])
        worst, marked = DegradedPolicy.rule(self.degraded)
        if stale and worst:
            # Assume the worst of an unobservable link: fully utilized.
            fwd = rev = link.maxbw
        # Orient the answer to the argument order.
        if (u, v) != (link.u, link.v):
            fwd, rev = rev, fwd
        return LinkInfo(
            u=u,
            v=v,
            capacity_bps=link.maxbw,
            utilization_fwd_bps=fwd,
            utilization_rev_bps=rev,
            latency_s=link.latency,
            age_s=self._link_age(link),
            stale=stale and marked,
        )

    def _link_age(self, link) -> float:
        """The oldest sample age over ``link``'s channels."""
        status = self.collector.channel_status
        return max(status(cid).age_s for cid in link.channels())

    # -- the logical topology query ----------------------------------------------
    def topology(self) -> TopologyGraph:
        """The logical topology annotated with measured availability.

        This is the graph the node-selection procedures run on: compute
        nodes carry forecast load averages, links carry forecast available
        bandwidth per direction.  Under a non-optimistic degraded policy,
        nodes whose monitoring went stale additionally carry
        ``attrs["unmonitorable"] = True`` so health-aware selection
        (:class:`repro.core.NodeSelector`) can exclude them, and stale
        links ``attrs["stale"] = True``.

        The answer costs what changed, not what exists: the first query
        derives every node and link, each later one only the resources
        the collector's change log names since, swapped into a
        structure-sharing patch of the previous answer
        (:meth:`TopologyGraph.replaced`) — a new graph with the values a
        from-scratch sweep would give.  Generations share node and link
        objects, so snapshots are **read-only**: debit or mark a
        :meth:`~TopologyGraph.copy`.  (A predictor that reads history
        rather than the newest sample re-derives everything each time.)

        Provenance rides along as :attr:`TopologyGraph.measurement`:
        what this answer replaced (a consumer holding the previous one
        re-bases instead of rebuilding) and the sample ages
        (:meth:`TopologyGraph.node_age` / :meth:`~TopologyGraph.link_age`),
        which the explain surface reports as the staleness of a
        decision's inputs and :meth:`export_snapshot` writes out as
        ``attrs["age_s"]``.
        """
        if self.tracer.enabled:
            with self.tracer.span(
                "remos.topology", policy=self.degraded
            ) as span:
                g = self._sweep()
                span.set(stale_resources=self._marks)
                return g
        return self._sweep()

    def _sweep(self) -> TopologyGraph:
        self.topology_sweeps += 1
        collector = self.collector
        physical = self.cluster.graph
        self._cursor, moved = collector.changes_since(self._cursor)
        if self._forecast() is not None:
            moved = None  # any new sample can move a forecast from history
        old = self._snapshot
        if old is None or moved is None:
            g = physical.copy()
            hosts = frozenset(self.cluster.hosts)
            links = frozenset(link.key for link in physical.links())
            marks, counted = 0, frozenset(g.node_names())
        else:
            hosts = frozenset(r for r in moved if type(r) is str)
            links = frozenset(moved) - hosts
            g = old.replaced(
                [physical.node(name).copy() for name in hosts],
                [physical.link(*key).copy() for key in links],
            )
            # The marks go with the objects the patch replaces.
            marks = self._marks - _stale_marks(old, hosts, links)
            counted = hosts
        # Last-known-good values on everything touched, then the policy
        # on what of it is stale: the rule apply_degraded_policy applies.
        stale_nodes, stale_links = [], []
        for name, (load, stale) in zip(hosts, self._last_good(hosts)):
            node = g.node(name)
            node.load_average = load
            if stale:
                stale_nodes.append(node)
        touched = [g.link(*key) for key in links]
        for link, (fwd, rev, stale) in zip(touched, self._link_rows(touched)):
            link.set_available(max(0.0, link.maxbw - fwd), direction=link.v)
            link.set_available(max(0.0, link.maxbw - rev), direction=link.u)
            if stale:
                stale_links.append(link)
        _degrade(self.degraded, stale_nodes, stale_links)
        self._marks = marks + _stale_marks(g, counted, links)
        # Ages are one number per round, not a stamp per resource: every
        # agent the round reached was sampled at ``round_at``.
        late: dict = {}
        for r in collector.late_resources():
            if type(r) is str:
                late[r] = collector.host_status(r).age_s
            elif r[0] not in late:
                late[r[0]] = self._link_age(physical.link(*r[0]))
        first = old is None
        g.measurement = Measurement(
            source=self._lineage,
            generation=self.topology_sweeps,
            nodes=None if first else hosts,
            links=None if first else links,
            age_s=self.cluster.sim.now - collector.round_at,
            late=late,
        )
        self._snapshot = g
        return g

    def export_snapshot(self) -> dict:
        """The current topology snapshot as a JSON-safe dict.

        Serialization-side counterpart of :meth:`topology`
        (:func:`repro.topology.to_dict` schema v1): what a remote client of
        the selection service receives, and what ``repro-select`` /
        ``repro-serve`` consume from files.  Degraded-mode marks
        (``unmonitorable``, ``stale``) survive the round trip, so
        :func:`apply_degraded_policy` can reinterpret an exported snapshot
        offline.
        """
        from ..topology.serialize import to_dict

        return to_dict(self.topology())

    # -- flow queries --------------------------------------------------------------
    def flow_query(self, src: str, dst: str) -> float:
        """Available bandwidth (bps) for one new flow src → dst."""
        return self.flows_query([(src, dst)])[0]

    def flows_query(self, pairs: Sequence[tuple[str, str]]) -> list[float]:
        """Available bandwidth for a *set* of prospective flows.

        §2.2: flow queries "account for sharing of network links by
        multiple flows" — if two requested flows cross the same link, each
        is quoted its max-min fair share of the link's *remaining*
        capacity.  Disconnected pairs are quoted 0.  Unknown node names
        raise ``KeyError`` immediately.
        """
        graph = self.cluster.graph
        for src, dst in pairs:
            for name in (src, dst):
                if not graph.has_node(name):
                    raise KeyError(
                        f"unknown node {name!r} in flow query "
                        f"({src!r} -> {dst!r})"
                    )
        return routed_fair_rates(graph, self.topology(), pairs)


def _stale_marks(graph: TopologyGraph, nodes, links) -> int:
    """Unmonitorable among ``graph``'s ``nodes`` + stale among its ``links``."""
    node, link = graph.node, graph.link
    return sum(
        1 for name in nodes if node(name).attrs.get("unmonitorable")
    ) + sum(1 for key in links if link(*key).attrs.get("stale"))


#: Load average stood in for "infinite" on unmonitorable nodes in topology
#: snapshots: keeps ``cpu = 1/(1+load)`` effectively zero while remaining
#: finite for serialization and arithmetic downstream.
_UNMONITORABLE_LOAD = 1e9


def _degrade(policy: str, nodes, links) -> None:
    """Apply ``policy``'s :meth:`~DegradedPolicy.rule` to stale ``nodes``
    and ``links`` (graph records holding last-known-good values, written
    in place): the worst case instead of the value, and the mark set or
    taken off.  A finite load stands in for the infinite one."""
    worst, marked = DegradedPolicy.rule(policy)
    for records, mark in ((nodes, "unmonitorable"), (links, "stale")):
        for record in records:
            if marked:
                record.attrs[mark] = True
            else:
                record.attrs.pop(mark, None)
    if worst:
        for node in nodes:
            node.load_average = _UNMONITORABLE_LOAD
        for link in links:
            link.set_available(0.0)


def apply_degraded_policy(graph: TopologyGraph, policy: str) -> TopologyGraph:
    """Reinterpret a topology snapshot under a degraded-mode policy.

    Live queries bake the policy in at answer time; this is the offline
    equivalent for *serialized* snapshots (``repro-select`` on a JSON file,
    an exported :meth:`RemosAPI.export_snapshot`).  The snapshot's
    ``unmonitorable`` / ``stale`` marks record which resources were stale
    when it was taken, and the policy decides what to make of them now
    by the rule the live sweep applies (:meth:`DegradedPolicy.rule`):
    ``OPTIMISTIC`` strips the marks, ``LAST_GOOD`` keeps the snapshot
    as it is, ``CONSERVATIVE`` also assumes the worst of what they mark.
    Returns a copy; the input graph is never mutated.
    """
    g = graph.copy()
    _degrade(
        policy,
        [node for node in g.nodes() if node.attrs.get("unmonitorable")],
        [link for link in g.links() if link.attrs.get("stale")],
    )
    return g
