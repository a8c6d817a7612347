"""Reference implementations tests compare the library against."""

from __future__ import annotations

import heapq
import itertools
import json
from collections import deque
from dataclasses import replace
from typing import Optional, Sequence
from unittest import mock

from repro.core.metrics import References
from repro.network.fabric import ChannelId
from repro.remos import AgentTimeout, Collector, DegradedPolicy, RemosAPI
from repro.remos.api import _UNMONITORABLE_LOAD, NodeInfo
from repro.remos.collector import _WRAP_RATE_SLACK, ResourceStatus
from repro.remos.snmp import InterfaceRecord
from repro.service import (
    LedgerWal,
    SelectionService,
    ShardPlan,
    ShardRouter,
    route_edges,
)
from repro.service import wal as wal_module
from repro.service.admission import SelectionRequest
from repro.service.ledger import Reservation, ledger_order
from repro.service.residual_view import ResidualView
from repro.service.sharding.workers import InprocExecutor
from repro.topology import TopologyGraph
from repro.units import BITS_PER_BYTE


def bfs_path(graph: TopologyGraph, src: str, dst: str) -> Optional[list[str]]:
    """``TopologyGraph.path`` as it was before the forest index: one BFS
    per call, neighbours visited in insertion order."""
    for name in (src, dst):
        if not graph.has_node(name):
            raise KeyError(f"no node {name!r}")
    if src == dst:
        return [src]
    parent: dict[str, str] = {src: src}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nxt in graph.neighbors(cur):
            if nxt in parent:
                continue
            parent[nxt] = cur
            if nxt == dst:
                out = [dst]
                while out[-1] != src:
                    out.append(parent[out[-1]])
                out.reverse()
                return out
            queue.append(nxt)
    return None


def routing_table_route(
    graph: TopologyGraph, src: str, dst: str
) -> Optional[list[str]]:
    """The fixed route as ``RoutingTable(graph).route`` found it before
    ``TopologyGraph.path`` was the one rule: Dijkstra on hop counts from
    ``dst`` with name tie-breaks, read back from ``src``."""
    for name in (src, dst):
        if not graph.has_node(name):
            raise KeyError(f"no node {name!r}")
    dist: dict[str, float] = {dst: 0.0}
    parent: dict[str, str] = {dst: dst}
    heap: list[tuple[float, str]] = [(0.0, dst)]
    done: set[str] = set()
    while heap:
        d, cur = heapq.heappop(heap)
        if cur in done:
            continue
        done.add(cur)
        for nxt in graph.neighbors(cur):
            nd = d + 1.0
            if nxt not in dist or nd < dist[nxt] or (
                nd == dist[nxt] and parent[nxt] > cur
            ):
                dist[nxt] = nd
                parent[nxt] = cur
                heapq.heappush(heap, (nd, nxt))
    if src not in parent:
        return None
    path = [src]
    while path[-1] != dst:
        path.append(parent[path[-1]])
    return path


def pairwise_minima_by_paths(
    graph: TopologyGraph, nodes: Sequence[str], refs: References
) -> tuple[float, float]:
    """``core.metrics._pairwise_minima`` as it was before
    ``TopologyGraph.span``: one ``path()`` walk per pair (per unordered
    pair on a forest, counting ``Link.available``)."""
    names = list(nodes)
    fraction = bps = float("inf")
    if len(names) < 2:
        return fraction, bps
    symmetric = graph.is_acyclic()
    pairs = itertools.combinations if symmetric else itertools.permutations
    ref_bw = refs.link_bandwidth
    for src, dst in pairs(names, 2):
        path = graph.path(src, dst)
        if path is None:
            return 0.0, 0.0
        for x, y in zip(path, path[1:]):
            link = graph.link(x, y)
            bw = link.available if symmetric else link.available_towards(y)
            bps = min(bps, bw)
            fraction = min(
                fraction, bw / (link.maxbw if ref_bw is None else ref_bw)
            )
    return fraction, bps


def naive_rebuild_service(*args, **kwargs) -> SelectionService:
    """The admission hot path as it was before the O(Δ) overlay: every
    attempt drops the live view and places on a view built from scratch
    (``residual_graph`` over the ledger's totals), so no in-place delta,
    memo entry, cached route or kept ranking outlives one attempt."""
    service = SelectionService(*args, **kwargs)
    overlay = service._residual

    def rebuild(base: TopologyGraph) -> ResidualView:
        service._view = None
        return overlay(base)

    service._residual = rebuild
    return service


class EagerOverlayService(SelectionService):
    """The service as it was before its overlay settled on read: every
    claim move is refreshed into the view the moment the ledger reports
    it (what a grant leaves stale is read at once), so no reader ever
    finds a stale entry to settle."""

    def _on_ledger_event(self, kind: str, reservation: Reservation) -> None:
        super()._on_ledger_event(kind, reservation)
        if self._view is not None:
            self._view.graph  # a read: settles what the event left stale


def reference_grant_payload(r: Reservation) -> dict:
    """A reservation's grant/snapshot payload as the log built it before
    grant lines were assembled from per-channel text: whole, every
    channel encoded afresh, the caps the lease's own."""
    return {
        "app": r.app_id,
        "nodes": list(r.nodes),
        "cpu": r.cpu_fraction,
        "bw": r.bw_bps,
        "edges": [[sorted(key), dst] for key, dst in r.edges],
        "caps": list(r.caps),
        "priority": r.priority,
        "granted_at": r.granted_at,
        "expires_at": r.expires_at,
    }


class ReferenceWal(LedgerWal):
    """The log with every record encoded whole: each line, and each
    snapshot, is compact ``json.dumps`` of its full record, a lease
    (a grant line's or a snapshot row) a :func:`reference_grant_payload`."""

    def _grant_line(self, seq: int, r: Reservation) -> str:
        return _dumps({"seq": seq, "kind": "grant",
                       **reference_grant_payload(r)})

    def _renew_line(self, seq: int, kind: str, r: Reservation) -> str:
        return _dumps({"seq": seq, "kind": kind, "app": r.app_id,
                       "expires_at": r.expires_at})

    def _release_line(self, seq: int, kind: str, r: Reservation) -> str:
        return _dumps({"seq": seq, "kind": kind, "app": r.app_id})

    def _snapshot_text(self, ledger) -> str:
        return _dumps({
            "version": 1,
            "seq": self._seq,
            "cpu_cap": 1.0,
            "reservations": [
                reference_grant_payload(r)
                for _, r in sorted(ledger.reservations.items())
            ],
            "node_claims": ledger.node_claims(),
            # Encoded channels are unique, so sorting the rows sorts by
            # channel.
            "edge_claims": sorted(
                [[sorted(key), dst], v]
                for (key, dst), v in ledger.edge_claims().items()
            ),
        })


def _dumps(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def reference_wal_service(*args, **kwargs) -> SelectionService:
    """A durable service that logs through :class:`ReferenceWal`."""
    with mock.patch.object(wal_module, "LedgerWal", ReferenceWal):
        return SelectionService(*args, **kwargs)


class TickEveryShard(InprocExecutor):
    """``InprocExecutor.tick_all`` as it was before it read lease
    deadlines: every shard service is ticked on every call."""

    def tick_all(self, force: bool = False):
        return [("ok", service.tick()) for service in self.services]


def tick_every_shard_router(*args, **kwargs) -> ShardRouter:
    """A :class:`ShardRouter` whose executor ticks every shard always."""
    router = ShardRouter(*args, **kwargs)
    router._exec.__class__ = TickEveryShard
    return router


class PinnedNodes:
    """A picklable eligibility predicate: ``node.name in names`` (a
    lambda cannot cross a process boundary; this can)."""

    __slots__ = ("names",)

    def __init__(self, names) -> None:
        self.names = frozenset(names)

    def __call__(self, node) -> bool:
        return node.name in self.names

    def __repr__(self) -> str:  # stable across processes (selection memo)
        return f"PinnedNodes({sorted(self.names)!r})"


def memoless_probe(service: SelectionService, spec, *,
                   cpu_fraction: float = 0.0, bw_bps: float = 0.0):
    """``SelectionService.probe`` as it was before it read the selection
    memo: every probe runs the kernel."""
    view = service._residual(service.cache.topology())
    req = SelectionRequest(
        app_id="__probe__", spec=spec, cpu_fraction=cpu_fraction,
        bw_bps=bw_bps, submitted_at=service.now,
    )
    return service._place(req, view)[0]


class PinnedCommit(InprocExecutor):
    """The cross-shard grant as it was before its commit reserved what
    the probe found: probes run the kernel (:func:`memoless_probe`), and
    each part commits through a whole ``request`` whose spec is pinned
    to the nodes the last probe of that shard returned, so the commit
    selects again."""

    def call(self, shard: int, op: str, *args, **kwargs):
        if op == "probe":
            found = memoless_probe(self.services[shard], *args, **kwargs)
            vars(self).setdefault("probed", {})[shard] = found
            return found
        return super().call(shard, op, *args, **kwargs)

    def call_many(self, calls, *, wait: bool = True):
        # Only a cross-shard commit sends ``request`` through call_many.
        return super().call_many([
            (shard, op, (args[0], replace(
                args[1], eligible=PinnedNodes(self.probed[shard].nodes),
            )), kwargs) if op == "request" else (shard, op, args, kwargs)
            for shard, op, args, kwargs in calls
        ], wait=wait)


class PinnedCommitRouter(ShardRouter):
    """A :class:`ShardRouter` whose in-process shards are reached through
    :class:`PinnedCommit`: the probe + pinned re-select commit it
    replaced, kept as the reference."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._exec.__class__ = PinnedCommit


def routed_trunk_channels(plan: ShardPlan, groups) -> tuple:
    """A split's trunk channels as the router found them before its pair
    memo kept trunk channels only: the union of the full routes of every
    pair spanning two groups, on the plan's graph, filtered by
    ``plan.trunk_keys`` and sorted by ``ledger_order``."""
    routed: set = set()
    for ga, gb in itertools.combinations(groups, 2):
        for a in ga:
            for b in gb:
                routed.update(route_edges(plan.graph, (a, b)))
    return tuple(sorted(
        (e for e in routed if e[0] in plan.trunk_keys), key=ledger_order,
    ))


def reference_partition(graph: TopologyGraph, k: int) -> ShardPlan:
    """``partition_topology`` as it was before the cut was indexed: a
    connectivity BFS up front, a full scan of the spanning tree for every
    cut, and a ``validate`` that copies each shard to ask whether it is
    connected.  Frozen; the library must return the same plan."""
    if k < 1 or k > graph.num_nodes:
        raise ValueError(f"cannot cut {graph.num_nodes} nodes into {k}")
    if not graph.is_connected():
        raise ValueError("partitioning requires a connected topology")
    network = [n.name for n in graph.network_nodes()]
    root = network[0] if network else graph.node_names()[0]
    parent: dict = {root: None}
    order = [root]
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nxt in sorted(graph.neighbors(cur)):
            if nxt not in parent:
                parent[nxt] = cur
                order.append(nxt)
                queue.append(nxt)
    children: dict = {name: [] for name in order}
    for name in order[1:]:
        children[parent[name]].append(name)
    size = {name: 1 for name in order}
    for name in reversed(order[1:]):
        size[parent[name]] += size[name]
    shard_of: dict = {}
    residual = size[root]
    for cut in range(k - 1):
        shards_left = k - cut
        target = residual / shards_left
        limit = residual - (shards_left - 1)
        best = None
        for name in order[1:]:
            if name in shard_of or size[name] > limit:
                continue
            score = (abs(size[name] - target), name)
            if best is None or score < best[0]:
                best = (score, name)
        chosen = best[1]
        queue = deque([chosen])
        while queue:
            cur = queue.popleft()
            shard_of[cur] = cut
            queue.extend(c for c in children[cur] if c not in shard_of)
        residual -= size[chosen]
        ancestor = parent[chosen]
        while ancestor is not None:
            size[ancestor] -= size[chosen]
            ancestor = parent[ancestor]
    for name in order:
        if name not in shard_of:
            shard_of[name] = k - 1
    counts: dict = {}
    for shard in shard_of.values():
        counts[shard] = counts.get(shard, 0) + 1
    for node in graph.nodes():
        if not node.is_compute or graph.degree(node.name) != 1:
            continue
        uplink = graph.neighbors(node.name)[0]
        mine, theirs = shard_of[node.name], shard_of[uplink]
        if mine != theirs and counts[mine] > 1:
            shard_of[node.name] = theirs
            counts[mine] -= 1
            counts[theirs] += 1
    members: list = [set() for _ in range(k)]
    for name, shard in shard_of.items():
        members[shard].add(name)
    plan = ShardPlan(
        graph=graph,
        shard_of=shard_of,
        shards=tuple(frozenset(m) for m in members),
        trunk_keys=frozenset(
            link.key for link in graph.links()
            if shard_of[link.u] != shard_of[link.v]
        ),
    )
    for link in graph.links():
        intra = shard_of[link.u] == shard_of[link.v]
        assert intra != (link.key in plan.trunk_keys)
    for shard_members in plan.shards:
        assert shard_members
        assert graph.subgraph(shard_members).is_connected()
    return plan


def shard_order_by_sort(router: ShardRouter) -> list[int]:
    """``ShardRouter._shard_order`` as it was before the order was kept:
    every shard re-sorted by its live count per host."""
    live, facts = router._sub_count, router._shard_facts
    return sorted(
        range(router.plan.k),
        key=lambda s: (live[s] / max(1, facts[s]["hosts"]), s),
    )


class StageTimer:
    """A stage's latency summary as it was kept before stage timings
    moved into the registry histogram: exact ``count`` / ``total_s`` over
    the timer's life plus a ring of the last 4 096 samples, percentiles by
    nearest rank ``round(q·(n−1))`` over that ring."""

    WINDOW = 4096

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self._window: list[float] = []
        self._next = 0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if len(self._window) < self.WINDOW:
            self._window.append(seconds)
        else:
            self._window[self._next] = seconds
            self._next = (self._next + 1) % self.WINDOW

    @staticmethod
    def _percentile(ordered: list[float], q: float) -> float:
        idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[idx]

    def summary(self) -> dict:
        if not self.count:
            return {
                "count": 0, "mean_us": 0.0,
                "p50_us": 0.0, "p95_us": 0.0, "p99_us": 0.0,
            }
        ordered = sorted(self._window)
        return {
            "count": self.count,
            "mean_us": self.total_s / self.count * 1e6,
            "p50_us": self._percentile(ordered, 0.50) * 1e6,
            "p95_us": self._percentile(ordered, 0.95) * 1e6,
            "p99_us": self._percentile(ordered, 0.99) * 1e6,
        }


def node_info_from_history(api: RemosAPI, name: str) -> NodeInfo:
    """``RemosAPI.node_info`` as it was before it read columns: one
    history view, one status and one predictor call per host."""
    history = api.collector.load_history(name)
    status = api.collector.host_status(name)
    if status.stale and api.degraded == DegradedPolicy.CONSERVATIVE:
        load = float("inf")  # never sampled included: assume the worst
    elif not history:
        load = 0.0
    else:
        load = max(0.0, api.predictor.predict(history))
    return NodeInfo(
        name=name,
        load_average=load,
        age_s=status.age_s,
        stale=status.stale and api.degraded != DegradedPolicy.OPTIMISTIC,
    )


def full_sweep_topology(api: RemosAPI) -> TopologyGraph:
    """``RemosAPI.topology()`` as it was before it answered with patches:
    copy the physical graph, then derive every host and every link from
    the collector, stamping each sample age into ``attrs["age_s"]``."""
    g = api.cluster.graph.copy()
    mark = api.degraded != DegradedPolicy.OPTIMISTIC
    for name in api.cluster.hosts:
        info = node_info_from_history(api, name)
        node = g.node(name)
        node.load_average = (
            info.load_average if info.load_average != float("inf")
            else _UNMONITORABLE_LOAD
        )
        if info.age_s != float("inf"):
            node.attrs["age_s"] = info.age_s
        if mark and info.stale:
            node.attrs["unmonitorable"] = True
    for link in g.links():
        info = api.link_info(link.u, link.v)
        link.set_available(
            min(link.maxbw, info.available_fwd_bps), direction=link.v
        )
        link.set_available(
            min(link.maxbw, info.available_rev_bps), direction=link.u
        )
        if info.age_s != float("inf"):
            link.attrs["age_s"] = info.age_s
        if mark and info.stale:
            link.attrs["stale"] = True
    return g


def assert_same_snapshot(got: TopologyGraph, want: TopologyGraph) -> None:
    """Every load, availability, attr and sample age equal (``==`` on
    floats), whichever way either graph carries its ages."""
    assert got.node_names() == want.node_names()
    for node in want.nodes():
        mine = got.node(node.name)
        assert mine.load_average == node.load_average, node.name
        assert _sans_age(mine.attrs) == _sans_age(node.attrs), node.name
        assert got.node_age(node.name) == want.node_age(node.name), node.name
    assert [l.key for l in got.links()] == [l.key for l in want.links()]
    for link in want.links():
        mine = got.link(link.u, link.v)
        tag = f"{link.u}--{link.v}"
        assert (mine.u, mine.v) == (link.u, link.v), tag
        assert mine.available_fwd == link.available_fwd, tag
        assert mine.available_rev == link.available_rev, tag
        assert _sans_age(mine.attrs) == _sans_age(link.attrs), tag
        assert got.link_age(link.u, link.v) == want.link_age(link.u, link.v), tag


def _sans_age(attrs: dict) -> dict:
    return {k: v for k, v in attrs.items() if k != "age_s"}


class scalar_collector(Collector):
    """The collector as it was before the walk went columnar: one
    ``agent.read()`` per device, one ``InterfaceRecord`` per counter
    folded through ``_ingest_record``, a ``deque`` of ``(t, value)``
    tuples per resource, dicts for everything else.  Same constructor,
    same surface; everything the shipped collector keeps in columns is
    re-kept here the old way, so the two share only the round loop, the
    change-log cursor and event delivery."""

    def __init__(self, cluster, *args, **kwargs) -> None:
        super().__init__(cluster, *args, **kwargs)
        history = self.history
        #: channel -> deque of (t, utilization_bps) derived samples
        self._util = {}
        #: channel -> last raw (t, octets) reading, for delta computation
        self._raw = {}
        #: host -> deque of (t, load_average)
        self._load = {
            name: deque(maxlen=history) for name in self.host_agents
        }
        #: channel -> devices whose interface agent reports it
        self._reporters: dict[ChannelId, set[str]] = {}
        for name, agent in self.iface_agents.items():
            for cid in agent.interfaces:
                self._reporters.setdefault(cid, set()).add(name)
        self._channel_misses = {cid: 0 for cid in self._reporters}
        self._host_misses = {name: 0 for name in self.host_agents}

    # -- polling --------------------------------------------------------------
    def _ingest_record(self, rec: InterfaceRecord) -> None:
        channel, speed_bps, out_octets, timestamp, counter_max = rec
        prev = self._raw.get(channel)
        self._raw[channel] = (timestamp, out_octets)
        if prev is None:
            return
        t0, octets0 = prev
        dt = timestamp - t0
        if dt <= 0:
            return
        delta = out_octets - octets0
        if delta < 0:
            wrapped = None
            if counter_max is not None and octets0 <= counter_max:
                wrapped = delta + counter_max
                if wrapped * BITS_PER_BYTE / dt > speed_bps * _WRAP_RATE_SLACK:
                    wrapped = None  # too fast to be a wrap: a reset
            if wrapped is None:
                self.dropped_samples += 1
                return
            delta = wrapped
            self.wrap_disambiguations += 1
        util = min(delta * BITS_PER_BYTE / dt, speed_bps)
        history = self._util.get(channel)
        if history is None:
            history = self._util[channel] = deque(maxlen=self.history)
            self._changes.append(channel[0])
        elif history[-1][1] != util:
            self._changes.append(channel[0])
        history.append((timestamp, util))

    def _poll_subset(self, iface_names, host_names):
        on_round = self.cluster.sim.now == self.round_at
        late = self._late
        changes = self._changes
        pending = self._pending_events
        stale_after = self.stale_after
        misses = self._channel_misses
        ingest = self._ingest_record
        seen: set[ChannelId] = set()
        failed_iface: list[str] = []
        failed_host: list[str] = []
        for name in iface_names:
            agent = self.iface_agents[name]
            try:
                records = agent.read()
            except AgentTimeout:
                self.failed_polls += 1
                failed_iface.append(name)
                if on_round:
                    late.update(agent.interfaces)
                continue
            for rec in records:
                channel = rec[0]
                if misses[channel] >= stale_after:
                    pending.append(("channel-fresh", channel))
                    changes.append(channel[0])
                misses[channel] = 0
                if channel in seen:
                    continue  # half-duplex channels reported by both ends
                seen.add(channel)
                ingest(rec)
                if not on_round:
                    late.add(channel)
                elif late:
                    late.discard(channel)
        misses = self._host_misses
        for name in host_names:
            agent = self.host_agents[name]
            try:
                sample = agent.read()
            except AgentTimeout:
                self.failed_polls += 1
                failed_host.append(name)
                if on_round:
                    late.add(name)
                continue
            history = self._load[name]
            if not history or history[-1][1] != sample[1]:
                changes.append(name)
            history.append(sample)
            if misses[name] >= stale_after:
                pending.append(("host-fresh", name))
                changes.append(name)
            misses[name] = 0
            if not on_round:
                late.add(name)
            elif late:
                late.discard(name)
        return failed_iface, failed_host

    def _count_misses(self, failed_iface, failed_host) -> None:
        if failed_iface:
            dead = set(failed_iface)
            for cid, reporters in self._reporters.items():
                if reporters <= dead:
                    self._channel_misses[cid] += 1
                    if self._channel_misses[cid] == self.stale_after:
                        self._pending_events.append(("channel-stale", cid))
                        self._changes.append(cid[0])
        for name in failed_host:
            self._host_misses[name] += 1
            if self._host_misses[name] == self.stale_after:
                self._pending_events.append(("host-stale", name))
                self._changes.append(name)

    # -- query surface ----------------------------------------------------------
    def utilization_history(self, channel):
        return list(self._util.get(channel, ()))

    def load_history(self, host):
        try:
            return list(self._load[host])
        except KeyError:
            raise KeyError(f"no monitored host {host!r}") from None

    def channels(self):
        return list(self._util)

    @staticmethod
    def _columns(histories, misses) -> tuple[list, list, list]:
        # A deque forgets how many samples it dropped: the count column
        # is what it holds, which is nonzero exactly when the ring's is
        # (all a reader asks of it).
        return (
            [len(h) for h in histories],
            [h[-1][1] if h else 0.0 for h in histories],
            misses,
        )

    def host_columns(self, hosts):
        try:
            rows = [(self._load[h], self._host_misses[h]) for h in hosts]
        except KeyError as exc:
            raise KeyError(f"no monitored host {exc.args[0]!r}") from None
        return self._columns([h for h, _ in rows], [m for _, m in rows])

    def channel_columns(self, channels):
        channels = list(channels)
        misses = [self._channel_misses[c] for c in channels]
        return self._columns(
            [self._util.get(c, ()) for c in channels], misses
        )

    def age(self) -> float:
        newest = max(
            (t for t, _o in self._raw.values()),
            default=float("-inf"),
        )
        return self.cluster.sim.now - newest

    # -- health surface ---------------------------------------------------------
    def host_status(self, host):
        try:
            missed = self._host_misses[host]
        except KeyError:
            raise KeyError(f"no monitored host {host!r}") from None
        history = self._load[host]
        age = (
            self.cluster.sim.now - history[-1][0] if history else float("inf")
        )
        return ResourceStatus(
            age_s=age, missed_polls=missed, stale=missed >= self.stale_after
        )

    def channel_status(self, channel):
        try:
            missed = self._channel_misses[channel]
        except KeyError:
            raise KeyError(f"no monitored channel {channel!r}") from None
        last = self._raw.get(channel)
        age = self.cluster.sim.now - last[0] if last else float("inf")
        return ResourceStatus(
            age_s=age, missed_polls=missed, stale=missed >= self.stale_after
        )

    def stale_hosts(self):
        return sorted(
            name
            for name, missed in self._host_misses.items()
            if missed >= self.stale_after
        )

    def stale_resources(self) -> int:
        return sum(
            1 for m in self._host_misses.values() if m >= self.stale_after
        ) + sum(
            1 for m in self._channel_misses.values()
            if m >= self.stale_after
        )
