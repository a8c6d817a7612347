"""Reference implementations tests compare the library against."""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.remos import DegradedPolicy, RemosAPI
from repro.remos.api import _UNMONITORABLE_LOAD
from repro.service import SelectionService
from repro.topology import TopologyGraph


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


def naive_rebuild_service(*args, **kwargs) -> SelectionService:
    """The admission hot path as it was before the O(Δ) overlay: every
    attempt drops the live view and places on ``ledger.apply()``'s
    from-scratch rebuild, so no in-place delta, memo entry, cached route
    or peel schedule outlives one attempt."""
    service = SelectionService(*args, **kwargs)
    overlay = service._residual

    def rebuild(base: TopologyGraph) -> TopologyGraph:
        service._view = None
        overlay(base)
        service._view.graph = service._capacity_view(base)
        return service._view.graph

    service._residual = rebuild
    return service


def full_sweep_topology(api: RemosAPI) -> TopologyGraph:
    """``RemosAPI.topology()`` as it was before it answered with patches:
    copy the physical graph, then derive every host and every link from
    the collector, stamping each sample age into ``attrs["age_s"]``."""
    g = api.cluster.graph.copy()
    mark = api.degraded != DegradedPolicy.OPTIMISTIC
    for name in api.cluster.hosts:
        info = api.node_info(name)
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
