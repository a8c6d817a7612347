"""Reference implementations tests compare the library against."""

from __future__ import annotations

from collections import deque
from typing import Optional

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
