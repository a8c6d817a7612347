"""Topology partitioning for the sharded selection service.

The single-service hot path is O(Δ) per request, but one service still
sweeps — and holds a residual view over — the *whole* network.  The
sharded deployment cuts the topology into k **connected** regions, runs
one :class:`~repro.service.SelectionService` per region, and reserves
bandwidth for cross-region traffic on the **trunk edges** (links whose
endpoints land in different shards) in the router's trunk ledger
(:attr:`~repro.service.sharding.ShardRouter.trunk`).

:func:`partition_topology` produces the cut by subtree cutting over a
BFS spanning tree:

- the tree is rooted at a network node (switches anchor subnet-shaped
  cuts on tree/campus topologies), falling back to any node on
  switchless shapes (:func:`~repro.topology.grid` /
  :func:`~repro.topology.torus`);
- ``k - 1`` times, the subtree whose size is closest to
  ``residual / shards_left`` is cut off as a shard — both the cut
  subtree and the residual stay connected, and recomputing the target
  keeps the pieces near ``n / k`` wherever the structure allows;
- degree-1 compute nodes travel with their uplink: a leaf's only link
  is its tree edge to its parent, so a cut takes it with its uplink
  unless it takes the leaf alone, and LAN membership stays intact.

What it costs: one BFS (which is also the connectivity check), one sort
of the subtree index, a bisection and a partial merge per cut, and a
:meth:`ShardPlan.validate` that copies no shard.  Plans must equal
those of ``tests/oracles.py::reference_partition``, a frozen
partitioner that scans the whole tree per cut and copies each shard to
validate it.

The cut is static: the logical topology is an input (paper §2.2), and a
router keeps one plan for its whole life (its ledgers and WAL
directories are keyed to it).  Re-cutting under live traffic is dynamic
balanced graph partitioning with a migration cost (arXiv:2304.10350) —
parked in ROADMAP, and not something this module has a stub for.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from ...topology.graph import Link, TopologyGraph

__all__ = [
    "ShardPlan",
    "graph_fingerprint",
    "partition_topology",
    "reassemble",
]


def graph_fingerprint(graph: TopologyGraph) -> tuple:
    """A canonical, order-independent fingerprint of a topology graph.

    Covers every node and link field (floats exact, no rounding), so two
    graphs with equal fingerprints are bit-identical as capacity models.
    Used to assert that reassembling a partition's shards + trunk edges
    reproduces the original graph exactly.
    """
    nodes = tuple(sorted(
        (n.name, n.kind, n.load_average, n.compute_capacity,
         tuple(sorted(n.attrs.items())))
        for n in graph.nodes()
    ))
    links = tuple(sorted(
        (tuple(sorted(link.key)), link.maxbw, link.latency,
         link.available_fwd, link.available_rev,
         tuple(sorted(link.attrs.items())))
        for link in graph.links()
    ))
    return (nodes, links)


@dataclass(frozen=True, eq=False)
class ShardPlan:
    """One cut of a topology: shard membership plus the trunk edge set."""

    #: The full graph the plan partitions (not copied).
    graph: TopologyGraph
    #: Node name -> shard index.
    shard_of: dict
    #: Node-name sets per shard (index-aligned, disjoint, covering).
    shards: tuple
    #: Undirected keys of links crossing shard boundaries.
    trunk_keys: frozenset

    @property
    def k(self) -> int:
        return len(self.shards)

    def subgraph(self, shard: int) -> TopologyGraph:
        """The induced subgraph of one shard (a fresh copy)."""
        return self.graph.subgraph(self.shards[shard])

    def trunk_links(self) -> list[Link]:
        """The boundary-crossing links, deterministically ordered."""
        links = []
        for key in sorted(self.trunk_keys, key=lambda k: tuple(sorted(k))):
            link = self.graph.link_by_key(key)
            if link is None:
                raise KeyError("no link {!r}--{!r}".format(*sorted(key)))
            links.append(link)
        return links

    def validate(self) -> None:
        """Check the partition invariants; ``ValueError`` names the first
        one broken.

        Every node lands in exactly one shard; every link is intra-shard
        XOR trunk; every shard is non-empty and connected.  No shard is
        copied: one pass over the links joins the ends of every
        intra-shard link (union-find), and a shard is connected when
        that joined its members ``len(members) - 1`` times.
        """
        graph, shard_of, shards = self.graph, self.shard_of, self.shards
        names = set(graph.node_names())
        if sum(map(len, shards)) != len(names) \
                or set().union(*shards) != names:
            raise ValueError("shards must cover every node exactly once")
        if shard_of.keys() != names:
            raise ValueError("shard_of must cover every node")
        for name, shard in shard_of.items():
            if not 0 <= shard < len(shards) or name not in shards[shard]:
                raise ValueError(
                    f"{name!r} maps to shard {shard} but is not a member"
                )
        up: dict[str, str] = {}  # union-find parent; roots are absent
        joined = [0] * len(shards)

        def find(name: str) -> str:
            while name in up:
                above = up[name]
                if above in up:  # path halving
                    up[name] = above = up[above]
                name = above
            return name

        for link in graph.links():
            shard = shard_of[link.u]
            if shard != shard_of[link.v]:
                if link.key not in self.trunk_keys:
                    raise ValueError(
                        f"link {sorted(link.key)} must be intra-shard "
                        "XOR trunk"
                    )
                continue
            a, b = find(link.u), find(link.v)
            if a != b:
                up[a] = b
                joined[shard] += 1
        for key in self.trunk_keys:
            link = graph.link_by_key(key)
            if link is None or shard_of[link.u] == shard_of[link.v]:
                raise ValueError(
                    f"link {sorted(key)} must be intra-shard XOR trunk"
                )
        for shard, members in enumerate(shards):
            if not members:
                raise ValueError(f"shard {shard} is empty")
            if joined[shard] != len(members) - 1:
                raise ValueError(f"shard {shard} is disconnected")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = ",".join(str(len(s)) for s in self.shards)
        return (
            f"<ShardPlan k={self.k} sizes=[{sizes}] "
            f"trunk={len(self.trunk_keys)}>"
        )


def _pick_root(graph: TopologyGraph) -> str:
    """The spanning-tree root: the first network node.

    Rooting at a switch anchors subnet-shaped cuts on tree/campus
    topologies; switchless shapes (grid/torus) fall back to any node.
    """
    candidates = [n.name for n in graph.network_nodes()]
    return candidates[0] if candidates else graph.node_names()[0]


def _spanning_tree(
    graph: TopologyGraph, root: str
) -> tuple[dict, list[str], dict[str, list[str]]]:
    """BFS spanning tree: ``(parent map, BFS order, children)``, root
    first; ``children`` lists each inner node's children in name order
    (leaves have no entry)."""
    parent: dict[str, object] = {root: None}
    order = [root]
    children: dict[str, list[str]] = {}
    for cur in order:  # the order is the BFS queue
        first = len(order)
        for nxt in sorted(graph.neighbors(cur)):
            if nxt not in parent:
                parent[nxt] = cur
                order.append(nxt)
        if len(order) > first:
            children[cur] = order[first:]
    return parent, order, children


def _grow_regions(graph: TopologyGraph, k: int) -> dict[str, int]:
    """Balanced connected partition by subtree cutting.

    Over a BFS spanning tree, repeatedly cut off the subtree whose size
    is closest to ``residual / shards_left`` — a cut subtree is connected
    by construction, and so is the residual (removing a whole subtree
    never splits a tree).  Recomputing the target after every cut keeps
    the pieces near ``n / k`` wherever the structure allows; star-shaped
    hubs degrade gracefully to singleton leaves plus the hub remainder,
    the best any connected partition can do there.

    The spanning tree is the connectivity check: a ``ValueError`` when
    it misses a node.  Each cut is read from ``index``, the non-root
    nodes sorted by ``(residual size, name)`` (:func:`_closest`).  A cut
    re-keys its ancestors only, in one merge over the index from the
    first place their new entries reach; its own subtree stays in the
    index, skipped.  One BFS, one sort, and a partial merge per cut.

    An entry is one integer, ``size * len(names) + rank``, ``rank`` the
    node's place in ``names`` (sorted): integers order as the pairs do,
    and a list of them is no work for the garbage collector.

    (Nearest-seed Voronoi growth was tried first and collapses on
    irregular topologies: farthest-point seeds sit on the periphery, and
    one central region absorbs nearly the whole graph — a 10k-host
    random tree cut 16 ways left one shard holding 78% of the hosts.)
    """
    root = _pick_root(graph)
    parent, order, children = _spanning_tree(graph, root)
    if len(order) != graph.num_nodes:
        raise ValueError("partitioning requires a connected topology")
    #: Residual subtree sizes — updated as cuts are taken out.
    size = {name: 1 for name in order}
    for name in reversed(order[1:]):
        size[parent[name]] += size[name]
    names = sorted(order[1:])
    rank = {name: i for i, name in enumerate(names)}
    n = len(names)
    index = sorted(size[name] * n + i for i, name in enumerate(names))
    shard_of: dict[str, int] = {}
    residual = size[root]
    for cut in range(k - 1):
        shards_left = k - cut  # shards still to produce, incl. residual
        target = residual / shards_left
        limit = residual - (shards_left - 1)  # leave 1+ node per shard
        chosen = _closest(index, names, shard_of, target, limit)
        queue = deque([chosen])
        while queue:
            cur = queue.popleft()
            shard_of[cur] = cut
            queue.extend(
                c for c in children.get(cur, ()) if c not in shard_of
            )
        taken = size[chosen]
        residual -= taken
        # Re-key the ancestors: their new entries ascend (sizes grow
        # towards the root), merged in from the first one's place in the
        # same pass that drops their old entries.
        old, new = set(), []
        ancestor = parent[chosen]
        while ancestor != root:
            old.add(size[ancestor] * n + rank[ancestor])
            size[ancestor] -= taken
            new.append(size[ancestor] * n + rank[ancestor])
            ancestor = parent[ancestor]
        if new:
            start = bisect_left(index, new[0])
            tail = [entry for entry in index[start:] if entry not in old]
            tail += new
            tail.sort()
            index[start:] = tail
    for name in order:
        if name not in shard_of:
            shard_of[name] = k - 1
    return shard_of


def _closest(
    index: list[int], names: list[str], cut: dict[str, int],
    target: float, limit: int,
) -> str:
    """The subtree to cut: the smallest ``(|size - target|, name)`` over
    the entries of ``index`` not yet ``cut`` whose size is at most
    ``limit``.

    Only two sizes can win — the largest at or below ``target`` and the
    smallest above it — and each one's first uncut entry holds its
    smallest name, so the answer lies next to one bisection.
    """
    n = len(names)

    def is_cut(at: int) -> bool:
        return names[index[at] % n] in cut

    split = bisect_left(index, (min(math.floor(target), limit) + 1) * n)
    best = None
    above = split
    while above < len(index) and is_cut(above):
        above += 1
    if above < len(index):
        size, at = divmod(index[above], n)
        if size <= limit:
            best = (size - target, names[at])
    below = split - 1
    while below >= 0 and is_cut(below):
        below -= 1
    if below >= 0:
        below = bisect_left(index, index[below] // n * n)
        while is_cut(below):
            below += 1
        size, at = divmod(index[below], n)
        if best is None or (target - size, names[at]) < best:
            best = (target - size, names[at])
    assert best is not None, "a connected graph always has a cut"
    return best[1]


def partition_topology(graph: TopologyGraph, k: int) -> ShardPlan:
    """Cut ``graph`` into ``k`` connected shards plus their trunk edges.

    Raises ``ValueError`` when the graph is disconnected or ``k`` is out
    of range.  Deterministic for a given ``(graph, k)``.
    """
    if k < 1:
        raise ValueError(f"need at least one shard: k={k}")
    if k > graph.num_nodes:
        raise ValueError(
            f"cannot cut {graph.num_nodes} nodes into {k} shards"
        )
    shard_of = _grow_regions(graph, k)
    members: list[set[str]] = [set() for _ in range(k)]
    for name, shard in shard_of.items():
        members[shard].add(name)
    trunk_keys = frozenset(
        link.key
        for link in graph.links()
        if shard_of[link.u] != shard_of[link.v]
    )
    plan = ShardPlan(
        graph=graph,
        shard_of=shard_of,
        shards=tuple(frozenset(m) for m in members),
        trunk_keys=trunk_keys,
    )
    plan.validate()
    return plan


def reassemble(plan: ShardPlan) -> TopologyGraph:
    """Rebuild the full graph from shard subgraphs + trunk links.

    The inverse of :func:`partition_topology` up to insertion order:
    :func:`graph_fingerprint` of the result equals the original's — the
    partition loses no node, link, or capacity bit.
    """
    # add_link() would collapse the per-direction availabilities; attach
    # exact copies the way subgraph() does.
    g = TopologyGraph()
    for shard in range(plan.k):
        sub = plan.subgraph(shard)
        for node in sub.nodes():
            g.add_node(node.copy())
        for link in sub.links():
            g._attach_link(link.copy())
    for link in plan.trunk_links():
        g._attach_link(link.copy())
    return g

