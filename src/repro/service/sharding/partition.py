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
- degree-1 compute nodes always travel with their uplink (a leaf's only
  tree edge is the uplink itself), so LAN membership stays intact and
  host-switch edges never become trunk edges.

The cut is static: the logical topology is an input (paper §2.2), and a
router keeps one plan for its whole life (its ledgers and WAL
directories are keyed to it).  Re-cutting under live traffic is dynamic
balanced graph partitioning with a migration cost (arXiv:2304.10350) —
parked in ROADMAP, and not something this module has a stub for.
"""

from __future__ import annotations

from collections import Counter, deque
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
        """Assert the partition invariants.

        Every node lands in exactly one shard; every link is intra-shard
        XOR trunk; every shard is non-empty and connected.
        """
        names = set(self.graph.node_names())
        covered = [name for members in self.shards for name in members]
        assert len(covered) == len(names) and set(covered) == names, (
            "shards must cover every node exactly once"
        )
        assert set(self.shard_of) == names, "shard_of must cover every node"
        for name, shard in self.shard_of.items():
            assert name in self.shards[shard], (
                f"{name!r} maps to shard {shard} but is not a member"
            )
        for link in self.graph.links():
            intra = self.shard_of[link.u] == self.shard_of[link.v]
            assert intra != (link.key in self.trunk_keys), (
                f"link {sorted(link.key)} must be intra-shard XOR trunk"
            )
        for shard, members in enumerate(self.shards):
            assert members, f"shard {shard} is empty"
            assert self.graph.subgraph(members).is_connected(), (
                f"shard {shard} is disconnected"
            )

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
) -> tuple[dict, list[str]]:
    """BFS spanning tree: ``(parent map, BFS order)``, root first."""
    parent: dict[str, object] = {root: None}
    order = [root]
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nxt in sorted(graph.neighbors(cur)):
            if nxt not in parent:
                parent[nxt] = cur
                order.append(nxt)
                queue.append(nxt)
    return parent, order


def _grow_regions(graph: TopologyGraph, k: int) -> dict[str, int]:
    """Balanced connected partition by subtree cutting.

    Over a BFS spanning tree, repeatedly cut off the subtree whose size
    is closest to ``residual / shards_left`` — a cut subtree is connected
    by construction, and so is the residual (removing a whole subtree
    never splits a tree).  Recomputing the target after every cut keeps
    the pieces near ``n / k`` wherever the structure allows; star-shaped
    hubs degrade gracefully to singleton leaves plus the hub remainder,
    the best any connected partition can do there.

    (Nearest-seed Voronoi growth was tried first and collapses on
    irregular topologies: farthest-point seeds sit on the periphery, and
    one central region absorbs nearly the whole graph — a 10k-host
    random tree cut 16 ways left one shard holding 78% of the hosts.)
    """
    root = _pick_root(graph)
    parent, order = _spanning_tree(graph, root)
    children: dict[str, list[str]] = {name: [] for name in order}
    for name in order[1:]:
        children[parent[name]].append(name)
    #: Residual subtree sizes — updated as cuts are taken out.
    size = {name: 1 for name in order}
    for name in reversed(order[1:]):
        size[parent[name]] += size[name]
    shard_of: dict[str, int] = {}
    residual = size[root]
    for cut in range(k - 1):
        shards_left = k - cut  # shards still to produce, incl. residual
        target = residual / shards_left
        limit = residual - (shards_left - 1)  # leave 1+ node per shard
        best = None
        for name in order[1:]:
            if name in shard_of or size[name] > limit:
                continue
            score = (abs(size[name] - target), name)
            if best is None or score < best[0]:
                best = (score, name)
        assert best is not None, "a connected graph always has a cut"
        chosen = best[1]
        queue = deque([chosen])
        while queue:
            cur = queue.popleft()
            shard_of[cur] = cut
            queue.extend(
                c for c in children[cur] if c not in shard_of
            )
        residual -= size[chosen]
        ancestor = parent[chosen]
        while ancestor is not None:
            size[ancestor] -= size[chosen]
            ancestor = parent[ancestor]
    for name in order:
        if name not in shard_of:
            shard_of[name] = k - 1
    return shard_of


def _pull_leaves(graph: TopologyGraph, shard_of: dict[str, int]) -> None:
    """Reassign stranded leaf hosts to their uplink's shard.

    A degree-1 compute node whose only link crosses the boundary would
    make that host-switch edge a trunk edge — every one of its requests
    cross-shard.  Pulling it over keeps LAN membership intact and cannot
    disconnect either side (a leaf carries no other shard's paths).
    Skipped when the move would empty the leaf's current shard.
    """
    counts = Counter(shard_of.values())
    for node in graph.nodes():
        if not node.is_compute or graph.degree(node.name) != 1:
            continue
        uplink = graph.neighbors(node.name)[0]
        mine, theirs = shard_of[node.name], shard_of[uplink]
        if mine != theirs and counts[mine] > 1:
            shard_of[node.name] = theirs
            counts[mine] -= 1
            counts[theirs] += 1


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
    if not graph.is_connected():
        raise ValueError("partitioning requires a connected topology")
    if k == 1:
        names = graph.node_names()
        plan = ShardPlan(
            graph=graph,
            shard_of={name: 0 for name in names},
            shards=(frozenset(names),),
            trunk_keys=frozenset(),
        )
        plan.validate()
        return plan
    shard_of = _grow_regions(graph, k)
    _pull_leaves(graph, shard_of)
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
        shard_of=dict(shard_of),
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

