"""The logical network topology graph (paper §3.1).

A topology graph ``G(n)`` is an undirected connected graph whose nodes are
either *compute nodes* (processors available for computation) or *network
nodes* (routers/switches).  Edges are communication links annotated with a
peak capacity ``maxbw`` and a currently available bandwidth ``bw``; compute
nodes carry a load average from which the available CPU fraction

    ``cpu = 1 / (1 + loadaverage)``

is derived.  This module implements the graph structure, the paper's
derived quantities (``cpu``, ``bwfactor``), and the graph primitives the
selection algorithms in :mod:`repro.core` are built from (connected
components, unique tree paths, edge removal on copies).

Directed links (paper §3.3, "independent and shared network links") are
supported: a link may carry distinct available bandwidths per direction, and
``Link.available`` is then the minimum of the two, exactly as prescribed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    Literal,
    Mapping,
    Optional,
    Union,
)

__all__ = [
    "NodeKind",
    "Node",
    "Link",
    "ChannelId",
    "SHARED",
    "Measurement",
    "TopologyGraph",
    "cpu_fraction",
    "load_from_cpu_fraction",
]


def cpu_fraction(load_average: float) -> float:
    """Available CPU fraction on a node: ``1 / (1 + loadaverage)`` (§3.1).

    The justification in the paper: the load average counts competing active
    processes, and a newly placed application process gets an equal share
    among ``load + 1`` processes.

    >>> cpu_fraction(0.0)
    1.0
    >>> cpu_fraction(1.0)
    0.5
    """
    if load_average < 0:
        raise ValueError(f"load average cannot be negative: {load_average}")
    return 1.0 / (1.0 + load_average)


def load_from_cpu_fraction(cpu: float) -> float:
    """Inverse of :func:`cpu_fraction` (used by tests and calibration)."""
    if not 0 < cpu <= 1:
        raise ValueError(f"cpu fraction must be in (0, 1], got {cpu}")
    return 1.0 / cpu - 1.0


class NodeKind:
    """Node role markers (plain strings keep serialization trivial)."""

    COMPUTE = "compute"
    NETWORK = "network"


@dataclass(slots=True)
class Node:
    """A vertex of the topology graph.

    Parameters
    ----------
    name:
        Unique identifier within the graph (e.g. ``"m-4"``, ``"gibraltar"``).
    kind:
        ``NodeKind.COMPUTE`` or ``NodeKind.NETWORK``.
    load_average:
        Run-queue load average; meaningful only for compute nodes.
    compute_capacity:
        Peak computation rate in ops/second relative to which heterogeneous
        balancing normalizes (§3.3).  ``1.0`` in homogeneous setups.
    attrs:
        Free-form properties used by placement constraints (e.g.
        ``{"arch": "alpha"}``).
    """

    name: str
    kind: str = NodeKind.COMPUTE
    load_average: float = 0.0
    compute_capacity: float = 1.0
    attrs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Negated, so that NaN (which JSON reads) is refused too: a NaN
        # key breaks the order every ranking of the nodes relies on.
        if not self.load_average >= 0.0:
            raise ValueError(
                f"load average must be a non-negative number, "
                f"got {self.load_average}"
            )

    @property
    def is_compute(self) -> bool:
        return self.kind == NodeKind.COMPUTE

    @property
    def cpu(self) -> float:
        """Available CPU fraction, ``1/(1+load)`` (§3.1):
        :func:`cpu_fraction` written out, since every claim reads it."""
        load = self.load_average
        if load < 0.0:
            raise ValueError(f"load average cannot be negative: {load}")
        return 1.0 / (1.0 + load)

    def copy(self) -> "Node":
        """An independent copy (attrs shallow-copied): a valid node's
        fields are taken as they are, unchecked."""
        node = object.__new__(Node)
        node.name, node.kind = self.name, self.kind
        node.load_average = self.load_average
        node.compute_capacity = self.compute_capacity
        node.attrs = dict(self.attrs)
        return node


#: How far an availability may exceed ``maxbw`` (float noise) before
#: :meth:`Link.set_available` refuses it.
MAXBW_SLACK = 1e-9

#: The direction tag of a half-duplex link's one channel.
SHARED = "shared"

#: A link channel as :meth:`Link.channel` names it: ``(link key, dst)``
#: or, on a half-duplex link, ``(link key, SHARED)``.
ChannelId = tuple[frozenset, str]


@dataclass(slots=True, init=False)
class Link:
    """An edge of the topology graph: a communication link.

    ``maxbw`` is the peak capacity in bps.  Available bandwidth may differ
    per direction for full-duplex links with independent channels
    (``available_fwd`` = u→v, ``available_rev`` = v→u); the scalar
    ``available`` used by the selection algorithms is the minimum of the two
    directions, per paper §3.3.  A half-duplex link (``attrs["duplex"] ==
    "half"``) has one channel both directions share (:meth:`channel`).
    Unless given, ``available_fwd`` is ``maxbw`` and ``available_rev`` is
    ``available_fwd``.

    ``key`` is the canonical undirected edge key, ``frozenset((u, v))``:
    built once, by the constructor, and shared by every :meth:`copy`, so
    the copies of a graph key their links by the same objects.
    """

    u: str
    v: str
    maxbw: float
    latency: float
    available_fwd: float
    available_rev: float
    attrs: dict[str, Any]
    key: frozenset = field(init=False, repr=False, compare=False)

    def __init__(
        self,
        u: str,
        v: str,
        maxbw: float,
        latency: float = 0.0,
        available_fwd: Optional[float] = None,
        available_rev: Optional[float] = None,
        attrs: Optional[dict[str, Any]] = None,
    ) -> None:
        if u == v:
            raise ValueError(f"self-loop on {u!r} not allowed")
        # Each check negated, so that NaN fails it too.
        if not maxbw > 0:
            raise ValueError(f"maxbw must be positive, got {maxbw}")
        if not latency >= 0:
            raise ValueError(f"latency cannot be negative: {latency}")
        if available_fwd is None:
            available_fwd = maxbw
        if available_rev is None:
            available_rev = available_fwd
        for bw in (available_fwd, available_rev):
            if not bw >= 0:
                raise ValueError(
                    f"available bandwidth must be a non-negative number, "
                    f"got {bw}"
                )
        self.u, self.v, self.key = u, v, frozenset((u, v))
        self.maxbw, self.latency = maxbw, latency
        self.available_fwd, self.available_rev = available_fwd, available_rev
        self.attrs = {} if attrs is None else attrs

    @property
    def available(self) -> float:
        """Available bandwidth ``bw`` (min over directions), in bps.
        ``min`` written out: ``rev`` only when strictly smaller."""
        fwd, rev = self.available_fwd, self.available_rev
        return rev if rev < fwd else fwd

    @property
    def bwfactor(self) -> float:
        """Fraction of peak bandwidth available: ``bw / maxbw`` (§3.1)."""
        return self.available / self.maxbw

    @property
    def shared(self) -> bool:
        """Whether both directions share one channel (half duplex)."""
        return self.attrs.get("duplex") == "half"

    def channel(self, dst: str) -> ChannelId:
        """The channel carrying traffic towards ``dst``: the one rule every
        layer (fabric, SNMP, Remos, ledger) names a hop's channel by."""
        return (self.key, SHARED if self.shared else dst)

    def channels(self) -> list[ChannelId]:
        """Every channel of the link: towards ``u``, then ``v``, once each."""
        return list(dict.fromkeys((self.channel(self.u), self.channel(self.v))))

    def available_towards(self, dst: str) -> float:
        """Available bandwidth towards ``dst`` (:attr:`available`: SHARED)."""
        if dst == self.v:
            return self.available_fwd
        if dst == self.u:
            return self.available_rev
        if dst == SHARED:
            return self.available
        raise KeyError(f"{dst!r} is not an endpoint of {self!r}")

    def set_available(self, bw: float, direction: Optional[str] = None) -> None:
        """Set available bandwidth (both directions, or towards ``direction``)."""
        if bw < 0 or bw > self.maxbw + MAXBW_SLACK:
            raise ValueError(
                f"available bw {bw} outside [0, maxbw={self.maxbw}]"
            )
        if direction is None or direction == SHARED:
            self.available_fwd = bw
            self.available_rev = bw
        elif direction == self.v:
            self.available_fwd = bw
        elif direction == self.u:
            self.available_rev = bw
        else:
            raise KeyError(f"{direction!r} is not an endpoint of {self!r}")

    def other(self, node: str) -> str:
        """The endpoint that is not ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise KeyError(f"{node!r} is not an endpoint of {self!r}")

    def copy(self) -> "Link":
        """An independent copy (attrs shallow-copied) with this link's
        ``key``: a valid link's fields are taken as they are, unchecked."""
        link = object.__new__(Link)
        link.u, link.v, link.key = self.u, self.v, self.key
        link.maxbw, link.latency = self.maxbw, self.latency
        link.available_fwd = self.available_fwd
        link.available_rev = self.available_rev
        link.attrs = dict(self.attrs)
        return link

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Link({self.u}--{self.v}, max={self.maxbw:g}, "
            f"avail={self.available:g})"
        )


@dataclass(frozen=True)
class Measurement:
    """Provenance of a measured snapshot (:attr:`TopologyGraph.measurement`).

    A sweeper that answers each query with a patch of its previous
    snapshot (:meth:`repro.remos.RemosAPI.topology`) says here what the
    patch replaced, so a consumer holding the previous generation can
    move to this one by recomputing only that; and how old the samples
    are, so ages need not be stamped on every node and link of every
    generation.  Immutable, and free of references to any other
    generation: holding a snapshot never keeps its ancestors alive.

    ``source`` identifies the sweeper (by identity) and ``generation``
    counts its sweeps.  ``nodes`` / ``links`` are the node names and
    link keys whose object differs from generation ``generation - 1`` of
    the same source; both ``None`` when that is not known (a first
    sweep, a subgraph).  ``age_s`` is the age of every measured
    resource's newest sample except those in ``late`` (node name or
    link key -> its own age; ``inf``: never sampled).
    """

    source: object
    generation: int
    nodes: Optional[frozenset]
    links: Optional[frozenset]
    age_s: float
    late: Mapping[Any, float]

    def delta_from(
        self, held: Optional["Measurement"]
    ) -> Optional[tuple[frozenset, frozenset]]:
        """``(nodes, links)`` to recompute when moving from the snapshot
        measured as ``held`` to this one; ``None`` unless this is the
        same source's very next generation."""
        if (
            held is None
            or self.nodes is None
            or held.source is not self.source
            or held.generation + 1 != self.generation
        ):
            return None
        return self.nodes, self.links

    def age(self, key: Any) -> Optional[float]:
        """Sample age of node name / link key ``key`` (``None``: never)."""
        age = self.late.get(key, self.age_s)
        return None if age == float("inf") else age


#: ``(parent, depth)`` per node of a forest; roots have no ``parent`` entry.
_ForestIndex = tuple[dict[str, str], dict[str, int]]


class TopologyGraph:
    """A mutable logical topology graph of nodes and links.

    The selection algorithms operate on *copies* of the graph obtained from
    Remos, repeatedly removing edges; this class therefore keeps all
    operations (copy, remove, components) simple and allocation-light.
    """

    #: Forest index behind :meth:`path` and :meth:`is_acyclic`: ``None``
    #: until first asked for and after any structural change, ``False``
    #: when the graph has a cycle, else ``(parent, depth)`` per node.  A
    #: class-level default so graphs pickled before the index existed load.
    _forest: Union[None, Literal[False], _ForestIndex] = None

    #: Next-hop maps behind :meth:`path` on a graph with a cycle:
    #: destination -> {node: its next hop towards it}, one map built per
    #: destination on first use.  Dropped with the forest index, shared
    #: by :meth:`replaced`, neither copied nor pickled.
    _next_hops: Optional[dict[str, dict[str, str]]] = None

    #: The last :meth:`span`: ``(forest index, names, answer)``.  A repeat
    #: of the same names against the same index is answered from it, so
    #: a selection's scoring and its lease's routing climb once.  Derived
    #: state like the forest index: neither copied nor pickled.
    _last_span: Optional[tuple] = None

    #: Set on snapshots a measuring provider answers with; ``None`` on
    #: built, loaded and oracle graphs.  Copies carry it along.
    measurement: Optional[Measurement] = None

    #: A :class:`repro.core.kernel.ComputeRanking` kept by whoever moves
    #: this graph's loads in place (the service's residual overlay), for
    #: selections to read; ``None``: they rank on the spot.  Derived
    #: state like the forest index: copies and pickles do not carry it.
    compute_ranking: Any = None

    def __init__(self) -> None:
        self._nodes: dict[str, Node] = {}
        self._links: dict[frozenset, Link] = {}
        self._adj: dict[str, dict[str, Link]] = {}

    def __getstate__(self) -> dict[str, Any]:
        # Derived state, rebuilt on demand: do not ship it.
        state = self.__dict__.copy()
        state.pop("_forest", None)
        state.pop("_next_hops", None)
        state.pop("_last_span", None)
        state.pop("compute_ranking", None)
        return state

    # -- construction -------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Add a prebuilt :class:`Node` (name must be unused)."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._adj[node.name] = {}
        self._forest = self._next_hops = None
        return node

    def add_compute(
        self,
        name: str,
        load_average: float = 0.0,
        compute_capacity: float = 1.0,
        **attrs: Any,
    ) -> Node:
        """Convenience: add a compute node."""
        return self.add_node(
            Node(
                name=name,
                kind=NodeKind.COMPUTE,
                load_average=load_average,
                compute_capacity=compute_capacity,
                attrs=attrs,
            )
        )

    def add_network(self, name: str, **attrs: Any) -> Node:
        """Convenience: add a network (router/switch) node."""
        return self.add_node(Node(name=name, kind=NodeKind.NETWORK, attrs=attrs))

    def add_link(
        self,
        u: str,
        v: str,
        maxbw: float,
        latency: float = 0.0,
        available: Optional[float] = None,
        **attrs: Any,
    ) -> Link:
        """Connect ``u`` and ``v`` with a link of peak capacity ``maxbw`` bps."""
        for name in (u, v):
            if name not in self._nodes:
                raise KeyError(f"unknown node {name!r}")
        key = frozenset((u, v))
        if key in self._links:
            raise ValueError(f"duplicate link {u!r}--{v!r}")
        return self._attach_link(Link(
            u=u, v=v, maxbw=maxbw, latency=latency,
            available_fwd=available, attrs=attrs,
        ))

    def _attach_link(self, link: Link) -> Link:
        """Insert a prebuilt link between two known, unlinked nodes.

        The one place a link enters a graph being built (and the forest
        index is dropped for it): :meth:`add_link`, :meth:`copy` (so
        :meth:`subgraph`), deserialization and shard reassembly, which
        must keep per-direction availabilities ``add_link`` cannot take.
        :meth:`replaced` and :meth:`restricted` take a whole graph's
        dicts instead.
        """
        self._links[link.key] = link
        self._adj[link.u][link.v] = link
        self._adj[link.v][link.u] = link
        self._forest = self._next_hops = None
        return link

    def remove_link(self, u: str, v: str) -> Link:
        """Delete the link between ``u`` and ``v`` and return it."""
        key = frozenset((u, v))
        link = self._links.pop(key, None)
        if link is None:
            raise KeyError(f"no link {u!r}--{v!r}")
        del self._adj[u][v]
        del self._adj[v][u]
        self._forest = self._next_hops = None
        return link

    def remove_node(self, name: str) -> Node:
        """Delete a node and all its incident links."""
        node = self._nodes.pop(name, None)
        if node is None:
            raise KeyError(f"no node {name!r}")
        for neighbor in list(self._adj[name]):
            self.remove_link(name, neighbor)
        del self._adj[name]
        self._forest = self._next_hops = None
        return node

    # -- access --------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise KeyError(f"no node {name!r}") from None

    def link(self, u: str, v: str) -> Link:
        """Look up the link between ``u`` and ``v``."""
        try:
            return self._links[frozenset((u, v))]
        except KeyError:
            raise KeyError(f"no link {u!r}--{v!r}") from None

    def link_by_key(self, key: frozenset) -> Optional[Link]:
        """The link whose :attr:`Link.key` is ``key`` (``None``: absent)."""
        return self._links.get(key)

    def has_node(self, name: str) -> bool:
        return name in self._nodes

    def has_link(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self._links

    def node_age(self, name: str) -> Optional[float]:
        """Seconds since compute node ``name`` was last sampled.

        Read off :attr:`measurement` on a measured snapshot, else the
        node's ``attrs["age_s"]`` (how serialized snapshots carry it);
        ``None`` when there is no sample to speak of.
        """
        node = self.node(name)
        if self.measurement is not None and node.is_compute:
            return self.measurement.age(name)
        return node.attrs.get("age_s")

    def link_age(self, u: str, v: str) -> Optional[float]:
        """Seconds since the link's counters were last sampled (the
        older of its channels); see :meth:`node_age`."""
        link = self.link(u, v)
        if self.measurement is not None:
            return self.measurement.age(link.key)
        return link.attrs.get("age_s")

    def nodes(self) -> Iterator[Node]:
        """Iterate all nodes (insertion order)."""
        return iter(self._nodes.values())

    def links(self) -> Iterator[Link]:
        """Iterate all links (insertion order)."""
        return iter(self._links.values())

    def node_names(self) -> list[str]:
        return list(self._nodes)

    def compute_nodes(self) -> list[Node]:
        """All compute nodes, in insertion order."""
        return [n for n in self._nodes.values() if n.is_compute]

    def network_nodes(self) -> list[Node]:
        return [n for n in self._nodes.values() if not n.is_compute]

    def neighbors(self, name: str) -> list[str]:
        """Names of nodes adjacent to ``name``."""
        if name not in self._adj:
            raise KeyError(f"no node {name!r}")
        return list(self._adj[name])

    def incident_links(self, name: str) -> list[Link]:
        """Links touching ``name``."""
        if name not in self._adj:
            raise KeyError(f"no node {name!r}")
        return list(self._adj[name].values())

    def degree(self, name: str) -> int:
        return len(self._adj[name])

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return len(self._links)

    # -- structure queries ----------------------------------------------------
    def connected_components(self) -> list[set[str]]:
        """Node-name sets of the connected components (BFS, deterministic)."""
        seen: set[str] = set()
        components: list[set[str]] = []
        for start in self._nodes:
            if start in seen:
                continue
            comp = {start}
            queue = deque([start])
            seen.add(start)
            while queue:
                cur = queue.popleft()
                for nxt in self._adj[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        comp.add(nxt)
                        queue.append(nxt)
            components.append(comp)
        return components

    def component_of(self, name: str) -> set[str]:
        """The connected component containing ``name``."""
        if name not in self._nodes:
            raise KeyError(f"no node {name!r}")
        comp = {name}
        queue = deque([name])
        while queue:
            cur = queue.popleft()
            for nxt in self._adj[cur]:
                if nxt not in comp:
                    comp.add(nxt)
                    queue.append(nxt)
        return comp

    def is_connected(self) -> bool:
        """True if the graph has exactly one connected component."""
        if not self._nodes:
            return True
        return len(self.component_of(next(iter(self._nodes)))) == len(self._nodes)

    def _forest_index(self) -> Optional[_ForestIndex]:
        """``(parent, depth)`` of every node when the graph is a forest.

        ``None`` when it has a cycle.  Built on first use by one BFS in
        insertion order (roots have depth 0 and no ``parent`` entry) and
        kept until the structure changes; availabilities and loads are
        not part of it.
        """
        index = self._forest
        if index is None:
            index = self._forest = self._build_forest_index()
        return index or None

    def _build_forest_index(self) -> Union[Literal[False], _ForestIndex]:
        # A forest has exactly num_nodes - num_components edges; with
        # more than num_nodes - 1 there is a cycle whatever the count.
        if len(self._links) >= len(self._nodes) > 0:
            return False
        adj = self._adj
        parent: dict[str, str] = {}
        depth: dict[str, int] = {}
        components = 0
        for root in self._nodes:
            if root in depth:
                continue
            components += 1
            depth[root] = 0
            queue = deque([root])
            while queue:
                cur = queue.popleft()
                below = depth[cur] + 1
                for nxt in adj[cur]:
                    if nxt not in depth:
                        depth[nxt] = below
                        parent[nxt] = cur
                        queue.append(nxt)
        if len(self._links) != len(self._nodes) - components:
            return False
        return parent, depth

    def is_acyclic(self) -> bool:
        """True if the graph contains no cycles (it is a forest)."""
        return self._forest_index() is not None

    def path(self, src: str, dst: str) -> Optional[list[str]]:
        """The fixed route (node names, inclusive) from ``src`` to ``dst``;
        ``None`` when the nodes are disconnected.

        Every hop goes to the smallest-named neighbour one hop closer to
        ``dst``, so the route is a shortest path and the same on every
        call (the static routing of §3.3).  The rule is per ordered pair:
        ``path(b, a)`` need not be ``path(a, b)`` reversed, and the
        ledger claims each direction's channels on its own.  In a forest
        the path is unique and read off the forest index by walking both
        ends up to their lowest common ancestor, O(depth).  With a cycle
        it follows ``dst``'s next-hop map, built by one BFS from ``dst``
        on first use and kept until the structure changes, O(length).
        """
        for name in (src, dst):
            if name not in self._nodes:
                raise KeyError(f"no node {name!r}")
        index = self._forest_index()
        if index is not None:
            return self._forest_path(index, src, dst)
        hops = self._hops_towards(dst)
        if src not in hops:
            return None
        out = [src]
        while out[-1] != dst:
            out.append(hops[out[-1]])
        return out

    def _hops_towards(self, dst: str) -> dict[str, str]:
        """``{node: next hop}`` for every node connected to ``dst``."""
        maps = self._next_hops
        if maps is None:
            maps = self._next_hops = {}
        hops = maps.get(dst)
        if hops is None:
            hops = maps[dst] = {dst: dst}
            adj, level = self._adj, [dst]
            while level:
                below = []
                # A level in name order: whoever reaches a node first is
                # its smallest-named neighbour one hop closer to ``dst``.
                for cur in sorted(level):
                    for nxt in adj[cur]:
                        if nxt not in hops:
                            hops[nxt] = cur
                            below.append(nxt)
                level = below
        return hops

    @staticmethod
    def _forest_path(
        index: _ForestIndex, src: str, dst: str
    ) -> Optional[list[str]]:
        parent, depth = index
        up, down = [src], [dst]
        a, b = src, dst
        da, db = depth[a], depth[b]
        while da > db:
            a = parent[a]
            up.append(a)
            da -= 1
        while db > da:
            b = parent[b]
            down.append(b)
            db -= 1
        while a != b:
            if da == 0:
                return None  # two different roots
            a = parent[a]
            b = parent[b]
            up.append(a)
            down.append(b)
            da -= 1
        down.pop()  # the common ancestor, already last in ``up``
        down.reverse()
        return up + down

    def span(self, names: Iterable[str]) -> Optional[tuple[list[Link], bool]]:
        """``(links, connected)``: the union of :meth:`path`'s links over
        all pairs of ``names`` and whether every pair has a path; ``None``
        on a graph with a cycle.  Each name climbs to its root once,
        O(len(names) · depth); a link is kept when the subtree under it
        holds some but not all of its tree's names.  The same ``names``
        asked again, in the same order and with no structural change in
        between, get the same answer object back without a climb: the
        links are this graph's own, read live, and the list is shared,
        so do not mutate it."""
        index = self._forest_index()
        if index is None:
            return None
        names = tuple(names)
        last = self._last_span
        if last is not None and last[0] is index and last[1] == names:
            return last[2]
        parent, adj = index[0], self._adj
        held: dict[str, int] = {}  # names in the subtree under each node
        climbs = []
        for name in names:
            if name not in self._nodes:
                raise KeyError(f"no node {name!r}")
            node: Optional[str] = name
            while node is not None:
                held[node] = held.get(node, 0) + 1
                root, node = node, parent.get(node)
            climbs.append((name, root))
        links = []
        for node, root in climbs:
            total = held[root]
            while 0 < held[node] < total:
                held[node] = 0  # taken: a later climb stops here
                links.append(adj[node][parent[node]])
                node = parent[node]
        answer = links, len({root for _, root in climbs}) <= 1
        self._last_span = (index, names, answer)
        return answer

    def floor_components(self, floor_bps: float) -> Callable[[str], Any]:
        """``name -> component id`` in the graph that keeps only the links
        with ``available >= floor_bps``: equal ids, connected nodes.

        For one selection, on the availabilities of the moment.  On a
        forest nothing is built: the id is the component's topmost node,
        found by climbing the forest index while the link up meets the
        floor — O(depth), every node on the trail remembered.  A graph
        with a cycle pays one union-find pass over its links up front.
        """
        index = self._forest_index()
        if index is None:
            root_of = {name: name for name in self._nodes}

            def find(name: str) -> str:
                while root_of[name] != name:  # path halving
                    root_of[name] = name = root_of[root_of[name]]
                return name

            for link in self._links.values():
                if link.available >= floor_bps:
                    root_of[find(link.u)] = find(link.v)
            return find
        parent, adj = index[0], self._adj
        top: dict[str, str] = {}

        def climb(name: str) -> str:
            trail = []
            while (root := top.get(name)) is None:
                trail.append(name)
                up = parent.get(name)
                if up is None or adj[name][up].available < floor_bps:
                    root = name
                    break
                name = up
            for below in trail:
                top[below] = root
            return root

        return climb

    def path_links(self, path: list[str]) -> list[Link]:
        """The links along a node path."""
        return [self.link(a, b) for a, b in zip(path, path[1:])]

    def path_available_bandwidth(self, src: str, dst: str) -> float:
        """Bottleneck available bandwidth on the path from src to dst (bps).

        Directionality is respected: for each hop the capacity *towards* the
        next node is used.  Returns ``inf`` for ``src == dst`` and ``0`` when
        disconnected.
        """
        if src == dst:
            return float("inf")
        p = self.path(src, dst)
        if p is None:
            return 0.0
        return min(
            self.link(a, b).available_towards(b) for a, b in zip(p, p[1:])
        )

    def path_latency(self, src: str, dst: str) -> float:
        """Sum of link latencies along the path (``inf`` if disconnected)."""
        if src == dst:
            return 0.0
        p = self.path(src, dst)
        if p is None:
            return float("inf")
        return sum(link.latency for link in self.path_links(p))

    # -- derived views ---------------------------------------------------------
    def copy(self) -> "TopologyGraph":
        """Deep copy (nodes and links are copied; attrs shallow-copied)."""
        g = TopologyGraph()
        for node in self._nodes.values():
            g.add_node(node.copy())
        for link in self._links.values():
            g._attach_link(link.copy())
        g.measurement = self.measurement
        return g

    def replaced(
        self, nodes: Iterable[Node] = (), links: Iterable[Link] = ()
    ) -> "TopologyGraph":
        """A same-structure graph with ``nodes`` / ``links`` swapped in.

        Each given node replaces the one of its name and each link the
        one between its endpoints (both must exist).  Everything else —
        the other node and link objects, adjacency rows no replaced
        link touches, the forest index and next-hop maps — is *shared*
        with this graph, which is not modified: O(V + E) pointer copies
        plus the replacements, no node or link copied.  Meant for
        immutable snapshots; mutating a shared object shows in both.
        """
        g = TopologyGraph()
        g._nodes = dict(self._nodes)
        g._links = dict(self._links)
        g._adj = adj = dict(self._adj)
        g._forest, g._next_hops = self._forest, self._next_hops
        for node in nodes:
            if node.name not in g._nodes:
                raise KeyError(f"no node {node.name!r}")
            g._nodes[node.name] = node
        for link in links:
            key = link.key
            if key not in g._links:
                raise KeyError(f"no link {link.u!r}--{link.v!r}")
            g._links[key] = link
            for a, b in ((link.u, link.v), (link.v, link.u)):
                if adj[a] is self._adj[a]:
                    adj[a] = dict(adj[a])
                adj[a][b] = link
        return g

    def subgraph(self, names: Iterable[str]) -> "TopologyGraph":
        """The induced subgraph on ``names`` (links with both ends
        inside), on copies of its nodes and links."""
        return self.restricted(names).copy()

    def restricted(self, names: Iterable[str]) -> "TopologyGraph":
        """The induced subgraph on ``names``, *sharing* this graph's node
        and link objects, as :meth:`replaced` does: O(V + E) pointer
        copies, no node or link copied, insertion order kept.  Meant for
        immutable snapshots; mutating a shared object shows in both."""
        keep = set(names)
        missing = keep - self._nodes.keys()
        if missing:
            raise KeyError(f"unknown nodes: {sorted(missing)}")
        g = TopologyGraph()
        g._nodes = {
            name: node for name, node in self._nodes.items() if name in keep
        }
        g._adj = {name: {} for name in g._nodes}
        for key, link in self._links.items():
            if link.u in keep and link.v in keep:
                g._links[key] = link
                g._adj[link.u][link.v] = g._adj[link.v][link.u] = link
        if self.measurement is not None:
            # Ages still hold; the delta names resources outside ``keep``.
            g.measurement = replace(self.measurement, nodes=None, links=None)
        return g

    def min_bandwidth_link(
        self, key: Optional[Callable[[Link], float]] = None
    ) -> Optional[Link]:
        """The link minimizing ``key`` (default: available bandwidth).

        Ties break deterministically by endpoint names.  ``None`` when the
        graph has no links.
        """
        metric = key or (lambda l: l.available)
        best: Optional[Link] = None
        best_val = float("inf")
        for link in self._links.values():
            val = metric(link)
            tie = (val, tuple(sorted((link.u, link.v))))
            if best is None or tie < (best_val, tuple(sorted((best.u, best.v)))):
                best = link
                best_val = val
        return best

    def validate(self) -> None:
        """Raise ``ValueError`` on structural inconsistencies."""
        for link in self._links.values():
            if link.u not in self._nodes or link.v not in self._nodes:
                raise ValueError(f"dangling link {link!r}")
        for name, nbrs in self._adj.items():
            for other, link in nbrs.items():
                if frozenset((name, other)) != link.key:
                    raise ValueError(f"adjacency mismatch at {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nc = len(self.compute_nodes())
        return (
            f"<TopologyGraph {self.num_nodes} nodes "
            f"({nc} compute), {self.num_links} links>"
        )
