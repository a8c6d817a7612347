"""The Figure 2 and Figure 3 selection algorithms and the bandwidth floor.

**Figure 2** (§3.2): *maximize the minimum available bandwidth between any
pair of selected nodes* — minimize the bottleneck communication path.
The algorithm exploits the key acyclic-graph fact the paper states: the
least bandwidth between any pair of connected nodes cannot be less than the
lowest edge bandwidth in (their component of) the graph.  So: repeatedly
remove the globally minimum-available-bandwidth edge; as long as some
connected component still contains ``m`` compute nodes, those nodes only
communicate over edges *better* than everything removed so far.  When no
such component survives, the last surviving candidate set is optimal.

The paper's Figure 2 states the loop guard as ``l > m``; continuing while
``l >= m`` is the intended reading (the text says "testing if enough
connected nodes exist" and "eventually this size will become less than
m"), and strictly dominates: with exactly ``m`` survivors the set is still
feasible and its bottleneck can only be higher.  We implement ``l >= m``.

**Figure 3** (§3.2): select ``m`` nodes maximizing

    ``minresource = min(mincpu, minbw)``

where ``mincpu`` is the minimum fractional CPU capacity over the chosen
nodes and ``minbw`` the minimum fractional bandwidth over the edges of
their component — i.e. the largest fraction of peak compute and
communication capacity deliverable *simultaneously*.

The algorithm starts from the best pure-compute choice and then greedily
removes the minimum-fractional-bandwidth edge: removal can only raise the
component's ``minbw`` but may exile high-CPU nodes and thus lower
``mincpu``.  After each removal, every surviving component with ``m``
compute nodes is scored and the best seen set is kept; the loop stops when
a removal fails to improve ``minresource`` (greedy) or no feasible
component remains.

Generalizations of §3.3 are folded in through :class:`References`:
heterogeneous node/link capacities (reference scaling) and the
computation/communication priority factor.  An optional ``strict_greedy``
flag reproduces the paper's literal stopping rule; the default keeps
peeling through plateaus (removals that neither help nor hurt), which
never returns a worse set and handles ties between equal-bandwidth edges
more robustly.

**Execution.**  The naive implementations (:mod:`repro.core.reference`)
re-derive everything from scratch after every edge removal: a full scan
for the minimum-bandwidth link, a BFS for connected components, and a
fresh candidate ranking per component.  That is O(E · (V + E)) per
selection and dominates the admission path of the multi-tenant service
once topologies grow past a few hundred nodes.

The kernel exploits the structural fact that makes the peeling loops cheap:
**the peel order is fixed up front**.  Edge ``i`` is removed before edge
``j`` iff ``(metric(i), endpoints(i)) < (metric(j), endpoints(j))`` — the
exact tie-break :meth:`TopologyGraph.min_bandwidth_link` applies — and the
metric of an edge never changes while peeling (the graph is only ever
*shrunk*).  So instead of simulating removals forward, the kernel:

1. sorts the edges once into peel order (``min_bandwidth_link`` full scans
   disappear);
2. replays the peel **in reverse** — starting from the fully peeled graph
   and *adding* edges strongest-first — so connected components are
   maintained by a union-find instead of repeated BFS;
3. keeps per-component statistics that merge in O(m) when two components
   join: the eligible-compute count, the top-``m`` compute heap (any
   top-``m`` node of a merged component is a top-``m`` node of one side),
   and the component's minimum edge fraction (the edge being added is, by
   construction, the globally weakest edge seen so far, so it *is* the new
   minimum of whichever component absorbs it);
4. tracks the best feasible component per peel step through a
   lazy-deletion heap ordered by ``(-score, first-insertion-index)`` —
   the same "first component wins score ties" rule the forward scan's
   strict-improvement update produces.

Reverse state after adding edges ``t..E-1`` is exactly the forward state
after ``t`` removals, so the recorded per-step bests let a final O(E) pass
reproduce the naive algorithms' results — selected nodes, objective,
iteration count, and reported extras are bit-identical, which
``tests/core/test_kernel_differential.py`` enforces property-wise.

Total cost of a peel: O(E log E) for the sort, O((V + E) · (m + log E))
for the reverse replay, versus the reference's quadratic-in-edges loop.
The bandwidth-floor procedure needs no peel, and no pass over the graph
either: it walks the compute nodes best first (:class:`ComputeRanking` —
kept on the graph by whoever moves its loads in place, re-keyed lazily
for the names they marked; ranked on the spot, O(V log V), for a bare
graph) and files each under its component of the floor-filtered graph
(:meth:`TopologyGraph.floor_components`: a climb of the forest index,
O(depth); one union-find pass, O(V + E), on a graph with a cycle).  The
first component to hold ``m`` wins unless one filling on the same
fraction has a smaller first name, and the walk ends where none can: a
selection costs O(k · depth) for the ``k`` candidates reached — ``k = m``
when the best nodes share a component, however long the tie (an idle
cluster is one), O(V) when nothing is feasible.  Nothing is kept per floor.

Every procedure ends by scoring the ``m`` chosen nodes (``_finish``): the
minimum CPU fraction and both pairwise bandwidth minima.  On a forest —
the shape of the paper's LANs — the pairs' paths together are the
subtree joining the set, which :meth:`TopologyGraph.span` reads off the
graph's forest index by one climb per name, and both minima are taken
over its links: O(m · depth) per selection after one O(V) index build
per graph.  On a graph with a cycle each ordered pair is a BFS,
O(m² · (V + E)) — what a forest paid too before the index, four BFS runs
per pair, which at 1000 hosts was over half of a cold selection.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from typing import Callable, Iterable, Iterator, Optional

from ..topology.graph import Link, Node, TopologyGraph
from .metrics import (
    DEFAULT_REFERENCES,
    References,
    _pairwise_minima,
    link_bandwidth_fraction,
    min_cpu_fraction,
    node_compute_fraction,
)
from .types import ExtrasKey, NoFeasibleSelection, Selection

__all__ = [
    "ComputeRanking",
    "peel_order",
    "select_balanced",
    "select_max_bandwidth",
    "select_with_bandwidth_floor",
]

_INF = float("inf")


def peel_order(
    graph: TopologyGraph, metric: Callable[[Link], float]
) -> list[tuple[float, Link]]:
    """Links in the exact order the naive peeling loops remove them.

    Ascending by ``(metric, sorted endpoint names)`` — the tie-break
    :meth:`TopologyGraph.min_bandwidth_link` uses, so equal-metric edges
    peel in the same deterministic order as the reference implementation.
    """
    edges = [(metric(link), link) for link in graph.links()]
    edges.sort(key=lambda e: (e[0], (e[1].u, e[1].v) if e[1].u < e[1].v
                              else (e[1].v, e[1].u)))
    return edges


class _PeelState:
    """Union-find over the reverse peel with per-component selection stats.

    Components carry: the count of eligible compute nodes, the top-``m``
    of them as a sorted list of ``(-fraction, name)`` keys (the ordering
    :func:`repro.core.compute.top_compute_nodes` produces), the minimum
    edge fraction inside the component, the smallest node-insertion index
    (the enumeration order of ``connected_components()``), and the
    lexicographically smallest member name (the Figure 2 tie-break).
    """

    def __init__(
        self,
        graph: TopologyGraph,
        m: int,
        refs: References,
        eligible: Optional[Callable[[Node], bool]],
        track_scores: bool,
    ) -> None:
        self.m = m
        self.refs = refs
        self.track_scores = track_scores
        names = graph.node_names()
        self.index: dict[str, int] = {n: i for i, n in enumerate(names)}
        n = len(names)
        self.parent = list(range(n))
        self.rank = [0] * n
        self.count = [0] * n
        self.topm: list[list[tuple[float, str]]] = [[] for _ in range(n)]
        self.min_edge = [_INF] * n
        self.order = list(range(n))
        self.min_name = names
        self.num_candidates = 0
        self.num_components = n
        # Lazy-deletion heap of (-score, order, root, version, record).
        self._heap: list[tuple] = []
        self._version = [0] * n
        for i, name in enumerate(names):
            node = graph.node(name)
            if node.is_compute and (eligible is None or eligible(node)):
                self.count[i] = 1
                self.topm[i] = [(-node_compute_fraction(node, refs), name)]
                self.num_candidates += 1
                if track_scores and m == 1:
                    self._push(i)

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def _merge_topm(
        self, a: list[tuple[float, str]], b: list[tuple[float, str]]
    ) -> list[tuple[float, str]]:
        """Merge two sorted top-m lists, keeping the best ``m`` entries."""
        m = self.m
        out: list[tuple[float, str]] = []
        i = j = 0
        la, lb = len(a), len(b)
        while len(out) < m and (i < la or j < lb):
            if j >= lb or (i < la and a[i] <= b[j]):
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        return out

    def _record(self, root: int) -> tuple[float, tuple[str, ...], float, float]:
        """(score, chosen names, mincpu, min edge fraction) for a root."""
        refs = self.refs
        top = self.topm[root]
        mincpu = -top[self.m - 1][0]
        minbw = self.min_edge[root]
        score = min(refs.scale_cpu(mincpu), refs.scale_bw(minbw))
        return score, tuple(name for _, name in top), mincpu, minbw

    def _push(self, root: int) -> None:
        if self.count[root] < self.m:
            return
        rec = self._record(root)
        heapq.heappush(
            self._heap,
            (-rec[0], self.order[root], root, self._version[root], rec),
        )

    def peek(self) -> Optional[tuple[float, tuple[str, ...], float, float]]:
        """Best current feasible component's record (stale entries pruned)."""
        heap = self._heap
        while heap:
            _, _, root, version, rec = heap[0]
            if self.parent[root] == root and self._version[root] == version:
                return rec
            heapq.heappop(heap)
        return None

    def add_edge(self, u: str, v: str, fraction: float) -> int:
        """Add one reverse-peel edge; returns the resulting root.

        ``fraction`` must be non-increasing across calls (reverse peel
        order), which is what makes ``min_edge`` maintenance O(1): the new
        edge is always the weakest edge of the component it lands in.
        """
        ra = self.find(self.index[u])
        rb = self.find(self.index[v])
        if ra == rb:
            # Cycle edge: the component keeps its nodes, its floor drops.
            self.min_edge[ra] = fraction
            if self.track_scores:
                self._version[ra] += 1
                self._push(ra)
            return ra
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        elif self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        self.parent[rb] = ra
        self.count[ra] += self.count[rb]
        self.topm[ra] = self._merge_topm(self.topm[ra], self.topm[rb])
        self.topm[rb] = []
        self.min_edge[ra] = fraction
        if self.order[rb] < self.order[ra]:
            self.order[ra] = self.order[rb]
        if self.min_name[rb] < self.min_name[ra]:
            self.min_name[ra] = self.min_name[rb]
        self.num_components -= 1
        if self.track_scores:
            self._version[ra] += 1
            self._version[rb] += 1
            self._push(ra)
        return ra


def _finish(
    graph: TopologyGraph,
    names: list[str],
    refs: References,
    *,
    objective: Optional[float],
    algorithm: str,
    iterations: int,
    extras: Optional[dict] = None,
    mincpu: Optional[float] = None,
) -> Selection:
    """Score the chosen set; ``objective=None`` is its pairwise bandwidth
    and ``mincpu=None`` its CPU minimum, read off the graph."""
    bw_fraction, bw_bps = _pairwise_minima(graph, names, refs)
    return Selection(
        nodes=names,
        objective=bw_bps if objective is None else objective,
        min_cpu_fraction=(
            min_cpu_fraction(graph, names, refs) if mincpu is None
            else mincpu
        ),
        min_bw_fraction=bw_fraction,
        min_bw_bps=bw_bps,
        algorithm=algorithm,
        iterations=iterations,
        extras=extras or {},
    )


def select_balanced(
    graph: TopologyGraph,
    m: int,
    *,
    refs: References = DEFAULT_REFERENCES,
    eligible: Optional[Callable[[Node], bool]] = None,
    strict_greedy: bool = False,
) -> Selection:
    """Select ``m`` nodes maximizing ``min(mincpu, minbw)`` (Figure 3).

    Parameters
    ----------
    graph:
        Topology snapshot; not mutated.
    m:
        Number of compute nodes required.
    refs:
        Reference capacities and compute/comm priority weighting (§3.3).
    eligible:
        Optional predicate restricting candidate compute nodes.
    strict_greedy:
        If True, stop at the first removal that does not *strictly* improve
        ``minresource`` (the paper's literal Figure 3 rule).  The default
        (False) continues while feasible components remain, still keeping
        the best set seen — never worse, and immune to plateaus caused by
        equal-bandwidth edges.

    Returns
    -------
    Selection
        ``objective`` is the achieved (scaled) minresource as computed by
        the algorithm's conservative component-wide bound; the exact
        path-based fractions are also reported.

    Raises
    ------
    NoFeasibleSelection
        If fewer than ``m`` eligible compute nodes exist in one component.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    state = _PeelState(graph, m, refs, eligible, track_scores=True)
    if state.num_candidates < m:
        raise NoFeasibleSelection(
            f"need {m} eligible compute nodes, "
            f"only {state.num_candidates} exist"
        )
    edges = peel_order(graph, lambda l: link_bandwidth_fraction(l, refs))
    k = len(edges)

    # Reverse replay: records[t] is the best feasible component of the
    # forward state after t removals (None when no component is feasible).
    records: list[Optional[tuple[float, tuple[str, ...], float, float]]] = \
        [None] * (k + 1)
    records[k] = state.peek()
    for j in range(k - 1, -1, -1):
        fraction, link = edges[j]
        state.add_edge(link.u, link.v, fraction)
        records[j] = state.peek()

    initial = records[0]
    if initial is None:
        raise NoFeasibleSelection(
            f"no connected component with {m} eligible compute nodes"
        )
    best_score, best_nodes, best_cpu, best_bw = initial

    # Forward scan over the recorded per-step bests, reproducing the naive
    # loop's stopping rules and strict-improvement updates.
    iterations = k
    for t in range(1, k + 1):
        rec = records[t]
        if rec is None:
            iterations = t
            break
        improved = rec[0] > best_score
        if improved:
            best_score, best_nodes, best_cpu, best_bw = rec
        if strict_greedy and not improved:
            iterations = t
            break

    return _finish(
        graph,
        list(best_nodes),
        refs,
        objective=best_score,
        algorithm="balanced",
        iterations=iterations,
        extras={ExtrasKey.ALG_MINCPU: best_cpu, ExtrasKey.ALG_MINBW: best_bw},
    )


def select_max_bandwidth(
    graph: TopologyGraph,
    m: int,
    *,
    refs: References = DEFAULT_REFERENCES,
    eligible: Optional[Callable[[Node], bool]] = None,
) -> Selection:
    """Select ``m`` nodes maximizing the minimum pairwise available bandwidth.

    Implements Figure 2 without mutating ``graph``.  Among equally-optimal
    node subsets inside the surviving component, the ``m`` nodes with the
    highest CPU fraction are returned ("any m compute nodes" in the paper —
    the communication objective is indifferent, so we use spare CPU as the
    tie-break).

    The forward loop keeps peeling while the largest component still holds
    ``m`` eligible compute nodes, so its answer is the pick from the *last*
    feasible state.  In reverse that is simply the first state at which any
    component reaches ``m`` candidates — the replay stops there.

    Parameters
    ----------
    graph:
        Topology snapshot; must be acyclic for the optimality guarantee
        (use :func:`repro.core.generalized.select_routed` on cyclic graphs).
    m:
        Number of compute nodes required.
    refs:
        Reference capacities (used only for reporting fractions and the
        CPU tie-break; the criterion itself is absolute bandwidth).
    eligible:
        Optional predicate restricting candidate compute nodes.

    Returns
    -------
    Selection
        ``objective`` is the achieved minimum pairwise bandwidth in bps.

    Raises
    ------
    NoFeasibleSelection
        If no connected component contains ``m`` eligible compute nodes.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    state = _PeelState(graph, m, refs, eligible, track_scores=False)
    edges = peel_order(graph, lambda l: l.available)
    k = len(edges)

    best_root: Optional[int] = None
    t_max = k
    if m == 1 and state.num_candidates:
        # The fully peeled graph is already feasible: the forward loop runs
        # out of edges and its last pick is the largest (count, min-name)
        # singleton — the smallest-named candidate.
        best_root = min(
            (i for i in range(len(state.parent)) if state.count[i]),
            key=lambda i: state.min_name[i],
        )
    else:
        for j in range(k - 1, -1, -1):
            fraction, link = edges[j]
            root = state.add_edge(link.u, link.v, fraction)
            if state.count[root] >= m:
                # First feasible reverse state == last feasible forward
                # state; only the just-merged component can qualify.
                best_root = root
                t_max = j
                break
        if best_root is None:
            raise NoFeasibleSelection(
                f"no connected component with {m} eligible compute nodes"
            )

    selected = [name for _, name in state.topm[best_root]]
    iterations = min(t_max + 1, k)
    return _finish(
        graph,
        selected,
        refs,
        objective=None,
        algorithm="max-bandwidth",
        iterations=iterations,
    )


#: The side run of a :class:`ComputeRanking` is merged into its main list
#: once it holds more than this share of the list's keys.
_SIDE_RUN_SHARE = 1 / 4

#: Past every ranking key (``-fraction`` is never ``+inf``): what a
#: merge compares against once the side run is spent.
_PAST_END = (_INF, "")


def _merged(
    main: list[tuple[float, str]],
    start: int,
    side: list[tuple[float, str]],
    moved: dict[str, tuple[float, str]],
) -> Iterator[tuple[float, str]]:
    """``main`` from ``start`` on, less the names in ``moved``, merged
    with ``side``: two ascending runs of distinct keys, so the result
    ascends too."""
    rest = iter(side)
    head = next(rest)
    for key in itertools.islice(main, start, None):
        if key[1] in moved:
            continue
        while head < key:
            yield head
            head = next(rest, _PAST_END)
        yield key
    if head is not _PAST_END:
        yield head
        yield from rest


class ComputeRanking:
    """A graph's compute nodes, best first: the sorted ``(-fraction,
    name)`` keys :func:`repro.core.compute.top_compute_nodes` ranks by.

    Whoever moves the graph's loads in place keeps one on
    ``graph.compute_ranking`` and :meth:`mark`s the names it touched;
    nothing is paid until :meth:`keys` is next read.  That read keys
    just those names into a small sorted *side run*, which holds every
    node moved since the last fold, and walks the main list (where
    those nodes' entries are dead) merged with it; once the run
    outgrows :data:`_SIDE_RUN_SHARE` of the list, one sort of the two
    runs folds it in.  The keys are for one ``refs.node_capacity`` at a
    time: reading with another re-ranks everything.  Equal fractions
    (every idle node of a cluster) sit together as a *plateau*,
    ascending by name — which is what lets a walker stop inside one.
    """

    def __init__(self, graph: TopologyGraph) -> None:
        self.graph = graph
        #: The main list: every compute node's key as of the last fold.
        self._keys: Optional[list[tuple[float, str]]] = None
        self._key_of: dict[str, tuple[float, str]] = {}
        #: The side run, sorted, and its keys by name: the nodes moved
        #: since the last fold, whose main-list entries are dead.
        self._side: list[tuple[float, str]] = []
        self._moved: dict[str, tuple[float, str]] = {}
        #: The main list's entries before this index are all dead: the
        #: best nodes are the ones selections take, so they move first.
        self._start = 0
        #: The keys are fractions of this ``refs.node_capacity``.
        self.refs = DEFAULT_REFERENCES
        self._dirty: set[str] = set()
        #: ``mark(names)``: their load (may have) changed.
        self.mark = self._dirty.update

    @staticmethod
    def of(
        graph: TopologyGraph, refs: References
    ) -> Iterable[tuple[float, str]]:
        """The keys of ``graph``'s kept ranking, else ranked on the spot."""
        return (graph.compute_ranking or ComputeRanking(graph)).keys(refs)

    def keys(self, refs: References) -> Iterable[tuple[float, str]]:
        """The keys, current and ascending: the main list itself while
        no side run is open, else a merge of the two.  Read it before
        the graph changes again, and do not mutate it."""
        keys = self._keys
        if keys is None or refs.node_capacity != self.refs.node_capacity:
            self.refs = refs
            self._key_of = {
                node.name: (-node_compute_fraction(node, refs), node.name)
                for node in self.graph.nodes() if node.is_compute
            }
            keys = self._keys = sorted(self._key_of.values())
            self._side, self._moved, self._start = [], {}, 0
        elif self._dirty:
            keys = self._rekey(keys, refs)
        self._dirty.clear()
        if not self._side:
            return keys
        return _merged(keys, self._start, self._side, self._moved)

    def _rekey(
        self, keys: list[tuple[float, str]], refs: References
    ) -> list[tuple[float, str]]:
        """Key the marked names into the side run; fold a full one into
        the main list ``keys``, which is returned."""
        nodes, key_of = self.graph._nodes, self._key_of
        side, moved = self._side, self._moved
        for name in self._dirty:
            current = moved.get(name) or key_of.get(name)
            if current is None:
                continue  # not a compute node of this graph
            new = (-node_compute_fraction(nodes[name], refs), name)
            if new == current:
                continue
            if name in moved:
                del side[bisect.bisect_left(side, current)]
            moved[name] = new
            bisect.insort(side, new)
        if len(side) > _SIDE_RUN_SHARE * len(keys):
            keys = [key for key in keys if key[1] not in moved]
            keys += side
            keys.sort()  # two ascending runs: one merge
            self._keys = keys
            key_of.update(moved)
            self._side, self._moved, self._start = [], {}, 0
            return keys
        start, end = self._start, len(keys)
        while start < end and keys[start][1] in moved:
            start += 1
        self._start = start
        return keys


def select_with_bandwidth_floor(
    graph: TopologyGraph,
    m: int,
    *,
    floor_bps: float,
    refs: References = DEFAULT_REFERENCES,
    eligible: Optional[Callable[[Node], bool]] = None,
) -> Selection:
    """Maximize CPU availability subject to a pairwise bandwidth floor.

    §3.3: "satisfy a fixed bandwidth requirement (e.g. a minimum of 50 Mbps
    between any selected nodes) and maximize processor availability under
    that constraint".  Every edge whose available bandwidth is below the
    floor is ignored — any surviving component guarantees the floor between
    all of its nodes — and the component whose best ``m`` nodes have the
    highest minimum CPU fraction wins.  The graph is neither copied nor
    mutated.

    Candidates are walked best first (:class:`ComputeRanking`) and filed
    under their component of the floor-filtered graph
    (:meth:`TopologyGraph.floor_components`).  The first component to
    hold ``m`` (``best``) has the largest achievable ``mincpu`` — its
    ``m``-th key is the one just reached — and, as in the naive
    reference, loses only to one that fills on that same fraction with
    smaller ``names``.  Components share no name, so first names decide
    that; and within a fraction keys ascend by name, so past ``best[0]``
    a component that starts now starts too high.  What can still win is
    a *rival* — begun on a name below ``best[0]``, not yet full: the walk
    ends with the fraction, or once no rival is open and the name is past
    ``best[0]``.  On an idle cluster, one long tie, that is ``m``
    candidates, not the plateau; a rival that never fills is the worst
    case, the walk to the plateau's end.
    """
    if floor_bps < 0:
        raise ValueError(f"floor must be non-negative, got {floor_bps}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    component, nodes = graph.floor_components(floor_bps), graph._nodes
    found: dict = {}
    best: Optional[list[str]] = None
    rivals, mincpu = 0, 0.0
    for neg, name in ComputeRanking.of(graph, refs):
        if best is not None and (
            -neg != mincpu or (not rivals and name > best[0])
        ):
            break
        names = found.setdefault(component(name), [])
        if len(names) == m or not (
            eligible is None or eligible(nodes[name])
        ):
            continue
        names.append(name)
        if best is not None and names[0] > best[0]:
            continue  # it has lost already
        if len(names) == m:
            best, mincpu = names, -neg
            rivals = sum(
                0 < len(c) < m and c[0] < names[0] for c in found.values()
            )
        elif best is not None and len(names) == 1:
            rivals += 1
    if best is None:
        raise NoFeasibleSelection(
            f"no component of {m} compute nodes meets a "
            f"{floor_bps / 1e6:.1f} Mbps pairwise floor"
        )
    return _finish(
        graph,
        best,
        refs,
        objective=mincpu,
        algorithm="bandwidth-floor",
        iterations=0,
        mincpu=mincpu,  # the m-th key, negated: the set's minimum
    )
