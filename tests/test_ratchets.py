"""Ratchets: source patterns a deleted design must not grow back.

Each test reads the source tree and fails, naming the lines, when a
pattern the simpler design removed reappears.  ``grep`` / ``sed``
semantics are kept: a count is of matching *lines*, and a section is a
``sed -n '/start/,/end/p'`` range — from a line matching ``start`` to
the next line after it matching ``end``, both included.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SERVICE = SRC / "repro" / "service"
SHARDING = SERVICE / "sharding"
ROUTER = SHARDING / "router.py"


def _files(*paths, py_only=True):
    """Every file under ``paths`` (a file is itself), sorted."""
    for path in paths:
        path = Path(path)
        if path.is_file():
            yield path
            continue
        for f in sorted(path.rglob("*")):
            if "__pycache__" in f.parts or not f.is_file():
                continue
            if not py_only or f.suffix == ".py":
                yield f


def _lines(path):
    return Path(path).read_text(errors="replace").splitlines()


def grep(pattern, *paths, py_only=True):
    """``path:line: text`` for each line matching ``pattern``."""
    rx = re.compile(pattern)
    return [
        f"{f.relative_to(ROOT)}:{i}: {line}"
        for f in _files(*paths, py_only=py_only)
        for i, line in enumerate(_lines(f), 1)
        if rx.search(line)
    ]


def section(path, start, end):
    """The lines ``sed -n '/start/,/end/p' path`` prints."""
    out, inside = [], False
    start_rx, end_rx = re.compile(start), re.compile(end)
    for line in _lines(path):
        if inside:
            out.append(line)
            inside = not end_rx.search(line)
        elif start_rx.search(line):
            out.append(line)
            inside = True
    return out


def _matching(pattern, lines):
    rx = re.compile(pattern)
    return [line for line in lines if rx.search(line)]


def test_router():
    """The plan is fixed at birth; shard services are built at one site;
    the trunk is a plain ledger; every durable ledger is opened one way;
    a split is one trunk record and recovery keeps one rule."""
    assert not grep(
        r"repartition|_pair_traffic|seed_offset|cross_traffic_fraction", SRC
    ), "cold repartitioning was deleted; ROADMAP parks the live kind"
    assert len(grep(r"_pool is|executor ==", ROUTER)) <= 5
    assert len(grep(r"SelectionService\(", *SHARDING.glob("*.py"))) == 1
    assert len(grep(r"shard-\{", *SHARDING.glob("*.py"))) == 1
    assert not (SHARDING / "trunk.py").exists()
    assert not grep(r"TrunkLedger|_RouterRecovery", SRC, py_only=False), (
        "ShardRouter.trunk is a plain ReservationLedger and the router "
        "reports a RecoveryReport"
    )
    # wal.py::open_ledger is the one place a LedgerWal is made.
    assert len(grep(r"LedgerWal\(", SERVICE, py_only=False)) == 1
    # A split is one trunk record, reserved once whatever its bandwidth,
    # and recovery's one rule reads no bandwidth.
    cross = section(ROUTER, r"def _cross_shard", r"^    def ")
    assert len(_matching(r"trunk\.reserve\(", cross)) == 1
    recovery = section(ROUTER, r"def _recover_composites", r"^    def ") \
        + section(SHARDING / "workers.py", r'op == "reservation_map"',
                  r"^    if ")
    assert not _matching(r"bw_bps", recovery), (
        "a composite is live iff its trunk record names its parts' nodes; "
        "no bandwidth rule"
    )


def test_route():
    """TopologyGraph.path is the one route rule; no second table and no
    knob to pick one."""
    assert not grep(r"RoutingTable|\brouting:|\.routing\.", SRC), (
        "a pair's route is TopologyGraph.path: the fabric, Remos, the "
        "selectors and the ledger all call it"
    )


def test_channel():
    """Link.channel is the one channel rule; one channel type; one
    routed max-min sharing function; a hop's channel reuses link.key."""
    graph = "src/repro/topology/graph.py:"
    assert not [
        hit for hit in grep(r'"duplex"|"shared"', SRC)
        if not hit.startswith(graph)
    ], (
        "a hop's channel is Link.channel(dst): the duplex attribute is "
        "read, and the shared tag spelled, in topology/graph.py only"
    )
    assert not grep(r"DirectedEdge", SRC), \
        "a channel's type is topology/graph.py::ChannelId"
    assert not grep(r"max_min_fair\(", SRC / "repro" / "remos",
                    SRC / "repro" / "core", py_only=False), (
        "flow quotes and pattern bandwidth share "
        "network/fairshare.py::routed_fair_rates"
    )
    assert not grep(r"frozenset\(\(", SERVICE, SHARDING), (
        "a hop's channel reuses the graph's link.key: no link key is "
        "built afresh under service/ or sharding/"
    )
    assert [hit.split(":")[0] for hit in grep(r"\.channels?\(", SERVICE)] \
        == ["src/repro/service/cache.py", "src/repro/service/ledger.py"], (
            "route channels are named in RouteCache._named (the overlay's, "
            "the router's trunk memo) and, cold, in ledger.route_edges"
        )


def test_selection():
    """One dispatch function from spec to procedure; each procedure has
    one name and one definition."""
    assert not grep(
        r"register_procedure|default_procedures|class Procedure"
        r"|procedure_for|\bkernel_select_", SRC,
    ), (
        "selector.py::_dispatch calls the procedure that fits the spec; "
        "there is no registry and no kernel_select_* twin"
    )
    for gone in ("balanced.py", "bandwidth.py"):
        assert not (SRC / "repro" / "core" / gone).exists(), \
            f"core/{gone} is gone: Figures 2 and 3 are in core/kernel.py"
    for fn in ("select_balanced", "select_max_bandwidth",
               "select_with_bandwidth_floor"):
        assert len(grep(rf"def {fn}\(", SRC)) == 1, fn


def test_floor_selection():
    """One floor kernel over one kept ranking; the batch planner holds
    no heap."""
    assert not grep(r"heapify", SERVICE / "service.py"), \
        "the batch planner walks the overlay's ComputeRanking; no private heap"
    assert len(grep(r"def select_with_bandwidth_floor", SRC)) == 1
    kernel = SRC / "repro" / "core" / "kernel.py"
    assert len(grep(r"def .*bandwidth_floor", kernel)) == 1
    # Components share no name: a tie is decided by first names, which
    # is what lets the walk stop before the plateau's end.
    assert not grep(r"names < best", kernel), \
        "the floor kernel compares first names, not name lists"


def test_lease_footprint():
    """Links are read by key, an overlay's once per channel; one ledger
    order; pairs are walked only where a forest span cannot answer; the
    router's pair routes keep trunk channels only."""
    assert not grep(r"link\(\*tuple\(", SERVICE, py_only=False), \
        "a channel's link is graph.link_by_key(key), not link(*tuple(key))"
    # A view's ChannelTable resolves each overlay channel once.
    walks = section(SERVICE / "residual_view.py", r"def refresh_edges",
                    r"^    def ") \
        + section(SERVICE / "service.py", r"def _verify_claims", r"^    def ")
    assert not _matching(r"link_by_key\(|graph\.link_by_key", walks), (
        "refresh_edges and _verify_claims walk a ChannelTable, not "
        "link_by_key per channel"
    )
    cross = section(ROUTER, r"def _cross_shard", r"^    def ")
    assert not _matching(r"trunk_keys", cross), (
        "the router's pair memo keeps trunk channels only; _cross_shard "
        "filters nothing"
    )
    # ledger.py::ledger_order is the one place the order is spelled out.
    assert len(grep(r"sorted\((e|edge)\[0\]\), *(e|edge)\[1\]", SRC)) == 1
    assert len(grep(r"itertools.permutations", SERVICE / "cache.py")) <= 1


def test_memo():
    """The selection memo is found by claim counts and confirmed by dict
    equality; no fingerprint on the request path."""
    assert not grep(r"claims_fingerprint", SERVICE / "service.py",
                    SERVICE / "residual_view.py"), (
        "claims_fingerprint() is the recovery/test oracle; request, "
        "admit_batch and probe build none"
    )


def test_commit():
    """A cross-shard commit reserves what its probe found; nothing pins
    a second select."""
    assert not grep(r"PinnedNodes|eligible=", ROUTER), (
        "a part commits through the shard's request, which the memo entry "
        "its probe filed answers; the pinned re-select lives on only as "
        "tests/oracles.py::PinnedCommitRouter"
    )


def test_commit_is_a_request():
    """A cross-shard part commits through the shard's own ``request``;
    the side door that routed and verified it again is gone."""
    assert not grep(r"admit_probed", SRC), (
        "a part commits through SelectionService.request, answered by the "
        "probe's memo entry"
    )


def test_collector():
    """One ingest path, columnar; the agent boundary stays in snmp.py."""
    collector = SRC / "repro" / "remos" / "collector.py"
    assert not grep(r"_ingest_record|InterfaceRecord\(|deque", collector), \
        "the per-record loop lives on only as tests/oracles.py::scalar_collector"
    # The collector sees what agents answer, never the fabric: from
    # repro.network.fabric it may import the ChannelId type only.
    assert not [
        hit for hit in grep(r"^(from|import) .*fabric", collector)
        if not re.search(r"import ChannelId$", hit)
    ], "collector.py may import only ChannelId from network.fabric"
    # Which agents a round asks (the silenced, the awake hosts) is the
    # agent tables' business: the collector never reads a host, a load
    # average or a silence window.
    assert not grep(r"awake|silent_until|load_average|\._host", collector), (
        "collector.py sees what the tables answer; Cluster.awake, Host and "
        "silence windows stay in snmp.py"
    )
    # The sweep reads its hosts as columns (Collector.host_columns),
    # through the collector's public surface only.
    api = SRC / "repro" / "remos" / "api.py"
    assert not _matching(r"node_info\(", section(api, r"def _sweep",
                                                 r"^    def ")), \
        "RemosAPI._sweep reads host columns, not node_info() per host"
    assert not grep(r"collector\._", api)


REMOS_API = SRC / "repro" / "remos" / "api.py"


def test_degraded_rule():
    """``DegradedPolicy.rule`` is the one reading of a degraded policy:
    nothing else in ``src/`` compares against its worst-case or naive
    value (the live sweep, the point queries and the offline
    ``apply_degraded_policy`` ask the rule)."""
    rule = section(REMOS_API, r"    def rule\(", r"^$")
    assert len(_matching(r"return", rule)) == 1, "the rule moved"
    compared = grep(
        r"(==|!=)\s*\S*\b(OPTIMISTIC|CONSERVATIVE)\b"
        r"|\b(OPTIMISTIC|CONSERVATIVE)\b\S*\s*(==|!=)"
        r"|(==|!=)\s*[\"'](optimistic|conservative)[\"']",
        SRC,
    )
    outside = [
        hit for hit in compared
        if not (hit.startswith("src/repro/remos/api.py:")
                and hit.split(": ", 1)[1] in rule)
    ]
    assert len(compared) == 2 and not outside, (
        "a policy is read by DegradedPolicy.rule only", outside
    )


def test_one_derivation():
    """Remos derives a host and a link one way: ``LastValue`` is
    type-tested once, the sweep reads links as columns rather than
    through ``link_info``, and the thin wrappers stay gone."""
    assert len(grep(
        r"\bis (not )?LastValue\b|isinstance\([^)]*LastValue", SRC
    )) == 1, "RemosAPI._forecast decides LastValue once"
    sweep = section(REMOS_API, r"def _sweep", r"^    def ")
    assert sweep and not _matching(r"link_info\(|_channel_utilization", sweep)
    assert not grep(
        r"def (current|windowed|forecast|host_stale|build_agents)\(",
        SRC / "repro" / "remos",
    ), "RemosAPI(collector, predictor=...) is the one way to pick a level"


def test_metrics():
    """One store per reported number; the registry is given at
    construction."""
    assert not grep(
        r"class StageTimer|_refresh_extras|metrics\.extras|metrics\.bind\("
        r"|self\.sweeps", SERVICE, py_only=False,
    ), (
        "stage timings live in the registry histogram, snapshot gauges are "
        "ServiceMetrics.gauge rows, sweeps are cache.misses"
    )


def test_paths_the_traffic_takes():
    """The router probes a split one shard at a time, the peel-schedule
    cache reuses the base sort or sorts the residual afresh, and a new
    known-down set is a new residual view (rebuilt after the
    invalidation every fault event makes)."""
    assert not grep(
        r"_prewarm_probes|insort|heapq.merge|_down_epoch"
        r"|def mark_down|def mark_up", SERVICE, py_only=False,
    )


def test_one_way_in():
    """``repro-serve`` serves every mode through one synchronous loop,
    the service and the router share one front door (``FrontDoor``, with
    the release-kind tables beside it), and the DES kernel keeps only
    what the simulator uses."""
    assert not grep(
        r"asyncio|--async|--pace|--batch-window|--queue-size",
        SERVICE / "cli.py",
    ), "one serving loop: coalescing is --batch-max, no asyncio path"
    tables = grep(r"_STATUS_BY_RELEASE_KIND|_METRIC_BY_RELEASE_KIND", SRC)
    assert tables and all(
        line.startswith("src/repro/service/service.py:") for line in tables
    ), "the release-kind tables are the front door's"
    # One body; the PlacementBackend protocol only declares it.
    assert len([
        line for line in grep(r"def advance\b", SERVICE)
        if not line.endswith(": ...")
    ]) == 1
    assert not grep(
        r"class Resource\b|class Container\b|def interrupt\b",
        SRC / "repro" / "des",
    )


def test_partition():
    """The partitioner copies a shard only when asked for one: validation
    and cutting read the full graph, and each cut is read from the sorted
    subtree index, not found by a scan of the spanning tree."""
    partition = SHARDING / "partition.py"
    copies = grep(r"graph\.subgraph\(", partition)
    assert len(copies) == 1 and _matching(r"graph\.subgraph\(", section(
        partition, r"    def subgraph\(", r"^\s+return ",
    )), copies
    for start, end in ((r"    def validate\(", r"    def __repr__\("),
                       (r"^def _grow_regions\(", r"^def _closest\("),
                       (r"^def partition_topology\(", r"^def reassemble\(")):
        assert not _matching(r"subgraph\(", section(partition, start, end))
    # The cut loop ends at the first line back at the function body's
    # indentation (which the section includes).
    cut_loop = section(partition, r"^    for cut in range\(", r"^    \S")
    assert cut_loop and not _matching(r"for \w+ in order\b", cut_loop[:-1])
    assert not _matching(
        r"^\s+for ", section(partition, r"^def _closest\(", r"return best")
    ), "a cut is read next to one bisection of the index"


def test_lease_lifecycle():
    """A lease ends only through a capacity-returning release, its
    deadline moves only through ``renew``, and its CPU claim is capped
    at the whole node: no grace period, no settable cap, and the one
    ``preempt_clamp`` left is the replay of records already on disk."""
    assert not grep(
        r"clamp_expiry|preempt_grace|_preempt_pending", SRC, py_only=False
    ), "preemption releases its victims at once"
    caps = grep(r"\bcpu_cap\b", SRC)
    assert len(caps) == 1 and caps[0].startswith(
        "src/repro/service/wal.py:"
    ) and '"cpu_cap": 1.0' in caps[0], (
        "the cap is the whole node: only the snapshot format names it",
        caps,
    )
    wal = SERVICE / "wal.py"
    clamps = grep(r"preempt_clamp", SRC, py_only=False)
    replay = _matching(
        r"preempt_clamp", section(wal, r"^def recover_ledger\(", r"^def ")
    )
    assert clamps and len(clamps) == len(replay) and all(
        line.startswith("src/repro/service/wal.py:") for line in clamps
    ), clamps


def test_one_outcome_rule():
    """Each lease rule has one copy: an outcome is recorded (and counted
    on the counter its status names) by ``FrontDoor._note``, a claim is
    checked by ``ledger.check_claim``, and a replayed grant is written by
    the block ``reserve`` writes through."""
    assert not grep(
        r"self\.metrics\.(admitted|queued|rejected|released|expired"
        r"|evicted|preempted) *\+=", SERVICE,
    ), "an outcome is counted by FrontDoor._note, from its status"
    assert not grep(r"_METRIC_BY_RELEASE_KIND|_count_release", SRC), \
        "a release kind's counter is its status"
    assert len(grep(r"cpu_fraction must be in \[0, 1\]", SERVICE)) == 1, \
        "ledger.py::check_claim is the one claim check"
    restore = section(SERVICE / "ledger.py", r"def _restore_grant",
                      r"^    def ")
    assert restore and not _matching(r"_node_claims|_edge_claims", restore), (
        "replay writes a grant through reserve's own block (_write_grant)"
    )


def test_graph_memory():
    """A graph's nodes and links are slotted records, and a shard's cut
    shares its router snapshot's objects instead of copying them."""
    graph = _lines(SRC / "repro" / "topology" / "graph.py")
    for cls in ("Node", "Link"):
        at = graph.index(f"class {cls}:")
        assert graph[at - 1].startswith("@dataclass(slots=True"), (
            f"{cls} is a slotted record: no __dict__ per node or link"
        )
    provider = section(ROUTER, r"^class _ShardProvider\b", r"^class ")
    assert provider and not _matching(r"\.subgraph\(", provider), (
        "a shard cuts the router snapshot with TopologyGraph.restricted: "
        "its one copy is its residual overlay"
    )


def _calls_outside_raise(path, cls, attr):
    """The calls in ``cls.attr``'s body (``ast.unparse``), a ``raise``
    statement's excepted."""
    tree = ast.parse(Path(path).read_text())
    body = next(
        f for c in tree.body if isinstance(c, ast.ClassDef) and c.name == cls
        for f in c.body if isinstance(f, ast.FunctionDef) and f.name == attr
    )
    raised = {
        id(n) for r in ast.walk(body) if isinstance(r, ast.Raise)
        for n in ast.walk(r)
    }
    return [
        ast.unparse(n) for n in ast.walk(body)
        if isinstance(n, ast.Call) and id(n) not in raised
    ]


def test_claim_loops():
    """Each claim applies §3.1's ``1/(1+load)`` and §3.3's smaller
    direction per node and per channel as plain float arithmetic and
    attribute reads: the clamps are ``if``s, the dicts are bound before
    the loop, and the two graph properties every claim reads call
    nothing."""
    view = SERVICE / "residual_view.py"
    loops = section(view, r"    def refresh_nodes\(", r"^    def ") \
        + section(view, r"    def refresh_edges\(", r"^    def ") \
        + section(SERVICE / "ledger.py", r"claims, links = ",
                  r"reservation = Reservation\(")
    assert len(loops) > 80, "a claim loop moved: update the sections"
    assert not _matching(
        r"\b(max|min)\(|\.node\(|\.has_node\(|\.link_by_key\(", loops
    ), "a claim loop calls per element what an if or a bound dict does"
    graph = SRC / "repro" / "topology" / "graph.py"
    for cls, attr in (("Link", "available"), ("Node", "cpu")):
        assert not _calls_outside_raise(graph, cls, attr), (cls, attr)


def _json_encoders(node):
    """The ``_encode`` / ``json.dumps`` references under ``node``."""
    return [
        ast.unparse(n) for n in ast.walk(node)
        if (isinstance(n, ast.Name) and n.id == "_encode")
        or (isinstance(n, ast.Attribute) and n.attr == "dumps"
            and isinstance(n.value, ast.Name) and n.value.id == "json")
    ]


def _ledger_wal(tree):
    return next(
        c for c in tree.body
        if isinstance(c, ast.ClassDef) and c.name == "LedgerWal"
    )


def test_one_wal_writer():
    """The log has one writer, ``LedgerWal.append``, and each record
    kind one formatter that builds its line as text, the snapshot too:
    ``json``'s encoder runs only as ``_text``'s fallback (a value no
    primitive encodes exactly), never per record."""
    wal = SERVICE / "wal.py"
    writes = grep(r"self\._fh\.write\(", wal)
    assert len(writes) == 1, ("LedgerWal.append is the one writer", writes)
    tree = ast.parse(wal.read_text())
    formatters = {
        f.name: f for f in _ledger_wal(tree).body
        if isinstance(f, ast.FunctionDef)
        and f.name.endswith(("_line", "_text"))
    }
    assert set(formatters) == {
        "_grant_line", "_lease_text", "_channels_text", "_renew_line",
        "_release_line", "_snapshot_text",
    }, "a record kind's line is built by its own formatter"
    fields = [
        f for f in tree.body
        if isinstance(f, ast.FunctionDef) and f.name == "_fields"
    ]
    assert len(fields) == 1, "an object's members, through _text"
    for name, body in {**formatters, "_fields": fields[0]}.items():
        assert not _json_encoders(body), (
            f"{name} formats through _text, not json", name
        )
    text = next(
        f for f in tree.body
        if isinstance(f, ast.FunctionDef) and f.name == "_text"
    )
    *shortcuts, fallback = text.body
    assert not any(_json_encoders(stmt) for stmt in shortcuts) and \
        _json_encoders(fallback) == ["_encode"], (
            "_text's last statement is its one fallback to the encoder"
        )


def test_each_lease_fact_once():
    """A claimed channel's cap is stored on its leases alone
    (``Reservation.caps``), and a snapshot writes its leases through the
    grant line's own encoder: no per-channel cap table, and no
    ``json.dumps`` of a state dict."""
    assert not grep(r"_edge_caps", SRC, py_only=False), (
        "a channel's cap lives on the leases that claim it"
    )
    tree = ast.parse((SERVICE / "wal.py").read_text())
    snapshot = [
        f for f in _ledger_wal(tree).body
        if isinstance(f, ast.FunctionDef)
        and f.name in ("snapshot", "_snapshot_text")
    ]
    assert len(snapshot) == 2 and not any(map(_json_encoders, snapshot)), (
        "LedgerWal.snapshot writes text, not json.dumps of a dict"
    )


def test_one_peel_sort():
    """The kernel sorts its own peel: no schedule plane in front of
    ``peel_order`` and no duck-typed hook it reads off a graph."""
    assert not grep(r"peel_schedule_provider|PeelScheduleCache", SRC,
                    py_only=False), (
        "select_balanced and select_max_bandwidth call peel_order "
        "themselves; no cache hands them a schedule"
    )
    assert not grep(r"getattr\(graph", SRC / "repro" / "core" / "kernel.py"), \
        "the kernel reads no provider hook off a graph"


def _method(path, cls, name):
    tree = ast.parse(Path(path).read_text())
    owner = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == cls
    )
    return next(
        node for node in owner.body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def test_overlay_settles_on_read():
    """The residual overlay is brought up to date when it is read: its
    storage is private to ``residual_view.py`` (everyone else reads the
    settling ``ResidualView.graph``), the service's ``_residual`` hands
    out the view without reading it, and a grant only files its
    reservation as stale."""
    storage = r"\b_overlay\b"
    assert grep(storage, SERVICE / "residual_view.py")
    named = [
        hit for hit in grep(storage, SRC, ROOT / "tests", ROOT / "benchmarks",
                            ROOT / "examples")
        if not hit.startswith(("src/repro/service/residual_view.py:",
                               "tests/test_ratchets.py:"))
    ]
    assert not named, ("the overlay is read through ResidualView.graph",
                       named)
    residual = _method(SERVICE / "service.py", "SelectionService",
                       "_residual")
    assert not [
        node.lineno for node in ast.walk(residual)
        if isinstance(node, ast.Attribute) and node.attr == "graph"
    ], "_residual returns the view; a placement the memo answers never reads"
    hook = _method(SERVICE / "residual_view.py", "ResidualView",
                   "on_ledger_event")
    grants = [
        node for node in ast.walk(hook)
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and any(isinstance(c, ast.Constant) and c.value == "reserve"
                for c in node.test.comparators)
    ]
    assert len(grants) == 1, "a grant has its own branch in on_ledger_event"
    refreshes = [
        node.lineno for stmt in grants[0].body for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute)
        and node.attr in ("apply_delta", "refresh_nodes", "refresh_edges",
                          "graph")
    ]
    assert not refreshes, ("a grant waits for the next read", refreshes)
