"""Ratchets: source patterns a deleted design must not grow back.

Each test reads the source tree and fails, naming the lines, when a
pattern the simpler design removed reappears.  ``grep`` / ``sed``
semantics are kept: a count is of matching *lines*, and a section is a
``sed -n '/start/,/end/p'`` range — from a line matching ``start`` to
the next line after it matching ``end``, both included.
"""

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
    routed max-min sharing function."""
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
        "the commit is SelectionService.admit_probed; the pinned re-select "
        "lives on only as tests/oracles.py::PinnedCommitRouter"
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
