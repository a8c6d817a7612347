"""Benchmark: the sharded selection service at 1k-10k hosts.

Sweeps topology size x shard count and drives the same request mix
through a :class:`repro.service.ShardRouter` for each configuration:
mostly single-shard tenants plus a slice of ``spread=2`` cross-shard
tenants carrying a bandwidth claim over the trunk.  Records end-to-end
request latency percentiles (p50/p95/p99) per configuration *and per
shard* (each admitted request is attributed to the shard that hosted
it), the cross-shard routed fraction, and the trunk-reservation overhead
(the ``trunk_reserve`` stage timer inside the two-phase commit).

The point being measured: a single service sweeps — and selects over —
the whole residual network on every request, so its latency grows with
total host count; a shard's service only ever sees its own region, so
per-request latency tracks ``hosts / shards``.  The trunk ledger is the
price of that locality, and the bench shows it stays in single-digit
microseconds per cross-shard grant.

Emits machine-readable results to ``BENCH_sharded.json`` at the repo
root (committed) and a table to ``benchmarks/out/sharded.txt``.

The ``--parallel`` arm benchmarks the multi-core data plane instead:
the same wave-of-batches workload through ``executor="inproc"`` vs a
process worker pool (``executor="process"``, one worker per shard),
measuring aggregate requests/s.
It always gates bit-identity (a 1-worker process router must produce
exactly the in-process grants for an identical serial stream) and, on
runners with >= 4 cores, gates the pool at >= 2x in-process throughput
at the largest size; results go to ``BENCH_parallel_shards.json``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sharded.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_sharded.py --quick  # CI smoke
    PYTHONPATH=src python benchmarks/bench_sharded.py --parallel
    PYTHONPATH=src python benchmarks/bench_sharded.py --parallel --quick

Acceptance gates (full mode):

- at the largest size, the 16-shard p99 beats the 1-shard p99 by >= 3x;
- a ``--shards 1`` router replaying the warm request/release cycle
  (1000-host tree, the tenant shape of ``benchmarks/e2e``'s
  ``repeat_1k``) stays within 1.15x of a plain single service measured
  in the same process, the two timed in alternating blocks — the
  router front door must cost almost nothing when unsharded.

Quick mode runs one small size, re-asserts every invariant, and applies
the same same-run unsharded gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import format_table  # noqa: E402
from repro.core import ApplicationSpec  # noqa: E402
from repro.service import BatchRequest, ShardRouter  # noqa: E402
from repro.service import partition_topology  # noqa: E402
from repro.topology import random_tree  # noqa: E402
from repro.units import Mbps  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_sharded.json"
PARALLEL_JSON = REPO_ROOT / "BENCH_parallel_shards.json"
PARALLEL_REPORT = REPO_ROOT / "benchmarks" / "out" / "parallel_shards.txt"
REPORT_PATH = REPO_ROOT / "benchmarks" / "out" / "sharded.txt"

FULL_HOSTS = [1000, 4000, 10000]
FULL_SHARDS = [1, 4, 16]
QUICK_HOSTS = [1000]
QUICK_SHARDS = [1, 4]

#: The --parallel grid (inproc vs process pool).
PAR_HOSTS = [1000, 4000, 10000]
PAR_SHARDS = [4, 8, 16]
PAR_QUICK_HOSTS = [1000]
PAR_QUICK_SHARDS = [4]
PAR_WAVES = 10
PAR_QUICK_WAVES = 4
#: Requests per admit_batch wave, per shard (so every worker has work).
WAVE_PER_SHARD = 2
#: Serial requests in the bit-identity gate stream.
IDENTITY_REQUESTS = 48
IDENTITY_QUICK_REQUESTS = 24

#: The request mix: tenants of varying size (the size draw defeats the
#: service's per-view selection memo, so every request pays a genuine
#: selection over its shard — the quantity sharding is meant to shrink),
#: ~15% asking for 2-shard spread with a small trunk bandwidth claim; a
#: sliding window of live leases keeps the ledgers dirty so the measured
#: path is contended, not empty.  Claims stay light so no node saturates
#: and selector cost tracks host count, not backtracking depth.
M_MIN, M_MAX = 3, 6
CPU_CLAIM = 0.1
BW_LOCAL = 0.0
BW_CROSS = 0.5 * Mbps
CROSS_EVERY = 7  # every 7th request asks for spread=2
LIVE_WINDOW = 8

FULL_REQUESTS = 160
QUICK_REQUESTS = 40
WARMUP = 5

#: Hot-path replica (the --shards 1 regression gate): the warm-cycle
#: tenant shape of ``benchmarks/e2e``'s ``repeat_1k``, timed in
#: ``HP_BLOCKS`` alternating blocks of ``HP_CYCLES`` cycles per arm.
HP_M = 4
HP_CPU = 0.35
HP_BW = 3 * Mbps
HP_HOLD_CPU = 0.2
HP_HOLD_BW = 2 * Mbps
HP_HOLDS = 2
HP_CYCLES = 20
HP_BLOCKS = 10


def build_graph(n: int, seed: int = 0):
    """The hot-path bench's contended random tree, at any size."""
    rng = np.random.default_rng(seed)
    g = random_tree(n, max(1, n // 5), rng, bandwidth=100 * Mbps)
    for link in g.links():
        link.available_fwd = float(rng.uniform(5, 100)) * Mbps
        link.available_rev = float(rng.uniform(5, 100)) * Mbps
    for node in g.compute_nodes():
        node.load_average = float(rng.uniform(0, 0.5))
    return g


def percentiles(samples_us: list[float]) -> dict:
    if not samples_us:
        return {"count": 0, "p50_us": 0.0, "p95_us": 0.0, "p99_us": 0.0}
    ordered = sorted(samples_us)

    def pick(q: float) -> float:
        idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[idx]

    return {
        "count": len(ordered),
        "p50_us": pick(0.50),
        "p95_us": pick(0.95),
        "p99_us": pick(0.99),
    }


def drive(router: ShardRouter, n_requests: int, seed: int) -> dict:
    """Push the request mix through ``router``; returns latency buckets.

    The tenant-size sequence is drawn from ``seed`` alone, so every
    configuration (any host count, any shard count) faces the identical
    request stream.
    """
    rng = np.random.default_rng(seed + 1)
    sizes = rng.integers(M_MIN, M_MAX + 1, size=WARMUP + n_requests)
    live: list[str] = []
    all_us: list[float] = []
    by_shard: dict[int, list[float]] = {}
    cross_us: list[float] = []
    rejected = 0
    for i in range(WARMUP + n_requests):
        app = f"bench-{i}"
        spec = ApplicationSpec(num_nodes=int(sizes[i]))
        # Every configuration faces the identical stream: the spread=2
        # hint clamps to 1 on an unsharded router, which then pays the
        # bandwidth-floor selection over the whole network instead.
        cross = i % CROSS_EVERY == CROSS_EVERY - 1
        t0 = time.perf_counter()
        grant = router.request(
            app, spec,
            cpu_fraction=CPU_CLAIM,
            bw_bps=BW_CROSS if cross else BW_LOCAL,
            spread=2 if cross else 1,
        )
        dt_us = (time.perf_counter() - t0) * 1e6
        if grant.admitted:
            live.append(app)
            if len(live) > LIVE_WINDOW:
                router.release(live.pop(0))
        else:
            rejected += 1
        if i < WARMUP:
            continue
        all_us.append(dt_us)
        if grant.admitted and not grant.cross_shard:
            by_shard.setdefault(grant.shards[0], []).append(dt_us)
        elif grant.admitted:
            cross_us.append(dt_us)
    router.check_invariants()
    for app in list(live):
        router.release(app)
    router.check_invariants()
    assert router.trunk.active == 0, "trunk claims leaked past release-all"
    return {
        "overall": percentiles(all_us),
        "per_shard": {
            str(s): percentiles(v) for s, v in sorted(by_shard.items())
        },
        "cross": percentiles(cross_us),
        "rejected": rejected,
    }


def bench_config(hosts: int, shards: int, n_requests: int, seed: int) -> dict:
    graph = build_graph(hosts, seed=seed)
    t0 = time.perf_counter()
    router = ShardRouter(graph, shards=shards, snapshot_ttl=1e9, lease_s=1e9)
    build_s = time.perf_counter() - t0
    latencies = drive(router, n_requests, seed)
    snap = router.metrics_snapshot()
    stages = snap.get("stages", {})
    entry = {
        "hosts": hosts,
        "shards": shards,
        "build_s": build_s,
        "trunk_links": len(router.plan.trunk_keys),
        "requests": snap["requests"],
        "admitted": snap["admitted"],
        "rejected": snap["rejected"],
        "routed_local": snap["routed_local"],
        "routed_cross": snap["routed_cross"],
        "trunk_rejections": snap["trunk_rejections"],
        "cross_shard_fraction": snap["cross_shard_fraction"],
        "latency": latencies,
        "trunk_reserve_overhead": stages.get("trunk_reserve"),
    }
    return entry


def _hold(service) -> None:
    """The standing tenants the hot-path cycles run beside."""
    for i in range(HP_HOLDS):
        grant = service.request(
            f"hold-{i}", ApplicationSpec(num_nodes=3),
            cpu_fraction=HP_HOLD_CPU, bw_bps=HP_HOLD_BW,
        )
        assert grant.admitted, f"background tenant hold-{i} not admitted"


def _cycle_times(service, first: int, count: int) -> list[float]:
    """Seconds per request/release cycle of the hot-path tenant shape,
    for cycles ``first`` .. ``first + count - 1``."""
    spec = ApplicationSpec(num_nodes=HP_M)
    times = []
    for i in range(first, first + count):
        app = f"hp-{i}"
        t0 = time.perf_counter()
        grant = service.request(
            app, spec, cpu_fraction=HP_CPU, bw_bps=HP_BW,
        )
        service.release(app)
        times.append(time.perf_counter() - t0)
        assert grant.admitted, f"cycle tenant {app} not admitted"
    return times


def hotpath_replica(seed: int) -> dict:
    """The warm-cycle workload: unsharded router vs plain service.

    Both arms run in one process on the same graph, timed in
    ``HP_BLOCKS`` alternating blocks whose first arm takes turns, so a
    slow stretch of the host falls on both arms rather than on
    whichever ran second.  Each arm's figure is its best cycle.
    """
    from repro.service import SelectionService

    arms = {
        "router": ShardRouter(
            build_graph(1000, seed=seed), shards=1,
            snapshot_ttl=1e9, lease_s=1e9,
        ),
        "plain": SelectionService(
            build_graph(1000, seed=seed),
            snapshot_ttl=1e9, lease_s=1e9, queue_limit=0,
        ),
    }
    for service in arms.values():
        _hold(service)
        _cycle_times(service, 0, WARMUP)
    best = dict.fromkeys(arms, float("inf"))
    order = list(arms)
    for block in range(HP_BLOCKS):
        first = WARMUP + block * HP_CYCLES
        for name in order:
            best[name] = min(
                best[name], *_cycle_times(arms[name], first, HP_CYCLES)
            )
        order.reverse()
    arms["router"].check_invariants()
    return {
        "nodes": 1000,
        "router_us": best["router"] * 1e6,
        "plain_us": best["plain"] * 1e6,
        "overhead_ratio": best["router"] / best["plain"],
    }


def run(hosts_list, shards_list, n_requests, seed: int) -> dict:
    results: dict = {
        "m_min": M_MIN,
        "m_max": M_MAX,
        "cpu_claim": CPU_CLAIM,
        "cross_bw_mbps": BW_CROSS / Mbps,
        "cross_every": CROSS_EVERY,
        "live_window": LIVE_WINDOW,
        "requests_per_config": n_requests,
        "hosts": hosts_list,
        "shards": shards_list,
        "seed": seed,
        "entries": [],
    }
    rows = []
    for hosts in hosts_list:
        for shards in shards_list:
            entry = bench_config(hosts, shards, n_requests, seed)
            results["entries"].append(entry)
            lat = entry["latency"]["overall"]
            trunk = entry["trunk_reserve_overhead"]
            rows.append([
                hosts,
                shards,
                f"{lat['p50_us']:.0f}",
                f"{lat['p95_us']:.0f}",
                f"{lat['p99_us']:.0f}",
                f"{entry['cross_shard_fraction']:.2f}",
                f"{trunk['mean_us']:.1f}" if trunk else "-",
            ])
            print(
                f"hosts={hosts} shards={shards}: "
                f"p50={lat['p50_us']:.0f}us p99={lat['p99_us']:.0f}us "
                f"cross={entry['cross_shard_fraction']:.2f}",
                flush=True,
            )
    results["hotpath_replica"] = hotpath_replica(seed)
    results["table"] = format_table(
        ["hosts", "shards", "p50 (us)", "p95 (us)", "p99 (us)",
         "cross frac", "trunk mean (us)"],
        rows,
        title=(
            f"Sharded service request latency (m={M_MIN}-{M_MAX}, "
            f"window={LIVE_WINDOW}, {n_requests} requests/config)"
        ),
    )
    return results


# -- the --parallel arm: multi-core data plane ------------------------------

def _router_for_arm(graph, shards: int, arm: str,
                    plan=None) -> ShardRouter:
    if arm == "inproc":
        return ShardRouter(graph, shards=shards, plan=plan,
                           snapshot_ttl=1e9, lease_s=1e9)
    return ShardRouter(
        graph, shards=shards, plan=plan, snapshot_ttl=1e9, lease_s=1e9,
        executor="process", workers=shards,
    )


def drive_waves(router: ShardRouter, shards: int, waves: int,
                seed: int) -> dict:
    """Admission in waves: one ``admit_batch`` + one spread=2 request
    per wave, releasing the previous wave; returns throughput figures.

    The batch goes to the least-loaded shard as one envelope, the
    cross-shard request exercises the probe and commit fan-out, and the
    releases are posted; the identical wave stream is derived from
    ``seed`` alone so every arm faces the same work.
    """
    rng = np.random.default_rng(seed + 2)
    wave_size = WAVE_PER_SHARD * shards
    sizes = rng.integers(M_MIN, M_MAX + 1, size=(waves, wave_size))
    # One untimed warm wave: first-touch costs (worker copy-on-write
    # faults, lazy snapshot/route-cache builds) land here, not in the
    # throughput figures.
    warm = [
        BatchRequest(app_id=f"warm-{i}",
                     spec=ApplicationSpec(num_nodes=M_MIN),
                     cpu_fraction=CPU_CLAIM)
        for i in range(wave_size)
    ]
    for gnt in router.admit_batch(warm):
        if gnt.admitted:
            router.release(gnt.app_id)
    if router.request("warm-cross", ApplicationSpec(num_nodes=M_MAX),
                      cpu_fraction=CPU_CLAIM, bw_bps=BW_CROSS,
                      spread=2).admitted:
        router.release("warm-cross")
    total = admitted = 0
    prev: list[str] = []
    t0 = time.perf_counter()
    for w in range(waves):
        batch = [
            BatchRequest(
                app_id=f"wave{w}-{i}",
                spec=ApplicationSpec(num_nodes=int(sizes[w, i])),
                cpu_fraction=CPU_CLAIM,
            )
            for i in range(wave_size)
        ]
        grants = router.admit_batch(batch)
        cross = router.request(
            f"wave{w}-cross", ApplicationSpec(num_nodes=M_MAX),
            cpu_fraction=CPU_CLAIM, bw_bps=BW_CROSS, spread=2,
        )
        total += wave_size + 1
        live = [g.app_id for g in grants if g.admitted]
        if cross.admitted:
            live.append("wave%d-cross" % w)
        admitted += len(live)
        for app in prev:
            router.release(app)
        prev = live
    elapsed = time.perf_counter() - t0
    for app in prev:
        router.release(app)
    router.check_invariants()
    return {
        "requests": total,
        "admitted": admitted,
        "rejected": total - admitted,
        "elapsed_s": elapsed,
        "req_per_s": total / elapsed if elapsed > 0 else 0.0,
    }


def grant_stream(router: ShardRouter, n_requests: int, seed: int) -> list:
    """The serial bit-identity stream: every grant's full outcome."""
    rng = np.random.default_rng(seed + 3)
    sizes = rng.integers(M_MIN, M_MAX + 1, size=n_requests)
    out = []
    live: list[str] = []
    for i in range(n_requests):
        cross = i % CROSS_EVERY == CROSS_EVERY - 1
        g = router.request(
            f"id-{i}", ApplicationSpec(num_nodes=int(sizes[i])),
            cpu_fraction=CPU_CLAIM,
            bw_bps=BW_CROSS if cross else BW_LOCAL,
            spread=2 if cross else 1,
        )
        out.append((
            g.status,
            tuple(g.selection.nodes) if g.selection else None,
            g.shards,
        ))
        if g.admitted:
            live.append(f"id-{i}")
            if len(live) > LIVE_WINDOW:
                router.release(live.pop(0))
    router.check_invariants()
    return out


def bit_identity_gate(hosts: int, shards: int, n_requests: int,
                      seed: int) -> dict:
    """Assert the process executor reproduces in-process grants exactly."""
    graph = build_graph(hosts, seed=seed)
    streams = {}
    for label, workers in (
        ("inproc", None), ("process-w1", 1), ("process-wK", shards),
    ):
        if workers is None:
            router = ShardRouter(graph, shards=shards,
                                 snapshot_ttl=1e9, lease_s=1e9)
        else:
            router = ShardRouter(
                graph, shards=shards, snapshot_ttl=1e9, lease_s=1e9,
                executor="process", workers=workers,
            )
        streams[label] = grant_stream(router, n_requests, seed)
        router.close()
    reference = streams["inproc"]
    for label, stream in streams.items():
        assert stream == reference, (
            f"bit-identity gate failed: {label} diverged from inproc "
            f"at request "
            f"{next(i for i, (a, b) in enumerate(zip(stream, reference)) if a != b)}"
        )
    print(
        f"bit-identity: {len(streams) - 1} process configs == inproc "
        f"over {n_requests} requests at {hosts} hosts / {shards} shards "
        "— ok"
    )
    return {
        "hosts": hosts,
        "shards": shards,
        "requests": n_requests,
        "configs": sorted(streams),
        "identical": True,
    }


def run_parallel(hosts_list, shards_list, waves: int, seed: int) -> dict:
    arms = ["inproc", "process"]
    results: dict = {
        "cpus": os.cpu_count(),
        "hosts": hosts_list,
        "shards": shards_list,
        "waves": waves,
        "wave_per_shard": WAVE_PER_SHARD,
        "cpu_claim": CPU_CLAIM,
        "cross_bw_mbps": BW_CROSS / Mbps,
        "seed": seed,
        "entries": [],
    }
    rows = []
    for hosts in hosts_list:
        graph = build_graph(hosts, seed=seed)
        for shards in shards_list:
            row = [hosts, shards]
            plan = partition_topology(graph, shards)
            for arm in arms:
                router = _router_for_arm(graph, shards, arm, plan=plan)
                figures = drive_waves(router, shards, waves, seed)
                router.close()
                entry = {
                    "hosts": hosts,
                    "shards": shards,
                    "arm": arm,
                    "workers": shards if arm != "inproc" else 0,
                    **figures,
                }
                results["entries"].append(entry)
                row.append(f"{figures['req_per_s']:.0f}")
                print(
                    f"hosts={hosts} shards={shards} arm={arm}: "
                    f"{figures['req_per_s']:.0f} req/s "
                    f"({figures['admitted']}/{figures['requests']} admitted)",
                    flush=True,
                )
            rows.append(row)
    results["table"] = format_table(
        ["hosts", "shards", "inproc (req/s)", "process (req/s)"],
        rows,
        title=(
            f"Multi-core shard data plane throughput "
            f"({waves} waves x {WAVE_PER_SHARD}/shard + cross, "
            f"{os.cpu_count()} cpus)"
        ),
    )
    return results


def _throughput(results: dict, hosts: int, shards: int, arm: str) -> float:
    for e in results["entries"]:
        if (e["hosts"], e["shards"], e["arm"]) == (hosts, shards, arm):
            return e["req_per_s"]
    raise KeyError(f"no entry for hosts={hosts} shards={shards} arm={arm}")


def main_parallel(args) -> int:
    hosts_list = PAR_QUICK_HOSTS if args.quick else PAR_HOSTS
    shards_list = PAR_QUICK_SHARDS if args.quick else PAR_SHARDS
    waves = PAR_QUICK_WAVES if args.quick else PAR_WAVES
    identity = bit_identity_gate(
        min(hosts_list), min(shards_list),
        IDENTITY_QUICK_REQUESTS if args.quick else IDENTITY_REQUESTS,
        args.seed,
    )
    results = run_parallel(hosts_list, shards_list, waves, seed=args.seed)
    results["bit_identity"] = identity
    table = results.pop("table")
    print(table)

    cpus = os.cpu_count() or 1
    biggest, widest = max(hosts_list), max(shards_list)
    inproc_rps = _throughput(results, biggest, widest, "inproc")
    pool_rps = _throughput(results, biggest, widest, "process")
    speedup = pool_rps / inproc_rps if inproc_rps > 0 else 0.0
    results["speedup_at_max"] = {
        "hosts": biggest,
        "shards": widest,
        "cpus": cpus,
        "inproc_req_per_s": inproc_rps,
        "process_req_per_s": pool_rps,
        "speedup": speedup,
        "gated": cpus >= 4,
    }
    if cpus >= 4:
        # The whole point of the pool — but only measurable when there
        # are cores to spread across; single-core runners record the
        # figure without gating (RPC overhead with no parallelism can
        # only lose).
        assert speedup >= 2.0, (
            f"parallel gate failed at {biggest} hosts / {widest} shards: "
            f"process pool {pool_rps:.0f} req/s vs inproc "
            f"{inproc_rps:.0f} req/s — only {speedup:.2f}x (< 2x) "
            f"on {cpus} cpus"
        )
        print(
            f"throughput at {biggest}x{widest}: pool {pool_rps:.0f} req/s "
            f"vs inproc {inproc_rps:.0f} req/s "
            f"({speedup:.2f}x >= 2x on {cpus} cpus) — ok"
        )
    else:
        print(
            f"throughput at {biggest}x{widest}: pool {pool_rps:.0f} req/s "
            f"vs inproc {inproc_rps:.0f} req/s ({speedup:.2f}x; 2x gate "
            f"skipped on {cpus} cpu(s))"
        )

    PARALLEL_REPORT.parent.mkdir(exist_ok=True)
    PARALLEL_REPORT.write_text(table + "\n")
    if not args.quick:
        PARALLEL_JSON.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {PARALLEL_JSON}")
    return 0


def _p99(results: dict, hosts: int, shards: int) -> float:
    for e in results["entries"]:
        if e["hosts"] == hosts and e["shards"] == shards:
            return e["latency"]["overall"]["p99_us"]
    raise KeyError(f"no entry for hosts={hosts} shards={shards}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="one small size; CI smoke — asserts invariants and gates "
             "the unsharded replay at 2x the committed hot-path figure "
             "(does not overwrite the committed JSON)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for topology loads/residuals (recorded in the "
             "BENCH JSON; default: 0, the committed-figure seed)",
    )
    parser.add_argument(
        "--parallel", action="store_true",
        help="benchmark the process worker pool against the in-process "
             "router (bit-identity always gated; 2x throughput gated on "
             ">= 4-core runners); writes BENCH_parallel_shards.json",
    )
    args = parser.parse_args(argv)

    if args.parallel:
        return main_parallel(args)

    hosts_list = QUICK_HOSTS if args.quick else FULL_HOSTS
    shards_list = QUICK_SHARDS if args.quick else FULL_SHARDS
    n_requests = QUICK_REQUESTS if args.quick else FULL_REQUESTS
    results = run(hosts_list, shards_list, n_requests, seed=args.seed)
    table = results.pop("table")
    print(table)

    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(table + "\n")

    replica = results["hotpath_replica"]
    ratio = replica["overhead_ratio"]
    assert ratio <= 1.15, (
        f"unsharded router overhead too high: {replica['router_us']:.0f} "
        f"us vs plain service {replica['plain_us']:.0f} us in the same "
        f"process ({ratio:.2f}x > 1.15x)"
    )
    print(
        f"unsharded replay: router {replica['router_us']:.0f} us vs "
        f"plain {replica['plain_us']:.0f} us ({ratio:.2f}x <= 1.15x) — ok"
    )
    if args.quick:
        return 0

    # Scale-out gate: at the largest size, 16 shards must beat 1 shard
    # by >= 3x on p99 — the whole point of cutting the residual sweep.
    biggest = max(hosts_list)
    p99_one = _p99(results, biggest, 1)
    p99_many = _p99(results, biggest, max(shards_list))
    speedup = p99_one / p99_many
    results["p99_speedup_at_max"] = {
        "hosts": biggest,
        "shards": max(shards_list),
        "one_shard_p99_us": p99_one,
        "sharded_p99_us": p99_many,
        "speedup": speedup,
    }
    assert speedup >= 3.0, (
        f"sharding gate failed at {biggest} hosts: "
        f"{max(shards_list)}-shard p99 {p99_many:.0f} us vs 1-shard "
        f"{p99_one:.0f} us — only {speedup:.1f}x (< 3x)"
    )
    print(
        f"p99 at {biggest} hosts: 1 shard {p99_one:.0f} us, "
        f"{max(shards_list)} shards {p99_many:.0f} us "
        f"({speedup:.1f}x >= 3x) — ok"
    )

    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {JSON_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
