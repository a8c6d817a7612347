"""Benchmark: WAL hot-path overhead and crash-recovery replay time.

Two questions, one harness:

1. **What does durability cost the hot path?**  The warm-cache
   request/release cycle (the tenant shape of ``benchmarks/e2e``'s
   ``repeat_1k``, at 33 hosts) runs twice on the same topology with the
   same background holds — once in-memory, once with a
   :class:`~repro.service.LedgerWal` attached (two JSONL appends per
   cycle).  Acceptance gate: the WAL-enabled cycle stays within
   **1.15x of the 366 us warm cycle** recorded for the pre-overhaul
   service — the durable control plane must not give back what the
   O(Δ) overlay work bought.  The same-run in-memory/WAL ratio is
   recorded too.

2. **How fast does a crashed service come back?**  Ledgers with N live
   leases (plus renew/release churn writing ~1.5 N WAL records) are
   "crashed" (the WAL handle abandoned, no final snapshot) and timed
   through :meth:`ReservationLedger.recover` — once replaying the raw
   log, once recovering from a compacted snapshot after a clean
   ``close()``.  Recovery is asserted bit-identical to the pre-crash
   claim state before any timing is trusted.

Emits machine-readable results to ``BENCH_ledger_recovery.json`` at the
repo root (committed) and a table to ``benchmarks/out/ledger_recovery.txt``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_ledger_recovery.py          # full
    PYTHONPATH=src python benchmarks/bench_ledger_recovery.py --quick  # CI smoke

``--seed`` drives every random choice (topology loads, churn); the
committed figures use the default seed 0.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import format_table  # noqa: E402
from repro.core import ApplicationSpec  # noqa: E402
from repro.service import (  # noqa: E402
    LedgerWal,
    ReservationLedger,
    SelectionService,
)
from repro.topology import random_tree  # noqa: E402
from repro.units import Mbps  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_ledger_recovery.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "out" / "ledger_recovery.txt"

#: Hot-path arm: the warm-cycle tenant shape on a 33-host tree.
HOT_NODES = 33
M = 4
CPU_CLAIM = 0.35
BW_CLAIM = 3 * Mbps
N_HOLDS = 2
FULL_CYCLES = 30
QUICK_CYCLES = 10
WARMUP = 3

FULL_LEASES = [100, 500, 1000]
QUICK_LEASES = [50, 100]
REPLAY_REPEATS = 3

#: The committed warm request/release cycle (us) on the 33-host testbed
#: before the durability work — the baseline the acceptance gate is
#: anchored to (PR 4's recorded figure; see README "service hot path").
REFERENCE_WARM_CYCLE_US = 366.0


def build_graph(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    g = random_tree(n, max(1, n // 5), rng, bandwidth=100 * Mbps)
    for link in g.links():
        link.available_fwd = float(rng.uniform(5, 100)) * Mbps
        link.available_rev = float(rng.uniform(5, 100)) * Mbps
    for node in g.compute_nodes():
        node.load_average = float(rng.uniform(0, 0.5))
    return g


def make_service(graph, state_dir=None) -> SelectionService:
    service = SelectionService(
        graph, snapshot_ttl=1e9, lease_s=1e9, queue_limit=0,
        state_dir=state_dir,
        # Keep compaction out of the timed loop: this arm measures the
        # per-append cost; snapshots are timed by the replay arm.
        wal_snapshot_every=10**9,
    )
    for i in range(N_HOLDS):
        grant = service.request(
            f"hold-{i}", ApplicationSpec(num_nodes=3),
            cpu_fraction=0.2, bw_bps=2 * Mbps,
        )
        assert grant.admitted, f"background tenant hold-{i} not admitted"
    return service


def run_cycles(service: SelectionService, n_cycles: int, tag: str):
    spec = ApplicationSpec(num_nodes=M)
    times, selections = [], []
    for i in range(WARMUP + n_cycles):
        app = f"{tag}-{i}"
        t0 = time.perf_counter()
        grant = service.request(
            app, spec, cpu_fraction=CPU_CLAIM, bw_bps=BW_CLAIM,
        )
        service.release(app)
        dt = time.perf_counter() - t0
        assert grant.admitted, f"cycle tenant {app} not admitted"
        if i >= WARMUP:
            times.append(dt)
            selections.append(grant.selection.nodes)
    return times, selections


def bench_hot_path(n_cycles: int, seed: int) -> dict:
    """In-memory vs WAL-attached warm request/release cycle."""
    graph = build_graph(HOT_NODES, seed=seed)
    plain = make_service(graph)
    plain_times, plain_sel = run_cycles(plain, n_cycles, "mem")

    state_dir = tempfile.mkdtemp(prefix="bench-wal-")
    try:
        durable = make_service(build_graph(HOT_NODES, seed=seed),
                               state_dir=state_dir)
        wal_times, wal_sel = run_cycles(durable, n_cycles, "wal")
        assert plain_sel == wal_sel, "WAL arm changed selections"
        durable.check_invariants()
        appended = durable.wal.appended
        durable.close()
        # A restart over what the benchmark wrote must reproduce the
        # exact claim state — durability correctness before timing.
        recovered = ReservationLedger.recover(state_dir)
        assert (
            recovered.claims_fingerprint()
            == durable.ledger.claims_fingerprint()
        ), "recovered claim state diverged from the live ledger"
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)

    plain_us = min(plain_times) * 1e6
    wal_us = min(wal_times) * 1e6
    return {
        "nodes": HOT_NODES,
        "cycles": n_cycles,
        "in_memory_us": plain_us,
        "wal_us": wal_us,
        "wal_ratio": wal_us / plain_us,
        "wal_appends": appended,
        "reference_warm_cycle_us": REFERENCE_WARM_CYCLE_US,
        "wal_vs_reference_ratio": wal_us / REFERENCE_WARM_CYCLE_US,
    }


def churn_ledger(state_dir: str, graph, names, n_leases: int, seed: int):
    """Grant ``n_leases`` leases with ~50% extra renew/release churn."""
    rng = np.random.default_rng(seed)
    ledger = ReservationLedger()
    wal = LedgerWal(state_dir, snapshot_every=10**9)
    wal.attach(ledger)
    for i in range(n_leases):
        start = int(rng.integers(0, len(names)))
        nodes = [names[(start + j) % len(names)] for j in range(2)]
        ledger.reserve(
            f"app-{i}", nodes,
            cpu_fraction=float(rng.uniform(0.001, 0.01)),
            bw_bps=float(rng.uniform(0.01, 0.1)) * Mbps,
            graph=graph, now=float(i), lease_s=1e6,
        )
        if i and i % 4 == 0:
            pick = f"app-{int(rng.integers(0, i))}"
            if pick in ledger.reservations:
                ledger.renew(pick, float(i), 1e6)
        if i and i % 8 == 0:
            victim = f"app-{int(rng.integers(0, i))}"
            if victim in ledger.reservations:
                ledger.release(victim)
    return ledger, wal


def bench_replay(lease_counts: list[int], seed: int) -> list[dict]:
    """Crash-recovery replay time vs live lease count."""
    graph = build_graph(128, seed=seed)
    names = sorted(n.name for n in graph.compute_nodes())
    entries = []
    for n_leases in lease_counts:
        state_dir = tempfile.mkdtemp(prefix="bench-replay-")
        try:
            ledger, wal = churn_ledger(
                state_dir, graph, names, n_leases, seed
            )
            fingerprint = ledger.claims_fingerprint()
            # Crash: abandon the handle, then time raw-log replay.
            raw_times = []
            for _ in range(REPLAY_REPEATS):
                t0 = time.perf_counter()
                recovered = ReservationLedger.recover(state_dir)
                raw_times.append(time.perf_counter() - t0)
            assert recovered.claims_fingerprint() == fingerprint, (
                f"replay diverged at {n_leases} leases"
            )
            records = recovered.recovery.records
            # Clean shutdown: compact, then time snapshot-led recovery.
            wal.snapshot()
            wal.close()
            snap_times = []
            for _ in range(REPLAY_REPEATS):
                t0 = time.perf_counter()
                recovered = ReservationLedger.recover(state_dir)
                snap_times.append(time.perf_counter() - t0)
            assert recovered.claims_fingerprint() == fingerprint
            assert recovered.recovery.records == 0  # snapshot covers all
            entries.append({
                "leases": recovered.active,
                "wal_records": records,
                "replay_ms": min(raw_times) * 1e3,
                "snapshot_recover_ms": min(snap_times) * 1e3,
            })
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
    return entries


def run(lease_counts: list[int], n_cycles: int, seed: int) -> dict:
    hot = bench_hot_path(n_cycles, seed)
    replay = bench_replay(lease_counts, seed)
    results = {
        "seed": seed,
        "hot_path": hot,
        "replay": replay,
    }
    rows = [
        [e["leases"], e["wal_records"], f"{e['replay_ms']:.2f}",
         f"{e['snapshot_recover_ms']:.2f}"]
        for e in replay
    ]
    results["table"] = (
        format_table(
            ["live leases", "WAL records", "raw replay (ms)",
             "snapshot recover (ms)"],
            rows,
            title=(
                f"Crash-recovery replay (best of {REPLAY_REPEATS}; "
                f"hot path: in-memory {hot['in_memory_us']:.0f} us vs "
                f"WAL {hot['wal_us']:.0f} us = {hot['wal_ratio']:.2f}x)"
            ),
        )
    )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small lease counts; CI smoke — verifies bit-identical "
             "recovery and gates against the committed JSON (does not "
             "overwrite it)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for topology and churn (recorded in the BENCH "
             "JSON; default: 0, the committed-figure seed)",
    )
    args = parser.parse_args(argv)

    lease_counts = QUICK_LEASES if args.quick else FULL_LEASES
    n_cycles = QUICK_CYCLES if args.quick else FULL_CYCLES
    results = run(lease_counts, n_cycles, seed=args.seed)
    table = results.pop("table")
    print(table)

    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(table + "\n")

    hot = results["hot_path"]
    print(
        f"WAL hot-path overhead: {hot['in_memory_us']:.0f} us -> "
        f"{hot['wal_us']:.0f} us ({hot['wal_ratio']:.2f}x)"
    )

    if args.quick:
        # Overhead gate, loosened for noisy CI runners, plus a 2x
        # regression gate on replay time vs the committed figures.
        assert hot["wal_vs_reference_ratio"] <= 1.5, (
            f"WAL hot path above 1.5x of the committed {REFERENCE_WARM_CYCLE_US:.0f} us "
            f"warm cycle in quick mode: {hot}"
        )
        if not JSON_PATH.exists():
            print("no committed BENCH_ledger_recovery.json; gate skipped")
            return 0
        committed = json.loads(JSON_PATH.read_text())
        by_leases = {e["leases"]: e for e in committed.get("replay", [])}
        for entry in results["replay"]:
            ref = by_leases.get(entry["leases"])
            if ref is None:
                continue
            assert entry["replay_ms"] <= 2.0 * ref["replay_ms"], (
                f"replay regressed at {entry['leases']} leases: "
                f"{entry['replay_ms']:.2f} ms vs committed "
                f"{ref['replay_ms']:.2f} ms (>2x)"
            )
            print(
                f"{entry['leases']} leases: {entry['replay_ms']:.2f} ms "
                f"(committed {ref['replay_ms']:.2f} ms) — ok"
            )
        return 0

    # Acceptance gate: the WAL-enabled warm cycle stays within 1.15x of
    # the committed 366 us baseline (sanity: the same-run in-memory/WAL
    # ratio must also stay bounded — appends cost us, not x).
    assert hot["wal_vs_reference_ratio"] <= 1.15, (
        f"WAL hot path above 1.15x of the committed "
        f"{REFERENCE_WARM_CYCLE_US:.0f} us warm cycle: {hot}"
    )
    assert hot["wal_ratio"] <= 2.0, (
        f"WAL appends doubled the same-run warm cycle: {hot}"
    )
    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"wrote {JSON_PATH.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
