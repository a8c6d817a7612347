"""Benchmark: batched admission vs serial one-at-a-time admission.

Admits a burst of ``BATCH`` concurrent tenants against the same warm
snapshot two ways — ``BATCH`` separate :meth:`SelectionService.request`
calls (each paying a full residual-view consult and peel schedule) vs a
single :meth:`SelectionService.admit_batch` call (one snapshot fetch,
one greedy planner walk amortised across the batch) — and times the
admission burst only.  Releases between reps are untimed.  Claims vary
per request *and* per rep so the selector's memo never short-circuits
the serial arm: every serial request is a genuine plan.

Correctness before timing, on every rep: both arms admit the full
batch, the planner (not the serial fallback) placed the batch tail, and
ledger invariants hold after admission and after release.

Emits machine-readable results to ``BENCH_batched_admission.json`` at
the repo root (committed — the README table's provenance trail) and a
human-readable table to ``benchmarks/out/batched_admission.txt``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_batched_admission.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_batched_admission.py --quick  # CI smoke

Acceptance gate (full mode): >= 3x requests/s for the batch=32 arm
over serial at 1000 hosts.  (Whether batching taxed the serial hot path
is ``benchmarks/e2e``'s ``repeat_1k`` against its parent commit.)

Quick mode runs small sizes, re-asserts all correctness checks, and
skips the timing gates (CI machines are too noisy for ratios).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import format_table  # noqa: E402
from repro.core import ApplicationSpec  # noqa: E402
from repro.service import BatchRequest, SelectionService  # noqa: E402
from repro.topology import random_tree  # noqa: E402
from repro.units import Mbps  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_batched_admission.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "out" / "batched_admission.txt"

FULL_SIZES = [128, 512, 1000]
QUICK_SIZES = [33, 128]

#: The measured burst: 32 concurrent 2-node tenants, each claiming CPU
#: and bandwidth.  Small claims so the full burst always fits, even on
#: the smallest quick-mode topology — in particular the total batch
#: bandwidth (32 x 0.1 Mbps) stays under the weakest link's 5 Mbps
#: floor, so the greedy planner never has to defer to the serial
#: fallback on a saturated shared link.
BATCH = 32
M = 2
CPU0 = 0.05
BW_CLAIM = 0.1 * Mbps

FULL_REPS = 5
QUICK_REPS = 2
WARMUP = 1


def build_graph(n: int, seed: int = 0):
    """The contended random tree ``benchmarks/e2e`` also builds."""
    rng = np.random.default_rng(seed)
    g = random_tree(n, max(1, n // 5), rng, bandwidth=100 * Mbps)
    for link in g.links():
        link.available_fwd = float(rng.uniform(5, 100)) * Mbps
        link.available_rev = float(rng.uniform(5, 100)) * Mbps
    for node in g.compute_nodes():
        node.load_average = float(rng.uniform(0, 0.5))
    return g


def make_service(graph) -> SelectionService:
    return SelectionService(
        graph, snapshot_ttl=1e9, lease_s=1e9, queue_limit=0,
    )


def burst(rep: int, tag: str) -> list[BatchRequest]:
    """One admission burst; claims vary per rep and per request so the
    serial arm's selector memo never hits."""
    return [
        BatchRequest(
            app_id=f"{tag}-{rep}-{i}",
            spec=ApplicationSpec(num_nodes=M),
            cpu_fraction=CPU0 + rep * 1e-4 + i * 1e-5,
            bw_bps=BW_CLAIM,
        )
        for i in range(BATCH)
    ]


def time_serial(service: SelectionService, reps: int) -> float:
    """Best-of-reps wall time to admit one burst via BATCH request()s."""
    best = float("inf")
    for rep in range(WARMUP + reps):
        reqs = burst(rep, "ser")
        t0 = time.perf_counter()
        grants = [
            service.request(
                b.app_id, b.spec,
                cpu_fraction=b.cpu_fraction, bw_bps=b.bw_bps,
            )
            for b in reqs
        ]
        dt = time.perf_counter() - t0
        assert all(g.admitted for g in grants), "serial burst not admitted"
        service.check_invariants()
        for b in reqs:
            service.release(b.app_id)
        if rep >= WARMUP:
            best = min(best, dt)
    return best


def time_batched(service: SelectionService, reps: int) -> float:
    """Best-of-reps wall time to admit one burst via admit_batch()."""
    best = float("inf")
    for rep in range(WARMUP + reps):
        reqs = burst(rep, "bat")
        planned_before = service.metrics.batch_planned
        t0 = time.perf_counter()
        grants = service.admit_batch(reqs)
        dt = time.perf_counter() - t0
        assert all(g.admitted for g in grants), "batched burst not admitted"
        # The greedy planner — not the serial fallback — must have
        # placed the batch tail, or the timing is meaningless.
        assert service.metrics.batch_planned - planned_before >= BATCH - 1, (
            "batch tail fell back to the serial path"
        )
        service.check_invariants()
        for b in reqs:
            service.release(b.app_id)
        if rep >= WARMUP:
            best = min(best, dt)
    return best


def run(sizes: list[int], reps: int, seed: int = 0) -> dict:
    rows = []
    results: dict = {
        "batch": BATCH,
        "m": M,
        "cpu0": CPU0,
        "bw_claim_mbps": BW_CLAIM / Mbps,
        "reps": reps,
        "sizes": sizes,
        "seed": seed,
        "entries": [],
    }
    for n in sizes:
        graph = build_graph(n, seed=seed)
        serial_s = time_serial(make_service(graph), reps)
        batched_s = time_batched(make_service(graph), reps)
        entry = {
            "nodes": n,
            "serial_us": serial_s * 1e6,
            "batched_us": batched_s * 1e6,
            "serial_rps": BATCH / serial_s,
            "batched_rps": BATCH / batched_s,
            "speedup": serial_s / batched_s,
        }
        results["entries"].append(entry)
        rows.append([
            n,
            f"{entry['serial_rps']:.0f}",
            f"{entry['batched_rps']:.0f}",
            f"{entry['speedup']:.1f}x",
        ])
    results["table"] = format_table(
        ["hosts", "serial (req/s)", f"batch={BATCH} (req/s)", "speedup"],
        rows,
        title=(
            f"Admission burst of {BATCH} concurrent {M}-node tenants "
            f"(best of {reps})"
        ),
    )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes only; CI smoke — correctness checks run, "
             "timing gates skipped, committed JSON not overwritten",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for topology loads/residuals (default: 0, the "
             "committed-figure seed)",
    )
    args = parser.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    reps = QUICK_REPS if args.quick else FULL_REPS
    results = run(sizes, reps, seed=args.seed)
    table = results.pop("table")
    print(table)

    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(table + "\n")

    if args.quick:
        print("quick mode: correctness asserted, timing gates skipped")
        return 0

    JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {JSON_PATH.relative_to(REPO_ROOT)}")

    # Acceptance gate: >= 3x requests/s over serial at 1000 hosts.
    for e in results["entries"]:
        if e["nodes"] == 1000:
            assert e["speedup"] >= 3.0, (
                f"batched admission speedup below 3x: {e}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
