"""Benchmark: incremental selection kernel vs the naive reference.

Sweeps topology size and times ``select_balanced`` / ``select_max_bandwidth``
on both implementations, asserting bit-identical selections at every size
before any timing is trusted.  Emits machine-readable results to
``BENCH_selection_kernel.json`` at the repo root (committed, so the README
table has a provenance trail) and a human-readable table to
``benchmarks/out/selection_kernel.txt``.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_selection_kernel.py          # full sweep
    PYTHONPATH=src python benchmarks/bench_selection_kernel.py --quick  # CI smoke

The naive implementations re-derive connected components after every edge
removal — O(E) BFS per step, O(E^2) per run — so their cost explodes with
topology size while the kernel's reverse union-find replay stays nearly
linear.  The acceptance bar for this benchmark is a >= 10x speedup for
``select_balanced`` at 1000 nodes.
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
from repro.core.kernel import (  # noqa: E402
    select_balanced,
    select_max_bandwidth,
)
from repro.core.reference import (  # noqa: E402
    reference_select_balanced,
    reference_select_max_bandwidth,
)
from repro.topology import random_tree  # noqa: E402
from repro.units import Mbps  # noqa: E402

JSON_PATH = REPO_ROOT / "BENCH_selection_kernel.json"
REPORT_PATH = REPO_ROOT / "benchmarks" / "out" / "selection_kernel.txt"

FULL_SIZES = [33, 128, 512, 1000, 2000]
QUICK_SIZES = [33, 128]
M = 8

ALGORITHMS = {
    "select_balanced": (
        lambda g, m: select_balanced(g, m),
        lambda g, m: reference_select_balanced(g, m),
    ),
    "select_max_bandwidth": (
        lambda g, m: select_max_bandwidth(g, m),
        lambda g, m: reference_select_max_bandwidth(g, m),
    ),
}


def build_graph(n: int, seed: int = 0):
    """A contended random tree: ~n/5 switches, varied loads and residuals."""
    rng = np.random.default_rng(seed)
    g = random_tree(n, max(1, n // 5), rng, bandwidth=100 * Mbps)
    for link in g.links():
        link.available_fwd = float(rng.uniform(5, 100)) * Mbps
        link.available_rev = float(rng.uniform(5, 100)) * Mbps
    for node in g.compute_nodes():
        node.load_average = float(rng.uniform(0, 4))
    return g


def timed(fn, g, m, budget_s: float, min_reps: int = 3):
    """Best-of-reps wall time; caps reps so the naive arm stays tractable."""
    best = float("inf")
    result = None
    reps = 0
    t_start = time.perf_counter()
    while reps < min_reps or (
        reps < 25 and time.perf_counter() - t_start < budget_s
    ):
        t0 = time.perf_counter()
        result = fn(g, m)
        best = min(best, time.perf_counter() - t0)
        reps += 1
    return best, result


def selection_fingerprint(sel):
    return (sel.nodes, sel.objective, sel.iterations, sel.algorithm)


def run(sizes: list[int], naive_cutoff: int) -> dict:
    rows = []
    results: dict = {"m": M, "sizes": sizes, "entries": []}
    for n in sizes:
        g = build_graph(n)
        for name, (kernel_fn, naive_fn) in ALGORITHMS.items():
            k_time, k_sel = timed(kernel_fn, g, M, budget_s=1.0)
            entry = {
                "algorithm": name,
                "nodes": n,
                "kernel_s": k_time,
                "naive_s": None,
                "speedup": None,
                "identical": None,
            }
            if n <= naive_cutoff:
                n_time, n_sel = timed(naive_fn, g, M, budget_s=2.0)
                identical = (
                    selection_fingerprint(k_sel) == selection_fingerprint(n_sel)
                )
                assert identical, (
                    f"{name} diverged at n={n}: "
                    f"{selection_fingerprint(k_sel)} != "
                    f"{selection_fingerprint(n_sel)}"
                )
                entry.update(
                    naive_s=n_time, speedup=n_time / k_time, identical=True
                )
            results["entries"].append(entry)
            rows.append([
                name,
                n,
                f"{k_time * 1e3:.2f}",
                f"{entry['naive_s'] * 1e3:.2f}" if entry["naive_s"] else "-",
                f"{entry['speedup']:.1f}x" if entry["speedup"] else "-",
                "yes" if entry["identical"] else "-",
            ])
    results["table"] = format_table(
        ["algorithm", "nodes", "kernel (ms)", "naive (ms)", "speedup",
         "identical"],
        rows,
        title=f"Incremental kernel vs naive reference (m={M}, best-of-reps)",
    )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes only (CI smoke; does not overwrite the JSON)",
    )
    parser.add_argument(
        "--naive-cutoff", type=int, default=2000,
        help="largest size at which the naive arm is also timed",
    )
    args = parser.parse_args(argv)

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    results = run(sizes, args.naive_cutoff)
    table = results.pop("table")
    print(table)

    REPORT_PATH.parent.mkdir(exist_ok=True)
    REPORT_PATH.write_text(table + "\n")
    if not args.quick:
        JSON_PATH.write_text(json.dumps(results, indent=2) + "\n")
        print(f"\nwrote {JSON_PATH.relative_to(REPO_ROOT)}")

    # Acceptance gate: >= 10x for select_balanced at n=1000 when swept.
    gate = [
        e for e in results["entries"]
        if e["algorithm"] == "select_balanced" and e["nodes"] == 1000
        and e["speedup"] is not None
    ]
    for e in gate:
        assert e["speedup"] >= 10.0, f"speedup regression: {e}"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
