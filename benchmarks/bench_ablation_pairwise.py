"""Ablation (§5): logical topology vs pairwise measurements.

The paper argues its key advantage over NWS/AppLeS-style systems is
operating on the *logical network topology* rather than on bandwidth
measured between pairs of nodes: the topology supports selection by
peeling busy links, while the pairwise view needs O(H^2) measurements and
a combinatorial search.  We quantify both costs on growing testbeds:
query volume (probe pairs vs polled devices) and selection wall time
(Figure 2 peeling vs pairwise greedy on the full matrix).
Report: benchmarks/out/ablation_pairwise.txt.
"""

import time

import numpy as np

from conftest import write_report
from repro.analysis import format_table
from repro.core import select_max_bandwidth
from repro.topology import random_tree
from repro.units import Mbps


def loaded_tree(n_compute, seed=11):
    rng = np.random.default_rng(seed)
    g = random_tree(n_compute, max(2, n_compute // 4), rng)
    for link in g.links():
        link.set_available(float(rng.uniform(1, 100)) * Mbps)
    return g


def pairwise_selection(g, m):
    """NWS-style: build the full pairwise bottleneck matrix, then greedily
    grow a set from the best pair (no topology knowledge)."""
    hosts = [n.name for n in g.compute_nodes()]
    matrix = {}
    for a in hosts:
        for b in hosts:
            if a != b:
                matrix[(a, b)] = g.path_available_bandwidth(a, b)

    def pair_bw(a, b):
        return min(matrix[(a, b)], matrix[(b, a)])

    def score(names):
        return min(
            pair_bw(x, y) for i, x in enumerate(names) for y in names[i + 1:]
        )

    best_pair = max(
        ((a, b) for i, a in enumerate(hosts) for b in hosts[i + 1:]),
        key=lambda p: pair_bw(*p),
    )
    chosen = list(best_pair)
    while len(chosen) < m:
        rest = [h for h in hosts if h not in chosen]
        chosen.append(max(rest, key=lambda h: score(chosen + [h])))
    return sorted(chosen), score(chosen)


def test_pairwise_vs_topology(benchmark):
    rows = []
    for n in (8, 16, 32, 64):
        g = loaded_tree(n)
        hosts = len(g.compute_nodes())
        devices = g.num_nodes

        t0 = time.perf_counter()
        topo_sel = select_max_bandwidth(g, 4)
        topo_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        pair_nodes, pair_bw = pairwise_selection(g, 4)
        pair_time = time.perf_counter() - t0

        rows.append([
            n,
            hosts * (hosts - 1),       # probe pairs NWS would measure
            devices,                    # devices Remos polls
            f"{topo_time * 1e3:.1f}",
            f"{pair_time * 1e3:.1f}",
            f"{topo_sel.objective / Mbps:.0f}",
            f"{pair_bw / Mbps:.0f}",
        ])
        # Topology-based selection is exactly optimal; pairwise greedy can
        # only tie or lose.
        assert topo_sel.objective >= pair_bw - 1e-6

    report = format_table(
        ["hosts", "probe pairs", "polled devices",
         "topology ms", "pairwise ms", "topo bw", "pairwise bw"],
        rows,
        title="§5 ablation: logical topology vs pairwise measurement",
    )
    write_report("ablation_pairwise.txt", report)

    # The measurement footprint argument: probe pairs grow quadratically
    # in hosts, polled devices linearly.
    assert rows[-1][1] > 10 * rows[-1][2]

    g = loaded_tree(64)
    benchmark(select_max_bandwidth, g, 4)


def test_pairwise_selection_cost(benchmark):
    """Wall-time of the pairwise alternative at the largest size."""
    g = loaded_tree(64)
    nodes, bw = benchmark(pairwise_selection, g, 4)
    assert len(nodes) == 4
    assert bw > 0
