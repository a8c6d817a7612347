"""The peel-schedule plane changes what a peel costs, never what it picks.

One stream of bandwidth-free requests — balanced and max-bandwidth
objectives alternating, a live window of leases so the selection memo
misses — runs twice: on the shipped service, whose overlay hands the
kernel a cached schedule (reused verbatim on a quiet ledger, merged
with the claim-touched links otherwise), and on
``tests/oracles.py::scheduleless_service``, where the hook answers
``None`` and every peel sorts on the spot.  Every grant must be
identical, and the shipped arm must have run both its reuse and its
adjust branch.
"""

import numpy as np

from repro.core import ApplicationSpec
from repro.core.spec import Objective
from repro.service import SelectionService
from repro.topology import random_tree
from repro.units import Mbps

from ..oracles import scheduleless_service

LIVE_WINDOW = 8
SCHEDULE_COUNTERS = (
    "repro_kernel_peel_schedule_reuses_total",
    "repro_kernel_peel_schedule_adjusts_total",
    "repro_kernel_peel_schedule_builds_total",
)


def _graph():
    rng = np.random.default_rng(7)
    g = random_tree(60, 12, rng, bandwidth=100 * Mbps)
    for link in g.links():
        link.available_fwd = float(rng.uniform(5, 100)) * Mbps
        link.available_rev = float(rng.uniform(5, 100)) * Mbps
    for node in g.compute_nodes():
        node.load_average = float(rng.uniform(0, 0.5))
    return g


def _run(make):
    svc = make(_graph(), snapshot_ttl=1e9, lease_s=1e6, queue_limit=0)
    rng = np.random.default_rng(11)
    live, out = [], []
    for i in range(120):
        if i == 60:
            # Standing bandwidth tenants: from here on the ledger claims
            # links, so a cached schedule must merge them back in.
            for t in range(3):
                assert svc.request(
                    f"tenant-{t}", ApplicationSpec(num_nodes=2),
                    cpu_fraction=0.1, bw_bps=2 * Mbps,
                ).admitted
        objective = (Objective.BALANCED, Objective.BANDWIDTH)[i % 2]
        spec = ApplicationSpec(
            num_nodes=int(rng.integers(2, 6)), objective=objective
        )
        grant = svc.request(f"app-{i}", spec, cpu_fraction=0.1)
        out.append((grant.status, grant.admitted and (
            grant.selection.nodes, grant.selection.objective
        )))
        if grant.admitted:
            live.append(f"app-{i}")
            if len(live) > LIVE_WINDOW:
                svc.release(live.pop(0))
    svc.check_invariants()
    dump = svc.registry.dump()
    return out, [dump[name] for name in SCHEDULE_COUNTERS], svc


def test_plane_and_on_the_spot_sort_admit_identical_selections():
    got, (reused, adjusted, builds), svc = _run(SelectionService)
    want, sorted_counts, _ = _run(scheduleless_service)
    assert got == want
    assert sum(status == "admitted" for status, _ in got) >= 100
    assert reused > 0 and adjusted > 0 and builds >= 1
    assert sorted_counts == [0.0, 0.0, 0.0]  # the hook was really off
    assert svc.metrics.select_memo_hits < 60  # the kernel ran, mostly
