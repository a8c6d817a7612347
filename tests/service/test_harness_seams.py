"""Seam contract for the end-to-end harness (``benchmarks/e2e/trace.py``).

The harness shadows methods on live instances to record its per-layer
spans; a refactor that renames a seam, or stops calling it through the
instance, silently zeroes a per-layer column that only the benchmark's
own CI job would notice.  This drives every op the workloads use through
a wrapped service, a wrapped in-process router and a wrapped worker-pool
router and asserts each seam still fires.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.core import ApplicationSpec
from repro.des import Simulator
from repro.network import Cluster
from repro.remos import Collector, RemosAPI
from repro.service import BatchRequest, SelectionService, ShardRouter
from repro.topology import dumbbell, two_campus
from repro.units import Mbps

_TRACE_PY = Path(__file__).resolve().parents[2] / "benchmarks/e2e/trace.py"

#: ``layer:entry`` names the per-layer columns are computed from.
SEAMS = {
    "service.residual_view:_residual",
    "service.residual_view:apply_delta",
    "core.selector:select",
    "service.cache:topology",
    "service.cache:edges_for",
    "service.ledger:reserve",
    "service.wal:append",
    "service.service:probe",
    "sharding.trunk:reserve",
}

#: Registry names ``workloads.py`` reads the kernel counters from.
KERNEL_COUNTERS = {
    "repro_kernel_route_cache_hits_total",
    "repro_kernel_route_cache_misses_total",
}


def _load_trace():
    spec = importlib.util.spec_from_file_location("e2e_trace", _TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _drive(backend, tag):
    """request / admit_batch / renew / tick / release, as the workloads do."""
    claims = {"cpu_fraction": 0.1, "bw_bps": 1 * Mbps}
    assert backend.request(
        f"{tag}-a", ApplicationSpec(num_nodes=2), **claims
    ).admitted
    grants = backend.admit_batch([
        BatchRequest(f"{tag}-b{i}", ApplicationSpec(num_nodes=2), **claims)
        for i in range(3)
    ])
    assert all(g.admitted for g in grants)
    backend.renew(f"{tag}-a")
    backend.tick()
    backend.release(f"{tag}-a")


def test_every_harness_seam_still_fires(tmp_path):
    trace = _load_trace()
    rec = trace.SpanRecorder()
    rec.on = True

    svc = SelectionService(
        dumbbell(4, 4), snapshot_ttl=1e9, state_dir=str(tmp_path / "svc")
    )
    trace.install_service(rec, svc)
    _drive(svc, "svc")
    # Admits and probes alike reach the overlay through ``svc._residual``.
    for op in (
        lambda: svc.probe(ApplicationSpec(num_nodes=2),
                          cpu_fraction=0.1, bw_bps=1 * Mbps),
        lambda: svc.request("svc-c", ApplicationSpec(num_nodes=2)),
    ):
        before = sum(entry == "_residual" for _, entry, *_ in rec.spans)
        assert op() is not None
        after = sum(entry == "_residual" for _, entry, *_ in rec.spans)
        assert after == before + 1
    snap = svc.metrics_snapshot()
    assert snap["view_rebuilds"] == 1
    assert "select_memo_hits" in snap
    assert snap["stages"]["select"]["count"] >= 2
    assert KERNEL_COUNTERS <= {
        item["name"] for item in svc.registry.dump_state()
    }

    router = ShardRouter(
        two_campus(fast_hosts=6, slow_hosts=6), shards=2, snapshot_ttl=1e9
    )
    trace.install_router(rec, router)
    _drive(router, "rt")
    assert router.request(
        "rt-spread", ApplicationSpec(num_nodes=2),
        cpu_fraction=0.1, bw_bps=1 * Mbps, spread=2,
    ).admitted
    assert router.pool is None and len(router.services) == 2

    fired = {f"{layer}:{entry}" for layer, entry, *_ in rec.spans}
    assert SEAMS <= fired, sorted(SEAMS - fired)
    rec.uninstall()
    svc.close()


def test_pool_seams_fire_under_a_worker_pool_router():
    """``workers_10k``'s ``sharding.workers`` columns come from wrappers
    on the pool instance: every way the router reaches a worker must go
    through ``pool.call`` / ``pool.call_many`` as looked up on it."""
    trace = _load_trace()
    rec = trace.SpanRecorder()
    rec.on = True
    router = ShardRouter(
        two_campus(fast_hosts=6, slow_hosts=6), shards=2, snapshot_ttl=1e9,
        executor="process", workers=2,
    )
    try:
        with pytest.raises(RuntimeError, match="remote"):
            router.services
        trace.install_router(rec, router)
        _drive(router, "pl")
        assert router.request(
            "pl-spread", ApplicationSpec(num_nodes=2),
            cpu_fraction=0.1, bw_bps=1 * Mbps, spread=2,
        ).admitted
        router.advance(1.0)
        router.tick()
        fired = {f"{layer}:{entry}" for layer, entry, *_ in rec.spans}
        assert {
            "sharding.workers:call", "sharding.workers:call_many",
            "sharding.router:request", "sharding.trunk:reserve",
        } <= fired, sorted(fired)
        for op in ("admit", "admit_batch", "probe", "release", "tick"):
            assert rec.counts[f"rpc.{op}"] > 0, (op, dict(rec.counts))
        # The tick after advance() is a fan-out; the repeat at the same
        # instant is answered inside the pool and sends nothing.
        ticks = rec.counts["rpc.tick"]
        router.tick()
        assert rec.counts["rpc.tick"] == ticks
    finally:
        rec.uninstall()
        router.close()


def test_seams_survive_a_long_lived_view():
    """The harness re-wraps a view's seams only when the view *object*
    changes.  A Remos-backed service now keeps one view across poll
    rounds, re-based; its seams — and the time the re-base takes — must
    still be recorded after the second sweep."""
    trace = _load_trace()
    rec = trace.SpanRecorder()
    rec.on = True
    sim = Simulator()
    cluster = Cluster(sim, dumbbell(4, 4))
    api = RemosAPI(Collector(cluster, period=5.0))
    svc = SelectionService(api, snapshot_ttl=5.0, lease_s=120.0)
    trace.install_service(rec, svc)
    rec.wrap(api, "topology", "remos.api")
    cluster.compute("l0", 1e9)

    view = routes = None
    rebased_inside = []  # the innermost recorded span around each re-base
    for round_no in range(3):
        sim.run(until=sim.now + 6.0)
        rec.op = round_no
        assert svc.request(
            f"app-{round_no}", ApplicationSpec(num_nodes=2),
            cpu_fraction=0.1, bw_bps=1 * Mbps,
        ).admitted
        if view is None:
            view, routes = svc.view, svc.view.routes
            rebase = view.rebase

            def spy(*args):
                rebased_inside.append(rec.spans[rec._stack[-1]][1])
                rebase(*args)

            view.rebase = spy
        assert svc.view is view and view.routes is routes
        fired = {
            f"{layer}:{entry}" for layer, entry, *_rest, op in rec.spans
            if op == round_no
        }
        assert {
            "service.residual_view:_residual",
            "service.cache:edges_for",
            "service.cache:topology",
            "remos.api:topology",
        } <= fired, (round_no, sorted(fired))
        # A grant is refreshed at the overlay's next read: the previous
        # round's, by the re-base inside this round's ``_residual``.
        settled = [
            rec.spans[parent][1] if parent >= 0 else None
            for _layer, entry, _t0, _t1, parent, op in rec.spans
            if entry == "apply_delta" and op == round_no
        ]
        assert settled == (["_residual"] if round_no else []), (
            round_no, settled,
        )
    assert rebased_inside == ["_residual", "_residual"]
    svc.check_invariants()  # a read: the last round's grant settles
    assert sum(entry == "apply_delta" for _, entry, *_ in rec.spans) == 3
    assert api.topology_sweeps == svc.cache.misses == 3
    assert svc.metrics_snapshot()["view_rebuilds"] == 1
    rec.uninstall()
