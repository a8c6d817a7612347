"""One store per reported number.

Stage timings live only in the registry histogram
``repro_service_stage_duration_seconds{stage}``; their summaries must
equal — ``==`` on every float — what the ring-buffer timer kept beside
that histogram used to report (``tests/oracles.py::StageTimer``).  The
flat snapshot and the Prometheus exposition read the same stores, so on
the service, the in-process router and the process router a stage's
snapshot count is the exposition's ``_count`` and every row-declared
gauge reads the same in both.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApplicationSpec
from repro.des import Simulator
from repro.faults import FaultInjector, NodeCrash
from repro.network import Cluster
from repro.obs.metrics import Histogram, MetricsFederation, MetricsRegistry
from repro.obs.topcli import parse_exposition
from repro.remos import Collector, RemosAPI
from repro.service import BatchRequest, SelectionService, ShardRouter
from repro.service.metrics import STAGE_METRIC, ServiceMetrics, stage_summary
from repro.topology import dumbbell, two_campus
from repro.units import Mbps

from ..oracles import StageTimer


def _both(stream):
    """The new summary and the old timer's, over one stream."""
    hist = Histogram(STAGE_METRIC, "")
    timer = StageTimer()
    for seconds in stream:
        hist.observe(seconds)
        timer.observe(seconds)
    return stage_summary(hist), timer.summary()


def _assert_identical(got, want):
    assert got == want
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


# -- the stage summary is the old timer's rule, bit for bit -------------------------

@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 10000])
def test_stage_summary_equals_the_ring_timer(n):
    rng = random.Random(n)
    stream = [rng.lognormvariate(-9.0, 1.5) for _ in range(n)]
    _assert_identical(*_both(stream))


@settings(max_examples=60, deadline=None)
@given(
    background=st.integers(min_value=0, max_value=9000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tail=st.lists(
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False,
                  allow_infinity=False),
        max_size=64,
    ),
)
def test_stage_summary_equals_the_ring_timer_on_drawn_streams(
    background, seed, tail
):
    """Ties, zeros, subnormals and a ring wrapped at any offset."""
    rng = random.Random(seed)
    stream = [rng.choice((1e-6, 2.5e-5, rng.random() * 1e-3))
              for _ in range(background)] + tail
    _assert_identical(*_both(stream))


def test_observe_stage_writes_the_registry_histogram_only():
    metrics = ServiceMetrics()
    timer = StageTimer()
    for us in range(1, 5001):
        metrics.observe_stage("select", us * 1e-6)
        timer.observe(us * 1e-6)
    hist = metrics.registry.histogram(STAGE_METRIC, labels={"stage": "select"})
    assert metrics.stages == {"select": hist}
    _assert_identical(metrics.stage_summaries()["select"], timer.summary())


def test_federated_histogram_has_a_count_and_no_samples():
    source = ServiceMetrics()
    for _ in range(3):
        source.observe_stage("select", 0.001)
    state = source.registry.dump_state()
    for item in state:
        if item["kind"] == "histogram":  # the ring stays home
            assert set(item) == {"name", "kind", "help", "labels",
                                 "buckets", "counts", "sum", "count"}
    target = MetricsRegistry()
    MetricsFederation(target).ingest(0, state)
    merged = target.histogram(
        STAGE_METRIC, labels={"stage": "select", "shard": "0"}
    )
    assert (merged.count, merged.window) == (3, [])
    summary = stage_summary(merged)
    assert summary["count"] == 3
    assert summary["mean_us"] == pytest.approx(1000.0)
    assert summary["p50_us"] == summary["p99_us"] == 0.0


# -- the snapshot and the exposition agree ------------------------------------------

SERVICE_ROWS = {"known_down_nodes": "repro_service_known_down_nodes"}
ROUTER_ROWS = {
    "shard_count": "repro_shard_count",
    "cross_shard_fraction": "repro_shard_cross_fraction",
    "trunk_active_reservations": "repro_shard_trunk_active_reservations",
    "trunk_channels_claimed": "repro_shard_trunk_channels_claimed",
}
POOL_ROWS = {
    "workers": "repro_shard_workers",
    "worker_restarts": "repro_shard_worker_restarts_total",
}


def _exposition(registry) -> dict:
    return {
        (name, tuple(sorted(labels.items()))): value
        for name, labels, value in parse_exposition(registry.expose_text())
    }


def _assert_stages_agree(stages, samples, **labels):
    assert stages
    for stage, summary in stages.items():
        key = tuple(sorted({"stage": stage, **labels}.items()))
        assert summary["count"] == samples[f"{STAGE_METRIC}_count", key], (
            stage, labels
        )


def _assert_rows_agree(snap, samples, rows):
    for key, name in rows.items():
        assert snap[key] == samples[name, ()], key
        want = float if key == "cross_shard_fraction" else int
        assert type(snap[key]) is want, key


def _drive(backend, tag, spread=1):
    claims = {"cpu_fraction": 0.1, "bw_bps": 1 * Mbps}
    for i in range(3):
        assert backend.request(
            f"{tag}-{i}", ApplicationSpec(num_nodes=2), **claims
        ).admitted
    assert all(g.admitted for g in backend.admit_batch([
        BatchRequest(f"{tag}-b{i}", ApplicationSpec(num_nodes=1), **claims)
        for i in range(2)
    ]))
    if spread > 1:
        assert backend.request(
            f"{tag}-wide", ApplicationSpec(num_nodes=2), spread=spread,
            **claims,
        ).admitted
    backend.release(f"{tag}-0")


def test_service_snapshot_agrees_with_its_exposition():
    sim = Simulator()
    cluster = Cluster(sim, dumbbell(4, 4))
    collector = Collector(cluster, period=5.0, stale_after=3)
    injector = FaultInjector(cluster, collector)
    svc = SelectionService(RemosAPI(collector), snapshot_ttl=5.0, lease_s=1e6)
    svc.attach_injector(injector)
    sim.run(until=30.0)
    injector.schedule([NodeCrash(node="l0", at=31.0)])
    sim.run(until=32.0)
    _drive(svc, "svc")
    snap = svc.metrics_snapshot()
    samples = _exposition(svc.registry)
    assert snap["known_down_nodes"] == 1
    _assert_stages_agree(snap["stages"], samples)
    _assert_rows_agree(snap, samples, SERVICE_ROWS)
    assert snap["snapshot_sweeps"] == snap["cache_misses"] == samples[
        "repro_snapshot_cache_misses_total", ()
    ]


@pytest.mark.parametrize("executor", ["inproc", "process"])
def test_router_snapshot_agrees_with_its_exposition(executor):
    router = ShardRouter(
        two_campus(fast_hosts=4, slow_hosts=4), shards=2, executor=executor
    )
    try:
        # The rows are read where they are stored, snapshot or not.
        assert "shard_count" in router.metrics.format()
        _drive(router, "rt", spread=2)
        snap = router.metrics_snapshot()
        samples = _exposition(router.registry)
        assert snap["trunk_active_reservations"] >= 1
        assert snap["cross_shard_fraction"] > 0.0
        _assert_stages_agree(snap["stages"], samples)
        for shard, stats in snap["per_shard"].items():
            _assert_stages_agree(stats["stages"], samples, shard=shard)
        rows = ROUTER_ROWS | (POOL_ROWS if executor == "process" else {})
        _assert_rows_agree(snap, samples, rows)
        assert set(POOL_ROWS) & set(snap) == set(POOL_ROWS) & set(rows)
    finally:
        router.close()
