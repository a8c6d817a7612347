"""Golden-schema guard for ``ServiceMetrics.snapshot()``.

The flat JSON this method returns is the machine-readable surface of
``repro-serve --format json`` and the benchmark reports; its key set is
**frozen** (DESIGN.md "ServiceMetrics snapshot schema").  Adding keys is
backward-compatible and requires updating the golden sets here; renaming
or removing keys is a breaking change and should fail this test loudly.
"""

from repro.core import ApplicationSpec
from repro.obs.metrics import Histogram
from repro.service import SelectionService, ShardRouter
from repro.service.metrics import STAGES, ServiceMetrics, stage_summary
from repro.topology import dumbbell, two_campus

#: Counter keys always present, in the frozen order.
COUNTER_KEYS = [
    "requests",
    "admitted",
    "queued",
    "rejected",
    "released",
    "renewed",
    "expired",
    "evicted",
    "preempted",
    "admitted_from_queue",
    "queue_displaced",
    "drain_skipped",
    "view_rebuilds",
    "select_memo_hits",
    "select_memo_negative_hits",
    "routed_local",
    "routed_cross",
    "trunk_rejections",
    "batches",
    "batch_requests",
    "batch_planned",
    "batch_fallbacks",
    "push_events",
    "migrations",
]

#: Added when a queue / cache / ledger is passed to ``snapshot()``.
QUEUE_KEYS = ["queue_depth"]
CACHE_KEYS = [
    "cache_hits",
    "cache_misses",
    "cache_coalesced",
    "cache_invalidations",
    "snapshot_sweeps",
]
LEDGER_KEYS = [
    "active_reservations",
    "max_node_claim",
    "mean_node_claim",
    "max_edge_claim_fraction",
    "mean_edge_claim_fraction",
]

#: Extras the live service merges in via ``metrics_snapshot()``.
SERVICE_EXTRA_KEYS = ["known_down_nodes"]

#: Per-stage summary keys inside the nested ``stages`` table.
STAGE_SUMMARY_KEYS = ["count", "mean_us", "p50_us", "p95_us", "p99_us"]

#: Keys inside the nested ``slo`` section (SloMonitor.evaluate()).
SLO_KEYS = ["status", "latency_p99_s", "objectives"]
SLO_OBJECTIVES = ["admit_latency", "availability", "worker_restarts"]


class TestBareSnapshot:
    def test_counters_only(self):
        snap = ServiceMetrics().snapshot()
        assert list(snap) == COUNTER_KEYS

    def test_counter_values_are_ints(self):
        snap = ServiceMetrics().snapshot()
        assert all(isinstance(v, int) for v in snap.values())

    def test_stages_nest_under_single_key(self):
        metrics = ServiceMetrics()
        metrics.observe_stage("select", 0.001)
        snap = metrics.snapshot()
        assert list(snap) == COUNTER_KEYS + ["stages"]
        assert list(snap["stages"]) == ["select"]
        assert list(snap["stages"]["select"]) == STAGE_SUMMARY_KEYS

    def test_stage_table_preserves_pipeline_order(self):
        metrics = ServiceMetrics()
        for name in reversed(STAGES):
            metrics.observe_stage(name, 0.001)
        assert list(metrics.snapshot()["stages"]) == list(STAGES)

    def test_stage_timer_summary_schema(self):
        hist = Histogram("repro_test_stage_seconds", "")
        assert list(stage_summary(hist)) == STAGE_SUMMARY_KEYS
        hist.observe(0.002)
        assert list(stage_summary(hist)) == STAGE_SUMMARY_KEYS


class TestLiveServiceSnapshot:
    def test_full_schema_from_a_served_request(self):
        service = SelectionService(dumbbell(4, 4), queue_limit=4)
        grant = service.request(
            "app", ApplicationSpec(num_nodes=2), cpu_fraction=0.2
        )
        assert grant.admitted
        snap = service.metrics_snapshot()
        expected = (
            COUNTER_KEYS + QUEUE_KEYS + CACHE_KEYS + LEDGER_KEYS
            + SERVICE_EXTRA_KEYS + ["slo", "stages"]
        )
        assert list(snap) == expected

    def test_slo_section_schema(self):
        service = SelectionService(dumbbell(4, 4), queue_limit=4)
        service.request("app", ApplicationSpec(num_nodes=2), cpu_fraction=0.2)
        slo = service.metrics_snapshot()["slo"]
        assert list(slo) == SLO_KEYS
        assert list(slo["objectives"]) == SLO_OBJECTIVES
        assert slo["status"] in ("ok", "burning", "paging")
        for objective in slo["objectives"].values():
            assert objective["status"] in ("ok", "burning", "paging")
            assert [w["window_s"] for w in objective["windows"]] == [
                300.0, 3600.0,
            ]

    def test_bare_snapshot_has_no_slo_key(self):
        # ``slo`` only appears when a live evaluation is passed in; the
        # bare dataclass snapshot (benchmarks, unit fixtures) stays flat.
        assert "slo" not in ServiceMetrics().snapshot()

    def test_stage_keys_on_admitted_path(self):
        service = SelectionService(dumbbell(4, 4), queue_limit=4)
        service.request("app", ApplicationSpec(num_nodes=2), cpu_fraction=0.2)
        stages = service.metrics_snapshot()["stages"]
        assert list(stages) == list(STAGES)
        for summary in stages.values():
            assert list(summary) == STAGE_SUMMARY_KEYS


#: Keys of every ``per_shard`` entry; the pool adds ``worker``.
PER_SHARD_KEYS = [
    "requests", "admitted", "rejected", "active_leases", "stages", "hosts",
]


def _served_router(executor):
    router = ShardRouter(
        two_campus(fast_hosts=4, slow_hosts=4), shards=2, executor=executor
    )
    router.request("app", ApplicationSpec(num_nodes=2), cpu_fraction=0.2)
    router.request("wide", ApplicationSpec(num_nodes=4), spread=2)
    return router


class TestRouterSnapshotAndExposition:
    def test_router_snapshot_nests_slo_before_stages(self):
        for executor in ("inproc", "process"):
            router = _served_router(executor)
            snap = router.metrics_snapshot()
            keys = list(snap)
            assert keys.index("slo") < keys.index("stages") < keys.index(
                "per_shard"
            )
            assert list(snap["slo"]["objectives"]) == SLO_OBJECTIVES
            router.close()

    def test_per_shard_is_one_schema_under_both_executors(self):
        per_shard = {}
        for executor in ("inproc", "process"):
            router = _served_router(executor)
            before = router.metrics_snapshot()["per_shard"]
            router.close()
            assert router.metrics_snapshot()["per_shard"] == before
            per_shard[executor] = before
        assert list(per_shard["inproc"]) == list(per_shard["process"])
        for shard, stats in per_shard["inproc"].items():
            remote = per_shard["process"][shard]
            assert list(stats) == PER_SHARD_KEYS
            assert list(remote) == PER_SHARD_KEYS + ["worker"]
            # Same stream, same state machine: only the timings differ.
            assert {k: stats[k] for k in PER_SHARD_KEYS if k != "stages"} == {
                k: remote[k] for k in PER_SHARD_KEYS if k != "stages"
            }
            assert stats["requests"] >= 1 and stats["active_leases"] >= 1
            assert list(stats["stages"]) == list(remote["stages"])
            # A shard that only took a part of "wide" never selected
            # (its probe did, untimed); every shard committed.
            assert "ledger_commit" in stats["stages"]
            for summary in (*stats["stages"].values(),
                            *remote["stages"].values()):
                assert list(summary) == STAGE_SUMMARY_KEYS

    def test_exposition_carries_shard_labeled_instruments(self):
        # The router registry federates every shard service's registry
        # under a ``shard=`` label on each scrape, alongside its own
        # router-level and SLO series.
        router = ShardRouter(two_campus(fast_hosts=4, slow_hosts=4), shards=2)
        router.request("app", ApplicationSpec(num_nodes=2), cpu_fraction=0.2)
        text = router.registry.expose_text()
        for shard in ("0", "1"):
            assert f'repro_shard_requests_total{{shard="{shard}"}}' in text
            assert f'repro_service_requests_total{{shard="{shard}"}}' in text
            assert (
                f'repro_kernel_route_cache_hits_total{{shard="{shard}"}}'
                in text
            )
        assert 'repro_slo_status{objective="admit_latency"}' in text
        assert "repro_shard_trunk_min_headroom_fraction" in text
        router.close()


class TestOneNamePerCounter:
    def test_each_counter_is_exported_under_one_name(self):
        # The service's own counters are ``repro_service_<key>_total``;
        # no second series repeats one of them under another name.
        svc = SelectionService(dumbbell(2, 2))
        svc.request("app", ApplicationSpec(num_nodes=2), cpu_fraction=0.2)
        text = svc.registry.expose_text()
        for key in ("select_memo_negative_hits", "queue_displaced",
                    "drain_skipped"):
            assert f"repro_service_{key}_total " in text, key
        for alias in ("repro_kernel_select_memo_negative_hits_total",
                      "repro_admission_queue_displaced_total",
                      "repro_admission_drain_skipped_total"):
            assert alias not in text, alias
