"""End-to-end tests for the distributed observability plane.

Exercises the full cross-process path from ISSUE/DESIGN.md §17 against
real worker processes: trace context rides the envelope protocol out to
the workers, worker-side spans ship back and stitch into one request
tree with ``shard``/``pid`` attribution, and every worker registry is
federated into the router's Prometheus exposition with ``shard=``
labels that stay monotone across a SIGKILL worker restart.
"""

import os
import signal
import time

import pytest

from repro.core.spec import ApplicationSpec
from repro.obs import Tracer
from repro.obs.promtext import validate
from repro.obs.topcli import parse_exposition
from repro.service import ShardRouter
from repro.topology import two_campus
from repro.units import Mbps


def _router(tracer=None, **kwargs):
    kwargs.setdefault("shards", 4)
    kwargs.setdefault("executor", "process")
    kwargs.setdefault("workers", 2)
    return ShardRouter(
        two_campus(fast_hosts=8, slow_hosts=8), tracer=tracer, **kwargs
    )


def _counter_samples(text):
    """``{sample_line_key: value}`` for every *_total sample line."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or " " not in line:
            continue
        key, _, value = line.rpartition(" ")
        if "_total" in key:
            out[key] = float(value)
    return out


class TestStitchedTraces:
    def test_request_yields_one_tree_with_worker_spans(self):
        tracer = Tracer()
        router = _router(tracer=tracer)
        try:
            worker_pids = set(router.pool.pids().values())
            grant = router.request(
                "app", ApplicationSpec(num_nodes=4), cpu_fraction=0.2,
                spread=2, bw_bps=Mbps,
            )
            assert grant.admitted
        finally:
            router.close()

        spans = tracer.spans
        roots = [s for s in spans if s["parent"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "router.request"
        # Every span was stitched into the one request trace.
        assert {s["trace"] for s in spans} == {roots[0]["trace"]}

        worker_spans = [s for s in spans if s["name"].startswith("worker.")]
        assert worker_spans, "no worker-side spans shipped back"
        for span in worker_spans:
            attrs = span["attrs"]
            assert isinstance(attrs["shard"], int)
            assert attrs["pid"] != os.getpid()
            assert attrs["pid"] in worker_pids

        # A spread=2 composite probes several shards: the worker spans
        # must carry more than one distinct shard attribution.
        assert len({s["attrs"]["shard"] for s in worker_spans}) >= 2

    def test_parent_links_resolve_within_the_batch(self):
        tracer = Tracer()
        router = _router(tracer=tracer)
        try:
            router.request("app", ApplicationSpec(num_nodes=2),
                           cpu_fraction=0.2)
        finally:
            router.close()
        ids = {s["span"] for s in tracer.spans}
        for span in tracer.spans:
            if span["parent"] is not None:
                assert span["parent"] in ids
        # Span ids stay unique after adopting batches from 2 workers.
        assert len(ids) == len(tracer.spans)

    def test_worker_service_spans_nest_under_worker_op(self):
        tracer = Tracer()
        router = _router(tracer=tracer)
        try:
            router.request("app", ApplicationSpec(num_nodes=2),
                           cpu_fraction=0.2)
        finally:
            router.close()
        by_id = {s["span"]: s for s in tracer.spans}
        service_spans = [s for s in tracer.spans
                         if s["name"].startswith("service.")]
        assert service_spans
        for span in service_spans:
            # Walk up: every worker-side service span must sit beneath
            # a worker.* envelope span.
            node = span
            lineage = []
            while node["parent"] is not None:
                node = by_id[node["parent"]]
                lineage.append(node["name"])
            assert any(name.startswith("worker.") for name in lineage)

    def test_posted_release_spans_are_stitched_when_acked(self):
        """A release is posted: its worker spans come home with the ack,
        after the caller's span has closed, and still join its tree."""
        tracer = Tracer()
        router = _router(tracer=tracer)
        try:
            worker_pids = set(router.pool.pids().values())
            grant = router.request(
                "app", ApplicationSpec(num_nodes=4), cpu_fraction=0.2,
                spread=2, bw_bps=Mbps,
            )
            assert grant.admitted
            with tracer.span("client.release") as client:
                router.release("app")
            assert not [s for s in tracer.spans
                        if s["name"] == "worker.release"]
            router.check_invariants()  # drains the acks
        finally:
            router.close()
        released = [s for s in tracer.spans if s["name"] == "worker.release"]
        assert sorted(s["attrs"]["shard"] for s in released) == sorted(
            grant.shards)
        for span in released:
            assert span["trace"] == client.trace_id
            assert span["parent"] == client.span_id
            assert span["attrs"]["pid"] in worker_pids

    def test_untraced_router_ships_no_spans(self):
        router = _router(tracer=None)
        try:
            router.request("app", ApplicationSpec(num_nodes=2),
                           cpu_fraction=0.2)
            assert not router.tracer.spans
        finally:
            router.close()


class TestFederatedExposition:
    def test_merged_exposition_validates_with_shard_labels(self):
        router = _router()
        try:
            for i in range(6):
                grant = router.request(
                    f"app{i}", ApplicationSpec(num_nodes=2),
                    cpu_fraction=0.1,
                )
                assert grant.admitted
            text = router.registry.expose_text()
        finally:
            router.close()
        assert validate(text) == []
        for shard in range(4):
            assert f'repro_service_requests_total{{shard="{shard}"}}' in text
        assert 'repro_slo_burn_rate{objective="admit_latency"' in text
        assert "repro_shard_trunk_min_headroom_fraction" in text

    def test_counters_monotone_across_worker_sigkill(self):
        router = _router()
        try:
            for i in range(4):
                router.request(f"app{i}", ApplicationSpec(num_nodes=2),
                               cpu_fraction=0.1)
            before = _counter_samples(router.registry.expose_text())

            victim = router.pool.worker_of(0)
            os.kill(router.pool.pids()[victim], signal.SIGKILL)
            time.sleep(0.1)
            router.pool.ping()  # reports the death, respawns in place
            assert router.pool.ping()[victim] is True
            router.request("after", ApplicationSpec(num_nodes=2),
                           cpu_fraction=0.1)
            text = router.registry.expose_text()
            after = _counter_samples(text)
        finally:
            router.close()

        assert validate(text) == []
        assert after["repro_shard_worker_restarts_total"] == 1.0
        # Restart-monotone federation: no counter the scrape saw before
        # the kill may move backwards, even though the restarted worker
        # came back with zeroed registries.
        regressions = {
            key: (before[key], after.get(key))
            for key in before
            if after.get(key, 0.0) < before[key]
        }
        assert regressions == {}, regressions
        # The merged view is still the live one: the post-restart
        # request is visible in the federated per-shard series.
        shard_requests = sum(
            v for k, v in after.items()
            if k.startswith('repro_service_requests_total{shard=')
        )
        assert shard_requests >= 5

    def test_scrape_costs_one_envelope_per_shard_and_one_set_of_books(self):
        """One ``expose_text()`` asks each shard one thing, and the
        router-level per-shard series are read from that same answer
        (requests) or the router's own count (live leases) — so they
        cannot drift from the federated shard series, restart or not."""
        def series(text, name, **labels):
            return {
                int(ls["shard"]): v
                for n, ls, v in parse_exposition(text)
                if n == name and "shard" in ls
                and all(ls.get(k) == w for k, w in labels.items())
            }

        def check_books(text):
            requests = series(text, "repro_shard_requests_total")
            assert set(requests) == set(range(4))
            assert requests == series(text, "repro_service_requests_total")
            assert series(text, "repro_shard_active_leases") == series(
                text, "repro_ledger_active_leases", **{"class": "all"}
            )
            return requests

        router = _router()
        pool, sent = router.pool, []
        call, call_many = pool.call, pool.call_many
        pool.call = lambda shard, op, *a, **kw: (
            sent.append(op), call(shard, op, *a, **kw))[1]
        pool.call_many = lambda calls, **kw: (
            sent.extend(c[1] for c in calls), call_many(calls, **kw))[1]
        try:
            for i in range(6):
                assert router.request(
                    f"app{i}", ApplicationSpec(num_nodes=2),
                    cpu_fraction=0.1, spread=2 if i == 5 else 1,
                ).admitted
            del sent[:]
            text = router.registry.expose_text()
            assert sent == ["metrics_state"] * 4
            before = check_books(text)
            assert sum(before.values()) >= 6

            victim = pool.worker_of(0)
            os.kill(pool.pids()[victim], signal.SIGKILL)
            time.sleep(0.1)
            router.tick()  # restarts the worker, reaps what it lost
            assert pool.restarts == 1
            router.request("after", ApplicationSpec(num_nodes=2),
                           cpu_fraction=0.1)
            after = check_books(router.registry.expose_text())
            assert all(after[s] >= before[s] for s in before)
            assert sum(after.values()) > sum(before.values())
        finally:
            router.close()
        del sent[:]
        assert check_books(router.registry.expose_text()) == after
        assert sent == []

    def test_scrape_is_fresh_without_tick(self):
        # The collect hook harvests on every expose_text(): a request
        # made after the last scrape shows up on the next one with no
        # tick()/close() in between.
        router = _router()
        try:
            base = _counter_samples(router.registry.expose_text())
            router.request("app", ApplicationSpec(num_nodes=2),
                           cpu_fraction=0.1)
            fresh = _counter_samples(router.registry.expose_text())
        finally:
            router.close()

        def federated_requests(samples):
            return sum(
                v for k, v in samples.items()
                if k.startswith('repro_service_requests_total{shard=')
            )

        # The probe fan-out may touch several shard services for one
        # router request; freshness just needs the scrape to move.
        assert federated_requests(fresh) >= federated_requests(base) + 1.0

    def test_post_close_registry_keeps_final_harvest(self):
        router = _router()
        router.request("app", ApplicationSpec(num_nodes=2),
                       cpu_fraction=0.1)
        router.close()
        # The collect hook must no-op on the closed pool rather than
        # raise or resurrect workers...
        router._harvest_shard_metrics()
        # ...and the series close() harvested stay queryable
        # (dump_state skips the live pool gauges that can no longer
        # read, but the federated worker series are plain values).
        names = {
            (item["name"], item["labels"].get("shard"))
            for item in router.registry.dump_state()
        }
        assert ("repro_service_requests_total", "0") in names


class TestOneFrontDoor:
    """A routed request is served once: the router opens its span and
    takes its SLO sample, and each shard it tries only admits.  The
    scenario fills shard 0, which is tried first for every later
    request and refuses it, while shard 1 admits them all."""

    CLAIMS = [(4, 0.6), (1, 0.6)] + [(1, 0.5)] * 6

    def _run(self, tracer=None):
        router = ShardRouter(two_campus(fast_hosts=4, slow_hosts=4),
                             shards=2, tracer=tracer)
        grants = [
            router.request(f"a{i}", ApplicationSpec(num_nodes=m),
                           cpu_fraction=cpu)
            for i, (m, cpu) in enumerate(self.CLAIMS)
        ]
        assert all(g.admitted for g in grants)
        return router

    def test_no_shard_availability_series_burns_for_a_healthy_router(self):
        router = self._run()
        try:
            per_shard = router.metrics_snapshot()["per_shard"]
            # Shard 0 refused most of what it was tried for...
            assert per_shard["0"]["rejected"] >= 6
            samples = parse_exposition(router.registry.expose_text())
        finally:
            router.close()
        assert router.slo.evaluate()["status"] == "ok"
        # ...and no {shard=} series turns a tried-first refusal into an
        # alert: only the router's own objective speaks for availability.
        burning = [
            (name, labels, value) for name, labels, value in samples
            if name in ("repro_slo_status", "repro_slo_burn_rate")
            and labels.get("objective") == "availability"
            and "shard" in labels and value > 0.0
        ]
        assert burning == []
        # A shard takes no SLO sample, so none of its SLO series is
        # federated at all.
        assert [
            (name, labels) for name, labels, _ in samples
            if name.startswith("repro_slo_") and "shard" in labels
        ] == []

    def test_one_request_span_and_one_slo_sample_per_request(self):
        tracer = Tracer()
        router = self._run(tracer)
        try:
            assert router.slo._lat_n == len(self.CLAIMS)
            assert [svc.slo._lat_n for svc in router.services] == [0, 0]
        finally:
            router.close()
        spans = tracer.spans
        by_id = {s["span"]: s for s in spans}
        requests = [s for s in spans if s["name"].endswith(".request")]
        assert [s["name"] for s in requests] == \
            ["router.request"] * len(self.CLAIMS)
        admits = [s for s in spans if s["name"] == "service.admit"]
        assert len(admits) >= len(self.CLAIMS)
        for span in admits:
            assert by_id[span["parent"]]["name"] == "router.request"


class TestHotPathOverhead:
    def test_disabled_tracer_sends_no_context(self):
        # With tracing off the pool has no tracer at all: the envelope
        # carries ctx=None and no inflight bookkeeping happens.
        router = _router(tracer=None)
        try:
            assert router.pool.tracer is None
        finally:
            router.close()

    def test_slo_section_present_in_router_snapshot(self):
        router = _router()
        try:
            router.request("app", ApplicationSpec(num_nodes=2),
                           cpu_fraction=0.1)
            snap = router.metrics_snapshot()
        finally:
            router.close()
        assert snap["slo"]["status"] in ("ok", "burning", "paging")
        assert set(snap["slo"]["objectives"]) == {
            "admit_latency", "availability", "worker_restarts",
        }


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
