"""Service-level metrics: the operational dashboard of the selection service.

Every number has one store, which the registry and the flat snapshot
both read: counters are plain ``int`` attributes (:data:`COUNTERS`),
stage timings live in the registry histogram
``repro_service_stage_duration_seconds{stage=...}`` (summarised by
:func:`stage_summary`, ``repro-serve --profile``), and a live value
shown in both places is one :meth:`ServiceMetrics.gauge` reader.

Surfaced by ``repro-serve`` and ``benchmarks/bench_service_throughput.py``.
The flat JSON schema of :meth:`ServiceMetrics.snapshot` is **frozen**
(DESIGN.md "ServiceMetrics snapshot schema"); ``repro-serve --format
json`` consumers parse it.  Extending it is fine, renaming or removing
keys is a breaking change guarded by
``tests/service/test_metrics_schema.py``.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..obs.metrics import Histogram, MetricsRegistry

__all__ = ["ServiceMetrics", "stage_summary"]

#: Admission-pipeline stage names, in execution order.
STAGES = (
    "snapshot_fetch",
    "residual_view",
    "select",
    "claim_verify",
    "ledger_commit",
)

#: The registry family every stage duration is observed into.
STAGE_METRIC = "repro_service_stage_duration_seconds"


#: Every integer counter, ``name -> help``, in the frozen snapshot
#: order.  One row is the whole declaration: the attribute (zeroed in
#: ``__init__``), the ``repro_service_<name>_total`` registry export
#: and the snapshot key all come from it.
COUNTERS = {
    "requests": "Selection requests received.",
    "admitted": "Requests granted a reservation.",
    "queued": "Requests parked in the admission queue.",
    "rejected": "Requests rejected outright.",
    "released": "Leases released by their holder.",
    "renewed": "Lease renewals.",
    "expired": "Leases reclaimed after missed renewals.",
    "evicted": "Leases reclaimed because a reserved node crashed.",
    "preempted": "Leases preempted for gold admissions.",
    "admitted_from_queue": "Queued requests admitted later.",
    "queue_displaced": "Queued requests displaced by priority.",
    # No capacity was returned since the request's last failed attempt.
    "drain_skipped": "Queue drains skipped by the epoch gate.",
    "view_rebuilds": "Residual-view rebuilds.",
    "select_memo_hits": "Admissions answered from the selection memo.",
    # A subset of select_memo_hits.
    "select_memo_negative_hits": (
        "Selection-memo hits on memoized infeasibility."
    ),
    # The routed_*/trunk_* rows stay 0 on an unsharded service.
    "routed_local": "Requests admitted wholly inside one shard.",
    "routed_cross": "Requests admitted across shards via the trunk.",
    "trunk_rejections": "Cross-shard requests refused for trunk capacity.",
    "batches": "admit_batch calls (arrival batches admitted).",
    "batch_requests": "Requests that arrived inside a batch.",
    "batch_planned": "Batch requests placed by the greedy batch planner.",
    "batch_fallbacks": "Batch requests that fell back to serial admission.",
    "push_events": "Collector staleness push events received.",
    "migrations": "Leases proactively migrated off degrading nodes.",
}


def stage_summary(hist: Histogram) -> dict:
    """``{count, mean_us, p50_us, p95_us, p99_us}`` of one stage's
    histogram: count and mean over its life, nearest-rank percentiles
    (rank ``round(q·(n−1))``) over its window; 0.0 where the window is
    empty (a federated histogram)."""
    count = hist.count
    ordered = sorted(hist.window) or [0.0]
    top = len(ordered) - 1
    return {
        "count": count,
        "mean_us": hist.sum / count * 1e6 if count else 0.0,
        "p50_us": ordered[round(0.50 * top)] * 1e6,
        "p95_us": ordered[round(0.95 * top)] * 1e6,
        "p99_us": ordered[round(0.99 * top)] * 1e6,
    }


class ServiceMetrics:
    """Counters, stage histograms and declared gauges of one service (or
    router), exported into ``registry`` — a private one when omitted."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        for name, help_text in COUNTERS.items():
            setattr(self, name, 0)
            self.registry.counter(
                f"repro_service_{name}_total", help_text,
                fn=(lambda a=name: float(getattr(self, a))),
            )
        #: Preempted-lease counts keyed by the victim's priority class
        #: (feeds ``repro_service_preemptions_total{class=...}``; not part
        #: of the flat snapshot schema).
        self.preempted_by_class: dict = {}
        #: Stage name -> its registry histogram, from its first observation.
        self.stages: dict[str, Histogram] = {}
        #: Snapshot key -> reader (:meth:`gauge`), in declaration order.
        self._gauges: dict[str, Callable[[], float]] = {}

    def gauge(self, key: str, name: str, help_text: str,
              reader: Callable[[], float]) -> None:
        """Declare one live value: snapshot key ``key`` shows ``reader()``
        (ints stay ints in JSON), registry instrument ``name`` exports
        ``float(reader())`` — a counter if ``name`` ends in ``_total``."""
        self._gauges[key] = reader
        fn = lambda: float(reader())
        if name.endswith("_total"):
            self.registry.counter(name, help_text, fn=fn)
        else:
            self.registry.gauge(name, help_text, fn=fn)

    def observe_stage(self, name: str, seconds: float) -> None:
        """Record one duration for pipeline stage ``name``."""
        hist = self.stages.get(name)
        if hist is None:
            hist = self.stages[name] = self.registry.histogram(
                STAGE_METRIC, "Admission pipeline stage latency.",
                labels={"stage": name},
            )
        hist.observe(seconds)

    def stage_summaries(self) -> dict:
        """``{stage: {count, mean_us, p50_us, p95_us, p99_us}}``, in
        pipeline order (unknown stages appended alphabetically)."""
        ordered = [s for s in STAGES if s in self.stages]
        ordered += sorted(set(self.stages) - set(STAGES))
        return {name: stage_summary(self.stages[name]) for name in ordered}

    def snapshot(self, cache=None, ledger=None, queue=None,
                 slo=None) -> dict:
        """All counters plus live cache/ledger/queue and declared gauges,
        one flat dict (stage summaries nested under ``"stages"``; an SLO
        evaluation — :meth:`repro.obs.slo.SloMonitor.evaluate` — nests
        under ``"slo"`` when the caller passes one)."""
        out = {name: getattr(self, name) for name in COUNTERS}
        if queue is not None:
            out["queue_depth"] = len(queue)
        if cache is not None:
            out["cache_hits"] = cache.hits
            out["cache_misses"] = cache.misses
            out["cache_coalesced"] = cache.coalesced
            out["cache_invalidations"] = cache.invalidations
            out["snapshot_sweeps"] = cache.misses
        if ledger is not None:
            out.update(ledger.utilization())
        for key, reader in self._gauges.items():
            out[key] = reader()
        if slo is not None:
            out["slo"] = slo
        if self.stages:
            out["stages"] = self.stage_summaries()
        return out

    def format(self, cache=None, ledger=None, queue=None,
               include_stages: bool = False) -> str:
        """Human-readable block (``repro-serve`` text output).

        ``include_stages`` appends the per-stage latency table
        (``repro-serve --profile``).
        """
        snap = self.snapshot(cache=cache, ledger=ledger, queue=queue)
        snap.pop("stages", None)
        width = max(len(k) for k in snap)
        lines = []
        for key, value in snap.items():
            if isinstance(value, float):
                lines.append(f"{key:<{width}} : {value:.3f}")
            else:
                lines.append(f"{key:<{width}} : {value}")
        if include_stages and self.stages:
            lines.append("")
            lines.append("stage latencies (us)")
            header = (
                f"{'stage':<16} {'count':>8} {'mean':>10} "
                f"{'p50':>10} {'p95':>10} {'p99':>10}"
            )
            lines.append(header)
            for name, s in self.stage_summaries().items():
                lines.append(
                    f"{name:<16} {s['count']:>8} {s['mean_us']:>10.1f} "
                    f"{s['p50_us']:>10.1f} {s['p95_us']:>10.1f} "
                    f"{s['p99_us']:>10.1f}"
                )
        return "\n".join(lines)
