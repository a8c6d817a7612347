"""Service-level counters: the operational dashboard of the selection service.

Plain integer counters updated by :class:`~repro.service.SelectionService`
as requests flow through, merged with live gauges from the snapshot cache
and the reservation ledger at :meth:`ServiceMetrics.snapshot` time.
Surfaced by ``repro-serve`` and ``benchmarks/bench_service_throughput.py``.

:class:`StageTimer` adds the profiling layer: the service wraps each
admission stage (snapshot fetch, residual view, select, claim-verify,
ledger commit) in a timer, and :meth:`ServiceMetrics.snapshot` reports
per-stage p50/p95/p99 latencies so a regression in any one stage is
visible without re-running a profiler (``repro-serve --profile``).

Both classes are kept as thin, fast adapters over plain Python numbers;
:meth:`ServiceMetrics.bind` re-exports every counter into a
:class:`repro.obs.MetricsRegistry` via callback-backed instruments and
mirrors stage timings into labelled histograms, so the unified
``repro_service_*`` metrics surface costs the hot path nothing beyond
one histogram observe per stage.

The flat JSON schema of :meth:`ServiceMetrics.snapshot` is **frozen**
(DESIGN.md "ServiceMetrics snapshot schema"); ``repro-serve --format
json`` consumers parse it.  Extending it is fine, renaming or removing
keys is a breaking change guarded by
``tests/service/test_metrics_schema.py``.
"""

from __future__ import annotations

__all__ = ["ServiceMetrics", "StageTimer"]

#: Ring-buffer size for percentile windows.  Large enough that p99 over a
#: benchmark run is meaningful, small enough that a long-lived service
#: never grows unboundedly.
_WINDOW = 4096


class StageTimer:
    """Latency accumulator for one pipeline stage.

    Keeps exact ``count``/``total_s`` over the timer's whole life plus a
    sliding window of the last :data:`_WINDOW` samples for percentiles.
    Durations are observed in seconds and reported in microseconds (the
    hot path's natural unit).
    """

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self._window: list[float] = []
        self._next = 0

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if len(self._window) < _WINDOW:
            self._window.append(seconds)
        else:
            self._window[self._next] = seconds
            self._next = (self._next + 1) % _WINDOW

    @staticmethod
    def _percentile(ordered: list[float], q: float) -> float:
        """Nearest-rank percentile over a pre-sorted sample."""
        idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[idx]

    def summary(self) -> dict:
        """``{count, mean_us, p50_us, p95_us, p99_us}`` over the window."""
        if not self.count:
            return {
                "count": 0, "mean_us": 0.0,
                "p50_us": 0.0, "p95_us": 0.0, "p99_us": 0.0,
            }
        ordered = sorted(self._window)
        return {
            "count": self.count,
            "mean_us": self.total_s / self.count * 1e6,
            "p50_us": self._percentile(ordered, 0.50) * 1e6,
            "p95_us": self._percentile(ordered, 0.95) * 1e6,
            "p99_us": self._percentile(ordered, 0.99) * 1e6,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<StageTimer n={self.count} total={self.total_s * 1e3:.3f}ms>"


#: Admission-pipeline stage names, in execution order.
STAGES = (
    "snapshot_fetch",
    "residual_view",
    "select",
    "claim_verify",
    "ledger_commit",
)


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
    # Immediately, or clamped to a grace deadline.
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


class ServiceMetrics:
    """Counters over the life of one :class:`~repro.service.SelectionService`:
    one plain ``int`` attribute per :data:`COUNTERS` row."""

    def __init__(self) -> None:
        for name in COUNTERS:
            setattr(self, name, 0)
        #: Preempted-lease counts keyed by the victim's priority class
        #: (feeds ``repro_service_preemptions_total{class=...}``; not part
        #: of the flat snapshot schema).
        self.preempted_by_class: dict = {}
        #: Per-stage latency timers (see :data:`STAGES`), populated lazily.
        self.stages: dict = {}
        #: Live gauges merged in by :meth:`snapshot`.
        self.extras: dict = {}
        # Registry mirror state; None until bind() is called.
        self._registry = None
        self._stage_histograms: dict = {}

    def bind(self, registry) -> None:
        """Re-export every counter into ``registry`` (callback-backed).

        The integer attributes stay the write path — producers keep
        bumping plain ints — and the registry reads them at collection
        time.  Stage durations additionally feed
        ``repro_service_stage_duration_seconds{stage=...}`` histograms
        from :meth:`observe_stage` onward (samples observed before
        ``bind()`` are summarized, not replayed).
        """
        self._registry = registry
        for attr, help_text in COUNTERS.items():
            registry.counter(
                f"repro_service_{attr}_total", help_text,
                fn=(lambda a=attr: float(getattr(self, a))),
            )
        for name in self.stages:
            self._stage_histograms[name] = self._stage_histogram(name)

    def _stage_histogram(self, name: str):
        return self._registry.histogram(
            "repro_service_stage_duration_seconds",
            "Admission pipeline stage latency.",
            labels={"stage": name},
        )

    def observe_stage(self, name: str, seconds: float) -> None:
        """Record one duration for pipeline stage ``name``."""
        timer = self.stages.get(name)
        if timer is None:
            timer = self.stages[name] = StageTimer()
        timer.observe(seconds)
        if self._registry is not None:
            hist = self._stage_histograms.get(name)
            if hist is None:
                hist = self._stage_histograms[name] = (
                    self._stage_histogram(name)
                )
            hist.observe(seconds)

    def stage_summaries(self) -> dict:
        """``{stage: {count, mean_us, p50_us, p95_us, p99_us}}``, in
        pipeline order (unknown stages appended alphabetically)."""
        ordered = [s for s in STAGES if s in self.stages]
        ordered += sorted(set(self.stages) - set(STAGES))
        return {name: self.stages[name].summary() for name in ordered}

    def snapshot(self, cache=None, ledger=None, queue=None,
                 slo=None) -> dict:
        """All counters plus live cache/ledger/queue gauges, one flat dict
        (stage-timer histograms nested under ``"stages"``; an SLO
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
            out["snapshot_sweeps"] = cache.sweeps
        if ledger is not None:
            out.update(ledger.utilization())
        out.update(self.extras)
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
