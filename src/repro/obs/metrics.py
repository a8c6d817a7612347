"""A unified metrics registry with Prometheus text exposition.

One :class:`MetricsRegistry` spans every subsystem wired to a selection
pipeline — collector, Remos API, kernel caches, reservation ledger,
admission queue, and the service's own counters — so a single scrape
(``registry.expose_text()``, served by ``repro-serve --metrics-port``)
answers "what is this deployment doing" without reaching into each
layer's private counters.

Three instrument kinds, following Prometheus semantics:

- :class:`Counter` — monotonically non-decreasing totals;
- :class:`Gauge` — point-in-time values that go both ways;
- :class:`Histogram` — observations bucketed under explicit bounds, with
  cumulative ``_bucket{le=...}`` counts plus ``_sum``/``_count``.

Counters and gauges may be **callback-backed** (``fn=...``): the value is
read at collection time from an existing counter attribute, which is how
the pre-existing telemetry (:class:`~repro.service.ServiceMetrics`,
cache/ledger counters) is absorbed without rewriting its producers —
they stay plain fast integer attributes and the registry re-exports
them.

Instrument names follow ``repro_<subsystem>_<name>_<unit>`` (DESIGN.md
§12); :func:`repro.obs.promtext.validate` checks the exposition format
itself.  This module is dependency-free (stdlib only).
"""

from __future__ import annotations

import logging
import re
import threading
from bisect import bisect_left
from typing import Callable, Iterable, Optional

__all__ = [
    "Counter",
    "DURATION_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsFederation",
    "MetricsRegistry",
    "REGISTRY",
]

logger = logging.getLogger("repro.obs.metrics")

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram bounds for pipeline-stage durations, in seconds:
#: 10 µs up to 1 s, roughly logarithmic — the service's warm-cache
#: stages sit in the 1–500 µs decades.
DURATION_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 1.0,
)

#: Observations a :class:`Histogram` keeps verbatim (a lazily grown ring).
_WINDOW = 4096


def _fmt_value(v: float) -> str:
    """A sample value in Prometheus text form (``+Inf``/``-Inf``/``NaN``)."""
    if v != v:
        return "NaN"
    if v == float("inf"):
        return "+Inf"
    if v == float("-inf"):
        return "-Inf"
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


class _Instrument:
    """Common state: identity, static labels, optional value callback."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: Optional[dict] = None,
        fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.name = name
        self.help = help_text
        self.labels = dict(labels or {})
        self._fn = fn
        self._value = 0.0

    def read(self) -> float:
        return self._fn() if self._fn is not None else self._value


class Counter(_Instrument):
    """A monotonically non-decreasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise TypeError(
                f"counter {self.name!r} is callback-backed; "
                "update the underlying counter instead"
            )
        if amount < 0:
            raise ValueError(f"counters only go up (got {amount})")
        self._value += amount


class Gauge(_Instrument):
    """A point-in-time value (queue depth, headroom, epoch)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise TypeError(f"gauge {self.name!r} is callback-backed")
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._fn is not None:
            raise TypeError(f"gauge {self.name!r} is callback-backed")
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram(_Instrument):
    """Observations under explicit bucket bounds (plus ``+Inf``), and the
    last :data:`_WINDOW` of them in :attr:`window` (ring order) for exact
    percentiles; ``dump_state()`` does not ship the window."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Iterable[float] = DURATION_BUCKETS,
        labels: Optional[dict] = None,
    ) -> None:
        super().__init__(name, help_text, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate bucket bounds: {bounds}")
        self.buckets = bounds
        # One slot per finite bound plus the +Inf overflow slot.
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0
        self.window: list[float] = []
        self._next = 0

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.buckets, value)] += 1
        self._sum += value
        self._count += 1
        if len(self.window) < _WINDOW:
            self.window.append(value)
        else:
            self.window[self._next] = value
            self._next = (self._next + 1) % _WINDOW

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def cumulative(self) -> list[tuple[float, int]]:
        """``(le, cumulative count)`` per bucket, ending at ``+Inf``."""
        out = []
        running = 0
        for bound, c in zip(self.buckets, self._counts):
            running += c
            out.append((bound, running))
        out.append((float("inf"), running + self._counts[-1]))
        return out


class MetricsRegistry:
    """Get-or-create instrument store with Prometheus text exposition.

    Instruments are keyed by ``(name, sorted label items)``; re-requesting
    an existing instrument returns it (so independent subsystems can share
    a family), but re-requesting under a different *kind* is an error —
    one name, one type, exactly as the exposition format demands.
    Passing ``fn`` to an existing callback instrument rebinds the
    callback (a service rebuilding its residual view re-points the kernel
    gauges at the new view).
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple, _Instrument] = {}
        self._families: dict[str, tuple[str, str]] = {}  # name -> kind, help
        self._lock = threading.Lock()
        #: Callables invoked at the top of every scrape (see
        #: :meth:`add_collect_hook`).
        self._collect_hooks: list[Callable[[], None]] = []

    # -- collection hooks --------------------------------------------------------
    def add_collect_hook(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` at the start of every :meth:`expose_text` /
        :meth:`dump` scrape, *before* the registry lock is taken.

        The federation hook: a router registers a harvest here so worker
        registries are pulled and merged on every scrape — metrics stay
        fresh without a polling thread, and the hook is free to create or
        update instruments (it runs outside the lock).  Hook failures are
        logged and swallowed; a dead worker must not break the scrape.
        """
        self._collect_hooks.append(fn)

    def _run_collect_hooks(self) -> None:
        for fn in list(self._collect_hooks):
            try:
                fn()
            except Exception:  # scrape must survive a harvest failure
                logger.exception("metrics collect hook failed")

    # -- creation ----------------------------------------------------------------
    def _check(self, name: str, kind: str, help_text: str,
               labels: Optional[dict]) -> tuple:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for key in (labels or {}):
            if not _LABEL_RE.match(key) or key.startswith("__"):
                raise ValueError(f"invalid label name {key!r}")
        family = self._families.get(name)
        if family is not None and family[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family[0]}, "
                f"cannot re-register as {kind}"
            )
        if family is None:
            self._families[name] = (kind, help_text)
        return (name, tuple(sorted((labels or {}).items())))

    def counter(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[dict] = None,
        fn: Optional[Callable[[], float]] = None,
    ) -> Counter:
        with self._lock:
            key = self._check(name, "counter", help_text, labels)
            inst = self._instruments.get(key)
            if inst is None:
                inst = Counter(name, help_text, labels, fn)
                self._instruments[key] = inst
            elif fn is not None:
                inst._fn = fn
            return inst  # type: ignore[return-value]

    def gauge(
        self,
        name: str,
        help_text: str = "",
        labels: Optional[dict] = None,
        fn: Optional[Callable[[], float]] = None,
    ) -> Gauge:
        with self._lock:
            key = self._check(name, "gauge", help_text, labels)
            inst = self._instruments.get(key)
            if inst is None:
                inst = Gauge(name, help_text, labels, fn)
                self._instruments[key] = inst
            elif fn is not None:
                inst._fn = fn
            return inst  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = DURATION_BUCKETS,
        labels: Optional[dict] = None,
    ) -> Histogram:
        with self._lock:
            key = self._check(name, "histogram", help_text, labels)
            inst = self._instruments.get(key)
            if inst is None:
                inst = Histogram(name, help_text, buckets, labels)
                self._instruments[key] = inst
            return inst  # type: ignore[return-value]

    # -- introspection -----------------------------------------------------------
    def names(self) -> list[str]:
        """Registered family names, sorted."""
        return sorted(self._families)

    def subsystems(self) -> set[str]:
        """Distinct ``<subsystem>`` segments of ``repro_<subsystem>_...``
        names — the coverage check the acceptance tests use."""
        out = set()
        for name in self._families:
            parts = name.split("_")
            if len(parts) >= 2 and parts[0] == "repro":
                out.add(parts[1])
        return out

    def dump(self) -> dict[str, float]:
        """Flat ``{name{labels}: value}`` snapshot (histograms summarized
        as ``_sum``/``_count``)."""
        self._run_collect_hooks()
        out: dict[str, float] = {}
        for inst in self._instruments.values():
            label_part = _format_labels(inst.labels)
            if isinstance(inst, Histogram):
                out[f"{inst.name}_sum{label_part}"] = inst.sum
                out[f"{inst.name}_count{label_part}"] = inst.count
            else:
                out[f"{inst.name}{label_part}"] = inst.read()
        return out

    def dump_state(self) -> list[dict]:
        """The registry's full state as picklable/JSON-safe dicts.

        One entry per instrument: ``{name, kind, help, labels, value}``
        for counters and gauges (callback-backed instruments are read
        now), plus ``{buckets, counts, sum, count}`` for histograms.
        This is the *producer* side of metrics federation — a worker
        process dumps its registry here and ships it over the pool pipe;
        the router's :class:`MetricsFederation` ingests it under a
        ``shard`` label.  Collect hooks do **not** run (the dump is
        itself what a hook harvests).
        """
        with self._lock:
            instruments = list(self._instruments.values())
            families = dict(self._families)
        out: list[dict] = []
        for inst in instruments:
            kind, help_text = families[inst.name]
            item: dict = {
                "name": inst.name,
                "kind": kind,
                "help": help_text,
                "labels": dict(inst.labels),
            }
            if isinstance(inst, Histogram):
                item["buckets"] = list(inst.buckets)
                item["counts"] = list(inst._counts)
                item["sum"] = inst._sum
                item["count"] = inst._count
            else:
                try:
                    item["value"] = float(inst.read())
                except Exception:  # a callback over torn-down state
                    continue
            out.append(item)
        return out

    # -- exposition --------------------------------------------------------------
    def expose_text(self) -> str:
        """The registry in Prometheus text exposition format (v0.0.4)."""
        self._run_collect_hooks()
        by_family: dict[str, list[_Instrument]] = {}
        with self._lock:
            instruments = list(self._instruments.values())
            families = dict(self._families)
        for inst in instruments:
            by_family.setdefault(inst.name, []).append(inst)
        lines: list[str] = []
        for name in sorted(by_family):
            kind, help_text = families[name]
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for inst in by_family[name]:
                if isinstance(inst, Histogram):
                    for le, cum in inst.cumulative():
                        labels = dict(inst.labels)
                        labels["le"] = _fmt_value(le)
                        lines.append(
                            f"{name}_bucket{_format_labels(labels)} {cum}"
                        )
                    label_part = _format_labels(inst.labels)
                    lines.append(
                        f"{name}_sum{label_part} {_fmt_value(inst.sum)}"
                    )
                    lines.append(f"{name}_count{label_part} {inst.count}")
                else:
                    lines.append(
                        f"{name}{_format_labels(inst.labels)} "
                        f"{_fmt_value(inst.read())}"
                    )
        return "\n".join(lines) + "\n" if lines else ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MetricsRegistry {len(self._instruments)} instruments, "
            f"{len(self._families)} families>"
        )


class MetricsFederation:
    """Merge remote registry dumps into one registry under an added label.

    The consumer side of cross-process metrics federation: each call to
    :meth:`ingest` takes a source id (e.g. a shard number) and a
    :meth:`MetricsRegistry.dump_state` payload, and materializes every
    instrument in the target registry with ``{label: source}`` appended
    to its labels — so a scrape of the router registry carries
    ``repro_service_requests_total{shard="3"}`` next to the router's own
    unlabeled series.

    **Monotonicity across restarts**: a restarted worker's counters
    restart from their recovered (usually zero) values.  The federation
    keeps a per-series baseline — when an ingested counter (or histogram
    count) goes *backwards*, the previous raw value is folded into a
    standing offset, so the exported series never decreases.  This is
    the PR 5 harvest invariant (``_view_totals``) extended across the
    process boundary.  Gauges are point-in-time and overwrite.
    """

    def __init__(self, registry: MetricsRegistry, label: str = "shard"
                 ) -> None:
        self.registry = registry
        self.label = label
        self._baselines: dict[tuple, dict] = {}

    def ingest(self, source, state: list[dict]) -> None:
        """Merge one source's ``dump_state()`` payload (see above)."""
        for item in state:
            labels = dict(item.get("labels") or {})
            labels[self.label] = str(source)
            name = item["name"]
            kind = item["kind"]
            key = (name, tuple(sorted(labels.items())))
            try:
                if kind == "histogram":
                    self._ingest_histogram(key, name, item, labels)
                elif kind == "counter":
                    self._ingest_counter(key, name, item, labels)
                else:
                    inst = self.registry.gauge(
                        name, item.get("help", ""), labels=labels
                    )
                    inst._fn = None
                    inst._value = float(item["value"])
            except ValueError:
                # Kind conflict with a locally-registered family; skip
                # the series rather than poisoning the scrape.
                logger.warning(
                    "federation skipped %s{%s=%s}: kind conflict",
                    name, self.label, source,
                )

    def read(self, source, name: str) -> float:
        """The merged value of ``source``'s unlabeled counter or gauge
        ``name`` as of the last :meth:`ingest` (0.0 before the first)."""
        key = (name, ((self.label, str(source)),))
        inst = self.registry._instruments.get(key)
        return inst.read() if inst is not None else 0.0

    def _ingest_counter(self, key: tuple, name: str, item: dict,
                        labels: dict) -> None:
        inst = self.registry.counter(
            name, item.get("help", ""), labels=labels
        )
        base = self._baselines.setdefault(key, {"offset": 0.0, "last": 0.0})
        raw = float(item["value"])
        if raw < base["last"]:  # source restarted: fold in the old total
            base["offset"] += base["last"]
        base["last"] = raw
        inst._fn = None
        inst._value = base["offset"] + raw

    def _ingest_histogram(self, key: tuple, name: str, item: dict,
                          labels: dict) -> None:
        inst = self.registry.histogram(
            name, item.get("help", ""),
            buckets=item["buckets"], labels=labels,
        )
        counts = list(item["counts"])
        if len(counts) != len(inst._counts):  # bucket layout drifted
            return
        base = self._baselines.setdefault(key, {
            "counts": [0] * len(counts), "sum": 0.0, "count": 0,
            "last_counts": [0] * len(counts), "last_sum": 0.0,
            "last_count": 0,
        })
        if item["count"] < base["last_count"]:  # source restarted
            base["counts"] = [
                b + lc for b, lc in zip(base["counts"], base["last_counts"])
            ]
            base["sum"] += base["last_sum"]
            base["count"] += base["last_count"]
        base["last_counts"] = counts
        base["last_sum"] = float(item["sum"])
        base["last_count"] = int(item["count"])
        inst._counts = [b + c for b, c in zip(base["counts"], counts)]
        inst._sum = base["sum"] + float(item["sum"])
        inst._count = base["count"] + int(item["count"])


#: A process-wide default registry for callers that want one shared
#: surface.  Components never register here implicitly — each
#: :class:`~repro.service.SelectionService` builds its own registry by
#: default (callback instruments are bound to one live instance, and
#: get-or-create semantics would cross-wire two services) — but embedders
#: can pass ``registry=REGISTRY`` everywhere to get a single scrape.
REGISTRY = MetricsRegistry()
