"""Request tracing: span trees over the selection pipeline.

A :class:`Tracer` produces per-request **trace trees**: each span carries
a trace id, a span id, its parent span id, a monotonic start offset and
duration, structured attributes, and an ok/error status.  Context
propagates through a plain span stack — ``with tracer.span(...)`` nests
under whatever span is currently open — so one service request becomes
one tree: admission under the request, the pipeline stages under
admission, and any collector sweep or fault event that fired in between
attached where it actually happened.

Two properties keep the tracer viable on the admission hot path:

- **Pre-measured spans** (:meth:`Tracer.record`): the service already
  brackets every pipeline stage with ``perf_counter()`` for its stage
  timers, so stage spans are built from those existing timestamps
  instead of re-entering a context manager per stage.
- **A null tracer** (:data:`NULL_TRACER`): tracing is off by default,
  and the disabled path is a singleton whose ``span()`` returns a shared
  no-op span — no allocation, no id bookkeeping, no buffering.  The
  hot-path budget is disabled overhead under 5% and enabled overhead
  under 15% (DESIGN.md §12 says where it is measured).

Spans serialize to JSONL (one JSON object per line, see
:meth:`Tracer.write_jsonl`); the ``repro-trace`` CLI
(:mod:`repro.obs.tracecli`) pretty-prints and filters the result.  This
module is dependency-free — nothing here imports the rest of the
package, so any layer (collector, faults, service) can emit spans.

**Cross-process propagation** (DESIGN.md §17): a caller ships
:meth:`Tracer.context` — ``(trace id, parent span id)`` — inside its RPC
envelope; the remote side records spans into its own buffered tracer and
returns the finished dicts (:meth:`Tracer.drain`, or a per-call slice of
:attr:`Tracer.spans`).  The caller stitches them into its tree with
:meth:`Tracer.adopt`, which re-allocates span ids from the local
sequence, re-parents the batch's roots under the propagated context, and
stamps attribution attributes (``shard=``, ``pid=``) on every adopted
span — so one request becomes one tree even when its stages ran in
worker processes.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Any, Callable, Optional

__all__ = ["NULL_TRACER", "NullTracer", "Span", "Tracer"]


class Span:
    """One timed operation in a trace tree.

    Use as a context manager (``with tracer.span("service.request")``);
    entering starts the clock and pushes the span onto the tracer's
    context stack, exiting records the duration, marks ``status="error"``
    if an exception escaped, and hands the finished span to the tracer.
    """

    __slots__ = (
        "_tracer", "name", "trace_id", "span_id", "parent_id",
        "start_s", "duration_s", "status", "attrs", "events",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = 0
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.start_s = 0.0
        self.duration_s = 0.0
        self.status = "ok"
        self.attrs = attrs
        self.events: list[dict] = []

    def set(self, **attrs: Any) -> None:
        """Attach structured attributes to the span."""
        self.attrs.update(attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a point-in-time event (e.g. a fault landing mid-span)."""
        self.events.append({
            "name": name,
            "at_s": self._tracer._now(),
            "attrs": attrs,
        })

    def __enter__(self) -> "Span":
        self._tracer._open(self)
        self.start_s = self._tracer._now()
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        self.duration_s = self._tracer._now() - self.start_s
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}")
        self._tracer._finish(self)
        return False

    def to_dict(self) -> dict:
        """JSONL-line form of the finished span (times in microseconds)."""
        out = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_us": round(self.start_s * 1e6, 1),
            "duration_us": round(self.duration_s * 1e6, 1),
            "status": self.status,
            "attrs": self.attrs,
        }
        if self.events:
            out["events"] = [
                {
                    "name": e["name"],
                    "at_us": round(e["at_s"] * 1e6, 1),
                    "attrs": e["attrs"],
                }
                for e in self.events
            ]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Span {self.name!r} trace={self.trace_id} span={self.span_id} "
            f"{self.duration_s * 1e6:.1f}us {self.status}>"
        )


class Tracer:
    """Collects spans into per-request trace trees.

    Parameters
    ----------
    sink:
        Optional callable invoked with each finished span's dict (for
        streaming export).  Finished spans are always buffered on
        :attr:`spans` as well, in completion order (children before
        parents — consumers rebuild the tree from parent ids).
    clock:
        Optional *logical* time source (e.g. a simulator's ``now``);
        when set, every span and event is stamped with a ``t`` attribute
        at creation.  Span durations always come from
        :func:`time.perf_counter` — they measure real compute cost, not
        simulated time.
    """

    enabled = True

    def __init__(
        self,
        sink: Optional[Callable[[dict], None]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._sink = sink
        self.clock = clock
        self._epoch = perf_counter()
        self._next_span = 1
        self._next_trace = 1
        self._stack: list[Span] = []
        #: Finished spans (dicts), completion order.
        self.spans: list[dict] = []

    # -- internals -------------------------------------------------------------
    def _now(self) -> float:
        """Monotonic seconds since tracer construction."""
        return perf_counter() - self._epoch

    def _open(self, span: Span) -> None:
        span.span_id = self._next_span
        self._next_span += 1
        if self._stack:
            parent = self._stack[-1]
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        else:
            span.trace_id = self._next_trace
            self._next_trace += 1
        if self.clock is not None:
            span.attrs.setdefault("t", self.clock())
        self._stack.append(span)

    def _finish(self, span: Span) -> None:
        # Tolerate exotic exit orders (generators finalized late): drop
        # everything above the finishing span, not just the top.
        if span in self._stack:
            del self._stack[self._stack.index(span):]
        record = span.to_dict()
        self.spans.append(record)
        if self._sink is not None:
            self._sink(record)

    # -- public surface ---------------------------------------------------------
    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def context(self) -> Optional[tuple[int, int]]:
        """``(trace id, span id)`` of the innermost open span, or ``None``.

        The propagation handle a caller ships inside an RPC envelope; the
        matching :meth:`adopt` on the reply re-parents the remote spans
        under exactly this context.
        """
        if not self._stack:
            return None
        top = self._stack[-1]
        return (top.trace_id, top.span_id)

    def drain(self) -> list[dict]:
        """Take (and clear) the finished-span buffer.

        Used by remote-side tracers: spans recorded since the last drain
        travel back inside the reply envelope and are :meth:`adopt`-ed by
        the caller.  The context stack is untouched — open spans finish
        into the fresh buffer.
        """
        out, self.spans = self.spans, []
        return out

    def adopt(
        self,
        spans: list[dict],
        *,
        parent: Optional[tuple[int, int]] = None,
        base_s: Optional[float] = None,
        **attrs: Any,
    ) -> None:
        """Stitch a batch of remote span dicts into this tracer's stream.

        Every span gets a fresh span id from the local sequence (remote
        ids are only unique within their own tracer).  Parent links
        *inside* the batch are remapped; batch roots re-parent under
        ``parent`` — the ``(trace id, span id)`` context shipped with the
        original request — or become fresh root traces when no context
        was propagated (one fresh trace id per remote trace).  ``base_s``
        rebases the batch's earliest start onto this tracer's timeline
        (remote ``perf_counter`` epochs are not comparable across
        processes; durations are exact either way).  ``attrs`` — e.g.
        ``shard=`` / ``pid=`` — are stamped on every adopted span.
        """
        if not spans:
            return
        mapping: dict[int, int] = {}
        for s in spans:
            mapping[s["span"]] = self._next_span
            self._next_span += 1
        shift_us = 0.0
        if base_s is not None:
            shift_us = base_s * 1e6 - min(
                s.get("start_us", 0.0) for s in spans
            )
        trace_map: dict[int, int] = {}
        for s in spans:
            ns = dict(s)
            ns["span"] = mapping[s["span"]]
            old_parent = s.get("parent")
            in_batch = old_parent in mapping
            if parent is not None:
                ns["trace"] = parent[0]
                ns["parent"] = mapping[old_parent] if in_batch else parent[1]
            else:
                old_trace = s.get("trace", 0)
                if old_trace not in trace_map:
                    trace_map[old_trace] = self._next_trace
                    self._next_trace += 1
                ns["trace"] = trace_map[old_trace]
                ns["parent"] = mapping[old_parent] if in_batch else None
            if shift_us:
                ns["start_us"] = round(
                    s.get("start_us", 0.0) + shift_us, 1
                )
                if "events" in s:
                    ns["events"] = [
                        {**e, "at_us": round(
                            e.get("at_us", 0.0) + shift_us, 1
                        )}
                        for e in s["events"]
                    ]
            if attrs:
                merged = dict(ns.get("attrs") or {})
                merged.update(attrs)
                ns["attrs"] = merged
            self.spans.append(ns)
            if self._sink is not None:
                self._sink(ns)

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span; enter it (``with``) to start the clock and nest."""
        return Span(self, name, attrs)

    def record(
        self, name: str, start: float, end: float, **attrs: Any
    ) -> None:
        """Log an already-measured operation as a child of the current span.

        ``start``/``end`` are raw :func:`time.perf_counter` readings — the
        hot path brackets its stages once and reuses the timestamps here
        rather than paying a context manager per stage.
        """
        span = Span(self, name, attrs)
        span.span_id = self._next_span
        self._next_span += 1
        if self._stack:
            parent = self._stack[-1]
            span.trace_id = parent.trace_id
            span.parent_id = parent.span_id
        else:
            span.trace_id = self._next_trace
            self._next_trace += 1
        span.start_s = start - self._epoch
        span.duration_s = end - start
        self._finish(span)

    def event(self, name: str, **attrs: Any) -> None:
        """A point-in-time occurrence (fault landing, eviction, ...).

        Attached to the innermost open span when one exists — a fault
        that races an in-flight request shows up *inside* that request's
        tree — and logged as a zero-duration root span otherwise.
        """
        if self._stack:
            self._stack[-1].event(name, **attrs)
            return
        span = Span(self, name, attrs)
        span.span_id = self._next_span
        self._next_span += 1
        span.trace_id = self._next_trace
        self._next_trace += 1
        if self.clock is not None:
            span.attrs.setdefault("t", self.clock())
        span.start_s = self._now()
        self._finish(span)

    def to_jsonl(self) -> str:
        """All finished spans as JSONL text (completion order)."""
        return "".join(
            json.dumps(s, default=str) + "\n" for s in self.spans
        )

    def write_jsonl(self, path: str) -> int:
        """Write the span buffer to ``path``; returns the span count."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Tracer {len(self.spans)} spans, depth={len(self._stack)}>"


class _NullSpan:
    """The shared no-op span the null tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False

    def set(self, **_attrs: Any) -> None:
        pass

    def event(self, _name: str, **_attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every operation is a no-op.

    The default tracer everywhere.  ``span()`` returns one shared no-op
    span (no allocation), so instrumented code never branches on "is
    tracing on" beyond an attribute check — the disabled cost per
    request is a handful of method calls.
    """

    enabled = False
    spans: tuple = ()
    clock = None

    def span(self, _name: str, **_attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def record(self, _name: str, _start: float, _end: float,
               **_attrs: Any) -> None:
        pass

    def event(self, _name: str, **_attrs: Any) -> None:
        pass

    @property
    def current(self) -> None:
        return None

    def context(self) -> None:
        return None

    def drain(self) -> list:
        return []

    def adopt(self, _spans: list, **_kw: Any) -> None:
        pass

    def to_jsonl(self) -> str:
        return ""

    def write_jsonl(self, _path: str) -> int:
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<NullTracer>"


#: The process-wide disabled tracer; instrumented components default to it.
NULL_TRACER = NullTracer()
