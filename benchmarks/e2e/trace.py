"""Spans recorded by the benchmark around each layer's entry points.

The benchmark defines its own tracing instead of reading the program's
``repro.obs`` spans: wrappers are installed on *instances* (an
attribute in the object's ``__dict__`` shadowing the class's method),
so nothing under ``src/`` changes, the untraced run executes exactly
the shipped code, and :meth:`SpanRecorder.uninstall` restores every
object by deleting the attribute again.

A span is ``[layer, entry, start, end, parent, op]``: ``parent`` is the
index of the enclosing span (-1 for an op's root), ``op`` the workload
op it belongs to.  Spans stay in memory; :meth:`SpanRecorder.write_jsonl`
dumps them when the run ends.  A layer's **self time** is its spans'
duration minus the part their direct children cover.

Layer names are the module names under ``repro`` (``service.ledger``
is ``repro/service/ledger.py``); ``harness`` is the benchmark's own op
body, whose self time is the unattributed remainder.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from time import perf_counter
from typing import Callable, Optional

#: Layer of the root span around each workload op.
HARNESS = "harness"

LAYERS = (
    "remos.collector", "remos.api", "service.cache",
    "service.residual_view", "core.selector", "service.ledger",
    "service.wal", "service.service", "sharding.router",
    "sharding.trunk", "sharding.workers",
)


class SpanRecorder:
    def __init__(self) -> None:
        #: ``[layer, entry, start, end, parent, op]`` in start order.
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Spans are recorded only while ``on`` (the timed phase).
        self.on = False
        #: The workload op now running (set by the harness).
        self.op = -1
        #: Exact event tallies kept by ``before=`` hooks.
        self.counts: Counter = Counter()
        self._installed: list[tuple[object, str]] = []

    def wrap(
        self,
        obj: object,
        attr: str,
        layer: str,
        *,
        before: Optional[Callable[[tuple, dict], None]] = None,
        after: Optional[Callable[[], None]] = None,
        transient: bool = False,
    ) -> None:
        """Shadow ``obj.attr`` with a span-recording wrapper.

        ``before(args, kwargs)`` and ``after()`` run outside the span,
        whether or not recording is on.  ``transient`` objects (ones the
        program discards on its own, like residual views) are not kept
        for :meth:`uninstall`.
        """
        if attr in vars(obj):
            raise ValueError(f"{attr!r} is already shadowed on {obj!r}")
        fn = getattr(obj, attr)
        rec, spans, stack = self, self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if not rec.on:
                try:
                    return fn(*args, **kwargs)
                finally:
                    if after is not None:
                        after()
            span = [layer, attr, 0.0, 0.0, stack[-1] if stack else -1, rec.op]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
                if after is not None:
                    after()

        setattr(obj, attr, wrapper)
        if not transient:
            self._installed.append((obj, attr))

    def uninstall(self) -> None:
        """Delete every shadowing attribute; objects are as before."""
        for obj, attr in self._installed:
            vars(obj).pop(attr, None)
        self._installed.clear()

    def write_jsonl(self, path: str, workload: str) -> None:
        """Append this run's spans to ``path``, one JSON object a line."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, (layer, entry, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "workload": workload, "id": i,
                    "name": f"{layer}:{entry}", "start": t0, "end": t1,
                    "parent": parent, "op": op,
                }) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time: duration minus direct children's durations."""
    out = [s[3] - s[2] for s in spans]
    for _layer, _entry, t0, t1, parent, _op in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out


def layer_self_seconds(
    spans: list[list], weight: Callable[[int], float] = lambda op: 1.0
) -> dict[str, float]:
    """Self time summed per layer, each span scaled by ``weight(op)``
    (the harness passes the calibration factor of the op's slice)."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own * weight(span[5])
    return totals


# -- what gets wrapped ---------------------------------------------------------

def install_service(rec: SpanRecorder, svc) -> None:
    """Wrap one ``SelectionService`` and the layers under it."""
    for name in ("request", "release", "renew", "tick", "admit_batch",
                 "probe"):
        rec.wrap(svc, name, "service.service")
    rec.wrap(svc.cache, "topology", "service.cache")
    rec.wrap(svc.selector, "select", "core.selector")
    for name in ("reserve", "release", "renew", "expire"):
        rec.wrap(svc.ledger, name, "service.ledger")
    if svc.wal is not None:
        install_wal(rec, svc.wal)

    def wrap_new_view() -> None:
        # Views are built inside the service (one per snapshot epoch), so
        # the only seam is the call that may have just replaced one.
        view = svc.view
        if view is not None and "apply_delta" not in vars(view):
            rec.wrap(view, "apply_delta", "service.residual_view",
                     transient=True)
            rec.wrap(view.routes, "edges_for", "service.cache",
                     transient=True)

    rec.wrap(svc, "_residual", "service.residual_view", after=wrap_new_view)
    wrap_new_view()


def install_wal(rec: SpanRecorder, wal) -> None:
    """Spans on append/snapshot; bytes tallied from file sizes in the
    state dir (the log's size just before each truncation, plus each
    snapshot written — :func:`wal_bytes_pending` adds the open tail)."""
    rec.wrap(wal, "append", "service.wal")

    def log_size(_args, _kwargs) -> None:
        rec.counts["wal.bytes"] += os.path.getsize(wal.wal_path)

    def snapshot_size() -> None:
        rec.counts["wal.bytes"] += os.path.getsize(wal.snapshot_path)

    rec.wrap(wal, "snapshot", "service.wal", before=log_size,
             after=snapshot_size)


def wal_bytes_pending(wal) -> int:
    """Bytes in the not-yet-compacted log tail."""
    return os.path.getsize(wal.wal_path)


def install_router(rec: SpanRecorder, router) -> None:
    """Wrap a ``ShardRouter``, its trunk ledger, and either its
    in-process shard services or its worker pool (whose far side is
    opaque: worker time shows up as ``sharding.workers`` self time)."""
    for name in ("request", "release", "renew", "tick", "admit_batch"):
        rec.wrap(router, name, "sharding.router")
    rec.wrap(router.routes, "edges_between", "service.cache")
    for name in ("reserve", "release"):
        rec.wrap(router.trunk, name, "sharding.trunk")
    pool = router.pool
    if pool is None:
        for svc in router.services:
            install_service(rec, svc)
        return

    def one(args, _kwargs) -> None:
        rec.counts[f"rpc.{args[1]}"] += 1

    def many(args, _kwargs) -> None:
        rec.counts.update(f"rpc.{call[1]}" for call in args[0])

    rec.wrap(pool, "call", "sharding.workers", before=one)
    rec.wrap(pool, "call_many", "sharding.workers", before=many)
    rec.wrap(pool, "ping", "sharding.workers")
