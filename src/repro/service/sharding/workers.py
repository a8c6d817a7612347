"""Process-parallel shard workers: every shard's service on its own core.

The :class:`~repro.service.sharding.ShardRouter` runs one
:class:`~repro.service.SelectionService` per shard, but the in-process
executor runs them all on a single core — sharding buys latency
isolation and zero aggregate throughput.  This module supplies the
``executor="process"`` data plane: a :class:`ShardWorkerPool` of
``multiprocessing`` workers, each owning a set of shard services, driven
by a small pickled command protocol whose ops are a shard service's
own methods (``admit`` — the backend entry a routed request reaches a
shard through, with no front door of its own — ``admit_batch`` /
``release`` / ``renew`` / ``tick`` / ``status`` / ``metrics_snapshot`` /
``flush_state`` / ``probe`` / ``check_invariants``) plus four ops
answered beside them: ``reservation_map``, ``edge_claims``, ``ping``,
``metrics_state``.  The pool's call surface — :meth:`~ShardWorkerPool.call`,
:meth:`~ShardWorkerPool.call_many`, :meth:`~ShardWorkerPool.tick_all`,
:meth:`~ShardWorkerPool.sync`, :meth:`~ShardWorkerPool.drain`,
:meth:`~ShardWorkerPool.close` — is the *only* way the router reaches a
shard; :class:`InprocExecutor` answers the same surface over services
in the router's own process, and :func:`build_shard_services` is the
one place either of them constructs a shard's service.

Design points:

* **Transport** — one duplex :func:`multiprocessing.Pipe` per worker,
  one reply per envelope, in pipe order.  A worker executes its
  commands serially in arrival order; *different* workers run
  concurrently, which is where a cross-shard commit's parts get their
  parallelism (its probes run one by one).  Each worker's unacked envelopes sit
  in one FIFO (``_WorkerProc.unacked``): an *awaited* envelope's caller
  blocks for its reply, a *posted* one (``call_many(wait=False)`` — the
  router's releases) is sent now and its ack read before the next
  awaited reply from that worker, at the latest by
  :meth:`ShardWorkerPool.drain`.  At most ``_MAX_UNACKED`` envelopes
  are outstanding per worker, so neither pipe buffer can fill.  A
  :class:`threading.RLock` keeps a metrics-scrape thread from ever
  interleaving frames with the request path.
* **Clock** — every command envelope carries the router's ``now``; the
  worker fast-forwards its shared manual clock before dispatching, so
  lease expiry inside a worker agrees exactly with the router's
  timeline.  The process executor therefore requires a *static*
  topology provider (the restriction is enforced by the router).
* **Determinism** — a worker's shard service is the same state machine
  as the in-process executor's, receiving the identical command
  sequence, so grants are bit-identical to ``executor="inproc"``
  regardless of worker count (gated by the parallel benchmark arm).
* **Observability** (DESIGN.md §17) — when the router traces, each
  command envelope carries a seventh field: the caller's
  ``(trace id, parent span id)`` context (or ``None``).  The worker
  records spans into a buffered in-process :class:`Tracer` — a
  ``worker.<op>`` envelope span around the dispatch plus whatever the
  shard service records inside — and ships the finished span dicts back
  as a fourth reply field.  The pool stitches them into the router's
  tree (:meth:`Tracer.adopt`) with ``shard=``/``pid=`` attribution.
  Ops that run off the request path (metrics scrapes, pings) are never
  traced (``_UNTRACED_OPS``); spans they buffer anyway drift home via
  the ``drain_spans`` op after every tick fan-out and on close.
  Worker metrics federate the same way: the ``metrics_state`` op dumps
  the shard services' registries for the router-side
  :class:`~repro.obs.metrics.MetricsFederation`, all but their SLO
  series (a shard takes no SLO sample; the router does).
* **Crash recovery** — workers answer health pings, and a dead worker
  (detected by a broken pipe or a failed liveness check before send) is
  restarted in place as a new *incarnation*.  With a ``state_dir``,
  each shard's service recovers its ledger from its own WAL directory
  (``state_dir/shard-i``) through the existing ``recover_ledger`` path,
  so no *committed* lease is lost.  Every envelope the dead incarnation
  left unacked is settled by the restart, never waited for: awaited
  ones raise :class:`WorkerCrashError` (the router rejects the request
  and posts a release for what the replacement may have recovered of
  it), posted ones are replayed to the replacement in order
  (``release`` is idempotent — "not held" is an ignored ``KeyError``
  ack).  Without a ``state_dir`` a restarted worker comes back empty
  and the router's next tick reaps the orphaned composites.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import pickle
import threading
from collections import Counter, deque
from typing import Any, Mapping, Optional, Sequence

from ...obs.trace import Tracer
from ..service import ManualClock, SelectionService

__all__ = [
    "InprocExecutor",
    "ShardWorkerPool",
    "WorkerCrashError",
]

logger = logging.getLogger("repro.service.sharding")

#: Seconds between liveness checks while waiting on a worker reply.
_POLL_S = 0.2

#: Unacked envelopes allowed per worker before the pool reads the oldest
#: reply.  A release and its ack are a few hundred bytes each way, span
#: batch included, so neither pipe buffer comes near full: the worker can
#: always write its acks, so it never stops reading commands.
_MAX_UNACKED = 32

#: Ops that may be posted.  A posted envelope is replayed when its worker
#: restarts, so the op must be idempotent.
_POSTABLE_OPS = frozenset({"release"})

#: ``repro_shard_worker_errors_total`` — one series per ``site`` label.
WORKER_ERRORS_METRIC = "repro_shard_worker_errors_total"
WORKER_ERRORS_HELP = "Errors caught at a shard-worker boundary, by site."

#: Ops that must never carry trace context.  These run from metrics
#: scrape threads or maintenance sweeps — the main thread's span stack
#: (``Tracer.context``) is the *request*'s context, and attaching a
#: scrape's worker span under an unrelated in-flight request would
#: corrupt its tree.  Their spans (if any) come home via ``drain_spans``.
_UNTRACED_OPS = frozenset({
    "metrics_state", "metrics_snapshot", "ping", "drain_spans",
    "check_invariants", "close",
})


class WorkerCrashError(RuntimeError):
    """A shard worker died while (or before) serving a command.

    The pool has already restarted the worker (recovering its WAL state
    when durable) by the time this propagates; only the in-flight
    command is lost.
    """


# -- the worker side ---------------------------------------------------------

#: Ops that are the shard service's own methods, arguments and all.
_SERVICE_OPS = frozenset({
    "admit", "probe", "admit_batch", "release",
    "renew", "tick", "status", "metrics_snapshot", "flush_state",
    "check_invariants",
})


def _dispatch(service: SelectionService, op: str, args: tuple, kwargs: dict):
    """Apply one command to one shard's service; returns the payload."""
    if op in _SERVICE_OPS:
        return getattr(service, op)(*args, **kwargs)
    if op == "reservation_map":
        return {
            app_id: (list(r.nodes), r.granted_at)
            for app_id, r in service.ledger.reservations.items()
        }
    if op == "edge_claims":
        return list(service.ledger.edge_claims())
    if op == "ping":
        return os.getpid()
    if op == "metrics_state":
        return [item for item in service.registry.dump_state()
                if not item["name"].startswith("repro_slo_")]
    raise ValueError(f"unknown worker op {op!r}")


def _count_error(service: SelectionService, site: str) -> None:
    """Worker-side error sites count in the shard's own registry, which
    the router federates under its ``shard=`` label."""
    service.registry.counter(
        WORKER_ERRORS_METRIC, WORKER_ERRORS_HELP, labels={"site": site}
    ).inc()


def build_shard_services(
    sources: Mapping[int, Any],
    *,
    clock,
    tracer,
    lease_s: float,
    service_kwargs: dict,
    state_dirs: Mapping[int, Optional[str]],
) -> dict[int, SelectionService]:
    """The one place a shard's service is constructed, for both executors.

    ``sources[shard]`` is the shard's topology source: the router's
    restricted provider in-process, the induced subgraph in a worker.
    ``service_kwargs`` is the router's one dict of service settings;
    a durable shard recovers its ledger from ``state_dirs[shard]``
    exactly as a restarted single service would.
    """
    return {
        shard: SelectionService(
            source,
            lease_s=lease_s,
            clock=clock,
            tracer=tracer,
            state_dir=state_dirs[shard],
            **service_kwargs,
        )
        for shard, source in sources.items()
    }


def _worker_main(
    conn,
    sources: dict,
    build: dict,
    start_now: float,
    trace_enabled: bool = False,
) -> None:
    """One worker process: build the shard services, serve commands.

    ``sources`` maps shard id -> that shard's induced subgraph
    (inherited for free under ``fork``, pickled once under ``spawn``)
    and ``build`` holds the rest of :func:`build_shard_services`'
    keywords; the shared manual clock starts at ``start_now`` and never
    runs behind a recovered grant.

    With ``trace_enabled``, a single buffered :class:`Tracer` is shared
    by every shard service (commands are serial, so spans never
    interleave).  Each traced command ships exactly the spans it
    produced — a slice of the buffer bracketing the dispatch — in its
    reply; untraced-op leftovers accumulate until a ``drain_spans`` or
    the close envelope flushes them.
    """
    clock = ManualClock()
    clock.now = start_now
    tracer = Tracer() if trace_enabled else None
    try:
        services = build_shard_services(
            sources, clock=clock, tracer=tracer, **build
        )
        recovered = [
            r.granted_at
            for service in services.values()
            for r in service.ledger.reservations.values()
        ]
        if recovered:
            clock.now = max(clock.now, max(recovered))
        conn.send(
            ("hello", {s: svc.recovery for s, svc in services.items()},
             os.getpid())
        )
    except Exception as exc:
        # Boundary: whatever construction raised is reported to the
        # parent, which counts it (site="startup") and raises.
        try:
            conn.send(("fail", repr(exc), os.getpid()))
        except OSError:
            pass  # the parent is gone: nobody left to tell
        return
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if msg is None:  # shutdown sentinel
            break
        seq, now, shard, op, args, kwargs, ctx = msg
        if now > clock.now:
            clock.now = now
        if op == "close":
            for service in services.values():
                service.close()
            conn.send((seq, "ok", None,
                       tracer.drain() if tracer is not None else []))
            return
        if op == "drain_spans":
            spans = tracer.drain() if tracer is not None else []
            conn.send((seq, "ok", len(spans), spans))
            continue
        spans = []
        try:
            if tracer is not None and ctx is not None:
                # Bracket the dispatch in an envelope span, then ship
                # exactly the spans this command produced: everything
                # appended past the pre-dispatch high-water mark.
                mark = len(tracer.spans)
                try:
                    with tracer.span(f"worker.{op}", shard=shard):
                        payload = _dispatch(services[shard], op,
                                            args, kwargs)
                finally:
                    spans = tracer.spans[mark:]
                    del tracer.spans[mark:]
            else:
                payload = _dispatch(services[shard], op, args, kwargs)
            reply = (seq, "ok", payload, spans)
        except Exception as exc:
            # Boundary: the op's error crosses the pipe to its caller
            # (or, for a posted op, to the next drain).
            _count_error(services[shard], "dispatch")
            reply = (seq, "err", exc, spans)
        try:
            conn.send(reply)
        except (pickle.PicklingError, TypeError, AttributeError):
            # The payload (or exception) didn't pickle — nothing was
            # written yet, so degrade to a transportable error instead
            # of killing the worker.
            _count_error(services[shard], "reply_pickle")
            conn.send((seq, "err", RuntimeError(
                f"unpicklable worker reply for op {op!r}"
            ), spans))
    for service in services.values():
        try:
            service.close()
        except (OSError, ValueError) as exc:  # pragma: no cover
            logger.warning("shard service close failed at exit: %r", exc)


# -- the router side ---------------------------------------------------------

class _Envelope:
    """One command on the wire, from send until its reply is read."""

    __slots__ = ("shard", "op", "args", "kwargs", "posted", "seq",
                 "incarnation", "ctx", "sent_at", "reply")

    def __init__(self, shard: int, op: str, args: tuple, kwargs: dict,
                 posted: bool) -> None:
        self.shard, self.op, self.args, self.kwargs = shard, op, args, kwargs
        #: Posted: nobody blocks for the reply; its ack is read in passing.
        self.posted = posted
        self.seq = self.incarnation = 0
        #: Trace context, and send time on the router tracer's timeline.
        self.ctx = self.sent_at = None
        #: ``(status, payload)`` once settled (awaited envelopes only).
        self.reply: Optional[tuple[str, Any]] = None


class _WorkerProc:
    """Bookkeeping for one live worker process (pool-internal)."""

    def __init__(self, worker_id: int, shards: tuple) -> None:
        self.worker_id = worker_id
        self.shards = shards
        self.proc = None
        self.conn = None
        self.pid: Optional[int] = None
        #: Which process this is, counting restarts; ``seq`` restarts
        #: from zero with each, so ``(incarnation, seq)`` names an
        #: envelope and a reply is only ever matched within one.
        self.incarnation = 0
        self.seq = 0
        #: Envelopes sent to this incarnation and not yet replied to, in
        #: pipe order — which is the order the replies arrive in.
        self.unacked: deque[_Envelope] = deque()


class ShardWorkerPool:
    """The process executor: shard services spread across N workers.

    Parameters (those of :class:`InprocExecutor`, plus ``workers``)
    ----------
    sources:
        Shard id -> its induced subgraph, a cut sharing the router
        graph's objects (forked workers inherit them, spawned workers
        get theirs pickled at startup); shard ``i`` runs in worker
        ``i % workers``.
    workers:
        Worker process count (clamped to ``[1, len(sources)]``).
    clock:
        The router's clock callable — stamped into every command
        envelope so worker-side lease expiry agrees with the router.
    tracer:
        The router's tracer.  When it is enabled, workers run buffered
        tracers, traced envelopes carry the caller's span context, and
        every reply's span batch is stitched into it with
        ``shard``/``pid`` attribution; otherwise :attr:`tracer` is
        ``None`` and no context or per-seq metadata is kept.
    build:
        The rest of :func:`build_shard_services`' keywords, handed to it
        in each worker at first spawn and at every restart — which is
        how a restarted worker recovers its shards from ``state_dirs``.
    """

    def __init__(
        self,
        sources: Mapping[int, Any],
        *,
        workers: int,
        clock,
        tracer,
        **build,
    ) -> None:
        self._sources = sources
        self._build = build
        self.workers = max(1, min(int(workers), len(sources)))
        self._clock = clock
        self.tracer: Optional[Tracer] = tracer if tracer.enabled else None
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._lock = threading.RLock()
        self.restarts = 0
        #: Parent-side error sites (``startup``, ``posted_ack``) of
        #: ``repro_shard_worker_errors_total{site=}``.
        self.errors: Counter[str] = Counter()
        #: Error acks of posted envelopes, raised by :meth:`drain`.
        self._ack_errors: list[BaseException] = []
        #: Shards whose worker restarted since the router last synced
        #: (drained by :meth:`sync`).
        self._restarted_shards: set[int] = set()
        #: Clock reading at the last :meth:`tick_all` fan-out.
        self._last_tick_now: Optional[float] = None
        #: Per-shard recovery reports from the initial spawn handshake.
        self.recoveries: dict[int, Any] = {}
        self._closed = False
        self._procs: list[_WorkerProc] = []
        for worker_id in range(self.workers):
            shards = tuple(
                s for s in sorted(sources) if s % self.workers == worker_id
            )
            w = _WorkerProc(worker_id, shards)
            self._procs.append(w)
            self._spawn(w, initial=True)
        self._by_shard = {
            shard: w for w in self._procs for shard in w.shards
        }

    # -- lifecycle ------------------------------------------------------------
    def _spawn(self, w: _WorkerProc, *, initial: bool) -> None:
        parent, child = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child, {s: self._sources[s] for s in w.shards},
                self._build, float(self._clock()),
                self.tracer is not None,
            ),
            name=f"repro-shard-worker-{w.worker_id}",
            daemon=True,
        )
        proc.start()
        child.close()
        w.proc, w.conn, w.seq = proc, parent, 0
        w.incarnation += 1
        while not parent.poll(_POLL_S):
            if not proc.is_alive():
                self.errors["startup"] += 1
                raise RuntimeError(
                    f"shard worker {w.worker_id} died during startup "
                    f"(exit code {proc.exitcode})"
                )
        kind, payload, pid = parent.recv()
        if kind != "hello":
            proc.join(timeout=5.0)
            self.errors["startup"] += 1
            raise RuntimeError(
                f"shard worker {w.worker_id} failed to start: {payload}"
            )
        w.pid = pid
        if initial:
            self.recoveries.update(payload)

    def _restart(self, w: _WorkerProc, why: str) -> None:
        """Replace a dead worker; durable shards recover from their WALs.

        Everything in ``w.unacked`` went to the dead incarnation, whose
        replies will never come, so it is settled here: awaited envelopes
        fail with :class:`WorkerCrashError`, posted ones are replayed to
        the replacement in their original order, ahead of anything later.
        """
        try:
            w.conn.close()
        except OSError:
            pass
        if w.proc.is_alive():  # wedged rather than dead: reap it
            w.proc.terminate()
        w.proc.join(timeout=10.0)
        crash = WorkerCrashError(
            f"worker {w.worker_id} (incarnation {w.incarnation}) died "
            f"with the command unanswered: {why}"
        )
        stale, w.unacked = w.unacked, deque()
        if not self._closed:  # shutting down: reap, don't respawn
            self._spawn(w, initial=False)
            self.restarts += 1
            self._restarted_shards.update(w.shards)
            logger.warning(
                "shard worker %d (%s) restarted: shards %s recovered%s",
                w.worker_id, why, list(w.shards),
                "" if self._build["state_dirs"][w.shards[0]]
                else " (no WAL: empty)",
            )
        for env in stale:
            if env.posted and not self._closed:
                self._transmit(w, env)
            else:
                env.reply = ("err", crash)

    def sync(self) -> set[int]:
        """Restart any worker found dead right now; returns the shards
        restarted, by this sweep or by any send or receive, since the
        last call.

        A local liveness sweep (``waitpid``, no round-trips) — cheap
        enough for the router to run on every tick, so a crashed worker
        is replaced (and its durable shards recovered) even when no
        request happens to route to it.
        """
        with self._lock:
            if not self._closed:
                for w in self._procs:
                    if not w.proc.is_alive():
                        self._restart(w, "found dead in liveness sweep")
            out, self._restarted_shards = self._restarted_shards, set()
        return out

    def tick_all(
        self, force: bool = False
    ) -> Optional[list[tuple[str, Any]]]:
        """One ``tick`` per shard, as :meth:`call_many` replies them —
        or ``None`` without sending anything: worker clocks move only
        with envelopes, so a repeat at the same instant can expire
        nothing new unless a restart (``force``) may have lost leases.
        """
        now = self._clock()
        if not force and now == self._last_tick_now:
            return None
        replies = self.call_many(
            [(shard, "tick", (), {}) for shard in sorted(self._sources)]
        )
        # Bring home spans buffered by untraced worker ops since the
        # last clock movement (metrics scrapes, pings).
        self.drain_spans()
        self._last_tick_now = now
        return replies

    @property
    def closed(self) -> bool:
        return self._closed

    def pids(self) -> dict[int, int]:
        """Live worker pids by worker id (for health checks and tests)."""
        return {w.worker_id: w.pid for w in self._procs}

    def worker_of(self, shard: int) -> int:
        return self._by_shard[shard].worker_id

    def ping(self) -> dict[int, bool]:
        """Health-check every worker with a round-trip echo.

        A dead worker is restarted (recovering durable state) and still
        reported ``False`` for the probe that found it dead.
        """
        out = {}
        for w in self._procs:
            alive_before = w.proc.is_alive()
            try:
                ok = self.call(w.shards[0], "ping") == w.pid
            except WorkerCrashError:
                ok = False
            out[w.worker_id] = alive_before and ok
        return out

    def close(self) -> None:
        """Flush and stop every worker (idempotent); once they are all
        down, raises what :meth:`drain` would have."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for w in self._procs:
                # Posted acks come home ahead of the close reply; a
                # worker found dead is reaped, not respawned.
                self._await(w, self._send(w, w.shards[0], "close", (), {}))
                try:
                    w.conn.close()
                except OSError:
                    pass
                w.proc.join(timeout=10.0)
                if w.proc.is_alive():  # pragma: no cover - stuck worker
                    w.proc.terminate()
                    w.proc.join(timeout=5.0)
            self.drain()

    # -- transport ------------------------------------------------------------
    def _send(self, w: _WorkerProc, shard: int, op: str, args: tuple,
              kwargs: dict, *, posted: bool = False) -> _Envelope:
        if not w.proc.is_alive():
            # Died between calls: restart *before* sending, so the call
            # itself proceeds against the recovered worker.
            self._restart(w, "found dead before send")
        while len(w.unacked) >= _MAX_UNACKED:
            self._collect(w)
        env = _Envelope(shard, op, args, kwargs, posted)
        if self.tracer is not None:
            if op not in _UNTRACED_OPS:
                env.ctx = self.tracer.context()
            env.sent_at = self.tracer._now()
        self._transmit(w, env)
        return env

    def _transmit(self, w: _WorkerProc, env: _Envelope) -> None:
        """Write ``env`` to ``w``'s live incarnation and queue it."""
        w.seq += 1
        env.seq, env.incarnation = w.seq, w.incarnation
        try:
            w.conn.send((env.seq, float(self._clock()), env.shard, env.op,
                         env.args, env.kwargs, env.ctx))
        except OSError as exc:
            # Queued all the same, so that the restart settles it like
            # any other envelope the dead incarnation never answered.
            w.unacked.append(env)
            self._restart(w, f"send failed ({exc})")
            return
        w.unacked.append(env)

    def _collect(self, w: _WorkerProc) -> None:
        """Read the reply to ``w``'s oldest unacked envelope — or, when
        the worker is found dead instead, restart it, which settles
        that envelope along with every other one."""
        env = w.unacked[0]
        while True:
            try:
                if w.conn.poll(_POLL_S):
                    reply_seq, status, payload, spans = w.conn.recv()
                    break
            except (EOFError, OSError) as exc:
                self._restart(w, f"recv failed ({exc})")
                return
            if not w.proc.is_alive():
                # SIGKILL with forked siblings holding the pipe ends
                # never delivers EOF; the liveness check catches it.
                if w.conn.poll(0):
                    continue
                self._restart(w, "found dead awaiting reply")
                return
        w.unacked.popleft()
        assert (env.incarnation, env.seq) == (w.incarnation, reply_seq), (
            f"worker {w.worker_id} protocol desync: reply {reply_seq} of "
            f"incarnation {w.incarnation} != expected {env.seq} of "
            f"incarnation {env.incarnation}"
        )
        if spans and self.tracer is not None:
            extra = {"pid": w.pid}
            if env.ctx is not None:
                # Only a traced envelope pins a shard; an untraced
                # drain batch may mix spans from several shards.
                extra["shard"] = env.shard
            self.tracer.adopt(
                spans, parent=env.ctx, base_s=env.sent_at, **extra,
            )
        if not env.posted:
            env.reply = (status, payload)
        elif status == "err" and not isinstance(payload, KeyError):
            # KeyError is "not held": already released, or lost with a
            # non-durable worker.  Anything else waits for the drain.
            self.errors["posted_ack"] += 1
            self._ack_errors.append(payload)

    def _await(self, w: _WorkerProc, env: _Envelope) -> tuple[str, Any]:
        while env.reply is None:
            self._collect(w)
        return env.reply

    def call(self, shard: int, op: str, *args, **kwargs):
        """One synchronous command against ``shard``'s service."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        with self._lock:
            w = self._by_shard[shard]
            status, payload = self._await(
                w, self._send(w, shard, op, args, kwargs))
        if status == "err":
            raise payload
        return payload

    def drain_spans(self) -> int:
        """Collect leftover worker spans (untraced-op residue) from
        every worker; returns the number of spans adopted.  A no-op when
        tracing is off — the op never even crosses the pipe.
        """
        if self.tracer is None or self._closed:
            return 0
        total = 0
        with self._lock:
            for w in self._procs:
                try:
                    total += self.call(w.shards[0], "drain_spans")
                except WorkerCrashError:
                    continue  # restarted: its buffer died with it
        return total

    def call_many(
        self, calls: Sequence[tuple], *, wait: bool = True
    ) -> list[tuple[str, Any]]:
        """Fan a batch of commands out across the workers concurrently.

        ``calls`` is ``[(shard, op, args, kwargs), ...]``.  Commands are
        sent to every addressed worker before any reply is awaited, so
        commands on *different* workers execute in parallel (commands on
        the same worker queue in order).  Returns, per call and in
        order, ``("ok", payload)`` or ``("err", exception)`` — a crashed
        worker yields ``WorkerCrashError`` entries for its pending calls
        rather than failing the whole fan-out.

        ``wait=False`` *posts* the commands (``_POSTABLE_OPS`` only) and
        returns ``[]`` at once: each ack is read in pipe order before
        the next awaited reply from its worker, a ``KeyError`` ack is
        ignored, and any other error ack is raised by :meth:`drain`.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if not wait and any(c[1] not in _POSTABLE_OPS for c in calls):
            raise ValueError(
                f"only {sorted(_POSTABLE_OPS)} can be posted: a posted "
                "envelope is replayed after a worker restart"
            )
        with self._lock:
            sent = []
            for shard, op, args, kwargs in calls:
                w = self._by_shard[shard]
                sent.append((w, self._send(w, shard, op, args, kwargs,
                                           posted=not wait)))
            return [self._await(w, env) for w, env in sent] if wait else []

    def drain(self) -> None:
        """Read every posted envelope's ack; raise the first error ack
        (other than ``KeyError``) seen since the last drain."""
        with self._lock:
            for w in self._procs:
                while w.unacked:
                    self._collect(w)
            if self._ack_errors:
                errors, self._ack_errors = self._ack_errors, []
                raise errors[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShardWorkerPool workers={self.workers} "
            f"shards={len(self._sources)} restarts={self.restarts}>"
        )


# -- the same surface, in this process -----------------------------------------

class InprocExecutor:
    """The pool's call surface over shard services in the caller's process.

    Nothing here can die or lag: ``sync`` finds nobody restarted,
    ``tick_all`` ticks every service once some lease deadline may have
    lapsed and answers ``None`` otherwise, a posted call runs now
    (``KeyError`` — "not held" — is its only ignored error) and ``drain``
    has nothing to read.  Every op goes through :func:`_dispatch`, which
    looks the method up on the service at call time, so a wrapper
    shadowing one on the instance still fires.
    """

    restarts = 0

    def __init__(self, sources: Mapping[int, Any], **build) -> None:
        """``build``: :func:`build_shard_services`' keywords, unchanged."""
        built = build_shard_services(sources, **build)
        self._clock = build["clock"]
        self.services = [built[shard] for shard in range(len(built))]
        self.recoveries = {s: svc.recovery for s, svc in built.items()}
        self.closed = False

    def call(self, shard: int, op: str, *args, **kwargs):
        return _dispatch(self.services[shard], op, args, kwargs)

    def call_many(
        self, calls: Sequence[tuple], *, wait: bool = True
    ) -> list[tuple[str, Any]]:
        replies = []
        for shard, op, args, kwargs in calls:
            try:
                replies.append(("ok", self.call(shard, op, *args, **kwargs)))
            except Exception as exc:
                if not wait and not isinstance(exc, KeyError):
                    raise
                replies.append(("err", exc))
        return replies if wait else []

    def sync(self) -> frozenset:
        return frozenset()

    def tick_all(
        self, force: bool = False
    ) -> Optional[list[tuple[str, Any]]]:
        """One ``tick`` per service — or ``None`` when no ledger's
        :attr:`~repro.service.ledger.ReservationLedger.next_deadline` has
        come: then every tick would expire nothing and drain no queue.
        The services share this clock, so one reading answers for all.
        """
        now = self._clock()
        for service in self.services:
            deadline = service.ledger.next_deadline
            if deadline is not None and deadline <= now:
                return [("ok", svc.tick()) for svc in self.services]
        return None

    def drain(self) -> None:
        pass

    def close(self) -> None:
        for service in self.services:
            service.close()
        self.closed = True
