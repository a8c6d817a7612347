"""``repro-serve``: drive the multi-tenant selection service from files.

Replays a stream of application requests against a serialized topology
(offline — the service runs on its manual clock), printing each outcome
and the final service metrics:

.. code-block:: console

   $ repro-serve topology.json --requests workload.json
   $ repro-serve topology.json --demo 20 --nodes 2 --cpu 0.4
   $ repro-serve topology.json --demo 50 --format json --ttl 10

The workload file is a JSON array of operations, each with an ``op``
(``request`` / ``release`` / ``renew`` / ``tick``), an ``app`` id (except
``tick``), and an ``at`` time in seconds (default: previous op's time):

.. code-block:: json

   [
     {"op": "request", "app": "fft", "at": 0, "nodes": 4,
      "cpu": 0.5, "bw_mbps": 10, "priority": "gold"},
     {"op": "release", "app": "fft", "at": 120}
   ]

``--demo N`` instead synthesizes N staggered requests (arrivals 1 s
apart) so the admission/queue/reject flow is visible without writing a
workload file.

``--state-dir DIR`` makes the run durable: the reservation ledger is
recovered from DIR's snapshot + write-ahead log at startup (a corrupt,
unreplayable WAL exits with status 2 instead of a traceback; a torn
final record from a mid-append crash is tolerated) and every mutation is
logged.  SIGTERM/SIGINT trigger a graceful shutdown: the operation
(or batch) running when the signal lands finishes and is reported, the
remaining ones are skipped, and a final compacted snapshot is flushed
before exit.  ``--preempt`` additionally lets infeasible gold requests
reclaim bronze/silver leases, which are released at once.

``--shards K`` runs the sharded deployment instead: the topology is cut
into K connected shards, each behind its own service, with cross-shard
bandwidth accounted on the boundary (trunk) links.  Request ops may add
``"spread": N`` to demand a placement spanning at least N shards (fault
domains).  Sharded mode never queues (what no shard or split can host is
rejected) and does not support ``--preempt``; with ``--state-dir`` each
shard logs under ``DIR/shard-i`` and the trunk under ``DIR/trunk``.

``--workers N`` (requires ``--shards > 1``) moves the shard services
into N ``multiprocessing`` worker processes behind the router: probes
and admission batches fan out across cores, crashed workers are
restarted and recovered from their shard WALs, and grants stay
bit-identical to the in-process router for the same request stream.

``--batch-max N`` (N > 1) coalesces runs of consecutive plain request
ops (no ``spread``) into one ``admit_batch()`` call of up to N: a run
ends at N ops, at any other op and at the end of the file, and runs at
the time of its last op.  The default, 1, serves every op on its own.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Iterator, Optional, Union

from ..core.spec import ApplicationSpec, Objective
from ..obs import MetricsRegistry, Tracer
from ..topology.serialize import read_topology
from ..units import Mbps
from .admission import Priority
from .api import BatchRequest
from .service import SelectionService
from .sharding import ShardRouter
from .wal import WalCorruptError

__all__ = ["main", "build_parser", "serve_metrics"]


def serve_metrics(registry: MetricsRegistry, port: int) -> HTTPServer:
    """Serve ``registry``'s Prometheus exposition on ``/metrics``.

    Binds ``127.0.0.1:port`` (``port=0`` picks a free port — the bound
    one is ``server.server_address[1]``) and serves from a daemon thread.
    Returns the :class:`~http.server.HTTPServer`; call ``shutdown()`` and
    ``server_close()`` to stop it.
    """

    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                self.send_error(404, "try /metrics")
                return
            body = registry.expose_text().encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args) -> None:  # silence per-request noise
            pass

    server = HTTPServer(("127.0.0.1", port), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Multi-tenant selection service on a topology JSON file: "
            "admission control, reservation ledger, snapshot caching."
        ),
    )
    parser.add_argument("topology",
                        help="path to a topology JSON file ('-' for stdin)")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--requests", metavar="FILE",
                        help="JSON workload file of request/release/renew ops")
    source.add_argument("--demo", type=int, metavar="N",
                        help="synthesize N staggered demo requests instead")
    parser.add_argument("--nodes", type=int, default=2,
                        help="nodes per demo request (default: 2)")
    parser.add_argument("--cpu", type=float, default=0.25,
                        help="CPU-fraction claim per demo request (default: 0.25)")
    parser.add_argument("--ttl", type=float, default=5.0,
                        help="snapshot cache TTL in seconds (default: 5)")
    parser.add_argument("--lease", type=float, default=60.0,
                        help="lease duration in seconds (default: 60)")
    parser.add_argument("--shards", type=int, default=1, metavar="K",
                        help="partition the topology into K connected shards "
                             "behind a router: per-shard services, trunk "
                             "bandwidth accounting on boundary links, "
                             "cross-shard splits via 'spread' ops "
                             "(default: 1 — single service; sharded mode "
                             "never queues and cannot --preempt)")
    parser.add_argument("--workers", type=int, metavar="N",
                        help="run the K shard services in N worker "
                             "processes (executor='process'): probes and "
                             "batches fan out across cores; requires "
                             "--shards > 1 (default: in-process shards)")
    parser.add_argument("--state-dir", metavar="DIR",
                        help="durability directory: recover the ledger from "
                             "DIR's snapshot + WAL at startup and log every "
                             "mutation (SIGTERM/SIGINT flush a final "
                             "snapshot)")
    parser.add_argument("--wal-fsync", action="store_true",
                        help="fsync every WAL append (power-loss durability)")
    parser.add_argument("--preempt", action="store_true",
                        help="let infeasible gold requests preempt "
                             "bronze/silver leases")
    parser.add_argument("--batch-max", type=int, default=1, metavar="N",
                        help="coalesce up to N consecutive plain request ops "
                             "into one admit_batch() call (default: 1 — "
                             "every op on its own)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format")
    parser.add_argument("--profile", action="store_true",
                        help="print per-stage admission-pipeline latencies "
                             "(p50/p95/p99) on exit")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write per-request trace trees as JSONL "
                             "(inspect with repro-trace)")
    parser.add_argument("--metrics-port", type=int, metavar="PORT",
                        help="serve Prometheus text exposition on "
                             "127.0.0.1:PORT/metrics while the workload runs "
                             "(under --shards/--workers this is the merged "
                             "router view: shard-labeled worker series are "
                             "re-harvested on every scrape)")
    parser.add_argument("--dump-metrics", metavar="FILE",
                        help="write the final Prometheus exposition to FILE "
                             "('-' for stdout) on exit")
    return parser


def _demo_ops(n: int, nodes: int, cpu: float) -> list[dict]:
    """N staggered CPU-only requests cycling through the priority classes."""
    return [
        {
            "op": "request",
            "app": f"app-{i:03d}",
            "at": float(i),
            "nodes": nodes,
            "cpu": cpu,
            "priority": Priority.ALL[i % len(Priority.ALL)],
        }
        for i in range(n)
    ]


def _parse_request(op: dict) -> BatchRequest:
    """One workload request op: its spec and claims (``spread``, a
    router-only knob no batch carries, stays with the caller)."""
    app = op.get("app")
    if not app:
        raise ValueError(f"operation needs an 'app' id: {op!r}")
    return BatchRequest(
        app_id=app,
        spec=ApplicationSpec(
            num_nodes=int(op.get("nodes", 1)),
            objective=op.get("objective", Objective.BALANCED),
        ),
        cpu_fraction=float(op.get("cpu", 0.0)),
        bw_bps=float(op.get("bw_mbps", 0.0)) * Mbps,
        priority=op.get("priority", Priority.SILVER),
    )


def _grant_record(service, grant) -> dict:
    """The JSON-safe outcome record of one request's grant."""
    record = {
        "at": service.now, "op": "request",
        "app": grant.app_id, "status": grant.status,
    }
    if grant.selection is not None:
        record["nodes"] = grant.selection.nodes
    if grant.reason:
        record["reason"] = grant.reason
    return record


def _run_op(service, op: dict) -> dict:
    """Apply one workload operation; returns a JSON-safe outcome record."""
    kind = op.get("op", "request")
    if kind == "request":
        req = _parse_request(op)
        kwargs = dict(
            cpu_fraction=req.cpu_fraction, bw_bps=req.bw_bps,
            priority=req.priority,
        )
        if "spread" in op:
            # Fault-domain spread is a router-only knob.
            if not isinstance(service, ShardRouter):
                raise ValueError(
                    f"'spread' requires --shards > 1: {op!r}"
                )
            kwargs["spread"] = int(op["spread"])
        return _grant_record(
            service, service.request(req.app_id, req.spec, **kwargs)
        )
    record: dict = {"at": service.now, "op": kind}
    if kind == "tick":
        record["expired"] = service.tick()
        return record
    app = op.get("app")
    if not app:
        raise ValueError(f"operation needs an 'app' id: {op!r}")
    record["app"] = app
    if kind == "release":
        record["status"] = service.release(app).status
    elif kind == "renew":
        renewed = service.renew(app)
        record["status"] = "renewed"
        if renewed.reservation is not None:  # router grants carry none
            record["expires_at"] = renewed.reservation.expires_at
    else:
        raise ValueError(f"unknown op {kind!r} in {op!r}")
    return record


def _steps(
    service, ops: list[dict], batch_max: int,
) -> Iterator[tuple[float, Union[dict, list[dict]]]]:
    """The workload as ``(at, step)`` in file order: ``step`` is one op,
    or (``batch_max > 1``) a run of up to ``batch_max`` consecutive
    plain request ops, due at its last op's time.  An op without an
    ``at`` is due with the op before it; one due earlier than that, or
    at a time that is not finite (``json`` reads ``NaN`` and
    ``Infinity``), raises ``ValueError``."""
    batch: list[dict] = []
    batch_at = 0.0
    for op in ops:
        before = batch_at if batch else service.now
        at = float(op.get("at", before))
        if not math.isfinite(at):
            raise ValueError(f"an operation's time must be finite: {at}")
        if at < before:
            raise ValueError(
                f"operations must be time-ordered: {at} < {before}"
            )
        if (batch_max > 1 and op.get("op", "request") == "request"
                and "spread" not in op):
            batch.append(op)
            batch_at = at
            if len(batch) == batch_max:
                yield at, batch
                batch = []
            continue
        if batch:
            yield batch_at, batch
            batch = []
        yield at, op
    if batch:
        yield batch_at, batch


def _replay(service, ops: list[dict], batch_max: int,
            stopped: list[str]) -> list[dict]:
    """Run the workload's steps in order, each at its time; returns the
    outcome records.  Stops before the next step once ``stopped`` names
    a signal: a step that has started always finishes."""
    outcomes: list[dict] = []
    for at, step in _steps(service, ops, batch_max):
        if stopped:
            break
        # The clock only moves forward (a batch's own advance can round).
        service.advance(max(0.0, at - service.now))
        if isinstance(step, dict):
            outcomes.append(_run_op(service, step))
        else:
            grants = service.admit_batch([_parse_request(op) for op in step])
            outcomes.extend(_grant_record(service, grant) for grant in grants)
    return outcomes


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    graph = read_topology(args.topology)
    if graph is None:
        return 2

    try:
        if args.demo is not None:
            ops = _demo_ops(args.demo, args.nodes, args.cpu)
        else:
            with open(args.requests, "r", encoding="utf-8") as fh:
                ops = json.load(fh)
            if not isinstance(ops, list):
                raise ValueError("workload file must be a JSON array of ops")
    except (OSError, ValueError) as exc:
        print(f"error: cannot load workload: {exc}", file=sys.stderr)
        return 2

    if args.shards > 1 and args.preempt:
        print("error: --preempt is not supported with --shards > 1",
              file=sys.stderr)
        return 2
    if args.workers is not None and args.shards <= 1:
        print("error: --workers requires --shards > 1",
              file=sys.stderr)
        return 2
    for flag, value, least in (
        ("--shards", args.shards, 1), ("--demo", args.demo, 0),
        ("--workers", args.workers, 1), ("--batch-max", args.batch_max, 1),
    ):
        if value is not None and value < least:
            print(f"error: {flag} must be >= {least}: {value}",
                  file=sys.stderr)
            return 2
    tracer = Tracer() if args.trace_out else None
    try:
        if args.shards > 1:
            service = ShardRouter(
                graph,
                shards=args.shards,
                snapshot_ttl=args.ttl,
                lease_s=args.lease,
                tracer=tracer,
                state_dir=args.state_dir,
                wal_fsync=args.wal_fsync,
                executor=("process" if args.workers is not None
                          else "inproc"),
                workers=args.workers,
            )
        else:
            service = SelectionService(
                graph,
                snapshot_ttl=args.ttl,
                lease_s=args.lease,
                tracer=tracer,
                state_dir=args.state_dir,
                wal_fsync=args.wal_fsync,
                preempt=args.preempt,
            )
    except WalCorruptError as exc:
        print(f"error: corrupt WAL state: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        built = "shard router" if args.shards > 1 else "selection service"
        print(f"error: cannot build the {built}: {exc}", file=sys.stderr)
        return 2
    if service.recovery is not None:
        rec = service.recovery
        tail = " (torn tail dropped)" if rec.truncated_tail else ""
        print(
            f"recovered {rec.leases} leases from WAL "
            f"({rec.records} records after snapshot seq "
            f"{rec.snapshot_seq}){tail}",
            file=sys.stderr,
        )
    metrics_server = None
    if args.metrics_port is not None:
        try:
            metrics_server = serve_metrics(service.registry, args.metrics_port)
        except (OSError, OverflowError) as exc:
            # OverflowError: a port outside 0-65535.
            print(f"error: cannot bind metrics port: {exc}", file=sys.stderr)
            service.close()  # final compacted snapshot when durable
            return 2
        host, port = metrics_server.server_address[:2]
        print(f"serving metrics on http://{host}:{port}/metrics",
              file=sys.stderr)

    stopped: list[str] = []

    def _on_signal(signum, _frame):
        stopped.append(signal.Signals(signum).name)

    # Signal handlers only install on the main thread (embedders calling
    # main() from a worker thread keep their own handling).
    restore: dict = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            restore[signum] = signal.signal(signum, _on_signal)

    try:
        outcomes = _replay(service, ops, args.batch_max, stopped)
        if stopped:
            print(
                f"received {stopped[0]} after {len(outcomes)}/{len(ops)} "
                "operations: shutting down"
                + (", flushing final snapshot" if service.wal is not None
                   else ""),
                file=sys.stderr,
            )
    except (KeyError, ValueError) as exc:
        print(f"error: bad workload operation: {exc}", file=sys.stderr)
        return 2
    finally:
        service.close()  # final compacted snapshot when durable
        for signum, handler in restore.items():
            signal.signal(signum, handler)
        if metrics_server is not None:
            metrics_server.shutdown()
            metrics_server.server_close()

    if tracer is not None:
        try:
            count = tracer.write_jsonl(args.trace_out)
        except OSError as exc:
            print(f"error: cannot write trace file: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {count} spans to {args.trace_out}", file=sys.stderr)
    if args.dump_metrics:
        exposition = service.registry.expose_text()
        if args.dump_metrics == "-":
            sys.stdout.write(exposition)
        else:
            try:
                with open(args.dump_metrics, "w", encoding="utf-8") as fh:
                    fh.write(exposition)
            except OSError as exc:
                print(f"error: cannot write metrics dump: {exc}",
                      file=sys.stderr)
                return 2

    metrics = service.metrics_snapshot()
    if not args.profile:
        metrics.pop("stages", None)
    if args.format == "json":
        print(json.dumps({"outcomes": outcomes, "metrics": metrics}, indent=2))
    else:
        for rec in outcomes:
            parts = [f"t={rec['at']:>7.1f}", f"{rec['op']:<8}"]
            if "app" in rec:
                parts.append(f"{rec['app']:<12}")
            parts.append(rec.get("status", ""))
            if "nodes" in rec:
                parts.append("-> " + ", ".join(rec["nodes"]))
            if rec.get("reason"):
                parts.append(f"({rec['reason']})")
            print("  ".join(p for p in parts if p))
        print()
        if isinstance(service, ShardRouter):
            print(service.metrics.format(include_stages=args.profile))
        else:
            print(service.metrics.format(
                cache=service.cache, ledger=service.ledger,
                queue=service.queue, include_stages=args.profile,
            ))
        slo = metrics.get("slo")
        if slo:
            print(
                f"slo: {slo['status']} "
                f"(p99 admit latency {slo['latency_p99_s'] * 1e3:.3f} ms; "
                + ", ".join(
                    f"{name} {obj['status']}"
                    for name, obj in slo["objectives"].items()
                )
                + ")"
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
