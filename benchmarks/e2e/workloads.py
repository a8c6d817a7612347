"""The five workloads: what each sets up, what one op is, what it checks.

Every workload is closed-loop with one client: the next op is issued
when the previous one returned, so nothing queues and a layer's gain is
bounded by its share of the op.  The seed drives the request stream
(the order of the request sizes; their mix is fixed); the program under
test only ever sees the generated requests.

A workload object offers the harness:

``steps()``
    the set-up as named callables, run in order (each is timed);
``op(i)``
    run op ``i``; returns ``(admit latency in seconds, placements)``;
``counts()``
    cumulative exact counters (the harness takes end − start);
``finish()``
    release what must be released and run the output checks;
``close()``
    stop processes, close files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from repro.core import ApplicationSpec
from repro.des import Simulator
from repro.network import Cluster
from repro.remos import Collector, RemosAPI
from repro.service import (
    BatchRequest,
    ReservationLedger,
    SelectionService,
    ShardRouter,
    partition_topology,
)
from repro.topology import random_tree
from repro.units import MB, Mbps

from . import trace

#: Request sizes (varying them defeats the selection memo where the
#: claim state does not repeat anyway).
M_MIN, M_MAX = 3, 6
#: Live leases kept by the churning workloads.
LIVE_WINDOW = 8
#: Worker processes behind ``workers_10k``'s router.
POOL_WORKERS = 2
#: The topologies are the same on every run.  Which hosts a selection
#: lands on decides how many channels its routes cross and so what an
#: op costs (measured: 390-600 us on ``repeat_1k`` across ten topology
#: seeds), and the acceptance protocol runs every repetition with another
#: ``--seed`` — a seeded topology would be counted as noise.  The seed
#: drives the request stream instead.
TOPOLOGY_SEED = 0


def build_graph(n: int):
    """The contended random tree of ``bench_service_hotpath.py``: ~n/5
    switches, loads below 0.5 and availabilities above 5 Mbps so every
    request of the streams below is admissible."""
    rng = np.random.default_rng(TOPOLOGY_SEED)
    g = random_tree(n, max(1, n // 5), rng, bandwidth=100 * Mbps)
    for link in g.links():
        link.available_fwd = float(rng.uniform(5, 100)) * Mbps
        link.available_rev = float(rng.uniform(5, 100)) * Mbps
    for node in g.compute_nodes():
        node.load_average = float(rng.uniform(0, 0.5))
    return g


class Workload:
    """Shared bookkeeping: failure accounting, digest, side samples."""

    name = ""
    #: Ops at the reference run length (``measure.REF_SECONDS``), ops
    #: per calibration slice (≤ ~100 ms of work), untimed warm-up ops.
    ops = 0
    per_slice = 1
    warmup = 0
    #: Processes that run the calibration kernel at once: as many as the
    #: workload keeps busy (see ``calibrate.Sampler``).
    cal_procs = 1

    def __init__(self, seed: int, n_ops: int, scratch: Path,
                 rec: Optional[trace.SpanRecorder]) -> None:
        self.seed = seed
        self.n_ops = n_ops
        self.scratch = scratch
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self._digest = hashlib.sha256()
        #: name -> [(op index, raw seconds)]; calibrated by the harness.
        self.side: dict[str, list[tuple[int, float]]] = {}
        #: Extra exact figures for the per-layer table.
        self.facts: dict[str, float] = {}
        self.backend = None

    # -- helpers ---------------------------------------------------------------
    def sizes(self, count: int, *salt: int) -> np.ndarray:
        """``count`` request sizes, every size of ``M_MIN..M_MAX`` equally
        often, in an order drawn from the seed.  The mix belongs to the
        workload: were it drawn too, two seeds would differ in how much
        work they ask for (225 +- 13 six-node requests in 900), and the
        acceptance protocol would count that as noise."""
        rng = np.random.default_rng([self.seed, *salt])
        return rng.permutation(np.arange(count) % (M_MAX - M_MIN + 1) + M_MIN)

    def note(self, grant, counted: bool = True) -> bool:
        """Account one placement outcome; returns whether admitted."""
        if counted:
            self.attempted += 1
        if not grant.admitted:
            if counted:
                self.failed += 1
            return False
        if counted:
            nodes = ",".join(sorted(grant.selection.nodes))
            self._digest.update(f"{grant.app_id}:{nodes};".encode())
        return True

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            raise AssertionError(f"{self.name}: output check failed: {what}")

    # -- defaults --------------------------------------------------------------
    def counts(self) -> dict[str, float]:
        return service_counts([self.backend])

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()


def service_counts(services) -> dict[str, float]:
    """Exact counters summed over ``SelectionService`` objects, from
    ``metrics_snapshot()`` and the registry's kernel counters."""
    out: dict[str, float] = {}
    for svc in services:
        add_service_counts(out, svc.metrics_snapshot(),
                           svc.registry.dump_state())
    return out


_SNAPSHOT_KEYS = (
    "admitted", "released", "renewed", "expired", "view_rebuilds",
    "select_memo_hits", "cache_hits", "cache_misses",
)
_REGISTRY_KEYS = {
    "repro_kernel_peel_schedule_reuses_total": "schedule_reused",
    "repro_kernel_peel_schedule_adjusts_total": "schedule_adjusted",
    "repro_kernel_peel_schedule_builds_total": "schedule_builds",
    "repro_kernel_route_cache_hits_total": "route_hits",
    "repro_kernel_route_cache_misses_total": "route_misses",
}


def add_service_counts(out: dict, snapshot: dict, state: list) -> None:
    for key in _SNAPSHOT_KEYS:
        out[key] = out.get(key, 0) + snapshot.get(key, 0)
    stages = snapshot.get("stages", {})
    out["select_stage"] = (
        out.get("select_stage", 0) + stages.get("select", {}).get("count", 0)
    )
    for item in state:
        key = _REGISTRY_KEYS.get(item["name"])
        if key is not None:
            out[key] = out.get(key, 0) + item["value"]


# -- repeat_1k -----------------------------------------------------------------

class Repeat1k(Workload):
    """One durable service, the same request admitted and released over
    and over.  The claim state returns to the same fingerprint every
    cycle, so the selection memo hits and the kernel is bypassed: the
    ledger, the WAL and claim verification are the op.  Exists because
    the ROADMAP's stage table says the ledger, not the kernel, is the
    hot layer of a warm cycle — a ledger or WAL gain must show here."""

    name = "repeat_1k"
    ops = 12000
    per_slice = 60
    warmup = 20

    def steps(self) -> list[tuple[str, Callable[[], None]]]:
        return [("topology", self._topology), ("backend", self._backend),
                ("prefill", self._prefill)]

    def _topology(self) -> None:
        self.graph = build_graph(1000)

    def _backend(self) -> None:
        self.state_dir = self.scratch / "state"
        self.backend = SelectionService(
            self.graph, snapshot_ttl=1e9, lease_s=1e9, queue_limit=0,
            state_dir=str(self.state_dir), wal_fsync=False,
            wal_snapshot_every=256,
        )
        if self.rec is not None:
            trace.install_service(self.rec, self.backend)

    def _prefill(self) -> None:
        for i in range(2):
            grant = self.backend.request(
                f"hold-{i}", ApplicationSpec(num_nodes=3),
                cpu_fraction=0.2, bw_bps=2 * Mbps,
            )
            self.check(grant.admitted, f"standing tenant hold-{i} admitted")
        self.spec = ApplicationSpec(num_nodes=4)

    def op(self, i: int, counted: bool = True) -> tuple[float, int]:
        app = f"cycle-{self.seed}-{i}" if counted else f"warm-{i}"
        svc = self.backend
        t0 = perf_counter()
        grant = svc.request(app, self.spec, cpu_fraction=0.35,
                            bw_bps=3 * Mbps)
        if grant.admitted:
            svc.release(app)
        dt = perf_counter() - t0
        self.note(grant, counted)
        return dt, 1

    def counts(self) -> dict[str, float]:
        out = super().counts()
        wal = self.backend.wal
        out["wal_records"] = wal.appended
        out["wal_snapshots"] = wal.snapshots
        return out

    def finish(self) -> None:
        svc = self.backend
        svc.check_invariants()
        replayed = ReservationLedger.recover(str(self.state_dir))
        self.check(
            replayed.claims_fingerprint() == svc.ledger.claims_fingerprint(),
            "ledger == WAL replay",
        )
        self.check(sorted(replayed.reservations) == ["hold-0", "hold-1"],
                   "only the standing tenants hold leases")


# -- churn_1k ------------------------------------------------------------------

class Churn1k(Workload):
    """The same 1 000 hosts used the way tenants use them: sizes vary, a
    window of leases stays live, leases are renewed and the clock moves.
    The claim state never repeats, so the memo misses and the selection
    kernel is ~95 % of the op.  The bypass partner of ``repeat_1k``: a
    ledger gain must show nothing here, a kernel gain everything."""

    name = "churn_1k"
    ops = 900
    per_slice = 5
    warmup = 20

    def steps(self):
        return [("topology", self._topology), ("backend", self._backend)]

    def _topology(self) -> None:
        self.graph = build_graph(1000)

    def _backend(self) -> None:
        self.backend = SelectionService(
            self.graph, snapshot_ttl=1e9, lease_s=60.0, queue_limit=0,
        )
        if self.rec is not None:
            trace.install_service(self.rec, self.backend)
        self.live: list[str] = []
        self.size = self.sizes(self.n_ops, 1)
        self.warm_size = self.sizes(self.warmup, 2)

    def op(self, i: int, counted: bool = True) -> tuple[float, int]:
        svc = self.backend
        app = f"churn-{i}" if counted else f"warm-{i}"
        m = int(self.size[i] if counted else self.warm_size[i])
        spec = ApplicationSpec(num_nodes=m)
        t0 = perf_counter()
        grant = svc.request(app, spec, cpu_fraction=0.1, bw_bps=1 * Mbps)
        dt = perf_counter() - t0
        if self.note(grant, counted):
            self.live.append(app)
            if len(self.live) > LIVE_WINDOW:
                svc.release(self.live.pop(0))
        svc.renew(self.live[i % len(self.live)])
        if i % 16 == 15:
            svc.advance(1.0)
            svc.tick()
        return dt, 1

    def finish(self) -> None:
        svc = self.backend
        svc.check_invariants()
        self.check(svc.active_apps() == sorted(self.live),
                   "live leases are exactly the window")


# -- refresh_512 ---------------------------------------------------------------

class Refresh512(Workload):
    """The paper's measurement path.  A simulated cluster is polled by a
    ``Collector``; every op first lets a poll round complete, so the
    service's snapshot has gone stale and the request pays the
    ``RemosAPI.topology()`` sweep, a residual-view rebuild and a cold
    peel schedule before it commits.  The only workload in which
    ``remos.*``, ``service.cache`` misses and view rebuilds happen."""

    name = "refresh_512"
    ops = 300
    per_slice = 2
    warmup = 5

    def steps(self):
        return [("topology", self._topology), ("backend", self._backend),
                ("prefill", self._prefill)]

    def _topology(self) -> None:
        self.graph = build_graph(512)

    def _backend(self) -> None:
        self.sim = Simulator()
        self.cluster = Cluster(self.sim, self.graph)
        self.collector = Collector(self.cluster, period=5.0)
        self.api = RemosAPI(self.collector)
        self.backend = SelectionService(
            self.api, snapshot_ttl=5.0, lease_s=120.0, queue_limit=0,
        )
        if self.rec is not None:
            trace.install_service(self.rec, self.backend)
            self.rec.wrap(self.api, "topology", "remos.api")
            # The collector's poll rounds run inside the simulator; the
            # benchmark's call into that layer is the advance itself.
            self.rec.wrap(self.sim, "run", "remos.collector")
        self.live: list[str] = []
        self.size = self.sizes(self.n_ops, 1)
        self.warm_size = self.sizes(self.warmup, 2)

    def _prefill(self) -> None:
        # Standing background activity, so that what the collector
        # measures is not an idle network (part of the pinned topology).
        rng = np.random.default_rng([TOPOLOGY_SEED, 3])
        hosts = sorted(self.cluster.hosts)
        for name in rng.choice(hosts, size=48, replace=False):
            self.cluster.compute(str(name), 1e15)
        for _ in range(16):
            src, dst = rng.choice(hosts, size=2, replace=False)
            self.cluster.transfer(str(src), str(dst), 1e9 * MB)
        self.sim.run(until=self.sim.now + 12.0)

    def op(self, i: int, counted: bool = True) -> tuple[float, int]:
        svc = self.backend
        app = f"fresh-{i}" if counted else f"warm-{i}"
        m = int(self.size[i] if counted else self.warm_size[i])
        spec = ApplicationSpec(num_nodes=m)
        t0 = perf_counter()
        self.sim.run(until=self.sim.now + 6.0)
        grant = svc.request(app, spec, cpu_fraction=0.1, bw_bps=1 * Mbps)
        dt = perf_counter() - t0
        if self.note(grant, counted):
            self.live.append(app)
            if len(self.live) > LIVE_WINDOW:
                svc.release(self.live.pop(0))
        svc.renew(self.live[i % len(self.live)])
        return dt, 1

    def counts(self) -> dict[str, float]:
        out = super().counts()
        out["polls"] = self.collector.polls_completed
        out["sweeps"] = self.api.topology_sweeps
        return out

    def finish(self) -> None:
        svc = self.backend
        svc.check_invariants()
        self.check(svc.active_apps() == sorted(self.live),
                   "live leases are exactly the window")


# -- the two router workloads --------------------------------------------------

class _Router(Workload):
    hosts = 10000
    shards = 16
    executor = "inproc"

    def steps(self):
        return [("topology", self._topology), ("partition", self._partition),
                ("backend", self._backend)]

    def _topology(self) -> None:
        self.graph = build_graph(self.hosts)

    def _partition(self) -> None:
        self.plan = partition_topology(self.graph, self.shards)
        self.facts["trunk_links"] = len(self.plan.trunk_keys)

    def make_router(self, executor: str) -> ShardRouter:
        kwargs = {"executor": "process", "workers": POOL_WORKERS} \
            if executor == "process" else {}
        return ShardRouter(
            self.graph, shards=self.shards, plan=self.plan,
            snapshot_ttl=1e9, lease_s=1e9, **kwargs,
        )

    def _backend(self) -> None:
        self.backend = self.make_router(self.executor)
        if self.rec is not None:
            trace.install_router(self.rec, self.backend)

    def counts(self) -> dict[str, float]:
        router = self.backend
        out: dict[str, float] = {}
        if router.pool is None:
            out = service_counts(router.services)
        else:
            for shard in range(router.k):
                add_service_counts(
                    out,
                    router.pool.call(shard, "metrics_snapshot"),
                    router.pool.call(shard, "metrics_state"),
                )
        # Routing outcomes are the router's own counters.
        snap = router.metrics_snapshot()
        for key in ("routed_local", "routed_cross"):
            out[key] = snap[key]
        return out

    def release_all(self, apps) -> None:
        router = self.backend
        router.check_invariants()
        for app in apps:
            router.release(app)
        router.check_invariants()
        self.check(router.trunk.active == 0,
                   "no trunk claim outlives release-all")
        self.check(router.active_apps() == [],
                   "no composite outlives release-all")


class Sharded10k(_Router):
    """An in-process 16-shard router over 10 000 hosts, serial requests
    (the ``bench_sharded.py`` stream: every 7th asks for ``spread=2``
    with a bandwidth claim over the trunk).  The median lands on the
    local path — router + one shard's service — and the 95th percentile
    on the cross-shard path: probe plan, trunk reserve, two commits."""

    name = "sharded_10k"
    ops = 10000
    per_slice = 70
    warmup = 70
    CROSS_EVERY = 7

    def _backend(self) -> None:
        super()._backend()
        self.live: list[str] = []
        # The two paths draw from separate streams, so that each sees
        # every size equally often.
        self.cross = (np.arange(self.n_ops) % self.CROSS_EVERY
                      == self.CROSS_EVERY - 1)
        self.size = np.empty(self.n_ops, dtype=int)
        self.size[self.cross] = self.sizes(int(self.cross.sum()), 1)
        self.size[~self.cross] = self.sizes(int((~self.cross).sum()), 2)
        self.warm_size = self.sizes(self.warmup, 3)

    def op(self, i: int, counted: bool = True) -> tuple[float, int]:
        router = self.backend
        app = f"app-{i}" if counted else f"warm-{i}"
        m = int(self.size[i] if counted else self.warm_size[i])
        cross = bool(self.cross[i])
        t0 = perf_counter()
        grant = router.request(
            app, ApplicationSpec(num_nodes=m), cpu_fraction=0.1,
            bw_bps=0.5 * Mbps if cross else 0.0, spread=2 if cross else 1,
        )
        dt = perf_counter() - t0
        if self.note(grant, counted):
            self.live.append(app)
            if len(self.live) > LIVE_WINDOW:
                router.release(self.live.pop(0))
            if counted:
                path = "cross" if grant.cross_shard else "local"
                self.side.setdefault(path, []).append((i, dt))
        return dt, 1

    def finish(self) -> None:
        self.release_all(self.live)


class Workers10k(_Router):
    """The same router with its shards in two worker processes, driven
    in waves: one ``admit_batch`` of 32, one ``spread=2`` request, and
    the release of the previous wave.  The same router layer used
    differently — batch scatter-gather over pipes instead of serial
    in-process calls — so an RPC or encoding gain shows here and nowhere
    else, and a router change that helps serial requests but hurts
    batches shows here as a regression."""

    name = "workers_10k"
    executor = "process"
    cal_procs = POOL_WORKERS
    ops = 200
    per_slice = 1
    warmup = 2
    BATCH = 32
    #: A batch element counts as one placement; plus the cross request.
    placements_per_op = BATCH + 1
    #: Waves of the same stream driven through an in-process router for
    #: the same-run A/B arm (traced runs only).
    AB_WAVES = 24

    def _backend(self) -> None:
        super()._backend()
        self.prev: list[str] = []
        # Every wave asks for the same sizes, in its own order.
        self.size = [self.sizes(self.BATCH, 1, w) for w in range(self.n_ops)]
        self.warm_size = [self.sizes(self.BATCH, 2, w)
                          for w in range(self.warmup)]

    def wave(self, router, tag: str, sizes, prev: list[str],
             counted: bool) -> tuple[float, list[str], float]:
        t0 = perf_counter()
        grants = router.admit_batch([
            BatchRequest(app_id=f"{tag}-{j}",
                         spec=ApplicationSpec(num_nodes=int(m)),
                         cpu_fraction=0.1)
            for j, m in enumerate(sizes)
        ])
        t1 = perf_counter()
        cross = router.request(
            f"{tag}-x", ApplicationSpec(num_nodes=M_MAX), cpu_fraction=0.1,
            bw_bps=0.5 * Mbps, spread=2,
        )
        t2 = perf_counter()
        live = [g.app_id for g in grants + [cross] if self.note(g, counted)]
        for app in prev:
            router.release(app)
        return perf_counter() - t0, live, t2 - t1

    def op(self, i: int, counted: bool = True) -> tuple[float, int]:
        tag = f"wave{i}" if counted else f"warm{i}"
        sizes = self.size[i] if counted else self.warm_size[i]
        dt, self.prev, cross_dt = self.wave(
            self.backend, tag, sizes, self.prev, counted)
        if counted:
            self.side.setdefault("cross", []).append((i, cross_dt))
        return dt, self.placements_per_op

    def finish(self) -> None:
        self.release_all(self.prev)
        self.prev = []

    def inproc_arm(self) -> tuple[float, int]:
        """Raw seconds and placements for the first ``AB_WAVES`` waves
        of this run's stream through ``executor="inproc"`` (uncounted:
        the arm is a reference, not part of the workload's output)."""
        router = self.make_router("inproc")
        waves = min(self.AB_WAVES, self.n_ops)
        prev: list[str] = []
        for w in range(self.warmup):
            _, prev, _ = self.wave(router, f"ab-warm{w}", self.warm_size[w],
                                   prev, False)
        total = 0.0
        for w in range(waves):
            dt, prev, _ = self.wave(router, f"ab{w}", self.size[w], prev,
                                    False)
            total += dt
        router.close()
        return total, waves * self.placements_per_op


WORKLOADS = {
    cls.name: cls
    for cls in (Repeat1k, Churn1k, Refresh512, Sharded10k, Workers10k)
}
