"""Tests for the process worker pool (service.sharding.workers).

The executor contract: ``executor="process"`` is a drop-in data plane —
bit-identical grants for a serial stream at any worker count, durable
crash recovery through the per-shard WALs, and clean reaping of leases
a non-durable crash genuinely lost.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.spec import ApplicationSpec
from repro.service import (
    BatchRequest,
    Decision,
    ShardRouter,
    WorkerCrashError,
    partition_topology,
)
from repro.service.sharding.workers import _MAX_UNACKED
from repro.topology import random_tree, two_campus
from repro.units import Mbps

from ..oracles import PinnedNodes


def _graph():
    return two_campus(fast_hosts=6, slow_hosts=6)


def _router(**kwargs):
    kwargs.setdefault("shards", 2)
    return ShardRouter(_graph(), **kwargs)


def _pool_router(**kwargs):
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("executor", "process")
    return ShardRouter(_graph(), **kwargs)


def _outcome(grant):
    return (
        grant.status,
        tuple(grant.selection.nodes) if grant.selection else None,
        grant.shards,
    )


def _drive(router, n=20):
    """A deterministic mixed stream; returns every grant's outcome."""
    out = []
    for i in range(n):
        spread = 2 if i % 5 == 4 else 1
        g = router.request(
            f"app{i}", ApplicationSpec(num_nodes=2 + i % 3),
            cpu_fraction=0.15,
            bw_bps=(2 * Mbps if spread == 2 else 0.0),
            spread=spread,
        )
        out.append(_outcome(g))
        if i % 4 == 3 and g.admitted:
            out.append(_outcome(router.release(f"app{i}")))
        router.advance(1.0)
    router.check_invariants()
    return out


_HEAVY_WAVE = 6


def _wave_graph():
    rng = np.random.default_rng(7)
    g = random_tree(400, 80, rng, bandwidth=100 * Mbps)
    for node in g.compute_nodes():
        node.load_average = float(rng.uniform(0, 0.5))
    return g


def _drive_waves(router, waves=12):
    """``admit_batch`` of 32 (sizes 3..6), one ``spread=2`` request with
    a trunk claim, release of the previous wave.  Wave ``_HEAVY_WAVE``
    claims whole nodes and adds one request wider than any shard."""
    rng = np.random.default_rng(11)
    out, prev = [], []
    for w in range(waves):
        heavy = w == _HEAVY_WAVE
        batch = [
            BatchRequest(app_id=f"w{w}-{j}",
                         spec=ApplicationSpec(num_nodes=int(m)),
                         cpu_fraction=0.6 if heavy else 0.1)
            for j, m in enumerate(rng.integers(3, 7, size=32))
        ]
        if heavy:
            batch.append(BatchRequest(
                app_id=f"w{w}-wide", spec=ApplicationSpec(num_nodes=140),
                cpu_fraction=0.1,
            ))
        grants = router.admit_batch(batch)
        grants.append(router.request(
            f"w{w}-x", ApplicationSpec(num_nodes=6), cpu_fraction=0.1,
            bw_bps=0.5 * Mbps, spread=2,
        ))
        out.extend(
            (g.app_id, g.status,
             tuple(g.selection.nodes) if g.selection else None, g.shards)
            for g in grants
        )
        for app in prev:
            router.release(app)
        prev = [g.app_id for g in grants if g.admitted]
    router.check_invariants()
    for app in prev:
        router.release(app)
    router.check_invariants()
    assert router.trunk.active == 0 and router.active_apps() == []
    return out


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_process_matches_inproc(self, workers):
        r_in = _router()
        expected = _drive(r_in)
        r_in.close()
        r_pool = _pool_router(workers=workers)
        assert _drive(r_pool) == expected
        r_pool.close()

    def test_admit_batch_waves_match_inproc(self):
        """The ``workers_10k`` wave shape: the batch path grants what
        ``executor="inproc"`` grants, field for field, at any worker
        count — including where the waterfall leaves the first shard."""
        graph = _wave_graph()
        r_in = ShardRouter(graph, shards=4, snapshot_ttl=1e9, lease_s=1e9)
        expected = _drive_waves(r_in)
        r_in.close()
        heavy = {
            app: shards for app, _status, _nodes, shards in expected
            if app.startswith(f"w{_HEAVY_WAVE}-") and not app.endswith("-x")
        }
        # The heavy batch overflows its first shard into a second one, and
        # the request no shard can host alone takes the serial fallback.
        assert len({s for s in heavy.values() if len(s) == 1}) >= 2
        assert len(heavy[f"w{_HEAVY_WAVE}-wide"]) == 2
        for workers in (1, 2):
            r_pool = ShardRouter(
                graph, shards=4, snapshot_ttl=1e9, lease_s=1e9,
                executor="process", workers=workers,
            )
            assert _drive_waves(r_pool) == expected
            r_pool.close()


class TestValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            _router(executor="threads")

    def test_process_requires_static_provider(self):
        class LiveProvider:
            def topology(self):
                return _graph()

        with pytest.raises(ValueError, match="static TopologyGraph"):
            ShardRouter(LiveProvider(), shards=2, executor="process")

    def test_services_property_guarded(self):
        r = _pool_router()
        with pytest.raises(RuntimeError, match="remote"):
            r.services
        r.close()

    def test_removed_repartition_knobs_are_type_errors(self):
        """The plan is fixed for a router's life: nothing re-cuts it."""
        with pytest.raises(TypeError, match="repartition_threshold"):
            _router(repartition_threshold=0.1)
        with pytest.raises(TypeError, match="seed_offset"):
            partition_topology(_graph(), 2, seed_offset=1)

    def test_workers_without_the_process_executor_rejected(self):
        with pytest.raises(ValueError, match='executor="process"'):
            ShardRouter(_graph(), shards=2, workers=2)

    def test_workers_clamped_to_shard_count(self):
        r = _pool_router(workers=64)
        assert r.pool.workers == 2
        r.close()


class TestPool:
    def test_ping_and_pids(self):
        r = _pool_router(workers=2)
        assert r.pool.ping() == {0: True, 1: True}
        pids = r.pool.pids()
        assert len(set(pids.values())) == 2
        assert all(pid != os.getpid() for pid in pids.values())
        r.close()

    def test_ping_reports_killed_worker_then_recovers(self):
        r = _pool_router(workers=2)
        victim = r.pool.worker_of(0)
        os.kill(r.pool.pids()[victim], signal.SIGKILL)
        time.sleep(0.1)
        health = r.pool.ping()
        assert health[victim] is False
        assert r.pool.ping()[victim] is True  # restarted in place
        assert r.pool.restarts == 1
        r.close()

    def test_close_idempotent_and_call_after_close_raises(self):
        r = _pool_router()
        pool = r.pool
        r.close()
        r.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.call(0, "ping")

    def test_worker_error_propagates_without_crash(self):
        r = _pool_router()
        with pytest.raises(KeyError, match="unknown application"):
            r.status("ghost")
        # Shard-service errors cross the pipe as exceptions, not crashes.
        assert r.pool.restarts == 0
        r.close()

    def test_metrics_snapshot_merges_worker_stats(self):
        r = _pool_router(workers=2)
        g = r.request("a", ApplicationSpec(num_nodes=2), cpu_fraction=0.1)
        assert g.admitted
        snap = r.metrics_snapshot()
        assert snap["workers"] == 2
        assert snap["worker_restarts"] == 0
        per_shard = snap["per_shard"]
        assert set(per_shard) == {"0", "1"}
        assert sum(s["active_leases"] for s in per_shard.values()) == 1
        assert all("stages" in s and "worker" in s
                   for s in per_shard.values())
        r.close()
        # Post-shutdown snapshots serve the harvested figures.
        assert r.metrics_snapshot()["per_shard"] == per_shard

    def test_registry_exports_pool_gauges(self):
        r = _pool_router()
        text = r.registry.expose_text()
        assert "repro_shard_workers 2" in text
        assert "repro_shard_worker_restarts_total 0" in text
        r.close()


def _bounded(fn, timeout=30.0):
    """Run ``fn`` on a daemon thread; its result, or fail if it hangs."""
    done = []
    thread = threading.Thread(target=lambda: done.append(fn()), daemon=True)
    thread.start()
    thread.join(timeout=timeout)
    assert done, f"still blocked after {timeout:g} s"
    return done[0]


def _kill(router, worker):
    proc = router.pool._procs[worker].proc
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=5.0)
    assert not proc.is_alive()


class TestProtocol:
    def test_call_many_survives_death_between_two_sends(self):
        """The second send restarts the worker; the first send's reply
        belongs to the dead incarnation and must not be waited for."""
        r = _pool_router(shards=4, workers=2)
        pool = r.pool
        victim = pool.worker_of(0)
        assert pool.worker_of(2) == victim
        old_pid = pool.pids()[victim]
        real_send, sends = pool._send, []

        def send_then_kill(w, shard, *args, **kwargs):
            out = real_send(w, shard, *args, **kwargs)
            sends.append(shard)
            if sends == [0]:
                _kill(r, victim)
            return out

        pool._send = send_then_kill
        (kind0, err), (kind2, pid) = _bounded(lambda: pool.call_many(
            [(0, "ping", (), {}), (2, "ping", (), {})]
        ))
        del pool._send
        assert kind0 == "err" and isinstance(err, WorkerCrashError)
        assert kind2 == "ok" and pid == pool.pids()[victim] != old_pid
        assert pool.restarts == 1
        r.close()

    def test_posting_past_the_bound_does_not_deadlock(self):
        r = _pool_router(shards=2, workers=1)
        pool = r.pool
        ghosts = [(0, "release", (f"ghost{i}@0",), {}) for i in range(4000)]
        assert _bounded(
            lambda: pool.call_many(ghosts, wait=False)
        ) == []
        assert 0 < len(pool._procs[0].unacked) <= _MAX_UNACKED
        pool.drain()  # every ack was KeyError: "not held" is not an error
        assert not pool._procs[0].unacked
        r.check_invariants()
        r.close()

    def test_only_idempotent_ops_can_be_posted(self):
        r = _pool_router()
        with pytest.raises(ValueError, match="can be posted"):
            r.pool.call_many([(0, "tick", (), {})], wait=False)
        r.close()

    def test_posted_error_ack_surfaces_at_the_next_drain(self):
        r = _pool_router(shards=2, workers=2)
        assert r.request("a", ApplicationSpec(num_nodes=2),
                         cpu_fraction=0.1).admitted
        r.pool.call_many(
            [(0, "release", ("a@0",), {"kind": "bogus"})], wait=False
        )
        # The request path reads the ack in passing and keeps going ...
        assert r.request("b", ApplicationSpec(num_nodes=2),
                         cpu_fraction=0.1).admitted
        # ... the drain raises it, once.
        with pytest.raises(ValueError, match="unknown release kind"):
            r.check_invariants()
        r.check_invariants()
        text = r.registry.expose_text()
        assert ('repro_shard_worker_errors_total{site="posted_ack"} 1'
                in text)
        assert ('repro_shard_worker_errors_total{shard="0",site="dispatch"} 1'
                in text)
        r.close()


class TestPostedReleasesUnderFailure:
    def _admit(self, router, n=6):
        for i in range(n):
            assert router.request(
                f"app{i}", ApplicationSpec(num_nodes=2), cpu_fraction=0.1,
                spread=2 if i % 3 == 0 else 1,
                bw_bps=2 * Mbps if i % 3 == 0 else 0.0,
            ).admitted

    @pytest.mark.parametrize("stopped", [True, False])
    def test_durable_restart_replays_posted_releases(self, tmp_path, stopped):
        """``stopped``: the worker never saw the releases (replay applies
        them); otherwise it logged them and died with the acks unread
        (replay finds them not held)."""
        r = _pool_router(shards=2, workers=2, state_dir=str(tmp_path))
        self._admit(r)
        victim = r.pool.worker_of(0)
        released = [a for a in r.active_apps()
                    if 0 in r.status(a).shards][:3]
        assert released
        if stopped:
            os.kill(r.pool.pids()[victim], signal.SIGSTOP)
        for app in released:
            r.release(app)
        if not stopped:
            time.sleep(0.3)
        assert r.pool._procs[victim].unacked
        _kill(r, victim)
        kept = set(r.active_apps())
        assert r.tick() == []
        assert r.pool.restarts == 1
        assert set(r.active_apps()) == kept and len(kept) == 6 - len(released)
        held = set(r.pool.call(0, "reservation_map"))
        assert not held & {f"{app}@0" for app in released}
        assert held == {f"{a}@0" for a in kept if 0 in r.status(a).shards}
        r.check_invariants()
        for app in sorted(kept):
            r.release(app)
        r.check_invariants()
        r.close()

    def test_nondurable_tick_reaps_exactly_the_lost_composites(self):
        r = _pool_router(shards=2, workers=2)
        self._admit(r)
        victim = r.pool.worker_of(0)
        on_victim = [a for a in r.active_apps() if 0 in r.status(a).shards]
        released, lost = on_victim[:2], on_victim[2:]
        assert released and lost and len(on_victim) < 6
        os.kill(r.pool.pids()[victim], signal.SIGSTOP)
        for app in released:
            r.release(app)
        _kill(r, victim)
        assert r.tick() == sorted(lost)
        assert set(r.active_apps()) == (
            {f"app{i}" for i in range(6)} - set(on_victim)
        )
        r.check_invariants()
        r.close()


class TestCrashRecovery:
    def test_durable_worker_kill_loses_no_committed_lease(self, tmp_path):
        r = _pool_router(shards=2, workers=2, state_dir=str(tmp_path))
        for i in range(6):
            g = r.request(f"app{i}", ApplicationSpec(num_nodes=2),
                          cpu_fraction=0.1,
                          spread=2 if i % 3 == 0 else 1,
                          bw_bps=2 * Mbps if i % 3 == 0 else 0.0)
            assert g.admitted
        before = set(r.active_apps())
        os.kill(r.pool.pids()[r.pool.worker_of(1)], signal.SIGKILL)
        time.sleep(0.1)
        # Mid-stream: traffic keeps flowing, the dead worker restarts
        # and recovers from its WAL on first contact.
        g = r.request("after", ApplicationSpec(num_nodes=2),
                      cpu_fraction=0.1)
        assert g.admitted
        r.tick()
        assert before <= set(r.active_apps())
        assert r.pool.restarts == 1
        r.check_invariants()
        # Recovered leases still release cleanly.
        for app in sorted(before):
            r.release(app)
        r.check_invariants()
        r.close()

    def test_nondurable_worker_kill_reaps_lost_composites(self):
        r = _pool_router(shards=2, workers=2)
        for i in range(4):
            g = r.request(f"app{i}", ApplicationSpec(num_nodes=4),
                          cpu_fraction=0.1, spread=2, bw_bps=Mbps)
            assert g.admitted
        os.kill(r.pool.pids()[r.pool.worker_of(0)], signal.SIGKILL)
        time.sleep(0.1)
        expired = r.tick()
        # Every composite touched shard 0; without a WAL those leases
        # are genuinely gone, so the composites expire rather than
        # dangle half-alive.
        assert expired == [f"app{i}" for i in range(4)]
        for app in expired:
            assert r.status(app).status == Decision.EXPIRED
        assert r.trunk.active == 0
        r.check_invariants()
        # The router keeps serving on the replacement worker.
        g = r.request("fresh", ApplicationSpec(num_nodes=2),
                      cpu_fraction=0.1)
        assert g.admitted
        r.close()

    @pytest.mark.parametrize("spread", [1, 2])
    def test_lost_reply_orphans_no_durable_sub_lease(self, tmp_path, spread):
        """The shard commits ``app@shard`` to its WAL, then its worker
        dies with the reply unread: the router answers REJECTED, so the
        lease the replacement recovers must be given back.  ``spread=1``
        loses the local path's reply, ``spread=2`` the first of the
        paired commits'."""
        r = _pool_router(shards=2, workers=2, state_dir=str(tmp_path),
                         lease_s=1e9)
        pool = r.pool
        trunk = r.trunk.claims_fingerprint()
        real_call, real_many = pool.call, pool.call_many
        lost = []

        def lose_reply(shard):
            _kill(r, pool.worker_of(shard))
            lost.append(shard)
            return WorkerCrashError(f"reply from shard {shard} lost")

        def call(shard, op, *args, **kwargs):
            out = real_call(shard, op, *args, **kwargs)
            if op == "admit":
                raise lose_reply(shard)
            return out

        def call_many(calls, **kwargs):
            replies = real_many(calls, **kwargs)
            if calls[0][1] == "admit":
                assert [kind for kind, _ in replies] == ["ok", "ok"]
                replies[0] = ("err", lose_reply(calls[0][0]))
            return replies

        def ask():
            return r.request("a", ApplicationSpec(num_nodes=2),
                             cpu_fraction=0.1, bw_bps=1 * Mbps, spread=spread)

        pool.call, pool.call_many = call, call_many
        try:
            grant = _bounded(ask)
        finally:
            del pool.call, pool.call_many
        assert grant.status == Decision.REJECTED and len(lost) == 1
        r.tick()
        r.check_invariants()
        assert pool.restarts == 1
        assert [pool.call(s, "reservation_map") for s in range(2)] == [{}, {}]
        assert r._sub_count == {0: 0, 1: 0}
        assert r.trunk.claims_fingerprint() == trunk
        assert ask().admitted
        r.check_invariants()
        r.close()

    def test_router_restart_recovers_from_worker_wals(self, tmp_path):
        r = _pool_router(shards=2, workers=2, state_dir=str(tmp_path))
        for i in range(4):
            assert r.request(f"app{i}", ApplicationSpec(num_nodes=2),
                             cpu_fraction=0.1).admitted
        r.release("app0")
        active = set(r.active_apps())
        r.close()
        r2 = _pool_router(shards=2, workers=1, state_dir=str(tmp_path))
        assert set(r2.active_apps()) == active
        assert r2.recovery is not None and r2.recovery.leases == 3
        r2.check_invariants()
        r2.release("app1")
        r2.check_invariants()
        r2.close()


class TestPinnedNodes:
    def test_predicate_and_repr(self):
        pin = PinnedNodes(frozenset({"b", "a"}))

        class N:
            def __init__(self, name):
                self.name = name

        assert pin(N("a")) and not pin(N("c"))
        assert repr(pin) == "PinnedNodes(['a', 'b'])"

    def test_picklable(self):
        import pickle

        pin = PinnedNodes(frozenset({"x"}))
        again = pickle.loads(pickle.dumps(pin))
        assert again.names == frozenset({"x"})
