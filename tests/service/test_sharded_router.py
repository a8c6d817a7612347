"""Tests for the shard router (service.sharding.router)."""

import os
import signal
from collections import deque

import numpy as np
import pytest

from repro.core.selector import NodeSelector
from repro.core.spec import ApplicationSpec, GroupSpec
from repro.service import Decision, PlacementGrant, ResidualView, ShardRouter
from repro.topology import dumbbell, random_tree, two_campus
from repro.units import Mbps

from ..oracles import PinnedNodes


def _router(**kwargs):
    kwargs.setdefault("shards", 2)
    return ShardRouter(two_campus(fast_hosts=6, slow_hosts=6), **kwargs)


def _all_fingerprints(router):
    return (
        [s.ledger.claims_fingerprint() for s in router.services],
        router.trunk.claims_fingerprint(),
    )


class TestLocalRouting:
    def test_small_request_stays_in_one_shard(self):
        r = _router()
        g = r.request("a", ApplicationSpec(num_nodes=3), cpu_fraction=0.3)
        assert g.admitted and not g.cross_shard
        shard = g.shards[0]
        assert set(g.selection.nodes) <= r.plan.shards[shard]
        assert r.metrics.routed_local == 1
        assert r.trunk.active == 0

    def test_load_spreads_across_shards(self):
        r = _router()
        shards_used = set()
        for i in range(4):
            g = r.request(f"a{i}", ApplicationSpec(num_nodes=2),
                          cpu_fraction=0.2)
            assert g.admitted
            shards_used.add(g.shards[0])
        assert len(shards_used) == 2  # headroom ordering alternates

    def test_duplicate_live_app_rejected(self):
        r = _router()
        r.request("a", ApplicationSpec(num_nodes=2))
        with pytest.raises(ValueError, match="live request"):
            r.request("a", ApplicationSpec(num_nodes=2))

    def test_infeasible_everywhere_rejected_not_queued(self):
        r = _router()
        g = r.request("big", ApplicationSpec(num_nodes=99))
        assert g.status == Decision.REJECTED
        assert r.metrics.queued == 0


class TestCrossShard:
    def test_split_when_no_shard_fits(self):
        r = _router()
        # 8 nodes cannot fit in either 6-host shard.
        g = r.request("wide", ApplicationSpec(num_nodes=8),
                      cpu_fraction=0.1, bw_bps=1 * Mbps)
        assert g.admitted and g.cross_shard
        assert len(g.selection.nodes) == 8
        assert g.selection.algorithm == "sharded"
        assert r.metrics.routed_cross == 1
        assert r.trunk.active == 1 and g.trunk is not None

    def test_spread_forces_fault_domains(self):
        r = _router()
        g = r.request("ha", ApplicationSpec(num_nodes=4), spread=2)
        assert g.admitted and len(g.shards) == 2
        for shard in g.shards:
            assert set(g.selection.nodes) & r.plan.shards[shard]

    def test_spread_without_bandwidth_skips_the_trunk(self):
        """A split with no bandwidth claim still gets its trunk record,
        naming its nodes, but the record claims no trunk channel."""
        r = _router()
        g = r.request("ha", ApplicationSpec(num_nodes=4), spread=2)
        assert g.admitted and g.trunk is not None
        assert g.trunk.edges == () and r.trunk.edge_claims() == {}
        assert set(r.trunk.reservations["ha"].nodes) == set(g.selection.nodes)
        r.check_invariants()
        r.release("ha")
        assert r.trunk.active == 0 and "ha" not in r.trunk.reservations
        r.check_invariants()

    def test_trunk_claimed_exactly_once_per_grant(self):
        r = _router()
        r.request("x", ApplicationSpec(num_nodes=4), bw_bps=2 * Mbps,
                  spread=2)
        assert r.trunk.active == 1
        assert len(r.trunk.reservations) == 1

    def test_unsplittable_specs_rejected(self):
        r = _router()
        spec = ApplicationSpec(groups=[
            GroupSpec(name="server", size=4),
            GroupSpec(name="client", size=4),
        ])
        g = r.request("grouped", spec, spread=2)
        assert g.status == Decision.REJECTED
        assert "plain fixed-size specs" in g.reason

    def test_cannot_spread_one_node(self):
        r = _router()
        g = r.request("tiny", ApplicationSpec(num_nodes=1), spread=2)
        assert g.status == Decision.REJECTED

    def test_spread_validation(self):
        r = _router()
        with pytest.raises(ValueError):
            r.request("a", ApplicationSpec(num_nodes=2), spread=0)


class TestAbortLeavesNoTrace:
    def test_trunk_rejection_is_bit_identical(self):
        r = ShardRouter(
            two_campus(fast_hosts=6, slow_hosts=6, wan_bw=5 * Mbps),
            shards=2,
        )
        r.request("small", ApplicationSpec(num_nodes=2), cpu_fraction=0.1)
        before = _all_fingerprints(r)
        # 8 Mbps fits both LANs (100 / 10 Mbps) but not the 5 Mbps WAN,
        # so the probe split succeeds and the trunk check refuses.
        g = r.request("starved", ApplicationSpec(num_nodes=4),
                      bw_bps=8 * Mbps, spread=2)
        assert g.status == Decision.REJECTED
        assert "trunk channel" in g.reason
        assert _all_fingerprints(r) == before
        assert r.metrics.trunk_rejections == 1
        r.check_invariants()

    def test_infeasible_split_is_bit_identical(self):
        r = _router()
        before = _all_fingerprints(r)
        g = r.request("huge", ApplicationSpec(num_nodes=50), spread=2)
        assert g.status == Decision.REJECTED
        assert _all_fingerprints(r) == before

    def test_release_returns_trunk_exactly(self):
        r = _router()
        before = _all_fingerprints(r)
        r.request("x", ApplicationSpec(num_nodes=4), cpu_fraction=0.2,
                  bw_bps=2 * Mbps, spread=2)
        r.release("x")
        assert _all_fingerprints(r) == before
        r.check_invariants()


    # The defensive commit rollback: every probe passed, a commit fails
    # all the same.  Unreachable while probes are sound, workers stay up
    # and shard logs can be written, so these tests break one of those
    # on purpose.
    @staticmethod
    def _four_shards_two_loaded(**kwargs):
        """Shards 1 and 3 hold one lease each; the one-host shards 0 and
        2 are empty, so a ``spread=2`` request splits over those two."""
        r = ShardRouter(
            two_campus(fast_hosts=8, slow_hosts=8), shards=4, **kwargs
        )
        for app in ("a1", "a3"):
            assert r.request(app, ApplicationSpec(num_nodes=2),
                             cpu_fraction=0.2, bw_bps=1 * Mbps).admitted
        assert r._sub_count == {0: 0, 1: 1, 2: 0, 3: 1}
        assert r._shard_order() == [0, 2, 1, 3]
        return r

    @staticmethod
    def _inproc_claims(r):
        return [
            (sorted(s.ledger.reservations), {
                key: value
                for part in s.ledger.claims_fingerprint()
                for key, value in part
            })
            for s in r.services
        ]

    @staticmethod
    def _assert_left_as_before(r, claims, before):
        for (held, claimed), (was_held, was_claimed) in zip(
            claims(), before[0]
        ):
            assert held == was_held
            # Slack-exact, as release() is.
            assert claimed == pytest.approx(was_claimed)
        assert r.trunk.claims_fingerprint() == before[1]
        assert r._sub_count == before[2]
        assert r.active_apps() == ["a1", "a3"]
        r.check_invariants()

    def _assert_aborted_without_trace(self, r, grant, claims, before):
        assert grant.status == Decision.REJECTED
        assert "cross-shard commit aborted" in grant.reason
        self._assert_left_as_before(r, claims, before)

    def test_refused_pinned_commit_rolls_back_every_part(self):
        r = self._four_shards_two_loaded()

        def claims():
            return self._inproc_claims(r)

        before = (claims(), r.trunk.claims_fingerprint(), dict(r._sub_count))
        commits = []
        for svc in r.services:
            # A spread=3 request sends ``request`` to a shard only to
            # commit a part.
            def request(app_id, *args, _real=svc.request, **kw):
                commits.append(app_id)
                if len(commits) == 2:  # the probe said yes; say no
                    return PlacementGrant(
                        app_id=app_id, status=Decision.REJECTED,
                        reason="refused for the test",
                    )
                return _real(app_id, *args, **kw)
            svc.request = request
        g = r.request("x", ApplicationSpec(num_nodes=3), cpu_fraction=0.2,
                      bw_bps=1 * Mbps, spread=3)
        # Every part is attempted, as under the pool; the two that
        # committed (before and after the refusal) are both released.
        assert commits == ["x@0", "x@2", "x@1"]
        self._assert_aborted_without_trace(r, g, claims, before)
        for svc in r.services:
            del svc.request
        assert r.request("y", ApplicationSpec(num_nodes=2), cpu_fraction=0.2,
                         bw_bps=1 * Mbps, spread=2).admitted
        r.check_invariants()

    def test_commit_error_gives_back_the_committed_part(self):
        """A commit reply that is an error but no refusal (a shard's
        write-ahead log failing) still propagates, but only once the
        part that did commit is given back: left leased, ``x@0`` would
        be a lease shard 0 holds and the router never counted."""
        r = self._four_shards_two_loaded()

        def claims():
            return self._inproc_claims(r)

        before = (claims(), r.trunk.claims_fingerprint(), dict(r._sub_count))
        failing = r.services[2]

        def request(*_args, **_kwargs):
            raise OSError("write-ahead log append failed")

        failing.request = request
        with pytest.raises(OSError, match="append failed"):
            r.request("x", ApplicationSpec(num_nodes=2), cpu_fraction=0.2,
                      bw_bps=1 * Mbps, spread=2)
        del failing.request
        self._assert_left_as_before(r, claims, before)
        assert r.request("y", ApplicationSpec(num_nodes=2), cpu_fraction=0.2,
                         bw_bps=1 * Mbps, spread=2).admitted
        r.check_invariants()

    def test_worker_death_mid_commit_rolls_back_the_surviving_part(self):
        r = self._four_shards_two_loaded(executor="process", workers=2)
        pool = r.pool
        victim = pool.worker_of(0)
        assert pool.worker_of(2) == victim  # both parts, one worker

        def claims():
            out = []
            for shard in range(4):
                snap = pool.call(shard, "metrics_snapshot")
                out.append((sorted(pool.call(shard, "reservation_map")), {
                    "channels": len(pool.call(shard, "edge_claims")),
                    "node_claim": snap["mean_node_claim"],
                    "edge_claim": snap["mean_edge_claim_fraction"],
                }))
            return out

        before = (claims(), r.trunk.claims_fingerprint(), dict(r._sub_count))
        real_send, commits = pool._send, []

        def send_then_kill(w, shard, op, args, kwargs, **kw):
            env = real_send(w, shard, op, args, kwargs, **kw)
            if op == "request":  # a commit: spread=2 sends no local one
                commits.append(args[0])
                if len(commits) == 1:
                    # Between the two sends of the commit fan-out: the
                    # second restarts the worker, so the first part's
                    # reply never comes and the second commits alone.
                    proc = w.proc
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.join(timeout=5.0)
            return env

        pool._send = send_then_kill
        try:
            g = r.request("x", ApplicationSpec(num_nodes=2),
                          cpu_fraction=0.2, bw_bps=1 * Mbps, spread=2)
        finally:
            del pool._send
        assert commits == ["x@0", "x@2"] and pool.restarts == 1
        self._assert_aborted_without_trace(r, g, claims, before)
        assert r.request("y", ApplicationSpec(num_nodes=2), cpu_fraction=0.2,
                         bw_bps=1 * Mbps, spread=2).admitted
        r.check_invariants()
        r.close()


class TestCommitIsTheShardsRequest:
    """A cross-shard part commits through its shard's own ``request``.
    Nothing moves a shard's claims between its probe and its commit, so
    the memo entry the probe filed answers: no kernel run, no route, no
    verify, no overlay read; a part admitted on any other node set
    aborts the commit."""

    SPEC = ApplicationSpec(num_nodes=4)
    CLAIM = {"cpu_fraction": 0.1, "bw_bps": 0.5 * Mbps, "spread": 2}

    @staticmethod
    def _sixteen_shards():
        graph = random_tree(
            128, 32, np.random.default_rng(0), bandwidth=100 * Mbps
        )
        return ShardRouter(graph, shards=16, lease_s=1e9)

    @staticmethod
    def _spy(r, monkeypatch):
        """Each shard's last probe answer, and the kernel runs and the
        overlay refreshes (per view) made inside a commit fan-out."""
        probed, seen = {}, {"select": 0, "apply_delta": {}}
        inside = []
        real_call, real_many = r._exec.call, r._exec.call_many

        def call(shard, op, *args, **kwargs):
            out = real_call(shard, op, *args, **kwargs)
            if op == "probe":
                probed[shard] = out
            return out

        def call_many(calls, **kwargs):
            inside.append(any(op != "release" for _, op, _, _ in calls))
            try:
                return real_many(calls, **kwargs)
            finally:
                inside.pop()

        select, apply_delta = NodeSelector.select, ResidualView.apply_delta

        def counted_select(self, *args, **kwargs):
            seen["select"] += bool(inside and inside[-1])
            return select(self, *args, **kwargs)

        def counted_apply_delta(view, reservation):
            if inside and inside[-1]:
                refreshes = seen["apply_delta"]
                refreshes[id(view)] = refreshes.get(id(view), 0) + 1
            return apply_delta(view, reservation)

        r._exec.call, r._exec.call_many = call, call_many
        monkeypatch.setattr(NodeSelector, "select", counted_select)
        monkeypatch.setattr(ResidualView, "apply_delta", counted_apply_delta)
        return probed, seen

    def test_each_part_is_a_memo_hit_on_the_probed_nodes(self, monkeypatch):
        r = self._sixteen_shards()
        probed, seen = self._spy(r, monkeypatch)
        for i in range(4):
            hits = [s.metrics.select_memo_hits for s in r.services]
            grant = r.request(f"x{i}", self.SPEC, **self.CLAIM)
            assert grant.admitted and len(grant.parts) == 2
            for shard, svc in enumerate(r.services):
                assert svc.metrics.select_memo_hits - hits[shard] == (
                    shard in grant.parts
                )
            for shard, sub in grant.parts.items():
                held = r.services[shard].ledger.reservations[sub].nodes
                assert sorted(held) == sorted(probed[shard].nodes)
            r.release(f"x{i}")
        assert seen["select"] == 0
        r.check_invariants()

    def test_the_commit_reads_no_overlay(self, monkeypatch):
        r = self._sixteen_shards()
        probed, seen = self._spy(r, monkeypatch)
        svc = r.services[0]

        def local(app):
            grant = r.request(app, ApplicationSpec(num_nodes=2),
                              cpu_fraction=0.1)
            assert grant.admitted and grant.shards == (0,)
            r.release(app)

        def cross(i):
            grant = r.request(f"x{i}", self.SPEC, **self.CLAIM)
            assert grant.admitted and 0 in grant.parts
            r.release(f"x{i}")

        local("l0")  # a memo miss: the overlay is read
        cross(0)  # the probes miss
        cross(1)  # the probes hit
        hits = svc.view.selection_hits
        local("l1")  # memo-answered: its grant waits unread
        assert svc.view.selection_hits == hits + 1
        assert svc.view.stale
        seen["apply_delta"].clear()
        cross(2)  # the probe and the commit hit on shard 0
        assert seen["apply_delta"].get(id(svc.view), 0) == 0
        assert svc.view.selection_hits == hits + 3
        assert seen["select"] == 0
        r.check_invariants()

    def test_a_part_on_another_set_aborts_the_commit(self, monkeypatch):
        """A claim lands on one shard between its probe and its commit:
        the part's request misses the memo and admits another set, so
        the commit aborts and gives every part back."""
        r = self._sixteen_shards()
        probed, _seen = self._spy(r, monkeypatch)
        trunk = r.trunk.claims_fingerprint()
        at_commit = {}
        spied_many = r._exec.call_many

        def intrude_then_commit(calls, **kwargs):
            if calls[0][1] != "release" and not at_commit:
                shard = calls[0][0]
                node = probed[shard].nodes[0]
                intruder = r.services[shard].request(
                    "intruder",
                    ApplicationSpec(num_nodes=1, eligible=PinnedNodes([node])),
                    cpu_fraction=0.95,
                )
                assert intruder.admitted
                at_commit["shard"] = shard
                at_commit["claims"] = [
                    s.ledger.claims_fingerprint() for s in r.services
                ]
            return spied_many(calls, **kwargs)

        r._exec.call_many = intrude_then_commit
        grant = r.request("x", self.SPEC, **self.CLAIM)
        del r._exec.call_many
        assert grant.status == Decision.REJECTED
        assert "another set" in grant.reason
        assert [s.ledger.claims_fingerprint() for s in r.services] == \
            at_commit["claims"]
        assert r.trunk.claims_fingerprint() == trunk
        assert r.active_apps() == [] and set(r._sub_count.values()) == {0}
        r.services[at_commit["shard"]].release("intruder")
        r.check_invariants()
        assert r.request("y", self.SPEC, **self.CLAIM).admitted


class TestLifecycle:
    def test_release_unknown_app_raises(self):
        r = _router()
        with pytest.raises(KeyError):
            r.release("ghost")

    def test_renew_extends_all_parts(self):
        r = _router(lease_s=10.0)
        r.request("x", ApplicationSpec(num_nodes=4), bw_bps=1 * Mbps,
                  spread=2)
        r.advance(8.0)
        r.renew("x")
        r.advance(8.0)  # t=16 < 8+10: still alive only if renewed
        assert "x" in r.active_apps()
        assert r.trunk.active == 1

    def test_expiry_reclaims_shards_and_trunk(self):
        r = _router(lease_s=10.0)
        r.request("x", ApplicationSpec(num_nodes=4), bw_bps=1 * Mbps,
                  spread=2)
        r.advance(11.0)
        assert r.status("x").status == Decision.EXPIRED
        assert r.trunk.active == 0
        assert all(s.ledger.active == 0 for s in r.services)
        assert r.metrics.expired == 1
        r.check_invariants()

    def test_status_tracks_outcomes(self):
        r = _router()
        r.request("x", ApplicationSpec(num_nodes=2))
        assert r.status("x").admitted
        r.release("x")
        assert r.status("x").status == Decision.RELEASED
        with pytest.raises(KeyError):
            r.status("never-seen")


class TestSharedCut:
    """Each in-process shard cuts the router snapshot without copying
    it: the cut holds the snapshot's own node and link objects, and
    nothing a shard writes (its overlay, a renewal, an expiry) reaches
    them."""

    def test_cut_holds_the_snapshot_objects(self):
        r = _router(shards=3)
        snap = r._snapshots.topology()
        for shard, service in enumerate(r.services):
            cut = service.cache.topology()
            assert cut.node_names() == [
                name for name in snap.node_names()
                if name in r.plan.shards[shard]
            ]
            for node in cut.nodes():
                assert node is snap.node(node.name)
            for key, link in cut._links.items():
                assert link is snap.link(link.u, link.v)
                assert key is link.key
            service.request("probe", ApplicationSpec(num_nodes=1))
            overlay = service._view.graph
            for node in overlay.nodes():
                assert node is not snap.node(node.name)
            for link in overlay.links():
                assert link is not snap.link(link.u, link.v)
                assert link.key is snap.link(link.u, link.v).key

    def test_mixed_history_leaves_the_snapshot_as_it_was(self):
        from repro.service.sharding.partition import graph_fingerprint

        r = _router(shards=3, lease_s=10.0)
        snap = r._snapshots.topology()
        before = graph_fingerprint(snap)
        rng = np.random.default_rng(7)
        live = []
        for i in range(200):
            op = rng.integers(4) if live else 0
            if op <= 1:
                spread = 1 if op == 0 else 2
                size = 2 + int(rng.integers(3))
                g = r.request(
                    f"a{i}", ApplicationSpec(num_nodes=size),
                    cpu_fraction=0.2, bw_bps=float(rng.integers(3)) * Mbps,
                    spread=spread,
                )
                if g.admitted:
                    live.append(g.app_id)
            elif op == 2:
                r.renew(live[int(rng.integers(len(live)))])
            else:
                r.release(live.pop(int(rng.integers(len(live)))))
            if i % 25 == 24:
                r.advance(6.0)  # some leases lapse
                live = [app for app in live if app in r.active_apps()]
            r.check_invariants()
        assert r._snapshots.topology() is snap
        assert graph_fingerprint(snap) == before
        assert r.metrics.routed_cross and r.metrics.routed_local
        assert r.metrics.expired and r.metrics.renewed


class TestSingleShardEquivalence:
    def test_one_shard_router_matches_plain_service(self):
        from repro.service import SelectionService
        g = two_campus(fast_hosts=6, slow_hosts=6)
        router = ShardRouter(g, shards=1)
        service = SelectionService(g, queue_limit=0)
        spec = ApplicationSpec(num_nodes=4)
        a = router.request("x", spec, cpu_fraction=0.25, bw_bps=1 * Mbps)
        b = service.request("x", spec, cpu_fraction=0.25, bw_bps=1 * Mbps)
        assert a.admitted and b.admitted
        assert a.selection.nodes == b.selection.nodes
        assert router.trunk.active == 0  # no trunk exists at k=1


class TestDurability:
    def test_composite_survives_restart(self, tmp_path):
        """One stream, ``close()``, reopen on the same ``state_dir`` —
        once per executor.  Both build their shard services through the
        one builder, so both recover the same books."""
        g = two_campus(fast_hosts=6, slow_hosts=6)

        def books(r):
            return (
                r.active_apps(),
                [r._exec.call(s, "reservation_map") for s in range(r.k)],
                r.trunk.claims_fingerprint(),
            )

        recovered = {}
        for executor in ("inproc", "process"):
            kwargs = dict(shards=2, executor=executor,
                          state_dir=str(tmp_path / executor))
            r1 = ShardRouter(g, **kwargs)
            r1.request("x", ApplicationSpec(num_nodes=4), cpu_fraction=0.2,
                       bw_bps=1 * Mbps, spread=2)
            for i in range(3):
                r1.request(f"app{i}", ApplicationSpec(num_nodes=2),
                           cpu_fraction=0.1)
            r1.release("app0")
            before = books(r1)
            fps = _all_fingerprints(r1) if executor == "inproc" else None
            nodes = sorted(r1.status("x").selection.nodes)
            r1.close()
            r2 = ShardRouter(g, **kwargs)
            assert r2.recovery is not None and r2.recovery.leases == 3
            got = r2.status("x")
            assert got.admitted and got.cross_shard
            assert sorted(got.selection.nodes) == nodes
            assert books(r2) == before
            if fps is not None:
                assert _all_fingerprints(r2) == fps
            # The recovered grant is fully operational.
            r2.renew("x")
            r2.release("x")
            r2.check_invariants()
            r2.close()
            recovered[executor] = before
        assert recovered["inproc"] == recovered["process"]

    def test_clock_fast_forwards_past_recovered_grants(self, tmp_path):
        state = str(tmp_path / "router")
        g = two_campus()
        r1 = ShardRouter(g, shards=2, state_dir=state)
        r1.advance(100.0)
        r1.request("x", ApplicationSpec(num_nodes=2))
        r1.close()
        r2 = ShardRouter(g, shards=2, state_dir=state)
        assert r2.now >= 100.0
        r2.close()


@pytest.mark.parametrize("executor", ["inproc", "process"])
class TestCrashBetweenShardAndTrunkStep:
    """The router stops between the shard step and the trunk step of a
    release or of a cross-shard commit (a ``KeyboardInterrupt`` out of
    the trunk ledger) and its directory is reopened without ``close()``.
    Recovery finishes the step, so shard and trunk books agree again."""

    SPEC = ApplicationSpec(num_nodes=4)
    CLAIM = {"cpu_fraction": 0.1, "bw_bps": 1 * Mbps, "spread": 2}

    @staticmethod
    def _open(state_dir, executor):
        workers = {"workers": 2} if executor == "process" else {}
        return ShardRouter(
            random_tree(200, 40, np.random.default_rng(0)), shards=4,
            state_dir=state_dir, lease_s=1e9, executor=executor, **workers,
        )

    @staticmethod
    def _crash_in(r, trunk_method, step):
        def interrupted(*_args, **_kwargs):
            raise KeyboardInterrupt

        setattr(r.trunk, trunk_method, interrupted)
        with pytest.raises(KeyboardInterrupt):
            step()
        if r.pool is not None:
            # The shard workers stop with the router; stopping them
            # writes nothing their logs do not already hold.
            r.pool.close()

    @staticmethod
    def _assert_books_empty(r):
        assert r.active_apps() == []
        assert [r._exec.call(s, "reservation_map") for s in range(r.k)] == [
            {}, {}, {}, {},
        ]
        assert r.trunk.active == 0 and r.trunk.edge_claims() == {}
        r.check_invariants()

    def test_crash_in_release_evicts_the_orphan_trunk_claim(
        self, tmp_path, executor
    ):
        r = self._open(str(tmp_path), executor)
        grant = r.request("x", self.SPEC, **self.CLAIM)
        assert grant.admitted and grant.trunk is not None
        self._crash_in(r, "release", lambda: r.release("x"))
        r2 = self._open(str(tmp_path), executor)
        try:
            # Without the eviction the trunk kept x's claims on every
            # boundary channel until the lease ran out.
            self._assert_books_empty(r2)
        finally:
            r2.close()

    def test_crash_in_commit_evicts_the_unanswered_parts(
        self, tmp_path, executor
    ):
        r = self._open(str(tmp_path), executor)
        real_call_many = r._exec.call_many

        def first_part_then_crash(calls, **kwargs):
            if calls and calls[0][1] == "request":
                # The record and the first part land; the router dies
                # before the second part is sent.
                assert [kind for kind, _ in real_call_many(calls[:1])] == [
                    "ok"
                ]
                raise KeyboardInterrupt
            return real_call_many(calls, **kwargs)

        r._exec.call_many = first_part_then_crash
        with pytest.raises(KeyboardInterrupt):
            r.request("y", self.SPEC, **self.CLAIM)
        assert "y" in r.trunk.reservations
        if r.pool is not None:
            r.pool.close()
        r2 = self._open(str(tmp_path), executor)
        try:
            # Without the eviction y came back ADMITTED as a one-part
            # composite holding half the nodes its record names.
            self._assert_books_empty(r2)
            again = r2.request("y", self.SPEC, **self.CLAIM)
            assert again.admitted and again.trunk is not None
            r2.check_invariants()
        finally:
            r2.close()


class TestMetrics:
    def test_snapshot_extends_frozen_schema(self):
        r = _router()
        r.request("a", ApplicationSpec(num_nodes=2))
        r.request("b", ApplicationSpec(num_nodes=4), spread=2)
        snap = r.metrics_snapshot()
        assert snap["routed_local"] == 1
        assert snap["routed_cross"] == 1
        assert snap["shard_count"] == 2
        assert snap["cross_shard_fraction"] == 0.5
        assert set(snap["per_shard"]) == {"0", "1"}
        for stats in snap["per_shard"].values():
            assert set(stats) == {
                "requests", "admitted", "rejected", "active_leases", "stages",
                "hosts",
            }

    def test_registry_exposition_includes_shard_family(self):
        r = _router()
        r.request("a", ApplicationSpec(num_nodes=2))
        text = r.registry.expose_text()
        assert "repro_shard_count 2" in text
        assert 'repro_shard_hosts{shard="0"}' in text
        assert "repro_shard_routed_local_total 1" in text


@pytest.mark.parametrize("executor", ["inproc", "process"])
def test_router_keeps_no_per_request_books(executor):
    """Admit/release cycles with fresh ``app_id``s and distinct node
    sets leave every container on the router at its warm size: only
    ``outcomes`` (the standing answer per application) remembers them."""
    r = _router(executor=executor)

    def cycle(i):
        local = r.request(f"l{i}", ApplicationSpec(num_nodes=2 + i % 4),
                          cpu_fraction=0.1)
        cross = r.request(f"x{i}", ApplicationSpec(num_nodes=2 + i % 5),
                          cpu_fraction=0.1, bw_bps=1 * Mbps, spread=2)
        assert local.admitted and cross.admitted and cross.trunk is not None
        r.release(f"l{i}")
        r.release(f"x{i}")

    def sizes():
        return {
            name: len(value) for name, value in vars(r).items()
            if isinstance(value, (dict, list, set, deque))
            and name != "outcomes"
        }

    cycle(0)
    warm = sizes()
    assert {"_active", "_sub_count"} <= set(warm)
    for i in range(1, 201):
        cycle(i)
    assert sizes() == warm
    assert len(r.outcomes) == 402
    r.check_invariants()
    r.close()


class TestAdvanceGuards:
    def test_advance_requires_manual_clock(self):
        calls = [0.0]
        r = ShardRouter(dumbbell(3, 3), shards=2,
                        clock=lambda: calls[0])
        with pytest.raises(RuntimeError, match="manual clock"):
            r.advance(1.0)

    def test_negative_advance_rejected(self):
        r = _router()
        with pytest.raises(ValueError):
            r.advance(-1.0)
