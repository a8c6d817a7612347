"""The O(Δ) residual overlay, epoch memoization, and stage profiling.

Covers the hot-path overhaul end to end: overlay/rebuild bit-identity
through the full lease lifecycle, base-value restoration on release,
tolerance of claims on absent resources, incremental-vs-naive service
equivalence, view re-base versus rebuild on snapshot-epoch moves, the
heap-driven lazy-deletion expiry, the residual-epoch drain gate, and the per-stage
latency timers surfaced by ``ServiceMetrics``.
"""

import pytest

from repro.core import ApplicationSpec
from repro.core.kernel import peel_order
from repro.core.metrics import DEFAULT_REFERENCES
from repro.core.types import Selection
from repro.des import Simulator
from repro.faults import FaultInjector
from repro.network import Cluster
from repro.remos import Collector, RemosAPI
from repro.service import (
    PeelScheduleCache,
    ReservationLedger,
    ResidualView,
    RouteCache,
    SelectionService,
    ServiceMetrics,
    ShardRouter,
)
from repro.service.admission import SelectionRequest
from repro.service.ledger import ledger_order
from repro.topology import dumbbell, grid, star
from repro.topology.graph import MAXBW_SLACK
from repro.topology.residual import residual_graph
from repro.units import Mbps

from ..oracles import naive_rebuild_service


def spec(n=2):
    return ApplicationSpec(num_nodes=n)


@pytest.fixture
def rig():
    """A dumbbell snapshot with a subscribed ledger + overlay."""
    g = dumbbell(4, 4)
    ledger = ReservationLedger()
    view = ResidualView(g, ledger)
    ledger.subscribe(view.on_ledger_event)
    return g, ledger, view


class TestResidualViewOverlay:
    def test_grant_debits_in_place(self, rig):
        g, ledger, view = rig
        r = ledger.reserve(
            "a", ["l0", "l1"], cpu_fraction=0.5, bw_bps=10 * Mbps,
            graph=g, now=0.0, lease_s=60.0,
        )
        assert view.deltas == 1
        for name in r.nodes:
            assert view.graph.node(name).cpu == pytest.approx(0.5)
        for key, dst in r.edges:
            base = g.link(*tuple(key)).available_towards(dst)
            assert view.graph.link(*tuple(key)).available_towards(dst) == (
                base - 10 * Mbps
            )
        view.assert_matches_rebuild()

    def test_a_deadline_move_is_not_a_claim_move(self, rig):
        """``renew`` and ``clamp_expiry`` move ``expires_at`` and nothing
        the overlay mirrors: no delta, no node marked for re-keying."""
        g, ledger, view = rig
        ledger.reserve(
            "a", ["l0", "r1"], cpu_fraction=0.25, bw_bps=5 * Mbps,
            graph=g, now=0.0, lease_s=60.0,
        )
        view.ranking.keys(view.ranking.refs)  # re-keyed: nothing dirty
        ledger.renew("a", 10.0, 60.0)
        ledger.clamp_expiry("a", 30.0)
        assert ledger.reservations["a"].expires_at == 30.0
        assert view.deltas == 1 and not view.ranking._dirty
        view.assert_matches_rebuild()
        ledger.expire(31.0)
        assert view.deltas == 2
        view.assert_matches_rebuild()

    def test_release_restores_base_values_exactly(self, rig):
        g, ledger, view = rig
        ledger.reserve(
            "a", ["l0", "r0"], cpu_fraction=0.37, bw_bps=7 * Mbps,
            graph=g, now=0.0, lease_s=60.0,
        )
        ledger.release("a")
        # Bit-exact restoration, not approximate: untouched claims
        # recompute from base, never accumulate float drift.
        for node in g.nodes():
            assert view.graph.node(node.name).load_average == (
                node.load_average
            )
        for link in g.links():
            mine = view.graph.link(link.u, link.v)
            assert mine.available_fwd == link.available_fwd
            assert mine.available_rev == link.available_rev
        view.assert_matches_rebuild()

    def test_overlapping_claims_recompute_from_totals(self, rig):
        g, ledger, view = rig
        ledger.reserve("a", ["l0"], cpu_fraction=0.3, bw_bps=0.0,
                       graph=g, now=0.0, lease_s=60.0)
        ledger.reserve("b", ["l0"], cpu_fraction=0.25, bw_bps=0.0,
                       graph=g, now=0.0, lease_s=60.0)
        assert view.graph.node("l0").cpu == pytest.approx(0.45)
        ledger.release("a")
        view.assert_matches_rebuild()
        ledger.release("b")
        view.assert_matches_rebuild()

    def test_expiry_and_eviction_flow_through_subscription(self, rig):
        g, ledger, view = rig
        ledger.reserve("a", ["l0"], cpu_fraction=0.6, bw_bps=0.0,
                       graph=g, now=0.0, lease_s=5.0)
        ledger.expire(10.0)
        assert ledger.active == 0
        assert view.graph.node("l0").load_average == g.node("l0").load_average
        view.assert_matches_rebuild()

    def test_claims_on_absent_resources_ignored(self):
        g = dumbbell(2, 2)
        ledger = ReservationLedger()
        ledger.reserve("a", ["l0", "r0"], cpu_fraction=0.5, bw_bps=5 * Mbps,
                       graph=g, now=0.0, lease_s=60.0)
        # A *smaller* snapshot (node and its links gone): both the
        # rebuild and the overlay must skip the orphaned claims.
        smaller = g.copy()
        smaller.remove_node("l0")
        view = ResidualView(smaller, ledger)
        view.refresh_nodes(["l0", "r0"])
        view.refresh_edges(ledger.reservations["a"].edges)
        view.assert_matches_rebuild()

    def test_refresh_keeps_the_maxbw_bound(self):
        """A base availability above ``maxbw``, assigned to the attribute
        as graph builders do (so nothing checked it), is refused when a
        refresh writes it into the overlay — with or without a claim on
        the channel — as ``Link.set_available`` refuses it."""
        # A 1 bps trunk, so that the float slack is representable.
        g = dumbbell(2, 2, cross_bandwidth=1.0)
        trunk = g.link("sw-left", "sw-right")
        ledger = ReservationLedger()
        view = ResidualView(g, ledger)
        towards_v = (trunk.key, trunk.v)
        trunk.available_fwd = trunk.maxbw + MAXBW_SLACK / 2  # float noise
        view.refresh_edges([towards_v])
        assert view.graph.link_by_key(trunk.key).available_fwd == (
            trunk.available_fwd
        )
        for over in (trunk.maxbw + 2 * MAXBW_SLACK, 1.5 * trunk.maxbw):
            trunk.available_fwd = over
            with pytest.raises(ValueError, match="outside"):
                view.refresh_edges([towards_v])
        ledger.reserve("a", ["l0", "r0"], cpu_fraction=0.0,
                       bw_bps=0.1 * trunk.maxbw, graph=g, now=0.0,
                       lease_s=60.0)
        with pytest.raises(ValueError, match="outside"):
            view.refresh_edges(ledger.reservations["a"].edges)

    def test_down_markers(self, rig):
        """The marks are the constructor's ``down=`` and outlive a
        re-base; a new down set is a new view."""
        g, ledger, _view = rig
        view = ResidualView(g, ledger, down=["l0"])
        assert view.down == {"l0"}
        assert view.graph.node("l0").attrs.get("down") is True
        assert "down" not in g.node("l0").attrs  # base untouched
        view.assert_matches_rebuild()
        moved = g.node("l0").copy()
        moved.load_average = 0.5
        view.rebase(g.replaced([moved], ()), ["l0"], ())
        assert view.graph.node("l0").attrs.get("down") is True
        view.assert_matches_rebuild()
        assert "down" not in ResidualView(g, ledger).graph.node("l0").attrs

    def test_detects_tampering(self, rig):
        g, ledger, view = rig
        view.graph.node("l0").load_average += 0.5
        with pytest.raises(AssertionError):
            view.assert_matches_rebuild()


class TestChannelTable:
    def test_entries_are_the_overlays_links_across_a_rebase(self):
        """A lease's channels resolve to the overlay's own links and the
        base's, once; a re-base that moves one of them keeps the table
        and re-points that entry's base link, and a verify reads the
        moved availability through it."""
        g = dumbbell(4, 4)
        svc = SelectionService(g, snapshot_ttl=1e9)
        nodes = ["l0", "r0"]
        grant = svc.admit_probed(
            "a", spec(2), Selection(nodes=nodes, objective=0.0),
            bw_bps=10 * Mbps,
        )
        assert grant.admitted
        view = svc.view
        table = view.channels
        assert set(table) == set(grant.reservation.edges)
        for (key, dst), (link, towards_v, base) in table.items():
            assert link is view.graph.link_by_key(key)
            assert towards_v == (dst == link.v)
            assert base is g.link_by_key(key)

        trunk = frozenset({"sw-left", "sw-right"})
        moved = g.copy()
        moved.link_by_key(trunk).set_available(40 * Mbps, direction="sw-right")
        view.rebase(moved, (), [trunk])
        view.assert_matches_rebuild()
        assert view.channels is table
        assert all(link is view.graph.link_by_key(key)
                   and base is moved.link_by_key(key) is not g.link_by_key(key)
                   for (key, _), (link, _, base) in table.items()
                   if key == trunk)
        assert all(link is view.graph.link_by_key(key)
                   and base is g.link_by_key(key)
                   for (key, _), (link, _, base) in table.items()
                   if key != trunk)

        def fits(bw_bps):
            req = SelectionRequest(app_id="b", spec=spec(2), bw_bps=bw_bps)
            return svc._verify_claims(req, view.graph, nodes, view)[0]

        # 40 measured - 10 claimed towards sw-right (90 before the move).
        assert fits(30 * Mbps) and not fits(31 * Mbps)
        svc.release("a")
        view.assert_matches_rebuild()
        assert fits(40 * Mbps) and not fits(41 * Mbps)


class TestEpochMemoization:
    def test_route_cache_matches_route_edges(self):
        from repro.service import route_edges

        g = dumbbell(3, 3)  # a forest: paths come from the forest index
        cache = RouteCache(g)
        nodes = ["l0", "l1", "r0"]
        want = tuple(sorted(route_edges(g, nodes), key=ledger_order))
        assert cache.edges_for(nodes) == want
        assert cache.edges_for(nodes) == want  # memo hit
        assert cache.hits == 1 and cache.misses == 1

    def test_route_cache_matches_route_edges_on_cyclic_graph(self):
        from repro.service import route_edges

        g = grid(3, 3)
        nodes = ["g0-0", "g1-2", "g2-1"]
        want = tuple(sorted(route_edges(g, nodes), key=ledger_order))
        assert want
        assert RouteCache(g).edges_for(nodes) == want

    def test_schedule_cache_clean_reuse_and_dirty_merge(self):
        from repro.core.metrics import References

        g = dumbbell(3, 3)
        refs = References()
        metric = (lambda link: link.available)
        cache = PeelScheduleCache(g)
        base_sched = peel_order(g, metric)

        clean = cache.schedule("available", refs, metric, g, set())
        assert clean == base_sched
        assert cache.reused == 1

        # Debit one link, mark it dirty: the schedule is the debited
        # graph's own peel_order, not the base's.
        bottleneck = frozenset(("sw-left", "sw-right"))
        debited = residual_graph(
            g, {}, {(bottleneck, "sw-right"): 30 * Mbps},
        )
        dirty = {bottleneck}
        merged = cache.schedule("available", refs, metric, debited, dirty)
        expected = peel_order(debited, metric)
        assert [(v, e.key) for v, e in merged] == [
            (v, e.key) for v, e in expected
        ]
        assert cache.adjusted == 1

    def test_service_renew_leaves_the_overlay_alone(self):
        service = SelectionService(dumbbell(4, 4), snapshot_ttl=1e9)
        assert service.request(
            "a", spec(2), cpu_fraction=0.2, bw_bps=1 * Mbps
        ).admitted
        deltas, epoch = service.view.deltas, service._residual_epoch
        service.renew("a")
        service.ledger.clamp_expiry("a", 1.0)
        assert (service.view.deltas, service._residual_epoch) == (deltas, epoch)
        service.check_invariants()
        service.advance(2.0)
        service.tick()  # the clamped lease lapses: that is a claim move
        assert service.view.deltas == deltas + 1
        service.check_invariants()

    def test_view_rebuilt_when_snapshot_epoch_moves(self):
        """No delta to go by (a static graph publishes none), an
        invalidation, a change of the known-down set: rebuilt."""
        service = SelectionService(dumbbell(4, 4), snapshot_ttl=5.0)
        service.request("a", spec(2), cpu_fraction=0.2)
        first = service.view
        assert first is not None
        service.request("b", spec(2), cpu_fraction=0.2)
        assert service.view is first  # same epoch: same overlay
        service.cache.invalidate()
        service.request("c", spec(2), cpu_fraction=0.2)
        assert service.view is not first  # epoch moved: rebuilt
        assert service.metrics.view_rebuilds == 2
        service.advance(6.0)  # TTL lapse on a provider without deltas
        service.request("d", spec(2), cpu_fraction=0.2)
        assert service.metrics.view_rebuilds == 3
        service.check_invariants()

        sim, cluster, api, measured = self._measured_service()
        injector = FaultInjector(cluster, api.collector)
        measured.attach_injector(injector)
        sim.run(until=6.0)
        measured.request("a", spec(2), cpu_fraction=0.2)
        first = measured.view
        injector.crash_node("r3")  # down set moves (and invalidates)
        sim.run(until=12.0)
        measured.request("b", spec(2), cpu_fraction=0.2)
        assert measured.view is not first
        first = measured.view
        measured.cache.invalidate()
        sim.run(until=18.0)
        measured.request("c", spec(2), cpu_fraction=0.2)
        assert measured.view is not first
        assert measured.metrics.view_rebuilds == 3
        measured.check_invariants()

    def test_view_marks_the_known_down_set_after_a_quiet_invalidation(self):
        """A crash and a recovery land while the snapshot is already
        dropped, so neither moves the invalidation count: the next view
        still carries exactly the known-down marks, because it is
        rebuilt from the set as it stands then."""
        sim, cluster, api, measured = self._measured_service()
        injector = FaultInjector(cluster, api.collector)
        measured.attach_injector(injector)
        sim.run(until=6.0)
        measured.request("a", spec(2), cpu_fraction=0.2)

        def marked():
            graph = measured.view.graph
            return {n for n in graph.node_names()
                    if graph.node(n).attrs.get("down")
                    and not measured.view.base.node(n).attrs.get("down")}

        for earlier, host in (
            (lambda: injector.crash_node("r3"), "r2"),
            (lambda: injector.fail_link("sw-left", "sw-right"), "l1"),
        ):
            first = measured.view
            earlier()  # drops the snapshot
            invalidations = measured.cache.invalidations
            injector.crash_node(host)
            injector.recover_node(host)
            injector.crash_node("l0")
            assert measured.cache.invalidations == invalidations
            sim.run(until=sim.now + 1.0)
            measured.request(f"after-{host}", spec(2), cpu_fraction=0.2)
            assert measured.view is not first
            assert measured.view.down == measured._known_down
            assert marked() == measured._known_down
            measured.check_invariants()
            injector.recover_node("l0")
        assert measured._known_down == {"r3"}

    @staticmethod
    def _measured_service():
        sim = Simulator()
        cluster = Cluster(sim, dumbbell(4, 4))
        api = RemosAPI(Collector(cluster, period=5.0))
        return sim, cluster, api, SelectionService(api, snapshot_ttl=5.0)

    def test_view_rebased_when_only_measurements_move(self):
        """A measurement-only epoch move keeps the view object — routes
        and all — on a new base, with the memo of the old base dropped."""
        sim, cluster, api, service = self._measured_service()
        sim.run(until=6.0)
        service.request("a", spec(2))
        first, routes, base = service.view, service.view.routes, service.view.base
        placed = service.status("a").selection.nodes
        service.release("a")
        assert first.selections
        epoch = service.cache.epoch
        cluster.compute(placed[0], 1e9)  # what a's memo entry sits on
        sim.run(until=40.0)
        # Same spec, same (empty) claim state: a memo hit, were the memo
        # still that of the snapshot in which placed[0] was idle.
        again = service.request("a2", spec(2))
        assert placed[0] not in again.selection.nodes
        assert service.cache.epoch == epoch + 1
        assert service.view is first and first.routes is routes
        assert first.base is not base and first.base is service.cache.topology()
        assert service.metrics.select_memo_hits == 0
        assert service.metrics.view_rebuilds == 1
        assert api.topology_sweeps == 2
        service.check_invariants()

    def test_schedule_cache_resorts_after_rebase_or_claim(self):
        """A re-based cache sorts the new base afresh; a residual holding
        a claimed link is sorted on the spot.  Either way the schedule
        is peel_order of the residual."""
        g0 = dumbbell(4, 4)

        def metric(link):
            return link.available

        def entries(schedule):
            return [(f, l.u, l.v) for f, l in schedule]

        cache = PeelScheduleCache(g0)
        refs = DEFAULT_REFERENCES
        first = cache.schedule("available", refs, metric, g0, ())
        assert cache.schedule("available", refs, metric, g0, ()) is first
        assert (cache.builds, cache.reused) == (1, 2)
        moved = [g0.link("l1", "sw-left"), g0.link("sw-left", "sw-right")]
        changed = []
        for link, bw in zip(moved, (3 * Mbps, 99 * Mbps)):
            link = link.copy()
            link.set_available(bw, direction=link.u)
            changed.append(link)
        g1 = g0.replaced(links=changed)
        cache.rebase(g1)
        got = cache.schedule("available", refs, metric, g1, ())
        assert (cache.builds, cache.reused) == (2, 3)
        assert entries(got) == entries(peel_order(g1, metric))
        assert all(l is g1.link(l.u, l.v) for _f, l in got)

        trunk = frozenset(("sw-left", "sw-right"))
        debited = residual_graph(g1, {}, {(trunk, "sw-right"): 30 * Mbps})
        got = cache.schedule("available", refs, metric, debited, {trunk})
        assert (cache.builds, cache.adjusted) == (2, 1)
        assert entries(got) == entries(peel_order(debited, metric))
        # A claimed key the residual lacks reads as no claim.
        absent = frozenset(("x", "y"))
        assert entries(
            cache.schedule("available", refs, metric, g1, {absent})
        ) == entries(peel_order(g1, metric))
        assert (cache.builds, cache.reused, cache.adjusted) == (2, 4, 1)

    @staticmethod
    def _stream(service):
        """One contended request/release stream; returns its outcomes."""
        claims = {"cpu_fraction": 0.3, "bw_bps": 4 * Mbps}
        grants = [service.request(f"a{i}", spec(2), **claims)
                  for i in range(6)]
        service.release("a0")
        grants.append(service.request("z", spec(3), **claims))
        service.check_invariants()
        return [
            (g.status, g.selection.nodes if g.admitted else None)
            for g in grants
        ]

    def test_incremental_and_naive_grants_identical(self):
        g = dumbbell(4, 4)
        inc = SelectionService(g, snapshot_ttl=1e9)
        naive = naive_rebuild_service(g, snapshot_ttl=1e9)
        outcomes = self._stream(inc)
        assert outcomes == self._stream(naive)
        # The oracle really rebuilt per attempt; the overlay never did.
        assert inc.metrics.view_rebuilds == 1
        assert naive.metrics.view_rebuilds == len(outcomes)

    @pytest.mark.parametrize("backend", [SelectionService, ShardRouter])
    def test_rebuild_arm_is_not_a_constructor_flag(self, backend):
        with pytest.raises(TypeError):
            backend(dumbbell(4, 4), incremental=False)

    def test_traced_and_untraced_grants_identical(self):
        from repro.obs import Tracer

        g = dumbbell(4, 4)
        plain = SelectionService(g, snapshot_ttl=1e9)
        traced = SelectionService(g, snapshot_ttl=1e9, tracer=Tracer())
        assert self._stream(plain) == self._stream(traced)
        assert traced.tracer.spans

    def test_selection_memo_hits_on_repeat_state(self):
        service = SelectionService(star(6), snapshot_ttl=1e9)
        for i in range(4):
            app = f"cyc-{i}"
            assert service.request(app, spec(2), cpu_fraction=0.4).admitted
            service.release(app)
        # Identical spec against an identical claim state: every cycle
        # after the first is answered from the per-view selection memo.
        assert service.metrics.select_memo_hits == 3
        service.check_invariants()


class TestHeapExpiry:
    def test_expire_is_lazy_about_released_and_renewed(self):
        g = star(5)
        ledger = ReservationLedger()
        for app, lease in (("a", 5.0), ("b", 10.0), ("c", 15.0)):
            ledger.reserve(app, ["h1"], cpu_fraction=0.1, bw_bps=0.0,
                           graph=g, now=0.0, lease_s=lease)
        ledger.release("a")           # stale heap entry left behind
        ledger.renew("b", 0.0, 100.0)  # deadline moved; old entry stale
        assert ledger.expire(20.0) == ["c"]
        assert sorted(ledger.reservations) == ["b"]
        assert ledger.expire(200.0) == ["b"]
        assert not ledger._deadlines  # heap fully drained

    def test_reuse_of_app_id_after_release(self):
        g = star(5)
        ledger = ReservationLedger()
        ledger.reserve("a", ["h1"], cpu_fraction=0.1, bw_bps=0.0,
                       graph=g, now=0.0, lease_s=5.0)
        ledger.release("a")
        ledger.reserve("a", ["h2"], cpu_fraction=0.1, bw_bps=0.0,
                       graph=g, now=0.0, lease_s=50.0)
        # The first lease's stale deadline must not expire the new one.
        assert ledger.expire(10.0) == []
        assert ledger.active == 1


class TestDrainGate:
    def test_drain_skips_until_capacity_returns(self):
        service = SelectionService(dumbbell(2, 2), snapshot_ttl=1e9)
        assert service.request("a", spec(4), cpu_fraction=0.9).admitted
        for app in ("b", "c"):
            assert service.request(app, spec(4), cpu_fraction=0.9).status == (
                "queued"
            )
        # Withdrawing a *queued* request returns no capacity: the drain
        # it triggers must skip "c" (same residual epoch as its failed
        # attempt), not burn another full admission attempt.
        service.release("b")
        assert service.metrics.drain_skipped >= 1
        assert service.status("c").status == "queued"
        # Releasing held capacity advances the epoch; the drain then
        # re-attempts and admits the queued request.
        service.release("a")
        assert service.status("c").admitted

    def test_queued_request_admitted_after_expiry(self):
        service = SelectionService(
            dumbbell(2, 2), snapshot_ttl=1e9, lease_s=10.0,
        )
        assert service.request("a", spec(4), cpu_fraction=0.9).admitted
        assert service.request("b", spec(4), cpu_fraction=0.9).status == (
            "queued"
        )
        service.advance(11.0)  # lease lapses -> epoch moves -> drain
        assert service.status("a").status == "expired"
        assert service.status("b").admitted


class TestStageProfiling:
    def test_stage_timer_percentiles(self):
        metrics = ServiceMetrics()
        for us in range(1, 101):
            metrics.observe_stage("select", us * 1e-6)
        s = metrics.stage_summaries()["select"]
        assert s["count"] == 100
        assert s["p50_us"] == pytest.approx(50.0, abs=1.5)
        assert s["p95_us"] == pytest.approx(95.0, abs=1.5)
        assert s["p99_us"] == pytest.approx(99.0, abs=1.5)
        assert s["mean_us"] == pytest.approx(50.5, abs=0.1)

    def test_timers_populated_after_requests(self):
        service = SelectionService(dumbbell(4, 4), snapshot_ttl=5.0)
        service.request("a", spec(2), cpu_fraction=0.3, bw_bps=4 * Mbps)
        snap = service.metrics_snapshot()
        assert "stages" in snap
        for stage in ("snapshot_fetch", "residual_view", "select",
                      "claim_verify", "ledger_commit"):
            assert snap["stages"][stage]["count"] >= 1, stage
            assert snap["stages"][stage]["p50_us"] >= 0.0

    def test_format_includes_stage_block_when_asked(self):
        service = SelectionService(dumbbell(4, 4))
        service.request("a", spec(2), cpu_fraction=0.3)
        plain = service.metrics.format()
        profiled = service.metrics.format(include_stages=True)
        assert "stage latencies" not in plain
        assert "stage latencies" in profiled
        assert "ledger_commit" in profiled
