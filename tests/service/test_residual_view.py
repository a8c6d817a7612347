"""The O(Δ) residual overlay, epoch memoization, and stage profiling.

Covers the hot-path overhaul end to end: overlay/rebuild bit-identity
through the full lease lifecycle, base-value restoration on release,
tolerance of claims on absent resources, incremental-vs-naive service
equivalence, view re-base versus rebuild on snapshot-epoch moves, the
heap-driven lazy-deletion expiry, the residual-epoch drain gate, and the per-stage
latency timers surfaced by ``ServiceMetrics``.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core import ApplicationSpec
from repro.core.metrics import DEFAULT_REFERENCES, node_compute_fraction
from repro.core.spec import Objective
from repro.des import Simulator
from repro.faults import FaultInjector
from repro.network import Cluster
from repro.remos import Collector, RemosAPI
from repro.service import (
    BatchRequest,
    ReservationLedger,
    ResidualView,
    RouteCache,
    SelectionService,
    ServiceMetrics,
    ShardRouter,
)
from repro.service.admission import Priority, SelectionRequest
from repro.service.cli import main as serve_main
from repro.service.ledger import LedgerError, ledger_order, route_edges
from repro.service.service import _SELECTION_MEMO_LIMIT, ManualClock
from repro.topology import (
    Measurement,
    dumbbell,
    grid,
    random_tree,
    star,
    to_json,
    two_campus,
)
from repro.topology.graph import MAXBW_SLACK, SHARED, TopologyGraph
from repro.topology.residual import _MIN_RESIDUAL_CPU, residual_graph
from repro.units import Mbps

from ..core.cyclic_graphs import random_cyclic
from ..oracles import EagerOverlayService, PinnedNodes, naive_rebuild_service


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
        """A ``renew`` moves ``expires_at`` — later or earlier — and
        nothing the overlay mirrors: no delta, no node marked for
        re-keying."""
        g, ledger, view = rig
        ledger.reserve(
            "a", ["l0", "r1"], cpu_fraction=0.25, bw_bps=5 * Mbps,
            graph=g, now=0.0, lease_s=60.0,
        )
        view.ranking.keys(view.ranking.refs)  # re-keyed: nothing dirty
        ledger.renew("a", 10.0, 60.0)
        ledger.renew("a", 20.0, 10.0)  # earlier than 70.0
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


_HOSTS = ("h0", "h1", "h2", "h3", "h4")
_MAXBW = 1e8


def _edge_graph(data) -> TopologyGraph:
    """Two switches, five hosts; the trunk and, if drawn, one host link
    half duplex.  Loads and per-direction availabilities come from the
    values the clamps turn on: an idle or a loaded node, a full, a
    drained (either zero) or an awkward availability."""
    g = TopologyGraph()
    g.add_network("sw0")
    g.add_network("sw1")
    loads = st.sampled_from([0.0, 0.5, 3.0, 4.0])
    for i, name in enumerate(_HOSTS):
        g.add_compute(name, load_average=data.draw(loads))
        g.add_link(name, "sw0" if i < 3 else "sw1", _MAXBW)
    g.add_link("sw0", "sw1", _MAXBW, duplex="half")
    half = data.draw(st.sampled_from((None,) + _HOSTS))
    if half is not None:
        g.link(half, "sw0" if half < "h3" else "sw1").attrs["duplex"] = "half"
    avail = st.sampled_from([_MAXBW, 0.0, -0.0, 3e7, 0.1 + 0.2])
    for link in g.links():
        link.available_fwd = data.draw(avail)
        link.available_rev = data.draw(avail)
    return g


def _claims(data, g, nodes):
    """A CPU and a bandwidth claim for ``nodes`` drawn onto the edges:
    a node's whole CPU fraction, or just under it (a residual below
    ``_MIN_RESIDUAL_CPU``, or at it), or more; a channel's whole
    availability or more; and claims far below what their neighbours
    hold (``test_ledger.py::TestSlackSizedClaims``'s two)."""
    cpu = g.node(data.draw(st.sampled_from(nodes))).cpu
    cpu_claim = data.draw(st.sampled_from([
        0.0, 0.25, cpu, cpu - _MIN_RESIDUAL_CPU / 2,
        cpu - _MIN_RESIDUAL_CPU, 1.0, 5e-10,
    ]))
    bw = 0.0
    channels = sorted(route_edges(g, nodes), key=ledger_order)
    if channels:
        key, dst = data.draw(st.sampled_from(channels))
        base = g.link_by_key(key).available_towards(dst)
        bw = data.draw(st.sampled_from([
            base, base + 1.0, base + 1e7, base / 3, 1.0, 0.05,
        ]))
    return cpu_claim, min(bw, _MAXBW)


def _assert_bits_equal(view, ledger) -> None:
    """Every overlay float is the rebuild's, compared by ``float.hex``:
    ``==`` would take ``-0.0`` for ``0.0``."""
    rebuilt = residual_graph(
        view.base, ledger.node_claims(), ledger.edge_claims()
    )
    for node in rebuilt.nodes():
        mine = view.graph.node(node.name).load_average
        assert mine.hex() == node.load_average.hex(), (node.name, mine)
    for link in rebuilt.links():
        mine = view.graph.link(link.u, link.v)
        got = mine.available_fwd.hex(), mine.available_rev.hex()
        want = link.available_fwd.hex(), link.available_rev.hex()
        assert got == want, (link.u, link.v, got, want)


class TestOverlayBits:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_float_is_the_rebuilds_to_the_bit(self, data):
        """Claims drawn onto the clamps' edges — a channel claimed to
        exactly its availability (``0.0``) or past it (clamped), a
        half-duplex channel, a node left below ``_MIN_RESIDUAL_CPU`` —
        and after every grant and release the overlay equals the
        rebuild float for float, sign of zero included."""
        g = _edge_graph(data)
        ledger = ReservationLedger()
        view = ResidualView(g, ledger)
        ledger.subscribe(view.on_ledger_event)
        live = []
        for step in range(data.draw(st.integers(1, 10))):
            if live and data.draw(st.booleans()):
                ledger.release(live.pop(data.draw(
                    st.integers(0, len(live) - 1)
                )))
            else:
                nodes = data.draw(st.lists(
                    st.sampled_from(_HOSTS), min_size=1, max_size=3,
                    unique=True,
                ))
                cpu, bw = _claims(data, g, nodes)
                try:
                    ledger.reserve(
                        f"a{step}", nodes, cpu_fraction=cpu, bw_bps=bw,
                        graph=g, now=0.0, lease_s=60.0,
                    )
                except LedgerError:
                    continue
                live.append(f"a{step}")
            _assert_bits_equal(view, ledger)

    def test_the_edges_are_reached(self):
        """The cases the property is for, pinned: an exact drain leaves
        ``+0.0`` on a full-duplex and on the shared channel, and a node
        claimed to its whole fraction is left at ``_MIN_RESIDUAL_CPU``."""
        g = TopologyGraph()
        g.add_network("sw")
        for name in ("h0", "h1"):
            g.add_compute(name, load_average=3.0)
        g.add_link("h0", "sw", _MAXBW, available=3e7)
        g.add_link("h1", "sw", _MAXBW, available=3e7, duplex="half")
        ledger = ReservationLedger()
        view = ResidualView(g, ledger)
        ledger.subscribe(view.on_ledger_event)
        ledger.reserve("a", ["h0", "h1"], cpu_fraction=0.25, bw_bps=3e7,
                       graph=g, now=0.0, lease_s=60.0)
        h0 = view.graph.link("h0", "sw")
        h1 = view.graph.link("h1", "sw")
        assert (h0.available_fwd.hex(), h0.available_rev.hex()) == (
            (0.0).hex(), (0.0).hex()
        )
        assert ledger.edge_claim((h1.key, SHARED)) == 3e7
        assert h1.available_fwd.hex() == h1.available_rev.hex() == (0.0).hex()
        assert view.graph.node("h0").cpu == pytest.approx(_MIN_RESIDUAL_CPU)
        _assert_bits_equal(view, ledger)


class TestChannelTable:
    def test_entries_are_the_overlays_links_across_a_rebase(self):
        """A lease's channels resolve to the overlay's own links and the
        base's, once; a re-base that moves one of them keeps the table
        and re-points that entry's base link, and a verify reads the
        moved availability through it."""
        g = dumbbell(4, 4)
        svc = SelectionService(g, snapshot_ttl=1e9)
        nodes = ["l0", "r0"]
        grant = svc.request(
            "a", ApplicationSpec(num_nodes=2, eligible=PinnedNodes(nodes)),
            bw_bps=10 * Mbps,
        )
        assert grant.admitted and sorted(grant.selection.nodes) == nodes
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

    def test_service_renew_leaves_the_overlay_alone(self):
        service = SelectionService(dumbbell(4, 4), snapshot_ttl=1e9)
        assert service.request(
            "a", spec(2), cpu_fraction=0.2, bw_bps=1 * Mbps
        ).admitted
        deltas, epoch = service.view.deltas, service._residual_epoch
        service.renew("a")
        service.renew("a", extend=1.0)  # earlier than the first renew's
        assert (service.view.deltas, service._residual_epoch) == (deltas, epoch)
        service.check_invariants()
        service.advance(2.0)
        service.tick()  # the shortened lease lapses: that is a claim move
        assert service.view.deltas == deltas + 1
        service.check_invariants()

    def test_view_rebuilt_when_snapshot_epoch_moves(self):
        """An invalidation or a change of the known-down set: rebuilt.
        A TTL lapse that sweeps the same static graph again is no new
        snapshot, so the overlay stands."""
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
        service.advance(6.0)  # TTL lapse: the static graph comes back
        service.request("d", spec(2), cpu_fraction=0.2)
        assert service.metrics.view_rebuilds == 2  # no new snapshot
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


class TestSameSnapshot:
    """A provider that answers the graph the cache holds gives no new
    snapshot: no epoch, no view rebuild.  A router's shards read its
    snapshot through one TTL, the router's."""

    def test_service_on_a_static_graph_builds_one_view(self):
        service = SelectionService(star(8), snapshot_ttl=5)
        for i in range(6):  # 3 s apart: a TTL lapse every other request
            service.advance(3.0 if i else 0.0)
            service.request(f"a{i}", spec(1), cpu_fraction=0.1)
        assert service.cache.misses == 3
        assert service.metrics.view_rebuilds == 1
        service.check_invariants()

    def test_serve_demo_builds_one_view(self, tmp_path, capsys):
        topo = tmp_path / "topo.json"
        topo.write_text(to_json(two_campus(6, 6)))
        assert serve_main([str(topo), "--demo", "50",
                           "--format", "json"]) == 0
        metrics = json.loads(capsys.readouterr().out)["metrics"]
        assert metrics["view_rebuilds"] == 1

    def test_router_builds_one_view_per_shard(self):
        router = ShardRouter(two_campus(4, 4), shards=2, snapshot_ttl=5)
        for i in range(12):
            router.advance(3.0 if i else 0.0)
            router.request(f"a{i}", spec(1), cpu_fraction=0.05)
        assert {s.metrics.view_rebuilds for s in router.services} == {1}
        router.check_invariants()

    def test_a_shard_reads_no_router_snapshot_older_than_the_ttl(self):
        ttl = 5.0

        class Stamped:
            """A fresh graph per sweep, every node stamped with when."""

            def __init__(self, graph):
                self.graph, self.now = graph, 0.0

            def topology(self):
                g = self.graph.copy()
                for node in g.nodes():
                    node.attrs["swept_at"] = self.now
                return g

        provider = Stamped(two_campus(4, 4))
        router = ShardRouter(provider, shards=2, snapshot_ttl=ttl,
                             clock=lambda: provider.now, lease_s=1e9)
        for i in range(16):
            provider.now = 2.0 * i
            grant = router.request(f"a{i}", spec(1), cpu_fraction=0.05)
            (shard,) = grant.shards
            held = router.services[shard].cache.held
            swept_at = {n.attrs["swept_at"] for n in held.nodes()}
            assert len(swept_at) == 1
            assert provider.now - swept_at.pop() <= ttl
        router.check_invariants()


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


# -- the overlay settled on read ----------------------------------------------

class Snapshots:
    """A measured provider moved by hand: :meth:`publish` answers a patch
    of the last snapshot that names what it replaced, as
    ``RemosAPI.topology()`` does, so the service re-bases onto it."""

    def __init__(self, graph: TopologyGraph) -> None:
        self.source = object()
        graph.measurement = Measurement(self.source, 0, None, None, 0.0, {})
        self.graph = graph

    def topology(self) -> TopologyGraph:
        return self.graph

    def publish(self, nodes, links) -> None:
        patch = self.graph.replaced(nodes, links)
        patch.measurement = Measurement(
            self.source, self.graph.measurement.generation + 1,
            frozenset(n.name for n in nodes), frozenset(l.key for l in links),
            0.0, {},
        )
        self.graph = patch


class Faults:
    """What ``attach_injector`` needs of an injector: ``fire(t, kind,
    target)`` delivers an event to the service."""

    def subscribe(self, fn) -> None:
        self.fire = fn


def _measured_tree() -> TopologyGraph:
    rng = np.random.default_rng(4)
    g = random_tree(8, 3, rng, bandwidth=100 * Mbps)
    for link in g.links():
        link.available_fwd = float(rng.integers(1, 5)) * 20 * Mbps
        link.available_rev = float(rng.integers(1, 5)) * 20 * Mbps
    for node in g.compute_nodes():
        node.load_average = float(rng.integers(0, 3)) * 0.5
    return g


def answer(grant) -> tuple:
    """Everything a reader's grant says, the explain record included."""
    s, r = grant.selection, grant.reservation
    return (
        grant.status, grant.reason,
        # repr: an undefined minimum is NaN on both sides
        s and (tuple(s.nodes), s.algorithm, repr((
            s.objective, s.min_cpu_fraction, s.min_bw_fraction, s.min_bw_bps,
        ))),
        r and (r.nodes, r.edges, r.expires_at),
        repr(grant.explain),
    )


_READ = ResidualView.graph.fget
_SHAPES = [
    ApplicationSpec(num_nodes=1),
    ApplicationSpec(num_nodes=2),
    ApplicationSpec(num_nodes=3),
    ApplicationSpec(num_nodes=2, objective=Objective.BANDWIDTH),
]
_CPU = [0.0, 0.15, 0.4]
_BW = [0.0, 2 * Mbps, 15 * Mbps]
_CLAIMS = (st.integers(0, len(_SHAPES) - 1), st.integers(0, len(_CPU) - 1),
           st.integers(0, len(_BW) - 1))
_bandwidths = st.sampled_from([5.0, 40.0, 100.0])


class OverlaySettledOnRead(RuleBasedStateMachine):
    """The service, whose overlay settles on read, beside a twin whose
    overlay settles at every claim move
    (``tests/oracles.py::EagerOverlayService``), over one history of
    grants, releases, renewals, expiries, crash evictions, preemptions,
    measured re-bases and each of the four readers: a placement that
    misses the memo, the batch planner, an explain record and
    ``check_invariants``; and a probe followed by the request it
    answers, as a cross-shard part commits.

    Every read of the service's overlay — wherever a reader makes it —
    is checked on the spot against a rebuild and its ranking against a
    fresh sort; the history itself never reads, so what a grant left
    stale stays stale until a reader comes.  Each step's answers equal
    the twin's, and the stale entries stay within one more than the
    placements the selection memo holds."""

    @initialize(cyclic=st.booleans())
    def start(self, cyclic):
        graph = random_cyclic(5, 8, 4, 2) if cyclic else _measured_tree()
        self.hosts = sorted(n.name for n in graph.compute_nodes())
        self.snapshots = Snapshots(graph)
        self.clock = ManualClock()
        self.services, self.faults = [], []
        for build in (SelectionService, EagerOverlayService):
            svc = build(
                self.snapshots, snapshot_ttl=0.0, lease_s=20.0,
                queue_limit=2, preempt=True, clock=self.clock,
            )
            faults = Faults()
            svc.attach_injector(faults)
            self.services.append(svc)
            self.faults.append(faults)
        self.apps = 0
        self.checking = False
        self.patch = mock.patch.object(
            ResidualView, "graph", property(self.checked_read)
        )
        self.patch.start()

    def teardown(self):
        patch = getattr(self, "patch", None)
        if patch is not None:
            patch.stop()

    def checked_read(self, view: ResidualView) -> TopologyGraph:
        graph = _READ(view)
        if not self.checking and view is self.services[0].view:
            self.checking = True
            try:
                view.assert_matches_rebuild()
                refs = DEFAULT_REFERENCES
                assert list(view.ranking.keys(refs)) == sorted(
                    (-node_compute_fraction(node, refs), node.name)
                    for node in graph.compute_nodes()
                )
            finally:
                self.checking = False
        return graph

    def each(self, op):
        got, want = (op(svc) for svc in self.services)
        assert got == want
        return got

    def app(self) -> str:
        self.apps += 1
        return f"app-{self.apps}"

    def live(self, i: int):
        live = self.services[0].active_apps()
        return live[i % len(live)] if live else None

    @rule(claims=st.tuples(*_CLAIMS), explain=st.booleans(),
          priority=st.sampled_from(Priority.ALL))
    def request(self, claims, explain, priority):
        shape, cpu, bw = claims
        app = self.app()
        self.each(lambda svc: answer(svc.request(
            app, _SHAPES[shape], cpu_fraction=_CPU[cpu], bw_bps=_BW[bw],
            priority=priority, explain=explain,
        )))

    @rule(wave=st.lists(st.tuples(*_CLAIMS), min_size=1, max_size=3))
    def cycle(self, wave):
        """Admit a wave and release it, twice: the recurrence the memo
        answers, so the second round's grants wait unread."""
        for _ in range(2):
            admitted = []
            for shape, cpu, bw in wave:
                app = self.app()
                grant = self.each(lambda svc: answer(svc.request(
                    app, _SHAPES[shape], cpu_fraction=_CPU[cpu],
                    bw_bps=_BW[bw],
                )))
                if grant[0] == "admitted":
                    admitted.append(app)
            for app in admitted:
                self.each(lambda svc: answer(svc.release(app)))

    @rule(claims=st.tuples(*_CLAIMS))
    def probe_and_commit(self, claims):
        """A probe, then the request it answers: unless a lease lapses
        at the request's tick, the memo entry the probe filed admits the
        probed nodes."""
        shape, cpu, bw = claims
        app = self.app()

        def op(svc):
            spec = _SHAPES[shape]
            found = svc.probe(spec, cpu_fraction=_CPU[cpu], bw_bps=_BW[bw])
            deadline = svc.ledger.next_deadline
            grant = svc.request(
                app, spec, cpu_fraction=_CPU[cpu], bw_bps=_BW[bw],
            )
            if found is not None and (deadline is None or deadline > svc.now):
                assert grant.admitted
                assert grant.selection.nodes == found.nodes
            return answer(grant)

        self.each(op)

    @rule(batch=st.lists(st.tuples(st.integers(1, 2), *_CLAIMS[1:]),
                         min_size=2, max_size=4))
    def batch(self, batch):
        apps = [self.app() for _ in batch]
        self.each(lambda svc: [answer(g) for g in svc.admit_batch([
            BatchRequest(app, ApplicationSpec(num_nodes=m),
                         cpu_fraction=_CPU[cpu], bw_bps=_BW[bw])
            for app, (m, cpu, bw) in zip(apps, batch)
        ])])

    @rule()
    def check(self):
        for svc in self.services:
            svc.check_invariants()

    @rule(i=st.integers(0, 7))
    def release(self, i):
        app = self.live(i)
        if app is not None:
            self.each(lambda svc: answer(svc.release(app)))

    @rule(i=st.integers(0, 7), extend=st.sampled_from([None, 1.0, 40.0]))
    def renew(self, i, extend):
        app = self.live(i)
        if app is not None:
            self.each(lambda svc: answer(svc.renew(app, extend=extend)))

    @rule(dt=st.sampled_from([0.5, 5.0, 25.0]))
    def advance(self, dt):
        self.clock.now += dt
        self.each(lambda svc: svc.tick())

    @rule(i=st.integers(0, 63), kind=st.sampled_from(["crash", "recover"]))
    def fault(self, i, kind):
        host = self.hosts[i % len(self.hosts)]
        for faults in self.faults:
            faults.fire(self.clock.now, f"node-{kind}", host)

    @rule(
        loads=st.lists(st.tuples(st.integers(0, 63),
                                 st.sampled_from([0.0, 0.7, 1.5])),
                       max_size=3),
        links=st.lists(st.tuples(st.integers(0, 63), _bandwidths, _bandwidths),
                       max_size=2),
    )
    def rebase(self, loads, links):
        """A measured snapshot moving some loads and some links; the
        services sweep it at their next request."""
        base = self.snapshots.graph
        nodes, moved = {}, {}
        for i, load in loads:
            node = base.node(self.hosts[i % len(self.hosts)]).copy()
            node.load_average = load
            nodes[node.name] = node
        every = list(base.links())
        for i, fwd, rev in links:
            link = every[i % len(every)].copy()
            link.available_fwd, link.available_rev = fwd * Mbps, rev * Mbps
            moved[link.key] = link
        self.snapshots.publish(list(nodes.values()), list(moved.values()))
        self.clock.now += 1e-3  # past the snapshot TTL

    @invariant()
    def twins_agree(self):
        shipped, twin = self.services
        assert shipped.active_apps() == twin.active_apps()
        assert shipped.ledger.claims_fingerprint() == \
            twin.ledger.claims_fingerprint()
        assert {app: answer(g) for app, g in shipped.outcomes.items()} == \
            {app: answer(g) for app, g in twin.outcomes.items()}
        assert shipped.metrics.select_memo_hits == \
            twin.metrics.select_memo_hits
        view = shipped.view
        if view is not None:
            assert not twin.view.stale
            assert view.deltas == twin.view.deltas
            assert len(view.stale) <= len(view.selections) + 1
            assert len(view.stale) <= _SELECTION_MEMO_LIMIT + 1


TestOverlaySettledOnRead = OverlaySettledOnRead.TestCase
TestOverlaySettledOnRead.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
