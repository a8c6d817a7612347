"""Cross-module property-based tests (hypothesis).

These pin down conservation laws and invariants that hold for *any* input:
serialization is lossless, processor sharing conserves work, the fabric
conserves bytes, and selection always returns valid placements.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ApplicationSpec,
    NodeSelector,
    select_balanced,
    select_max_bandwidth,
    select_max_compute,
)
from repro.des import Simulator
from repro.faults import FaultInjector, NodeCrash, random_fault_plan
from repro.network import Cluster, Host
from repro.remos import Collector, RemosAPI
from repro.service import (
    LedgerError,
    Priority,
    ReservationLedger,
    ResidualView,
    SelectionService,
)
from repro.topology import dumbbell, from_json, random_tree, to_json
from repro.units import MB, Mbps


def randomized_tree(seed, nc=None, ns=None):
    rng = np.random.default_rng(seed)
    g = random_tree(
        nc or int(rng.integers(3, 12)),
        ns or int(rng.integers(1, 5)),
        rng,
    )
    for link in g.links():
        link.set_available(
            float(rng.uniform(0, link.maxbw / Mbps)) * Mbps,
            direction=link.v,
        )
        link.set_available(
            float(rng.uniform(0, link.maxbw / Mbps)) * Mbps,
            direction=link.u,
        )
        link.latency = float(rng.uniform(0, 1e-3))
    for node in g.compute_nodes():
        node.load_average = float(rng.uniform(0, 5))
        node.attrs["tag"] = int(rng.integers(0, 3))
    return g


class TestSerializationProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_json_roundtrip_lossless(self, seed):
        g = randomized_tree(seed)
        g2 = from_json(to_json(g))
        assert sorted(n.name for n in g.nodes()) == sorted(
            n.name for n in g2.nodes()
        )
        for n in g.nodes():
            m = g2.node(n.name)
            assert n.kind == m.kind
            assert n.load_average == m.load_average
            assert n.attrs == m.attrs
        for l in g.links():
            l2 = g2.link(l.u, l.v)
            assert l.maxbw == l2.maxbw
            assert l.latency == l2.latency
            assert l.available_towards(l.v) == l2.available_towards(l.v)
            assert l.available_towards(l.u) == l2.available_towards(l.u)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_selection_unchanged_by_roundtrip(self, seed):
        g = randomized_tree(seed)
        g2 = from_json(to_json(g))
        a = select_balanced(g, 3)
        b = select_balanced(g2, 3)
        assert a.nodes == b.nodes

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_residual_graph_roundtrip_lossless(self, seed):
        """Ledger-debited snapshots survive serialization exactly.

        A residual graph (random reservations debited from a random tree)
        is a plain TopologyGraph; JSON round-tripping it must preserve
        every capacity the debit produced, bit for bit.
        """
        rng = np.random.default_rng(seed)
        g = randomized_tree(seed, nc=8, ns=3)
        ledger = ReservationLedger()
        names = sorted(n.name for n in g.compute_nodes())
        for i in range(int(rng.integers(1, 5))):
            k = int(rng.integers(1, min(4, len(names)) + 1))
            nodes = [str(n) for n in rng.choice(names, size=k, replace=False)]
            try:
                ledger.reserve(
                    f"app-{i}", nodes,
                    cpu_fraction=float(rng.uniform(0.05, 0.45)),
                    bw_bps=float(rng.uniform(0, 20)) * Mbps,
                    graph=g, now=0.0, lease_s=60.0,
                )
            except LedgerError:
                pass  # random claims may not fit; the fit ones suffice
        residual = ledger.apply(g)
        g2 = from_json(to_json(residual))
        for n in residual.nodes():
            m = g2.node(n.name)
            assert n.load_average == m.load_average
            assert n.cpu == m.cpu
        for l in residual.links():
            l2 = g2.link(l.u, l.v)
            assert l.maxbw == l2.maxbw
            assert l.available_towards(l.v) == l2.available_towards(l.v)
            assert l.available_towards(l.u) == l2.available_towards(l.u)
        # And a selection on the debited view survives the round trip.
        assert select_balanced(residual, 3).nodes == \
            select_balanced(g2, 3).nodes


class TestProcessorSharingConservation:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_work_conservation(self, seed):
        """Sum of completed work equals capacity * busy time."""
        rng = np.random.default_rng(seed)
        sim = Simulator()
        capacity = float(rng.uniform(0.5, 10))
        host = Host(sim, "h", capacity=capacity)
        jobs = []

        def submit(sim, host, delay, ops):
            yield sim.timeout(delay)
            jobs.append(host.run(ops))

        total_ops = 0.0
        for _ in range(int(rng.integers(1, 8))):
            ops = float(rng.uniform(0.1, 50))
            total_ops += ops
            sim.process(submit(sim, host, float(rng.uniform(0, 5)), ops))
        sim.run()
        assert all(j.finished for j in jobs)
        assert host.busy_time * capacity == pytest.approx(total_ops, rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_completion_order_respects_remaining_work(self, seed):
        """Under PS, of two tasks submitted together the smaller finishes
        first (ties broken consistently)."""
        rng = np.random.default_rng(seed)
        sim = Simulator()
        host = Host(sim, "h", capacity=1.0)
        small_ops = float(rng.uniform(0.1, 10))
        big_ops = small_ops * float(rng.uniform(1.5, 4))
        big = host.run(big_ops)
        small = host.run(small_ops)
        done_at = {}
        big.done.callbacks.append(lambda e: done_at.setdefault("big", sim.now))
        small.done.callbacks.append(lambda e: done_at.setdefault("small", sim.now))
        sim.run()
        assert done_at["small"] < done_at["big"]


class TestFabricConservation:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_bytes_conserved_on_access_channels(self, seed):
        """Octet counters on a host's uplink equal the bytes it sent."""
        rng = np.random.default_rng(seed)
        sim = Simulator()
        g = randomized_tree(seed, nc=5, ns=2)
        for link in g.links():  # full availability for clean accounting
            link.set_available(link.maxbw)
        cluster = Cluster(sim, g, base_capacity=1.0)
        hosts = sorted(cluster.hosts)
        sent: dict[str, float] = {h: 0.0 for h in hosts}
        for _ in range(int(rng.integers(1, 10))):
            src, dst = rng.choice(hosts, size=2, replace=False)
            size = float(rng.uniform(0.1, 20)) * MB
            cluster.transfer(str(src), str(dst), size)
            sent[str(src)] += size
        sim.run()
        for h in hosts:
            uplink = cluster.graph.incident_links(h)[0]
            cid = cluster.fabric.channel_for(h, uplink.other(h))
            assert cluster.fabric.octet_counter(cid) == pytest.approx(
                sent[h], rel=1e-9, abs=1e-3
            )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_all_transfers_complete(self, seed):
        rng = np.random.default_rng(seed)
        sim = Simulator()
        g = randomized_tree(seed, nc=6, ns=3)
        cluster = Cluster(sim, g)
        hosts = sorted(cluster.hosts)
        events = []
        for _ in range(int(rng.integers(2, 12))):
            src, dst = rng.choice(hosts, size=2, replace=False)
            events.append(
                cluster.transfer(str(src), str(dst),
                                 float(rng.uniform(0.01, 5)) * MB)
            )
        sim.run()
        assert all(ev.processed and ev.ok for ev in events)
        assert cluster.fabric.active_flows == 0


class TestSelectionInvariants:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), m=st.integers(1, 4))
    def test_all_selectors_return_valid_placements(self, seed, m):
        g = randomized_tree(seed, nc=8, ns=3)
        for select in (select_max_compute, select_max_bandwidth, select_balanced):
            sel = select(g, m)
            assert len(sel.nodes) == m
            assert len(set(sel.nodes)) == m
            assert all(g.node(n).is_compute for n in sel.nodes)
            comp = g.component_of(sel.nodes[0])
            assert all(n in comp for n in sel.nodes)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_selection_deterministic(self, seed):
        g = randomized_tree(seed, nc=8, ns=3)
        spec = ApplicationSpec(num_nodes=3)
        a = NodeSelector(g).select(spec)
        b = NodeSelector(g.copy()).select(spec)
        assert a.nodes == b.nodes

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_reported_metrics_match_exact_evaluation(self, seed):
        from repro.core import (
            min_cpu_fraction,
            min_pairwise_bandwidth,
        )
        g = randomized_tree(seed, nc=8, ns=3)
        sel = select_balanced(g, 3)
        assert sel.min_cpu_fraction == pytest.approx(
            min_cpu_fraction(g, sel.nodes)
        )
        assert sel.min_bw_bps == pytest.approx(
            min_pairwise_bandwidth(g, sel.nodes)
        )


class TestFaultResilienceProperties:
    """Under *any* injected fault sequence, degraded-mode queries keep
    answering and selection never places work on a node its own snapshot
    marks crashed or unmonitorable."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_selection_and_queries_survive_arbitrary_faults(self, seed):
        rng = np.random.default_rng(seed)
        sim = Simulator()
        g = dumbbell(3, 3, latency=0.0)
        cluster = Cluster(sim, g, base_capacity=1.0, load_tau=5.0)
        collector = Collector(cluster, period=2.0, stale_after=3)
        api = RemosAPI(collector)
        injector = FaultInjector(cluster, collector)
        injector.schedule(
            random_fault_plan(
                cluster, rng, horizon=40.0, start=1.0,
                n_crashes=2, n_flaps=1, n_outages=2, n_resets=1,
            )
        )
        cluster.transfer("l0", "r2", 200 * MB)  # exercise the counters
        selector = NodeSelector(api)
        spec = ApplicationSpec(num_nodes=2)
        for t in (5.0, 15.0, 25.0, 35.0, 45.0, 60.0):
            sim.run(until=t)
            topo = api.topology()              # must not raise
            for name in cluster.hosts:
                assert api.node_info(name).load_average >= 0.0
            for link in cluster.graph.links():
                api.link_info(link.u, link.v)  # must not raise
            sel = selector.select(spec)        # must not raise
            for n in sel.nodes:
                node = topo.node(n)
                assert not node.attrs.get("down")
                assert not node.attrs.get("unmonitorable")
        # Derived utilization stays sane through wraps, resets and flaps.
        for cid in collector.channels():
            maxbw = cluster.graph.link(*tuple(cid[0])).maxbw
            assert all(
                0.0 <= u <= maxbw * 1.0001
                for _t, u in collector.utilization_history(cid)
            )
        # Well past the horizon, any still-crashed node has gone stale, so
        # selection is correct against ground truth too.
        sim.run(until=90.0)
        final = selector.select(spec)
        assert all(cluster.node_is_up(n) for n in final.nodes)


class TestServiceOversubscriptionProperties:
    """The multi-tenant ledger's conservation law: for *any* sequence of
    concurrent requests, releases, lease expiries, and injected node
    crashes, the summed CPU claims on a node never exceed 1.0 and the
    summed bandwidth claims on a directed channel never exceed that
    link's peak capacity."""

    def _assert_no_oversubscription(self, service, graph):
        # Recompute claim totals from the reservations themselves, then
        # check them against the physical capacities — independently of
        # the ledger's own tallies (which check_invariants also audits).
        service.ledger.check_invariants()
        node_totals: dict[str, float] = {}
        edge_totals: dict = {}
        for r in service.ledger.reservations.values():
            for n in r.nodes:
                node_totals[n] = node_totals.get(n, 0.0) + r.cpu_fraction
            for edge in r.edges:
                edge_totals[edge] = edge_totals.get(edge, 0.0) + r.bw_bps
        for name, total in node_totals.items():
            assert total <= 1.0 + 1e-9, f"node {name} oversubscribed: {total}"
        for (key, dst), total in edge_totals.items():
            cap = graph.link(*tuple(key)).maxbw
            assert total <= cap * (1 + 1e-9) + 1e-9, (
                f"channel {sorted(key)}->{dst} oversubscribed: "
                f"{total} > {cap}"
            )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_invariant_holds_under_churn_and_crashes(self, seed):
        rng = np.random.default_rng(seed)
        sim = Simulator()
        g = dumbbell(4, 4, latency=0.0)
        cluster = Cluster(sim, g, base_capacity=1.0)
        collector = Collector(cluster, period=2.0, stale_after=3)
        api = RemosAPI(collector)
        injector = FaultInjector(cluster, collector)
        service = SelectionService(
            api,
            snapshot_ttl=2.0,
            lease_s=float(rng.uniform(8.0, 25.0)),
            queue_limit=4,
        )
        service.attach_injector(injector)
        injector.schedule(
            random_fault_plan(
                cluster, rng, horizon=60.0, start=10.0,
                n_crashes=2, n_flaps=1, n_outages=1, n_resets=0,
            )
        )
        sim.run(until=5.0)  # let the collector take its first sweeps

        app_seq = 0
        submitted: list[str] = []
        for t in np.linspace(6.0, 75.0, 24):
            sim.run(until=float(t))
            live = [
                a for a in submitted
                if a in service.ledger.reservations or a in service.queue
            ]
            roll = rng.random()
            if roll < 0.55 or not live:
                app_seq += 1
                app = f"app-{app_seq}"
                service.request(
                    app,
                    ApplicationSpec(num_nodes=int(rng.integers(1, 5))),
                    cpu_fraction=float(rng.uniform(0.1, 0.9)),
                    bw_bps=float(rng.uniform(0.0, 40.0)) * Mbps,
                    priority=str(rng.choice(Priority.ALL)),
                )
                submitted.append(app)
            elif roll < 0.8:
                service.release(str(rng.choice(live)))
            else:
                reserved = [
                    a for a in live if a in service.ledger.reservations
                ]
                if reserved and rng.random() < 0.5:
                    service.renew(str(rng.choice(reserved)))
                else:
                    service.tick()
            self._assert_no_oversubscription(service, g)

        # Leases stop being renewed here; crashes already evicted some.
        sim.run(until=200.0)
        service.tick()
        self._assert_no_oversubscription(service, g)
        # No active lease may be past its expiry after a tick.
        for r in service.ledger.reservations.values():
            assert r.expires_at > sim.now
        # Conservation: releasing everything empties every claim tally.
        for app in list(service.ledger.reservations) + [
            r.app_id for r in service.queue.waiting()
        ]:
            service.release(app)
        assert service.ledger.active == 0
        assert service.ledger.node_claims() == {}
        assert service.ledger.edge_claims() == {}

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_crash_eviction_reclaims_capacity(self, seed):
        """A crash that hits reserved nodes force-expires those leases,
        and the invariant holds through eviction and re-admission."""
        rng = np.random.default_rng(seed)
        sim = Simulator()
        g = dumbbell(3, 3, latency=0.0)
        cluster = Cluster(sim, g, base_capacity=1.0)
        collector = Collector(cluster, period=2.0, stale_after=3)
        api = RemosAPI(collector)
        injector = FaultInjector(cluster, collector)
        service = SelectionService(api, snapshot_ttl=2.0, lease_s=1e6)
        service.attach_injector(injector)
        sim.run(until=5.0)

        # Saturate the network: every node fully claimed.
        for i in range(3):
            service.request(
                f"app-{i}", ApplicationSpec(num_nodes=2), cpu_fraction=1.0,
            )
        assert service.ledger.active == 3
        victim = str(rng.choice(sorted(cluster.hosts)))
        holders = service.ledger.apps_on_node(victim)
        assert len(holders) == 1  # full claims cannot share a node
        # One crash that definitely hits a reservation.
        injector.schedule([NodeCrash(node=victim, at=10.0)])
        sim.run(until=20.0)
        assert service.status(holders[0]).status == "evicted"
        assert service.ledger.node_claim(victim) == 0.0
        self._assert_no_oversubscription(service, g)


class TestResidualOverlayProperties:
    """The O(Δ) residual overlay's contract: after *any* sequence of
    grants, releases, renewals, expiries, and node crashes, the in-place
    overlay is **bit-identical** (exact float equality) to a
    ``residual_graph()`` rebuilt from scratch off the ledger's claims."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_overlay_matches_rebuild_under_ledger_churn(self, seed):
        """Direct ledger driving: random reserve/release/renew/expire
        against one snapshot, overlay checked after every operation."""
        rng = np.random.default_rng(seed)
        g = randomized_tree(seed, nc=int(rng.integers(4, 10)))
        ledger = ReservationLedger()
        view = ResidualView(g, ledger)
        ledger.subscribe(view.on_ledger_event)
        hosts = [n.name for n in g.compute_nodes()]
        now = 0.0
        app_seq = 0
        for _ in range(40):
            now += float(rng.uniform(0.0, 5.0))
            live = sorted(ledger.reservations)
            roll = rng.random()
            if roll < 0.45 or not live:
                app_seq += 1
                nodes = list(rng.choice(
                    hosts, size=int(rng.integers(1, min(4, len(hosts)) + 1)),
                    replace=False,
                ))
                try:
                    ledger.reserve(
                        f"app-{app_seq}", [str(n) for n in nodes],
                        cpu_fraction=float(rng.uniform(0.0, 0.8)),
                        bw_bps=float(rng.uniform(0.0, 20.0)) * Mbps,
                        graph=g, now=now,
                        lease_s=float(rng.uniform(1.0, 15.0)),
                    )
                except LedgerError:
                    pass  # oversubscribed attempt; ledger unchanged
            elif roll < 0.65:
                ledger.release(str(rng.choice(live)))
            elif roll < 0.8:
                ledger.renew(
                    str(rng.choice(live)), now, float(rng.uniform(1.0, 15.0))
                )
            else:
                ledger.expire(now)
            ledger.check_invariants(view=view)
        ledger.expire(now + 100.0)
        assert ledger.active == 0
        view.assert_matches_rebuild()

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_overlay_matches_rebuild_under_service_churn_and_crashes(
        self, seed
    ):
        """Full service stack with fault injection: the live overlay the
        admission hot path runs on stays bit-identical to a rebuild
        through grants, releases, renewals, expiries, and crash
        evictions."""
        rng = np.random.default_rng(seed)
        sim = Simulator()
        g = dumbbell(4, 4, latency=0.0)
        cluster = Cluster(sim, g, base_capacity=1.0)
        collector = Collector(cluster, period=2.0, stale_after=3)
        api = RemosAPI(collector)
        injector = FaultInjector(cluster, collector)
        service = SelectionService(
            api, snapshot_ttl=2.0,
            lease_s=float(rng.uniform(8.0, 25.0)), queue_limit=4,
        )
        service.attach_injector(injector)
        injector.schedule(
            random_fault_plan(
                cluster, rng, horizon=50.0, start=8.0,
                n_crashes=2, n_flaps=1, n_outages=0, n_resets=0,
            )
        )
        sim.run(until=5.0)

        app_seq = 0
        submitted: list[str] = []
        for t in np.linspace(6.0, 60.0, 20):
            sim.run(until=float(t))
            live = [
                a for a in submitted if a in service.ledger.reservations
            ]
            roll = rng.random()
            if roll < 0.55 or not live:
                app_seq += 1
                app = f"app-{app_seq}"
                service.request(
                    app,
                    ApplicationSpec(num_nodes=int(rng.integers(1, 4))),
                    cpu_fraction=float(rng.uniform(0.1, 0.7)),
                    bw_bps=float(rng.uniform(0.0, 30.0)) * Mbps,
                )
                submitted.append(app)
            elif roll < 0.8:
                service.release(str(rng.choice(live)))
            else:
                service.renew(str(rng.choice(live)))
            # Ledger caps + overlay/rebuild bit-identity, every step.
            service.check_invariants()
        sim.run(until=120.0)
        service.tick()  # expire everything still held
        service.check_invariants()


class TestPartitionProperties:
    """The partitioner's structural laws, over random topologies and
    shard counts: every host lands in exactly one shard, every edge is
    intra-shard XOR trunk, every shard is connected, and reassembling
    the shards plus the trunk reproduces the input graph bit-identically."""

    @staticmethod
    def _random_graph(rng):
        from repro.topology import grid, two_campus
        kind = rng.integers(0, 3)
        if kind == 0:
            return random_tree(
                int(rng.integers(8, 40)), int(rng.integers(2, 8)), rng,
            )
        if kind == 1:
            return grid(int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        return two_campus(
            fast_hosts=int(rng.integers(2, 10)),
            slow_hosts=int(rng.integers(2, 10)),
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_cover_cut_connectivity_and_roundtrip(self, seed):
        from repro.service.sharding import (
            graph_fingerprint,
            partition_topology,
            reassemble,
        )
        rng = np.random.default_rng(seed)
        g = self._random_graph(rng)
        # Perturb per-direction availabilities so bit-identity is real.
        for i, link in enumerate(g.links()):
            link.available_fwd = link.maxbw * float(rng.uniform(0.1, 1.0))
            link.available_rev = link.maxbw * float(rng.uniform(0.1, 1.0))
        k = int(rng.integers(1, min(6, g.num_nodes) + 1))
        plan = partition_topology(g, k)

        # Exactly-once cover.
        covered = [n for members in plan.shards for n in members]
        assert len(covered) == g.num_nodes
        assert set(covered) == set(g.node_names())
        # Intra-shard XOR trunk, per edge.
        for link in g.links():
            intra = plan.shard_of[link.u] == plan.shard_of[link.v]
            assert intra != (link.key in plan.trunk_keys)
        # Connectivity of every shard.
        for members in plan.shards:
            assert g.subgraph(members).is_connected()
        # Bit-identical reassembly.
        assert graph_fingerprint(reassemble(plan)) == graph_fingerprint(g)
        # Determinism.
        again = partition_topology(g, k)
        assert again.shard_of == plan.shard_of
        assert again.trunk_keys == plan.trunk_keys


class TestShardRouterChurnProperties:
    """The sharded deployment's conservation law: under any sequence of
    local and cross-shard grants, releases, renewals, and lease expiries,
    no trunk channel's summed claims exceed its measured availability,
    shard ledgers never claim trunk channels, and releasing everything
    returns the trunk to exactly empty."""

    @staticmethod
    def _assert_trunk_capacity(router, graph):
        totals: dict = {}
        for r in router.trunk.reservations.values():
            for edge in r.edges:
                totals[edge] = totals.get(edge, 0.0) + r.bw_bps
        for (key, dst), total in totals.items():
            cap = graph.link(*tuple(key)).available_towards(dst)
            assert total <= cap * (1 + 1e-9) + 1e-9, (
                f"trunk channel {sorted(key)}->{dst} oversubscribed: "
                f"{total} > {cap}"
            )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_no_trunk_oversubscription_under_churn(self, seed):
        from repro.service import ShardRouter
        from repro.topology import two_campus
        rng = np.random.default_rng(seed)
        g = two_campus(
            fast_hosts=int(rng.integers(4, 9)),
            slow_hosts=int(rng.integers(4, 9)),
            wan_bw=float(rng.uniform(5.0, 30.0)) * Mbps,
        )
        router = ShardRouter(g, shards=2,
                             lease_s=float(rng.uniform(8.0, 25.0)))
        app_seq = 0
        for _step in range(30):
            live = router.active_apps()
            roll = rng.random()
            if roll < 0.5 or not live:
                app_seq += 1
                spread = 2 if rng.random() < 0.4 else 1
                router.request(
                    f"app-{app_seq}",
                    ApplicationSpec(num_nodes=int(rng.integers(2, 7))),
                    cpu_fraction=float(rng.uniform(0.05, 0.6)),
                    bw_bps=float(rng.uniform(0.0, 12.0)) * Mbps,
                    spread=spread,
                )
            elif roll < 0.7:
                router.release(str(rng.choice(live)))
            elif roll < 0.85:
                router.renew(str(rng.choice(live)))
            else:
                router.advance(float(rng.uniform(1.0, 12.0)))
            # Shard ledgers + trunk caps + claim partition, every step.
            router.check_invariants()
            self._assert_trunk_capacity(router, g)

        # Conservation: releasing everything empties every claim tally.
        for app in router.active_apps():
            router.release(app)
        assert router.trunk.active == 0
        assert router.trunk.claims_fingerprint() == (
            frozenset(), frozenset(),
        )
        for service in router.services:
            assert service.ledger.active == 0
            assert service.ledger.node_claims() == {}
            assert service.ledger.edge_claims() == {}

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_cross_shard_release_is_bit_exact(self, seed):
        """Claiming and releasing a cross-shard grant over an arbitrary
        standing load returns all three ledgers to their exact prior
        fingerprints (the probe-first two-phase design's guarantee)."""
        from repro.service import ShardRouter
        from repro.topology import two_campus
        rng = np.random.default_rng(seed)
        g = two_campus(fast_hosts=6, slow_hosts=6)
        router = ShardRouter(g, shards=2)
        # Arbitrary standing load.
        for i in range(int(rng.integers(0, 4))):
            router.request(
                f"base-{i}", ApplicationSpec(num_nodes=2),
                cpu_fraction=float(rng.uniform(0.05, 0.3)),
                bw_bps=float(rng.uniform(0.0, 3.0)) * Mbps,
            )
        before = (
            [s.ledger.claims_fingerprint() for s in router.services],
            router.trunk.claims_fingerprint(),
        )
        grant = router.request(
            "probe-me", ApplicationSpec(num_nodes=4),
            cpu_fraction=float(rng.uniform(0.05, 0.4)),
            bw_bps=float(rng.uniform(0.5, 4.0)) * Mbps,
            spread=2,
        )
        if grant.admitted:
            router.release("probe-me")
        after = (
            [s.ledger.claims_fingerprint() for s in router.services],
            router.trunk.claims_fingerprint(),
        )
        assert after == before
