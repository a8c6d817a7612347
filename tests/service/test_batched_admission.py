"""Batched admission: ``admit_batch`` on both PlacementBackend backends.

Pins the API contract (atomic validation, per-request settlement, the
bit-identical singleton guarantee), the greedy planner's agreement with
the serial path, and the router's shard-by-shard batch routing — plus
the PlacementBackend protocol conformance both backends now share.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ApplicationSpec
from repro.service import (
    BatchRequest,
    Decision,
    PlacementBackend,
    SelectionService,
    ShardRouter,
)
from repro.topology import dumbbell


def make_graph(hosts=12, seed=0):
    rng = random.Random(seed)
    g = dumbbell(hosts // 2, hosts - hosts // 2, bandwidth=100e6)
    for link in g.links():
        link.available_fwd = rng.uniform(40e6, 100e6)
        link.available_rev = rng.uniform(40e6, 100e6)
    return g


def make_service(graph=None, **kw):
    kw.setdefault("snapshot_ttl", 1e9)
    kw.setdefault("lease_s", 1e9)
    kw.setdefault("queue_limit", 0)
    return SelectionService(graph if graph is not None else make_graph(), **kw)


def batch(n, *, nodes=2, cpu=0.1, bw=0.0, prefix="app"):
    return [
        BatchRequest(
            app_id=f"{prefix}-{i}",
            spec=ApplicationSpec(num_nodes=nodes),
            cpu_fraction=cpu + i * 1e-3,
            bw_bps=bw,
        )
        for i in range(n)
    ]


class TestValidation:
    def test_duplicate_app_id_in_batch_raises_with_nothing_admitted(self):
        service = make_service()
        reqs = batch(3)
        reqs[2] = BatchRequest(
            app_id=reqs[0].app_id, spec=ApplicationSpec(num_nodes=2),
        )
        with pytest.raises(ValueError, match="duplicate"):
            service.admit_batch(reqs)
        assert service.active_apps() == []
        assert service.metrics.admitted == 0

    def test_live_lease_conflict_raises_with_nothing_admitted(self):
        service = make_service()
        service.request("app-1", ApplicationSpec(num_nodes=2))
        with pytest.raises(ValueError, match="live request"):
            service.admit_batch(batch(3))
        assert service.active_apps() == ["app-1"]

    def test_empty_batch_is_a_no_op(self):
        service = make_service()
        assert service.admit_batch([]) == []
        assert service.metrics.batches == 0

    def test_batch_request_validates_fields(self):
        with pytest.raises(ValueError):
            BatchRequest(app_id="", spec=ApplicationSpec(num_nodes=1))
        with pytest.raises(ValueError):
            BatchRequest(
                app_id="a", spec=ApplicationSpec(num_nodes=1),
                cpu_fraction=-0.1,
            )

    @pytest.mark.parametrize("backend", ["service", "router"])
    def test_cpu_claim_above_one_node_is_refused_before_counting(
        self, backend
    ):
        """A claim above the whole node cannot be built, so a batch
        holding one never reaches ``admit_batch`` and counts nothing."""
        target = (make_service() if backend == "service"
                  else ShardRouter(make_graph(hosts=16), shards=2,
                                   snapshot_ttl=1e9, lease_s=1e9))
        spec = ApplicationSpec(num_nodes=1)
        BatchRequest("whole", spec, cpu_fraction=1.0)  # the cap itself fits
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]: 1.5"):
            target.admit_batch([
                BatchRequest("ok", spec, cpu_fraction=0.1),
                BatchRequest("b", spec, cpu_fraction=1.5),
            ])
        m = target.metrics
        assert (m.requests, m.batches, m.batch_requests) == (0, 0, 0)
        assert target.active_apps() == []


class TestSingletonBitIdentity:
    def test_batch_of_one_equals_request(self):
        g = make_graph()
        b = BatchRequest(
            app_id="solo", spec=ApplicationSpec(num_nodes=3),
            cpu_fraction=0.2, bw_bps=5e6,
        )
        via_batch = make_service(g).admit_batch([b])[0]
        via_request = make_service(g).request(
            "solo", b.spec, cpu_fraction=0.2, bw_bps=5e6,
        )
        assert via_batch.status == via_request.status
        assert via_batch.selection.nodes == via_request.selection.nodes
        assert via_batch.selection.objective == via_request.selection.objective
        assert via_batch.selection.algorithm == via_request.selection.algorithm
        assert (
            via_batch.reservation.expires_at
            == via_request.reservation.expires_at
        )

    def test_batch_of_one_infeasible_equals_request(self):
        g = make_graph(hosts=4)
        spec = ApplicationSpec(num_nodes=99)
        via_batch = make_service(g).admit_batch([
            BatchRequest(app_id="big", spec=spec)
        ])[0]
        via_request = make_service(g).request("big", spec)
        assert via_batch.status == via_request.status == Decision.REJECTED
        assert via_batch.reason == via_request.reason


class TestPlannedBatch:
    def test_planner_places_the_tail_of_a_plain_batch(self):
        service = make_service()
        grants = service.admit_batch(batch(6, cpu=0.1, bw=1e6))
        assert all(gr.admitted for gr in grants)
        assert service.metrics.batch_planned == 5  # all but the first
        service.check_invariants()

    def test_planner_grants_respect_ledger_caps(self):
        service = make_service()
        # 0.4 each, cap 1.0: at most 2 claims per node.
        grants = service.admit_batch(batch(8, nodes=2, cpu=0.4))
        service.check_invariants()
        for gr in grants:
            if gr.admitted:
                for name in gr.selection.nodes:
                    assert (
                        service.ledger._node_claims[name] <= 1.0 + 1e-9
                    )

    def test_non_plain_specs_take_the_serial_path(self):
        service = make_service()
        reqs = [
            BatchRequest(
                app_id=f"floor-{i}",
                spec=ApplicationSpec(num_nodes=2, min_cpu_fraction=0.1),
            )
            for i in range(3)
        ]
        grants = service.admit_batch(reqs)
        assert all(gr.admitted for gr in grants)
        assert service.metrics.batch_planned == 0

    def test_infeasible_tail_settles_without_rolling_back_head(self):
        g = make_graph(hosts=4)
        service = make_service(g)
        reqs = batch(3, nodes=2, cpu=0.9)  # only two fit (cap 1.0)
        grants = service.admit_batch(reqs)
        statuses = [gr.status for gr in grants]
        assert statuses.count(Decision.ADMITTED) == 2
        assert statuses.count(Decision.REJECTED) == 1
        assert len(service.active_apps()) == 2
        service.check_invariants()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 8),
        cpu=st.floats(0.05, 0.2),
    )
    def test_shuffled_batch_admits_the_serial_set_when_uncontended(
        self, seed, n, cpu
    ):
        """Order independence: with capacity to spare, a shuffled batch
        admits exactly the apps serial one-at-a-time admission does
        (including always-infeasible ones rejected either way)."""
        rng = random.Random(seed)
        g = make_graph(hosts=12, seed=seed)
        reqs = batch(n, nodes=2, cpu=cpu)
        # Mix in one never-feasible request.
        reqs.append(BatchRequest(
            app_id="huge", spec=ApplicationSpec(num_nodes=99),
        ))
        serial = make_service(g)
        serial_ok = {
            b.app_id
            for b in reqs
            if serial.request(
                b.app_id, b.spec,
                cpu_fraction=b.cpu_fraction, bw_bps=b.bw_bps,
            ).admitted
        }
        shuffled = list(reqs)
        rng.shuffle(shuffled)
        batched = make_service(g)
        grants = batched.admit_batch(shuffled)
        batched_ok = {gr.app_id for gr in grants if gr.admitted}
        assert batched_ok == serial_ok
        batched.check_invariants()


class TestRouterBatch:
    def make_router(self, **kw):
        kw.setdefault("snapshot_ttl", 1e9)
        kw.setdefault("lease_s", 1e9)
        return ShardRouter(make_graph(hosts=16), shards=2, **kw)

    def test_batch_routes_across_shards_in_order(self):
        router = self.make_router()
        reqs = batch(6, nodes=2, cpu=0.2)
        grants = router.admit_batch(reqs)
        assert [gr.app_id for gr in grants] == [b.app_id for b in reqs]
        assert all(gr.admitted for gr in grants)
        assert all(len(gr.shards) == 1 for gr in grants)
        assert router.metrics.batches == 1
        assert router.metrics.batch_requests == 6
        router.check_invariants()

    def test_duplicate_raises_with_nothing_admitted(self):
        router = self.make_router()
        router.request("app-0", ApplicationSpec(num_nodes=2))
        with pytest.raises(ValueError, match="live request"):
            router.admit_batch(batch(2))
        assert router.active_apps() == ["app-0"]

    def test_infeasible_request_is_rejected_in_place(self):
        router = self.make_router()
        reqs = batch(2, nodes=2, cpu=0.2)
        reqs.insert(1, BatchRequest(
            app_id="huge", spec=ApplicationSpec(num_nodes=99),
        ))
        grants = router.admit_batch(reqs)
        assert [gr.status for gr in grants] == [
            Decision.ADMITTED, Decision.REJECTED, Decision.ADMITTED,
        ]


class TestUnifiedApi:
    def test_both_backends_satisfy_the_protocol(self):
        assert isinstance(make_service(), PlacementBackend)
        router = ShardRouter(make_graph(hosts=16), shards=2)
        assert isinstance(router, PlacementBackend)

    def test_service_release_kinds(self):
        service = make_service()
        service.request("a", ApplicationSpec(num_nodes=2))
        out = service.release("a", kind="evict")
        assert out.status == Decision.EVICTED
        assert service.metrics.evicted == 1
        assert service.metrics.released == 0
        with pytest.raises(ValueError, match="unknown release kind"):
            service.release("a", kind="bogus")

    def test_service_renew_returns_grant_with_extension(self):
        service = make_service(lease_s=60.0)
        grant = service.request("a", ApplicationSpec(num_nodes=2))
        renewed = service.renew("a", extend=500.0)
        assert renewed.status == Decision.ADMITTED
        assert renewed.reservation.expires_at == 500.0
        assert renewed.selection.nodes == grant.selection.nodes
        with pytest.raises(ValueError):
            service.renew("a", extend=-1.0)

    def test_router_release_kind_and_renew_extend(self):
        router = ShardRouter(
            make_graph(hosts=16), shards=2, lease_s=60.0,
        )
        router.request("a", ApplicationSpec(num_nodes=2))
        router.renew("a", extend=500.0)
        shard, sub = next(iter(router._active["a"].parts.items()))
        assert (
            router.services[shard].ledger.reservations[sub].expires_at
            == 500.0
        )
        out = router.release("a", kind="evict")
        assert out.status == Decision.EVICTED
        assert router.metrics.evicted == 1
