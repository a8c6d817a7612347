"""PlacementBackend conformance: one suite, every backend.

The :class:`~repro.service.PlacementBackend` protocol promises that the
single service, the in-process shard router, and the process-worker
router are interchangeable behind the testbed/CLI.  This suite runs the
same grant/release/renew/expiry/error scenarios against all three and
pins the shared behavior — so a new backend (or a regression in an old
one) fails loudly in one place.
"""

from collections import Counter

import pytest

from repro.core.spec import ApplicationSpec
from repro.des import Simulator
from repro.network import Cluster
from repro.service import (
    BatchRequest,
    Decision,
    PlacementGrant,
    Priority,
    SelectionService,
    ShardRouter,
)
from repro.service.service import KEPT_ENDED_OUTCOMES
from repro.topology import two_campus


def _graph():
    return two_campus(fast_hosts=6, slow_hosts=6)


def _service(**kwargs):
    # queue_limit=0 matches the routers' no-queue admission contract.
    return SelectionService(_graph(), queue_limit=0, lease_s=10.0, **kwargs)


def _inproc_router(**kwargs):
    return ShardRouter(_graph(), shards=2, lease_s=10.0, **kwargs)


def _process_router(**kwargs):
    return ShardRouter(_graph(), shards=2, lease_s=10.0,
                       executor="process", workers=2, **kwargs)


BACKENDS = {
    "service": _service,
    "router-inproc": _inproc_router,
    "router-process": _process_router,
}


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def backend(request):
    b = BACKENDS[request.param]()
    yield b
    b.close()


class TestGrantLifecycle:
    def test_admit_is_a_placement_grant(self, backend):
        g = backend.request("a", ApplicationSpec(num_nodes=3),
                            cpu_fraction=0.2)
        assert isinstance(g, PlacementGrant)
        assert g.admitted and g.status == Decision.ADMITTED
        assert g.app_id == "a"
        assert len(g.selection.nodes) == 3
        assert backend.active_apps() == ["a"]
        assert backend.status("a") is g or backend.status("a") == g

    def test_duplicate_live_app_raises(self, backend):
        backend.request("a", ApplicationSpec(num_nodes=2))
        with pytest.raises(ValueError, match="live"):
            backend.request("a", ApplicationSpec(num_nodes=2))

    def test_infeasible_is_rejected_with_reason(self, backend):
        g = backend.request("big", ApplicationSpec(num_nodes=99))
        assert not g.admitted and g.status == Decision.REJECTED
        assert g.reason
        assert backend.active_apps() == []
        assert backend.status("big").status == Decision.REJECTED

    def test_release_frees_and_records_outcome(self, backend):
        backend.request("a", ApplicationSpec(num_nodes=2), cpu_fraction=0.3)
        out = backend.release("a")
        assert out.status == Decision.RELEASED
        assert backend.active_apps() == []
        assert backend.status("a").status == Decision.RELEASED
        # Capacity actually returns: the same claim fits again.
        assert backend.request("b", ApplicationSpec(num_nodes=2),
                               cpu_fraction=0.3).admitted

    def test_release_kinds(self, backend):
        for kind, status in (("release", Decision.RELEASED),
                             ("evict", Decision.EVICTED)):
            backend.request("a", ApplicationSpec(num_nodes=2))
            assert backend.release("a", kind=kind).status == status

    def test_release_unknown_kind_raises(self, backend):
        backend.request("a", ApplicationSpec(num_nodes=2))
        with pytest.raises(ValueError, match="kind"):
            backend.release("a", kind="vanish")

    def test_release_unknown_app_raises(self, backend):
        with pytest.raises(KeyError):
            backend.release("ghost")

    def test_status_unknown_app_raises(self, backend):
        with pytest.raises(KeyError, match="ghost"):
            backend.status("ghost")

    @pytest.mark.parametrize("bad, match, lapsed", [
        ({"cpu_fraction": 1.5}, r"must be in \[0, 1\]: 1.5", False),
        ({"bw_bps": -1.0}, "cannot be negative", False),
        ({"bw_bps": float("nan")}, "must be finite: nan", False),
        ({"bw_bps": float("inf")}, "must be finite: inf", False),
        ({"priority": "platinum"}, "unknown priority", False),
        ({"cpu_fraction": 1.5}, r"must be in \[0, 1\]: 1.5", True),
    ], ids=["cpu", "bw", "bw-nan", "bw-inf", "priority", "cpu-lapsed"])
    def test_refused_request_counts_nothing(self, backend, bad, match,
                                            lapsed):
        """A request no lease could hold is refused before any counter
        moves, on the backend and on every shard: with a lease lapsed
        but not yet ticked, it expires nothing either."""
        if lapsed:
            backend.request("b", ApplicationSpec(num_nodes=2))
            backend._manual_clock.now += 11.0  # lease_s=10; no tick
        def counts():
            snap = backend.metrics_snapshot()
            return [snap["requests"], snap["expired"], *(
                (part["requests"], part["active_leases"])
                for part in snap.get("per_shard", {}).values()
            )]

        before = counts()
        with pytest.raises(ValueError, match=match):
            backend.request("a", ApplicationSpec(num_nodes=2), **bad)
        assert counts() == before
        assert backend.active_apps() == (["b"] if lapsed else [])

    @pytest.mark.parametrize("extend", [float("nan"), float("inf"), 0.0,
                                        -1.0],
                             ids=["nan", "inf", "zero", "negative"])
    def test_refused_renew_moves_no_deadline(self, backend, extend):
        """A lease length no deadline can hold is refused, and the lease
        lapses when it would have."""
        backend.request("a", ApplicationSpec(num_nodes=2))
        with pytest.raises(ValueError, match="lease_s must be positive"):
            backend.renew("a", extend=extend)
        backend.advance(11.0)  # lease_s=10
        assert backend.active_apps() == []
        assert backend.status("a").status == Decision.EXPIRED


@pytest.mark.parametrize("lease_s", ["nan", "inf"])
@pytest.mark.parametrize("make", [SelectionService, ShardRouter],
                         ids=["service", "router"])
def test_refused_lease_length(make, lease_s):
    with pytest.raises(ValueError,
                       match=f"lease_s must be positive and finite: {lease_s}"):
        make(_graph(), lease_s=float(lease_s))


@pytest.mark.parametrize("make", [SelectionService, ShardRouter],
                         ids=["service", "router"])
def test_refused_snapshot_ttl(make):
    """A NaN TTL compares false with every age: it would silently turn
    the snapshot cache off."""
    with pytest.raises(ValueError,
                       match="ttl must be a non-negative number: nan"):
        make(_graph(), snapshot_ttl=float("nan"))


class TestLeaseClock:
    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), -1.0],
                             ids=["nan", "inf", "negative"])
    def test_refused_advance_moves_no_clock(self, backend, dt):
        """A clock step no deadline can follow is refused: the clock
        stays, and the next grant is logged with a finite deadline and
        lapses when it should."""
        backend.request("a", ApplicationSpec(num_nodes=2))
        now = backend.now
        with pytest.raises(ValueError,
                           match="dt must be non-negative and finite"):
            backend.advance(dt)
        assert backend.now == now
        assert backend.request("b", ApplicationSpec(num_nodes=2)).admitted
        backend.advance(11.0)  # lease_s=10
        assert backend.active_apps() == []
        assert backend.status("b").status == Decision.EXPIRED

    def test_expiry_after_lease_lapse(self, backend):
        backend.request("a", ApplicationSpec(num_nodes=2))
        backend.advance(11.0)  # lease_s=10
        assert backend.active_apps() == []
        assert backend.status("a").status == Decision.EXPIRED

    def test_renew_extends_the_lease(self, backend):
        backend.request("a", ApplicationSpec(num_nodes=2))
        backend.advance(8.0)
        backend.renew("a")
        backend.advance(8.0)  # 16s total, but renewed at t=8
        assert backend.active_apps() == ["a"]
        backend.advance(3.0)
        assert backend.active_apps() == []

    def test_renew_with_explicit_extend(self, backend):
        backend.request("a", ApplicationSpec(num_nodes=2))
        backend.renew("a", extend=100.0)
        backend.advance(50.0)
        assert backend.active_apps() == ["a"]

    def test_renew_unknown_app_raises(self, backend):
        with pytest.raises(KeyError):
            backend.renew("ghost")

    def test_tick_returns_expired_app_ids(self, backend):
        backend.request("a", ApplicationSpec(num_nodes=2))
        if hasattr(backend, "_manual_clock") and backend._manual_clock:
            backend._manual_clock.now += 11.0
        else:
            backend.clock.now += 11.0
        assert backend.tick() == ["a"]


@pytest.mark.parametrize("make", [SelectionService, ShardRouter],
                         ids=["service", "router-inproc"])
def test_advance_refused_on_a_provider_clock(make):
    """A backend whose clock comes from its provider's simulator has no
    manual clock to advance."""
    sim = Simulator()
    backend = make(Cluster(sim, _graph()))
    try:
        with pytest.raises(RuntimeError, match="manual clock"):
            backend.advance(1.0)
        assert backend.now == sim.now
    finally:
        backend.close()


class TestBatch:
    def test_order_preserved_and_all_admitted(self, backend):
        batch = [
            BatchRequest(app_id=f"b{i}", spec=ApplicationSpec(num_nodes=2),
                         cpu_fraction=0.1)
            for i in range(4)
        ]
        grants = backend.admit_batch(batch)
        assert [g.app_id for g in grants] == [b.app_id for b in batch]
        assert all(g.admitted for g in grants)
        assert backend.active_apps() == sorted(b.app_id for b in batch)

    def test_duplicate_in_batch_admits_nothing(self, backend):
        batch = [
            BatchRequest(app_id="dup", spec=ApplicationSpec(num_nodes=2)),
            BatchRequest(app_id="dup", spec=ApplicationSpec(num_nodes=2)),
        ]
        with pytest.raises(ValueError, match="dup"):
            backend.admit_batch(batch)
        assert backend.active_apps() == []

    def test_already_live_app_admits_nothing(self, backend):
        backend.request("a", ApplicationSpec(num_nodes=2))
        with pytest.raises(ValueError, match="live"):
            backend.admit_batch(
                [BatchRequest(app_id="a", spec=ApplicationSpec(num_nodes=2))]
            )
        assert backend.active_apps() == ["a"]

    def test_empty_batch(self, backend):
        assert backend.admit_batch([]) == []


class TestIntrospection:
    def test_metrics_snapshot_flat_schema(self, backend):
        backend.request("a", ApplicationSpec(num_nodes=2))
        backend.request("big", ApplicationSpec(num_nodes=99))
        snap = backend.metrics_snapshot()
        assert snap["requests"] == 2
        assert snap["admitted"] == 1
        assert snap["rejected"] == 1

    def test_flush_state_is_safe_when_not_durable(self, backend):
        backend.request("a", ApplicationSpec(num_nodes=2))
        backend.flush_state()
        assert backend.active_apps() == ["a"]

    def test_now_advances(self, backend):
        t0 = backend.now
        backend.advance(2.5)
        assert backend.now == pytest.approx(t0 + 2.5)


class _OutcomeLog(dict):
    """An outcomes table that tallies every status an application's
    outcome becomes.  An admitted outcome rewritten admitted (a renewal,
    a migration) stays admitted: it becomes nothing new."""

    def __init__(self, outcomes):
        super().__init__(outcomes)
        self.became = Counter()

    def __setitem__(self, app_id, grant):
        prev = self.get(app_id)
        if not (prev is not None and prev.admitted and grant.admitted):
            self.became[grant.status] += 1
        super().__setitem__(app_id, grant)


def _assert_counters_match(backend, log):
    snap = backend.metrics_snapshot()
    assert {s: snap[s] for s in Decision.ALL} == \
        {s: log.became[s] for s in Decision.ALL}


class TestCountersAgreeWithOutcomes:
    def test_every_backend(self, backend):
        log = backend.outcomes = _OutcomeLog(backend.outcomes)
        two = ApplicationSpec(num_nodes=2)
        backend.request("a", two, cpu_fraction=0.3)
        backend.request("big", ApplicationSpec(num_nodes=99))
        backend.request("big", ApplicationSpec(num_nodes=99))
        backend.admit_batch([BatchRequest("b", two), BatchRequest("c", two)])
        backend.release("a")
        backend.release("b", kind="evict")
        backend.release("c", kind="preempt")
        backend.request("d", two)
        backend.renew("d")
        backend.advance(11.0)  # lease_s=10: d expires
        assert set(log.became) == {
            Decision.ADMITTED, Decision.REJECTED, Decision.RELEASED,
            Decision.EVICTED, Decision.PREEMPTED, Decision.EXPIRED,
        }
        _assert_counters_match(backend, log)

    def test_service_queue_evict_and_preempt(self):
        """The service's own outcomes: queued, displaced, drained from
        the queue, withdrawn, preempted for gold and crash-evicted."""

        class Injector:
            def subscribe(self, fn):
                self.fire = fn

        service = _service(preempt=True)
        service.queue.limit = 1
        injector = Injector()
        service.attach_injector(injector)
        log = service.outcomes = _OutcomeLog(service.outcomes)
        hosts = len(service.cache.topology().compute_nodes())
        whole = ApplicationSpec(num_nodes=hosts)
        two = ApplicationSpec(num_nodes=2)
        bronze, silver = Priority.BRONZE, Priority.SILVER
        assert service.request("fill", whole, cpu_fraction=1.0,
                               priority=bronze).admitted
        assert service.request("q1", two, cpu_fraction=0.5,
                               priority=bronze).status == Decision.QUEUED
        # q2 outranks q1 in a full queue: q1 is displaced, rejected.
        assert service.request("q2", two, cpu_fraction=0.5,
                               priority=silver).status == Decision.QUEUED
        assert service.status("q1").status == Decision.REJECTED
        assert service.request("g", whole, cpu_fraction=0.5,
                               priority=Priority.GOLD).admitted
        assert service.status("fill").status == Decision.PREEMPTED
        service.release("g")  # the drain admits q2
        assert service.status("q2").admitted
        injector.fire(service.now, "node-crash",
                      service.status("q2").selection.nodes[0])
        assert service.status("q2").status == Decision.EVICTED
        # Every node but the crashed one, then a request that waits and
        # is withdrawn.
        assert service.request("w", ApplicationSpec(num_nodes=hosts - 1),
                               cpu_fraction=0.9).admitted
        assert service.request("w2", two, cpu_fraction=0.9).status == \
            Decision.QUEUED
        assert service.release("w2").reason == "withdrawn from queue"
        service.advance(11.0)  # lease_s=10: w expires
        assert service.status("w").status == Decision.EXPIRED
        assert set(log.became) == set(Decision.ALL)
        _assert_counters_match(service, log)


class TestOutcomeBound:
    def test_ended_outcomes_are_bounded_live_ones_kept(self, backend):
        """A long-running backend keeps every live outcome and only the
        last ``KEPT_ENDED_OUTCOMES`` ended ones, on every backend and on
        every shard service behind a router."""
        two = ApplicationSpec(num_nodes=2)
        assert backend.request("live", two, cpu_fraction=0.1).admitted
        # Ended early, then live again: its old ended outcome is recycled
        # out of the ring long before the loop ends, its live one stays.
        assert backend.request("back", two, cpu_fraction=0.1).admitted
        backend.release("back")
        assert backend.request("back", two, cpu_fraction=0.1).admitted
        backend.request("huge", ApplicationSpec(num_nodes=99))  # rejected
        cycles = 3000
        for i in range(cycles):
            assert backend.request(f"c{i}", two, cpu_fraction=0.1).admitted
            backend.release(f"c{i}")
        live = backend.active_apps()
        assert live == ["back", "live"]
        assert len(backend.outcomes) <= KEPT_ENDED_OUTCOMES + len(live)
        assert backend.status(f"c{cycles - 1}").status == Decision.RELEASED
        oldest_kept = f"c{cycles - KEPT_ENDED_OUTCOMES}"
        assert backend.status(oldest_kept).status == Decision.RELEASED
        for gone in ("c0", f"c{cycles - KEPT_ENDED_OUTCOMES - 1}", "huge"):
            with pytest.raises(KeyError):
                backend.status(gone)
        assert backend.status("live").admitted
        assert backend.status("back").admitted
        if isinstance(backend, ShardRouter) and backend.pool is None:
            for service in backend.services:
                held = len(service.active_apps())
                assert len(service.outcomes) <= KEPT_ENDED_OUTCOMES + held
        backend.check_invariants()
