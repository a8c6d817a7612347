"""The router's per-request bookkeeping against the versions it replaced.

``InprocExecutor.tick_all`` ticks the shard services only once some
ledger's ``next_deadline`` has come, and ``ShardRouter._shard_order``
sorts a kept list of keys.  A gated router and one whose executor ticks
every shard on every call (``tests/oracles.py::TickEveryShard``) are run
side by side over generated histories — requests local and split,
releases, renewals, lapsing leases, explicit ticks — and must agree on
every grant, outcome, count, claim and deadline heap, on a manual clock
and under a moving simulator clock.  The exact-count test pins what the
gate saves: no ``SelectionService.tick`` from ``tick_all`` while no
lease can lapse, against the 16 per request the ungated tick made.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.spec import ApplicationSpec
from repro.des import Simulator
from repro.network import Cluster
from repro.remos import Collector, RemosAPI
from repro.service import SelectionService, ShardRouter
from repro.topology import random_tree, two_campus
from repro.units import Mbps

from ..oracles import (
    TickEveryShard,
    shard_order_by_sort,
    tick_every_shard_router,
)

APPS = [f"app{i}" for i in range(8)]
LEASE_S = 5.0


def _outcome(fn):
    """``fn()``'s value, or the type and text of what it raised."""
    try:
        return fn()
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


class RouterTickHistory(RuleBasedStateMachine):
    """A gated router and a tick-every-shard router, one history."""

    def build(self) -> list[ShardRouter]:
        return [
            make(two_campus(fast_hosts=8, slow_hosts=8), shards=4,
                 lease_s=LEASE_S)
            for make in (ShardRouter, tick_every_shard_router)
        ]

    def move_clock(self, dt: float) -> None:
        for router in self.routers:
            router.advance(dt)

    @initialize()
    def start(self):
        self.routers = self.build()
        assert type(self.routers[1]._exec) is TickEveryShard

    def both(self, op):
        got, want = (_outcome(lambda r=r: op(r)) for r in self.routers)
        assert got == want
        return got

    @rule(
        app=st.sampled_from(APPS),
        m=st.integers(1, 6),
        spread=st.sampled_from([1, 2]),
        bw=st.sampled_from([0.0, 1 * Mbps]),
        cpu=st.sampled_from([0.1, 0.4]),
    )
    def request(self, app, m, spread, bw, cpu):
        self.both(lambda r: r.request(
            app, ApplicationSpec(num_nodes=m), cpu_fraction=cpu,
            bw_bps=bw, spread=spread,
        ))

    @rule(app=st.sampled_from(APPS))
    def release(self, app):
        self.both(lambda r: r.release(app))

    @rule(app=st.sampled_from(APPS),
          extend=st.sampled_from([None, 1.0, 3 * LEASE_S]))
    def renew(self, app, extend):
        self.both(lambda r: r.renew(app, extend=extend))

    @rule(dt=st.sampled_from([0.0, 0.5, 2.0, LEASE_S, 2 * LEASE_S]))
    def advance(self, dt):
        self.move_clock(dt)

    @rule()
    def tick(self):
        self.both(lambda r: r.tick())

    @invariant()
    def routers_agree(self):
        gated, oracle = self.routers
        assert gated.outcomes == oracle.outcomes
        assert gated.active_apps() == oracle.active_apps()
        assert gated._sub_count == oracle._sub_count
        assert gated.trunk.edge_claims() == oracle.trunk.edge_claims()
        # The untaken ticks would have popped nothing: every shard's
        # deadline heap, stale entries included, is the oracle's.
        assert [s.ledger._deadlines for s in gated.services] == [
            s.ledger._deadlines for s in oracle.services
        ]
        for router in self.routers:
            assert router._shard_order() == shard_order_by_sort(router)
            router.check_invariants()


class RemosRouterTickHistory(RouterTickHistory):
    """The same history over a ``RemosAPI``: the clock is the
    simulator's, and it moves between requests without a tick."""

    def build(self) -> list[ShardRouter]:
        self.sims, routers = [], []
        for make in (ShardRouter, tick_every_shard_router):
            sim = Simulator()
            cluster = Cluster(sim, two_campus(fast_hosts=8, slow_hosts=8))
            api = RemosAPI(Collector(cluster, period=1.0))
            cluster.compute("a0", 1e9)
            sim.run(until=1.5)
            routers.append(make(api, shards=4, lease_s=LEASE_S,
                                snapshot_ttl=1.0))
            self.sims.append(sim)
        return routers

    def move_clock(self, dt: float) -> None:
        for sim in self.sims:
            sim.run(until=sim.now + dt)


TestRouterTickHistory = RouterTickHistory.TestCase
TestRouterTickHistory.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestRemosRouterTickHistory = RemosRouterTickHistory.TestCase
TestRemosRouterTickHistory.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)


def _count_ticks(monkeypatch, executor: type) -> dict:
    """Count ``SelectionService.tick`` calls by where they come from:
    inside ``executor.tick_all``, inside a shard's own ``request``, or
    anywhere else."""
    counts = {"tick_all": 0, "request": 0, "other": 0, "requests": 0}
    inside: list[str] = []

    def within(site, fn):
        def wrapped(*args, **kwargs):
            inside.append(site)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapped

    tick, request = SelectionService.tick, SelectionService.request

    def counted_tick(self):
        counts[inside[-1] if inside else "other"] += 1
        return tick(self)

    def counted_request(self, *args, **kwargs):
        counts["requests"] += 1
        return within("request", request)(self, *args, **kwargs)

    monkeypatch.setattr(SelectionService, "tick", counted_tick)
    monkeypatch.setattr(SelectionService, "request", counted_request)
    monkeypatch.setattr(
        executor, "tick_all", within("tick_all", executor.tick_all)
    )
    return counts


def _drive(router: ShardRouter) -> int:
    """200 requests, every 7th split across shards with a trunk claim."""
    admitted = 0
    for i in range(200):
        cross = i % 7 == 6
        grant = router.request(
            f"app{i}", ApplicationSpec(num_nodes=2 + i % 3),
            cpu_fraction=0.02, bw_bps=0.5 * Mbps if cross else 0.0,
            spread=2 if cross else 1,
        )
        admitted += grant.admitted
        if i % 3 == 0 and grant.admitted:
            router.release(f"app{i}")
    return admitted


def _sixteen_shards(make) -> ShardRouter:
    graph = random_tree(
        128, 32, np.random.default_rng(0), bandwidth=100 * Mbps
    )
    router = make(graph, shards=16, lease_s=1e9)
    assert router.plan.k == 16
    return router


def test_tick_all_ticks_no_shard_while_no_lease_can_lapse(monkeypatch):
    router = _sixteen_shards(ShardRouter)
    counts = _count_ticks(monkeypatch, type(router._exec))
    assert _drive(router) == 200
    assert router.metrics.routed_cross > 0
    assert counts["tick_all"] == 0
    assert counts["other"] == 0
    # Each shard's own request ticks that shard, once.
    assert counts["request"] == counts["requests"] > 200
    router.check_invariants()


def test_the_ungated_tick_ticked_every_shard_per_request(monkeypatch):
    router = _sixteen_shards(tick_every_shard_router)
    counts = _count_ticks(monkeypatch, TickEveryShard)
    assert _drive(router) == 200
    assert counts["tick_all"] == 16 * 200
    assert counts["request"] == counts["requests"]


def test_a_lapsed_deadline_opens_the_gate_for_every_shard(monkeypatch):
    router = ShardRouter(
        two_campus(fast_hosts=8, slow_hosts=8), shards=4, lease_s=LEASE_S
    )
    counts = _count_ticks(monkeypatch, type(router._exec))
    assert router._exec.tick_all() is None
    assert router.request("a", ApplicationSpec(num_nodes=2)).admitted
    router.tick()
    assert counts["tick_all"] == 0
    router.advance(LEASE_S)
    assert counts["tick_all"] == router.plan.k
    assert router.outcomes["a"].status == "expired"
    assert router.active_apps() == []
    # The heaps are empty again: the gate is shut.
    assert all(s.ledger.next_deadline is None for s in router.services)
    assert router._exec.tick_all() is None
    router.check_invariants()
