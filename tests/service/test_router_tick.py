"""The router's per-request bookkeeping against the versions it replaced.

``InprocExecutor.tick_all`` ticks the shard services only once some
ledger's ``next_deadline`` has come, ``ShardRouter._shard_order`` sorts
a kept list of keys, and a cross-shard grant probes through each
shard's selection memo and commits each part as the shard's own
``request``, which the entry its probe filed answers without selecting
again.  The router runs beside one whose executor ticks every shard on
every call (``tests/oracles.py::TickEveryShard``) and one whose probes
skip the memo and whose commits re-select under a pin
(``tests/oracles.py::PinnedCommitRouter``), over generated histories —
requests local and split, refusals, releases, renewals, lapsing
leases, explicit ticks — and all must agree on every grant, outcome,
count, trunk claim, shard claim and deadline heap: on a manual clock,
under a moving simulator clock, and with the router's shards in worker
processes.  The exact-count tests pin what each saves: no
``SelectionService.tick`` from ``tick_all`` while no lease can lapse,
against the 16 per request the ungated tick made; and a recurring
cross-shard request runs the kernel on its first cycle only, where the
pinned commit ran it twice a cycle.
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

from repro.core.selector import NodeSelector
from repro.core.spec import ApplicationSpec
from repro.des import Simulator
from repro.network import Cluster
from repro.remos import Collector, RemosAPI
from repro.service import SelectionService, ShardRouter
from repro.topology import random_tree, two_campus
from repro.units import Mbps

from ..oracles import (
    PinnedCommit,
    PinnedCommitRouter,
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


def books(router: ShardRouter) -> tuple:
    """What two routers must agree on, asked through either executor."""
    shards = range(router.k)
    return (
        router.outcomes,
        router.active_apps(),
        router._sub_count,
        router.trunk.claims_fingerprint(),
        [router._exec.call(s, "reservation_map") for s in shards],
        [router._exec.call(s, "edge_claims") for s in shards],
    )


def local_books(router: ShardRouter) -> tuple:
    """:func:`books` plus what only in-process shards show: each
    ledger's exact claim totals and its deadline heap, stale entries
    included (a tick the gate skipped would have popped nothing)."""
    return books(router) + (
        [s.ledger.claims_fingerprint() for s in router.services],
        [s.ledger._deadlines for s in router.services],
    )


class RouterTickHistory(RuleBasedStateMachine):
    """The router against the tick-every-shard and the pinned-commit
    routers, one history."""

    read_books = staticmethod(local_books)

    def build(self) -> list[ShardRouter]:
        return [
            make(two_campus(fast_hosts=8, slow_hosts=8), shards=4,
                 lease_s=LEASE_S)
            for make in (ShardRouter, tick_every_shard_router,
                         PinnedCommitRouter)
        ]

    def move_clock(self, dt: float) -> None:
        for router in self.routers:
            router.advance(dt)

    @initialize()
    def start(self):
        self.routers = self.build()
        assert type(self.routers[-1]._exec) is PinnedCommit

    def each(self, op) -> None:
        got, *want = (_outcome(lambda r=r: op(r)) for r in self.routers)
        for other in want:
            assert other == got

    # 20 Mbps fits neither the 10 Mbps LAN nor a third claim on the
    # 45 Mbps WAN: probe refusals and trunk refusals both happen.
    @rule(
        app=st.sampled_from(APPS),
        m=st.integers(1, 12),
        spread=st.sampled_from([1, 2]),
        bw=st.sampled_from([0.0, 1 * Mbps, 20 * Mbps]),
        cpu=st.sampled_from([0.1, 0.4]),
    )
    def request(self, app, m, spread, bw, cpu):
        self.each(lambda r: r.request(
            app, ApplicationSpec(num_nodes=m), cpu_fraction=cpu,
            bw_bps=bw, spread=spread,
        ))

    @rule(app=st.sampled_from(APPS))
    def release(self, app):
        self.each(lambda r: r.release(app))

    @rule(app=st.sampled_from(APPS),
          extend=st.sampled_from([None, 1.0, 3 * LEASE_S]))
    def renew(self, app, extend):
        self.each(lambda r: r.renew(app, extend=extend))

    @rule(dt=st.sampled_from([0.0, 0.5, 2.0, LEASE_S, 2 * LEASE_S]))
    def advance(self, dt):
        self.move_clock(dt)

    @rule()
    def tick(self):
        self.each(lambda r: r.tick())

    @invariant()
    def routers_agree(self):
        first, *others = (self.read_books(r) for r in self.routers)
        for other in others:
            assert other == first
        for router in self.routers:
            assert router._shard_order() == shard_order_by_sort(router)
            router.check_invariants()


class RemosRouterTickHistory(RouterTickHistory):
    """The same history over a ``RemosAPI``: the clock is the
    simulator's, and it moves between requests without a tick."""

    def build(self) -> list[ShardRouter]:
        self.sims, routers = [], []
        for make in (ShardRouter, tick_every_shard_router,
                     PinnedCommitRouter):
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


class ProcessRouterTickHistory(RouterTickHistory):
    """The router with its shards in two worker processes against the
    pinned-commit router: every probed selection crosses a pipe to the
    shard that commits it."""

    read_books = staticmethod(books)

    def build(self) -> list[ShardRouter]:
        return [
            ShardRouter(two_campus(fast_hosts=8, slow_hosts=8), shards=4,
                        lease_s=LEASE_S, executor="process", workers=2),
            PinnedCommitRouter(two_campus(fast_hosts=8, slow_hosts=8),
                               shards=4, lease_s=LEASE_S),
        ]

    def teardown(self):
        for router in getattr(self, "routers", ()):
            router.close()


TestRouterTickHistory = RouterTickHistory.TestCase
TestRouterTickHistory.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestRemosRouterTickHistory = RemosRouterTickHistory.TestCase
TestRemosRouterTickHistory.settings = settings(
    max_examples=15, stateful_step_count=25, deadline=None
)
TestProcessRouterTickHistory = ProcessRouterTickHistory.TestCase
TestProcessRouterTickHistory.settings = settings(
    max_examples=6, stateful_step_count=20, deadline=None
)


def _count_ticks(monkeypatch, executor: type) -> dict:
    """Count ``SelectionService.tick`` calls by where they come from:
    inside ``executor.tick_all``, inside a shard's own admission (its
    ``request``: a local grant or a committed part), or anywhere else."""
    counts = {"tick_all": 0, "admission": 0, "other": 0, "admissions": 0}
    inside: list[str] = []

    def within(site, fn):
        def wrapped(*args, **kwargs):
            inside.append(site)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapped

    tick = SelectionService.tick

    def counted_tick(self):
        counts[inside[-1] if inside else "other"] += 1
        return tick(self)

    def counted_admission(admit):
        def counted(self, *args, **kwargs):
            counts["admissions"] += 1
            return within("admission", admit)(self, *args, **kwargs)
        return counted

    monkeypatch.setattr(SelectionService, "tick", counted_tick)
    monkeypatch.setattr(SelectionService, "request", counted_admission(
        SelectionService.request
    ))
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
    # Each shard admission (a request or a committed part) ticks that
    # shard, once.
    assert counts["admission"] == counts["admissions"] > 200
    router.check_invariants()


def test_the_ungated_tick_ticked_every_shard_per_request(monkeypatch):
    router = _sixteen_shards(tick_every_shard_router)
    counts = _count_ticks(monkeypatch, TickEveryShard)
    assert _drive(router) == 200
    assert counts["tick_all"] == 16 * 200
    assert counts["admission"] == counts["admissions"]


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


def test_a_recurring_cross_request_selects_once(monkeypatch):
    """One ``spread=2`` request with a trunk claim, released, ten times
    over: the first cycle's two probes run the kernel, every later probe
    is answered by its shard's memo (the claim state recurs), and no
    commit selects.  The pinned commit re-selected each part."""
    runs = [0]
    select = NodeSelector.select

    def counted(self, *args, **kwargs):
        runs[0] += 1
        return select(self, *args, **kwargs)

    monkeypatch.setattr(NodeSelector, "select", counted)

    def per_cycle(router: ShardRouter) -> list[int]:
        out = []
        for i in range(10):
            before = runs[0]
            grant = router.request(
                f"x{i}", ApplicationSpec(num_nodes=4), cpu_fraction=0.1,
                bw_bps=0.5 * Mbps, spread=2,
            )
            assert grant.admitted and len(grant.shards) == 2
            assert grant.trunk is not None
            router.release(f"x{i}")
            out.append(runs[0] - before)
        router.check_invariants()
        return out

    assert per_cycle(_sixteen_shards(ShardRouter)) == [2] + [0] * 9
    assert per_cycle(_sixteen_shards(PinnedCommitRouter)) == [4] + [2] * 9
