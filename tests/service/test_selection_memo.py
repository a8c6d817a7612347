"""The selection memo: found by an O(1) signature, confirmed exactly.

``SelectionService._place`` files the whole placement — selection,
routed channels, claim-check outcome — under the spec key, the
request's two claims and the two claim counts, and lets it answer only
while the claim totals it was stored with equal the ledger's.  These
things must hold:

(a) exactness — over a generated history of requests, releases,
    renewals (to later and earlier deadlines), expiries and node
    crashes, with CPU and bandwidth claims chosen so that
    ``(a + x) - x != a`` happens, and a spec with a floor of its own
    so that some hits replay a stored claim-check refusal, every grant
    and refusal equals that of a twin that rebuilds its residual graph
    per attempt and keeps no memo
    (:func:`tests.oracles.naive_rebuild_service`); and whenever an entry
    answers, the ledger's ``claims_fingerprint()`` equals the one
    recorded here when that entry was stored; plain Fig. 2 / Fig. 3
    requests between moves of standing bandwidth tenants peel links
    that carry claims and answer as the twin does;
(b) recurrence — admit + release over standing tenants returns to the
    same claim state, so every cycle after the first hits, and a
    measured re-base empties the memo;
(c) two claim states of equal counts and different totals miss;
(d) work — a miss builds as many tuples and frozensets with ~2 000 live
    channel claims as with ~40, and no request, batch or probe calls
    ``claims_fingerprint()``;
(e) probes — a probe reads and feeds the memo and nothing else: a hit
    and a miss, feasible or not, leave the claims, the outcomes, every
    counter and every stage count as they were, and a hit counts on the
    view's ``selection_hits`` only;
(f) an entry's claim copies stay the exact state they were stored at;
(g) key completeness — a spec with its own bandwidth floor (``fold``
    leaves it as it is), probed at one claim state with a claim that
    fits the selected set and then with one that does not, is refused
    the second time;
(h) what a hit skips — no ``fold``, no ``edges_for``, no
    ``_verify_claims``; ``reserve`` is handed the route cache's own
    channel tuple;
(i) where the overlay's refresh lands — a repeat cycle the memo
    answers refreshes nothing; a release of a lease the overlay already
    shows refreshes in the ``release`` call; and the next admission's
    read then refreshes only the one grant nothing has read.
"""

import gc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import selector
from repro.core.spec import ApplicationSpec, Objective
from repro.des import Simulator
from repro.network import Cluster
from repro.remos import Collector, RemosAPI
from repro.service import (
    BatchRequest,
    LedgerError,
    ReservationLedger,
    SelectionRequest,
    SelectionService,
)
from repro.service.cache import RouteCache
from repro.service.metrics import COUNTERS
from repro.service.service import _CLAIMS_EXCEED
from repro.topology import dumbbell, random_tree
from repro.units import Mbps

from ..oracles import naive_rebuild_service
from .test_lease_footprint import tree_1k

#: Claims that do not survive a round trip through a shared total.
CPU = [0.0, 0.1, 0.3, 0.7]
BW = [0.0, 0.1 * Mbps + 0.1, 0.3 * Mbps + 0.3, 0.7 * Mbps + 0.7]
assert (CPU[1] + CPU[3]) - CPU[3] != CPU[1]
assert (BW[1] + BW[3]) - BW[3] != BW[1]

SHAPES = [
    ApplicationSpec(num_nodes=2),
    ApplicationSpec(num_nodes=3),
    ApplicationSpec(num_nodes=2, objective=Objective.BANDWIDTH),
    # A floor of its own: no claim is folded in, so the kernel may pick
    # hosts a CPU claim does not fit, and the claim check refuses them.
    ApplicationSpec(num_nodes=2, min_bandwidth_bps=20 * Mbps),
]


def small_tree():
    rng = np.random.default_rng(5)
    g = random_tree(9, 3, rng, bandwidth=100 * Mbps)
    for link in g.links():
        link.available_fwd = float(rng.integers(1, 5)) * 20 * Mbps
        link.available_rev = float(rng.integers(1, 5)) * 20 * Mbps
    for node in g.compute_nodes():
        node.load_average = float(rng.integers(0, 3)) * 0.5
    return g


HOSTS = sorted(n.name for n in small_tree().compute_nodes())


def outcome(grant):
    s = grant.selection
    return grant.status, grant.reason, s and (
        tuple(s.nodes), s.algorithm,
        # repr: an undefined minimum is NaN on both sides
        repr((s.objective, s.min_cpu_fraction, s.min_bw_fraction,
              s.min_bw_bps)),
    )


class Faults:
    """What ``attach_injector`` needs of an injector: ``fire(t, kind,
    target)`` delivers an event to the service."""

    def subscribe(self, fn) -> None:
        self.fire = fn


class Rig:
    """One service on the static tree, with the store/confirm record."""

    def __init__(self, build) -> None:
        self.svc = svc = build(
            small_tree(), snapshot_ttl=1e9, lease_s=30.0, queue_limit=0,
        )
        self.faults = Faults()
        svc.attach_injector(self.faults)
        self.apps = 0
        #: id(node-claims copy) -> (the copy, fingerprint when stored)
        self.stored = {}
        self.confirmed = 0
        #: Hits that replayed a stored claim-check refusal.
        self.replayed_refusals = 0
        place = svc._place

        def counted_place(req, view, trial=None, **kw):
            hits = view.selection_hits if view is not None else 0
            out = place(req, view, trial, **kw)
            if (view is not None and view.selection_hits != hits
                    and out[2] == _CLAIMS_EXCEED):
                self.replayed_refusals += 1
            return out

        svc._place = counted_place
        ledger = svc.ledger
        copies, same = ledger.claims_without, ledger.same_claims

        def claims_without(reservations=()):
            out = copies(reservations)
            if not reservations:  # the memo's store, not a trial
                self.stored[id(out[0])] = out[0], ledger.claims_fingerprint()
            return out

        def same_claims(nodes, edges):
            if not same(nodes, edges):
                return False
            # A hit is the state the entry was stored on, not a near one.
            assert self.stored[id(nodes)][1] == ledger.claims_fingerprint()
            self.confirmed += 1
            return True

        ledger.claims_without, ledger.same_claims = claims_without, same_claims

    def request(self, shape, cpu, bw):
        self.apps += 1
        return outcome(self.svc.request(
            f"app-{self.apps}", SHAPES[shape],
            cpu_fraction=CPU[cpu], bw_bps=BW[bw],
        ))

    def apply(self, step):
        kind, *args = step
        svc = self.svc
        if kind == "request":
            return self.request(*args)
        if kind == "cycle":  # the recurrence a memo exists for
            seen = []
            for _ in range(2):
                seen.append(self.request(*args))
                if seen[-1][2]:
                    svc.release(f"app-{self.apps}")
            return seen
        if kind in ("release", "renew", "shorten"):
            live = svc.active_apps()
            if live:
                app = live[args[0] % len(live)]
                if kind == "shorten":
                    ledger = svc.ledger
                    if svc.now + args[1] < ledger.reservations[app].expires_at:
                        # A renew that moves the deadline earlier.
                        ledger.renew(app, svc.now, args[1])
                else:
                    getattr(svc, kind)(app)
        elif kind == "advance":
            svc.advance(args[0])
        elif kind in ("crash", "recover"):
            self.faults.fire(svc.now, f"node-{kind}", args[0])
        return svc.active_apps()


claims = (st.integers(0, len(SHAPES) - 1), st.integers(0, len(CPU) - 1),
          st.integers(0, len(BW) - 1))
steps = st.one_of(
    st.tuples(st.just("request"), *claims),
    st.tuples(st.just("cycle"), *claims),
    st.tuples(st.just("release"), st.integers(0, 5)),
    st.tuples(st.just("renew"), st.integers(0, 5)),
    st.tuples(st.just("shorten"), st.integers(0, 5),
              st.sampled_from([0.5, 12.0])),
    st.tuples(st.just("advance"), st.sampled_from([1.0, 10.0, 25.0])),
    st.tuples(st.just("crash"), st.sampled_from(HOSTS)),
    st.tuples(st.just("recover"), st.sampled_from(HOSTS)),
)


def run_history(history) -> Rig:
    shipped, twin = Rig(SelectionService), Rig(naive_rebuild_service)
    for step in history:
        assert shipped.apply(step) == twin.apply(step), step
        shipped.svc.check_invariants()
        assert shipped.confirmed == shipped.svc.metrics.select_memo_hits
    assert twin.svc.metrics.select_memo_hits == 0
    return shipped


@settings(max_examples=80, deadline=None)
@given(history=st.lists(steps, min_size=1, max_size=30))
def test_every_answer_equals_the_memoless_twins(history):
    run_history(history)


def test_scripted_history_hits_misses_and_drifts():
    """The branches a generated history may miss on a given day: a hit,
    a negative hit, a hit that replays a claim-check refusal (a CPU
    claim the bandwidth floor it was folded under does not steer), a
    drifted total of equal counts, a crash."""
    shipped = run_history([
        ("request", 0, 1, 1), ("cycle", 1, 3, 1), ("cycle", 1, 3, 3),
        ("cycle", 1, 3, 3),
        ("request", 1, 3, 3), ("request", 1, 3, 3), ("request", 1, 3, 3),
        ("cycle", 1, 3, 0), ("renew", 0), ("shorten", 1, 0.5),
        ("cycle", 0, 1, 1), ("advance", 1.0), ("cycle", 0, 1, 1),
        ("crash", HOSTS[0]), ("cycle", 0, 1, 1), ("recover", HOSTS[0]),
        ("advance", 25.0), ("cycle", 0, 1, 1),
    ])
    metrics = shipped.svc.metrics
    assert metrics.select_memo_hits >= 5
    assert metrics.select_memo_negative_hits >= 1
    assert shipped.replayed_refusals >= 1


def test_peels_on_a_claimed_overlay_equal_the_memoless_twins(monkeypatch):
    """Fig. 3 and Fig. 2 on links that carry claims: plain requests
    (no claim to fold into a floor) alternate objectives between moves
    of standing bandwidth tenants, so each misses the memo and peels
    the live overlay.  Every grant equals the twin's."""
    peeled = []

    def counted(procedure):
        def run(graph, m, **kw):
            peeled.append((procedure.__name__, bool(ledger.edge_claims())))
            return procedure(graph, m, **kw)
        return run

    for name in ("select_balanced", "select_max_bandwidth"):
        monkeypatch.setattr(selector, name, counted(getattr(selector, name)))
    rng = np.random.default_rng(7)
    graph = random_tree(60, 12, rng, bandwidth=100 * Mbps)
    for link in graph.links():
        link.available_fwd = float(rng.uniform(5, 100)) * Mbps
        link.available_rev = float(rng.uniform(5, 100)) * Mbps
    for node in graph.compute_nodes():
        node.load_average = float(rng.uniform(0, 0.5))
    seen = []
    for build in (SelectionService, naive_rebuild_service):
        svc = build(graph, snapshot_ttl=1e9, lease_s=1e6, queue_limit=0)
        ledger = svc.ledger
        peeled.clear()
        rng = np.random.default_rng(11)
        tenants, out = [], []
        for i in range(40):
            tenant = svc.request(f"tenant-{i}", ApplicationSpec(num_nodes=2),
                                 cpu_fraction=0.1, bw_bps=2 * Mbps)
            assert tenant.admitted
            tenants.append(tenant.app_id)
            if len(tenants) > 4:
                svc.release(tenants.pop(0))
            spec = ApplicationSpec(
                num_nodes=int(rng.integers(2, 6)),
                objective=(Objective.BALANCED, Objective.BANDWIDTH)[i % 2],
            )
            out.append(outcome(svc.request(f"app-{i}", spec)))
            if out[-1][2]:
                svc.release(f"app-{i}")
        svc.check_invariants()
        seen.append((out, list(peeled)))
    (got, shipped), (want, _) = seen
    assert got == want
    for name in ("select_balanced", "select_max_bandwidth"):
        assert shipped.count((name, True)) >= 15


# -- (b) recurrence ------------------------------------------------------------

def hold_two(svc):
    for i in range(2):
        assert svc.request(
            f"hold-{i}", ApplicationSpec(num_nodes=3),
            cpu_fraction=0.2, bw_bps=2 * Mbps,
        ).admitted


def cycle(svc, i):
    grant = svc.request(f"cycle-{i}", ApplicationSpec(num_nodes=4),
                        cpu_fraction=0.35, bw_bps=3 * Mbps)
    assert grant.admitted
    svc.release(grant.app_id)
    return grant.selection.nodes


def test_standing_tenants_hit_on_every_cycle_after_the_first():
    svc = SelectionService(tree_1k(), snapshot_ttl=1e9, lease_s=1e9)
    hold_two(svc)
    placed = {tuple(cycle(svc, i)) for i in range(12)}
    assert len(placed) == 1
    assert svc.metrics.select_memo_hits == 11
    assert len(svc.view.selections) == 3  # two tenants' states + the cycle's
    svc.check_invariants()


def test_a_rebase_empties_the_memo_under_standing_tenants():
    sim = Simulator()
    cluster = Cluster(sim, dumbbell(6, 6))
    svc = SelectionService(
        RemosAPI(Collector(cluster, period=5.0)), snapshot_ttl=5.0,
        lease_s=1e9,
    )
    sim.run(until=6.0)
    hold_two(svc)
    first = cycle(svc, 0)
    assert cycle(svc, 1) == first and svc.metrics.select_memo_hits == 1
    view = svc.view
    cluster.compute(first[0], 1e9)  # the cycle's entry sits on this host
    sim.run(until=40.0)
    moved = cycle(svc, 2)
    assert svc.view is view and svc.metrics.view_rebuilds == 1  # re-based
    assert first[0] not in moved and svc.metrics.select_memo_hits == 1
    assert cycle(svc, 3) == moved and svc.metrics.select_memo_hits == 2
    svc.check_invariants()


# -- (c) equal counts, different totals ----------------------------------------

def test_equal_counts_and_different_totals_miss():
    svc, twin = (build(small_tree(), snapshot_ttl=1e9, lease_s=1e9)
                 for build in (SelectionService, naive_rebuild_service))
    ledger = svc.ledger
    states = []
    for tenant, bw in (("x", BW[1]), ("y", BW[2])):
        for s in (svc, twin):
            s.request(tenant, SHAPES[0], cpu_fraction=0.3, bw_bps=bw)
        held = ledger.claims_without()
        assert ledger.same_claims(*held)
        states.append((ledger.claim_counts(), ledger.claims_fingerprint()))
        # The same question put to both states: the second finds the
        # first's entry under its signature and must not take it.
        asked = [
            outcome(s.request("z", SHAPES[1], cpu_fraction=0.1, bw_bps=BW[3]))
            for s in (svc, twin)
        ]
        assert asked[0] == asked[1] and asked[0][2]
        for s in (svc, twin):
            s.release("z")
            s.release(tenant)
        assert not ledger.same_claims(*held)
    (counts_x, print_x), (counts_y, print_y) = states
    assert counts_x == counts_y and print_x != print_y
    assert svc.metrics.select_memo_hits == 0


# -- (d) work ------------------------------------------------------------------

def built_by(fn) -> int:
    """Tuples and frozensets alive after ``fn()`` that were not before."""
    kinds = (tuple, frozenset)
    gc.collect()
    gc.disable()
    try:
        # Held, so that none is freed and its address handed out again.
        before = [o for o in gc.get_objects() if type(o) in kinds]
        known = set(map(id, before))
        fn()
        return sum(
            type(o) in kinds and id(o) not in known
            for o in gc.get_objects()
        )
    finally:
        gc.enable()


def with_leases(count, m):
    svc = SelectionService(
        tree_1k(), snapshot_ttl=1e9, lease_s=1e9, queue_limit=0,
    )
    for i in range(count):
        assert svc.request(f"t{i}", ApplicationSpec(num_nodes=m),
                           cpu_fraction=0.1, bw_bps=1 * Mbps).admitted
    return svc


def test_a_miss_costs_the_same_at_any_number_of_live_claims():
    few, many = with_leases(2, 4), with_leases(120, 8)
    assert few.ledger.claim_counts()[1] < 100
    assert many.ledger.claim_counts()[1] > 1500
    built = []
    for svc in (few, many):
        # No host is idle, so a whole processor each is refused in the
        # kernel: a miss, stored, with no lease built after it.  The
        # first refusal re-keys what the leases moved in the ranking.
        for m in (3, 2):
            spec = ApplicationSpec(num_nodes=m)
            count = built_by(
                lambda: svc.request(f"no-{m}", spec, cpu_fraction=1.0)
            )
            assert svc.status(f"no-{m}").status == "rejected"
        built.append(count)
        assert svc.metrics.select_memo_hits == 0
        assert len(svc.view.selections) >= 2
    assert built[0] == built[1]


def test_no_request_batch_or_probe_builds_a_fingerprint(monkeypatch):
    def fingerprint(self):
        raise AssertionError("claims_fingerprint() on the request path")

    monkeypatch.setattr(ReservationLedger, "claims_fingerprint", fingerprint)
    svc = SelectionService(small_tree(), snapshot_ttl=1e9, lease_s=1e9)
    spec = ApplicationSpec(num_nodes=2)
    ask = dict(cpu_fraction=0.1, bw_bps=1 * Mbps)
    assert svc.request("a", spec, **ask).admitted
    svc.release("a")
    assert svc.request("b", spec, **ask).admitted  # a hit
    assert svc.metrics.select_memo_hits == 1
    assert svc.probe(spec, **ask) is not None
    grants = svc.admit_batch([
        BatchRequest(app_id=f"w{i}", spec=spec, **ask) for i in range(3)
    ])
    assert all(g.admitted for g in grants)
    svc.check_invariants()


# -- (e) probes ----------------------------------------------------------------

def test_a_probe_hit_and_a_probe_miss_leave_no_trace():
    svc = SelectionService(tree_1k(), snapshot_ttl=1e9, lease_s=1e9)
    hold_two(svc)
    ask = dict(cpu_fraction=0.35, bw_bps=3 * Mbps)

    def books():
        return (
            svc.ledger.claims_fingerprint(),
            dict(svc.outcomes),
            {name: getattr(svc.metrics, name) for name in COUNTERS},
            {name: hist.count for name, hist in svc.metrics.stages.items()},
        )

    before = books()
    answers = {}
    for m in (4, 5000):  # feasible; more hosts than the tree has
        hits = svc.view.selection_hits
        miss = svc.probe(ApplicationSpec(num_nodes=m), **ask)
        assert svc.view.selection_hits == hits and books() == before
        hit = svc.probe(ApplicationSpec(num_nodes=m), **ask)
        assert svc.view.selection_hits == hits + 1 and books() == before
        assert hit == miss
        answers[m] = hit
    assert answers[4] is not None and answers[5000] is None
    # The entry the probe left answers a request at the same claim state.
    grant = svc.request("c", ApplicationSpec(num_nodes=4), **ask)
    assert grant.selection.nodes == answers[4].nodes
    assert svc.metrics.select_memo_hits == 1
    svc.check_invariants()


# -- (f) an entry's claims are exact and its own ---------------------------------

MEMO_TREE = random_tree(60, 12, np.random.default_rng(3), bandwidth=100 * Mbps)
MEMO_HOSTS = sorted(n.name for n in MEMO_TREE.compute_nodes())


def frozen(nodes, edges):
    return frozenset(nodes.items()), frozenset(edges.items())


class StoreRig:
    """A bare ledger and the claim copies a memo would have stored."""

    def __init__(self) -> None:
        self.ledger = ReservationLedger()
        self.now = 0.0
        self.apps = 0
        #: (copies handed out, the claim state when they were)
        self.held = []
        self.handed_live = self.copied = 0

    def reserve(self, i: int) -> None:
        rng = np.random.default_rng(i)
        nodes = list(rng.choice(MEMO_HOSTS, size=2 + i % 3, replace=False))
        self.apps += 1
        try:
            self.ledger.reserve(
                f"app-{self.apps}", nodes, cpu_fraction=0.05,
                bw_bps=0.1 * Mbps + i, graph=MEMO_TREE, now=self.now,
                lease_s=1.0 + i % 5,
            )
        except LedgerError:
            pass

    def release(self, i: int) -> None:
        live = sorted(self.ledger.reservations)
        if live:
            self.ledger.release(live[i % len(live)])

    def expire(self, i: int) -> None:
        self.now += i % 4
        self.ledger.expire(self.now)

    def store(self, _i: int) -> None:
        ledger = self.ledger
        live = ledger._node_claims, ledger._edge_claims
        copies = ledger.claims_without()
        self.handed_live += sum(c is l for c, l in zip(copies, live))
        self.copied += sum(c is not l for c, l in zip(copies, live))
        self.held.append((copies, ledger.claims_fingerprint()))

    def check(self) -> None:
        ledger = self.ledger
        state = ledger.claims_fingerprint()
        assert frozen(ledger._node_claims, ledger._edge_claims) == state
        for copies, when in self.held:
            assert frozen(*copies) == when  # exact, and nobody's since
            assert ledger.same_claims(*copies) == (state == when)


def run_stores(ops) -> StoreRig:
    rig = StoreRig()
    for kind, i in ops:
        getattr(rig, kind)(i)
        rig.check()
    return rig


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(
    st.tuples(st.sampled_from(["reserve", "reserve", "release", "expire",
                               "store"]), st.integers(0, 40)),
    min_size=1, max_size=80,
))
def test_stored_claims_stay_the_claim_state_they_were_stored_at(ops):
    run_stores(ops)


def test_a_store_hands_out_a_packed_tally_or_copies_a_live_one():
    """Both ways a store is made: a tally that releases have emptied
    past half its live entries is handed out itself (the ledger goes
    on with a packed copy), any other is copied; either way the copies
    are the state at the store, and the ledger's tallies stay exact."""
    ops = [("reserve", i) for i in range(30)] + [("store", 0)]
    ops += [("release", i) for i in range(24)] + [("store", 0)]
    ops += [("reserve", i) for i in range(30, 36)] + [("store", 0)]
    ops += [("expire", 3), ("store", 0), ("reserve", 40), ("store", 0)]
    rig = run_stores(ops)
    assert rig.handed_live and rig.copied
    assert len({when for _, when in rig.held}) == len(rig.held)


# -- (g) the claims are in the key ---------------------------------------------

def test_a_claim_the_selected_set_cannot_carry_is_refused_on_the_same_spec():
    svc = SelectionService(small_tree(), snapshot_ttl=1e9, lease_s=1e9)
    assert svc.request("hold", SHAPES[0], cpu_fraction=CPU[1],
                       bw_bps=BW[1]).admitted
    spec = SHAPES[3]
    assert SelectionRequest("x", spec, bw_bps=90 * Mbps).fold() is spec
    fits = svc.probe(spec, bw_bps=10 * Mbps)  # under the spec's own floor
    assert fits is not None
    # More than any channel of the tree carries (80 Mbps at most): the
    # same selection, refused by the claim check.
    assert svc.probe(spec, bw_bps=90 * Mbps) is None
    assert svc.view.selection_hits == 0
    # Each claim finds its own answer at this claim state.
    assert svc.probe(spec, bw_bps=10 * Mbps).nodes == fits.nodes
    assert svc.probe(spec, bw_bps=90 * Mbps) is None
    assert svc.view.selection_hits == 2
    svc.check_invariants()


# -- (h) what a hit skips --------------------------------------------------------

def test_a_hit_neither_folds_nor_routes_nor_checks_a_claim(monkeypatch):
    svc = SelectionService(small_tree(), snapshot_ttl=1e9, lease_s=1e9,
                           queue_limit=0)
    calls = dict.fromkeys(("fold", "edges_for", "_verify_claims"), 0)
    for cls, name in ((SelectionRequest, "fold"), (RouteCache, "edges_for"),
                      (SelectionService, "_verify_claims")):

        def counted(*args, _real=getattr(cls, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    handed = []
    reserve = svc.ledger.reserve

    def reserve_spy(*args, **kwargs):
        handed.append(kwargs["edges"])
        return reserve(*args, **kwargs)

    monkeypatch.setattr(svc.ledger, "reserve", reserve_spy)
    stages = svc.metrics.stages

    def asked(app, spec, cpu, bw, misses):
        """Request twice at one claim state: a miss, then a hit that
        calls nothing a miss calls and times the stages a miss does."""
        before = dict(calls)
        grant = svc.request(f"{app}-miss", spec, cpu_fraction=cpu,
                            bw_bps=bw)
        if grant.admitted:
            svc.release(grant.app_id)
        assert {k: calls[k] - before[k] for k in calls} == misses
        select, verify = stages["select"].count, stages["claim_verify"].count
        again = svc.request(f"{app}-hit", spec, cpu_fraction=cpu, bw_bps=bw)
        assert {k: calls[k] - before[k] for k in calls} == misses
        assert stages["select"].count == select + 1
        assert stages["claim_verify"].count == (
            verify + misses["_verify_claims"]
        )
        assert again.admitted == grant.admitted
        return again

    hit = asked("fits", SHAPES[1], CPU[1], BW[1],
                {"fold": 1, "edges_for": 1, "_verify_claims": 1})
    assert svc.metrics.select_memo_hits == 1
    # The hit hands the ledger the route cache's own channel tuple.
    assert handed[1] is handed[0]
    assert handed[1] is svc.view.routes.edges_for(hit.selection.nodes)
    svc.release(hit.app_id)
    # A CPU claim the folded bandwidth floor does not steer: the claim
    # check refuses the selected set (on a CPU host, before routing),
    # and the hit replays that refusal.
    asked("refused", SHAPES[1], CPU[3], BW[1],
          {"fold": 1, "edges_for": 0, "_verify_claims": 1})
    # More hosts than the tree has: proven infeasible, a negative hit.
    asked("none", ApplicationSpec(num_nodes=50), CPU[1], BW[1],
          {"fold": 1, "edges_for": 0, "_verify_claims": 0})
    assert svc.metrics.select_memo_hits == 3
    assert svc.metrics.select_memo_negative_hits == 1
    svc.check_invariants()


# -- (i) where the overlay's refresh lands ---------------------------------------

def spy_refreshes(monkeypatch, view) -> list:
    """``(method, names or channels)`` per refresh the view runs."""
    calls = []
    for name in ("refresh_nodes", "refresh_edges"):

        def counted(arg, _real=getattr(view, name), _name=name):
            calls.append((_name, tuple(arg)))
            return _real(arg)

        monkeypatch.setattr(view, name, counted)
    return calls


def test_a_cycle_the_memo_answers_refreshes_nothing(monkeypatch):
    svc = SelectionService(tree_1k(), snapshot_ttl=1e9, lease_s=1e9)
    hold_two(svc)
    cycle(svc, 0)  # the miss: its read settles the tenants' grants
    view = svc.view
    calls = spy_refreshes(monkeypatch, view)
    placed = {tuple(cycle(svc, i)) for i in range(1, 9)}
    assert len(placed) == 1 and svc.metrics.select_memo_hits == 8
    assert calls == []
    # One entry stands for every cycle: the memo hands out one routed
    # tuple per placement, and each release joined its grant's entry.
    assert len(view.stale) == 1
    svc.check_invariants()  # a read: one refresh covers all eight
    assert [name for name, _ in calls] == ["refresh_nodes", "refresh_edges"]


def test_a_release_the_overlay_shows_refreshes_in_the_call(monkeypatch):
    svc = SelectionService(tree_1k(), snapshot_ttl=1e9, lease_s=1e9)
    hold_two(svc)
    view = svc.view
    calls = spy_refreshes(monkeypatch, view)
    grant = svc.request("a", ApplicationSpec(num_nodes=3),
                        cpu_fraction=0.3, bw_bps=2 * Mbps)
    r = grant.reservation
    # The miss read the overlay (settling hold-1), and the grant waits.
    hold = svc.ledger.reservations["hold-1"]
    assert calls == [("refresh_nodes", hold.nodes),
                     ("refresh_edges", hold.edges)]
    assert list(view.stale.values()) == [r]
    svc.check_invariants()
    calls.clear()
    svc.release("a")
    assert calls == [("refresh_nodes", r.nodes), ("refresh_edges", r.edges)]
    assert not view.stale
    svc.check_invariants()
    assert len(calls) == 2


def test_the_next_admission_refreshes_only_the_unread_grant(monkeypatch):
    """``churn_1k``'s shape: a release after the timed request, then the
    next request, which misses.  The release refreshed what the overlay
    showed in its own call, so the next read settles one grant, not a
    grant and a release."""
    svc = SelectionService(tree_1k(), snapshot_ttl=1e9, lease_s=1e9)
    claims = {"cpu_fraction": 0.2, "bw_bps": 2 * Mbps}
    assert svc.request("old", ApplicationSpec(num_nodes=3), **claims).admitted
    new = svc.request("new", ApplicationSpec(num_nodes=4), **claims)
    view = svc.view
    calls = spy_refreshes(monkeypatch, view)
    svc.release("old")  # the miss for "new" read it: refreshed now
    assert [name for name, _ in calls] == ["refresh_nodes", "refresh_edges"]
    calls.clear()
    nxt = svc.request("next", ApplicationSpec(num_nodes=5), **claims)
    assert nxt.admitted and svc.metrics.select_memo_hits == 0
    r = new.reservation
    assert calls == [("refresh_nodes", r.nodes), ("refresh_edges", r.edges)]
    assert list(view.stale.values()) == [nxt.reservation]
    svc.check_invariants()
