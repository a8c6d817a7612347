"""``ReservationLedger.next_deadline`` is a lower bound ``expire`` obeys.

The router's tick asks a shard's ledger nothing but ``next_deadline``
before deciding to skip it, so the bound must hold after every mutation
— reserve, release, renew (later or earlier), ``expire`` — including
across the deadline heap's compaction (``_HEAP_COMPACT_MIN``): it is
never later than the earliest live lease, and below it ``expire`` pops
nothing and leaves the heap as it was.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import ReservationLedger
from repro.service.ledger import _HEAP_COMPACT_MIN
from repro.topology import dumbbell

GRAPH = dumbbell(2, 2)
NODES = ["l0", "l1", "r0", "r1"]
APPS = [f"app{i}" for i in range(6)]

_op = st.one_of(
    st.tuples(st.just("reserve"), st.sampled_from(APPS),
              st.sampled_from([0.5, 1.0, 4.0, 9.0])),
    st.tuples(st.just("release"), st.sampled_from(APPS), st.just(0.0)),
    st.tuples(st.just("renew"), st.sampled_from(APPS),
              st.sampled_from([0.5, 1.0, 4.0, 9.0])),
    st.tuples(st.just("shorten"), st.sampled_from(APPS),
              st.sampled_from([1e-9, 0.5, 3.0])),
    st.tuples(st.just("expire"), st.just(""),
              st.sampled_from([0.0, 0.5, 1.0, 3.0])),
)


def _apply(ledger: ReservationLedger, now: float, op) -> float:
    """One mutation at ``now``; returns the clock after it."""
    kind, app, x = op
    held = app in ledger.reservations
    if kind == "reserve" and not held:
        ledger.reserve(app, [NODES[APPS.index(app) % len(NODES)]],
                       cpu_fraction=0.0, bw_bps=0.0, graph=GRAPH,
                       now=now, lease_s=x)
    elif kind == "release" and held:
        ledger.release(app)
    elif kind == "renew" and held:
        ledger.renew(app, now, x)
    elif (kind == "shorten" and held
          and now + x < ledger.reservations[app].expires_at):
        ledger.renew(app, now, x)  # a renew that moves the deadline earlier
    elif kind == "expire":
        now += x
        ledger.expire(now)
    return now


def _assert_lower_bound(ledger: ReservationLedger, samples) -> None:
    bound = ledger.next_deadline
    live = [r.expires_at for r in ledger.reservations.values()]
    if bound is None:
        assert not live
        return
    assert not live or bound <= min(live)
    for below in samples:
        t = bound - below
        heap = list(ledger._deadlines)
        assert ledger.expire(t) == []
        assert ledger._deadlines == heap


@settings(max_examples=150, deadline=None)
@given(
    ops=st.lists(_op, min_size=20, max_size=160),
    samples=st.lists(
        st.floats(min_value=1e-9, max_value=50.0), min_size=1, max_size=3
    ),
)
def test_next_deadline_bounds_every_live_lease(ops, samples):
    ledger = ReservationLedger()
    rebuilds = []
    rebuild = ledger._rebuild_deadlines
    ledger._rebuild_deadlines = lambda: (rebuilds.append(1), rebuild())
    now = 0.0
    # Renew one lease past the compaction threshold first, so every
    # history also runs on a rebuilt heap.
    now = _apply(ledger, now, ("reserve", APPS[0], 1.0))
    for _ in range(_HEAP_COMPACT_MIN + 1):
        now = _apply(ledger, now, ("renew", APPS[0], 2.0))
        _assert_lower_bound(ledger, samples)
    assert rebuilds
    for op in ops:
        now = _apply(ledger, now, op)
        _assert_lower_bound(ledger, samples)


def test_a_stale_head_is_earlier_never_later():
    ledger = ReservationLedger()
    ledger.reserve("a", ["l0"], cpu_fraction=0.0, bw_bps=0.0, graph=GRAPH,
                   now=0.0, lease_s=1.0)
    assert ledger.next_deadline == 1.0
    ledger.renew("a", 0.0, 5.0)
    # The renewed-away entry still heads the heap.
    assert ledger.next_deadline == 1.0
    assert ledger.expire(1.0) == []
    assert ledger.next_deadline == 5.0
    ledger.release("a")
    assert ledger.next_deadline == 5.0
    assert ledger.expire(5.0) == []
    assert ledger.next_deadline is None
