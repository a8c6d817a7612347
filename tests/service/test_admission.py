"""Unit tests for the admission queue and the snapshot cache."""

import pytest

from repro.core import ApplicationSpec
from repro.service import AdmissionQueue, Priority, SelectionRequest, SnapshotCache
from repro.topology import star


def req(app_id, priority=Priority.SILVER, at=0.0):
    return SelectionRequest(
        app_id=app_id,
        spec=ApplicationSpec(num_nodes=2),
        priority=priority,
        submitted_at=at,
    )


class TestSelectionRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            SelectionRequest(app_id="", spec=ApplicationSpec(num_nodes=1))
        with pytest.raises(ValueError):
            SelectionRequest(app_id="a", spec=ApplicationSpec(num_nodes=1),
                             priority="platinum")
        with pytest.raises(ValueError):
            SelectionRequest(app_id="a", spec=ApplicationSpec(num_nodes=1),
                             cpu_fraction=2.0)

    def test_rank_orders_by_class_then_time(self):
        gold = req("g", Priority.GOLD, at=5.0)
        early = req("e", Priority.SILVER, at=1.0)
        late = req("l", Priority.SILVER, at=9.0)
        assert sorted([late, early, gold], key=lambda r: r.rank) == [
            gold, early, late,
        ]


class TestAdmissionQueue:
    def test_fifo_within_class(self):
        q = AdmissionQueue(4)
        for i in range(3):
            assert q.offer(req(f"a{i}", at=float(i))) is None
        assert [r.app_id for r in q.waiting()] == ["a0", "a1", "a2"]

    def test_priority_orders_admission(self):
        q = AdmissionQueue(4)
        q.offer(req("bronze", Priority.BRONZE))
        q.offer(req("gold", Priority.GOLD))
        q.offer(req("silver", Priority.SILVER))
        assert [r.app_id for r in q.waiting()] == ["gold", "silver", "bronze"]

    def test_full_queue_rejects_equal_priority(self):
        q = AdmissionQueue(1)
        q.offer(req("first"))
        arrival = req("second")
        assert q.offer(arrival) is arrival  # rejected outright
        assert [r.app_id for r in q.waiting()] == ["first"]

    def test_full_queue_displaces_lower_priority(self):
        q = AdmissionQueue(2)
        q.offer(req("s", Priority.SILVER))
        q.offer(req("b", Priority.BRONZE))
        displaced = q.offer(req("g", Priority.GOLD))
        assert displaced is not None and displaced.app_id == "b"
        assert [r.app_id for r in q.waiting()] == ["g", "s"]

    def test_zero_limit_never_queues(self):
        q = AdmissionQueue(0)
        arrival = req("a", Priority.GOLD)
        assert q.offer(arrival) is arrival
        assert len(q) == 0

    def test_contains_and_remove(self):
        q = AdmissionQueue(4)
        q.offer(req("a"))
        assert "a" in q and "b" not in q
        assert q.remove("a").app_id == "a"
        assert q.remove("a") is None
        assert len(q) == 0

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            AdmissionQueue(-1)


class _CountingProvider:
    def __init__(self, graph):
        self.graph = graph
        self.sweeps = 0

    def topology(self):
        self.sweeps += 1
        return self.graph


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSnapshotCache:
    def test_hits_within_ttl(self):
        provider = _CountingProvider(star(4))
        clock = _Clock()
        cache = SnapshotCache(provider, ttl=5.0, clock=clock)
        g1 = cache.topology()
        clock.now = 3.0
        g2 = cache.topology()
        assert g1 is g2
        assert provider.sweeps == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_expires_after_ttl(self):
        provider = _CountingProvider(star(4))
        clock = _Clock()
        cache = SnapshotCache(provider, ttl=5.0, clock=clock)
        cache.topology()
        clock.now = 5.1
        cache.topology()
        assert provider.sweeps == 2

    def test_zero_ttl_still_coalesces_same_instant(self):
        provider = _CountingProvider(star(4))
        clock = _Clock()
        cache = SnapshotCache(provider, ttl=0.0, clock=clock)
        for _ in range(10):
            cache.topology()  # a same-instant burst is one sweep
        assert provider.sweeps == 1
        assert cache.coalesced == 9
        clock.now = 0.001
        cache.topology()
        assert provider.sweeps == 2

    def test_invalidate_forces_resweep(self):
        provider = _CountingProvider(star(4))
        cache = SnapshotCache(provider, ttl=100.0, clock=_Clock())
        cache.topology()
        cache.invalidate()
        cache.topology()
        assert provider.sweeps == 2
        assert cache.invalidations == 1

    def test_invalidate_when_empty_is_noop(self):
        cache = SnapshotCache(_CountingProvider(star(4)), ttl=1.0,
                              clock=_Clock())
        cache.invalidate()
        assert cache.invalidations == 0

    def test_age(self):
        clock = _Clock()
        cache = SnapshotCache(_CountingProvider(star(4)), ttl=5.0, clock=clock)
        assert cache.age == float("inf")
        cache.topology()
        clock.now = 2.0
        assert cache.age == pytest.approx(2.0)

    def test_negative_ttl_rejected(self):
        with pytest.raises(ValueError):
            SnapshotCache(_CountingProvider(star(4)), ttl=-1.0, clock=_Clock())

    def test_failed_sweep_publishes_no_epoch(self):
        """The epoch names a snapshot: one that never arrived gets none."""

        class FailsOnce(_CountingProvider):
            def topology(self):
                if self.sweeps == 1:
                    self.sweeps += 1
                    raise RuntimeError("collector unreachable")
                return super().topology()

        clock = _Clock()
        cache = SnapshotCache(FailsOnce(star(4)), ttl=5.0, clock=clock)
        first = cache.topology()
        before = (cache.epoch, cache.misses)
        clock.now = 6.0
        with pytest.raises(RuntimeError):
            cache.topology()
        assert (cache.epoch, cache.misses) == before
        assert cache.age == pytest.approx(6.0)  # still the first snapshot's
        assert cache.topology() is first  # the static graph, swept again
        # ...which is no new snapshot: the sweep counts, the epoch stays.
        assert cache.misses == before[1] + 1 and cache.age == 0.0
        assert cache.epoch == before[0]
