"""Unit tests for Store."""

import pytest

from repro.des import Simulator, Store


@pytest.fixture
def sim():
    return Simulator()


class TestStore:
    def test_fifo(self, sim):
        st = Store(sim)
        out = []

        def producer(sim, st):
            for i in range(3):
                yield st.put(i)
                yield sim.timeout(1)

        def consumer(sim, st):
            for _ in range(3):
                item = yield st.get()
                out.append(item)

        sim.process(producer(sim, st))
        sim.process(consumer(sim, st))
        sim.run()
        assert out == [0, 1, 2]

    def test_bounded_capacity_blocks_put(self, sim):
        st = Store(sim, capacity=1)
        times = []

        def producer(sim, st):
            for i in range(2):
                yield st.put(i)
                times.append(sim.now)

        def consumer(sim, st):
            yield sim.timeout(5)
            yield st.get()

        sim.process(producer(sim, st))
        sim.process(consumer(sim, st))
        sim.run()
        assert times == [0.0, 5.0]

    def test_filtered_get(self, sim):
        st = Store(sim)
        out = []

        def proc(sim, st):
            yield st.put("apple")
            yield st.put("banana")
            yield st.put("cherry")
            item = yield st.get(filter=lambda x: x.startswith("b"))
            out.append(item)
            item = yield st.get()
            out.append(item)

        sim.process(proc(sim, st))
        sim.run()
        assert out == ["banana", "apple"]

    def test_filtered_getter_does_not_block_others(self, sim):
        st = Store(sim)
        out = []

        def blocked(sim, st):
            item = yield st.get(filter=lambda x: x == "never")
            out.append(("blocked", item))

        def eager(sim, st):
            item = yield st.get()
            out.append(("eager", item))

        sim.process(blocked(sim, st))
        sim.process(eager(sim, st))

        def producer(sim, st):
            yield sim.timeout(1)
            yield st.put("plain")

        sim.process(producer(sim, st))
        sim.run(until=10)
        assert out == [("eager", "plain")]

    def test_len(self, sim):
        st = Store(sim)
        st.put("a")
        st.put("b")
        assert len(st) == 2
