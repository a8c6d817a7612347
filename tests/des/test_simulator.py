"""Unit tests for the simulator run loop."""

import pytest

from repro.des import EmptySchedule, Simulator


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=100.0).now == 100.0

    def test_step_on_empty_raises(self):
        with pytest.raises(EmptySchedule):
            Simulator().step()

    def test_peek_empty_is_inf(self):
        assert Simulator().peek() == float("inf")

    def test_peek_returns_next_time(self):
        sim = Simulator()
        sim.timeout(7.0)
        sim.timeout(3.0)
        assert sim.peek() == 3.0


class TestRunUntil:
    def test_run_until_time_stops_clock_there(self):
        sim = Simulator()
        sim.timeout(10.0)
        sim.run(until=4.0)
        assert sim.now == 4.0
        # The 10.0 event is still queued.
        assert sim.peek() == 10.0

    def test_run_until_time_processes_events_at_boundary(self):
        sim = Simulator()
        hits = []
        t = sim.timeout(4.0)
        t.callbacks.append(lambda e: hits.append(sim.now))
        sim.run(until=4.0)
        assert hits == [4.0]

    def test_run_until_past_raises(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            sim.run(until=5.0)

    def test_run_until_event_returns_value(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(2.0)
            return "answer"

        p = sim.process(proc(sim))
        assert sim.run(until=p) == "answer"
        assert sim.now == 2.0

    def test_run_until_event_reraises_failure(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(1.0)
            raise OSError("nope")

        p = sim.process(proc(sim))
        with pytest.raises(OSError):
            sim.run(until=p)

    def test_run_until_already_processed_event(self):
        sim = Simulator()
        t = sim.timeout(0.0, value="v")
        sim.run()
        assert sim.run(until=t) == "v"

    def test_run_until_event_that_never_fires(self):
        sim = Simulator()
        ev = sim.event()  # nothing ever triggers it
        sim.timeout(5.0)
        with pytest.raises(RuntimeError, match="ended before"):
            sim.run(until=ev)

    def test_resumable_runs(self):
        sim = Simulator()
        log = []

        def ticker(sim):
            while True:
                yield sim.timeout(1.0)
                log.append(sim.now)

        sim.process(ticker(sim))
        sim.run(until=3.0)
        assert log == [1.0, 2.0, 3.0]
        sim.run(until=5.0)
        assert log == [1.0, 2.0, 3.0, 4.0, 5.0]


class TestDeterminism:
    def test_same_program_same_trace(self):
        def build():
            sim = Simulator()
            trace = []

            def worker(sim, i):
                for _ in range(5):
                    yield sim.timeout(0.5 + i * 0.1)
                    trace.append((sim.now, i))

            for i in range(4):
                sim.process(worker(sim, i))
            sim.run()
            return trace

        assert build() == build()

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.call_in(1.0, lambda i=i: order.append(i))
        sim.call_in(0.5, lambda: order.append("early"))
        sim.run()
        assert order == ["early", 0, 1, 2, 3, 4]
