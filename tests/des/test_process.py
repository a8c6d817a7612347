"""Unit tests for DES processes: lifecycle and waiting."""

import pytest

from repro.des import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestLifecycle:
    def test_return_value_becomes_event_value(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            return "done"

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "done"
        assert not p.is_alive

    def test_process_waits_on_process(self, sim):
        def child(sim):
            yield sim.timeout(3)
            return 7

        def parent(sim):
            result = yield sim.process(child(sim))
            return result * 2

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == 14

    def test_exception_propagates_to_waiter(self, sim):
        def child(sim):
            yield sim.timeout(1)
            raise RuntimeError("child crashed")

        def parent(sim):
            try:
                yield sim.process(child(sim))
            except RuntimeError as exc:
                return f"handled: {exc}"

        p = sim.process(parent(sim))
        sim.run()
        assert p.value == "handled: child crashed"

    def test_unwaited_crash_surfaces_in_run(self, sim):
        def proc(sim):
            yield sim.timeout(1)
            raise KeyError("lost")

        sim.process(proc(sim))
        with pytest.raises(KeyError):
            sim.run()

    def test_yield_non_event_is_error(self, sim):
        def proc(sim):
            yield 42

        sim.process(proc(sim))
        with pytest.raises(RuntimeError, match="non-event"):
            sim.run()

    def test_non_generator_rejected(self, sim):
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_immediate_return(self, sim):
        def proc(sim):
            return "instant"
            yield  # pragma: no cover

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == "instant"

    def test_yield_already_processed_event(self, sim):
        def proc(sim):
            t = sim.timeout(0, value="x")
            yield sim.timeout(1)
            # t already processed by now; yielding it resumes instantly
            got = yield t
            return (got, sim.now)

        p = sim.process(proc(sim))
        sim.run()
        assert p.value == ("x", 1.0)

    def test_many_sequential_processes(self, sim):
        log = []

        def worker(sim, i):
            yield sim.timeout(i)
            log.append(i)

        for i in range(50):
            sim.process(worker(sim, i))
        sim.run()
        assert log == list(range(50))


class TestActiveProcess:
    def test_active_process_visible_during_resume(self, sim):
        snapshots = []

        def proc(sim):
            snapshots.append(sim.active_process)
            yield sim.timeout(1)
            snapshots.append(sim.active_process)

        p = sim.process(proc(sim))
        sim.run()
        assert snapshots == [p, p]
        assert sim.active_process is None
