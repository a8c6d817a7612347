"""Unit tests for rolling-window SLO objectives and burn-rate alerts."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import DEFAULT_WINDOWS, SloMonitor, SloObjective


class ManualClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


class TestSloObjective:
    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            SloObjective("x")
        with pytest.raises(ValueError):
            SloObjective("x", target=0.99, budget_per_hour=1.0)
        with pytest.raises(ValueError):
            SloObjective("x", target=1.5)

    def test_no_data_is_ok_with_zero_burn(self):
        obj = SloObjective("x", target=0.99)
        out = obj.evaluate(1000.0)
        assert out["status"] == "ok"
        assert all(w["burn_rate"] == 0.0 for w in out["windows"])

    def test_ratio_burn_rate(self):
        # 2% bad against a 1% budget = 2x burn on every window.
        obj = SloObjective("x", target=0.99)
        for i in range(100):
            obj.add(1000.0 + i * 0.1, good=1.0, bad=0.0)
        obj.add(1010.0, good=0.0, bad=2.0)
        out = obj.evaluate(1010.0)
        for w in out["windows"]:
            assert w["burn_rate"] == pytest.approx(
                (2 / 102) / 0.01, abs=1e-3)
        assert out["status"] == "burning"  # >1x but below thresholds

    def test_paging_requires_all_windows(self):
        # A burst that saturates the short window but not the long one
        # must not page (the long window proves it is sustained).
        obj = SloObjective("x", target=0.99,
                           windows=((10.0, 2.0), (1000.0, 2.0)))
        obj.add(1000.0, good=0.0, bad=100.0)
        obj.add(1000.0, good=100.0, bad=0.0)
        # short window: 50% bad -> burn 50; long window identical here,
        # so this DOES page...
        assert obj.evaluate(1000.5)["status"] == "paging"
        # ...but 600 s later the short window has aged the burst out
        # while the long window still sees it: burning, not paging.
        later = obj.evaluate(1600.0)
        assert later["status"] == "burning"
        burns = {w["window_s"]: w["burn_rate"] for w in later["windows"]}
        assert burns[10.0] == 0.0
        assert burns[1000.0] > 2.0

    def test_event_budget_burn(self):
        # Budget 2/hour; one event in a 3600 s window = 0.5x burn.
        obj = SloObjective("x", budget_per_hour=2.0,
                           windows=((3600.0, 6.0),))
        obj.add(1000.0, good=0.0, bad=1.0)
        out = obj.evaluate(1000.0)
        assert out["windows"][0]["burn_rate"] == pytest.approx(0.5)
        assert out["status"] == "ok"

    def test_buckets_age_out(self):
        obj = SloObjective("x", target=0.99, windows=((60.0, 1.0),))
        obj.add(1000.0, good=0.0, bad=10.0)
        assert obj.evaluate(1000.0)["status"] == "paging"
        # Two full horizons later the ring slots have lapsed.
        assert obj.evaluate(1130.0)["status"] == "ok"


class TestSloMonitor:
    def test_default_objectives_and_schema(self):
        clock = ManualClock()
        monitor = SloMonitor(clock=clock)
        out = monitor.evaluate()
        assert list(out) == ["status", "latency_p99_s", "objectives"]
        assert list(out["objectives"]) == [
            "admit_latency", "availability", "worker_restarts",
        ]
        for obj in out["objectives"].values():
            assert [w["window_s"] for w in obj["windows"]] == [
                w for w, _t in DEFAULT_WINDOWS
            ]

    def test_latency_objective_counts_slow_requests(self):
        clock = ManualClock()
        monitor = SloMonitor(clock=clock)
        for _ in range(99):
            monitor.observe_request(0.001, ok=True)
        monitor.observe_request(0.050, ok=True)
        out = monitor.evaluate()
        assert out["latency_p99_s"] == pytest.approx(0.050)
        # 1% slow against a 1% budget: burn 1.0x, not yet burning.
        burn = out["objectives"]["admit_latency"]["windows"][0]["burn_rate"]
        assert burn == pytest.approx(1.0)

    def test_rejections_burn_availability(self):
        clock = ManualClock()
        monitor = SloMonitor(clock=clock)
        for _ in range(8):
            monitor.observe_request(0.001, ok=True)
        for _ in range(2):
            monitor.observe_request(0.001, ok=False)
        out = monitor.evaluate()
        # 20% bad against a 5% budget = 4x burn -> burning.
        assert out["objectives"]["availability"]["status"] == "burning"
        assert out["status"] == "burning"

    def test_restart_budget(self):
        clock = ManualClock()
        monitor = SloMonitor(clock=clock)
        monitor.observe_restart(3)
        out = monitor.evaluate()
        status = out["objectives"]["worker_restarts"]["status"]
        # 3 restarts in 5 min against 2/h: short-window burn is huge,
        # long-window burn is 1.5x -> burning (pages only if sustained).
        assert status == "burning"
        monitor.observe_restart(30)
        assert monitor.evaluate()["status"] == "paging"

    def test_worst_objective_wins(self):
        clock = ManualClock()
        monitor = SloMonitor(clock=clock)
        monitor.observe_request(0.001, ok=True)
        assert monitor.evaluate()["status"] == "ok"

    def test_manual_clock_is_deterministic(self):
        clock = ManualClock()
        monitor = SloMonitor(clock=clock)
        monitor.observe_request(0.001, ok=False)
        first = monitor.evaluate()
        # No wall time dependency: identical evaluation at the same now.
        assert monitor.evaluate() == first

    def test_bind_exports_gauges(self):
        clock = ManualClock()
        registry = MetricsRegistry()
        monitor = SloMonitor(clock=clock)
        monitor.bind(registry)
        monitor.observe_request(0.5, ok=False)
        text = registry.expose_text()
        assert 'repro_slo_status{objective="admit_latency"}' in text
        assert ('repro_slo_burn_rate{objective="availability",'
                'window="300s"}') in text
        status = {
            line.split("} ")[0]: line.split("} ")[1]
            for line in text.splitlines()
            if line.startswith("repro_slo_status")
        }
        # One slow+rejected request: both ratio objectives are paging
        # (100% bad in every window), restarts untouched.
        assert status['repro_slo_status{objective="admit_latency"'] == "2"
        assert status['repro_slo_status{objective="worker_restarts"'] == "0"
