"""Tests for scenarios, trials, campaigns, and the Table 1 generator.

Campaign cells here use few trials and the cheap FFT app so the suite stays
fast; the full-scale regeneration lives in benchmarks/bench_table1.py.
"""

import pytest

from repro.apps import FFT2D
from repro.testbed import (
    Policy,
    Scenario,
    default_load_config,
    default_traffic_config,
    generate_table1,
    run_campaign,
    run_trial,
)
from repro.analysis import slowdown_percent


def small_fft():
    """A 4-iteration FFT (~6 s unloaded) for fast experiment tests."""
    return FFT2D(num_nodes=4, iterations=4)


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(app_factory=small_fft, policy="psychic")
        with pytest.raises(ValueError):
            Scenario(app_factory=small_fft, warmup=-1)
        with pytest.raises(ValueError, match="unknown degraded policy"):
            Scenario(app_factory=small_fft, degraded="hopeful")

    def test_default_configs_attached(self):
        sc = Scenario(app_factory=small_fft)
        assert sc.load_config is not None
        assert sc.traffic_config is not None

    def test_auto_label(self):
        sc = Scenario(app_factory=small_fft, policy=Policy.RANDOM,
                      load_on=True, traffic_on=True)
        assert sc.label == "random/load+traffic"

    def test_default_load_offered(self):
        cfg = default_load_config()
        assert 0.2 < cfg.offered_load < 0.6

    def test_default_traffic_positive_rate(self):
        assert default_traffic_config().message_rate > 0


class TestRunTrial:
    def test_unloaded_trial_matches_reference(self):
        sc = Scenario(app_factory=small_fft, policy=Policy.AUTO,
                      warmup=30.0)
        r = run_trial(sc, seed=1)
        # 4 iterations of the calibrated 1.5 s/iteration app.
        assert r.elapsed_seconds == pytest.approx(6.0, rel=0.1)
        assert len(r.selection.nodes) == 4

    def test_trial_reproducible(self):
        sc = Scenario(app_factory=small_fft, policy=Policy.RANDOM,
                      load_on=True, warmup=60.0)
        a = run_trial(sc, seed=99)
        b = run_trial(sc, seed=99)
        assert a.elapsed_seconds == b.elapsed_seconds
        assert a.selection.nodes == b.selection.nodes

    def test_different_seeds_differ(self):
        sc = Scenario(app_factory=small_fft, policy=Policy.RANDOM,
                      load_on=True, warmup=60.0)
        a = run_trial(sc, seed=1)
        b = run_trial(sc, seed=2)
        assert (
            a.selection.nodes != b.selection.nodes
            or a.elapsed_seconds != b.elapsed_seconds
        )

    def test_policies_select_differently_under_load(self):
        auto = Scenario(app_factory=small_fft, policy=Policy.AUTO,
                        load_on=True, warmup=120.0)
        rnd = Scenario(app_factory=small_fft, policy=Policy.RANDOM,
                       load_on=True, warmup=120.0)
        # Over a few seeds, auto should beat random on average.
        auto_mean = run_campaign(auto, trials=5, base_seed=0).mean
        rnd_mean = run_campaign(rnd, trials=5, base_seed=0).mean
        assert auto_mean < rnd_mean

    def test_oracle_policy_runs(self):
        sc = Scenario(app_factory=small_fft, policy=Policy.ORACLE,
                      load_on=True, warmup=30.0)
        r = run_trial(sc, seed=5)
        assert r.elapsed_seconds > 0

    def test_static_policy_fixed_choice(self):
        sc = Scenario(app_factory=small_fft, policy=Policy.STATIC, warmup=10.0)
        a = run_trial(sc, seed=1)
        b = run_trial(sc, seed=2)
        assert a.selection.nodes == b.selection.nodes

    def test_compute_and_bandwidth_policies(self):
        for policy in (Policy.COMPUTE, Policy.BANDWIDTH):
            sc = Scenario(app_factory=small_fft, policy=policy, warmup=10.0)
            r = run_trial(sc, seed=3)
            assert len(r.selection.nodes) == 4


class TestCampaign:
    def test_aggregates(self):
        sc = Scenario(app_factory=small_fft, policy=Policy.RANDOM,
                      load_on=True, warmup=30.0)
        res = run_campaign(sc, trials=4, base_seed=11)
        assert res.n == 4
        assert res.mean > 0
        assert res.std >= 0

    def test_trials_validation(self):
        sc = Scenario(app_factory=small_fft)
        with pytest.raises(ValueError):
            run_campaign(sc, trials=0)

    def test_campaign_reproducible(self):
        sc = Scenario(app_factory=small_fft, policy=Policy.RANDOM,
                      load_on=True, warmup=30.0)
        a = run_campaign(sc, trials=3, base_seed=5)
        b = run_campaign(sc, trials=3, base_seed=5)
        assert list(a.times) == list(b.times)


class TestTable1Small:
    """A miniature Table 1 run exercising the full pipeline."""

    @pytest.fixture(scope="class")
    def table(self):
        return generate_table1(
            trials=3, base_seed=1, apps={"FFT-small": small_fft}
        )

    def test_all_cells_present(self, table):
        row = table.rows[0]
        for cond in ("Processor Load", "Network Traffic", "Load+Traffic"):
            assert row.random[cond].n == 3
            assert row.auto[cond].n == 3
        assert row.reference is not None

    def test_generators_slow_things_down(self, table):
        row = table.rows[0]
        assert row.random["Load+Traffic"].mean > row.reference.mean

    def test_auto_beats_random_under_both_generators(self, table):
        row = table.rows[0]
        assert row.change_percent("Load+Traffic") < 0

    def test_slowdown_derivation(self, table):
        row = table.rows[0]
        expect = slowdown_percent(
            row.random["Load+Traffic"].mean, row.reference.mean
        )
        assert row.slowdown("Load+Traffic", Policy.RANDOM) == pytest.approx(expect)

    def test_render_contains_key_sections(self, table):
        text = table.render()
        assert "Table 1 (reproduced)" in text
        assert "Slowdown vs unloaded reference" in text
        assert "Headline" in text

    def test_headline_ratio_below_one(self, table):
        assert table.headline_ratio() < 1.0
