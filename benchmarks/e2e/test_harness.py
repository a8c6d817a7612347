"""Tests of the benchmark's own machinery (not collected by tier-1).

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from . import ROOT, calibrate, trace
from .compare import verdict
from .measure import op_count, percentile
from .run import spec
from .workloads import WORKLOADS, Repeat1k

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SPEC = spec()
END_TO_END, PER_LAYER = SPEC["end_to_end"], SPEC["per_layer"]


# -- span arithmetic -----------------------------------------------------------

def span(layer, t0, t1, parent, op=0):
    return [layer, "f", t0, t1, parent, op]


def test_self_time_nested_and_sibling_spans():
    spans = [
        span("harness", 0.0, 10.0, -1),   # 0: root
        span("a", 1.0, 5.0, 0),           # 1: child of root
        span("b", 2.0, 3.0, 1),           # 2: grandchild
        span("a", 6.0, 8.0, 0),           # 3: sibling of 1
    ]
    assert trace.self_times(spans) == [4.0, 3.0, 1.0, 2.0]
    own = trace.layer_self_seconds(spans)
    assert own == {"harness": 4.0, "a": 5.0, "b": 1.0}
    # Layers add up to the root: nothing is counted twice or lost.
    assert sum(own.values()) == 10.0


def test_self_time_is_weighted_by_the_op_slice_factor():
    spans = [span("a", 0.0, 1.0, -1, op=0), span("a", 0.0, 1.0, -1, op=1)]
    own = trace.layer_self_seconds(spans, lambda op: [1.0, 0.5][op])
    assert own == {"a": 1.5}


class Thing:
    def __init__(self):
        self.calls = 0

    def work(self, x):
        self.calls += 1
        return self.inner(x) + 1

    def inner(self, x):
        return x * 2


def test_wrappers_record_parents_and_uninstall_leaves_objects_untouched():
    thing = Thing()
    before = dict(vars(thing))
    rec = trace.SpanRecorder()
    rec.wrap(thing, "work", "outer")
    rec.wrap(thing, "inner", "inner")
    assert thing.work(3) == 7          # recording off: no spans
    assert rec.spans == []
    rec.on, rec.op = True, 5
    assert thing.work(3) == 7
    (outer, inner) = rec.spans
    assert (outer[0], outer[4], outer[5]) == ("outer", -1, 5)
    assert (inner[0], inner[4]) == ("inner", 0)
    assert outer[2] <= inner[2] <= inner[3] <= outer[3]
    with pytest.raises(ValueError):
        rec.wrap(thing, "work", "again")
    rec.uninstall()
    assert vars(thing) == {**before, "calls": 2}
    assert thing.work.__func__ is Thing.work


def test_wrapper_closes_its_span_when_the_call_raises():
    class Boom:
        def go(self):
            raise KeyError("x")

    rec = trace.SpanRecorder()
    boom = Boom()
    rec.wrap(boom, "go", "layer")
    rec.on = True
    with pytest.raises(KeyError):
        boom.go()
    assert rec.spans[0][3] >= rec.spans[0][2] > 0.0
    assert rec._stack == []


# -- statistics ----------------------------------------------------------------

def test_percentile_is_nearest_rank_and_reports_samples_beyond():
    samples = [float(i) for i in range(1, 201)]
    assert percentile(samples, 0.95) == (190.0, 10)
    assert percentile(samples, 0.50) == (100.0, 100)
    assert percentile([7.0], 0.95) == (7.0, 0)
    assert percentile(list(reversed(samples)), 0.99) == (198.0, 2)


def test_full_size_leaves_ten_samples_beyond_p95_on_every_workload():
    for cls in WORKLOADS.values():
        n = op_count(cls, SPEC["run_seconds"])
        assert n % cls.per_slice == 0
        _value, beyond = percentile([0.0] * n, 0.95)
        assert beyond >= 10, cls.name


def test_calibration_factor_and_spread():
    assert calibrate.factor(0.010, 0.010) == 1.0
    assert calibrate.factor(0.020, 0.020) == 0.5
    assert calibrate.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    assert calibrate.kernel() == calibrate.kernel()


def test_parallel_sampler_stops_its_helper():
    with calibrate.Sampler(2) as sampler:
        (helper,) = sampler._helpers
        assert sampler.sample() > 0.0
        assert helper.poll() is None
    assert helper.poll() == 0
    with calibrate.Sampler() as sampler:
        assert sampler._helpers == [] and sampler.sample() > 0.0


def test_compare_verdicts():
    steady_a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady_a, [v * 1.05 for v in steady_a], "lower", 0.08)[1] == "ok"
    assert verdict(steady_a, [v * 1.10 for v in steady_a], "lower", 0.08)[1] == "regressed"
    assert verdict(steady_a, [v * 0.90 for v in steady_a], "higher", 0.08)[1] == "regressed"
    assert verdict(steady_a, [v * 1.10 for v in steady_a], "higher", 0.08)[1] == "ok"
    noisy = [80.0, 120.0, 100.0, 90.0, 115.0]
    assert verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.08)[1] == "unresolved"
    assert verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.08)[1] == "ok"
    assert verdict(noisy, [v * 2.0 for v in noisy], "lower", 0.08)[1] == "regressed"


# -- names and the contract ----------------------------------------------------

def test_names_are_well_formed_and_unique():
    names = ([w["name"] for w in SPEC["workloads"]] + list(END_TO_END)
             + list(PER_LAYER))
    assert all(NAME.match(n) and len(n) <= 64 for n in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert "setup_s" in END_TO_END and END_TO_END["setup_s"]["unit"] == "s"
    assert all(0 < m["bound"] <= 0.25 for m in END_TO_END.values())
    assert SPEC["paths"] == ["benchmarks/e2e"]


def run_smoke(*extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/e2e/run.py"), "--smoke",
         "--workload", "repeat_1k", "--seed", "3", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return {"stdout": proc.stdout,
            "last": json.loads(proc.stdout.strip().splitlines()[-1])}


def test_runner_prints_exactly_the_names_in_benchmark_json(tmp_path):
    out = tmp_path / "a.json"
    plain = run_smoke("--out", str(out))
    assert set(plain["last"]) == {"correct", "attempted", "failed", "metrics"}
    assert plain["last"]["correct"] is True
    assert plain["last"]["attempted"] >= 1 and plain["last"]["failed"] == 0
    assert set(plain["last"]["metrics"]) == set(END_TO_END)
    for name, metric in plain["last"]["metrics"].items():
        assert metric["unit"] == END_TO_END[name]["unit"]
        assert metric["value"] > 0
        assert name in plain["stdout"] and f"raw.{name}" in plain["stdout"] \
            or name == "peak_rss_mb"

    spans = tmp_path / "spans.jsonl"
    traced = run_smoke("--trace", "1", "--out", str(out),
                       "--trace-out", str(spans))
    assert set(traced["last"]["metrics"]) == set(PER_LAYER)
    layers = {k: v["value"] for k, v in traced["last"]["metrics"].items()}
    assert layers["core.selector.memo_hit_ratio"] >= 0.99
    assert layers["service.wal.records_per_op"] == 2.0
    assert layers["remos.collector.polls_per_op"] == 0.0
    assert layers["sharding.workers.rpcs_per_op"] == 0.0
    assert 0.0 <= layers["harness.unattributed_share"] <= 0.15
    first = json.loads(spans.read_text().splitlines()[0])
    assert set(first) == {"workload", "id", "name", "start", "end",
                          "parent", "op"}

    # Two runs of one seed and length: identical outputs and exact
    # counts, whether or not they were watched.
    run_smoke("--out", str(out))
    a, b, c = (r["workloads"]["repeat_1k"]
               for r in json.loads(out.read_text()))
    for key in ("placements_digest", "ops_attempted", "ops_failed", "counts"):
        assert a["untraced"][key] == c["untraced"][key]
        assert b["untraced"][key] == b["traced"][key]
    record = json.loads(out.read_text())[0]
    assert {"commit", "python", "cpu_count", "seed", "seconds"} <= set(record)


def test_output_check_failure_marks_the_workload_failed(tmp_path):
    wl = Repeat1k(seed=0, n_ops=60, scratch=tmp_path, rec=None)
    for _name, step in wl.steps():
        step()
    try:
        wl.op(0)
        wl.finish()
        # A lease the WAL knows about but the workload does not expect.
        wl.backend.request("stray", wl.spec, cpu_fraction=0.1)
        with pytest.raises(AssertionError, match="standing tenants"):
            wl.finish()
    finally:
        wl.close()
