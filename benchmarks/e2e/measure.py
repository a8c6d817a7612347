"""Run one workload in this process: calibrated set-up, the sliced timed
phase, the output checks, and the metrics computed from them.

``run.py`` starts this module in a fresh subprocess per workload and
reads the one JSON object it prints on its last line of output.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
from time import perf_counter
from typing import Optional

from . import ROOT, calibrate, trace
from .workloads import WORKLOADS, Workers10k

#: ``--seconds`` at which a workload runs the op count written in its
#: class (sized for 10-20 s of timed work on a ~2 GHz core).  Other
#: values scale all five op counts by the one factor seconds / this.
REF_SECONDS = 15
#: Whole set-ups per run; the median is reported.
SETUP_REPEATS = 3
#: The timed phase stops at a slice boundary once its wall clock passes
#: ``DEADLINE_FACTOR * seconds + DEADLINE_SLACK_S`` (a stalled host must
#: not eat the suite's time budget); such a run is marked ``truncated``.
DEADLINE_FACTOR = 2.0
DEADLINE_SLACK_S = 5.0
#: Empty round trips timed for ``sharding.workers.ping_us``.
PINGS = 100


def op_count(cls, seconds: float) -> int:
    """Ops for a run length: whole slices, at least two."""
    slices = max(2, round(cls.ops * seconds / REF_SECONDS / cls.per_slice))
    return slices * cls.per_slice


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it.

    The 95th is the highest percentile that keeps at least ten samples
    beyond it on every workload at full size; the count is reported so
    a reader sees when (``--smoke``) it does not.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def set_up(wl, sample) -> dict[str, dict[str, float]]:
    """One whole set-up, each step bracketed by calibration samples
    (``sample`` is the run's :meth:`calibrate.Sampler.sample`).

    Returns ``{"cal": {step: seconds}, "raw": {step: seconds}}``.
    """
    steps = wl.steps() + [(
        "warmup",
        lambda: [wl.op(i, counted=False) for i in range(wl.warmup)],
    )]
    timings: dict[str, dict[str, float]] = {"cal": {}, "raw": {}}
    before = sample()
    for name, step in steps:
        t0 = perf_counter()
        step()
        raw = perf_counter() - t0
        after = sample()
        timings["raw"][name] = raw
        timings["cal"][name] = raw * calibrate.factor(before, after)
        before = after
    if wl.rec is not None:
        wl.rec.wrap(wl, "op", trace.HARNESS)
    return timings


def timed_phase(wl, rec, seconds: float, sample) -> dict:
    """Slices of ops with one calibration sample between slices."""
    per = wl.per_slice
    n_slices = wl.n_ops // per
    lat: list[float] = []
    slices: list[tuple[float, int]] = []
    cal = [sample()]
    deadline = perf_counter() + DEADLINE_FACTOR * seconds + DEADLINE_SLACK_S
    for s in range(n_slices):
        placed = 0
        t0 = perf_counter()
        for i in range(s * per, (s + 1) * per):
            if rec is not None:
                rec.op = i
            dt, n = wl.op(i)
            lat.append(dt)
            placed += n
        slices.append((perf_counter() - t0, placed))
        cal.append(sample())
        if perf_counter() > deadline:
            break
    return {
        "lat": lat, "slices": slices, "cal": cal,
        "factors": [calibrate.factor(cal[s], cal[s + 1])
                    for s in range(len(slices))],
        "truncated": len(slices) < n_slices,
    }


def end_to_end(phase: dict, per: int, calibrated: bool) -> dict:
    """Throughput and latency percentiles, calibrated or raw."""
    factors = (phase["factors"] if calibrated
               else [1.0] * len(phase["slices"]))
    lat = [dt * factors[i // per] for i, dt in enumerate(phase["lat"])]
    tput = [n / (dur * f) for (dur, n), f in zip(phase["slices"], factors)]
    p95, beyond = percentile(lat, 0.95)
    return {
        "throughput_ops_s": statistics.median(tput),
        "admit_p50_us": statistics.median(lat) * 1e6,
        "admit_p95_us": p95 * 1e6,
        "admit_p99_us": percentile(lat, 0.99)[0] * 1e6,
        "samples": len(lat),
        "beyond_p95": beyond,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(wl, rec, phase: dict, delta: dict, partition_s: float) -> dict:
    """The per-layer table of a traced run (metric name -> value)."""
    per = wl.per_slice
    factors = phase["factors"]
    ops = len(phase["lat"])
    timed = sum(dur * f for (dur, _), f in zip(phase["slices"], factors))
    own = trace.layer_self_seconds(rec.spans, lambda op: factors[op // per])
    calls: dict[str, int] = {}
    for layer, entry, *_ in rec.spans:
        calls[f"{layer}:{entry}"] = calls.get(f"{layer}:{entry}", 0) + 1
    tallies = rec.counts
    attributed = sum(own.get(layer, 0.0) for layer in trace.LAYERS)
    # Probes reach the selector without passing the memo or a stage timer.
    probes = tallies["rpc.probe"] + calls.get("service.service:probe", 0)

    def count(*keys: str) -> float:
        return sum(delta.get(k, 0) for k in keys)

    def side_p50_us(name: str) -> float:
        vals = [dt * factors[i // per] for i, dt in wl.side.get(name, [])]
        return statistics.median(vals) * 1e6 if vals else 0.0

    out: dict[str, float] = {}
    for layer in trace.LAYERS:
        us = "rpc_wait_us_per_op" if layer == "sharding.workers" \
            else "self_us_per_op"
        out[f"{layer}.{us}"] = own.get(layer, 0.0) / ops * 1e6
        out[f"{layer}.share"] = own.get(layer, 0.0) / timed
    out.update({
        "remos.collector.polls_per_op": count("polls") / ops,
        "remos.api.sweeps_per_op": count("sweeps") / ops,
        "service.cache.snapshot_hit_ratio": ratio(
            count("cache_hits"), count("cache_hits", "cache_misses")),
        "service.cache.route_hit_ratio": ratio(
            count("route_hits"), count("route_hits", "route_misses")),
        "service.residual_view.rebuilds_per_op": count("view_rebuilds") / ops,
        "core.selector.calls_per_op": (
            count("select_stage") - count("select_memo_hits") + probes
        ) / ops,
        "core.selector.memo_hit_ratio": ratio(
            count("select_memo_hits"), count("select_stage")),
        "core.selector.schedule_reuse_ratio": ratio(
            count("schedule_reused"),
            count("schedule_reused", "schedule_adjusted", "schedule_builds")),
        "service.ledger.mutations_per_op":
            count("admitted", "released", "renewed", "expired") / ops,
        "service.wal.records_per_op": count("wal_records") / ops,
        "service.wal.bytes_per_op": tallies["wal.bytes"] / ops,
        "service.wal.snapshots": count("wal_snapshots"),
        "sharding.partition.build_s": partition_s,
        "sharding.partition.trunk_links": wl.facts.get("trunk_links", 0),
        "sharding.router.cross_fraction": ratio(
            count("routed_cross"), count("routed_local", "routed_cross")),
        "sharding.router.probes_per_op": probes / ops,
        "sharding.router.local_p50_us": side_p50_us("local"),
        "sharding.router.cross_p50_us": side_p50_us("cross"),
        "sharding.trunk.reserves_per_op":
            calls.get("sharding.trunk:reserve", 0) / ops,
        "sharding.workers.rpcs_per_op": sum(
            n for key, n in tallies.items() if key.startswith("rpc.")) / ops,
        "sharding.workers.ping_us": 0.0,
        "sharding.workers.pool_vs_inproc": 0.0,
        "harness.unattributed_share": 1.0 - attributed / timed,
        "harness.cal_ms": statistics.median(phase["cal"]) * 1e3,
        "harness.cal_spread": calibrate.spread(phase["cal"]),
    })
    return out


def workers_extras(wl: Workers10k, pool_tput: float, sample) -> dict:
    """Empty round-trip time, and the same-run A/B arm: this run's
    calibrated pool throughput over the same stream's first waves
    through an in-process router."""
    pool = wl.backend.pool
    before = sample()
    t0 = perf_counter()
    for _ in range(PINGS):
        pool.ping()
    raw = perf_counter() - t0
    mid = sample()
    ping_s = raw * calibrate.factor(before, mid) / (PINGS * pool.workers)
    seconds, placed = wl.inproc_arm()
    after = sample()
    inproc_tput = placed / (seconds * calibrate.factor(mid, after))
    return {
        "sharding.workers.ping_us": ping_s * 1e6,
        "sharding.workers.pool_vs_inproc": pool_tput / inproc_tput,
    }


def run(name: str, seed: int, seconds: float, traced: bool,
        trace_out: Optional[str] = None) -> dict:
    cls = WORKLOADS[name]
    scratch = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    try:
        with calibrate.Sampler(cls.cal_procs) as sampler:
            result = _run(cls, seed, seconds, traced, trace_out, scratch,
                          sampler.sample)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run's state is still in there
    # After every worker process has been waited for.
    result["metrics"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0
    return result


def _run(cls, seed, seconds, traced, trace_out, scratch, sample) -> dict:
    n_ops = op_count(cls, seconds)
    setups: list[dict] = []
    wl = None
    try:
        for repeat in range(SETUP_REPEATS):
            if wl is not None:
                wl.close()
                wl = None
                gc.collect()
            rec = trace.SpanRecorder() if traced else None
            wl = cls(seed, n_ops, scratch / str(repeat), rec)
            setups.append(set_up(wl, sample))
        # Set-up garbage goes now and set-up survivors leave the
        # collector's sight; the collector itself stays on, as in use.
        gc.collect()
        gc.freeze()
        wal = getattr(wl.backend, "wal", None)
        start = wl.counts()
        if rec is not None:
            rec.counts.clear()
            if wal is not None:
                rec.counts["wal.bytes"] = -trace.wal_bytes_pending(wal)
            rec.on = True
        phase = timed_phase(wl, rec, seconds, sample)
        if rec is not None:
            rec.on = False
            if wal is not None:
                rec.counts["wal.bytes"] += trace.wal_bytes_pending(wal)
        end = wl.counts()
        delta = {k: end[k] - start[k] for k in end}
        check_error = ""
        try:
            wl.finish()
        except AssertionError as exc:
            check_error = str(exc) or repr(exc)
        cal = end_to_end(phase, wl.per_slice, True)
        raw = end_to_end(phase, wl.per_slice, False)
        layers = None
        if rec is not None:
            layers = per_layer(
                wl, rec, phase, delta,
                statistics.median(s["cal"].get("partition", 0.0)
                                  for s in setups),
            )
            rec.uninstall()
            if isinstance(wl, Workers10k):
                layers.update(workers_extras(wl, cal["throughput_ops_s"],
                                             sample))
            if trace_out:
                rec.write_jsonl(trace_out, wl.name)
    finally:
        if wl is not None:
            wl.close()

    def setup_s(kind: str) -> float:
        return statistics.median(sum(s[kind].values()) for s in setups)

    return {
        "workload": wl.name,
        "seed": seed,
        "traced": traced,
        "ops": len(phase["lat"]),
        "truncated": phase["truncated"],
        "ops_attempted": wl.attempted,
        "ops_failed": wl.failed,
        "check_error": check_error,
        "placements_digest": wl.digest,
        "counts": delta,
        "metrics": {
            "setup_s": setup_s("cal"),
            "throughput_ops_s": cal["throughput_ops_s"],
            "admit_p50_us": cal["admit_p50_us"],
            "admit_p95_us": cal["admit_p95_us"],
        },
        "raw": {
            "setup_s": setup_s("raw"),
            "throughput_ops_s": raw["throughput_ops_s"],
            "admit_p50_us": raw["admit_p50_us"],
            "admit_p95_us": raw["admit_p95_us"],
            "admit_p99_us": raw["admit_p99_us"],
        },
        "samples": {"admit": cal["samples"], "beyond_p95": cal["beyond_p95"],
                    "slices": len(phase["slices"])},
        "cal_ms": statistics.median(phase["cal"]) * 1e3,
        "layers": layers,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=REF_SECONDS)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
