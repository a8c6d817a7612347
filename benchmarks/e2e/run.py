"""The benchmark's one command.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke]
                                  [--out results.json] [--trace-out spans.jsonl]

Runs each chosen workload in its own subprocess (``PYTHONHASHSEED=0``),
checks its outputs, and prints every metric by name with its unit, the
raw wall-clock value beside each calibrated one.  Without ``--trace``
the metrics are the end-to-end ones of ``BENCHMARK.json``; with it, an
untraced and a traced run of the same seed are made, each of half the
length (so that the invocation costs what an untraced one does), their
outputs compared, and the per-layer table printed (end-to-end figures
always come from the untraced run; the ratio of the two is the tracing
overhead).  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the exit code is
non-zero when an output check failed.
"""

from __future__ import annotations

if __package__ in (None, ""):
    # Run as a script: re-enter as a module of the package, so that the
    # relative imports work and this directory is not on sys.path (its
    # ``trace.py`` would shadow the standard library's).
    import runpy
    import sys
    from pathlib import Path

    sys.path[0] = str(Path(__file__).resolve().parents[2])
    runpy.run_module("benchmarks.e2e.run", run_name="__main__")
    raise SystemExit(0)

import argparse
import functools
import json
import os
import platform
import subprocess
import sys

from . import ROOT
from .measure import REF_SECONDS
from .workloads import WORKLOADS

#: ``--smoke`` divides every op count by this.
SMOKE_DIVISOR = 20


@functools.cache
def spec() -> dict:
    """``BENCHMARK.json``, with its metric lists keyed by name."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        out = json.load(fh)
    for kind in ("end_to_end", "per_layer"):
        out[kind] = {m["name"]: m for m in out[kind]}
    return out


def measure(workload: str, seed: int, seconds: float, traced: bool,
            trace_out: str | None) -> dict:
    """One workload in a fresh interpreter; returns its result record."""
    cmd = [sys.executable, "-m", "benchmarks.e2e.measure",
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(traced))]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload}: measuring subprocess exited {proc.returncode}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same_outputs(a: dict, b: dict) -> str:
    """Why two runs of one seed disagree ('' when they agree): the
    outputs of the program must not depend on who is watching."""
    for key in ("ops_attempted", "ops_failed", "placements_digest", "counts"):
        if a[key] != b[key]:
            return f"{key} differs between the untraced and the traced run"
    return ""


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def show(workload: str, run: dict, traced: dict | None) -> None:
    print(f"== {workload}  seed={run['seed']}  ops={run['ops']}"
          f"{'  TRUNCATED' if run['truncated'] else ''}")
    for name, value in run["metrics"].items():
        unit = spec()["end_to_end"][name]["unit"]
        raw = run["raw"].get(name)
        beside = f"   raw.{name} {raw:.4f}" if raw is not None else ""
        print(f"  {name:<22} {value:>14.4f} {unit:<6}{beside}")
    s = run["samples"]
    print(f"  raw.admit_p99_us       {run['raw']['admit_p99_us']:>14.4f} us"
          f"     (not gated)")
    print(f"  samples: {s['admit']} latencies, {s['beyond_p95']} beyond "
          f"p95, {s['slices']} slices; harness.cal_ms {run['cal_ms']:.3f}")
    print(f"  ops_attempted {run['ops_attempted']}  ops_failed "
          f"{run['ops_failed']}  placements_digest "
          f"{run['placements_digest'][:16]}")
    if run["check_error"]:
        print(f"  OUTPUT CHECK FAILED: {run['check_error']}")
    if traced is not None:
        print("  -- per layer (traced run)")
        for name, value in traced["layers"].items():
            unit = spec()["per_layer"][name]["unit"]
            print(f"  {name:<40} {value:>14.4f} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: all five)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec()["run_seconds"],
                    help="run length; op counts scale with it "
                         f"(the written counts at {REF_SECONDS})")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="also make the traced run")
    ap.add_argument("--smoke", action="store_true",
                    help=f"op counts / {SMOKE_DIVISOR}, same checks")
    ap.add_argument("--out", help="append this run's record to a JSON list")
    ap.add_argument("--trace-out", help="write the traced runs' spans here")
    args = ap.parse_args(argv)
    seconds = REF_SECONDS / SMOKE_DIVISOR if args.smoke else args.seconds
    if args.trace:
        seconds /= 2  # two runs in the time of one
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.trace_out and args.trace:
        open(args.trace_out, "w").close()

    record = {
        "commit": git_commit(), "python": platform.python_version(),
        "cpu_count": os.cpu_count(), "seed": args.seed, "seconds": seconds,
        "workloads": {},
    }
    correct, attempted, failed = True, 0, 0
    metrics: dict[str, dict] = {}
    for name in names:
        run = measure(name, args.seed, seconds, False, None)
        traced = None
        problem = run["check_error"]
        if args.trace:
            traced = measure(name, args.seed, seconds, True, args.trace_out)
            problem = (problem or traced["check_error"]
                       or same_outputs(run, traced))
            traced["layers"]["harness.trace_overhead_ratio"] = (
                run["metrics"]["throughput_ops_s"]
                / traced["metrics"]["throughput_ops_s"]
            )
        if problem and not run["check_error"]:
            run["check_error"] = problem
        show(name, run, traced)
        record["workloads"][name] = {"untraced": run, "traced": traced}
        correct = correct and not problem and run["ops_failed"] == 0
        attempted += run["ops_attempted"]
        failed += run["ops_failed"]
        source, units = (
            (traced["layers"], spec()["per_layer"]) if args.trace
            else (run["metrics"], spec()["end_to_end"])
        )
        prefix = f"{name}/" if len(names) > 1 else ""
        for key, value in source.items():
            metrics[prefix + key] = {"value": value,
                                     "unit": units[key]["unit"]}
    if args.out:
        runs = []
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                runs = json.load(fh)
        runs.append(record)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
