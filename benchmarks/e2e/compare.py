"""Compare two sets of runs, metric by metric, workload by workload.

    python -m benchmarks.e2e.compare A.json B.json

``A.json`` and ``B.json`` are files written by ``run.py --out`` (each
holds a list of run records; run the suite several times with the same
``--out`` to build a set).  For every workload × end-to-end metric this
prints the two medians, how much worse B is than A as a share of A's
median, the bound from ``BENCHMARK.json`` and a verdict:

``ok``
    B's median is not worse than A's by more than the bound;
``regressed``
    it is, and the sets are steady enough to say so;
``unresolved``
    the run-to-run spread (interquartile distance / median, the wider
    of the two sets) exceeds the bound, so the medians prove nothing —
    unless every run of one set beats every run of the other.

The outputs are compared too: every run must have ``ops_failed = 0``,
and runs of the same seed and length must agree on
``placements_digest`` and on every exact count.  Exit code 0 only when
everything is ``ok``.  With the same commit on both sides this is the
benchmark's A/A test.
"""

from __future__ import annotations

import json
import statistics
import sys

from .calibrate import spread
from .run import spec


def load(path: str) -> dict[str, list[dict]]:
    """workload -> untraced run records, over every run in the file."""
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    out: dict[str, list[dict]] = {}
    for record in records:
        for name, runs in record["workloads"].items():
            out.setdefault(name, []).append(runs["untraced"])
    return out


def verdict(a: list[float], b: list[float], better: str, bound: float
            ) -> tuple[float, str]:
    """(B's worsening as a share of A's median, verdict)."""
    steady = min(len(a), len(b)) < 2 or max(spread(a), spread(b)) <= bound
    if better == "higher":  # as costs, so that lower is better below
        a, b = [-v for v in a], [-v for v in b]
    med_a = statistics.median(a)
    worse = (statistics.median(b) - med_a) / abs(med_a)
    if steady:
        return worse, "ok" if worse <= bound else "regressed"
    if max(b) < min(a):  # every run of B beats every run of A
        return worse, "ok"
    if worse > bound and min(b) > max(a):
        return worse, "regressed"
    return worse, "unresolved"


def output_problems(runs: list[dict]) -> list[str]:
    problems = []
    by_stream: dict[tuple[int, int], dict] = {}
    for run in runs:
        where = f"{run['workload']} seed {run['seed']}"
        if run["ops_failed"] or run["check_error"] or run["truncated"]:
            problems.append(
                f"{where}: {run['ops_failed']} ops failed, truncated="
                f"{run['truncated']} {run['check_error']}"
            )
        first = by_stream.setdefault((run["seed"], run["ops"]), run)
        for key in ("placements_digest", "counts", "ops_attempted"):
            if first[key] != run[key]:
                problems.append(f"{where}: {key} differs between runs")
    return problems


def compare(a_path: str, b_path: str, values: str = "metrics") -> int:
    a_runs, b_runs = load(a_path), load(b_path)
    bad = 0
    print(f"{'workload':<13}{'metric':<18}{'A median':>14}{'B median':>14}"
          f"{'B worse by':>12}{'bound':>8}  verdict")
    for workload in a_runs:
        if workload not in b_runs:
            continue
        for name, metric in spec()["end_to_end"].items():
            a = [r[values][name] for r in a_runs[workload] if name in r[values]]
            b = [r[values][name] for r in b_runs[workload] if name in r[values]]
            if not a or not b:
                continue
            worse, word = verdict(a, b, metric["better"], metric["bound"])
            bad += word != "ok"
            print(f"{workload:<13}{name:<18}{statistics.median(a):>14.4f}"
                  f"{statistics.median(b):>14.4f}{worse:>11.2%} "
                  f"{metric['bound']:>7.0%}  {word}")
        for problem in output_problems(a_runs[workload] + b_runs[workload]):
            bad += 1
            print(f"  OUTPUT: {problem}")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    values = "metrics"
    if "--raw" in args:
        args.remove("--raw")
        values = "raw"
    if len(args) != 2:
        print(__doc__)
        return 2
    return compare(args[0], args[1], values)


if __name__ == "__main__":
    raise SystemExit(main())
