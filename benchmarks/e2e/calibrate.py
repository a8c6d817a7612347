"""Frozen calibration kernel: the clock every reported time is divided by.

The hosts this benchmark runs on change speed by up to 2x over tens of
seconds (identical code, identical inputs), so a raw wall-clock figure
says more about when it was taken than about the code.  The harness
therefore runs :func:`sample` between slices of timed work and reports
every duration multiplied by ``CAL_REF_S / mean(sample before, sample
after)`` — "calibrated seconds": what the work would have taken had
the host run this kernel in exactly ``CAL_REF_S``.

**The kernel is frozen.**  Every committed number is a ratio against
it; changing anything in :func:`_build` or :func:`kernel` re-bases all
of them and needs its own benchmark issue.  It imports nothing from
``repro`` so that no change to the system under test can move it.  It
is built to be sensitive to the same things the service is — dict and
float work, sorting, and pointer-chasing over a few thousand small
objects (a bottleneck-BFS over a 4 000-node object graph) — so that
cache and frequency effects move both alike.

``python -m benchmarks.e2e.calibrate --selfcheck`` interleaves the
kernel with an unrelated fixed reference op and fails when calibration
does not flatten the host's drift.
"""

from __future__ import annotations

import heapq
import statistics
import subprocess
import sys
from time import perf_counter

from . import ROOT

#: The duration one kernel run is *defined* to take.  A constant, not a
#: measurement: calibrated seconds are seconds on a host that runs the
#: kernel in exactly this long.
CAL_REF_S = 0.010

_NODES = 4000
_EXTRA_EDGES = 2000
_LOOP = 20000


class _Node:
    __slots__ = ("nbrs", "width")

    def __init__(self) -> None:
        self.nbrs: list[tuple["_Node", float]] = []
        self.width = 0.0


def _build() -> list[_Node]:
    """A fixed random tree plus chords; capacities from a fixed LCG."""
    state = 12345

    def rnd() -> int:
        nonlocal state
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        return state

    nodes = [_Node() for _ in range(_NODES)]
    pairs = [(i, rnd() % i) for i in range(1, _NODES)]
    pairs += [(rnd() % _NODES, rnd() % _NODES) for _ in range(_EXTRA_EDGES)]
    for a, b in pairs:
        if a == b:
            continue
        cap = 5.0 + (rnd() % 9500) / 100.0
        nodes[a].nbrs.append((nodes[b], cap))
        nodes[b].nbrs.append((nodes[a], cap))
    return nodes


_GRAPH = _build()


def kernel() -> float:
    """One calibration unit of work; returns a checksum (never timed
    apart from :func:`sample`)."""
    # Dict / float / sort loop.
    acc: dict[int, float] = {}
    x = 0.5
    for i in range(_LOOP):
        x = (x * 1.7 + 0.3) % 1.0
        key = i & 1023
        acc[key] = acc.get(key, 0.0) + x
    ordered = sorted(acc.values())
    # Bottleneck (widest-path) search from node 0 over the object graph.
    for node in _GRAPH:
        node.width = 0.0
    root = _GRAPH[0]
    root.width = 1e9
    heap = [(-1e9, 0, root)]
    tie = 0
    while heap:
        neg, _, node = heapq.heappop(heap)
        width = -neg
        if width < node.width:
            continue
        for nbr, cap in node.nbrs:
            w = cap if cap < width else width
            if w > nbr.width:
                nbr.width = w
                tie += 1
                heapq.heappush(heap, (-w, tie, nbr))
    return ordered[len(ordered) // 2] + _GRAPH[-1].width


def sample() -> float:
    """Seconds one kernel run takes on this host right now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Sampler:
    """Calibration samples taken on ``procs`` CPUs at once.

    What the host gives two busy vCPUs drifts apart from what it gives
    one, and ``workers_10k`` keeps two worker processes busy: divided
    by a one-process sample its median wave repeated to 6.6 % over
    twelve runs (tail 10.7 %), by the mean of two simultaneous samples
    to 2.7 % (tail 4.4 %).  So a workload is calibrated the way it
    runs: ``procs - 1`` helper processes (this module with ``--serve``)
    run the kernel while this process does, and a sample is the mean.
    """

    def __init__(self, procs: int = 1) -> None:
        self._helpers = [
            subprocess.Popen(
                [sys.executable, "-m", "benchmarks.e2e.calibrate", "--serve"],
                cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(procs - 1)
        ]
        try:
            self.sample()  # helpers have started and every cache is warm
        except BaseException:
            self.close()
            raise

    def sample(self) -> float:
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        values = [sample()]
        values += [float(helper.stdout.readline()) for helper in self._helpers]
        return sum(values) / len(values)

    def close(self) -> None:
        """End the helpers (their loop stops at end of input) and wait."""
        for helper in self._helpers:
            helper.communicate()
        self._helpers = []

    def __enter__(self) -> "Sampler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    """A :class:`Sampler` helper: one sample per line read."""
    for _line in sys.stdin:
        print(repr(sample()), flush=True)


def factor(before: float, after: float) -> float:
    """Multiplier turning raw seconds measured between two samples into
    calibrated seconds."""
    return CAL_REF_S / ((before + after) / 2.0)


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _reference_op() -> int:
    """Fixed work that shares no code with the kernel: tuple keys,
    frozensets, sorting records, string formatting."""
    rows = [
        (f"app-{i}", tuple(f"n{(i * 7 + j) % 97}" for j in range(4)),
         0.1 * (i % 7))
        for i in range(400)
    ]
    claims: dict[str, float] = {}
    for _app, nodes, cpu in rows:
        for name in nodes:
            claims[name] = claims.get(name, 0.0) + cpu
    groups = {frozenset(nodes) for _app, nodes, _cpu in rows}
    ranked = sorted(rows, key=lambda r: (-r[2], r[0]))
    return len(claims) + len(groups) + len(ranked)


def selfcheck(samples: int = 300, blocks: int = 10, limit: float = 0.05
              ) -> int:
    """Interleave ``samples`` kernel runs with the reference op.

    Prints the kernel time and its spread, and the spread of the
    reference op's block medians raw and calibrated; returns 1 when the
    calibrated spread exceeds ``limit``.
    """
    cal = [sample()]
    raw: list[float] = []
    for _ in range(samples):
        t0 = perf_counter()
        _reference_op()
        raw.append(perf_counter() - t0)
        cal.append(sample())
    calibrated = [
        r * factor(cal[i], cal[i + 1]) for i, r in enumerate(raw)
    ]
    size = samples // blocks

    def block_medians(values: list[float]) -> list[float]:
        return [
            statistics.median(values[b * size:(b + 1) * size])
            for b in range(blocks)
        ]

    raw_spread = spread(block_medians(raw))
    cal_spread = spread(block_medians(calibrated))
    print(f"harness.cal_ms            {statistics.median(cal) * 1e3:.4f} ms")
    print(f"harness.cal_spread        {spread(cal):.4f} ratio")
    print(f"reference_op.raw_spread   {raw_spread:.4f} ratio "
          f"(of {blocks} block medians)")
    print(f"reference_op.cal_spread   {cal_spread:.4f} ratio (limit {limit})")
    ok = cal_spread <= limit
    print("selfcheck:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    if "--selfcheck" in sys.argv[1:]:
        sys.exit(selfcheck())
    if "--serve" in sys.argv[1:]:
        sys.exit(serve())
    print(f"{sample() * 1e3:.4f} ms")
