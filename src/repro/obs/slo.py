"""Rolling-window SLO objectives and multi-window burn-rate alerts.

The selection service's health is defined by a handful of service-level
objectives (SLOs): admit latency stays under a threshold at the p99,
the availability ratio (non-rejected requests / all requests) stays
above a target, and worker restarts stay within an hourly budget.  This
module evaluates those objectives over rolling time windows and reports
*burn rates* — how fast the error budget is being consumed relative to
a steady pace that would exactly exhaust it over the horizon.

The alerting policy follows the multi-window burn-rate pattern: an
objective *pages* only when **every** configured ``(window, threshold)``
pair is burning — a long window proves the problem is sustained, a
short window proves it is still happening.  With the defaults
``((300 s, 14.4x), (3600 s, 6x))`` a paging signal means roughly 2-5%
of a 30-day budget is gone within the hour.

Design notes:

- Time comes from an injected ``clock`` (defaulting to
  ``time.monotonic``), so services driven by a manual test clock get
  fully deterministic SLO evaluation.
- Samples are kept in coarse time buckets (a stamped ring of 60 slots
  per window horizon), not per-event deques — ``observe_request`` is on
  the admit path and must stay O(1) with zero allocation.
- ``evaluate()`` returns plain dicts/floats/strings so the result can
  be embedded verbatim in ``metrics_snapshot()`` / JSON output.

See DESIGN.md §17.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

__all__ = [
    "DEFAULT_WINDOWS",
    "SloObjective",
    "SloMonitor",
]

#: ``(window_seconds, burn_threshold)`` pairs for the page decision.
#: Both windows must exceed their threshold simultaneously to page.
DEFAULT_WINDOWS: tuple[tuple[float, float], ...] = (
    (300.0, 14.4),
    (3600.0, 6.0),
)

#: A request slower than this (wall seconds) is a bad ``admit_latency`` event.
LATENCY_THRESHOLD_S = 0.005
#: Good-event ratio targets of the two ratio objectives.
LATENCY_TARGET = 0.99
AVAILABILITY_TARGET = 0.95
#: Shard-worker restarts allowed per hour.
RESTART_BUDGET_PER_HOUR = 2.0

_SLOTS = 60  # buckets per window horizon


class _Window:
    """A stamped ring of ``_SLOTS`` time buckets over ``horizon_s``.

    Each slot accumulates (good, bad) event counts for one bucket of
    ``horizon_s / _SLOTS`` seconds.  Slots are lazily reset when their
    stamp no longer matches the current absolute bucket index, so there
    is no background sweeper and stale data ages out on write *or*
    read.
    """

    __slots__ = ("horizon_s", "bucket_s", "_good", "_bad", "_stamp")

    def __init__(self, horizon_s: float) -> None:
        self.horizon_s = float(horizon_s)
        self.bucket_s = self.horizon_s / _SLOTS
        self._good = [0.0] * _SLOTS
        self._bad = [0.0] * _SLOTS
        self._stamp = [-1] * _SLOTS

    def add(self, now: float, good: float, bad: float) -> None:
        idx = int(now / self.bucket_s)
        slot = idx % _SLOTS
        if self._stamp[slot] != idx:
            self._stamp[slot] = idx
            self._good[slot] = 0.0
            self._bad[slot] = 0.0
        self._good[slot] += good
        self._bad[slot] += bad

    def totals(self, now: float) -> tuple[float, float]:
        """(good, bad) summed over buckets inside the horizon."""
        idx = int(now / self.bucket_s)
        lo = idx - _SLOTS + 1
        good = bad = 0.0
        for slot in range(_SLOTS):
            stamp = self._stamp[slot]
            if lo <= stamp <= idx:
                good += self._good[slot]
                bad += self._bad[slot]
        return good, bad


class SloObjective:
    """One objective: a ratio target or an absolute event budget.

    Exactly one of ``target`` / ``budget_per_hour`` must be given:

    - ``target`` (e.g. ``0.99``): the good-event ratio must stay at or
      above the target.  Burn rate is ``bad_fraction / (1 - target)``.
    - ``budget_per_hour`` (e.g. ``2.0`` restarts): at most that many
      bad events per hour.  Burn rate is ``bad / (budget * horizon/1h)``.
    """

    def __init__(
        self,
        name: str,
        *,
        target: Optional[float] = None,
        budget_per_hour: Optional[float] = None,
        windows: tuple[tuple[float, float], ...] = DEFAULT_WINDOWS,
    ) -> None:
        if (target is None) == (budget_per_hour is None):
            raise ValueError(
                "exactly one of target/budget_per_hour is required"
            )
        if target is not None and not (0.0 < target < 1.0):
            raise ValueError(f"target must be in (0, 1), got {target}")
        self.name = name
        self.target = target
        self.budget_per_hour = budget_per_hour
        self.windows = tuple(windows)
        self._rings = [_Window(horizon) for horizon, _ in self.windows]

    def add(self, now: float, good: float, bad: float) -> None:
        for ring in self._rings:
            ring.add(now, good, bad)

    def _burn(self, ring: _Window, now: float) -> float:
        good, bad = ring.totals(now)
        if self.target is not None:
            total = good + bad
            if total <= 0.0:
                return 0.0
            return (bad / total) / (1.0 - self.target)
        allowed = self.budget_per_hour * ring.horizon_s / 3600.0
        if allowed <= 0.0:
            return 0.0 if bad <= 0.0 else float("inf")
        return bad / allowed

    def evaluate(self, now: float) -> dict:
        """Burn per window plus a rolled-up status.

        ``paging`` when every window exceeds its threshold, ``burning``
        when any window burns faster than 1x (budget being consumed
        faster than steady-state), ``ok`` otherwise.
        """
        burns = []
        paging = True
        burning = False
        for (horizon, threshold), ring in zip(self.windows, self._rings):
            burn = self._burn(ring, now)
            burns.append({
                "window_s": horizon,
                "burn_rate": round(burn, 4),
                "threshold": threshold,
            })
            if burn <= threshold:
                paging = False
            if burn > 1.0:
                burning = True
        status = "paging" if paging else ("burning" if burning else "ok")
        out: dict = {"status": status, "windows": burns}
        if self.target is not None:
            out["target"] = self.target
        else:
            out["budget_per_hour"] = self.budget_per_hour
        return out


_STATUS_CODE = {"ok": 0.0, "burning": 1.0, "paging": 2.0}
_P99_RING = 512


class SloMonitor:
    """Tracks the service's standing objectives and evaluates burn.

    Objectives:

    - ``admit_latency`` — requests admitted (or queued) in at most
      :data:`LATENCY_THRESHOLD_S` wall seconds, target p-fraction
      :data:`LATENCY_TARGET`.
    - ``availability`` — non-rejected fraction of requests, target
      :data:`AVAILABILITY_TARGET`.  Rejections are a normal
      admission-control outcome, so the target is deliberately looser
      than the latency objective.
    - ``worker_restarts`` — shard-worker process restarts, budgeted at
      :data:`RESTART_BUDGET_PER_HOUR`.

    Every objective is evaluated over :data:`DEFAULT_WINDOWS`.
    """

    def __init__(
        self, *, clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.clock = clock
        self.objectives = {
            "admit_latency": SloObjective(
                "admit_latency", target=LATENCY_TARGET,
            ),
            "availability": SloObjective(
                "availability", target=AVAILABILITY_TARGET,
            ),
            "worker_restarts": SloObjective(
                "worker_restarts", budget_per_hour=RESTART_BUDGET_PER_HOUR,
            ),
        }
        self._latencies = [0.0] * _P99_RING
        self._lat_n = 0  # total observations (ring index = n % _P99_RING)

    # -- observation (hot path: O(1), no allocation) --

    def observe_request(
        self, latency_s: float, ok: bool, now: Optional[float] = None,
    ) -> None:
        if now is None:
            now = self.clock()
        fast = latency_s <= LATENCY_THRESHOLD_S
        self.objectives["admit_latency"].add(
            now, 1.0 if fast else 0.0, 0.0 if fast else 1.0,
        )
        self.objectives["availability"].add(
            now, 1.0 if ok else 0.0, 0.0 if ok else 1.0,
        )
        self._latencies[self._lat_n % _P99_RING] = latency_s
        self._lat_n += 1

    def observe_restart(
        self, count: float = 1.0, now: Optional[float] = None,
    ) -> None:
        if count <= 0:
            return
        if now is None:
            now = self.clock()
        self.objectives["worker_restarts"].add(now, 0.0, count)

    # -- evaluation --

    def latency_p99_s(self) -> float:
        n = min(self._lat_n, _P99_RING)
        if n == 0:
            return 0.0
        window = sorted(self._latencies[:n])
        return window[min(n - 1, int(0.99 * n))]

    def evaluate(self, now: Optional[float] = None) -> dict:
        if now is None:
            now = self.clock()
        objectives = {
            name: obj.evaluate(now) for name, obj in self.objectives.items()
        }
        worst = max(
            (o["status"] for o in objectives.values()),
            key=lambda s: _STATUS_CODE[s],
        )
        return {
            "status": worst,
            "latency_p99_s": round(self.latency_p99_s(), 6),
            "objectives": objectives,
        }

    def bind(self, registry) -> None:
        """Export burn rates and status codes as callback gauges."""
        for name, obj in self.objectives.items():
            for horizon, _threshold in obj.windows:
                def burn(o=obj, h=horizon):
                    now = self.clock()
                    for (win, _t), ring in zip(o.windows, o._rings):
                        if win == h:
                            return o._burn(ring, now)
                    return 0.0
                registry.gauge(
                    "repro_slo_burn_rate",
                    "SLO error-budget burn rate per evaluation window.",
                    labels={"objective": name, "window": f"{int(horizon)}s"},
                    fn=burn,
                )
            registry.gauge(
                "repro_slo_status",
                "SLO status per objective (0=ok, 1=burning, 2=paging).",
                labels={"objective": name},
                fn=lambda o=obj: _STATUS_CODE[
                    o.evaluate(self.clock())["status"]
                ],
            )
