"""Processor-sharing compute hosts with UNIX-style load averages.

A :class:`Host` executes *compute tasks* (abstract "operations" of work)
under processor sharing: with ``k`` runnable tasks, each progresses at
``capacity / k`` ops/second — the same equal-share assumption behind the
paper's ``cpu = 1/(1+load)`` formula (§3.1: "the processor will be equally
shared by those processes and the user application process").

The load average is the exponentially damped run-queue length sampled the
way UNIX kernels do, so the simulated Remos reports to selection algorithms
exactly the quantity the real one did — including its lag behind sudden
load changes.
"""

from __future__ import annotations

import math
from typing import Optional

from ..des.events import Event
from ..des.simulator import Simulator

__all__ = ["Host", "ComputeTask", "HostDownError"]


class HostDownError(RuntimeError):
    """Raised when work is submitted to a crashed host."""


class ComputeTask:
    """One unit of runnable work on a host.

    Created through :meth:`Host.run`; the task's ``done`` event fires when
    the work completes.  Tasks can be aborted (e.g. a migrating application
    cancels in-flight work).
    """

    __slots__ = ("host", "total_ops", "remaining_ops", "done", "started_at")

    def __init__(self, host: "Host", ops: float) -> None:
        self.host = host
        self.total_ops = float(ops)
        self.remaining_ops = float(ops)
        self.done: Event = host.sim.event()
        self.started_at = host.sim.now

    @property
    def finished(self) -> bool:
        return self.done.triggered

    def pending_ops(self) -> float:
        """Work left, settled to the current instant.

        ``remaining_ops`` is only advanced lazily at host events; callers
        sampling progress mid-run (e.g. a migration engine checkpointing a
        task) must use this instead of reading the attribute directly.
        """
        self.host._settle()
        return self.remaining_ops

    def abort(self) -> None:
        """Cancel the task; ``done`` fails with ``InterruptedError``."""
        self.host._abort(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ComputeTask {self.remaining_ops:.0f}/{self.total_ops:.0f} ops "
            f"on {self.host.name}>"
        )


class Host:
    """A compute node executing tasks under processor sharing.

    Parameters
    ----------
    sim:
        The simulation kernel.
    name:
        Node name (matches the topology graph's compute node).
    capacity:
        Peak execution rate in ops/second.
    load_tau:
        Time constant (seconds) of the exponentially damped load average —
        60 s mimics the UNIX 1-minute load average.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        capacity: float = 1.0,
        load_tau: float = 60.0,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if load_tau <= 0:
            raise ValueError(f"load_tau must be positive, got {load_tau}")
        self.sim = sim
        self.name = name
        self.capacity = float(capacity)
        self.load_tau = float(load_tau)
        self._tasks: list[ComputeTask] = []
        self._last_settle = sim.now
        self._load_avg = 0.0
        self._wake: Optional[Event] = None
        self._busy_time = 0.0  # integrated seconds with >=1 task (utilization)
        #: False while the host is crashed (:meth:`fail` / :meth:`recover`
        #: write it; a plain attribute, so a poll of every host's agent
        #: reads it without a call).
        self.up = True
        #: Holds this host's name whenever a poll could read anything but
        #: "up, load 0.0": :meth:`run` and :meth:`fail` add it, and nothing
        #: else makes a load non-zero.  A cluster gives its hosts one set.
        self.awake: set[str] = set()

    # -- public API ----------------------------------------------------------
    @property
    def active_tasks(self) -> int:
        """Number of runnable tasks right now."""
        return len(self._tasks)

    def fail(self) -> None:
        """Crash the host: abort all running tasks, refuse new work.

        Idempotent.  Every in-flight task's ``done`` event fails with
        ``InterruptedError`` (defused, so unobserved tasks don't take the
        kernel down — background jobs on a crashed machine just vanish).
        """
        if not self.up:
            return
        self._settle()
        self.up = False
        self.awake.add(self.name)
        for task in list(self._tasks):
            self._abort(task)
        # A dead machine has an empty run queue; freeze the load average at
        # zero so a post-recovery poll doesn't report pre-crash load.
        self._load_avg = 0.0

    def recover(self) -> None:
        """Bring a crashed host back up (fresh boot: empty queue, zero load)."""
        if self.up:
            return
        self.up = True
        self._last_settle = self.sim.now
        self._load_avg = 0.0

    @property
    def load_average(self) -> float:
        """Damped run-queue length, updated to the current instant.  An up
        host read idle at exactly 0.0 leaves ``awake``: it reads 0.0
        until :meth:`run` or :meth:`fail`."""
        if self._load_avg == 0.0 and not self._tasks:
            # Idle and fully decayed.  Settling an empty run queue at
            # load 0.0 gives ``0 + (0.0 - 0) * decay``: 0.0 whatever the
            # interval, and nothing else moves — so it can wait for the
            # next settle, which will cover this interval too.
            if self.up:
                self.awake.discard(self.name)
            return 0.0
        self._settle()
        return self._load_avg

    @property
    def busy_time(self) -> float:
        """Total simulated seconds this host had at least one task."""
        self._settle()
        return self._busy_time

    def current_rate(self) -> float:
        """Per-task execution rate right now (ops/s)."""
        k = len(self._tasks)
        return self.capacity if k == 0 else self.capacity / k

    def set_capacity(self, capacity: float) -> None:
        """Change the host's execution rate at runtime (e.g. thermal
        throttling, DVFS).  Running tasks are settled at the old rate
        first, then proceed at the new one.
        """
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._settle()
        self.capacity = float(capacity)
        self._reschedule()

    def run(self, ops: float) -> ComputeTask:
        """Submit ``ops`` operations of work; returns the running task.

        Yield ``task.done`` from a process to wait for completion.  Work of
        zero ops completes immediately.
        """
        if ops < 0:
            raise ValueError(f"ops must be non-negative, got {ops}")
        if not self.up:
            raise HostDownError(f"host {self.name!r} is down")
        self.awake.add(self.name)
        self._settle()
        task = ComputeTask(self, ops)
        if ops == 0:
            task.done.succeed(0.0)
            return task
        self._tasks.append(task)
        self._reschedule()
        return task

    def estimated_seconds(self, ops: float) -> float:
        """Time ``ops`` would take at the *current* sharing level.

        The quantity ``1/(1+load)`` predicts: dedicated time divided by the
        available fraction.
        """
        k = len(self._tasks) + 1
        return ops / (self.capacity / k)

    # -- internals ------------------------------------------------------------
    def _settle(self) -> None:
        """Advance task progress and the load average to ``sim.now``."""
        now = self.sim.now
        elapsed = now - self._last_settle
        if elapsed <= 0:
            return
        k = len(self._tasks)
        if k > 0:
            rate = self.capacity / k
            progress = rate * elapsed
            for task in self._tasks:
                task.remaining_ops -= progress
            self._busy_time += elapsed
        # Exact damping for a constant run-queue length over the interval.
        decay = math.exp(-elapsed / self.load_tau)
        self._load_avg = k + (self._load_avg - k) * decay
        self._last_settle = now

    #: Tasks with less remaining work than this are complete.
    _OPS_EPS = 1e-9
    #: ... or whose drain time is below the clock's float resolution
    #: (scheduling a wake closer than this would not advance the clock).
    _TIME_EPS = 1e-9

    def _complete_finished(self) -> None:
        rate = self.capacity / max(len(self._tasks), 1)
        still: list[ComputeTask] = []
        for task in self._tasks:
            if (
                task.remaining_ops <= self._OPS_EPS
                or task.remaining_ops / rate <= self._TIME_EPS
            ):
                task.remaining_ops = 0.0
                task.done.succeed(self.sim.now - task.started_at)
            else:
                still.append(task)
        self._tasks = still

    def _reschedule(self) -> None:
        """(Re)arm the wake event at the next task completion."""
        self._complete_finished()
        if self._wake is not None:
            # Invalidate the stale wake-up; the callback checks identity.
            self._wake = None
        if not self._tasks:
            return
        rate = self.capacity / len(self._tasks)
        next_in = min(t.remaining_ops for t in self._tasks) / rate
        wake = self.sim.timeout(max(next_in, self._TIME_EPS))
        self._wake = wake

        def _on_wake(_ev: Event, me: Event = wake) -> None:
            if self._wake is not me:
                return  # superseded by a later membership change
            self._wake = None
            self._settle()
            self._reschedule()

        wake.callbacks.append(_on_wake)

    def _abort(self, task: ComputeTask) -> None:
        if task.finished:
            raise RuntimeError("cannot abort a finished task")
        self._settle()
        self._tasks.remove(task)
        exc = InterruptedError(f"task aborted on {self.name}")
        task.done.fail(exc)
        task.done.defuse()
        self._reschedule()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Host {self.name} tasks={len(self._tasks)}>"
