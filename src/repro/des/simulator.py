"""The discrete-event simulator: clock, event queue, and run loop."""

from __future__ import annotations

import heapq
from typing import Any, Optional

from .events import AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGenerator

__all__ = ["Simulator", "EmptySchedule"]


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class Simulator:
    """A discrete-event simulation kernel.

    The simulator owns the clock (``now``) and a priority queue of triggered
    events ordered by ``(time, sequence)``.  All simulated entities
    (hosts, links, generators, applications, monitors) are driven by
    processes registered on one simulator instance.

    Examples
    --------
    >>> sim = Simulator()
    >>> def hello(sim):
    ...     yield sim.timeout(5.0)
    ...     return sim.now
    >>> p = sim.process(hello(sim))
    >>> sim.run()
    >>> p.value
    5.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None between resumptions)."""
        return self._active_process

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Register ``generator`` as a new process starting now."""
        return Process(self, generator, name=name)

    def call_in(self, delay: float, fn) -> Timeout:
        """Invoke ``fn()`` after ``delay`` time units.

        A lightweight alternative to a full process for one-shot actions
        (fault injection, recovery timers).  Returns the underlying timeout
        event so callers can cancel interest by ignoring it.
        """
        if delay < 0:
            raise ValueError(f"delay cannot be negative: {delay}")
        ev = self.timeout(delay)
        ev.callbacks.append(lambda _ev: fn())
        return ev

    def call_at(self, time: float, fn) -> Timeout:
        """Invoke ``fn()`` at absolute simulated time ``time``."""
        if time < self._now:
            raise ValueError(f"time {time} is in the past (now={self._now})")
        return self.call_in(time - self._now, fn)

    def all_of(self, events) -> AllOf:
        """Event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event firing when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling (kernel-internal) -------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        """Queue a triggered event to fire ``delay`` from now; events due
        at the same time fire in the order they were scheduled."""
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, self._eid, event))

    # -- run loop ----------------------------------------------------------
    def peek(self) -> float:
        """Time of the next event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise EmptySchedule()
        when, _eid, event = heapq.heappop(self._queue)
        if when < self._now:  # pragma: no cover - internal invariant
            raise RuntimeError("event scheduled in the past")
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for cb in callbacks:
            cb(event)
        if not event._ok and not event._defused:
            # Nobody handled the failure: surface it loudly.
            exc = event._value
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue empties, a deadline passes, or an event fires.

        Parameters
        ----------
        until:
            ``None``
                run until no events remain;
            a number
                run until the clock reaches that time (the clock is set to
                exactly ``until`` even if no event lands there);
            an :class:`Event`
                run until that event is processed, returning its value
                (re-raising its exception if it failed).
        """
        stop_event: Optional[Event] = None
        deadline: Optional[float] = None
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                if stop_event.ok:
                    return stop_event.value
                raise stop_event._value
            done = {"flag": False}

            def _stop(_ev: Event) -> None:
                done["flag"] = True

            stop_event.callbacks.append(_stop)
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise ValueError(
                    f"until={deadline} is in the past (now={self._now})"
                )

        while self._queue:
            if deadline is not None and self.peek() > deadline:
                break
            self.step()
            if stop_event is not None and done["flag"]:
                if stop_event.ok:
                    return stop_event.value
                stop_event._defused = True
                raise stop_event._value
        if stop_event is not None and not stop_event.processed:
            raise RuntimeError(
                "simulation ended before the awaited event fired"
            )
        if deadline is not None:
            self._now = max(self._now, deadline)
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Simulator now={self._now} queued={len(self._queue)}>"
