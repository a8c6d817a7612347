"""Core event primitives for the discrete-event simulation kernel.

The kernel follows the classic coroutine-on-generator design (as popularised
by SimPy): a :class:`~repro.des.process.Process` is a Python generator that
yields :class:`Event` objects; the :class:`~repro.des.simulator.Simulator`
resumes the generator when the yielded event fires.

Events move through three states:

``pending``
    Created but not yet scheduled to fire.
``triggered``
    Given a value (or an exception) and placed on the simulator's event
    queue; the fire time is fixed.
``processed``
    Callbacks have run; waiting processes have been resumed.

This module deliberately contains no scheduling logic — events only know how
to hold callbacks and values.  Scheduling lives in
:mod:`repro.des.simulator`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator

__all__ = [
    "Event",
    "Timeout",
    "Condition",
    "AllOf",
    "AnyOf",
    "PENDING",
]


class _PendingType:
    """Sentinel for an event value that has not been set yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


#: Sentinel used as the value of untriggered events.
PENDING = _PendingType()


class Event:
    """A one-shot occurrence at a point in simulated time.

    Parameters
    ----------
    sim:
        The owning simulator.  Events are bound to exactly one simulator and
        may not be shared between kernels.

    Notes
    -----
    ``Event`` supports the composition operators ``a & b`` (fires when both
    have fired) and ``a | b`` (fires when either has fired), mirroring the
    SimPy API so that application code reads naturally.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: Callbacks run (in insertion order) when the event is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state inspection --------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value and is queued to fire."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (value), False if it failed."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        The event fires at the current simulation time (it is appended to
        the queue with zero delay).  Triggering twice is an error.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, delay=0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Any process waiting on the event will have ``exception`` raised at
        its ``yield`` statement.  If nothing ever waits on a failed event the
        simulator re-raises the exception at the end of the step (unless
        :meth:`defuse` was called), so failures cannot pass silently.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay=0.0)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.defused_fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel won't re-raise it."""
        self._defused = True

    def defused_fail(self, exception: BaseException) -> "Event":
        """Fail the event but pre-defuse it (used by condition plumbing)."""
        self.fail(exception)
        self._defused = True
        return self

    # -- composition -------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(sim)
        self.delay = float(delay)
        self._ok = True
        self._value = value
        sim._schedule(self, delay=self.delay)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timeout delay={self.delay}>"


class Condition(Event):
    """An event that fires when a predicate over child events is met.

    Subclasses provide ``_check(triggered, total)``.  The condition's value
    is a dict mapping each *fired* child event to its value, in child order.
    A failing child fails the whole condition immediately.
    """

    __slots__ = ("events", "_fired")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: tuple[Event, ...] = tuple(events)
        self._fired: set[int] = set()
        for ev in self.events:
            if ev.sim is not sim:
                raise ValueError("cannot mix events from different simulators")
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.processed:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _check(self, triggered: int, total: int) -> bool:
        raise NotImplementedError

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            if not ev._ok and not ev._defused:
                # The condition already fired; don't lose a later failure.
                ev._defused = True
            return
        if not ev._ok:
            ev.defuse()
            self.fail(ev._value)
            return
        self._fired.add(id(ev))
        if self._check(len(self._fired), len(self.events)):
            self.succeed(self._collect())

    def _collect(self) -> dict[Event, Any]:
        # Only children that have actually fired are included: a Timeout is
        # "triggered" from creation, so the fired-set, not the triggered
        # flag, is the correct membership test.
        return {ev: ev._value for ev in self.events if id(ev) in self._fired}


class AllOf(Condition):
    """Fires when every child event has fired successfully."""

    __slots__ = ()

    def _check(self, triggered: int, total: int) -> bool:
        return triggered == total


class AnyOf(Condition):
    """Fires when at least one child event has fired successfully."""

    __slots__ = ()

    def _check(self, triggered: int, total: int) -> bool:
        return triggered >= 1
