"""Generator-based processes for the DES kernel.

A process wraps a Python generator.  Each ``yield`` hands an
:class:`~repro.des.events.Event` to the kernel; the process is resumed with
the event's value once it fires (or the event's exception is thrown into the
generator).  A process is itself an event that fires with the generator's
return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator

__all__ = ["Process", "ProcessGenerator"]

#: Type alias for the generators accepted by :class:`Process`.
ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running coroutine inside the simulation.

    Parameters
    ----------
    sim:
        Owning simulator.
    generator:
        A generator yielding events.
    name:
        Optional human-readable label used in ``repr`` and error messages.

    Notes
    -----
    The process event fires when the generator returns; its value is the
    generator's return value.  If the generator raises, the process event
    fails with that exception (which propagates to waiters, or to the kernel
    if nobody waits).
    """

    __slots__ = ("generator", "name", "_target", "_initialized")

    def __init__(
        self,
        sim: "Simulator",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if runnable).
        self._target: Optional[Event] = None
        # Kick-start: resume the generator at the current time.
        init = Event(sim)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        sim._schedule(init, delay=0.0)

    # -- public API ---------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently suspended on."""
        return self._target

    # -- kernel plumbing ----------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        self.sim._active_process = self
        self._target = None

        while True:
            try:
                if event._ok:
                    next_ev = self.generator.send(event._value)
                else:
                    event._defused = True
                    next_ev = self.generator.throw(event._value)
            except StopIteration as stop:
                self.sim._active_process = None
                self._ok = True
                self._value = stop.value
                self.sim._schedule(self, delay=0.0)
                return
            except BaseException as exc:
                self.sim._active_process = None
                self._ok = False
                self._value = exc
                self.sim._schedule(self, delay=0.0)
                return

            if not isinstance(next_ev, Event):
                self.sim._active_process = None
                err = RuntimeError(
                    f"process {self.name!r} yielded a non-event: {next_ev!r}"
                )
                self._ok = False
                self._value = err
                self.sim._schedule(self, delay=0.0)
                return

            if next_ev.processed:
                # Already fired: loop and feed its value straight back in.
                event = next_ev
                continue

            next_ev.callbacks.append(self._resume)
            self._target = next_ev
            break

        self.sim._active_process = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
