"""A shared-resource primitive built on the DES kernel.

:class:`Store` is a FIFO of Python objects (put/get items), with an
optional filtered get, after SimPy's.  Its methods return events, so
they compose with timeouts and conditions
(``yield store.get() | sim.timeout(1.0)``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .simulator import Simulator

__all__ = ["Store"]


class Store:
    """A FIFO buffer of arbitrary Python objects with bounded capacity."""

    def __init__(self, sim: "Simulator", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()
        self._getters: deque[tuple[Event, Optional[Callable[[Any], bool]]]] = deque()

    def put(self, item: Any) -> Event:
        """Append ``item``; fires once there is room."""
        ev = Event(self.sim)
        self._putters.append((ev, item))
        self._settle()
        return ev

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> Event:
        """Take the oldest item (optionally the oldest matching ``filter``).

        The event's value is the item.
        """
        ev = Event(self.sim)
        self._getters.append((ev, filter))
        self._settle()
        return ev

    def __len__(self) -> int:
        return len(self.items)

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._putters and len(self.items) < self.capacity:
                ev, item = self._putters.popleft()
                self.items.append(item)
                ev.succeed()
                progress = True
            # Serve getters FIFO; a filtered getter that cannot be satisfied
            # does not block later getters with satisfiable filters.
            unserved: deque[tuple[Event, Optional[Callable[[Any], bool]]]] = deque()
            while self._getters:
                ev, flt = self._getters.popleft()
                idx = None
                if flt is None:
                    if self.items:
                        idx = 0
                else:
                    for i, item in enumerate(self.items):
                        if flt(item):
                            idx = i
                            break
                if idx is None:
                    unserved.append((ev, flt))
                else:
                    item = self.items[idx]
                    del self.items[idx]
                    ev.succeed(item)
                    progress = True
            self._getters = unserved
