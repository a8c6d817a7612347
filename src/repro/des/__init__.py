"""Discrete-event simulation kernel (from-scratch substrate).

The paper's evaluation ran on a physical testbed; our reproduction replays
it on a simulator.  This subpackage is the time engine underneath that
simulator: a small, dependency-free, generator-coroutine DES kernel in the
style of SimPy.

Public API
----------
- :class:`Simulator` — clock, event queue, ``run``/``step``.
- :class:`Event`, :class:`Timeout`, :class:`AllOf`, :class:`AnyOf` — events.
- :class:`Process` — coroutine processes.
- :class:`Store` — a shared FIFO of objects.
"""

from .events import AllOf, AnyOf, Condition, Event, Timeout
from .process import Process, ProcessGenerator
from .resources import Store
from .simulator import EmptySchedule, Simulator

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "EmptySchedule",
    "Event",
    "Process",
    "ProcessGenerator",
    "Simulator",
    "Store",
    "Timeout",
]
