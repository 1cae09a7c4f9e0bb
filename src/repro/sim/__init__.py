"""Discrete-event simulation kernel used by the SP machine model.

Public surface:

* :class:`Simulator` -- clock, pending-event heap, the one event loop,
  process launcher.
* :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf` --
  awaitable occurrences.
* :class:`Process`, :class:`Interrupt` -- generator-based processes.
* :class:`SimLock`, :class:`Semaphore`, :class:`WaitSet` -- virtual-time
  synchronization.
* :class:`Channel` -- FIFO queues with optional bounded/dropping behavior.
* :class:`RngRegistry` -- deterministic named randomness.
* :class:`Tracer` -- structured debugging traces.
"""

from .channel import Channel
from .events import AllOf, AnyOf, ConditionValue, Event, PENDING, Timeout
from .kernel import Simulator
from .process import Interrupt, Process, ProcessGen
from .rng import RngRegistry
from .sync import Semaphore, SimLock, WaitSet
from .trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "ConditionValue",
    "Event",
    "Interrupt",
    "PENDING",
    "Process",
    "ProcessGen",
    "RngRegistry",
    "Semaphore",
    "SimLock",
    "Simulator",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "WaitSet",
]
