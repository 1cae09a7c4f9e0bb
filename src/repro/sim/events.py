"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence at a point in simulated time.
Processes (see :mod:`repro.sim.process`) suspend themselves by yielding an
event and are resumed by the kernel once that event has *triggered* --
either successfully, carrying a value, or with a failure, carrying an
exception that is re-raised inside every waiting process.

The design follows the classic SimPy architecture but is implemented from
scratch and trimmed to exactly what the SP machine model needs:

* :class:`Event` -- manually triggered via :meth:`Event.succeed` /
  :meth:`Event.fail`.
* :class:`Timeout` -- triggers after a fixed delay; the workhorse used by
  the machine model to represent latencies and occupancies.
* :class:`AnyOf` / :class:`AllOf` -- composite conditions.

All times are in **microseconds** of virtual time, matching the units the
paper reports (latency tables in us, bandwidth in MB/s == bytes/us).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator

__all__ = ["PENDING", "FLOAT_WAKE", "Event", "Timeout", "AnyOf", "AllOf",
           "ConditionValue"]


class _Pending:
    """Sentinel for the value of an event that has not triggered yet."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<PENDING>"


#: Singleton sentinel distinguishing "no value yet" from ``None`` values.
PENDING = _Pending()


class _FloatWake:
    """Singleton trigger fed to a process resuming from a bare-float yield.

    Processes may yield a bare number instead of a :class:`Timeout` to
    sleep that many microseconds (the kernel's allocation-free sleep
    path).  This object mimics a successfully-triggered, valueless
    event: ``Process._resume`` only reads ``_ok`` and ``_value`` from
    its trigger, both class attributes here, so one immortal instance
    serves every float sleep in every simulator.
    """

    __slots__ = ()
    _ok = True
    _value = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<float-sleep wake>"


#: Shared trigger for all float-yield wakeups (see ``Process._resume``).
FLOAT_WAKE = _FloatWake()


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    sim:
        The owning :class:`~repro.sim.kernel.Simulator`.
    name:
        Optional label used in traces and error messages.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "name")

    #: Queue-entry kind for the kernel's dispatch table (see
    #: ``repro.sim.kernel._DISPATCH``): 0 = fast timer, 1 = triggered
    #: event awaiting callback processing, 2 = timeout that must trigger
    #: from its held-aside payload when popped.  A class attribute so
    #: ``__slots__`` instances stay field-free; subclasses that need a
    #: different pop-time action override it.
    _qk = 1

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        #: Callables invoked with this event when it is processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has an outcome (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run and the event is finished."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once :attr:`triggered`."""
        if self._ok is None:
            raise SimulationError(f"event {self!r} has not triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's outcome: its payload, or the failure exception."""
        if self._value is PENDING:
            raise SimulationError(f"event {self!r} has not triggered yet")
        return self._value

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    @classmethod
    def completed(cls, sim: "Simulator", value: Any = None,
                  name: str = "") -> "Event":
        """Create an event that already succeeded *and* processed.

        The synchronous-completion fast path: a primitive whose wait is
        satisfiable immediately (an uncontended lock, a semaphore with
        credit, a channel with items queued) returns one of these
        instead of ``succeed()``-ing a fresh event through the kernel
        queue.  ``Process._resume`` consumes processed events inline, so
        the waiter continues in the same kernel step -- no event-queue
        round trip, no callbacks list.
        """
        ev = cls.__new__(cls)
        ev.sim = sim
        ev.name = name
        ev.callbacks = None  # already processed
        ev._value = value
        ev._ok = True
        return ev

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` as its payload."""
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.sim._enqueue_triggered(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed; ``exc`` propagates to waiters."""
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() needs an exception, got {exc!r}")
        if self._value is not PENDING:
            raise SimulationError(f"event {self!r} has already been triggered")
        self._ok = False
        self._value = exc
        self.sim._enqueue_triggered(self)
        return self

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or self.__class__.__name__
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` microseconds after creation.

    Created through :meth:`repro.sim.kernel.Simulator.timeout`; the kernel
    schedules it immediately upon construction.
    """

    __slots__ = ("delay", "_pending_value")

    #: Timeouts sit in the queue untriggered; the kernel's dispatch
    #: table routes kind 2 through the trigger-from-pending path.
    _qk = 2

    def __init__(self, sim: "Simulator", delay: float, value: Any = None,
                 name: str = "") -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # The default name is built lazily in __repr__: timeouts are the
        # single most-allocated object in a simulation, and untraced runs
        # must not pay for a format call per packet.
        super().__init__(sim, name=name)
        self.delay = delay
        # The payload is held aside and only becomes the event's value when
        # the kernel pops the timeout at its due time; until then the event
        # reports untriggered, which is what conditions and waiters expect.
        self._pending_value = value
        sim._schedule_at(sim.now + delay, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = self.name or f"timeout({self.delay})"
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{label} {state} at {id(self):#x}>"


class ConditionValue:
    """Ordered mapping of the sub-events that fired for a condition.

    Behaves like a read-only dict keyed by the original event objects,
    preserving the order in which sub-events were given to the condition.
    """

    __slots__ = ("events",)

    def __init__(self, events: list[Event]) -> None:
        self.events = events

    def __getitem__(self, key: Event) -> Any:
        # Identity scan, not ``in``: list containment falls back to
        # ``==`` per element, which would invoke payload equality on
        # value-comparable event subclasses and costs a rich-compare
        # dispatch per entry either way.  Keys are the original event
        # *objects*, so identity is the correct relation.
        for ev in self.events:
            if ev is key:
                return ev.value
        raise KeyError(repr(key))

    def __contains__(self, key: Event) -> bool:
        for ev in self.events:
            if ev is key:
                return True
        return False

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def todict(self) -> dict[Event, Any]:
        """Return a plain dict of event -> value."""
        return {ev: ev.value for ev in self.events}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ConditionValue {self.todict()!r}>"


class _Condition(Event):
    """Common machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event],
                 name: str = "") -> None:
        super().__init__(sim, name=name)
        self._events = list(events)
        self._count = 0
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError(
                    "cannot mix events from different simulators")
        # Evaluate already-triggered events eagerly so that conditions over
        # finished events fire without waiting a tick.
        for ev in self._events:
            if ev.triggered:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)
        if not self._events and not self.triggered:
            # Trivially satisfied empty condition.
            self.succeed(ConditionValue([]))

    def _matched(self) -> list[Event]:
        return [ev for ev in self._events if ev.triggered]

    def _check(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._count += 1
        if self._satisfied():
            self.succeed(ConditionValue(self._matched()))

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_Condition):
    """Triggers as soon as any one of the given events triggers."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        events = list(events)
        if not events:
            raise SimulationError("AnyOf() requires at least one event")
        super().__init__(sim, events, name="AnyOf")

    def _satisfied(self) -> bool:
        return self._count >= 1


class AllOf(_Condition):
    """Triggers once every one of the given events has triggered."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim, list(events), name="AllOf")

    def _satisfied(self) -> bool:
        return self._count >= len(self._events)
