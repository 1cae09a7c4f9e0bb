"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the pending-event queue.
All components of the SP machine model -- CPUs, adapters, switch links,
the LAPI/MPL protocol engines -- run on one simulator instance, either
as processes (CPU threads, protocol dispatchers) or as bare
:meth:`Simulator.call_at` callbacks (the adapter DMA engines, wire and
receive-DMA completions), so a whole multi-node parallel machine runs
deterministically inside a single Python process.

Queue and event loop
--------------------
Pending entries live in one binary heap (``heapq``) of ``(when, seq,
entry)`` tuples: earlier instants first, and entries at one instant in
the order they were scheduled.  One event loop, :meth:`Simulator.drive`,
pops and fires them; :meth:`Simulator.run`,
:meth:`Simulator.run_until_complete` and
:meth:`repro.machine.cluster.Cluster.run_job` all call it and turn the
reason it stopped into their own return value or error.

Units
-----
Virtual time is measured in **microseconds** (float).  Bandwidths across
the code base are expressed in bytes per microsecond, which conveniently
equals MB/s (1e6 bytes / 1e6 us), the unit the paper plots.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Iterable, Optional

from ..errors import DeadlockError, SimulationError
from .events import PENDING, AllOf, AnyOf, Event, Timeout
from .process import Process, ProcessGen

__all__ = ["Simulator"]

#: Upper bound on the fast-timer freelist; enough to absorb the steady
#: state of a busy cluster without pinning memory after a burst.
_TIMER_POOL_CAP = 1024

_INF = float("inf")


class _FastTimer:
    """A queue entry that invokes a bare callback -- no :class:`Event`.

    The hot paths of the machine model (the adapter's TX engine, wire
    delivery, receive-DMA completion, retransmission timers) schedule
    millions of one-shot callbacks per benchmark.  Routing them through
    :class:`Timeout` pays for an event object, a callbacks list, a
    closure, and a name string each time; a fast timer is just
    ``(fn, arg)``.  Scheduled via :meth:`Simulator.call_at`; fires with
    the same queue ordering an equally-placed timeout would, so
    converting a timeout to a fast timer never changes virtual time.
    Fired timers are recycled through a per-simulator freelist, making
    the steady-state hot path allocation-free.
    """

    __slots__ = ("fn", "arg")

    #: Queue-entry kind 0: bare callback (see ``_DISPATCH``).
    _qk = 0

    def __init__(self, fn, arg) -> None:
        self.fn = fn
        self.arg = arg

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<call_at {label}({self.arg!r})>"


# ----------------------------------------------------------------------
# dispatch table
# ----------------------------------------------------------------------
# The event loop routes each popped queue entry through a precomputed
# per-kind table instead of an isinstance ladder: entries carry a small
# integer ``_qk`` class attribute indexing ``_DISPATCH``.  The loop
# additionally inlines kind 0 (fast timers -- the vast majority of
# machine-model events) so the steady state pays neither a call nor a
# table lookup per event.

def _fire_timer(sim: "Simulator", when: float, ev: _FastTimer) -> None:
    """Kind 0: invoke a bare callback and recycle the timer."""
    sim.events_processed += 1
    if sim.trace is not None:
        sim.trace.kernel_event(when, ev)
    ev.fn(ev.arg)
    pool = sim._timer_pool
    if len(pool) < _TIMER_POOL_CAP:
        ev.fn = ev.arg = None
        pool.append(ev)


def _fire_event(sim: "Simulator", when: float, ev: Event) -> None:
    """Kind 1: process a triggered event's callbacks."""
    callbacks = ev.callbacks
    ev.callbacks = None  # mark processed
    sim.events_processed += 1
    if sim.trace is not None:
        sim.trace.kernel_event(when, ev)
    if callbacks is None:
        # A twice-enqueued event would replay its callbacks and corrupt
        # the run; fail loudly (a bare assert would vanish under
        # ``python -O``).
        raise SimulationError(
            f"event {ev!r} processed twice (double enqueue)")
    for cb in callbacks:
        cb(ev)
    # An event that failed with nobody listening would silently swallow
    # the error; surface it so broken models crash loudly.
    if ev._ok is False and not callbacks:
        raise ev._value


def _fire_timeout(sim: "Simulator", when: float, ev: Timeout) -> None:
    """Kind 2: a timeout's due time has arrived -- trigger it with the
    held-aside payload, then process callbacks like any event."""
    if ev._value is PENDING:
        ev._ok = True
        ev._value = ev._pending_value
    _fire_event(sim, when, ev)


#: Pop-time actions indexed by the queue entry's ``_qk`` class attribute.
_DISPATCH = (_fire_timer, _fire_event, _fire_timeout)


class _Never:
    """The ``done`` event of an open-ended :meth:`Simulator.run`."""

    __slots__ = ()
    _value = PENDING


_NEVER = _Never()


class Simulator:
    """Event loop, virtual clock, and process registry.

    Parameters
    ----------
    trace:
        Optional :class:`repro.sim.trace.Tracer` receiving kernel events.
    """

    def __init__(self, trace: Optional[Any] = None) -> None:
        self._now: float = 0.0
        #: Pending entries: (when, seq, Event | _FastTimer).
        self._heap: list[tuple[float, int, Any]] = []
        self._seq: int = 0
        self._active_process: Optional[Process] = None
        self._live_processes: set[Process] = set()
        self.trace = trace
        #: Freelist of fired fast timers awaiting reuse.
        self._timer_pool: list[_FastTimer] = []
        #: Terminal error parked by a bare kernel callback (see
        #: ``Cluster.fail_run``).  The event loop stops at the next
        #: event boundary once it is set, and the caller raises it.
        self.fatal: Optional[BaseException] = None
        #: Optional ``repro.obs.spans.SpanRecorder`` observing phase
        #: boundaries (attached by the cluster).  Purely observational:
        #: recording reads ``now`` and appends to host-side lists; it
        #: never schedules events or consumes RNG, so arming it cannot
        #: perturb virtual time.  Components reach it as ``sim.spans``
        #: and must guard every hook on ``is not None``.  Causal
        #: context rides packet uids / message ids in recorder-side
        #: tables -- never the queue entries -- so :meth:`call_at` fast
        #: timers stay allocation-free with spans on.
        self.spans: Optional[Any] = None
        #: Optional ``repro.machine.pool.HotPools`` attached by the
        #: cluster: per-cluster free lists for hot-path model objects
        #: (packets).  Like ``spans``, reached via the simulator only
        #: for plumbing convenience -- the kernel itself never touches
        #: it.
        self.pools: Optional[Any] = None
        #: Optional ``repro.obs.flight.FlightRecorder`` attached by the
        #: cluster when telemetry is armed: the black box that fault
        #: and reliability trigger points dump into.  Same contract as
        #: ``spans``: purely observational, guarded on ``is not None``.
        self.flight: Optional[Any] = None
        #: Cumulative count of events processed over the simulator's
        #: lifetime; useful for tests and perf accounting.  Budget
        #: checks (``max_events``) are always *per call*, relative to a
        #: snapshot of this counter at entry.
        self.events_processed: int = 0

    # ------------------------------------------------------------------
    # clock & factories
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in microseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def event(self, name: str = "") -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None,
                name: str = "") -> Timeout:
        """Create an event that fires ``delay`` us from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Launch ``gen`` as a process; returns the process event."""
        return Process(self, gen, name=name)

    def call_at(self, when: float, fn, arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at virtual time ``when`` (fast path).

        Allocation-light alternative to ``timeout(delay)`` + callback:
        no event object, no callbacks list, no name.  The callback runs
        in kernel context (not on a simulated CPU); it must not block.
        Use for model-internal delivery/completion/timer callbacks whose
        only job is to advance machine state at a known instant.
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule call_at({when}) before now={self._now}")
        pool = self._timer_pool
        if pool:
            timer = pool.pop()
            timer.fn = fn
            timer.arg = arg
        else:
            timer = _FastTimer(fn, arg)
        self._seq = seq = self._seq + 1
        heappush(self._heap, (when, seq, timer))

    def call_after(self, delay: float, fn, arg: Any = None) -> None:
        """Schedule ``fn(arg)`` after ``delay`` us (see :meth:`call_at`)."""
        self.call_at(self._now + delay, fn, arg)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # scheduling internals (used by Event/Timeout/Process)
    # ------------------------------------------------------------------
    def _schedule_at(self, when: float, ev: Event) -> None:
        if when < self._now:
            raise SimulationError(
                f"cannot schedule event at {when} before now={self._now}")
        self._seq = seq = self._seq + 1
        heappush(self._heap, (when, seq, ev))

    def _enqueue_triggered(self, ev: Event) -> None:
        """Queue an already-triggered event for callback processing."""
        self._seq = seq = self._seq + 1
        heappush(self._heap, (self._now, seq, ev))

    def _register_process(self, proc: Process) -> None:
        self._live_processes.add(proc)

    def _unregister_process(self, proc: Process) -> None:
        self._live_processes.discard(proc)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else _INF

    def step(self) -> None:
        """Process a single event (advancing the clock to it)."""
        if not self._heap:
            raise SimulationError("step() on an empty event queue")
        when, _, ev = heappop(self._heap)
        self._now = when
        _DISPATCH[ev._qk](self, when, ev)

    def drive(self, done: Any, until: Optional[float],
              max_events: Optional[int]) -> str:
        """The event loop: fire events until something stops it.

        Returns why it stopped, checking in this order before each
        event:

        * ``"done"`` -- ``done`` has triggered;
        * ``"fatal"`` -- an error is parked in :attr:`fatal`;
        * ``"until"`` -- the next event lies past ``until``, or the
          queue is empty while ``until`` is set (the clock is left
          where the last event put it);
        * ``"budget"`` -- this call has processed ``max_events``
          events (checked before ``"empty"``, so it can be reported
          with an empty queue);
        * ``"empty"`` -- the queue has drained.
        """
        heap = self._heap
        horizon = _INF if until is None else until
        ceiling = (_INF if max_events is None
                   else self.events_processed + max_events)
        dispatch = _DISPATCH
        timer_pool = self._timer_pool
        while done._value is PENDING:
            if self.fatal is not None:
                return "fatal"
            if not heap:
                if until is not None:
                    return "until"
                if self.events_processed >= ceiling:
                    return "budget"
                return "empty"
            if heap[0][0] > horizon:
                return "until"
            if self.events_processed >= ceiling:
                return "budget"
            when, _, ev = heappop(heap)
            self._now = when
            if ev._qk == 0:
                # Inlined _fire_timer: the dominant machine-model event.
                self.events_processed += 1
                if self.trace is not None:
                    self.trace.kernel_event(when, ev)
                ev.fn(ev.arg)
                if len(timer_pool) < _TIMER_POOL_CAP:
                    ev.fn = ev.arg = None
                    timer_pool.append(ev)
            else:
                dispatch[ev._qk](self, when, ev)
        return "done"

    def run(self, until: Optional[float] = None, *,
            max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or the budget.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (the clock is left at
            ``until``).  ``None`` runs to queue exhaustion.
        max_events:
            Per-call safety valve for runaway models; raises
            :class:`SimulationError` when this call has processed that
            many events and more remain.

        Returns
        -------
        float
            The virtual time at which the run stopped.
        """
        reason = self.drive(_NEVER, until, max_events)
        if reason == "fatal":
            raise self.fatal
        if reason == "until":
            if self._heap or until > self._now:
                self._now = until
        elif reason == "budget" and self._heap:
            raise SimulationError(
                f"exceeded max_events={max_events} (possible livelock)")
        return self._now

    def run_until_complete(self, proc: Process, *,
                           max_events: Optional[int] = None) -> Any:
        """Run until ``proc`` finishes; return its value or raise its error.

        ``max_events`` is a per-call budget: the counter is snapshotted
        at entry, so driving several jobs back-to-back on one simulator
        gives each call the full budget rather than charging later calls
        for earlier ones.

        Raises :class:`DeadlockError` if the event queue drains while the
        process is still alive (it is blocked on something that can never
        happen).
        """
        reason = self.drive(proc, None, max_events)
        if reason == "fatal":
            raise self.fatal
        if reason == "budget" and self._heap:
            raise SimulationError(
                f"exceeded max_events={max_events} waiting for"
                f" {proc.name!r}")
        if reason != "done":
            waiting = sorted(p.name for p in self._live_processes)
            raise DeadlockError(
                f"event queue drained but {proc.name!r} never finished;"
                f" live processes: {waiting[:20]}")
        if proc._ok:
            return proc._value
        raise proc._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Simulator t={self._now:.3f}us"
                f" pending={len(self._heap)}"
                f" live={len(self._live_processes)}>")
