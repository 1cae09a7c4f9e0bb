"""FIFO message channels in simulated time.

:class:`Channel` is the glue between asynchronous producers and consumers
inside the machine model -- e.g. the adapter's receive FIFO feeding the
LAPI dispatcher.  A channel may be bounded; a bounded channel can be
configured to *drop* on overflow (how a real adapter FIFO behaves,
exercising the retransmission path) or to back-pressure the producer.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import SimulationError
from .events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Simulator

__all__ = ["Channel"]


class Channel:
    """A FIFO queue whose ``get`` blocks in virtual time.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Maximum queued items; ``None`` means unbounded.
    drop_on_overflow:
        When True, ``put`` on a full channel discards the item and calls
        ``on_drop`` (if set) instead of raising.
    """

    def __init__(self, sim: "Simulator", name: str = "chan",
                 capacity: Optional[int] = None,
                 drop_on_overflow: bool = False) -> None:
        if capacity is not None and capacity <= 0:
            raise SimulationError("channel capacity must be positive")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.drop_on_overflow = drop_on_overflow
        #: Callback invoked with the dropped item on overflow.
        self.on_drop: Optional[Callable[[Any], None]] = None
        #: Callback invoked with each successfully enqueued item.
        self.on_put: Optional[Callable[[Any], None]] = None
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.dropped: int = 0
        self.total_put: int = 0
        # Formatted once: get() runs per packet on the hot path.
        self._get_name = f"get:{name}"

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def empty(self) -> bool:
        return not self._items

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    # ------------------------------------------------------------------
    def put(self, item: Any) -> bool:
        """Enqueue ``item``; returns False if it was dropped.

        If a consumer is blocked in :meth:`get`, the item is handed to it
        directly (the queue never holds items while getters wait).
        """
        if self._getters:
            getter = self._getters.popleft()
            self.total_put += 1
            if self.on_put is not None:
                self.on_put(item)
            getter.succeed(item)
            return True
        if self.full:
            if self.drop_on_overflow:
                self.dropped += 1
                if self.on_drop is not None:
                    self.on_drop(item)
                return False
            raise SimulationError(
                f"channel {self.name!r} overflow (capacity={self.capacity})")
        self._items.append(item)
        self.total_put += 1
        if self.on_put is not None:
            self.on_put(item)
        return True

    def get(self) -> Event:
        """Return an event that fires with the next item.

        With items already queued the get completes synchronously (the
        returned event is already processed and a process yielding it
        continues inline; see :meth:`repro.sim.events.Event.completed`).
        """
        if self._items:
            return Event.completed(self.sim, self._items.popleft(),
                                   name=self._get_name)
        ev = Event(self.sim, name=self._get_name)
        self._getters.append(ev)
        return ev

    def cancel_get(self, getter: Event) -> None:
        """Withdraw a pending :meth:`get` (e.g. a timed-out wait).

        Without cancellation an abandoned getter would silently steal
        the next item.  Cancelling a getter that already received an
        item is an error.
        """
        if getter.triggered:
            raise SimulationError(
                f"cannot cancel a satisfied get on {self.name!r}")
        try:
            self._getters.remove(getter)
        except ValueError:
            raise SimulationError(
                f"get event not pending on channel {self.name!r}")

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None

    def peek(self) -> Any:
        """Return the head item without removing it."""
        if not self._items:
            raise SimulationError(f"peek on empty channel {self.name!r}")
        return self._items[0]

    def drain(self) -> list[Any]:
        """Remove and return all queued items."""
        items = list(self._items)
        self._items.clear()
        return items

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Channel {self.name} {len(self._items)} queued,"
                f" {len(self._getters)} waiting>")
