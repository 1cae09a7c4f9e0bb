"""The SP switch adapter (NIC) of one node.

The adapter sits between the node's protocol stacks (LAPI, MPL) and the
switch fabric.  Responsibilities:

* **Transmit**: a DMA engine drains a bounded TX FIFO, pacing packets at
  DMA-setup + wire-serialization + inter-packet-gap rate, then hands each
  to the switch.  The engine is a small state machine, not a process:
  starting a packet schedules one kernel callback at its finish
  instant, which completes it and starts the next queued packet (or
  leaves the engine idle until the next injection).  Stacks obtain FIFO
  credits before injecting, so a saturated adapter back-pressures the
  sending thread (in virtual time).
* **Receive**: arriving packets pass a receive-DMA engine and are
  demultiplexed by protocol into per-client bounded RX FIFOs.  A full RX
  FIFO *drops* the packet, exactly the overload behaviour whose recovery
  the reliability layer's retransmission exists for.
* **Interrupts**: each client chooses interrupt or polling mode.  In
  interrupt mode an arrival notifies the client through ``on_arrival``
  exactly once per burst (interrupts are coalesced while the client has
  not re-armed, mirroring section 5.3.1's observation that back-to-back
  messages avoid extra interrupts).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..errors import NetworkError
from ..sim import Channel, Semaphore
from .routing import SerialResource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulator, Tracer
    from .config import MachineConfig
    from .cpu import Thread
    from .packet import Packet
    from .switch import Switch

__all__ = ["Adapter", "AdapterClient"]


class AdapterClient:
    """One protocol stack's attachment to the adapter.

    Attributes
    ----------
    rx:
        Bounded FIFO of arrived packets awaiting the stack's dispatcher.
    interrupts_enabled:
        When True, ``on_arrival`` fires for packet arrivals (subject to
        coalescing via :meth:`arm_interrupt`).
    on_arrival:
        Callback invoked in simulation context (not on a CPU thread) when
        a packet arrives and the interrupt is armed.  The stack typically
        spawns its interrupt-priority dispatcher thread here.
    """

    def __init__(self, adapter: "Adapter", proto: str) -> None:
        self.adapter = adapter
        self.proto = proto
        self.rx = Channel(adapter.sim, name=f"rx{adapter.node_id}.{proto}",
                          capacity=adapter.config.adapter_rx_fifo,
                          drop_on_overflow=True)
        self.interrupts_enabled = True
        self.on_arrival: Optional[Callable[[], None]] = None
        #: Optional fast-path filter run at delivery time, before the
        #: RX FIFO.  Returns True when it consumed the packet.  Protocol
        #: stacks install their transport-ACK handler here: window
        #: bookkeeping is adapter-assisted and must neither occupy the
        #: FIFO nor raise interrupts.
        self.delivery_filter: Optional[Callable[..., bool]] = None
        self._armed = True

    # -- interrupt coalescing -------------------------------------------
    def arm_interrupt(self) -> None:
        """Re-enable arrival notification (dispatcher has gone idle).

        If packets are already queued, the notification fires
        immediately -- the check-then-arm race is closed on behalf of
        the stack.
        """
        self._armed = True
        if len(self.rx) > 0:
            self._fire()

    def _fire(self) -> None:
        if (self._armed and self.interrupts_enabled
                and self.on_arrival is not None):
            self._armed = False
            self.on_arrival()

    def _notify_arrival(self) -> None:
        self._fire()

    @property
    def pending(self) -> int:
        """Packets waiting in this client's RX FIFO."""
        return len(self.rx)


class Adapter:
    """Switch adapter of one node."""

    def __init__(self, sim: "Simulator", node_id: int,
                 config: "MachineConfig",
                 trace: Optional["Tracer"] = None) -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.trace = trace
        self.switch: Optional["Switch"] = None
        self.clients: dict[str, AdapterClient] = {}
        # TX path: credits bound the FIFO; the DMA engine drains it
        # through kernel callbacks, one per packet.
        self._tx_queue: deque[tuple] = deque()
        self._tx_busy = False
        self._tx_credits = Semaphore(sim, value=config.adapter_tx_fifo,
                                     name=f"txcred{node_id}")
        self._rx_dma = SerialResource(f"rxdma{node_id}")
        #: Optional :class:`repro.faults.FaultRuntime`; set when a fault
        #: schedule is installed on the cluster.  Accounts CRC discards.
        self.faults = None
        #: True while the node is fail-stop dead: every arriving or
        #: queued packet is dropped, nothing is acknowledged, and
        #: injection is refused.  Cleared by :meth:`restart`.
        self.crashed = False
        # Statistics
        self.packets_sent = 0
        self.packets_received = 0
        self.rx_dropped = 0
        #: Packets discarded by the receive-side CRC check (payload
        #: corruption injected by a fault schedule).
        self.rx_crc_dropped = 0
        #: Packets dropped because this node was crashed: arrivals
        #: (and in-flight receive DMA) on the RX side, queued or
        #: serializing packets on the TX side.
        self.rx_crash_dropped = 0
        self.tx_crash_dropped = 0

    # ------------------------------------------------------------------
    def connect(self, switch: "Switch") -> None:
        """Attach this adapter to the fabric."""
        if self.switch is not None:
            raise NetworkError(f"adapter {self.node_id} already connected")
        self.switch = switch
        switch.attach(self)

    def attach_client(self, proto: str) -> AdapterClient:
        """Register a protocol stack; ``proto`` keys demultiplexing."""
        if proto in self.clients:
            raise NetworkError(
                f"protocol {proto!r} already attached at node"
                f" {self.node_id}")
        client = AdapterClient(self, proto)
        self.clients[proto] = client
        client.rx.on_drop = lambda pkt: self._count_drop(pkt)
        return client

    def _count_drop(self, packet: "Packet") -> None:
        self.rx_dropped += 1
        if self.trace is not None and self.trace.wants("rxdrop"):
            self.trace.log(self.sim.now, f"adapter{self.node_id}",
                           "rxdrop", repr(packet),
                           **packet.trace_fields())
        sp = self.sim.spans
        if sp is not None:
            sp.packet_dropped(packet, self.sim.now)

    def metrics(self) -> dict:
        """Counter block for the observability registry (collector).

        ``rx_crc_dropped`` appears only once nonzero (it can only fire
        under an installed fault schedule), keeping fault-free metrics
        blocks byte-identical to historical output.
        """
        out = {
            "packets_sent": self.packets_sent,
            "packets_received": self.packets_received,
            "rx_dropped": self.rx_dropped,
        }
        if self.rx_crc_dropped:
            out["rx_crc_dropped"] = self.rx_crc_dropped
        if self.rx_crash_dropped:
            out["rx_crash_dropped"] = self.rx_crash_dropped
        if self.tx_crash_dropped:
            out["tx_crash_dropped"] = self.tx_crash_dropped
        return out

    # ------------------------------------------------------------------
    # fail-stop crash / restart
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: go dark on both paths.

        Queued TX packets are dropped (their FIFO credits returned so
        the semaphore's accounting survives a later restart), every
        client's RX FIFO is flushed, and the ``crashed`` gates in the
        deliver/enqueue/inject paths drop everything that arrives while
        dead -- including receive-DMA completions already in flight.
        A packet already on the DMA engine is dropped at its completion
        instant (see :meth:`_tx_done`).  The engine runs on kernel
        callbacks, not a process, so :meth:`restart` has nothing to
        respawn before control packets flow again.
        """
        self.crashed = True
        queue = self._tx_queue
        while queue:
            item = queue.popleft()
            self.tx_crash_dropped += 1
            if item[1]:
                self._tx_credits.post()
        for client in self.clients.values():
            while client.rx.try_get()[0]:
                self.rx_crash_dropped += 1
            # The stacks these hooks belong to are dead: no interrupt
            # may spawn a dispatcher on the crashed CPU, and no
            # delivery filter may touch dead transport state.  The
            # resilience runtime re-installs its own responder filter
            # on restart; stack hooks stay dead (fail-stop).
            client.on_arrival = None
            client.delivery_filter = None
            client._armed = True

    def restart(self) -> None:
        """Bring the machine back after a fail-stop crash.

        Machine-level only: the adapter accepts and acknowledges
        traffic again (heartbeat responders run through delivery
        filters, no CPU thread needed), but threads killed by the
        crash stay dead.  Protocol-stack state is cleared by the
        resilience runtime, not here.
        """
        self.crashed = False

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def inject(self, thread: "Thread", packet: "Packet") -> Generator:
        """Hand ``packet`` to the adapter from a CPU thread.

        Blocks the thread (releasing the CPU) while the TX FIFO is full;
        this is the virtual-time backpressure a saturated adapter exerts
        on the communication library.
        """
        if self.switch is None:
            raise NetworkError(f"adapter {self.node_id} not connected")
        packet.validate(self.config.packet_size)
        credit = self._tx_credits.wait()
        if not credit.triggered:
            yield from thread.wait(credit)
        self._tx_submit(packet, True)

    def inject_async(self, packet: "Packet") -> bool:
        """Best-effort injection from non-thread context.

        Returns False if no credit was immediately available; callers
        treat this as a (recoverable) dropped packet.
        """
        if self.switch is None:
            raise NetworkError(f"adapter {self.node_id} not connected")
        packet.validate(self.config.packet_size)
        if self.crashed:
            self.tx_crash_dropped += 1
            return False
        if not self._tx_credits.try_wait():
            return False
        self._tx_submit(packet, True)
        return True

    def inject_control(self, packet: "Packet") -> None:
        """Inject a protocol control packet (ACK, completion, RMW reply).

        Control packets use reserved adapter slots and never fail or
        block: this is what lets a protocol dispatcher always respond to
        traffic without taking a lock on the data path (deadlock
        freedom).  They still serialize through the TX engine, so they
        consume wire bandwidth like any other packet.
        """
        if self.switch is None:
            raise NetworkError(f"adapter {self.node_id} not connected")
        packet.validate(self.config.packet_size)
        if self.crashed:  # dead nodes do not acknowledge
            self.tx_crash_dropped += 1
            return
        self._tx_submit(packet, False)

    def _tx_submit(self, packet: "Packet", took_credit: bool) -> None:
        """Queue ``packet`` for the DMA engine, starting it if idle."""
        item = (packet, took_credit)
        if self._tx_busy:
            self._tx_queue.append(item)
        else:
            self._tx_busy = True
            self._tx_start(item)
        sp = self.sim.spans
        if sp is not None:
            sp.packet_submitted(packet, self.sim.now)

    def _tx_start(self, item: tuple) -> None:
        """Put a packet on the DMA engine: one callback at its finish.

        The finish instant is DMA setup, then wire serialization plus
        the inter-packet gap, summed in that order from ``now``: float
        addition is not associative, and the pinned TX-complete
        instants depend on this order.
        """
        cfg = self.config
        sim = self.sim
        sim.call_at((sim._now + cfg.adapter_send_dma)
                    + (item[0].size / cfg.link_bandwidth + cfg.packet_gap),
                    self._tx_done, item)

    def _tx_done(self, item: tuple) -> None:
        """A packet's serialization-complete instant: hand it to the
        switch, return its credit, then start the next queued packet
        or leave the engine idle."""
        packet, took_credit = item
        if self.crashed:
            # The node died while this packet was on the DMA engine:
            # it never reaches the wire.
            self.tx_crash_dropped += 1
        else:
            self.packets_sent += 1
            if self.trace is not None and self.trace.wants("tx"):
                self.trace.log(self.sim.now, f"adapter{self.node_id}",
                               "tx", repr(packet),
                               **packet.trace_fields())
            sp = self.sim.spans
            if sp is not None:
                sp.packet_tx_done(packet, self.sim.now)
            self.switch.route(packet)
        if took_credit:
            self._tx_credits.post()
        queue = self._tx_queue
        if queue:
            self._tx_start(queue.popleft())
        else:
            self._tx_busy = False

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------
    def deliver(self, packet: "Packet") -> None:
        """Called by the switch when a packet arrives at this node."""
        if self.crashed:
            self._crash_drop_rx(packet)
            return
        now = self.sim.now
        sp = self.sim.spans
        if sp is not None:
            sp.packet_delivered(packet, now)
        finish = self._rx_dma.occupy(now, self.config.adapter_recv_dma)
        # Bare-callback completion (no Timeout/name/closure); the
        # now + (finish - now) form matches the Timeout it replaced so
        # completion times stay bit-identical.
        self.sim.call_at(now + (finish - now), self._enqueue, packet)

    def deliver_corrupt(self, packet: "Packet") -> None:
        """A packet that arrived with its payload corrupted in flight.

        It consumed wire bandwidth and receive-DMA like any arrival but
        fails the CRC check at DMA completion and is discarded before
        demultiplexing -- the reliability layer's retransmission
        recovers it, exactly as for a fabric drop, except the waste is
        maximal (the whole wire path was paid for nothing).
        """
        if self.crashed:
            self._crash_drop_rx(packet)
            return
        now = self.sim.now
        sp = self.sim.spans
        if sp is not None:
            sp.packet_delivered(packet, now)
        finish = self._rx_dma.occupy(now, self.config.adapter_recv_dma)
        self.sim.call_at(now + (finish - now), self._discard_corrupt,
                         packet)

    def _discard_corrupt(self, packet: "Packet") -> None:
        """CRC check failed at receive-DMA completion: drop the packet."""
        self.rx_crc_dropped += 1
        if self.faults is not None:
            self.faults.record_crc(packet, self.sim.now)
        if self.trace is not None and self.trace.wants("rxdrop"):
            self.trace.log(self.sim.now, f"adapter{self.node_id}",
                           "rxdrop", f"{packet!r} [crc]", crc=True,
                           **packet.trace_fields())
        sp = self.sim.spans
        if sp is not None:
            sp.packet_corrupted(packet, self.sim.now)

    def _crash_drop_rx(self, packet: "Packet") -> None:
        """Drop an arrival (or in-flight receive DMA) on a dead node."""
        self.rx_crash_dropped += 1
        if self.trace is not None and self.trace.wants("rxdrop"):
            self.trace.log(self.sim.now, f"adapter{self.node_id}",
                           "rxdrop", f"{packet!r} [crashed]",
                           crashed=True, **packet.trace_fields())
        sp = self.sim.spans
        if sp is not None:
            sp.packet_dropped(packet, self.sim.now)

    def _enqueue(self, packet: "Packet") -> None:
        if self.crashed:
            # Receive DMA was in flight when the node died.
            self._crash_drop_rx(packet)
            return
        client = self.clients.get(packet.proto)
        if client is None:
            raise NetworkError(
                f"node {self.node_id}: packet for unattached protocol"
                f" {packet.proto!r}")
        self.packets_received += 1
        if self.trace is not None and self.trace.wants("rx"):
            self.trace.log(self.sim.now, f"adapter{self.node_id}",
                           "rx", repr(packet), **packet.trace_fields())
        sp = self.sim.spans
        if sp is not None:
            sp.packet_enqueued(packet, self.sim.now)
        if (client.delivery_filter is not None
                and client.delivery_filter(packet)):
            return
        if client.rx.put(packet):
            client._notify_arrival()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Adapter node={self.node_id} sent={self.packets_sent}"
                f" recv={self.packets_received} dropped={self.rx_dropped}>")
