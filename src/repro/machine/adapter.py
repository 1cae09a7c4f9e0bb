"""The SP switch adapter (NIC) of one node.

The adapter sits between the node's protocol stacks (LAPI, MPL) and the
switch fabric.  Responsibilities:

* **Transmit**: a DMA engine drains a bounded TX FIFO, pacing packets at
  DMA-setup + wire-serialization + inter-packet-gap rate, then hands each
  to the switch.  Stacks obtain FIFO credits before injecting, so a
  saturated adapter back-pressures the sending thread (in virtual time).
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
        # TX path: credits bound the FIFO; a sim process drains it.
        self._tx_queue = Channel(sim, name=f"tx{node_id}")
        self._tx_credits = Semaphore(sim, value=config.adapter_tx_fifo,
                                     name=f"txcred{node_id}")
        self._rx_dma = SerialResource(f"rxdma{node_id}")
        sim.process(self._tx_engine(), name=f"adapter{node_id}.tx")
        #: Optional :class:`repro.faults.FaultRuntime`; set when a fault
        #: schedule is installed on the cluster.  Disables the analytic
        #: train fast path and accounts CRC discards.
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
        #: Fast-path diagnostics (kept out of :meth:`metrics` so the
        #: observability snapshot is independent of ``fast_trains``):
        #: trains collapsed by the TX engine and interior packets they
        #: carried.
        self.trains_collapsed = 0
        self.train_packets = 0

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
        The TX engine process stays parked on its empty queue, which is
        what lets :meth:`restart` resume control-packet service without
        respawning anything.
        """
        self.crashed = True
        while True:
            ok, item = self._tx_queue.try_get()
            if not ok:
                break
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
        self._tx_queue.put((packet, True))
        sp = self.sim.spans
        if sp is not None:
            sp.packet_submitted(packet, self.sim.now)

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
        self._tx_queue.put((packet, True))
        sp = self.sim.spans
        if sp is not None:
            sp.packet_submitted(packet, self.sim.now)
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
        self._tx_queue.put((packet, False))
        sp = self.sim.spans
        if sp is not None:
            sp.packet_submitted(packet, self.sim.now)

    def _tx_engine(self) -> Generator:
        """DMA engine: serializes packets onto the injection link.

        Each packet pays DMA setup plus wire serialization plus the
        inter-packet gap, strictly in FIFO order.  When the FIFO holds
        the interior of a contiguous packet train whose timing is
        provably deterministic (see :meth:`_peel_train`), the engine
        serializes that interior analytically: the whole per-packet
        schedule is computed in one pass and posted as bare kernel
        callbacks, then the engine sleeps to the end of the interior.
        Virtual times are bit-identical to the packet-by-packet path;
        only the host-level event machinery is cheaper.
        """
        cfg = self.config
        sim = self.sim
        while True:
            packet, took_credit = yield self._tx_queue.get()
            # Bare-float yields: pooled kernel sleeps, no Timeout
            # allocation per packet, identical timing.
            yield cfg.adapter_send_dma
            yield (packet.size / cfg.link_bandwidth
                   + cfg.packet_gap)
            self._tx_complete(packet, took_credit)
            interior = self._peel_train(packet)
            if interior:
                end = self._schedule_train(interior)
                # The train's last packet stays in the FIFO and goes
                # through the normal path, so message boundaries (final
                # delivery, counters, interrupt re-arm) are produced by
                # exactly the same code as without the fast path.
                yield sim.timeout_at(end)

    def _tx_complete(self, packet: "Packet", took_credit: bool) -> None:
        """TX bookkeeping at a packet's serialization-complete instant."""
        if self.crashed:
            # The node died while this packet was on the DMA engine:
            # it never reaches the wire.
            self.tx_crash_dropped += 1
            if took_credit:
                self._tx_credits.post()
            return
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

    def _tx_train_step(self, item: tuple) -> None:
        """One interior train packet completes TX (kernel callback)."""
        self._tx_complete(item[0], item[1])

    def _peel_train(self, head: "Packet") -> Optional[list]:
        """Pop the interior of a deterministic packet train off the FIFO.

        A train is a FIFO prefix of packets that continue ``head``: same
        protocol/kind/destination, same message, contiguous offsets.
        The interior (everything but the train's last packet, which is
        left queued) may be serialized analytically only when nothing
        can perturb per-packet timing:

        * ``fast_trains`` enabled (``MachineConfig``),
        * no fabric loss (a loss draw would consume RNG per packet),
        * a single candidate route (multipath picks routes randomly),
        * no route jitter on that route,
        * contiguous same-message data packets (vector/scattered
          transfers fall back to packet-by-packet).

        Returns the popped ``(packet, took_credit)`` interior items, or
        ``None`` when the fast path must not engage.
        """
        cfg = self.config
        if (not cfg.fast_trains or cfg.loss_rate > 0.0
                or self.faults is not None):
            return None
        hinfo = head.info
        msg_key = hinfo.get("msg_id", hinfo.get("msg_seq"))
        if msg_key is None or "offset" not in hinfo or not head.payload:
            return None
        tmpl = self.switch.template(self.node_id, head.dst)
        if len(tmpl.middles) != 1:
            return None
        if tmpl.crosses_core and cfg.route_jitter > 0.0:
            return None
        run = []
        prev = head
        for item in self._tx_queue.iter_items():
            pkt = item[0]
            if (pkt.dst != head.dst or pkt.proto != head.proto
                    or pkt.kind != head.kind or not pkt.payload):
                break
            pinfo = pkt.info
            if (pinfo.get("msg_id", pinfo.get("msg_seq")) != msg_key
                    or pinfo.get("offset") !=
                    prev.info["offset"] + len(prev.payload)):
                break
            run.append(item)
            prev = pkt
        if len(run) < 2:
            return None
        interior = run[:-1]
        for _ in interior:
            self._tx_queue.try_get()
        return interior

    def _schedule_train(self, interior: list) -> float:
        """Post the interior's per-packet TX completions; returns the
        virtual time at which the interior has fully serialized.

        The accumulation mirrors the two timeouts of the normal path
        operation-for-operation so every completion lands on the same
        float the packet-by-packet engine would produce.
        """
        cfg = self.config
        sim = self.sim
        dma = cfg.adapter_send_dma
        bw = cfg.link_bandwidth
        gap = cfg.packet_gap
        t = sim.now
        for item in interior:
            t = t + dma
            t = t + (item[0].size / bw + gap)
            sim.call_at(t, self._tx_train_step, item)
        self.trains_collapsed += 1
        self.train_packets += len(interior)
        return t

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
