"""Struct-of-arrays packet trains: the adapter's bulk TX fast lane.

PR 2's ``fast_trains`` collapsed a deterministic train's *timer
machinery* (one analytic schedule instead of generator round trips per
packet); this module additionally collapses its *per-packet object
work*.  A peeled train interior becomes one :class:`PacketTrain` record
holding parallel ``array``-module columns (seq, size, wire/occupy
times, credit flags) plus the identity column -- the tuple of real
:class:`~repro.machine.packet.Packet` objects, which already exist
because the reliability layer registered them for retransmission.  The
three per-packet pipeline stages (TX-complete -> fabric arrival ->
receive-DMA completion) fire as bound-method kernel callbacks advancing
per-stage cursors into the columns, instead of three generic
callback/closure hops through ``Adapter._tx_complete``,
``Switch.route`` and ``Adapter._enqueue``.

The contract is the same as every fast path in this repo: **kernel
events are neither added, removed, nor moved**.  Each interior packet
still produces exactly three firings at bit-identical instants (the
float accumulations mirror the object path operation-for-operation),
link and receive-DMA occupancy is charged at fire time against the live
watermarks (never precomputed -- cross traffic on shared links must
interleave identically), and the RX FIFO sees the same real ``Packet``
at the same instant.  Real packets are the *identity boundary*: span
tracing, tracing, fault draws, and multipath all need per-packet
identity mid-flight, so the adapter falls back to the object path
whenever any of them is active (see ``Adapter._tx_engine``).

Train records are recycled through a per-cluster
:class:`~repro.machine.pool.TrainPool` (reached as ``sim.pools``), so
the steady state of a bulk transfer allocates nothing per train.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulator
    from .adapter import Adapter, AdapterClient

__all__ = ["PacketTrain"]


class PacketTrain:
    """Columns and stage cursors of one in-flight train interior.

    Built by ``Adapter._schedule_train_soa``; the three stage methods
    are kernel callbacks.  Stage cursors are plain running indices:
    within one train, TX completions fire in schedule order, arrivals
    inherit that order (serial link occupancy produces strictly
    increasing finish times), and so do receive-DMA completions, so no
    per-firing identity lookup is ever needed.
    """

    __slots__ = ("sim", "adapter", "dst_adapter", "pkts", "when",
                 "transfers", "seqs", "sizes", "credits", "n", "links",
                 "fixed_latency", "tx_credits", "rx_dma", "recv_dma",
                 "client", "bytes_total", "_tx_i", "_dma_i", "pooled")

    def __init__(self) -> None:
        # Parallel columns (filled by ``begin``; reused across trains).
        self.when = array("d")        # scheduled TX-complete instants
        self.transfers = array("d")   # per-packet link occupy durations
        self.seqs = array("q")        # transport sequence numbers
        self.sizes = array("q")       # wire sizes in bytes
        self.credits = array("b")     # 1 = TX credit to return
        self.pkts: tuple = ()         # identity column (real Packets)
        self.n = 0
        self.bytes_total = 0
        # Route/destination constants (identical for every packet of a
        # deterministic train -- that is what made it peelable).
        self.sim: Optional["Simulator"] = None
        self.adapter: Optional["Adapter"] = None
        self.dst_adapter: Optional["Adapter"] = None
        self.links: tuple = ()
        self.fixed_latency = 0.0
        self.tx_credits = None
        self.rx_dma = None
        self.recv_dma = 0.0
        self.client: Optional["AdapterClient"] = None
        # Stage cursors.
        self._tx_i = 0
        self._dma_i = 0
        #: True when this record came from (and returns to) a TrainPool.
        self.pooled = False

    # ------------------------------------------------------------------
    def begin(self, adapter: "Adapter", links: tuple, fixed_latency: float,
              dst_adapter: "Adapter", client: "AdapterClient") -> None:
        """Reset cursors and bind the train's per-run constants."""
        self.sim = adapter.sim
        self.adapter = adapter
        self.dst_adapter = dst_adapter
        self.links = links
        self.fixed_latency = fixed_latency
        self.tx_credits = adapter._tx_credits
        self.rx_dma = dst_adapter._rx_dma
        self.recv_dma = dst_adapter.config.adapter_recv_dma
        self.client = client
        del self.when[:]
        del self.transfers[:]
        del self.seqs[:]
        del self.sizes[:]
        del self.credits[:]
        self.pkts = ()
        self.n = 0
        self.bytes_total = 0
        self._tx_i = 0
        self._dma_i = 0

    # ------------------------------------------------------------------
    # stage 1: TX serialization complete (mirrors Adapter._tx_complete
    # + Switch.route fast branch)
    # ------------------------------------------------------------------
    def _tx_step(self, _arg=None) -> None:
        i = self._tx_i
        self._tx_i = i + 1
        sim = self.sim
        now = sim._now
        transfer = self.transfers[i]
        t = now
        for link in self.links:
            t = link.occupy(t, transfer)
        t += self.fixed_latency
        # now + (t - now) mirrors the object path's float round trip.
        delay = t - now
        sim.call_at(now + delay, self._arrive_step, None)
        if self.credits[i]:
            self.tx_credits.post()

    # ------------------------------------------------------------------
    # stage 2: fabric arrival (mirrors Adapter.deliver)
    # ------------------------------------------------------------------
    def _arrive_step(self, _arg=None) -> None:
        sim = self.sim
        now = sim._now
        finish = self.rx_dma.occupy(now, self.recv_dma)
        sim.call_at(now + (finish - now), self._dma_step, None)

    # ------------------------------------------------------------------
    # stage 3: receive-DMA complete (mirrors Adapter._enqueue); the
    # identity boundary -- the real Packet enters the RX FIFO here.
    # ------------------------------------------------------------------
    def _dma_step(self, _arg=None) -> None:
        i = self._dma_i
        self._dma_i = i + 1
        pkt = self.pkts[i]
        client = self.client
        filt = client.delivery_filter
        if filt is None or not filt(pkt):
            if client.rx.put(pkt):
                client._notify_arrival()
        if self._dma_i == self.n:
            self._finish()

    def _finish(self) -> None:
        """Last receive-DMA completion: flush batched counters and
        recycle the record.  Counter totals land exactly where the
        object path would have left them; nothing observes them between
        the interior's first firing and its last."""
        adapter = self.adapter
        n = self.n
        adapter.packets_sent += n
        self.dst_adapter.packets_received += n
        switch = adapter.switch
        switch.packets_routed += n
        switch.bytes_routed += self.bytes_total
        pools = self.sim.pools
        if pools is not None and self.pooled:
            pools.trains.release(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<PacketTrain n={self.n} tx={self._tx_i}"
                f" dma={self._dma_i}>")
