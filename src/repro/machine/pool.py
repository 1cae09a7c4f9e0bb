"""Free-list pools for hot-path model objects.

The steady state of a busy cluster allocates one :class:`Packet` per
wire packet plus one per acknowledgement, and the acknowledgement's
lifecycle is short and single-owner: built by the reliability layer at
the receiver, consumed by the transport-ACK fast path at the sender,
then garbage.  :class:`PacketPool` recycles those objects through an
explicit free list with **reset-on-acquire**: every mutable field --
addressing, kind, payload, ``seq``, the ``info`` dict, and crucially the
``uid`` -- is reinitialised before the object is handed out.

The uid is *redrawn from the per-cluster id stream* on every acquire
(:func:`repro.machine.packet.next_packet_id`), which gives two
guarantees at once:

* uid streams are byte-identical with pooling on or off (each acquire
  corresponds 1:1 to the construction the unpooled path would have
  performed), so traces, span streams, and ``--jobs N`` merges are
  unaffected;
* uid-keyed side tables (the span recorder's per-packet tracks) can
  never alias a recycled packet to a stale entry -- a fresh uid has, by
  construction, never been seen by any table.

Pools are **per cluster** (owned by the cluster, reachable as
``sim.pools``), never process-global, so ``--jobs N`` workers keep the
determinism contract: a worker's pool state is a function of its own
cluster's history only.

Pool occupancy/leak counters are exported through ``repro.obs``
(:func:`repro.obs.pool_stats`) and stamped into ``BENCH_PERF.json``
``pools`` metadata by the perf harness.  They are deliberately *not*
part of the default ``--metrics`` blocks: hit counts differ between
fast-lane-on and fast-lane-off runs of the same scenario, and the
equivalence contract requires those blocks byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .packet import Packet, next_packet_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = ["PacketPool", "HotPools"]

#: Free-list bound: enough to absorb a cluster's steady state (one ack
#: in flight per window slot per peer) without pinning burst memory.
_PACKET_POOL_CAP = 2048


class PacketPool:
    """Recycles :class:`Packet` objects through a bounded free list."""

    __slots__ = ("_free", "cap", "acquires", "hits", "releases")

    def __init__(self, cap: int = _PACKET_POOL_CAP) -> None:
        self._free: list[Packet] = []
        self.cap = cap
        #: Total acquires served (hits + fresh constructions).
        self.acquires = 0
        #: Acquires served from the free list.
        self.hits = 0
        #: Packets returned to the pool (capped appends count too).
        self.releases = 0

    def acquire(self, src: int, dst: int, proto: str, kind: str,
                header_bytes: int, payload: bytes = b"") -> Packet:
        """A reset packet with a fresh uid and an empty ``info`` dict.

        Reset covers *every* mutable field: a recycled packet carries
        nothing of its previous life -- no stale ``seq``, no leftover
        ``info`` keys, and never a previously-seen uid (so uid-keyed
        span bindings cannot alias a stale parent).
        """
        self.acquires += 1
        free = self._free
        if free:
            self.hits += 1
            pkt = free.pop()
            pkt.src = src
            pkt.dst = dst
            pkt.proto = proto
            pkt.kind = kind
            pkt.header_bytes = header_bytes
            pkt.payload = payload
            pkt.seq = -1
            pkt.info.clear()
            pkt.uid = next_packet_id()
            pkt.size = header_bytes + len(payload)
            return pkt
        pkt = Packet(src=src, dst=dst, proto=proto, kind=kind,
                     header_bytes=header_bytes, payload=payload)
        pkt.pooled = True
        return pkt

    def release(self, pkt: Packet) -> None:
        """Return a pool-owned packet to the free list.

        Only packets acquired from a pool are accepted (``pkt.pooled``);
        foreign packets -- test fixtures, protocol-constructed data
        packets whose lifetime the transport still owns -- are ignored,
        so a release at a consumption point is always safe to call.
        """
        if not pkt.pooled:
            return
        self.releases += 1
        free = self._free
        if len(free) < self.cap:
            free.append(pkt)

    @property
    def outstanding(self) -> int:
        """Acquired-but-unreleased packets (leak/occupancy gauge).

        Nonzero at quiesce means acquired packets left the release path
        -- e.g. acknowledgements lost by a faulty fabric, which are
        collected by the host GC but never return to the free list.
        """
        return self.acquires - self.releases

    def stats(self) -> dict:
        """Snapshot for BENCH_PERF ``pools`` metadata."""
        return {
            "acquires": self.acquires,
            "hits": self.hits,
            "hit_rate": round(self.hits / self.acquires, 4)
            if self.acquires else 0.0,
            "releases": self.releases,
            "outstanding": self.outstanding,
            "free": len(self._free),
        }


class HotPools:
    """All per-cluster hot-path pools, reachable as ``sim.pools``.

    Currently: the shared :class:`PacketPool` of transport
    acknowledgements.  The kernel's fast-timer free list and the span
    recorder's track free list live with their owners but report
    through the same :func:`repro.obs.pool_stats` snapshot.
    """

    __slots__ = ("packets",)

    def __init__(self) -> None:
        self.packets = PacketPool()

    def stats(self) -> dict:
        return {"packets": self.packets.stats()}
