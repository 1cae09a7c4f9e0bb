"""The SP switch: routes packets between adapters.

The switch owns the :class:`~repro.machine.routing.Topology`, selects a
route per packet (randomly among the disjoint middle-stage routes for
cross-group traffic -- the source of out-of-order delivery), charges link
occupancy along the route, injects optional jitter and loss, and hands
the packet to the destination adapter at its computed arrival time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from heapq import nlargest
from operator import itemgetter

from ..errors import NetworkError
from .routing import RouteTemplate, build_topology

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import RngRegistry, Simulator, Tracer
    from .adapter import Adapter
    from .config import MachineConfig
    from .packet import Packet

__all__ = ["Switch"]


class Switch:
    """Multistage packet switch connecting all node adapters."""

    def __init__(self, sim: "Simulator", nnodes: int,
                 config: "MachineConfig", rng: "RngRegistry",
                 trace: Optional["Tracer"] = None) -> None:
        self.sim = sim
        self.config = config
        self.topology = topo = build_topology(nnodes, config)
        self._up = topo.up
        self._down = topo.down
        #: Edge switch of every node, so the per-packet template key
        #: is two list reads.
        self._edge = [topo.edge_of(n) for n in range(nnodes)]
        #: ``(edge_src, edge_dst) -> RouteTemplate``, filled lazily:
        #: bounded by edge-switch pairs, never node pairs.
        self.templates: dict[tuple[int, int], RouteTemplate] = {}
        self._adapters: list[Optional["Adapter"]] = [None] * nnodes
        self._route_rng = rng.stream("switch.route")
        self._loss_rng = rng.stream("switch.loss")
        self.trace = trace
        #: Optional :class:`repro.faults.FaultRuntime` consulted per
        #: routed packet.  None (the default) keeps the hot path at a
        #: single attribute test.
        self.faults = None
        #: When set, :meth:`metrics` emits only the ``top_links``
        #: busiest per-link utilization gauges instead of all of them
        #: (None, the default, keeps the full historical block).  Large
        #: clusters set this so a metrics snapshot stays O(top_links)
        #: instead of O(links).
        self.metrics_top_links: Optional[int] = None
        # Statistics
        self.packets_routed = 0
        self.packets_lost = 0
        self.bytes_routed = 0

    # ------------------------------------------------------------------
    def attach(self, adapter: "Adapter") -> None:
        """Register ``adapter`` at its node's port."""
        nid = adapter.node_id
        if not (0 <= nid < len(self._adapters)):
            raise NetworkError(f"node id {nid} outside switch")
        if self._adapters[nid] is not None:
            raise NetworkError(f"node {nid} already attached")
        self._adapters[nid] = adapter

    def template(self, src: int, dst: int) -> RouteTemplate:
        """Route template for a node pair, built on first use of its
        edge-switch pair."""
        key = (self._edge[src], self._edge[dst])
        tmpl = self.templates.get(key)
        if tmpl is None:
            tmpl = self.templates[key] = self.topology.template(
                key[0], key[1], self.config)
        return tmpl

    def route(self, packet: "Packet") -> None:
        """Send ``packet`` through the fabric (called at injection time).

        Link occupancy is charged immediately along the chosen route
        (cut-through with implicit FIFO queueing per link); delivery to
        the destination adapter is scheduled at the computed arrival
        time.  Lost packets simply never arrive -- recovering them is the
        reliability layer's job.

        Wire-format validation happens once, at adapter injection
        (``inject`` / ``inject_async`` / ``inject_control``); the switch
        trusts what the adapters hand it.
        """
        dst = packet.dst
        dst_adapter = self._adapters[dst]
        if dst_adapter is None:
            raise NetworkError(f"packet to unattached node {dst}")

        cfg = self.config
        if cfg.loss_rate > 0.0 and self._loss_rng.random() < cfg.loss_rate:
            self.packets_lost += 1
            if self.trace is not None and self.trace.wants("loss"):
                self.trace.log(self.sim.now, "switch", "loss",
                               repr(packet), **packet.trace_fields())
            sp = self.sim.spans
            if sp is not None:
                sp.packet_lost(packet, self.sim.now)
            return

        corrupt = False
        if self.faults is not None:
            verdict = self.faults.judge(packet, self.sim.now)
            if verdict == "corrupt":
                # Corrupted packets traverse the whole wire (consuming
                # link occupancy below) and die at the destination
                # adapter's CRC check -- the worst-case waste mode.
                corrupt = True
            elif verdict is not None:
                self.packets_lost += 1
                self.faults.record_drop(verdict, packet, self.sim.now)
                if self.trace is not None and self.trace.wants("loss"):
                    self.trace.log(self.sim.now, "switch", "loss",
                                   f"{packet!r} [{verdict}]",
                                   fault=verdict,
                                   **packet.trace_fields())
                sp = self.sim.spans
                if sp is not None:
                    sp.packet_lost(packet, self.sim.now)
                return

        src = packet.src
        middles, fixed_latency, crosses_core = self.template(src, dst)
        if len(middles) == 1:
            # Single route: no RNG draw.
            middle = middles[0]
        else:
            middle = middles[int(self._route_rng.integers(
                0, len(middles)))]

        transfer = packet.size / cfg.link_bandwidth
        sim = self.sim
        now = sim._now
        t = self._up[src].occupy(now, transfer)
        for link in middle:
            t = link.occupy(t, transfer)
        t = self._down[dst].occupy(t, transfer)
        t += fixed_latency
        if crosses_core and cfg.route_jitter > 0.0:
            t += float(self._route_rng.random()) * cfg.route_jitter

        self.packets_routed += 1
        self.bytes_routed += packet.size
        if self.trace is not None and self.trace.wants("route"):
            self.trace.log(now, "switch", "route",
                           f"{packet!r} arrives t={t:.3f}",
                           arrival_us=round(t, 6),
                           **packet.trace_fields())
        # Bare-callback delivery: no Timeout, no name, no closure.  The
        # now + (t - now) round trip mirrors the Timeout it replaced so
        # delivery times stay bit-identical to the historical path.
        delay = t - now
        deliver = (dst_adapter.deliver_corrupt if corrupt
                   else dst_adapter.deliver)
        sim.call_at(now + delay, deliver, packet)

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Counter block for the observability registry (collector).

        Includes per-link utilization gauges (``util.<link>``), the
        fabric-level view Figures 2-4 ultimately derive from.  With
        :attr:`metrics_top_links` set, only the busiest ``k`` links are
        emitted (sorted by name within the sample so the block stays
        deterministic); the default emits every link, byte-identical to
        the historical output.
        """
        out = {
            "packets_routed": self.packets_routed,
            "packets_lost": self.packets_lost,
            "bytes_routed": self.bytes_routed,
        }
        k = self.metrics_top_links
        if k is None:
            for name, util in sorted(self.link_utilization().items()):
                out[f"util.{name}"] = round(util, 6)
        else:
            for name, util in sorted(self.busiest_links(k)):
                out[f"util.{name}"] = round(util, 6)
        return out

    # ------------------------------------------------------------------
    def link_utilization(self, horizon: Optional[float] = None) -> dict:
        """Utilization snapshot of every link (diagnostics)."""
        h = horizon if horizon is not None else self.sim.now
        return {ln.name: ln.utilization(h)
                for ln in self.topology.iter_links()}

    def busiest_links(self, k: int,
                      horizon: Optional[float] = None
                      ) -> list[tuple[str, float]]:
        """The ``k`` busiest links as ``(name, utilization)`` pairs.

        Streams over the links (O(links) time, O(k) extra space --
        never materializes the full utilization dict) and matches a
        descending stable sort of the full snapshot exactly:
        ``heapq.nlargest`` keeps earlier-yielded links ahead on ties,
        as the stable sort does.
        """
        h = horizon if horizon is not None else self.sim.now
        return nlargest(k, ((ln.name, ln.utilization(h))
                            for ln in self.topology.iter_links()),
                        key=itemgetter(1))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Switch nodes={len(self._adapters)}"
                f" routed={self.packets_routed} lost={self.packets_lost}>")
