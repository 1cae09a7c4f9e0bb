"""Link occupancy and path construction for the SP switch fabric.

The switch is cut-through: a packet's head moves hop to hop with a small
per-hop latency while each traversed link stays busy for the packet's
serialization time.  :class:`SerialResource` captures exactly that with
O(1) bookkeeping -- a ``busy_until`` watermark -- instead of a simulation
process per link, which keeps multi-megabyte transfers (thousands of
packets) cheap to simulate.

Topology
--------
The model follows the SP switch structurally: nodes attach in groups to
an *edge* switch; edge switches interconnect through ``mid_count``
independent *middle* switches.  Traffic within a group crosses only its
edge switch (single path, therefore in-order); traffic between groups
picks one of ``mid_count`` disjoint routes per packet, which is what
makes concurrent multi-packet messages arrive out of order -- the
property LAPI's two-part handlers exist to tolerate (section 2.1).

Beyond the paper's machine, two further fabrics let the ``--scale``
bench push the same protocol stacks to 512-4096 nodes on network
shapes a larger SP successor might have used:

* :class:`FatTreeTopology` -- a three-tier leaf/aggregation/core fat
  tree with ECMP-style multipath at both the pod and core stages;
* :class:`DragonflyTopology` -- groups of routers, all-to-all local
  links inside a group and one global link per ordered group pair,
  minimally routed.

Every fabric describes its route shapes once, per pair of *edge*
switches (SP group, fat-tree leaf, dragonfly router): ``edge_of(node)``
names a node's edge switch and ``template(edge_src, edge_dst, config)``
returns a :class:`RouteTemplate` -- the candidates' middle links plus
the latency and core flag they share.  A route is ``up[src]``, one
candidate's middle links, ``down[dst]``; :meth:`_Fabric.routes` splices
those into :class:`Route` objects, and
:class:`repro.machine.switch.Switch` occupies them directly per packet.
:func:`build_topology` dispatches on ``MachineConfig.topology``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple, Optional

from ..errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import MachineConfig

__all__ = ["SerialResource", "Route", "RouteTemplate", "Topology",
           "FatTreeTopology", "DragonflyTopology", "build_topology",
           "TOPOLOGIES"]


class SerialResource:
    """A FIFO resource serving one item at a time (a link, a DMA engine).

    :meth:`occupy` returns the completion time of a request arriving at
    ``now`` needing ``duration`` of service; requests queue implicitly by
    pushing the ``busy_until`` watermark.
    """

    __slots__ = ("name", "busy_until", "total_busy", "served")

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy_until = 0.0
        #: Aggregate service time, for utilization accounting.
        self.total_busy = 0.0
        self.served = 0

    def occupy(self, now: float, duration: float) -> float:
        """Reserve the resource; returns when service completes."""
        if duration < 0:
            raise NetworkError(f"negative service time on {self.name}")
        start = now if now > self.busy_until else self.busy_until
        finish = start + duration
        self.busy_until = finish
        self.total_busy += duration
        self.served += 1
        return finish

    def utilization(self, horizon: float) -> float:
        """Fraction of ``[0, horizon]`` this resource was busy.

        Service already charged past the horizon (``busy_until`` beyond
        it -- the backlog is contiguous and ends there) has not elapsed
        yet and must not count against ``[0, horizon]``; without the
        subtraction the over-report would hide behind the 1.0 clamp.
        """
        if horizon <= 0:
            return 0.0
        elapsed_busy = self.total_busy
        if self.busy_until > horizon:
            elapsed_busy -= self.busy_until - horizon
        if elapsed_busy <= 0.0:
            return 0.0
        return min(1.0, elapsed_busy / horizon)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<SerialResource {self.name} busy_until={self.busy_until:.3f}>"


@dataclass(frozen=True)
class Route:
    """An ordered list of links a packet traverses, plus fixed latency."""

    links: tuple[SerialResource, ...]
    #: Sum of per-hop and wire latencies along the route.
    fixed_latency: float
    #: True if the route crosses the middle stage (eligible for jitter).
    crosses_core: bool


class RouteTemplate(NamedTuple):
    """The routes between two edge switches, minus the endpoint links.

    Every node pair behind the same pair of edge switches shares one
    template; a route is ``up[src] + middles[i] + down[dst]``.
    """

    #: Middle links of each candidate, in candidate order (``()`` for
    #: the single route through one edge switch).
    middles: tuple[tuple[SerialResource, ...], ...]
    fixed_latency: float
    crosses_core: bool


class _Fabric:
    """What every fabric derives from ``nnodes``, its ``up``/``down``
    links, ``edge_of(node)`` and ``template(es, ed, config)``."""

    @property
    def nedges(self) -> int:
        """Number of edge switches (edge ids are ``0..nedges-1``)."""
        return self.edge_of(self.nnodes - 1) + 1

    def routes(self, src: int, dst: int,
               config: "MachineConfig") -> list[Route]:
        """All candidate routes from ``src`` to ``dst``, in draw order."""
        if src == dst:
            raise NetworkError("no route from a node to itself")
        # edge_of rejects nodes outside the topology.
        tmpl = self.template(self.edge_of(src), self.edge_of(dst), config)
        up, down = self.up[src], self.down[dst]
        return [Route(links=(up,) + middle + (down,),
                      fixed_latency=tmpl.fixed_latency,
                      crosses_core=tmpl.crosses_core)
                for middle in tmpl.middles]


@dataclass
class Topology(_Fabric):
    """Edge/middle switch topology for ``nnodes`` nodes.

    Attributes
    ----------
    up, down:
        Per-node injection (node to edge switch) and delivery (edge
        switch to node) links.
    edge_to_mid, mid_to_edge:
        ``[edge][mid]`` link matrices for the core stage.
    """

    nnodes: int
    group_size: int
    mid_count: int
    up: list[SerialResource] = field(default_factory=list)
    down: list[SerialResource] = field(default_factory=list)
    edge_to_mid: list[list[SerialResource]] = field(default_factory=list)
    mid_to_edge: list[list[SerialResource]] = field(default_factory=list)

    @classmethod
    def build(cls, nnodes: int, config: "MachineConfig") -> "Topology":
        """Construct the link graph for ``nnodes`` nodes."""
        if nnodes < 1:
            raise NetworkError("topology needs at least one node")
        topo = cls(nnodes=nnodes, group_size=config.switch_group_size,
                   mid_count=config.switch_mid_count)
        ngroups = (nnodes + topo.group_size - 1) // topo.group_size
        for n in range(nnodes):
            topo.up.append(SerialResource(f"up{n}"))
            topo.down.append(SerialResource(f"down{n}"))
        for e in range(ngroups):
            topo.edge_to_mid.append(
                [SerialResource(f"e{e}m{m}") for m in range(topo.mid_count)])
            topo.mid_to_edge.append(
                [SerialResource(f"m{m}e{e}") for m in range(topo.mid_count)])
        return topo

    @property
    def ngroups(self) -> int:
        return len(self.edge_to_mid)

    def iter_links(self):
        """Yield every link once, in a fixed deterministic order.

        The order (injection/delivery links first, then the core
        matrices) matches the historical ``Switch.link_utilization``
        walk, so utilization snapshots keep their tie-break order.
        """
        yield from self.up
        yield from self.down
        for row in self.edge_to_mid:
            yield from row
        for row in self.mid_to_edge:
            yield from row

    def group_of(self, node: int) -> int:
        """Edge switch a node attaches to."""
        if not (0 <= node < self.nnodes):
            raise NetworkError(f"node {node} outside topology")
        return node // self.group_size

    edge_of = group_of

    def template(self, gs: int, gd: int,
                 config: "MachineConfig") -> RouteTemplate:
        """Routes between edge switches ``gs`` and ``gd``.

        Same-group pairs have a single route through their edge switch;
        cross-group pairs have ``mid_count`` disjoint routes.
        """
        wire2 = 2 * config.wire_latency
        if gs == gd:
            # node -> edge switch -> node: one switch traversal.
            return RouteTemplate(((),), wire2 + config.hop_latency, False)
        return RouteTemplate(
            tuple((self.edge_to_mid[gs][m], self.mid_to_edge[gd][m])
                  for m in range(self.mid_count)),
            wire2 + 3 * config.hop_latency, True)


@dataclass
class FatTreeTopology(_Fabric):
    """Three-tier fat tree: leaf / aggregation / core.

    Nodes attach in runs of ``fattree_leaf_size`` to *leaf* switches;
    ``fattree_pod_leaves`` leaves form a *pod* served by
    ``fattree_agg_count`` aggregation switches; every aggregation
    switch of every pod connects to all ``fattree_core_count`` core
    switches.

    Routing is ECMP-style multipath:

    * same leaf -- single route through the leaf switch (in-order);
    * same pod -- one candidate per aggregation switch;
    * cross pod -- one candidate per core switch, the aggregation
      switch on both sides derived from the core index (``core %
      agg_count``), so candidates are disjoint in the core stage.

    Link counts grow linearly with nodes (per-node injection/delivery
    links) plus small per-pod and per-core matrices -- the flat-memory
    property the 4096-node ``--scale`` runs rely on.
    """

    nnodes: int
    leaf_size: int
    pod_leaves: int
    agg_count: int
    core_count: int
    up: list[SerialResource] = field(default_factory=list)
    down: list[SerialResource] = field(default_factory=list)
    #: ``[leaf][agg]`` links between a leaf and its pod's aggregation
    #: switches (leaf index is global; agg index is pod-local).
    leaf_up: list[list[SerialResource]] = field(default_factory=list)
    leaf_down: list[list[SerialResource]] = field(default_factory=list)
    #: ``[pod][agg][core]`` matrices for the core stage.
    agg_up: list[list[list[SerialResource]]] = field(default_factory=list)
    agg_down: list[list[list[SerialResource]]] = field(default_factory=list)

    @classmethod
    def build(cls, nnodes: int,
              config: "MachineConfig") -> "FatTreeTopology":
        if nnodes < 1:
            raise NetworkError("topology needs at least one node")
        topo = cls(nnodes=nnodes, leaf_size=config.fattree_leaf_size,
                   pod_leaves=config.fattree_pod_leaves,
                   agg_count=config.fattree_agg_count,
                   core_count=config.fattree_core_count)
        nleaves = (nnodes + topo.leaf_size - 1) // topo.leaf_size
        npods = (nleaves + topo.pod_leaves - 1) // topo.pod_leaves
        for n in range(nnodes):
            topo.up.append(SerialResource(f"up{n}"))
            topo.down.append(SerialResource(f"down{n}"))
        for lf in range(nleaves):
            topo.leaf_up.append(
                [SerialResource(f"l{lf}a{a}")
                 for a in range(topo.agg_count)])
            topo.leaf_down.append(
                [SerialResource(f"a{a}l{lf}")
                 for a in range(topo.agg_count)])
        for p in range(npods):
            topo.agg_up.append(
                [[SerialResource(f"p{p}a{a}c{c}")
                  for c in range(topo.core_count)]
                 for a in range(topo.agg_count)])
            topo.agg_down.append(
                [[SerialResource(f"c{c}p{p}a{a}")
                  for c in range(topo.core_count)]
                 for a in range(topo.agg_count)])
        return topo

    @property
    def nleaves(self) -> int:
        return len(self.leaf_up)

    @property
    def npods(self) -> int:
        return len(self.agg_up)

    def leaf_of(self, node: int) -> int:
        if not (0 <= node < self.nnodes):
            raise NetworkError(f"node {node} outside topology")
        return node // self.leaf_size

    def pod_of(self, leaf: int) -> int:
        return leaf // self.pod_leaves

    edge_of = leaf_of

    def template(self, ls: int, ld: int,
                 config: "MachineConfig") -> RouteTemplate:
        """Routes between leaves (see the class docstring for shapes)."""
        hop = config.hop_latency
        wire2 = 2 * config.wire_latency
        if ls == ld:
            return RouteTemplate(((),), wire2 + hop, False)
        ps, pd = self.pod_of(ls), self.pod_of(ld)
        if ps == pd:
            return RouteTemplate(
                tuple((self.leaf_up[ls][a], self.leaf_down[ld][a])
                      for a in range(self.agg_count)),
                wire2 + 3 * hop, False)
        middles = []
        for c in range(self.core_count):
            a = c % self.agg_count
            middles.append((self.leaf_up[ls][a], self.agg_up[ps][a][c],
                            self.agg_down[pd][a][c], self.leaf_down[ld][a]))
        return RouteTemplate(tuple(middles), wire2 + 5 * hop, True)

    def iter_links(self):
        """Yield every link once: node links, leaf stage, core stage."""
        yield from self.up
        yield from self.down
        for row in self.leaf_up:
            yield from row
        for row in self.leaf_down:
            yield from row
        for pod in self.agg_up:
            for row in pod:
                yield from row
        for pod in self.agg_down:
            for row in pod:
                yield from row


@dataclass
class DragonflyTopology(_Fabric):
    """Dragonfly: router groups with all-to-all local and global links.

    ``dragonfly_router_nodes`` nodes attach to each router;
    ``dragonfly_group_routers`` routers form a group with a directed
    local link between every ordered router pair; every ordered group
    pair is joined by one directed global link, terminating at a
    deterministic gateway router on each side (``other_group %
    routers_per_group``).

    Routing is minimal and single-path (the canonical dragonfly
    minimal route): up to the router, at most one local hop to the
    gateway, the global link, at most one local hop to the destination
    router, down.  Cross-group routes carry ``crosses_core=True`` (the
    global link is the long, jitter-eligible stage); in-order delivery
    within a group mirrors the SP's same-group behaviour.
    """

    nnodes: int
    router_nodes: int
    group_routers: int
    up: list[SerialResource] = field(default_factory=list)
    down: list[SerialResource] = field(default_factory=list)
    #: ``local[g][i][j]`` -- directed link router ``i`` -> ``j`` (both
    #: group-local indices) inside group ``g``; ``None`` on the
    #: diagonal.
    local: list[list[list[Optional[SerialResource]]]] = field(
        default_factory=list)
    #: Directed global link per ordered group pair.
    global_links: dict[tuple[int, int], SerialResource] = field(
        default_factory=dict)

    @classmethod
    def build(cls, nnodes: int,
              config: "MachineConfig") -> "DragonflyTopology":
        if nnodes < 1:
            raise NetworkError("topology needs at least one node")
        topo = cls(nnodes=nnodes,
                   router_nodes=config.dragonfly_router_nodes,
                   group_routers=config.dragonfly_group_routers)
        nrouters = (nnodes + topo.router_nodes - 1) // topo.router_nodes
        ngroups = (nrouters + topo.group_routers - 1) // topo.group_routers
        for n in range(nnodes):
            topo.up.append(SerialResource(f"up{n}"))
            topo.down.append(SerialResource(f"down{n}"))
        rpg = topo.group_routers
        for g in range(ngroups):
            grid: list[list[Optional[SerialResource]]] = []
            for i in range(rpg):
                grid.append([None if i == j
                             else SerialResource(f"g{g}r{i}r{j}")
                             for j in range(rpg)])
            topo.local.append(grid)
        for g1 in range(ngroups):
            for g2 in range(ngroups):
                if g1 != g2:
                    topo.global_links[(g1, g2)] = SerialResource(
                        f"G{g1}G{g2}")
        return topo

    @property
    def ngroups(self) -> int:
        return len(self.local)

    def router_of(self, node: int) -> int:
        if not (0 <= node < self.nnodes):
            raise NetworkError(f"node {node} outside topology")
        return node // self.router_nodes

    def group_of(self, node: int) -> int:
        return self.router_of(node) // self.group_routers

    edge_of = router_of

    def template(self, rs: int, rd: int,
                 config: "MachineConfig") -> RouteTemplate:
        """The single minimal route between routers ``rs`` and ``rd``."""
        hop = config.hop_latency
        wire2 = 2 * config.wire_latency
        if rs == rd:
            return RouteTemplate(((),), wire2 + hop, False)
        rpg = self.group_routers
        gs, gd = rs // rpg, rd // rpg
        if gs == gd:
            return RouteTemplate(((self.local[gs][rs % rpg][rd % rpg],),),
                                 wire2 + 2 * hop, False)
        gw_out = gd % rpg   # gateway router in gs toward gd
        gw_in = gs % rpg    # entry router in gd from gs
        middle: list[SerialResource] = []
        if rs % rpg != gw_out:
            middle.append(self.local[gs][rs % rpg][gw_out])
        middle.append(self.global_links[(gs, gd)])
        if gw_in != rd % rpg:
            middle.append(self.local[gd][gw_in][rd % rpg])
        # One switch traversal per link boundary (the middle links plus
        # up and down), plus the global link's extra flight time.
        latency = (wire2 + (len(middle) + 1) * hop
                   + config.dragonfly_global_latency)
        return RouteTemplate((tuple(middle),), latency, True)

    def iter_links(self):
        """Yield every link once: node links, local grids, global."""
        yield from self.up
        yield from self.down
        for grid in self.local:
            for row in grid:
                for ln in row:
                    if ln is not None:
                        yield ln
        yield from self.global_links.values()


#: Topology names accepted by ``MachineConfig.topology``.
TOPOLOGIES = ("sp", "fattree", "dragonfly")


def build_topology(nnodes: int, config: "MachineConfig"):
    """Construct the fabric selected by ``config.topology``."""
    kind = config.topology
    if kind == "sp":
        return Topology.build(nnodes, config)
    if kind == "fattree":
        return FatTreeTopology.build(nnodes, config)
    if kind == "dragonfly":
        return DragonflyTopology.build(nnodes, config)
    raise NetworkError(
        f"unknown topology {kind!r}; choose from {TOPOLOGIES}")
