"""Tests for the scale fabrics: fat tree, dragonfly, and the factory.

The SP multistage topology is covered by the historical network tests;
these exercise the two large-N fabrics added for ``--scale`` -- route
shapes, candidate counts, gateway selection -- plus the switch's route
templates and the streamed top-k link statistics.
"""

import pytest

from repro.errors import NetworkError
from repro.machine import Adapter, Packet
from repro.machine.config import SP_1998
from repro.machine.routing import (DragonflyTopology, FatTreeTopology,
                                   TOPOLOGIES, Topology, build_topology)
from repro.machine.switch import Switch
from repro.sim import RngRegistry, Simulator


FT_CFG = SP_1998.replace(topology="fattree")
DF_CFG = SP_1998.replace(topology="dragonfly")


def make_switch(config=SP_1998, nnodes=8):
    return Switch(Simulator(), nnodes, config, RngRegistry(seed=1))


class TestFactory:
    def test_dispatch(self):
        assert type(build_topology(8, SP_1998)) is Topology
        assert isinstance(build_topology(8, FT_CFG), FatTreeTopology)
        assert isinstance(build_topology(8, DF_CFG), DragonflyTopology)

    def test_unknown_kind_rejected(self):
        with pytest.raises(NetworkError, match="topology"):
            build_topology(8, SP_1998.replace(topology="torus"))

    def test_config_validate_rejects_unknown(self):
        with pytest.raises(ValueError, match="topology"):
            SP_1998.replace(topology="torus").validate()

    def test_registry(self):
        assert TOPOLOGIES == ("sp", "fattree", "dragonfly")


class TestFatTree:
    def test_same_leaf_single_route(self):
        ft = build_topology(64, FT_CFG)
        (route,) = ft.routes(0, 1, FT_CFG)
        assert len(route.links) == 2  # up + down, no fabric hops
        assert not route.crosses_core

    def test_same_pod_candidates(self):
        ft = build_topology(256, FT_CFG)
        # Nodes 0 and 16 sit on different leaves of pod 0.
        routes = list(ft.routes(0, 16, FT_CFG))
        assert len(routes) == ft.agg_count
        assert all(len(r.links) == 4 for r in routes)
        assert not any(r.crosses_core for r in routes)

    def test_cross_pod_candidates(self):
        ft = build_topology(512, FT_CFG)
        pod = ft.leaf_size * ft.pod_leaves
        routes = list(ft.routes(0, pod, FT_CFG))
        assert len(routes) == ft.core_count
        assert all(len(r.links) == 6 for r in routes)
        assert all(r.crosses_core for r in routes)

    def test_candidate_paths_are_disjoint_in_fabric(self):
        ft = build_topology(512, FT_CFG)
        pod = ft.leaf_size * ft.pod_leaves
        fabric = [tuple(ln.name for ln in r.links[1:-1])
                  for r in ft.routes(0, pod, FT_CFG)]
        assert len(set(fabric)) == len(fabric)

    def test_latency_grows_with_distance(self):
        ft = build_topology(512, FT_CFG)
        (leaf,) = ft.routes(0, 1, FT_CFG)
        pod_route = ft.routes(0, 16, FT_CFG)[0]
        core_route = ft.routes(
            0, ft.leaf_size * ft.pod_leaves, FT_CFG)[0]
        assert (leaf.fixed_latency < pod_route.fixed_latency
                < core_route.fixed_latency)

    def test_iter_links_covers_route_links(self):
        ft = build_topology(128, FT_CFG)
        names = {ln.name for ln in ft.iter_links()}
        for dst in (1, 16, 127):
            for route in ft.routes(0, dst, FT_CFG):
                assert {ln.name for ln in route.links} <= names


class TestDragonfly:
    def test_same_router(self):
        df = build_topology(64, DF_CFG)
        (route,) = df.routes(0, 1, DF_CFG)
        assert len(route.links) == 2
        assert not route.crosses_core

    def test_same_group_uses_local_link(self):
        df = build_topology(64, DF_CFG)
        (route,) = df.routes(0, df.router_nodes, DF_CFG)
        assert len(route.links) == 3
        assert not route.crosses_core

    def test_cross_group_minimal_path(self):
        df = build_topology(512, DF_CFG)
        group = df.router_nodes * df.group_routers
        (route,) = df.routes(0, group, DF_CFG)
        assert route.crosses_core
        names = [ln.name for ln in route.links]
        assert sum(n.startswith("G") for n in names) == 1  # one global
        # Minimal routing: at most up + local + global + local + down.
        assert 3 <= len(route.links) <= 5

    def test_cross_group_latency_includes_global(self):
        df = build_topology(512, DF_CFG)
        group = df.router_nodes * df.group_routers
        (local,) = df.routes(0, 1, DF_CFG)
        (remote,) = df.routes(0, group, DF_CFG)
        assert (remote.fixed_latency - local.fixed_latency
                >= DF_CFG.dragonfly_global_latency)

    def test_gateway_router_selection(self):
        # The gateway toward group gd is router ``gd % rpg``; a source
        # already sitting on the gateway router skips the local hop.
        df = build_topology(512, DF_CFG)
        group = df.router_nodes * df.group_routers
        gw_src = 1 * df.router_nodes  # node on router 1 == gateway to g1
        (from_gw,) = df.routes(gw_src, group, DF_CFG)
        (from_r0,) = df.routes(0, group, DF_CFG)
        assert len(from_gw.links) == len(from_r0.links) - 1

    def test_iter_links_covers_route_links(self):
        df = build_topology(256, DF_CFG)
        names = {ln.name for ln in df.iter_links()}
        for dst in (1, 5, 64, 255):
            for route in df.routes(0, dst, DF_CFG):
                assert {ln.name for ln in route.links} <= names


#: Small multi-edge fabrics: SP with two groups, a fat tree with two
#: pods of two leaves, a dragonfly with three groups of three routers.
SMALL_FABRICS = {
    "sp": (SP_1998, 8),
    "fattree": (FT_CFG.replace(fattree_leaf_size=2, fattree_pod_leaves=2,
                               fattree_agg_count=2, fattree_core_count=4),
                8),
    "dragonfly": (DF_CFG.replace(dragonfly_router_nodes=2,
                                 dragonfly_group_routers=3), 18),
}


def _names(links):
    return tuple(ln.name for ln in links)


@pytest.mark.parametrize("fabric", sorted(SMALL_FABRICS))
class TestRouteTemplates:
    def test_spliced_template_equals_routes(self, fabric):
        cfg, n = SMALL_FABRICS[fabric]
        sw = make_switch(cfg, n)
        oracle = build_topology(n, cfg)
        topo = sw.topology
        for src in range(n):
            for dst in range(n):
                if src == dst:
                    continue
                tmpl = sw.template(src, dst)
                routes = oracle.routes(src, dst, cfg)
                assert [_names((topo.up[src],) + mid + (topo.down[dst],))
                        for mid in tmpl.middles] == \
                    [_names(r.links) for r in routes]
                for r in routes:
                    assert r.fixed_latency == tmpl.fixed_latency
                    assert r.crosses_core == tmpl.crosses_core

    def test_all_pairs_traffic_bounded_by_edge_pairs(self, fabric):
        cfg, n = SMALL_FABRICS[fabric]
        sim = Simulator()
        sw = Switch(sim, n, cfg, RngRegistry(seed=1))
        for i in range(n):
            adapter = Adapter(sim, i, cfg)
            adapter.connect(sw)
            adapter.attach_client("lapi")
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    sw.route(Packet(src=src, dst=dst, proto="lapi",
                                    kind="data", header_bytes=48,
                                    payload=b"x"))
        sim.run()
        assert sw.packets_routed == n * (n - 1)
        nedges = sw.topology.nedges
        assert nedges > 1
        assert len(sw.templates) <= nedges ** 2
        edge = sw.topology.edge_of
        assert set(sw.templates) == {(edge(s), edge(d)) for s in range(n)
                                     for d in range(n) if s != d}


class TestTopLinks:
    HORIZON = 10.0

    def _loaded_switch(self):
        sw = make_switch()
        for dst in range(1, 8):
            for route in sw.topology.routes(0, dst, SP_1998):
                for link in route.links:
                    link.occupy(0.0, 0.3 * dst)  # uneven load
        return sw

    def test_busiest_links_matches_full_sort(self):
        sw = self._loaded_switch()
        full = sorted(sw.link_utilization(self.HORIZON).items(),
                      key=lambda kv: -kv[1])
        for k in (1, 4, 16, 10_000):
            assert sw.busiest_links(k, self.HORIZON) == full[:k]

    def test_metrics_default_is_full_block(self):
        sw = self._loaded_switch()
        assert sw.metrics_top_links is None
        gauges = [n for n in sw.metrics() if n.startswith("util.")]
        assert len(gauges) == len(sw.link_utilization())

    def test_metrics_top_links_bounds_block(self):
        sw = self._loaded_switch()
        sw.metrics_top_links = 3
        gauges = [n for n in sw.metrics() if n.startswith("util.")]
        assert len(gauges) == 3
