"""Unit tests for packets, routing, switch, and adapters."""

import pytest

from repro.errors import NetworkError
from repro.machine import (
    Adapter,
    Packet,
    SerialResource,
    Switch,
    Topology,
)
from repro.machine.config import SP_1998
from repro.sim import RngRegistry, Simulator


def make_packet(src=0, dst=1, payload=b"x" * 4, kind="data", proto="lapi",
                header=48):
    return Packet(src=src, dst=dst, proto=proto, kind=kind,
                  header_bytes=header, payload=payload)


class TestPacket:
    def test_size(self):
        pkt = make_packet(payload=b"abcd")
        assert pkt.size == 52

    def test_unique_uids(self):
        assert make_packet().uid != make_packet().uid

    def test_uids_restart_per_cluster(self):
        # Trace parity between serial and forked-worker runs depends
        # on uid numbering being a function of the cluster's own
        # history, not of earlier clusters in the process.
        from repro.machine import Cluster

        Cluster(nnodes=2)
        first = make_packet().uid
        Cluster(nnodes=2)
        assert make_packet().uid == first == 0

    def test_validate_loop(self):
        with pytest.raises(NetworkError):
            make_packet(src=1, dst=1).validate(1024)

    def test_validate_oversize(self):
        with pytest.raises(NetworkError):
            make_packet(payload=b"x" * 1000).validate(1024)

    def test_validate_negative_node(self):
        with pytest.raises(NetworkError):
            make_packet(src=-1).validate(1024)

    def test_validate_headerless(self):
        with pytest.raises(NetworkError):
            make_packet(header=0).validate(1024)


class TestSerialResource:
    def test_idle_service(self):
        r = SerialResource("l")
        assert r.occupy(10.0, 2.0) == 12.0

    def test_queueing(self):
        r = SerialResource("l")
        assert r.occupy(0.0, 5.0) == 5.0
        # Second request at t=1 queues behind the first.
        assert r.occupy(1.0, 5.0) == 10.0

    def test_idle_gap_resets(self):
        r = SerialResource("l")
        r.occupy(0.0, 1.0)
        assert r.occupy(100.0, 1.0) == 101.0

    def test_negative_duration_rejected(self):
        with pytest.raises(NetworkError):
            SerialResource("l").occupy(0.0, -1.0)

    def test_utilization(self):
        r = SerialResource("l")
        r.occupy(0.0, 5.0)
        assert r.utilization(10.0) == pytest.approx(0.5)
        assert r.utilization(0.0) == 0.0


class TestTopology:
    def test_group_assignment(self):
        topo = Topology.build(8, SP_1998)  # group_size 4
        assert topo.group_of(0) == 0
        assert topo.group_of(3) == 0
        assert topo.group_of(4) == 1
        assert topo.ngroups == 2

    def test_same_group_single_route(self):
        topo = Topology.build(8, SP_1998)
        routes = topo.routes(0, 1, SP_1998)
        assert len(routes) == 1
        assert not routes[0].crosses_core
        assert len(routes[0].links) == 2

    def test_cross_group_multipath(self):
        topo = Topology.build(8, SP_1998)
        routes = topo.routes(0, 5, SP_1998)
        assert len(routes) == SP_1998.switch_mid_count
        assert all(r.crosses_core for r in routes)
        assert all(len(r.links) == 4 for r in routes)
        # Routes are disjoint in the middle stage.
        mids = {r.links[1] for r in routes}
        assert len(mids) == len(routes)

    def test_route_to_self_rejected(self):
        topo = Topology.build(4, SP_1998)
        with pytest.raises(NetworkError):
            topo.routes(2, 2, SP_1998)

    def test_node_out_of_range(self):
        topo = Topology.build(4, SP_1998)
        with pytest.raises(NetworkError):
            topo.group_of(4)

    def test_cross_group_longer_than_intra(self):
        topo = Topology.build(8, SP_1998)
        intra = topo.routes(0, 1, SP_1998)[0]
        inter = topo.routes(0, 7, SP_1998)[0]
        assert inter.fixed_latency > intra.fixed_latency


def build_fabric(nnodes=2, config=SP_1998, seed=1):
    sim = Simulator()
    rng = RngRegistry(seed=seed)
    switch = Switch(sim, nnodes, config, rng)
    adapters = []
    for i in range(nnodes):
        ad = Adapter(sim, i, config)
        ad.connect(switch)
        adapters.append(ad)
    return sim, switch, adapters


def tap_route(sim, switch):
    """Record ``(now, kind)`` of every packet handed to the switch."""
    log = []
    route = switch.route

    def logged(packet):
        log.append((sim.now, packet.kind))
        route(packet)

    switch.route = logged
    return log


class TestSwitchDelivery:
    def test_packet_travels_end_to_end(self):
        sim, switch, (a0, a1) = build_fabric()
        client = a1.attach_client("lapi")
        pkt = make_packet()
        switch.route(pkt)
        sim.run()
        assert client.pending == 1
        ok, got = client.rx.try_get()
        assert ok and got is pkt
        assert switch.packets_routed == 1

    def test_delivery_takes_positive_time(self):
        sim, switch, (a0, a1) = build_fabric()
        a1.attach_client("lapi")
        switch.route(make_packet())
        end = sim.run()
        assert end > 0.0

    def test_unattached_protocol_raises(self):
        sim, switch, (a0, a1) = build_fabric()
        switch.route(make_packet(proto="mystery"))
        with pytest.raises(NetworkError):
            sim.run()

    def test_unattached_node_raises(self):
        sim = Simulator()
        switch = Switch(sim, 2, SP_1998, RngRegistry())
        with pytest.raises(NetworkError):
            switch.route(make_packet())

    def test_double_attach_rejected(self):
        sim, switch, (a0, a1) = build_fabric()
        dup = Adapter(sim, 0, SP_1998)
        with pytest.raises(NetworkError):
            dup.connect(switch)

    def test_loss_injection(self):
        cfg = SP_1998.replace(loss_rate=1.0)
        sim, switch, (a0, a1) = build_fabric(config=cfg)
        client = a1.attach_client("lapi")
        switch.route(make_packet())
        sim.run()
        assert switch.packets_lost == 1
        assert client.pending == 0

    def test_same_link_packets_keep_order(self):
        # Two nodes in one group share a single route: strict FIFO.
        sim, switch, (a0, a1) = build_fabric()
        client = a1.attach_client("lapi")
        pkts = [make_packet(payload=bytes([i]) * 8) for i in range(10)]
        for p in pkts:
            switch.route(p)
        sim.run()
        got = client.rx.drain()
        assert [p.uid for p in got] == [p.uid for p in pkts]

    def test_cross_group_can_reorder(self):
        # With 4 disjoint routes and jitter, a burst of packets between
        # groups arrives out of order for some seed.
        cfg = SP_1998.replace(route_jitter=2.0)
        reordered = False
        for seed in range(5):
            sim, switch, adapters = [None] * 3
            sim = Simulator()
            rng = RngRegistry(seed=seed)
            switch = Switch(sim, 8, cfg, rng)
            ads = []
            for i in range(8):
                ad = Adapter(sim, i, cfg)
                ad.connect(switch)
                ads.append(ad)
            client = ads[5].attach_client("lapi")
            pkts = [make_packet(src=0, dst=5, payload=bytes(16))
                    for _ in range(20)]
            for p in pkts:
                switch.route(p)
            sim.run()
            got = client.rx.drain()
            if [p.uid for p in got] != [p.uid for p in pkts]:
                reordered = True
                break
        assert reordered, "multipath routing never reordered packets"


class TestAdapterPaths:
    def test_inject_through_tx_engine(self):
        from repro.machine import Cpu
        sim, switch, (a0, a1) = build_fabric()
        client = a1.attach_client("lapi")
        cpu = Cpu(sim, 0, SP_1998)

        def body(thread):
            yield from a0.inject(thread, make_packet())
            return sim.now

        t = cpu.spawn(body)
        sim.run()
        assert client.pending == 1
        assert a0.packets_sent == 1

    def test_tx_complete_instants_back_to_back(self):
        # Three full packets injected at t=0 finish one DMA setup plus
        # one wire time apart: each starts when the previous finishes.
        sim, switch, (a0, a1) = build_fabric()
        a1.attach_client("lapi")
        log = tap_route(sim, switch)
        for _ in range(3):
            assert a0.inject_async(make_packet(payload=bytes(976)))
        sim.run()
        assert log == [(10.052222222222223, "data"),
                       (20.104444444444447, "data"),
                       (30.15666666666667, "data")]

    def test_control_queues_behind_data(self):
        # Control packets skip the credit check, not the FIFO.
        sim, switch, (a0, a1) = build_fabric()
        a1.attach_client("lapi")
        log = tap_route(sim, switch)
        a0.inject_async(make_packet(payload=bytes(976)))
        a0.inject_async(make_packet(payload=bytes(976)))
        sim.run(until=1.0)
        a0.inject_control(make_packet(kind="ack", payload=b""))
        sim.run()
        assert log == [(10.052222222222223, "data"),
                       (20.104444444444447, "data"),
                       (21.481111111111115, "ack")]

    def test_crash_drops_packet_on_dma_engine(self):
        sim, switch, (a0, a1) = build_fabric()
        a1.attach_client("lapi")
        log = tap_route(sim, switch)
        a0.inject_async(make_packet(payload=bytes(976)))
        sim.run(until=1.0)
        a0.crash()
        # Nothing was queued behind it; the DMA engine still holds it.
        assert a0.tx_crash_dropped == 0
        sim.run()
        assert sim.now == 10.052222222222223
        assert a0.tx_crash_dropped == 1
        assert a0.packets_sent == 0 and log == []
        assert a0._tx_credits.value == SP_1998.adapter_tx_fifo

    def test_restart_resumes_control_service(self):
        sim, switch, (a0, a1) = build_fabric()
        a1.attach_client("lapi")
        log = tap_route(sim, switch)
        a0.inject_async(make_packet(payload=bytes(976)))
        sim.run(until=1.0)
        a0.crash()
        sim.run()
        a0.restart()
        a0.inject_control(make_packet(kind="ack", payload=b""))
        sim.run()
        assert log == [(11.42888888888889, "ack")]
        assert a0.packets_sent == 1

    def test_cluster_has_no_adapter_process(self):
        from repro.machine import Cluster
        cluster = Cluster(4)
        assert not cluster.sim._live_processes

    def test_inject_async_control(self):
        sim, switch, (a0, a1) = build_fabric()
        client = a1.attach_client("lapi")
        assert a0.inject_async(make_packet(kind="ack", payload=b""))
        sim.run()
        assert client.pending == 1

    def test_rx_fifo_overflow_drops(self):
        cfg = SP_1998.replace(adapter_rx_fifo=4)
        sim, switch, (a0, a1) = build_fabric(config=cfg)
        client = a1.attach_client("lapi")
        for _ in range(10):
            switch.route(make_packet())
        sim.run()
        assert client.pending == 4
        assert a1.rx_dropped == 6

    def test_interrupt_fires_once_per_burst(self):
        sim, switch, (a0, a1) = build_fabric()
        client = a1.attach_client("lapi")
        fired = []
        client.on_arrival = lambda: fired.append(sim.now)
        for _ in range(5):
            switch.route(make_packet())
        sim.run()
        assert len(fired) == 1  # coalesced until re-armed

    def test_rearm_after_drain_fires_again(self):
        sim, switch, (a0, a1) = build_fabric()
        client = a1.attach_client("lapi")
        fired = []
        client.on_arrival = lambda: fired.append(len(client.rx))
        switch.route(make_packet())
        sim.run()
        client.rx.drain()
        client.arm_interrupt()
        switch.route(make_packet())
        sim.run()
        assert len(fired) == 2

    def test_rearm_with_pending_fires_immediately(self):
        sim, switch, (a0, a1) = build_fabric()
        client = a1.attach_client("lapi")
        fired = []
        switch.route(make_packet())
        switch.route(make_packet())
        sim.run()
        client.on_arrival = lambda: fired.append(sim.now)
        client.arm_interrupt()  # packets already waiting
        assert fired == [sim.now]

    def test_polling_mode_never_notifies(self):
        sim, switch, (a0, a1) = build_fabric()
        client = a1.attach_client("lapi")
        client.interrupts_enabled = False
        fired = []
        client.on_arrival = lambda: fired.append(1)
        switch.route(make_packet())
        sim.run()
        assert fired == []
        assert client.pending == 1
