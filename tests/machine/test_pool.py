"""Object pools: reset-on-acquire, uid freshness, and span aliasing.

The regression these tests pin down: a pool-recycled :class:`Packet`
must carry *nothing* of its previous life.  In particular the ``uid``
must be redrawn from the per-cluster id stream on every acquire --
uid-keyed side tables (the span recorder's per-packet tracks) would
otherwise attribute a recycled acknowledgement to the span that owned
the uid's previous incarnation.
"""

import pytest

from repro.faults import AckLoss, FaultSchedule
from repro.machine import Cluster
from repro.machine.config import SP_1998
from repro.machine.packet import Packet, next_packet_id, \
    reset_packet_ids
from repro.machine.pool import HotPools, PacketPool
from repro.obs import SpanRecorder, merge_pool_stats, pool_stats

NBYTES = 131072


def _acquire(pool, **overrides):
    kwargs = dict(src=0, dst=1, proto="lapi", kind="ack",
                  header_bytes=64, payload=b"")
    kwargs.update(overrides)
    return pool.acquire(**kwargs)


class TestPacketPoolReset:
    def test_reset_clears_every_mutable_field(self):
        pool = PacketPool()
        first = _acquire(pool, payload=b"xy")
        first.seq = 41
        first.info["acked_seq"] = 41
        first.info["stale"] = object()
        old_uid = first.uid
        pool.release(first)
        again = _acquire(pool, src=3, dst=2, kind="data")
        assert again is first  # recycled, not reconstructed
        assert again.src == 3 and again.dst == 2
        assert again.kind == "data"
        assert again.seq == -1
        assert again.info == {}
        assert again.payload == b""
        assert again.size == 64
        assert again.uid != old_uid

    def test_uid_stream_identical_to_unpooled(self):
        # Each acquire corresponds 1:1 to the construction the unpooled
        # path would have performed, so the uid stream must advance
        # exactly as if a fresh Packet had been built.
        reset_packet_ids()
        pool = PacketPool()
        a = _acquire(pool)
        first_uid = a.uid
        pool.release(a)
        b = _acquire(pool)  # recycled (b is a): uid redrawn, not reused
        c = Packet(src=0, dst=1, proto="lapi", kind="ack",
                   header_bytes=64)
        assert (first_uid, b.uid, c.uid) == (first_uid, first_uid + 1,
                                             first_uid + 2)

    def test_foreign_packets_are_ignored_on_release(self):
        pool = PacketPool()
        foreign = Packet(src=0, dst=1, proto="lapi", kind="data",
                         header_bytes=64)
        pool.release(foreign)
        assert pool.releases == 0
        assert pool.outstanding == 0

    def test_cap_bounds_the_free_list(self):
        pool = PacketPool(cap=2)
        pkts = [_acquire(pool) for _ in range(4)]
        for p in pkts:
            pool.release(p)
        assert len(pool._free) == 2
        assert pool.releases == 4  # counted even when dropped


class TestSpanAliasRegression:
    def test_recycled_packet_never_aliases_stale_track(self):
        """The S2 bug: recycle an ack whose uid a span track still
        references -- the recycled packet must come out unbound."""
        sp = SpanRecorder()
        pool = PacketPool()
        ack = _acquire(pool)
        sid = sp.open(0, "lapi", "put", 0.0)
        sp.bind_packet(ack, sid, "ack")
        assert sp.origin_of(ack) == sid
        # Release WITHOUT retiring the track first -- the worst case: a
        # stale uid-keyed entry survives in the recorder.
        pool.release(ack)
        again = _acquire(pool)
        assert again is ack
        assert sp.origin_of(again) is None  # fresh uid, no alias

    def test_cluster_run_with_spans_recycles_cleanly(self):
        """Pooling interleaved with --spans on a real job: every
        acquired ack returns to the pool, every bound ack track is
        retired, and the span stream is produced intact."""
        cluster = Cluster(nnodes=2, config=SP_1998, seed=0x52,
                          spans=SpanRecorder())

        def main(task):
            lapi = task.lapi
            mem = task.memory
            buf = mem.malloc(NBYTES)
            yield from lapi.gfence()
            if task.rank == 0:
                src = mem.malloc(NBYTES)
                cmpl = lapi.counter()
                yield from lapi.put(1, NBYTES, buf, src,
                                    cmpl_cntr=cmpl)
                yield from lapi.waitcntr(cmpl, 1)
            yield from lapi.gfence()

        cluster.run_job(main, stacks=("lapi",), interrupt_mode=False)
        stats = pool_stats(cluster)
        assert stats["packets"]["acquires"] > 0
        assert stats["packets"]["hits"] > 0
        # A trailing ack (the final gfence's) can still be in flight at
        # quiesce; anything beyond that handful would be a leak.
        assert stats["packets"]["outstanding"] <= 2
        assert stats["span_tracks"]["tracks_recycled"] > 0
        assert cluster.spans.span_dicts()


class TestLeakGauge:
    def test_fabric_dropped_acks_show_as_outstanding(self):
        # Acks lost by a faulty fabric never reach their consumption
        # point, so they never return to the pool: the outstanding
        # gauge is the leak detector.
        sched = FaultSchedule([AckLoss(rate=0.4, src=1, dst=0,
                                       start=0.0, end=1e7)])
        cluster = Cluster(nnodes=2, config=SP_1998, seed=0x5E,
                          faults=sched)

        def main(task):
            lapi = task.lapi
            mem = task.memory
            buf = mem.malloc(NBYTES)
            yield from lapi.gfence()
            if task.rank == 0:
                src = mem.malloc(NBYTES)
                cmpl = lapi.counter()
                yield from lapi.put(1, NBYTES, buf, src,
                                    cmpl_cntr=cmpl)
                yield from lapi.waitcntr(cmpl, 1)
            yield from lapi.gfence()

        cluster.run_job(main, stacks=("lapi",), interrupt_mode=False)
        pool = cluster.pools.packets
        assert pool.acquires > 0
        assert pool.outstanding > 0  # the fabric ate some acks


class TestHotPoolsPlumbing:
    def test_cluster_owns_per_cluster_pools(self):
        a = Cluster(nnodes=2, config=SP_1998, seed=1)
        b = Cluster(nnodes=2, config=SP_1998, seed=1)
        assert isinstance(a.pools, HotPools)
        assert a.pools is not b.pools
        assert a.sim.pools is a.pools

    def test_merge_pool_stats_sums_and_recomputes_rates(self):
        merged = merge_pool_stats([
            {"packets": {"acquires": 10, "hits": 5, "releases": 10,
                         "hit_rate": 0.5}},
            {"packets": {"acquires": 30, "hits": 25, "releases": 30,
                         "hit_rate": 0.8333}},
            None,
        ])
        assert merged["packets"]["acquires"] == 40
        assert merged["packets"]["hits"] == 30
        assert merged["packets"]["hit_rate"] == 0.75
