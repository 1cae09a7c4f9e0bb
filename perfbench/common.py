"""Shared plumbing of the benchmark workloads.

A workload runs *reps*: each rep builds its clusters (timed as set-up),
runs the timed section (the ``run_job`` calls), and returns a
:class:`Rep` with host times, operation counts, output checks and the
counters each layer metric is folded from.  Counters are read only
through ``cluster.metrics.snapshot()`` and ``cluster.pools.stats()``
(plus the adapters' ``train_packets``, see NOTES.md), so the benchmark
keeps working while the program's internals are refactored.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


#: The clock of every timing: CPU seconds of this process.  On a shared
#: virtual machine it leaves out the time the host ran someone else on
#: this vCPU (steal), which wall time counts.
cpu_time = time.process_time


#: CPU seconds a :class:`HostGauge` call takes on the reference host
#: (the one NOTES.md describes, in a fast spell): timings are reported
#: as if measured at that speed.
GAUGE_REF_S = 0.08


class HostGauge:
    """A fixed pure-Python workload, timed between reps to gauge how fast
    the host runs right now.

    It shares no code with the program but resembles it: generators
    resumed in time order from a heap, each walking a linked graph of
    slotted objects (a working set of some megabytes) and updating
    them, then lookups in a string-keyed dict that replace small lists.
    A timing loop much smaller than this tracked the program's swings
    poorly (see NOTES.md).
    """

    OBJECTS = 60_000

    class _Node:
        __slots__ = ("nxt", "val", "tag", "buf")

        def __init__(self, i: int) -> None:
            self.nxt = None
            self.val = i
            self.tag = f"n{i}"
            self.buf = [i, i + 1]

    def __init__(self) -> None:
        import random

        rng = random.Random(7)
        self.nodes = [self._Node(i) for i in range(self.OBJECTS)]
        order = list(range(self.OBJECTS))
        rng.shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            self.nodes[a].nxt = self.nodes[b]
        self.index = {node.tag: node for node in self.nodes}
        self.keys = [f"n{rng.randrange(self.OBJECTS)}" for _ in range(12000)]

    @staticmethod
    def _walk(node, steps: int):
        for _ in range(steps):
            node = node.nxt
            node.val = (node.val + 1) & 0xFFFF
            yield (node.val & 7) + 1.0

    def __call__(self, rounds: int = 1) -> float:
        """CPU seconds of ``rounds`` times the fixed work."""
        import heapq

        gc.collect()
        gc.disable()
        t0 = cpu_time()
        queue = [(0.0, k, self._walk(self.nodes[k * 937], 1000 * rounds))
                 for k in range(64)]
        heapq.heapify(queue)
        while queue:
            t, k, walker = heapq.heappop(queue)
            step = next(walker, None)
            if step is not None:
                heapq.heappush(queue, (t + step, k, walker))
        total = 0
        for key in self.keys * rounds:
            node = self.index[key]
            total += node.buf[0]
            node.buf = [total & 1023, node.val]
        elapsed = cpu_time() - t0
        gc.enable()
        return elapsed


@dataclass
class Check:
    """One output check: a name, the verdict, and what was seen."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Rep:
    """Everything one repetition of a workload measured."""

    setup_s: float = 0.0
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    events: int = 0
    checks: list = field(default_factory=list)
    #: Summed layer counters (see :func:`cluster_counters`).
    counters: dict = field(default_factory=dict)
    #: Why operations failed (they are counted in ``failed``).
    errors: list = field(default_factory=list)
    #: ``(issued operations, timed seconds)`` of each job, for a rep
    #: that runs several jobs (see :meth:`rate`).
    jobs: list = field(default_factory=list)

    def rate(self) -> float:
        """Operations per timed second.

        With ``jobs`` recorded, an operation counts once it is issued,
        whatever its outcome (that goes to ``failed``), and each job
        weighs the same (the harmonic mean of the jobs' rates): a job
        cut short by a failure keeps a rate comparable with a whole one
        and does not shift the mix between jobs.  Otherwise completed
        operations count.
        """
        if not self.jobs:
            return (self.attempted - self.failed) / self.timed_s
        return len(self.jobs) / sum(s / ops for ops, s in self.jobs)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(ok), detail))

    def error(self, message: str) -> None:
        self.errors.append(message)

    def add_counters(self, counters: dict) -> None:
        for key, value in counters.items():
            if key.endswith("_max"):
                self.counters[key] = max(self.counters.get(key, 0), value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value


def build(rep: Rep, factory: Callable[[], Any]) -> Any:
    """Construct a cluster, charging its host time to ``rep.setup_s``.

    ``gc.collect()`` first, so the previous rep's garbage is not
    collected on set-up's clock.
    """
    gc.collect()
    t0 = cpu_time()
    cluster = factory()
    rep.setup_s += cpu_time() - t0
    return cluster


def timed_job(rep: Rep, cluster, fn, profiler=None,
              **kwargs) -> Optional[BaseException]:
    """Run one SPMD job as (part of) the timed section.

    ``gc.collect()`` runs first so a collection left over from set-up
    does not land inside the timing.  A structured error raised by the
    program ends the job; it is returned, not raised, so the caller can
    count the operations it cost.  Only the ``run_job`` call is timed
    and, when ``profiler`` is given, profiled.
    """
    from repro.errors import ReproError

    gc.collect()
    err = None
    t0 = cpu_time()
    if profiler is not None:
        profiler.enable()
    try:
        cluster.run_job(fn, **kwargs)
    except ReproError as exc:
        err = exc
    finally:
        if profiler is not None:
            profiler.disable()
        rep.timed_s += cpu_time() - t0
    rep.events += cluster.sim.events_processed
    return err


def _sum(block: dict, name: str) -> int:
    return sum(values.get(name, 0) for values in block.values())


def cluster_counters(cluster, spans=None) -> dict:
    """The layer counters of one finished cluster.

    Keys ending in ``_max`` are high-water marks (folded with ``max``
    across clusters); the rest are counts (folded with ``+``).
    """
    snap = cluster.metrics.snapshot()
    adapters = snap.get("machine.adapter", {})
    switch = snap.get("machine.switch", {}).get("-", {})
    faults = snap.get("faults", {}).get("-", {})
    resilience = snap.get("resilience", {}).get("-", {})
    buffers = snap.get("ga.buffers", {})
    pools = cluster.pools.stats()
    packets_pool = pools.get("packets", {})
    dropped = (_sum(adapters, "rx_dropped") + _sum(adapters, "rx_crc_dropped")
               + _sum(adapters, "rx_crash_dropped")
               + _sum(adapters, "tx_crash_dropped")
               + switch.get("packets_lost", 0))
    return {
        "packets_sent": _sum(adapters, "packets_sent"),
        "packets_received": _sum(adapters, "packets_received"),
        "packets_dropped": dropped,
        "packets_routed": switch.get("packets_routed", 0),
        # Not in the metrics snapshot: the share of packets the TX
        # engine settled as a train.  Zero once the attribute is gone.
        "train_packets": sum(getattr(node.adapter, "train_packets", 0)
                             for node in cluster.nodes),
        "pool_acquires": packets_pool.get("acquires", 0),
        "pool_hits": packets_pool.get("hits", 0),
        "pool_outstanding": packets_pool.get("outstanding", 0),
        "retransmissions": (
            _sum(snap.get("core.reliability", {}), "retransmissions")
            + _sum(snap.get("mpl.reliability", {}), "retransmissions")),
        "fault_drops": (faults.get("fault_drops", 0)
                        + faults.get("crc_drops", 0)),
        "pings": resilience.get("pings_sent", 0),
        "ga_pool_high_water_max": max(
            (v.get("small_high_water", 0) + v.get("large_high_water", 0)
             for v in buffers.values()), default=0),
        "spans": len(spans) if spans is not None else 0,
    }


#: Virtual time the fabric gets, after a job, to settle the packets
#: in flight when the job ended (far above any delivery latency).
SETTLE_US = 1000.0


def conservation(rep: Rep, label: str, cluster, counters: dict) -> None:
    """Check that every packet sent was received or dropped.

    The job can end with packets on the wire (trailing acks, heartbeats),
    so the fabric runs ``SETTLE_US`` more: by then every packet sent
    before the end must be accounted for, and none may appear that was
    never sent.  A quiet fabric makes this an exact equality.
    """
    cluster.sim.run(until=cluster.sim.now + SETTLE_US)
    after = cluster_counters(cluster)
    settled = after["packets_received"] + after["packets_dropped"]
    rep.check(f"{label}: packets conserved (sent = received + dropped)",
              counters["packets_sent"] <= settled <= after["packets_sent"],
              f"sent {counters['packets_sent']} by the end,"
              f" {after['packets_sent']} after settling; received"
              f" {after['packets_received']}, dropped"
              f" {after['packets_dropped']}")


def finish_cluster(rep: Rep, label: str, cluster, spans=None) -> dict:
    """Fold a finished cluster's counters into ``rep`` and audit it."""
    counters = cluster_counters(cluster, spans)
    rep.add_counters(counters)
    conservation(rep, label, cluster, counters)
    return counters
