"""Hot-path pool statistics for the perf harness.

The object pools live with their owners -- the per-cluster
:class:`~repro.machine.pool.HotPools` (transport-ack packets), the
kernel's fast-timer free list, and the span recorder's track free
list.  :func:`pool_stats` condenses all
of them into one picklable dict per cluster, and
:func:`merge_pool_stats` folds the per-cluster dicts into the single
``pools`` block ``python -m repro.bench --perf`` stamps into
``BENCH_PERF.json``.

These numbers are deliberately *not* part of the ``--metrics`` blocks:
hit counts differ between fast-lane-on and fast-lane-off runs of the
same scenario, and the equivalence contract requires those blocks
byte-identical.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["pool_stats", "merge_pool_stats"]


def pool_stats(cluster) -> dict:
    """All pool counters of one finished cluster, keyed by pool name.

    Works on any object with a ``sim`` attribute (ducks for
    :class:`repro.machine.Cluster`); pools that are not armed on this
    cluster are simply absent from the dict.
    """
    sim = cluster.sim
    stats: dict = {}
    pools = getattr(sim, "pools", None)
    if pools is not None:
        stats.update(pools.stats())
    timer_free = getattr(sim, "_timer_pool", None)
    if timer_free is not None:
        from ..sim.kernel import _TIMER_POOL_CAP
        stats["timers"] = {"free": len(timer_free),
                           "cap": _TIMER_POOL_CAP}
    spans = getattr(cluster, "spans", None)
    if spans is not None:
        stats["span_tracks"] = spans.pool_stats()
    return stats


def merge_pool_stats(blocks: Iterable[Optional[dict]]) -> dict:
    """Fold per-cluster :func:`pool_stats` dicts into one summary.

    Integer counters are summed; ``hit_rate`` is recomputed from the
    summed ``hits``/``acquires`` (never averaged -- clusters differ
    wildly in traffic volume).  ``None`` entries (captures taken with
    pools unarmed) are skipped.
    """
    merged: dict = {}
    for block in blocks:
        if not block:
            continue
        for pool_name, counters in block.items():
            out = merged.setdefault(pool_name, {})
            for key, value in counters.items():
                if key == "hit_rate":
                    continue
                out[key] = out.get(key, 0) + value
    for counters in merged.values():
        acquires = counters.get("acquires")
        if acquires is not None:
            counters["hit_rate"] = (
                round(counters.get("hits", 0) / acquires, 4)
                if acquires else 0.0)
    return merged
