"""``ring512``: a 4 KB neighbour ring on a 512-node fat tree.

Every rank puts 4 KB to its right neighbour between two ``gfence``
calls -- the ``--scale`` ring point.  Few bytes per node, but 512 live
processes, a deep kernel queue and a route lookup per packet: the
routing layer and the kernel carry this workload.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from common import Rep, build, finish_cluster, timed_job

NAME = "ring512"
#: Sets the reps per run.  A rep takes 3.5-6 s of host CPU here; this
#: is set lower so that a run has five reps to take the median of.
REP_S = 3.2
NODES = 512
NBYTES = 4096

#: Simulated outputs of the default seed (seed 1).
PINNED = {1: {"virtual_us": 999.220974491388, "packets_routed": 32767}}


def config():
    """The fat-tree calibration the ``--scale`` bench runs at 512 nodes.

    The route-cache bound (8 entries per node) is set only while the
    machine config still has that knob.
    """
    from repro.machine.config import SP_1998

    cfg = SP_1998.replace(topology="fattree")
    if "route_cache_entries" in {f.name for f in dataclasses.fields(cfg)}:
        cfg = cfg.replace(route_cache_entries=8 * NODES)
    return cfg


def make_plan(seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    return {"seed": seed,
            "payload": [rng.bytes(NBYTES) for _ in range(NODES)]}


def run_rep(plan: dict, profiler=None) -> Rep:
    from repro.machine import Cluster

    rep = Rep()
    cfg = config()
    cluster = build(rep, lambda: Cluster(NODES, config=cfg,
                                         seed=plan["seed"]))
    windows = {}
    done = [0]

    def main(task):
        lapi, mem = task.lapi, task.memory
        window = mem.malloc(NBYTES)
        src = mem.malloc(NBYTES)
        mem.write(src, plan["payload"][task.rank])
        windows[task.rank] = (mem, window)
        yield from lapi.gfence()
        done[0] += 1
        yield from lapi.put((task.rank + 1) % task.size, NBYTES, window, src)
        yield from lapi.fence()
        done[0] += 1
        yield from lapi.gfence()
        done[0] += 1

    err = timed_job(rep, cluster, main, profiler, stacks=("lapi",))
    virtual_us = cluster.sim.now
    rep.attempted = 3 * NODES
    rep.failed = rep.attempted - done[0]
    if err is not None:
        rep.error(f"{NAME}: {type(err).__name__}: {err}")
    counters = finish_cluster(rep, NAME, cluster)

    wrong = sum(mem.read(addr, NBYTES) != plan["payload"][(r - 1) % NODES]
                for r, (mem, addr) in windows.items())
    rep.failed += wrong
    if wrong:
        rep.error(f"{NAME}: {wrong} ring puts left wrong data")
    pinned = PINNED.get(plan["seed"])
    if pinned is not None:
        rep.check("pinned virtual_us / packets_routed of this seed",
                  abs(virtual_us - pinned["virtual_us"]) <= 1e-6
                  and counters["packets_routed"] == pinned["packets_routed"],
                  f"{virtual_us!r} us, {counters['packets_routed']} routed")
    return rep
