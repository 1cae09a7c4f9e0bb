"""``bulk``: 2 MB messages between two nodes, in three legs.

Rank 0 streams ``MSGS`` messages of 2 MB to rank 1 as ``LAPI_Put``
(awaited on the completion counter), then reads ``MSGS`` of them back
with ``LAPI_Get`` (awaited on the origin counter), then sends ``MSGS``
with MPL send/recv, each confirmed by a zero-byte reply (2 MB is far
above the eager limit, so every send takes the rendezvous protocol).
This is the large-message regime: the kernel and the adapter TX lane
(packet trains, pools) do nearly all the work.
"""

from __future__ import annotations

import numpy as np

from common import Rep, build, finish_cluster, timed_job

NAME = "bulk"
#: Host CPU seconds of one rep, nominal: sets the reps per run.
REP_S = 1.3
NBYTES = 2 * 1024 * 1024
MSGS = 2

#: Simulated one-way bandwidth (MB/s) of each message of each leg.  A
#: 2-node SP makes no random choices on this path, so these hold on
#: every seed.
PINNED_MBS = {"put": (96.80822168649712, 96.81310289634801),
              "get": (96.77289600666002, 96.77289600672842),
              "mpl": (99.54082089463495, 99.59070702075933)}


def make_plan(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    return {
        "seed": seed,
        "put": [rng.bytes(NBYTES) for _ in range(MSGS)],
        "get": [rng.bytes(NBYTES) for _ in range(MSGS)],
        "mpl": [rng.bytes(NBYTES) for _ in range(MSGS)],
    }


def run_rep(plan: dict, profiler=None) -> Rep:
    from repro.machine import Cluster

    rep = Rep()
    cluster = build(rep, lambda: Cluster(2, seed=plan["seed"]))
    done = {"put": 0, "get": 0, "mpl": 0, "gfence": 0}
    vtimes = {"put": [], "get": [], "mpl": []}
    bufs = {}

    def main(task):
        lapi, mpl, mem = task.lapi, task.mpl, task.memory
        # Symmetric allocation: both ranks get the same addresses.
        src = mem.malloc(NBYTES)
        put_win = [mem.malloc(NBYTES) for _ in range(MSGS)]
        exposed = [mem.malloc(NBYTES) for _ in range(MSGS)]
        got = [mem.malloc(NBYTES) for _ in range(MSGS)]
        recv = [mem.malloc(NBYTES) for _ in range(MSGS)]
        bufs[task.rank] = (mem, put_win, got, recv)
        if task.rank == 1:
            for addr, data in zip(exposed, plan["get"]):
                mem.write(addr, data)
        yield from lapi.gfence()
        done["gfence"] += 1
        if task.rank == 0:
            cntr = lapi.counter()
            for j in range(MSGS):
                mem.write(src, plan["put"][j])
                t0 = task.now()
                yield from lapi.put(1, NBYTES, put_win[j], src,
                                    cmpl_cntr=cntr)
                yield from lapi.waitcntr(cntr, 1)
                vtimes["put"].append(task.now() - t0)
                done["put"] += 1
            for j in range(MSGS):
                t0 = task.now()
                yield from lapi.get(1, NBYTES, exposed[j], got[j],
                                    org_cntr=cntr)
                yield from lapi.waitcntr(cntr, 1)
                vtimes["get"].append(task.now() - t0)
                done["get"] += 1
        # Rank 1 makes LAPI progress (polling mode) inside this fence.
        yield from lapi.gfence()
        done["gfence"] += 1
        if task.rank == 0:
            for j in range(MSGS):
                mem.write(src, plan["mpl"][j])
                t0 = task.now()
                yield from mpl.send(1, src, NBYTES, tag=1)
                yield from mpl.recv_bytes(1, tag=2)
                vtimes["mpl"].append(task.now() - t0)
                done["mpl"] += 1
        else:
            for j in range(MSGS):
                yield from mpl.recv(0, 1, recv[j], NBYTES)
                yield from mpl.send(0, b"", 0, tag=2)
        yield from lapi.gfence()
        done["gfence"] += 1

    err = timed_job(rep, cluster, main, profiler, stacks=("lapi", "mpl"),
                    interrupt_mode=False)
    rep.attempted = 3 * MSGS + 3 * 2
    rep.failed = rep.attempted - sum(done.values())
    if err is not None:
        rep.error(f"{NAME}: {type(err).__name__}: {err}")
    finish_cluster(rep, NAME, cluster)

    mem0, _, got, _ = bufs[0]
    mem1, put_win, _, recv = bufs[1]
    for leg, mem, addrs in (("put", mem1, put_win), ("get", mem0, got),
                            ("mpl", mem1, recv)):
        wrong = sum(mem.read(addrs[j], NBYTES) != plan[leg][j]
                    for j in range(len(vtimes[leg])))
        rep.failed += wrong
        if wrong:
            rep.error(f"{NAME}: {wrong} {leg} messages arrived wrong")
    for leg, times in vtimes.items():
        mbs = [NBYTES / t for t in times]
        pinned = PINNED_MBS[leg]
        rep.check(f"{leg}: pinned simulated bandwidth"
                  f" {pinned[0]:.2f} MB/s",
                  len(mbs) == MSGS and all(
                      abs(v - p) <= 1e-9 * p for v, p in zip(mbs, pinned)),
                  ", ".join(f"{v:.6f}" for v in mbs))
    return rep
