"""``chaos``: LAPI put/get between 8 nodes under injected faults.

Every rank issues a fixed set of puts and gets (512 B to 64 KB, each
awaited before the next) to seeded peers, while the fabric drops
packets in bursts (a Gilbert-Elliott chain on every link) and one
seeded link goes dark for a finite window.  The heartbeat failure
detector is armed, and so are all virtual-time observers: causal
spans, the windowed telemetry with the default SLO rules, and the
flight recorder.  This is the workload where the fault model,
retransmission, the detector and the observers do real work.
"""

from __future__ import annotations

import numpy as np

from common import Rep, build, finish_cluster, timed_job

NAME = "chaos"
#: Host CPU seconds of one rep, nominal: sets the reps per run.
REP_S = 1.1
NODES = 8
#: Every rank puts and gets each of these sizes ``ROUNDS`` times, in
#: seeded order, spreading its operations evenly over its peers.
SIZES = tuple(512 << i for i in range(8))   # 512 B .. 64 KB
ROUNDS = 2
WINDOW = SIZES[-1]
#: The bursty loss on every link: about 2% of packet traversals find a
#: link in its bad state, which loses half of them, for two packets on
#: average.
BURST = {"p_good_bad": 0.01, "p_bad_good": 0.5, "loss_bad": 0.5}
#: The link outage: its length, and the span its start is drawn from
#: (virtual us; the fault-free run takes a few milliseconds).
OUTAGE_US = 500.0
OUTAGE_START_US = (200.0, 3000.0)


def make_plan(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    ops = []
    for rank in range(NODES):
        mine = [(kind, n) for kind in ("put", "get") for n in SIZES] * ROUNDS
        peers = [p for p in range(NODES) if p != rank]
        peers = peers * (len(mine) // len(peers) + 1)
        peers = [peers[i] for i in rng.permutation(len(mine))]
        ops.append([(kind, peer, n, rng.bytes(n)) for (kind, n), peer in
                    zip((mine[i] for i in rng.permutation(len(mine))),
                        peers)])
    src, dst = (int(x) for x in rng.choice(NODES, 2, replace=False))
    start = float(rng.uniform(*OUTAGE_START_US))
    return {"seed": seed, "ops": ops,
            "exposed": [rng.bytes(WINDOW) for _ in range(NODES)],
            "outage": (src, dst, start, start + OUTAGE_US)}


def _cluster(plan: dict):
    from repro.faults import FaultSchedule, GilbertElliott, LinkOutage
    from repro.machine import Cluster
    from repro.machine.config import SP_1998
    from repro.obs import SpanRecorder, TelemetryConfig, default_rules

    src, dst, start, end = plan["outage"]
    schedule = FaultSchedule([
        GilbertElliott(**BURST),
        LinkOutage(src=src, dst=dst, start=start, end=end)])
    spans = SpanRecorder()
    cluster = Cluster(NODES, config=SP_1998.replace(failure_detector=True),
                      seed=plan["seed"], spans=spans, faults=schedule,
                      telemetry=TelemetryConfig(slo=default_rules()))
    return cluster, spans


def run_rep(plan: dict, profiler=None) -> Rep:
    rep = Rep()
    cluster, spans = build(rep, lambda: _cluster(plan))
    done = [0]
    got = {}
    windows = {}

    def main(task):
        lapi, mem, rank = task.lapi, task.memory, task.rank
        # Symmetric allocation: one receive window per origin, one
        # exposed region for gets, and local staging buffers.
        inbox = [mem.malloc(WINDOW) for _ in range(NODES)]
        exposed = mem.malloc(WINDOW)
        src = mem.malloc(WINDOW)
        dst = mem.malloc(WINDOW)
        mem.write(exposed, plan["exposed"][rank])
        windows[rank] = (mem, inbox)
        cntr = lapi.counter()
        yield from lapi.gfence()
        done[0] += 1
        for k, (kind, peer, n, data) in enumerate(plan["ops"][rank]):
            if kind == "put":
                mem.write(src, data)
                yield from lapi.put(peer, n, inbox[rank], src,
                                    cmpl_cntr=cntr)
            else:
                yield from lapi.get(peer, n, exposed, dst, org_cntr=cntr)
            yield from lapi.waitcntr(cntr, 1)
            if kind == "get":
                got[(rank, k)] = mem.read(dst, n)
            done[0] += 1
        yield from lapi.gfence()
        done[0] += 1

    err = timed_job(rep, cluster, main, profiler, stacks=("lapi",))
    nops = sum(len(ops) for ops in plan["ops"]) + 2 * NODES
    rep.attempted = nops
    rep.failed = nops - done[0]
    if err is not None:
        rep.error(f"{NAME}: {type(err).__name__}: {err}")
    finish_cluster(rep, NAME, cluster, spans)
    if err is None:
        _verify(rep, plan, got, windows)
    return rep


def _verify(rep: Rep, plan: dict, got: dict, windows: dict) -> None:
    """Every get read its peer's exposed bytes; every window holds the
    puts its origin made to it, in program order."""
    expect = {}
    wrong = 0
    for rank, ops in enumerate(plan["ops"]):
        for k, (kind, peer, n, data) in enumerate(ops):
            if kind == "get":
                wrong += got.get((rank, k)) != plan["exposed"][peer][:n]
            else:
                buf = expect.setdefault((peer, rank), bytearray(WINDOW))
                buf[:n] = data
    for (target, origin), buf in expect.items():
        mem, inbox = windows[target]
        wrong += mem.read(inbox[origin], WINDOW) != bytes(buf)
    rep.failed += wrong
    if wrong:
        rep.error(f"{NAME}: {wrong} operations read or left wrong data")
