"""``ga_mix``: seeded Global Arrays put/get/acc plans on 4 nodes.

Each rank runs a plan of GA ``put``/``get``/``acc`` calls on 1-D column
sections and 2-D square patches, 8 B to 128 KB, spread over all four
owner blocks (its own included).  A plan is a few rounds closed by
``ga.sync()``.  Within a round:

* puts go to array ``A`` and cover pairwise disjoint regions, so the
  final ``A`` does not depend on message order;
* gets read ``A`` outside that round's put regions, so each read has
  one right answer: ``A`` as the earlier rounds left it;
* accumulates add integer-valued data to array ``B``; the sums are exact
  in any order.

The plan runs once on the LAPI backend and once on the MPL backend,
each on a fresh cluster.  The benchmark computes the reference arrays
with NumPy and checks every get and both final arrays against them.

Two known defects show here, and the operations they cost count as
failed (see NOTES.md): on the LAPI backend, many-to-one strided puts
can exhaust the target's AM buffer pool and abort the job; on the MPL
backend, a put or accumulate can be lost without an error.  A job that
aborts loses the round it was in; the rounds after it run on a fresh
cluster, from zeroed arrays, so every seed runs the whole plan.
"""

from __future__ import annotations

import numpy as np

from common import Rep, build, cluster_counters, finish_cluster, timed_job

NAME = "ga_mix"
#: Host CPU seconds of one rep, nominal: sets the reps per run.
REP_S = 2.2
NODES = 4
DIMS = (1024, 1024)
#: Owner blocks of a 1024x1024 array on a 2x2 process grid.
BLOCK = 512
#: A multiple of NODES, so every operation visits every owner.
ROUNDS = 4
#: The section shapes (rows, cols) every rank issues once per kind and
#: round: 1-D columns of 8 B to 2 KB and square patches of 32 B to
#: 128 KB.  A fixed set keeps the bytes moved per plan equal across
#: seeds; the seed draws the order, the owner rotation, the positions
#: and the data.
SHAPES = ((1, 1), (16, 1), (256, 1), (2, 2), (8, 8), (16, 16), (64, 64),
          (128, 128))
KINDS = ("put", "get", "acc")


class _NoRoom(Exception):
    """No position in the owner block is clear for a section."""


def _summed_area(taken, owner):
    """The summed-area table of ``owner``'s block of a boolean grid."""
    i_base, j_base = (owner // 2) * BLOCK, (owner % 2) * BLOCK
    block = taken[i_base:i_base + BLOCK, j_base:j_base + BLOCK]
    sat = np.zeros((BLOCK + 1, BLOCK + 1), dtype=np.int32)
    sat[1:, 1:] = block.cumsum(0, dtype=np.int32).cumsum(1)
    return sat


def _place(rng, owner, shape, sat=None):
    """A section of ``shape`` at a random position in ``owner``'s block.

    With ``sat`` (see :func:`_summed_area`), the position is drawn from
    those clear of the cells it counts.
    """
    rows, cols = shape
    i_base, j_base = (owner // 2) * BLOCK, (owner % 2) * BLOCK
    if sat is None:
        i0 = int(rng.integers(BLOCK - rows + 1))
        j0 = int(rng.integers(BLOCK - cols + 1))
    else:
        # Cells taken in every rows x cols window.
        busy = (sat[rows:, cols:] - sat[:-rows, cols:]
                - sat[rows:, :-cols] + sat[:-rows, :-cols])
        free = np.flatnonzero(busy == 0)
        if not free.size:
            raise _NoRoom
        i0, j0 = divmod(int(free[rng.integers(free.size)]), busy.shape[1])
    i0, j0 = i_base + i0, j_base + j0
    return (i0, i0 + rows - 1, j0, j0 + cols - 1)


def _layout(rng, order) -> dict:
    """The sections of one round's puts and gets: ``{(rank, k): section}``.

    Puts are placed first, pairwise disjoint, then gets clear of them;
    each kind largest first.  When the puts leave a get no room, the
    round is laid out again from fresh draws (deterministic per seed).
    """
    items = sorted(((kind, -shape[0] * shape[1], rank, k)
                    for rank, ops in enumerate(order)
                    for k, (kind, shape, _) in enumerate(ops)
                    if kind != "acc"), key=lambda item: (item[0] != "put",
                                                         item[1:]))
    while True:
        written = np.zeros(DIMS, dtype=bool)
        sats = {}
        secs = {}
        try:
            for kind, _, rank, k in items:
                _, shape, owner = order[rank][k]
                if owner not in sats:
                    sats[owner] = _summed_area(written, owner)
                sec = secs[(rank, k)] = _place(rng, owner, shape,
                                               sats[owner])
                if kind == "put":
                    ilo, ihi, jlo, jhi = sec
                    written[ilo:ihi + 1, jlo:jhi + 1] = True
                    del sats[owner]
        except _NoRoom:
            continue
        return secs


def make_plan(seed: int) -> dict:
    """Per rank, per round, a shuffled list of operations."""
    rng = np.random.default_rng([seed, 3])
    ops = [[[] for _ in range(ROUNDS)] for _ in range(NODES)]
    mine = [(kind, shape) for kind in KINDS for shape in SHAPES]
    # Operation j of a rank goes to owner (offset + round) % NODES: over
    # the ROUNDS rounds it visits every owner once.
    offsets = rng.integers(NODES, size=(NODES, len(mine)))
    for rnd in range(ROUNDS):
        order = []
        for rank in range(NODES):
            owners = (offsets[rank] + rnd) % NODES
            order.append([mine[i] + (int(owners[i]),)
                          for i in rng.permutation(len(mine))])
        secs = _layout(rng, order)
        for rank in range(NODES):
            ops[rank][rnd] = [None] * len(order[rank])
            for k, (kind, shape, owner) in enumerate(order[rank]):
                sec = secs.get((rank, k)) or _place(rng, owner, shape)
                if kind == "put":
                    blob = rng.standard_normal(shape).tobytes(order="F")
                elif kind == "acc":
                    blob = rng.integers(-8, 9, shape).astype(
                        np.float64).tobytes(order="F")
                else:
                    blob = None
                ops[rank][rnd][k] = (kind, sec, blob)
    return {"seed": seed, "ops": ops}


def _reference(plan: dict, start: int) -> dict:
    """What rounds ``start`` on must produce from zeroed arrays: the
    bytes of every get, and the final ``A`` and ``B``."""
    a = np.zeros(DIMS)
    b = np.zeros(DIMS)
    gets = {}
    for rnd in range(start, ROUNDS):
        after = a.copy()
        for rank in range(NODES):
            for k, (kind, (ilo, ihi, jlo, jhi), blob) in enumerate(
                    plan["ops"][rank][rnd]):
                cells = (slice(ilo, ihi + 1), slice(jlo, jhi + 1))
                shape = (ihi - ilo + 1, jhi - jlo + 1)
                if kind == "get":
                    gets[(rank, rnd, k)] = a[cells].tobytes(order="F")
                elif kind == "put":
                    after[cells] = np.frombuffer(blob).reshape(shape,
                                                               order="F")
                else:
                    b[cells] += np.frombuffer(blob).reshape(shape, order="F")
        a = after
    return {"gets": gets, "a": a, "b": b}


def _run_plan(rep: Rep, plan: dict, seed: int, backend: str,
              profiler) -> None:
    """The whole plan on one backend: one job, and one more on a fresh
    cluster after each round a job aborts in."""
    timed_s = rep.timed_s
    issued = [0]
    start = 0
    while start < ROUNDS:
        start = _run_rounds(rep, plan, seed, backend, profiler, start,
                            issued)
    rep.jobs.append((issued[0], rep.timed_s - timed_s))


def _run_rounds(rep: Rep, plan: dict, seed: int, backend: str, profiler,
                start: int, issued: list) -> int:
    """Rounds ``start`` on, as one job on a fresh cluster.  Returns the
    round to go on from: ``ROUNDS``, or the one after an abort."""
    from repro.machine import Cluster

    label = f"{NAME}/{backend}/seed{seed}"
    if start:
        label += f"/from-round{start}"
    ref = _reference(plan, start)
    cluster = build(rep, lambda: Cluster(NODES, seed=seed))
    done = [0]
    reached = [start]
    #: Per get ``(rank, round, k)``: whether it read the right bytes.
    got = {}
    #: Per put ``(round, rank, k)``: the bytes its owner held after the
    #: round.
    landed = {}
    #: Per rank: the cells of its blocks of ``A`` and ``B`` that differ
    #: from the reference at the end.
    wrong = {}

    def main(task):
        ga, mem, rank = task.ga, task.memory, task.rank
        ha = yield from ga.create(DIMS, name="A")
        hb = yield from ga.create(DIMS, name="B")
        blk = ga.distribution(ha)
        mine = (slice(blk.ilo, blk.ihi + 1), slice(blk.jlo, blk.jhi + 1))
        for rnd in range(start, ROUNDS):
            reached[0] = max(reached[0], rnd)
            stored = 0
            for k, (kind, sec, blob) in enumerate(plan["ops"][rank][rnd]):
                addr = ga.alloc_local(sec)
                issued[0] += 1
                if kind == "get":
                    yield from ga.get(ha, sec, addr)
                    got[(rank, rnd, k)] = (mem.read(addr, _nbytes(sec))
                                           == ref["gets"][(rank, rnd, k)])
                    done[0] += 1
                else:
                    mem.write(addr, blob)
                    if kind == "put":
                        yield from ga.put(ha, sec, addr)
                    else:
                        yield from ga.acc(hb, sec, addr, 1.0)
                    stored += 1
                ga.free_local(addr)
            # A store is complete once the sync closing its round is.
            yield from ga.sync()
            done[0] += stored
            a = ga.access(ha)
            for origin in range(NODES):
                for k, (kind, (ilo, ihi, jlo, jhi), _) in enumerate(
                        plan["ops"][origin][rnd]):
                    if kind == "put" and blk.ilo <= ilo <= blk.ihi \
                            and blk.jlo <= jlo <= blk.jhi:
                        landed[(rnd, origin, k)] = a[
                            ilo - blk.ilo:ihi - blk.ilo + 1,
                            jlo - blk.jlo:jhi - blk.jlo + 1].tobytes(order="F")
            if rnd == ROUNDS - 1:
                wrong[rank] = (mine, a != ref["a"][mine],
                               ga.access(hb) != ref["b"][mine])
            # No rank may write the next round's data into a block
            # before its owner has read this round's.
            yield from ga.sync()

    err = timed_job(rep, cluster, main, profiler, ga_backend=backend)
    end = ROUNDS if err is None else reached[0] + 1
    nops = NODES * (end - start) * len(KINDS) * len(SHAPES)
    rep.attempted += nops
    rep.failed += nops - done[0]
    if err is not None:
        rep.error(f"{label}: {type(err).__name__}: {err}"
                  f" ({nops - done[0]} of {nops} ops lost)")
        # The aborted job leaves packets in flight, so conservation is
        # audited on completed jobs only.
        rep.add_counters(cluster_counters(cluster))
    else:
        finish_cluster(rep, label, cluster)
    _verify(rep, plan, label, got, landed, range(start, ROUNDS),
            wrong if err is None and len(wrong) == NODES else None)
    return end


def _verify(rep: Rep, plan: dict, label: str, got: dict, landed: dict,
            rounds: range, wrong) -> None:
    """Check every get, every put (in the round it closed), and, after a
    completed job, both final arrays.

    An operation whose data is wrong counts as failed.  Cells that are
    wrong without a failed operation to blame fail the run's check.
    """
    wrong_gets = sum(not ok for ok in got.values())
    blamed = np.zeros(DIMS, dtype=bool)
    lost_puts = lost_accs = 0
    for (rnd, origin, k), blob in landed.items():
        _, (ilo, ihi, jlo, jhi), sent = plan["ops"][origin][rnd][k]
        if blob != sent:
            lost_puts += 1
            blamed[ilo:ihi + 1, jlo:jhi + 1] = True
    ok = True
    if wrong is not None:
        bad_a = np.zeros(DIMS, dtype=bool)
        bad_b = np.zeros(DIMS, dtype=bool)
        for mine, a, b in wrong.values():
            bad_a[mine] = a
            bad_b[mine] = b
        for rank_ops in plan["ops"]:
            for rnd in rounds:
                for kind, (ilo, ihi, jlo, jhi), _ in rank_ops[rnd]:
                    if kind == "acc" and bad_b[ilo:ihi + 1,
                                               jlo:jhi + 1].any():
                        lost_accs += 1
        ok = not (bad_a & ~blamed).any()
    failed = wrong_gets + lost_puts + lost_accs
    rep.failed += failed
    if failed:
        rep.error(f"{label}: wrong data: {wrong_gets} gets, {lost_puts} puts,"
                  f" {lost_accs} accs")
    rep.check(f"{label}: no wrong cell outside a failed operation", ok)


def _nbytes(sec) -> int:
    ilo, ihi, jlo, jhi = sec
    return (ihi - ilo + 1) * (jhi - jlo + 1) * 8


def run_rep(plan: dict, profiler=None) -> Rep:
    rep = Rep()
    for backend in ("lapi", "mpl"):
        _run_plan(rep, plan, plan["seed"] * 1000, backend, profiler)
    return rep
