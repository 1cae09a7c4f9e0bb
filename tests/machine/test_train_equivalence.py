"""Golden equivalence: SoA packet trains vs the per-packet object path.

The struct-of-arrays train lane (``MachineConfig.soa_trains``) collapses
a peeled train interior into one :class:`~repro.machine.train.PacketTrain`
record with columnar state and three bound-method stage callbacks.  Like
every fast lane in this repo it must be an invisible wall-clock
optimization: every virtual-time observable -- final clocks, kernel
event counts, rendered metrics blocks, bench tables, span streams -- is
diffed here between lane-on and lane-off runs of the same workload, and
each condition that must disengage the lane (loss, fault schedules,
multipath fabrics, span tracing, structured tracing) is pinned down via
the adapter's ``soa_*`` counters.  The whole suite runs under both
pending-queue backends.
"""

import pytest

from repro.bench import runner
from repro.bench.bandwidth import run_fig2
from repro.bench.latency import run_table2
from repro.faults import FaultSchedule, LinkOutage
from repro.machine import Cluster
from repro.machine.config import SP_1998
from repro.obs import SpanRecorder
from repro.sim import SCHEDULERS, Tracer

NBYTES = 262144  # enough packets for several trains


def _put_job(nbytes, target):
    def main(task):
        lapi = task.lapi
        mem = task.memory
        buf = mem.malloc(nbytes)
        yield from lapi.gfence()
        if task.rank == 0:
            src = mem.malloc(nbytes)
            cmpl = lapi.counter()
            yield from lapi.put(target, nbytes, buf, src,
                                cmpl_cntr=cmpl)
            yield from lapi.waitcntr(cmpl, 1)
        yield from lapi.gfence()
    return main


def _run(config, job, nnodes=2, *, scheduler="calendar", spans=False,
         faults=None, trace=False, seed=0x50A):
    cluster = Cluster(nnodes=nnodes, config=config, seed=seed,
                      scheduler=scheduler,
                      spans=SpanRecorder() if spans else None,
                      trace=Tracer() if trace else None,
                      faults=faults)
    cluster.run_job(job, stacks=("lapi",), interrupt_mode=False)
    return cluster


def _soa_packets(cluster):
    return sum(n.adapter.soa_packets for n in cluster.nodes)


def _soa_fallbacks(cluster):
    return sum(n.adapter.soa_fallbacks for n in cluster.nodes)


def _train_packets(cluster):
    return sum(n.adapter.train_packets for n in cluster.nodes)


def _observables(cluster):
    """Every surface the equivalence contract covers (pools excluded:
    pool hit counts legitimately differ between lane-on and lane-off)."""
    return {
        "now": cluster.sim.now,
        "events": cluster.sim.events_processed,
        "metrics": cluster.metrics.render(),
        "spans": (cluster.spans.span_dicts()
                  if cluster.spans is not None else None),
    }


def _assert_soa_equivalent(config, job, nnodes=2, *,
                           scheduler="calendar", spans=False,
                           faults_factory=None):
    """Same job with the SoA lane on/off: identical physics; the off
    run must never touch the lane.  Returns the lane-on cluster."""
    clusters = {}
    obs = {}
    for flag in (True, False):
        c = _run(config.replace(soa_trains=flag), job, nnodes,
                 scheduler=scheduler, spans=spans,
                 faults=faults_factory() if faults_factory else None)
        clusters[flag] = c
        obs[flag] = _observables(c)
    assert obs[True] == obs[False]
    assert _soa_packets(clusters[False]) == 0
    return clusters[True]


class TestSoaEquivalence:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_canonical_put_identical_and_engaged(self, scheduler):
        on = _assert_soa_equivalent(SP_1998, _put_job(NBYTES, 1),
                                    scheduler=scheduler)
        # The clean 2-node put is the canonical train workload; if the
        # SoA lane does not engage there, it is dead code.
        assert _soa_packets(on) > 0
        assert _soa_packets(on) == _train_packets(on)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_lossy_config_disengages(self, scheduler):
        # Loss disables train peeling entirely (packet identity is
        # needed for every loss draw), so the SoA lane never sees a
        # train to collapse.
        cfg = SP_1998.replace(loss_rate=0.02)
        on = _assert_soa_equivalent(cfg, _put_job(NBYTES, 1),
                                    scheduler=scheduler)
        assert _soa_packets(on) == 0
        assert _train_packets(on) == 0

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_fault_schedule_disengages(self, scheduler):
        # A mid-run outage forces retransmissions; the faults judge
        # needs per-packet draws, so peeling (and the lane) must stay
        # off for the whole run.
        def sched():
            return FaultSchedule([LinkOutage(src=0, dst=1,
                                             start=200.0, end=400.0)])
        on = _assert_soa_equivalent(SP_1998, _put_job(NBYTES, 1),
                                    faults_factory=sched,
                                    scheduler=scheduler)
        assert _soa_packets(on) == 0

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_fattree_multipath_disengages(self, scheduler):
        # Cross-pod fat-tree pairs have multiple candidate routes (8 of
        # them at 32 nodes); the per-packet RNG draw needs packet
        # identity, so the train peel (and with it the SoA lane) must
        # fall back.
        cfg = SP_1998.replace(topology="fattree")
        on = _assert_soa_equivalent(cfg, _put_job(NBYTES, 16),
                                    nnodes=32, scheduler=scheduler)
        assert len(on.switch.template(0, 16).middles) > 1
        assert _soa_packets(on) == 0

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_span_tracing_disengages_but_keeps_trains(self, scheduler):
        # Span tracing observes per-packet identity mid-flight
        # (bind_packets on the interior), so the SoA lane must yield to
        # the PR-2 timer train -- which stays engaged -- and the span
        # streams must be byte-identical with the lane flag on or off.
        on = _assert_soa_equivalent(SP_1998, _put_job(NBYTES, 1),
                                    spans=True, scheduler=scheduler)
        assert on.spans is not None and on.spans.span_dicts()
        assert _soa_packets(on) == 0
        assert _soa_fallbacks(on) > 0
        assert _train_packets(on) > 0

    def test_structured_tracing_disengages(self):
        # A Tracer wants a record per pipeline hop; the lane skips
        # those hops, so it must fall back when tracing is armed.
        on = _run(SP_1998, _put_job(NBYTES, 1), trace=True)
        off = _run(SP_1998.replace(soa_trains=False),
                   _put_job(NBYTES, 1), trace=True)
        assert on.sim.now == off.sim.now
        assert on.sim.events_processed == off.sim.events_processed
        assert _soa_packets(on) == 0
        assert _soa_fallbacks(on) > 0

    def test_fallback_counter_stays_zero_on_clean_engage(self):
        on = _run(SP_1998, _put_job(NBYTES, 1))
        assert _soa_fallbacks(on) == 0


def _flip_soa(flag):
    """Flip the shared SP_1998 instance (frozen dataclass) in place.

    The bench experiments bind the singleton as their default config,
    so this is the only way to steer them without re-plumbing every
    entry point; tests restore the field in ``finally``.
    """
    object.__setattr__(SP_1998, "soa_trains", flag)


def _bench_suite():
    """Reduced fig2 + table2 under full observability."""
    fig2 = run_fig2(sizes=[1024, 16384])
    fig2_caps = runner.drain_captures()
    table2 = run_table2()
    table2_caps = runner.drain_captures()
    caps = fig2_caps + table2_caps
    return {
        "fig2_render": fig2.render(),
        "table2_render": table2.render(),
        "metrics": [c.metrics_block for c in caps],
        "virtual_us": [c.now for c in caps],
        "events": [c.events for c in caps],
        "spans": [c.spans for c in caps],
    }


class TestBenchEquivalence:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_fig2_and_table2_byte_identical(self, scheduler,
                                            monkeypatch):
        """The acceptance check: real bench experiments produce
        byte-identical tables, metrics blocks, virtual times, and span
        streams with the SoA lane on or off, under both schedulers."""
        monkeypatch.setenv("REPRO_SIM_SCHEDULER", scheduler)
        runner.configure_observability(metrics=True, capture=True,
                                       spans=True)
        try:
            _flip_soa(True)
            on = _bench_suite()
            _flip_soa(False)
            off = _bench_suite()
        finally:
            _flip_soa(True)
            runner.configure_observability()
        assert on["spans"][0], "expected span records"
        assert on == off
