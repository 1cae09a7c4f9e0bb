"""Absolute pins for the adapter TX engine on 2-node LAPI puts.

The TX engine and the ``call_at`` fast timers it runs on are simulator
structure, not physics: every virtual-time observable -- completion
times, bandwidths, per-subsystem metrics -- is pinned here as an
absolute value, so the engine can be restructured freely.  The cases
cover each way per-packet timing can vary: a clean same-group put,
fabric loss, a jittered core route, multiple routes, a jitter-free
single core route, a non-contiguous ``putv``, a link-outage fault
schedule, and span recording (which must not move anything).
"""

import hashlib

from repro.faults import FaultSchedule, LinkOutage
from repro.machine import Cluster
from repro.machine.config import SP_1998
from repro.obs import SpanRecorder
from repro.sim import Simulator

NBYTES = 262144  # 256 KB: a few hundred back-to-back packets

#: (final clock, sha256 of ``metrics.render()``, events processed) per
#: case.  Clock and digest were generated with the process-driven TX
#: engine and its packet-train lane; the callback engine reproduces
#: them bit for bit.  Event counts are the callback engine's own.
PINS = {
    "clean_put": (
        2861.128830409369,
        "cc661bfd3e84648ce7bc4ab46c572cc2c0d59bbde209360448b92dc6f0cfa85f",
        3180),
    "lossy_put": (
        4652.123333333328,
        "113aa8b892306130d72180dc48418deb0d1d310d807107f969bdb9769de4e21c",
        3237),
    "core_jitter_put": (
        2885.081423888918,
        "906575381e4739d09a1e22f11a928266948bd250d841a467ee7c22b7639dbc56",
        3192),
    "multi_route_put": (
        2884.746608187148,
        "05391c6426770ca1b6b3238863140e05e905f423a848d1d3698c047362679a4e",
        3192),
    "single_core_route_put": (
        2884.746608187148,
        "1ef0f0f4d2762cce44ee23aed778348790ee6a50fc5b88b5db6c1c4ced6ed3ff",
        3192),
    "putv": (
        857.9648538011685,
        "de14c194596efa80f6c0f2aebe26ea315e3627e392abfcfc361ceee6d780654e",
        865),
    "link_outage_put": (
        3198.628888888912,
        "6d8963c20c3f553d793de80b0cc412ed45a60c1a4c6f4aeea15e7e65ec41bb98",
        3483),
}


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


def _putv_job(nbytes, target, stride=4096, run_len=1024):
    def main(task):
        lapi = task.lapi
        mem = task.memory
        buf = mem.malloc(nbytes)
        yield from lapi.gfence()
        if task.rank == 0:
            src = mem.malloc(nbytes)
            cmpl = lapi.counter()
            runs = [(buf + off, src + off, run_len)
                    for off in range(0, nbytes - run_len, stride)]
            yield from lapi.putv(target, runs, cmpl_cntr=cmpl)
            yield from lapi.waitcntr(cmpl, 1)
        yield from lapi.gfence()
    return main


def _run(config, job, nnodes=2, seed=0xFA57, **kwargs):
    cluster = Cluster(nnodes=nnodes, config=config, seed=seed, **kwargs)
    cluster.run_job(job, stacks=("lapi",), interrupt_mode=False)
    return cluster


def _assert_pinned(case, cluster):
    digest = hashlib.sha256(cluster.metrics.render().encode()).hexdigest()
    observed = (cluster.sim.now, digest, cluster.sim.events_processed)
    assert observed == PINS[case]


class TestTxEnginePins:
    def test_clean_put_pinned(self):
        _assert_pinned("clean_put", _run(SP_1998, _put_job(NBYTES, 1)))

    def test_lossy_put_pinned(self):
        cfg = SP_1998.replace(loss_rate=0.02)
        _assert_pinned("lossy_put", _run(cfg, _put_job(NBYTES, 1)))

    def test_core_jitter_put_pinned(self):
        # group_size=1 puts the two nodes in different groups;
        # mid_count=1 keeps a single, jittered core route.
        cfg = SP_1998.replace(switch_group_size=1, switch_mid_count=1)
        assert cfg.route_jitter > 0.0
        _assert_pinned("core_jitter_put", _run(cfg, _put_job(NBYTES, 1)))

    def test_multi_route_put_pinned(self):
        cfg = SP_1998.replace(switch_group_size=1, route_jitter=0.0)
        assert cfg.switch_mid_count > 1
        _assert_pinned("multi_route_put", _run(cfg, _put_job(NBYTES, 1)))

    def test_single_core_route_put_pinned(self):
        cfg = SP_1998.replace(switch_group_size=1, switch_mid_count=1,
                              route_jitter=0.0)
        _assert_pinned("single_core_route_put",
                       _run(cfg, _put_job(NBYTES, 1)))

    def test_putv_pinned(self):
        _assert_pinned("putv", _run(SP_1998, _putv_job(NBYTES, 1)))

    def test_link_outage_put_pinned(self):
        sched = FaultSchedule([LinkOutage(src=0, dst=1, start=200.0,
                                          end=400.0)])
        _assert_pinned("link_outage_put",
                       _run(SP_1998, _put_job(NBYTES, 1), faults=sched))

    def test_spans_on_pinned_and_invisible(self):
        # Span recording observes every hop of every packet yet leaves
        # virtual time and the event count untouched.
        bare = _run(SP_1998, _put_job(NBYTES, 1))
        traced = _run(SP_1998, _put_job(NBYTES, 1), spans=SpanRecorder())
        assert traced.spans.span_dicts()
        _assert_pinned("clean_put", traced)
        assert traced.sim.now == bare.sim.now
        assert (traced.sim.events_processed
                == bare.sim.events_processed)
        assert traced.metrics.render() == bare.metrics.render()


class TestPerfHarnessPlumbing:
    def test_capture_retains_clusters_without_metrics(self):
        from repro.bench import runner
        runner.configure_observability(capture=True)
        try:
            c = runner.fresh_cluster(2)
            assert runner.captured_clusters() == [c]
            assert c.trace is None
        finally:
            runner.configure_observability()

    def test_call_at_wakes_at_exact_float(self):
        sim = Simulator()
        woke = []

        def proc():
            yield sim.timeout(1.1)
            # A target where now + (target - now) != target: call_at
            # takes the absolute float, so no ulp drift creeps in.
            target = 5.55
            assert sim.now + (target - sim.now) != target
            sim.call_at(target, lambda _: woke.append(sim.now))

        sim.process(proc())
        sim.run()
        assert woke == [5.55]
