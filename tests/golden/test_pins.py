"""Absolute virtual-time pins for the kernel and the adapter TX engine.

Every observable below is compared against committed values in
``pins.json``, not against a second code path, so the scheduler and
the adapter's TX engine may be restructured freely: any change to
event order, float accumulation, RNG draws or link occupancy moves at
least one pinned number.

Pinned surfaces:

* ring jobs -- a LAPI put to the right neighbour between global
  fences on 2 and 8 SP nodes and on 8-node fat-tree and dragonfly
  fabrics: per-rank results, final clock, ``events_processed``,
  ``metrics.render()`` and the ``snapshot`` render;
* bench suite -- reduced Figure 2 (1 KB and 16 KB) plus Table 2 under
  metrics, capture and span tracing: the rendered tables, each
  cluster's ``virtual_us``, event count and metrics block, and a
  sha256 of each cluster's span stream.

Regenerate (only when a virtual-time change is intended, and explain
the diff in CHANGES.md)::

    PYTHONPATH=src python tests/golden/test_pins.py --regenerate
"""

import hashlib
import json
import os
import sys

import pytest

from repro.bench import runner
from repro.bench.bandwidth import run_fig2
from repro.bench.latency import run_table2
from repro.machine import Cluster
from repro.machine.config import SP_1998
from repro.machine.stats import snapshot

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")

#: (nnodes, topology) of each pinned ring job.
RING_CASES = {
    "sp-2": (2, "sp"),
    "sp-8": (8, "sp"),
    "fattree-8": (8, "fattree"),
    "dragonfly-8": (8, "dragonfly"),
}


def _ring_job(nnodes, topology):
    """A LAPI ring put + fences; returns every observable surface."""
    cfg = (SP_1998 if topology == "sp"
           else SP_1998.replace(topology=topology))
    cluster = Cluster(nnodes, config=cfg, seed=0xE0)

    def main(task):
        lapi = task.lapi
        mem = task.memory
        window = mem.malloc(8192)
        src = mem.malloc(8192)
        yield from lapi.gfence()
        right = (task.rank + 1) % task.size
        yield from lapi.put(right, 8192, window, src)
        yield from lapi.fence()
        yield from lapi.gfence()
        return task.now()

    results = cluster.run_job(main, stacks=("lapi",))
    return {
        "results": results,
        "now": cluster.sim.now,
        "events": cluster.sim.events_processed,
        "metrics": cluster.metrics.render(),
        "stats": snapshot(cluster).render(),
    }


def _span_digest(spans):
    blob = json.dumps(spans, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _bench_suite():
    """Reduced fig2 + table2 under full observability."""
    runner.configure_observability(metrics=True, capture=True,
                                   spans=True)
    try:
        fig2 = run_fig2(sizes=[1024, 16384])
        caps = runner.drain_captures()
        table2 = run_table2()
        caps += runner.drain_captures()
    finally:
        runner.configure_observability()
    return {
        "fig2_render": fig2.render(),
        "table2_render": table2.render(),
        "metrics": [c.metrics_block for c in caps],
        "virtual_us": [c.now for c in caps],
        "events": [c.events for c in caps],
        "span_sha256": [_span_digest(c.spans) for c in caps],
    }


def _observe():
    return {
        "ring": {name: _ring_job(*case)
                 for name, case in RING_CASES.items()},
        "bench": _bench_suite(),
    }


@pytest.fixture(scope="module")
def pins():
    with open(PINS_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(RING_CASES))
def test_ring_job_pins(pins, case):
    observed = _ring_job(*RING_CASES[case])
    # JSON round trip: tuples become lists, floats keep every bit.
    assert json.loads(json.dumps(observed)) == pins["ring"][case]


@pytest.fixture(scope="module")
def bench_observed():
    return _bench_suite()


@pytest.mark.parametrize("field", ["fig2_render", "table2_render",
                                   "virtual_us", "events", "metrics",
                                   "span_sha256"])
def test_bench_suite_pins(pins, bench_observed, field):
    assert bench_observed[field] == pins["bench"][field]


def test_bench_suite_records_spans(bench_observed):
    empty = _span_digest([])
    assert any(d != empty for d in bench_observed["span_sha256"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    with open(PINS_PATH, "w") as fh:
        json.dump(_observe(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {PINS_PATH}")
