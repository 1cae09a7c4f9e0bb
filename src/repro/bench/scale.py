"""Large-cluster scale bench: 512-4096 nodes on three fabrics.

The paper's SP systems topped out at a few hundred nodes (GA ran on a
512-node SP).  This bench pushes the *same* protocol stacks -- LAPI on
the unmodified machine model -- to 512-4096 simulated nodes on the SP
multistage switch and on the two larger fabrics a successor machine
might have used (:class:`~repro.machine.routing.FatTreeTopology`,
:class:`~repro.machine.routing.DragonflyTopology`), and measures the
*simulator*: wall time, kernel events, events/second, and resident
memory.

The workload is a neighbour ring -- every rank puts 4 KB to its right
neighbour, fenced and surrounded by global fences -- so total traffic
grows linearly with nodes while the gfence dissemination tree
exercises ``N log N`` small-message traffic.  What keeps memory flat
per node at these sizes (and what this bench exists to guard):

* route templates keyed by edge-switch pair
  (:class:`~repro.machine.routing.RouteTemplate`), so routing state
  is bounded by edge switches squared, never by node pairs;
* streamed top-k link statistics (``Switch.busiest_links`` /
  ``metrics_top_links``) instead of full-fabric utilization dicts.

Runs shard across ``--jobs`` workers like every other sweep; virtual
times are byte-identical serial or parallel (the CI scale-smoke job
diffs them).
"""

from __future__ import annotations

import gc
import os
import sys
import time

from ..machine.config import SP_1998, MachineConfig
from .parallel import Deferred, JobSpec, spread_seed, submit
from .report import ExperimentResult
from .runner import fresh_cluster

__all__ = ["run_scale", "submit_scale", "scale_jobs", "scale_point",
           "scale_config", "SCALE_SIZES", "SCALE_QUICK_SIZES",
           "SCALE_TOPOLOGIES", "SCALE_SEED"]

#: Node counts of the full sweep and the ``--perf-quick`` (CI) sweep.
SCALE_SIZES = [512, 1024, 2048, 4096]
SCALE_QUICK_SIZES = [512]

#: Fabrics swept at every size; "sp" is the paper machine.
SCALE_TOPOLOGIES = ("sp", "fattree", "dragonfly")

#: Bytes each rank puts to its ring neighbour.
SCALE_PUT_BYTES = 4096

#: Experiment base seed (each job derives its own via the SplitMix
#: spread, so shards stay RNG-independent however scheduled).
SCALE_SEED = 0x5CA1E

#: ``Switch.metrics_top_links`` during scale runs: a --metrics block
#: at 4096 nodes must not carry ~20k per-link gauges.
_METRICS_TOP_LINKS = 8


def scale_config(topology: str, nnodes: int) -> MachineConfig:
    """The paper calibration on ``topology`` (same at every size)."""
    return SP_1998.replace(topology=topology)


def _ring_task(task):
    """Ring neighbour put between global fences (one SPMD rank)."""
    lapi = task.lapi
    mem = task.memory
    window = mem.malloc(SCALE_PUT_BYTES)
    src = mem.malloc(SCALE_PUT_BYTES)
    yield from lapi.gfence()
    right = (task.rank + 1) % task.size
    yield from lapi.put(right, SCALE_PUT_BYTES, window, src)
    yield from lapi.fence()
    yield from lapi.gfence()
    return None


def _current_rss_mb() -> float:
    """Resident set size of this process right now, in MB.

    Reads ``/proc/self/statm`` (current, not peak -- ``ru_maxrss`` is a
    high watermark and cannot show memory being returned between
    runs); falls back to the watermark where /proc is unavailable.
    """
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 1e6
    except (OSError, ValueError, IndexError):
        import resource
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KB on Linux but bytes on macOS (getrusage(2)).
        return rss / (1e6 if sys.platform == "darwin" else 1e3)


def scale_point(nnodes: int, topology: str, seed: int) -> dict:
    """Run the ring workload once; returns the measurement record.

    Everything virtual-time in the record is deterministic (a function
    of ``(nnodes, topology, seed)`` only); wall seconds and RSS are
    host facts and vary.
    """
    gc.collect()
    cluster = fresh_cluster(nnodes, scale_config(topology, nnodes),
                            seed=seed)
    cluster.switch.metrics_top_links = _METRICS_TOP_LINKS
    start = time.perf_counter()
    cluster.run_job(_ring_task, stacks=("lapi",))
    wall = time.perf_counter() - start
    sw = cluster.switch
    sent = sum(n.adapter.packets_sent for n in cluster.nodes)
    received = sum(n.adapter.packets_received for n in cluster.nodes)
    dropped = sum(n.adapter.rx_dropped for n in cluster.nodes)
    record = {
        "nodes": nnodes,
        "topology": topology,
        "virtual_us": round(cluster.sim.now, 6),
        "events": cluster.sim.events_processed,
        "packets_routed": sw.packets_routed,
        "packets_sent": sent,
        "packets_received": received,
        "rx_dropped": dropped,
        "route_templates": len(sw.templates),
        "edge_switches": sw.topology.nedges,
        "wall_s": round(wall, 3),
        "events_per_sec": round(cluster.sim.events_processed / wall)
        if wall > 0 else 0,
        "rss_mb": round(_current_rss_mb(), 1),
    }
    del cluster
    gc.collect()
    return record


def scale_jobs(sizes=None) -> list[JobSpec]:
    """One spec per (topology, node count), independently seeded."""
    sizes = list(sizes) if sizes is not None else list(SCALE_SIZES)
    specs = []
    index = 0
    for topology in SCALE_TOPOLOGIES:
        for n in sizes:
            specs.append(JobSpec(
                scale_point, (n, topology),
                {"seed": spread_seed(SCALE_SEED, index)},
                key=("scale", topology, n)))
            index += 1
    return specs


def submit_scale(quick: bool = False, sizes=None) -> Deferred:
    """Queue the scale sweep; ``finish()`` builds the result."""
    if sizes is None:
        sizes = SCALE_QUICK_SIZES if quick else SCALE_SIZES
    sizes = list(sizes)
    future = submit(scale_jobs(sizes))
    return Deferred(future, lambda records: _scale(records, sizes))


def run_scale(quick: bool = False, sizes=None) -> ExperimentResult:
    """Run the scale sweep and check its invariants."""
    return submit_scale(quick, sizes).finish()


def _scale(records: list, sizes: list) -> ExperimentResult:
    rows = []
    for r in records:
        rows.append([r["topology"], r["nodes"], r["virtual_us"],
                     r["events"], r["events_per_sec"],
                     r["packets_routed"], r["route_templates"],
                     r["wall_s"], r["rss_mb"]])
    result = ExperimentResult(
        experiment="scale",
        title=f"SUPPLEMENTAL: {min(sizes)}-{max(sizes)} node scale"
              " sweep (ring + gfence)",
        headers=["topology", "nodes", "virtual us", "events",
                 "events/s", "routed", "templates", "wall s",
                 "rss MB"],
        rows=rows)
    result.notes.append(
        "supplemental simulator study; the paper machine stops at"
        " a few hundred nodes")

    by_topo: dict[str, list[dict]] = {}
    for r in records:
        by_topo.setdefault(r["topology"], []).append(r)

    result.check(
        "every run completed with no receive-FIFO drops",
        all(r["rx_dropped"] == 0 for r in records),
        f"{len(records)} runs")
    # The drive loop stops the instant the last task finishes, so a
    # handful of trailing ACK deliveries may still be in flight --
    # bounded by the node count, never more.
    result.check(
        "packet conservation: sent == routed, received trails by at"
        " most the in-flight window",
        all(r["packets_sent"] == r["packets_routed"]
            and 0 <= r["packets_routed"] - r["packets_received"]
            <= r["nodes"]
            for r in records))
    result.check(
        "route templates stay within edge switches squared",
        all(r["route_templates"] <= r["edge_switches"] ** 2
            for r in records),
        ", ".join(f"{r['topology']}/{r['nodes']}:"
                  f" {r['route_templates']}/{r['edge_switches']}^2"
                  for r in records[:3]))
    for topology, recs in by_topo.items():
        recs = sorted(recs, key=lambda r: r["nodes"])
        if len(recs) > 1:
            lo, hi = recs[0], recs[-1]
            ratio = hi["nodes"] / lo["nodes"]
            result.check(
                f"{topology}: events grow sub-quadratically"
                f" ({lo['nodes']} -> {hi['nodes']} nodes)",
                hi["events"] <= lo["events"] * ratio ** 1.5,
                f"{lo['events']:,} -> {hi['events']:,}"
                f" (x{hi['events'] / lo['events']:.1f} for"
                f" x{ratio:.0f} nodes)")
            result.check(
                f"{topology}: gfence depth grows virtual time with"
                " node count",
                all(a["virtual_us"] < b["virtual_us"] for a, b in
                    zip(recs, recs[1:])))
    # Raw records for --scale-out / CI divergence diffing.
    result.payload = {
        f"{r['topology']}/{r['nodes']}": r for r in records}
    return result
