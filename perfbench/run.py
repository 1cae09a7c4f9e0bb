"""Host-cost benchmark of the LAPI/SP simulator: four seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ga_mix --seed 3 --seconds 16 --trace 0
    python3 perfbench/run.py            # every workload, both passes
    python3 perfbench/run.py --selftest

One workload per process.  ``--trace 0`` runs a fixed number of
untraced reps, about ``--seconds`` of host time (at least
``MIN_REPS``), gauges the host's speed around each, and reports the
end-to-end metrics at a reference host speed (see NOTES.md).  ``--trace 1`` runs
the same reps, then one more under cProfile, and reports the per-layer
metrics.  Without ``--workload`` every workload runs in a child process
of its own, both passes, and one table prints every metric; child
processes keep one workload's memory from masking another's
``rss_peak_mb``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``correct`` is the
verdict of the run-level audits (packet conservation, pinned virtual
outputs, the layer self-test); an operation that raised, never
completed, or left wrong data is counted in ``failed``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("bulk", "ring512", "ga_mix", "chaos")
MODULES = {"bulk": "bulk", "ring512": "ring", "ga_mix": "gamix",
           "chaos": "chaos"}
MIN_REPS = 3

END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "rss_peak_mb": "MiB"}


def per_layer_units() -> dict:
    import layers

    units = {}
    for group in layers.GROUPS:
        units[f"{group}.calls"] = "count"
        units[f"{group}.self_frac"] = "fraction"
    for place in layers.SUBLAYERS:
        units[f"{place}.calls"] = "count"
    units.update({
        "sim.events_per_op": "count",
        "sim.ns_per_event": "ns",
        "machine.train_frac": "fraction",
        "machine.pool_hit_rate": "fraction",
        "machine.pool_outstanding_end": "count",
        "machine.events_per_packet": "count",
        "core.retx_frac": "fraction",
        "ga.pool_high_water": "count",
        "obs.spans": "count",
        "faults.drops": "count",
        "resilience.pings": "count",
        "error_rate": "fraction",
        "trace.calls_per_op": "count",
        "trace.overhead": "ratio",
    })
    for name in layers.BOUNDARIES:
        units[f"boundary.{name}.calls"] = "count"
        units[f"boundary.{name}.us_per_call"] = "us"
    return units


def load_program() -> None:
    """Put the program on the path and import every module of every
    layer up front, so no import lands inside a timing."""
    import importlib
    import pkgutil

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"run.py: no program at {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(1, BENCH_DIR)
    import layers

    for layer in layers.LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"repro.{layer}.{info.name}")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def untraced(workload, plan, seconds: float) -> tuple:
    """The untraced reps of a run, and the host's speed around each:
    ``(reps, speeds)``.

    The number of reps follows from ``seconds`` and the workload's
    nominal rep time, not from the clock, so a seed always runs the same
    operations and meets the same failures.  The host gauge runs before
    the first rep and after every rep; a rep's speed is the reference
    gauge time over the mean of the two gauge times around it (below 1
    when the host runs slower than the reference).
    """
    import common

    gauge = common.HostGauge()
    n = max(MIN_REPS, round(seconds / workload.REP_S))
    # Longer reps get a longer gauge (about 6% of a rep), which is
    # steadier; there are fewer of them.
    rounds = max(1, round(workload.REP_S / 1.2))
    reps, gauged = [], [gauge(rounds) / rounds]
    for _ in range(n):
        reps.append(workload.run_rep(plan))
        gauged.append(gauge(rounds) / rounds)
    speeds = [2 * common.GAUGE_REF_S / (a + b)
              for a, b in zip(gauged, gauged[1:])]
    return reps, speeds


def traced(workload, plan) -> tuple:
    """One repetition under cProfile, and its folded layer metrics."""
    import layers

    profiler = cProfile.Profile()
    rep = workload.run_rep(plan, profiler)
    return rep, layers.layer_metrics(profiler, SRC)


def layer_values(reps: list, rep, folded: dict) -> dict:
    """The per-layer metrics from a traced rep and the untraced reps."""
    c = rep.counters
    ops = rep.attempted - rep.failed
    sent = c["packets_sent"]
    base_s = statistics.median(r.timed_s for r in reps)
    events_s = statistics.median(r.timed_s / r.events for r in reps)
    values = {k: v for k, v in folded.items()
              if not k.startswith("trace.")}
    values.update({
        "sim.events_per_op": ratio(rep.events, ops),
        "sim.ns_per_event": events_s * 1e9,
        "machine.train_frac": ratio(c["train_packets"], sent),
        "machine.pool_hit_rate": ratio(c["pool_hits"], c["pool_acquires"]),
        "machine.pool_outstanding_end": c["pool_outstanding"],
        "machine.events_per_packet": ratio(rep.events, sent),
        "core.retx_frac": ratio(c["retransmissions"], sent),
        "ga.pool_high_water": c["ga_pool_high_water_max"],
        "obs.spans": c["spans"],
        "faults.drops": c["fault_drops"],
        "resilience.pings": c["pings"],
        "error_rate": ratio(sum(r.failed for r in reps),
                            sum(r.attempted for r in reps)),
        "trace.calls_per_op": ratio(folded["trace.calls"], ops),
        "trace.overhead": ratio(rep.timed_s, base_s),
    })
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import importlib

    import layers

    workload = importlib.import_module(MODULES[name])
    plan = workload.make_plan(seed)
    reps, speeds = untraced(workload, plan, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    all_reps = list(reps)
    if trace:
        rep, folded = traced(workload, plan)
        all_reps.append(rep)
        units = per_layer_units()
        values = layer_values(reps, rep, folded)
        shares = layers.share_sum(folded)
        rep.check("layer self-time shares sum to 1",
                  abs(shares - 1.0) < 1e-9, f"{shares!r}")
    else:
        units = END_TO_END
        values = {
            # Each rep at the reference host speed, then the median rep.
            "ops_per_s": statistics.median(
                r.rate() / v for r, v in zip(reps, speeds)),
            "setup_s": statistics.median(
                r.setup_s * v for r, v in zip(reps, speeds)),
            "rss_peak_mb": rss_mb,
        }
    checks = [c for r in all_reps for c in r.checks]
    errors = sorted({e for r in all_reps for e in r.errors})
    report = {
        "workload": name, "seed": seed, "trace": int(trace),
        "host": {"cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "reps": len(reps),
        "timed_s": [round(r.timed_s, 6) for r in reps],
        "host_speed": [round(v, 6) for v in speeds],
        "ops_per_s_measured": [round(r.rate(), 6) for r in reps],
        "failed_checks": sorted({f"{c.name}: {c.detail}" for c in checks
                                 if not c.ok}),
        "errors": errors,
    }
    return {
        "report": report,
        "result": {
            "correct": all(c.ok for c in checks),
            "attempted": sum(r.attempted for r in all_reps),
            "failed": sum(r.failed for r in all_reps),
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()},
        },
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload and pass, each in a child process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", trace],
                stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"run.py: {name} (trace {trace}) failed")
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                print(line)
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                merged["metrics"][f"{name}.{key}"] = metric
                print(f"{name:8s} {key:44s} {metric['value']:>16.6g}"
                      f" {metric['unit']}")
    return merged


def selftest(seed: int) -> dict:
    """Two traced runs of ``bulk`` agree call for call, and the layer
    shares sum to 1."""
    import bulk
    import layers

    plan = bulk.make_plan(seed)
    bulk.run_rep(plan)
    runs = [traced(bulk, plan)[1] for _ in range(2)]
    calls = [{k: v for k, v in run.items() if k.endswith(".calls")}
             for run in runs]
    shares = [layers.share_sum(run) for run in runs]
    ok_calls = calls[0] == calls[1]
    ok_shares = all(abs(s - 1.0) < 1e-9 for s in shares)
    print(f"call counts identical across two traced runs: {ok_calls}"
          f" ({runs[0]['trace.calls']} calls)")
    print(f"layer shares sum to 1: {ok_shares} ({shares})")
    return {"correct": ok_calls and ok_shares, "attempted": 2, "failed": 0,
            "metrics": {"trace.calls": {"value": runs[0]["trace.calls"],
                                        "unit": "count"}}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    load_program()
    if args.selftest:
        result = selftest(args.seed)
    elif args.workload is None:
        result = run_all(args.seed, args.seconds)
    else:
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
        print(json.dumps(out["report"], sort_keys=True))
        result = out["result"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
