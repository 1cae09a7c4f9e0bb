"""Fold a cProfile of the timed section into per-layer metrics.

The layers are the packages of ``src/repro``.  Every Python function is
charged to the module that defines it.  Functions outside the layers --
C builtins (NumPy's included), the standard library, ``repro.errors``
-- are charged to the layer that called them, edge by edge, from the
profile's caller table; a chain of such functions is charged to its
most frequent caller.  ``repro.machine.cluster`` is its own line:
``Cluster.run_job`` hosts an inlined copy of the kernel's pop loop, and
folding it into ``machine`` would misread kernel work as machine work.
Code of the benchmark itself (the SPMD task bodies) is ``bench``.

Call counts are exact (cProfile counts every call and every generator
resume); self times are host seconds under the profiler.
"""

from __future__ import annotations

import importlib
import os

LAYERS = ("sim", "machine", "core", "mpl", "ga", "obs", "faults",
          "resilience")
#: Modules reported on their own ``<module>.calls`` line.
SUBLAYERS = ("sim.kernel", "machine.adapter", "machine.routing",
             "machine.switch", "core.dispatcher", "core.reliability",
             "obs.spans", "obs.timeline")
#: Share lines: every layer, the driver loop, and the benchmark.
GROUPS = LAYERS + ("machine.cluster", "bench")
#: Public entry points into the layers: ``(module, class, method)``.
BOUNDARIES = {
    "Simulator.call_at": ("repro.sim.kernel", "Simulator", "call_at"),
    "Adapter.inject": ("repro.machine.adapter", "Adapter", "inject"),
    "Adapter.deliver": ("repro.machine.adapter", "Adapter", "deliver"),
    "Switch.route": ("repro.machine.switch", "Switch", "route"),
    "FatTreeTopology.routes": ("repro.machine.routing", "FatTreeTopology",
                               "routes"),
    "Lapi.put": ("repro.core.api", "Lapi", "put"),
    "Lapi.get": ("repro.core.api", "Lapi", "get"),
    "Mpl.isend": ("repro.mpl.api", "Mpl", "isend"),
    "GlobalArrays.put": ("repro.ga.api", "GlobalArrays", "put"),
    "GlobalArrays.get": ("repro.ga.api", "GlobalArrays", "get"),
    "GlobalArrays.acc": ("repro.ga.api", "GlobalArrays", "acc"),
    "FaultRuntime.judge": ("repro.faults.runtime", "FaultRuntime", "judge"),
    "SpanRecorder.emit": ("repro.obs.spans", "SpanRecorder", "emit"),
}

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _boundary_key(module: str, cls: str, method: str):
    """The profile key of a method, or None once it no longer exists."""
    try:
        fn = getattr(getattr(importlib.import_module(module), cls), method)
    except (ImportError, AttributeError):
        return None
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


class Folder:
    """Charges every profiled function to a place (a module of a layer,
    or ``bench``)."""

    def __init__(self, stats: dict, src_dir: str) -> None:
        self.stats = stats
        self.src_dir = os.path.abspath(src_dir) + os.sep
        self._home: dict = {}

    def own_place(self, func):
        """The place that defines ``func``, or None if it has none."""
        filename = func[0]
        if filename.startswith(self.src_dir):
            module = filename[len(self.src_dir):-3].replace(os.sep, ".")
            parts = module.split(".")
            if len(parts) >= 3 and parts[0] == "repro" and parts[1] in LAYERS:
                return ".".join(parts[1:3])
            return None
        if os.path.dirname(os.path.abspath(filename)) == _BENCH_DIR:
            return "bench"
        return None

    def home(self, func, seen=frozenset()):
        """Where ``func``'s cost is charged."""
        place = self.own_place(func)
        if place is not None:
            return place
        if func in self._home:
            return self._home[func]
        callers = self.stats[func][4] if func in self.stats else {}
        if not callers or func in seen:
            return "bench"
        caller = max(callers, key=lambda c: (callers[c][0], c))
        place = self.home(caller, seen | {func})
        self._home[func] = place
        return place

    def fold(self) -> tuple[dict, dict]:
        """``(calls, self seconds)`` per place."""
        calls: dict = {}
        self_s: dict = {}
        for func, (_cc, nc, tt, _ct, callers) in self.stats.items():
            if self.own_place(func) is not None or not callers:
                place = self.home(func)
                calls[place] = calls.get(place, 0) + nc
                self_s[place] = self_s.get(place, 0.0) + tt
                continue
            for caller, (enc, _ecc, ett, _ect) in callers.items():
                place = self.home(caller)
                calls[place] = calls.get(place, 0) + enc
                self_s[place] = self_s.get(place, 0.0) + ett
        return calls, self_s


def group_of(place: str) -> str:
    return place if place in ("machine.cluster", "bench") \
        else place.split(".")[0]


def share_sum(folded: dict) -> float:
    """The self-time shares of all groups; 1 when nothing is lost."""
    return sum(v for k, v in folded.items() if k.endswith(".self_frac"))


def layer_metrics(profiler, src_dir: str) -> dict:
    """Per-layer call counts and self-time shares, plus the boundary
    entry points, from a finished ``cProfile.Profile``."""
    profiler.create_stats()
    stats = profiler.stats
    calls, self_s = Folder(stats, src_dir).fold()
    total_s = sum(self_s.values())
    out = {"trace.calls": sum(calls.values()),
           "trace.self_s": total_s}
    for group in GROUPS:
        places = [p for p in calls if group_of(p) == group]
        out[f"{group}.calls"] = sum(calls[p] for p in places)
        out[f"{group}.self_frac"] = (
            sum(self_s[p] for p in places) / total_s if total_s else 0.0)
    for place in SUBLAYERS:
        out[f"{place}.calls"] = calls.get(place, 0)
    for name, where in BOUNDARIES.items():
        key = _boundary_key(*where)
        _cc, nc, _tt, ct, _ = stats.get(key, (0, 0, 0.0, 0.0, None))
        out[f"boundary.{name}.calls"] = nc
        out[f"boundary.{name}.us_per_call"] = ct / nc * 1e6 if nc else 0.0
    return out
