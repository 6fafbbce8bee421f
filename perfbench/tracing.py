"""The traced run's instruments: spans around public entry points and a
cProfile roll-up of self time and call counts into the repository's layers.

Both are installed by the benchmark from outside the program: spans wrap
public methods and functions for the duration of the traced run and are
removed afterwards, and cProfile runs only around the timed part of each
unit of work.  Nothing under ``src/`` knows it is being measured.
"""

from __future__ import annotations

import functools
import pstats
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Layer of each module under ``src/repro`` (first matching prefix wins).
#: ``specs`` is spec construction and digesting, charged to the registry
#: that turns specs into scenarios; ``batch`` runs a sweep's plan, backend and
#: scatter steps, charged to the planner; ``fsio`` is the cache's atomic IO.
#: Any other module (the package ``__init__`` modules, and ``analysis``,
#: which is on no workload's run path) is charged to ``other``.
MODULE_LAYERS = (
    ("engine.py", "engine"),
    ("scheduler.py", "engine"),
    ("mac/", "mac"),
    ("phy/", "phy"),
    ("net/", "net"),
    ("transport/", "transport"),
    ("sim/", "sim"),
    ("monitors/", "monitors"),
    ("core/", "core"),
    ("experiment/registry.py", "registry"),
    ("experiment/specs.py", "registry"),
    ("experiment/runner.py", "runner"),
    ("experiment/planner.py", "planner"),
    ("experiment/batch.py", "planner"),
    ("experiment/cache.py", "cache"),
    ("experiment/fsio.py", "cache"),
    ("experiment/backends/", "backends"),
    ("experiment/worker.py", "backends"),
    ("experiment/broker", "broker"),  # broker.py and broker_store.py
)

#: Every layer the roll-up reports, in table order.  ``scipy`` is the
#: solver library core calls; ``other`` is Python code of any other
#: library or of the standard library; ``bench`` is this benchmark.
LAYERS = (
    "engine", "mac", "phy", "net", "transport", "sim", "monitors", "core", "scipy",
    "registry", "runner", "planner", "cache", "backends", "broker", "other", "bench",
)


def layer_of(filename: str, repro_dir: str, bench_dir: str) -> str | None:
    """Layer of a profiled code object's file; ``None`` for builtins."""
    if filename.startswith("~") or filename.startswith("<"):
        return None
    path = filename.replace("\\", "/")
    if path.startswith(repro_dir):
        rel = path[len(repro_dir):]
        for prefix, layer in MODULE_LAYERS:
            if rel.startswith(prefix):
                return layer
        return "other"
    if path.startswith(bench_dir):
        return "bench"
    if "/scipy/" in path:
        return "scipy"
    return "other"


def rollup(stats: pstats.Stats, src: Path, bench: Path) -> dict[str, dict[str, float]]:
    """Self time and calls per layer.

    Builtin functions (C code: ``time.sleep``, numpy ufuncs, list methods)
    are charged to the layer of each function that called them, in
    proportion to the time spent in them from that caller.  Every
    profiled second lands in exactly one layer, so the layers sum to the
    profile's total.
    """
    repro_dir = str(src / "repro").replace("\\", "/") + "/"
    bench_dir = str(bench).replace("\\", "/") + "/"
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _, _), (_, ncalls, tottime, _, callers) in stats.stats.items():
        layer = layer_of(filename, repro_dir, bench_dir)
        if layer is not None:
            out[layer]["self_s"] += tottime
            out[layer]["calls"] += ncalls
            continue
        charged = 0.0
        for (caller_file, _, _), (_, caller_calls, caller_tt, _) in callers.items():
            caller_layer = layer_of(caller_file, repro_dir, bench_dir) or "other"
            out[caller_layer]["self_s"] += caller_tt
            out[caller_layer]["calls"] += caller_calls
            charged += caller_tt
        out["other"]["self_s"] += tottime - charged  # top-level builtins
        if not callers:
            out["other"]["calls"] += ncalls
    return out


def call_count(stats: pstats.Stats, src: Path, module: str, function: str) -> int:
    """Calls of ``function`` defined in ``src/repro/<module>``."""
    target = str(src / "repro" / module).replace("\\", "/")
    return sum(
        ncalls
        for (filename, _, name), (_, ncalls, _, _, _) in stats.stats.items()
        if name == function and filename.replace("\\", "/") == target
    )


# ------------------------------------------------------------------ spans
@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str


@dataclass
class SpanRecorder:
    """Spans of the traced run, kept in memory until the run ends.

    ``item`` is the id of the cell, decision or sweep being processed;
    every span records it.  Spans are recorded only while ``active`` is
    set, which the benchmark does around the timed part of each unit, so
    the program calls the benchmark makes to generate and check inputs
    are not charged.  ``counts`` accumulates what the wrappers' result
    hooks observe (extreme points, solver outcomes, collects).
    """

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    item: str = ""
    active: bool = False
    _stack: list[int] = field(default_factory=list)
    _undo: list[Callable[[], None]] = field(default_factory=list)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, func: Callable, on_result: Callable | None) -> Callable:
        recorder = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.active:
                return func(*args, **kwargs)
            index = len(recorder.spans)
            parent = recorder._stack[-1] if recorder._stack else None
            recorder.spans.append(Span(name, time.perf_counter(), 0.0, parent, recorder.item))
            recorder._stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder._stack.pop()
                recorder.spans[index].end = time.perf_counter()
            if on_result is not None:
                on_result(recorder, result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, on_result: Callable | None = None) -> None:
        """Wrap ``owner.attr`` (function, method or classmethod) in a span."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(self._wrap(name, original.__func__, on_result))
        else:
            wrapped = self._wrap(name, original, on_result)
        setattr(owner, attr, wrapped)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------ summary
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, inclusive seconds and self seconds (the
        span minus the time its child spans cover)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            entry = out.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span.end - span.start
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
        return out


def install_spans(recorder: SpanRecorder) -> None:
    """Wrap the public entry points the layer table names."""
    import repro.experiment.registry as registry
    import repro.experiment.runner as runner
    from repro.core import (
        ConflictGraph,
        FeasibilityRegion,
        OnlineOptimizer,
        PairwiseInterferenceMap,
        RateOptimizer,
    )
    from repro.experiment import BatchRunner, BrokerBackend, ResultCache, SweepPlanner
    from repro.experiment.backends import BrokerClient
    from repro.sim import MeshNetwork

    def regions(rec: SpanRecorder, region: Any) -> None:
        rec.count("core.regions")
        rec.count("core.extreme_points", region.num_extreme_points)

    def solves(rec: SpanRecorder, result: Any) -> None:
        rec.count("core.solves")
        rec.count("core.solver_successes", int(bool(result.success)))

    def collects(rec: SpanRecorder, response: Any) -> None:
        rec.count("broker.collect_calls")
        rec.count("broker.useful_collects", int(bool(response.get("results"))))

    recorder.patch(runner.Experiment, "run", "runner.run")
    # Experiment.build resolves build_scenario through the runner module.
    recorder.patch(runner, "build_scenario", "sim.build")
    recorder.patch(registry, "build_scenario", "sim.build")
    recorder.patch(runner.gc, "collect", "runner.gc")
    recorder.patch(MeshNetwork, "update_positions", "sim.epoch")
    recorder.patch(OnlineOptimizer, "optimize", "core.optimize")
    recorder.patch(OnlineOptimizer, "estimate_links", "core.estimate")
    # The two calls that turn connectivity into a conflict graph, in the
    # controller's own cycle and in the benchmark's decision inputs.
    recorder.patch(PairwiseInterferenceMap, "from_two_hop", "core.conflict")
    recorder.patch(ConflictGraph, "from_interference_map", "core.conflict")
    recorder.patch(FeasibilityRegion, "from_capacities_and_conflicts", "core.region", regions)
    recorder.patch(RateOptimizer, "solve", "core.solve", solves)
    recorder.patch(ResultCache, "get_payload", "cache.get")
    recorder.patch(ResultCache, "put_payloads", "cache.put")
    recorder.patch(SweepPlanner, "plan", "planner.plan")
    recorder.patch(BatchRunner, "run", "batch.run")
    recorder.patch(BrokerBackend, "run", "backends.run")
    recorder.patch(BrokerClient, "submit", "broker.submit")
    recorder.patch(BrokerClient, "collect", "broker.collect", collects)
