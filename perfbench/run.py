"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` there and nothing is built.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end metrics, measured with
no instrument installed; with ``--trace 1`` they are the per-layer
metrics of a separate traced run.  Everything before the last line is a
human-readable report (see ``perfbench/README.md``).

``--workload all`` runs the three workloads one after another, each in
a fresh interpreter.  ``--counts`` runs only the traced count window and
prints its deterministic counters; the benchmark's tests use it.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import harness
import tracing
from harness import HERE, ROOT, SRC

WORKLOAD_NAMES = ("fig14-cold", "controller-decide", "sweep-broker")
#: Layers whose call counts repeat exactly for a seed on every workload.
#: The others include the broker client's polling, whose count depends
#: on how long workers take.
COUNTED_LAYERS = (
    "engine", "mac", "phy", "net", "transport", "sim", "monitors", "core", "scipy",
    "registry", "runner", "planner", "cache",
)
#: Spans whose inclusive seconds are per-layer metrics (``<span>_s``).
SPAN_METRICS = (
    "sim.build", "sim.epoch", "core.optimize", "core.estimate", "core.conflict",
    "core.region", "core.solve", "runner.run", "runner.gc", "cache.get", "cache.put",
    "planner.plan", "broker.submit",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------------------ loop
def drive(
    workload, seconds, min_units, profiler_for=None, recorder=None, after_window=None,
    track_rss=False, speed=None,
):
    """Generate, execute and check units until ``seconds`` have passed,
    a round is complete and at least ``min_units`` are done.  Returns
    ``(records, attempted, failed)``; each record is ``(unit_id, wall,
    outcome)``.  With ``track_rss`` each outcome's ``host`` also holds
    ``submitter_rss_mb``, this process's peak during ``execute`` alone,
    so the benchmark's own generating and checking are not counted.
    A ``speed`` (:class:`harness.HostSpeed`) is sampled before units."""
    from workloads import Outcome

    cells = workload.cells
    records, attempted, failed = [], 0, 0
    units = workload.units()
    start = time.perf_counter()
    index, closed = 0, True
    while index < min_units or not closed or time.perf_counter() - start < seconds:
        unit = next(units)
        closed = unit.closes_round
        if speed is not None:
            speed.sample()
        if recorder is not None:
            recorder.item = unit.id
        profiler = profiler_for(index) if profiler_for is not None else None
        output, error = None, None
        if recorder is not None:
            recorder.active = True
        if track_rss:
            harness.reset_peak_rss()
        began = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            output = workload.execute(unit)
        except Exception as exc:  # a failed unit is reported, not fatal
            error = f"{unit.id}: {type(exc).__name__}: {exc}"
        finally:
            if profiler is not None:
                profiler.disable()
            wall = time.perf_counter() - began
            if recorder is not None:
                recorder.active = False
            submitter_rss = harness.own_peak_rss_mb() if track_rss else None
        if error is None:
            outcome = workload.check(unit, output, wall)
        else:
            outcome = Outcome(
                completed=0, latencies=[], failed=cells, sim=[unit.id, None], errors=[error]
            )
        if submitter_rss is not None:
            outcome.host["submitter_rss_mb"] = submitter_rss
        attempted += cells
        failed += min(outcome.failed, cells)
        records.append((unit.id, wall, outcome))
        index += 1
        if index == workload.window and after_window is not None:
            after_window()
    return records, attempted, failed


def summed(records, key: str, source: str = "counters") -> float:
    return sum(getattr(outcome, source).get(key, 0) for _, _, outcome in records)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def result_lines(workload, records, lines: list[str]) -> None:
    """Digests of the simulated results (reported, not gated) and every
    check that failed."""
    window = records[: workload.window]
    lines.append(
        f"results digest: window ({len(window)} units) {harness.digest([o.sim for _, _, o in window])}, "
        f"all ({len(records)} units) {harness.digest([o.sim for _, _, o in records])}"
    )
    for _, _, outcome in records:
        for error in outcome.errors:
            lines.append(f"FAILED {error}")


# ------------------------------------------------------ untraced (e2e)
def tail_row(name: str, latencies: list[float], sample: str) -> str:
    value, percentile = harness.tail(latencies)
    note = f"p{percentile:.1f} per {sample}, n={len(latencies)}"
    if len(latencies) < 21:
        note += " (too few samples for a tail: median)"
    return f"| {name} | {value:.6g} | s | {note} |"


def measure(workload, args, tmp: Path, lines: list[str]) -> tuple[dict, int, int]:
    rss_resets = harness.reset_peak_rss()
    speed = harness.HostSpeed(every_cpu=workload.workers > 0)
    records, attempted, failed = drive(
        workload, args.seconds, workload.window, track_rss=True, speed=speed
    )
    submitter_rss = max(outcome.host["submitter_rss_mb"] for _, _, outcome in records)
    workers_rss = harness.children_peak_rss_mb()  # read before the set-up probes start
    probes = harness.setup_probes(workload.name, args.seed, tmp / "probes")

    latencies = [x for _, _, outcome in records for x in outcome.latencies]
    completed = sum(outcome.completed for _, _, outcome in records)
    timed_wall = sum(wall for _, wall, _ in records)
    per_s = ratio(completed, timed_wall)
    latency = harness.median(latencies)
    elasticity = workload.speed_elasticity
    metrics = {
        "setup_s": (probes["setup_s"], "s"),
        "work_per_s": (ratio(completed, speed.correct(timed_wall, elasticity)), "1/s"),
        "latency_p50_s": (speed.correct(latency, elasticity), "s"),
        "peak_rss_mb": (max(submitter_rss, workers_rss), "MB"),
        "submitter_rss_mb": (submitter_rss, "MB"),
    }
    # The same two on this host's own clock, printed beside them.
    raw = {"work_per_s": per_s, "latency_p50_s": latency}
    rate_name = "decisions_per_s" if workload.name == "controller-decide" else "cells_per_s"
    sample = {"fig14-cold": "cell", "controller-decide": "round of decisions"}.get(
        workload.name, "sweep"
    )
    lines.append(f"## {workload.name} seed={args.seed} (untraced, {args.seconds:g} s)")
    lines.append(
        f"host speed: calibration kernel median {1e3 * harness.median(speed.samples):.3f} ms "
        f"over {len(speed.samples)} samples, {speed.slowdown():.3f}x the reference "
        f"{1e3 * harness.REFERENCE_KERNEL_S:g} ms; {workload.name} timings scale with it "
        f"to the power {elasticity:g}"
    )
    lines.append("")
    lines.append("| metric | value | unit | note |")
    lines.append("|---|---|---|---|")
    notes = {
        "setup_s": f"median of {len(probes['samples'])} fresh interpreters",
        "work_per_s": f"{completed} completed / {timed_wall:.3f} s timed",
        "latency_p50_s": f"per {sample}, n={len(latencies)}",
        "peak_rss_mb": f"max of submitter and waited-for children ({workers_rss:.1f} MB)",
        "submitter_rss_mb": (
            "submitter's peak during execute"
            if rss_resets
            else "submitter's peak over the whole run (peak reset refused here)"
        ),
    }
    for name, (value, unit) in metrics.items():
        note = notes[name]
        if name in raw:
            note += f"; {raw[name]:.6g} {unit} on this host's clock"
        lines.append(f"| {name} | {value:.6g} | {unit} | {note} |")
    rate_unit = "1/s" if workload.name == "controller-decide" else "cells/s"
    lines.append(
        f"| {rate_name} | {metrics['work_per_s'][0]:.6g} | {rate_unit} | work_per_s by its own name |"
    )
    lines.append(tail_row("latency_tail_s", latencies, sample))
    if workload.name == "controller-decide":
        decisions = [x for _, _, o in records for x in o.host["decision_latencies"]]
        lines.append(
            f"| decision_p50_s | {harness.median(decisions):.6g} | s | "
            f"per decision, n={len(decisions)} |"
        )
        lines.append(tail_row("decision_tail_s", decisions, "decision"))
    lines.append(f"| error_rate | {ratio(failed, attempted):.6g} | ratio | {failed}/{attempted} |")
    if workload.name == "controller-decide":
        unconverged = summed(records, "core.solver_unconverged")
        lines.append(
            f"| solver_unconverged | {int(unconverged)} | count | of {completed} decisions "
            "the solver flagged; each re-solved to check it |"
        )
    if workload.name == "fig14-cold":
        events = summed(records, "engine.events")
        lines.append(
            f"| host_us_per_event | {1e6 * ratio(timed_wall, events):.6g} | us | "
            f"{timed_wall:.3f} s / {int(events)} events |"
        )
    if workload.name == "sweep-broker":
        executed = summed(records, "executed", "host")
        sim_wall = summed(records, "sim_wall_s", "host")
        overhead = ratio(timed_wall - sim_wall / workload.workers, executed)
        lines.append(
            f"| overhead_s_per_task | {overhead:.6g} | s | "
            f"({timed_wall:.3f} - {sim_wall:.3f}/{workload.workers}) / {int(executed)} executed |"
        )
    result_lines(workload, records, lines)
    return metrics, attempted, failed


# -------------------------------------------------------- traced (layers)
def traced_window(workload, recorder, window_prof, rest_prof, seconds):
    """Run the workload under spans and cProfile; returns the records
    and the counters snapshot taken when the count window completed."""
    snapshot: dict[str, float] = {}
    tracing.install_spans(recorder)
    try:
        result = drive(
            workload,
            seconds,
            workload.window,
            profiler_for=lambda i: window_prof if i < workload.window else rest_prof,
            recorder=recorder,
            after_window=lambda: snapshot.update(recorder.counts),
        )
    finally:
        recorder.uninstall()
    return result, snapshot


def window_counts(workload, records, window_stats, snapshot) -> dict[str, float]:
    """Deterministic counters of the count window (the first units)."""
    window = records[: workload.window]
    layers = tracing.rollup(window_stats, SRC, HERE)
    counts = {f"{layer}.calls": layers[layer]["calls"] for layer in COUNTED_LAYERS}
    counts["engine.events"] = summed(window, "engine.events")
    counts["engine.scheduled"] = tracing.call_count(
        window_stats, SRC, "engine.py", "schedule"
    ) + tracing.call_count(window_stats, SRC, "engine.py", "schedule_at")
    counts["mac.transmissions"] = tracing.call_count(
        window_stats, SRC, "mac/medium.py", "begin_transmission"
    )
    counts["sim.epochs"] = tracing.call_count(window_stats, SRC, "sim/network.py", "update_positions")
    for key in (
        "mac.attempts", "mac.retransmissions", "net.probes_sent", "transport.tcp_segments",
        "transport.tcp_retransmissions", "cache.hits", "cache.misses", "planner.total",
        "planner.unique",
    ):
        counts[key] = summed(window, key)
    for key in ("core.extreme_points", "core.solves", "core.solver_successes"):
        counts[key] = snapshot.get(key, 0)
    return counts


def trace(workload_cls, args, tmp: Path, lines: list[str]) -> tuple[dict, int, int]:
    workload = workload_cls(args.seed, tmp / "traced")
    recorder = tracing.SpanRecorder()
    window_prof, rest_prof = cProfile.Profile(), cProfile.Profile()
    (records, attempted, failed), snapshot = traced_window(
        workload, recorder, window_prof, rest_prof, args.seconds
    )
    window_stats = pstats.Stats(window_prof)
    all_stats = pstats.Stats(window_prof)
    if len(records) > workload.window:
        all_stats.add(rest_prof)
    counts = window_counts(workload, records, window_stats, snapshot)

    # Tracing overhead: the count window again, with nothing installed.
    rerun, rerun_attempted, rerun_failed = drive(
        workload_cls(args.seed, tmp / "untraced"), 0, workload.window
    )
    attempted += rerun_attempted
    failed += rerun_failed
    traced_s = sum(wall for _, wall, _ in records[: workload.window])
    untraced_s = sum(wall for _, wall, _ in rerun)
    probes = harness.setup_probes(workload.name, args.seed, tmp / "probes")

    layers = tracing.rollup(all_stats, SRC, HERE)
    spans = recorder.totals()
    profiled = sum(entry["self_s"] for entry in layers.values())
    metrics: dict[str, tuple[float, str]] = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = (layers[layer]["self_s"], "s")
    for layer in tracing.LAYERS:
        # Layers outside the count window's set are counted over the run.
        calls = counts.get(f"{layer}.calls", layers[layer]["calls"])
        metrics[f"{layer}.calls"] = (calls, "count")
    for span in SPAN_METRICS:
        metrics[f"{span}_s"] = (spans.get(span, {}).get("total_s", 0.0), "s")
    collects = recorder.counts.get("broker.collect_calls", 0)
    # Per-layer shares as (numerator, denominator).
    shares = {
        "engine.live_ratio": (counts["engine.events"], counts["engine.scheduled"]),
        "mac.retry_ratio": (counts["mac.retransmissions"], counts["mac.attempts"]),
        "transport.tcp_retx_ratio": (
            counts["transport.tcp_retransmissions"], counts["transport.tcp_segments"]
        ),
        "core.solver_success_ratio": (counts["core.solver_successes"], counts["core.solves"]),
        "cache.hit_ratio": (counts["cache.hits"], counts["cache.hits"] + counts["cache.misses"]),
        "planner.dedup_ratio": (
            counts["planner.total"] - counts["planner.unique"], counts["planner.total"]
        ),
        "broker.useful_collect_ratio": (recorder.counts.get("broker.useful_collects", 0), collects),
    }
    metrics.update(
        {
            "engine.events": (counts["engine.events"], "count"),
            "engine.scheduled": (counts["engine.scheduled"], "count"),
            "mac.transmissions": (counts["mac.transmissions"], "count"),
            "net.probes_sent": (counts["net.probes_sent"], "count"),
            "sim.epochs": (counts["sim.epochs"], "count"),
            "core.extreme_points": (counts["core.extreme_points"], "count"),
            "cache.hits": (counts["cache.hits"], "count"),
            "cache.misses": (counts["cache.misses"], "count"),
            "broker.collect_calls": (collects, "count"),
            "queue.spawned": (summed(records, "queue.spawned", "host"), "count"),
            "queue.requeued": (summed(records, "queue.requeued", "host"), "count"),
            "import.s": (probes["import_s"], "s"),
            "profile.total_s": (profiled, "s"),
            "trace.overhead_s": (traced_s - untraced_s, "s"),
        }
    )
    for name, (numerator, denominator) in shares.items():
        metrics[name] = (ratio(numerator, denominator), "ratio")
    empty = [name for name, (_, denominator) in shares.items() if not denominator]

    lines.append(f"## {workload.name} seed={args.seed} (traced, {args.seconds:g} s)")
    lines.append(
        f"units traced: {len(records)} (count window: first {workload.window}); "
        f"profiled self time {profiled:.3f} s"
    )
    lines.append(
        f"tracing overhead on the count window: traced {traced_s:.3f} s - untraced "
        f"{untraced_s:.3f} s = {traced_s - untraced_s:.3f} s "
        f"({ratio(traced_s, untraced_s):.2f}x)"
    )
    lines.append("")
    lines.append("| layer | self s | share | calls (whole run) | calls (window) |")
    lines.append("|---|---|---|---|---|")
    for layer in tracing.LAYERS:
        entry = layers[layer]
        window_calls = counts.get(f"{layer}.calls", "")
        lines.append(
            f"| {layer} | {entry['self_s']:.4f} | {100 * ratio(entry['self_s'], profiled):.1f}% "
            f"| {int(entry['calls'])} | {window_calls} |"
        )
    lines.append(f"| **total** | {profiled:.4f} | 100% | | |")
    lines.append("")
    lines.append("| span | count | inclusive s | self s |")
    lines.append("|---|---|---|---|")
    for name in sorted(spans):
        entry = spans[name]
        lines.append(
            f"| {name} | {int(entry['count'])} | {entry['total_s']:.4f} | {entry['self_s']:.4f} |"
        )
    lines.append("")
    if empty:
        lines.append(
            "not applicable, no such work in this workload (0 in the JSON line): "
            + ", ".join(empty)
        )
    lines.append("counts (window): " + json.dumps(counts, sort_keys=True))
    result_lines(workload, records + rerun, lines)
    return metrics, attempted, failed


def counts_only(workload_cls, args, tmp: Path) -> dict[str, float]:
    workload = workload_cls(args.seed, tmp / "traced")
    window_prof = cProfile.Profile()
    (records, _, failed), snapshot = traced_window(
        workload, tracing.SpanRecorder(), window_prof, window_prof, 0
    )
    counts = window_counts(workload, records, pstats.Stats(window_prof), snapshot)
    counts["failed"] = failed
    return counts


# ------------------------------------------------------------------ main
def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own interpreter."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)]
        status = max(status, subprocess.run(command, cwd=ROOT).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    harness.isolate_environment()
    # Everything the run writes (caches, broker logs, probe scratch)
    # stays inside the checkout and is removed at exit.
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    try:
        import repro

        if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
            print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
            return 2
        from workloads import WORKLOADS

        workload_cls = WORKLOADS[args.workload]
        if args.counts:
            print(json.dumps({"counts": counts_only(workload_cls, args, tmp)}, sort_keys=True))
            return 0
        lines: list[str] = []
        if args.trace:
            metrics, attempted, failed = trace(workload_cls, args, tmp, lines)
        else:
            workload = workload_cls(args.seed, tmp / "run")
            metrics, attempted, failed = measure(workload, args, tmp, lines)
        stamp = harness.env_stamp(args.seed)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print("\n".join(lines))
    print("env: " + json.dumps(stamp, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
