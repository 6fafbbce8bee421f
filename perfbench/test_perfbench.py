"""The benchmark's own checks.

    python3 -m pytest perfbench

The count window's counters must repeat exactly for one seed and change
when the seed changes (which proves the seed reaches the inputs), and the
layer roll-up must account for every profiled second.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import harness  # noqa: E402
import tracing  # noqa: E402


def _counts(workload: str, seed: int) -> dict[str, float]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--counts"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["counts"]


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["fig14-cold", "controller-decide", "sweep-broker"])
def test_window_counts_repeat_for_a_seed_and_change_with_it(workload):
    with ThreadPoolExecutor(max_workers=2) as pool:
        first, again, other = pool.map(lambda seed: _counts(workload, seed), (11, 11, 12))
    assert first["failed"] == 0
    assert first == again
    assert first != other
    if workload == "fig14-cold":
        # The window holds TCP cells, so the transport counters are live.
        assert first["transport.tcp_segments"] > 0


def test_rollup_charges_every_profiled_second_to_one_layer():
    def busy():
        total = 0
        for i in range(20000):
            total += len(str(i))
        time.sleep(0.01)
        return total

    profiler = cProfile.Profile()
    profiler.enable()
    busy()
    profiler.disable()
    stats = pstats.Stats(profiler)
    layers = tracing.rollup(stats, ROOT / "src", HERE)
    total = sum(entry[2] for entry in stats.stats.values())
    assert sum(entry["self_s"] for entry in layers.values()) == pytest.approx(total)
    # str(), len() and time.sleep() are charged to this file's layer.
    assert layers["bench"]["self_s"] >= 0.009


def test_tail_keeps_ten_samples_beyond_it():
    values = [float(i) for i in range(100)]
    assert harness.tail(values) == (89.0, 90.0)
    assert harness.tail(values[:20]) == (9.5, 50.0)


def test_host_speed_divides_by_the_slowdown_to_the_elasticity():
    speed = harness.HostSpeed()
    speed.samples = [2 * harness.REFERENCE_KERNEL_S] * 3
    assert speed.slowdown() == pytest.approx(2.0)
    assert speed.correct(1.0, 0.0) == 1.0
    assert speed.correct(1.0, 1.0) == pytest.approx(0.5)
    assert speed.correct(1.0, 0.5) == pytest.approx(2**-0.5)


def test_host_speed_samples_every_cpu_and_restores_affinity():
    before = os.sched_getaffinity(0)
    speed = harness.HostSpeed(every_cpu=True)
    speed.sample(most=2)
    assert len(speed.samples) == 2
    assert os.sched_getaffinity(0) == before
    speed.sample()  # within the interval: no new sample
    assert len(speed.samples) == 2
