"""Measurement helpers shared by every workload: timing statistics,
fresh-interpreter set-up probes, peak memory and the environment stamp."""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import math
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters started per run to measure ``setup_s``; the run
#: reports their median.
SETUP_PROBES = 7
#: A probe that has not reported ready by then is a failure.
SETUP_PROBE_TIMEOUT_S = 60.0


# ------------------------------------------------------------ statistics
def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile)``: the sample that has exactly ten
    larger samples, at percentile ``100 * (n - 10) / n``.  Below 21
    samples that percentile would fall under the median, so the sample
    does not support a tail and the median is returned at percentile 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def digest(payloads: list[object]) -> str:
    """Short SHA-256 over canonical JSON of simulated (host-free) results."""
    h = hashlib.sha256()
    for payload in payloads:
        h.update(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------- memory
def reset_peak_rss() -> bool:
    """Lower this process's peak resident set size to its current size
    (Linux ``/proc/self/clear_refs``); ``False`` where that is refused."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process since the last
    :func:`reset_peak_rss` (or since it started), in MiB."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def children_peak_rss_mb() -> float:
    """Largest peak resident set size of any child process waited for so
    far (the workers a backend spawned and stopped), in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ------------------------------------------------------------- host speed
#: Seconds :func:`calibration_kernel` takes on the reference host (a
#: 2-vCPU x86-64 VM, Python 3.11, in its fast state).
REFERENCE_KERNEL_S = 0.0035
#: Least seconds between two host-speed samples in the measured loop.
SPEED_SAMPLE_INTERVAL_S = 0.25


class _Node:
    __slots__ = ("id", "queue", "sent")

    def __init__(self, node_id: int) -> None:
        self.id, self.queue, self.sent = node_id, [], 0


def calibration_kernel(steps: int = 4000) -> int:
    """A fixed piece of pure-Python work shaped like the simulator's hot
    path (a heap of timed events, slotted objects, small dicts and float
    math).  It is not the program's code, so its time tracks only the
    host."""
    nodes = [_Node(i) for i in range(16)]
    heap: list = []
    stats: dict = {}
    now = 0.0
    for step in range(steps):
        heapq.heappush(heap, (now + ((step * 7919) % 997) * 1e-3, step, nodes[step & 15]))
        if len(heap) > 32:
            now, _, node = heapq.heappop(heap)
            node.queue.append(now)
            node.sent += 1
            if len(node.queue) > 8:
                node.queue.pop(0)
            key = (node.id, node.sent & 7)
            stats[key] = stats.get(key, 0.0) + math.exp(-now * 1e-3)
    return len(stats)


class HostSpeed:
    """Samples how long :func:`calibration_kernel` takes on this host,
    between units of the measured loop and never inside a timed span.

    The host's speed drifts over minutes: the kernel takes 3.4 ms in one
    stretch and 7 ms a few minutes later, and the program's timings move
    with it.  :meth:`correct` divides a run's timing by the host's
    slowdown against :data:`REFERENCE_KERNEL_S`, raised to the workload's
    elasticity: the log-log slope of the workload's time over the
    kernel's, fitted across stretches of one process running the same
    code.  With ``every_cpu`` the samples are taken on each CPU this
    process may use in turn, for workloads whose work runs on all of
    them; otherwise on whichever CPU runs this process.
    """

    def __init__(self, every_cpu: bool = False) -> None:
        self.samples: list[float] = []
        self._last = -math.inf
        self._cpus = sorted(os.sched_getaffinity(0)) if every_cpu else []

    def sample(self, most: int = 4) -> None:
        """One sample per :data:`SPEED_SAMPLE_INTERVAL_S` since the last
        call, up to ``most``, so long units get as many as short ones."""
        due = (time.perf_counter() - self._last) / SPEED_SAMPLE_INTERVAL_S
        for _ in range(int(min(due, most))):
            if self._cpus:
                os.sched_setaffinity(0, {self._cpus[len(self.samples) % len(self._cpus)]})
            # The kernel frees everything it allocates by reference count;
            # a collection of the workload's garbage is not the host's speed.
            gc.disable()
            began = time.perf_counter()
            calibration_kernel()
            self._last = time.perf_counter()
            gc.enable()
            if self._cpus:
                os.sched_setaffinity(0, self._cpus)
            self.samples.append(self._last - began)

    def slowdown(self) -> float:
        """This run's median kernel time over the reference host's."""
        return median(self.samples) / REFERENCE_KERNEL_S

    def correct(self, seconds: float, elasticity: float) -> float:
        """``seconds`` measured in this run, as on the reference host."""
        return seconds / self.slowdown() ** elasticity


# ------------------------------------------------------------ environment
#: Single-threaded BLAS for the benchmark and every process it starts.
#: The solver's matrices are tiny, so extra BLAS threads only contend
#: for this host's cores: with a second busy core, multithreaded OpenBLAS
#: made SLSQP decisions 8-25x slower and the run-to-run spread several
#: times wider.  Thread count also changes summation order, and with it
#: the solver's path, so pinning it keeps the counts of one seed equal.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def isolate_environment() -> None:
    """Make this process measure the repository's defaults on pinned
    BLAS threads: drop every ``REPRO_*`` knob inherited from the caller
    and set :data:`BLAS_ENV`.  Call before numpy is imported."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(BLAS_ENV)


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: this process's
    (already isolated) environment with the checkout's ``src`` on the
    path."""
    return {**os.environ, "PYTHONPATH": str(SRC)}


def env_stamp(seed: int) -> dict[str, object]:
    """Versions, core count, source identity and seed of this run."""
    import networkx
    import numpy
    import scipy

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode())
        src_hash.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
        "src_sha256": src_hash.hexdigest()[:16],
        "seed": seed,
    }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read from the
    ``.git`` files, no git process); ``None`` in an exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------- set-up probes
def setup_probes(workload: str, seed: int, tmp: Path, count: int = SETUP_PROBES) -> dict:
    """Start ``count`` fresh interpreters that each import ``repro`` and
    prepare the workload's first unit of work.

    ``setup_s`` runs from just before the process is spawned to the
    moment it reports ready; ``import_s`` is the child's own timing of
    ``import repro``.  Probes run one at a time, after the measured loop,
    so they never compete with it.
    """
    setup, imports = [], []
    for index in range(count):
        probe_tmp = tmp / f"probe-{index}"
        probe_tmp.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(probe_tmp)],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=str(ROOT),
            text=True,
        )
        try:
            readable, _, _ = select.select([proc.stdout], [], [], SETUP_PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if readable else ""
            ready = time.perf_counter() - start
            code = proc.wait(timeout=SETUP_PROBE_TIMEOUT_S) if line else None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or not line.strip():
            raise RuntimeError(f"set-up probe for {workload!r} failed (exit {code})")
        setup.append(ready)
        imports.append(float(json.loads(line)["import_s"]))
    return {"setup_s": median(setup), "import_s": median(imports), "samples": setup}
