"""Shared machinery of the queue-shaped backends.

The file-based :class:`~repro.experiment.backends.work_queue.WorkQueueBackend`
and the HTTP :class:`~repro.experiment.backends.broker_client.BrokerBackend`
speak the same task/claim/result envelope protocol and manage local
drainers the same way; this module holds the shared parts:

* the **lease/retry knobs** (``REPRO_QUEUE_LEASE_S``,
  ``REPRO_QUEUE_MAX_ATTEMPTS``) and the task envelope constructor that
  embeds them, so submitter, workers and broker all agree on how long a
  claim may go silent and how many times a task may lose its worker
  before it is declared dead;
* :class:`QueueStats`, the per-submission account of what self-healing
  actually did (drainers spawned, leases expired, retry budgets
  exhausted), surfaced on ``BatchResult.queue``;
* :class:`DrainerPool`, the submitter-side auto-scaler: instead of
  spawning a fixed worker count up front, the collect loop tops the
  pool up from the *observed* queue depth every tick — a drainer that
  died (or exited on an empty queue before a lease-expired task was
  requeued) is replaced the moment there is visible work again.  Each
  drainer writes its own log file, so a failure embeds the tail of the
  log of the worker that actually failed instead of an interleaved
  mess.

Local drainers are **forked** from the submitter, which has already
imported the simulator and the solver: a drainer runs
:func:`repro.experiment.worker.main` in-process with the argv an
external worker would get on its command line, instead of paying about
a second of interpreter start-up and ``import repro`` per drainer.
External fleets run the same code through the unchanged
``python -m repro.experiment.worker`` CLI.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import sys
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, NoReturn, Sequence

__all__ = [
    "BROKER_TOKEN_ENV_VAR",
    "BROKER_URL_ENV_VAR",
    "DEFAULT_LEASE_S",
    "DEFAULT_MAX_ATTEMPTS",
    "DrainerPool",
    "LEASE_ENV_VAR",
    "MAX_ATTEMPTS_ENV_VAR",
    "PollBackoff",
    "QueueStats",
    "default_broker_token",
    "default_lease_s",
    "default_max_attempts",
    "exhausted_error",
    "task_envelope",
    "worker_subprocess_env",
]

#: Seconds a claim may go without a heartbeat before any observer may
#: requeue it.  Workers heartbeat at a quarter of the lease, so a live
#: worker never comes close; a SIGKILL'd one is requeued within one
#: lease interval.
LEASE_ENV_VAR = "REPRO_QUEUE_LEASE_S"
DEFAULT_LEASE_S = 30.0

#: Total executions a task may consume (first run + retries) before the
#: queue gives up and synthesizes an error envelope naming the task.
MAX_ATTEMPTS_ENV_VAR = "REPRO_QUEUE_MAX_ATTEMPTS"
DEFAULT_MAX_ATTEMPTS = 3

#: Default broker URL for ``BrokerBackend()`` / ``REPRO_BATCH_BACKEND=broker``.
BROKER_URL_ENV_VAR = "REPRO_BROKER_URL"

#: Shared broker secret.  Set on the broker it *requires* the token; set
#: on clients (submitter, workers) they *send* it.  Export the same
#: value everywhere — locally forked drainers inherit the submitter's
#: environment, and so they inherit it.
BROKER_TOKEN_ENV_VAR = "REPRO_BROKER_TOKEN"


def default_lease_s() -> float:
    """The environment's claim lease, or :data:`DEFAULT_LEASE_S`."""
    raw = os.environ.get(LEASE_ENV_VAR, "")
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_LEASE_S
    return value if raw and value > 0 else DEFAULT_LEASE_S


def default_max_attempts() -> int:
    """The environment's retry budget, or :data:`DEFAULT_MAX_ATTEMPTS`."""
    raw = os.environ.get(MAX_ATTEMPTS_ENV_VAR, "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_MAX_ATTEMPTS
    return value if raw and value >= 1 else DEFAULT_MAX_ATTEMPTS


def default_broker_token() -> str | None:
    """The environment's broker token, or ``None`` (open broker)."""
    return os.environ.get(BROKER_TOKEN_ENV_VAR) or None


class PollBackoff:
    """Jittered exponential backoff for idle polling.

    Flat ``poll_interval_s`` polling is right while work is flowing, but
    an *idle* tenant hammering a shared broker at 20 Hz — every
    submitter waiting on stragglers, every ``--idle-timeout-s`` worker
    between submissions — is pure load.  The first ``grace`` consecutive
    empty polls stay at ``base_s`` (an *active* sweep sees empty polls
    between result arrivals and during worker startup; slowing those
    would trade submit→collect latency for nothing — a poll costs the
    broker well under a millisecond), then the delay doubles up to ``cap_s``
    (callers cap well below a lease so liveness reactions stay prompt).
    Full jitter (a uniform factor in ``[0.5, 1.0]``) decorrelates a
    fleet that went idle together.  Any progress resets the clock.
    """

    def __init__(self, base_s: float, cap_s: float, grace: int = 32) -> None:
        self.base_s = max(base_s, 0.001)
        self.cap_s = max(cap_s, self.base_s)
        self.grace = max(grace, 0)
        self._idle_polls = 0
        # Not the sim layer: schedule jitter may be nondeterministic.
        self._rng = random.Random()

    def reset(self) -> None:
        """Call on any progress; the next delay is the base again."""
        self._idle_polls = 0

    def next_delay(self) -> float:
        """Delay before the next poll, growing per consecutive idle call."""
        exponent = max(self._idle_polls - self.grace, 0)
        delay = min(self.base_s * (2.0**exponent), self.cap_s)
        self._idle_polls += 1
        return delay * (0.5 + 0.5 * self._rng.random())


def task_envelope(
    task_id: str,
    spec: Mapping[str, Any],
    lease_s: float | None = None,
    max_attempts: int | None = None,
) -> dict[str, Any]:
    """The task half of the queue protocol, shared by every transport.

    ``attempts`` counts claims so far (bumped by whoever requeues an
    expired claim); ``lease_s``/``max_attempts`` ride inside the
    envelope so workers and requeuers — possibly on other hosts, with
    other environments — enforce the *submitter's* policy, not their
    own defaults.
    """
    return {
        "id": task_id,
        "spec": dict(spec),
        "attempts": 0,
        "lease_s": float(lease_s if lease_s is not None else default_lease_s()),
        "max_attempts": int(
            max_attempts if max_attempts is not None else default_max_attempts()
        ),
    }


def exhausted_error(task_id: str, attempts: int, max_attempts: int) -> str:
    """The error text of a synthesized give-up envelope.

    Contractual content: the task id and the attempt count, so the
    eventual :class:`~repro.experiment.backends.base.BackendError` names
    the one task that kept losing its worker instead of a blanket
    timeout that discards every finished cell.
    """
    return (
        f"task {task_id} lost its worker {attempts} time(s) and exhausted "
        f"its retry budget (max_attempts={max_attempts}); the claim lease "
        f"expired without a result each time"
    )


@dataclass
class QueueStats:
    """What the self-healing layer did during one submission."""

    #: Local drainers forked over the whole run (top-ups after worker
    #: deaths included — this can exceed the worker cap).
    spawned: int = 0
    #: Expired claims put back on the queue (worker deaths survived).
    requeued: int = 0
    #: Tasks that burned their whole retry budget and were synthesized
    #: into error envelopes.
    exhausted: int = 0
    #: Largest unclaimed backlog the collect loop observed.
    max_depth: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "spawned": self.spawned,
            "requeued": self.requeued,
            "exhausted": self.exhausted,
            "max_depth": self.max_depth,
        }


def worker_subprocess_env() -> dict[str, str]:
    """Environment for a ``python -m repro.experiment.worker`` process
    started by hand (tests, scripts) next to this checkout.

    Such a worker must be able to import repro even when the submitter
    runs from a source checkout that was put on ``sys.path`` by hand
    rather than installed.  :class:`DrainerPool`'s forked drainers need
    none of this: they inherit the submitter's modules and environment.
    """
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[3])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = package_root + (
            os.pathsep + existing if existing else ""
        )
    return env


def _exit_code(exc: SystemExit) -> int:
    """The process exit status the interpreter would give ``exc``."""
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code
    print(exc.code, file=sys.stderr)
    return 1


def _run_forked_drainer(
    main: Callable[[list[str]], int], argv: list[str], log_fd: int
) -> NoReturn:
    """Body of a forked drainer; never returns to the submitter's code.

    The child leaves through ``os._exit`` on every path, so the
    submitter's ``atexit`` hooks, ``TemporaryDirectory`` finalizers and
    buffered stdio never run a second time in the child.
    """
    code = 1
    try:
        # A profiler running in the submitter (the benchmark's trace
        # mode) would only slow the drainer: its records die with it.
        sys.setprofile(None)
        # Keep the collector off the submitter's objects: a full
        # collection in the child would walk the whole inherited heap
        # and copy every page it touches.  On the sweep-broker benchmark
        # (2-vCPU x86-64 VM, Python 3.11) this alone took work_per_s
        # from 38 to 55 cells/s.
        gc.freeze()
        os.dup2(log_fd, 1)
        os.dup2(log_fd, 2)
        os.close(log_fd)
        # Fresh objects: the inherited ones may hold the parent's buffer.
        sys.stdout = open(1, "a", buffering=1, encoding="utf-8", closefd=False)
        sys.stderr = open(2, "a", buffering=1, encoding="utf-8", closefd=False)
        try:
            code = int(main(argv) or 0)
        except SystemExit as exc:
            code = _exit_code(exc)
        except BaseException:
            traceback.print_exc()
            code = 1
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        os._exit(code)


class ForkedDrainer:
    """Handle on one forked drainer: the slice of ``subprocess.Popen``
    the pool needs, reaped with ``os.waitpid``.

    ``returncode`` follows ``Popen``: the exit status, or ``-N`` for a
    drainer killed by signal ``N``.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: int | None = None

    def _reap(self, flags: int) -> int | None:
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, flags)
            except ChildProcessError:
                # Reaped by someone else (or SIGCHLD ignored): the child
                # is gone and its status with it — Popen's answer is 0.
                self.returncode = 0
            else:
                if pid:
                    self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def poll(self) -> int | None:
        """Exit status if the drainer has exited (reaping it), else None."""
        return self._reap(os.WNOHANG)

    def wait(self, timeout_s: float | None = None) -> int | None:
        """Reap the drainer; ``None`` if it still runs after ``timeout_s``."""
        if timeout_s is None:
            return self._reap(0)
        deadline = time.monotonic() + timeout_s
        while self.poll() is None and time.monotonic() < deadline:
            time.sleep(0.005)
        return self.returncode

    def _signal(self, signum: int) -> None:
        if self.returncode is None:
            try:
                os.kill(self.pid, signum)
            except ProcessLookupError:
                pass  # exited; the next poll reaps it

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)


@dataclass
class DrainerPool:
    """Submitter-side drainers, forked on demand and topped up from
    queue depth.

    Args:
        argv: the drainer's worker arguments, exactly as the
            ``python -m repro.experiment.worker`` CLI takes them; every
            drainer runs :func:`repro.experiment.worker.main` on them.
        log_dir: where per-drainer logs go.
        log_prefix: log files are ``{log_prefix}-{n:02d}.log`` — one per
            drainer, so a traceback is never interleaved with another
            process's output.
        cap: most drainers alive at once (0 = external-drain mode, the
            pool never spawns).
    """

    argv: Sequence[str]
    log_dir: Path
    log_prefix: str
    cap: int
    stats: QueueStats = field(default_factory=QueueStats)
    _drainers: list[tuple[ForkedDrainer, Path]] = field(default_factory=list)

    def _spawn(self) -> None:
        from repro.experiment.worker import main  # the worker imports this package

        log_path = self.log_dir / f"{self.log_prefix}-{self.stats.spawned:02d}.log"
        log_fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()  # or the child would inherit the buffer
            with warnings.catch_warnings():
                # Python 3.12+ warns that forking a multi-threaded
                # process may deadlock the child on a lock another
                # thread held.  The submitter's other threads are the
                # private broker's server and request handlers; the
                # child never touches the broker's locks or sockets.
                # It runs the worker on fresh stdio objects and fresh
                # connections, and leaves through os._exit.
                warnings.filterwarnings(
                    "ignore", message=r".*fork\(\)", category=DeprecationWarning
                )
                pid = os.fork()
            if pid == 0:
                _run_forked_drainer(main, list(self.argv), log_fd)
        finally:
            os.close(log_fd)
        self._drainers.append((ForkedDrainer(pid), log_path))
        self.stats.spawned += 1

    def top_up(self, depth: int) -> None:
        """Spawn drainers until ``min(cap, depth)`` are alive.

        ``depth`` is the *observed* unclaimed backlog — the pool never
        spawns more workers than there are visible tasks, and a worker
        that died mid-sweep is replaced the next time a task (its own,
        requeued after lease expiry) becomes visible again.
        """
        self.stats.max_depth = max(self.stats.max_depth, depth)
        want = min(self.cap, depth)
        for _ in range(want - self.alive_count()):
            self._spawn()

    def alive_count(self) -> int:
        return sum(1 for drainer, _ in self._drainers if drainer.poll() is None)

    def any_alive(self) -> bool:
        return any(drainer.poll() is None for drainer, _ in self._drainers)

    def failed_exits(self) -> list[tuple[ForkedDrainer, Path]]:
        """Drainers that exited with a nonzero status (crash or kill),
        oldest first."""
        return [
            (drainer, log_path)
            for drainer, log_path in self._drainers
            if drainer.poll() not in (None, 0)
        ]

    def failing_log_tail(self, limit: int = 2000) -> str:
        """Tail of the log of the most recently failed drainer (or, when
        none failed, of the last drainer at all) — the satellite fix for
        the old interleaved shared log: the traceback shown is the
        *failing* worker's own."""
        failed = self.failed_exits()
        candidates = failed if failed else self._drainers
        for drainer, log_path in reversed(candidates):
            try:
                text = log_path.read_text(encoding="utf-8")
            except OSError:
                continue
            if text.strip():
                return (
                    f"[drainer exit status {drainer.poll()}, log {log_path.name}]\n"
                    + text[-limit:]
                )
        return ""

    def terminate(self) -> None:
        """Stop every drainer and reap it: SIGTERM, a grace period, then
        SIGKILL for any that ignored it — never a zombie left behind."""
        for drainer, _ in self._drainers:
            drainer.terminate()
        for drainer, _ in self._drainers:
            if drainer.wait(10.0) is None:  # pragma: no cover
                drainer.kill()
                drainer.wait()

    def remove_logs(self) -> None:
        for _, log_path in self._drainers:
            try:
                log_path.unlink()
            except OSError:
                pass
