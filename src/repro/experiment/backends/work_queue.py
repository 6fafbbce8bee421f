"""The shared-directory work queue, now lease-based and self-healing.

One task file per cell lands in ``<queue_dir>/tasks/``; workers claim a
task by atomically renaming it into ``claimed/`` (the rename is the
lock — exactly one claimant wins), run
:func:`~repro.experiment.backends.base.run_spec_payload`, and write the
result JSON into ``results/``.  The submitter polls for result files and
reassembles them in submission order.

A claim is a **lease**, not a tombstone: the claimed file's mtime is the
heartbeat (set on claim, refreshed by the worker while it computes), and
any observer — the submitting process each poll tick, or an idle worker
— may requeue a claim whose mtime has gone silent for longer than the
task's ``lease_s`` by bumping its ``attempts`` counter and renaming it
back into ``tasks/``.  A ``kill -9``'d drainer therefore costs one lease
interval, not the sweep.  A task that burns its whole ``max_attempts``
budget is synthesized into an error envelope naming the task id and the
attempt count, so the submitter fails on *that* task instead of a
blanket timeout that discards every finished cell.

Requeue races are benign by construction: if a slow-but-alive worker
completes a task that was concurrently requeued, both executions produce
byte-identical payloads (the engine's determinism guarantee), so
whichever result file lands is correct and the duplicate is withdrawn
with the submission's other leftovers.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import uuid
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.experiment.backends.base import (
    BackendError,
    ExecutionBackend,
    register_backend,
)
from repro.experiment.backends.queue_common import (
    DrainerPool,
    QueueStats,
    default_lease_s,
    default_max_attempts,
    exhausted_error,
    task_envelope,
)
from repro.experiment.fsio import atomic_write_text

__all__ = [
    "CLAIMED_DIR",
    "RESULTS_DIR",
    "TASKS_DIR",
    "WorkQueueBackend",
    "ensure_queue_dirs",
    "queue_clock",
    "requeue_expired_claims",
]

#: Queue-directory layout, shared with :mod:`repro.experiment.worker`.
TASKS_DIR = "tasks"
CLAIMED_DIR = "claimed"
RESULTS_DIR = "results"

#: Queue files this old are orphans of dead submissions (see
#: :meth:`WorkQueueBackend._reap_stale_files`).
_STALE_RESULT_S = 7 * 24 * 3600.0


def _atomic_write_json(target: Path, payload: Mapping[str, Any]) -> None:
    """Write JSON atomically so queue consumers never see partial files."""
    atomic_write_text(target, json.dumps(payload))


def ensure_queue_dirs(queue_dir: str | os.PathLike[str]) -> Path:
    """Create the tasks/claimed/results layout; returns the queue root."""
    root = Path(queue_dir).expanduser()
    for name in (TASKS_DIR, CLAIMED_DIR, RESULTS_DIR):
        (root / name).mkdir(parents=True, exist_ok=True)
    return root


def queue_clock(root: Path) -> float:
    """The queue filesystem's own notion of *now*.

    Lease expiry compares claim-file mtimes — stamped by worker hosts'
    ``os.utime`` calls, which a network filesystem resolves against the
    *server's* clock — so judging them by the local ``time.time()``
    would fold the full submitter↔server clock skew into every lease.
    Touching a probe file and reading its mtime back asks the same
    clock that stamps the claims, making skew cancel out; a filesystem
    that refuses falls back to local time (correct for local queues,
    where there is only one clock).
    """
    probe = root / CLAIMED_DIR / ".lease-clock"
    try:
        probe.touch()
        return probe.stat().st_mtime
    except OSError:
        return time.time()


def requeue_expired_claims(
    root: Path, match: str = "", now: float | None = None
) -> tuple[int, int]:
    """Requeue every expired claim under ``root``; ``(requeued, exhausted)``.

    A claim is expired when its file's mtime — refreshed by the owning
    worker's heartbeats — is older than the envelope's own ``lease_s``
    (pre-lease envelopes fall back to the environment default).  An
    expired claim with budget left goes back to ``tasks/`` with
    ``attempts`` bumped; one without gets a synthesized error envelope
    in ``results/`` naming the task and its attempt count.  ``match``
    restricts the sweep to one submission's tasks, exactly like claims.

    Any process sharing the directory may call this — the submitting
    backend does every poll tick, and idle workers do between claims —
    and concurrent sweeps are safe: the bumped envelope is written
    atomically and idempotently (two sweepers compute the same bytes),
    and the rename back into ``tasks/`` is the handover — exactly one
    sweeper's rename lands, and no claimant can touch the task before
    it does.
    """
    if now is None:
        now = queue_clock(root)
    fallback_lease = default_lease_s()
    requeued = exhausted = 0
    try:
        # Sorted so every sweeper repossesses in one deterministic order —
        # scandir order is filesystem-dependent, and two concurrent
        # sweepers walking the same order contend less and account alike.
        entries = sorted(os.scandir(root / CLAIMED_DIR), key=lambda e: e.name)
    except OSError:
        return 0, 0
    for entry in entries:
        if not entry.name.endswith(".json") or not entry.name.startswith(match):
            continue
        try:
            mtime = entry.stat().st_mtime
        except OSError:
            continue  # completed (or requeued) under us
        try:
            with open(entry.path, encoding="utf-8") as fh:
                envelope = json.load(fh)
        except (OSError, ValueError):
            continue  # mid-rename or torn read; the next sweep sees it
        lease_s = float(envelope.get("lease_s") or fallback_lease)
        if now - mtime <= lease_s:
            continue
        task_stem = Path(entry.name).stem
        if (root / RESULTS_DIR / f"{task_stem}.json").exists():
            # The owner was slow, not dead: its result is already on
            # disk, so resurrecting the task would only burn a duplicate
            # (byte-identical) simulation.  Drop the spent claim instead.
            try:
                os.unlink(entry.path)
            except OSError:
                pass
            continue
        attempts = int(envelope.get("attempts", 0)) + 1
        max_attempts = int(envelope.get("max_attempts") or default_max_attempts())
        envelope["attempts"] = attempts
        task_id = str(envelope.get("id", Path(entry.name).stem))
        if attempts >= max_attempts:
            _atomic_write_json(
                root / RESULTS_DIR / f"{task_id}.json",
                {
                    "id": task_id,
                    "error": exhausted_error(task_id, attempts, max_attempts),
                    "attempts": attempts,
                },
            )
            exhausted += 1
            try:
                os.unlink(entry.path)
            except OSError:
                pass
        else:
            # Atomic repossession: bump the envelope *in the claimed
            # file*, then rename it back into tasks/.  Writing a fresh
            # task file and unlinking the claim afterwards would race a
            # quick worker — its re-claim lands at this very claimed
            # path, and the trailing unlink would destroy the live claim
            # and lose the task from every directory.  The rename *is*
            # the handover: until it happens nobody can claim, and two
            # concurrent sweepers just have the loser's rename fail.
            _atomic_write_json(Path(entry.path), envelope)
            try:
                os.replace(entry.path, root / TASKS_DIR / entry.name)
            except OSError:
                continue  # completed (or repossessed) under us
            requeued += 1
    return requeued, exhausted


class WorkQueueBackend(ExecutionBackend):
    """A shared-directory work queue any worker process can drain.

    Task ids are unique per submission, so several submitters (and any
    number of workers) can share one directory.  Locally spawned
    drainers are auto-scaled: the collect loop tops the pool up from the
    observed unclaimed backlog each tick (never above ``workers``), so a
    drainer that crashed — or exited on a momentarily empty queue before
    a dead worker's task was requeued — is replaced as soon as there is
    work for it.

    Args:
        queue_dir: the shared directory.  ``None`` creates a private
            temporary queue per :meth:`run` — convenient for local use,
            pointless for remote workers, which need a directory they
            can see too.
        workers: cap on concurrently live local drainers, each forked
            from this process to run the worker's loop on the queue.
            ``0`` spawns none and relies entirely on external workers
            (``python -m repro.experiment.worker <queue_dir>``) already
            watching the directory.
        cache_dir: optional shared :class:`ResultCache` directory the
            spawned workers write results back to (content-addressed,
            so concurrent writers are safe) — lets a warm shared store
            build up even when the submitter itself runs uncached.
        poll_interval_s: how often the submitter re-scans ``results/``.
        timeout_s: give up (``BackendError``) when results stop arriving
            for this long with no worker holding a live claim.
        lease_s: claim lease; defaults to ``REPRO_QUEUE_LEASE_S`` (30 s).
        max_attempts: per-task execution budget; defaults to
            ``REPRO_QUEUE_MAX_ATTEMPTS`` (3).

    After :meth:`run`, :attr:`last_run_stats` holds the submission's
    :class:`~repro.experiment.backends.queue_common.QueueStats`.
    """

    name = "work_queue"

    def __init__(
        self,
        queue_dir: str | os.PathLike[str] | None = None,
        workers: int | None = None,
        cache_dir: str | os.PathLike[str] | None = None,
        poll_interval_s: float = 0.05,
        timeout_s: float = 600.0,
        lease_s: float | None = None,
        max_attempts: int | None = None,
    ) -> None:
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative")
        if poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if lease_s is not None and lease_s <= 0:
            raise ValueError("lease_s must be positive")
        if max_attempts is not None and max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if workers == 0 and queue_dir is None:
            raise ValueError(
                "workers=0 (external drain) requires a queue_dir the "
                "external workers can see; a private temporary queue "
                "would hang until timeout"
            )
        self.queue_dir = Path(queue_dir).expanduser() if queue_dir else None
        self.workers = workers
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir else None
        self.poll_interval_s = poll_interval_s
        self.timeout_s = timeout_s
        self.lease_s = lease_s if lease_s is not None else default_lease_s()
        self.max_attempts = (
            max_attempts if max_attempts is not None else default_max_attempts()
        )
        self.last_run_stats: QueueStats | None = None

    def workers_for(self, num_tasks: int) -> int:
        """Local drainer cap (external-drain mode reports 1 — the
        submitter cannot know how many remote workers are watching)."""
        if num_tasks <= 0 or self.workers == 0:
            return 1
        if self.workers is not None:
            return min(self.workers, max(num_tasks, 1))
        return min(num_tasks, os.cpu_count() or 1)

    # ------------------------------------------------------------- internals
    def _worker_command(self, queue_dir: Path, match: str) -> list[str]:
        argv = [
            str(queue_dir),
            "--exit-when-empty",
            "--poll-interval-s",
            str(self.poll_interval_s),
            # Scoped to this submission: terminating these drainers at the
            # end of run() must never kill another submitter's task
            # mid-simulation in a shared directory.
            "--match",
            match,
        ]
        if self.cache_dir is not None:
            argv += ["--cache-dir", str(self.cache_dir)]
        return argv

    def run(self, payloads: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
        self.last_run_stats = None  # never leak a previous run's account
        if not payloads:
            return []
        if self.queue_dir is not None:
            return self._run_in(ensure_queue_dirs(self.queue_dir), payloads)
        with tempfile.TemporaryDirectory(prefix="repro-queue-") as tmp:
            return self._run_in(ensure_queue_dirs(tmp), payloads)

    def _reap_stale_files(self, root: Path) -> None:
        """Collect orphan result *and* claim files abandoned in a shared
        directory.

        A submitter that timed out withdraws its files, but a claimant
        that outlived the timeout may write its result afterwards with
        nobody left to consume it — and a worker that died holding a
        claim from a pre-lease submission (whose envelope nobody will
        ever requeue because its submitter is gone) leaves a claim file
        behind forever.  Live submitters unlink results within a poll
        tick and live claims are either heartbeat-fresh or requeued
        within a lease, so anything old belongs to no one — but "old" is
        judged from *other hosts'* mtimes, so the horizon is a
        deliberately paranoid fixed week, far beyond any clock skew,
        suspended submitter, or long custom ``timeout_s``: orphans
        accumulate slowly, and deleting a live file would lose work.
        """
        horizon = time.time() - _STALE_RESULT_S
        for subdir in (RESULTS_DIR, CLAIMED_DIR):
            try:
                entries = sorted(os.scandir(root / subdir), key=lambda e: e.name)
            except OSError:
                continue
            for entry in entries:
                try:
                    if entry.stat().st_mtime < horizon:
                        os.unlink(entry.path)
                except OSError:
                    continue

    def _run_in(
        self, root: Path, payloads: Sequence[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        self._reap_stale_files(root)
        job = uuid.uuid4().hex[:12]
        task_ids = [f"{job}-{index:05d}" for index in range(len(payloads))]
        for task_id, payload in zip(task_ids, payloads):
            _atomic_write_json(
                root / TASKS_DIR / f"{task_id}.json",
                task_envelope(
                    task_id,
                    payload,
                    lease_s=self.lease_s,
                    max_attempts=self.max_attempts,
                ),
            )
        pool = DrainerPool(
            argv=self._worker_command(root, f"{job}-"),
            log_dir=root,
            log_prefix=f"worker-{job}",
            cap=self.workers_for(len(payloads)) if self.workers != 0 else 0,
        )
        self.last_run_stats = pool.stats
        try:
            return self._collect(root, task_ids, pool, f"{job}-")
        finally:
            pool.terminate()
            # On failure/timeout, withdraw this submission's leftovers so
            # a shared queue's external workers don't burn compute on a
            # sweep nobody is waiting for.  Best-effort: a claimant that
            # outlives our timeout can still write an orphan result
            # afterwards — _reap_stale_files on the next submission
            # collects those.
            for task_id in task_ids:
                for subdir in (TASKS_DIR, CLAIMED_DIR, RESULTS_DIR):
                    try:
                        (root / subdir / f"{task_id}.json").unlink()
                    except OSError:
                        pass
            pool.remove_logs()  # failures embed the failing drainer's tail

    def _scan_results(
        self,
        results_dir: Path,
        pending: set[str],
        collected: dict[str, dict[str, Any]],
        stats: QueueStats,
    ) -> bool:
        """Collect every pending result currently on disk; True if any.

        One ``scandir`` per tick, not one failing ``open`` per pending
        task — the difference between O(results) and O(pending) syscalls
        matters when thousands of cells wait on a network filesystem.
        """
        try:
            present = {entry.name for entry in os.scandir(results_dir)}
        except OSError:
            return False
        progressed = False
        for task_id in sorted(pending):
            name = f"{task_id}.json"
            if name not in present:
                continue
            path = results_dir / name
            try:
                with open(path, encoding="utf-8") as fh:
                    envelope = json.load(fh)
            except (OSError, ValueError):
                continue  # mid-replace on an exotic fs; next tick has it
            if envelope.get("error") is not None:
                raise BackendError(
                    f"work-queue task {task_id} failed in a worker:\n"
                    f"{envelope['error']}"
                )
            # Requeue accounting reads the envelope, not the sweep above:
            # idle *workers* requeue expired claims too, and only the
            # envelope's attempts counter sees every requeuer exactly once.
            stats.requeued += int(envelope.get("attempts", 0) or 0)
            collected[task_id] = envelope["result"]
            pending.discard(task_id)
            try:
                path.unlink()
            except OSError:
                pass
            progressed = True
        return progressed

    def _unclaimed_depth(self, root: Path, match: str) -> int:
        """How many of this submission's tasks are waiting unclaimed."""
        try:
            return sum(
                1
                for entry in os.scandir(root / TASKS_DIR)
                if entry.name.startswith(match) and entry.name.endswith(".json")
            )
        except OSError:
            return 0

    def _collect(
        self,
        root: Path,
        task_ids: list[str],
        pool: DrainerPool,
        match: str,
    ) -> list[dict[str, Any]]:
        results_dir = root / RESULTS_DIR
        pending = set(task_ids)
        collected: dict[str, dict[str, Any]] = {}
        last_progress = time.monotonic()
        spawned_at_progress = 0
        # Sweep for expired leases often enough that recovery costs about
        # one lease interval, but never more than once per few ticks.
        sweep_every = max(self.poll_interval_s, self.lease_s / 8.0)
        next_sweep = time.monotonic()
        drainers_dead_rescan = False
        while pending:
            if self._scan_results(results_dir, pending, collected, pool.stats):
                last_progress = time.monotonic()
                spawned_at_progress = pool.stats.spawned
                drainers_dead_rescan = False
                continue
            now = time.monotonic()
            if now >= next_sweep:
                next_sweep = now + sweep_every
                requeued, exhausted = requeue_expired_claims(root, match)
                pool.stats.exhausted += exhausted
                if requeued or exhausted:
                    # Lease recovery is progress: the sweep is healing,
                    # not hanging.
                    last_progress = time.monotonic()
                    spawned_at_progress = pool.stats.spawned
                    drainers_dead_rescan = False
                    continue
            # Auto-scaling: spawn drainers for the observed unclaimed
            # backlog (includes requeued tasks whose previous drainer
            # died), never beyond the worker cap.  The depth scandir is
            # only paid when a spawn could actually happen — at cap (the
            # steady state) the tick costs nothing extra, which matters
            # on a network filesystem.
            if pool.cap > 0 and pool.alive_count() < pool.cap:
                pool.top_up(self._unclaimed_depth(root, match))
                if pool.stats.spawned - spawned_at_progress > max(6, 3 * pool.cap):
                    # Drainers keep exiting without a single result or
                    # lease recovery in between — a broken environment
                    # (a crash before the first claim, an unwritable
                    # queue), not a worker death the lease machinery
                    # would heal.  Checked right after the top-up: the
                    # drainer just spawned is alive on the next line, so
                    # while tasks wait unclaimed a check below it would
                    # never run.
                    raise BackendError(
                        f"local queue workers keep exiting without progress "
                        f"({pool.stats.spawned} spawned, {len(pending)} task(s) "
                        f"unfinished) in {root}\n{pool.failing_log_tail()}"
                    )
            if pool.any_alive():
                # A live local drainer is computing (simulations always
                # terminate) — a big cell legitimately takes as long as
                # it takes, so the stall timeout does not apply here.
                time.sleep(self.poll_interval_s)
                continue
            if pool.stats.spawned and not drainers_dead_rescan:
                # A drainer may write its last result and exit between
                # scan and liveness check — rescan once before judging,
                # or that window is a flake.
                drainers_dead_rescan = True
                continue
            # Remaining tasks are either claimed (someone — an external
            # worker, another submitter's drainer, or a dead worker whose
            # lease has not yet expired — owns them; expiry is handled by
            # the sweep above) or unclaimed with nobody local to spawn
            # for.  Give up only when results stop arriving for
            # timeout_s *and* nothing is claimed: a claim is either live
            # (its worker heartbeats, and a big cell legitimately takes
            # as long as it takes — the same rule local drainers get) or
            # expired, in which case the sweep above requeues it within
            # one lease and that counts as progress.  Only tasks sitting
            # unclaimed with nobody to run them can time out.
            if time.monotonic() - last_progress > self.timeout_s:
                if any(
                    (root / CLAIMED_DIR / f"{task_id}.json").exists()
                    for task_id in pending
                ):
                    time.sleep(self.poll_interval_s)
                    continue
                raise BackendError(
                    f"timed out after {self.timeout_s:.0f}s waiting for "
                    f"{len(pending)} unclaimed work-queue task(s) in {root}"
                    f"\n{pool.failing_log_tail()}"
                )
            time.sleep(self.poll_interval_s)
        return [collected[task_id] for task_id in task_ids]


register_backend(
    WorkQueueBackend.name, lambda max_workers: WorkQueueBackend(workers=max_workers)
)
