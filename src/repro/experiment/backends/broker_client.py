"""HTTP client half of the broker protocol: ``BrokerBackend``.

:class:`BrokerClient` is a small stdlib JSON client for the endpoints of
:mod:`repro.experiment.broker`; it is shared by the submitting
:class:`BrokerBackend` here and by broker-mode workers
(``python -m repro.experiment.worker --broker <url>``).  It holds one
keep-alive :class:`http.client.HTTPConnection` per thread — a queue
conversation is thousands of small requests to one host, and paying TCP
setup per request was the dominant slice of the broker's per-task
overhead — and sends the shared-secret ``Authorization`` header when
``REPRO_BROKER_TOKEN`` is set.

:class:`BrokerBackend` is the network-transparent sibling of
:class:`~repro.experiment.backends.work_queue.WorkQueueBackend`: same
task/claim/result envelopes, same leases and retry budgets (the broker
enforces them server-side), same auto-scaled local drainers (forked
from the submitter; external workers run the
``python -m repro.experiment.worker --broker <url>`` CLI) — but the
only thing submitter and workers share is a URL (and, beyond a trusted
network, a token).
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import threading
import time
import urllib.parse
import uuid
from pathlib import Path
from tempfile import TemporaryDirectory
from typing import Any, Mapping, Sequence

from repro.experiment.backends.base import (
    BackendError,
    ExecutionBackend,
    register_backend,
)
from repro.experiment.backends.queue_common import (
    BROKER_TOKEN_ENV_VAR,
    BROKER_URL_ENV_VAR,
    DrainerPool,
    PollBackoff,
    QueueStats,
    default_broker_token,
    default_lease_s,
    default_max_attempts,
    task_envelope,
)

__all__ = ["BrokerAuthError", "BrokerBackend", "BrokerClient", "BrokerUnavailable"]


class BrokerUnavailable(ConnectionError):
    """The broker did not answer (connection refused, timeout, 5xx)."""


class BrokerAuthError(PermissionError):
    """The broker refused the request's token (401).

    Deliberately **not** a :class:`ConnectionError` subclass: retry
    loops treat :class:`BrokerUnavailable` as transient and keep
    polling, but a rejected token never heals by waiting — workers and
    submitters must fail fast with the fix (export the matching
    ``REPRO_BROKER_TOKEN``) instead of spinning against a 401.
    """


class BrokerClient:
    """JSON-over-HTTP client for one broker URL (stdlib only).

    Connections are keep-alive and **per-thread** (a worker's heartbeat
    thread and main loop must not interleave on one socket), rebuilt
    transparently when the server drops one — safe to retry because
    every endpoint is idempotent or ack-based.

    Args:
        url: the broker, e.g. ``http://127.0.0.1:8123``.
        timeout_s: per-request socket timeout.
        token: shared secret sent as ``Authorization: Bearer <token>``;
            defaults to ``REPRO_BROKER_TOKEN`` (``None`` sends nothing).
    """

    def __init__(
        self,
        url: str,
        timeout_s: float = 10.0,
        token: str | None = None,
    ) -> None:
        self.url = url.rstrip("/")
        parts = urllib.parse.urlsplit(self.url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(
                f"broker url must be http://host[:port], got {url!r}"
            )
        self._host = parts.hostname
        self._port = parts.port or 80
        self.timeout_s = timeout_s
        self.token = token if token is not None else default_broker_token()
        self._local = threading.local()

    # -------------------------------------------------------------- transport
    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout_s
            )
            connection.connect()
            # Nagle + delayed ACK costs ~40 ms per small keep-alive
            # round trip — the exact overhead connection reuse exists
            # to remove.  The broker disables it server-side too.
            connection.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self._local.connection = connection
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def close(self) -> None:
        """Close this thread's keep-alive connection (idempotent)."""
        self._drop_connection()

    def _request(self, path: str, payload: Mapping[str, Any] | None) -> dict:
        method = "GET" if payload is None else "POST"
        body = (
            None if payload is None else json.dumps(payload).encode("utf-8")
        )
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        # One transparent retry on a fresh connection: a keep-alive
        # socket the server idled out surfaces as a send/read failure on
        # the *next* request, which is indistinguishable from a real
        # outage until a clean connection answers.
        for attempt in (0, 1):
            try:
                connection = self._connection()
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()  # drain fully: keeps the socket reusable
            except (OSError, http.client.HTTPException) as exc:
                self._drop_connection()
                if attempt:
                    raise BrokerUnavailable(
                        f"broker {self.url} unreachable on {path}: {exc}"
                    ) from exc
                continue
            detail = raw.decode("utf-8", "replace")[:500]
            if response.status == 401:
                raise BrokerAuthError(
                    f"broker {self.url} refused {path}: {detail}"
                )
            if response.status != 200:
                raise BrokerUnavailable(
                    f"broker {self.url} answered {response.status} on "
                    f"{path}: {detail}"
                )
            try:
                return json.loads(raw.decode("utf-8"))
            except ValueError as exc:
                self._drop_connection()
                raise BrokerUnavailable(
                    f"broker {self.url} sent a non-JSON reply on {path}: "
                    f"{detail}"
                ) from exc
        raise AssertionError("unreachable")  # pragma: no cover

    # One method per endpoint; see the broker module docstring.
    def submit(self, tasks: Sequence[Mapping[str, Any]]) -> int:
        return int(self._request("/submit", {"tasks": list(tasks)})["accepted"])

    def claim(self, match: str = "", worker: str = "") -> dict[str, Any] | None:
        return self._request("/claim", {"match": match, "worker": worker})["task"]

    def heartbeat(self, task_id: str) -> bool:
        return bool(self._request("/heartbeat", {"id": task_id})["ok"])

    def result(self, outcome: Mapping[str, Any]) -> bool:
        return bool(self._request("/result", dict(outcome))["ok"])

    def collect(
        self,
        ids: Sequence[str] | None = None,
        match: str | None = None,
        ack: Sequence[str] = (),
    ) -> dict[str, Any]:
        payload: dict[str, Any] = {"ack": list(ack)}
        if match is not None:
            payload["match"] = match
        else:
            payload["ids"] = list(ids or [])
        return self._request("/collect", payload)

    def cancel(self, ids: Sequence[str]) -> int:
        return int(self._request("/cancel", {"ids": list(ids)})["cancelled"])

    def stats(self) -> dict[str, Any]:
        return self._request("/stats", None)


class BrokerBackend(ExecutionBackend):
    """Execute a sweep through an HTTP broker instead of a shared dir.

    Args:
        url: the broker.  ``None`` honors ``REPRO_BROKER_URL``; with
            neither set, a private in-process broker is started for the
            duration of each :meth:`run` (local fan-out with zero
            deployment — and what ``REPRO_BATCH_BACKEND=broker`` gives
            CI).
        workers: cap on concurrently live local drainers, each forked
            from this process to run the worker's ``--broker <url>``
            loop.
            ``0`` spawns none and relies on an external fleet already
            polling the broker — which then requires an explicit or
            environment-provided ``url``, since a private broker nobody
            else can discover would hang until timeout.
        cache_dir: optional shared :class:`ResultCache` directory the
            spawned workers write computed results back to.
        poll_interval_s: base ``/collect`` poll interval while results
            are flowing; consecutive empty polls back off exponentially
            (with jitter, capped well below a lease) so an idle
            submitter does not hammer a shared broker.
        timeout_s: give up (``BackendError``) when results stop arriving
            for this long with nothing claimed and nothing recoverable —
            and the outage budget: a durable broker may restart mid-
            sweep, so the collect loop rides out unreachability up to
            this long before declaring the submission lost.
        lease_s / max_attempts: per-task lease and retry budget embedded
            in this submission's envelopes; default to
            ``REPRO_QUEUE_LEASE_S`` / ``REPRO_QUEUE_MAX_ATTEMPTS``.
        token: shared broker secret; defaults to ``REPRO_BROKER_TOKEN``.

    After :meth:`run`, :attr:`last_run_stats` holds the submission's
    :class:`~repro.experiment.backends.queue_common.QueueStats`.
    """

    name = "broker"

    def __init__(
        self,
        url: str | None = None,
        workers: int | None = None,
        cache_dir: str | os.PathLike[str] | None = None,
        poll_interval_s: float = 0.05,
        timeout_s: float = 600.0,
        lease_s: float | None = None,
        max_attempts: int | None = None,
        token: str | None = None,
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
        if workers == 0 and url is None and not os.environ.get(BROKER_URL_ENV_VAR):
            raise ValueError(
                "workers=0 (external drain) requires a broker url the "
                "external workers can reach; a private per-run broker "
                "would hang until timeout"
            )
        self.url = url
        self.workers = workers
        self.cache_dir = Path(cache_dir).expanduser() if cache_dir else None
        self.poll_interval_s = poll_interval_s
        self.timeout_s = timeout_s
        self.lease_s = lease_s if lease_s is not None else default_lease_s()
        self.max_attempts = (
            max_attempts if max_attempts is not None else default_max_attempts()
        )
        self.token = token
        self.last_run_stats: QueueStats | None = None

    def workers_for(self, num_tasks: int) -> int:
        """Local drainer cap (external-drain mode reports 1 — the
        submitter cannot know how big the remote fleet is)."""
        if num_tasks <= 0 or self.workers == 0:
            return 1
        if self.workers is not None:
            return min(self.workers, max(num_tasks, 1))
        return min(num_tasks, os.cpu_count() or 1)

    # ------------------------------------------------------------- internals
    def _worker_command(self, url: str, match: str) -> list[str]:
        # No --token flag: the secret rides in REPRO_BROKER_TOKEN, which
        # every forked drainer inherits with the submitter's environment.
        argv = [
            "--broker",
            url,
            "--exit-when-empty",
            "--poll-interval-s",
            str(self.poll_interval_s),
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
        url = self.url or os.environ.get(BROKER_URL_ENV_VAR)
        if url:
            return self._run_against(url, payloads)
        # Private per-run broker: serve this submission and disappear.
        from repro.experiment.broker import start_broker

        server = start_broker(
            lease_s=self.lease_s,
            max_attempts=self.max_attempts,
            token=self.token if self.token is not None else default_broker_token(),
        )
        try:
            return self._run_against(server.url, payloads)
        finally:
            server.shutdown()
            server.server_close()

    def _run_against(
        self, url: str, payloads: Sequence[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        client = BrokerClient(url, token=self.token)
        job = uuid.uuid4().hex[:12]
        task_ids = [f"{job}-{index:05d}" for index in range(len(payloads))]
        try:
            client.submit(
                [
                    task_envelope(
                        task_id,
                        payload,
                        lease_s=self.lease_s,
                        max_attempts=self.max_attempts,
                    )
                    for task_id, payload in zip(task_ids, payloads)
                ]
            )
        except BrokerAuthError as exc:
            raise BackendError(
                f"the broker requires a token this submitter does not have "
                f"(set {BROKER_TOKEN_ENV_VAR}): {exc}"
            ) from exc
        except BrokerUnavailable as exc:
            raise BackendError(f"could not submit to the broker: {exc}") from exc
        with TemporaryDirectory(prefix="repro-broker-logs-") as log_dir:
            pool = DrainerPool(
                argv=self._worker_command(url, f"{job}-"),
                log_dir=Path(log_dir),
                log_prefix=f"worker-{job}",
                cap=self.workers_for(len(payloads)) if self.workers != 0 else 0,
            )
            self.last_run_stats = pool.stats
            try:
                return self._collect(client, task_ids, pool, f"{job}-")
            finally:
                pool.terminate()
                # Withdraw leftovers: an external fleet must not burn
                # compute on a sweep nobody is waiting for, and the
                # broker must not accumulate dead submissions.
                try:
                    client.cancel(task_ids)
                except (BrokerUnavailable, BrokerAuthError):
                    pass
                client.close()

    def _collect(
        self,
        client: BrokerClient,
        task_ids: list[str],
        pool: DrainerPool,
        match: str,
    ) -> list[dict[str, Any]]:
        pending = set(task_ids)
        collected: dict[str, dict[str, Any]] = {}
        last_progress = time.monotonic()
        spawned_at_progress = 0
        # Idle polls back off exponentially (with jitter) so a submitter
        # waiting on stragglers polls a shared broker a few times per
        # second at worst, not at a flat 20 Hz; the cap stays well below
        # a lease so requeue/auto-scale reactions remain prompt.
        idle_backoff = PollBackoff(
            self.poll_interval_s,
            max(self.poll_interval_s, min(self.lease_s / 4.0, 2.0)),
        )
        outage_backoff = PollBackoff(
            max(self.poll_interval_s, 0.25), min(self.lease_s / 2.0, 5.0)
        )
        outage_since: float | None = None
        # Ack-based handover: each tick acknowledges the results safely
        # received last tick (the broker then drops them) and addresses
        # the submission by its id prefix — per-tick traffic scales with
        # newly finished cells, not with the size of the sweep.
        ack: list[str] = []
        while pending:
            try:
                response = client.collect(match=match, ack=ack)
            except BrokerAuthError as exc:
                raise BackendError(
                    f"the broker rejected this submitter's token mid-run "
                    f"(set {BROKER_TOKEN_ENV_VAR} to match the broker): {exc}"
                ) from exc
            except BrokerUnavailable as exc:
                # An unreachable broker is not a lost broker: a durable
                # one comes back with the full submission intact, and a
                # transient network blip heals by itself (nothing is
                # lost either way — unacked results are simply re-sent).
                # Keep polling with backoff until the outage has lasted
                # a full timeout_s; only then declare the sweep lost.
                now = time.monotonic()
                if outage_since is None:
                    outage_since = now
                elif now - outage_since > self.timeout_s:
                    raise BackendError(
                        f"broker unreachable for {self.timeout_s:.0f}s with "
                        f"{len(pending)} task(s) unfinished: {exc}"
                    ) from exc
                time.sleep(outage_backoff.next_delay())
                continue
            outage_since = None
            outage_backoff.reset()
            ack = [str(envelope.get("id")) for envelope in response["results"]]
            progressed = False
            for envelope in response["results"]:
                task_id = str(envelope.get("id"))
                if task_id not in pending:
                    continue  # re-sent while its ack was in flight
                if envelope.get("error") is not None:
                    raise BackendError(
                        f"broker task {task_id} failed in a worker:\n"
                        f"{envelope['error']}"
                    )
                pool.stats.requeued += int(envelope.get("attempts", 0) or 0)
                collected[task_id] = envelope["result"]
                pending.discard(task_id)
                progressed = True
            if progressed:
                last_progress = time.monotonic()
                spawned_at_progress = pool.stats.spawned
                idle_backoff.reset()
                continue
            # Auto-scaling from the broker's own backlog count: requeued
            # tasks (their worker died; the broker already swept the
            # expired lease) become visible here and get a fresh drainer.
            if pool.cap > 0:
                pool.top_up(int(response.get("pending", 0)))
                if pool.stats.spawned - spawned_at_progress > max(6, 3 * pool.cap):
                    raise BackendError(
                        f"local broker workers keep exiting without progress "
                        f"({pool.stats.spawned} spawned, {len(pending)} "
                        f"task(s) unfinished)\n{pool.failing_log_tail()}"
                    )
            if pool.any_alive():
                time.sleep(idle_backoff.next_delay())
                continue
            if time.monotonic() - last_progress > self.timeout_s:
                # A claim still counted by the broker is *live* — the
                # broker sweeps expired leases on every request, so a
                # dead worker's claim would already have been requeued
                # (progress) or exhausted (error envelope).  A live
                # worker computing a big cell gets the same patience
                # local drainers do; only tasks sitting unclaimed with
                # nobody to run them can time out.
                if int(response.get("claimed", 0)) > 0:
                    time.sleep(idle_backoff.next_delay())
                    continue
                raise BackendError(
                    f"timed out after {self.timeout_s:.0f}s waiting for "
                    f"{len(pending)} unclaimed broker task(s) at "
                    f"{client.url}\n{pool.failing_log_tail()}"
                )
            time.sleep(idle_backoff.next_delay())
        return [collected[task_id] for task_id in task_ids]


register_backend(
    BrokerBackend.name, lambda max_workers: BrokerBackend(workers=max_workers)
)
