"""The sweep-service controller: leases, liveness, quarantine, fallback.

The controller owns every submitted sweep as a queue of *leases*: a point
handed to a worker stays owned by the controller, with a deadline.  The
failure model (DESIGN.md §5h) is built from four mechanisms:

* **Leases.**  A dispatched point is leased, never given away.  If the
  worker's lease expires — it died, hung, or lost its network — the point
  is re-queued with one attempt charged and re-leased to any worker, so a
  lost worker delays its points but never loses them.
* **Heartbeats.**  Workers heartbeat between and *during* point
  executions.  A worker silent past ``heartbeat_timeout`` is declared
  dead: its leases re-queue immediately instead of waiting out their
  deadlines, and the worker record is dropped (a reconnecting worker
  re-registers fresh).
* **Quarantine.**  A live worker whose leases keep expiring (a machine
  swapping itself to death, a half-broken accelerator) is quarantined
  after ``quarantine_after`` consecutive lease failures: it keeps
  heartbeating but is refused new leases for ``quarantine_seconds``.  One
  successful result clears the streak.
* **Fallback.**  If no workers are connected for ``fallback_after``
  seconds while work is queued, the controller runs the remaining points
  itself on the local transports a plain sweep uses
  (:func:`repro.core.parallel._run_local`) — a submitted sweep always
  completes, fleet or no fleet.

Retries reuse :class:`repro.core.parallel.RetryPolicy` with jitter
seeded from the sweep's base seed, so the retry timeline of a chaos test
is reproducible.  Each job's accounting — results, health, the shared
result cache's submit-time prefill and success-only write-back — is a
:class:`repro.core.parallel.SweepLedger`, the same one a local sweep runs
on, so any worker's result is every client's hit.

The :class:`Controller` itself is a pure, lock-protected state machine
driven by :meth:`Controller.handle` (one message in, one reply out),
:meth:`Controller.tick` (time-based transitions), and
:meth:`Controller.session_closed` — with an injectable clock, so the
whole failure model is unit-testable without sockets or sleeps.
:class:`ControllerServer` wraps it in a threading TCP server and a
monitor thread that ticks it for real deployments.
"""

from __future__ import annotations

import socketserver
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Mapping, Optional

from ..config import NetworkConfig
from ..core import cache as result_cache
from ..core.parallel import (
    RetryPolicy,
    SweepHealth,
    SweepLedger,
    SweepPoint,
    _failed_record,
    _run_local,
)
from .protocol import MAX_LINE_BYTES, PROTOCOL_VERSION, ProtocolError, decode, encode
from .worker import importable_name, resolve_runner

__all__ = ["Controller", "ControllerServer", "ServiceOptions"]


@dataclass(frozen=True)
class ServiceOptions:
    """Controller tuning knobs; the defaults suit LAN-local fleets."""

    #: Seconds a worker owns a lease before it is presumed lost.
    lease_seconds: float = 60.0
    #: Seconds of worker silence before its leases re-queue.
    heartbeat_timeout: float = 10.0
    #: Interval the controller asks workers to heartbeat at.
    heartbeat_interval: float = 2.0
    #: Consecutive lease failures before a worker is quarantined.
    quarantine_after: int = 3
    #: Seconds a quarantined worker is refused new leases.
    quarantine_seconds: float = 30.0
    #: Seconds with no live workers before the local fallback kicks in
    #: (``None`` disables the fallback entirely).
    fallback_after: Optional[float] = 15.0
    #: Process-pool width of the local fallback executor.
    fallback_workers: int = 1
    #: Seconds an idle worker is told to wait before asking again.
    idle_backoff: float = 0.5


@dataclass
class Lease:
    """One point out with one worker, until ``deadline``."""

    lease_id: str
    job_id: str
    index: int
    attempt: int
    worker_id: str
    deadline: float


@dataclass
class WorkerState:
    """Liveness and quarantine bookkeeping for one registered worker."""

    worker_id: str
    last_seen: float
    leases: set[str] = field(default_factory=set)
    completed: int = 0
    consecutive_failures: int = 0
    quarantined_until: float = 0.0

    def quarantined(self, now: float) -> bool:
        return now < self.quarantined_until


class Job:
    """One submitted sweep: its ledger (points, results, health) and queues."""

    def __init__(
        self,
        job_id: str,
        base: dict[str, Any],
        points: list[dict[str, Any]],
        runner_spec: Mapping[str, Any],
        policy: RetryPolicy,
        label: str = "",
    ) -> None:
        self.job_id = job_id
        self.base = base
        self.label = label
        self.runner_spec = dict(runner_spec)
        #: content id of what every lease of this job shares; a lease names
        #: it and carries the body only when the connection was not just sent
        #: it.  Unsalted: it names the content, whatever code version reads it.
        self.spec_id = result_cache.fingerprint(
            {"config": base, "runner": self.runner_spec}, salt=""
        )
        self.policy = policy
        self.ledger = SweepLedger(
            SweepPoint(int(p["index"]), p["overrides"], p["kwargs"], int(p["seed"]))
            for p in points
        )
        #: (index, attempt) pairs ready to lease, in submission order.
        self.pending: deque[tuple[int, int]] = deque()
        #: backoff retries as (ready_time, index, attempt).
        self.delayed: list[tuple[float, int, int]] = []
        #: indices currently leased (values are lease ids).
        self.leased: dict[int, str] = {}
        self.created = 0.0
        self.fallback_active = False

    @property
    def health(self) -> SweepHealth:
        return self.ledger.health

    @property
    def finished(self) -> bool:
        return self.ledger.finished


class Controller:
    """The service state machine; thread-safe, clock-injectable.

    ``handle(msg, session)`` processes one protocol message and returns the
    reply; ``session`` is any dict the transport keeps per connection (the
    controller stores the peer's identity in it, and the id of the job spec
    it last sent — a new connection is a new dict, so it is sent the body
    again).  ``tick()`` advances time-based state: lease expiry, worker
    liveness, retry-backoff promotion, and the no-worker fallback.
    ``session_closed(session)`` reports a transport disconnect.
    """

    def __init__(
        self,
        options: Optional[ServiceOptions] = None,
        *,
        cache=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.options = options or ServiceOptions()
        self.clock = clock
        self.store = result_cache.resolve_cache(cache)
        self._lock = threading.RLock()
        #: every job ever submitted (``poll`` / ``info``), and the ones whose
        #: ledger has not finished, in submission order — all ``request``
        #: and ``tick`` walk, so a long-lived controller's finished jobs
        #: cost a lease nothing.
        self.jobs: dict[str, Job] = {}
        self._open_jobs: dict[str, Job] = {}
        self.workers: dict[str, WorkerState] = {}
        self.leases: dict[str, Lease] = {}
        self._job_seq = 0
        self._lease_seq = 0
        self._worker_seq = 0
        self._last_worker_seen: Optional[float] = None
        #: service-level counters surfaced by ``info``.
        self.stats = {
            "bad_messages": 0,
            "stale_results": 0,
            "leases_expired": 0,
            "workers_lost": 0,
            "fallback_runs": 0,
        }

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def handle(self, msg: Mapping[str, Any], session: dict[str, Any]) -> dict[str, Any]:
        """One message in, one reply out; never raises."""
        with self._lock:
            try:
                handler = getattr(self, f"_on_{msg.get('type')}", None)
                if handler is None:
                    self.stats["bad_messages"] += 1
                    return {"type": "error", "error": f"unknown message type {msg.get('type')!r}"}
                return handler(msg, session)
            except Exception as exc:  # a bad message must not kill the server
                self.stats["bad_messages"] += 1
                return {"type": "error", "error": f"{type(exc).__name__}: {exc}"}

    def _on_hello(self, msg: Mapping[str, Any], session: dict[str, Any]) -> dict[str, Any]:
        # A hello that states no version is taken as current: hand-driven
        # sessions, and peers from before the field existed.
        stated = msg.get("protocol")
        if stated is not None and stated != PROTOCOL_VERSION:
            return {
                "type": "error",
                "error": f"protocol version mismatch: peer speaks {stated!r}, this "
                f"controller speaks {PROTOCOL_VERSION}; upgrade controller and workers together",
                "protocol": PROTOCOL_VERSION,
            }
        role = msg.get("role", "client")
        reply: dict[str, Any] = {"type": "welcome", "protocol": PROTOCOL_VERSION}
        if role == "worker":
            now = self.clock()
            self._worker_seq += 1
            requested = str(msg.get("name") or f"worker-{self._worker_seq}")
            worker_id = requested
            while worker_id in self.workers:
                worker_id = f"{requested}~{self._worker_seq}"
                self._worker_seq += 1
            self.workers[worker_id] = WorkerState(worker_id, last_seen=now)
            self._last_worker_seen = now
            session["worker_id"] = worker_id
            reply["worker_id"] = worker_id
            reply["heartbeat_interval"] = self.options.heartbeat_interval
        else:
            session["role"] = "client"
        return reply

    def _touch_worker(self, session: dict[str, Any]) -> Optional[WorkerState]:
        """The session's worker record, resurrected if liveness reaped it."""
        worker_id = session.get("worker_id")
        if worker_id is None:
            return None
        now = self.clock()
        worker = self.workers.get(worker_id)
        if worker is None:
            # Declared dead by the liveness check but the socket lives on:
            # re-register.  Its old leases were already re-queued; any
            # results it still delivers for them are counted stale.
            worker = WorkerState(worker_id, last_seen=now)
            self.workers[worker_id] = worker
        worker.last_seen = now
        self._last_worker_seen = now
        return worker

    def _on_request(self, msg: Mapping[str, Any], session: dict[str, Any]) -> dict[str, Any]:
        worker = self._touch_worker(session)
        if worker is None:
            return {"type": "error", "error": "send hello with role=worker first"}
        now = self.clock()
        if worker.quarantined(now):
            return {
                "type": "idle",
                "backoff": min(worker.quarantined_until - now, 4 * self.options.idle_backoff),
                "quarantined": True,
            }
        for job in self._open_jobs.values():
            if job.fallback_active:
                continue
            self._promote_delayed(job, now)
            if not job.pending:
                continue
            index, attempt = job.pending.popleft()
            self._lease_seq += 1
            lease = Lease(
                lease_id=f"lease-{self._lease_seq:06d}",
                job_id=job.job_id,
                index=index,
                attempt=attempt,
                worker_id=worker.worker_id,
                deadline=now + self.options.lease_seconds,
            )
            self.leases[lease.lease_id] = lease
            job.leased[index] = lease.lease_id
            worker.leases.add(lease.lease_id)
            point = job.ledger.points[index]
            reply = {
                "type": "lease",
                "lease_id": lease.lease_id,
                "job_id": job.job_id,
                "index": index,
                "attempt": attempt,
                "spec": job.spec_id,
                "overrides": point.overrides,
                "kwargs": point.kwargs,
                "seed": point.seed,
                "deadline_seconds": self.options.lease_seconds,
            }
            if session.get("spec") != job.spec_id:
                # The body crosses the wire once per run of one job's leases
                # on a connection; the worker keeps what it resolved from it.
                reply["config"] = job.base
                reply["runner"] = job.runner_spec
                session["spec"] = job.spec_id
            return reply
        return {"type": "idle", "backoff": self.options.idle_backoff}

    def _on_heartbeat(self, msg: Mapping[str, Any], session: dict[str, Any]) -> dict[str, Any]:
        worker = self._touch_worker(session)
        if worker is None:
            return {"type": "error", "error": "send hello with role=worker first"}
        lease_id = msg.get("lease_id")
        return {"type": "ok", "known": lease_id is None or lease_id in self.leases}

    def _on_result(self, msg: Mapping[str, Any], session: dict[str, Any]) -> dict[str, Any]:
        worker = self._touch_worker(session)
        lease_id = msg.get("lease_id")
        record = msg.get("record")
        if not isinstance(record, dict):
            self.stats["bad_messages"] += 1
            return {"type": "error", "error": "result carries no record object"}
        lease = self.leases.pop(lease_id, None)
        if lease is None:
            # Expired, re-assigned, or duplicated: the re-leased run's
            # record is authoritative (and bit-identical anyway) — drop it.
            self.stats["stale_results"] += 1
            job = self.jobs.get(str(msg.get("job_id")))
            if job is not None:
                job.health.stale_results += 1
            return {"type": "stale"}
        job = self.jobs[lease.job_id]
        job.leased.pop(lease.index, None)
        if worker is not None:
            worker.leases.discard(lease.lease_id)
            worker.completed += 1
            worker.consecutive_failures = 0
        self._finish_or_retry(job, lease.index, lease.attempt, record)
        return {"type": "ok"}

    def _on_submit(self, msg: Mapping[str, Any], session: dict[str, Any]) -> dict[str, Any]:
        base = msg.get("base")
        points = msg.get("points")
        spec = msg.get("runner")
        if not isinstance(base, dict) or not isinstance(points, list) or not isinstance(spec, dict):
            self.stats["bad_messages"] += 1
            return {"type": "error", "error": "submit needs base, points, and runner objects"}
        try:
            base_cfg = NetworkConfig(**base)
        except Exception as exc:
            return {"type": "error", "error": f"base config invalid: {type(exc).__name__}: {exc}"}
        if importable_name(spec) is None:
            return {
                "type": "error",
                "error": "runner is not importable by dotted name: remote sweeps need a "
                "module-level runner (or functools.partial over one with keyword "
                "bindings only)",
            }
        for p in points:
            if not isinstance(p, dict) or not {"index", "overrides", "kwargs", "seed"} <= set(p):
                self.stats["bad_messages"] += 1
                return {"type": "error", "error": "each point needs index, overrides, kwargs, seed"}
        options = msg.get("options") or {}
        max_retries = int(options.get("max_retries", 2))
        retry_backoff = float(options.get("retry_backoff", 0.25))
        self._job_seq += 1
        job_id = f"job-{self._job_seq:04d}"
        # Jitter is seeded from the sweep's base seed so a chaos run's retry
        # timeline reproduces.
        policy = RetryPolicy.seeded(
            base_cfg.seed, job_id, max_retries=max_retries, backoff=retry_backoff
        )
        job = Job(job_id, base, points, spec, policy, label=str(msg.get("label") or ""))
        job.created = self.clock()
        self.jobs[job_id] = job
        if self.store is not None:
            # Hits are answered here, at submit time, without dispatch.
            job.ledger.prefill(self.store, base_cfg, spec, "service")
            self.store.flush_stats()
        job.pending = deque((p.index, 0) for p in job.ledger.pending)
        if not job.finished:
            self._open_jobs[job_id] = job
        session["role"] = "client"
        return {
            "type": "submitted",
            "job_id": job_id,
            "total": len(job.ledger.points),
            "cache_hits": job.health.cache_hits,
        }

    def _on_poll(self, msg: Mapping[str, Any], session: dict[str, Any]) -> dict[str, Any]:
        job = self.jobs.get(str(msg.get("job_id")))
        if job is None:
            return {"type": "error", "error": f"unknown job {msg.get('job_id')!r}"}
        since = int(msg.get("since", 0))
        ledger = job.ledger
        records = [
            {"index": index, "record": ledger.results[index]}
            for index in ledger.completion_order[since:]
        ]
        return {
            "type": "status",
            "job_id": job.job_id,
            "total": len(ledger.points),
            "done": len(ledger.results),
            "finished": job.finished,
            "records": records,
            "health": asdict(job.health),
            "summary": job.health.summary(),
        }

    def _on_info(self, msg: Mapping[str, Any], session: dict[str, Any]) -> dict[str, Any]:
        now = self.clock()
        return {
            "type": "service",
            "protocol": PROTOCOL_VERSION,
            "workers": [
                {
                    "worker_id": w.worker_id,
                    "age_seconds": now - w.last_seen,
                    "leases": len(w.leases),
                    "completed": w.completed,
                    "quarantined": w.quarantined(now),
                }
                for w in self.workers.values()
            ],
            "jobs": [
                {
                    "job_id": j.job_id,
                    "label": j.label,
                    "total": len(j.ledger.points),
                    "done": len(j.ledger.results),
                    "finished": j.finished,
                    "fallback": j.fallback_active,
                    "summary": j.health.summary(),
                }
                for j in self.jobs.values()
            ],
            "stats": dict(self.stats),
        }

    # ------------------------------------------------------------------
    # completion, retry, and requeue
    # ------------------------------------------------------------------

    def _finish_or_retry(
        self, job: Job, index: int, attempt: int, record: dict[str, Any]
    ) -> None:
        kind = record.get("error_kind")
        if record.get("failed") and job.policy.should_retry(kind, attempt):
            job.health.retried += 1
            ready = self.clock() + job.policy.delay(attempt + 1)
            job.delayed.append((ready, index, attempt + 1))
        else:
            self._emit(job, index, record)

    def _emit(self, job: Job, index: int, record: dict[str, Any]) -> None:
        """Hand a final result to the job's ledger; flush cache stats at the end."""
        job.ledger.emit(index, record)
        if job.finished:
            self._open_jobs.pop(job.job_id, None)
            if self.store is not None:
                self.store.flush_stats()

    def _requeue_lease(self, lease: Lease, kind: str) -> None:
        """Charge an expired/orphaned lease one attempt: retry or fail its point."""
        self.leases.pop(lease.lease_id, None)
        job = self.jobs.get(lease.job_id)
        if job is None:  # pragma: no cover - job retired mid-flight
            return
        job.leased.pop(lease.index, None)
        reason = {
            "lease_expired": "lease expired: worker presumed lost",
            "worker_death": "worker died or went silent",
            "disconnect": "worker disconnected",
        }.get(kind, kind)
        record = _failed_record(
            job.ledger.points[lease.index], f"{reason} (attempt {lease.attempt + 1})", kind=kind
        )
        self._finish_or_retry(job, lease.index, lease.attempt, record)

    def _promote_delayed(self, job: Job, now: float) -> None:
        ready = [e for e in job.delayed if e[0] <= now]
        if ready:
            job.delayed = [e for e in job.delayed if e[0] > now]
            job.pending.extend((index, attempt) for _, index, attempt in ready)

    def _worker_lost(self, worker: WorkerState, kind: str) -> None:
        """Requeue everything a dead/disconnected worker held; drop it."""
        self.stats["workers_lost"] += 1
        affected: set[str] = set()
        for lease_id in list(worker.leases):
            lease = self.leases.get(lease_id)
            if lease is not None:
                affected.add(lease.job_id)
                self._requeue_lease(lease, kind)
        worker.leases.clear()
        self.workers.pop(worker.worker_id, None)
        for job_id in affected:
            self.jobs[job_id].health.worker_deaths += 1

    def session_closed(self, session: dict[str, Any]) -> None:
        """Transport-level disconnect: reap the session's worker, if any."""
        with self._lock:
            worker = self.workers.get(session.get("worker_id", ""))
            if worker is not None:
                self._worker_lost(worker, "disconnect")

    # ------------------------------------------------------------------
    # time-based transitions
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """Advance lease expiry, liveness, backoff promotion, and fallback."""
        with self._lock:
            now = self.clock()
            for lease in [l for l in self.leases.values() if now > l.deadline]:
                self.stats["leases_expired"] += 1
                worker = self.workers.get(lease.worker_id)
                if worker is not None:
                    worker.leases.discard(lease.lease_id)
                    worker.consecutive_failures += 1
                    if (
                        worker.consecutive_failures >= self.options.quarantine_after
                        and not worker.quarantined(now)
                    ):
                        worker.quarantined_until = now + self.options.quarantine_seconds
                        worker.consecutive_failures = 0
                        job = self.jobs.get(lease.job_id)
                        if job is not None:
                            job.health.quarantined += 1
                self._requeue_lease(lease, "lease_expired")
            for worker in [
                w
                for w in self.workers.values()
                if now - w.last_seen > self.options.heartbeat_timeout
            ]:
                self._worker_lost(worker, "worker_death")
            for job in list(self._open_jobs.values()):
                self._promote_delayed(job, now)
                self._maybe_fallback(job, now)

    def _maybe_fallback(self, job: Job, now: float) -> None:
        """Start the local executor if the fleet has abandoned this job."""
        if (
            self.options.fallback_after is None
            or job.finished
            or job.fallback_active
            or self.workers
            or not (job.pending or job.delayed or job.leased)
        ):
            return
        quiet_since = max(job.created, self._last_worker_seen or job.created)
        if now - quiet_since < self.options.fallback_after:
            return
        job.fallback_active = True
        self.stats["fallback_runs"] += 1
        self._start_fallback(job)

    def _start_fallback(self, job: Job) -> None:  # overridable for tests
        thread = threading.Thread(
            target=self._run_fallback, args=(job,), name=f"fallback-{job.job_id}", daemon=True
        )
        thread.start()

    def _run_fallback(self, job: Job) -> None:
        """Execute a job's remaining points on the local machine.

        Runs until the job finishes or a worker (re)connects; points are
        drained from the queues under the lock, so a worker arriving
        mid-batch can only race for *newly* re-queued points, never the
        ones already executing here.  Records are bit-identical either
        way (derived seeds), and stale-completion handling covers the
        overlap.
        """

        def emit(index: int, record: dict[str, Any]) -> None:
            with self._lock:
                self._emit(job, index, record)

        try:
            runner = resolve_runner(job.runner_spec)
            base = NetworkConfig(**job.base)
        except Exception as exc:
            error = f"fallback cannot run: {type(exc).__name__}: {exc}"
            with self._lock:
                for index, _ in self._drain_queues(job):
                    emit(index, _failed_record(job.ledger.points[index], error))
                job.fallback_active = False
            return
        while True:
            with self._lock:
                if job.finished or self.workers:
                    job.fallback_active = False
                    return
                batch = self._drain_queues(job)
            if not batch:
                time.sleep(0.05)
                continue
            points = [job.ledger.points[index] for index, _ in batch]
            attempts = [attempt for _, attempt in batch]
            n_workers = max(self.options.fallback_workers, 1)
            _run_local(
                points, runner, base, n_workers, None, emit, job.health, job.policy, attempts
            )

    def _drain_queues(self, job: Job) -> list[tuple[int, int]]:
        """Take every pending and delayed point (backoffs included); locked."""
        batch = list(job.pending)
        batch.extend((index, attempt) for _, index, attempt in job.delayed)
        job.pending = deque()
        job.delayed = []
        return batch


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read frames, dispatch to the controller, reply."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        controller: Controller = self.server.controller  # type: ignore[attr-defined]
        session: dict[str, Any] = {}
        try:
            while True:
                line = self.rfile.readline(MAX_LINE_BYTES + 1)
                if not line:
                    break
                if len(line) > MAX_LINE_BYTES:
                    # Unbounded frame: reply once and drop the connection.
                    controller.stats["bad_messages"] += 1
                    self.wfile.write(encode({"type": "error", "error": "frame too large"}))
                    break
                try:
                    msg = decode(line)
                except ProtocolError as exc:
                    controller.stats["bad_messages"] += 1
                    self.wfile.write(encode({"type": "error", "error": str(exc)}))
                    continue
                self.wfile.write(encode(controller.handle(msg, session)))
        except (ConnectionError, OSError):
            pass
        finally:
            controller.session_closed(session)


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class ControllerServer:
    """A :class:`Controller` behind a threading TCP server + monitor thread.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports the
    bound ``(host, port)``.  The monitor thread calls
    :meth:`Controller.tick` every ``tick_interval`` seconds, driving lease
    expiry, liveness, and fallback in real time.
    """

    def __init__(
        self,
        controller: Optional[Controller] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_interval: float = 0.05,
    ) -> None:
        self.controller = controller or Controller()
        self.tick_interval = tick_interval
        self._server = _Server((host, port), _Handler)
        self._server.controller = self.controller  # type: ignore[attr-defined]
        self._serve_thread: Optional[threading.Thread] = None
        self._monitor_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> "ControllerServer":
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": self.tick_interval},
            name="service-accept",
            daemon=True,
        )
        self._serve_thread.start()
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="service-monitor", daemon=True
        )
        self._monitor_thread.start()
        return self

    def _monitor(self) -> None:
        while not self._stop.wait(self.tick_interval):
            self.controller.tick()

    def stop(self) -> None:
        self._stop.set()
        self._server.shutdown()
        self._server.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5.0)

    def serve_forever(self) -> None:
        """Run in the foreground until interrupted (the CLI entry point)."""
        self.start()
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self) -> "ControllerServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
