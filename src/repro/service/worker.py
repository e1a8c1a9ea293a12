"""The sweep-service worker daemon: pull a lease, run it, report back.

A worker is deliberately dumb: it connects, says ``hello``, and loops
``request`` → execute → ``result``.  All scheduling intelligence (leases,
retries, quarantine, fallback) lives in the controller; the worker's only
robustness duties are

* **heartbeats** — a background thread heartbeats on the same connection
  while a point executes (the :class:`~repro.service.protocol.MessageStream`
  lock keeps the request/reply pairs from interleaving), so a *slow* point
  is distinguishable from a *dead* worker;
* **reconnection** — a lost controller connection is retried with capped
  exponential backoff; leases lost with the connection are the
  controller's problem (it re-queues them), never the worker's.

Execution goes through the exact machinery a local sweep uses —
:func:`repro.core.parallel._execute_point` on a reconstructed
:class:`~repro.core.parallel.SweepPoint` — so a record computed remotely
is bit-identical to the one a serial run would produce (modulo
``wall_seconds``).  The runner arrives as the cache's provenance spec
(dotted module name + keyword bindings) and is resolved by import, which
is also what pins the requirement that remote runners be module-level
functions or keyword-only partials over them.

A job's spec (base config + runner) arrives with the first lease a
connection gets for it and is named by content id on every lease; the
worker resolves a body once — import, ``NetworkConfig`` validation — and
executes the slim leases that follow from a small content-addressed table
(:func:`execute_lease`).
"""

from __future__ import annotations

import functools
import socket
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Mapping, Optional

from ..config import NetworkConfig
from ..core import cache as result_cache
from ..core.parallel import SweepPoint, _execute_point, _failed_record
from ..core.resilience import RetryPolicy
from .protocol import (
    PROTOCOL_VERSION,
    MessageStream,
    ProtocolError,
    VersionMismatch,
    check_welcome,
)

__all__ = ["Worker", "execute_lease", "importable_name", "resolve_runner"]


def importable_name(spec: Mapping[str, Any]) -> Optional[str]:
    """The spec's dotted runner name if workers could import it, else None.

    ``provenance`` reports a dotted name even for lambdas and local
    functions (``module:<lambda>``, ``module:outer.<locals>.f``); those
    names cannot be resolved by ``importlib`` on a worker, so anything
    containing ``<`` is as unusable as no name at all.
    """
    dotted, _ = result_cache.provenance(spec)
    if not dotted or "<" in dotted:
        return None
    return dotted


def resolve_runner(spec: Mapping[str, Any]) -> Callable[..., Any]:
    """Rebuild a runner callable from its cache-provenance spec.

    Raises ``ValueError`` for specs with no importable dotted name (e.g. a
    lambda, or a partial with positional args) and lets import errors
    propagate — the caller turns either into a deterministic failed record.
    """
    dotted, kwargs = result_cache.provenance(spec)
    if importable_name(spec) is None:
        raise ValueError(
            "runner spec is not importable by dotted name; remote execution "
            "needs a module-level runner or a keyword-only functools.partial"
        )
    fn = result_cache._import_runner(dotted)
    return functools.partial(fn, **kwargs) if kwargs else fn


#: Job specs this process resolved, by content id: ``(runner, base)``, or the
#: error text when the body did not resolve.  Bounded: a body arriving makes
#: its id the youngest, the oldest is dropped.  A controller omits the body
#: only for the id it sent last on a connection, so the spec a connection is
#: working from is always among the youngest.  Lookups take no lock (an id
#: is moved, never removed and re-added); writers serialise on ``_specs_lock``.
_SPECS: OrderedDict[str, Any] = OrderedDict()
_MAX_SPECS = 16
_specs_lock = threading.Lock()


def _job_spec(lease: Mapping[str, Any]) -> Any:
    """The lease's resolved ``(runner, base)``, or the text of why not.

    A slim lease is answered from the table; an id the table does not hold
    is an error naming it — the worker never substitutes a spec the lease
    did not name.  A body (``runner`` + ``config``) is resolved unless its
    id already did, and remembered under the id when it has one.
    """
    spec_id = lease.get("spec")
    held = _SPECS.get(spec_id) if spec_id is not None else None
    if "runner" not in lease:
        if held is None:
            return (
                f"LookupError: lease names job spec {spec_id!r}, which this worker does "
                "not hold: no lease on this connection carried its config and runner"
            )
        return held
    if not isinstance(held, tuple):
        try:
            held = resolve_runner(lease["runner"]), NetworkConfig(**lease["config"])
        except Exception as exc:
            held = f"{type(exc).__name__}: {exc}"
    if spec_id is not None:
        with _specs_lock:
            _SPECS[spec_id] = held
            _SPECS.move_to_end(spec_id)
            while len(_SPECS) > _MAX_SPECS:
                _SPECS.popitem(last=False)
    return held


def execute_lease(lease: Mapping[str, Any]) -> dict[str, Any]:
    """Run one leased point; any failure becomes a ``failed=True`` record.

    The record is exactly what a local sweep would produce for the same
    point: same config resolution, same derived seed, same coordinate
    ordering (overrides then extra kwargs).

    Accepted lease shapes: ``spec`` id + body (``config`` and ``runner``;
    resolved once per id and remembered), ``spec`` id alone (executed from
    the remembered spec; an id this process does not hold yields a failed
    record naming it), and a body with no id (resolved for this lease
    only).
    """
    point = SweepPoint(
        int(lease["index"]),
        dict(lease["overrides"]),
        dict(lease["kwargs"]),
        int(lease["seed"]),
    )
    held = _job_spec(lease)
    if isinstance(held, str):
        return _failed_record(point, held)
    runner, base = held
    return _execute_point(runner, base, point)


class Worker:
    """One worker daemon: connect, pull leases, execute, heartbeat, repeat.

    ``max_points`` / ``max_idle`` bound the daemon's lifetime (handy for
    tests and batch schedulers); ``stop`` (a :class:`threading.Event`)
    requests a graceful exit between points.  ``execute`` is the
    per-lease execution hook — the chaos tests override it to inject
    stalls and crashes without touching the protocol path.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        max_points: Optional[int] = None,
        max_idle: Optional[float] = None,
        reconnect_backoff: float = 0.5,
        max_reconnects: int = 8,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name or f"{socket.gethostname()}-{id(self) & 0xFFFF:04x}"
        self.max_points = max_points
        self.max_idle = max_idle
        self.reconnect_backoff = reconnect_backoff
        self.max_reconnects = max_reconnects
        self.log = log or (lambda line: None)
        self.points_done = 0
        self.execute: Callable[[Mapping[str, Any]], dict[str, Any]] = execute_lease

    def run(self, stop: Optional[threading.Event] = None) -> int:
        """Serve until stopped or budget-exhausted; returns points done.

        Connection losses retry with capped exponential backoff (the
        reconnect policy reuses :class:`~repro.core.resilience.RetryPolicy`
        arithmetic); ``max_reconnects`` consecutive failures give up.  A
        controller of another protocol version is not retried:
        :class:`~repro.service.protocol.VersionMismatch` propagates.
        """
        stop = stop or threading.Event()
        policy = RetryPolicy(
            max_retries=self.max_reconnects, backoff=self.reconnect_backoff
        )
        failures = 0
        while not stop.is_set():
            try:
                finished = self._serve_connection(stop)
                failures = 0
                if finished:
                    break
            except VersionMismatch:
                raise  # permanent: reconnecting meets the same controller
            except (ConnectionError, ProtocolError, OSError) as exc:
                failures += 1
                if failures > self.max_reconnects:
                    self.log(f"giving up after {failures} connection failures: {exc}")
                    break
                delay = policy.delay(failures)
                self.log(f"connection lost ({exc}); reconnecting in {delay:.1f}s")
                if stop.wait(delay):
                    break
        return self.points_done

    def _serve_connection(self, stop: threading.Event) -> bool:
        """One connection's lifetime; True when the worker is done for good."""
        sock = socket.create_connection((self.host, self.port), timeout=30.0)
        sock.settimeout(None)
        with MessageStream(sock) as stream:
            welcome = stream.rpc(
                {
                    "type": "hello",
                    "role": "worker",
                    "name": self.name,
                    "protocol": PROTOCOL_VERSION,
                }
            )
            check_welcome(welcome)
            heartbeat_interval = float(welcome.get("heartbeat_interval", 2.0))
            self.log(f"registered as {welcome.get('worker_id', self.name)}")
            idle_since: Optional[float] = None
            while not stop.is_set():
                reply = stream.rpc({"type": "request"})
                kind = reply.get("type")
                if kind == "lease":
                    idle_since = None
                    record = self._execute_with_heartbeats(
                        stream, reply, heartbeat_interval
                    )
                    stream.rpc(
                        {
                            "type": "result",
                            "lease_id": reply.get("lease_id"),
                            "job_id": reply.get("job_id"),
                            "record": record,
                        }
                    )
                    self.points_done += 1
                    if self.max_points is not None and self.points_done >= self.max_points:
                        return True
                elif kind == "idle":
                    now = time.monotonic()
                    idle_since = idle_since if idle_since is not None else now
                    if self.max_idle is not None and now - idle_since >= self.max_idle:
                        return True
                    if stop.wait(float(reply.get("backoff", 0.5))):
                        return True
                elif kind == "error":
                    # One bad exchange must not kill the worker's leases.
                    self.log(f"controller error: {reply.get('error')}")
                else:
                    raise ProtocolError(f"unexpected reply type {kind!r}")
            return True

    def _execute_with_heartbeats(
        self,
        stream: MessageStream,
        lease: Mapping[str, Any],
        interval: float,
    ) -> dict[str, Any]:
        """Run the lease while a sibling thread heartbeats on the stream."""
        done = threading.Event()

        def beat() -> None:
            while not done.wait(interval):
                try:
                    stream.rpc({"type": "heartbeat", "lease_id": lease.get("lease_id")})
                except (ConnectionError, ProtocolError, OSError):
                    return  # main loop will hit the same failure and reconnect

        beater = threading.Thread(target=beat, name="worker-heartbeat", daemon=True)
        beater.start()
        try:
            return self.execute(lease)
        finally:
            done.set()
            beater.join(timeout=5.0)
