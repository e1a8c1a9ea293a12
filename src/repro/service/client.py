"""Client side of the sweep service: the submit/poll transport.

:func:`run_remote_sweep` is :func:`repro.core.parallel.run_sweep` with a
different transport: the same :class:`~repro.core.parallel.SweepLedger`
owns enumeration, journal, resume, progress and health, but the pending
points execute on whatever fleet is connected to the controller at
``HOST:PORT`` (:func:`_run_remote`) instead of in this process.

The client enumerates the sweep points *locally* and ships explicit
``(index, overrides, kwargs, seed)`` tuples, rather than shipping the axes
and letting the controller enumerate: the per-point derived seeds
(:func:`repro.rng.sweep_seed`) hash the coordinate *values*, and a JSON
round-trip can change value types (tuples to lists) — deriving on the far
side could silently disagree with a local run.  Shipping the derived seed
pins the bit-identical contract at the protocol boundary.
"""

from __future__ import annotations

import socket
import time
from dataclasses import asdict, replace
from typing import Any, Callable, Mapping, Optional, Sequence

from ..config import NetworkConfig
from ..core import cache as result_cache
from ..core.parallel import (
    SweepHealth,
    SweepLedger,
    SweepPoint,
    SweepProgress,
    SweepRecords,
    _jsonable,
    enumerate_points,
    run_ledger,
    sweep_fingerprint,
)
from .protocol import (
    PROTOCOL_VERSION,
    MessageStream,
    ProtocolError,
    check_welcome,
    parse_address,
)
from .worker import importable_name

__all__ = ["ServiceClient", "run_remote_sweep"]


class ServiceClient:
    """A thin RPC handle on the controller (submit / poll / info)."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        sock = socket.create_connection((host, port), timeout=timeout)
        self._stream = MessageStream(sock)
        try:
            check_welcome(
                self._stream.rpc(
                    {"type": "hello", "role": "client", "protocol": PROTOCOL_VERSION}
                )
            )
        except ProtocolError as exc:
            self._stream.close()
            raise ConnectionError(str(exc)) from None

    def _rpc(self, msg: Mapping[str, Any]) -> dict[str, Any]:
        reply = self._stream.rpc(msg)
        if reply.get("type") == "error":
            raise RuntimeError(f"service error: {reply.get('error')}")
        return reply

    def submit(
        self,
        base: Mapping[str, Any],
        points: Sequence[Mapping[str, Any]],
        runner_spec: Mapping[str, Any],
        *,
        options: Optional[Mapping[str, Any]] = None,
        label: str = "",
    ) -> dict[str, Any]:
        return self._rpc(
            {
                "type": "submit",
                "base": dict(base),
                "points": list(points),
                "runner": dict(runner_spec),
                "options": dict(options or {}),
                "label": label,
            }
        )

    def poll(self, job_id: str, since: int = 0) -> dict[str, Any]:
        return self._rpc({"type": "poll", "job_id": job_id, "since": since})

    def info(self) -> dict[str, Any]:
        return self._rpc({"type": "info"})

    def close(self) -> None:
        self._stream.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _run_remote(
    address: str,
    pending: Sequence[SweepPoint],
    runner: Callable[..., Mapping[str, Any]],
    base: NetworkConfig,
    emit: Callable[[int, dict[str, Any]], None],
    health: SweepHealth,
    *,
    max_retries: int,
    retry_backoff: float,
    label: str,
    poll_interval: float,
) -> None:
    """The service transport: submit ``pending``, emit records as they stream back.

    Outcomes (ok / failed / timed out / stalled) are counted by ``emit`` as
    each record lands; what only the controller can know — retries, worker
    deaths, quarantines, stale results, its cache's hits and misses — is
    folded into ``health`` from the final status.
    """
    host, port = parse_address(address)
    spec = result_cache.runner_spec(runner)
    if importable_name(spec) is None:
        raise ValueError(
            "remote sweeps need an importable module-level runner (or a "
            "functools.partial over one with keyword bindings only); "
            f"{runner!r} has no dotted name the workers could import"
        )
    payload = [
        {
            "index": p.index,
            "overrides": _jsonable(p.overrides),
            "kwargs": _jsonable(p.kwargs),
            "seed": p.seed,
        }
        for p in pending
    ]
    with ServiceClient(host, port) as client:
        submitted = client.submit(
            asdict(base),
            payload,
            spec,
            options={"max_retries": max_retries, "retry_backoff": retry_backoff},
            label=label,
        )
        fetched = 0
        while True:
            status = client.poll(submitted["job_id"], since=fetched)
            for item in status["records"]:
                emit(int(item["index"]), item["record"])
            fetched += len(status["records"])
            if status["finished"]:
                break
            time.sleep(poll_interval)
    health.merge(
        replace(SweepHealth(**status["health"]), total=0, ok=0, failed=0, timed_out=0, stalled=0)
    )


def run_remote_sweep(
    address: str,
    base: NetworkConfig,
    axes: Mapping[str, Sequence[Any]],
    runner: Callable[..., Mapping[str, Any]],
    *,
    extra_axes: Mapping[str, Sequence[Any]] | None = None,
    journal=None,
    resume: bool = False,
    resume_force: bool = False,
    progress: Callable[[SweepProgress], None] | None = None,
    derive_seeds: bool = True,
    max_retries: int = 2,
    retry_backoff: float = 0.25,
    poll_interval: float = 0.2,
    label: str = "",
) -> SweepRecords:
    """Run a sweep on the service at ``address`` (``"host:port"``).

    The signature and semantics are :func:`repro.core.parallel.run_sweep`'s
    minus the local-executor knobs (``n_workers``, ``point_timeout``,
    ``cache`` — the *controller* owns the shared cache).  Records come
    back bit-identical to a serial run (modulo ``wall_seconds``), in
    canonical enumeration order.

    ``journal``/``resume`` checkpoint on the *client*: each record is
    appended as it streams back, so a client killed mid-sweep resumes by
    re-submitting only the missing points (the service's cache typically
    answers the overlap without re-running it).
    """
    ledger = SweepLedger(
        enumerate_points(base, axes, extra_axes, derive_seeds=derive_seeds),
        journal=journal,
        fingerprint=sweep_fingerprint(base, axes, extra_axes),
        resume=resume,
        resume_force=resume_force,
        progress=progress,
    )
    return run_ledger(
        ledger, base, runner,
        max_retries=max_retries, retry_backoff=retry_backoff,
        remote=address, label=label, poll_interval=poll_interval,
    )
