"""Parallel sweep executor: process pools, journaling, checkpoint/resume.

The paper's whole pitch is cheap bulk evaluation of design points (minutes
of synthetic simulation against 88.5-hour GEMS runs), and the sweep driver
is the hot path that delivers it.  This module runs the cartesian product
of sweep axes through a :class:`~concurrent.futures.ProcessPoolExecutor`:

* **Determinism.**  Every point gets a child seed derived from the base
  config's seed and the point's coordinates via :func:`repro.rng.sweep_seed`.
  The derivation is independent of enumeration order and worker assignment,
  so a parallel run produces records bit-identical to a serial run (modulo
  the per-point ``wall_seconds`` timing field), returned in the canonical
  enumeration order regardless of completion order.
* **Checkpoint/resume.**  With ``journal=`` set, each completed point is
  appended to a JSON-lines file as it finishes (via
  :func:`repro.analysis.io.append_jsonl`).  Re-running with ``resume=True``
  reloads the journal, skips every journaled point, and executes only the
  missing ones; a journal truncated mid-line by a crash parses cleanly.
* **Fault isolation.**  A runner that raises — or a worker process that
  dies, or a point that exceeds ``point_timeout`` — yields a record marked
  ``failed=True`` with the exception string under ``"error"`` instead of
  killing the sweep; every other point still completes.
* **Self-healing.**  *Transient* failures — a pool worker process dying —
  are retried up to ``max_retries`` times with capped exponential backoff
  and jitter before the point is recorded as failed.  Deterministic
  failures are **not** retried: a runner exception, or a run aborted by
  the engine watchdog (:class:`SimulationStalled`), whose window counts
  cycles, would fail the same way under the same config and seed, so
  retrying only burns CPU.  A point that exceeds
  ``point_timeout`` gets its worker *killed* (the whole pool is torn down
  and rebuilt; innocent in-flight points are resubmitted and re-run
  deterministically), so a hung simulation cannot occupy a pool slot for
  the rest of the sweep.  The returned :class:`SweepRecords` carries a
  :class:`SweepHealth` summary (ok / failed / retried / timed-out /
  worker-death counts), and a KeyboardInterrupt flushes that summary to
  the journal before re-raising so a killed sweep remains resumable.
* **Observability.**  A ``progress`` callback receives a
  :class:`SweepProgress` (points done/total/failed, rate, ETA) after every
  completed point.

``n_workers=1`` (the default) runs everything in-process with no pool, so
lambdas and closures keep working for quick interactive sweeps; with
``n_workers > 1`` the runner and its outputs must be picklable (a
module-level function, or :func:`functools.partial` over one).

Structure: the *accounting* of a sweep is one object, :class:`SweepLedger`;
*dispatch* is a transport that feeds ``ledger.emit`` — :func:`_run_inline`,
:func:`_run_pool`, or the service's submit/poll loop
(:func:`repro.service.client._run_remote`).  :func:`run_ledger` joins the
two, and every sweep path in the repo is a ledger plus one transport.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib
import random
import time
from collections import deque
from dataclasses import InitVar, asdict, dataclass, fields
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional, Sequence

from .. import rng
from ..analysis.io import JsonlAppender, append_jsonl, canonical_json, read_jsonl
from ..config import NetworkConfig
from . import cache as result_cache
from .resilience import SimulationStalled

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import Future, ProcessPoolExecutor

__all__ = [
    "SweepPoint",
    "SweepProgress",
    "SweepHealth",
    "SweepRecords",
    "SweepLedger",
    "enumerate_points",
    "run_ledger",
    "run_sweep",
    "sweep_fingerprint",
    "RetryPolicy",
    "TRANSIENT_KINDS",
]

#: Seconds between pool polls; bounds timeout-detection latency.
_POLL_SECONDS = 0.05


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------
#: ``error_kind`` values that are transient by nature and worth retrying:
#: the point itself is deterministic, so only failures of the *executor* —
#: a dead worker process, an expired work lease, a dropped worker
#: connection — can succeed on a re-run.  A watchdog stall (``"stalled"``)
#: is final: the watchdog counts cycles, so the same config and seed stall
#: at the same cycle every time.
TRANSIENT_KINDS = frozenset({"worker_death", "lease_expired", "disconnect"})


@dataclass
class RetryPolicy:
    """Capped exponential backoff with jitter for transient point failures.

    Shared by the pool transport here and the distributed sweep service
    (:mod:`repro.service`): both retry *transient* failures (see
    :data:`TRANSIENT_KINDS`) up to ``max_retries`` times, sleeping
    ``backoff * 2**(attempt-1)`` seconds (capped at ``max_backoff``) times a
    jitter factor in ``[1, 1.25)`` between attempts.  Deterministic runner
    exceptions are never retried — the same config and seed would fail the
    same way.

    ``rng`` selects the jitter source: ``None`` (the default) draws from the
    process-global :mod:`random` like the historical behaviour, while a
    :class:`random.Random` instance makes the jitter — and therefore the
    retry timeline — a pure function of its seed.  :meth:`seeded` builds a
    policy whose jitter stream derives from a config seed via
    :func:`repro.rng.spawn`, which is what makes self-healing tests
    deterministic.
    """

    max_retries: int = 2
    backoff: float = 0.25
    max_backoff: float = 5.0
    transient_kinds: frozenset = TRANSIENT_KINDS
    rng: Optional[random.Random] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 0:
            raise ValueError("backoff must be >= 0")

    @classmethod
    def seeded(cls, seed: int, *labels: object, **kwargs) -> "RetryPolicy":
        """A policy whose jitter stream derives from ``seed`` and ``labels``."""
        return cls(rng=random.Random(rng.spawn(seed, "retry-jitter", *labels)), **kwargs)

    def should_retry(self, kind: object, attempt: int) -> bool:
        """True when a failure of ``kind`` at 0-based ``attempt`` gets a retry."""
        return kind in self.transient_kinds and attempt < self.max_retries

    def delay(self, attempt: int) -> float:
        """Backoff sleep before retry ``attempt`` (1-based), jitter included."""
        base = min(self.backoff * 2 ** (attempt - 1), self.max_backoff)
        draw = self.rng.random() if self.rng is not None else random.random()
        return base * (1.0 + 0.25 * draw)


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep: its canonical index, coordinates, and seed."""

    #: Position in the canonical enumeration order (journal key).
    index: int
    #: Config-field overrides applied via ``base.with_(**overrides)``.
    overrides: Mapping[str, Any]
    #: Extra-axis values passed to the runner as keyword arguments.
    kwargs: Mapping[str, Any]
    #: Seed the point's config carries (derived or explicit).
    seed: int

    @property
    def coords(self) -> dict[str, Any]:
        """All axis coordinates (config overrides then extra axes)."""
        return {**self.overrides, **self.kwargs}


@dataclass(frozen=True)
class SweepProgress:
    """Progress snapshot handed to the ``progress`` callback per point.

    ``rate`` and ``eta`` are computed over points completed in *this* run
    (resumed journal entries count toward ``done`` but not the rate, so the
    ETA stays honest after a resume).  ``eta`` is ``inf`` until the first
    point of the run completes.
    """

    done: int
    total: int
    failed: int
    elapsed: float
    rate: float
    eta: float

    @property
    def remaining(self) -> int:
        return self.total - self.done


@dataclass
class SweepHealth:
    """Per-sweep health summary: how the run degraded, if it did.

    ``ok + failed == total`` for a sweep that ran to the end; ``retried``
    counts retry *attempts* (a point retried twice adds two), ``timed_out``
    and ``stalled`` break the failures down by cause, ``worker_deaths``
    counts pool-rebuild events, and ``interrupted`` marks a sweep cut short
    by KeyboardInterrupt (the summary is flushed to the journal first).
    """

    total: int = 0
    ok: int = 0
    failed: int = 0
    retried: int = 0
    timed_out: int = 0
    stalled: int = 0
    worker_deaths: int = 0
    interrupted: bool = False
    #: points satisfied from / missed by the result cache (0/0 = no cache)
    cache_hits: int = 0
    cache_misses: int = 0
    #: service-mode counters: worker quarantine events, and completions for
    #: leases that had already expired or been re-assigned (dropped — the
    #: re-leased run's record is authoritative, and identical anyway).
    quarantined: int = 0
    stale_results: int = 0

    def merge(self, other: "SweepHealth") -> None:
        """Fold ``other`` into this summary: counters add, flags OR."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            setattr(self, f.name, mine or theirs if isinstance(mine, bool) else mine + theirs)

    def summary(self) -> str:
        parts = [f"{self.ok}/{self.total} ok"]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.timed_out:
            parts.append(f"{self.timed_out} timed out")
        if self.stalled:
            parts.append(f"{self.stalled} stalled")
        if self.retried:
            parts.append(f"{self.retried} retries")
        if self.worker_deaths:
            parts.append(f"{self.worker_deaths} worker deaths")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantines")
        if self.stale_results:
            parts.append(f"{self.stale_results} stale results")
        if self.cache_hits or self.cache_misses:
            parts.append(f"{self.cache_hits}/{self.cache_hits + self.cache_misses} cache hits")
        if self.interrupted:
            parts.append("interrupted")
        return ", ".join(parts)


class SweepRecords(list):
    """The records of one sweep (a plain list) plus its health summary.

    Subclassing ``list`` keeps every existing consumer working — indexing,
    iteration, ``len`` — while ``.health`` carries the
    :class:`SweepHealth` for callers that want it.
    """

    def __init__(self, records=(), health: SweepHealth | None = None):
        super().__init__(records)
        self.health = health if health is not None else SweepHealth()


#: The journal-line encoder, built once (``json.dumps(default=)`` builds one
#: per call); the format is :func:`repro.analysis.io.append_jsonl`'s.
_encode_line = json.JSONEncoder(default=str).encode


def _jsonable(mapping: Mapping[str, Any]) -> dict[str, Any]:
    """A mapping as it will read back from a JSON journal (tuples→lists…)."""
    return json.loads(_encode_line(dict(mapping)))


_CONFIG_FIELDS = tuple(f.name for f in fields(NetworkConfig))


def _config_dict(cfg: NetworkConfig) -> dict[str, Any]:
    """``dataclasses.asdict(cfg)`` by a field walk.

    Every field is an immutable scalar, so ``asdict``'s recursive deep copy
    has nothing to protect; tests/test_sweep_ledger.py holds this equal to
    ``asdict``.
    """
    return {name: getattr(cfg, name) for name in _CONFIG_FIELDS}


def enumerate_points(
    base: NetworkConfig,
    axes: Mapping[str, Sequence[Any]],
    extra_axes: Mapping[str, Sequence[Any]] | None = None,
    *,
    derive_seeds: bool = True,
) -> list[SweepPoint]:
    """The cartesian product of ``axes`` × ``extra_axes`` in canonical order.

    The order is the one the serial driver has always used: the outer
    product walks the config axes in mapping order, the inner product walks
    the extra axes.  With ``derive_seeds`` each point's seed comes from
    :func:`repro.rng.sweep_seed` over its full coordinates — unless
    ``"seed"`` is itself a swept config axis, in which case the explicit
    value wins (sweeping over seeds means the caller wants exactly those
    seeds).

    The points of one config combination are consecutive and share one
    ``overrides`` mapping (the same object), which is how
    :meth:`SweepLedger.prefill` resolves each combination's config once.
    """
    axes = dict(axes)
    extra_axes = dict(extra_axes or {})
    overlap = set(axes) & set(extra_axes)
    if overlap:
        raise ValueError(f"axes and extra_axes share names: {sorted(overlap)}")
    names = list(axes)
    extra_names = list(extra_axes)
    points: list[SweepPoint] = []
    for combo in itertools.product(*(axes[name] for name in names)):
        overrides = dict(zip(names, combo))
        for extra_combo in itertools.product(*(extra_axes[n] for n in extra_names)):
            kwargs = dict(zip(extra_names, extra_combo))
            if "seed" in overrides:
                seed = int(overrides["seed"])
            elif derive_seeds:
                seed = rng.sweep_seed(base.seed, {**overrides, **kwargs})
            else:
                seed = base.seed
            points.append(SweepPoint(len(points), overrides, kwargs, seed))
    return points


def _failed_record(
    point: SweepPoint, error: str, elapsed: float = 0.0, kind: str = "error"
) -> dict[str, Any]:
    rec = dict(point.coords)
    rec["failed"] = True
    rec["error"] = error
    rec["error_kind"] = kind
    rec["wall_seconds"] = elapsed
    return rec


#: ``(base, overrides, resolved config)`` of the combination the last
#: :func:`_execute_point` call in this process resolved; read and replaced
#: whole, so concurrent service-worker threads see a consistent triple.
_last_combination: Optional[tuple[NetworkConfig, Mapping[str, Any], NetworkConfig]] = None


def _point_config(base: NetworkConfig, point: SweepPoint) -> NetworkConfig:
    """``base.with_(**overrides, seed=seed)``, validated once per combination.

    A combination's points arrive consecutively, so the last resolved one
    is remembered: a point of the same base and overrides (identity first,
    equality second — a pool or service worker unpickles fresh objects per
    point) takes the validated config and lays its seed on with
    :meth:`NetworkConfig.with_seed`.  A combination or seed that does not
    validate is not remembered and raises for each of its points.
    """
    global _last_combination
    memo = _last_combination
    if memo is not None:
        last_base, last_overrides, resolved = memo
        if (last_base is base or last_base == base) and (
            last_overrides is point.overrides or last_overrides == point.overrides
        ):
            return resolved.with_seed(point.seed)
    cfg = base.with_(**{**point.overrides, "seed": point.seed})
    _last_combination = (base, point.overrides, cfg)
    return cfg


def _execute_point(
    runner: Callable[..., Mapping[str, Any]],
    base: NetworkConfig,
    point: SweepPoint,
) -> dict[str, Any]:
    """Run one point; exceptions become a failed record, never propagate.

    ``error_kind`` says why a point failed: ``"stalled"`` (the engine
    watchdog aborted the run) or ``"error"`` (a runner exception).  Both
    are deterministic, so neither is retried.  The stall record keeps only
    the first diagnosis line; the full snapshot is multi-line and belongs
    in logs, not in every journal record.
    """
    start = time.perf_counter()
    try:
        cfg = _point_config(base, point)
        out = runner(cfg, **point.kwargs) if point.kwargs else runner(cfg)
        rec = dict(point.coords)
        rec.update(out)
    except SimulationStalled as exc:
        first_line = str(exc).splitlines()[0]
        return _failed_record(
            point,
            f"SimulationStalled: {first_line}",
            time.perf_counter() - start,
            kind="stalled",
        )
    except Exception as exc:
        return _failed_record(
            point, f"{type(exc).__name__}: {exc}", time.perf_counter() - start
        )
    rec["wall_seconds"] = time.perf_counter() - start
    return rec


def sweep_fingerprint(
    base: NetworkConfig,
    axes: Mapping[str, Sequence[Any]],
    extra_axes: Mapping[str, Sequence[Any]] | None = None,
) -> str:
    """Identity of one sweep: resolved base config × axes × code version.

    The sha256 covers the base configuration, every axis (names and
    values), and the code-version salt of the simulation hot paths — so a
    journal written by one sweep is recognized (and a mismatched resume
    refused) after the config, the axes, or the simulator itself changed.
    The runner is deliberately *not* part of the identity: resuming with a
    wrapped or instrumented runner that produces the same records is a
    supported workflow (and the per-entry coordinate check still guards
    the points themselves).
    """
    payload = {
        "config": asdict(base),
        "axes": {k: list(v) for k, v in dict(axes).items()},
        "extra_axes": {k: list(v) for k, v in dict(extra_axes or {}).items()},
        "salt": result_cache.cache_salt(),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class SweepLedger:
    """The accounting of one sweep: points in, records out.

    One owner for what a journal line looks like, when a point counts as
    resumed / cache hit / ok / failed, when a record is written back to
    the result store, and what progress and :class:`SweepHealth` report.
    Invariant: ``pending`` = points − resumed − cache hits, and
    every index is emitted once, counted once, journaled once, and written
    back at most once and only on success.  Life cycle: construct (no I/O)
    → :meth:`open` → :meth:`prefill` → a transport calls :meth:`emit` for
    each of :attr:`pending` → :meth:`records`; the service controller holds
    one per job with no journal and skips :meth:`open`.

    Each record is encoded once per file it goes to, and the journal is one
    append handle: opened by the first :meth:`emit` (so after
    :meth:`open`'s rename of a resumed journal), every line flushed before
    the next point runs, closed by :meth:`records`, :meth:`interrupted` or
    :meth:`close` — which :func:`run_ledger` calls on any way out.
    """

    sweep_points: InitVar[Iterable[SweepPoint]]
    journal: Any = None
    fingerprint: str = ""
    resume: bool = False
    resume_force: bool = False
    progress: Callable[[SweepProgress], None] | None = None

    def __post_init__(self, sweep_points: Iterable[SweepPoint]) -> None:
        if self.resume and self.journal is None:
            raise ValueError("resume=True requires a journal path")
        self.points: dict[int, SweepPoint] = {p.index: p for p in sweep_points}
        self.results: dict[int, dict[str, Any]] = {}
        #: indices in emit order (the service's incremental ``poll`` cursor)
        self.completion_order: list[int] = []
        self.health = SweepHealth(total=len(self.points))
        self._store = None
        #: ``{index: (key, provenance)}`` of cache misses awaiting write-back
        self._misses: dict[int, tuple[str, dict[str, Any]]] = {}
        self._journal = JsonlAppender(self.journal) if self.journal is not None else None
        self._start = time.monotonic()

    @property
    def pending(self) -> list[SweepPoint]:
        """Points with no record yet, in canonical order."""
        return [p for p in self.points.values() if p.index not in self.results]

    @property
    def finished(self) -> bool:
        return len(self.results) >= len(self.points)

    def _entry(self, index: int, record: dict[str, Any]) -> dict[str, Any]:
        """One journal line, unencoded; its ``point`` reads back as
        ``_jsonable(coords)``, which is what :meth:`_resumed_index` checks."""
        return {"index": index, "point": self.points[index].coords, "record": record}

    def _count(self, record: Mapping[str, Any]) -> bool:
        """Tally one final record into the health summary; True when ok."""
        health = self.health
        if not record.get("failed"):
            health.ok += 1
            return True
        health.failed += 1
        kind = record.get("error_kind")
        if kind == "timeout":
            health.timed_out += 1
        elif kind == "stalled":
            health.stalled += 1
        return False

    def open(self) -> None:
        """Start the journal, resuming it if asked.

        Resumed entries are counted exactly once, here, before any cache
        prefill: they are never ``pending``, so a resumed point can not be
        re-counted as a cache hit.
        """
        if self.journal is not None:
            from .. import __version__

            if self.resume:
                for entry in self._resumed_entries():
                    if "index" in entry and "record" in entry:
                        self.results[self._resumed_index(entry)] = entry["record"]
                for record in self.results.values():
                    self._count(record)
            header = {
                "fingerprint": self.fingerprint,
                "total": len(self.points),
                "version": __version__,
            }
            self._rewrite_journal(
                {"sweep": header},
                (self._entry(i, r) for i, r in sorted(self.results.items())),
            )

    def _resumed_entries(self) -> list[dict]:
        """The entries of the journal being resumed, unless another sweep wrote it.

        The header is the ``{"sweep": {...}}`` line :meth:`open` writes
        first.  Journals from before fingerprints existed have no header and
        resume as they always did; a mismatched header means the config,
        axes, or simulation code changed since the journal was written, and
        mixing old records with new runs would corrupt the sweep silently —
        fail with the reason instead, unless ``resume_force`` overrides.
        """
        entries = read_jsonl(self.journal)
        headers = (e["sweep"] for e in entries if isinstance(e.get("sweep"), Mapping))
        recorded = next(headers, {}).get("fingerprint")
        if recorded is not None and recorded != self.fingerprint and not self.resume_force:
            raise ValueError(
                f"journal {self.journal} was written by a different sweep "
                f"(fingerprint {str(recorded)[:12]}… != {self.fingerprint[:12]}…): "
                "the config, axes, or simulation code changed since "
                "it was recorded; pass resume_force=True (CLI --force-resume) "
                "to resume anyway, or start fresh with resume=False"
            )
        return entries

    def _rewrite_journal(
        self, header: Mapping[str, Any], entries: Iterable[Mapping[str, Any]]
    ) -> None:
        """Replace the journal with ``header`` + ``entries``, atomically.

        A resumed journal must be rewritten — a partial trailing line left by
        a crash has no newline, and appending after it would corrupt the next
        record — but never by truncating it first: a kill between truncate and
        re-append would lose every checkpointed point.  The new content goes
        to a sibling temp file that is renamed over the journal.
        """
        path = pathlib.Path(self.journal)
        tmp = path.with_name(path.name + ".tmp")
        tmp.unlink(missing_ok=True)
        append_jsonl(itertools.chain((header,), entries), tmp)
        tmp.replace(path)

    def _resumed_index(self, entry: Mapping[str, Any]) -> int:
        """A journal entry's index, refused if it is not this sweep's point."""
        index = entry["index"]
        point = self.points.get(index)
        if point is None:
            raise ValueError(
                f"journal {self.journal} has point index {index} outside this "
                f"{len(self.points)}-point sweep; it belongs to a different sweep"
            )
        # Plain coordinates equal their JSON form as they are; only tuples
        # and the like need the round trip to compare.
        recorded, coords = entry.get("point"), point.coords
        if recorded != coords and recorded != _jsonable(coords):
            raise ValueError(
                f"journal {self.journal} point {index} has coordinates "
                f"{recorded!r}, but this sweep's point {index} is "
                f"{_jsonable(coords)!r}; refusing to resume across "
                "changed axes"
            )
        return index

    def prefill(self, store, base: NetworkConfig, spec: Mapping[str, Any], context: str) -> None:
        """Answer pending points from ``store``; remember the misses' keys.

        The lookup — by resolved config, kwargs, runner identity, code salt
        — happens *before* dispatch, so hits never reach a transport; they
        go through :meth:`emit` like computed records (journal, progress).
        """
        self._store = store
        salt = result_cache.cache_salt()
        dotted, runner_kwargs = result_cache.provenance(spec)
        runner_spec = {"runner": dotted} if dotted else {}
        hits: list[tuple[int, dict[str, Any]]] = []
        # enumerate_points hands every point of one override combination the
        # same ``overrides`` mapping, consecutively: validate, flatten and
        # digest the config once per mapping, then lay each point's seed over
        # the result and hash only the point's own kwargs and seed.
        overrides, flat, digest = None, None, ""
        for point in self.pending:
            if point.overrides is not overrides:
                overrides = point.overrides
                try:
                    flat = _config_dict(base.with_(**{**overrides, "seed": point.seed}))
                except Exception:
                    # An invalid combination cannot be cached; executing its
                    # points produces the deterministic failed records.
                    flat = None
                else:
                    digest = result_cache.combination_digest(flat, spec, salt=salt)
            if flat is None:
                continue
            cfg_dict = dict(flat)
            cfg_dict["seed"] = point.seed
            key = result_cache.combination_key(digest, point.kwargs, point.seed)
            hit = store.get(key)
            if hit is not None:
                hits.append((point.index, hit))
                continue
            self.health.cache_misses += 1
            self._misses[point.index] = key, {
                "context": context,
                "runner_spec": runner_spec,
                "runner_kwargs": runner_kwargs,
                "config": cfg_dict,
                "kwargs": dict(point.kwargs),
                "coords": sorted(point.coords),
            }
        # Hits are emitted after the lookups, not between them: back-to-back
        # journal appends measure ~10 us/point cheaper than appends
        # interleaved with key hashing (sweep_overhead's warm leg).
        self.health.cache_hits += len(hits)
        for index, hit in hits:
            self.emit(index, hit)

    def emit(self, index: int, record: dict[str, Any]) -> None:
        """Accept the final record of point ``index`` — once: a second one
        (journal resume, a duplicate or stale completion) is dropped, or it
        would double-count ok/failed and the "N/M cache hits" summary."""
        if index in self.results:
            return
        if self._count(record) and index in self._misses:
            # Write-back on success only: failed/stalled/timed-out points
            # must re-run next time, never replay.  Cache hits are not in
            # ``_misses``, so they naturally skip the write.
            key, provenance = self._misses.pop(index)
            self._store.put(key, record, provenance)
        self.results[index] = record
        self.completion_order.append(index)
        if self._journal is not None:
            self._journal.write(_encode_line(self._entry(index, record)))
        if self.progress is not None:
            done, total = len(self.results), len(self.points)
            elapsed = time.monotonic() - self._start
            rate = len(self.completion_order) / elapsed if elapsed > 0 else 0.0
            eta = (total - done) / rate if rate > 0 else float("inf")
            self.progress(SweepProgress(done, total, self.health.failed, elapsed, rate, eta))

    def interrupted(self) -> None:
        """Flush the health summary so the journal tells the whole story
        (per-point records are flushed as they land, so it stays resumable)."""
        self.health.interrupted = True
        if self._journal is not None:
            self._journal.write(_encode_line({"health": asdict(self.health)}))
        self.close()

    def close(self) -> None:
        """Release the journal handle (idempotent; every line is flushed)."""
        if self._journal is not None:
            self._journal.close()

    def records(self) -> SweepRecords:
        """Every point's record in canonical order, health attached."""
        self.close()
        return SweepRecords((self.results[i] for i in self.points), self.health)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*, terminating its worker processes.

    ``ProcessPoolExecutor`` has no way to cancel one running task, so
    killing a hung worker means killing them all and rebuilding — the
    callers resubmit the innocent in-flight points, whose re-runs are
    deterministic (per-point derived seeds), so no result changes.
    """
    procs = getattr(pool, "_processes", None)
    processes = list(procs.values()) if procs else []
    for proc in processes:
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in processes:
        proc.join(timeout=5.0)


def _run_pool(
    pending: Sequence[SweepPoint],
    runner: Callable[..., Mapping[str, Any]],
    base: NetworkConfig,
    n_workers: int,
    point_timeout: float | None,
    emit: Callable[[int, dict[str, Any]], None],
    health: SweepHealth,
    policy: RetryPolicy,
    pending_attempts: Optional[Sequence[int]] = None,
) -> None:
    """Execute ``pending`` on a process pool, emitting records as they land.

    Submissions are windowed so huge sweeps don't pin every argument tuple
    in memory at once.  With ``point_timeout`` set the window shrinks to
    exactly ``n_workers`` outstanding futures, so every in-flight future is
    actually *executing* — timing a future from submission would otherwise
    falsely expire points merely queued behind a slow sibling.

    Self-healing behavior:

    * a point over ``point_timeout`` → its worker is killed (pool teardown
      + rebuild), the point is recorded as timed out (no retry — the same
      deterministic run would hang again), innocent in-flight points are
      resubmitted at their current attempt count;
    * a dead worker (``BrokenProcessPool``) → pool rebuild; every point
      that was in flight is retried with backoff, since any of them may
      have been the victim and re-running a completed-but-unreported point
      is deterministic.
    """
    # Imported here, not at module top: the pool machinery pulls in
    # multiprocessing (~25 ms), which the serial path never needs.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    # Queue entries are (point, attempt); ``delayed`` holds backoff retries
    # as (ready_monotonic, point, attempt).  ``pending_attempts`` lets the
    # service's local-fallback path resume points mid-retry-budget.
    attempts = pending_attempts if pending_attempts is not None else [0] * len(pending)
    queue: deque[tuple[SweepPoint, int]] = deque(zip(pending, attempts))
    delayed: list[tuple[float, SweepPoint, int]] = []
    inflight: dict[Future, tuple[SweepPoint, int, float]] = {}
    window = n_workers if point_timeout is not None else 2 * n_workers
    pool = ProcessPoolExecutor(max_workers=n_workers)

    def retry_or_fail(
        point: SweepPoint, attempt: int, record: dict[str, Any], *, now: float
    ) -> None:
        """Requeue a transient failure with backoff, or emit it as final."""
        if attempt < policy.max_retries:
            health.retried += 1
            delayed.append((now + policy.delay(attempt + 1), point, attempt + 1))
        else:
            emit(point.index, record)

    def rebuild_pool(reason_points: list[tuple[SweepPoint, int]]) -> None:
        """Kill the pool, requeue ``reason_points`` at their attempts, rebuild."""
        nonlocal pool
        _kill_pool(pool)
        inflight.clear()
        queue.extendleft(reversed(reason_points))
        pool = ProcessPoolExecutor(max_workers=n_workers)

    def worker_died(requeue: list[tuple[SweepPoint, int]]) -> None:
        """Any in-flight point may be the victim; retry them all
        (deterministic re-runs), each charged one attempt so a point that
        reliably kills its worker — e.g. an OOM — converges to a failed
        record instead of cycling."""
        health.worker_deaths += 1
        now = time.monotonic()
        for point, attempt, _ in list(inflight.values()):
            record = _failed_record(point, "worker process died", kind="worker_death")
            retry_or_fail(point, attempt, record, now=now)
        rebuild_pool(requeue)

    try:
        while queue or inflight or delayed:
            now = time.monotonic()
            if delayed:
                ready = [e for e in delayed if e[0] <= now]
                if ready:
                    delayed = [e for e in delayed if e[0] > now]
                    for _, point, attempt in ready:
                        queue.append((point, attempt))
            while queue and len(inflight) < window:
                point, attempt = queue.popleft()
                try:
                    future = pool.submit(_execute_point, runner, base, point)
                except BrokenProcessPool:
                    worker_died([(point, attempt)])
                    break
                inflight[future] = (point, attempt, time.monotonic())
            if not inflight:
                if delayed:
                    time.sleep(
                        min(max(min(e[0] for e in delayed) - now, 0.0), 0.5)
                    )
                continue
            done, _ = wait(
                list(inflight), timeout=_POLL_SECONDS, return_when=FIRST_COMPLETED
            )
            now = time.monotonic()
            broken = False
            for future in done:
                point, attempt, _ = inflight.pop(future)
                try:
                    record = future.result()
                except BrokenProcessPool:
                    # Handled below together with the other in-flight points.
                    broken = True
                    inflight[future] = (point, attempt, now)
                    break
                except Exception as exc:  # e.g. unpicklable runner output
                    record = _failed_record(point, f"{type(exc).__name__}: {exc}")
                emit(point.index, record)
            if broken:
                worker_died([])
                continue
            if point_timeout is not None:
                overdue = [
                    (future, point, attempt, started)
                    for future, (point, attempt, started) in inflight.items()
                    if now - started > point_timeout and not future.done()
                ]
                if overdue:
                    # Kill the hung worker(s): tear the pool down and
                    # resubmit the innocent in-flight points.
                    for future, point, attempt, started in overdue:
                        del inflight[future]
                        emit(
                            point.index,
                            _failed_record(
                                point,
                                f"TimeoutError: point exceeded {point_timeout:g}s"
                                " (worker killed)",
                                now - started,
                                kind="timeout",
                            ),
                        )
                    innocents = [
                        (point, attempt) for point, attempt, _ in inflight.values()
                    ]
                    rebuild_pool(innocents)
    finally:
        _kill_pool(pool)


def _run_inline(
    pending: Sequence[SweepPoint],
    runner: Callable[..., Mapping[str, Any]],
    base: NetworkConfig,
    emit: Callable[[int, dict[str, Any]], None],
) -> None:
    """Execute ``pending`` in this process, one attempt per point.

    Every failure here is final: the one transient kind a local run can
    meet is a pool worker's death.
    """
    for point in pending:
        emit(point.index, _execute_point(runner, base, point))


def _run_local(pending, runner, base, n_workers, point_timeout, emit, health, policy,
               pending_attempts=None) -> None:
    """The local transport: in-process for one worker, a pool otherwise."""
    if n_workers == 1:
        _run_inline(pending, runner, base, emit)
    else:
        _run_pool(
            pending, runner, base, n_workers, point_timeout, emit, health, policy,
            pending_attempts,
        )


def run_ledger(
    ledger: SweepLedger,
    base: NetworkConfig,
    runner: Callable[..., Mapping[str, Any]],
    *,
    n_workers: int = 1,
    point_timeout: float | None = None,
    max_retries: int = 2,
    retry_backoff: float = 0.25,
    cache=None,
    remote: str | None = None,
    label: str = "",
    poll_interval: float = 0.2,
) -> SweepRecords:
    """Open ``ledger``, dispatch what is still pending, return its records.

    With ``remote`` (a ``"host:port"`` service address) the pending points
    go to the controller, which owns execution and the shared cache —
    ``n_workers``, ``point_timeout`` and ``cache`` are its configuration,
    not the client's.  Otherwise they are looked up in ``cache`` and the
    misses run here, retry jitter seeded from ``base.seed`` so a retry
    timeline reproduces.  A KeyboardInterrupt flushes the health summary
    to the journal before it propagates.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if point_timeout is not None and n_workers == 1 and remote is None:
        raise ValueError(
            "point_timeout needs a process pool (n_workers > 1): the serial "
            "driver runs points in-process and cannot kill a hung one"
        )
    store = None
    try:
        ledger.open()
        store = None if remote is not None else result_cache.resolve_cache(cache)
        if store is not None:
            ledger.prefill(store, base, result_cache.runner_spec(runner), "sweep")
        pending = ledger.pending
        if pending and remote is not None:
            from ..service.client import _run_remote

            _run_remote(
                remote, pending, runner, base, ledger.emit, ledger.health,
                max_retries=max_retries, retry_backoff=retry_backoff,
                label=label, poll_interval=poll_interval,
            )
        elif pending:
            policy = RetryPolicy.seeded(
                base.seed, max_retries=max_retries, backoff=retry_backoff
            )
            _run_local(
                pending, runner, base, n_workers, point_timeout,
                ledger.emit, ledger.health, policy,
            )
    except KeyboardInterrupt:
        ledger.interrupted()
        raise
    finally:
        ledger.close()
        if store is not None:
            store.flush_stats()
            store.close()
    return ledger.records()


def run_sweep(
    base: NetworkConfig,
    axes: Mapping[str, Sequence[Any]],
    runner: Callable[..., Mapping[str, Any]],
    *,
    extra_axes: Mapping[str, Sequence[Any]] | None = None,
    n_workers: int = 1,
    journal=None,
    resume: bool = False,
    resume_force: bool = False,
    point_timeout: float | None = None,
    progress: Callable[[SweepProgress], None] | None = None,
    derive_seeds: bool = True,
    max_retries: int = 2,
    retry_backoff: float = 0.25,
    cache=None,
) -> SweepRecords:
    """Run ``runner`` over every sweep point; collect records in canonical order.

    ``axes`` vary :class:`NetworkConfig` fields over their cartesian
    product; ``extra_axes`` vary non-config parameters (e.g. the batch
    model's ``m``), passed to ``runner`` as keyword arguments.  Each record
    holds the point's coordinates, the runner's outputs, and the
    wall-clock seconds the point took; a runner that raises yields a
    record with ``failed=True`` and the exception string under ``"error"``
    while the rest of the sweep completes.  ``derive_seeds=False`` keeps
    the base seed on every point instead of a per-point child seed.

    The executor knobs are described in the module docstring.
    ``journal`` names the JSON-lines checkpoint file; with
    ``resume=False`` an existing journal is replaced (a fresh sweep), with
    ``resume=True`` its points are skipped and only missing ones run.
    ``point_timeout`` (seconds, pool mode only) kills the hung worker and
    marks the point failed without killing the sweep.  Transient failures
    (worker death) are retried up to ``max_retries`` times with capped
    exponential backoff starting at ``retry_backoff`` seconds (jitter
    seeded from ``base.seed``); the returned :class:`SweepRecords` list
    carries the sweep's :class:`SweepHealth` under ``.health``.

    ``cache`` names a content-addressed result store (a directory path or
    a :class:`repro.core.cache.ResultCache`), consulted before dispatch
    and written back on success only (:meth:`SweepLedger.prefill`).
    ``REPRO_NO_CACHE=1`` disables the cache regardless of this argument;
    records are bit-identical with the cache cold, warm, or off.

    A journaling sweep writes a header line first — the sweep's
    :func:`sweep_fingerprint` over config × axes × code salt (not the
    runner) — and a resume against a journal whose header differs fails
    with the reason (:meth:`SweepLedger.open`);
    ``resume_force=True`` overrides the check.
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
        n_workers=n_workers, point_timeout=point_timeout,
        max_retries=max_retries, retry_backoff=retry_backoff, cache=cache,
    )
