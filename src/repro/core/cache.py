"""Content-addressed result cache for sweeps and figure reproduction.

The framework's workloads re-run the same (config, seed) points constantly:
latency-load grids behind the figure harnesses, correlation sweeps, CI
reruns of identical commits.  Every point is deterministic — same resolved
config, same seed, same code ⇒ bit-identical record — so recomputing one is
pure waste.  This module memoizes them on disk, BookSim-style:

* **Content addressing.**  A point's identity is the sha256 fingerprint of
  its *resolved* configuration dict, its extra-axis kwargs, the identity of
  the runner that produced it, and a **code-version salt** — in two
  levels, so a sweep hashes what a combination's points share (config
  minus seed, runner, salt: :func:`combination_digest`) once and only the
  point's own kwargs and seed per point (:func:`combination_key`).  The salt folds
  in ``repro.__version__`` plus a per-module source digest of the hot-path
  files (``config``/``rng`` and the ``core``, ``network``, ``routing``,
  ``topology``, ``traffic``, ``execdriven`` packages), so any edit to
  simulation-relevant code invalidates the cache cleanly.  A doc-only edit
  that is *known* not to change results can opt in to the old entries by
  pinning ``REPRO_CACHE_SALT`` to the previous salt.  A value that is not
  JSON-native keys on its text, and one whose text is its memory address
  (an object without a parameter ``__repr__``, a function) raises
  ``TypeError`` instead of keying.
* **Store layout.**  One append-only JSON-lines file (``store.jsonl``)
  holding full entries — key, provenance metadata, record — plus an
  in-memory sha256 index built on open.  A tail truncated by a crash is
  tolerated exactly like the sweep journal: complete lines load, the
  partial line is dropped.  ``stats.json`` accumulates hit/miss/write
  counters across runs.
* **Write-back on success only.**  Failed, stalled, or timed-out points
  are never cached; they re-run next time.
* **Kill switch.**  ``REPRO_NO_CACHE=1`` disables every lookup and
  write-back, regardless of what callers pass.

Integration points: :meth:`repro.core.parallel.SweepLedger.prefill`
(lookup before a point is dispatched, write-back as records land), which
``run_ledger(..., cache=)`` calls for every local sweep — ``run_sweep``,
the explorer and the figure suite (``benchmarks/exhibits.py``) — and the
service controller for its jobs; and the ``repro cache`` CLI (``stats`` /
``verify`` / ``gc``).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
import os
import pathlib
import types
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from ..analysis.io import JsonlAppender, canonical_json, json_default, read_jsonl

__all__ = [
    "CacheStats",
    "GCResult",
    "ResultCache",
    "VerifyResult",
    "cache_disabled",
    "cache_salt",
    "code_fingerprint",
    "combination_digest",
    "combination_key",
    "default_cache_dir",
    "fingerprint",
    "point_key",
    "provenance",
    "resolve_cache",
    "runner_spec",
    "verify_entries",
]

#: Environment variable that disables the cache entirely.
NO_CACHE_ENV = "REPRO_NO_CACHE"

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable pinning the code-version salt explicitly (the
#: doc-only-edit opt-in: pin it to the previous salt to keep old entries).
CACHE_SALT_ENV = "REPRO_CACHE_SALT"

#: Modules/packages whose source feeds the code-version salt: everything a
#: driver imports on its way to a record (tests/test_result_cache.py runs
#: one open-loop and one batch point and fails if a ``repro`` module they
#: pulled in is missing here).  ``analysis`` is salted whole —
#: ``analysis.io`` holds the JSON encoding behind every key, and a driver
#: may reach any of it through the package's lazy names.  ``__main__`` and
#: ``service`` are absent: CLI wiring and transport cannot change a
#: simulation record.
_HOT_PATHS = (
    "__init__.py",
    "_lazy.py",
    "_version.py",
    "config.py",
    "rng.py",
    "analysis",
    "core",
    "network",
    "routing",
    "topology",
    "traffic",
    "execdriven",
)

_STORE_NAME = "store.jsonl"
_STATS_NAME = "stats.json"


def cache_disabled() -> bool:
    """True when ``REPRO_NO_CACHE`` requests a full bypass."""
    return os.environ.get(NO_CACHE_ENV, "").strip().lower() in ("1", "true", "yes", "on")


def default_cache_dir() -> pathlib.Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``.repro-cache``."""
    return pathlib.Path(os.environ.get(CACHE_DIR_ENV) or ".repro-cache")


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> dict:
    """Per-module sha256 source digests of the hot-path files.

    Keys are paths relative to the ``repro`` package (``core/engine.py``),
    values are hex digests of the file bytes.  Computed once per process —
    the sources cannot change under a running interpreter in any way that
    matters to the records it will produce.
    """
    pkg_root = pathlib.Path(__file__).resolve().parent.parent
    digests: dict[str, str] = {}
    for rel in _HOT_PATHS:
        target = pkg_root / rel
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for f in files:
            if f.exists():
                digests[f.relative_to(pkg_root).as_posix()] = hashlib.sha256(
                    f.read_bytes()
                ).hexdigest()
    return digests


@functools.lru_cache(maxsize=1)
def _computed_salt() -> str:
    from .. import __version__

    payload = {"version": __version__, "sources": code_fingerprint()}
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def cache_salt() -> str:
    """The code-version salt: ``REPRO_CACHE_SALT`` if pinned, else computed."""
    return os.environ.get(CACHE_SALT_ENV) or _computed_salt()


def _key_default(obj: Any) -> Any:
    """:func:`~repro.analysis.io.json_default` for a value entering a key.

    A value whose text holds its own memory address — an instance with the
    default ``object.__repr__``, a function, a method bound to such an
    instance — is refused with a ``TypeError`` naming its type: a key built
    on an address never hits in another process, and as addresses are
    reused it can name another value in this one.  The hex digits are
    compared case-blind, as platforms print ``%p`` differently.
    """
    value = json_default(obj)
    if isinstance(value, str):
        text = value.lower()
        for held in (obj, getattr(obj, "__self__", obj)):
            if format(id(held), "x") in text:
                kind = type(obj)
                raise TypeError(
                    f"{kind.__module__}.{kind.__qualname__} value {value!r} cannot "
                    "enter a cache key: its text is a memory address; give the "
                    "type a __repr__ of its parameters"
                )
    return value


#: The encoders behind every key and store line, built once: passing
#: ``default=`` to :func:`json.dumps` constructs a fresh encoder per call.
#: What enters a key refuses address-valued objects; a store line keeps
#: the lenient ``str`` fallback.  A runner's bindings enter its key but keep
#: the line format's key order, which store lines and the wire carry.
_encode_key = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_key_default
).encode
_encode_binding = json.JSONEncoder(default=_key_default).encode
_encode_line = json.JSONEncoder(default=json_default).encode


def _jsonable(obj: Any) -> Any:
    """``obj`` as it reads back from JSON (tuples→lists, numpy→native)."""
    return json.loads(_encode_line(obj))


def _copy_json(obj: Any) -> Any:
    """A private copy of a decoded-JSON value (``copy.deepcopy`` for these).

    Index records come from ``json.loads``, so dicts and lists are the only
    mutable nodes; everything else is shared.
    """
    if type(obj) is dict:
        return {name: _copy_json(value) for name, value in obj.items()}
    if type(obj) is list:
        return [_copy_json(value) for value in obj]
    return obj


def fingerprint(payload: Mapping[str, Any], *, salt: Optional[str] = None) -> str:
    """sha256 key of an arbitrary JSON-able payload under the code salt.

    The payload is encoded once, canonically: keys sorted at every depth,
    tuples as lists, numpy scalars and arrays as native numbers — so the
    key is the same for any dict insertion order, for tuple or list, and
    for numpy or native values, and it is the key of the payload as it
    reads back from a store line.
    """
    body = {"payload": payload, "salt": salt if salt is not None else cache_salt()}
    return hashlib.sha256(_encode_key(body).encode("utf-8")).hexdigest()


def _code_text(value: Any) -> str:
    """What a code object (or one of its constants) computes, as text.

    A code object reads as its bytecode, the names it loads and its
    constants, recursing into nested code objects (comprehensions,
    lambdas); a frozenset constant (``x in {...}``) reads with its members
    sorted, so neither a memory address nor ``PYTHONHASHSEED`` moves it.
    """
    if isinstance(value, types.CodeType):
        return repr((value.co_code, value.co_names, tuple(map(_code_text, value.co_consts))))
    if isinstance(value, frozenset):
        return f"frozenset({sorted(map(_code_text, value))!r})"
    if isinstance(value, tuple):
        return repr(tuple(map(_code_text, value)))
    return repr(value)


def runner_spec(runner: Callable[..., Any]) -> dict[str, Any]:
    """A stable, JSON-able identity for a sweep runner.

    Two different runners must never share cache entries, so the spec folds
    in the dotted name, any :func:`functools.partial` binding (args and
    keywords, recursively), and — for functions — a CRC of the compiled
    code (bytecode, constants and loaded names, nested code included) and
    of the parameter defaults, which distinguishes same-named lambdas and
    tracks edits to runners living outside the salted ``repro`` package.
    A binding or default that is not JSON-native keys on its text, so one
    whose text is a memory address raises ``TypeError`` (see
    :func:`_key_default`).
    """
    if isinstance(runner, functools.partial):
        return {
            "partial_of": runner_spec(runner.func),
            "args": json.loads(_encode_binding(list(runner.args))),
            "kwargs": json.loads(_encode_binding(dict(runner.keywords or {}))),
        }
    spec: dict[str, Any] = {
        "runner": f"{getattr(runner, '__module__', '?')}:"
        f"{getattr(runner, '__qualname__', repr(type(runner).__name__))}"
    }
    code = getattr(runner, "__code__", None)
    if code is not None:
        defaults = _encode_binding(
            [getattr(runner, "__defaults__", None), getattr(runner, "__kwdefaults__", None)]
        )
        spec["code_crc"] = zlib.crc32(f"{_code_text(code)}{defaults}".encode("utf-8"))
    return spec


def provenance(spec: Mapping[str, Any]) -> tuple[Optional[str], dict[str, Any]]:
    """(dotted runner name, merged keyword bindings) from a runner spec.

    Flattens a :func:`functools.partial` chain so ``repro cache verify``
    can rebuild the callable; outer bindings shadow inner ones exactly as
    ``partial.__call__`` resolves them.  Positional partial args make the
    call unreconstructible from keywords alone → ``(None, {})``.
    """
    runner_kwargs: dict[str, Any] = {}
    node: Mapping[str, Any] = spec
    while "partial_of" in node:
        if node.get("args"):
            return None, {}
        for name, value in (node.get("kwargs") or {}).items():
            runner_kwargs.setdefault(name, value)
        node = node["partial_of"]
    return node.get("runner"), runner_kwargs


def combination_digest(
    config_dict: Mapping[str, Any],
    spec: Mapping[str, Any],
    *,
    salt: Optional[str] = None,
) -> str:
    """Digest of what the points of one config combination share.

    Covers the flattened config *minus its seed*, the runner spec and the
    code salt — everything in a point's identity except the two things
    that vary inside a combination.  A sweep computes it once per
    combination and derives each point's key from it with
    :func:`combination_key`; normalisation is :func:`fingerprint`'s.
    """
    shared = {name: value for name, value in config_dict.items() if name != "seed"}
    return fingerprint({"config": shared, "runner": spec}, salt=salt)


def combination_key(digest: str, kwargs: Mapping[str, Any], seed: Any) -> str:
    """Cache key of one point of the combination ``digest`` names.

    ``sha256(digest ‖ canonical{kwargs, seed})``: the per-point hash covers
    only the point's own extra-axis kwargs and seed, canonically encoded
    (sorted keys, tuples as lists, numpy as native).
    """
    own = _encode_key({"kwargs": dict(kwargs), "seed": seed})
    return hashlib.sha256((digest + own).encode("utf-8")).hexdigest()


def point_key(
    config_dict: Mapping[str, Any],
    kwargs: Mapping[str, Any],
    spec: Mapping[str, Any],
    *,
    salt: Optional[str] = None,
) -> str:
    """Cache key of one sweep point: resolved config × kwargs × runner.

    ``config_dict`` is the flattened :class:`~repro.config.NetworkConfig`
    (``dataclasses.asdict`` form, seed included).  The key is two-level —
    :func:`combination_key` over :func:`combination_digest` — so this is
    exactly what :meth:`repro.core.parallel.SweepLedger.prefill` computes
    for the same point, and it is the same for any dict order, tuple or
    list, and numpy or native value.
    """
    digest = combination_digest(config_dict, spec, salt=salt)
    return combination_key(digest, kwargs, config_dict.get("seed"))


@dataclass
class CacheStats:
    """Per-process cache counters (cumulative ones live in ``stats.json``)."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    bytes_written: int = 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class GCResult:
    """Outcome of one :meth:`ResultCache.gc` pass."""

    kept: int
    dropped: int
    bytes_before: int
    bytes_after: int


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of re-running one sampled cache entry."""

    key: str
    status: str  # "ok" | "mismatch" | "skipped"
    detail: str = ""


class ResultCache:
    """Content-addressed on-disk store: JSONL records + sha256 index.

    Open is cheap (one linear scan of ``store.jsonl``); lookups are a dict
    probe; writes append one flushed line through an append handle the
    cache holds from its first :meth:`put` until :meth:`close` (a later
    ``put`` reopens it).  Duplicate keys resolve to the newest line, so
    re-caching an entry is an overwrite without a rewrite.
    """

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.store_path = self.path / _STORE_NAME
        self.stats = CacheStats()
        self._appender = JsonlAppender(self.store_path)
        self._repair_tail()
        self._index: dict[str, dict[str, Any]] = {}
        for entry in read_jsonl(self.store_path):
            if "key" in entry and "record" in entry:
                self._index[entry["key"]] = entry

    def _repair_tail(self) -> None:
        """Drop a partial trailing line left by a crash mid-append.

        Reads tolerate the partial line, but a subsequent append would glue
        a fresh entry onto it and corrupt *that* record too — so truncate
        back to the last complete line before accepting writes.
        """
        if not self.store_path.exists():
            return
        data = self.store_path.read_bytes()
        if not data or data.endswith(b"\n"):
            return
        cut = data.rfind(b"\n") + 1
        with open(self.store_path, "r+b") as fh:
            fh.truncate(cut)

    def __len__(self) -> int:
        return len(self._index)

    @property
    def total_bytes(self) -> int:
        """Bytes the store occupies on disk (0 for a fresh cache)."""
        return self.store_path.stat().st_size if self.store_path.exists() else 0

    def entries(self) -> list[dict[str, Any]]:
        """All live entries, oldest first."""
        return list(self._index.values())

    def get(self, key: str) -> Optional[dict[str, Any]]:
        """The cached record for ``key`` (a private copy), or ``None``."""
        entry = self._index.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return _copy_json(entry["record"])

    def put(
        self, key: str, record: Mapping[str, Any], meta: Optional[Mapping[str, Any]] = None
    ) -> None:
        """Store ``record`` under ``key`` with provenance ``meta`` fields.

        The record is encoded once: that text is spliced into the store
        line and decoded for the index, so a ``get`` in this process
        returns what one after a reopen would.  ``stats.bytes_written``
        grows by the line's own length, whoever else appends meanwhile.
        """
        entry = dict(meta or {})
        entry["key"] = key
        encoded = _encode_line(dict(record))
        line = f'{_encode_line(entry)[:-1]}, "record": {encoded}}}'
        self.stats.bytes_written += self._appender.write(line)
        self.stats.writes += 1
        entry["record"] = json.loads(encoded)
        self._index[key] = entry

    def close(self) -> None:
        """Release the append handle; every written line is already flushed."""
        self._appender.close()

    def flush_stats(self) -> None:
        """Fold this process's counters into the cumulative ``stats.json``."""
        if not (self.stats.hits or self.stats.misses or self.stats.writes):
            return
        totals = self.cumulative_stats()
        for name, value in self.stats.as_dict().items():
            totals[name] = int(totals.get(name, 0)) + value
        (self.path / _STATS_NAME).write_text(json.dumps(totals, indent=1) + "\n")
        self.stats = CacheStats()

    def cumulative_stats(self) -> dict[str, int]:
        """Counters accumulated by every run against this cache directory."""
        path = self.path / _STATS_NAME
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        return data if isinstance(data, dict) else {}

    def gc(self, max_bytes: int) -> GCResult:
        """Shrink the store under ``max_bytes``, evicting oldest-first.

        Rewrites ``store.jsonl`` with the newest entries whose encoded
        lines fit the budget (insertion order preserved among survivors),
        which also compacts away lines shadowed by duplicate keys.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        bytes_before = self.total_bytes
        entries = self.entries()
        kept: list[dict[str, Any]] = []
        lines: list[str] = []
        budget = max_bytes
        for entry in reversed(entries):
            line = _encode_line(entry) + "\n"
            if len(line) > budget:
                break
            budget -= len(line)
            kept.append(entry)
            lines.append(line)
        kept.reverse()
        self.close()  # one writer at a time; the next put reopens
        self.store_path.write_text("".join(reversed(lines)), encoding="utf-8")
        self._index = {e["key"]: e for e in kept}
        return GCResult(
            kept=len(kept),
            dropped=len(entries) - len(kept),
            bytes_before=bytes_before,
            bytes_after=self.total_bytes,
        )


def resolve_cache(cache) -> Optional[ResultCache]:
    """Normalize a ``cache=`` argument: path → store, honoring the kill switch."""
    if cache is None or cache_disabled():
        return None
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


def _import_runner(dotted: str) -> Callable[..., Any]:
    module_name, _, qualname = dotted.partition(":")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def rerun_entry(entry: Mapping[str, Any]) -> VerifyResult:
    """Re-execute one sweep-cache entry and diff its record bit-for-bit.

    Only entries written by a :class:`repro.core.parallel.SweepLedger` carry
    the provenance needed to reconstruct the run (resolved config, extra
    kwargs, the runner's dotted name); an entry without it, or whose runner
    does not import here (the figure suite's ``exhibits:run_point`` needs
    ``benchmarks/`` on ``PYTHONPATH``), or whose config names a field
    :class:`NetworkConfig` no longer has or a value it no longer accepts,
    is reported ``skipped``.
    The diff covers every runner-output field; ``wall_seconds`` is excluded
    because timing is the one field determinism does not promise.
    """
    from ..config import NetworkConfig

    key = str(entry.get("key", "?"))
    spec = entry.get("runner_spec") or {}
    dotted = spec.get("runner") if isinstance(spec, Mapping) else None
    config = entry.get("config")
    if not dotted or not isinstance(config, Mapping):
        return VerifyResult(key, "skipped", "entry has no importable runner provenance")
    unknown = sorted(set(config) - {f.name for f in dataclasses.fields(NetworkConfig)})
    if unknown:
        return VerifyResult(
            key, "skipped", f"config field(s) {', '.join(unknown)} unknown to NetworkConfig"
        )
    try:
        cfg = NetworkConfig(**config)
    except ValueError as exc:
        return VerifyResult(key, "skipped", f"config refused by NetworkConfig: {exc}")
    try:
        runner = _import_runner(dotted)
    except (ImportError, AttributeError) as exc:
        return VerifyResult(key, "skipped", f"runner {dotted!r} not importable: {exc}")
    kwargs = dict(entry.get("kwargs") or {})
    runner_kwargs = dict(entry.get("runner_kwargs") or {})
    try:
        fresh = runner(cfg, **runner_kwargs, **kwargs)
    except Exception as exc:
        return VerifyResult(key, "mismatch", f"re-run raised {type(exc).__name__}: {exc}")
    coords = set(entry.get("coords") or kwargs)
    cached_out = {
        k: v
        for k, v in dict(entry["record"]).items()
        if k not in coords and k != "wall_seconds"
    }
    fresh_out = _jsonable(dict(fresh))
    if canonical_json(cached_out) != canonical_json(fresh_out):
        diffs = [
            f"{name}: cached={cached_out.get(name)!r} fresh={fresh_out.get(name)!r}"
            for name in sorted(set(cached_out) | set(fresh_out))
            if canonical_json(cached_out.get(name)) != canonical_json(fresh_out.get(name))
        ]
        return VerifyResult(key, "mismatch", "; ".join(diffs))
    return VerifyResult(key, "ok")


def verify_entries(
    cache: ResultCache, *, sample: int = 1, seed: int = 0
) -> list[VerifyResult]:
    """Re-run ``sample`` entries drawn deterministically from ``cache``.

    Sampling is seeded and keyed on the sorted entry keys, so the same
    cache state verifies the same points — a flaky verify would be worse
    than none.  Returns one :class:`VerifyResult` per sampled entry.
    """
    if sample < 1:
        raise ValueError("sample must be >= 1")
    entries = sorted(cache.entries(), key=lambda e: e["key"])
    if not entries:
        return []
    import numpy as np  # the sampler; ``cache stats`` and ``gc`` never load it

    gen = np.random.default_rng(seed)
    count = min(sample, len(entries))
    chosen = gen.choice(len(entries), size=count, replace=False)
    return [rerun_entry(entries[i]) for i in sorted(int(c) for c in chosen)]
