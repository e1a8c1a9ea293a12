"""Sweep-record persistence (CSV, JSON, and JSON-lines journals).

:func:`repro.core.parallel.run_sweep` returns flat dict records; these helpers
write them to disk so long sweeps can be analysed offline or resumed.
CSV is for spreadsheets (scalar fields only); JSON preserves types.  The
JSON-lines helpers back the parallel executor's checkpoint journal
(:mod:`repro.core.parallel`): one record per line, appended as each sweep
point completes, with truncated trailing lines tolerated on read so a
killed sweep can always resume.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import pathlib
import sys
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "json_default",
    "records_to_csv",
    "save_records",
    "append_jsonl",
    "JsonlAppender",
    "read_jsonl",
    "canonical_json",
    "record_digest",
]


def json_default(obj: Any) -> Any:
    """JSON fallback that keeps numpy values numeric (bit-exact floats).

    numpy integers and floats become ``int`` and ``float``, arrays nested
    lists, anything else ``str(obj)``.  The encoders behind cache keys,
    store lines and the service wire share it.  numpy is looked up, never
    imported: when nothing has loaded it, no value can be a numpy value.
    """
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
    return str(obj)


def canonical_json(obj: Any) -> str:
    """A canonical JSON rendering: sorted keys, tight separators, ``str`` fallback.

    Two structurally equal mappings serialize to the same bytes regardless
    of insertion order, which makes the output safe to hash — this is the
    serialization under the code salt, the sweep and explore journals'
    fingerprints and the record digests the cache tests compare.  Its
    fallback stays ``str`` rather than :func:`json_default`, so a journal
    fingerprint does not move for a config or axis holding numpy values.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def record_digest(record: Mapping[str, Any] | Sequence[Any]) -> str:
    """sha256 hex digest of a record (or record list) in canonical JSON."""
    return hashlib.sha256(canonical_json(record).encode("utf-8")).hexdigest()


def records_to_csv(records: Sequence[Mapping[str, Any]]) -> str:
    """Serialize records to CSV text (union of keys, insertion-ordered)."""
    if not records:
        return ""
    columns: list[str] = []
    for rec in records:
        for key in rec:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, restval="")
    writer.writeheader()
    for rec in records:
        writer.writerow({k: rec.get(k, "") for k in columns})
    return buf.getvalue()


def save_records(records: Sequence[Mapping[str, Any]], path) -> None:
    """Write records to ``path``; format chosen by suffix (.csv or .json)."""
    path = pathlib.Path(path)
    if path.suffix == ".csv":
        path.write_text(records_to_csv(records))
    elif path.suffix == ".json":
        path.write_text(json.dumps(list(records), indent=2, default=str))
    else:
        raise ValueError(f"unsupported suffix {path.suffix!r} (use .csv or .json)")


def append_jsonl(record: Mapping[str, Any] | Iterable[Mapping[str, Any]], path) -> None:
    """Append one record (or an iterable of records) to a JSON-lines file.

    Each record is written as a single line and flushed immediately, so a
    sweep killed mid-run loses at most the line being written — which
    :func:`read_jsonl` then skips.
    """
    records = [record] if isinstance(record, Mapping) else list(record)
    with open(path, "a", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(dict(rec), default=str) + "\n")
            fh.flush()


class JsonlAppender:
    """A held append handle on a JSON-lines file, for one line per point.

    The durability of :func:`append_jsonl` without its open and close per
    record: every :meth:`write` is one already-encoded line, flushed before
    it returns, so a process killed later loses at most the line being
    written.  The file is opened — and created — by the first write, not
    by the constructor, and in append mode, so a line lands at the current
    end of the file whoever else has written to it since.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._fh = None

    def write(self, line: str) -> int:
        """Append ``line`` plus a newline; returns the bytes written."""
        if self._fh is None:
            self._fh = open(self.path, "ab")
        data = line.encode("utf-8") + b"\n"
        self._fh.write(data)
        self._fh.flush()
        return len(data)

    def close(self) -> None:
        """Release the handle (idempotent); a later write reopens it."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    __del__ = close  # a dropped appender releases its handle; nothing is buffered


def read_jsonl(path) -> list[dict[str, Any]]:
    """Read a JSON-lines file, dropping blank and corrupt/truncated lines.

    A journal whose final line was cut short by a crash parses cleanly:
    every complete line is returned, the partial tail is ignored.  A
    missing file reads as no records, so resume-from-nothing is a no-op.
    """
    path = pathlib.Path(path)
    if not path.exists():
        return []
    records: list[dict[str, Any]] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(parsed, dict):
            records.append(parsed)
    return records
