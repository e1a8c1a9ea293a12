"""Cross-path tests for the sweep ledger (repro.core.parallel.SweepLedger).

Every sweep path is one ledger plus one transport, so the contract is a
table: whatever the transport (inline, process pool, sweep service) and
whatever the starting state (cold, warm cache, a journal cut mid-line),
the records, the journal entries and the health counters are the same.
"""

from __future__ import annotations

import json

import pytest

from repro import rng
from repro.analysis.io import append_jsonl, read_jsonl
from repro.config import NetworkConfig
from repro.core import parallel
from repro.core.parallel import SweepHealth, run_sweep
from repro.service import Controller, ControllerServer, ServiceOptions, run_remote_sweep

BASE = NetworkConfig(k=4, n=2)
AXES = {"router_delay": (1, 2, 4)}
EXTRA = {"rate": (0.1, 0.2)}  # 3 x 2 = 6 points, one of which fails


def parity_runner(cfg, rate):
    """Seed-dependent output; one deterministic failure (never cached)."""
    if cfg.router_delay == 4 and rate == 0.2:
        raise RuntimeError("this point always fails")
    gen = rng.make_generator(cfg.seed, "parity")
    return {"value": cfg.router_delay * 100 + rate, "draw": float(gen.random())}


def strip(record):
    return {k: v for k, v in record.items() if k != "wall_seconds"}


def journal_entries(path):
    def canon(obj):
        return json.dumps(obj, sort_keys=True)

    return sorted(
        (e["index"], canon(e["point"]), canon(strip(e["record"])))
        for e in read_jsonl(path)
        if "index" in e
    )


def counters(health):
    return (health.total, health.ok, health.failed, health.cache_hits, health.cache_misses)


def run(transport, *, journal, cache=None, resume=False):
    """One sweep through ``transport``; the service owns its cache."""
    if transport == "service":
        controller = Controller(ServiceOptions(fallback_after=0.05), cache=cache)
        with ControllerServer(controller) as server:
            host, port = server.address
            return run_remote_sweep(
                f"{host}:{port}", BASE, AXES, parity_runner, extra_axes=EXTRA,
                journal=journal, resume=resume, poll_interval=0.02,
            )
    return run_sweep(
        BASE, AXES, parity_runner, extra_axes=EXTRA, journal=journal, resume=resume,
        cache=cache, n_workers={"inline": 1, "pool": 2}[transport],
    )


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    journal = tmp_path_factory.mktemp("reference") / "ref.jsonl"
    records = run_sweep(BASE, AXES, parity_runner, extra_axes=EXTRA, journal=journal)
    assert counters(records.health) == (6, 5, 1, 0, 0)
    return [strip(r) for r in records], journal_entries(journal), journal.read_text()


@pytest.mark.parametrize("transport", ["inline", "pool", "service"])
@pytest.mark.parametrize("state", ["cold", "warm", "resume"])
def test_transport_state_parity(transport, state, reference, tmp_path):
    ref_records, ref_entries, ref_journal_text = reference
    journal = tmp_path / "sweep.jsonl"
    cache = None if state == "resume" else tmp_path / "cache"
    expected = {"cold": (6, 5, 1, 0, 6), "warm": (6, 5, 1, 5, 1), "resume": (6, 5, 1, 0, 0)}
    if state == "warm":
        run_sweep(BASE, AXES, parity_runner, extra_axes=EXTRA, cache=cache)
    if state == "resume":
        # header + 3 whole entries + half of the fourth: a mid-write crash
        lines = ref_journal_text.splitlines()
        journal.write_text("\n".join(lines[:4]) + "\n" + lines[4][: len(lines[4]) // 2])
    records = run(transport, journal=journal, cache=cache, resume=state == "resume")
    assert [strip(r) for r in records] == ref_records
    assert journal_entries(journal) == ref_entries
    assert counters(records.health) == expected[state]


def test_resume_rewrite_is_crash_safe(tmp_path, monkeypatch):
    """A kill during the resume rewrite must not lose checkpointed points."""
    journal = tmp_path / "sweep.jsonl"
    first = run_sweep(BASE, AXES, parity_runner, extra_axes=EXTRA, journal=journal)
    before = journal.read_text()

    def dying_append(records, path):
        for n, record in enumerate(records):
            if n == 3:
                raise OSError("killed mid-rewrite")
            append_jsonl(record, path)

    monkeypatch.setattr(parallel, "append_jsonl", dying_append)
    with pytest.raises(OSError, match="mid-rewrite"):
        run_sweep(BASE, AXES, parity_runner, extra_axes=EXTRA, journal=journal, resume=True)
    assert journal.read_text() == before
    monkeypatch.undo()

    def never(cfg, rate):
        raise AssertionError("every point is journaled; nothing may re-run")

    resumed = run_sweep(BASE, AXES, never, extra_axes=EXTRA, journal=journal, resume=True)
    assert list(resumed) == list(first)
    assert counters(resumed.health) == (6, 5, 1, 0, 0)


def test_health_merge_adds_counters_and_ors_flags():
    total = SweepHealth(total=2, ok=1, failed=1, retried=3, cache_hits=1)
    total.merge(SweepHealth(total=4, ok=4, stalled=2, cache_misses=4, interrupted=True))
    assert (total.total, total.ok, total.failed, total.retried, total.stalled) == (6, 5, 1, 3, 2)
    assert (total.cache_hits, total.cache_misses, total.interrupted) == (1, 4, True)
