"""Cross-path tests for the sweep ledger (repro.core.parallel.SweepLedger).

Every sweep path is one ledger plus one transport, so the contract is a
table: whatever the transport (inline, process pool, sweep service) and
whatever the starting state (cold, warm cache, a journal cut mid-line),
the records, the journal entries and the health counters are the same.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict

import pytest

from repro import rng
from repro.analysis.io import append_jsonl, read_jsonl
from repro.config import NetworkConfig
from repro.core import parallel
from repro.core.cache import ResultCache
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


# -- one encode per value, one handle per file --------------------------------

GRID_AXES = {"router_delay": (1, 2, 3, 4, 5), "num_vcs": (2, 4)}
GRID_EXTRA = {"rate": tuple(round(0.01 * (i + 1), 2) for i in range(20))}  # 10 x 20 points


def cheap_runner(cfg, rate):
    return {"value": cfg.router_delay * cfg.num_vcs + rate}


def test_cold_sweep_bookkeeping_is_counted_not_timed(tmp_path, monkeypatch):
    """200 cold points with cache and journal: each file is opened a fixed
    number of times, the store is never ``stat``-ed per put, and a config is
    validated once per distinct override combination by the cache prefill
    and once per combination by execution — never per point.  Counts, so the
    guard cannot flake on a slow box."""
    journal, cache_dir = tmp_path / "sweep.jsonl", tmp_path / "cache"
    opens: dict[str, int] = {}
    stats: dict[str, int] = {}
    validations = [0]
    real_open, real_stat = open, pathlib.Path.stat
    real_post_init = NetworkConfig.__post_init__

    def counting_open(file, *args, **kwargs):
        opens[pathlib.Path(file).name] = opens.get(pathlib.Path(file).name, 0) + 1
        return real_open(file, *args, **kwargs)

    def counting_stat(self, **kwargs):
        stats[self.name] = stats.get(self.name, 0) + 1
        return real_stat(self, **kwargs)

    def counting_post_init(self):
        validations[0] += 1
        real_post_init(self)

    monkeypatch.setattr("builtins.open", counting_open)
    monkeypatch.setattr(pathlib.Path, "stat", counting_stat)
    monkeypatch.setattr(NetworkConfig, "__post_init__", counting_post_init)
    records = run_sweep(
        BASE, GRID_AXES, cheap_runner, extra_axes=GRID_EXTRA, journal=journal, cache=cache_dir
    )
    monkeypatch.undo()

    assert counters(records.health) == (200, 200, 0, 0, 200)
    assert len(read_jsonl(journal)) == 201 and len(read_jsonl(cache_dir / "store.jsonl")) == 200
    assert opens["sweep.jsonl"] == 1 and opens["store.jsonl"] == 1
    assert stats.get("store.jsonl", 0) <= 4  # opening the cache looks; no put does
    assert validations[0] == 10 + 10


def test_dropped_ledger_leaves_a_resumable_journal(tmp_path):
    """Every emitted line is on disk before the next point runs: a ledger
    abandoned mid-sweep, its handle never closed, has journaled exactly what
    it emitted, and a resume runs only the rest."""
    journal = tmp_path / "sweep.jsonl"
    whole = run_sweep(BASE, AXES, parity_runner, extra_axes=EXTRA)
    ledger = parallel.SweepLedger(
        parallel.enumerate_points(BASE, AXES, EXTRA),
        journal=journal,
        fingerprint=parallel.sweep_fingerprint(BASE, AXES, EXTRA),
    )
    ledger.open()
    for point in ledger.pending[:4]:
        ledger.emit(point.index, parallel._execute_point(parity_runner, BASE, point))
        entries = read_jsonl(journal)  # read while the handle is still open
        assert "sweep" in entries[0]
        assert [e["index"] for e in entries[1:]] == ledger.completion_order
    del ledger

    ran = []

    def recording(cfg, rate):
        ran.append((cfg.router_delay, rate))
        return parity_runner(cfg, rate)

    resumed = run_sweep(BASE, AXES, recording, extra_axes=EXTRA, journal=journal, resume=True)
    assert ran == [(4, 0.1), (4, 0.2)]
    assert [strip(r) for r in resumed] == [strip(r) for r in whole]
    assert len(read_jsonl(journal)) == 1 + len(whole)


def test_an_exception_out_of_run_ledger_closes_the_journal(tmp_path):
    journal = tmp_path / "sweep.jsonl"

    def observer(progress):
        if progress.done == 2:
            raise RuntimeError("observer died")

    ledger = parallel.SweepLedger(
        parallel.enumerate_points(BASE, AXES, EXTRA), journal=journal, progress=observer
    )
    with pytest.raises(RuntimeError, match="observer died"):
        parallel.run_ledger(ledger, BASE, parity_runner)
    assert ledger._journal._fh is None
    assert [e.get("index") for e in read_jsonl(journal)] == [None, 0, 1]


class SpyCache(ResultCache):
    """A result store that notes which configurations it is asked about."""

    def __init__(self, path):
        super().__init__(path)
        self.lookups, self.wrote = 0, []

    def get(self, key):
        self.lookups += 1
        return super().get(key)

    def put(self, key, record, meta=None):
        self.wrote.append((meta["config"]["num_vcs"], meta["kwargs"]["rate"]))
        super().put(key, record, meta)


def test_invalid_combination_is_never_looked_up_or_written_back(tmp_path):
    """A torus needs two VCs: ``num_vcs=1`` resolves to no config, so its
    points have no key — no lookup, no write-back, and executing them yields
    the deterministic failed record, cold and warm alike."""
    base = NetworkConfig(k=4, n=2, topology="torus")
    axes, extra = {"num_vcs": (1, 2)}, {"rate": (0.1, 0.2)}
    for expected_hits in (0, 2):
        store = SpyCache(tmp_path / "cache")
        records = run_sweep(base, axes, cheap_runner, extra_axes=extra, cache=store)
        assert store.lookups == 2
        assert records.health.cache_hits == expected_hits
        assert records.health.cache_misses == 2 - expected_hits
        assert store.wrote == ([] if expected_hits else [(2, 0.1), (2, 0.2)])
        assert [strip(r) for r in records[:2]] == [
            {
                "num_vcs": 1,
                "rate": rate,
                "failed": True,
                "error": "ValueError: torus/ring DOR needs >= 2 VCs for the dateline scheme",
                "error_kind": "error",
            }
            for rate in (0.1, 0.2)
        ]
        assert not any(r.get("failed") for r in records[2:])
    totals = ResultCache(tmp_path / "cache").cumulative_stats()
    assert (totals["hits"], totals["misses"], totals["writes"]) == (2, 2, 2)


def test_execution_resolves_a_combination_once_and_fails_per_point(monkeypatch):
    """``_execute_point`` validates a run of equal overrides once (the same
    mapping or an equal copy, as a pool or service worker sees them) and lays
    each seed on; a bad seed fails its own point with ``with_``'s message,
    and another base or combination is never answered from the last one."""
    validations = [0]
    real_post_init = NetworkConfig.__post_init__

    def counting_post_init(self):
        validations[0] += 1
        real_post_init(self)

    monkeypatch.setattr(NetworkConfig, "__post_init__", counting_post_init)

    def seen(cfg, rate):
        return {"cfg": (cfg.k, cfg.router_delay, cfg.num_vcs, cfg.seed)}

    shared = {"router_delay": 3}
    torus = NetworkConfig(k=4, n=2, topology="torus")
    plan = [  # (base, overrides, seed) -> expected cfg tuple, or an error
        (BASE, shared, 5, (4, 3, 2, 5)),
        (BASE, shared, "bad", "ValueError: seed must be an integer, got 'bad'"),
        (BASE, dict(shared), 6, (4, 3, 2, 6)),
        (BASE.with_(k=8), shared, 6, (8, 3, 2, 6)),
        (NetworkConfig(k=8, n=2), dict(shared), 7, (8, 3, 2, 7)),
        (torus, {"num_vcs": 1}, 1, "ValueError: torus/ring DOR needs >= 2 VCs for the dateline scheme"),
        (torus, {"num_vcs": 1}, 2, "ValueError: torus/ring DOR needs >= 2 VCs for the dateline scheme"),
        (torus, {"num_vcs": 2}, 2, (4, 1, 2, 2)),
    ]
    for index, (base, overrides, seed, expected) in enumerate(plan):
        validations[0] = 0
        point = parallel.SweepPoint(index, overrides, {"rate": 0.1}, seed)
        record = strip(parallel._execute_point(seen, base, point))
        if isinstance(expected, str):
            assert record == {**overrides, "rate": 0.1, "failed": True, "error": expected,
                              "error_kind": "error"}
        else:
            assert record == {**overrides, "rate": 0.1, "cfg": expected}
        # first of a run: one validation; the rest of the run: none
        assert validations[0] == (0 if index in (1, 2, 4) else 1), index


def test_config_dict_is_asdict():
    """The ledger's field walk is ``dataclasses.asdict`` on every config shape."""
    for cfg in (
        BASE,
        NetworkConfig(topology="torus", k=4, seed=2**63 + 5),
        NetworkConfig(classes="hi:priority=1:weight=4+lo:share=0.5:pattern=transpose"),
        NetworkConfig(classes=3, arbitration="weighted", packet_size="bimodal"),
    ):
        flat = parallel._config_dict(cfg)
        assert flat == asdict(cfg) and list(flat) == list(asdict(cfg))
        assert type(flat["classes"]) is tuple and NetworkConfig(**flat) == cfg


def test_journal_and_store_line_formats_are_pinned(tmp_path, monkeypatch):
    """One journal line and one store line, byte for byte as every earlier
    journal and store spelled them (tuples as lists, insertion order,
    ``", "`` / ``": "`` separators, key then record last)."""
    monkeypatch.setenv("REPRO_CACHE_SALT", "pinned-salt")
    base = NetworkConfig(k=4, n=2, seed=11)
    points = parallel.enumerate_points(
        base,
        {"router_delay": (2,), "classes": ("hi:priority=1+lo",)},
        {"rate": (0.25,), "window": ((10, 20),)},
    )
    ledger = parallel.SweepLedger(points, journal=tmp_path / "j.jsonl")
    ledger.open()
    store = ResultCache(tmp_path / "c")
    spec = {"partial_of": {"runner": "m:f", "code_crc": 7}, "args": [], "kwargs": {"warmup": 5}}
    ledger.prefill(store, base, spec, "sweep")
    coords = '"router_delay": 2, "classes": "hi:priority=1+lo", "rate": 0.25, "window": [10, 20]'
    record = '{%s, "latency": 12.5, "hist": [1, 2], "wall_seconds": 0.001}' % coords
    ledger.emit(0, {**points[0].coords, "latency": 12.5, "hist": (1, 2), "wall_seconds": 0.001})
    ledger.records()
    assert (tmp_path / "j.jsonl").read_text().splitlines()[1] == (
        '{"index": 0, "point": {%s}, "record": %s}' % (coords, record)
    )
    assert store.store_path.read_text() == (
        '{"context": "sweep", "runner_spec": {"runner": "m:f"}, "runner_kwargs": {"warmup": 5}, '
        '"config": {"topology": "mesh", "k": 4, "n": 2, "num_vcs": 2, "vc_buffer_size": 4, '
        '"router_delay": 2, "routing": "dor", "arbitration": "round_robin", "link_delay": 1, '
        '"packet_size": "single", "bimodal_long_fraction": 0.5, "bimodal_long_size": 4, '
        '"traffic": "uniform_random", "credit_delay": 1, "backend": "object", '
        '"dateline": "balanced", "classes": ['
        '{"name": "hi", "priority": 1, "weight": 1, "share": 1.0, "pattern": null}, '
        '{"name": "lo", "priority": 0, "weight": 1, "share": 1.0, "pattern": null}], '
        '"seed": 11003407096160671076}, '
        '"kwargs": {"rate": 0.25, "window": [10, 20]}, '
        '"coords": ["classes", "rate", "router_delay", "window"], '
        '"key": "1174de68d7614e21d4c4ffe688926ff2ed672ff4df198c6e9c381e7f6b80c9da", '
        '"record": %s}\n' % record
    )
    assert store.stats.bytes_written == 949 == store.total_bytes
