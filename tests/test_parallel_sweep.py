"""Tests for the parallel sweep executor (repro.core.parallel).

Pool-mode runners must be module-level functions (picklable), which is why
the runners here live at module scope instead of inline lambdas.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import time

import pytest

from repro import rng
from repro.analysis.io import read_jsonl
from repro.config import NetworkConfig
from repro.core.parallel import (
    RetryPolicy,
    SweepHealth,
    SweepProgress,
    SweepRecords,
    enumerate_points,
    run_sweep,
)
from repro.core.resilience import SimulationStalled, StallDiagnosis

BASE = NetworkConfig(k=4, n=2)
GRID_AXES = {"router_delay": (1, 2, 4, 8)}
GRID_EXTRA = {"injection_rate": (0.05, 0.1, 0.15, 0.2)}  # 4 x 4 = 16 points


def strip_timing(records):
    return [{k: v for k, v in r.items() if k != "wall_seconds"} for r in records]


def seeded_runner(cfg, **kwargs):
    """Deterministic outputs that depend on the point's derived seed."""
    gen = rng.make_generator(cfg.seed, "point")
    rate = kwargs.get("injection_rate", 0.0)
    return {
        "value": cfg.router_delay * 100 + rate,
        "draw": float(gen.random()),
        "seed_seen": cfg.seed,
    }


def config_axes_runner(cfg):
    gen = rng.make_generator(cfg.seed, "point")
    return {"value": cfg.router_delay * cfg.vc_buffer_size, "draw": float(gen.random())}


def tracking_runner(cfg, outdir, **kwargs):
    """Drop a marker file per executed point (visible across processes)."""
    rate = kwargs.get("injection_rate", 0.0)
    marker = pathlib.Path(outdir) / f"tr{cfg.router_delay}-rate{rate}"
    marker.write_text("ran")
    return seeded_runner(cfg, **kwargs)


def faulty_runner(cfg, **kwargs):
    if cfg.router_delay == 4:
        raise ValueError("injected fault at tr=4")
    return seeded_runner(cfg, **kwargs)


def _stall(cycle=100):
    return SimulationStalled(
        StallDiagnosis(
            cycle=cycle, window=100, in_flight=3, delivered_packets=0,
            buffered_flits=3, queued_packets=0,
        )
    )


def logged_runner(cfg, logdir, **kwargs):
    """Append one line per execution attempt to a per-point log file."""
    log = pathlib.Path(logdir) / f"tr{cfg.router_delay}"
    with open(log, "a") as f:
        f.write("attempt\n")
    return seeded_runner(cfg, **kwargs)


def attempts(logdir, router_delay):
    log = pathlib.Path(logdir) / f"tr{router_delay}"
    return len(log.read_text().splitlines()) if log.exists() else 0


def die_once_runner(cfg, logdir, **kwargs):
    """Kill the worker process on a point's first attempt, succeed afterwards."""
    logged_runner(cfg, logdir, **kwargs)
    if attempts(logdir, cfg.router_delay) == 1:
        os._exit(13)
    return seeded_runner(cfg, **kwargs)


def always_dying_runner(cfg, logdir, **kwargs):
    logged_runner(cfg, logdir, **kwargs)
    os._exit(13)


def always_stalling_runner(cfg, logdir, **kwargs):
    logged_runner(cfg, logdir, **kwargs)
    raise _stall()


def logged_faulty_runner(cfg, logdir, **kwargs):
    logged_runner(cfg, logdir, **kwargs)
    raise ValueError("deterministic failure")


def hang_and_die_runner(cfg, logdir, **kwargs):
    """tr=4/tr=16 hang forever; tr=8 kills its worker on the first attempt."""
    logged_runner(cfg, logdir, **kwargs)
    if cfg.router_delay in (4, 16):
        time.sleep(120)
    if cfg.router_delay == 8 and attempts(logdir, 8) == 1:
        os._exit(13)
    return seeded_runner(cfg, **kwargs)


def interrupting_runner(cfg, **kwargs):
    raise KeyboardInterrupt


class TestEnumeratePoints:
    def test_canonical_order_and_count(self):
        points = enumerate_points(BASE, GRID_AXES, GRID_EXTRA)
        assert len(points) == 16
        assert [p.index for p in points] == list(range(16))
        # outer product over config axes, inner over extra axes
        assert points[0].coords == {"router_delay": 1, "injection_rate": 0.05}
        assert points[1].coords == {"router_delay": 1, "injection_rate": 0.1}
        assert points[4].coords == {"router_delay": 2, "injection_rate": 0.05}

    def test_seeds_distinct_and_coordinate_determined(self):
        points = enumerate_points(BASE, GRID_AXES, GRID_EXTRA)
        seeds = [p.seed for p in points]
        assert len(set(seeds)) == len(seeds)
        again = enumerate_points(BASE, GRID_AXES, GRID_EXTRA)
        assert seeds == [p.seed for p in again]
        assert BASE.seed not in seeds
        # Without derivation every point keeps the base seed.
        underived = enumerate_points(BASE, GRID_AXES, GRID_EXTRA, derive_seeds=False)
        assert {p.seed for p in underived} == {BASE.seed}

    def test_explicit_seed_axis_wins(self):
        points = enumerate_points(BASE, {"seed": (7, 9)})
        assert [p.seed for p in points] == [7, 9]

    def test_no_axes_is_single_point(self):
        points = enumerate_points(BASE, {})
        assert len(points) == 1 and points[0].coords == {}

    def test_overlapping_axes_rejected(self):
        with pytest.raises(ValueError):
            enumerate_points(BASE, {"m": (1,)}, {"m": (2,)})


class TestSerialParallelEquivalence:
    def test_grid_with_extra_axes(self):
        serial = run_sweep(
            BASE, GRID_AXES, seeded_runner, extra_axes=GRID_EXTRA, n_workers=1
        )
        parallel = run_sweep(
            BASE, GRID_AXES, seeded_runner, extra_axes=GRID_EXTRA, n_workers=4
        )
        assert len(serial) == 16
        assert strip_timing(serial) == strip_timing(parallel)

    def test_grid_config_axes_only(self):
        axes = {"router_delay": (1, 2, 4, 8), "vc_buffer_size": (2, 4, 8, 16)}
        serial = run_sweep(BASE, axes, config_axes_runner, n_workers=1)
        parallel = run_sweep(BASE, axes, config_axes_runner, n_workers=4)
        assert len(serial) == 16
        assert strip_timing(serial) == strip_timing(parallel)


class TestCheckpointResume:
    def test_resume_after_truncation_runs_only_missing_points(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        full = run_sweep(
            BASE, GRID_AXES, seeded_runner, extra_axes=GRID_EXTRA, journal=journal
        )
        lines = journal.read_text().splitlines()
        assert len(lines) == 17  # fingerprint header + 16 records
        assert "fingerprint" in lines[0]
        # simulate a kill: header + 5 complete records survive plus half a sixth
        journal.write_text("\n".join(lines[:6]) + "\n" + lines[6][: len(lines[6]) // 2])

        ran_dir = tmp_path / "ran"
        ran_dir.mkdir()
        import functools

        resumed = run_sweep(
            BASE,
            GRID_AXES,
            functools.partial(tracking_runner, outdir=str(ran_dir)),
            extra_axes=GRID_EXTRA,
            journal=journal,
            resume=True,
            n_workers=2,
        )
        assert strip_timing(resumed) == strip_timing(full)
        # only the 11 missing points were executed
        assert len(list(ran_dir.iterdir())) == 11
        # and the journal is whole again (header + 16 records)
        assert sum(1 for e in read_jsonl(journal) if "index" in e) == 16

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(BASE, {"router_delay": (1, 2)}, seeded_runner, journal=journal)
        run_sweep(BASE, {"router_delay": (1, 2)}, seeded_runner, journal=journal)
        entries = read_jsonl(journal)
        assert sum(1 for e in entries if "index" in e) == 2  # not appended twice
        assert sum(1 for e in entries if "sweep" in e) == 1  # one header

    def test_resume_with_changed_axes_refused(self, tmp_path):
        # The fingerprint header catches the change before any record mixing.
        journal = tmp_path / "sweep.jsonl"
        run_sweep(BASE, {"router_delay": (1, 2)}, seeded_runner, journal=journal)
        with pytest.raises(ValueError, match="different sweep"):
            run_sweep(
                BASE,
                {"router_delay": (4, 8)},
                seeded_runner,
                journal=journal,
                resume=True,
            )

    def test_resume_pre_header_journal_checks_coordinates(self, tmp_path):
        # Journals from before fingerprints existed have no header; the
        # per-entry coordinate check still refuses cross-sweep mixing.
        journal = tmp_path / "sweep.jsonl"
        run_sweep(BASE, {"router_delay": (1, 2)}, seeded_runner, journal=journal)
        entries = [e for e in read_jsonl(journal) if "index" in e]
        journal.write_text("\n".join(json.dumps(e) for e in entries) + "\n")
        with pytest.raises(ValueError, match="refusing to resume"):
            run_sweep(
                BASE,
                {"router_delay": (4, 8)},
                seeded_runner,
                journal=journal,
                resume=True,
            )

    def test_force_resume_overrides_fingerprint_mismatch(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(BASE, {"router_delay": (1, 2)}, seeded_runner, journal=journal)
        # Same axes, different base seed => different fingerprint, but the
        # point *coordinates* are identical, so only the header catches it.
        with pytest.raises(ValueError, match="different sweep"):
            run_sweep(
                BASE.with_(seed=99), {"router_delay": (1, 2)}, seeded_runner,
                journal=journal, resume=True,
            )
        forced = run_sweep(
            BASE.with_(seed=99), {"router_delay": (1, 2)}, seeded_runner,
            journal=journal, resume=True, resume_force=True,
        )
        # Forced resume replays the journaled records untouched.
        assert [r["seed_seen"] for r in forced] == [
            e["record"]["seed_seen"] for e in read_jsonl(journal) if "index" in e
        ]

    def test_resume_with_wrapped_runner_allowed(self, tmp_path):
        # The fingerprint deliberately excludes the runner: resuming with an
        # instrumented wrapper over the same sweep is a supported workflow
        # (exercised for real by test_resume_after_truncation above).
        from repro.core.parallel import sweep_fingerprint

        fp = sweep_fingerprint(BASE, GRID_AXES, GRID_EXTRA)
        assert fp == sweep_fingerprint(BASE, GRID_AXES, GRID_EXTRA)
        assert fp != sweep_fingerprint(BASE.with_(seed=2), GRID_AXES, GRID_EXTRA)
        assert fp != sweep_fingerprint(BASE, {"router_delay": (1,)}, GRID_EXTRA)

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError):
            run_sweep(BASE, {"router_delay": (1,)}, seeded_runner, resume=True)


class TestFaultInjection:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_one_bad_point_fails_alone(self, n_workers):
        records = run_sweep(
            BASE, {"router_delay": (1, 2, 4, 8)}, faulty_runner, n_workers=n_workers
        )
        failed = [r for r in records if r.get("failed")]
        assert len(failed) == 1
        assert failed[0]["router_delay"] == 4
        assert "ValueError: injected fault at tr=4" in failed[0]["error"]
        ok = [r for r in records if not r.get("failed")]
        assert len(ok) == 3 and all("draw" in r for r in ok)

    def test_failed_records_match_serial_vs_parallel(self):
        serial = run_sweep(BASE, {"router_delay": (1, 2, 4, 8)}, faulty_runner)
        parallel = run_sweep(
            BASE, {"router_delay": (1, 2, 4, 8)}, faulty_runner, n_workers=3
        )
        assert strip_timing(serial) == strip_timing(parallel)


class TestProgress:
    def test_progress_counts_and_eta(self):
        events: list[SweepProgress] = []
        run_sweep(
            BASE,
            GRID_AXES,
            seeded_runner,
            extra_axes={"injection_rate": (0.05,)},
            progress=events.append,
        )
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert all(e.total == 4 for e in events)
        assert events[-1].remaining == 0
        assert events[-1].eta == 0.0
        assert events[-1].rate > 0

    def test_progress_counts_resumed_points(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(BASE, {"router_delay": (1, 2, 4)}, seeded_runner, journal=journal)
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:3]) + "\n")  # header + 2 records
        events: list[SweepProgress] = []
        run_sweep(
            BASE,
            {"router_delay": (1, 2, 4)},
            seeded_runner,
            journal=journal,
            resume=True,
            progress=events.append,
        )
        # one point left to run; done already includes the 2 journaled ones
        assert [e.done for e in events] == [3]


class TestArgumentValidation:
    def test_validation(self):
        with pytest.raises(ValueError):
            run_sweep(BASE, {}, seeded_runner, n_workers=0)

    def test_max_retries_validated(self):
        with pytest.raises(ValueError):
            run_sweep(BASE, {}, seeded_runner, max_retries=-1)


class TestHealthSummary:
    def test_all_ok(self):
        records = run_sweep(BASE, {"router_delay": (1, 2)}, seeded_runner)
        assert isinstance(records, SweepRecords)
        h = records.health
        assert (h.total, h.ok, h.failed) == (2, 2, 0)
        assert h.summary() == "2/2 ok"

    def test_counts_deterministic_failures(self):
        records = run_sweep(BASE, {"router_delay": (1, 2, 4, 8)}, faulty_runner)
        h = records.health
        assert (h.ok, h.failed, h.retried) == (3, 1, 0)
        assert "3/4 ok" in h.summary() and "1 failed" in h.summary()

    def test_resumed_points_counted(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(BASE, {"router_delay": (1, 2, 4)}, seeded_runner, journal=journal)
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:2]) + "\n")
        resumed = run_sweep(
            BASE, {"router_delay": (1, 2, 4)}, seeded_runner,
            journal=journal, resume=True,
        )
        assert (resumed.health.ok, resumed.health.total) == (3, 3)


class TestTransientRetry:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff=0.25)
        assert policy.delay(1) >= 0.25
        for attempt in range(1, 12):
            assert 0 < policy.delay(attempt) <= policy.max_backoff * 1.25

    def test_seeded_policy_jitter_deterministic(self):
        a = RetryPolicy.seeded(7, backoff=0.25)
        b = RetryPolicy.seeded(7, backoff=0.25)
        assert [a.delay(i) for i in range(1, 6)] == [b.delay(i) for i in range(1, 6)]
        c = RetryPolicy.seeded(8, backoff=0.25)
        assert [a.delay(i) for i in range(1, 6)] != [c.delay(i) for i in range(1, 6)]
        # default (unseeded) policies draw from global random: still bounded
        d = RetryPolicy(backoff=0.25)
        assert 0.25 <= d.delay(1) <= 0.25 * 1.25
        assert not RetryPolicy(max_retries=2).should_retry("error", 0)
        assert not RetryPolicy(max_retries=2).should_retry("stalled", 0)
        assert RetryPolicy(max_retries=2).should_retry("worker_death", 1)
        assert not RetryPolicy(max_retries=2).should_retry("worker_death", 2)

    # Only a pool worker can die, so every retry case runs on two workers.
    @pytest.mark.parametrize("n_workers", [2])
    def test_retry_timeline_is_deterministic_by_default(self, tmp_path, n_workers, monkeypatch):
        # The backoff jitter derives from the sweep's seed, never from the
        # process-global ``random``: two runs sleep exactly the same delays.
        real_delay = RetryPolicy.delay
        timelines: list[list[float]] = []

        def recording_delay(policy, attempt):
            timelines[-1].append(real_delay(policy, attempt))
            return timelines[-1][-1]

        monkeypatch.setattr(RetryPolicy, "delay", recording_delay)
        runs = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            runner = functools.partial(die_once_runner, logdir=str(tmp_path / name))
            timelines.append([])
            runs.append(run_sweep(
                BASE, {"router_delay": (1,)}, runner,
                n_workers=n_workers, max_retries=2, retry_backoff=0.01,
            ))
        assert strip_timing(runs[0]) == strip_timing(runs[1])
        assert runs[0].health.retried == runs[1].health.retried == 1
        assert timelines[0] == timelines[1] and len(timelines[0]) == 1

    def test_worker_death_retried_then_succeeds(self, tmp_path):
        # One point, so no sibling is in flight to share the death's charge.
        runner = functools.partial(die_once_runner, logdir=str(tmp_path))
        records = run_sweep(
            BASE, {"router_delay": (1,)}, runner,
            n_workers=2, max_retries=2, retry_backoff=0.01,
        )
        assert "draw" in records[0]
        h = records.health
        assert (h.ok, h.failed, h.retried, h.worker_deaths) == (1, 0, 1, 1)
        assert attempts(tmp_path, 1) == 2

    @pytest.mark.parametrize("n_workers", [2])
    def test_retry_cap_respected(self, tmp_path, n_workers):
        runner = functools.partial(always_dying_runner, logdir=str(tmp_path))
        records = run_sweep(
            BASE, {"router_delay": (1,)}, runner,
            n_workers=n_workers, max_retries=2, retry_backoff=0.01,
        )
        assert attempts(tmp_path, 1) == 3  # initial + 2 retries, no more
        rec = records[0]
        assert rec["failed"] and rec["error_kind"] == "worker_death"
        h = records.health
        assert (h.ok, h.failed, h.retried, h.worker_deaths) == (0, 1, 2, 3)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_stalled_point_runs_once(self, tmp_path, n_workers):
        # The watchdog counts cycles: a stall is a function of config and
        # seed, so a re-run would stall at the same cycle.
        runner = functools.partial(always_stalling_runner, logdir=str(tmp_path))
        records = run_sweep(
            BASE, {"router_delay": (1,)}, runner, n_workers=n_workers, retry_backoff=0.01
        )
        assert attempts(tmp_path, 1) == 1
        rec = records[0]
        assert rec["failed"] and rec["error_kind"] == "stalled"
        assert "SimulationStalled" in rec["error"]
        h = records.health
        assert (h.ok, h.failed, h.retried, h.stalled) == (0, 1, 0, 1)

    def test_deterministic_errors_not_retried(self, tmp_path):
        runner = functools.partial(logged_faulty_runner, logdir=str(tmp_path))
        records = run_sweep(
            BASE, {"router_delay": (1,)}, runner, max_retries=3, retry_backoff=0.01
        )
        assert attempts(tmp_path, 1) == 1
        assert records.health.retried == 0
        assert records[0]["error_kind"] == "error"


class TestSelfHealingPool:
    def test_hung_point_and_dead_worker_do_not_kill_the_sweep(self, tmp_path):
        """Acceptance: one hard hang + one worker death, sweep completes.

        The dying point (tr=8, first in the queue) kills its worker once and
        succeeds when retried; the hung point (tr=4, last) is killed by the
        point timeout.  The other points ride along unharmed.
        """
        runner = functools.partial(hang_and_die_runner, logdir=str(tmp_path))
        records = run_sweep(
            BASE, {"router_delay": (8, 1, 2, 4)}, runner,
            n_workers=2, point_timeout=1.5, max_retries=1, retry_backoff=0.05,
        )
        by_tr = {r["router_delay"]: r for r in records}
        assert "draw" in by_tr[1] and "draw" in by_tr[2]
        assert "draw" in by_tr[8]  # recovered on retry after its worker died
        assert attempts(tmp_path, 8) == 2  # initial + exactly one retry
        hung = by_tr[4]
        assert hung["failed"] and hung["error_kind"] == "timeout"
        assert "worker killed" in hung["error"]
        # 1 direct execution, +1 only if the hang was in flight during the
        # worker death and got swept into that retry; never more (the
        # timeout itself is not retried)
        assert attempts(tmp_path, 4) in (1, 2)
        h = records.health
        assert h.ok == 3 and h.failed == 1
        assert h.timed_out == 1 and h.worker_deaths >= 1 and h.retried >= 1
        s = h.summary()
        assert "3/4 ok" in s and "timed out" in s and "retries" in s

    def test_timeout_frees_the_pool_slots(self, tmp_path):
        """Timed-out points must not occupy workers for the sweep's rest.

        Both workers hang on the first two points; the remaining points can
        only complete if the hung workers were actually killed and replaced.
        """
        runner = functools.partial(hang_and_die_runner, logdir=str(tmp_path))
        records = run_sweep(
            BASE, {"router_delay": (4, 16, 1, 2)}, runner,
            n_workers=2, point_timeout=1.0, max_retries=0,
        )
        by_tr = {r["router_delay"]: r for r in records}
        assert by_tr[4]["error_kind"] == "timeout"
        assert by_tr[16]["error_kind"] == "timeout"
        assert "draw" in by_tr[1] and "draw" in by_tr[2]
        assert records.health.summary().startswith("2/4 ok")
        # each hung point executed exactly once: timeouts are not retried
        assert attempts(tmp_path, 4) == 1 and attempts(tmp_path, 16) == 1

    def test_point_timeout_requires_pool(self):
        with pytest.raises(ValueError, match="point_timeout"):
            run_sweep(
                BASE, {"router_delay": (1,)}, seeded_runner,
                n_workers=1, point_timeout=1.0,
            )


class TestKeyboardInterrupt:
    def test_health_flushed_to_journal(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                BASE, {"router_delay": (1, 2)}, interrupting_runner, journal=journal
            )
        lines = journal.read_text().splitlines()
        tail = json.loads(lines[-1])
        assert tail["health"]["interrupted"] is True

    def test_health_line_ignored_on_resume(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        run_sweep(BASE, {"router_delay": (1, 2)}, seeded_runner, journal=journal)
        with open(journal, "a") as f:
            f.write(json.dumps({"health": {"interrupted": True}}) + "\n")
        resumed = run_sweep(
            BASE, {"router_delay": (1, 2)}, seeded_runner,
            journal=journal, resume=True,
        )
        assert len(resumed) == 2 and resumed.health.ok == 2
