"""Chaos harness: random worker kills and stalls, verified bit-for-bit.

The self-healing claim is not "the sweep finishes" but "the sweep finishes
with *exactly* the records a quiet serial run would have produced" — the
derived-seed contract makes every re-execution deterministic, so chaos
must be invisible in the data and visible only in the health summary.
These tests inject failures chosen by a seeded RNG into both execution
paths:

* **process pool** (:func:`repro.core.parallel.run_sweep`): runners that
  SIGKILL their own worker process, or raise ``SimulationStalled``, on the
  first attempt of randomly selected victim points;
* **service** (:mod:`repro.service`): workers that drop their connection
  mid-lease (a machine dying) or report a stalled record (a run aborted
  by the watchdog) on victim points, while a healthy sibling keeps
  pulling work.

Every test asserts the final records equal the serial baseline modulo
``wall_seconds``, and that the health summary attributes what happened.
"""

from __future__ import annotations

import functools
import os
import pathlib
import random
import signal
import threading

import pytest

from repro.config import NetworkConfig
from repro.core.parallel import SweepPoint, _failed_record, run_sweep
from repro.core.resilience import SimulationStalled, StallDiagnosis
from repro.service import Controller, ControllerServer, ServiceOptions, Worker, run_remote_sweep

BASE = NetworkConfig(k=4, n=2)
AXES = {"router_delay": (1, 2, 3, 4)}
EXTRA = {"load": (0.1, 0.2)}  # 4 x 2 = 8 points

#: One seed drives every victim choice below; reseeding reshuffles the
#: chaos but never the asserted records.
CHAOS_SEED = 0xC0FFEE


def strip_timing(records):
    return [{k: v for k, v in r.items() if k != "wall_seconds"} for r in records]


def payload_runner(cfg, load=0.0):
    """Deterministic, seed-sensitive outputs; the chaos baseline."""
    return {
        "value": cfg.router_delay * 100 + load,
        "seed_seen": cfg.seed,
    }


def _marker(logdir, cfg, load):
    return pathlib.Path(logdir) / f"tr{cfg.router_delay}-load{load}"


def kill_once_runner(cfg, load=0.0, *, logdir, victims):
    """SIGKILL this worker process on the first attempt of victim points."""
    if cfg.router_delay in victims:
        marker = _marker(logdir, cfg, load)
        if not marker.exists():
            marker.write_text("killed")
            os.kill(os.getpid(), signal.SIGKILL)
    return payload_runner(cfg, load)


def stall_once_runner(cfg, load=0.0, *, logdir, victims):
    """Raise SimulationStalled on the first attempt of victim points."""
    if cfg.router_delay in victims:
        marker = _marker(logdir, cfg, load)
        if not marker.exists():
            marker.write_text("stalled")
            raise SimulationStalled(
                StallDiagnosis(
                    cycle=100, window=100, in_flight=1, delivered_packets=0,
                    buffered_flits=1, queued_packets=0,
                )
            )
    return payload_runner(cfg, load)


def serial_baseline():
    return run_sweep(BASE, AXES, payload_runner, extra_axes=EXTRA)


def pick_victims(count: int, salt: int = 0) -> tuple:
    gen = random.Random(CHAOS_SEED + salt)
    return tuple(gen.sample(list(AXES["router_delay"]), count))


# ---------------------------------------------------------------------------
# process-pool path
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestPoolChaos:
    def test_killed_workers_bit_identical_to_serial(self, tmp_path):
        victims = pick_victims(2, salt=1)
        runner = functools.partial(
            kill_once_runner, logdir=str(tmp_path), victims=victims
        )
        records = run_sweep(
            BASE, AXES, runner, extra_axes=EXTRA, n_workers=2
        )
        assert strip_timing(records) == strip_timing(serial_baseline())
        assert records.health.worker_deaths >= 1
        assert records.health.retried >= len(victims) * len(EXTRA["load"])
        assert records.health.failed == 0

    def test_stalled_points_bit_identical_to_serial(self, tmp_path):
        victims = pick_victims(2, salt=2)
        runner = functools.partial(
            stall_once_runner, logdir=str(tmp_path), victims=victims
        )
        records = run_sweep(
            BASE, AXES, runner, extra_axes=EXTRA, n_workers=2
        )
        assert strip_timing(records) == strip_timing(serial_baseline())
        assert records.health.retried == len(victims) * len(EXTRA["load"])
        assert records.health.failed == 0


# ---------------------------------------------------------------------------
# service path
# ---------------------------------------------------------------------------


class ChaosWorker(Worker):
    """A worker that fails leases for victim points, once per point.

    ``mode="kill"`` drops the connection mid-lease without reporting —
    the transport-level signature of a dead machine; the controller must
    re-queue via its disconnect handling.  ``mode="stall"`` reports a
    ``stalled`` failed record — the watchdog-abort signature; the
    controller must re-queue via the transient-retry policy.  ``chaosed``
    is shared across workers so each victim point fails exactly once
    globally and the retry must succeed.
    """

    def __init__(self, *args, victims=(), chaosed=None, mode="kill", **kwargs):
        super().__init__(*args, **kwargs)
        self.victims = set(victims)
        self.chaosed = chaosed if chaosed is not None else set()
        self.chaos_lock = threading.Lock()
        self.mode = mode

    def _execute_with_heartbeats(self, stream, lease, interval):
        index = lease["index"]
        with self.chaos_lock:
            strike = index in self.victims and index not in self.chaosed
            if strike:
                self.chaosed.add(index)
        if strike:
            if self.mode == "kill":
                stream.close()
                raise ConnectionError("chaos: worker killed mid-lease")
            point = SweepPoint(
                index, dict(lease["overrides"]), dict(lease["kwargs"]), lease["seed"]
            )
            return _failed_record(
                point, "SimulationStalled: chaos-injected stall", kind="stalled"
            )
        return super()._execute_with_heartbeats(stream, lease, interval)


def run_service_chaos(mode: str, victims):
    """One chaotic 2-worker sweep; returns its records."""
    opts = ServiceOptions(
        lease_seconds=30.0, heartbeat_timeout=10.0, fallback_after=None
    )
    stop = threading.Event()
    chaosed: set = set()
    with ControllerServer(Controller(opts)) as server:
        host, port = server.address
        workers = [
            ChaosWorker(
                host, port, name=f"chaos{i}", victims=victims, chaosed=chaosed,
                mode=mode, reconnect_backoff=0.1,
            )
            for i in range(2)
        ]
        threads = [
            threading.Thread(target=w.run, args=(stop,), daemon=True) for w in workers
        ]
        for t in threads:
            t.start()
        try:
            return run_remote_sweep(
                f"{host}:{port}",
                BASE,
                AXES,
                payload_runner,
                extra_axes=EXTRA,
                poll_interval=0.05,
            )
        finally:
            stop.set()


@pytest.mark.slow
class TestServiceChaos:
    def test_killed_worker_bit_identical_to_serial(self):
        gen = random.Random(CHAOS_SEED + 3)
        victims = gen.sample(range(8), 2)  # 2 of the 8 point indices
        records = run_service_chaos("kill", victims)
        assert strip_timing(records) == strip_timing(serial_baseline())
        assert records.health.failed == 0
        assert records.health.worker_deaths >= 1
        assert records.health.retried >= len(victims)

    def test_stalled_worker_bit_identical_to_serial(self):
        gen = random.Random(CHAOS_SEED + 4)
        victims = gen.sample(range(8), 3)
        records = run_service_chaos("stall", victims)
        assert strip_timing(records) == strip_timing(serial_baseline())
        assert records.health.failed == 0
        assert records.health.stalled == 0  # every stall retried successfully
        assert records.health.retried >= len(victims)
