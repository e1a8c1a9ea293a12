"""Tests for the distributed sweep service (repro.service).

Three layers, cheapest first:

* protocol unit tests — encode/decode/framing, including the fuzz cases
  (garbage JSON, truncated frames, oversize frames);
* controller state-machine tests — a :class:`Controller` driven directly
  through ``handle``/``tick``/``session_closed`` with a fake clock, so
  lease expiry, heartbeat liveness, quarantine, stale completions, and
  the fallback trigger are tested without sockets or sleeps;
* socket integration tests — a real :class:`ControllerServer` with real
  :class:`Worker` threads, asserting the headline contract: records
  bit-identical to a serial sweep, through worker kills included.
"""

from __future__ import annotations

import socket
import socketserver
import sys
import threading
from dataclasses import asdict

import pytest

from repro.config import NetworkConfig
from repro.core import cache as result_cache
from repro.core.parallel import enumerate_points, run_sweep
from repro.service import (
    PROTOCOL_VERSION,
    Controller,
    ControllerServer,
    ProtocolError,
    ServiceClient,
    ServiceOptions,
    VersionMismatch,
    Worker,
    parse_address,
    run_remote_sweep,
)
from repro.service.protocol import MAX_LINE_BYTES, MessageStream, decode, encode
from repro.service.worker import _MAX_SPECS, execute_lease

BASE = NetworkConfig(k=4, n=2)


def service_runner(cfg, m=0):
    """Module-level (importable, picklable) runner for service tests."""
    return {"value": cfg.k * 1000 + cfg.router_delay * 10 + m, "seed_used": cfg.seed}


def strip_timing(records):
    return [{k: v for k, v in r.items() if k != "wall_seconds"} for r in records]


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_round_trip(self):
        msg = {"type": "lease", "index": 3, "values": [1.5, "x", None]}
        assert decode(encode(msg)) == msg

    def test_numpy_values_stay_numeric(self):
        np = pytest.importorskip("numpy")
        out = decode(encode({"type": "t", "a": np.int64(7), "b": np.float64(0.25)}))
        assert out["a"] == 7 and isinstance(out["a"], int)
        assert out["b"] == 0.25 and isinstance(out["b"], float)

    @pytest.mark.parametrize(
        "line",
        [
            b"not json at all\n",
            b'{"type": "x", unterminated\n',
            b'{"type": "trunc"',  # truncated frame: cut before the brace closed
            b'["a","list"]\n',
            b'"just a string"\n',
            b'{"no_type": 1}\n',
            b'{"type": 42}\n',
            b"\xff\xfe garbage bytes\n",
        ],
    )
    def test_bad_frames_raise_protocol_error(self, line):
        with pytest.raises(ProtocolError):
            decode(line)

    def test_oversize_frame_rejected_both_ways(self):
        big = {"type": "t", "blob": "x" * MAX_LINE_BYTES}
        with pytest.raises(ProtocolError, match="exceeds"):
            encode(big)
        with pytest.raises(ProtocolError, match="exceeds"):
            decode(b"x" * (MAX_LINE_BYTES + 1))

    def test_parse_address(self):
        assert parse_address("example.com:9000") == ("example.com", 9000)
        assert parse_address("7421") == ("127.0.0.1", 7421)
        assert parse_address(":7421") == ("127.0.0.1", 7421)
        with pytest.raises(ValueError, match="port"):
            parse_address("host:notaport")
        with pytest.raises(ValueError, match="range"):
            parse_address("host:99999")

    def test_parse_address_ipv6(self):
        # Regression: the brackets are address syntax, not host — a
        # bracketed host used to come back as "[::1]", which
        # socket.connect rejects.
        assert parse_address("[::1]:9000") == ("::1", 9000)
        assert parse_address("[fe80::1%eth0]:7421") == ("fe80::1%eth0", 7421)
        assert parse_address("[::]:7421") == ("::", 7421)

    def test_parse_address_garbage(self):
        for bad in ("", ":", "host:", "[::1]", "[::1]:", "a:b:c", "host:0"):
            with pytest.raises(ValueError, match="invalid service address"):
                parse_address(bad)

    def test_parse_address_error_has_no_noisy_cause(self):
        # The int() ValueError is implementation detail; the raised error
        # should not chain it (from None).
        try:
            parse_address("host:notaport")
        except ValueError as exc:
            assert exc.__cause__ is None
            assert exc.__suppress_context__


# ---------------------------------------------------------------------------
# controller state machine (fake clock, no sockets)
# ---------------------------------------------------------------------------


class Clock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_controller(clock, **opts) -> Controller:
    defaults = dict(
        lease_seconds=5.0,
        heartbeat_timeout=1000.0,  # liveness tested explicitly where needed
        quarantine_after=3,
        quarantine_seconds=30.0,
        fallback_after=None,
    )
    defaults.update(opts)
    return Controller(ServiceOptions(**defaults), clock=clock)


def submit_job(controller, axes=None, *, options=None, base=BASE, extra=None):
    points = enumerate_points(base, axes or {"router_delay": (1, 2)}, extra)
    payload = [
        {
            "index": p.index,
            "overrides": dict(p.overrides),
            "kwargs": dict(p.kwargs),
            "seed": p.seed,
        }
        for p in points
    ]
    reply = controller.handle(
        {
            "type": "submit",
            "base": asdict(base),
            "points": payload,
            "runner": result_cache.runner_spec(service_runner),
            "options": options or {},
        },
        {},
    )
    assert reply["type"] == "submitted", reply
    return reply, points


def register_worker(controller, name="w1"):
    session: dict = {}
    reply = controller.handle({"type": "hello", "role": "worker", "name": name}, session)
    assert reply["type"] == "welcome"
    return session, reply


class TestControllerStateMachine:
    def test_submit_lease_result_poll(self):
        clock = Clock()
        c = make_controller(clock)
        submitted, points = submit_job(c)
        session, _ = register_worker(c)
        lease = c.handle({"type": "request"}, session)
        assert lease["type"] == "lease"
        assert lease["index"] == 0 and lease["attempt"] == 0
        assert lease["seed"] == points[0].seed
        record = {"router_delay": 1, "value": 41, "wall_seconds": 0.0}
        done = c.handle(
            {"type": "result", "lease_id": lease["lease_id"],
             "job_id": lease["job_id"], "record": record},
            session,
        )
        assert done["type"] == "ok"
        status = c.handle({"type": "poll", "job_id": submitted["job_id"]}, {})
        assert status["done"] == 1 and not status["finished"]
        assert status["records"][0] == {"index": 0, "record": record}
        # incremental poll: already-fetched records are not resent
        assert c.handle(
            {"type": "poll", "job_id": submitted["job_id"], "since": 1}, {}
        )["records"] == []

    def test_request_without_hello_is_an_error(self):
        c = make_controller(Clock())
        assert c.handle({"type": "request"}, {})["type"] == "error"
        assert c.handle({"type": "heartbeat"}, {})["type"] == "error"

    def test_unknown_message_type_is_an_error_and_counted(self):
        c = make_controller(Clock())
        assert c.handle({"type": "frobnicate"}, {})["type"] == "error"
        assert c.stats["bad_messages"] == 1

    def test_submit_rejects_bad_base_and_unimportable_runner(self):
        c = make_controller(Clock())
        bad = c.handle(
            {"type": "submit", "base": {"k": -1}, "points": [], "runner": {"runner": "x:y"}},
            {},
        )
        assert bad["type"] == "error" and "base config" in bad["error"]
        lam = c.handle(
            {
                "type": "submit",
                "base": asdict(BASE),
                "points": [],
                "runner": result_cache.runner_spec(lambda cfg: {}),
            },
            {},
        )
        assert lam["type"] == "error" and "importable" in lam["error"]

    def test_lease_expiry_requeues_with_attempt_charged(self):
        clock = Clock()
        c = make_controller(clock)
        submitted, _ = submit_job(c, {"router_delay": (1,)})
        session, _ = register_worker(c)
        lease = c.handle({"type": "request"}, session)
        assert lease["type"] == "lease"
        clock.advance(6.0)  # past lease_seconds=5
        # keep the worker itself alive: heartbeat before the tick
        c.handle({"type": "heartbeat"}, session)
        c.tick()
        assert c.stats["leases_expired"] == 1
        job = c.jobs[submitted["job_id"]]
        assert job.health.retried == 1
        clock.advance(2.0)  # past the retry backoff
        c.tick()
        lease2 = c.handle({"type": "request"}, session)
        assert lease2["type"] == "lease"
        assert lease2["index"] == 0 and lease2["attempt"] == 1
        # the expired lease's late completion is stale, not double-counted
        stale = c.handle(
            {"type": "result", "lease_id": lease["lease_id"],
             "job_id": lease["job_id"], "record": {"value": 1}},
            session,
        )
        assert stale["type"] == "stale"
        assert job.health.stale_results == 1

    def test_lease_retries_exhaust_to_failed_record(self):
        clock = Clock()
        c = make_controller(clock)
        submitted, _ = submit_job(
            c, {"router_delay": (1,)}, options={"max_retries": 1}
        )
        session, _ = register_worker(c)
        for _ in range(2):  # attempt 0 and the single retry
            clock.advance(2.0)
            c.tick()
            lease = c.handle({"type": "request"}, session)
            assert lease["type"] == "lease"
            clock.advance(6.0)
            c.handle({"type": "heartbeat"}, session)
            c.tick()
        status = c.handle({"type": "poll", "job_id": submitted["job_id"]}, {})
        assert status["finished"]
        (item,) = status["records"]
        assert item["record"]["failed"] is True
        assert item["record"]["error_kind"] == "lease_expired"
        assert "lease expired" in item["record"]["error"]

    def test_duplicate_completion_is_stale(self):
        c = make_controller(Clock())
        submit_job(c, {"router_delay": (1,)})
        session, _ = register_worker(c)
        lease = c.handle({"type": "request"}, session)
        msg = {"type": "result", "lease_id": lease["lease_id"],
               "job_id": lease["job_id"], "record": {"value": 9}}
        assert c.handle(msg, session)["type"] == "ok"
        assert c.handle(msg, session)["type"] == "stale"
        assert c.stats["stale_results"] == 1

    def test_disconnect_requeues_leases(self):
        clock = Clock()
        c = make_controller(clock)
        submitted, _ = submit_job(c, {"router_delay": (1,)})
        session, _ = register_worker(c)
        lease = c.handle({"type": "request"}, session)
        assert lease["type"] == "lease"
        c.session_closed(session)
        assert not c.workers
        job = c.jobs[submitted["job_id"]]
        assert job.health.worker_deaths == 1
        assert job.health.retried == 1  # requeued with one attempt charged
        clock.advance(2.0)
        c.tick()
        session2, _ = register_worker(c, "w2")
        lease2 = c.handle({"type": "request"}, session2)
        assert lease2["type"] == "lease" and lease2["attempt"] == 1

    def test_heartbeat_silence_reaps_worker(self):
        clock = Clock()
        c = make_controller(clock, heartbeat_timeout=3.0, lease_seconds=100.0)
        submitted, _ = submit_job(c, {"router_delay": (1,)})
        session, _ = register_worker(c)
        assert c.handle({"type": "request"}, session)["type"] == "lease"
        clock.advance(2.0)
        assert c.handle({"type": "heartbeat"}, session)["type"] == "ok"
        clock.advance(2.0)
        c.tick()  # heartbeat 2s ago: still alive
        assert c.workers
        clock.advance(2.0)
        c.tick()  # 4s of silence > 3s timeout
        assert not c.workers
        assert c.jobs[submitted["job_id"]].health.worker_deaths == 1
        clock.advance(2.0)  # past the requeued point's retry backoff
        c.tick()
        # the socket is still open; its next message re-registers it
        assert c.handle({"type": "request"}, session)["type"] == "lease"

    def test_quarantine_after_repeated_lease_failures(self):
        clock = Clock()
        c = make_controller(clock, quarantine_after=2, quarantine_seconds=10.0)
        submitted, _ = submit_job(
            c, {"router_delay": (1,)}, options={"max_retries": 10}
        )
        session, _ = register_worker(c)
        for _ in range(2):
            clock.advance(2.0)
            c.tick()
            assert c.handle({"type": "request"}, session)["type"] == "lease"
            clock.advance(6.0)
            c.handle({"type": "heartbeat"}, session)
            c.tick()
        job = c.jobs[submitted["job_id"]]
        assert job.health.quarantined == 1
        idle = c.handle({"type": "request"}, session)
        assert idle["type"] == "idle" and idle["quarantined"] is True
        # a healthy sibling still gets the work
        session2, _ = register_worker(c, "w2")
        clock.advance(2.0)
        c.tick()
        assert c.handle({"type": "request"}, session2)["type"] == "lease"
        # quarantine expires
        clock.advance(10.0)
        c.handle({"type": "heartbeat"}, session)
        reply = c.handle({"type": "request"}, session)
        assert reply.get("quarantined") is not True

    def test_success_clears_failure_streak(self):
        clock = Clock()
        c = make_controller(clock, quarantine_after=2)
        submit_job(c, {"router_delay": (1, 2, 3)}, options={"max_retries": 10})
        session, _ = register_worker(c)
        # one expiry...
        c.handle({"type": "request"}, session)
        clock.advance(6.0)
        c.handle({"type": "heartbeat"}, session)
        c.tick()
        (worker,) = c.workers.values()
        assert worker.consecutive_failures == 1
        # ...then a success resets the streak
        lease = c.handle({"type": "request"}, session)
        c.handle(
            {"type": "result", "lease_id": lease["lease_id"],
             "job_id": lease["job_id"], "record": {"value": 1}},
            session,
        )
        assert worker.consecutive_failures == 0

    def test_fallback_triggers_only_after_quiet_window(self):
        clock = Clock()
        started = []
        c = make_controller(clock, fallback_after=5.0)
        c._start_fallback = lambda job: started.append(job.job_id)
        submitted, _ = submit_job(c)
        c.tick()
        assert not started  # grace window not elapsed
        clock.advance(4.0)
        c.tick()
        assert not started
        clock.advance(2.0)
        c.tick()
        assert started == [submitted["job_id"]]
        assert c.jobs[submitted["job_id"]].fallback_active
        c.tick()
        assert started == [submitted["job_id"]]  # not re-triggered

    def test_fallback_deferred_while_workers_live(self):
        clock = Clock()
        started = []
        c = make_controller(clock, fallback_after=5.0)
        c._start_fallback = lambda job: started.append(job.job_id)
        submit_job(c)
        register_worker(c)
        clock.advance(60.0)
        c.tick()  # a worker exists (freshly registered ⇒ alive): no fallback
        assert not started

    def test_cache_prefill_serves_hits_without_dispatch(self, tmp_path):
        store = result_cache.ResultCache(tmp_path / "cache")
        # Warm the cache through a local sweep with the same runner.
        axes = {"router_delay": (1, 2)}
        serial = run_sweep(BASE, axes, service_runner, cache=store)
        c = Controller(ServiceOptions(fallback_after=None), cache=store, clock=Clock())
        submitted, _ = submit_job(c, axes)
        assert submitted["cache_hits"] == 2
        status = c.handle({"type": "poll", "job_id": submitted["job_id"]}, {})
        assert status["finished"]
        job = c.jobs[submitted["job_id"]]
        assert job.health.cache_hits == 2 and not job.pending
        assert "2/2 cache hits" in status["summary"]
        got = [item["record"] for item in status["records"]]
        assert strip_timing(got) == strip_timing(serial)

    def test_worker_result_written_back_to_shared_store(self, tmp_path):
        store = result_cache.ResultCache(tmp_path / "cache")
        c = Controller(ServiceOptions(fallback_after=None), cache=store, clock=Clock())
        submit_job(c, {"router_delay": (1,)})
        session, _ = register_worker(c)
        lease = c.handle({"type": "request"}, session)
        record = {"router_delay": 1, "value": 4010, "wall_seconds": 0.25}
        c.handle(
            {"type": "result", "lease_id": lease["lease_id"],
             "job_id": lease["job_id"], "record": record},
            session,
        )
        assert len(store) == 1
        # a second identical submission is now all hits
        submitted2, _ = submit_job(c, {"router_delay": (1,)})
        assert submitted2["cache_hits"] == 1

    def test_failed_records_are_not_written_back(self, tmp_path):
        store = result_cache.ResultCache(tmp_path / "cache")
        c = Controller(ServiceOptions(fallback_after=None), cache=store, clock=Clock())
        submit_job(c, {"router_delay": (1,)}, options={"max_retries": 0})
        session, _ = register_worker(c)
        lease = c.handle({"type": "request"}, session)
        c.handle(
            {"type": "result", "lease_id": lease["lease_id"], "job_id": lease["job_id"],
             "record": {"failed": True, "error": "boom", "error_kind": "error",
                        "wall_seconds": 0.0}},
            session,
        )
        assert len(store) == 0

    def test_info_reports_workers_and_jobs(self):
        c = make_controller(Clock())
        submit_job(c)
        register_worker(c, "alpha")
        info = c.handle({"type": "info"}, {})
        assert info["type"] == "service"
        assert [w["worker_id"] for w in info["workers"]] == ["alpha"]
        assert info["jobs"][0]["total"] == 2


# ---------------------------------------------------------------------------
# job specs on the wire: once per connection, by content id
# ---------------------------------------------------------------------------


def wire(msg):
    """A message as the peer reads it."""
    return decode(encode(msg))


def config_on_wire(base):
    """A base config as a lease carries it (tuples as lists)."""
    return wire({"type": "t", "config": asdict(base)})["config"]


def report(controller, session, lease, record):
    reply = controller.handle(
        {"type": "result", "lease_id": lease["lease_id"], "job_id": lease["job_id"],
         "record": record},
        session,
    )
    assert reply["type"] == "ok", reply


def job_records(controller, submitted, points):
    status = controller.handle({"type": "poll", "job_id": submitted["job_id"]}, {})
    assert status["finished"], status["summary"]
    by_index = {item["index"]: item["record"] for item in status["records"]}
    return [by_index[p.index] for p in points]


class TestJobSpecOnTheWire:
    AXES = {"router_delay": tuple(range(1, 9))}
    EXTRA = {"m": tuple(range(25))}  # 8 x 25 = 200 points

    def test_body_crosses_once_per_session_and_lease_bytes_are_bounded(self):
        c = make_controller(Clock())
        submitted, points = submit_job(c, self.AXES, extra=self.EXTRA)
        first, _ = register_worker(c, "w1")
        second, _ = register_worker(c, "w2")
        leases, lease_bytes = [], 0
        for n in range(len(points)):
            # the second connection joins half way: it is sent the body too
            session = first if n < 100 else second
            frame = encode(c.handle({"type": "request"}, session))
            lease_bytes += len(frame)
            lease = decode(frame)
            assert lease["type"] == "lease"
            leases.append(lease)
            report(c, session, lease, execute_lease(lease))
        bodied = [n for n, lease in enumerate(leases) if "config" in lease or "runner" in lease]
        assert bodied == [0, 100]
        for n in bodied:
            assert leases[n]["config"] == config_on_wire(BASE)
            assert leases[n]["runner"] == result_cache.runner_spec(service_runner)
        assert len({lease["spec"] for lease in leases}) == 1
        # A count, not a time: two ~490-byte bodies plus 200 ~260-byte slim
        # leases.  At protocol 1 every lease carried the body (~150 KB in all).
        assert lease_bytes <= 2 * 800 + 200 * 280
        records = job_records(c, submitted, points)
        serial = run_sweep(BASE, self.AXES, service_runner, extra_axes=self.EXTRA)
        assert strip_timing(records) == strip_timing(serial)

    def test_interleaved_jobs_run_under_their_own_spec_and_a_retry_gets_its_body_back(self):
        clock = Clock()
        c = make_controller(clock)
        other = BASE.with_(k=8, seed=3)
        axes = {"router_delay": (1, 2)}
        sub1, pts1 = submit_job(c, axes)
        sub2, pts2 = submit_job(c, axes, base=other)
        a, _ = register_worker(c, "a")
        b, _ = register_worker(c, "b")

        def lease_for(session):
            lease = wire(c.handle({"type": "request"}, session))
            assert lease["type"] == "lease", lease
            return lease

        a1 = lease_for(a)  # job 1, point 0: body
        b1 = lease_for(b)  # job 1, point 1: body (b's first)
        assert a1["job_id"] == b1["job_id"] == sub1["job_id"]
        assert "config" in a1 and "config" in b1 and a1["spec"] == b1["spec"]
        report(c, a, a1, execute_lease(a1))
        # b's lease expires (transient): its point is re-queued behind its backoff
        clock.advance(5.5)  # past lease_seconds
        c.tick()
        a2 = lease_for(a)  # job 2, point 0: another spec, so its body
        assert a2["job_id"] == sub2["job_id"] and a2["spec"] != a1["spec"]
        assert a2["config"] == config_on_wire(other)
        report(c, a, a2, execute_lease(a2))
        clock.advance(5.0)  # past the retry backoff
        a3 = lease_for(a)  # job 1's retried point, after job 2's body
        assert (a3["job_id"], a3["index"], a3["attempt"]) == (sub1["job_id"], 1, 1)
        assert a3["spec"] == a1["spec"] and a3["config"] == config_on_wire(BASE)
        report(c, a, a3, execute_lease(a3))
        a4 = lease_for(a)  # back to job 2: the last body sent was job 1's
        assert a4["job_id"] == sub2["job_id"] and "runner" in a4
        report(c, a, a4, execute_lease(a4))
        for sub, pts, base in ((sub1, pts1, BASE), (sub2, pts2, other)):
            serial = run_sweep(base, axes, service_runner)
            assert strip_timing(job_records(c, sub, pts)) == strip_timing(serial)

    def test_unknown_spec_id_is_a_failed_record_naming_it(self):
        lease = {"index": 0, "overrides": {"router_delay": 2}, "kwargs": {"m": 1}, "seed": 5,
                 "spec": "no-such-spec-id"}
        for _ in range(2):  # deterministic: the same record every time
            record = execute_lease(lease)
            assert record["failed"] is True and record["error_kind"] == "error"
            assert "'no-such-spec-id'" in record["error"]
            assert record["router_delay"] == 2 and record["m"] == 1

    def test_bodied_lease_without_an_id_still_executes(self):
        (point,) = enumerate_points(BASE, {"router_delay": (2,)}, {"m": (5,)})
        lease = {
            "type": "lease",
            "index": 0, "overrides": dict(point.overrides), "kwargs": dict(point.kwargs),
            "seed": point.seed, "config": asdict(BASE),
            "runner": result_cache.runner_spec(service_runner),
        }
        (serial,) = run_sweep(BASE, {"router_delay": (2,)}, service_runner, extra_axes={"m": (5,)})
        assert strip_timing([execute_lease(wire(lease))]) == strip_timing([serial])

    def test_a_body_that_does_not_resolve_fails_every_lease_with_its_reason(self):
        body = {"index": 0, "overrides": {}, "kwargs": {}, "seed": 1, "spec": "unimportable-spec",
                "config": asdict(BASE), "runner": {"runner": "no_such_module_xyz:run"}}
        slim = {k: v for k, v in body.items() if k not in ("config", "runner")}
        for lease in (body, slim, slim):
            record = execute_lease(lease)
            assert record["failed"] is True
            assert record["error"].startswith("ModuleNotFoundError")

    def test_spec_table_is_bounded_and_drops_the_oldest(self):
        def lease(n, body):
            base = BASE.with_(seed=1000 + n)
            out = {"index": 0, "overrides": {}, "kwargs": {}, "seed": 1, "spec": f"bound-test-{n}"}
            if body:
                out.update(config=asdict(base), runner=result_cache.runner_spec(service_runner))
            return out

        for n in range(_MAX_SPECS + 1):
            assert not execute_lease(lease(n, body=True)).get("failed")
        assert "'bound-test-0'" in execute_lease(lease(0, body=False))["error"]
        for n in range(1, _MAX_SPECS + 1):
            assert not execute_lease(lease(n, body=False)).get("failed")
        # a body arriving again makes its id the youngest
        assert not execute_lease(lease(1, body=True)).get("failed")
        assert not execute_lease(lease(0, body=True)).get("failed")
        assert "'bound-test-2'" in execute_lease(lease(2, body=False))["error"]
        assert not execute_lease(lease(1, body=False)).get("failed")

    def test_threads_sharing_the_spec_table_never_cross_specs(self):
        """More worker threads than cores on one process-wide table and one
        last-combination memo, switching every few bytecodes: every record
        is computed under its own lease's spec."""
        runner = result_cache.runner_spec(service_runner)
        wrong: list = []

        def serve(k):
            base = BASE.with_(k=k, seed=k)
            spec = result_cache.fingerprint({"config": asdict(base), "runner": runner}, salt="")
            for n in range(300):
                lease = {"index": n, "overrides": {"router_delay": 1 + n % 4}, "kwargs": {"m": n},
                         "seed": 7 * n + k, "spec": spec}
                if n == 0:
                    lease.update(config=asdict(base), runner=runner)
                record = execute_lease(wire({"type": "lease", **lease}))
                want = {"value": k * 1000 + (1 + n % 4) * 10 + n, "seed_used": 7 * n + k}
                if {name: record.get(name) for name in want} != want:
                    wrong.append((k, n, record))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=serve, args=(k,), daemon=True) for k in range(2, 8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_finished_jobs_are_not_visited_by_request(self):
        c = make_controller(Clock())
        visited = []
        promote = c._promote_delayed
        c._promote_delayed = lambda job, now: (visited.append(job.job_id), promote(job, now))
        session, _ = register_worker(c)
        finished = []
        for _ in range(3):  # three jobs run to the end, as explore's generations do
            submitted, _ = submit_job(c, {"router_delay": (1,)})
            lease = c.handle({"type": "request"}, session)
            report(c, session, lease, execute_lease(wire(lease)))
            finished.append(submitted["job_id"])
        live, _ = submit_job(c, {"router_delay": (1, 2)})
        del visited[:]
        assert c.handle({"type": "request"}, session)["job_id"] == live["job_id"]
        c.tick()
        assert visited == [live["job_id"], live["job_id"]]
        # poll and info still know every job
        assert [j["job_id"] for j in c.handle({"type": "info"}, {})["jobs"]] == [
            *finished, live["job_id"]
        ]
        assert c.handle({"type": "poll", "job_id": finished[0]}, {})["finished"]


class _OldController(socketserver.StreamRequestHandler):
    """A controller of the previous protocol: welcomes anyone, as version 1."""

    def handle(self):
        self.server.connections += 1  # type: ignore[attr-defined]
        if self.rfile.readline():
            self.wfile.write(
                encode({"type": "welcome", "protocol": PROTOCOL_VERSION - 1,
                        "worker_id": "w", "heartbeat_interval": 2.0})
            )


class TestProtocolVersionHandshake:
    def test_controller_refuses_a_hello_of_another_version(self):
        c = make_controller(Clock())
        for role in ("worker", "client"):
            session: dict = {}
            reply = c.handle(
                {"type": "hello", "role": role, "name": "old", "protocol": PROTOCOL_VERSION - 1},
                session,
            )
            assert reply["type"] == "error" and reply["protocol"] == PROTOCOL_VERSION
            assert str(PROTOCOL_VERSION - 1) in reply["error"]
            assert str(PROTOCOL_VERSION) in reply["error"]
            assert not session and not c.workers
        # the current version, and a hello that states none, are welcomed
        for hello in (
            {"type": "hello", "role": "worker", "protocol": PROTOCOL_VERSION},
            {"type": "hello", "role": "worker"},
        ):
            assert c.handle(hello, {}) ["protocol"] == PROTOCOL_VERSION
        assert len(c.workers) == 2

    def test_worker_and_client_refuse_a_welcome_of_another_version(self):
        server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _OldController)
        server.daemon_threads = True
        server.connections = 0  # type: ignore[attr-defined]
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02},
                                  daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            worker = Worker(host, port, name="new", reconnect_backoff=0.01)
            mismatch = f"protocol {PROTOCOL_VERSION - 1}.*speaks {PROTOCOL_VERSION}"
            with pytest.raises(VersionMismatch, match=mismatch):
                worker.run()
            assert issubclass(VersionMismatch, ProtocolError)
            assert server.connections == 1  # refused once; no reconnect loop
            with pytest.raises(ConnectionError, match=mismatch):
                ServiceClient(host, port)
            assert server.connections == 2
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_real_peers_state_their_version(self):
        seen = []

        class Recording(Controller):
            def _on_hello(self, msg, session):
                seen.append((msg.get("role"), msg.get("protocol")))
                return super()._on_hello(msg, session)

        stop = threading.Event()
        with ControllerServer(Recording(ServiceOptions(fallback_after=None))) as server:
            start_workers(server.address, 1, stop=stop)
            host, port = server.address
            records = run_remote_sweep(f"{host}:{port}", BASE, {"router_delay": (1,)}, service_runner)
            stop.set()
        assert records.health.ok == 1
        assert sorted(seen) == [("client", PROTOCOL_VERSION), ("worker", PROTOCOL_VERSION)]


# ---------------------------------------------------------------------------
# socket integration
# ---------------------------------------------------------------------------


def start_workers(address, count, *, stop, worker_cls=Worker, **kwargs):
    host, port = address
    workers = [
        worker_cls(host, port, name=f"w{i}", **kwargs) for i in range(count)
    ]
    threads = [
        threading.Thread(target=w.run, args=(stop,), daemon=True) for w in workers
    ]
    for t in threads:
        t.start()
    return workers, threads


class TestServiceIntegration:
    AXES = {"router_delay": (1, 2, 3)}
    EXTRA = {"m": (0, 5)}

    def serial(self):
        return run_sweep(BASE, self.AXES, service_runner, extra_axes=self.EXTRA)

    def test_two_workers_bit_identical_to_serial(self):
        opts = ServiceOptions(lease_seconds=30.0, fallback_after=None)
        stop = threading.Event()
        with ControllerServer(Controller(opts)) as server:
            start_workers(server.address, 2, stop=stop)
            host, port = server.address
            records = run_remote_sweep(
                f"{host}:{port}", BASE, self.AXES, service_runner, extra_axes=self.EXTRA
            )
            stop.set()
        assert strip_timing(records) == strip_timing(self.serial())
        assert records.health.ok == 6 and records.health.failed == 0

    def test_two_concurrent_jobs_with_different_bases_never_swap_specs(self):
        """Two clients, two bases, one fleet of two in-process workers (which
        share one spec table): every record is its own job's."""
        bases = [BASE, BASE.with_(k=8, seed=17)]
        axes, extra = {"router_delay": (1, 2, 3, 4)}, {"m": tuple(range(6))}
        opts = ServiceOptions(lease_seconds=30.0, fallback_after=None)
        stop = threading.Event()
        got: dict[int, list] = {}
        with ControllerServer(Controller(opts)) as server:
            start_workers(server.address, 2, stop=stop)
            host, port = server.address

            def client(n):
                got[n] = run_remote_sweep(
                    f"{host}:{port}", bases[n], axes, service_runner, extra_axes=extra,
                    poll_interval=0.01,
                )

            clients = [threading.Thread(target=client, args=(n,), daemon=True) for n in (0, 1)]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=60.0)
            stop.set()
        assert not any(t.is_alive() for t in clients)
        for n, base in enumerate(bases):
            serial = run_sweep(base, axes, service_runner, extra_axes=extra)
            assert strip_timing(got[n]) == strip_timing(serial)
            assert got[n].health.ok == 24 and got[n].health.failed == 0

    def test_zero_workers_falls_back_to_local_execution(self):
        opts = ServiceOptions(fallback_after=0.1)
        with ControllerServer(Controller(opts)) as server:
            host, port = server.address
            records = run_remote_sweep(
                f"{host}:{port}", BASE, self.AXES, service_runner, extra_axes=self.EXTRA
            )
        assert strip_timing(records) == strip_timing(self.serial())
        assert records.health.ok == 6

    def test_remote_journal_resume_skips_completed_points(self, tmp_path):
        journal = tmp_path / "remote.jsonl"
        opts = ServiceOptions(fallback_after=0.1)
        with ControllerServer(Controller(opts)) as server:
            host, port = server.address
            first = run_remote_sweep(
                f"{host}:{port}", BASE, self.AXES, service_runner,
                extra_axes=self.EXTRA, journal=journal,
            )
            resumed = run_remote_sweep(
                f"{host}:{port}", BASE, self.AXES, service_runner,
                extra_axes=self.EXTRA, journal=journal, resume=True,
            )
        assert strip_timing(resumed) == strip_timing(first)
        assert resumed.health.ok == 6

    def test_remote_resume_refuses_mismatched_fingerprint(self, tmp_path):
        journal = tmp_path / "remote.jsonl"
        opts = ServiceOptions(fallback_after=0.1)
        with ControllerServer(Controller(opts)) as server:
            host, port = server.address
            address = f"{host}:{port}"
            run_remote_sweep(
                address, BASE, self.AXES, service_runner,
                extra_axes=self.EXTRA, journal=journal,
            )
            with pytest.raises(ValueError, match="different sweep"):
                run_remote_sweep(
                    address, BASE.with_(seed=99), self.AXES, service_runner,
                    extra_axes=self.EXTRA, journal=journal, resume=True,
                )

    def test_lambda_runner_rejected_client_side(self):
        with pytest.raises(ValueError, match="importable"):
            run_remote_sweep("127.0.0.1:1", BASE, self.AXES, lambda cfg: {})

    def test_server_survives_protocol_fuzz(self):
        """Garbage, truncation, and stale frames never take the service down."""
        import random

        gen = random.Random(20260808)
        opts = ServiceOptions(fallback_after=0.1)
        with ControllerServer(Controller(opts)) as server:
            host, port = server.address
            # 1) random binary garbage, then hang up mid-"frame"
            for _ in range(10):
                with socket.create_connection((host, port), timeout=5.0) as sock:
                    payload = bytes(gen.randrange(256) for _ in range(gen.randrange(1, 200)))
                    sock.sendall(payload)  # often no trailing newline: truncated
            # 2) structured-but-wrong frames on one connection
            with socket.create_connection((host, port), timeout=5.0) as sock:
                stream = MessageStream(sock)
                for raw in (b"not json\n", b'["list"]\n', b'{"no_type": 1}\n'):
                    sock.sendall(raw)
                    assert stream.recv()["type"] == "error"
                # stale/duplicate lease completion from a worker that never
                # registered a lease
                reply = stream.rpc(
                    {"type": "result", "lease_id": "lease-999999",
                     "job_id": "job-0001", "record": {"value": 0}}
                )
                assert reply["type"] == "stale"
            # 3) the service still works end to end afterwards
            records = run_remote_sweep(
                f"{host}:{port}", BASE, {"router_delay": (1,)}, service_runner
            )
            assert records.health.ok == 1
            assert server.controller.stats["bad_messages"] >= 3

    def test_oversize_frame_drops_connection_not_server(self):
        opts = ServiceOptions(fallback_after=0.1)
        with ControllerServer(Controller(opts)) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=5.0) as sock:
                sock.sendall(b"x" * (MAX_LINE_BYTES + 2))
                sock.sendall(b"\n")
                stream = MessageStream(sock)
                reply = stream.recv()
                assert reply is None or reply["type"] == "error"
            records = run_remote_sweep(
                f"{host}:{port}", BASE, {"router_delay": (1,)}, service_runner
            )
            assert records.health.ok == 1
