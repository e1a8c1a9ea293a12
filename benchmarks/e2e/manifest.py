"""What the benchmark declares: workloads, metrics, and ``BENCHMARK.json``.

This module is the single source of the names the runner prints.  The
committed ``BENCHMARK.json`` is :func:`build_manifest` written out by
``run.py --write-manifest``; the self-test asserts the two agree and that
every printed metric is declared here (and the other way round).
"""

from __future__ import annotations

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
#: seconds of timed passes per driver run (``--seconds``)
RUN_SECONDS = 10

#: (name, why) — ``why`` is the one line the manifest carries.
WORKLOADS = (
    (
        "curve8x8_object",
        "fig01 latency-load curve on the paper's 8x8 mesh, object backend: "
        "network.step does most of the work, executor and cache none",
    ),
    (
        "curve8x8_vectorized",
        "same curve on the numpy backend: same layer used differently, so a "
        "gain for one backend that costs the other shows; stats must equal the object run's",
    ),
    (
        "batch8x8_ladder",
        "closed-loop batch model, m=1..32 plus NAR, reply and OS rungs: the "
        "driver's feedback loop, per-class queues and idle-cycle fast-forward carry weight",
    ),
    (
        "cmp4x4_suite",
        "execution-driven CMP, five benchmarks x two router delays: cores, caches "
        "and memory dominate, the 16-node network is a small share",
    ),
    (
        "sweep_overhead",
        "1280-point grid with a constant-time runner, cold/warm/resume/service "
        "loopback: the simulator is bypassed, only executor, cache, journal and service remain",
    ),
    (
        "explore_quick",
        "the pinned `repro explore --quick` profile cold then warm: many short 4x4 "
        "runs, one small sweep per generation, infeasible genomes by design",
    ),
)

#: (name, unit, better, bound, what it is) — measured with tracing off, on
#: every workload, never zero.  The time bounds are the largest the driver
#: allows: the reference box's speed moves by 15-20 % between back-to-back
#: sets of runs (README.md, "How steady it is").
END_TO_END = (
    ("wall_s", "s", "lower", 0.25,
     "host seconds for one pass: sum over the pass's units of the fastest timing of each unit"),
    ("points_per_s", "1/s", "higher", 0.25,
     "design points (loads, rungs, CMP runs, sweep points, explore evaluations) per host second"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "ru_maxrss of the workload's own process after the untraced passes"),
    ("setup_s", "s", "lower", 0.25,
     "host seconds from process start to ready for the first pass, median of several starts"),
)

#: (name, unit, better) — from the traced run; 0 on a workload that does
#: not exercise the layer.  Counts marked exact in README.md repeat
#: bit-for-bit for a given seed.
PER_LAYER = (
    # whole-run numbers that cannot be end-to-end metrics under the driver's
    # contract (undefined on some workload, or zero when healthy)
    ("sim_cycles_per_s", "1/s", "higher"),
    ("failed_frac", "ratio", "lower"),
    ("stat_mismatches", "count", "lower"),
    ("t0_rel_err", "ratio", "lower"),
    # core.openloop / core.closedloop / execdriven.cmp
    ("driver.runs", "count", "lower"),
    ("driver.run_s", "s", "lower"),
    ("driver.self_s", "s", "lower"),
    # network.network / network.vectorized
    ("network.builds", "count", "lower"),
    ("network.build_s", "s", "lower"),
    ("network.step_calls", "count", "lower"),
    ("network.step_s", "s", "lower"),
    ("network.step_us", "us", "lower"),
    ("network.offer_calls", "count", "lower"),
    ("network.offer_s", "s", "lower"),
    ("network.poll_s", "s", "lower"),
    ("network.flit_hops", "count", "lower"),
    ("network.ns_per_flit_hop", "ns", "lower"),
    ("network.packets_delivered", "count", "higher"),
    ("network.injection_stalls", "count", "lower"),
    # core.engine
    ("engine.cycles", "count", "lower"),
    ("engine.ff_cycles", "count", "higher"),
    ("engine.ff_frac", "ratio", "higher"),
    # traffic.*
    ("traffic.draw_calls", "count", "lower"),
    ("traffic.draw_s", "s", "lower"),
    # execdriven.*
    ("execdriven.self_s", "s", "lower"),
    ("execdriven.requests", "count", "lower"),
    ("execdriven.total_flits", "count", "lower"),
    # core.parallel
    ("executor.cold_s", "s", "lower"),
    ("executor.warm_s", "s", "lower"),
    ("executor.resume_s", "s", "lower"),
    ("executor.self_us_per_point", "us", "lower"),
    ("executor.enumerate_s", "s", "lower"),
    ("executor.fingerprint_s", "s", "lower"),
    ("executor.pickle_us_per_point", "us", "lower"),
    ("executor.pool2_s", "s", "lower"),
    # core.cache
    ("cache.salt_s", "s", "lower"),
    ("cache.key_us", "us", "lower"),
    ("cache.get_us", "us", "lower"),
    ("cache.put_us", "us", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.store_bytes", "B", "lower"),
    # analysis.io
    ("journal.append_us", "us", "lower"),
    ("journal.load_s", "s", "lower"),
    ("journal.bytes", "B", "lower"),
    # service.controller / protocol / worker
    ("service.messages", "count", "lower"),
    ("service.handle_us", "us", "lower"),
    ("service.codec_us", "us", "lower"),
    ("service.execute_us", "us", "lower"),
    ("service.loopback_s", "s", "lower"),
    # core.explore
    ("explore.run_s", "s", "lower"),
    ("explore.sim_s", "s", "lower"),
    ("explore.self_s", "s", "lower"),
    ("explore.evaluations", "count", "lower"),
    ("explore.infeasible", "count", "lower"),
    ("explore.cache_hits", "count", "higher"),
    # the tracer itself
    ("trace.overhead_frac", "ratio", "lower"),
)

WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)
END_TO_END_UNITS = {name: unit for name, unit, *_ in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def build_manifest() -> dict:
    """``BENCHMARK.json`` exactly as the driver's contract spells it."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
