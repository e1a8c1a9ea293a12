"""Every exhibit's simulation points, as data, and the one runner of them.

A *point* is one driver call a figure harness needs — an open-loop run, a
load curve, a saturation bisection, a batch run, a CMP run, a
characterization, a trace replay or a hand-fed network — held as a
:class:`NetworkConfig`, the keyword arguments of :func:`run_point` and an
explicit seed.  :data:`EXHIBITS` maps each exhibit (a harness's test name
without ``test_``) to its *plan*: nested dicts whose leaves are points, or
:class:`Derived` points whose inputs are other points' records (Fig. 5's
open-loop run at the batch model's achieved load, the batch parameters
Figs. 18, 19 and 22 derive from characterizations).

:func:`run_exhibits` runs the plans of the collected harnesses as two
:class:`~repro.core.parallel.SweepLedger` passes (plain points, then
derived ones) through the result cache, each distinct point once, and
hands every harness its plan with each point replaced by its record.

The cache keys a record on the resolved config, the kwargs, the bytecode
of :func:`run_point` and the ``repro`` source salt — nothing else — so
whatever shapes a run must be a config field or a kwarg, and
:func:`run_point` calls only ``repro`` code.  Its key covers its bytecode
but not its constants or attribute names: after editing it, clear the
cache (``benchmarks/.cache`` or ``$REPRO_CACHE_DIR``).

Scaling: the paper uses b = 1000 batches, 64-node open-loop runs with long
steady-state windows, and multi-day GEMS simulations.  The sizes below
shrink batch sizes, measurement windows and instruction counts so the
whole suite finishes in minutes of pure Python; every knob is a module
constant, so paper-scale reruns are one edit away.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro import rng as rng_mod
from repro.analysis.io import json_default
from repro.config import CmpConfig, NetworkConfig
from repro.core.cache import point_key, runner_spec
from repro.core.closedloop import BatchSimulator
from repro.core.correlation import correlate
from repro.core.openloop import OpenLoopSimulator
from repro.core.parallel import SweepLedger, SweepPoint, run_ledger
from repro.core.reply import FixedReply, ProbabilisticReply
from repro.core.tracedriven import TraceDrivenSimulator, capture_batch_trace
from repro.execdriven import (
    BENCHMARKS,
    TIMER_INTERVAL_3GHZ,
    TIMER_INTERVAL_75MHZ,
    CmpSystem,
    characterize,
    derive_batch_params,
)
from repro.execdriven.characterize import Characterization
from repro.network import Network
from repro.traffic import MarkovOnOff, UniformRandom

# --- scaled experiment sizes (paper-scale values in comments) ---------------
BATCH_SIZE = 150          # paper: b = 1000
OPENLOOP = dict(warmup=300, measure=600, drain_limit=3000)  # paper: >=10k cycle windows
OL_SMALL = dict(warmup=200, measure=400, drain_limit=2000)
EXEC_INSTRUCTIONS = 6000  # surrogate benchmarks; paper: full SPLASH-2/PARSEC
EXEC_INSTRUCTIONS_75MHZ = 4000
M_VALUES = (1, 2, 4, 8, 16, 32)
TR_VALUES = (1, 2, 4, 8)
#: the seeds: of a network-level run (NetworkConfig's default), and of a
#: CMP run or characterization
SEED = 1
CMP_SEED = 2
#: Table II's CMP network; a CMP run's config is this at some router delay
CMP_NETWORK = CmpConfig().network
#: the OS model's batch variants of Figs. 18/19 and the parameters each uses
BATCH_VARIANTS = {
    "BA": (),
    "BA_inj": ("nar",),
    "BA_re": ("reply_model",),
    "BA_inj+re": ("nar", "reply_model"),
}
_BASE = NetworkConfig()


@dataclass(frozen=True)
class Point:
    """One driver call: its network config, explicit seed and kwargs."""

    config: NetworkConfig
    seed: int
    kwargs: Mapping[str, Any]

    def sweep_point(self, index: int) -> SweepPoint:
        """This point as the ledger runs it: ``config`` as overrides of
        ``NetworkConfig()``, seed laid over."""
        overrides = {
            f.name: getattr(self.config, f.name)
            for f in dataclasses.fields(NetworkConfig)
            if f.name != "seed" and getattr(self.config, f.name) != getattr(_BASE, f.name)
        }
        return SweepPoint(index, overrides, dict(self.kwargs), self.seed)


@dataclass(frozen=True)
class Derived:
    """A point made from earlier points' records: ``make(*records)``."""

    make: Callable[..., Point]
    sources: tuple[Point, ...]


def run_point(cfg: NetworkConfig, *, kind: str, **kw: Any) -> dict[str, Any]:
    """Execute one declared point; its record is ``{"result": ...}``, JSON-native.

    The figure suite's only simulation entry: everything that shapes the
    run arrives as ``cfg`` (its seed included) or a keyword.
    """
    if kind in ("openloop", "curve", "saturation", "zero_load"):
        burst = kw.get("burst_length")
        sim = OpenLoopSimulator(
            cfg,
            process=None if burst is None else functools.partial(
                MarkovOnOff.for_average_rate, burst_length=burst
            ),
            warmup=kw["warmup"], measure=kw["measure"], drain_limit=kw["drain_limit"],
        )
        if kind == "saturation":
            out = sim.saturation_throughput(tolerance=kw["tolerance"])
        elif kind == "zero_load":
            out = sim.zero_load_latency()
        else:
            runs = sim.latency_load_sweep(kw["rates"]) if kind == "curve" else [sim.run(kw["rate"])]
            out = []
            for res in runs:
                rec = dataclasses.asdict(res)
                for name in ("latencies", "class_ids"):
                    del rec[name]
                out.append({**rec, "p99_latency": res.p99_latency})
            out = out if kind == "curve" else out[0]
    elif kind == "batch":
        models = {}
        if "characterization" in kw:
            params = derive_batch_params(
                Characterization(**kw["characterization"]),
                **{k: kw[k] for k in ("timer_rate", "timer_batch") if k in kw},
            )
            models = {name: params[name] for name in kw["use"]}
        if "reply" in kw:
            spec = kw["reply"]
            models["reply_model"] = (
                FixedReply(**spec) if "latency" in spec else ProbabilisticReply(**spec)
            )
        if "nar" in kw:
            models["nar"] = kw["nar"]
        out = dataclasses.asdict(BatchSimulator(
            cfg, batch_size=kw["batch_size"], max_outstanding=kw["max_outstanding"], **models
        ).run())
    elif kind == "cmp":
        spec = BENCHMARKS[kw["benchmark"]](kw["instructions"])
        if "blocking_fraction" in kw:
            spec = dataclasses.replace(spec, blocking_fraction=kw["blocking_fraction"])
        res = CmpSystem(
            spec, CmpConfig(network=cfg), timer_interval=kw["timer_interval"], seed=cfg.seed
        ).run()
        out = {
            **dataclasses.asdict(res),
            "nar": res.nar,
            "kernel_fraction": res.kernel_fraction,
            "timer_rate": res.timer_rate,
        }
    elif kind == "characterize":
        out = dataclasses.asdict(characterize(
            BENCHMARKS[kw["benchmark"]](kw["instructions"]), CmpConfig(network=cfg), seed=cfg.seed
        ))
    elif kind == "replay":
        trace = capture_batch_trace(
            cfg.with_(**kw["capture"]),
            batch_size=kw["batch_size"], max_outstanding=kw["max_outstanding"],
        )
        out = dataclasses.asdict(TraceDrivenSimulator(cfg, trace).run())
    elif kind == "network":
        # a bare network fed by hand: Bernoulli uniform-random 1-flit packets
        net = Network(cfg)
        gen = rng_mod.make_generator(cfg.seed, kw["label"])
        pattern = UniformRandom(net.num_nodes)
        lat = []
        for _ in range(kw["cycles"]):
            for src in np.nonzero(gen.random(net.num_nodes) < kw["rate"])[0]:
                src = int(src)
                net.offer(net.make_packet(src, pattern.dest(src, gen), 1))
            lat.extend(pkt.latency for pkt in net.step())
        lat = np.array(lat[len(lat) // 4:])  # drop the warm-up quarter
        out = {"mean": float(lat.mean()), "p99": float(np.percentile(lat, 99))}
    else:
        raise ValueError(f"unknown point kind {kind!r}")
    return {"result": json.loads(json.dumps(out, default=json_default))}


# --- point constructors -------------------------------------------------------

def _point(kind: str, cfg: NetworkConfig, seed: int, **kwargs: Any) -> Point:
    return Point(cfg.with_(seed=seed), seed, {"kind": kind, **kwargs})


def openloop(cfg, rate, windows=OPENLOOP, **kw) -> Point:
    return _point("openloop", cfg, SEED, rate=rate, **windows, **kw)


def zero_load(cfg, windows=OPENLOOP) -> Point:
    return _point("zero_load", cfg, SEED, **windows)


def curve(cfg, rates, windows=OPENLOOP) -> Point:
    return _point("curve", cfg, SEED, rates=list(rates), **windows)


def saturation(cfg, windows=OPENLOOP, *, tolerance=0.02, **kw) -> Point:
    return _point("saturation", cfg, SEED, tolerance=tolerance, **windows, **kw)


def batch(cfg, m, b=BATCH_SIZE, **kw) -> Point:
    return _point("batch", cfg, SEED, batch_size=b, max_outstanding=m, **kw)


def cmp_run(benchmark, tr, instructions, timer_interval, **kw) -> Point:
    return _point(
        "cmp", CMP_NETWORK.with_(router_delay=tr), CMP_SEED,
        benchmark=benchmark, instructions=instructions, timer_interval=timer_interval, **kw,
    )


def _zero_load_and_saturation(cfg, windows=OPENLOOP, tolerance=0.02) -> dict:
    return {"zero_load": zero_load(cfg, windows), "saturation": saturation(cfg, windows, tolerance=tolerance)}


EXEC_3GHZ = {
    (name, tr): cmp_run(name, tr, EXEC_INSTRUCTIONS, TIMER_INTERVAL_3GHZ)
    for name in BENCHMARKS for tr in TR_VALUES
}
EXEC_75MHZ = {
    (name, tr): cmp_run(name, tr, EXEC_INSTRUCTIONS_75MHZ, TIMER_INTERVAL_75MHZ)
    for name in BENCHMARKS for tr in TR_VALUES
}
#: timer-free ideal-network characterization per benchmark (Tables III/IV)
CHARACTERIZATIONS = {
    name: _point("characterize", CMP_NETWORK, CMP_SEED, benchmark=name, instructions=EXEC_INSTRUCTIONS)
    for name in BENCHMARKS
}


def derived_batch(tr: int, characterization: Mapping, use, **timer) -> Point:
    """A Fig. 18/19/22 batch run with the ``use``d parameters of
    ``derive_batch_params``; ``timer`` reaches only the OS model.

    It runs at m=1: in-order cores block on loads, so their effective
    memory-level parallelism is ~1 even with 8 MSHRs (§II-B2), and at m=1
    the NAR model's injection gap and the round trip serialize per
    operation as they do in the core.
    """
    timer = timer if "os_model" in use else {}
    return batch(
        CMP_NETWORK.with_(router_delay=tr), 1,
        characterization=dict(characterization), use=list(use), **timer,
    )


def exec_batch_pairs(exec_records, batch_runtime) -> tuple[np.ndarray, np.ndarray]:
    """(exec, batch) runtime pairs per benchmark × tr, each normalised to
    tr=1 — the axes of Figs. 15, 19 and 22.  ``batch_runtime(name, tr)``."""
    xs, ys = [], []
    for name in BENCHMARKS:
        for tr in TR_VALUES:
            xs.append(exec_records[name, tr]["cycles"] / exec_records[name, 1]["cycles"])
            ys.append(batch_runtime(name, tr) / batch_runtime(name, 1))
    return np.array(xs), np.array(ys)


def batch_vs_openloop(configs, m_values) -> dict:
    """Steps 1-4 of §III-B as data: per (label, m) a batch run, then the
    open-loop run at its achieved load θ (``correlation.batch_vs_openloop``)."""
    return {
        (label, m): {
            "batch": (b := batch(cfg, m)),
            "openloop": Derived(
                lambda rec, cfg=cfg: openloop(cfg, max(min(rec["throughput"], 1.0), 1e-3)), (b,)
            ),
        }
        for m in m_values for label, cfg in configs
    }


def correlation(records, baseline_key, *, worst_case=False):
    """Pearson r of a resolved :func:`batch_vs_openloop` plan, per-m normalised."""
    latency = "worst_node_latency" if worst_case else "avg_latency"
    keys = list(records)
    return correlate(
        [records[k]["openloop"][latency] for k in keys],
        [records[k]["batch"]["runtime"] for k in keys],
        keys=keys,
        groups=[m for _, m in keys],
        baselines=[label == baseline_key for label, _ in keys],
    )


# --- the exhibits ---------------------------------------------------------------

FIG01_LOADS = (0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.38, 0.41, 0.43)
FIG03_LOADS = (0.05, 0.15, 0.25, 0.32, 0.38, 0.42)
TOPOLOGIES = ("mesh", "torus", "ring")
ROUTING = ("dor", "ma", "romm", "val")
FIG17_MODELS = {
    "fixed20": {"latency": 20},
    "fixed50": {"latency": 50},
    "prob 20+0.1*300": {"l2_latency": 20, "memory_latency": 300, "l2_miss_rate": 0.1},
}


def _fig03(label, field, values):
    return {
        f"{label}={v}": {"curve": curve(cfg, FIG03_LOADS), **_zero_load_and_saturation(cfg)}
        for v in values for cfg in [NetworkConfig(**{field: v})]
    }


def _fig04(label, field, values):
    return {(f"{label}={v}", m): batch(NetworkConfig(**{field: v}), m) for v in values for m in M_VALUES}


def _fig09(traffic):
    return {a: _zero_load_and_saturation(NetworkConfig(routing=a, traffic=traffic)) for a in ROUTING}


def _fig10(traffic):
    return {(a, m): batch(NetworkConfig(routing=a, traffic=traffic), m) for a in ROUTING for m in (1, 4, 16)}


def _fig22_batch(tr, interval, with_os):
    def make(ch, ref):
        # timer-batch size = measured handler requests per interrupt per
        # node, from the timed 75 MHz exec runs
        handler_requests = max(1, round(
            ref["requests_by_kind"]["kernel_timer"] / max(1, ref["interrupts"])
            / len(ref["traffic_matrix"])
        ))
        use = ("nar", "reply_model", "os_model") if with_os else ("nar", "reply_model")
        return derived_batch(tr, ch, use, timer_rate=1.0 / interval, timer_batch=handler_requests)
    return make


_BASELINE_BATCH = {
    "exec": EXEC_3GHZ,
    "BA": {tr: batch(CMP_NETWORK.with_(router_delay=tr), 1) for tr in TR_VALUES},
}
_ENHANCED_MODELS = {
    "exec": EXEC_3GHZ,
    "batch": {
        (name, label, tr): Derived(
            lambda ch, tr=tr, use=use: derived_batch(tr, ch, use), (CHARACTERIZATIONS[name],)
        ) if use else _BASELINE_BATCH["BA"][tr]
        for name in BENCHMARKS for label, use in BATCH_VARIANTS.items() for tr in TR_VALUES
    },
}
_CLOCKS = {"3GHz": (TIMER_INTERVAL_3GHZ, EXEC_3GHZ), "75MHz": (TIMER_INTERVAL_75MHZ, EXEC_75MHZ)}

#: Each exhibit's plan, by the name of its harness's test without ``test_``.
EXHIBITS: dict[str, Any] = {
    "ablation_blocking": {
        (frac, tr): cmp_run("canneal", tr, 5000, 0, blocking_fraction=frac)
        for frac in (0.0, 0.5, 1.0) for tr in (1, 8)
    },
    "ablation_credit_delay": {
        (cd, q): saturation(
            NetworkConfig(vc_buffer_size=q, credit_delay=cd), dict(warmup=250, measure=500, drain_limit=2500)
        )
        for cd in (1, 4) for q in (1, 2, 4, 8)
    },
    "ablation_dateline": {
        (topo, mode): _zero_load_and_saturation(NetworkConfig(topology=topo, num_vcs=4, dateline=mode))
        for topo in ("torus", "ring") for mode in ("balanced", "strict")
    },
    "ablation_tracedriven": {
        tr: {
            "replay": _point(
                "replay", NetworkConfig(router_delay=tr), SEED,
                capture={"router_delay": 1}, batch_size=60, max_outstanding=1,
            ),
            "closed": batch(NetworkConfig(router_delay=tr), 1, 60),
        }
        for tr in (1, 2, 4, 8)
    },
    "ext_burstiness": {  # mean burst length in cycles; 1 is the Bernoulli process
        burst: {
            "run": openloop(NetworkConfig(), 0.3, **kw),
            "saturation": saturation(NetworkConfig(), **kw),
        }
        for burst in (1, 20, 80) for kw in [{} if burst == 1 else {"burst_length": burst}]
    },
    "ext_256_nodes_similar_trend": {
        tr: _zero_load_and_saturation(NetworkConfig(k=16, n=2, router_delay=tr), OL_SMALL, 0.03)
        for tr in (1, 2)
    },
    "ext_vc_count": {vcs: _zero_load_and_saturation(NetworkConfig(num_vcs=vcs), OL_SMALL) for vcs in (2, 4)},
    "ext_arbitration_tail_latency": {
        arb: _point("network", NetworkConfig(arbitration=arb), 4, label="arb-ext", rate=0.38, cycles=2500)
        for arb in ("round_robin", "age")
    },
    "fig01_latency_load_curve": {
        "curve": curve(NetworkConfig(), FIG01_LOADS), "saturation": saturation(NetworkConfig())
    },
    "fig02_batch_size": {
        (m, b): batch(NetworkConfig(), m, b) for m in (1, 4, 16) for b in (10, 30, 100, 300, 1000)
    },
    "fig03a_router_delay": _fig03("tr", "router_delay", (1, 2, 4)),
    "fig03b_buffer_size": _fig03("q", "vc_buffer_size", (2, 4, 16, 32)),
    "fig04a_router_delay": _fig04("tr", "router_delay", (1, 2, 4)),
    "fig04b_buffer_size": _fig04("q", "vc_buffer_size", (2, 4, 16)),
    "fig05a_router_delay_correlation": batch_vs_openloop(
        [(f"tr={tr}", NetworkConfig(router_delay=tr)) for tr in (1, 2, 4)], M_VALUES
    ),
    "fig05b_buffer_correlation": {
        f"q={q}": {"saturation": saturation(cfg), "batch": batch(cfg, 32)}
        for q in (1, 2, 4, 16) for cfg in [NetworkConfig(vc_buffer_size=q)]
    },
    "fig06a_openloop": {
        t: _zero_load_and_saturation(NetworkConfig(topology=t, num_vcs=4)) for t in TOPOLOGIES
    },
    "fig06b_batch": {
        (t, m): batch(NetworkConfig(topology=t, num_vcs=4), m) for t in TOPOLOGIES for m in (1, 4, 16, 32)
    },
    "fig07_node_runtime_map": {t: batch(NetworkConfig(topology=t, num_vcs=4), 4) for t in ("mesh", "torus")},
    "fig08_topology_correlation": batch_vs_openloop(
        [(t, NetworkConfig(topology=t, num_vcs=4)) for t in TOPOLOGIES], (1, 2, 4, 8)
    ),
    "fig09a_uniform_random": _fig09("uniform_random"),
    "fig09b_transpose": _fig09("transpose"),
    "fig10a_uniform_random": _fig10("uniform_random"),
    "fig10b_transpose": _fig10("transpose"),
    "fig11_distributions": {
        alg: {"openloop": openloop(cfg, 0.05), "batch": batch(cfg, 1)}
        for alg in ("dor", "val") for cfg in [NetworkConfig(routing=alg, traffic="transpose")]
    },
    "fig13_traffic_matrix": cmp_run("lu", 1, EXEC_INSTRUCTIONS, 0),
    "fig14_execdriven_router_delay": _BASELINE_BATCH,
    "fig15_baseline_correlation": _BASELINE_BATCH,
    "fig16_nar_model": {
        (m, nar, tr): batch(NetworkConfig(router_delay=tr), m, 100, nar=nar)
        for m in (1, 4, 16) for nar in (0.04, 0.12, 0.2, 0.36, 1.0) for tr in (1, 2, 4)
    },
    "fig17_reply_model": {
        (label, m, tr): batch(NetworkConfig(router_delay=tr), m, 100, reply=spec)
        for label, spec in FIG17_MODELS.items() for m in (1, 4, 16) for tr in (1, 2, 4)
    },
    "fig18_enhanced_models": _ENHANCED_MODELS,
    "fig19_enhanced_correlation": _ENHANCED_MODELS,
    "fig20_kernel_traffic": {"75MHz": EXEC_75MHZ, "3GHz": EXEC_3GHZ},
    "fig21_injection_timeline": {
        "75 MHz": EXEC_75MHZ["blackscholes", 1], "3 GHz": EXEC_3GHZ["blackscholes", 1]
    },
    "fig22_os_model_correlation": {
        "exec": {clock: runs for clock, (_, runs) in _CLOCKS.items()},
        "batch": {
            (clock, with_os, name, tr): Derived(
                _fig22_batch(tr, interval, with_os), (CHARACTERIZATIONS[name], EXEC_75MHZ[name, 1])
            )
            for clock, (interval, _) in _CLOCKS.items() for with_os in (False, True)
            for name in BENCHMARKS for tr in TR_VALUES
        },
    },
    "table3_nar": CHARACTERIZATIONS,
    "table4_benchmark_characteristics": {
        "characterization": CHARACTERIZATIONS,
        "exec75": {name: EXEC_75MHZ[name, 1] for name in BENCHMARKS},
    },
}


# --- the session sweep ------------------------------------------------------------

def _leaves(plan):
    if isinstance(plan, (Point, Derived)):
        yield plan
    elif isinstance(plan, dict):
        for value in plan.values():
            yield from _leaves(value)


_SPEC = runner_spec(run_point)


def cache_key(point: Point) -> str:
    """The result-cache key the ledger files ``point``'s record under."""
    config = dataclasses.asdict(point.config)
    return point_key(config, point.kwargs, _SPEC)


def distinct(points) -> dict[str, Point]:
    """``points`` deduplicated by cache key, first declaration first."""
    return {cache_key(p): p for p in points}


def _run_pass(label, points, records, cache, report) -> None:
    unique = {key: p for key, p in distinct(points).items() if key not in records}
    ledger = SweepLedger([p.sweep_point(i) for i, p in enumerate(unique.values())])
    start = time.perf_counter()
    out = run_ledger(ledger, _BASE, run_point, n_workers=os.cpu_count() or 1, cache=cache)
    health = out.health
    report(
        f"exhibits {label}: {health.total} points ({len(points)} declared), "
        f"{health.cache_hits}/{health.total} cache hits, {health.failed} failed, "
        f"wall {time.perf_counter() - start:.1f} s"
    )
    failed = [rec for rec in out if rec.get("failed")]
    if failed:
        raise RuntimeError(f"{len(failed)} exhibit point(s) failed; first: {failed[0]}")
    records.update(zip(unique, out))


def run_exhibits(names, *, cache, report=print) -> dict[str, Any]:
    """Simulate the plans of exhibits ``names`` (plain points, then derived
    ones) and return each plan with every point replaced by its result."""
    plans = {name: EXHIBITS[name] for name in names}
    leaves = [leaf for plan in plans.values() for leaf in _leaves(plan)]
    derived = [leaf for leaf in leaves if isinstance(leaf, Derived)]
    first = [leaf for leaf in leaves if isinstance(leaf, Point)]
    first += [src for d in derived for src in d.sources]
    records: dict[str, dict] = {}
    _run_pass("pass 1", first, records, cache, report)

    def resolve(plan):
        if isinstance(plan, dict):
            return {key: resolve(value) for key, value in plan.items()}
        if isinstance(plan, Derived):
            plan = plan.make(*(resolve(src) for src in plan.sources))
        return records[cache_key(plan)]["result"]

    if derived:
        second = [d.make(*(resolve(src) for src in d.sources)) for d in derived]
        _run_pass("pass 2", second, records, cache, report)
    return {name: resolve(plan) for name, plan in plans.items()}
