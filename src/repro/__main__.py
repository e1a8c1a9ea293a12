"""Command-line interface: quick experiments without writing a script.

Examples::

    python -m repro openloop --rate 0.2
    python -m repro sweep --rates 0.05,0.15,0.25,0.35,0.42
    python -m repro sweep --rates 0.05,0.2 --axis router-delay=1,2,4 \\
        --workers 4 --journal sweep.jsonl --resume --progress
    python -m repro saturation --topology torus --num-vcs 4
    python -m repro batch -b 200 -m 4 --router-delay 2
    python -m repro batch -b 100 -m 1 --nar 0.05 --reply prob:20:300:0.1
    python -m repro cmp --benchmark lu --router-delay 4 --clock 75mhz
    python -m repro characterize --benchmark all
    python -m repro serve --port 7421 --cache &
    python -m repro worker localhost:7421 &
    python -m repro submit localhost:7421 --rates 0.05,0.2

Every simulating command takes one flag per Table I knob of
:class:`~repro.config.NetworkConfig` (``_NETWORK_FLAGS``) and prints a
plain-text result.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

from . import __version__
from .analysis import format_records, format_table, probe_heatmap
from .config import FIELD_CHOICES, CmpConfig, NetworkConfig
from .core.resilience import InvariantChecker, SimulationStalled, Watchdog

if TYPE_CHECKING:  # pragma: no cover
    from .core.engine import Observer
    from .core.parallel import SweepProgress
    from .core.reply import ReplyModel

__all__ = ["main"]

# Building the parser and dispatching need config-level data only: each
# command imports its drivers (and with them numpy and the simulator) in its
# handler, so ``--help``, ``cache``, ``serve``, ``submit`` and an idle
# ``worker`` start without them.


class _ProbeNamesHelp(str):
    """Help text naming :data:`~repro.core.probes.PROBE_REGISTRY`'s probes.

    argparse expands a help string as ``help % params`` when it prints it;
    the registry is read then, so building the parser imports no probe code.
    """

    def __mod__(self, params: Any) -> str:
        from .core.probes import PROBE_REGISTRY

        return str.__mod__(self, {**params, "probe_names": ",".join(PROBE_REGISTRY)})


def _add_observer_args(p: argparse.ArgumentParser) -> None:
    """The flags :func:`_observers` reads."""
    p.add_argument(
        "--probes",
        default=None,
        metavar="NAMES",
        help=_ProbeNamesHelp(
            "enable instrumentation probes: comma-separated from "
            "{%(probe_names)s} or 'all'"
        ),
    )
    p.add_argument(
        "--probe-interval",
        type=int,
        default=100,
        help="probe aggregation window in cycles (default 100)",
    )
    p.add_argument(
        "--probe-out",
        default=None,
        metavar="PATH",
        help="stream probe records to this JSON-lines file as they flush",
    )
    p.add_argument(
        "--watchdog",
        type=int,
        default=None,
        metavar="CYCLES",
        help="stall watchdog window: abort with a diagnosis after this many "
        "cycles without forward progress",
    )
    p.add_argument(
        "--check-invariants",
        action="store_true",
        help="assert flit/credit conservation periodically (slow; debugging)",
    )


def _observers(args) -> tuple[Observer, ...]:
    """The engine observers ``--probes``, ``--watchdog`` and
    ``--check-invariants`` ask for, in that order."""
    observers: list[Observer] = []
    if args.probes:
        from .core.probes import ProbeSet, build_probes

        observers.append(
            ProbeSet(build_probes(args.probes), interval=args.probe_interval, out=args.probe_out)
        )
    if args.watchdog is not None:
        observers.append(Watchdog(window=args.watchdog))
    if args.check_invariants:
        observers.append(InvariantChecker())
    return tuple(observers)


def _report_probes(args, observers: tuple) -> None:
    """Summarize the records of the :class:`ProbeSet` :func:`_observers` built."""
    if not args.probes:
        return
    from .core.probes import ProbeSet

    (probes,) = [obs for obs in observers if isinstance(obs, ProbeSet)]
    records = probes.records
    print(f"probes: {len(records)} window records", end="")
    if args.probe_out is not None:
        print(f" -> {args.probe_out}", end="")
    print()
    if records and "per_node_ejected" in records[0]:
        print(probe_heatmap(records, field="per_node_ejected"))


#: NetworkConfig's fields by name: a flag's and an axis value's type and
#: default are read off the field.
_FIELDS = {f.name: f for f in dataclasses.fields(NetworkConfig)}

#: The network flags, one per NetworkConfig field, with the add_argument
#: keywords the field cannot supply (an alias, help).  Type and default come
#: from the field and choices from FIELD_CHOICES; a field without a scalar
#: default (classes) is a spec string defaulting to None.
_NETWORK_FLAGS: dict[str, dict[str, Any]] = {
    "topology": {},
    "k": {},
    "n": {},
    "num_vcs": {},
    "vc_buffer_size": {"aliases": ("-q",)},
    "router_delay": {"aliases": ("--tr",)},
    "routing": {},
    "arbitration": {},
    "classes": {
        "help": "traffic-class registry: a count (e.g. '2') or '+'-separated "
        "entries 'name[:priority=P][:weight=W][:share=S][:pattern=T]', "
        "e.g. 'user:share=3+os:priority=1' (default: one class); pair "
        "with --arbitration priority|weighted; also sweepable via "
        "--axis classes=SPEC1,SPEC2"
    },
    "traffic": {},
    "packet_size": {},
    "backend": {
        "help": "network implementation: per-flit Python objects (reference) "
        "or the struct-of-arrays numpy backend (bit-identical, much faster "
        "at scale; rejects credit_delay=0 configs)"
    },
    "seed": {},
}


def _add_network_args(p: argparse.ArgumentParser, *names: str) -> None:
    """Attach the network flags of ``names`` (default: all of them)."""
    for name in names or _NETWORK_FLAGS:
        kw = dict(_NETWORK_FLAGS[name])
        flags = ("--" + name.replace("_", "-"), *kw.pop("aliases", ()))
        default = _FIELDS[name].default
        if isinstance(default, (int, float, str)):
            kw = {"type": type(default), "default": default,
                  "choices": FIELD_CHOICES.get(name), **kw}
        else:
            kw = {"default": None, "metavar": "SPEC", **kw}
        p.add_argument(*flags, **kw)


def _network_config(args: argparse.Namespace) -> NetworkConfig:
    return NetworkConfig(**{name: getattr(args, name) for name in _NETWORK_FLAGS})


def _parse_reply(spec: str) -> ReplyModel:
    """Parse ``immediate``, ``fixed:<L>`` or ``prob:<l2>:<mem>:<missrate>``."""
    from .core.reply import FixedReply, ImmediateReply, ProbabilisticReply

    parts = spec.split(":")
    if parts[0] == "immediate":
        return ImmediateReply()
    if parts[0] == "fixed":
        return FixedReply(int(parts[1]))
    if parts[0] == "prob":
        return ProbabilisticReply(int(parts[1]), int(parts[2]), float(parts[3]))
    raise argparse.ArgumentTypeError(f"bad reply model {spec!r}")


def _cmd_openloop(args) -> int:
    from .core.openloop import OpenLoopSimulator

    cfg = _network_config(args)
    observers = _observers(args)
    sim = OpenLoopSimulator(
        cfg,
        warmup=args.warmup,
        measure=args.measure,
        drain_limit=args.drain,
        observers=observers,
    )
    res = sim.run(args.rate)
    print(
        f"offered {res.injection_rate}: avg latency "
        f"{res.avg_latency:.2f} cycles (worst node {res.worst_node_latency:.2f}), "
        f"throughput {res.throughput:.4f}, saturated={res.saturated}, "
        f"{res.num_measured} packets measured"
    )
    if res.num_classes > 1:
        for cls, stats, tp in zip(
            cfg.classes, res.per_class_stats(), res.per_class_throughput
        ):
            print(
                f"  class {cls.name} (prio {cls.priority}, weight "
                f"{cls.weight}): avg latency {stats.mean:.2f}, p99 "
                f"{stats.p99:.2f}, throughput {tp:.4f}, "
                f"{stats.count} packets"
            )
    _report_probes(args, observers)
    return 0


def _count_or_spec(value: str) -> int | str:
    """A spec field's value (``classes``): a count or a spec."""
    try:
        return int(value)
    except ValueError:
        return value


def _parse_axis(spec: str) -> tuple[str, tuple]:
    """Parse a ``--axis``/``--gene`` ``name=v1,v2,...`` spec.

    Each value is typed by the NetworkConfig field it sets, so ``1`` and
    ``1.0`` are one coordinate of a float field, and ``2.5`` for an
    integer field is a parse error rather than a truncated config.
    """
    name, sep, values = spec.partition("=")
    if not sep or not name or not values:
        raise argparse.ArgumentTypeError(
            f"bad axis {spec!r} (expected name=value,value,...)"
        )
    name = name.replace("-", "_")
    if name not in _FIELDS:
        raise argparse.ArgumentTypeError(f"unknown config field {name!r} in {spec!r}")
    default = _FIELDS[name].default
    parse = type(default) if isinstance(default, (int, float, str)) else _count_or_spec
    try:
        return name, tuple(parse(v) for v in values.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{name} takes {parse.__name__} values, got {values!r}"
        ) from None


#: The flags of the commands that run sweep points (sweep, explore,
#: submit), each declared once; a command attaches the ones it takes.
_EXECUTOR_FLAGS: dict[str, dict[str, Any]] = {
    "--rates": dict(required=True, help="comma-separated offered loads"),
    "--axis": dict(
        action="append", type=_parse_axis, metavar="NAME=V1,V2,...",
        help="sweep a config field too (repeatable), e.g. --axis "
        "router-delay=1,2,4; values are typed by the field",
    ),
    "--workers": dict(type=int, default=1, help="process-pool size (1 = serial)"),
    "--journal": dict(help="JSON-lines checkpoint, one line per point"),
    "--resume": dict(
        action="store_true", help="skip what --journal holds instead of starting fresh"
    ),
    "--force-resume": dict(
        action="store_true", help="resume even when the journal's fingerprint "
        "(config x axes x code version) no longer matches",
    ),
    "--remote": dict(
        metavar="HOST:PORT", help="run the points on the distributed service at "
        "this address instead of locally (see 'repro serve' / 'repro worker')",
    ),
    "--progress": dict(action="store_true", help="print per-point rate/ETA to stderr"),
    "--point-timeout": dict(
        type=float, metavar="SECONDS",
        help="kill points that run longer than this (parallel mode)",
    ),
    "--max-retries": dict(
        type=int, default=2, help="retry transient point failures (worker deaths, "
        "expired leases) up to this many times (default 2)",
    ),
    "--cache": dict(
        nargs="?", const="", metavar="DIR",
        help="reuse identical (config, seed) points from a content-addressed "
        "result cache (default dir: $REPRO_CACHE_DIR or .repro-cache); "
        "REPRO_NO_CACHE=1 bypasses it",
    ),
}


def _add_executor_args(p: argparse.ArgumentParser, *flags: str) -> None:
    """Attach the executor flags ``flags`` (default: all of them)."""
    for flag in flags or _EXECUTOR_FLAGS:
        p.add_argument(flag, **_EXECUTOR_FLAGS[flag])


def _openloop_runner(cfg, *, rate, warmup, measure, drain_limit):
    """Module-level sweep runner (picklable for the process pool)."""
    from .core.openloop import OpenLoopSimulator

    sim = OpenLoopSimulator(cfg, warmup=warmup, measure=measure, drain_limit=drain_limit)
    res = sim.run(rate)
    record = {
        "latency": res.avg_latency,
        "worst_node": res.worst_node_latency,
        "throughput": res.throughput,
        "saturated": res.saturated,
    }
    if res.num_classes > 1:
        # Per-class views, JSON-native so sweep journals round-trip.
        record["class_names"] = [c.name for c in cfg.classes]
        record["class_latency"] = [
            s.mean if s.count else None for s in res.per_class_stats()
        ]
        record["class_throughput"] = res.per_class_throughput.tolist()
    return record


def _print_progress(p: SweepProgress) -> None:
    eta = f"{p.eta:.0f}s" if p.eta != float("inf") else "?"
    print(
        f"  [{p.done}/{p.total}] {p.rate:.2f} points/s, ETA {eta}"
        + (f", {p.failed} failed" if p.failed else ""),
        file=sys.stderr,
    )


def _cache_dir(args) -> str | Path | None:
    """``--cache``: None when absent, the default directory when bare."""
    if args.cache is None:
        return None
    from .core.cache import default_cache_dir

    return args.cache or default_cache_dir()


def _cmd_sweep(args) -> int:
    cfg = _network_config(args)
    rates = tuple(float(r) for r in args.rates.split(","))
    axes = dict(args.axis or [])
    if args.resume and not args.journal:
        print("--resume requires --journal", file=sys.stderr)
        return 2
    runner = functools.partial(
        _openloop_runner, warmup=args.warmup, measure=args.measure, drain_limit=args.drain
    )
    shared: dict[str, Any] = dict(
        journal=args.journal,
        resume=args.resume,
        resume_force=args.force_resume,
        progress=_print_progress if args.progress else None,
        max_retries=args.max_retries,
    )
    # Under --remote the controller owns execution: pool width, point
    # timeouts and the shared cache are its configuration, not the client's.
    local: dict[str, Any] = dict(
        n_workers=args.workers, point_timeout=args.point_timeout, cache=_cache_dir(args)
    )
    try:
        if args.remote:
            from .service import run_remote_sweep

            records = run_remote_sweep(
                args.remote, cfg, axes, runner, extra_axes={"rate": rates}, **shared
            )
        else:
            from .core.parallel import run_sweep

            records = run_sweep(
                cfg, axes, runner, extra_axes={"rate": rates}, **shared, **local
            )
    except ValueError as exc:  # bad n_workers, journal/axes mismatch, ...
        print(f"sweep error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:  # remote mode: refused/error reply
        print(f"service error: {exc}", file=sys.stderr)
        return 2
    columns = list(axes) + ["rate", "latency", "throughput", "saturated"]
    if any(r.get("failed") for r in records):
        columns.append("error")
    print(format_records(records, columns))
    print(f"health: {records.health.summary()}", file=sys.stderr)
    return 0 if records.health.failed == 0 else 1


def _explore_spec(args):
    """Resolve the CLI flags into a (config, ExploreSpec) pair: the profile
    (``ExploreSpec()`` or ``QUICK_SPEC``) with each flag given laid over it."""
    from .core.explore import QUICK_SPEC, DesignSpace, ExploreSpec

    cfg = _network_config(args)
    spec = QUICK_SPEC if args.quick else ExploreSpec()
    if args.quick:
        cfg = cfg.with_(k=4, n=2)
    space = spec.space.as_mapping()
    for name, values in args.gene or []:
        space[name] = list(values)
    given = dict(
        population=args.population,
        generations=args.generations,
        rates=None if args.rates is None else tuple(float(r) for r in args.rates.split(",")),
        warmup=args.warmup,
        measure=args.measure,
        drain_limit=args.drain,
    )
    return cfg, dataclasses.replace(
        spec,
        space=DesignSpace.from_mapping(space),
        seed=args.seed,
        objectives=tuple(args.objectives.split(",")),
        **{k: v for k, v in given.items() if v is not None},
    )


def _write_explore_outputs(out_dir, result, spec) -> tuple[str, str]:
    """Write front JSONL + ASCII figure under ``out_dir``; return the paths."""
    from .analysis.io import canonical_json
    from .analysis.pareto import pareto_plot

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    front_path = out / "explore_front.jsonl"
    with front_path.open("w", encoding="utf-8") as fh:
        for rec in result.front:
            fh.write(canonical_json(rec) + "\n")
    fig = pareto_plot(
        result.front,
        x="cost",
        y="latency",
        title=f"pareto front ({len(result.front)} designs, "
        f"objectives {'/'.join(spec.objectives)})",
    )
    fig_path = out / "explore_front.txt"
    fig_path.write_text(fig + "\n", encoding="utf-8")
    return str(front_path), str(fig_path)


def _cmd_explore(args) -> int:
    from .core.explore import explore

    try:
        cfg, spec = _explore_spec(args)
        result = explore(
            cfg,
            spec,
            n_workers=args.workers,
            cache=_cache_dir(args),
            remote=args.remote,
            max_retries=args.max_retries,
            point_timeout=args.point_timeout,
            log=lambda msg: print(f"explore: {msg}", file=sys.stderr),
        )
    except ValueError as exc:
        print(f"explore error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:  # remote mode: refused/error reply
        print(f"service error: {exc}", file=sys.stderr)
        return 2
    columns = list(spec.space.names) + list(spec.objectives) + ["generation"]
    print(format_records(result.front, columns))
    if args.out:
        front_path, fig_path = _write_explore_outputs(args.out, result, spec)
        print(f"front -> {front_path}\nfigure -> {fig_path}", file=sys.stderr)
    else:
        from .analysis.pareto import pareto_plot

        print(pareto_plot(result.front))
    print(f"explore: {result.summary()}", file=sys.stderr)
    return 1 if result.errors else 0


def _cmd_saturation(args) -> int:
    from .core.openloop import OpenLoopSimulator

    cfg = _network_config(args)
    sim = OpenLoopSimulator(
        cfg, warmup=args.warmup, measure=args.measure, drain_limit=args.drain
    )
    t0 = time.perf_counter()
    sat = sim.saturation_throughput(tolerance=args.tolerance)
    print(
        f"saturation throughput: {sat:.4f} flits/cycle/node "
        f"({time.perf_counter() - t0:.1f}s)"
    )
    return 0


def _cmd_batch(args) -> int:
    from .core.barrier import BarrierSimulator
    from .core.closedloop import BatchSimulator

    # flag, BatchSimulator keyword, value (None = not given)
    given = [
        (flag, name, value)
        for flag, name, value in (
            ("--nar", "nar", args.nar),
            ("--reply", "reply_model", args.reply),
            ("-m", "max_outstanding", args.max_outstanding),
        )
        if value is not None
    ]
    if args.barrier and given:
        print(
            f"batch --barrier does not take {', '.join(g[0] for g in given)}: the "
            "barrier model has no NAR, reply model or outstanding-request limit",
            file=sys.stderr,
        )
        return 2
    cfg = _network_config(args)
    observers = _observers(args)
    if args.barrier:
        res = BarrierSimulator(cfg, batch_size=args.batch_size, observers=observers).run()
        print(
            f"barrier model: runtime {res.runtime}, throughput "
            f"{res.throughput:.4f}, completed={res.completed}"
        )
        _report_probes(args, observers)
        return 0
    res = BatchSimulator(
        cfg,
        batch_size=args.batch_size,
        observers=observers,
        **{name: value for _, name, value in given},
    ).run()
    print(
        f"batch model (b={args.batch_size}, m={res.max_outstanding}): "
        f"runtime T={res.runtime} (T/b={res.normalized_runtime:.2f}), "
        f"theta={res.throughput:.4f}, avg request latency "
        f"{res.avg_request_latency:.1f}, completed={res.completed}"
    )
    _report_probes(args, observers)
    return 0


def _cmd_cmp(args) -> int:
    from .execdriven import (
        BENCHMARKS,
        TIMER_INTERVAL_3GHZ,
        TIMER_INTERVAL_75MHZ,
        CmpSystem,
    )

    interval = {
        "off": 0,
        "3ghz": TIMER_INTERVAL_3GHZ,
        "75mhz": TIMER_INTERVAL_75MHZ,
    }[args.clock]
    spec = BENCHMARKS[args.benchmark](args.instructions)
    cfg = CmpConfig()  # Table II, with the router delay given
    cfg = cfg.with_(network=cfg.network.with_(router_delay=args.router_delay))
    res = CmpSystem(
        spec, cfg, ideal=args.ideal, timer_interval=interval, seed=args.seed
    ).run()
    print(
        f"{args.benchmark} on {'ideal' if args.ideal else '4x4 mesh'} "
        f"(tr={args.router_delay}, clock={args.clock}): {res.cycles} cycles, "
        f"NAR {res.nar:.4f}, L2 miss {res.l2_miss_rate:.3f}, kernel share "
        f"{res.kernel_fraction:.2f}, {res.interrupts} interrupts, "
        f"completed={res.completed}"
    )
    return 0


def _cmd_characterize(args) -> int:
    from .execdriven import BENCHMARKS, characterize

    names = list(BENCHMARKS) if args.benchmark == "all" else [args.benchmark]
    rows = []
    for name in names:
        ch = characterize(BENCHMARKS[name](args.instructions), seed=args.seed)
        rows.append(
            [name, ch.ideal_cycles, ch.nar, ch.user_nar, ch.user_l2_miss,
             ch.os_l2_miss, ch.static_kernel_fraction]
        )
    print(
        format_table(
            ["benchmark", "ideal_cycles", "NAR", "user_NAR", "user_L2miss",
             "os_L2miss", "static_kernel"],
            rows,
            precision=3,
        )
    )
    return 0


def _cmd_submit(args) -> int:
    # ``repro submit HOST:PORT`` is ``repro sweep --remote HOST:PORT`` with
    # the local-executor knobs pinned off (the subparser's set_defaults);
    # one implementation, two spellings.
    args.remote = args.address
    return _cmd_sweep(args)


def _cmd_serve(args) -> int:
    from .service import Controller, ControllerServer, ServiceOptions

    cache = _cache_dir(args)
    options = ServiceOptions(
        lease_seconds=args.lease_seconds,
        heartbeat_timeout=args.heartbeat_timeout,
        quarantine_after=args.quarantine_after,
        quarantine_seconds=args.quarantine_seconds,
        fallback_after=None if args.no_fallback else args.fallback_after,
        fallback_workers=args.fallback_workers,
    )
    server = ControllerServer(
        Controller(options, cache=cache), host=args.host, port=args.port
    )
    host, port = server.address  # bound (and listening) at construction
    print(f"sweep service on {host}:{port}" + (f" (cache: {cache})" if cache else ""))
    server.serve_forever()
    return 0


def _cmd_worker(args) -> int:
    from .service import VersionMismatch, Worker, parse_address

    host, port = parse_address(args.address)
    worker = Worker(
        host,
        port,
        name=args.name,
        max_points=args.max_points,
        max_idle=args.max_idle,
        log=lambda line: print(f"worker: {line}", file=sys.stderr),
    )
    try:
        done = worker.run()
    except KeyboardInterrupt:
        done = worker.points_done
    except VersionMismatch as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 1
    print(f"worker executed {done} point{'s' if done != 1 else ''}")
    return 0


def _cmd_cache(args) -> int:
    from .core.cache import (
        ResultCache,
        cache_salt,
        default_cache_dir,
        verify_entries,
    )

    cache_dir = args.dir or default_cache_dir()
    cache = ResultCache(cache_dir)
    if args.action == "stats":
        totals = cache.cumulative_stats()
        contexts: dict[str, int] = {}
        for entry in cache.entries():
            ctx = str(entry.get("context") or "?")
            contexts[ctx] = contexts.get(ctx, 0) + 1
        print(f"cache {cache.path}")
        print(f"  salt     {cache_salt()[:16]}")
        print(f"  entries  {len(cache)}")
        print(f"  bytes    {cache.total_bytes}")
        for name in ("hits", "misses", "writes"):
            print(f"  {name:<8} {int(totals.get(name, 0))}")
        for ctx in sorted(contexts):
            print(f"  context  {ctx}: {contexts[ctx]} entries")
        return 0
    if args.action == "verify":
        if len(cache) == 0:
            print("cache is empty; nothing to verify")
            return 0
        results = verify_entries(cache, sample=args.sample, seed=args.seed)
        counts = {"ok": 0, "skipped": 0, "mismatch": 0}
        for res in results:
            print(f"  {res.key[:16]} {res.status}" + (f": {res.detail}" if res.detail else ""))
            counts[res.status] += 1
        print(f"verified {len(results)} sampled entr{'y' if len(results) == 1 else 'ies'}: "
              f"{counts['ok']} ok, {counts['skipped']} skipped, "
              f"{counts['mismatch']} mismatch(es)")
        # a sample that re-ran nothing checked nothing: fail it like a mismatch
        return 1 if counts["mismatch"] or not counts["ok"] else 0
    # gc
    if args.max_bytes is None:
        print("cache gc requires --max-bytes", file=sys.stderr)
        return 2
    res = cache.gc(args.max_bytes)
    print(
        f"gc: kept {res.kept}, dropped {res.dropped} "
        f"({res.bytes_before} -> {res.bytes_after} bytes)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="On-Chip Network Evaluation Framework (SC 2010) CLI",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def openloop_args(p, warmup=500, measure=1000, drain=10000):
        _add_network_args(p)
        p.add_argument("--warmup", type=int, default=warmup)
        p.add_argument("--measure", type=int, default=measure)
        p.add_argument("--drain", type=int, default=drain)

    p = sub.add_parser("openloop", help="one open-loop measurement point")
    openloop_args(p)
    p.add_argument("--rate", type=float, required=True, help="flits/cycle/node")
    _add_observer_args(p)
    p.set_defaults(func=_cmd_openloop)

    p = sub.add_parser(
        "sweep", help="latency-load curve / design-space sweep (parallel, resumable)"
    )
    openloop_args(p)
    _add_executor_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "explore",
        help="NSGA-II Pareto search over the design space "
        "(latency / throughput / cost)",
    )
    openloop_args(p, None, None, None)  # unset windows: the profile's
    p.add_argument(
        "--quick",
        action="store_true",
        help="pinned quick profile: 4x4 network, small space/windows, "
        "population 8 x 3 generations (the CI-gated configuration)",
    )
    p.add_argument(
        "--population", type=int, default=None, help="population size per generation"
    )
    p.add_argument(
        "--generations", type=int, default=None, help="number of NSGA-II generations"
    )
    p.add_argument(
        "--gene", **{**_EXECUTOR_FLAGS["--axis"], "help": "override/add a "
        "design-space gene (repeatable), e.g. --gene num-vcs=2,4,8"},
    )
    p.add_argument(
        "--objectives",
        default="latency,throughput,cost",
        metavar="NAMES",
        help="ordered subset of latency,throughput,cost (default: all three)",
    )
    p.add_argument(
        "--rates",
        default=None,
        metavar="LO,HI",
        help="evaluation rates: latency read at LO, throughput at HI",
    )
    _add_executor_args(
        p, "--workers", "--remote", "--point-timeout", "--max-retries", "--cache",
    )
    p.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write explore_front.jsonl + explore_front.txt here",
    )
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("saturation", help="bisect the saturation throughput")
    openloop_args(p)
    p.add_argument("--tolerance", type=float, default=0.01)
    p.set_defaults(func=_cmd_saturation)

    p = sub.add_parser("batch", help="closed-loop batch (or barrier) model")
    _add_network_args(p)
    p.add_argument("-b", "--batch-size", type=int, default=1000)
    p.add_argument(
        "-m",
        "--max-outstanding",
        type=int,
        default=None,
        help="outstanding requests per node (default 1)",
    )
    p.add_argument("--nar", type=float, default=None, help="enhanced injection rate")
    p.add_argument(
        "--reply",
        type=_parse_reply,
        default=None,
        help="reply model: immediate | fixed:<L> | prob:<l2>:<mem>:<miss>",
    )
    p.add_argument("--barrier", action="store_true", help="use the barrier model")
    _add_observer_args(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("cmp", help="execution-driven CMP run")
    p.add_argument(
        "--benchmark",
        default="blackscholes",
        choices=("blackscholes", "lu", "canneal", "fft", "barnes"),
    )
    p.add_argument("--instructions", type=int, default=10000)
    _add_network_args(p, "router_delay")
    p.add_argument("--clock", default="3ghz", choices=("off", "3ghz", "75mhz"))
    p.add_argument("--ideal", action="store_true", help="run on the ideal network")
    _add_network_args(p, "seed")
    p.set_defaults(func=_cmd_cmp)

    p = sub.add_parser("characterize", help="Table III/IV characterization")
    p.add_argument("--benchmark", default="all")
    p.add_argument("--instructions", type=int, default=10000)
    _add_network_args(p, "seed")
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser(
        "serve", help="run the distributed sweep-service controller"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421, help="0 = ephemeral")
    p.add_argument(
        "--cache",
        nargs="?",
        const="",
        default=None,
        metavar="DIR",
        help="shared content-addressed result store: hits are answered "
        "without dispatching, worker results are written back "
        "(default dir: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p.add_argument(
        "--lease-seconds",
        type=float,
        default=60.0,
        help="seconds a worker owns a point before it is re-queued (default 60)",
    )
    p.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=10.0,
        help="seconds of worker silence before its leases re-queue (default 10)",
    )
    p.add_argument(
        "--quarantine-after",
        type=int,
        default=3,
        help="consecutive lease failures before a worker is quarantined",
    )
    p.add_argument(
        "--quarantine-seconds",
        type=float,
        default=30.0,
        help="seconds a quarantined worker is refused new leases",
    )
    p.add_argument(
        "--fallback-after",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="run queued work on the controller itself after this long with "
        "no live workers (default 15)",
    )
    p.add_argument(
        "--no-fallback",
        action="store_true",
        help="never execute locally; queued work waits for workers forever",
    )
    p.add_argument(
        "--fallback-workers",
        type=int,
        default=1,
        help="process-pool size of the local fallback executor (default 1)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("worker", help="run one sweep-service worker daemon")
    p.add_argument("address", metavar="HOST:PORT", help="controller address")
    p.add_argument("--name", default=None, help="worker name (default: host-derived)")
    p.add_argument(
        "--max-points",
        type=int,
        default=None,
        help="exit after executing this many points (batch schedulers)",
    )
    p.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long with no work available",
    )
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "submit", help="submit a sweep to a running service (remote 'sweep')"
    )
    openloop_args(p)
    p.add_argument("address", metavar="HOST:PORT", help="controller address")
    _add_executor_args(
        p, "--rates", "--axis", "--journal", "--resume", "--force-resume",
        "--progress", "--max-retries",
    )
    p.set_defaults(func=_cmd_submit, workers=1, point_timeout=None, cache=None)

    p = sub.add_parser(
        "cache", help="content-addressed result cache: stats, verify, gc"
    )
    p.add_argument(
        "action",
        choices=("stats", "verify", "gc"),
        help="stats: counters and store size; verify: re-run sampled entries "
        "and diff bit-for-bit (exit 1 on a mismatch, or if none could re-run); "
        "gc: evict oldest entries past --max-bytes",
    )
    p.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR or .repro-cache)",
    )
    p.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="gc: shrink the store under this many bytes (oldest evicted first)",
    )
    p.add_argument(
        "--sample", type=int, default=1, help="verify: how many entries to re-run"
    )
    p.add_argument(
        "--seed", type=int, default=0, help="verify: sampling seed (deterministic)"
    )
    p.set_defaults(func=_cmd_cache)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        # Config/plan validation errors are user errors, not tracebacks.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationStalled as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
