#!/usr/bin/env python3
"""The repo benchmark: six workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S]
        [--repeats N | --seconds T] [--trace [0|1]] [--smoke] [--out DIR]

Each workload runs in a fresh subprocess (so ``peak_rss_mb`` is its own):
set-up, one untimed warm-up pass, then the timed passes with tracing off.
``--trace`` adds one pass under timing proxies, from which the per-layer
numbers and ``trace_<workload>.jsonl`` come.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  README.md has the
tables and the protocol for comparing two commits.

Exit status: 0 on a correct run; 1 when simulated statistics mismatch, an
operation failed or a metric is undeclared; 2 on a usage error or a set
``REPRO_*`` switch; 3 when the simulator's sources are not there.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
#: the seed reference.json holds fingerprints for
REFERENCE_SEED = 7
#: switches that change what the simulator does or where it caches; a run
#: made under one of them measures something else
FORBIDDEN_ENV = (
    "REPRO_DISABLE_FAST_FORWARD",
    "REPRO_DEFAULT_BACKEND",
    "REPRO_NO_CACHE",
    "REPRO_CHECK_INVARIANTS",
    "REPRO_CACHE_SALT",
)
#: process starts that ``setup_s`` is the median of
SETUP_STARTS = {"full": 5, "smoke": 2}

import manifest  # noqa: E402  (sibling module; the script's directory is on sys.path)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=manifest.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--repeats", type=int, default=3, help="timed passes per workload")
    parser.add_argument(
        "--seconds", type=float, help="time the passes for this long instead (the driver's way)"
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
        help="add a traced pass and report the per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="self-test sizes")
    parser.add_argument("--out", help="keep result.json and traces here")
    parser.add_argument(
        "--update-reference", action="store_true", help="rewrite reference.json (seed 7)"
    )
    parser.add_argument(
        "--write-manifest", action="store_true", help="rewrite BENCHMARK.json"
    )
    parser.add_argument("--child", choices=("run", "setup", "stats"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--repeats and --seconds must be positive")
    args.size = "smoke" if args.smoke else "full"
    return args


# ---------------------------------------------------------------------------
# child: one workload in its own process
# ---------------------------------------------------------------------------


def load_reference(workload, seed: int, size: str):
    """The committed fingerprint, or None when this seed has none."""
    if workload.seeded and seed != REFERENCE_SEED:
        return None
    return json.loads(REFERENCE.read_text())[size][workload.reference_key]


def child_main(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    scratch = Path(args.out) / f"scratch-{args.workload}-{os.getpid()}"
    workload = workloads.build(args.workload, args.seed, args.size, scratch)
    if args.child == "stats":
        print(json.dumps({"key": workload.reference_key, "stats": workload.run_pass().stats}))
        return 0
    reference = load_reference(workload, args.seed, args.size)
    setup_s = time.time() - args.t0
    if args.child == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    diff = workloads.count_differences
    warm = workload.run_pass()
    budget = args.seconds
    if budget is not None and args.trace:
        budget /= 2  # the traced pass and its probes get the other half
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        if budget is None:
            if len(passes) >= args.repeats:
                break
        elif len(passes) >= 2 and time.perf_counter() - started >= budget:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = [warm, *passes]
    checks = {
        "self": workload.self_check(warm.stats),
        "repeat": sum(diff(warm.stats, p.stats) for p in passes),
        "reference": None if reference is None else diff(warm.stats, reference),
        "cross": None,
        "traced": None,
    }
    if reference is None:
        checks["cross"] = workload.cross_check(warm.stats)

    # wall_s: per unit the fastest of the timed passes, summed.  On a shared
    # box the CPU's speed drifts by tens of percent over minutes; the floor
    # of many short timings moves far less than their median does.
    floors = [min(p.unit_s[u] for p in passes) for u in range(len(warm.unit_s))]
    wall_s = sum(floors)
    totals = [sum(p.unit_s) for p in passes]
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seeded": workload.seeded,
        "size": args.size,
        "setup_s": setup_s,
        "metrics": {
            "wall_s": wall_s,
            "points_per_s": warm.points / wall_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "timing": {
            "pass_s": {
                "median": statistics.median(totals),
                "min": min(totals),
                "max": max(totals),
                "n": len(totals),
            },
            "unit_floor_s": dict(zip(workload.unit_labels, floors)),
        },
        "layers": None,
    }

    if args.trace:
        tracer = Tracer(f"{workload.name}-seed{args.seed}-traced")
        with tracer.span("pass"):
            traced = workload.run_pass(tracer)
        every.append(traced)
        checks["traced"] = diff(warm.stats, traced.stats)
        layers = workload.layer_metrics(tracer, traced)
        layers.update(workload.probes(tracer, traced))
        layers["trace.overhead_frac"] = sum(traced.unit_s) / statistics.median(totals) - 1.0
        layers["sim_cycles_per_s"] = warm.cycles / wall_s
        result["layers"] = layers
        result["timing"]["traced_pass_s"] = tracer.duration(0)
        result["timing"]["self_s_by_span"] = {
            name: agg["self_s"] for name, agg in sorted(tracer.by_name().items())
        }
        tracer.write(Path(args.out) / f"trace_{workload.name}.jsonl")

    attempted = sum(p.points for p in every)
    failed = sum(p.failed for p in every)
    mismatches = sum(v for v in checks.values() if v)
    result.update(
        checks=checks,
        attempted=attempted,
        failed=failed,
        stat_mismatches=mismatches,
        failed_frac=failed / attempted,
        t0_rel_err=workload.accuracy(warm.stats),
        correct=mismatches == 0 and failed == 0,
    )
    if result["layers"] is not None:
        result["layers"].update(
            stat_mismatches=mismatches,
            failed_frac=result["failed_frac"],
            t0_rel_err=result["t0_rel_err"] or 0.0,
        )
    shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# parent: start the children, print, write
# ---------------------------------------------------------------------------


def start_child(mode: str, workload: str, args, out: Path) -> dict:
    """Run one child to completion; its last stdout line is its JSON result."""
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--child", mode, "--workload", workload,
        "--seed", str(args.seed), "--repeats", str(args.repeats),
        "--trace", str(args.trace), "--out", str(out), "--t0", repr(time.time()),
    ]
    if args.seconds is not None:
        cmd += ["--seconds", repr(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} ({mode}) exited with status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, out: Path) -> dict:
    starts = [
        start_child("setup", name, args, out)["setup_s"]
        for _ in range(SETUP_STARTS[args.size] - 1)
    ]
    result = start_child("run", name, args, out)
    starts.append(result.pop("setup_s"))
    result["metrics"]["setup_s"] = statistics.median(starts)
    result["timing"]["setup_starts_s"] = starts
    return result


def declared(values: dict, units: dict) -> dict:
    """``values`` under exactly the declared names, each with its unit."""
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise KeyError(f"undeclared metrics: {unknown}")
    return {
        name: {"value": float(values.get(name) or 0.0), "unit": unit}
        for name, unit in units.items()
    }


def report(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  size {result['size']} ==")
    passes = result["timing"]["pass_s"]
    print(
        f"  timed passes: n={passes['n']} median {passes['median']:.4f} s "
        f"min {passes['min']:.4f} s max {passes['max']:.4f} s"
    )
    for group in ("end_to_end", "per_layer"):
        for name, m in (result[group] or {}).items():
            print(f"  {name:<30} {m['value']:>16.6g} {m['unit']}")
    if result["per_layer"] is None:  # else these three were printed above
        for name in ("failed_frac", "stat_mismatches", "t0_rel_err"):
            value = result[name]
            print(f"  {name:<30} {'n/a' if value is None else format(value, '>16.6g')}")
    print(f"  checks (fields differing): {result['checks']}")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.child:
        return child_main(args)
    if args.write_manifest:
        text = json.dumps(manifest.build_manifest(), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        print(f"wrote {ROOT / 'BENCHMARK.json'}")
        return 0
    set_switches = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if set_switches:
        print(f"refusing to measure with {', '.join(set_switches)} set", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"the simulator's sources are not at {SRC}", file=sys.stderr)
        return 3
    # Byte-compile up front so no start pays for it inside setup_s.
    compileall.compile_dir(str(SRC / "repro"), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)

    keep = args.out is not None
    if keep:
        out = Path(args.out).resolve()
        out.mkdir(parents=True, exist_ok=True)
    else:
        holder = ROOT / ".bench_e2e"
        holder.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="run-", dir=holder))
    try:
        if args.update_reference:
            return update_reference(args, out)
        print(f"output directory: {out}" + ("" if keep else " (temporary; --out DIR keeps it)"))
        names = [args.workload] if args.workload else list(manifest.WORKLOAD_NAMES)
        results = []
        for name in names:
            result = run_workload(name, args, out)
            result["end_to_end"] = declared(result.pop("metrics"), manifest.END_TO_END_UNITS)
            layers = result.pop("layers")
            result["per_layer"] = (
                None if layers is None else declared(layers, manifest.PER_LAYER_UNITS)
            )
            report(result)
            results.append(result)
        summary = {
            "command": [*manifest.COMMAND, *(sys.argv[1:] if argv is None else argv)],
            "workloads": results,
            "claim": None,
        }
        (out / "result.json").write_text(json.dumps(summary, indent=1) + "\n")
    except (RuntimeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if not keep:
            shutil.rmtree(out, ignore_errors=True)

    group = "per_layer" if args.trace else "end_to_end"
    if len(results) == 1:
        metrics = results[0][group]
    else:
        metrics = {
            f"{r['workload']}.{name}": m for r in results for name, m in r[group].items()
        }
    last = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(last))
    return 0 if last["correct"] else 1


def update_reference(args, out: Path) -> int:
    """Rewrite reference.json from one pass per workload and size at seed 7."""
    import workloads  # noqa: F401  (SIZES only; nothing of repro is imported here)

    args.seed = REFERENCE_SEED
    reference: dict = {"seed": REFERENCE_SEED}
    for size in workloads.SIZES:
        args.smoke = size == "smoke"
        entries: dict = {}
        for name in manifest.WORKLOAD_NAMES:
            reply = start_child("stats", name, args, out)
            if entries.setdefault(reply["key"], reply["stats"]) != reply["stats"]:
                raise RuntimeError(f"{name} disagrees with the entry it shares ({reply['key']})")
            print(f"{size}/{name}: recorded")
        reference[size] = entries
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
