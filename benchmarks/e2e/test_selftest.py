"""Self-test of the benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs the benchmark at ``--smoke`` sizes through its command line, the way
CI and the driver would, and checks what it printed and wrote.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import manifest  # noqa: E402
import run as runner  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, env=None, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def last_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke --trace`` run of all six workloads."""
    out = tmp_path_factory.mktemp("e2e-smoke")
    before = digest(runner.REFERENCE), digest(ROOT / "BENCHMARK.json")
    start = time.monotonic()
    proc = bench("--smoke", "--trace", "--out", out)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    after = digest(runner.REFERENCE), digest(ROOT / "BENCHMARK.json")
    return {
        "out": out,
        "proc": proc,
        "elapsed": elapsed,
        "untouched": before == after,
        "result": json.loads((out / "result.json").read_text()),
    }


def test_smoke_runs_every_workload_within_a_minute(smoke):
    assert smoke["elapsed"] < 60
    workloads = smoke["result"]["workloads"]
    assert [w["workload"] for w in workloads] == list(manifest.WORKLOAD_NAMES)
    for w in workloads:
        assert w["correct"] and w["failed"] == 0 and w["stat_mismatches"] == 0, w["checks"]
        assert w["attempted"] >= 1
    last = last_line(smoke["proc"])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0


def test_a_normal_run_rewrites_neither_reference_nor_manifest(smoke):
    assert smoke["untouched"]
    assert list(smoke["result"])[-1] == "claim" and smoke["result"]["claim"] is None


def test_manifest_is_the_committed_file_and_within_the_contract():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == manifest.build_manifest()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert committed["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(committed["workloads"]) <= 8
    assert 1 <= len(committed["end_to_end"]) <= 16
    assert 1 <= len(committed["per_layer"]) <= 128
    assert 1 <= committed["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in committed[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in committed["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in committed["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    for m in committed["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("lower", "higher")
    assert all(UNIT.match(m["unit"]) for m in committed["end_to_end"] + committed["per_layer"])
    setup = next(m for m in committed["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    # 4 + 22 runs per workload, each about run_seconds plus set-up, warm-up
    # and checks, must fit the driver's 3420 s.
    runs = 4 + 22 * len(committed["workloads"])
    assert runs * (committed["run_seconds"] + 9) < 3420


def test_every_printed_metric_is_declared_and_the_other_way_round(smoke):
    printed: dict[str, set] = {}
    section = None
    for line in smoke["proc"].stdout.splitlines():
        header = re.match(r"^== (\S+) ", line)
        if header:
            section = printed.setdefault(header.group(1), set())
            continue
        row = re.match(r"^  (\S+)\s+(\S+) (\S+)$", line)
        if row and section is not None:
            name, _value, unit = row.groups()
            declared = {**manifest.END_TO_END_UNITS, **manifest.PER_LAYER_UNITS}
            assert declared.get(name) == unit, (name, unit)
            section.add(name)
    every = set(manifest.END_TO_END_UNITS) | set(manifest.PER_LAYER_UNITS)
    assert set(printed) == set(manifest.WORKLOAD_NAMES)
    for workload, names in printed.items():
        assert names == every, (workload, names ^ every)
    for w in smoke["result"]["workloads"]:
        assert set(w["end_to_end"]) == set(manifest.END_TO_END_UNITS)
        assert set(w["per_layer"]) == set(manifest.PER_LAYER_UNITS)
        assert all(m["value"] > 0 for m in w["end_to_end"].values())


def test_span_trees_are_well_formed(smoke):
    for w in smoke["result"]["workloads"]:
        path = smoke["out"] / f"trace_{w['workload']}.jsonl"
        spans = [json.loads(line) for line in path.read_text().splitlines()]
        assert spans and spans[0]["name"] == "pass" and spans[0]["parent"] is None
        assert len({s["pass"] for s in spans}) == 1
        own = [s["end"] - s["start"] for s in spans]
        for s in spans:
            assert s["end"] >= s["start"]
            if s["parent"] is not None:
                parent = spans[s["parent"]]
                assert parent["id"] == s["parent"] < s["id"]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
                own[s["parent"]] -= s["end"] - s["start"]
        assert min(own) > -1e-6
        # self times of the pass's subtree add up to the pass
        in_pass = [True] * len(spans)
        for s in spans[1:]:
            in_pass[s["id"]] = s["parent"] is not None and in_pass[s["parent"]]
        total = sum(t for t, inside in zip(own, in_pass) if inside)
        wall = spans[0]["end"] - spans[0]["start"]
        assert abs(total - wall) <= 0.02 * wall
        assert w["timing"]["traced_pass_s"] == pytest.approx(wall)


def test_traced_statistics_equal_untraced_ones(smoke):
    for w in smoke["result"]["workloads"]:
        assert w["checks"]["traced"] == 0 and w["checks"]["reference"] == 0
    exact = ("network.step_calls", "network.flit_hops", "engine.cycles")
    curves = [w for w in smoke["result"]["workloads"] if w["workload"].startswith("curve8x8")]
    for name in exact:  # two backends, one simulated history
        assert curves[0]["per_layer"][name]["value"] == curves[1]["per_layer"][name]["value"] > 0


def test_another_seed_changes_the_inputs_and_skips_only_the_reference(smoke, tmp_path):
    proc = bench("--smoke", "--trace", "--workload", "curve8x8_object", "--seed", 8,
                 "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    other = json.loads((tmp_path / "result.json").read_text())["workloads"][0]
    assert other["checks"]["reference"] is None
    assert other["checks"]["cross"] == 0 and other["checks"]["traced"] == 0
    seven = smoke["result"]["workloads"][0]
    assert seven["workload"] == "curve8x8_object"
    hops = "network.flit_hops"
    assert other["per_layer"][hops]["value"] != seven["per_layer"][hops]["value"]
    assert set(last_line(proc)["metrics"]) == set(manifest.PER_LAYER_UNITS)


def test_a_set_simulator_switch_aborts_with_status_2():
    for name in runner.FORBIDDEN_ENV:
        proc = bench("--smoke", "--workload", "sweep_overhead", env={**os.environ, name: "1"})
        assert proc.returncode == 2 and name in proc.stderr
        assert not proc.stdout.strip()


def test_without_the_simulator_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = bench(
        "--workload", "curve8x8_object", "--seed", 1, "--seconds", 1, "--trace", 0,
        cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py",
    )
    assert proc.returncode not in (0, None)
    assert not proc.stdout.strip()
