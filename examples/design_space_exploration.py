"""Design-space exploration: the workflow the paper's framework exists for.

An architect wants to pick a 64-node on-chip network.  Full-system
simulation takes days per point (88.5 hours per GEMS run, per the paper);
this script sweeps 12 design points in about a minute with the closed-loop
batch model, because — as the paper shows — its runtime metric tracks
system-level ordering far better than open-loop averages alone.

The sweep crosses topology x routing x router delay, evaluates each point
at a "few outstanding misses" operating point (m = 4, the realistic CMP
regime per SII-B2), and ranks by worst-case runtime.

Run:  python examples/design_space_exploration.py
"""

from __future__ import annotations

import os
import pathlib
import tempfile

from repro import BatchSimulator, NetworkConfig
from repro.analysis import format_records, save_records
from repro.core.parallel import run_sweep

BASE = NetworkConfig(num_vcs=4)  # 8x8, 64 nodes
BATCH = 150
M = 4
# evaluate() is module-level (picklable), so the sweeps can fan out over a
# process pool; each point gets its own derived seed either way.
WORKERS = min(4, os.cpu_count() or 1)


def evaluate(config: NetworkConfig) -> dict:
    res = BatchSimulator(config, batch_size=BATCH, max_outstanding=M).run()
    return {
        "runtime": res.runtime,
        "theta": round(res.throughput, 3),
        "worst_node": int(res.node_finish.max()),
        "spread": round(
            float(res.node_finish.max() - res.node_finish.min()) / res.runtime, 3
        ),
    }


def main() -> None:
    # a journal checkpoints each completed point; rerunning this script with
    # the file intact would resume instead of recomputing (resume=True).
    journal = pathlib.Path(tempfile.gettempdir()) / "noc_design_sweep.jsonl"
    # axis 1: topology (routing fixed to DOR, which all of them support)
    topo_records = run_sweep(
        BASE,
        {"topology": ("mesh", "torus", "ring")},
        evaluate,
        n_workers=WORKERS,
        journal=journal,
    )
    # axis 2: routing on the mesh, under the adversarial transpose pattern
    routing_records = run_sweep(
        BASE.with_(traffic="transpose"),
        {"routing": ("dor", "ma", "romm", "val")},
        evaluate,
        n_workers=WORKERS,
    )
    # axis 3: how much router pipeline can we afford?
    tr_records = run_sweep(BASE, {"router_delay": (1, 2, 4)}, evaluate, n_workers=WORKERS)

    print(format_records(topo_records, ["topology", "runtime", "theta", "spread", "wall_seconds"],
                         precision=2, title="topology (uniform random, m=4)"))
    print()
    print(format_records(routing_records, ["routing", "runtime", "theta", "wall_seconds"],
                         precision=2, title="routing (transpose, m=4)"))
    print()
    print(format_records(tr_records, ["router_delay", "runtime", "theta", "wall_seconds"],
                         precision=2, title="router delay (uniform random, m=4)"))

    best_topo = min(topo_records, key=lambda r: r["runtime"])
    best_alg = min(routing_records, key=lambda r: r["runtime"])
    total = sum(
        r["wall_seconds"] for r in topo_records + routing_records + tr_records
    )
    out = pathlib.Path(tempfile.gettempdir()) / "noc_design_sweep.csv"
    save_records(topo_records + routing_records + tr_records, out)
    print(
        f"\npick: {best_topo['topology']} + {best_alg['routing'].upper()}; "
        f"{len(topo_records) + len(routing_records) + len(tr_records)} design "
        f"points evaluated in {total:.0f}s of simulation\n"
        f"records saved to {out}\n"
        "(the paper's point: an execution-driven sweep of the same space "
        "would take weeks)"
    )


if __name__ == "__main__":
    main()
