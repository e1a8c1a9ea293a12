"""Figure 1: the canonical latency vs. offered-traffic curve.

The paper's Fig. 1 is a schematic; this harness regenerates the real curve
for the Table I baseline (8x8 mesh, DOR, uniform random) and reports the
zero-load latency T0 and saturation throughput θ it sketches.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import ascii_plot, format_table
from repro.config import NetworkConfig
from repro.core.openloop import OpenLoopSimulator


def test_fig01_latency_load_curve(exhibit):
    results, sat = exhibit["curve"], exhibit["saturation"]
    zero_load = results[0]["avg_latency"]
    rows = [
        [r["injection_rate"], r["avg_latency"], r["throughput"], r["saturated"]] for r in results
    ]
    table = format_table(
        ["offered", "avg_latency", "throughput", "saturated"],
        rows,
        title="Figure 1 - latency vs offered traffic (8x8 mesh, DOR, uniform random)",
    )
    plot = ascii_plot(
        {"latency": [(r["injection_rate"], r["avg_latency"]) for r in results]},
        xlabel="offered load (flits/cycle/node)",
        ylabel="avg latency (cycles)",
    )
    text = (
        f"{table}\n\n{plot}\n"
        f"zero-load latency T0 = {zero_load:.1f} cycles (analytic "
        f"{OpenLoopSimulator(NetworkConfig()).analytic_zero_load_latency():.1f})\n"
        f"saturation throughput = {sat:.3f} flits/cycle/node "
        f"(paper SIII-B: ~0.43)"
    )
    emit("fig01_latency_load_curve", text)
    assert 0.38 < sat < 0.48
    assert zero_load < 20
