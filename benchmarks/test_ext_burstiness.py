"""Extension: temporal-distribution axis (paper §II-A).

§II-A defines open-loop traffic by spatial distribution, *temporal
distribution*, and message size, but the paper evaluates only the Bernoulli
temporal process.  This extension sweeps burstiness at a fixed average
load using a Markov on/off process: burstier traffic pays higher latency
at the same offered load and saturates earlier — a reminder that the
conventional Bernoulli open-loop curve is a best case.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import format_table


def test_ext_burstiness(exhibit):
    out = {
        burst: (run["avg_latency"], run["p99_latency"], run["throughput"], rec["saturation"])
        for burst, rec in exhibit.items() for run in [rec["run"]]
    }
    bursts = tuple(out)
    rate = exhibit[1]["run"]["injection_rate"]
    rows = [
        [b, lat, p99, thr, sat] for b, (lat, p99, thr, sat) in out.items()
    ]
    text = format_table(
        ["burst_len", f"latency@{rate}", "p99", "throughput", "saturation"],
        rows,
        title="Extension - temporal burstiness at fixed average load (8x8 mesh)",
    ) + (
        "\nsame offered load, increasingly bursty arrivals: latency and its "
        "tail grow, saturation point falls - Bernoulli open-loop numbers "
        "are a best case (SII-A's unexplored temporal axis)"
    )
    emit("ext_burstiness", text)
    lats = [out[b][0] for b in bursts]
    sats = [out[b][3] for b in bursts]
    assert lats[0] < lats[1] < lats[2]
    assert sats[2] < sats[0]
