"""Extension: temporal-distribution axis (paper §II-A).

§II-A defines open-loop traffic by spatial distribution, *temporal
distribution*, and message size, but the paper evaluates only the Bernoulli
temporal process.  This extension sweeps burstiness at a fixed average
load using a Markov on/off process: burstier traffic pays higher latency
at the same offered load and saturates earlier — a reminder that the
conventional Bernoulli open-loop curve is a best case.
"""

from __future__ import annotations

from conftest import OPENLOOP, emit

from repro.analysis import format_table
from repro.config import NetworkConfig
from repro.core.openloop import OpenLoopSimulator
from repro.traffic import MarkovOnOff

BURSTS = (1, 20, 80)  # mean burst length in cycles; 1 ~ Bernoulli-like
RATE = 0.3


def _sim(burst_length):
    if burst_length == 1:
        return OpenLoopSimulator(NetworkConfig(), **OPENLOOP)
    return OpenLoopSimulator(
        NetworkConfig(),
        process=lambda n, r: MarkovOnOff.for_average_rate(
            n, r, burst_length=burst_length
        ),
        **OPENLOOP,
    )


def test_ext_burstiness():
    def run():
        out = {}
        for burst in BURSTS:
            sim = _sim(burst)
            res = sim.run(RATE)
            sat = sim.saturation_throughput(tolerance=0.02)
            out[burst] = (res.avg_latency, res.p99_latency, res.throughput, sat)
        return out

    out = run()
    rows = [
        [b, lat, p99, thr, sat] for b, (lat, p99, thr, sat) in out.items()
    ]
    text = format_table(
        ["burst_len", f"latency@{RATE}", "p99", "throughput", "saturation"],
        rows,
        title="Extension - temporal burstiness at fixed average load (8x8 mesh)",
    ) + (
        "\nsame offered load, increasingly bursty arrivals: latency and its "
        "tail grow, saturation point falls - Bernoulli open-loop numbers "
        "are a best case (SII-A's unexplored temporal axis)"
    )
    emit("ext_burstiness", text)
    lats = [out[b][0] for b in BURSTS]
    sats = [out[b][3] for b in BURSTS]
    assert lats[0] < lats[1] < lats[2]
    assert sats[2] < sats[0]
