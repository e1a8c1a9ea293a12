"""Extension: where the vectorized backend starts to pay (DESIGN.md §5f).

Object is *the* backend; vectorized is a large-mesh accelerator.  Both run
at saturation (4 VCs, 8-flit packets, 0.6 flits/cycle/node) on a small, a
middling and a large mesh; each pair must be bit-identical, and only the
*direction* of the host-time ratio is asserted, at the two ends.  The table
is the regenerable source for the crossover discussion, not a gate.
"""

from __future__ import annotations

import hashlib
import time

from conftest import emit

from repro.analysis import format_table
from repro.config import NetworkConfig
from repro.core.openloop import OpenLoopSimulator
from repro.network.factory import build_network

MESHES = {"8x8": dict(k=8, n=2), "16x16": dict(k=16, n=2), "8^3": dict(k=8, n=3)}
RATE = 0.6
WINDOWS = dict(warmup=100, measure=200, drain_limit=300)


def _leg(backend, shape):
    cfg = NetworkConfig(
        backend=backend, num_vcs=4, vc_buffer_size=8, packet_size="bimodal",
        bimodal_long_fraction=1.0, bimodal_long_size=8, seed=7, **shape,
    )
    wall, nets = float("inf"), []
    for _ in range(2):  # best of 2: the runs are deterministic
        sim = OpenLoopSimulator(
            cfg, network_factory=lambda c: nets.append(build_network(c)) or nets[-1], **WINDOWS
        )
        t0 = time.perf_counter()
        res = sim.run(RATE)
        wall = min(wall, time.perf_counter() - t0)
    return wall, nets[-1].now, hashlib.sha256(res.latencies.tobytes()).hexdigest()


def test_ext_backend_crossover():
    out = {m: [_leg(b, s) for b in ("object", "vectorized")] for m, s in MESHES.items()}
    rows = []
    for mesh, ((obj_s, *obj_record), (vec_s, *vec_record)) in out.items():
        assert obj_record == vec_record, f"{mesh}: backends diverged"
        rows.append([mesh, obj_record[0], obj_s, vec_s, obj_s / vec_s])
    text = format_table(
        ["mesh", "cycles", "object_s", "vectorized_s", "object/vectorized"],
        rows,
        title=f"Extension - backend crossover at saturation (rate {RATE}, 8-flit packets)",
        precision=3,
    )
    emit("ext_backend_crossover", text + "\nrecords bit-identical per mesh; ratio < 1: object faster")
    assert rows[0][-1] < 1.0, "object backend should win on the paper's 8x8"
    assert rows[-1][-1] > 1.0, "vectorized backend should win on 8^3"
