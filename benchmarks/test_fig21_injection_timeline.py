"""Figure 21: blackscholes injection-rate timeline, 75 MHz vs 3 GHz.

Paper: both clocks show big kernel bursts at program start and end (thread
creation / teardown syscalls); the 75 MHz run additionally shows many small
periodic peaks from timer interrupts (hundreds vs ~6 at 3 GHz).
"""

from __future__ import annotations

import numpy as np
from conftest import emit

from repro.analysis import ascii_plot
from repro.execdriven import OS, USER


def _series(res):
    bucket = res["timeline_bucket"]
    timeline = np.array(res["timeline"])
    user = timeline[USER] / bucket
    kern = timeline[OS] / bucket
    t = np.arange(user.size) * bucket
    return t, user, kern


def test_fig21_injection_timeline(exhibit):
    slow, fast = exhibit["75 MHz"], exhibit["3 GHz"]
    parts = []
    for label, res in exhibit.items():
        t, user, kern = _series(res)
        parts.append(
            ascii_plot(
                {
                    "user": list(zip(t, user)),
                    "kernel": list(zip(t, kern)),
                },
                width=70,
                height=12,
                title=f"Figure 21 - blackscholes injection rate, {label} "
                f"({res['interrupts']} timer interrupts)",
                xlabel="cycle",
                ylabel="flits/cycle (all nodes)",
            )
        )
    text = "\n\n".join(parts) + (
        f"\n\ntimer interrupts: 75MHz {slow['interrupts']}, 3GHz "
        f"{fast['interrupts']} (paper: hundreds vs ~6)\n"
        "kernel bursts at start and end come from the spawn/join syscall "
        "phases (thread creation / synchronization)"
    )
    emit("fig21_injection_timeline", text)
    assert slow["interrupts"] > 10 * max(fast["interrupts"], 1)
    # start/end kernel bursts (spawn/join syscalls) dominate the 3 GHz
    # kernel timeline, where timer traffic is negligible; at 75 MHz the
    # periodic timer peaks fill the middle of the run instead.
    kern = np.array(fast["timeline"][OS], dtype=float)
    n = kern.size
    edges = kern[: max(1, n // 5)].sum() + kern[-max(1, n // 5):].sum()
    assert edges > 0.5 * kern.sum()
    # and at 75 MHz kernel traffic persists through the middle of the run
    mid = np.array(slow["timeline"][OS], dtype=float)
    m5 = max(1, mid.size // 5)
    assert mid[m5:-m5].sum() > 0.3 * mid.sum()
