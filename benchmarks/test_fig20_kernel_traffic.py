"""Figure 20: kernel vs user network traffic per benchmark and clock.

Paper: kernel activity contributes a significant share of the network
traffic (over 80% for lu at 75 MHz), and the share is much larger at the
Simics-default 75 MHz than at 3 GHz because the timer-interrupt interval is
fixed in wall-clock time, not cycles.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import format_table
from repro.execdriven import BENCHMARKS


def test_fig20_kernel_traffic(exhibit):
    rows = [
        [clock, name, tr, res["nar"], res["kernel_fraction"], res["interrupts"]]
        for clock, results in exhibit.items() for (name, tr), res in results.items()
    ]
    shares = {
        (clock, name): results[name, 1]["kernel_fraction"]
        for clock, results in exhibit.items() for name in BENCHMARKS
    }
    text = format_table(
        ["clock", "benchmark", "tr", "inj_rate", "kernel_share", "interrupts"],
        rows,
        precision=3,
        title="Figure 20 - network injection rate split into kernel vs user",
    ) + (
        "\npaper: kernel share significant everywhere, far larger at 75MHz "
        "(timer interval fixed in wall-clock time); lu's kernel share is "
        "among the highest"
    )
    emit("fig20_kernel_traffic", text)
    for name in BENCHMARKS:
        assert shares["75MHz", name] > shares["3GHz", name]
        assert shares["75MHz", name] > 0.4
        assert shares["3GHz", name] > 0.05
