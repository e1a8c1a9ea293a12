"""Extension: the Table I axes the paper lists but never plots.

* **256 nodes** — §III-A: "A 256-node on-chip network using a 16-ary
  2-cube topology is also evaluated, but the results are not included as
  they show a similar trend."  We verify the similar-trend claim: tr still
  scales zero-load latency by ~1.5x and leaves saturation untouched.
* **Virtual-channel count** — Table I lists 2 and 4 VCs; more VCs buy
  throughput (less HOL blocking) without changing zero-load latency.
* **Arbitration** — Table I lists round-robin and age-based; age-based
  trims the latency tail near saturation.
"""

from __future__ import annotations

import pytest
from conftest import emit

from repro.analysis import format_table


def _zero_load_and_saturation(exhibit):
    return {key: (rec["zero_load"], rec["saturation"]) for key, rec in exhibit.items()}


def test_ext_256_nodes_similar_trend(exhibit):
    out = _zero_load_and_saturation(exhibit)
    ratio = out[2][0] / out[1][0]
    text = format_table(
        ["tr", "zero_load", "saturation"],
        [[tr, zl, sat] for tr, (zl, sat) in out.items()],
        title="Extension - 16x16 mesh (256 nodes), router-delay trend",
    ) + (
        f"\nzero-load ratio tr=2/tr=1: {ratio:.2f} (paper SIII-A: 256 nodes "
        f"'show a similar trend'; 64-node value 1.5)"
    )
    emit("ext_256_nodes", text)
    assert ratio == pytest.approx(1.5, abs=0.1)
    assert abs(out[2][1] - out[1][1]) < 0.05


def test_ext_vc_count(exhibit):
    out = _zero_load_and_saturation(exhibit)
    text = format_table(
        ["VCs", "zero_load", "saturation"],
        [[v, zl, sat] for v, (zl, sat) in out.items()],
        title="Extension - virtual-channel count (Table I axis)",
    ) + "\nmore VCs relieve head-of-line blocking: throughput up, zero-load flat"
    emit("ext_vc_count", text)
    assert abs(out[4][0] - out[2][0]) < 1.0
    assert out[4][1] > out[2][1]


def test_ext_arbitration_tail_latency(exhibit):
    tails = {arb: (rec["mean"], rec["p99"]) for arb, rec in exhibit.items()}
    text = format_table(
        ["arbitration", "mean_latency", "p99_latency"],
        [[a, m, p] for a, (m, p) in tails.items()],
        title="Extension - arbitration policy at 88% of saturation (Table I axis)",
    ) + "\nage-based (oldest-first) arbitration bounds the tail at similar mean"
    emit("ext_arbitration", text)
    assert tails["age"][1] <= tails["round_robin"][1] * 1.05
    assert tails["age"][0] == pytest.approx(tails["round_robin"][0], rel=0.25)
