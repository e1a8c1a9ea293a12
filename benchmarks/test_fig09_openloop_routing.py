"""Figure 9: open-loop routing comparison (DOR / MA / ROMM / VAL).

Paper, uniform random: DOR/MA/ROMM share the minimal zero-load latency,
VAL pays ~2x; under transpose, DOR saturates early (no path diversity)
while VAL trades zero-load latency for throughput and the adaptive/ROMM
routes sit between.
"""

from __future__ import annotations

from conftest import emit
from exhibits import ROUTING as ALGS

from repro.analysis import format_table


def _study(exhibit):
    return {a: (rec["zero_load"], rec["saturation"]) for a, rec in exhibit.items()}


def test_fig09a_uniform_random(exhibit):
    out = _study(exhibit)
    rows = [[a, out[a][0], out[a][1]] for a in ALGS]
    text = format_table(
        ["routing", "zero_load", "saturation"],
        rows,
        title="Figure 9(a) - routing algorithms, uniform random, open loop",
    ) + (
        "\npaper: DOR/MA/ROMM minimal zero-load; VAL ~2x zero-load; DOR "
        "best throughput on uniform random"
    )
    emit("fig09a_routing_uniform", text)
    zl = {a: out[a][0] for a in ALGS}
    assert zl["val"] > 1.6 * zl["dor"]
    assert abs(zl["ma"] - zl["dor"]) < 2.0
    assert abs(zl["romm"] - zl["dor"]) < 2.0
    assert out["val"][1] < out["dor"][1]  # VAL halves UR throughput


def test_fig09b_transpose(exhibit):
    out = _study(exhibit)
    rows = [[a, out[a][0], out[a][1]] for a in ALGS]
    text = format_table(
        ["routing", "zero_load", "saturation"],
        rows,
        title="Figure 9(b) - routing algorithms, transpose, open loop",
    ) + (
        "\npaper: VAL has higher zero-load latency but higher throughput "
        "than DOR under transpose (path diversity beats minimal routing on "
        "adversarial permutations)"
    )
    emit("fig09b_routing_transpose", text)
    zl = {a: out[a][0] for a in ALGS}
    sat = {a: out[a][1] for a in ALGS}
    assert zl["val"] > zl["dor"]
    assert sat["val"] > sat["dor"]
    assert sat["ma"] > sat["dor"]
