"""Table III: benchmark characterization under the ideal network.

Paper columns: ideal cycle count, total flits, NAR, L2 miss rate.  Our
surrogates are calibrated to the paper's per-benchmark operating points;
this harness measures them end-to-end (real caches, real streams) and
prints measured-vs-paper.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import format_table
from repro.execdriven.characterize import Characterization

PAPER = {
    # bench: (nar, l2_miss)
    "blackscholes": (0.028, 0.006),
    "lu": (0.011, 0.183),
    "canneal": (0.040, 0.207),
    "fft": (0.033, 0.629),
    "barnes": (0.047, 0.019),
}


def test_table3_nar(exhibit):
    ch = {name: Characterization(**rec) for name, rec in exhibit.items()}
    rows = []
    for name, c in ch.items():
        p_nar, p_l2 = PAPER[name]
        rows.append(
            [name, c.ideal_cycles, c.total_flits, c.nar, p_nar, c.l2_miss_rate, p_l2]
        )
    text = format_table(
        ["benchmark", "ideal_cycles", "total_flits", "NAR", "NAR(paper)",
         "L2_miss", "L2_miss(paper)"],
        rows,
        precision=3,
        title="Table III - benchmark characterization (ideal network)",
    ) + (
        "\nnote: cycle/flit counts are ~1200x scaled-down surrogates; rates "
        "(NAR, miss ratios) are the calibrated quantities"
    )
    emit("table3_nar", text)
    # orderings the paper's models depend on
    assert ch["barnes"].nar == max(c.nar for c in ch.values())
    assert ch["fft"].user_l2_miss == max(c.user_l2_miss for c in ch.values())
    assert ch["blackscholes"].user_l2_miss == min(c.user_l2_miss for c in ch.values())
    for name, c in ch.items():
        p_nar, p_l2 = PAPER[name]
        # Table III blends user and kernel requests; our kernel requests
        # are mostly L2-resident, pulling lu's blended rate above the
        # paper's (whose Table III/IV L2 columns disagree by 2.3x for lu).
        assert abs(c.l2_miss_rate - p_l2) < 0.16, name
        assert 0.3 < c.nar / p_nar < 3.5, name
