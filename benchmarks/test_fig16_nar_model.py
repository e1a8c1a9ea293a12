"""Figure 16: the batch model with the enhanced (NAR) injection model.

Paper: as NAR falls, the impact of router delay on runtime shrinks; at
NAR = 1 the baseline batch model is recovered.  Notably, at large m and
small NAR the workload is not communication-limited, so tr has minimal
impact even though it raises packet latency.
"""

from __future__ import annotations

import pytest
from conftest import emit

from repro.analysis import format_table


def test_fig16_nar_model(exhibit):
    out = {key: (res["runtime"], res["throughput"]) for key, res in exhibit.items()}
    ms, nars, trs = (tuple(dict.fromkeys(axis)) for axis in zip(*out))
    sections = []
    for m in ms:
        rows = []
        for nar in nars:
            base = out[m, nar, 1][0]
            rows.append(
                [nar]
                + [out[m, nar, tr][0] / base for tr in trs]
                + [out[m, nar, tr][1] for tr in trs]
            )
        sections.append(
            format_table(
                ["NAR"] + [f"T tr={tr}" for tr in trs] + [f"theta tr={tr}" for tr in trs],
                rows,
                precision=3,
                title=f"Figure 16 (m={m}) - runtime normalized per-NAR to tr=1",
            )
        )
    tr4 = lambda m, nar: out[m, nar, 4][0] / out[m, nar, 1][0]  # noqa: E731
    text = "\n\n".join(sections) + (
        f"\n\ntr=4/tr=1 ratio at m=16: NAR=1 {tr4(16, 1.0):.2f} vs NAR=0.04 "
        f"{tr4(16, 0.04):.2f} (paper: low-NAR workloads are not "
        f"communication-limited, router delay nearly free)"
    )
    emit("fig16_nar_model", text)
    for m in ms:
        assert tr4(m, 0.04) < tr4(m, 1.0) + 0.05
    assert tr4(16, 0.04) == pytest.approx(1.0, abs=0.1)
    assert tr4(1, 1.0) == pytest.approx(2.5, abs=0.4)
