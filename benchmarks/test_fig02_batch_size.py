"""Figure 2: batch-model runtime normalized to batch size, vs b, per m.

Paper: normalized runtime falls as b grows and saturates; larger m lowers
the asymptote (more overlap), and the asymptote's inverse is the maximum
network throughput.  Scaled: b up to 1000 (paper sweeps to 100k; the
asymptote is already flat well before that).
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import ascii_plot, format_table


def test_fig02_batch_size(exhibit):
    norm = {key: res["runtime"] / res["batch_size"] for key, res in exhibit.items()}
    ms = tuple(dict.fromkeys(m for m, _ in norm))
    bs = tuple(dict.fromkeys(b for _, b in norm))
    rows = [[b] + [norm[m, b] for m in ms] for b in bs]
    table = format_table(
        ["b"] + [f"m={m}" for m in ms],
        rows,
        precision=2,
        title="Figure 2 - runtime normalized to batch size (8x8 mesh, uniform random)",
    )
    plot = ascii_plot(
        {f"m={m}": [(b, norm[m, b]) for b in bs] for m in ms},
        xlabel="batch size b",
        ylabel="T/b",
    )
    asymptote = norm[16, 1000]
    text = (
        f"{table}\n\n{plot}\n"
        f"m=16 asymptote T/b = {asymptote:.2f}  =>  max throughput ~ "
        f"{2 / asymptote:.3f} flits/cycle/node (paper: asymptote inverse is "
        f"the network's max throughput, ~0.43)"
    )
    emit("fig02_batch_size", text)
    for m in ms:
        series = [norm[m, b] for b in bs]
        assert series[0] >= series[-1] * 0.95, "normalized runtime must fall with b"
    assert norm[1, 1000] > norm[4, 1000] > norm[16, 1000]
