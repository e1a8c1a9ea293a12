"""Table II: the Simics/GEMS+Garnet machine configuration.

Prints the configuration and validates that our CMP substrate is built to
exactly these parameters.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import format_table
from repro.config import TABLE_II_PARAMETERS, CmpConfig


def test_table2_parameters():
    cfg = CmpConfig()
    rows = [[k, v] for k, v in TABLE_II_PARAMETERS.items()]
    text = format_table(
        ["component", "configuration"],
        rows,
        title="Table II - Simics/GEMS+Garnet simulation parameters",
    ) + (
        f"\n\nsubstrate: {cfg.num_cores} cores, L1 "
        f"{cfg.l1_lines * cfg.line_bytes // 1024} KB {cfg.l1_assoc}-way "
        f"{cfg.l1_latency}-cycle, L2 "
        f"{cfg.l2_lines_per_tile * cfg.line_bytes // 1024} KB/tile "
        f"{cfg.l2_latency}-cycle, DRAM {cfg.memory_latency}-cycle, "
        f"{cfg.network.k}x{cfg.network.k} mesh, {cfg.network.num_vcs} VCs x "
        f"{cfg.network.vc_buffer_size} bufs, {cfg.mshrs} MSHRs"
    )
    emit("table2_parameters", text)
    assert cfg.num_cores == 16
    assert cfg.l1_lines * cfg.line_bytes == 32 * 1024
    assert cfg.l2_lines_per_tile * cfg.line_bytes == 512 * 1024
    assert cfg.memory_latency == 300
    assert cfg.network.num_vcs == 8
