"""Table I: the open/closed-loop simulation parameter space.

Validates that every Table I point constructs a working configuration (the
sweep driver will accept any of them) and prints the table.
"""

from __future__ import annotations

from conftest import emit

from repro.analysis import format_table
from repro.config import TABLE_I_PARAMETER_SPACE, NetworkConfig
from repro.core.parallel import enumerate_points


def test_table1_parameters():
    def build_space():
        axes = {
            "num_vcs": (2, 4),
            "vc_buffer_size": (1, 2, 4, 8, 16),
            "router_delay": (1, 2, 4, 8),
            "arbitration": ("round_robin", "age"),
            "packet_size": ("single", "bimodal"),
            "traffic": ("uniform_random", "bit_reversal", "bit_complement", "transpose"),
        }
        base = NetworkConfig()
        configs = [
            base.with_(**p.overrides)
            for p in enumerate_points(base, axes, derive_seeds=False)
        ]
        routed = [
            NetworkConfig(routing=alg) for alg in ("dor", "val", "ma", "romm")
        ]
        return configs, routed

    configs, routed = build_space()
    rows = [[key, ", ".join(map(str, vals))] for key, vals in TABLE_I_PARAMETER_SPACE.items()]
    text = (
        format_table(["parameter", "values (bold=first)"], rows,
                     title="Table I - simulation parameters")
        + f"\n\nvalidated {len(configs)} config points x {len(routed)} routing algorithms"
    )
    emit("table1_parameters", text)
    assert len(configs) == 2 * 5 * 4 * 2 * 2 * 4
    assert len(routed) == 4
