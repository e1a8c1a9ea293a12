"""Traffic registries: build patterns / size distributions from config."""

from __future__ import annotations

from ..config import NetworkConfig
from .patterns import (
    BitComplement,
    BitReversal,
    TrafficPattern,
    Transpose,
    UniformRandom,
)
from .sizes import Bimodal, SingleFlit, SizeDistribution

__all__ = ["build_pattern", "build_sizes"]

_PATTERNS = {
    "uniform_random": UniformRandom,
    "transpose": Transpose,
    "bit_complement": BitComplement,
    "bit_reversal": BitReversal,
}


def build_pattern(config: NetworkConfig) -> TrafficPattern:
    """Construct the spatial pattern named by ``config.traffic``."""
    try:
        cls = _PATTERNS[config.traffic]
    except KeyError:
        raise ValueError(f"unknown traffic pattern {config.traffic!r}") from None
    return cls(config.num_nodes)


def build_sizes(config: NetworkConfig) -> SizeDistribution:
    """Construct the packet-size distribution named by ``config.packet_size``."""
    if config.packet_size == "single":
        return SingleFlit()
    if config.packet_size == "bimodal":
        return Bimodal(
            1, config.bimodal_long_size, long_fraction=config.bimodal_long_fraction
        )
    raise ValueError(f"unknown packet_size {config.packet_size!r}")
