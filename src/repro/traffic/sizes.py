"""Packet-size distributions (paper Table I: 1 flit, or bimodal 1/4 flit).

The bimodal mix models a cache-coherent CMP's traffic: short control packets
(requests, acknowledgements) and long data packets (cache lines).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["SizeDistribution", "SingleFlit", "Bimodal", "FixedSize"]


class SizeDistribution(ABC):
    """Draws packet sizes in flits."""

    name: str = "abstract"
    #: False when :meth:`draw` never touches the generator, which lets an
    #: injector batch the draws around it (destinations) into one call
    uses_rng: bool = True

    @abstractmethod
    def draw(self, rng: np.random.Generator) -> int:
        """Size in flits of the next packet."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Expected flits per packet."""


class SingleFlit(SizeDistribution):
    """Every packet is one flit (the paper's default)."""

    name = "single"
    uses_rng = False

    def draw(self, rng: np.random.Generator) -> int:
        return 1

    @property
    def mean(self) -> float:
        return 1.0


class FixedSize(SizeDistribution):
    """Every packet is exactly ``size`` flits."""

    name = "fixed"
    uses_rng = False

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size

    def draw(self, rng: np.random.Generator) -> int:
        return self.size

    @property
    def mean(self) -> float:
        return float(self.size)


class Bimodal(SizeDistribution):
    """Mix of short and long packets (default 1-flit / 4-flit, 50/50)."""

    name = "bimodal"

    def __init__(self, short: int = 1, long: int = 4, long_fraction: float = 0.5):
        if short < 1 or long < short:
            raise ValueError("need 1 <= short <= long")
        if not 0.0 <= long_fraction <= 1.0:
            raise ValueError("long_fraction must be in [0, 1]")
        self.short = short
        self.long = long
        self.long_fraction = long_fraction

    def draw(self, rng: np.random.Generator) -> int:
        return self.long if rng.random() < self.long_fraction else self.short

    @property
    def mean(self) -> float:
        f = self.long_fraction
        return (1.0 - f) * self.short + f * self.long
