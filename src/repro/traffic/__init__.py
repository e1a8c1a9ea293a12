"""Synthetic traffic: spatial patterns and packet-size distributions."""

from .patterns import (
    BitComplement,
    BitReversal,
    PermutationPattern,
    TrafficPattern,
    Transpose,
    UniformRandom,
)
from .process import Bernoulli, InjectionProcess, MarkovOnOff
from .registry import build_pattern, build_sizes
from .sizes import Bimodal, FixedSize, SingleFlit, SizeDistribution

__all__ = [
    "TrafficPattern",
    "PermutationPattern",
    "UniformRandom",
    "Transpose",
    "BitComplement",
    "BitReversal",
    "InjectionProcess",
    "Bernoulli",
    "MarkovOnOff",
    "SizeDistribution",
    "SingleFlit",
    "FixedSize",
    "Bimodal",
    "build_pattern",
    "build_sizes",
]
