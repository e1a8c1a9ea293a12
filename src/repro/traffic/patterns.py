"""Spatial traffic patterns (paper Table I).

A pattern maps a source node to a destination for each generated packet.
Permutation patterns (transpose, bit reversal, bit complement) are fixed
functions of the source; uniform random draws a fresh destination per packet
(excluding the source itself, as is conventional).  Fixed points of a
permutation (e.g. the transpose diagonal) send to themselves — such packets
enter and leave through the local port without using the network, matching
standard network-simulator behaviour.

Bit-based patterns require a power-of-two node count; transpose requires a
square 2D layout (node id = x + k·y).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "TrafficPattern",
    "UniformRandom",
    "Transpose",
    "BitComplement",
    "BitReversal",
    "PermutationPattern",
]


class TrafficPattern(ABC):
    """Maps sources to destinations, one packet at a time."""

    name: str = "abstract"

    def __init__(self, num_nodes: int):
        if num_nodes < 2:
            raise ValueError("need at least 2 nodes")
        self.num_nodes = num_nodes

    @abstractmethod
    def dest(self, src: int, rng: np.random.Generator) -> int:
        """Destination of the next packet from ``src``."""


class UniformRandom(TrafficPattern):
    """Each packet picks a destination uniformly among the other nodes."""

    name = "uniform_random"

    def dest(self, src: int, rng: np.random.Generator) -> int:
        d = int(rng.integers(0, self.num_nodes - 1))
        return d if d < src else d + 1

    def dests(self, src, count: int, rng: np.random.Generator) -> np.ndarray:
        """Vectorized draw of ``count`` destinations, equal to ``count``
        calls of :meth:`dest` in order; ``src`` is one source for all of
        them or an array of ``count`` sources."""
        d = rng.integers(0, self.num_nodes - 1, size=count)
        return np.where(d < src, d, d + 1)


class PermutationPattern(TrafficPattern):
    """Base for fixed source→destination permutations."""

    def __init__(self, num_nodes: int):
        super().__init__(num_nodes)
        self.table = np.array(
            [self._map(src) for src in range(num_nodes)], dtype=np.int64
        )
        if sorted(self.table.tolist()) != list(range(num_nodes)):
            raise ValueError(f"{self.name} mapping is not a permutation")

    @abstractmethod
    def _map(self, src: int) -> int:
        """The permutation function."""

    def dest(self, src: int, rng: np.random.Generator) -> int:
        return int(self.table[src])


def _require_power_of_two(num_nodes: int, name: str) -> int:
    bits = num_nodes.bit_length() - 1
    if 1 << bits != num_nodes:
        raise ValueError(f"{name} requires a power-of-two node count, got {num_nodes}")
    return bits


class Transpose(PermutationPattern):
    """(x, y) → (y, x) on a square 2D layout: worst case for DOR meshes."""

    name = "transpose"

    def __init__(self, num_nodes: int):
        k = int(round(num_nodes**0.5))
        if k * k != num_nodes:
            raise ValueError(f"transpose requires a square node count, got {num_nodes}")
        self.k = k
        super().__init__(num_nodes)

    def _map(self, src: int) -> int:
        x, y = src % self.k, src // self.k
        return y + x * self.k


class BitComplement(PermutationPattern):
    """Destination is the bitwise complement of the source id."""

    name = "bit_complement"

    def __init__(self, num_nodes: int):
        self.bits = _require_power_of_two(num_nodes, self.name)
        super().__init__(num_nodes)

    def _map(self, src: int) -> int:
        return (~src) & (self.num_nodes - 1)


class BitReversal(PermutationPattern):
    """Destination reverses the bit order of the source id."""

    name = "bit_reversal"

    def __init__(self, num_nodes: int):
        self.bits = _require_power_of_two(num_nodes, self.name)
        super().__init__(num_nodes)

    def _map(self, src: int) -> int:
        out = 0
        for b in range(self.bits):
            if src & (1 << b):
                out |= 1 << (self.bits - 1 - b)
        return out

