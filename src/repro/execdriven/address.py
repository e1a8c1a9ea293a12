"""Synthetic address-stream generation.

The execution-driven substrate drives *real* cache structures with synthetic
address streams, so cache behaviour (warm-up, eviction, reuse) is emergent.
A stream is a mixture of three pools, chosen per access:

* **hot**   — a small per-core private set, sized well under the L1, so
  accesses hit the L1 (models registers/stack/inner-loop data),
* **mid**   — a shared pool sized to be L2-resident but far larger than the
  L1 (models the benchmark's L2-resident working set: L1 miss, L2 hit),
* **cold**  — a shared pool far larger than the L2 (streaming/first-touch
  data: L1 miss and L2 miss).

The mixture probabilities are calibrated per benchmark from the paper's
Table III/IV characterization (see :mod:`repro.execdriven.benchmarks`).

Shared lines carry a *producer* — the core that logically owns/wrote the
block under the benchmark's decomposition.  The producer map gives the
"logical communication" matrix of Fig. 13(a); the *home tile* of a line
(address-interleaved) decides where its request packet actually goes, which
is why Fig. 13(b)'s observed traffic looks near-uniform.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..rng import Stream

__all__ = ["AddressSpace", "MixtureStream"]

# Region bases keep the pools disjoint in line-address space.
_HOT_BASE = 1 << 40
_MID_BASE = 2 << 40
_COLD_BASE = 3 << 40


class AddressSpace:
    """Layout of hot/mid/cold pools plus the logical producer map.

    ``producer_blocks`` controls the sharing structure of the shared pools:
    lines are grouped into contiguous blocks dealt round-robin to cores
    (block decomposition, as in ``lu``/``fft``); ``producer_random`` instead
    scatters ownership pseudo-randomly (as in ``canneal``'s random netlist).
    """

    def __init__(
        self,
        num_cores: int,
        *,
        hot_lines: int = 128,
        mid_lines: int = 65536,
        cold_lines: int = 4 << 20,
        producer_block: int = 256,
        producer_random: bool = False,
    ):
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        self.num_cores = num_cores
        self.hot_lines = hot_lines
        self.mid_lines = mid_lines
        self.cold_lines = cold_lines
        self.producer_block = producer_block
        self.producer_random = producer_random

    def hot_line(self, core: int, offset: int) -> int:
        return _HOT_BASE + core * self.hot_lines + (offset % self.hot_lines)

    def mid_line(self, offset: int) -> int:
        return _MID_BASE + (offset % self.mid_lines)

    def cold_line(self, offset: int) -> int:
        return _COLD_BASE + (offset % self.cold_lines)

    def home_tile(self, line: int) -> int:
        """Home L2 tile of a line: low-order address interleaving."""
        return line % self.num_cores

    def producer_of(self, line: int) -> int:
        """Core that logically owns a shared line (Fig. 13a structure)."""
        offset = line & ((1 << 40) - 1)
        block = offset // self.producer_block
        if self.producer_random:
            # Cheap stateless hash scatter.
            return (block * 2654435761 >> 8) % self.num_cores
        return block % self.num_cores


class MixtureStream:
    """Per-core address stream drawing from the hot/mid/cold mixture.

    ``p_mid``/``p_cold`` are the probabilities that a *memory access* falls
    in the mid/cold pool (the remainder is hot).  ``locality`` > 0 biases a
    core's shared draws toward the blocks of a few partner cores, giving
    structured logical communication without changing pool miss behaviour.
    """

    def __init__(
        self,
        space: AddressSpace,
        core: int,
        *,
        p_mid: float,
        p_cold: float,
        rng: Union[Stream, np.random.Generator],
        partners: tuple[int, ...] = (),
        partner_bias: float = 0.0,
    ):
        if p_mid < 0 or p_cold < 0 or p_mid + p_cold > 1.0:
            raise ValueError("need p_mid, p_cold >= 0 and p_mid + p_cold <= 1")
        if not 0.0 <= partner_bias <= 1.0:
            raise ValueError("partner_bias must be in [0, 1]")
        self.space = space
        self.core = core
        self.p_mid = p_mid
        self.p_cold = p_cold
        self.rng = rng
        self.partners = partners
        self.partner_bias = partner_bias

    def _shared_offset(self, pool_lines: int) -> int:
        """Offset into a shared pool, optionally biased toward partners."""
        rng = self.rng
        if self.partners and rng.random() < self.partner_bias:
            owner = self.partners[int(rng.integers(0, len(self.partners)))]
        else:
            owner = self.core
        # Draw inside one of the owner's blocks.
        block_sz = self.space.producer_block
        blocks_total = max(1, pool_lines // block_sz)
        owner_blocks = max(1, blocks_total // self.space.num_cores)
        blk = int(rng.integers(0, owner_blocks))
        if self.space.producer_random:
            # Random ownership: structured targeting is meaningless; draw
            # uniformly over the pool.
            return int(rng.integers(0, pool_lines))
        block_index = blk * self.space.num_cores + owner
        return (block_index * block_sz + int(rng.integers(0, block_sz))) % pool_lines

    def next_line(self) -> int:
        """Line address of the next memory access."""
        r = self.rng.random()
        if r < self.p_cold:
            return self.space.cold_line(self._shared_offset(self.space.cold_lines))
        if r < self.p_cold + self.p_mid:
            return self.space.mid_line(self._shared_offset(self.space.mid_lines))
        return self.space.hot_line(self.core, int(self.rng.integers(0, self.space.hot_lines)))
