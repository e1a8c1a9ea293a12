"""Temporal injection processes (paper §II-A's "temporal distribution").

Open-loop traffic is defined by spatial distribution, *temporal
distribution*, and message size (§II-A).  The conventional temporal process
is Bernoulli — each node flips an independent coin per cycle — but real
workloads are bursty.  :class:`MarkovOnOff` implements the standard 2-state
burst model: a node alternates between an ON state (injecting at
``on_rate``) and a silent OFF state, with geometric state holding times.
Its average rate is ``on_rate · p_on`` where ``p_on = E[on] / (E[on] +
E[off])``; :meth:`MarkovOnOff.for_average_rate` solves the inverse problem
so burstiness can vary at a fixed offered load.

Processes draw per cycle for all nodes at once (vectorized) and return the
indices of nodes that generate a packet this cycle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["InjectionProcess", "Bernoulli", "MarkovOnOff"]


class InjectionProcess(ABC):
    """Decides, per cycle, which nodes generate a packet."""

    name: str = "abstract"

    def __init__(self, num_nodes: int, rate: float):
        if num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate (packets/cycle/node) must be in [0, 1]")
        self.num_nodes = num_nodes
        self.rate = rate

    @abstractmethod
    def arrivals(self, rng: np.random.Generator) -> np.ndarray:
        """Indices of nodes generating a packet this cycle."""

    # Kept because the benchmark tracer (benchmarks/e2e/tracing.py) binds it
    # by name; no driver calls it.
    def first_arrival_block(
        self, rng: np.random.Generator, limit: int
    ) -> tuple[int, "np.ndarray | None"]:
        """Offset and arrivals of the first non-empty cycle within ``limit``.

        Consumes the RNG stream exactly as ``limit`` (or ``offset + 1``, on a
        hit) successive :meth:`arrivals` calls would, so a caller alternating
        between this and per-cycle draws stays bit-identical to a pure
        per-cycle loop.  Returns ``(offset, arrivals)`` on a hit and
        ``(limit, None)`` when every cycle in the window is empty.

        This generic implementation just loops :meth:`arrivals`; memoryless
        subclasses may vectorize (see :meth:`Bernoulli.first_arrival_block`).
        """
        for offset in range(limit):
            arrivals = self.arrivals(rng)
            if len(arrivals):
                return offset, arrivals
        return limit, None

    @property
    def average_rate(self) -> float:
        """Long-run packets/cycle/node."""
        return self.rate


class Bernoulli(InjectionProcess):
    """Independent coin flip per node per cycle — the open-loop default."""

    name = "bernoulli"

    def arrivals(self, rng: np.random.Generator) -> np.ndarray:
        return np.nonzero(rng.random(self.num_nodes) < self.rate)[0]

    # Kept with the base method (see there); TestFirstArrivalBlock pins it.
    def first_arrival_block(
        self, rng: np.random.Generator, limit: int
    ) -> tuple[int, "np.ndarray | None"]:
        """Vectorized lookahead: draw whole blocks of cycles in one call.

        ``Generator.random(k * n)`` consumes the same doubles, in the same
        order, as ``k`` successive ``random(n)`` calls, so a block draw scans
        ``k`` cycles at once.  When an arrival lands mid-block the generator
        state saved before the block is restored and exactly ``offset + 1``
        cycle-rows are redrawn — the stream position afterwards matches a
        per-cycle loop that stopped on the same hit, bit for bit.  Block
        sizes grow geometrically so short gaps don't pay for large draws.
        """
        n = self.num_nodes
        p = self.rate
        offset = 0
        # Short gaps are common at moderate load: scan the first cycles
        # with plain per-cycle draws (a hit there needs no block draw or
        # state rewind) before escalating to blocks.
        while offset < limit and offset < 2:
            row = rng.random(n)
            hit = np.nonzero(row < p)[0]
            if len(hit):
                return offset, hit
            offset += 1
        block_cycles = 16
        while offset < limit:
            k = min(block_cycles, limit - offset)
            state = rng.bit_generator.state
            block = rng.random(k * n).reshape(k, n)
            hits = (block < p).any(axis=1)
            if hits.any():
                j = int(np.argmax(hits))
                # Rewind and redraw up to the hit so the stream position is
                # exactly where a per-cycle loop would have left it.
                rng.bit_generator.state = state
                rows = rng.random((j + 1) * n)
                row = rows[j * n :]
                return offset + j, np.nonzero(row < p)[0]
            offset += k
            block_cycles = min(block_cycles * 4, 512)
        return limit, None


class MarkovOnOff(InjectionProcess):
    """2-state Markov-modulated Bernoulli process (bursty traffic).

    ``alpha`` = P(OFF→ON) per cycle, ``beta`` = P(ON→OFF) per cycle,
    ``on_rate`` = injection probability while ON.  Mean burst length is
    1/``beta`` cycles; the long-run average rate is
    ``on_rate · alpha / (alpha + beta)``.
    """

    name = "markov_on_off"

    def __init__(
        self,
        num_nodes: int,
        *,
        alpha: float,
        beta: float,
        on_rate: float,
    ):
        for label, v in (("alpha", alpha), ("beta", beta), ("on_rate", on_rate)):
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{label} must be in (0, 1]")
        avg = on_rate * alpha / (alpha + beta)
        super().__init__(num_nodes, avg)
        self.alpha = alpha
        self.beta = beta
        self.on_rate = on_rate
        self._on = np.zeros(num_nodes, dtype=bool)

    @classmethod
    def for_average_rate(
        cls,
        num_nodes: int,
        average_rate: float,
        *,
        burst_length: float = 20.0,
        on_rate: float = 1.0,
    ) -> "MarkovOnOff":
        """Construct a process with a given long-run average rate.

        ``burst_length`` is the mean ON duration in cycles; ``on_rate`` the
        intensity inside a burst.  Must satisfy ``average_rate < on_rate``.
        """
        if not 0.0 < average_rate < on_rate:
            raise ValueError("need 0 < average_rate < on_rate")
        if burst_length < 1.0:
            raise ValueError("burst_length must be >= 1 cycle")
        beta = 1.0 / burst_length
        p_on = average_rate / on_rate
        # p_on = alpha / (alpha + beta)  =>  alpha = beta * p_on / (1 - p_on)
        alpha = beta * p_on / (1.0 - p_on)
        if alpha > 1.0:
            raise ValueError(
                "infeasible: average too close to on_rate for this burst length"
            )
        return cls(num_nodes, alpha=alpha, beta=beta, on_rate=on_rate)

    def arrivals(self, rng: np.random.Generator) -> np.ndarray:
        draws = rng.random(self.num_nodes)
        on = self._on
        # state transitions first, then emission from the (new) state
        turning_on = ~on & (draws < self.alpha)
        turning_off = on & (draws < self.beta)
        on ^= turning_on | turning_off
        emit = rng.random(self.num_nodes) < self.on_rate
        return np.nonzero(on & emit)[0]

    @property
    def p_on(self) -> float:
        """Stationary probability of the ON state."""
        return self.alpha / (self.alpha + self.beta)
