"""Zero-cycle analytical model: M/G/1 queueing over DOR channel loads.

A queueing-theoretic latency/saturation estimator in the spirit of
"Analytical Performance Models for NoCs with Multiple Priority Traffic
Classes" (PAPERS.md).  It answers ``repro estimate`` in microseconds; it
never stands in for a simulated point.

The model, in three steps:

1. **Channel loads.**  Every (src, dst) pair of each class's exact traffic
   matrix (closed-form for uniform random and hotspot, the permutation
   table for the rest) is walked along its dimension-ordered route; the
   per-channel flit loads — ejection ports included — give the classic
   saturation bound ``λ_sat = capacity_factor / max_c load_c`` and the
   per-class mean hop count / path delay behind the zero-load latency
   ``T0 = Σ delay + H·tr + tr + (E[S] − 1)`` (the formula
   :meth:`~repro.core.openloop.OpenLoopSimulator.analytic_zero_load_latency`
   cross-checks against the simulator).
2. **Queueing delay.**  Each router hop is an M/G/1 queue at the
   bottleneck-normalized utilization ``ρ = λ / λ_sat`` with the configured
   packet-size distribution's ``E[S]``/``E[S²]``.  Under ``"priority"``
   arbitration the queue serves non-preemptive head-of-line priorities
   across the ``classes=`` registry — class *k* at priority level ``ℓ``
   waits ``W_k = R / ((1 − σ_above)(1 − σ_incl))`` where ``R`` is the mean
   residual service and ``σ`` cumulates utilization down the priority
   order, so high-priority latency stays flat while low-priority traffic
   saturates first, exactly the PR 7 measured separation.  The other
   arbiters (round-robin, age, weighted) are modelled as one FCFS
   Pollaczek–Khinchine queue shared by all classes.
3. **Assembly.**  ``T_k(λ) = T0_k + (H_k + 1)·W_k`` (the ``+1`` is the
   source queue — open-loop latency counts from packet creation), per-class
   throughput is a priority-ordered water-fill of the saturation capacity,
   and a class whose cumulative utilization reaches 1 reports
   ``saturated=True`` with infinite latency, mirroring the simulator's
   drain-failure convention.

Deliberate approximations (documented, not hidden): routes are modelled as
minimal DOR even under VAL/MA/ROMM; every hop sees the *bottleneck*
utilization (pessimistic mid-curve, tight at the knee); ``capacity_factor``
(default 0.85) derates the ideal bound for finite-buffer flow control — the
8×8 mesh's theoretical 0.49 lands on the simulator's measured ≈0.42 knee.
A configuration the model cannot describe (a fault plan, a traffic pattern
with no closed-form matrix) raises
:class:`~repro.network.base.BackendUnsupported`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..classes import class_shares
from ..config import NetworkConfig
from ..network.base import BackendUnsupported
from ..routing.dor import dor_port
from ..topology.registry import build_topology
from ..traffic.patterns import HotSpot, PermutationPattern, UniformRandom
from ..traffic.registry import build_pattern

__all__ = [
    "AnalyticalModel",
    "AnalyticalEstimate",
    "ClassEstimate",
    "estimate",
    "estimate_curve",
]

#: Fraction of the ideal channel capacity reachable before the simulator
#: saturates: finite VC buffers, credit round-trips and switch contention
#: cost roughly 15% of the bound (Dally & Towles §25.2 quote 60-90% for
#: real flow control; 0.85 matches this simulator's measured 8×8 knee).
DEFAULT_CAPACITY_FACTOR = 0.85


@dataclass(frozen=True)
class ClassEstimate:
    """One traffic class's share of an :class:`AnalyticalEstimate`."""

    name: str
    injection_rate: float
    avg_latency: float
    zero_load_latency: float
    avg_hops: float
    throughput: float
    utilization: float
    saturated: bool


@dataclass(frozen=True)
class AnalyticalEstimate:
    """Model prediction at one offered load (flits/cycle/node)."""

    injection_rate: float
    avg_latency: float
    zero_load_latency: float
    avg_hops: float
    throughput: float
    utilization: float
    saturation_rate: float
    saturated: bool
    classes: tuple[ClassEstimate, ...]


def _pattern_matrix(config: NetworkConfig, name: str) -> np.ndarray:
    """Exact row-stochastic traffic matrix for pattern ``name``.

    Rows are sources, entries are the probability a packet from that source
    targets each destination.  Closed forms, never sampled: uniform random
    spreads ``1/(N−1)`` off-diagonal, hotspot mixes a uniform matrix with
    its hotspot column(s), and every permutation pattern is its one-hot
    table (fixed points — e.g. the transpose diagonal — keep their
    diagonal weight: such packets bypass the network via the local port).
    """
    pattern = build_pattern(config.with_(traffic=name))
    n = pattern.num_nodes
    if isinstance(pattern, PermutationPattern):
        matrix = np.zeros((n, n))
        matrix[np.arange(n), pattern.table] = 1.0
        return matrix
    uniform = (np.ones((n, n)) - np.eye(n)) / (n - 1)
    if isinstance(pattern, UniformRandom):
        return uniform
    if isinstance(pattern, HotSpot):
        hot = np.zeros((n, n))
        hot[:, list(pattern.hotspots)] = 1.0 / len(pattern.hotspots)
        return pattern.fraction * hot + (1.0 - pattern.fraction) * uniform
    raise BackendUnsupported(
        "analytical",
        f"traffic pattern {name!r}",
        "the queueing model needs a closed-form traffic matrix",
    )


def _path_stats(topo, matrix: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(unit channel loads, mean hops, mean path channel delay) of ``matrix``.

    Loads are flits/cycle per channel at a unit (1 flit/cycle/node) offered
    load, indexed ``node·ports_per_router + out_port`` with the local port
    carrying ejection.  Means are per *packet* (matrix rows are
    row-stochastic, so dividing the weighted sum by N is exact).
    """
    n = topo.num_nodes
    ports = topo.ports_per_router
    load = np.zeros(n * ports)
    eject = topo.local_port
    mean_hops = 0.0
    mean_delay = 0.0
    for src in range(n):
        for dst in np.nonzero(matrix[src])[0]:
            dst = int(dst)
            if dst == src:
                continue
            w = float(matrix[src, dst])
            node, hops, delay = src, 0, 0
            while node != dst:
                port = dor_port(topo, node, dst)
                ch = topo.channel(node, port)
                load[node * ports + port] += w
                hops += 1
                delay += ch.delay
                node = ch.dst
            load[dst * ports + eject] += w
            mean_hops += w * hops / n
            mean_delay += w * delay / n
    return load, mean_hops, mean_delay


class AnalyticalModel:
    """Closed-form latency/throughput estimator for one configuration.

    Construction does all the routing work (one DOR walk per traffic-matrix
    pair); :meth:`estimate` is then pure arithmetic, microseconds per call,
    so a model instance can answer a whole rate sweep for the cost of one
    cycle-accurate warmup phase.
    """

    def __init__(
        self,
        config: NetworkConfig,
        *,
        capacity_factor: float = DEFAULT_CAPACITY_FACTOR,
    ):
        if config.faults is not None:
            raise BackendUnsupported(
                "analytical",
                "fault plans",
                "the queueing model assumes a healthy network; simulate "
                "faulted configurations cycle-accurately",
            )
        if not 0.0 < capacity_factor <= 1.0:
            raise ValueError("capacity_factor must be in (0, 1]")
        self.config = config
        self.capacity_factor = capacity_factor
        self.topology = build_topology(config)
        tr = config.router_delay
        mean_size = config.mean_packet_size
        self._mean_service = mean_size
        if config.packet_size == "single":
            self._service_sq = 1.0
        else:
            f = config.bimodal_long_fraction
            long = float(config.bimodal_long_size)
            self._service_sq = (1.0 - f) * 1.0 + f * long * long
        serialization = mean_size - 1.0
        self._shares = class_shares(config.classes)
        matrices: dict[str, tuple[np.ndarray, float, float]] = {}
        combined = np.zeros(self.topology.num_nodes * self.topology.ports_per_router)
        self._class_hops: list[float] = []
        self._class_t0: list[float] = []
        for cls, share in zip(config.classes, self._shares):
            name = cls.pattern or config.traffic
            if name not in matrices:
                matrices[name] = _path_stats(
                    self.topology, _pattern_matrix(config, name)
                )
            load, hops, delay = matrices[name]
            combined += share * load
            self._class_hops.append(hops)
            self._class_t0.append(delay + hops * tr + tr + serialization)
        max_load = float(combined.max())
        #: offered flits/cycle/node at which the bottleneck channel saturates
        self.saturation_rate = (
            capacity_factor / max_load if max_load > 0 else float("inf")
        )

    # -- queueing ---------------------------------------------------------
    def _class_waits(self, rho: float) -> list[float]:
        """Per-class mean wait per queue at total utilization ``rho``.

        ``"priority"`` arbitration gets the non-preemptive HOL-priority
        M/G/1 (classes grouped by priority level, FCFS within a level);
        everything else shares one Pollaczek–Khinchine queue.
        """
        residual = rho * self._service_sq / (2.0 * self._mean_service)
        classes = self.config.classes
        if self.config.arbitration != "priority":
            wait = residual / (1.0 - rho) if rho < 1.0 else float("inf")
            return [wait] * len(classes)
        waits = [float("inf")] * len(classes)
        sigma = 0.0
        for level in sorted({c.priority for c in classes}, reverse=True):
            members = [i for i, c in enumerate(classes) if c.priority == level]
            sigma_above = sigma
            sigma += rho * sum(self._shares[i] for i in members)
            if sigma_above < 1.0 and sigma < 1.0:
                wait = residual / ((1.0 - sigma_above) * (1.0 - sigma))
                for i in members:
                    waits[i] = wait
        return waits

    def estimate(self, rate: float) -> AnalyticalEstimate:
        """Predict latency/throughput at ``rate`` (offered flits/cycle/node)."""
        if not 0.0 < rate <= 1.0:
            raise ValueError("rate must be in (0, 1]")
        rho = rate / self.saturation_rate
        waits = self._class_waits(rho)
        classes = []
        capacity = min(rate, self.saturation_rate)
        order = sorted(
            range(len(self.config.classes)),
            key=lambda i: (-self.config.classes[i].priority, i),
        )
        throughput_by_class = [0.0] * len(order)
        if self.config.arbitration == "priority":
            # Water-fill the capacity down the priority order: a saturating
            # low class cannot steal bandwidth from the classes above it.
            remaining = min(rate, self.saturation_rate)
            for i in order:
                offered = rate * self._shares[i]
                got = min(offered, remaining)
                throughput_by_class[i] = got
                remaining -= got
            capacity = sum(throughput_by_class)
        else:
            for i in range(len(order)):
                throughput_by_class[i] = capacity * self._shares[i]
        for i, cls in enumerate(self.config.classes):
            wait = waits[i]
            saturated = not np.isfinite(wait)
            latency = (
                float("inf")
                if saturated
                else self._class_t0[i] + (self._class_hops[i] + 1.0) * wait
            )
            classes.append(
                ClassEstimate(
                    name=cls.name,
                    injection_rate=rate * self._shares[i],
                    avg_latency=latency,
                    zero_load_latency=self._class_t0[i],
                    avg_hops=self._class_hops[i],
                    throughput=throughput_by_class[i],
                    utilization=rho * self._shares[i],
                    saturated=saturated,
                )
            )
        saturated = any(c.saturated for c in classes)
        avg_latency = (
            float("inf")
            if saturated
            else sum(s * c.avg_latency for s, c in zip(self._shares, classes))
        )
        return AnalyticalEstimate(
            injection_rate=rate,
            avg_latency=avg_latency,
            zero_load_latency=sum(
                s * t0 for s, t0 in zip(self._shares, self._class_t0)
            ),
            avg_hops=sum(s * h for s, h in zip(self._shares, self._class_hops)),
            throughput=capacity,
            utilization=rho,
            saturation_rate=self.saturation_rate,
            saturated=saturated,
            classes=tuple(classes),
        )

    def curve(self, rates: Sequence[float]) -> list[AnalyticalEstimate]:
        """Estimates over ``rates`` (one model build, N arithmetic calls)."""
        return [self.estimate(r) for r in rates]


def estimate(
    config: NetworkConfig,
    rate: float,
    *,
    capacity_factor: float = DEFAULT_CAPACITY_FACTOR,
) -> AnalyticalEstimate:
    """One-shot convenience: build the model and estimate at ``rate``."""
    return AnalyticalModel(config, capacity_factor=capacity_factor).estimate(rate)


def estimate_curve(
    config: NetworkConfig,
    rates: Iterable[float],
    *,
    capacity_factor: float = DEFAULT_CAPACITY_FACTOR,
) -> list[AnalyticalEstimate]:
    """One-shot convenience: the model's latency–load curve over ``rates``."""
    return AnalyticalModel(config, capacity_factor=capacity_factor).curve(list(rates))

