"""Open-loop measurement (paper §II-A, Figs. 1, 3, 9).

Open-loop simulation drives the network from an *infinite source queue*
with traffic parameters (spatial pattern, Bernoulli temporal process, size
distribution) that the network cannot influence; the result is the classic
latency vs. offered-load curve with its zero-load latency and saturation
throughput.

Methodology (Dally & Towles ch. 23): a warm-up phase, a measurement phase
tagging every packet *created* in the window, then a drain phase during
which background traffic keeps being injected so tagged packets experience
steady-state contention.  Latency counts from packet creation, so source
queueing delay is included and latency diverges at saturation.  A run whose
tagged packets cannot drain within the budget reports ``saturated=True``
and infinite latency.

The drain phase exists to time the tagged packets and for nothing else:
accepted throughput is final the cycle the window closes.  A caller that
reads throughput only runs with ``drain_limit=0``; one whose need for the
latencies depends on the throughput passes ``drain_if=`` to
:meth:`OpenLoopSimulator.run` and is asked once, at the window edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from .. import rng as rng_mod
from ..config import NetworkConfig
from ..network.factory import build_network
from ..traffic.patterns import TrafficPattern
from ..traffic.process import Bernoulli
from ..traffic.registry import build_pattern, build_sizes
from ..traffic.sizes import SizeDistribution
from .engine import Observer, SimulationEngine

__all__ = ["OpenLoopResult", "OpenLoopSimulator"]


@dataclass
class OpenLoopResult:
    """Steady-state measurements of one open-loop run.

    ``avg_latency``/``worst_node_latency`` are in cycles (inf if saturated);
    ``throughput`` is accepted flits/cycle/node over the measurement window;
    per-node averages are grouped by *source* node, matching the paper's
    Fig. 11 node distributions.
    """

    injection_rate: float
    avg_latency: float
    worst_node_latency: float
    throughput: float
    avg_hops: float
    saturated: bool
    num_measured: int
    per_node_latency: np.ndarray = field(repr=False)
    latencies: np.ndarray = field(repr=False)

    @property
    def p99_latency(self) -> float:
        """99th-percentile packet latency (inf if saturated)."""
        if self.saturated or len(self.latencies) == 0:
            return float("inf")
        return float(np.percentile(self.latencies, 99))


class _OpenLoopWorkload:
    """The open-loop workload: one source and the measurement window.

    The source injects every cycle of the run (background traffic keeps
    flowing through the drain phase so tagged packets see steady-state
    contention).  Packets created in
    ``[warmup, warmup + measure)`` are tagged, and the run is done once the
    window has closed and every tagged packet has been delivered.

    ``total_flits_delivered`` is read at the top of both window-edge cycles,
    so the closing read happens even when the run stops at that edge.
    ``drain_if``, when given, is asked once there with the window's accepted
    throughput; a falsy answer ends the run in the state a
    ``drain_limit=0`` run ends in.
    """

    def __init__(
        self,
        pattern: TrafficPattern,
        sizes: SizeDistribution,
        process,
        gen: np.random.Generator,
        *,
        warmup: int,
        measure: int,
        drain_if: Optional[Callable[[float], bool]] = None,
    ):
        if warmup < 0:
            raise ValueError("warmup must be >= 0")
        if measure < 0:
            raise ValueError("measure must be >= 0")
        self.pattern = pattern
        self.sizes = sizes
        self.process = process
        self.gen = gen
        # Destinations of one cycle may be drawn in a single call only if
        # nothing else consumes the generator between them.
        self.batch_dests = hasattr(pattern, "dests") and not getattr(sizes, "uses_rng", True)
        self.start = warmup
        self.end = warmup + measure
        self.drain_if = drain_if
        self.flits_start = 0
        self.flits_end = 0
        self.measured: list = []
        self.outstanding = 0

    def throughput(self, n: int) -> float:
        """Accepted flits/cycle/node between the two window-edge reads."""
        measure = self.end - self.start
        return (self.flits_end - self.flits_start) / (measure * n) if measure else 0.0

    def inject(self, net) -> None:
        now = net.now
        tagged = self.start <= now < self.end
        gen = self.gen
        sizes = self.sizes
        arrivals = self.process.arrivals(gen)
        count = len(arrivals)
        srcs = arrivals.tolist()
        if count > 1 and self.batch_dests:
            # One vector draw replaces ``count`` scalar ones: same values,
            # same generator state afterwards (pinned by
            # tests/test_traffic.py::TestBatchedDrawPremise).
            dsts = self.pattern.dests(arrivals, count, gen).tolist()
        else:
            # Lazy, so each destination draw directly precedes its
            # packet's size draw in the stream.
            dsts = (self.pattern.dest(src, gen) for src in srcs)
        for src, dst in zip(srcs, dsts):
            net.offer(net.make_packet(src, dst, sizes.draw(gen), measured=tagged))
        if tagged:
            self.outstanding += count

    def on_delivered(self, pkt, net) -> None:
        if pkt.measured:
            self.measured.append(pkt)
            self.outstanding -= 1

    def done(self, net) -> bool:
        now = net.now
        if now == self.start:
            self.flits_start = net.total_flits_delivered
        if now < self.end:
            return False
        if now == self.end:
            self.flits_end = net.total_flits_delivered
            if self.drain_if is not None and not self.drain_if(
                self.throughput(net.num_nodes)
            ):
                return True
        return self.outstanding == 0


class OpenLoopSimulator:
    """Runs open-loop measurements on a fresh network per run."""

    def __init__(
        self,
        config: NetworkConfig,
        *,
        pattern: Optional[TrafficPattern] = None,
        sizes: Optional[SizeDistribution] = None,
        process=None,
        warmup: int = 1000,
        measure: int = 2000,
        drain_limit: int = 30000,
        observers: Iterable[Observer] = (),
        network_factory=build_network,
    ):
        self.config = config
        self.pattern = pattern if pattern is not None else build_pattern(config)
        self.sizes = sizes if sizes is not None else build_sizes(config)
        # Temporal injection process factory: (num_nodes, packet_rate) ->
        # InjectionProcess.  Default is the conventional Bernoulli process;
        # pass e.g. ``lambda n, r: MarkovOnOff.for_average_rate(n, r)`` for
        # bursty traffic (SII-A's "temporal distribution" axis).
        self.process = process if process is not None else Bernoulli
        self.warmup = warmup
        self.measure = measure
        self.drain_limit = drain_limit
        #: engine observers (watchdog, invariants) shared by every run
        self.observers = tuple(observers)
        # Injection point for instrumented networks (matches BatchSimulator).
        self.network_factory = network_factory

    # -- single-point run -----------------------------------------------------
    def run(
        self,
        injection_rate: float,
        *,
        seed: Optional[int] = None,
        drain_if: Optional[Callable[[float], bool]] = None,
    ) -> OpenLoopResult:
        """Measure at ``injection_rate`` (offered flits/cycle/node).

        ``drain_if``, when given, is called once with the window's accepted
        throughput in the cycle the measurement window closes; if it returns
        false the drain phase is skipped and the result equals, field by
        field, the one a ``drain_limit=0`` simulator returns (throughput
        final, latencies of the packets already delivered, ``saturated`` if
        any tagged packet is still in flight).
        """
        if not 0.0 < injection_rate <= 1.0:
            raise ValueError("injection_rate must be in (0, 1]")
        cfg = self.config
        seed = cfg.seed if seed is None else seed
        net = self.network_factory(cfg)
        n = net.num_nodes
        # Offered load is in flits/cycle/node; the Bernoulli process draws
        # packets, so scale by the mean packet size.
        p_packet = injection_rate / self.sizes.mean
        if p_packet > 1.0:
            raise ValueError(
                f"rate {injection_rate} needs >1 packet/cycle/node "
                f"(mean size {self.sizes.mean})"
            )
        gen = rng_mod.make_generator(seed, "openloop", injection_rate)
        workload = _OpenLoopWorkload(
            self.pattern,
            self.sizes,
            self.process(n, p_packet),
            gen,
            warmup=self.warmup,
            measure=self.measure,
            drain_if=drain_if,
        )
        SimulationEngine(
            net,
            workload,
            max_cycles=self.warmup + self.measure + self.drain_limit,
            observers=self.observers,
        ).run()
        return self._collect(injection_rate, workload, n)

    def _collect(self, rate: float, window: _OpenLoopWorkload, n: int) -> OpenLoopResult:
        measured = window.measured
        saturated = window.outstanding > 0
        lat = np.array([p.latency for p in measured], dtype=np.float64)
        hops = np.array([p.hops for p in measured], dtype=np.float64)
        per_node = np.full(n, np.nan)
        if len(measured):
            srcs = np.array([p.src for p in measured])
            sums = np.bincount(srcs, weights=lat, minlength=n)
            counts = np.bincount(srcs, minlength=n)
            nz = counts > 0
            per_node[nz] = sums[nz] / counts[nz]
        throughput = window.throughput(n)
        if saturated or len(lat) == 0:
            avg = worst = float("inf")
        else:
            avg = float(lat.mean())
            worst = float(np.nanmax(per_node))
        return OpenLoopResult(
            injection_rate=rate,
            avg_latency=avg,
            worst_node_latency=worst,
            throughput=throughput,
            avg_hops=float(hops.mean()) if len(hops) else 0.0,
            saturated=saturated,
            num_measured=len(measured),
            per_node_latency=per_node,
            latencies=lat,
        )

    # -- derived measurements ----------------------------------------------------
    def latency_load_sweep(
        self, rates, *, seed: Optional[int] = None, stop_after_saturation: bool = True
    ) -> list[OpenLoopResult]:
        """Latency–load curve over ``rates`` (ascending offered loads).

        By default the sweep stops at the first saturated point: beyond it
        every point is saturated too and simulating them is pure drain-limit
        burn (the paper's Fig. 3 curves end at saturation for the same
        reason).
        """
        results = []
        for rate in rates:
            res = self.run(rate, seed=seed)
            results.append(res)
            if stop_after_saturation and res.saturated:
                break
        return results

    def zero_load_latency(self, *, rate: float = 0.005, seed: Optional[int] = None) -> float:
        """Measured latency at a near-zero offered load."""
        return self.run(rate, seed=seed).avg_latency

    def analytic_zero_load_latency(self) -> float:
        """First-principles zero-load latency under uniform random traffic.

        avg_hops · (tr + channel_delay) + the source router's pipeline (tr)
        + serialization; used to cross-check the simulator in tests.
        """
        from ..topology.registry import build_topology

        topo = build_topology(self.config)
        h = topo.average_min_hops()
        tr = self.config.router_delay
        ser = self.sizes.mean - 1.0
        try:
            ch_delay = next(iter(topo.channels())).delay
        except StopIteration:
            ch_delay = self.config.link_delay
        return h * (tr + ch_delay) + tr + ser

    def saturation_throughput(
        self,
        *,
        track_fraction: float = 0.95,
        tolerance: float = 0.01,
        lo: float = 0.02,
        hi: float = 1.0,
        seed: Optional[int] = None,
    ) -> float:
        """Saturation throughput via bisection on offered load.

        A point is "stable" if its tagged packets drain and the accepted
        throughput tracks the offered load within ``track_fraction`` — the
        practical proxy for the latency-asymptote definition in the paper
        (footnote 3 notes the exact latency is ill-conditioned near
        saturation, which is also why a latency cap makes a poor criterion
        on high-diameter topologies like the ring).

        A probe whose window throughput already fails the tracking test is
        unstable whatever its drain would show, so it ends at the window
        edge (``drain_if``); only probes that track are drained.  The lower
        bracket is judged on drain alone: at ``lo`` a small mesh offers so
        few flits per window that the tracking ratio is mostly sampling
        noise, and "tagged packets drained" is what *not saturated* means.
        """

        def stable(rate: float) -> bool:
            floor = track_fraction * rate
            res = self.run(rate, seed=seed, drain_if=lambda tp: tp >= floor)
            return (not res.saturated) and res.throughput >= floor

        if self.run(lo, seed=seed).saturated:
            return 0.0
        while hi - lo > tolerance:
            mid = 0.5 * (lo + hi)
            if stable(mid):
                lo = mid
            else:
                hi = mid
        return lo
