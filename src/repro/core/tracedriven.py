"""Trace-driven simulation (paper §II, background methodology #2).

A trace stores "only abstract information of network packets such as the
timestamp, packet size, and source and destination" (§II) captured from
some reference run, and replays it on a network-only simulator.  Replay is
fast and workload-faithful to the *reference* configuration — but, as the
paper stresses, "feedback from the network does not affect the workload and
ignores the causality of messages": replaying a tr=1 trace on a tr=8
network keeps injecting at tr=1 rates, so it underestimates the slowdown
that a closed-loop (or real) system would see.  The ablation benchmark
``benchmarks/test_ablation_tracedriven.py`` quantifies exactly that.

Convenience captures for the open-loop and batch drivers are provided;
any other driver can record by passing an instrumented network factory
(see :func:`capture_batch_trace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from ..config import NetworkConfig
from ..network.factory import build_network
from ..network.network import Network
from .closedloop import BatchSimulator
from .engine import Observer, SimulationEngine
from .openloop import OpenLoopSimulator

__all__ = [
    "TraceRecord",
    "Trace",
    "capture_openloop_trace",
    "capture_batch_trace",
    "TraceDrivenSimulator",
    "TraceDrivenResult",
]


@dataclass(frozen=True)
class TraceRecord:
    """One packet of a trace: creation timestamp plus abstract header."""

    time: int
    src: int
    dst: int
    size: int

    def __post_init__(self) -> None:
        if self.time < 0 or self.size < 1:
            raise ValueError("need time >= 0 and size >= 1")


class Trace:
    """An ordered sequence of trace records with (de)serialization.

    Records must be sorted by timestamp; the constructor verifies it so a
    corrupted trace fails loudly instead of replaying out of order.
    """

    def __init__(self, records: Sequence[TraceRecord], *, num_nodes: int):
        records = list(records)
        for a, b in zip(records, records[1:]):
            if b.time < a.time:
                raise ValueError("trace records must be sorted by time")
        for r in records:
            if not (0 <= r.src < num_nodes and 0 <= r.dst < num_nodes):
                raise ValueError(f"record {r} outside 0..{num_nodes - 1}")
        self.records = records
        self.num_nodes = num_nodes

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def duration(self) -> int:
        """Timestamp of the last injection (0 for an empty trace)."""
        return self.records[-1].time if self.records else 0

    @property
    def total_flits(self) -> int:
        return sum(r.size for r in self.records)

    def injection_rate(self) -> float:
        """Average offered flits/cycle/node over the trace duration."""
        if not self.records or self.duration == 0:
            return 0.0
        return self.total_flits / (self.duration * self.num_nodes)


class _RecordingNetwork(Network):
    """Network that records every offered packet's abstract header."""

    def __init__(self, config: NetworkConfig):
        super().__init__(config)
        self.trace_records: list[TraceRecord] = []

    def offer(self, packet) -> None:
        self.trace_records.append(
            TraceRecord(self.now, packet.src, packet.dst, packet.size)
        )
        super().offer(packet)


def capture_openloop_trace(
    config: NetworkConfig,
    injection_rate: float,
    *,
    cycles: int = 2000,
    seed: Optional[int] = None,
) -> Trace:
    """Capture a trace from an open-loop run at ``injection_rate``."""
    sim = OpenLoopSimulator(config, warmup=0, measure=cycles, drain_limit=1)
    net = _RecordingNetwork(config)
    # Drive the recording network directly with the simulator's process.
    from .. import rng as rng_mod

    gen = rng_mod.make_generator(
        config.seed if seed is None else seed, "trace", injection_rate
    )
    p_packet = injection_rate / sim.sizes.mean
    for _ in range(cycles):
        for src in np.nonzero(gen.random(net.num_nodes) < p_packet)[0]:
            src = int(src)
            dst = sim.pattern.dest(src, gen)
            net.offer(net.make_packet(src, dst, sim.sizes.draw(gen)))
        net.step()
    return Trace(net.trace_records, num_nodes=net.num_nodes)


def capture_batch_trace(
    config: NetworkConfig,
    *,
    batch_size: int = 100,
    max_outstanding: int = 1,
    seed: Optional[int] = None,
    **batch_kwargs,
) -> Trace:
    """Capture a trace from a closed-loop batch run.

    The trace embeds the reference network's feedback (the injection times
    reflect *that* network's round trips) — which is precisely why replay
    on a different configuration is misleading, per §II.
    """
    recorders: list[_RecordingNetwork] = []

    def factory(cfg: NetworkConfig) -> _RecordingNetwork:
        net = _RecordingNetwork(cfg)
        recorders.append(net)
        return net

    BatchSimulator(
        config,
        batch_size=batch_size,
        max_outstanding=max_outstanding,
        network_factory=factory,
        **batch_kwargs,
    ).run(seed=seed)
    return Trace(recorders[-1].trace_records, num_nodes=config.num_nodes)


@dataclass
class TraceDrivenResult:
    """Replay measurements."""

    runtime: int
    avg_latency: float
    throughput: float
    packets: int
    completed: bool


class _TraceReplay:
    """Injects each trace record at exactly its recorded timestamp and
    collects every delivered packet's latency; done once all drained.

    Network feedback never delays an injection — the defining (and
    limiting) property of trace-driven evaluation.
    """

    def __init__(self, trace: Trace):
        self._it = iter(trace)
        self._next = next(self._it, None)
        self.latencies: list[int] = []

    def inject(self, net) -> None:
        nxt = self._next
        while nxt is not None and nxt.time == net.now:
            net.offer(net.make_packet(nxt.src, nxt.dst, nxt.size))
            nxt = next(self._it, None)
        self._next = nxt

    def on_delivered(self, pkt, net) -> None:
        self.latencies.append(pkt.latency)

    def done(self, net) -> bool:
        return self._next is None and net.is_idle()


class TraceDrivenSimulator:
    """Replays a :class:`Trace` on a network configuration.

    Packets are injected at their recorded timestamps regardless of what
    the replay network does — the defining (and limiting) property of
    trace-driven evaluation.
    """

    def __init__(
        self,
        config: NetworkConfig,
        trace: Trace,
        *,
        observers: Iterable[Observer] = (),
        network_factory=build_network,
    ):
        if trace.num_nodes != config.num_nodes:
            raise ValueError(
                f"trace has {trace.num_nodes} nodes, config {config.num_nodes}"
            )
        self.config = config
        self.trace = trace
        self.observers = tuple(observers)
        # Injection point for instrumented networks (matches the other drivers).
        self.network_factory = network_factory

    def run(self, *, drain_limit: int = 200_000) -> TraceDrivenResult:
        """Replay the full trace and drain; returns aggregate measurements."""
        net = self.network_factory(self.config)
        replay = _TraceReplay(self.trace)
        completed = SimulationEngine(
            net,
            replay,
            max_cycles=self.trace.duration + drain_limit,
            observers=self.observers,
        ).run()
        latencies = replay.latencies
        runtime = net.now
        return TraceDrivenResult(
            runtime=runtime,
            avg_latency=float(np.mean(latencies)) if latencies else float("nan"),
            throughput=net.total_flits_delivered / (runtime * net.num_nodes)
            if runtime
            else 0.0,
            packets=len(latencies),
            completed=completed,
        )
