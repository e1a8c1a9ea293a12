"""Pluggable per-cycle instrumentation for any engine-driven run.

A :class:`Probe` observes the network every cycle and contributes fields to
a *windowed record*: every ``interval`` cycles the owning :class:`ProbeSet`
flushes one flat dict merging each probe's fields with the window bounds.
Records are JSON-native (ints, floats, lists), so they stream to disk as
JSON-lines via :func:`repro.analysis.io.append_jsonl` and round-trip through
:func:`repro.analysis.io.read_jsonl`; ``repro.analysis.ascii_plot.
probe_heatmap`` renders the per-node series as a quick terminal heatmap.

Probes are strictly opt-in: a :class:`ProbeSet` is one engine observer
(:class:`repro.core.engine.Observer`), and a run without it executes the
same cycle loop with no per-cycle allocations and no hooks installed.  The
only always-on costs in the network itself are the ``injection_stalls``
integer (incremented on backpressure events only) and one ``None`` check
per link traversal.

Built-in probes (compose freely, or subclass :class:`Probe`):

* :class:`ChannelUtilizationProbe` — per-link flit traversals (via the
  network's ``_flit_hook``), per-node ejected/injected flit deltas, and
  aggregate link utilization.  Ejected totals reconcile exactly with
  ``total_flits_delivered``.
* :class:`VCOccupancyProbe` — per-node max single-VC buffer occupancy,
  sampled each cycle; bounded by ``vc_buffer_size`` by construction.
* :class:`InjectionStallProbe` — source backpressure events per window.
* :class:`InFlightProbe` — packets-in-flight time series (avg/peak/last).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from ..analysis.io import append_jsonl
from ..network.base import NetworkLike

__all__ = [
    "Probe",
    "ChannelUtilizationProbe",
    "VCOccupancyProbe",
    "InjectionStallProbe",
    "InFlightProbe",
    "ProbeSet",
    "PROBE_REGISTRY",
    "build_probes",
]


class Probe:
    """One instrumentation dimension; subclass and override the hooks.

    Lifecycle: ``attach`` once per run, ``on_cycle`` every cycle,
    ``flush`` at each window boundary (returning this window's fields and
    resetting window state), ``detach`` at run end.
    """

    #: prefix for this probe's record fields (subclasses set it)
    name = "probe"

    def attach(self, net: NetworkLike) -> None:
        pass

    def detach(self, net: NetworkLike) -> None:
        pass

    def on_cycle(self, net: NetworkLike, now: int, delivered: list) -> None:
        pass

    def flush(self, net: NetworkLike, window_cycles: int) -> dict:
        """Return this window's fields; reset per-window state."""
        return {}


class ChannelUtilizationProbe(Probe):
    """Per-link flit traversals plus per-node injection/ejection deltas.

    Fields: ``link_flits`` (total flit-hops in the window), ``link_util``
    (flit-hops / (links × cycles)), ``max_link_util``, ``per_channel``
    (flits per directed channel, ordered as ``net.probe_channels()``),
    ``ejected_flits`` / ``injected_flits`` (window deltas reconciling with
    the network's cumulative counters), and ``per_node_ejected``.
    On fabrics with no channels (the ideal network) the per-link fields
    are zero and the per-node deltas still work.
    """

    name = "channel"

    def __init__(self) -> None:
        self._counts: Optional[np.ndarray] = None
        self._index: dict = {}
        self._ej_base: Optional[np.ndarray] = None
        self._inj_base: Optional[np.ndarray] = None
        self._delivered_base = 0

    def attach(self, net: NetworkLike) -> None:
        channels = list(net.probe_channels())
        self._index = {
            (ch.src, ch.out_port): i for i, ch in enumerate(channels)
        }
        self._counts = np.zeros(max(len(channels), 1), dtype=np.int64)
        self._num_channels = len(channels)
        self._ej_base = net.flit_ejections.copy()
        self._inj_base = net.flit_injections.copy()
        self._delivered_base = net.total_flits_delivered
        if self._num_channels:
            index = self._index
            counts = self._counts

            def hook(ch, vc, pkt, fidx, now, _index=index, _counts=counts):
                _counts[_index[(ch.src, ch.out_port)]] += 1

            net._flit_hook = hook

    def detach(self, net: NetworkLike) -> None:
        net._flit_hook = None

    def flush(self, net: NetworkLike, window_cycles: int) -> dict:
        counts = self._counts
        ej = net.flit_ejections
        inj = net.flit_injections
        ej_delta = ej - self._ej_base
        inj_delta = inj - self._inj_base
        delivered = net.total_flits_delivered - self._delivered_base
        self._ej_base = ej.copy()
        self._inj_base = inj.copy()
        self._delivered_base = net.total_flits_delivered
        nch = self._num_channels
        total = int(counts[:nch].sum()) if nch else 0
        denom = nch * window_cycles
        fields = {
            "link_flits": total,
            "link_util": total / denom if denom else 0.0,
            "max_link_util": (
                int(counts[:nch].max()) / window_cycles if nch and window_cycles else 0.0
            ),
            "per_channel": counts[:nch].tolist(),
            "ejected_flits": int(ej_delta.sum()),
            "injected_flits": int(inj_delta.sum()),
            "delivered_flits": delivered,
            "per_node_ejected": ej_delta.tolist(),
        }
        if nch:
            counts[:] = 0
        return fields


class VCOccupancyProbe(Probe):
    """Max single-VC buffer occupancy, per node, sampled every cycle.

    Fields: ``vc_occ_peak`` (worst VC depth seen anywhere this window),
    ``vc_occ_mean`` (mean over nodes of the per-cycle max, averaged over
    the window) and ``per_node_vc_peak``.
    """

    name = "vc"

    def __init__(self) -> None:
        self._peaks: Optional[np.ndarray] = None
        self._scratch: Optional[np.ndarray] = None
        self._sum = 0.0
        self._samples = 0

    def attach(self, net: NetworkLike) -> None:
        self._peaks = np.zeros(net.num_nodes, dtype=np.int64)
        self._scratch = np.zeros(net.num_nodes, dtype=np.int64)

    def on_cycle(self, net: NetworkLike, now: int, delivered: list) -> None:
        snap = net.probe_vc_occupancy(self._scratch)
        np.maximum(self._peaks, snap, out=self._peaks)
        self._sum += float(snap.mean())
        self._samples += 1

    def flush(self, net: NetworkLike, window_cycles: int) -> dict:
        peaks = self._peaks
        fields = {
            "vc_occ_peak": int(peaks.max()),
            "vc_occ_mean": self._sum / self._samples if self._samples else 0.0,
            "per_node_vc_peak": peaks.tolist(),
        }
        peaks[:] = 0
        self._sum = 0.0
        self._samples = 0
        return fields


class InjectionStallProbe(Probe):
    """Source backpressure events (flits that could not stream) per window."""

    name = "stall"

    def __init__(self) -> None:
        self._base = 0

    def attach(self, net: NetworkLike) -> None:
        self._base = net.injection_stalls

    def flush(self, net: NetworkLike, window_cycles: int) -> dict:
        stalls = net.injection_stalls - self._base
        self._base = net.injection_stalls
        return {
            "injection_stalls": stalls,
            "stall_rate": stalls / window_cycles if window_cycles else 0.0,
        }


class InFlightProbe(Probe):
    """Packets-in-flight time series: window average, peak, and last sample."""

    name = "inflight"

    def __init__(self) -> None:
        self._sum = 0
        self._peak = 0
        self._last = 0
        self._samples = 0

    def on_cycle(self, net: NetworkLike, now: int, delivered: list) -> None:
        inflight = net.in_flight
        self._sum += inflight
        if inflight > self._peak:
            self._peak = inflight
        self._last = inflight
        self._samples += 1

    def flush(self, net: NetworkLike, window_cycles: int) -> dict:
        fields = {
            "in_flight_avg": self._sum / self._samples if self._samples else 0.0,
            "in_flight_peak": self._peak,
            "in_flight_last": self._last,
        }
        self._sum = 0
        self._peak = 0
        self._samples = 0
        return fields


#: name -> factory, the CLI's ``--probes`` vocabulary
PROBE_REGISTRY: dict[str, Callable[[], Probe]] = {
    "channel": ChannelUtilizationProbe,
    "vc": VCOccupancyProbe,
    "stall": InjectionStallProbe,
    "inflight": InFlightProbe,
}


def build_probes(spec: Union[str, Iterable[str]]) -> list[Probe]:
    """Build probes from a comma-separated spec (or iterable); ``all`` = every one."""
    if isinstance(spec, str):
        names = [s.strip() for s in spec.split(",") if s.strip()]
    else:
        names = list(spec)
    if names == ["all"]:
        names = list(PROBE_REGISTRY)
    probes = []
    for name in names:
        try:
            probes.append(PROBE_REGISTRY[name]())
        except KeyError:
            raise ValueError(
                f"unknown probe {name!r} (choose from {', '.join(PROBE_REGISTRY)})"
            ) from None
    return probes


class ProbeSet:
    """A group of probes sharing one sampling window and output stream.

    ``interval`` — window length in cycles; each window flushes one record.
    ``out`` — optional JSONL path (or any ``append_jsonl``-compatible
    target): records stream to it as they flush, so a long run can be
    watched live with ``tail -f``.  The records of the latest run
    accumulate in :attr:`records`, their one home (reset by :meth:`begin`).
    """

    def __init__(
        self,
        probes: Sequence[Probe],
        *,
        interval: int = 100,
        out=None,
    ):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.probes = list(probes)
        self.interval = interval
        self.out = out
        self.records: list[dict] = []
        self._window_start = 0
        self._cycles_in_window = 0

    def begin(self, net: NetworkLike) -> None:
        """Attach all probes and reset window state (engine calls this)."""
        self.records = []
        self._window_start = net.now
        self._cycles_in_window = 0
        for probe in self.probes:
            probe.attach(net)

    def on_cycle(self, net: NetworkLike, now: int, delivered: list) -> None:
        """Sample one executed cycle; flush if the window just filled."""
        for probe in self.probes:
            probe.on_cycle(net, now, delivered)
        self._cycles_in_window += 1
        if self._cycles_in_window >= self.interval:
            self._flush(net, end=now + 1)

    def finish(self, net: NetworkLike) -> None:
        """Flush any partial window and detach probes."""
        if self._cycles_in_window:
            self._flush(net, end=net.now)
        for probe in self.probes:
            probe.detach(net)

    def _flush(self, net: NetworkLike, *, end: int) -> None:
        cycles = self._cycles_in_window
        record = {
            "window_start": self._window_start,
            "window_end": end,
            "cycles": cycles,
        }
        for probe in self.probes:
            record.update(probe.flush(net, cycles))
        self.records.append(record)
        if self.out is not None:
            append_jsonl(record, self.out)
        self._window_start = end
        self._cycles_in_window = 0
