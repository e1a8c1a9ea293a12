"""Dimension-ordered routing (DOR), the paper's baseline.

On a mesh, DOR is deadlock-free in any VC; on rings and tori the wraparound
links close a channel-dependency cycle, broken with Dally's *dateline*
scheme.  We use the standard balanced variant: within each dimension, a leg
that will traverse the wraparound edge rides VC class 0 until the crossing
and class 1 afterwards, while a leg that never wraps rides class 1.  The
class is a pure function of (position after the hop, target), so no
per-packet state is needed — which is also what lets balanced-dateline DOR
serve its routes from static rows (:attr:`RoutingAlgorithm.static_rows`)
exactly as the mesh does; only ``dateline_mode="strict"`` reads the
packet's source and keeps calling :meth:`DOR.route`.

Deadlock freedom: class-0 channel dependencies never include the wrap edge
(the crossing hop allocates class 1 downstream), so the class-0 chain is
open; class-1 dependencies never *reach* the wrap edge (post-crossing and
non-wrapping packets have no further wrap to take), so the class-1 chain is
open too, and there are no class-1 → class-0 edges to weave a mixed cycle.
"""

from __future__ import annotations

from functools import lru_cache

from ..network.packet import Packet
from ..topology.mesh import KAryNCube
from .base import RouteCandidate, RoutingAlgorithm, vc_range

__all__ = ["DOR", "dor_port"]

#: Largest network that gets static route rows: a full table is
#: num_nodes**2 references, so 1024 nodes cap it at 8 MiB per shape.
_STATIC_ROW_MAX_NODES = 1024


@lru_cache(maxsize=16)
def _shape_tables(
    topo_type: type,
    k: int,
    n: int,
    num_vcs: int,
    local_port: int,
    wrap: bool,
    dateline_mode: str,
):
    """Candidate lists and route rows shared by every DOR of one shape
    (both are immutable and depend on the shape alone, so sweeps rebuilding
    a network reuse them); ``rows[node]`` is None until first needed.

    Candidates are indexed ``[port]`` on a mesh and ``[port][vc class]`` on
    a wrapped topology.  ``dateline_mode`` is in the key because a row is
    ``route()``'s output, which depends on it.
    """
    if wrap:
        classes = (vc_range(0, 2, num_vcs), vc_range(1, 2, num_vcs))
        cands = [
            [[RouteCandidate(port, classes[cls])] for cls in (0, 1)]
            for port in range(2 * n)
        ]
    else:
        cands = [[RouteCandidate(port, range(num_vcs))] for port in range(2 * n)]
    return cands, [RouteCandidate(local_port, range(num_vcs))], [None] * k**n


def dor_port(topo: KAryNCube, node: int, target: int) -> int:
    """The DOR output port from ``node`` toward ``target`` (-1 if arrived).

    Shared by plain DOR and the two-phase overlays (VAL, ROMM), which route
    each phase dimension-ordered toward the phase's target.
    """
    for dim in range(topo.n):
        direction = topo.direction(node, target, dim)
        if direction > 0:
            return 2 * dim
        if direction < 0:
            return 2 * dim + 1
    return -1


class DOR(RoutingAlgorithm):
    """Deterministic dimension-ordered (e-cube) routing on k-ary n-cubes.

    ``dateline_mode`` selects the VC discipline on wrapped topologies:

    * ``"balanced"`` (default) — non-wrapping legs ride class 1, wrapping
      legs class 0 → 1 at the crossing; both classes carry traffic.
    * ``"strict"`` — the textbook scheme: every packet starts in class 0
      and only moves to class 1 after crossing the wrap edge, leaving
      class 1 nearly idle for typical traffic.  Kept for the ablation
      study (``benchmarks/test_ablation_dateline.py``), which shows how
      much torus/ring throughput the naive discipline costs.
    """

    name = "dor"

    def __init__(
        self, topology: KAryNCube, num_vcs: int, *, dateline_mode: str = "balanced"
    ):
        if not isinstance(topology, KAryNCube):
            raise TypeError("DOR requires a k-ary n-cube topology")
        if dateline_mode not in ("balanced", "strict"):
            raise ValueError(f"unknown dateline_mode {dateline_mode!r}")
        super().__init__(topology, num_vcs)
        self._wrap = topology.wrap
        self.dateline_mode = dateline_mode
        if self._wrap and num_vcs < 2:
            raise ValueError("DOR on a wrapped topology needs >= 2 VCs (dateline)")
        # Pre-built candidate lists (immutable, shared across hops and across
        # builds of one shape): one per output port on the mesh, one per
        # (port, class) on wrapped topologies.
        self._cands, self._eject_candidates, self._rows = _shape_tables(
            type(topology),
            topology.k,
            topology.n,
            num_vcs,
            topology.local_port,
            self._wrap,
            dateline_mode,
        )
        # Only the strict discipline reads a packet field (``src``) beyond
        # the destination; mesh and balanced-dateline routes are static.
        self.static_rows = (
            not (self._wrap and dateline_mode == "strict")
            and topology.num_nodes <= _STATIC_ROW_MAX_NODES
        )

    def static_row(self, node: int) -> list[list[RouteCandidate]]:
        if not self.static_rows:
            return super().static_row(node)  # strict dateline or oversized: raises
        row = self._rows[node]
        if row is None:
            probe = Packet(-1, node, node, 1, 0)
            row = []
            for dst in range(self.topology.num_nodes):
                probe.dst = dst
                row.append(self.route(node, probe))
            self._rows[node] = row
        return row

    def route(self, node: int, packet: Packet) -> list[RouteCandidate]:
        topo: KAryNCube = self.topology  # type: ignore[assignment]
        target = packet.dst
        if node == target:
            return self._eject()
        for dim in range(topo.n):
            direction = topo.direction(node, target, dim)
            if direction == 0:
                continue
            port = 2 * dim if direction > 0 else 2 * dim + 1
            if not self._wrap:
                return self._cands[port]
            # Dateline discipline: the class is decided by the position the
            # hop lands on — class 0 while the remaining leg still has the
            # wrap edge ahead, class 1 from the crossing onwards (and for
            # legs that never wrap).
            k = topo.k
            a = topo.coords(node)[dim]
            b = topo.coords(target)[dim]
            if direction > 0:
                landing = 0 if a == k - 1 else a + 1
                wraps_after = b < landing
            else:
                landing = k - 1 if a == 0 else a - 1
                wraps_after = b > landing
            if self.dateline_mode == "balanced":
                cls = 0 if wraps_after else 1
                return self._cands[port][cls]
            else:
                # strict: class 1 only after an actual crossing.  Whether
                # this packet's leg wraps at all is recomputed from its
                # source coordinate; non-wrapping legs stay in class 0.
                s = topo.coords(packet.src)[dim]
                if direction > 0:
                    leg_wraps = b < s
                    crossed = leg_wraps and landing <= b
                else:
                    leg_wraps = b > s
                    crossed = leg_wraps and landing >= b
                cls = 1 if crossed else 0
            return self._cands[port][cls]
        return self._eject()  # pragma: no cover - target==node handled above
