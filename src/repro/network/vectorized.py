"""Vectorized struct-of-arrays network backend (``backend="vectorized"``).

This module re-implements the cycle-level VC-router network of
:mod:`repro.network.network` as a *struct-of-arrays* (SoA) model: per-router
VC state, credit counters, and every in-flight flit live in preallocated
numpy buffers, and one network-wide pipeline step (route -> VC-allocate ->
switch-arbitrate -> traverse) is computed with vectorized masks instead of
per-flit Python objects.  It satisfies the same :class:`NetworkLike`
protocol, so all drivers, the engine and probes work unchanged.

Equivalence contract
--------------------
The backend is **bit-identical** to the object backend on every
configuration it accepts.  That is possible because, with ``credit_delay >=
1`` (the default), routers are fully decoupled within a cycle: every
cross-router effect (link traversal, credit return) is scheduled at least
one cycle into the future, so the object backend's per-router sequential
scan can be replayed as whole-network array phases without changing any
outcome.  The only sequential couplings *inside* a router — VC allocation
order and switch-arbiter state — are reproduced exactly:

* **VC allocation** commits picks in ivc-index order via prefix rounds:
  all routers pick in parallel against the pre-round state, then each
  router commits the longest prefix of its picks free of duplicate
  (port, vc) claims and recomputes the rest.  A committed claim only
  *removes* options from later ivcs, and removing a non-chosen option never
  changes a strict-``>`` first-max pick, so the result equals the
  sequential scan.
* **Switch arbitration** exploits that arbiters are per *output port*:
  the only cross-port coupling is the used-input-port mask.  Routers whose
  first-round winners already have pairwise distinct input ports (the
  overwhelmingly common case) grant fully vectorized; the rest fall back to
  an exact scalar replay of the object backend's retry loop, including its
  round-robin pointer updates.

Configurations the backend cannot reproduce exactly are rejected at
construction (``credit_delay == 0`` couples routers within a cycle), so
every supported config is exact and there is nothing to check
statistically.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from ..classes import source_queue_order
from ..config import NetworkConfig
from ..routing.registry import build_routing
from ..topology.mesh import KAryNCube
from ..topology.registry import build_topology
from .base import BackendUnsupported, BaseNetwork
from .packet import Packet

__all__ = ["VectorizedNetwork"]

_I64_MAX = np.iinfo(np.int64).max
_EMPTY_I64 = np.empty(0, dtype=np.int64)


class VectorizedNetwork(BaseNetwork):
    """Numpy struct-of-arrays network, bit-identical to :class:`Network`."""

    def __init__(self, config: NetworkConfig):
        if config.credit_delay == 0:
            raise BackendUnsupported(
                "vectorized",
                "credit_delay=0",
                "zero-delay credit return couples routers within a cycle, "
                "which the whole-network array phases cannot replay "
                "bit-exactly (credit_delay >= 1 keeps routers decoupled)",
            )
        self.config = config
        self.topology = build_topology(config)
        if not isinstance(self.topology, KAryNCube):
            raise TypeError(
                "the vectorized backend supports k-ary n-cube topologies only"
            )
        self.routing = build_routing(config, self.topology)
        topo = self.topology
        super().__init__(topo.num_nodes)

        N = topo.num_nodes
        self._ndim = topo.n
        self._k = topo.k
        self._wrap = topo.wrap
        V = self._V = config.num_vcs
        D = self._D = config.vc_buffer_size
        P = self._P = topo.ports_per_router
        L = self._L = topo.local_port
        PV = self._PV = P * V
        NIVC = N * PV
        self._tr = config.router_delay
        self._cd = config.credit_delay
        self._dly = topo.channel_delay

        # -- static topology tables ---------------------------------------
        self._coords = np.array(
            [topo.coords(i) for i in range(N)], dtype=np.int64
        )
        # arr_base[node, out_port]: flat ivc base (dst*PV + in_port*V) the
        # channel lands on; up_base[node, in_port]: flat credit base
        # (upstream_node*PV + upstream_port*V) for returned credits.
        self._arr_base = np.full((N, P), -1, dtype=np.int64)
        self._up_base = np.full((N, P), -1, dtype=np.int64)
        self._chan = [[None] * P for _ in range(N)]
        for ch in topo.channels():
            self._arr_base[ch.src, ch.out_port] = ch.dst * PV + ch.in_port * V
            self._up_base[ch.dst, ch.in_port] = ch.src * PV + ch.out_port * V
            self._chan[ch.src][ch.out_port] = ch

        # -- router state (flat ivc index g = node*P*V + port*V + vc) -----
        self._credits = np.zeros(NIVC, dtype=np.int64)
        cr = self._credits.reshape(N, P, V)
        cr[self._arr_base >= 0, :] = D  # only real channels carry credits
        self._owner = np.full(NIVC, -1, dtype=np.int64)
        self._ptr = np.zeros((N, P), dtype=np.int64)  # round-robin pointers
        self._age = config.arbitration == "age"
        self._used = np.zeros((N, P), dtype=bool)  # SA input-port scoreboard

        # -- traffic classes / class-aware arbitration ---------------------
        # Class-aware arbiters read per-class priority (and weight) from the
        # registry; class indices beyond it clamp to the last class, the
        # same rule the object arbiters apply.
        classes = config.classes
        C = self._C = len(classes)
        self._cls_prio = np.array([c.priority for c in classes], dtype=np.int64)
        self._prio_arb = config.arbitration == "priority"
        self._wfq = config.arbitration == "weighted"
        if self._wfq:
            from math import lcm

            base = lcm(*(c.weight for c in classes))
            self._wstep = np.array(
                [base // c.weight for c in classes], dtype=np.int64
            )
            # Virtual clocks per (router, output port, class) — the exact
            # integer state of one WeightedArbiter per output port.  Clocks
            # advance only after grants are fixed (mirroring granted()), so
            # the cycle's single sort order replays every per-port pick.
            self._wvt = np.zeros((N, P, C), dtype=np.int64)

        # Ring-buffer flit FIFOs, one row per input VC.
        self._f_pkt = np.zeros((NIVC, D), dtype=np.int64)
        self._f_fidx = np.zeros((NIVC, D), dtype=np.int64)
        self._f_ready = np.zeros((NIVC, D), dtype=np.int64)
        self._f_head = np.zeros(NIVC, dtype=np.int64)
        self._f_len = np.zeros(NIVC, dtype=np.int64)
        self._buffered = 0

        # Per-ivc allocated route (matches InputVC.out_port / out_vc).
        self._ivc_port = np.full(NIVC, -1, dtype=np.int64)
        self._ivc_vc = np.full(NIVC, -1, dtype=np.int64)

        # Route cache for the flit at each FIFO front (mirrors the object
        # backend's InputVC.candidates memo): filled by _route, invalidated
        # whenever the front flit pops.  A still-blocked head then re-enters
        # VC allocation each cycle without redoing the coordinate math.
        self._rc_valid = np.zeros(NIVC, dtype=bool)
        self._rc_eject = np.zeros(NIVC, dtype=bool)
        if config.routing == "ma":
            self._rc_ports = np.full((NIVC, topo.n), -1, dtype=np.int64)
            self._rc_esc = np.full(NIVC, -1, dtype=np.int64)
        else:
            self._rc_port = np.full(NIVC, -1, dtype=np.int64)
            self._rc_vlo = np.zeros(NIVC, dtype=np.int64)
            self._rc_vhi = np.zeros(NIVC, dtype=np.int64)

        # -- packet slot SoA ----------------------------------------------
        cap = 256
        self._p_src = np.zeros(cap, dtype=np.int64)
        self._p_dst = np.zeros(cap, dtype=np.int64)
        self._p_size = np.zeros(cap, dtype=np.int64)
        self._p_create = np.zeros(cap, dtype=np.int64)
        self._p_inject = np.zeros(cap, dtype=np.int64)
        self._p_deliver = np.zeros(cap, dtype=np.int64)
        self._p_pid = np.zeros(cap, dtype=np.int64)
        self._p_phase = np.zeros(cap, dtype=np.int64)
        self._p_inter = np.zeros(cap, dtype=np.int64)
        self._p_hops = np.zeros(cap, dtype=np.int64)
        self._p_cls = np.zeros(cap, dtype=np.int64)  # clamped arbitration class
        self._p_obj: list[Optional[Packet]] = [None] * cap
        self._free = list(range(cap - 1, -1, -1))

        # -- source queues -------------------------------------------------
        # Per-class FIFOs per node under class-aware arbitration, one FIFO
        # otherwise, drained as Network.src_queues are (packet-boundary
        # preemption).  A slot's queue is its class clamped to the last
        # queue.  _qhead caches the slot the priority walk would pick next;
        # it is refreshed on every offer/pop so _inject_all reads it
        # vectorized.
        self._inject_order = source_queue_order(classes, config.arbitration)
        self._last_queue = len(self._inject_order) - 1
        self._queues: list[list[deque]] = [
            [deque() for _ in self._inject_order] for _ in range(N)
        ]
        self._qhead = np.full(N, -1, dtype=np.int64)  # slot of next pick
        self._inj_slot = np.full(N, -1, dtype=np.int64)  # streaming packet
        self._inj_fidx = np.zeros(N, dtype=np.int64)
        self._inj_vc = np.zeros(N, dtype=np.int64)
        self._active_sources: set[int] = set()
        self._act_arr = np.empty(0, dtype=np.int64)
        self._act_dirty = False

        # -- event buckets (absolute cycle -> arrays) ----------------------
        self._arrq: dict[int, tuple] = {}
        self._crq: dict[int, np.ndarray] = {}

        # -- routing-algorithm constants ----------------------------------
        rt = self.routing.name
        if rt not in ("dor", "val", "romm", "ma"):  # pragma: no cover
            raise ValueError(f"unsupported routing {rt!r} for vectorized backend")
        self._rt = rt
        self._strict = (
            rt == "dor" and getattr(self.routing, "dateline_mode", "") == "strict"
        )
        if rt == "dor" and self._wrap:
            from ..routing.base import vc_range

            c0, c1 = vc_range(0, 2, V), vc_range(1, 2, V)
            self._cls_lo = np.array([c0[0], c1[0]], dtype=np.int64)
            self._cls_hi = np.array([c0[-1] + 1, c1[-1] + 1], dtype=np.int64)
        elif rt in ("val", "romm"):
            from ..routing.base import vc_range

            c0, c1 = vc_range(0, 2, V), vc_range(1, 2, V)
            self._ph_lo = np.array([c0[0], c1[0]], dtype=np.int64)
            self._ph_hi = np.array([c0[-1] + 1, c1[-1] + 1], dtype=np.int64)
        self._arV = np.arange(V, dtype=np.int64)

    # ------------------------------------------------------------------
    # driver API
    # ------------------------------------------------------------------
    def offer(self, packet: Packet) -> None:
        """Queue ``packet`` at its source (identical contract to Network)."""
        self.routing.on_inject(packet)
        s = self._alloc_slot()
        self._p_src[s] = packet.src
        self._p_dst[s] = packet.dst
        self._p_size[s] = packet.size
        self._p_create[s] = packet.create_time
        self._p_inject[s] = -1
        self._p_deliver[s] = -1
        self._p_pid[s] = packet.pid
        self._p_phase[s] = packet.phase
        self._p_inter[s] = -1 if packet.intermediate is None else packet.intermediate
        self._p_hops[s] = 0
        c = packet.traffic_class
        c = c if c < self._C else self._C - 1
        self._p_cls[s] = c
        self._p_obj[s] = packet
        self._queues[packet.src][min(c, self._last_queue)].append(s)
        self._refresh_qhead(packet.src)
        if packet.src not in self._active_sources:
            self._active_sources.add(packet.src)
            self._act_dirty = True
        self._inflight += 1

    def step(self) -> list[Packet]:
        now = self.now
        self._delivered = []
        creds = self._crq.pop(now, None)
        if creds is not None:
            self._credits[creds] += 1
        arr = self._arrq.pop(now, None)
        if arr is not None:
            ga, slots, fidxs = arr
            pos = (self._f_head[ga] + self._f_len[ga]) % self._D
            self._f_pkt[ga, pos] = slots
            self._f_fidx[ga, pos] = fidxs
            self._f_ready[ga, pos] = now + self._tr
            self._f_len[ga] += 1
            self._buffered += ga.size
        if self._active_sources:
            self._inject_all(now)
        if self._buffered:
            self._router_step(now)
        self.now = now + 1
        return self._delivered

    def buffered_flits(self) -> int:
        return self._buffered

    # -- probe support --------------------------------------------------
    def probe_channels(self):
        return self.topology.channels()

    def probe_vc_occupancy(self, out: Optional[np.ndarray] = None) -> np.ndarray:
        occ = self._f_len.reshape(self.num_nodes, self._PV).max(axis=1)
        if out is None:
            return occ
        out[:] = occ
        return out

    # ------------------------------------------------------------------
    # packet slots
    # ------------------------------------------------------------------
    def _refresh_qhead(self, node: int) -> None:
        """Point ``_qhead[node]`` at the first packet in priority order."""
        for cls in self._inject_order:
            q = self._queues[node][cls]
            if q:
                self._qhead[node] = q[0]
                return
        self._qhead[node] = -1

    def _alloc_slot(self) -> int:
        if not self._free:
            self._grow()
        return self._free.pop()

    def _grow(self) -> None:
        old = len(self._p_obj)
        ext = np.zeros(old, dtype=np.int64)
        for name in (
            "_p_src", "_p_dst", "_p_size", "_p_create", "_p_inject",
            "_p_deliver", "_p_pid", "_p_phase", "_p_inter", "_p_hops",
            "_p_cls",
        ):
            setattr(self, name, np.concatenate([getattr(self, name), ext]))
        self._p_obj.extend([None] * old)
        self._free.extend(range(2 * old - 1, old - 1, -1))

    # ------------------------------------------------------------------
    # event scheduling
    # ------------------------------------------------------------------
    def _sched_credits(self, t: int, idx: np.ndarray) -> None:
        cur = self._crq.get(t)
        self._crq[t] = idx if cur is None else np.concatenate([cur, idx])

    def _sched_arrivals(
        self, t: int, ga: np.ndarray, slots: np.ndarray, fidxs: np.ndarray
    ) -> None:
        cur = self._arrq.get(t)
        if cur is None:
            self._arrq[t] = (ga, slots, fidxs)
        else:  # pragma: no cover - single link delay keeps buckets disjoint
            self._arrq[t] = (
                np.concatenate([cur[0], ga]),
                np.concatenate([cur[1], slots]),
                np.concatenate([cur[2], fidxs]),
            )

    # ------------------------------------------------------------------
    # injection (mirrors Network._inject_all bit for bit)
    # ------------------------------------------------------------------
    def _inject_all(self, now: int) -> None:
        if self._act_dirty:
            self._act_arr = np.fromiter(
                self._active_sources, dtype=np.int64, count=len(self._active_sources)
            )
            self._act_arr.sort()
            self._act_dirty = False
        act = self._act_arr
        V, D, PV, L = self._V, self._D, self._PV, self._L
        empty_nodes: np.ndarray = act[
            (self._inj_slot[act] < 0) & (self._qhead[act] < 0)
        ]
        need = act[(self._inj_slot[act] < 0) & (self._qhead[act] >= 0)]
        if need.size:
            # Head-of-queue VC choice: most free space, strict >, skipping
            # VCs whose newest flit belongs to an unfinished packet.
            gm = (need * PV + L * V)[:, None] + self._arV[None, :]
            lens = self._f_len[gm]
            heads = self._f_head[gm]
            lastpos = (heads + lens - 1) % D
            lslot = self._f_pkt[gm, lastpos]
            lfidx = self._f_fidx[gm, lastpos]
            busy = (lens > 0) & (lfidx != self._p_size[lslot] - 1)
            free = np.where(busy, 0, D - lens)
            best = free.argmax(axis=1)
            got = free[np.arange(need.size), best] > 0
            self.injection_stalls += int(need.size - np.count_nonzero(got))
            ok = need[got]
            self._inj_slot[ok] = self._qhead[ok]
            self._inj_fidx[ok] = 0
            self._inj_vc[ok] = best[got]
        s = act[self._inj_slot[act] >= 0]
        if s.size:
            gl = s * PV + L * V + self._inj_vc[s]
            room = self._f_len[gl] < D
            self.injection_stalls += int(s.size - np.count_nonzero(room))
            s = s[room]
            gl = gl[room]
        if s.size:
            slots = self._inj_slot[s]
            f = self._inj_fidx[s]
            first = f == 0
            if first.any():
                self._p_inject[slots[first]] = now
            pos = (self._f_head[gl] + self._f_len[gl]) % D
            self._f_pkt[gl, pos] = slots
            self._f_fidx[gl, pos] = f
            self._f_ready[gl, pos] = now + self._tr
            self._f_len[gl] += 1
            self._buffered += s.size
            self.flit_injections[s] += 1
            self._inj_fidx[s] = f + 1
            done = (f + 1) == self._p_size[slots]
            for nd, slot in zip(s[done].tolist(), slots[done].tolist()):
                self._queues[nd][min(self._p_cls[slot], self._last_queue)].popleft()
                self._refresh_qhead(nd)
                self._inj_slot[nd] = -1
                if self._qhead[nd] < 0:
                    self._active_sources.discard(nd)
                    self._act_dirty = True
        for nd in empty_nodes.tolist():
            self._active_sources.discard(nd)
            self._act_dirty = True

    # ------------------------------------------------------------------
    # routing (vectorized RC)
    # ------------------------------------------------------------------
    def _dor_scan(self, nodes, targets, want_class, srcs=None):
        """First unaligned dimension's port (and dateline class if asked)."""
        m = nodes.size
        port = np.full(m, -1, dtype=np.int64)
        cls = np.zeros(m, dtype=np.int64)
        undecided = np.ones(m, dtype=bool)
        k = self._k
        coords = self._coords
        for dim in range(self._ndim):
            if not undecided.any():
                break
            a = coords[nodes, dim]
            b = coords[targets, dim]
            if self._wrap:
                fwd = (b - a) % k
                dirn = np.where(a == b, 0, np.where(fwd <= (a - b) % k, 1, -1))
            else:
                dirn = np.sign(b - a)
            take = undecided & (dirn != 0)
            if take.any():
                port = np.where(
                    take, np.where(dirn > 0, 2 * dim, 2 * dim + 1), port
                )
                if want_class:
                    up = dirn > 0
                    landing = np.where(
                        up,
                        np.where(a == k - 1, 0, a + 1),
                        np.where(a == 0, k - 1, a - 1),
                    )
                    if self._strict:
                        sc = coords[srcs, dim]
                        leg = np.where(up, b < sc, b > sc)
                        crossed = leg & np.where(up, landing <= b, landing >= b)
                        c = np.where(crossed, 1, 0)
                    else:
                        c = np.where(np.where(up, b < landing, b > landing), 0, 1)
                    cls = np.where(take, c, cls)
                undecided &= dirn == 0
        return port, cls

    def _route(self, g, nodes, slots) -> None:
        """Route-compute pending head flits into the per-ivc route cache.

        Phase advances (VAL/ROMM/overlay DOR) are applied to the packet SoA
        as a side effect — they are idempotent, so the object backend's
        route-once-per-head contract is preserved whether or not the cache
        was invalidated in between.
        """
        V, PV = self._V, self._PV
        rt = self._rt
        dst = self._p_dst[slots]
        self._rc_valid[g] = True
        if rt == "ma":
            eject = nodes == dst
            n = self._ndim
            coords = self._coords
            pm = np.full((nodes.size, n), -1, dtype=np.int64)
            for dim in range(n):
                a = coords[nodes, dim]
                b = coords[dst, dim]
                dirn = np.sign(b - a)
                pm[:, dim] = np.where(
                    dirn > 0, 2 * dim, np.where(dirn < 0, 2 * dim + 1, -1)
                )
            ep, _ = self._dor_scan(nodes, dst, False)
            self._rc_eject[g] = eject
            self._rc_ports[g] = pm
            self._rc_esc[g] = ep
            return

        if rt in ("val", "romm"):
            inter = self._p_inter[slots]
            phase = self._p_phase[slots]
            adv = (phase == 0) & (nodes == inter)
            if adv.any():
                self._p_phase[slots[adv]] = 1
            ph = np.where(adv, 1, phase)
            target = np.where(ph == 1, dst, inter)
            port, _ = self._dor_scan(nodes, target, False)
            sec = (port < 0) & (ph == 0)
            if sec.any():
                self._p_phase[slots[sec]] = 1
                ph = np.where(sec, 1, ph)
                p2, _ = self._dor_scan(nodes[sec], dst[sec], False)
                port[sec] = p2
            eject = port < 0
            vlo = self._ph_lo[ph]
            vhi = self._ph_hi[ph]
        else:  # dor
            inter = self._p_inter[slots]
            phase = self._p_phase[slots]
            target = np.where((phase == 0) & (inter >= 0), inter, dst)
            adv = (nodes == target) & (phase == 0) & (inter >= 0)
            if adv.any():
                self._p_phase[slots[adv]] = 1
                target = np.where(adv, dst, target)
            eject = nodes == target
            port, cls = self._dor_scan(
                nodes, target, self._wrap, srcs=self._p_src[slots]
            )
            if self._wrap:
                vlo = self._cls_lo[cls]
                vhi = self._cls_hi[cls]
            else:
                vlo = np.zeros(nodes.size, dtype=np.int64)
                vhi = np.full(nodes.size, V, dtype=np.int64)
        self._rc_eject[g] = eject
        self._rc_port[g] = port
        self._rc_vlo[g] = vlo
        self._rc_vhi[g] = vhi

    def _candidates(self, g, nodes):
        """(eject, main_idx, main_valid, esc_idx, esc_valid) matrices from
        the route cache, enumerating (candidate, vc) pairs in the object
        backend's allocation order."""
        V, PV = self._V, self._PV
        eject = self._rc_eject[g]
        if self._rt == "ma":
            port_e = np.repeat(self._rc_ports[g], V - 1, axis=1)
            vc_e = np.tile(np.arange(1, V, dtype=np.int64), self._ndim)
            main_valid = (port_e >= 0) & ~eject[:, None]
            main_idx = np.where(
                main_valid, nodes[:, None] * PV + port_e * V + vc_e[None, :], 0
            )
            ep = self._rc_esc[g]
            esc_valid = (ep >= 0)[:, None] & ~eject[:, None]
            esc_idx = np.where(esc_valid, (nodes * PV + ep * V)[:, None], 0)
            return eject, main_idx, main_valid, esc_idx, esc_valid
        port = self._rc_port[g]
        vcm = self._rc_vlo[g][:, None] + self._arV[None, :]
        main_valid = (
            (vcm < self._rc_vhi[g][:, None]) & ~eject[:, None] & (port >= 0)[:, None]
        )
        main_idx = np.where(
            main_valid, (nodes * PV + port * V)[:, None] + vcm, 0
        )
        return eject, main_idx, main_valid, None, None

    # ------------------------------------------------------------------
    # per-cycle router pipeline
    # ------------------------------------------------------------------
    def _router_step(self, now: int) -> None:
        nonempty = np.flatnonzero(self._f_len)
        ready = self._f_ready[nonempty, self._f_head[nonempty]] <= now
        rg = nonempty[ready]
        if rg.size == 0:
            return
        pend = rg[self._ivc_port[rg] < 0]
        if pend.size:
            self._va(pend)
        self._sa_st(rg, now)

    def _va(self, g: np.ndarray) -> None:
        """Route-compute + VC-allocate, committing in ivc-index order."""
        PV, V, P = self._PV, self._V, self._P
        nodes = g // PV
        fresh = ~self._rc_valid[g]
        if fresh.any():
            gf = g[fresh]
            self._route(gf, nodes[fresh], self._f_pkt[gf, self._f_head[gf]])
        eject, midx, mval, eidx, eval_ = self._candidates(g, nodes)
        ge = g[eject]
        if ge.size:
            self._ivc_port[ge] = self._L
            self._ivc_vc[ge] = -1
        rows = np.flatnonzero(~eject)
        owner, credits = self._owner, self._credits
        while rows.size:
            im = midx[rows]
            sc = np.where(mval[rows] & (owner[im] < 0), credits[im], -1)
            pick = sc.argmax(axis=1)
            ar = np.arange(rows.size)
            ok = sc[ar, pick] >= 0
            key = im[ar, pick]
            if eidx is not None:
                ne = ~ok
                if ne.any():
                    er = rows[ne]
                    ie = eidx[er]
                    sce = np.where(eval_[er] & (owner[ie] < 0), credits[ie], -1)
                    pe = sce.argmax(axis=1)
                    are = np.arange(er.size)
                    key[ne] = ie[are, pe]
                    ok[ne] = sce[are, pe] >= 0
            win = rows[ok]
            if win.size == 0:
                break
            wkey = key[ok]
            wg = g[win]
            order = np.argsort(wkey, kind="stable")
            sk = wkey[order]
            dup = np.flatnonzero(sk[1:] == sk[:-1]) + 1
            if dup.size == 0:
                self._commit_va(wg, wkey)
                break
            # Per conflicted router, commit picks below the first duplicate
            # claim and recompute the rest against the updated owners.
            first_bad = np.full(self.num_nodes, _I64_MAX, dtype=np.int64)
            dup_g = wg[order[dup]]
            np.minimum.at(first_bad, dup_g // PV, dup_g)
            defer = wg >= first_bad[wg // PV]
            self._commit_va(wg[~defer], wkey[~defer])
            rows = win[defer]

    def _commit_va(self, wg: np.ndarray, wkey: np.ndarray) -> None:
        if wg.size == 0:
            return
        self._ivc_port[wg] = (wkey // self._V) % self._P
        self._ivc_vc[wg] = wkey % self._V
        self._owner[wkey] = wg

    def _sa_st(self, rg: np.ndarray, now: int) -> None:
        """Switch-arbitrate ready allocated heads, then traverse winners.

        The object router's per-port retry loop (pick a winner, drop it if
        its input port is already used, repick) has a closed form: picks
        happen in arbitration order — round-robin cyclic order from the
        cycle-start pointer, or the pure key order of the age / priority /
        weighted arbiters — and the grant goes to the first request in that
        order whose input port is free, the round-robin pointer advancing
        on every consulted pick exactly as ``Arbiter.pick`` does.
        Output ports are visited in first-requester order per router, so
        grouping requests per (router, port) and walking groups in
        per-router rank rounds arbitrates every router concurrently with a
        handful of vectorized passes and no per-request Python.
        """
        PV, V, P, L = self._PV, self._V, self._P, self._L
        op = self._ivc_port[rg]
        routed = op >= 0
        rg = rg[routed]
        if rg.size == 0:
            return
        op = op[routed]
        ovc = self._ivc_vc[rg]
        is_ej = op == L
        cred_ok = is_ej.copy()
        ne = np.flatnonzero(~is_ej)
        if ne.size:
            cf = (rg[ne] // PV) * PV + op[ne] * V + ovc[ne]
            cred_ok[ne] = self._credits[cf] > 0
        req = np.flatnonzero(cred_ok)
        if req.size == 0:
            return
        req_g = rg[req]  # ascending: object scan order
        rop = op[req]
        rnode = req_g // PV
        li = req_g % PV
        key = rnode * P + rop
        # Round-robin is the only arbiter whose state mutates *during*
        # arbitration (the pointer advances per consulted pick); the other
        # three are pure functions of cycle-start state, so one lexsort per
        # cycle reproduces every per-port pick sequence exactly: age by
        # (create, pid, ivc), priority by (-prio, create, pid, ivc),
        # weighted by (vt, -prio, create, pid, ivc) with the clocks frozen
        # until grants are fixed (see WeightedArbiter.granted).
        rr = not (self._age or self._prio_arb or self._wfq)
        if rr:
            kr = (li - self._ptr[rnode, rop]) % PV
            order = np.argsort(key * PV + kr)  # (key, kr) pairs are unique
        else:
            hs = self._f_pkt[req_g, self._f_head[req_g]]
            pid = self._p_pid[hs]
            create = self._p_create[hs]
            if self._age:
                order = np.lexsort((li, pid, create, key))
            else:
                negp = -self._cls_prio[self._p_cls[hs]]
                if self._prio_arb:
                    order = np.lexsort((li, pid, create, negp, key))
                else:
                    vt = self._wvt[rnode, rop, self._p_cls[hs]]
                    order = np.lexsort((li, pid, create, negp, vt, key))
        g_s = req_g[order]
        sk = key[order]
        li_s = li[order]
        ip_s = li_s // V
        neq = np.empty(sk.size, dtype=bool)
        neq[0] = True
        np.not_equal(sk[1:], sk[:-1], out=neq[1:])
        starts = np.flatnonzero(neq)
        G = starts.size
        sizes = np.empty(G, dtype=np.int64)
        sizes[:-1] = starts[1:] - starts[:-1]
        sizes[-1] = sk.size - starts[-1]
        # Group rank: the first requester's flat ivc index embeds the router
        # id, so sorting groups by it yields (router, first-requester) order.
        first_g = np.minimum.reduceat(g_s, starts)
        gnode = first_g // PV
        gport = rop[order[starts]]
        gorder = np.argsort(first_g)
        gn = gnode[gorder]
        nb = np.empty(G, dtype=bool)
        nb[0] = True
        np.not_equal(gn[1:], gn[:-1], out=nb[1:])
        # gorder is router-major, so each router's groups form a contiguous
        # run in rank order.  Walk every router's chain concurrently: one
        # active group per router, advancing to the next group on grant or
        # exhaustion, to the next pick on an input-port conflict.
        a_pos = np.flatnonzero(nb)  # current group, as index into gorder
        a_end = np.empty(a_pos.size, dtype=np.int64)
        a_end[:-1] = a_pos[1:]
        a_end[-1] = G
        a_t = np.zeros(a_pos.size, dtype=np.int64)
        used = self._used
        used[:] = False
        ptr = self._ptr
        parts: list[np.ndarray] = []
        while a_pos.size:
            gidx = gorder[a_pos]
            sz = sizes[gidx]
            pos = starts[gidx] + a_t
            ipw = ip_s[pos]
            nd = gnode[gidx]
            free = ~used[nd, ipw]
            if rr:
                # pick() consults (and advances) the pointer whenever two
                # or more requests remain in the group
                consult = sz - a_t >= 2
                ptr[nd[consult], gport[gidx[consult]]] = (
                    li_s[pos[consult]] + 1
                ) % PV
            used[nd[free], ipw[free]] = True
            parts.append(g_s[pos[free]])
            nxt = free | (a_t + 1 >= sz)  # grant or exhausted: next group
            a_pos += nxt
            a_t = np.where(nxt, 0, a_t + 1)
            live = a_pos < a_end
            if not live.all():
                a_pos = a_pos[live]
                a_t = a_t[live]
                a_end = a_end[live]
        grants = np.concatenate(parts) if parts else _EMPTY_I64
        if grants.size:
            grants.sort()
            if self._wfq:
                # Advance the granted classes' virtual clocks exactly as
                # Router.step calls granted() once per traversal (ejection
                # grants included).  Read heads before _st pops them.
                gh = self._f_pkt[grants, self._f_head[grants]]
                gc = self._p_cls[gh]
                np.add.at(
                    self._wvt,
                    (grants // PV, self._ivc_port[grants], gc),
                    self._wstep[gc],
                )
            self._st(grants, now)

    def _st(self, g: np.ndarray, now: int) -> None:
        """Switch traversal for this cycle's grants (ascending ivc order)."""
        PV, V, D, L = self._PV, self._V, self._D, self._L
        node = g // PV
        li = g % PV
        ip = li // V
        ivcvc = li % V
        h = self._f_head[g]
        slot = self._f_pkt[g, h]
        fidx = self._f_fidx[g, h]
        self._f_head[g] = (h + 1) % D
        self._f_len[g] -= 1
        self._buffered -= g.size
        self._rc_valid[g] = False  # the front flit changed; routes are stale
        ub = self._up_base[node, ip]
        um = ub >= 0  # non-local input: return the buffer credit upstream
        if um.any():
            self._sched_credits(now + self._cd, ub[um] + ivcvc[um])
        opp = self._ivc_port[g]
        tail = fidx == self._p_size[slot] - 1
        ej = opp == L
        if ej.any():
            en = node[ej]
            self.flit_ejections[en] += 1
            self.total_flits_delivered += int(np.count_nonzero(ej))
            done = ej & tail
            if done.any():
                dg = g[done]
                self._ivc_port[dg] = -1
                self._ivc_vc[dg] = -1
                self._finalize(self._f_pkt[dg, h[done]], now)
        fwd = ~ej
        if fwd.any():
            gf = g[fwd]
            nf = node[fwd]
            pf = opp[fwd]
            sf = slot[fwd]
            ff = fidx[fwd]
            vf = self._ivc_vc[gf]
            cf = nf * PV + pf * V + vf
            self._credits[cf] -= 1
            first = ff == 0
            if first.any():
                self._p_hops[sf[first]] += 1
            self._sched_arrivals(
                now + self._dly, self._arr_base[nf, pf] + vf, sf, ff
            )
            self.total_flit_traversals += int(gf.size)
            hook = self._flit_hook
            if hook is not None:
                chan, pobj = self._chan, self._p_obj
                for i in range(gf.size):
                    hook(
                        chan[int(nf[i])][int(pf[i])],
                        int(vf[i]),
                        pobj[int(sf[i])],
                        int(ff[i]),
                        now,
                    )
            tl = tail[fwd]
            if tl.any():
                self._owner[cf[tl]] = -1
                self._ivc_port[gf[tl]] = -1
                self._ivc_vc[gf[tl]] = -1

    def _finalize(self, slots: np.ndarray, now: int) -> None:
        """Write SoA results back into the Packet objects and deliver them.

        ``slots`` arrive in ascending node order — at most one ejection per
        router per cycle, so this matches the object backend's sorted
        active-router scan."""
        self._p_deliver[slots] = now
        for s in slots.tolist():
            pkt = self._p_obj[s]
            pkt.inject_time = int(self._p_inject[s])
            pkt.deliver_time = now
            pkt.hops = int(self._p_hops[s])
            pkt.phase = int(self._p_phase[s])
            self._p_obj[s] = None
            self._free.append(s)
            self._delivered.append(pkt)
        self.total_packets_delivered += slots.size
        self._inflight -= slots.size
