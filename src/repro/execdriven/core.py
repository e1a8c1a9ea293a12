"""In-order core model.

Each core executes its benchmark's phase stream one instruction per cycle
(plus L1 access latency for memory operations).  Memory instructions probe
the real L1; a miss allocates an MSHR and sends a request packet to the
line's home L2 tile.  The core keeps executing past outstanding misses
until the MSHR file fills — exactly the intra-node dependency the batch
model abstracts with ``m`` — and stalls when it does.

Timer interrupts push the benchmark's handler phase onto an interrupt
stack; the handler's instructions execute with kernel-class parameters
before user execution resumes (§V's runtime-proportional kernel traffic).

A core's ``ready_at`` is the first cycle at which :meth:`InOrderCore.step`
can do anything: a busy core reads the cycle its instruction completes, a
core blocked on a load or finished reads :data:`NEVER`.  The CMP steps a
core only when ``ready_at <= now``, so a waiting core costs no call.  A
core stalled on a full MSHR file is ready every cycle: it retries and
counts the stall in ``step``.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from ..rng import Stream
from .address import AddressSpace, MixtureStream
from .benchmarks import BenchmarkSpec, PhaseSpec
from .cache import SetAssocCache
from .mshr import MSHRFile

__all__ = ["InOrderCore", "NEVER"]

_SHARED_BASE = 2 << 40  # mid/cold pools: lines at/above this are shared

#: ``ready_at`` of a core that waits for a load reply or has finished
NEVER = 1 << 62


class InOrderCore:
    """One in-order core executing a synthetic phase stream."""

    def __init__(
        self,
        core_id: int,
        spec: BenchmarkSpec,
        space: AddressSpace,
        *,
        l1: SetAssocCache,
        mshrs: MSHRFile,
        send_request: Callable[[int, int, int], None],
        rng: Union[Stream, np.random.Generator],
        l1_latency: int = 2,
        blocking_fraction: float = 0.7,
        logical_matrix: Optional[np.ndarray] = None,
    ):
        self.core_id = core_id
        self.spec = spec
        self.space = space
        self.l1 = l1
        self.mshrs = mshrs
        # send_request(core_id, line, traffic_class) -> injects a packet.
        self.send_request = send_request
        self.rng = rng
        self.l1_latency = l1_latency
        # Fraction of misses that are loads the in-order pipeline must wait
        # for (the rest behave like stores/prefetches: MSHR-tracked but
        # non-blocking).  This is what couples runtime to network latency.
        if not 0.0 <= blocking_fraction <= 1.0:
            raise ValueError("blocking_fraction must be in [0, 1]")
        self.blocking_fraction = blocking_fraction
        self.logical_matrix = logical_matrix

        self._phase_idx = 0
        self._phase_left = spec.phases[0].instructions if spec.phases else 0
        self._interrupt_stack: list[list] = []  # [phase, instrs_left, stream]
        self._streams: dict[int, MixtureStream] = {}
        # (phase, stream) now executing; None after a phase change or an
        # interrupt push or pop, rebuilt by the next step that needs it
        self._cur: Optional[tuple[PhaseSpec, MixtureStream]] = None
        self.ready_at = 0
        self._pending_line: Optional[int] = None
        self._pending_class = 0
        self._pending_blocking = False
        self._blocked_line: Optional[int] = None
        self.instructions_retired = 0
        self.kernel_instructions = 0
        self.l1_hits = 0
        self.l1_misses = 0
        self.mshr_stall_cycles = 0
        self.load_stall_cycles = 0
        self._block_since = 0
        self.done = self._phase_left == 0 and len(spec.phases) <= 1
        self._skip_empty_phases()

    # -- phase plumbing ------------------------------------------------------
    def _stream_for(self, phase: PhaseSpec) -> MixtureStream:
        key = id(phase)
        stream = self._streams.get(key)
        if stream is None:
            offsets = self.spec.neighbors
            n = self.space.num_cores
            partners = tuple((self.core_id + off) % n for off in offsets)
            stream = MixtureStream(
                self.space,
                self.core_id,
                p_mid=phase.p_mid,
                p_cold=phase.p_cold,
                rng=self.rng,
                partners=partners,
                partner_bias=phase.partner_bias,
            )
            self._streams[key] = stream
        return stream

    def _current(self) -> tuple[PhaseSpec, MixtureStream]:
        if self._interrupt_stack:
            frame = self._interrupt_stack[-1]
            return frame[0], frame[2]
        phase = self.spec.phases[self._phase_idx]
        return phase, self._stream_for(phase)

    def _retire(self) -> None:
        self.instructions_retired += 1
        if self._interrupt_stack:
            self.kernel_instructions += 1
            frame = self._interrupt_stack[-1]
            frame[1] -= 1
            if frame[1] <= 0:
                self._interrupt_stack.pop()
                self._cur = None
            return
        if self.spec.phases[self._phase_idx].traffic_class != 0:
            self.kernel_instructions += 1
        self._phase_left -= 1
        if self._phase_left <= 0:
            self._phase_idx += 1
            self._skip_empty_phases()

    def _skip_empty_phases(self) -> None:
        self._cur = None
        while self._phase_idx < len(self.spec.phases):
            self._phase_left = self.spec.phases[self._phase_idx].instructions
            if self._phase_left > 0:
                return
            self._phase_idx += 1
        self.done = True
        self.ready_at = NEVER

    # -- external events --------------------------------------------------------
    def interrupt(self, handler: PhaseSpec) -> bool:
        """Deliver a timer interrupt; ignored when nested or finished.

        Returns True if the handler was actually scheduled.
        """
        if self.done or self._interrupt_stack:
            return False
        self._interrupt_stack.append(
            [handler, handler.instructions, self._stream_for(handler)]
        )
        self._cur = None
        return True

    def on_reply(self, line: int, now: int = 0) -> None:
        """A memory reply arrived: fill the L1 and free the MSHR.

        If the pipeline is blocked on this line (a load in flight), the
        blocked instruction retires now.
        """
        self.mshrs.release(line)
        self.l1.fill(line)
        if self._blocked_line == line:
            self._blocked_line = None
            self.load_stall_cycles += now - self._block_since
            self.ready_at = now + 1
            self._retire()

    @property
    def active(self) -> bool:
        """True while the core still has work (instructions or stall retry)."""
        return (
            not self.done
            or self._pending_line is not None
            or self._blocked_line is not None
        )

    # -- per-cycle execution -------------------------------------------------------
    def step(self, now: int) -> None:
        """Execute at most one instruction event at cycle ``now``."""
        if self.ready_at > now:
            return
        if self._pending_line is not None:
            # Stalled on a full MSHR file: retry the blocked access.
            status = self.mshrs.allocate(self._pending_line)
            if status == "full":
                self.mshr_stall_cycles += 1
                return
            if status == "allocated":
                self.send_request(self.core_id, self._pending_line, self._pending_class)
            if self._pending_blocking:
                self._blocked_line = self._pending_line
                self._block_since = now
                self._pending_line = None
                self.ready_at = NEVER
                return
            self._pending_line = None
            self.ready_at = now + self.l1_latency
            self._retire()
            return
        # A finished core reads ready_at == NEVER and never gets here.
        cur = self._cur
        if cur is None:
            cur = self._cur = self._current()
        phase, stream = cur
        if self.rng.random() >= phase.mem_ratio:
            self.ready_at = now + 1
            self._retire()
            return
        line = stream.next_line()
        if self.logical_matrix is not None and line >= _SHARED_BASE:
            self.logical_matrix[self.core_id, self.space.producer_of(line)] += 1
        if self.l1.lookup(line):
            self.l1_hits += 1
            self.ready_at = now + self.l1_latency
            self._retire()
            return
        self.l1_misses += 1
        blocking = self.rng.random() < self.blocking_fraction
        status = self.mshrs.allocate(line)
        if status == "full":
            self._pending_line = line
            self._pending_class = phase.traffic_class
            self._pending_blocking = blocking
            self.mshr_stall_cycles += 1
            return
        if status == "allocated":
            self.send_request(self.core_id, line, phase.traffic_class)
        if blocking:
            # In-order pipeline: the dependent instruction stream waits for
            # the load; retirement happens in on_reply.
            self._blocked_line = line
            self._block_since = now
            self.ready_at = NEVER
            return
        self.ready_at = now + self.l1_latency
        self._retire()
