"""Focused tests on the in-order core model's state machine."""

from __future__ import annotations

from repro import rng as rng_mod
from repro.execdriven import (
    OS,
    USER,
    AddressSpace,
    BenchmarkSpec,
    InOrderCore,
    MSHRFile,
    PhaseSpec,
    SetAssocCache,
)


def make_core(
    phases,
    *,
    mshrs=2,
    blocking=0.0,
    timer=None,
    requests=None,
    num_cores=4,
):
    spec = BenchmarkSpec(
        name="t",
        phases=tuple(phases),
        timer_handler=timer
        or PhaseSpec("timer", 10, 0.5, 0.3, 0.0, traffic_class=OS),
        blocking_fraction=blocking,
    )
    # hot pool sized to fit the 16-line test L1, so "hot" accesses hit
    space = AddressSpace(num_cores, hot_lines=8, mid_lines=1024, cold_lines=4096)
    sent = requests if requests is not None else []

    def send(core_id, line, cls):
        sent.append((core_id, line, cls))

    # mirror CmpSystem's warm start: hot set resident in the L1
    l1 = SetAssocCache(16, 4)
    for off in range(space.hot_lines):
        l1.fill(space.hot_line(0, off))
    core = InOrderCore(
        0,
        spec,
        space,
        l1=l1,
        mshrs=MSHRFile(mshrs),
        send_request=send,
        rng=rng_mod.make_generator(1, "core-test"),
        blocking_fraction=blocking,
    )
    return core, sent


def run_core(core, cycles, on_request=None):
    for now in range(cycles):
        core.step(now)
        if core.done and not core.active:
            return now
    return cycles


class TestExecution:
    def test_pure_compute_one_ipc(self):
        # mem_ratio ~0: every instruction takes 1 cycle
        core, _ = make_core([PhaseSpec("c", 100, 0.0001, 0.0, 0.0)])
        end = run_core(core, 500)
        assert core.done
        assert core.instructions_retired == 100
        assert 99 <= end <= 130  # a stray memory op costs a couple cycles

    def test_hot_memory_costs_l1_latency(self):
        core, sent = make_core([PhaseSpec("m", 50, 1.0, 0.0, 0.0)])
        run_core(core, 500)
        assert core.done
        assert not sent  # hot pool: no network requests
        assert core.l1_misses <= 16  # only compulsory misses to the hot set

    def test_misses_send_requests(self):
        core, sent = make_core([PhaseSpec("m", 80, 1.0, 1.0, 0.0)], mshrs=100)
        run_core(core, 2000)
        assert core.done
        assert len(sent) > 10
        assert all(cls == USER for _, _, cls in sent)

    def test_mshr_full_stalls_until_reply(self):
        core, sent = make_core([PhaseSpec("m", 50, 1.0, 1.0, 0.0)], mshrs=1)
        for now in range(200):
            core.step(now)
        assert not core.done  # wedged on the second distinct miss
        assert core.mshr_stall_cycles > 0
        first = sent[0]
        core.on_reply(first[1], 200)
        progressed = core.instructions_retired
        for now in range(201, 400):
            core.step(now)
            for cid, line, cls in sent[1:]:
                if core.mshrs.lookup(line):
                    core.on_reply(line, now)
        assert core.instructions_retired > progressed

    def test_blocking_load_waits_for_reply(self):
        core, sent = make_core(
            [PhaseSpec("m", 10, 1.0, 1.0, 0.0)], mshrs=8, blocking=1.0
        )
        for now in range(50):
            core.step(now)
        # blocked on the first miss: nothing retires past it
        assert core.instructions_retired <= 1
        assert core.active
        line = sent[0][1]
        core.on_reply(line, 50)
        assert core.instructions_retired >= 1

    def test_nonblocking_continues_past_misses(self):
        core, sent = make_core(
            [PhaseSpec("m", 30, 1.0, 1.0, 0.0)], mshrs=100, blocking=0.0
        )
        for now in range(200):
            core.step(now)
        assert core.done  # never waits for any reply
        assert len(sent) >= 20


class TestInterrupts:
    def test_interrupt_preempts_and_resumes(self):
        core, sent = make_core(
            [PhaseSpec("u", 100, 0.0001, 0.0, 0.0)],
            timer=PhaseSpec("k", 20, 1.0, 1.0, 0.0, traffic_class=OS),
            mshrs=100,
        )
        assert core.interrupt(core.spec.timer_handler)
        run_core(core, 1000)
        assert core.done
        assert core.instructions_retired == 120
        assert any(cls == OS for _, _, cls in sent)

    def test_no_nested_interrupts(self):
        core, _ = make_core([PhaseSpec("u", 1000, 0.0001, 0.0, 0.0)])
        assert core.interrupt(core.spec.timer_handler)
        assert not core.interrupt(core.spec.timer_handler)

    def test_no_interrupts_after_done(self):
        core, _ = make_core([PhaseSpec("u", 5, 0.0001, 0.0, 0.0)])
        run_core(core, 100)
        assert core.done
        assert not core.interrupt(core.spec.timer_handler)


class TestPhaseTransitions:
    def test_phases_execute_in_order(self):
        requests = []
        core, _ = make_core(
            [
                PhaseSpec("k1", 20, 1.0, 1.0, 0.0, traffic_class=OS),
                PhaseSpec("u", 20, 1.0, 1.0, 0.0, traffic_class=USER),
                PhaseSpec("k2", 20, 1.0, 1.0, 0.0, traffic_class=OS),
            ],
            mshrs=100,
            requests=requests,
        )
        run_core(core, 2000)
        assert core.done
        classes = [cls for _, _, cls in requests]
        # kernel first, then user, then kernel again
        first_user = classes.index(USER)
        last_user = len(classes) - 1 - classes[::-1].index(USER)
        assert all(c == OS for c in classes[:first_user])
        assert all(c == OS for c in classes[last_user + 1 :])

    def test_empty_phase_skipped(self):
        core, _ = make_core(
            [
                PhaseSpec("empty", 0, 0.5, 0.0, 0.0),
                PhaseSpec("real", 10, 0.0001, 0.0, 0.0),
            ]
        )
        run_core(core, 100)
        assert core.done
        assert core.instructions_retired == 10
