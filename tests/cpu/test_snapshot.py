"""Round-trip tests for the ``Machine.snapshot()/restore()`` micro-API
and the resumable trampoline's mid-run capture/resume extension of it.

The batched fault-injection engine (``repro.cpu.batch``) and the
injection session both lean on one property: restoring a snapshot puts
the machine in a state from which a run is *bit-identical* to a run
from the snapshot point — outputs, every architectural counter, and
cycles. These tests pin that property across workloads, hardened
builds, armed fault plans, and runs abandoned by traps.

The trampoline (``repro.cpu.resumable``) extends the property to
*mid-run* points: an explicit-frame run is bit-identical to the
recursive engine, and a state captured at any eligible-instruction
boundary resumes to the identical completion.
"""

import pytest

from repro.cpu import STACK_BASE, Machine, MachineConfig
from repro.cpu.errors import Trap
from repro.cpu.interpreter import FaultPlan
from repro.cpu.resumable import (
    capture_state,
    rebuild_frames,
    restore_payload,
    resume_run,
    run_resumable,
    run_stack,
)
from repro.ir import Module
from repro.ir import types as T
from repro.toolchain import default_toolchain

from ..conftest import make_function

WORKLOADS = [("histogram", "native"), ("histogram", "elzar"),
             ("blackscholes", "native"), ("blackscholes", "elzar")]


def build(name, version):
    built = default_toolchain().build(name, "test", version)
    return built.module, built.entry, built.args


def observe(machine, entry, args):
    try:
        result = machine.run(entry, args)
    except Trap as exc:
        return ("trap", type(exc).__name__, str(exc),
                machine.counters.as_dict())
    return ("ok", list(result.output), result.counters.as_dict(),
            result.cycles)


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("name,version", WORKLOADS)
    def test_restore_then_run_is_bit_identical(self, name, version):
        module, entry, args = build(name, version)
        machine = Machine(module, MachineConfig(engine="compiled"))
        snap = machine.snapshot()
        first = observe(machine, entry, args)
        # The first run dirtied heap, counters, caches; restore must
        # erase every trace of it.
        machine.restore(snap)
        second = observe(machine, entry, args)
        assert first == second

    def test_restore_equals_fresh_machine(self):
        module, entry, args = build("histogram", "elzar")
        machine = Machine(module, MachineConfig(engine="compiled"))
        snap = machine.snapshot()
        observe(machine, entry, args)
        machine.restore(snap)
        fresh = Machine(module, MachineConfig(engine="compiled"))
        assert observe(machine, entry, args) == observe(fresh, entry, args)

    def test_repeated_restores_stay_identical(self):
        module, entry, args = build("histogram", "native")
        machine = Machine(module, MachineConfig(engine="compiled"))
        snap = machine.snapshot()
        runs = []
        for _ in range(3):
            machine.restore(snap)
            runs.append(observe(machine, entry, args))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("plan", [
        FaultPlan(target_index=7, bit=3, lane=1),
        FaultPlan(target_index=40, bit=62, lane=2),
        FaultPlan(target_index=11, bit=5, kind="addr"),
        FaultPlan(target_index=3, bit=0, kind="branch"),
    ])
    def test_armed_fault_state_round_trips(self, plan):
        # snapshot() captures armed-but-unfired plans; a restored run
        # must fire the same fault at the same dynamic site.
        module, entry, args = build("histogram", "elzar")
        machine = Machine(module, MachineConfig(engine="compiled"))
        machine.arm_fault(plan)
        snap = machine.snapshot()
        first = observe(machine, entry, args)
        machine.restore(snap)
        assert observe(machine, entry, args) == first

    def test_restore_after_trap_recovers_golden_run(self):
        # An address flip into the high bits traps mid-run, abandoning
        # the machine with live frames and a half-written heap; restore
        # must still recover a clean golden run.
        module, entry, args = build("histogram", "native")
        machine = Machine(module, MachineConfig(engine="compiled"))
        snap = machine.snapshot()
        golden = observe(machine, entry, args)
        assert golden[0] == "ok"

        machine.restore(snap)
        machine.arm_fault(FaultPlan(target_index=2, bit=40, kind="addr"))
        faulted = observe(machine, entry, args)

        machine.restore(snap)
        assert observe(machine, entry, args) == golden
        # The exercise is only meaningful if the fault actually
        # perturbed the first run.
        assert faulted != golden


class _TakeOnce:
    """Minimal capture policy: one state at the first boundary at or
    after ``at`` eligible instructions."""

    def __init__(self, at):
        self.next_index = at
        self.states = []

    def take(self, machine, stack, executed):
        self.states.append(capture_state(machine, stack, executed))
        self.next_index = 1 << 62


def _streams(machine):
    return (machine.eligible_executed, machine.mem_accesses_eligible,
            machine.cond_branches_eligible, machine.checker_sites_executed)


class TestResumableTrampoline:
    """The explicit-frame engine is indistinguishable from recursion."""

    @pytest.mark.parametrize("name,version", WORKLOADS)
    def test_trampoline_matches_recursive(self, name, version):
        module, entry, args = build(name, version)
        rec = Machine(module, MachineConfig(engine="compiled"))
        tram = Machine(module, MachineConfig(engine="compiled"))
        r1 = rec.run(entry, args)
        r2 = run_resumable(tram, entry, args)
        assert list(r1.output) == list(r2.output)
        assert r1.counters.as_dict() == r2.counters.as_dict()
        assert r1.cycles == r2.cycles
        assert _streams(rec) == _streams(tram)

    @pytest.mark.parametrize("kwargs", [
        {"collect_timing": False},
        {"cache_enabled": False},
        {"collect_by_opcode": True},
    ])
    def test_trampoline_matches_across_configs(self, kwargs):
        module, entry, args = build("histogram", "elzar")
        rec = Machine(module, MachineConfig(engine="compiled", **kwargs))
        tram = Machine(module, MachineConfig(engine="compiled", **kwargs))
        r1 = rec.run(entry, args)
        r2 = run_resumable(tram, entry, args)
        assert list(r1.output) == list(r2.output)
        assert r1.counters.as_dict() == r2.counters.as_dict()
        assert r1.cycles == r2.cycles

    @pytest.mark.parametrize("name,version", WORKLOADS)
    def test_trampoline_count_only_streams_match(self, name, version):
        module, entry, args = build(name, version)
        rec = Machine(module, MachineConfig(engine="compiled",
                                            collect_timing=False))
        rec.count_only = True
        tram = Machine(module, MachineConfig(engine="compiled",
                                             collect_timing=False))
        tram.count_only = True
        r1 = rec.run(entry, args)
        run_resumable(tram, entry, args)
        assert _streams(rec) == _streams(tram)
        assert list(r1.output) == list(tram.output)

    def test_trampoline_faulted_run_matches_recursive(self):
        module, entry, args = build("histogram", "elzar")
        plan = FaultPlan(target_index=40, bit=62, lane=2)
        rec = Machine(module, MachineConfig(engine="compiled"))
        rec.arm_fault(plan)
        tram = Machine(module, MachineConfig(engine="compiled"))
        tram.arm_fault(plan)
        r1 = rec.run(entry, args)
        r2 = run_resumable(tram, entry, args)
        assert list(r1.output) == list(r2.output)
        assert r1.counters.as_dict() == r2.counters.as_dict()

    @pytest.mark.parametrize("at", [1, 500, 3000])
    def test_capture_resume_completes_bit_identically(self, at):
        # Capture mid-run during a count_only golden run (the builder's
        # path), resume with no plans on a second machine: the tail must
        # complete to the golden output with golden counters.
        module, entry, args = build("histogram", "elzar")
        golden = Machine(module, MachineConfig(engine="compiled",
                                               collect_timing=False))
        reference = golden.run(entry, args)

        cap = Machine(module, MachineConfig(engine="compiled",
                                            collect_timing=False))
        cap.count_only = True
        policy = _TakeOnce(at)
        run_resumable(cap, entry, args, capture=policy)
        assert len(policy.states) == 1
        state = policy.states[0]
        assert state.eligible >= at

        resumed = Machine(module, MachineConfig(engine="compiled",
                                                collect_timing=False))
        result = resume_run(resumed, state, ())
        assert list(result.output) == list(reference.output)
        assert result.counters.as_dict() == reference.counters.as_dict()

    def test_capture_is_nondestructive(self):
        # A run with a capture hook produces the same result as one
        # without: take() only copies.
        module, entry, args = build("blackscholes", "elzar")
        plain = Machine(module, MachineConfig(engine="compiled"))
        plain.count_only = True
        r1 = run_resumable(plain, entry, args)
        hooked = Machine(module, MachineConfig(engine="compiled"))
        hooked.count_only = True
        policy = _TakeOnce(100)
        r2 = run_resumable(hooked, entry, args, capture=policy)
        assert list(r1.output) == list(r2.output)
        assert r1.counters.as_dict() == r2.counters.as_dict()
        assert _streams(plain) == _streams(hooked)

    def test_resume_is_repeatable(self):
        # One state, resumed three times on the same machine (the
        # injection-session reuse pattern): identical every time.
        module, entry, args = build("histogram", "native")
        cap = Machine(module, MachineConfig(engine="compiled",
                                            collect_timing=False))
        cap.count_only = True
        policy = _TakeOnce(200)
        run_resumable(cap, entry, args, capture=policy)
        state = policy.states[0]
        machine = Machine(module, MachineConfig(engine="compiled",
                                                collect_timing=False))
        plan = FaultPlan(target_index=state.eligible + 50, bit=7, lane=0)
        runs = []
        for _ in range(3):
            result = resume_run(machine, state, (plan,))
            runs.append((list(result.output),
                         result.counters.as_dict(),
                         machine.fault_injected))
        assert runs[0] == runs[1] == runs[2]


def _stale_slot_module():
    """``main`` calls ``writer`` (stores 7 into an alloca), then
    ``reader`` (loads an uninitialized alloca in the same stack slot).
    From scratch, ``reader`` sees the 7 ``writer`` left behind."""
    module = Module("stale")
    writer, wb = make_function(module, "writer", T.I64, [])
    wb.store(wb.i64(7), wb.alloca(T.I64))
    wb.ret(wb.i64(0))
    reader, rb = make_function(module, "reader", T.I64, [])
    rb.ret(rb.load(T.I64, rb.alloca(T.I64)))
    main, mb = make_function(module, "main", T.I64, [])
    mb.call(writer, [])
    x = mb.add(mb.i64(1), mb.i64(2))
    mb.add(x, mb.i64(3))
    mb.ret(mb.call(reader, []))
    return module


STALE_ENGINES = ["reference", "compiled"]


class TestStaleStackBytes:
    """Bytes a released frame left above the stack top are part of the
    state: a later alloca reads them, so snapshots and checkpoints must
    carry them and restores must drop any the captured machine lacked."""

    @pytest.mark.parametrize("engine", STALE_ENGINES)
    def test_checkpoint_between_calls_resumes_like_scratch(self, engine):
        module = _stale_slot_module()
        config = MachineConfig(engine=engine, collect_timing=False)
        assert Machine(module, config).run("main").value == 7

        cap = Machine(module, config)
        cap.count_only = True
        policy = _TakeOnce(2)
        run_resumable(cap, "main", (), capture=policy)
        state = policy.states[0]
        # Captured after writer returned and before reader was called.
        assert [f.fn for f in state.frames] == ["main"]
        assert state.stack_top == STACK_BASE

        result = resume_run(Machine(module, config), state, ())
        assert result.value == 7

    @pytest.mark.parametrize("engine", STALE_ENGINES)
    def test_restore_drops_stack_bytes_written_after_snapshot(self, engine):
        module = _stale_slot_module()
        config = MachineConfig(engine=engine, collect_timing=False)
        machine = Machine(module, config)
        snap = machine.snapshot()
        machine.run("writer")
        machine.restore(snap)
        fresh = Machine(module, config)
        assert fresh.run("reader").value == 0
        assert machine.run("reader").value == 0
