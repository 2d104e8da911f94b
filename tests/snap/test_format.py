"""Serialization round-trip properties of the checkpoint format.

The contract: ``deserialize(serialize(state))`` yields a state whose
resumed execution is bit-identical to resuming the original — across
machine configs (cache, predictor, timing) — and any corruption is a
:class:`SnapFormatError`, never a silently wrong state.
"""

from dataclasses import replace

import pytest

from repro.cpu import STACK_BASE, Machine, MachineConfig
from repro.cpu.errors import Trap
from repro.cpu.interpreter import FaultPlan
from repro.cpu.resumable import resume_run, run_resumable
from repro.snap.format import (
    SnapFormatError,
    deserialize_state,
    serialize_state,
)
from repro.toolchain import default_toolchain


class _TakeOnce:
    def __init__(self, at):
        self.next_index = at
        self.states = []

    def take(self, machine, stack, executed):
        from repro.cpu.resumable import capture_state

        self.states.append(capture_state(machine, stack, executed))
        self.next_index = 1 << 62


def _capture(module, entry, args, config, at=400):
    machine = Machine(module, config)
    machine.count_only = True
    policy = _TakeOnce(at)
    run_resumable(machine, entry, args, capture=policy)
    assert policy.states
    return machine, policy.states[0]


def _resume(machine, state, plan):
    """Everything a resumed injection run shows: the trap (the plan may
    well crash the program) or the output, plus counters, cycles and
    the eligible stream."""
    try:
        result = resume_run(machine, state, (plan,))
    except Trap as exc:
        ending = (type(exc).__name__, str(exc))
    else:
        ending = (list(result.output), result.cycles)
    return ending, machine.counters.as_dict(), machine.eligible_executed


CONFIGS = [
    MachineConfig(engine="compiled", collect_timing=False),
    MachineConfig(engine="compiled", collect_timing=True),
    MachineConfig(engine="compiled", cache_enabled=False,
                  collect_timing=False),
    MachineConfig(engine="compiled", collect_by_opcode=True,
                  collect_timing=True),
]


class TestRoundTrip:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("version", ["native", "elzar"])
    def test_roundtrip_resumes_bit_identically(self, version, config):
        built = default_toolchain().build("histogram", "test", version)
        machine, state = _capture(built.module, built.entry, built.args,
                                  config)
        blob = serialize_state(state, machine)
        revived = deserialize_state(blob, machine)

        plan = FaultPlan(target_index=state.eligible + 30, bit=13, lane=1)
        runs = [_resume(Machine(built.module, config), s, plan)
                for s in (state, revived)]
        assert runs[0] == runs[1]

    def test_serialization_is_deterministic(self):
        built = default_toolchain().build("histogram", "test", "elzar")
        machine, state = _capture(
            built.module, built.entry, built.args,
            MachineConfig(engine="compiled", collect_timing=False),
        )
        blob = serialize_state(state, machine)
        # serialize(deserialize(blob)) == blob pins both directions.
        assert serialize_state(deserialize_state(blob, machine),
                               machine) == blob

    def test_corruption_raises_not_misresumes(self):
        built = default_toolchain().build("histogram", "test", "native")
        machine, state = _capture(
            built.module, built.entry, built.args,
            MachineConfig(engine="compiled", collect_timing=False),
        )
        blob = serialize_state(state, machine)
        # Truncations and a bad magic must all be detected up front.
        with pytest.raises(SnapFormatError):
            deserialize_state(blob[:10], machine)
        with pytest.raises(SnapFormatError):
            deserialize_state(b"XXXX" + blob[4:], machine)


class TestMemoryImageValidation:
    """A decoded image the reader's machine could not install exactly is
    a format error (a store miss), never a short buffer under a mapped
    range."""

    @pytest.fixture(scope="class")
    def captured(self):
        built = default_toolchain().build("histogram", "test", "native")
        config = MachineConfig(engine="compiled", collect_timing=False)
        machine, state = _capture(built.module, built.entry, built.args,
                                  config)
        return built, config, machine, state

    @pytest.mark.parametrize("change", [
        lambda s: {"heap": s.heap[:-8]},                 # truncated heap
        lambda s: {"heap": s.heap + bytes(8)},           # padded heap
        lambda s: {"stack_mem": b"",                     # stack short of top
                   "stack_top": s.stack_top + 16},
        lambda s: {"stack_top": STACK_BASE - 8},         # top below base
    ], ids=["heap-truncated", "heap-padded", "stack-truncated",
            "stack-top-below-base"])
    def test_inconsistent_image_rejected(self, captured, change):
        _, _, machine, state = captured
        blob = serialize_state(replace(state, **change(state)), machine)
        with pytest.raises(SnapFormatError):
            deserialize_state(blob, machine)

    def test_image_beyond_reader_capacity_rejected(self, captured):
        built, config, machine, state = captured
        padded = replace(state, heap=state.heap + bytes(64),
                         heap_top=state.heap_top + 64,
                         stack_mem=state.stack_mem + bytes(64))
        blob = serialize_state(padded, machine)
        deserialize_state(blob, machine)  # consistent: accepted
        for small in ({"heap_capacity": len(state.heap)},
                      {"stack_capacity": len(state.stack_mem)}):
            reader = Machine(built.module, replace(config, **small))
            with pytest.raises(SnapFormatError):
                deserialize_state(blob, reader)

    def test_stack_above_top_round_trips(self, captured):
        _, _, machine, state = captured
        stale = replace(state, stack_mem=state.stack_mem + b"\x07" * 8)
        revived = deserialize_state(serialize_state(stale, machine), machine)
        assert revived.stack_mem == stale.stack_mem
        assert revived.stack_top == stale.stack_top


class TestFrameValidation:
    """A frame stack the reader's module cannot resume is a format error
    (a store miss), never an IndexError/KeyError at resume or a run
    that silently skips part of a block."""

    @pytest.fixture(scope="class")
    def captured(self):
        built = default_toolchain().build("histogram", "test", "native")
        config = MachineConfig(engine="compiled", collect_timing=False)
        machine, state = _capture(built.module, built.entry, built.args,
                                  config)
        return machine, state

    @staticmethod
    def _with_top(state, **change):
        top = replace(state.frames[-1], **change)
        return replace(state, frames=state.frames[:-1] + (top,))

    @pytest.mark.parametrize("change", [
        {"block": 999},
        {"fn": "nope"},
        {"regs": ()},
        {"i": 10 ** 6},
    ], ids=["block-999", "unknown-function", "empty-registers",
            "cursor-past-block"])
    def test_unresumable_top_frame_rejected(self, captured, change):
        machine, state = captured
        blob = serialize_state(self._with_top(state, **change), machine)
        with pytest.raises(SnapFormatError):
            deserialize_state(blob, machine)

    def test_times_length_mismatch_rejected(self, captured):
        machine, state = captured
        top = state.frames[-1]
        bad = self._with_top(state, times=top.times + (0.0,))
        with pytest.raises(SnapFormatError):
            deserialize_state(serialize_state(bad, machine), machine)

    def test_declared_function_rejected(self, captured):
        machine, state = captured
        declared = next(fn.name for fn in machine.module.functions.values()
                        if fn.is_declaration)
        bad = self._with_top(state, fn=declared)
        with pytest.raises(SnapFormatError):
            deserialize_state(serialize_state(bad, machine), machine)

    def test_cursor_must_be_a_segment_entry(self, captured):
        machine, state = captured
        top = state.frames[-1]
        from repro.cpu.engine import decoded_module

        dmod = decoded_module(machine.module, machine.config.cost_model,
                              machine.globals_addr)
        block = dmod.function(
            machine.module.get_function(top.fn)).blocks[top.block]
        entries = {0} | {k + 1 for k, cm in enumerate(block.call_meta)
                         if cm is not None}
        assert top.i in entries
        inside = next(i for i in range(1, block.n + 1) if i not in entries)
        bad = self._with_top(state, i=inside)
        with pytest.raises(SnapFormatError):
            deserialize_state(serialize_state(bad, machine), machine)

    def test_suspended_frame_must_sit_on_a_defined_call(self, captured):
        machine, state = captured
        top = state.frames[-1]
        # Push a copy of the top frame on top of itself: the original
        # becomes a suspended caller whose cursor is no call record.
        bad = replace(state, frames=state.frames + (top,))
        with pytest.raises(SnapFormatError):
            deserialize_state(serialize_state(bad, machine), machine)

    def test_no_frames_rejected(self, captured):
        machine, state = captured
        bad = replace(state, frames=())
        with pytest.raises(SnapFormatError):
            deserialize_state(serialize_state(bad, machine), machine)
