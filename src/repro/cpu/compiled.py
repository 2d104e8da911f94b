"""The compiled execution core: one explicit-frame trampoline running
compiled *segments* — specialized Python closures generated from the
decoded blocks (threaded code: each segment returns the next segment
to run). The emitter below is the only optimized copy of the
instruction semantics; :mod:`repro.cpu.interpreter` is the oracle it is
tested against.

This module is the single substrate behind the ``compiled`` engine,
the resumable checkpoint machinery (:mod:`repro.cpu.resumable`
re-exports its public surface) and the batched lane engine
(:mod:`repro.cpu.batch`):

- **Trampoline** (:func:`run_stack`): the explicit frame stack. Defined
  calls push a :class:`Frame` where the recursive interpreter would
  recurse, so at every block entry and post-call entry the complete
  run state is a plain data structure (:class:`ResumeState`) that can
  be copied, serialized (:mod:`repro.snap.format`) and resumed in
  another process.
- **Segment compiler** (:func:`ensure_compiled`): per basic block, the
  records between defined-call boundaries are compiled to one closure
  with operands resolved to register slots, semantics and the timing
  model's ``issue()`` inlined, cost-table entries baked in as literals,
  and branch targets resolved to the successor's segment (threaded
  dispatch). Every function compiles in up to four variants (see
  :data:`VARIANTS`): *fast* segments (timing model on or off) check the
  instruction budget once per span, merge call-free blocks into one
  region loop and inline pure leaf callees; *stepped* segments check
  the budget at every record, carry the eligible-stream bookkeeping
  (fault plans, count-only profiling, trace hooks) and the memory and
  branch stream hooks inline, and return to the trampoline at every
  block entry and post-call entry so checkpoint capture can poll
  there. The trampoline picks the variant from the frame's own state
  and compiles it on first use.
- **Code cache**: generated code objects are shared across machine
  instances keyed by the module's content digest (the same digest that
  keys the toolchain artifact cache), so campaigns compile once per
  cell and forked/batched/cluster workers reuse the compiled form.

Bit-identity contract: a trampoline run is indistinguishable from a
recursive reference ``Machine.run``: return value, output, every
counter (including the exact partial flushes of trap-abandoned
blocks), cycles, branch-predictor/cache state, fault behaviour, and
exception type. Segments inline the *same* statement order the
reference interpreter and ``TimingModel.issue`` execute; the
differential tests in ``tests/cpu/`` and ``tests/snap/`` pin the
contract across workloads, fault models and machine configurations.

Resuming from a checkpoint arms plans *without* resetting the stream
counters (contrast ``Machine.arm_faults``): the counters are restored
to their checkpoint values and the plan fires when its stream counter
reaches ``target_index`` — the same dynamic event a from-scratch run
hits. A checkpoint captured during a ``count_only`` golden run is a
superset state, valid for every plan whose per-stream mark has not yet
passed (:func:`covers`). The same checkpoints end injected runs early:
a :class:`Reconvergence` watch stops a run whose state, once its plans
have fired, equals a later golden checkpoint exactly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from struct import Struct as _Struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..avx import costs as C
from ..avx import ops as avxops
from ..ir import types as T
from ..ir.instructions import (
    AllocaInst,
    BinaryInst,
    BroadcastInst,
    CallInst,
    CastInst,
    ExtractElementInst,
    FCmpInst,
    GepInst,
    ICmpInst,
    InsertElementInst,
    LoadInst,
    SelectInst,
    ShuffleVectorInst,
    StoreInst,
)
from .cache import _LATENCY as _CACHE_LATENCY
from .engine import (
    _T_BR,
    _T_CONDBR,
    _T_FALLOFF,
    _T_RET,
    _T_RET_VOID,
    _T_UNREACHABLE,
    DecodedFunction,
    decoded_module,
    operand_resolver,
    slot_layout,
)
from .errors import AbortError, DetectedError, HangError, MemoryFault, Trap
from .interpreter import (
    _HOST_UNARY,
    _MASK64,
    _cast_scalar,
    _compute_static,
    _float_binop,
    _int_binop,
    _is_checker_site,
    _key_to_value,
    _lane_keys,
    _scalar_key,
    _to_signed,
    RunResult,
    copy_components,
)
from .memory import HEAP_BASE, STACK_BASE, _FLOAT_FMT

_MEM_L1 = float(C.MEM_LATENCY[1])

#: Segment variants, indexed by ``vidx``: fast with and without the
#: timing model, then stepped with and without it (``vidx + 2``).
VARIANTS = ("timing", "plain", "timing-stepped", "plain-stepped")


class Frame:
    """One live decoded-function activation on the explicit stack."""

    __slots__ = (
        "dfn",          # DecodedFunction
        "regs",         # register file (shared with M._frames entry)
        "times",        # ready-time file
        "mark",         # stack mark at entry (memory.stack_release target)
        "depth",        # call depth (root = 0)
        "inject",       # frame does eligible-stream bookkeeping
        "stepped",      # frame runs stepped segments (inject, or budget near)
        "prev_mem",     # _mem_stream_live to restore on pop
        "prev_branch",  # _branch_stream_live to restore on pop
        "caller_fn",    # _current_fn to restore on pop
        "block",        # current DecodedBlock
        "i",            # cursor: segment entry, or the suspended call record
        "in_body",      # inside the counted region (exception flush applies)
        "budget_exc",   # the HangError this frame raised for budget, if any
        "rv",           # return value: set by a ret segment, read by the
                        # caller's call-return segment
        "pending_call",  # (dfn, args, arg_times) handed from a call segment
    )


def push_frame(M, stack: List[Frame], dfn: DecodedFunction, args: List,
               arg_times: List[float]) -> Frame:
    """Mirror of the reference ``_exec_function`` prologue: depth
    check, register-file setup, stack mark, ``_frames``/``_current_fn``/
    stream-flag maintenance — as an explicit frame push."""
    depth = M._depth + 1
    if depth > M.config.max_call_depth:
        raise HangError(f"call depth exceeded in @{dfn.fn.name}")
    M._depth = depth
    regs = [None] * dfn.nslots
    times = [0.0] * dfn.nslots
    nargs = dfn.nargs
    if nargs:
        regs[:nargs] = args
        times[:nargs] = arg_times
    f = Frame()
    f.dfn = dfn
    f.regs = regs
    f.times = times
    f.mark = M.memory.stack_mark()
    f.caller_fn = M._current_fn
    M._current_fn = dfn.fn
    M._frames.append((dfn, regs))
    f.prev_mem = M._mem_stream_live
    f.prev_branch = M._branch_stream_live
    f.depth = depth
    if M._fault_active and M._fault_eligible_fn(dfn.fn):
        M._mem_stream_live = M._mem_stream_needed
        M._branch_stream_live = M._branch_stream_needed
        f.inject = f.stepped = True
    else:
        M._mem_stream_live = False
        M._branch_stream_live = False
        f.inject = f.stepped = False
    f.block = dfn.entry
    f.i = 0
    f.in_body = False
    f.budget_exc = None
    f.rv = None
    f.pending_call = None
    stack.append(f)
    return f


def _segment(f: Frame, vidx: int, key: int):
    """The segment of variant ``vidx`` at ``key`` in the frame's current
    block: an entry (0, or ``k + 1`` after the defined call at record
    ``k``) or ``-1 - k``, the return segment of that call. Compiles the
    variant on first use."""
    maps = f.block.compiled
    segmap = maps[vidx]
    if segmap is None:
        ensure_compiled(f.dfn.dmod, vidx)
        segmap = maps[vidx]
    return segmap[key]


def run_stack(M, stack: List[Frame], executed: int, capture=None):
    """Run the frame stack to completion; returns the root frame's
    return value. ``executed`` continues the global dynamic-instruction
    count (``M._executed`` at entry, or a checkpoint's).

    ``capture``, when given, is a placement policy with an integer
    ``next_index`` attribute and a ``take(M, stack, executed)`` method;
    every frame then runs stepped, and the trampoline invokes ``take``
    at the first block or post-call entry at or after each threshold.
    ``take`` must not modify the run: it copies state (see
    :func:`capture_state`) or compares it (:class:`Reconvergence`,
    which may end the run by raising), and advances ``next_index``.
    """
    counters = M.counters
    cd = counters.__dict__
    byop = counters.collect_by_opcode
    timing = M.timing
    maxi = M.config.max_instructions
    fast = 0 if timing is not None else 1
    stepped = fast + 2
    capturing = capture is not None
    # Segment protocol: seg(M, f, regs, times, executed, timing, maxi,
    # cd, byop) -> (executed, ctrl). ctrl is the next segment of this
    # frame (threaded dispatch), None for a frame return (value in
    # f.rv), 1 for a defined-call push (payload in f.pending_call), or 2
    # to re-dispatch at f's cursor (a fast frame within one block of the
    # budget switched itself to stepped).
    try:
        f = stack[-1]
        seg = _segment(f, stepped if capturing or f.stepped else fast, f.i)
        while True:
            if capturing and M.eligible_executed >= capture.next_index:
                capture.take(M, stack, executed)
            executed, ctrl = seg(M, f, f.regs, f.times, executed, timing,
                                 maxi, cd, byop)
            while ctrl is None:
                # Frame return: the reference _exec_function epilogue
                # (pop, restore caller context, release stack), then the
                # caller's call-return segment.
                value = f.rv
                f.rv = None
                stack.pop()
                M._frames.pop()
                M._current_fn = f.caller_fn
                M._mem_stream_live = f.prev_mem
                M._branch_stream_live = f.prev_branch
                M.memory.stack_release(f.mark)
                M._depth = f.depth - 1
                if not stack:
                    return value
                f = stack[-1]
                f.rv = value
                seg = _segment(f, stepped if capturing or f.stepped
                               else fast, -1 - f.i)
                executed, ctrl = seg(M, f, f.regs, f.times, executed,
                                     timing, maxi, cd, byop)
            if ctrl.__class__ is int:
                if ctrl == 1:
                    cdfn, cargs, cats = f.pending_call
                    f.pending_call = None
                    f = push_frame(M, stack, cdfn, cargs, cats)
                seg = _segment(f, stepped if capturing or f.stepped
                               else fast, f.i)
            else:
                seg = ctrl
    except BaseException as exc:
        # Unwind: per-frame exact partial counter flush (the recursive
        # engine's `except` clause) plus the frame epilogue, innermost
        # first. A frame suspended at a defined call flushes its call
        # record partially — exactly what its recursive `except` would
        # do when the callee's exception propagated through the call.
        while stack:
            f = stack.pop()
            M._frames.pop()
            if f.in_body:
                block = f.block
                i = f.i
                for k, v in block.cum_pairs[i]:
                    cd[k] += v
                if exc is not f.budget_exc:
                    for k, v in block.partial_pairs[i]:
                        cd[k] += v
                if byop:
                    bo = counters.by_opcode
                    end = i if exc is f.budget_exc else i + 1
                    for op in block.opcodes[:end]:
                        bo[op] = bo.get(op, 0) + 1
            M._current_fn = f.caller_fn
            M._mem_stream_live = f.prev_mem
            M._branch_stream_live = f.prev_branch
            M.memory.stack_release(f.mark)
            M._depth = f.depth - 1
        raise
    finally:
        if executed > M._executed:
            M._executed = executed


def run_resumable(M, fn_name: str, args: Sequence = (),
                  capture=None) -> RunResult:
    """``Machine.run`` on the trampoline — bit-identical results, no
    recursion-limit dance, and optional mid-run capture via
    ``capture``."""
    fn = M.module.get_function(fn_name)
    if fn.is_declaration:
        raise ValueError(f"cannot run declaration @{fn_name}")
    arg_values = list(args)
    if len(arg_values) != len(fn.args):
        raise TypeError(
            f"@{fn_name} expects {len(fn.args)} args, got {len(arg_values)}"
        )
    if M._frames:
        M._frames.clear()
    if M._call_sites:
        M._call_sites.clear()
    value = run_compiled(M, fn, arg_values, capture)
    return _result(M, value)


def _result(M, value) -> RunResult:
    return RunResult(
        value=value,
        output=M.output,
        counters=M.counters,
        cycles=M.timing.cycles if M.timing is not None else 0.0,
        ilp=M.timing.ilp if M.timing is not None else 0.0,
        fault_injected=M.fault_injected,
    )


# --- Mid-run state capture / restore -----------------------------------------


@dataclass(frozen=True)
class FrameState:
    """One suspended frame, in process-independent coordinates: the
    function name plus indices into its (deterministic) decoded form."""

    fn: str
    block: int    # index into dfn.blocks
    i: int        # segment entry (top frame) or suspended call record
    regs: tuple
    times: tuple
    mark: int     # memory stack mark at frame entry


@dataclass
class ResumeState:
    """Complete mid-run machine state at a block or post-call entry.

    Everything :class:`MachineSnapshot` captures between runs, plus the
    frame stack, the live dynamic-instruction count, and the four
    stream counters — precisely what a golden-prefix checkpoint needs.
    Fault plumbing (plans, watches, hooks) is deliberately absent:
    checkpoints are captured during ``count_only`` golden runs where
    all of it is empty, and :func:`resume_run` arms the injected plan
    itself.
    """

    heap: bytes        # Memory.image(): the heap up to heap_top,
    stack_mem: bytes   # and the stack up to its high-water mark
    heap_top: int
    stack_top: int
    output: tuple
    counters: object
    cache: object
    predictor: object
    timing: object
    branch_pcs: Dict[int, int]   # id(inst) -> pc (process-local keys)
    next_pc: int
    executed: int
    eligible: int
    checker_sites: int
    mem_accesses: int
    cond_branches: int
    frames: Tuple[FrameState, ...]


def capture_state(M, stack: List[Frame], executed: int) -> ResumeState:
    """Copy the complete mid-run state (non-destructively — the run
    continues unperturbed)."""
    mem = M.memory
    frames = []
    for f in stack:
        dfn = f.dfn
        frames.append(FrameState(
            fn=dfn.fn.name,
            block=dfn.blocks.index(f.block),
            i=f.i,
            regs=tuple(f.regs),
            times=tuple(f.times),
            mark=f.mark,
        ))
    heap, stack_mem = mem.image()
    counters, cache, predictor, timing = copy_components(M)
    return ResumeState(
        heap=heap,
        stack_mem=stack_mem,
        heap_top=mem.heap_top,
        stack_top=mem.stack_top,
        output=tuple(M.output),
        counters=counters,
        cache=cache,
        predictor=predictor,
        timing=timing,
        branch_pcs=dict(M._branch_pcs),
        next_pc=M._next_pc,
        executed=executed,
        eligible=M.eligible_executed,
        checker_sites=M.checker_sites_executed,
        mem_accesses=M.mem_accesses_eligible,
        cond_branches=M.cond_branches_eligible,
        frames=tuple(frames),
    )


def restore_payload(M, state: ResumeState) -> None:
    """Put the machine's architectural state back to the checkpoint.
    Non-destructive on ``state`` (typed copies), so one deserialized
    checkpoint serves any number of resumes. Leaves the machine with no
    plans armed, no hooks, ``count_only`` off — callers arm what they
    need (:func:`arm_resume`) before :func:`rebuild_frames`."""
    M.memory.install(state.heap, state.stack_mem, state.heap_top,
                     state.stack_top)
    M.output = list(state.output)
    M.counters, M.cache, M.predictor, M.timing = copy_components(state)
    M._branch_pcs = dict(state.branch_pcs)
    M._next_pc = state.next_pc
    M._executed = state.executed
    M.eligible_executed = state.eligible
    M.checker_sites_executed = state.checker_sites
    M.mem_accesses_eligible = state.mem_accesses
    M.cond_branches_eligible = state.cond_branches
    M.fault_plans = []
    M._next_plan = 0
    M._checker_plans = []
    M._next_checker_plan = 0
    M._mem_plans = []
    M._next_mem_plan = 0
    M._branch_plans = []
    M._next_branch_plan = 0
    M.fault_injected = False
    M.fault_target = None
    M._count_only = False
    M._trace_eligible = None
    M._trace_skip_until = -1
    M._watch_checker = M._watch_mem = M._watch_branch = None
    M._frames.clear()
    M._call_sites.clear()
    M._current_fn = None
    M._depth = -1
    M._mem_stream_live = False
    M._branch_stream_live = False
    M._refresh_fault_mode()


def arm_resume(M, plans: Sequence) -> None:
    """Arm plans mid-run, *preserving* the restored stream counters
    (``Machine.arm_faults`` would zero them). Plans whose eligible-
    stream target already passed are skipped, mirroring the cursor
    position a from-scratch run would have at this point."""
    reg: list = []
    checker: list = []
    mem: list = []
    branch: list = []
    for plan in plans:
        kind = getattr(plan, "kind", "reg")
        if kind == "checker":
            checker.append(plan)
        elif kind == "addr":
            mem.append(plan)
        elif kind == "branch":
            branch.append(plan)
        else:
            reg.append(plan)
    by_index = lambda p: p.target_index  # noqa: E731
    M.fault_plans = sorted(reg, key=by_index)
    M._next_plan = 0
    while (M._next_plan < len(M.fault_plans)
           and M.fault_plans[M._next_plan].target_index
           < M.eligible_executed):
        M._next_plan += 1
    M._checker_plans = sorted(checker, key=by_index)
    M._next_checker_plan = 0
    M._mem_plans = sorted(mem, key=by_index)
    M._next_mem_plan = 0
    M._branch_plans = sorted(branch, key=by_index)
    M._next_branch_plan = 0
    M.fault_injected = False
    M.fault_target = None
    M._refresh_fault_mode()


def rebuild_frames(M, state: ResumeState) -> List[Frame]:
    """Reconstruct the live frame stack from a checkpoint. Must run
    *after* plans/watches are armed — per-frame inject mode and the
    stream-live flags depend on ``M._fault_active``, exactly as they
    would have at each frame's push in a from-scratch run."""
    dmod = decoded_module(M.module, M.config.cost_model, M.globals_addr)
    stack: List[Frame] = []
    caller_fn = None
    prev_mem = False
    prev_branch = False
    for depth, fs in enumerate(state.frames):
        fn = M.module.get_function(fs.fn)
        dfn = dmod.function(fn)
        f = Frame()
        f.dfn = dfn
        f.regs = list(fs.regs)
        f.times = list(fs.times)
        f.mark = fs.mark
        f.caller_fn = caller_fn
        f.prev_mem = prev_mem
        f.prev_branch = prev_branch
        f.depth = depth
        f.inject = f.stepped = bool(M._fault_active
                                    and M._fault_eligible_fn(fn))
        f.block = dfn.blocks[fs.block]
        f.in_body = True
        f.i = fs.i
        f.budget_exc = None
        f.rv = None
        f.pending_call = None
        stack.append(f)
        M._frames.append((dfn, f.regs))
        caller_fn = fn
        if f.inject:
            prev_mem = M._mem_stream_needed
            prev_branch = M._branch_stream_needed
        else:
            prev_mem = False
            prev_branch = False
    M._mem_stream_live = prev_mem
    M._branch_stream_live = prev_branch
    M._depth = len(stack) - 1
    M._current_fn = stack[-1].dfn.fn if stack else None
    # Suspended parents each sit at a defined-call record; their site
    # ids rebuild the call-site chain the batch digests compare.
    for f in stack[:-1]:
        M._call_sites.append(f.block.call_meta[f.i][7])
    return stack


def resume_run(M, state: ResumeState, plans: Sequence,
               capture=None) -> RunResult:
    """Restore a checkpoint, arm ``plans`` mid-run, and execute only
    the tail. Bit-identical to arming the same plans on a fresh machine
    and running from scratch, for every plan :func:`covers` admits.
    ``capture`` is passed to :func:`run_stack` (a
    :class:`Reconvergence` watch, for injections)."""
    restore_payload(M, state)
    arm_resume(M, plans)
    stack = rebuild_frames(M, state)
    return _result(M, run_stack(M, stack, state.executed, capture))


# --- Checkpoint validity -----------------------------------------------------


def stream_mark(state: ResumeState, plan) -> int:
    """The checkpoint's counter on ``plan``'s targeting stream."""
    kind = getattr(plan, "kind", "reg")
    if kind == "checker":
        return state.checker_sites
    if kind == "addr":
        return state.mem_accesses
    if kind == "branch":
        return state.cond_branches
    return state.eligible

def covers(state: ResumeState, plan) -> bool:
    """True when resuming from ``state`` still reaches ``plan``'s
    dynamic fault site (the stream counter has not passed it)."""
    return stream_mark(state, plan) <= plan.target_index


# --- Exact reconvergence -----------------------------------------------------

_F64_BITS = _Struct("<d").pack

#: ``next_index`` of a watch that will never compare again.
_NEVER = 1 << 62

#: Exact comparisons a faulted run may fail on the golden control path
#: before its watch gives up (the same budget as the batch engine's
#: digest comparator): a corruption that has not died within a few
#: checkpoints drifts for the rest of the run.
MAX_STATE_MISSES = 4


def _value_key(value):
    cls = value.__class__
    if cls is float:
        return _F64_BITS(value)
    if cls is tuple:
        return tuple([_value_key(v) for v in value])
    return value


def state_key(values: Sequence) -> tuple:
    """``values`` (a register file or the output list) in comparable
    form: every float, scalar or vector lane, is replaced by its
    IEEE-754 bit pattern, so ``-0.0`` and ``0.0`` differ and NaNs compare
    by payload. Two register files hold the same state exactly when
    their keys are equal; the batch engine's digests hash this key."""
    return tuple([_value_key(v) for v in values])


class Reconverged(BaseException):
    """Raised out of :func:`run_stack` by a :class:`Reconvergence`
    watch when the faulted run's state equals a golden checkpoint.
    ``corrected`` is the run's classification flag (its own corrections
    plus the corrections the golden run still makes)."""

    def __init__(self, corrected: bool):
        super().__init__(corrected)
        self.corrected = corrected


class Reconvergence:
    """Capture-protocol watch (:func:`run_stack`'s ``capture``) that
    ends an injected run once its complete future is the golden run's.

    It targets each checkpoint of ``states`` (a cell's golden
    checkpoints, sorted by eligible index) later than ``after``; at the
    block or post-call entry where the golden run took a checkpoint,
    and only once every armed plan has fired, it compares the run's
    state with the checkpoint exactly — cheap rejects first
    (``executed``, eligible index, frame positions and stack marks,
    memory tops, output length), then the register files and output by
    :func:`state_key`, then the heap and stack images in place. Cache,
    predictor, timing and every counter other than ``corrections`` are
    left out: they never feed values or control flow. A match raises
    :class:`Reconverged`; ``final_corrections`` is the golden run's
    total, so the run has corrected iff it already did or the golden
    run corrects after the checkpoint. A run whose state differs on
    the golden control path :data:`MAX_STATE_MISSES` times stops being
    compared. The watch copies nothing."""

    __slots__ = ("states", "k", "next_index", "final_corrections",
                 "misses")

    def __init__(self, states: Sequence[ResumeState], after: int,
                 final_corrections: int):
        self.states = states
        self.final_corrections = final_corrections
        self.misses = 0
        k = 0
        while k < len(states) and states[k].eligible <= after:
            k += 1
        self._aim(k)

    def _aim(self, k: int) -> None:
        """Target ``states[k]`` next (none once ``k`` is past the end)."""
        self.k = k
        self.next_index = (self.states[k].eligible if k < len(self.states)
                           else _NEVER)

    def take(self, M, stack, executed) -> None:
        states = self.states
        eligible = M.eligible_executed
        k = self.k
        while k < len(states) and states[k].eligible < eligible:
            k += 1
        if k == len(states) or states[k].eligible > eligible:
            # Overshot: no golden checkpoint sits at this entry.
            self._aim(k)
            return
        self._aim(k + 1)
        state = states[k]
        if (state.executed != executed
                or M._next_plan < len(M.fault_plans)
                or M._next_checker_plan < len(M._checker_plans)
                or M._next_mem_plan < len(M._mem_plans)
                or M._next_branch_plan < len(M._branch_plans)):
            return
        if self._same(M, stack, state):
            corrected = (M.counters.corrections > 0
                         or self.final_corrections
                         > state.counters.corrections)
            raise Reconverged(corrected)
        self.misses += 1
        if self.misses >= MAX_STATE_MISSES:
            self.next_index = _NEVER

    @staticmethod
    def _same(M, stack, state: ResumeState) -> bool:
        mem = M.memory
        frames = state.frames
        if (len(stack) != len(frames) or mem.heap_top != state.heap_top
                or mem.stack_top != state.stack_top
                or len(mem._stack) != len(state.stack_mem)
                or len(M.output) != len(state.output)):
            return False
        for f, fs in zip(stack, frames):
            dfn = f.dfn
            if (f.i != fs.i or f.mark != fs.mark or dfn.fn.name != fs.fn
                    or f.block is not dfn.blocks[fs.block]):
                return False
        for f, fs in zip(stack, frames):
            if state_key(f.regs) != state_key(fs.regs):
                return False
        return (state_key(M.output) == state_key(state.output)
                and mem._heap == state.heap
                and mem._stack == state.stack_mem)


# --- Segment compiler ---------------------------------------------------------
#
# A *segment* is one compiled closure covering the records of a basic
# block between defined-call boundaries (a call suspends the frame, so
# it always ends a segment), plus the block terminator for the last
# segment; each defined call also gets a *call-return* segment that
# completes the call record once the callee returned (keyed ``-1 - k``
# for the call at record ``k``). The protocol is documented in
# :func:`run_stack`.
#
# Bit-identity rules baked into the generated code:
#
# - Value semantics mirror the reference interpreter statement for
#   statement (same bounds checks, same masking, same helper calls for
#   div/rem, f32 and cast paths).
# - ``TimingModel.issue`` is inlined with its scalar state (issue
#   time, finish time, retire frontier) hoisted into locals; the
#   ``issued``/``uops_issued`` totals are deferred to the segment
#   exits (nothing reads them mid-segment), with exact prefix
#   restoration when an exception escapes mid-segment.
# - Static counter deltas flush once per block from literal
#   increments; an escaping exception leaves the flush to the
#   trampoline's unwind handler via ``f.i``.
# - Fast segments carry no per-record bookkeeping: the trampoline runs
#   them only for frames with no eligible-stream work and no capture
#   policy, so the stream counters and hooks are statically absent,
#   and their budget precheck switches the frame to stepped within one
#   span of exhaustion. Stepped segments count every record against
#   the budget, so the HangError lands on the exact instruction.

_ICMP_UNSIGNED = {"eq": "==", "ne": "!=", "ult": "<", "ule": "<=",
                  "ugt": ">", "uge": ">="}
_ICMP_SIGNED = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
_FCMP_ORDERED = {"oeq": "==", "olt": "<", "ole": "<=", "ogt": ">",
                 "oge": ">="}

# Stable object for identity-keyed const dedup (``int.from_bytes``
# attribute access creates a fresh bound object every time).
_FROM_BYTES = int.from_bytes


class CompileError(RuntimeError):
    """The segment emitter failed on a function. There is no slower
    path to fall back to, so the run stops here; ``function`` and
    ``variant`` name what was being compiled and ``__cause__`` holds
    the emitter's exception."""

    def __init__(self, function: str, variant: str, cause: BaseException):
        self.function = function
        self.variant = variant
        super().__init__(
            f"cannot compile @{function} ({variant}): {cause!r}")


def _hang(f, maxi):
    """The budget HangError, remembered on the frame so the unwinder
    leaves the never-executed record out of the partial flush."""
    exc = f.budget_exc = HangError(f"instruction budget exceeded ({maxi})")
    return exc


@dataclass
class CompileStats:
    """Process-wide segment-compiler totals (see :data:`COMPILE_STATS`)."""

    functions: int = 0
    blocks: int = 0
    segments: int = 0
    compile_ms: float = 0.0
    code_hits: int = 0
    code_misses: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "functions": self.functions,
            "blocks": self.blocks,
            "segments": self.segments,
            "compile_ms": self.compile_ms,
            "code_hits": self.code_hits,
            "code_misses": self.code_misses,
        }


COMPILE_STATS = CompileStats()

#: Subscribers called with one payload dict per :func:`ensure_compiled`
#: invocation that did work: module digest, variant (one of
#: :data:`VARIANTS`), function/block/segment counts, compile wall time
#: and the code-cache hit/miss split. The lab bridges these onto its
#: EventBus as ``engine-compile`` events.
_COMPILE_HOOKS: List[Callable[[Dict[str, object]], None]] = []

#: Cross-instance code-object cache: (module digest, cost-model id,
#: variant, function name) -> (costs ref, source, code objects). Two
#: machines running the same IR under the same cost model re-exec the
#: cached code objects with fresh instance constants instead of
#: re-compiling.
_CODE_CACHE: Dict[tuple, tuple] = {}


def add_compile_hook(fn: Callable[[Dict[str, object]], None]) -> None:
    _COMPILE_HOOKS.append(fn)


def remove_compile_hook(fn: Callable[[Dict[str, object]], None]) -> None:
    try:
        _COMPILE_HOOKS.remove(fn)
    except ValueError:
        pass


def code_cache_clear() -> None:
    _CODE_CACHE.clear()


# --- Intrinsic call implementations -------------------------------------------
#
# Pre-dispatched versions of ``Machine._call_intrinsic`` — the name
# prefix chain runs once at compile time; each impl receives the
# evaluated argument list and the machine (for counters / memory /
# output). Segments bind them as constants.


def _intrinsic_impl(name, inst):
    if name.startswith("elzar.check_dmr."):
        elem = inst.type.elem

        def impl(M, args, elem=elem):
            lanes = args[0]
            keyed = _lane_keys(lanes, elem)
            if avxops.lanes_all_equal(keyed):
                return lanes
            M.counters.detections += 1
            raise DetectedError("ELZAR-DMR check: lanes diverged")

        return impl
    if name.startswith("elzar.branch_cond_dmr."):

        def impl(M, args):
            kind = avxops.ptest_classify(args[0])
            if kind == 2:
                M.counters.detections += 1
                raise DetectedError("ELZAR-DMR branch: true/false mix")
            return kind

        return impl
    if name.startswith("elzar.check."):
        elem = inst.type.elem

        def impl(M, args, elem=elem):
            lanes = args[0]
            keyed = _lane_keys(lanes, elem)
            if avxops.lanes_all_equal(keyed):
                return lanes
            counters = M.counters
            counters.corrections += 1
            try:
                majority = avxops.majority_value(keyed)
            except avxops.NoMajorityError as exc:
                counters.recoveries_failed += 1
                raise DetectedError(str(exc)) from exc
            value = _key_to_value(majority, elem)
            return (value,) * len(lanes)

        return impl
    if name.startswith("elzar.branch_cond_nocheck."):

        def impl(M, args):
            return 1 if all(args[0]) else 0

        return impl
    if name.startswith("elzar.branch_cond."):

        def impl(M, args):
            lanes = args[0]
            kind = avxops.ptest_classify(lanes)
            if kind == 2:
                counters = M.counters
                counters.corrections += 1
                try:
                    majority = avxops.majority_value(tuple(lanes))
                except avxops.NoMajorityError as exc:
                    counters.recoveries_failed += 1
                    raise DetectedError(str(exc)) from exc
                return 1 if majority else 0
            return kind

        return impl
    if name.startswith("tmr.vote."):
        ty = inst.type

        def impl(M, args, ty=ty):
            a, b, c = args
            ka, kb, kc = (_scalar_key(v, ty) for v in (a, b, c))
            if ka == kb and kb == kc:
                return a
            counters = M.counters
            counters.corrections += 1
            if ka == kb or ka == kc:
                return a
            if kb == kc:
                return b
            counters.recoveries_failed += 1
            raise DetectedError("TMR vote: all three copies differ")

        return impl
    if name.startswith("swift.check."):
        ty = inst.type

        def impl(M, args, ty=ty):
            a, b = args
            if _scalar_key(a, ty) != _scalar_key(b, ty):
                M.counters.detections += 1
                raise DetectedError("DMR check: copies diverged")
            return a

        return impl
    if name == "rt.alloc":
        return lambda M, args: M.memory.alloc(args[0])
    if name == "rt.print_i64":

        def impl(M, args):
            M.output.append(_to_signed(args[0], 64))
            return None

        return impl
    if name == "rt.print_f64":

        def impl(M, args):
            M.output.append(float(args[0]))
            return None

        return impl
    if name == "rt.abort":

        def impl(M, args):
            raise AbortError("rt.abort called")

        return impl
    if name.startswith("host."):
        op = name[5:]
        if op == "pow":

            def impl(M, args):
                try:
                    return float(args[0] ** args[1])
                except (OverflowError, ZeroDivisionError, ValueError):
                    return math.nan

            return impl
        fun = _HOST_UNARY.get(op)
        if fun is None:

            def impl(M, args, name=name):
                raise Trap(f"unknown host intrinsic {name}")

            return impl

        def impl(M, args, fun=fun):
            try:
                return float(fun(args[0]))
            except (OverflowError, ValueError):
                return math.nan

        return impl

    def impl(M, args, name=name):
        raise Trap(f"unknown intrinsic {name}")

    return impl


def _module_digest(dmod) -> str:
    """Content digest of the module (the toolchain's artifact key), or
    "" when the digest pipeline is unavailable."""
    try:
        from ..toolchain.build import module_digest
        return module_digest(dmod.module)
    except Exception:
        return ""


class _Emitter:
    """Source accumulator for one segment: indented lines, constants
    bound as keyword-parameter defaults, and the deferred-timing
    bookkeeping the exits and the exception path must restore."""

    def __init__(self, consts, seen, with_timing, stepped=False):
        self.lines: List[str] = []
        self.consts = consts          # function-level: name -> value
        self.seen = seen              # function-level: id(value) -> name
        self.with_timing = with_timing
        self.stepped = stepped        # stepped variant (see VARIANTS)
        self.used: List[str] = []     # const names this segment binds
        self.uops_used = set()
        self.pend_issued = 0
        self.pend_uops = 0
        # Exception-flush tables, indexed by (raising record - segment
        # start): pending uops / pending issues before that record, and
        # the record count since the last inline `executed` bump. With
        # no inlined calls the latter two are identities (_i - s).
        self.cum_uops: List[int] = [0]
        self.cum_issued: List[int] = [0]
        self.rec_adj: List[int] = [0]
        self.exec_base = 0            # first record not yet in `executed`
        self.inlined = False          # any leaf call inlined so far
        self.need_mem = False
        self.need_msl = False         # stepped memory records: stream hook
        self.need_cache = False
        self.uses_sg = False
        self.uses_bmp = False
        self.uses_pred = False
        # Region mode (one closure covering every call-free block of a
        # function): issued/uops totals are accumulated at runtime in
        # _nis/_nuo locals because the path through the region is
        # dynamic, unlike a straight-line segment's static count.
        self.region_bis: frozenset = frozenset()
        self.region_mode = False
        # Region-wide counter accumulators: block-completion counter
        # flushes become local integer adds; the dict writes happen
        # once per region exit. Keyed by counter name in first-use
        # order; exits emitted mid-block use the %CTRFLUSH% marker
        # (patched once the full key set is known).
        self.ctr_local: Dict[str, str] = {}

    def w(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def mark(self, nxt: int) -> None:
        """Record the flush-table entries for record index ``nxt``."""
        self.cum_uops.append(self.pend_uops)
        self.cum_issued.append(self.pend_issued)
        self.rec_adj.append(nxt - self.exec_base)

    def reset_block(self, start: int) -> None:
        """Restart the per-block/per-segment static accounting."""
        self.pend_issued = 0
        self.pend_uops = 0
        self.cum_uops = [0]
        self.cum_issued = [0]
        self.rec_adj = [0]
        self.exec_base = start
        self.inlined = False

    def _use(self, name: str) -> str:
        if name not in self.used:
            self.used.append(name)
        return name

    def K(self, value) -> str:
        name = f"_k{len(self.consts)}"
        self.consts[name] = value
        return self._use(name)

    def KI(self, value) -> str:
        """Identity-deduplicated constant (shared helpers, types,
        decoded blocks)."""
        name = self.seen.get(id(value))
        if name is None:
            name = f"_k{len(self.consts)}"
            self.consts[name] = value
            self.seen[id(value)] = name
        return self._use(name)

    def ctr(self, key: str) -> str:
        """Region-local accumulator name for counter ``key``."""
        name = self.ctr_local.get(key)
        if name is None:
            name = f"_c{len(self.ctr_local)}"
            self.ctr_local[key] = name
        return name

    def oexpr(self, sc) -> str:
        s, c = sc
        return f"regs[{s}]" if s >= 0 else self.K(c)

    def texpr(self, sc) -> Optional[str]:
        """Operand ready-time expression; None for constants (0.0 —
        never the max, so the inlined issue() skips it)."""
        return f"times[{sc[0]}]" if sc[0] >= 0 else None

    def issue(self, d, lat_expr, tops, extra, uops, isv, port, rtp) -> None:
        """Inline ``TimingModel.issue`` (timing variant only): exact
        statement order — ROB, operand maxes, port, vector-ALU group,
        completion, retire frontier, frontend advance. Leaves the
        completion time in ``_d``."""
        w = self.w
        w(d, "_s = _ti")
        w(d, "if len(_rob) >= _robsz:")
        w(d + 1, "_o = _rpop()")
        w(d + 1, "if _o > _s:")
        w(d + 2, "_s = _o")
        for t in tops:
            if t is None:
                continue
            w(d, f"if {t} > _s:")
            w(d + 1, f"_s = {t}")
        if port is not None:
            w(d, f"_p = _pfg({port[0]!r}, 0.0)")
            w(d, "if _p > _s:")
            w(d + 1, "_s = _p")
            w(d, f"_pf[{port[0]!r}] = _p + {self.K(port[1])}")
        if isv:
            w(d, "_p = _pfg('vecalu', 0.0)")
            w(d, "if _p > _s:")
            w(d + 1, "_s = _p")
            w(d, f"_pf['vecalu'] = _p + {self.K(rtp * uops)}")
        if extra is None:
            w(d, f"_d = _s + {lat_expr}")
        else:
            w(d, f"_d = _s + {lat_expr} + {extra}")
        # finish_time and _retire_frontier are both the running max of
        # every completion time since reset (only issue()/reset() write
        # them), so they are always equal — track one local and store
        # it back to both fields.
        w(d, "if _d > _tr:")
        w(d + 1, "_tr = _d")
        w(d, "_rapp(_tr)")
        if uops:
            # uops == 0 would add 0/width == +0.0 to issue_time, a
            # no-op (issue_time is never -0.0: it starts at 0.0 and
            # only grows) — skip the float add entirely.
            w(d, f"_ti += _q{uops}")
            self.uops_used.add(uops)
        self.pend_issued += 1
        self.pend_uops += uops

    def writeback(self, d) -> None:
        """Flush the hoisted timing scalars, the deferred issued/uops
        totals, and (region mode) the counter accumulators back to
        their homes (exit paths)."""
        if self.region_mode:
            self.w(d, "%CTRFLUSH%")
        if not self.with_timing:
            return
        if self.region_mode:
            # Prior blocks' totals live in the _nis/_nuo runtime
            # accumulators; the current block's are static.
            self.w(d, "_tm.issue_time = _ti")
            self.w(d, "_tm.finish_time = _tr")
            self.w(d, "_tm._retire_frontier = _tr")
            self.w(d, f"_tm.issued += _nis + {self.pend_issued}")
            self.w(d, f"_tm.uops_issued += _nuo + {self.pend_uops}")
            return
        if self.pend_issued == 0:
            return
        self.w(d, "_tm.issue_time = _ti")
        self.w(d, "_tm.finish_time = _tr")
        self.w(d, "_tm._retire_frontier = _tr")
        self.w(d, f"_tm.issued += {self.pend_issued}")
        self.w(d, f"_tm.uops_issued += {self.pend_uops}")

def _scalar_int_expr(E, opcode, a, b, width):
    """Expression mirroring ``_int_op(opcode, width)`` applied to the
    operand expressions ``a``/``b`` (pure reads, safe to repeat)."""
    mask = (1 << width) - 1
    if opcode == "add":
        return f"(({a} + {b}) & {mask})"
    if opcode == "sub":
        return f"(({a} - {b}) & {mask})"
    if opcode == "mul":
        return f"(({a} * {b}) & {mask})"
    if opcode == "and":
        return f"({a} & {b})"
    if opcode == "or":
        return f"({a} | {b})"
    if opcode == "xor":
        return f"({a} ^ {b})"
    if opcode == "shl":
        return f"((({a} << ({b} % {width})) & {mask}))"
    if opcode == "lshr":
        return f"(({a} >> ({b} % {width})) & {mask})"
    if opcode == "ashr":
        # Inline _to_signed: register values are kept width-masked (the
        # same invariant the unsigned compare path relies on), so the
        # sign conversion is a single conditional subtract.
        sb = 1 << (width - 1)
        return (f"((({a} - {1 << width} if {a} >= {sb} else {a})"
                f" >> ({b} % {width})) & {mask})")
    # div/rem keep the reference helper (ArithmeticFault on zero).
    ib = E.KI(_int_binop)
    return f"{ib}({opcode!r}, {a}, {b}, {width})"


def _scalar_float_expr(E, opcode, a, b, bits):
    """Expression mirroring ``_float_op(opcode, bits)``."""
    fb = None
    if bits == 32:
        fb = E.KI(_float_binop)
        return f"{fb}({opcode!r}, {a}, {b}, 32)"
    if opcode == "fadd":
        return f"({a} + {b})"
    if opcode == "fsub":
        return f"({a} - {b})"
    if opcode == "fmul":
        return f"({a} * {b})"
    fb = E.KI(_float_binop)
    return f"{fb}({opcode!r}, {a}, {b}, 64)"


def _icmp_scalar_expr(E, pred, a, b, width):
    op = _ICMP_UNSIGNED.get(pred)
    if op is not None:
        return f"(1 if {a} {op} {b} else 0)"
    op = _ICMP_SIGNED.get(pred)
    if op is None:
        raise ValueError(f"icmp pred {pred}")
    # Signed compare via the sign-bit flip: x -> x ^ sb maps the signed
    # order onto the unsigned order for width-masked values, so no
    # _to_signed conversion (and no helper call) is needed.
    sb = 1 << (width - 1)
    return f"(1 if ({a} ^ {sb}) {op} ({b} ^ {sb}) else 0)"


def _fcmp_scalar_expr(E, pred, a, b):
    op = _FCMP_ORDERED.get(pred)
    if op is not None:
        return f"(1 if {a} {op} {b} else 0)"
    isnan = E.KI(math.isnan)
    if pred == "one":
        return (f"(1 if ({a} != {b} and not ({isnan}({a}) or "
                f"{isnan}({b}))) else 0)")
    if pred == "ord":
        return f"(1 if not ({isnan}({a}) or {isnan}({b})) else 0)"
    if pred == "uno":
        return f"(1 if ({isnan}({a}) or {isnan}({b})) else 0)"
    raise ValueError(f"fcmp pred {pred}")


def _emit_miss_ladder(E, d):
    E.w(d, "if _lv >= 2:")
    E.w(d + 1, "_cc = M.counters")
    E.w(d + 1, "_cc.l1_misses += 1")
    E.w(d + 1, "if _lv >= 3:")
    E.w(d + 2, "_cc.l2_misses += 1")
    E.w(d + 2, "if _lv >= 4:")
    E.w(d + 3, "_cc.l3_misses += 1")


def _emit_cache_probe(E, d, size, for_store):
    """Cache access + hierarchical miss accounting, mirroring the
    reference's ``_mem_access`` (loads also consume the extra latency
    ``_x``; stores drop it like the reference does).

    The non-straddling case inlines :meth:`CacheHierarchy.access`
    statement for statement (L1 probe, straddle-free, prefetcher
    advance, prefetch fills) against the hoisted ``_l1s``/``_l2a``/...
    locals — the access per se is a handful of list operations, so the
    method-call round trip and the (level, latency) tuple dominated the
    memory-bound kernels. A straddling access (rare) falls back to the
    real method."""
    E.need_cache = True
    w = E.w
    if for_store:
        w(d, "if _ch is not None:")
    else:
        w(d, "if _ch is None:")
        w(d + 1, f"_x = {E.K(_MEM_L1)}")
        w(d, "else:")
    b = d + 1
    w(b, "_cl = _a // 64")
    if size > 1:
        w(b, f"if (_a + {size - 1}) // 64 != _cl:")
        w(b + 1, f"_lv, _x = _ch.access(_a, {size})")
        _emit_miss_ladder(E, b + 1, )
        w(b, "else:")
        b += 1
    # Inline of CacheHierarchy.access for the single-line case; state
    # evolution is identical (same probes, same order).
    w(b, "_cs = _l1s[_cl % _l1n]")
    w(b, "if _cs and _cs[0] == _cl:")
    if not for_store:
        w(b + 1, f"_x = {E.K(_MEM_L1)}")
    else:
        w(b + 1, "pass")
    w(b, "elif _cl in _cs:")
    w(b + 1, "_cs.insert(0, _cs.pop(_cs.index(_cl)))")
    if not for_store:
        w(b + 1, f"_x = {E.K(_MEM_L1)}")
    w(b, "else:")
    w(b + 1, "if len(_cs) >= _l1a:")
    w(b + 2, "_cs.pop()")
    w(b + 1, "_cs.insert(0, _cl)")
    w(b + 1, "if _l2a(_cl):")
    w(b + 2, "_lv = 2")
    w(b + 1, "elif _l3a(_cl):")
    w(b + 2, "_lv = 3")
    w(b + 1, "else:")
    w(b + 2, "_lv = 4")
    if not for_store:
        w(b + 1, f"_x = {E.K(_CACHE_LATENCY)}[_lv]")
    _emit_miss_ladder(E, b + 1)
    # Inline of StreamPrefetcher.advance + the prefetch fills.
    w(b, "if _pfo is not None:")
    p = b + 1
    w(p, "_pfo._clock += 1")
    w(p, "_st = _pfo._streams")
    w(p, "_mt = _st.index(_cl) if _cl in _st else -1")
    w(p, "_pv = _cl - 1")
    w(p, "if _pv in _st:")
    w(p + 1, "_j = _st.index(_pv)")
    w(p + 1, "if _mt < 0 or _j < _mt:")
    w(p + 2, "_mt = _j")
    w(p, "if _mt >= 0:")
    w(p + 1, "_st[_mt] = _cl + 1")
    w(p + 1, "_pfo._last_used[_mt] = _pfo._clock")
    w(p + 1, "_dp = _pfo.depth")
    w(p + 1, "_ch.prefetches += _dp")
    w(p + 1, "for _fk in range(1, _dp + 1):")
    w(p + 2, "_fl = _cl + _fk")
    w(p + 2, "_fs = _l1s[_fl % _l1n]")
    w(p + 2, "if _fs and _fs[0] == _fl:")
    w(p + 3, "continue")
    w(p + 2, "if _fl in _fs:")
    w(p + 3, "_fs.insert(0, _fs.pop(_fs.index(_fl)))")
    w(p + 3, "continue")
    w(p + 2, "if len(_fs) >= _l1a:")
    w(p + 3, "_fs.pop()")
    w(p + 2, "_fs.insert(0, _fl)")
    w(p + 2, "if not _l2a(_fl):")
    w(p + 3, "_l3a(_fl)")
    w(p, "else:")
    w(p + 1, "_lu = _pfo._last_used")
    w(p + 1, "_vt = _lu.index(min(_lu))")
    w(p + 1, "_st[_vt] = _cl + 1")
    w(p + 1, "_lu[_vt] = _pfo._clock")


def _emit_record(E, d, inst, dst, rv, costs, rtp):
    """Emit one body record, mirroring the reference interpreter for
    the instruction class statement for statement. Defined calls and
    raisers are emitted by the callers (:func:`_emit_span`)."""
    w = E.w
    t = E.with_timing
    opcode = inst.opcode
    ty = inst.type
    static = _compute_static(inst, costs)
    uops, isv = static[2], static[1]

    if isinstance(inst, BinaryInst):
        port = costs.ports.get(opcode)
        pa, pb = rv(inst.operands[0]), rv(inst.operands[1])
        a, b = E.oexpr(pa), E.oexpr(pb)
        elem = ty.elem if ty.is_vector else ty
        if elem.is_float:
            def sfn(x, y):
                return _scalar_float_expr(E, opcode, x, y, elem.bits)
        else:
            def sfn(x, y):
                return _scalar_int_expr(E, opcode, x, y, elem.width)
        if ty.is_vector:
            w(d, f"_a = {a}")
            w(d, f"_b = {b}")
            lanes = ", ".join(sfn(f"_a[{j}]", f"_b[{j}]")
                              for j in range(ty.count))
            w(d, f"regs[{dst}] = ({lanes},)")
            lat = costs.vector_latency(opcode, elem)
        else:
            w(d, f"regs[{dst}] = {sfn(a, b)}")
            lat = costs.scalar_latency(opcode)
        if t:
            E.issue(d, E.K(lat), (E.texpr(pa), E.texpr(pb)), None,
                    uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, ICmpInst):
        port = costs.ports.get(opcode)
        pa, pb = rv(inst.operands[0]), rv(inst.operands[1])
        a, b = E.oexpr(pa), E.oexpr(pb)
        oty = inst.lhs.type
        if oty.is_vector:
            width = T.bitwidth(oty.elem) if not oty.elem.is_float else 64
            w(d, f"_a = {a}")
            w(d, f"_b = {b}")
            lanes = ", ".join(
                _icmp_scalar_expr(E, inst.pred, f"_a[{j}]", f"_b[{j}]",
                                  width)
                for j in range(ty.count))
            w(d, f"regs[{dst}] = ({lanes},)")
            lat = costs.vector_latency("icmp")
        else:
            width = T.bitwidth(oty)
            w(d, f"regs[{dst}] = "
                 f"{_icmp_scalar_expr(E, inst.pred, a, b, width)}")
            lat = costs.scalar_latency("icmp")
        if t:
            E.issue(d, E.K(lat), (E.texpr(pa), E.texpr(pb)), None,
                    uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, FCmpInst):
        port = costs.ports.get(opcode)
        pa, pb = rv(inst.operands[0]), rv(inst.operands[1])
        a, b = E.oexpr(pa), E.oexpr(pb)
        if inst.lhs.type.is_vector:
            w(d, f"_a = {a}")
            w(d, f"_b = {b}")
            lanes = ", ".join(
                _fcmp_scalar_expr(E, inst.pred, f"_a[{j}]", f"_b[{j}]")
                for j in range(ty.count))
            w(d, f"regs[{dst}] = ({lanes},)")
            lat = costs.vector_latency("fcmp")
        else:
            w(d, f"regs[{dst}] = "
                 f"{_fcmp_scalar_expr(E, inst.pred, a, b)}")
            lat = costs.scalar_latency("fcmp")
        if t:
            E.issue(d, E.K(lat), (E.texpr(pa), E.texpr(pb)), None,
                    uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, CastInst):
        port = costs.ports.get(opcode)
        p = rv(inst.value)
        v = E.oexpr(p)
        src = inst.value.type

        def cast_expr(x, se, te):
            # Inline the common casts (exactly _cast_scalar's
            # arithmetic); the rare ones dispatch to the helper.
            if opcode == "zext":
                return f"int({x})"
            if opcode in ("trunc", "ptrtoint"):
                return f"int({x}) & {(1 << te.width) - 1}"
            if opcode == "inttoptr":
                return f"int({x}) & {_MASK64}"
            if opcode == "fpext":
                return f"float({x})"
            if opcode == "sext":
                ts = E.KI(_to_signed)
                return (f"{ts}(int({x}), {se.width}) & "
                        f"{(1 << te.width) - 1}")
            cs = E.KI(_cast_scalar)
            return f"{cs}({opcode!r}, {x}, {E.KI(se)}, {E.KI(te)})"

        if ty.is_vector:
            w(d, f"_v = {v}")
            lanes = ", ".join(cast_expr(f"_v[{j}]", src.elem, ty.elem)
                              for j in range(ty.count))
            w(d, f"regs[{dst}] = ({lanes},)")
            lat = costs.vector_latency(opcode)
        else:
            w(d, f"regs[{dst}] = {cast_expr(v, src, ty)}")
            lat = costs.scalar_latency(opcode)
        if t:
            E.issue(d, E.K(lat), (E.texpr(p),), None, uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, LoadInst):
        pp = rv(inst.ptr)
        size = T.sizeof(ty)
        lat = (costs.vector_latency("load") if ty.is_vector
               else costs.scalar_latency("load"))
        port = costs.ports.get("load")
        E.need_mem = True
        mf = E.KI(MemoryFault)
        w(d, f"_a = {E.oexpr(pp)}")
        _emit_mem_step(E, d, inst)
        if ty.is_vector:
            w(d, f"regs[{dst}] = _mem.load_value({E.KI(ty)}, _a)")
        elif ty.is_float:
            uf = E.K(_Struct(_FLOAT_FMT[ty.bits]).unpack_from)
            w(d, f"_e = _a + {size}")
            w(d, f"if {HEAP_BASE} <= _a and _e <= _mem.heap_top:")
            w(d + 1, f"regs[{dst}] = {uf}(_mem._heap, _a - {HEAP_BASE})[0]")
            w(d, f"elif {STACK_BASE} <= _a and _e <= _mem.stack_top:")
            w(d + 1,
              f"regs[{dst}] = {uf}(_mem._stack, _a - {STACK_BASE})[0]")
            w(d, "else:")
            w(d + 1, f"raise {mf}(_a, {size}, False)")
        else:
            mask = ((1 << ty.width) - 1) if ty.is_int and ty.width % 8 != 0 \
                else 0
            if size == 1:
                # Single-byte load: indexing a bytearray yields the int
                # directly — same value as int.from_bytes of the
                # one-byte slice, without the slice allocation.
                heap_v = f"_mem._heap[_a - {HEAP_BASE}]"
                stack_v = f"_mem._stack[_a - {STACK_BASE}]"
            else:
                fb = E.KI(_FROM_BYTES)
                heap_v = (f"{fb}(_mem._heap[_o:_o + {size}], 'little')")
                stack_v = (f"{fb}(_mem._stack[_o:_o + {size}], 'little')")
            w(d, f"_e = _a + {size}")
            w(d, f"if {HEAP_BASE} <= _a and _e <= _mem.heap_top:")
            if size != 1:
                w(d + 1, f"_o = _a - {HEAP_BASE}")
            w(d + 1, f"_v = {heap_v}")
            w(d, f"elif {STACK_BASE} <= _a and _e <= _mem.stack_top:")
            if size != 1:
                w(d + 1, f"_o = _a - {STACK_BASE}")
            w(d + 1, f"_v = {stack_v}")
            w(d, "else:")
            w(d + 1, f"raise {mf}(_a, {size}, False)")
            if mask:
                w(d, f"regs[{dst}] = _v & {mask}")
            else:
                w(d, f"regs[{dst}] = _v")
        _emit_cache_probe(E, d, size, for_store=False)
        if t:
            E.issue(d, E.K(lat), (E.texpr(pp),), "_x", uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, StoreInst):
        pv, pp = rv(inst.value), rv(inst.ptr)
        vty = inst.value.type
        size = T.sizeof(vty)
        lat = (costs.vector_latency("store") if vty.is_vector
               else costs.scalar_latency("store"))
        port = costs.ports.get("store")
        E.need_mem = True
        mf = E.KI(MemoryFault)
        w(d, f"_a = {E.oexpr(pp)}")
        _emit_mem_step(E, d, inst)
        w(d, f"_v = {E.oexpr(pv)}")
        if vty.is_vector:
            w(d, f"_mem.store_value({E.KI(vty)}, _a, _v)")
        elif vty.is_float:
            pf = E.K(_Struct(_FLOAT_FMT[vty.bits]).pack_into)
            w(d, f"_e = _a + {size}")
            w(d, f"if {HEAP_BASE} <= _a and _e <= _mem.heap_top:")
            w(d + 1, f"{pf}(_mem._heap, _a - {HEAP_BASE}, _v)")
            w(d, f"elif {STACK_BASE} <= _a and _e <= _mem.stack_top:")
            w(d + 1, f"{pf}(_mem._stack, _a - {STACK_BASE}, _v)")
            w(d, "else:")
            w(d + 1, f"raise {mf}(_a, {size}, True)")
        else:
            smask = (1 << (size * 8)) - 1
            w(d, f"_raw = (int(_v) & {smask}).to_bytes({size}, 'little')")
            w(d, f"_e = _a + {size}")
            w(d, f"if {HEAP_BASE} <= _a and _e <= _mem.heap_top:")
            w(d + 1, f"_o = _a - {HEAP_BASE}")
            w(d + 1, f"_mem._heap[_o:_o + {size}] = _raw")
            w(d, f"elif {STACK_BASE} <= _a and _e <= _mem.stack_top:")
            w(d + 1, f"_o = _a - {STACK_BASE}")
            w(d + 1, f"_mem._stack[_o:_o + {size}] = _raw")
            w(d, "else:")
            w(d + 1, f"raise {mf}(_a, {size}, True)")
        _emit_cache_probe(E, d, size, for_store=True)
        if t:
            E.issue(d, E.K(lat), (E.texpr(pv), E.texpr(pp)), None,
                    uops, isv, port, rtp)
        return

    if isinstance(inst, AllocaInst):
        size = T.sizeof(inst.allocated_type) * inst.count
        lat = costs.scalar_latency("alloca")
        port = costs.ports.get("alloca")
        E.need_mem = True
        w(d, f"regs[{dst}] = _mem.stack_alloc({size})")
        if t:
            E.issue(d, E.K(lat), (), None, uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, GepInst):
        pp, pi = rv(inst.ptr), rv(inst.index)
        esize = T.sizeof(inst.elem_type)
        ity = inst.index.type
        port = costs.ports.get("gep")
        if ty.is_vector:
            iw = ity.elem.width if ity.is_vector else ity.width
            vec_idx = ity.is_vector
            vec_ptr = inst.ptr.type.is_vector
            lat = costs.vector_latency("gep")
            ts = E.KI(_to_signed)
            w(d, f"_b = {E.oexpr(pp)}")
            w(d, f"_x = {E.oexpr(pi)}")
            lanes = []
            for j in range(ty.count):
                be = f"_b[{j}]" if vec_ptr else "_b"
                ie = f"_x[{j}]" if vec_idx else "_x"
                lanes.append(f"(({be} + {ts}({ie}, {iw}) * {esize}) "
                             f"& {_MASK64})")
            w(d, f"regs[{dst}] = ({', '.join(lanes)},)")
        else:
            iw = ity.width
            lat = costs.scalar_latency("gep")
            w(d, f"_b = {E.oexpr(pp)}")
            w(d, f"_x = {E.oexpr(pi)} & {(1 << iw) - 1}")
            w(d, f"if _x >= {1 << (iw - 1)}:")
            w(d + 1, f"_x -= {1 << iw}")
            w(d, f"regs[{dst}] = (_b + _x * {esize}) & {_MASK64}")
        if t:
            E.issue(d, E.K(lat), (E.texpr(pp), E.texpr(pi)), None,
                    uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, SelectInst):
        pc, pt, pf2 = rv(inst.cond), rv(inst.tval), rv(inst.fval)
        lat = (costs.vector_latency("select") if ty.is_vector
               else costs.scalar_latency("select"))
        port = costs.ports.get("select")
        w(d, f"_c = {E.oexpr(pc)}")
        w(d, f"_t = {E.oexpr(pt)}")
        w(d, f"_f = {E.oexpr(pf2)}")
        if inst.cond.type.is_vector:
            lanes = ", ".join(f"(_t[{j}] if _c[{j}] else _f[{j}])"
                              for j in range(ty.count))
            w(d, f"regs[{dst}] = ({lanes},)")
        else:
            w(d, f"regs[{dst}] = _t if _c else _f")
        if t:
            E.issue(d, E.K(lat), (E.texpr(pc), E.texpr(pt), E.texpr(pf2)),
                    None, uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, ExtractElementInst):
        pv, pi = rv(inst.vec), rv(inst.index)
        lat = costs.vector_latency("extractelement")
        port = costs.ports.get("extractelement")
        mf = E.KI(MemoryFault)
        w(d, f"_v = {E.oexpr(pv)}")
        w(d, f"_ix = {E.oexpr(pi)}")
        w(d, "if not 0 <= _ix < len(_v):")
        w(d + 1, f"raise {mf}(_ix, 0)")
        w(d, f"regs[{dst}] = _v[_ix]")
        if t:
            E.issue(d, E.K(lat), (E.texpr(pv), E.texpr(pi)), None,
                    uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, InsertElementInst):
        pv, pe, pi = rv(inst.vec), rv(inst.elem), rv(inst.index)
        lat = costs.vector_latency("insertelement")
        port = costs.ports.get("insertelement")
        mf = E.KI(MemoryFault)
        w(d, f"_v = list({E.oexpr(pv)})")
        w(d, f"_el = {E.oexpr(pe)}")
        w(d, f"_ix = {E.oexpr(pi)}")
        w(d, "if not 0 <= _ix < len(_v):")
        w(d + 1, f"raise {mf}(_ix, 0)")
        w(d, "_v[_ix] = _el")
        w(d, f"regs[{dst}] = tuple(_v)")
        if t:
            E.issue(d, E.K(lat), (E.texpr(pv), E.texpr(pe), E.texpr(pi)),
                    None, uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, ShuffleVectorInst):
        p1, p2 = rv(inst.v1), rv(inst.v2)
        lat = costs.vector_latency("shufflevector")
        port = costs.ports.get("shufflevector")
        w(d, f"_j = tuple({E.oexpr(p1)}) + tuple({E.oexpr(p2)})")
        lanes = ", ".join(f"_j[{m}]" for m in inst.mask)
        w(d, f"regs[{dst}] = ({lanes},)")
        if t:
            E.issue(d, E.K(lat), (E.texpr(p1), E.texpr(p2)), None,
                    uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, BroadcastInst):
        p = rv(inst.operands[0])
        lat = costs.vector_latency("broadcast")
        port = costs.ports.get(opcode)
        w(d, f"regs[{dst}] = ({E.oexpr(p)},) * {ty.count}")
        if t:
            E.issue(d, E.K(lat), (E.texpr(p),), None, uops, isv, port, rtp)
            w(d, f"times[{dst}] = _d")
        return

    if isinstance(inst, CallInst):
        callee = inst.callee
        if not callee.is_intrinsic:
            raise ValueError(f"call to @{callee.name} is not a record")
        arg_ps = [rv(a) for a in inst.args]
        impl = E.K(_intrinsic_impl(callee.name, inst))
        lat = costs.intrinsic_latency(callee.name)
        port = costs.ports.get("call")
        if len(arg_ps) == 1:
            w(d, f"_v = {impl}(M, ({E.oexpr(arg_ps[0])},))")
        else:
            argl = ", ".join(E.oexpr(p) for p in arg_ps)
            w(d, f"_v = {impl}(M, [{argl}])")
        if dst >= 0:
            w(d, f"regs[{dst}] = _v")
        if t:
            E.issue(d, E.K(lat), [E.texpr(p) for p in arg_ps], None,
                    uops, isv, port, rtp)
            if dst >= 0:
                w(d, f"times[{dst}] = _d")
        return

    raise ValueError(f"record class {type(inst).__name__}")


def _emit_mem_step(E, d, inst):
    """Stepped variant: the memory-stream hook on the effective address
    ``_a``, after address computation and before the access (the
    reference's order). ``_msl`` is the frame's stream-live flag, which
    only a frame push or pop changes."""
    if E.stepped:
        E.need_msl = True
        E.w(d, "if _msl:")
        E.w(d + 1, f"_a = M._mem_step(_a, {E.KI(inst)})")


def _emit_budget(E, d):
    """Stepped variant: count one instruction against the budget, the
    reference's check before every instruction."""
    E.w(d, "executed += 1")
    E.w(d, "if executed > maxi:")
    E.w(d + 1, f"raise {E.KI(_hang)}(f, maxi)")


def _emit_eligible(E, d, inst, target):
    """Stepped variant: the eligible-stream bookkeeping on the value in
    ``target`` (``regs[k]`` or a staged phi value), in the reference
    ``_maybe_inject`` order — counter, trace hook, checker step, plan
    cursor. Every read of machine state follows the hook calls that may
    change it (a batch lane arms its plan inside a hook)."""
    w = E.w
    ki = E.KI(inst)
    w(d, "if _inj:")
    d += 1
    w(d, "_ix = M.eligible_executed")
    w(d, "M.eligible_executed = _ix + 1")
    w(d, "if M._trace_eligible is not None and _ix >= M._trace_skip_until:")
    w(d + 1, "M._executed = executed")
    w(d + 1, f"M._trace_eligible({ki}, M._current_fn)")
    if _is_checker_site(inst):
        w(d, "if M._checker_needed:")
        w(d + 1, f"{target} = M._checker_step({target}, {ki})")
    w(d, "_pl = M.fault_plans")
    w(d, "if _pl and M._next_plan < len(_pl) and "
         "_pl[M._next_plan].target_index == _ix:")
    w(d + 1, f"{target} = M._apply_reg_plans({target}, {ki}, _ix)")


def _emit_raise_at(E, d, db, i, in_body, exc):
    """Raise ``exc`` (an expression) with the frame cursor set
    explicitly, for raises outside any record: a terminator that never
    issues, or a phi edge the decoder could not resolve. Writes the
    hoisted state back first; ``_i = -1`` makes the segment's
    ``except`` clause publish the count and re-raise untouched."""
    E.w(d, f"f.block = {E.KI(db)}")
    E.w(d, f"f.in_body = {in_body}")
    E.w(d, f"f.i = {i}")
    E.writeback(d)
    E.w(d, "_i = -1")
    E.w(d, f"raise {exc}")

def _emit_call_exit(E, d, db, k, s):
    """Suspend at the defined-call record ``k``: publish the count,
    register the call site, park the callee + evaluated args on the
    frame and return control 1 (the trampoline pushes the frame — its
    depth-limit HangError then unwinds through ``f.i``/``f.in_body``)."""
    arg_rs, _dst, cdfn, _lat, _uops, _isv, _port, site = db.call_meta[k]
    E.w(d, f"_i = {k}")
    if not E.stepped:
        E.w(d, f"executed += {k - E.exec_base + 1}")
    args = ", ".join(f"regs[{ss}]" if ss >= 0 else E.K(cc)
                     for ss, cc in arg_rs)
    ats = ", ".join(f"times[{ss}]" if ss >= 0 else "0.0"
                    for ss, cc in arg_rs)
    E.w(d, f"_ca = [{args}]")
    E.w(d, f"_ct = [{ats}]")
    E.w(d, "M._executed = executed")
    E.w(d, f"M._call_sites.append({E.K(site)})")
    E.w(d, f"f.i = {k}")
    E.w(d, f"f.pending_call = ({E.KI(cdfn)}, _ca, _ct)")
    E.writeback(d)
    E.w(d, "return executed, 1")


#: Opcodes that can never raise for any operand values the type system
#: admits: no division (ArithmeticFault), no memory traffic
#: (MemoryFault), no float->int casts (int(nan) raises). A call to a
#: single-block callee made only of these is inlined at the call site.
_PURE_OPCODES = frozenset({
    "add", "sub", "mul", "and", "or", "xor", "shl", "lshr", "ashr",
    "fadd", "fsub", "fmul", "icmp", "fcmp", "select",
    "zext", "sext", "trunc", "fpext", "bitcast", "sitofp", "uitofp",
    "ptrtoint", "inttoptr",
})


def _leaf_inline_info(cdfn, globals_addr):
    """Inline plan for a defined callee, or None when it must stay a
    real frame push: single block, RET/RET_VOID terminator, no nested
    calls, and every record pure (cannot raise — see
    :data:`_PURE_OPCODES`). Purity is what makes the expansion safe:
    with no exception possible between the depth check and the return,
    none of the frame-stack bookkeeping a real push maintains for the
    unwinder is observable."""
    if len(cdfn.blocks) != 1:
        return None
    cdb = cdfn.blocks[0]
    if cdb.term_kind not in (_T_RET, _T_RET_VOID):
        return None
    if any(cm is not None for cm in cdb.call_meta) or \
            any(r is not None for r in cdb.raisers):
        return None
    crecords = cdb.records
    for r in crecords:
        if r.opcode not in _PURE_OPCODES:
            return None
    cslot_map, cnslots = slot_layout(cdfn.fn)
    crv = operand_resolver(cslot_map, globals_addr)
    return (crecords, cslot_map, crv, cnslots, cdb)


def _emit_leaf_call(E, d, db, k, s, leaf, costs, rtp):
    """Inline the defined call at record ``k``. The guard falls back to
    the generic suspend (real frame push) whenever any of the inline's
    preconditions fail at runtime: a fault campaign is active (the
    callee may be an injection target), the push would trip the depth
    limit (push_frame raises the HangError), or the budget could expire
    inside the callee (the callee's frame turns stepped and raises at
    the exact instruction). The fast arm replays the real path's observable
    effects in order: callee records, callee block counters, ret issue,
    then the caller's call-record issue — same TimingModel and counter
    evolution, no Frame, no driver round trip."""
    arg_rs, dst, cdfn, lat, uops, isv, port, _site = db.call_meta[k]
    crecords, cslot_map, crv, cnslots, cdb = leaf
    t = E.with_timing
    span = (k - E.exec_base + 1) + (cdb.n + 1)
    E.w(d, "if (M._fault_active or M._depth >= M.config.max_call_depth"
           f" or executed + {span} > maxi):")
    if E.region_mode:
        # Region blocks set f.block lazily (only exits need it); a real
        # suspend is such an exit — the driver's return epilogue reads
        # call_meta through f.block and resumes at segment (bi, k+1).
        E.w(d + 1, f"f.block = {E.KI(db)}")
        E.w(d + 1, "f.in_body = True")
    _emit_call_exit(E, d + 1, db, k, s)
    # Fast arm (the suspend above returned): count the caller records,
    # the call record, and the whole callee up front — the real path
    # publishes the same total by the time anything can observe it.
    E.w(d, f"executed += {span}")
    E.w(d, "M._executed = executed")
    for j, (ss, cc) in enumerate(arg_rs):
        E.w(d, f"_a{j} = " + (f"regs[{ss}]" if ss >= 0 else E.K(cc)))
        if t:
            E.w(d, f"_t{j} = " + (f"times[{ss}]" if ss >= 0 else "0.0"))
    E.w(d, "_or = regs")
    E.w(d, f"regs = [None] * {cnslots}")
    if t:
        E.w(d, "_ot = times")
        E.w(d, f"times = [0.0] * {cnslots}")
    for j in range(len(arg_rs)):
        E.w(d, f"regs[{j}] = _a{j}")
        if t:
            E.w(d, f"times[{j}] = _t{j}")
    for ck in range(cdb.n):
        _emit_record(E, d, crecords[ck],
                     cslot_map.get(id(crecords[ck]), -1), crv, costs, rtp)
    for key, val in cdb.full_pairs:
        if E.region_mode:
            E.w(d, f"{E.ctr(key)} += {val}")
        else:
            E.w(d, f"cd[{key!r}] += {val}")
    if cdb.opcode_items:
        E.w(d, "if byop:")
        E.w(d + 1, "_bo = M.counters.by_opcode")
        for op, cnt in cdb.opcode_items:
            E.w(d + 1, f"_bo[{op!r}] = _bo.get({op!r}, 0) + {cnt}")
    if cdb.term_kind == _T_RET:
        rs_, rc_, rlat, ruops = cdb.term
        if t:
            E.issue(d, E.K(rlat),
                    (f"times[{rs_}]" if rs_ >= 0 else None,), None,
                    ruops, False, None, rtp)
        E.w(d, "_crv = " + (f"regs[{rs_}]" if rs_ >= 0 else E.K(rc_)))
    else:  # _T_RET_VOID
        rlat, ruops = cdb.term
        if t:
            E.issue(d, E.K(rlat), (), None, ruops, False, None, rtp)
        E.w(d, "_crv = None")
    E.w(d, "regs = _or")
    if t:
        E.w(d, "times = _ot")
    if t:
        E.issue(d, E.K(lat),
                [f"_t{j}" if arg_rs[j][0] >= 0 else None
                 for j in range(len(arg_rs))],
                None, uops, isv, port, rtp)
    if dst >= 0:
        E.w(d, f"regs[{dst}] = _crv")
        if t:
            E.w(d, f"times[{dst}] = _d")
    E.exec_base = k + 1
    E.inlined = True


def _emit_span(E, d, db, start, seg_s, rv, slot_map, costs, seg_lookup,
               bi_of, rtp, leaf_of):
    """Emit the block body from record ``start`` through the
    terminator: plain records, then at each defined call either the
    generic suspend (boundary for the next segment) or — for inlinable
    leaf callees (fast variant only) — the guarded inline expansion,
    after which emission continues in place to the next boundary."""
    records = db.records
    calls = [k for k, cm in enumerate(db.call_meta) if cm is not None]
    nxt = next((kk for kk in calls if kk >= start), None)
    end = nxt if nxt is not None else db.n
    stepped = E.stepped
    for k in range(start, end):
        E.w(d, f"_i = {k}")
        if stepped:
            _emit_budget(E, d)
        raiser = db.raisers[k]
        if raiser is not None:
            E.w(d, f"raise {E.KI(raiser[0])}({E.K(raiser[1])})")
        else:
            dst = slot_map.get(id(records[k]), -1)
            _emit_record(E, d, records[k], dst, rv, costs, rtp)
            if stepped and dst >= 0:
                _emit_eligible(E, d, records[k], f"regs[{dst}]")
        E.mark(k + 1)
    if nxt is None:
        _emit_terminator(E, d, db, seg_s, costs, seg_lookup, bi_of, rtp)
        return
    E.w(d, f"_i = {nxt}")
    if stepped:
        _emit_budget(E, d)
    leaf = leaf_of(db.call_meta[nxt][2])
    if leaf is None:
        if E.region_mode:
            E.w(d, f"f.block = {E.KI(db)}")
            E.w(d, "f.in_body = True")
        _emit_call_exit(E, d, db, nxt, seg_s)
        return
    _emit_leaf_call(E, d, db, nxt, seg_s, leaf, costs, rtp)
    E.mark(nxt + 1)
    _emit_span(E, d, db, nxt + 1, seg_s, rv, slot_map, costs, seg_lookup,
               bi_of, rtp, leaf_of)


def _precheck_span(db, s, leaf_of):
    """Worst-case ``executed`` growth of the span starting at record
    ``s``: records through the next real suspend (or the terminator),
    plus the full body+ret of every leaf call inlined along the way.
    Used in the entry budget precheck so an inlined span can never run
    past ``maxi`` — near exhaustion the precheck switches the frame to
    stepped segments, which raise at the exact instruction."""
    extra = 0
    for k in range(s, db.n):
        cm = db.call_meta[k]
        if cm is None:
            continue
        leaf = leaf_of(cm[2])
        if leaf is None:
            return extra + (k - s + 1)
        extra += leaf[4].n + 1
    return extra + (db.n - s + 1)


def _timing_hoists(E) -> List[str]:
    hoists = [
        "_tm = timing",
        "_ti = _tm.issue_time",
        "_tr = _tm._retire_frontier",
        "_rob = _tm._rob",
        "_rpop = _rob.popleft",
        "_rapp = _rob.append",
        "_pf = _tm._port_free",
        "_pfg = _pf.get",
        "_robsz = _tm.rob_size",
        "_iw = _tm.issue_width",
    ]
    if E.uses_bmp:
        hoists.append("_bmp = _tm.branch_miss_penalty")
    for u in sorted(E.uops_used):
        hoists.append(f"_q{u} = {u} / _iw")
    return hoists


#: Hoisted by any segment/region with a conditional branch (the inlined
#: gshare update reads these every iteration).
_PRED_HOISTS = (
    "_pcs = M._branch_pcs",
    "_bp = M.predictor",
    "_bpc = _bp.counters",
    "_bpm = _bp.mask",
)

#: Hoisted by any segment/region with a load or store: the inlined
#: cache probe's working set (see :func:`_emit_cache_probe`). The
#: nested lines carry their own indentation on top of the splice depth.
_CACHE_HOISTS = (
    "_ch = M.cache",
    "if _ch is not None:",
    "    _l1 = _ch.l1",
    "    _l1s = _l1._sets",
    "    _l1n = _l1.num_sets",
    "    _l1a = _l1.assoc",
    "    _l2a = _ch.l2.access",
    "    _l3a = _ch.l3.access",
    "    _pfo = _ch.prefetcher",
)


def _emit_branch_arm(E, d, cur_db, succ_db, seg_lookup, bi_of):
    """One branch arm: the successor's phi moves for this edge, then a
    jump within the region (region mode, successor in-region) or a
    threaded return of the successor's entry segment. An edge with no
    pre-resolved move list raises the reference's KeyError."""
    tbi = bi_of[id(succ_db)]
    moves = ()
    if succ_db.phi_moves is not None:
        moves = succ_db.phi_moves.get(cur_db)
        if moves is None:
            msg = f"phi in %{succ_db.name} has no incoming from %{cur_db.name}"
            _emit_raise_at(E, d, succ_db, 0, False,
                           f"{E.KI(KeyError)}({E.K(msg)})")
            return
    if E.stepped:
        _emit_stepped_arm(E, d, succ_db, moves, seg_lookup(tbi, 0))
        return
    dsts = {m[0] for m in moves}
    srcs = {m[1] for m in moves if m[1] >= 0}
    if dsts & srcs:
        # Parallel moves: stage every read before any write (phi
        # semantics — a swapped pair must not see its own update).
        _emit_phi_staging(E, d, moves)
        for j, (mdst, _ms, _mc) in enumerate(moves):
            E.w(d, f"regs[{mdst}] = _p{j}")
            E.w(d, f"times[{mdst}] = _u{j}")
    else:
        # No destination feeds another move's source: write directly,
        # skipping the staging temporaries.
        for mdst, ms, mc in moves:
            E.w(d, f"regs[{mdst}] = " + (f"regs[{ms}]" if ms >= 0
                                         else E.K(mc)))
            E.w(d, f"times[{mdst}] = " + (f"times[{ms}]" if ms >= 0
                                          else "0.0"))
    if E.region_mode and tbi in E.region_bis:
        # Intra-region edge: accumulate this block's issue totals and
        # jump through the dispatch loop — no trampoline round-trip.
        if E.with_timing:
            E.w(d, f"_nis += {E.pend_issued}")
            E.w(d, f"_nuo += {E.pend_uops}")
        E.w(d, f"_b = {tbi}")
        E.w(d, "continue")
        return
    E.writeback(d)
    E.uses_sg = True
    E.w(d, f"return executed, _sg[{seg_lookup(tbi, 0)}]")


def _emit_phi_staging(E, d, moves):
    for j, (_mdst, ms, mc) in enumerate(moves):
        E.w(d, f"_p{j} = " + (f"regs[{ms}]" if ms >= 0 else E.K(mc)))
        E.w(d, f"_u{j} = " + (f"times[{ms}]" if ms >= 0 else "0.0"))


def _emit_stepped_arm(E, d, succ_db, moves, tgt):
    """Stepped arm: the frame moves to the successor's entry *before*
    the phi moves, whose eligible-stream steps belong to the successor
    (the reference evaluates phis on block entry, after the
    predecessor's counters are in); a capture poll then sees the
    cursor it can resume at."""
    _emit_phi_staging(E, d, moves)
    E.writeback(d)
    E.w(d, f"f.block = {E.KI(succ_db)}")
    E.w(d, "f.in_body = False")
    E.w(d, "f.i = 0")
    if moves:
        # A hook raising from here on finds nothing left to restore.
        E.w(d, "_i = -1")
    for j, (mdst, _ms, _mc) in enumerate(moves):
        _emit_eligible(E, d, succ_db.phis[j], f"_p{j}")
        E.w(d, f"regs[{mdst}] = _p{j}")
        E.w(d, f"times[{mdst}] = _u{j}")
    E.uses_sg = True
    E.w(d, f"return executed, _sg[{tgt}]")


def _emit_terminator(E, d, db, s, costs, seg_lookup, bi_of, rtp):
    """Block completion: static-counter flush as literal increments,
    then the decoded terminator, in the reference's order (a fast
    segment's budget precheck at entry already covered the
    terminator's increment)."""
    t = E.with_timing
    n = db.n
    kind = db.term_kind
    if E.stepped:
        E.w(d, f"_i = {n}")
        if kind == _T_FALLOFF:
            # Fell off a block with no terminator: nothing is counted.
            E.w(d, f"raise {E.KI(MemoryFault)}(0, 0)")
            return
        _emit_budget(E, d)
        if kind == _T_UNREACHABLE:
            E.w(d, f"raise {E.KI(MemoryFault)}(0, 0)")
            return
    elif kind in (_T_FALLOFF, _T_UNREACHABLE):
        counted = n - E.exec_base + (kind == _T_UNREACHABLE)
        if counted:
            E.w(d, f"executed += {counted}")
        _emit_raise_at(E, d, db, n, True, f"{E.KI(MemoryFault)}(0, 0)")
        return
    else:
        E.w(d, f"executed += {n - E.exec_base + 1}")
    for key, val in db.full_pairs:
        if E.region_mode:
            E.w(d, f"{E.ctr(key)} += {val}")
        else:
            E.w(d, f"cd[{key!r}] += {val}")
    if db.opcode_items:
        E.w(d, "if byop:")
        E.w(d + 1, "_bo = M.counters.by_opcode")
        for op, cnt in db.opcode_items:
            E.w(d + 1, f"_bo[{op!r}] = _bo.get({op!r}, 0) + {cnt}")
    if kind == _T_BR:
        succ, lat = db.term
        if t:
            E.issue(d, E.K(lat), (), None, 1, False, None, rtp)
        _emit_branch_arm(E, d, db, succ, seg_lookup, bi_of)
        return
    if kind == _T_CONDBR:
        cs, cc, tb, eb, inst, lat = db.term
        cond = f"regs[{cs}]" if cs >= 0 else E.K(cc)
        E.w(d, f"_tk = True if {cond} else False")
        if E.stepped:
            E.w(d, "if M._branch_stream_live:")
            E.w(d + 1, f"_tk = M._branch_step(_tk, {E.KI(inst)})")
        pckey = E.K(id(inst))
        E.uses_pred = True
        E.w(d, f"_pc = _pcs.get({pckey})")
        E.w(d, "if _pc is None:")
        E.w(d + 1, "_pc = M._next_pc")
        E.w(d + 1, "M._next_pc = _pc + 1")
        E.w(d + 1, f"_pcs[{pckey}] = _pc")
        # Inline GSharePredictor.predict_and_update: same index/counter/
        # history evolution, minus the method-call round trip.
        E.w(d, "_bh = _bp.history")
        E.w(d, "_bx = (_pc ^ _bh) & _bpm")
        E.w(d, "_bc = _bpc[_bx]")
        E.w(d, "_cor = (_bc >= 2) == _tk")
        E.w(d, "_bp.predictions += 1")
        E.w(d, "if not _cor:")
        E.w(d + 1, "_bp.misses += 1")
        E.w(d, "if _tk:")
        E.w(d + 1, "if _bc < 3:")
        E.w(d + 2, "_bpc[_bx] = _bc + 1")
        E.w(d + 1, "_bp.history = ((_bh << 1) | 1) & _bpm")
        E.w(d, "else:")
        E.w(d + 1, "if _bc > 0:")
        E.w(d + 2, "_bpc[_bx] = _bc - 1")
        E.w(d + 1, "_bp.history = (_bh << 1) & _bpm")
        if t:
            E.issue(d, E.K(lat),
                    (f"times[{cs}]" if cs >= 0 else None,), None,
                    1, False, None, rtp)
            E.uses_bmp = True
            E.w(d, "if not _cor:")
            E.w(d + 1, "cd['branch_misses'] += 1")
            # Inline TimingModel.branch_mispredict(resolve=_d).
            E.w(d + 1, "_r = _d + _bmp")
            E.w(d + 1, "if _r > _ti:")
            E.w(d + 2, "_ti = _r")
        else:
            E.w(d, "if not _cor:")
            E.w(d + 1, "cd['branch_misses'] += 1")
        E.w(d, "if _tk:")
        _emit_branch_arm(E, d + 1, db, tb, seg_lookup, bi_of)
        _emit_branch_arm(E, d, db, eb, seg_lookup, bi_of)
        return
    if kind == _T_RET:
        rs, rc, lat, uops = db.term
        if t:
            E.issue(d, E.K(lat),
                    (f"times[{rs}]" if rs >= 0 else None,), None,
                    uops, False, None, rtp)
        E.w(d, "f.rv = " + (f"regs[{rs}]" if rs >= 0 else E.K(rc)))
        E.writeback(d)
        E.w(d, "return executed, None")
        return
    # _T_RET_VOID
    lat, uops = db.term
    if t:
        E.issue(d, E.K(lat), (), None, uops, False, None, rtp)
    E.w(d, "f.rv = None")
    E.writeback(d)
    E.w(d, "return executed, None")


def _emit_except(E, d, s):
    """The segment's ``except`` clause: pin the cursor at the raising
    record, restore the exact timing state (every prior record issued
    once, the raiser did not) and publish the dynamic-instruction count
    including the raising record (counted before executed). Raises
    placed by :func:`_emit_raise_at` (``_i < 0``) did their own
    bookkeeping."""
    w = E.w
    w(d, "except BaseException:")
    w(d + 1, "if _i < 0:")
    w(d + 2, "if executed > M._executed:")
    w(d + 3, "M._executed = executed")
    w(d + 2, "raise")
    w(d + 1, "f.i = _i")
    if E.with_timing and E.pend_issued:
        w(d + 1, "_tm.issue_time = _ti")
        w(d + 1, "_tm.finish_time = _tr")
        w(d + 1, "_tm._retire_frontier = _tr")
        # Inlined leaf calls break the one-issue-per-record identity;
        # the flush tables carry the true prefix sums.
        if E.inlined:
            w(d + 1, f"_tm.issued += {tuple(E.cum_issued)!r}[_i - {s}]")
        else:
            w(d + 1, f"_tm.issued += _i - {s}")
        w(d + 1, f"_tm.uops_issued += {tuple(E.cum_uops)!r}[_i - {s}]")
    if E.stepped:
        # Stepped segments count every record as it starts.
        w(d + 1, "_ex = executed")
    elif E.inlined:
        w(d + 1, f"_ex = executed + {tuple(E.rec_adj)!r}[_i - {s}] + 1")
    else:
        w(d + 1, f"_ex = executed + (_i - {s}) + 1")
    w(d + 1, "if _ex > M._executed:")
    w(d + 2, "M._executed = _ex")
    w(d + 1, "raise")


def _hoists(E) -> List[str]:
    hoists = []
    if E.with_timing and (E.pend_issued or E.region_mode):
        hoists += _timing_hoists(E)
    if E.need_mem:
        hoists.append("_mem = M.memory")
    if E.need_msl:
        hoists.append("_msl = M._mem_stream_live")
    if E.need_cache:
        hoists += _CACHE_HOISTS
    if E.uses_pred:
        hoists += _PRED_HOISTS
    return ["    " + h for h in hoists]


def _seg_def(fname, E, extra=""):
    params = "".join(f", {n}={n}" for n in E.used)
    sg = ", _sg=_sg" if E.uses_sg else ""
    return (f"def {fname}(M, f, regs, times, executed, timing, maxi, cd, "
            f"byop{extra}{sg}{params}):")


def _emit_block_segments(db, rv, slot_map, costs, consts, seen, vidx,
                         seg_lookup, bi, bi_of, rtp, leaf_of,
                         skip_entry=False):
    """Emit the entry segments of one block (0, and ``k + 1`` after each
    defined call at record ``k``). Returns the source lines.
    ``skip_entry`` omits the boundary-0 segment
    (used for region blocks whose entry is the region loop but whose
    inlined calls still need post-call resume segments)."""
    with_timing = vidx in (0, 2)
    stepped = vidx >= 2
    calls = [k for k, cm in enumerate(db.call_meta) if cm is not None]
    out: List[str] = []
    starts = [k + 1 for k in calls]
    if not skip_entry:
        starts = [0] + starts
    for s in starts:
        E = _Emitter(consts, seen, with_timing, stepped)
        E.reset_block(s)
        fname = f"_s{seg_lookup(bi, s)}"
        E.w(1, f"f.block = {E.KI(db)}")
        E.w(1, "f.in_body = True")
        E.w(1, f"f.i = {s}")
        if stepped:
            E.w(1, "_inj = f.inject")
        else:
            # Within one span of the budget: run the frame stepped, so
            # the HangError lands on the exact instruction.
            E.w(1, f"if executed + {_precheck_span(db, s, leaf_of)} > maxi:")
            E.w(2, "f.stepped = True")
            E.w(2, "return executed, 2")
        E.w(1, f"_i = {s}")
        hoist_at = len(E.lines)
        E.w(1, "try:")
        _emit_span(E, 2, db, s, s, rv, slot_map, costs, seg_lookup, bi_of,
                   rtp, leaf_of)
        _emit_except(E, 1, s)
        E.lines[hoist_at:hoist_at] = _hoists(E)
        out.append(_seg_def(fname, E))
        out.extend(E.lines)
        out.append("")
    return out


def _emit_return_segment(db, k, consts, seen, vidx, seg_lookup, bi):
    """The call-return segment of the defined call at record ``k``: the
    callee's value (``f.rv``) lands in the destination, the call record
    issues, and — stepped, in an inject frame — the result takes its
    eligible-stream step; then the frame continues at entry ``k + 1``
    (a capture poll in between sees that cursor). An exception here
    leaves the cursor on the call record, so the unwinder flushes the
    record partially, like the reference's call that raised."""
    arg_rs, dst, _cdfn, lat, uops, isv, port, _site = db.call_meta[k]
    E = _Emitter(consts, seen, vidx in (0, 2), vidx >= 2)
    E.w(1, "_v = f.rv")
    E.w(1, "f.rv = None")
    E.w(1, "M._call_sites.pop()")
    if dst >= 0:
        E.w(1, f"regs[{dst}] = _v")
    if E.with_timing:
        ats = "".join(f"times[{s}], " if s >= 0 else "0.0, "
                      for s, _c in arg_rs)
        E.w(1, f"_d = timing.issue('call', {E.K(lat)}, ({ats}), 0.0, "
               f"{uops}, {isv}, {E.K(port)})")
        if dst >= 0:
            E.w(1, f"times[{dst}] = _d")
    if E.stepped and dst >= 0:
        E.w(1, "_inj = f.inject")
        _emit_eligible(E, 1, db.records[k], f"regs[{dst}]")
    E.w(1, f"f.i = {k + 1}")
    E.uses_sg = True
    E.w(1, f"return executed, _sg[{seg_lookup(bi, k + 1)}]")
    fname = f"_s{seg_lookup(bi, -1 - k)}"
    return [_seg_def(fname, E)] + E.lines + [""]


def _emit_region(dfn, region_bis, rv, slot_map, costs, consts, seen,
                 with_timing, seg_lookup, bi_of, rtp, rname, leaf_of):
    """Emit the function's region closure (fast variant): every block
    whose defined calls (if any) are all leaf-inlinable, compiled into
    one ``while True`` dispatch loop keyed on the block index ``_b``.
    Intra-region branches become phi moves plus ``_b = <target>;
    continue`` — no trampoline round-trip and no per-block
    flush/rehoist of the timing scalars, which is where the per-segment
    scheme spent most of its time on loopy code. Issued and uop totals
    of completed blocks accumulate in the runtime ``_nis`` / ``_nuo``
    locals (the path through the region is dynamic); the current
    block's totals stay static, exactly like a segment's.

    Returns the region's source lines. Exits use the same control
    protocol as segments; entry is via per-block trampolines the caller
    emits (so the driver's segment dispatch stays unchanged). A leaf
    call whose runtime guard fails suspends like a segment would; the
    caller emits boundary segments for such blocks so the driver can
    resume after the real call."""
    E = _Emitter(consts, seen, with_timing)
    E.region_bis = frozenset(region_bis)
    E.region_mode = True
    bmap: Dict[int, object] = {}
    cum_tables: Dict[int, tuple] = {}
    iss_tables: Dict[int, tuple] = {}
    adj_tables: Dict[int, tuple] = {}
    E.w(1, "_i = 0")
    if with_timing:
        E.w(1, "_nis = 0")
        E.w(1, "_nuo = 0")
    E.w(1, "%CTRINIT%")
    hoist_at = len(E.lines)
    E.w(1, "try:")
    E.w(2, "while True:")
    first = True
    for bi in sorted(region_bis):
        db = dfn.blocks[bi]
        bmap[bi] = db
        E.w(3, f"{'if' if first else 'elif'} _b == {bi}:")
        first = False
        d = 4
        # Per-block static accounting restarts here (the completed
        # blocks' totals were rolled into _nis/_nuo at the jump).
        E.reset_block(0)
        E.w(d, "_i = 0")
        E.w(d, f"if executed + {_precheck_span(db, 0, leaf_of)} > maxi:")
        E.w(d + 1, f"f.block = {E.KI(db)}")
        E.w(d + 1, "f.in_body = True")
        E.w(d + 1, "f.i = 0")
        E.writeback(d + 1)
        E.w(d + 1, "f.stepped = True")
        E.w(d + 1, "return executed, 2")
        _emit_span(E, d, db, 0, 0, rv, slot_map, costs, seg_lookup, bi_of,
                   rtp, leaf_of)
        cum_tables[bi] = tuple(E.cum_uops)
        iss_tables[bi] = tuple(E.cum_issued)
        adj_tables[bi] = tuple(E.rec_adj)
    E.w(3, "else:")
    E.w(4, "raise RuntimeError('bad region block %r' % _b)")
    # Records raise; other raises set the frame themselves (_i < 0).
    # Inlined leaf bodies are exception-free by construction and the
    # terminators cannot raise (budget is prechecked and the inlined
    # predictor/timing updates are exception-free), so _b/_i pinpoint
    # the raising record and the frame/timing flush mirrors the
    # segment except path with the completed blocks' totals added.
    E.w(1, "except BaseException:")
    E.w(2, "if _i < 0:")
    E.w(3, "if executed > M._executed:")
    E.w(4, "M._executed = executed")
    E.w(3, "raise")
    E.w(2, f"f.block = {E.K(bmap)}[_b]")
    E.w(2, "f.in_body = True")
    E.w(2, "f.i = _i")
    E.w(2, "%CTRFLUSH%")
    if with_timing:
        E.w(2, "_tm.issue_time = _ti")
        E.w(2, "_tm.finish_time = _tr")
        E.w(2, "_tm._retire_frontier = _tr")
        E.w(2, f"_tm.issued += _nis + {E.K(iss_tables)}[_b][_i]")
        E.w(2, f"_tm.uops_issued += _nuo + {E.K(cum_tables)}[_b][_i]")
    E.w(2, f"_ex = executed + {E.K(adj_tables)}[_b][_i] + 1")
    E.w(2, "if _ex > M._executed:")
    E.w(3, "M._executed = _ex")
    E.w(2, "raise")
    E.lines[hoist_at:hoist_at] = _hoists(E)
    # Patch the counter-accumulator markers now that the full key set
    # is known: inits at entry, dict flushes at every exit. A marker
    # with no keys vanishes (every marked suite also holds a return
    # or raise, so no suite can become empty).
    init = [f"{n} = 0" for n in E.ctr_local.values()]
    flush = [f"cd[{k!r}] += {n}" for k, n in E.ctr_local.items()]
    lines = []
    for line in E.lines:
        text = line.lstrip()
        if text == "%CTRINIT%":
            ind = line[:len(line) - len(text)]
            lines.extend(ind + s for s in init)
        elif text == "%CTRFLUSH%":
            ind = line[:len(line) - len(text)]
            lines.extend(ind + s for s in flush)
        else:
            lines.append(line)
    return [_seg_def(rname, E, ", _b")] + lines + [""]


def _emit_function(dfn, costs, globals_addr, vidx):
    """Compile-emit one decoded function in variant ``vidx``. Returns
    (source chunks, consts, {(block index, key): n}): every block gets
    its entry segments and one call-return segment per defined call,
    segment ``n`` being the function ``_s<n>``. Each chunk is one top-level ``def``, compiled on its
    own so the parser's transient memory stays at one segment's worth
    (the stepped variant of a large function is hundreds of KB of
    source); the chunks run in order in one namespace."""
    fn = dfn.fn
    slot_map, _nslots = slot_layout(fn)
    rv = operand_resolver(slot_map, globals_addr)
    bi_of = {id(db): i for i, db in enumerate(dfn.blocks)}
    rtp = costs.vector_alu_rtp
    stepped = vidx >= 2

    leaf_cache: Dict[int, object] = {}

    def leaf_of(cdfn):
        """Memoized inline plan per callee (None = real push). Stepped
        frames always really push: the callee may do eligible-stream
        work, and every record counts against the budget."""
        if stepped:
            return None
        key = id(cdfn)
        if key not in leaf_cache:
            leaf_cache[key] = _leaf_inline_info(cdfn, globals_addr)
        return leaf_cache[key]

    seg_index: Dict[Tuple[int, int], int] = {}
    for bi, db in enumerate(dfn.blocks):
        calls = [k for k, cm in enumerate(db.call_meta) if cm is not None]
        for key in [0] + [k + 1 for k in calls] + [-1 - k for k in calls]:
            seg_index[(bi, key)] = len(seg_index)

    def seg_lookup(bi, s):
        return seg_index[(bi, s)]

    # Fast variant: blocks whose defined calls (if any) are all
    # inlinable leaves merge into one region closure; blocks with a
    # call that must really push keep per-boundary segments (the call
    # suspends control, which the region loop cannot express in its
    # fast path).
    region = frozenset() if stepped else frozenset(
        bi for bi, db in enumerate(dfn.blocks)
        if all(leaf_of(cm[2]) is not None
               for cm in db.call_meta if cm is not None)
    )

    consts: Dict[str, object] = {}
    seen: Dict[int, str] = {}
    out: List[str] = [f"# compiled segments of @{fn.name} ({VARIANTS[vidx]})"]
    rname = "_rg0"
    if region:
        # The region def must precede the trampolines: each trampoline
        # binds it as a keyword default at def time.
        out.extend(_emit_region(dfn, region, rv, slot_map, costs, consts,
                                seen, vidx == 0, seg_lookup, bi_of, rtp,
                                rname, leaf_of))
    for bi, db in enumerate(dfn.blocks):
        if bi in region:
            fname = f"_s{seg_index[(bi, 0)]}"
            out.append(f"def {fname}(M, f, regs, times, executed, "
                       f"timing, maxi, cd, byop, _rg={rname}):")
            out.append(f"    return _rg(M, f, regs, times, executed, "
                       f"timing, maxi, cd, byop, {bi})")
            out.append("")
        # A region block with (inlinable) calls still needs its
        # post-call boundary segments: a guard-failed inline suspends
        # for a real push, and the driver resumes at (bi, k+1).
        out.extend(_emit_block_segments(
            db, rv, slot_map, costs, consts, seen, vidx, seg_lookup, bi,
            bi_of, rtp, leaf_of, skip_entry=bi in region))
        for k, cm in enumerate(db.call_meta):
            if cm is not None:
                out.extend(_emit_return_segment(
                    db, k, consts, seen, vidx, seg_lookup, bi))
    starts = [i for i, line in enumerate(out) if line.startswith("def ")]
    bounds = [0] + starts[1:] + [len(out)]
    chunks = ["\n".join(out[a:b]) + "\n" for a, b in zip(bounds, bounds[1:])]
    return chunks, consts, seg_index


def _compile_dfn(dmod, dfn, vidx, digest):
    """Emit + exec the segments of one function, reusing a cached code
    object when this (module digest, cost model, variant, function) was
    compiled before. Returns (segments, blocks, code hit, code miss);
    raises :class:`CompileError` when the emitter fails."""
    name = f"<repro.compiled:@{dfn.fn.name}>"
    try:
        chunks, consts, seg_index = _emit_function(
            dfn, dmod.costs, dmod.globals_addr, vidx)
        source = "".join(chunks)
        key = ((digest, id(dmod.costs), vidx, dfn.fn.name) if digest
               else None)
        codes = None
        hit = miss = 0
        if key is not None:
            entry = _CODE_CACHE.get(key)
            # Emission re-runs per instance (the consts are per-decode
            # objects); only compile() is shared, and only when the
            # generated source is byte-identical.
            if entry is not None and entry[1] == source:
                codes = entry[2]
                hit = 1
        if codes is None:
            codes = tuple(compile(c, name, "exec") for c in chunks)
            miss = 1
            if key is not None:
                # Keep the cost model alive so its id() cannot be
                # recycled.
                _CODE_CACHE[key] = (dmod.costs, source, codes)
    except Exception as exc:
        raise CompileError(dfn.fn.name, VARIANTS[vidx], exc) from exc
    seglist: List[object] = [None] * len(seg_index)
    ns = dict(consts)
    ns["_sg"] = seglist
    for code in codes:
        exec(code, ns)  # noqa: S102 - our own generated segments
    per_block: Dict[int, Dict[int, object]] = {}
    for (bi, key), n in seg_index.items():
        seg = seglist[n] = ns[f"_s{n}"]
        per_block.setdefault(bi, {})[key] = seg
    for bi, segmap in per_block.items():
        dfn.blocks[bi].compiled[vidx] = segmap
    return (len(seg_index), len(per_block), hit, miss)


def ensure_compiled(dmod, vidx) -> Optional[Dict[str, object]]:
    """Compile segments for every decoded function of ``dmod`` in
    variant ``vidx`` (an index into :data:`VARIANTS`) that is not
    compiled yet. Idempotent and cheap when there is nothing to do.
    Returns the compile-event payload when work happened, else None;
    raises :class:`CompileError` naming the function the emitter
    failed on."""
    done = getattr(dmod, "_compiled_fns", None)
    if done is None:
        done = dmod._compiled_fns = [set() for _ in VARIANTS]
    todo = [(fid, dfn) for fid, dfn in dmod._functions.items()
            if fid not in done[vidx]]
    if not todo:
        return None
    digest = _module_digest(dmod)
    t0 = time.perf_counter()
    segs = blocks = hits = misses = 0
    for fid, dfn in todo:
        n_segs, n_blocks, hit, miss = _compile_dfn(dmod, dfn, vidx, digest)
        done[vidx].add(fid)
        segs += n_segs
        blocks += n_blocks
        hits += hit
        misses += miss
    ms = (time.perf_counter() - t0) * 1000.0
    COMPILE_STATS.functions += len(todo)
    COMPILE_STATS.blocks += blocks
    COMPILE_STATS.segments += segs
    COMPILE_STATS.compile_ms += ms
    COMPILE_STATS.code_hits += hits
    COMPILE_STATS.code_misses += misses
    payload = {
        "digest": digest,
        "variant": VARIANTS[vidx],
        "functions": len(todo),
        "blocks": blocks,
        "segments": segs,
        "compile_ms": ms,
        "code_hits": hits,
        "code_misses": misses,
    }
    for hook in list(_COMPILE_HOOKS):
        hook(payload)
    return payload


# --- Engine runner ------------------------------------------------------------


def run_compiled(M, fn, arg_values, capture=None):
    """``engine="compiled"``, called by ``Machine.run``: decode once per
    (module, cost model) and run on the trampoline, which compiles each
    segment variant the first time a frame needs it."""
    dmod = decoded_module(M.module, M.config.cost_model, M.globals_addr)
    stack: List[Frame] = []
    push_frame(M, stack, dmod.function(fn), arg_values,
               [0.0] * len(arg_values))
    return run_stack(M, stack, M._executed, capture)
