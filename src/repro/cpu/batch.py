"""Batched lane-parallel fault injection: SIMD-of-simulations.

ELZAR replicates data across AVX lanes and votes on divergence. This
module applies the same idea one level up, to the fault-injection
campaign itself: the K injections of a batch are *lanes* of one shared
golden execution. Sequentially, each injection replays the whole golden
prefix up to its fault site and then runs its own tail — O(run) per
injection. Batched, the golden prefix executes **once**; at each
pending fault site the run forks (``os.fork``, so the entire mid-run
machine state — Python stack included — is captured copy-on-write) into
a lane that arms exactly its own plan and continues as the faulted
execution, while the parent carries the golden run to the next site.

Two further cuts make the asymptotic win real on one core:

- **Reconvergence detection** truncates the tails that dominate batched
  cost. A one-per-cell *lockstep trace* records a digest of
  architectural state (memory, registers of live frames, call stack,
  output, resume position) at periodic eligible-instruction
  checkpoints of the golden run. A lane whose digest matches the
  golden checkpoint digest has provably the same future as the golden
  run — its output will equal the reference and its remaining
  corrections are the golden run's — so it classifies immediately
  (CORRECTED if it ever corrected, else MASKED) instead of simulating
  an already-determined tail. MASKED and CORRECTED lanes — the large
  majority in hardened builds — converge within one checkpoint
  interval of their fault site.
- **Dead-flip short-circuit**: a scalar register flip above the value's
  width is architecturally masked before it is ever applied
  (:func:`repro.cpu.interpreter._flip` returns the value unchanged), so
  the lane's run *is* the golden run and needs no fork at all.

Classification parity: a forked lane inherits exactly the machine state
a sequential ``inject_once`` run would have at the fault site (the
parent's golden run executes the same stepped segments, with the same
eligible-stream bookkeeping, an armed frame runs), fires the same
plan at the same dynamic event, and classifies by the same rules —
trap class, output-vs-reference match, corrections count. The
differential test matrix pins per-plan outcome identity against
sequential injection for every registered fault model at several batch
widths. Digest-based convergence is exact up to blake2b-128 collisions.

Lanes report ``(key, outcome)`` records over a pipe (8-byte writes,
atomic well under ``PIPE_BUF``) and ``os._exit`` without running any
parent cleanup. A lane that dies unreported is simply missing from the
result dict; the caller re-runs that plan sequentially, so batching can
degrade but never corrupt a campaign.
"""

from __future__ import annotations

import os
import struct
from hashlib import blake2b
from typing import Dict, List, Optional, Tuple

from ..faults.models import StreamProfile
from ..faults.outcomes import Outcome
from ..ir import types as T
from ..workloads.common import outputs_match
from .compiled import (
    MAX_STATE_MISSES,
    rebuild_frames,
    restore_payload,
    run_stack,
    state_key,
)
from .errors import Trap
from .interpreter import FaultPlan, Machine, MachineSnapshot

#: Outcome <-> wire code for the lane report pipe (enum member order).
_OUTCOMES: Tuple[Outcome, ...] = tuple(Outcome)
_CODE: Dict[Outcome, int] = {o: i for i, o in enumerate(_OUTCOMES)}
_RECORD = struct.Struct("<iI")

#: OR-ed into the wire code when the lane's outcome came from digest
#: reconvergence (truncated tail) rather than a full run. The caller
#: uses the count as a *scheduling* signal only — outcomes are
#: convergence-independent — to stop installing the comparator in later
#: batches of a cell whose lanes never reconverge (float drift).
_CONVERGED_FLAG = 0x80

#: FaultPlan.kind -> targeting stream (mirrors Machine.arm_faults).
_STREAM = {"checker": "checker", "addr": "mem", "branch": "branch"}

#: ``Machine._trace_skip_until`` value meaning "never fire again":
#: larger than any eligible index a budgeted run can reach.
_NEVER = 1 << 62

#: A lane whose state digest fails this many checkpoint comparisons on
#: the golden control path is assumed never to reconverge (its
#: corruption drifts instead of dying); the comparator uninstalls
#: itself so the tail runs without checkpoint-hash overhead. Lanes that
#: do converge almost always do so at their first or second checkpoint.
#: Shared with the sequential path's exact comparator.
_MAX_DIGEST_MISSES = MAX_STATE_MISSES


class _LaneConverged(BaseException):
    """Raised by a lane's checkpoint comparator when its state digest
    matches the golden run's: the lane's future is the golden future,
    so it classifies without simulating the rest of its tail."""


class _GoldenDone(BaseException):
    """Raised in the batch parent once every pending plan has forked
    (or resolved): the rest of the golden run teaches us nothing."""


def default_interval(eligible: int) -> int:
    """Checkpoint spacing for the lockstep trace: ~32 checkpoints per
    run, floored so short runs don't hash state every few events. A
    converging lane pays on average half an interval of extra
    simulation before its convergence is noticed (~1.5% of a run at 32
    checkpoints), while the trace pass pays one state digest per
    checkpoint — sparser checkpoints measurably beat denser ones
    because digests cost far more than interpreted instructions."""
    return max(32, eligible // 32)


class LockstepTrace:
    """Golden-run checkpoint digests for one campaign cell.

    ``checkpoints`` maps an eligible-instruction index (every
    ``interval``-th) to ``(digest, corrections, executed)`` at the
    moment that eligible event completed. Collected once per cell on
    the session machine and shared by every batch (and, via the
    module's golden cache, every shard run in this process or its
    forked children — instruction identities survive ``fork``).
    """

    __slots__ = ("checkpoints", "interval", "final_corrections",
                 "final_executed", "profile")

    def __init__(self, checkpoints: Dict[int, tuple], interval: int,
                 final_corrections: int, final_executed: int,
                 profile: StreamProfile):
        self.checkpoints = checkpoints
        self.interval = interval
        self.final_corrections = final_corrections
        self.final_executed = final_executed
        self.profile = profile


def _state_digest(M: Machine, inst) -> bytes:
    """Digest of everything that determines the run's future from this
    eligible event: the memory image and tops (stale stack bytes above
    the top included, since a later alloca can read them), program
    output, resume position (current instruction + call-site chain),
    and the register files of every live decoded frame. Values enter by
    :func:`repro.cpu.compiled.state_key` (floats by IEEE-754 bits), the
    same state definition as the sequential path's exact comparator.
    Deliberately excluded — cache, predictor, timing, and perf counters
    other than ``corrections``: they never feed back into values or
    control flow, and outcome classification reads only
    ``corrections`` (tracked separately in the checkpoint record)."""
    mem = M.memory
    h = blake2b(digest_size=16)
    h.update(mem._heap)
    h.update(mem._stack)
    meta = (id(inst), mem.heap_top, mem.stack_top, M._depth,
            tuple(M._call_sites), state_key(M.output))
    h.update(repr(meta).encode())
    for dfn, regs in M._frames:
        h.update(dfn.fn.name.encode())
        h.update(repr(state_key(regs)).encode())
    return h.digest()


def collect_lockstep_trace(machine: Machine, snapshot: MachineSnapshot,
                           entry: str, args, profile: StreamProfile,
                           interval: Optional[int] = None) -> LockstepTrace:
    """Run the golden execution once more with a checkpoint recorder
    installed, returning the :class:`LockstepTrace` lanes compare
    against. ``machine``/``snapshot`` are an injection session's; the
    machine is left restored-to-snapshot-equivalent state (the batch
    driver restores before every batch anyway)."""
    if interval is None:
        interval = default_interval(profile.eligible)
    M = machine
    M.restore(snapshot)
    checkpoints: Dict[int, tuple] = {}

    def recorder(inst, fn):
        idx = M.eligible_executed - 1
        # Advance the skip gate so the engine next invokes us exactly
        # one interval from now; between checkpoints the run pays one
        # int compare per eligible event instead of this Python call.
        M._trace_skip_until = idx + interval
        if idx % interval:
            return
        checkpoints[idx] = (
            _state_digest(M, inst), M.counters.corrections, M._executed
        )

    M.trace_eligible = recorder
    try:
        M.run(entry, args)
    finally:
        M.trace_eligible = None
    return LockstepTrace(
        checkpoints=checkpoints,
        interval=interval,
        final_corrections=M.counters.corrections,
        final_executed=M._executed,
        profile=profile,
    )


def _dead_flip(plan: FaultPlan, ty) -> bool:
    """True when the plan's flip lands entirely in architecturally dead
    bits of a scalar result (``_flip`` would return the value
    unchanged), so the lane is the golden run by construction. Vector
    results pack lanes fully — bit indices wrap — and the other kinds
    (skip/mem/addr/branch) always perturb something."""
    kind = plan.kind
    if kind not in ("reg", "multi", "checker"):
        return False
    if ty.is_vector:
        return False
    width = T.bitwidth(ty)
    if plan.bit % 64 < width:
        return False
    if kind == "multi":
        return all(b % 64 >= width for b in plan.bits)
    return True


def _arm_lane(M: Machine, plan: FaultPlan, stream: str) -> None:
    """In a freshly forked lane: drop the parent's site watches and arm
    exactly this plan on its stream, cursors at zero. The stream steps
    re-read their plan list *after* the watch hook returns, so the plan
    fires at the very event the fork happened at — the same dynamic
    event a sequential run would hit."""
    M._watch_checker = M._watch_mem = M._watch_branch = None
    if stream == "reg":
        M.fault_plans = [plan]
        M._next_plan = 0
    elif stream == "checker":
        M._checker_plans = [plan]
        M._next_checker_plan = 0
    elif stream == "mem":
        M._mem_plans = [plan]
        M._next_mem_plan = 0
    else:
        M._branch_plans = [plan]
        M._next_branch_plan = 0


class _BatchState:
    __slots__ = ("remaining", "live", "child", "max_live", "forked")

    def __init__(self, remaining: int):
        self.remaining = remaining
        self.live: List[int] = []
        #: (key, plan) in a forked lane, None in the batch parent.
        self.child = None
        self.max_live = max(2, os.cpu_count() or 1)
        self.forked = 0


def _child_report(wfd: int, key: int, outcome: Outcome,
                  converged: bool = False) -> None:
    """Write this lane's result and exit without unwinding into any
    parent-owned machinery (stores, schedulers, multiprocessing pipes
    inherited across the fork)."""
    code = _CODE[outcome] | (_CONVERGED_FLAG if converged else 0)
    try:
        os.write(wfd, _RECORD.pack(key, code))
    finally:
        os._exit(0)


def run_batch(machine: Machine, snapshot: MachineSnapshot, entry: str,
              args, plans: List[Tuple[int, FaultPlan]], reference,
              budget: int, rtol: float, trace: LockstepTrace,
              converge: bool = True,
              stats: Optional[Dict[str, int]] = None,
              resume_from=None) -> Dict[int, Outcome]:
    """Execute one batch of fault plans as forked lanes off a single
    golden run.

    ``plans`` is ``[(key, plan), ...]``; the result maps each key to
    its Table-I outcome. A key may be *missing* when its lane died
    before reporting — the caller falls back to sequential injection
    for it, so batching never loses or corrupts an outcome. ``machine``
    must be an injection-session machine whose ``max_instructions`` is
    ``budget`` and whose ``snapshot`` is the golden start state.

    ``converge=False`` skips installing the lane comparator: every lane
    runs its full tail, exactly like sequential injection after the
    fault point. Outcomes are identical either way — convergence only
    truncates simulation — so callers toggle it freely per batch.
    ``stats``, when given, accumulates ``"forked"`` (lanes actually
    forked) and ``"converged"`` (lanes truncated by reconvergence) so
    callers can stop paying for the comparator in cells where state
    drift makes reconvergence impossible.

    ``resume_from`` (a :class:`repro.cpu.resumable.ResumeState` whose
    checkpoint covers *every* plan in the batch) starts the shared
    golden run at that checkpoint instead of from ``snapshot`` and
    executes only the tail on the resumable trampoline. Lanes fork,
    converge, and classify exactly as before — the restored state is
    bit-identical to the golden run at that point, so outcomes are
    unchanged (the differential tests pin this).
    """
    from ..faults.campaign import trap_outcome

    out: Dict[int, Outcome] = {}
    golden_outcome = (Outcome.CORRECTED if trace.final_corrections > 0
                      else Outcome.MASKED)
    profile = trace.profile
    populations = {
        "reg": profile.eligible,
        "checker": profile.checker_sites,
        "mem": profile.mem_accesses,
        "branch": profile.cond_branches,
    }
    pend: Dict[str, Dict[int, list]] = {
        "reg": {}, "checker": {}, "mem": {}, "branch": {},
    }
    npending = 0
    for key, plan in plans:
        stream = _STREAM.get(plan.kind, "reg")
        site = plan.target_index
        if site < 0 or site >= populations[stream]:
            # Never fires: the run is the golden run.
            out[key] = golden_outcome
            continue
        pend[stream].setdefault(site, []).append((key, plan))
        npending += 1
    if not npending:
        return out

    M = machine
    st = _BatchState(npending)
    rfd, wfd = os.pipe()
    os.set_blocking(rfd, False)
    buf = bytearray()

    def drain() -> None:
        while True:
            try:
                chunk = os.read(rfd, 4096)
            except BlockingIOError:
                return
            if not chunk:
                return
            buf.extend(chunk)

    checkpoints = trace.checkpoints
    interval = trace.interval

    def comparator(inst, fn, misses=[0]):
        # Lane-side checkpoint hook, invoked only at checkpoint indices
        # (the skip gate below jumps straight to the next one; between
        # checkpoints the tail pays one int compare per eligible
        # event). Cheap rejects first: a lane on a divergent control
        # path has a different dynamic-instruction count at the same
        # eligible index, which costs one int compare instead of a
        # state hash. Equal counts also make the budget projection
        # exact: the converged future executes precisely
        # golden_final_executed instructions, which is under the hang
        # budget by construction.
        idx = M.eligible_executed - 1
        M._trace_skip_until = idx + interval
        rec = checkpoints.get(idx)
        if rec is None or M._executed != rec[2]:
            return
        if _state_digest(M, inst) != rec[0]:
            # Same path but persistently different state: typical of
            # float workloads where a low-bit flip drifts through the
            # whole tail (often still "masked" under rtol — but never
            # bit-converged). Truncation cannot happen; stop paying
            # for checkpoint hashes and run the tail at full speed.
            misses[0] += 1
            if misses[0] >= _MAX_DIGEST_MISSES:
                M.trace_eligible = None
            return
        raise _LaneConverged(rec)

    def at_site(entries: list, inst, stream: str) -> None:
        for key, plan in entries:
            if inst is not None and _dead_flip(plan, inst.type):
                out[key] = golden_outcome
                continue
            while len(st.live) >= st.max_live:
                os.waitpid(st.live.pop(0), 0)
                drain()
            try:
                pid = os.fork()
            except OSError:
                continue  # key stays unresolved; sequential fallback
            if pid == 0:
                st.child = (key, plan)
                try:
                    os.close(rfd)
                except OSError:
                    pass
                _arm_lane(M, plan, stream)
                # Setter refreshes gates either way; None drops straight
                # back to the fast interpreter loop once the plan fires.
                M.trace_eligible = comparator if converge else None
                if converge:
                    # First comparison at the next checkpoint index
                    # after the fork point (the assignment above reset
                    # the gate to fire-always).
                    M._trace_skip_until = (
                        (M.eligible_executed - 1) // interval + 1
                    ) * interval
                return  # lane: resume the simulation as the faulted run
            st.live.append(pid)
            st.forked += 1
        st.remaining -= len(entries)
        if st.remaining == 0:
            raise _GoldenDone

    pend_reg = pend["reg"]
    pend_checker = pend["checker"]
    pend_mem = pend["mem"]
    pend_branch = pend["branch"]
    reg_sites = sorted(pend_reg)
    reg_cursor = [0]

    def reg_watch(inst, fn):
        # The skip gate means we are invoked only at pending sites: the
        # golden prefix between sites runs without per-event Python
        # calls. All parent-side gate state is advanced *before*
        # at_site — a forked lane returns through this frame, and its
        # comparator gate (set in the fork branch) must survive it.
        idx = M.eligible_executed - 1
        entries = pend_reg.pop(idx, None)
        c = reg_cursor[0]
        while c < len(reg_sites) and reg_sites[c] <= idx:
            c += 1
        reg_cursor[0] = c
        M._trace_skip_until = reg_sites[c] if c < len(reg_sites) else _NEVER
        if entries is not None:
            at_site(entries, inst, "reg")

    def checker_watch(inst, index):
        entries = pend_checker.pop(index, None)
        if entries is not None:
            at_site(entries, inst, "checker")

    def mem_watch(inst, index):
        entries = pend_mem.pop(index, None)
        if entries is not None:
            at_site(entries, inst, "mem")

    def branch_watch(inst, index):
        entries = pend_branch.pop(index, None)
        if entries is not None:
            at_site(entries, inst, "branch")

    if resume_from is None:
        M.restore(snapshot)
    else:
        restore_payload(M, resume_from)
    M.trace_eligible = reg_watch if pend_reg else None
    if pend_reg:
        M._trace_skip_until = reg_sites[0]
    M.set_stream_watches(
        checker=checker_watch if pend_checker else None,
        mem=mem_watch if pend_mem else None,
        branch=branch_watch if pend_branch else None,
    )
    # Frames rebuild *after* the watch installs: their inject flags
    # capture the machine's fault mode, which the watches just turned
    # on.
    resume_stack = (rebuild_frames(M, resume_from)
                    if resume_from is not None else None)
    try:
        try:
            if resume_stack is not None:
                run_stack(M, resume_stack, resume_from.executed)
            else:
                M.run(entry, args)
            if st.child is not None:
                # Lane ran its whole tail: classify exactly like
                # inject_once's no-trap path.
                if not outputs_match(M.output, list(reference), rtol):
                    _child_report(wfd, st.child[0], Outcome.SDC)
                elif M.counters.corrections > 0:
                    _child_report(wfd, st.child[0], Outcome.CORRECTED)
                else:
                    _child_report(wfd, st.child[0], Outcome.MASKED)
        except _GoldenDone:
            pass  # parent: every pending plan forked or resolved
        except _LaneConverged as exc:
            rec = exc.args[0]
            corrections = (M.counters.corrections
                           + trace.final_corrections - rec[1])
            _child_report(wfd, st.child[0],
                          Outcome.CORRECTED if corrections > 0
                          else Outcome.MASKED, converged=True)
        except Trap as exc:
            if st.child is None:
                raise  # a golden run must never trap
            _child_report(wfd, st.child[0], trap_outcome(exc))
        except BaseException:
            if st.child is not None:
                os._exit(1)  # unreported lane; parent reruns sequentially
            raise
        finally:
            if st.child is not None:
                # A lane must never return into the caller's world.
                os._exit(1)
            for pid in st.live:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            st.live.clear()
            M.trace_eligible = None
            M.set_stream_watches()
            drain()
    finally:
        os.close(rfd)
        os.close(wfd)

    converged = 0
    for offset in range(0, len(buf) - len(buf) % _RECORD.size, _RECORD.size):
        key, code = _RECORD.unpack_from(buf, offset)
        out[key] = _OUTCOMES[code & ~_CONVERGED_FLAG]
        if code & _CONVERGED_FLAG:
            converged += 1
    if stats is not None:
        stats["forked"] = stats.get("forked", 0) + st.forked
        stats["converged"] = stats.get("converged", 0) + converged
    return out
