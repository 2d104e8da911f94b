"""Compatibility shim: the explicit-frame (trampoline) executor lives
in :mod:`repro.cpu.compiled`.

Historically this module held a hand-maintained mirror of the decoded
engine's recursive executors, rewritten over an explicit frame stack so
mid-run state could be captured and resumed. The compiled execution
core made the trampoline the *only* executor — it runs compiled
segments and captures state at their block and post-call entries — so
the implementation moved to :mod:`repro.cpu.compiled` and this module
simply re-exports the public surface, keeping existing imports
working.
"""

from __future__ import annotations

from .compiled import (  # noqa: F401
    Frame,
    FrameState,
    ResumeState,
    arm_resume,
    capture_state,
    covers,
    push_frame,
    rebuild_frames,
    restore_payload,
    resume_run,
    run_resumable,
    run_stack,
    stream_mark,
)

__all__ = [
    "Frame",
    "FrameState",
    "ResumeState",
    "arm_resume",
    "capture_state",
    "covers",
    "push_frame",
    "rebuild_frames",
    "restore_payload",
    "resume_run",
    "run_resumable",
    "run_stack",
    "stream_mark",
]
