"""The register-state definition behind reconvergence: floats compare by
IEEE-754 bits.

Both the sequential path's exact comparator
(:class:`repro.cpu.compiled.Reconvergence`) and the batch engine's
state digest (:func:`repro.cpu.batch._state_digest`) read register
files through :func:`repro.cpu.compiled.state_key`. Python's ``==``
calls ``-0.0`` and ``0.0`` equal and every NaN unequal to itself, and
``repr`` prints every NaN as ``nan``; a later ``bitcast`` can tell all
of these apart, so neither may decide state equality.
"""

import struct
from types import SimpleNamespace

import pytest

from repro.cpu.batch import _state_digest
from repro.cpu.compiled import FrameState, Reconvergence, ResumeState, state_key
from repro.cpu.memory import HEAP_BASE, STACK_BASE, Memory


def _f64(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


QUIET_NAN = 0x7FF8000000000000

#: Register files that differ only where ``==``/``repr`` cannot see it.
DIFFERING = {
    "nan-payload": ([1, _f64(QUIET_NAN | 1)], [1, float("nan")]),
    "signed-zero": ([2, -0.0], [2, 0.0]),
    "vector-lane-nan": ([(1.0, _f64(QUIET_NAN | 2), 0.0, 0.0)],
                        [(1.0, float("nan"), 0.0, 0.0)]),
    "vector-lane-zero": ([(0.0, -0.0, 3.0, 4.0)], [(0.0, 0.0, 3.0, 4.0)]),
}


def _machine(regs):
    fn = SimpleNamespace(name="f")
    dfn = SimpleNamespace(fn=fn, blocks=["entry"])
    frame = SimpleNamespace(dfn=dfn, block="entry", i=0, mark=STACK_BASE,
                            regs=list(regs))
    machine = SimpleNamespace(memory=Memory(), output=[], _depth=0,
                              _call_sites=[], _frames=[(dfn, frame.regs)])
    return machine, [frame]


def _state(regs):
    return ResumeState(
        heap=b"", stack_mem=b"", heap_top=HEAP_BASE, stack_top=STACK_BASE,
        output=(), counters=None, cache=None, predictor=None, timing=None,
        branch_pcs={}, next_pc=1, executed=0, eligible=0, checker_sites=0,
        mem_accesses=0, cond_branches=0,
        frames=(FrameState(fn="f", block=0, i=0, regs=tuple(regs),
                           times=(), mark=STACK_BASE),),
    )


@pytest.mark.parametrize("case", sorted(DIFFERING))
def test_differing_bits_neither_digest_nor_compare_equal(case):
    a, b = DIFFERING[case]
    assert state_key(a) != state_key(b)
    ma, _ = _machine(a)
    mb, _ = _machine(b)
    assert _state_digest(ma, None) != _state_digest(mb, None)
    machine, stack = _machine(a)
    assert not Reconvergence._same(machine, stack, _state(b))


def test_equal_bits_compare_equal_across_nan_objects():
    # Two distinct NaN objects with one payload hold the same state.
    a = [7, _f64(QUIET_NAN | 5), (-0.0, 1.5)]
    b = [7, _f64(QUIET_NAN | 5), (-0.0, 1.5)]
    assert a[1] is not b[1]
    assert state_key(a) == state_key(b)
    assert _state_digest(_machine(a)[0], None) == \
        _state_digest(_machine(b)[0], None)
    machine, stack = _machine(a)
    assert Reconvergence._same(machine, stack, _state(b))


def test_ints_and_floats_never_alias():
    assert state_key([1]) != state_key([1.0])
    assert state_key([None]) != state_key([0])
