"""Flat simulated memory.

A single address space with two bump-allocated regions:

- the *heap* (globals + ``rt.alloc``), growing up from ``HEAP_BASE``;
- the *stack* (allocas), growing up from ``STACK_BASE`` with LIFO
  save/restore around function calls.

Both regions are *lazy*: a fresh :class:`Memory` holds no bytes, and
each allocation grows its buffer to the new top, zero-filled. The
configured capacities only bound how far the tops may move, so a
machine costs the bytes its program actually allocates. Two invariants
hold at all times:

- ``len(_heap) == heap_top - HEAP_BASE`` (the heap is never freed);
- ``len(_stack)`` is the stack's *high-water mark*: the highest
  ``stack_top - STACK_BASE`` reached since construction or the last
  :meth:`Memory.install`. ``stack_release`` lowers the top but keeps
  the bytes above it, so a re-allocated slot sees the stale contents
  its previous owner left, as on real hardware.

Every access is bounds-checked against the tops, never the buffer
lengths, so the stale stack bytes above ``stack_top`` are unreachable
until an allocation maps them again.

A memory *image* is the pair of buffers, heap and stack up to its
high-water mark (:meth:`Memory.image`). Snapshots and checkpoints
store images and :meth:`Memory.install` puts one back exactly, stale
stack bytes included, so a restored machine behaves like the one that
was captured.

Addresses below ``HEAP_BASE`` are never mapped, so small corrupted
pointers fault like a null-page access would. The memory subsystem is
assumed ECC-protected (paper §III-A): the fault injector never flips
bits here.

Scalars are stored little-endian; integers in unsigned width-masked
form; floats as IEEE-754.
"""

from __future__ import annotations

import struct
from typing import Tuple, Union

from ..ir import types as T
from .errors import MemoryFault

HEAP_BASE = 0x1000
STACK_BASE = 0x40000000  # 1 GiB mark; heap may grow until here

_FLOAT_FMT = {32: "<f", 64: "<d"}


class Memory:
    def __init__(self, heap_capacity: int = 64 << 20, stack_capacity: int = 8 << 20):
        self.heap_capacity = heap_capacity
        self.stack_capacity = stack_capacity
        self._heap = bytearray()
        self._stack = bytearray()
        self.heap_top = HEAP_BASE
        self.stack_top = STACK_BASE
        # Absolute address of the stack's high-water mark, so the grow
        # test in stack_alloc is one integer compare.
        self._stack_end = STACK_BASE

    # Allocation ---------------------------------------------------------------

    def alloc(self, size: int, align: int = 8) -> int:
        """Heap allocation (globals, rt.alloc). Never freed."""
        if size < 0:
            raise ValueError("negative allocation")
        addr = _align_up(self.heap_top, align)
        top = addr + size
        if top - HEAP_BASE > self.heap_capacity:
            raise MemoryError(
                f"simulated heap exhausted ({self.heap_capacity} bytes)"
            )
        self._heap += bytes(top - self.heap_top)
        self.heap_top = top
        return addr

    def stack_alloc(self, size: int, align: int = 8) -> int:
        addr = _align_up(self.stack_top, align)
        top = addr + size
        if top > self._stack_end:
            if top - STACK_BASE > self.stack_capacity:
                raise MemoryError(
                    f"simulated stack exhausted ({self.stack_capacity} bytes)"
                )
            self._stack += bytes(top - self._stack_end)
            self._stack_end = top
        self.stack_top = top
        return addr

    def stack_mark(self) -> int:
        return self.stack_top

    def stack_release(self, mark: int) -> None:
        self.stack_top = mark

    # Images -------------------------------------------------------------------

    def image(self) -> Tuple[bytes, bytes]:
        """Copy of the memory: the heap up to ``heap_top`` and the stack
        up to its high-water mark. With the two tops it is everything
        :meth:`install` needs to reproduce this memory exactly."""
        return bytes(self._heap), bytes(self._stack)

    def check_image(self, heap: bytes, stack: bytes,
                    heap_top: int, stack_top: int) -> None:
        """Raise ``ValueError`` unless :meth:`install` would accept the
        image: the heap spans exactly ``HEAP_BASE..heap_top``, the stack
        covers ``STACK_BASE..stack_top``, and both fit the capacities."""
        if len(heap) != heap_top - HEAP_BASE:
            raise ValueError(
                f"heap image holds {len(heap)} bytes, "
                f"top implies {heap_top - HEAP_BASE}"
            )
        if not 0 <= stack_top - STACK_BASE <= len(stack):
            raise ValueError(
                f"stack image holds {len(stack)} bytes, "
                f"top implies {stack_top - STACK_BASE}"
            )
        if len(heap) > self.heap_capacity or len(stack) > self.stack_capacity:
            raise ValueError("memory image exceeds the configured capacity")

    def install(self, heap: bytes, stack: bytes,
                heap_top: int, stack_top: int) -> None:
        """Replace the memory with an image from :meth:`image`. The
        buffers take the image's lengths, so bytes written since the
        capture (above either top, or above the stack's old high-water
        mark) are gone, not merely zeroed."""
        self.check_image(heap, stack, heap_top, stack_top)
        self._heap[:] = heap
        self._stack[:] = stack
        self.heap_top = heap_top
        self.stack_top = stack_top
        self._stack_end = STACK_BASE + len(stack)

    # Raw access ----------------------------------------------------------------

    def _locate(self, addr: int, size: int, write: bool) -> tuple:
        """Return (buffer, offset) for a mapped range, or fault."""
        if HEAP_BASE <= addr and addr + size <= self.heap_top:
            return self._heap, addr - HEAP_BASE
        if STACK_BASE <= addr and addr + size <= self.stack_top:
            return self._stack, addr - STACK_BASE
        raise MemoryFault(addr, size, write)

    def read_bytes(self, addr: int, size: int) -> bytes:
        buf, off = self._locate(addr, size, write=False)
        return bytes(buf[off:off + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        buf, off = self._locate(addr, len(data), write=True)
        buf[off:off + len(data)] = data

    # Typed access -----------------------------------------------------------------

    def load_scalar(self, ty: T.Type, addr: int) -> Union[int, float]:
        size = T.sizeof(ty)
        raw = self.read_bytes(addr, size)
        if ty.is_float:
            return struct.unpack(_FLOAT_FMT[ty.bits], raw)[0]
        value = int.from_bytes(raw, "little")
        if ty.is_int and ty.width % 8 != 0:
            value &= (1 << ty.width) - 1
        return value

    def store_scalar(self, ty: T.Type, addr: int, value: Union[int, float]) -> None:
        size = T.sizeof(ty)
        if ty.is_float:
            raw = struct.pack(_FLOAT_FMT[ty.bits], value)
        else:
            mask = (1 << (size * 8)) - 1
            raw = (int(value) & mask).to_bytes(size, "little")
        self.write_bytes(addr, raw)

    def load_value(self, ty: T.Type, addr: int):
        """Load a scalar or a contiguous vector."""
        if ty.is_vector:
            esize = T.sizeof(ty.elem)
            return tuple(
                self.load_scalar(ty.elem, addr + i * esize)
                for i in range(ty.count)
            )
        return self.load_scalar(ty, addr)

    def store_value(self, ty: T.Type, addr: int, value) -> None:
        if ty.is_vector:
            esize = T.sizeof(ty.elem)
            for i, v in enumerate(value):
                self.store_scalar(ty.elem, addr + i * esize, v)
            return
        self.store_scalar(ty, addr, value)

    # Bulk initialization ------------------------------------------------------------

    def init_global(self, content_type: T.Type, initializer) -> int:
        """Allocate and initialize storage for a global; returns address."""
        size = T.sizeof(content_type)
        addr = self.alloc(size, align=16)
        if initializer is None:
            return addr
        if isinstance(initializer, (bytes, bytearray)):
            if len(initializer) > size:
                raise ValueError("initializer larger than global")
            self.write_bytes(addr, bytes(initializer))
            return addr
        # Sequence of scalars for an array type.
        if content_type.is_array:
            elem = content_type.elem
            esize = T.sizeof(elem)
            values = list(initializer)
            if len(values) > content_type.count:
                raise ValueError("initializer larger than array global")
            for i, v in enumerate(values):
                self.store_scalar(elem, addr + i * esize, v)
            return addr
        self.store_scalar(content_type, addr, initializer)
        return addr


def _align_up(value: int, align: int) -> int:
    return (value + align - 1) & ~(align - 1)
