"""Tests for the flat memory subsystem."""

import pytest

from repro.cpu import HEAP_BASE, Machine, Memory, MemoryFault, STACK_BASE
from repro.ir import types as T
from repro.toolchain import default_toolchain


class TestAllocation:
    def test_heap_starts_above_null_page(self):
        mem = Memory()
        addr = mem.alloc(64)
        assert addr >= HEAP_BASE

    def test_alignment(self):
        mem = Memory()
        mem.alloc(3)
        addr = mem.alloc(8, align=16)
        assert addr % 16 == 0

    def test_heap_exhaustion(self):
        mem = Memory(heap_capacity=1 << 12)
        with pytest.raises(MemoryError):
            mem.alloc(1 << 20)

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            Memory().alloc(-1)

    def test_stack_mark_release(self):
        mem = Memory()
        mark = mem.stack_mark()
        a = mem.stack_alloc(128)
        assert a >= STACK_BASE
        mem.stack_release(mark)
        b = mem.stack_alloc(128)
        assert b == a  # reused after release


class TestLazyGrowth:
    """Buffers start empty and grow to each new top; capacities only
    bound the tops."""

    def test_fresh_memory_holds_no_bytes(self):
        mem = Memory()
        assert len(mem._heap) == 0
        assert len(mem._stack) == 0

    def test_alloc_grows_heap_to_top_with_zeros(self):
        mem = Memory()
        mem.alloc(3)
        addr = mem.alloc(40, align=16)
        assert len(mem._heap) == mem.heap_top - HEAP_BASE == addr + 40 - HEAP_BASE
        assert mem.read_bytes(addr, 40) == bytes(40)

    def test_stack_grows_to_high_water_mark(self):
        mem = Memory()
        mark = mem.stack_mark()
        mem.stack_alloc(64)
        mem.stack_release(mark)
        assert len(mem._stack) == 64
        mem.stack_alloc(16)
        assert len(mem._stack) == 64  # below the high-water mark
        mem.stack_alloc(100)
        assert len(mem._stack) == mem.stack_top - STACK_BASE

    def test_released_slot_keeps_stale_bytes(self):
        mem = Memory()
        mark = mem.stack_mark()
        a = mem.stack_alloc(8)
        mem.store_scalar(T.I64, a, 0xDEADBEEF)
        mem.stack_release(mark)
        b = mem.stack_alloc(8)
        assert b == a
        assert mem.load_scalar(T.I64, b) == 0xDEADBEEF

    def test_exhaustion_boundaries_unchanged(self):
        mem = Memory(heap_capacity=256, stack_capacity=128)
        mem.alloc(256, align=1)
        with pytest.raises(MemoryError):
            mem.alloc(1, align=1)
        mem.stack_alloc(128, align=1)
        with pytest.raises(MemoryError):
            mem.stack_alloc(1, align=1)
        # A failed allocation moves nothing.
        assert mem.heap_top - HEAP_BASE == len(mem._heap) == 256
        assert mem.stack_top - STACK_BASE == len(mem._stack) == 128
        with pytest.raises(MemoryFault):
            mem.read_bytes(HEAP_BASE + 256, 1)
        with pytest.raises(MemoryFault):
            mem.read_bytes(STACK_BASE + 128, 1)

    @pytest.mark.parametrize("name", ["histogram", "blackscholes", "x264"])
    @pytest.mark.parametrize("version", ["native", "elzar", "swiftr"])
    def test_machine_invariants_after_global_layout(self, name, version):
        built = default_toolchain().build(name, "test", version)
        mem = Machine(built.module).memory
        assert mem.heap_top > HEAP_BASE  # globals were laid out
        assert len(mem._heap) == mem.heap_top - HEAP_BASE
        assert len(mem._stack) == mem.stack_top - STACK_BASE == 0


class TestImages:
    def test_image_install_round_trip_keeps_stale_stack(self):
        mem = Memory()
        addr = mem.alloc(16)
        mem.store_scalar(T.I64, addr, 11)
        mark = mem.stack_mark()
        slot = mem.stack_alloc(8)
        mem.store_scalar(T.I64, slot, 22)
        mem.stack_release(mark)
        heap, stack = mem.image()
        tops = (mem.heap_top, mem.stack_top)

        other = Memory()
        other.alloc(4096)
        other.stack_alloc(256)
        other.install(heap, stack, *tops)
        assert other.image() == (heap, stack)
        assert (other.heap_top, other.stack_top) == tops
        assert other.load_scalar(T.I64, addr) == 11
        assert other.load_scalar(T.I64, other.stack_alloc(8)) == 22

    def test_install_truncates_to_the_image(self):
        mem = Memory()
        heap, stack = mem.image()
        mem.alloc(64)
        mem.stack_alloc(64)
        mem.install(heap, stack, HEAP_BASE, STACK_BASE)
        assert len(mem._heap) == len(mem._stack) == 0
        # The stack grows back zero-filled, not with the dropped bytes.
        slot = mem.stack_alloc(8)
        assert mem.read_bytes(slot, 8) == bytes(8)

    @pytest.mark.parametrize("heap,stack,heap_off,stack_off", [
        (bytes(8), b"", 16, 0),      # heap shorter than its top
        (bytes(24), b"", 16, 0),     # heap longer than its top
        (b"", bytes(8), 0, 16),      # stack top above the image
        (b"", b"", -8, 0),           # heap top below HEAP_BASE
        (b"", b"", 0, -8),           # stack top below STACK_BASE
        (bytes(80), b"", 80, 0),     # heap past capacity
        (b"", bytes(80), 0, 8),      # stack past capacity
    ])
    def test_inconsistent_images_rejected(self, heap, stack, heap_off,
                                          stack_off):
        mem = Memory(heap_capacity=64, stack_capacity=64)
        with pytest.raises(ValueError):
            mem.install(heap, stack, HEAP_BASE + heap_off,
                        STACK_BASE + stack_off)
        assert (mem.heap_top, mem.stack_top) == (HEAP_BASE, STACK_BASE)


class TestAccessValidation:
    def test_null_page_faults(self):
        mem = Memory()
        with pytest.raises(MemoryFault):
            mem.read_bytes(0, 8)
        with pytest.raises(MemoryFault):
            mem.write_bytes(100, b"x")

    def test_beyond_heap_top_faults(self):
        mem = Memory()
        addr = mem.alloc(16)
        mem.read_bytes(addr, 16)
        with pytest.raises(MemoryFault):
            mem.read_bytes(addr + 8, 16)  # straddles heap top

    def test_gap_between_heap_and_stack_faults(self):
        mem = Memory()
        mem.alloc(8)
        with pytest.raises(MemoryFault):
            mem.read_bytes(STACK_BASE - 4096, 8)

    def test_fault_reports_details(self):
        mem = Memory()
        try:
            mem.write_bytes(4, b"abcd")
        except MemoryFault as exc:
            assert exc.address == 4
            assert exc.write is True


class TestTypedAccess:
    @pytest.mark.parametrize(
        "ty,value",
        [
            (T.I8, 200),
            (T.I16, 40000),
            (T.I32, 4_000_000_000),
            (T.I64, (1 << 63) + 5),
            (T.F32, 1.5),
            (T.F64, -2.75),
            (T.PTR, 0x123456),
        ],
    )
    def test_scalar_roundtrip(self, ty, value):
        mem = Memory()
        addr = mem.alloc(16)
        mem.store_scalar(ty, addr, value)
        assert mem.load_scalar(ty, addr) == value

    def test_little_endian_layout(self):
        mem = Memory()
        addr = mem.alloc(8)
        mem.store_scalar(T.I64, addr, 0x0102030405060708)
        assert mem.read_bytes(addr, 1) == b"\x08"

    def test_narrow_store_masks(self):
        mem = Memory()
        addr = mem.alloc(8)
        mem.store_scalar(T.I8, addr, 0x1FF)
        assert mem.load_scalar(T.I8, addr) == 0xFF

    def test_i1_stored_as_byte(self):
        mem = Memory()
        addr = mem.alloc(2)
        mem.store_scalar(T.I1, addr, 1)
        mem.store_scalar(T.I1, addr + 1, 0)
        assert mem.load_scalar(T.I1, addr) == 1
        assert mem.load_scalar(T.I1, addr + 1) == 0

    def test_vector_roundtrip(self):
        mem = Memory()
        v4 = T.vector(T.I64, 4)
        addr = mem.alloc(32)
        mem.store_value(v4, addr, (1, 2, 3, 4))
        assert mem.load_value(v4, addr) == (1, 2, 3, 4)


class TestGlobalInit:
    def test_zero_init(self):
        mem = Memory()
        addr = mem.init_global(T.ArrayType(T.I64, 4), None)
        assert mem.load_scalar(T.I64, addr + 24) == 0

    def test_list_init(self):
        mem = Memory()
        addr = mem.init_global(T.ArrayType(T.I32, 3), [7, 8, 9])
        assert mem.load_scalar(T.I32, addr + 4) == 8

    def test_bytes_init(self):
        mem = Memory()
        addr = mem.init_global(T.ArrayType(T.I8, 4), b"abc")
        assert mem.load_scalar(T.I8, addr) == ord("a")

    def test_scalar_global(self):
        mem = Memory()
        addr = mem.init_global(T.F64, 3.25)
        assert mem.load_scalar(T.F64, addr) == 3.25

    def test_oversized_initializer_rejected(self):
        mem = Memory()
        with pytest.raises(ValueError):
            mem.init_global(T.ArrayType(T.I8, 2), b"toolong")
