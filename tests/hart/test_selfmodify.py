"""Self-modifying code: the per-pc decode cache must stay coherent.

These tests guard the fast-path invariant that a store landing in a
page the hart has executed from flushes its cached decodes — both for
the hart's own stores and for foreign masters writing through the same
memory map.
"""

from repro.hart.core import Hart
from repro.hart.ports import MapPort
from repro.hart.timing import IbexTiming
from repro.isa.asm import assemble
from repro.isa.encode import encode_i
from repro.isa import opcodes as op

from tests.hart.conftest import build_hart


def test_store_over_executed_instruction_takes_effect():
    """Execute an instruction, overwrite it, re-execute: the hart must
    run the *new* encoding (decode-cache invalidation on store)."""
    # Pass 1 runs `target: addi a0, zero, 1`; the program then rewrites
    # that instruction to `addi a0, zero, 2` and jumps back to it.
    new_word = encode_i(op.OP_IMM, op.F3_ADD_SUB, 10, 0, 2)  # addi a0, x0, 2
    hart, _, program = build_hart(
        f"""
        main:
            li   s1, 0          # pass counter
        target:
            addi a0, zero, 1    # patched to `addi a0, zero, 2` by pass 1
            addi s1, s1, 1
            li   t1, 2
            beq  s1, t1, done   # second pass: stop with patched result
            # patch the executed instruction in place
            la   t2, target
            li   t3, {new_word:#x}
            sw   t3, 0(t2)
            j    target
        done:
            ebreak
        """
    )
    hart.run(max_steps=100)
    assert hart.regs.read(10) == 2, "hart executed a stale cached decode"


def test_foreign_writer_invalidates_decode_cache():
    """A different bus master rewriting code must also be observed."""
    new_word = encode_i(op.OP_IMM, op.F3_ADD_SUB, 10, 0, 7)  # addi a0, x0, 7
    hart, bus, program = build_hart(
        """
        loop:
            addi a0, zero, 1
            ebreak
        """
    )
    # First execution caches the decode at `loop`.
    hart.run(max_steps=10)
    assert hart.regs.read(10) == 1
    # A foreign master (e.g. a DMA or the RoT through a bridge) rewrites
    # the instruction directly through the memory map.
    bus.write(program.symbols["loop"], 4, new_word)
    hart.halted = False
    hart.pc = program.symbols["loop"]
    hart.run(max_steps=10)
    assert hart.regs.read(10) == 7


def test_interior_page_of_bulk_write_invalidates():
    """A multi-page bulk write whose *interior* page holds cached code
    must flush the decode cache (endpoints-only checking misses it)."""
    new_word = encode_i(op.OP_IMM, op.F3_ADD_SUB, 10, 0, 7)  # addi a0, x0, 7
    hart, bus, program = build_hart(
        """
        main:
            addi a0, zero, 1
            ebreak
        """
    )
    hart.run(max_steps=10)
    assert hart.regs.read(10) == 1
    # Rewrite a 3-page span [page -1, page 0, page 1]; the cached code
    # lives entirely in the interior page 0... the bus starts at 0, so
    # shift the cached page instead: re-execute code cached at page 1.
    hart.flush_fetch_cache()
    patch = assemble(
        """
        target:
            addi a0, zero, 1
            ebreak
        """,
        base=0x1000,
    )
    bus.write_bytes(patch.base, patch.data)
    hart.halted = False
    hart.pc = 0x1000
    hart.run(max_steps=10)
    assert hart.regs.read(10) == 1           # page 1 is now cached
    # Foreign bulk write spanning pages 0..2: page 1 is interior.
    image = bytearray(bus.read_bytes(0x0000, 0x3000))
    image[0x1000:0x1004] = new_word.to_bytes(4, "little")
    bus.write_bytes(0x0000, bytes(image))
    hart.halted = False
    hart.pc = 0x1000
    hart.run(max_steps=10)
    assert hart.regs.read(10) == 7           # stale decode was dropped


def test_fence_i_flushes_fetch_cache():
    """fence.i is the architectural sync point; flushing must not
    disturb execution and must drop every cached pc."""
    hart, _, _ = build_hart(
        """
        main:
            addi a0, zero, 5
            fence.i
            addi a0, a0, 1
            ebreak
        """
    )
    hart.run(max_steps=10)
    assert hart.regs.read(10) == 6
    # The flush happened mid-run: everything fetched before (and
    # including) the fence.i was dropped; only the two instructions
    # executed afterwards are cached.
    assert set(hart._pc_cache) == {8, 12}


def test_store_hooks_fire_only_for_pages_holding_code():
    """The map calls its store hooks only for a store touching a page
    some hart holds decoded code from; the hart's hold ends with its
    flush, and the next fetch takes it again."""
    hart, bus, program = build_hart(
        """
        main:
            addi a0, zero, 1
            ebreak
        """
    )
    calls = []
    bus.add_store_hook(lambda address, size: calls.append(address))
    hart.run(max_steps=10)
    assert bus._code_pages == {0: 1}
    bus.write(0x4000, 4, 0)                  # a data page: no hook runs
    assert calls == []
    bus.write(0x0800, 4, 0)                  # the code page: hooks run
    assert calls == [0x0800]
    assert bus._code_pages == {} and hart._pc_cache == {}
    hart.halted = False
    hart.pc = program.symbols["main"]
    hart.run(max_steps=10)
    assert bus._code_pages == {0: 1}
    hart.flush_fetch_cache()                 # fence.i drops the hold too
    assert bus._code_pages == {}


def test_shared_code_page_outlives_one_harts_flush():
    """Two harts hold code on one page.  One flushes; a store to the
    page must still reach the other, whose decode would go stale."""
    new_word = encode_i(op.OP_IMM, op.F3_ADD_SUB, 10, 0, 7)  # addi a0, x0, 7
    first, bus, program = build_hart(
        """
        loop:
            addi a0, zero, 1
            ebreak
        """
    )
    second = Hart(MapPort(bus), IbexTiming(), reset_pc=program.base)
    for hart in (first, second):
        hart.run(max_steps=10)
        assert hart.regs.read(10) == 1
    assert bus._code_pages == {0: 2}
    first.flush_fetch_cache()
    assert bus._code_pages == {0: 1}
    bus.write(program.symbols["loop"], 4, new_word)
    second.halted = False
    second.pc = program.symbols["loop"]
    second.run(max_steps=10)
    assert second.regs.read(10) == 7
