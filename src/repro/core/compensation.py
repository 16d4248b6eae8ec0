"""Compensation / materialization code (paper Sec. III.F).

"We can produce compensation code for migrating between world states as
long as there are only values changing from being known to unknown.  For
each such value, we have to generate code to load the corresponding
locations with their known values."

Materialization rules (the runtime-location invariant of
:mod:`repro.core.known`):

* integer register ← ``mov r, imm`` (imm64 when needed);
* stack-address register ← ``lea r, [rsp + adjusted offset]``;
* XMM register ← ``movsd x, [literal-pool address]`` (like a compiler's
  rodata constant; BX64, like x86-64, has no double immediates);
* memory cell ← ``mov [cell], imm64-bits`` (works for doubles too: a
  cell is just 8 bytes); a stack-address *value* needs a scratch
  register — ``rax`` is borrowed by saving it to a stack slot *below*
  the traced frame extent (a ``push`` would write at ``[rsp-8]`` and
  could clobber a live frame cell, since the emitted code keeps the
  runtime rsp pinned at its entry value).

All stack-relative operands are emitted against the *runtime* rsp, which
equals the entry rsp plus ``rsp_runtime_offset`` (non-zero only inside
the window around an emitted call).
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.core.known import (
    KnownFloat, KnownInt, MemKey, RegSnapshot, StackRel, Value, World,
)
from repro.core.known import materialization_needs
from repro.isa.instruction import Instruction, ins
from repro.isa.opcodes import Op
from repro.isa.operands import FReg, Imm, Mem, Reg
from repro.isa.registers import GPR, XMM

FloatPool = Callable[[float], int]  # float value -> rodata address


def _float_bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def stack_mem(offset: int, rsp_runtime_offset: int, extra: int = 0) -> Mem:
    """Memory operand for the stack cell at entry-relative ``offset``."""
    return Mem(base=GPR.RSP, disp=offset - rsp_runtime_offset + extra)


def materialize_gpr(
    reg: GPR, value: Value, rsp_runtime_offset: int, note: str = "compensation"
) -> list[Instruction]:
    """Instructions loading a known value into a general register."""
    if isinstance(value, KnownInt):
        return [ins(Op.MOV, Reg(reg), Imm(value.value), note=note)]
    if isinstance(value, StackRel):
        return [ins(Op.LEA, Reg(reg), stack_mem(value.offset, rsp_runtime_offset), note=note)]
    if isinstance(value, KnownFloat):  # pragma: no cover - GPRs never hold floats
        return [ins(Op.MOV, Reg(reg), Imm(_float_bits(value.value)), note=note)]
    raise ValueError(f"cannot materialize {value!r} into {reg}")


def materialize_xmm(
    reg: XMM, value: KnownFloat, pool: FloatPool, note: str = "compensation"
) -> list[Instruction]:
    """Load a known double into an XMM register via the literal pool."""
    return [ins(Op.MOVSD, FReg(reg), Mem(disp=pool(value.value)), note=note)]


def materialize_mem(
    key: MemKey,
    value: Value,
    rsp_runtime_offset: int,
    note: str = "compensation",
    scratch_offset: int | None = None,
) -> list[Instruction]:
    """Store a tracked known value back into its memory cell."""
    kind, pos = key
    if kind == "s":
        dst = stack_mem(pos, rsp_runtime_offset)
    else:
        dst = Mem(disp=pos)
    if isinstance(value, KnownInt):
        return [ins(Op.MOV, dst, Imm(value.value), note=note)]
    if isinstance(value, KnownFloat):
        return [ins(Op.MOV, dst, Imm(_float_bits(value.value)), note=note)]
    if isinstance(value, RegSnapshot):
        # deferred spill crossing a migration edge: store the register
        src = FReg(value.reg) if value.is_float else Reg(value.reg)
        op = Op.MOVSD if value.is_float else Op.MOV
        return [ins(op, dst, src, note=note)]
    if isinstance(value, StackRel):
        # need a scratch register; save rax to a slot below the frame
        # extent (see module doc — pushing would clobber frame cells)
        if scratch_offset is None:
            raise ValueError("StackRel cell materialization needs a scratch slot")
        save = stack_mem(scratch_offset, rsp_runtime_offset)
        return [
            ins(Op.MOV, save, Reg(GPR.RAX), note=note),
            ins(Op.LEA, Reg(GPR.RAX),
                stack_mem(value.offset, rsp_runtime_offset), note=note),
            ins(Op.MOV, dst, Reg(GPR.RAX), note=note),
            ins(Op.MOV, Reg(GPR.RAX), save, note=note),
        ]
    raise ValueError(f"cannot materialize memory cell {key} = {value!r}")


def materialize_edge(
    src: World,
    dst: World,
    pool: FloatPool,
    rsp_runtime_offset: int = 0,
    scratch_offset: int | None = None,
) -> list[Instruction]:
    """Compensation code for a src→dst world migration (src must be
    migration-compatible with dst; see known.migration_compatible)."""
    gprs, xmms, mem_keys = materialization_needs(src, dst)
    out: list[Instruction] = []
    # memory first: materializing a StackRel cell borrows rax, so rax's
    # own materialization must come after.
    for key in mem_keys:
        out += materialize_mem(key, src.mem[key], rsp_runtime_offset,
                               scratch_offset=scratch_offset)
    for reg in gprs:
        out += materialize_gpr(reg, src.regs[reg], rsp_runtime_offset)
    for xreg in xmms:
        value = src.xmm[xreg]
        assert value is not None
        out += materialize_xmm(xreg, value, pool)
    return out
