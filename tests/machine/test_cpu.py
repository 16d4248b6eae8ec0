"""Interpreter tests using hand-assembled programs."""

from __future__ import annotations

import pytest

from repro.asm.assembler import assemble
from repro.errors import CpuError
from repro.isa.costs import CostModel
from repro.machine.cpu import CPU
from repro.machine.image import Image


def load(image: Image, name: str, src: str, extra: dict[str, int] | None = None) -> int:
    # two-phase: reserve the address, then assemble with the final base
    probe, _ = assemble(src, base_addr=0, extra_labels=dict(extra or {}, **image.symbols))
    addr = image.add_function(name, b"\x00" * len(probe))
    code, _ = assemble(src, base_addr=addr, extra_labels=dict(extra or {}, **image.symbols))
    image.poke(addr, code)
    return addr


@pytest.fixture
def machine():
    image = Image()
    return image, CPU(image)


def test_return_constant(machine):
    image, cpu = machine
    load(image, "f", "mov rax, 42\nret")
    assert cpu.run("f").int_return == 42


def test_arguments_in_abi_registers(machine):
    image, cpu = machine
    load(image, "add2", "mov rax, rdi\nadd rax, rsi\nret")
    assert cpu.run("add2", 40, 2).int_return == 42


def test_float_arguments_and_return(machine):
    image, cpu = machine
    load(image, "fmul", "mulsd xmm0, xmm1\nret")
    assert cpu.run("fmul", 3.0, 4.0).float_return == 12.0


def test_mixed_int_float_args(machine):
    image, cpu = machine
    # double f(double a, long b): return a (int arg must not disturb xmm0)
    load(image, "pick", "ret")
    result = cpu.run("pick", 2.5, 7)
    assert result.float_return == 2.5


def test_loop_countdown(machine):
    image, cpu = machine
    load(
        image,
        "sum10",
        """
        mov rax, 0
        mov rcx, 10
        top:
        add rax, rcx
        dec rcx
        jne top
        ret
        """,
    )
    assert cpu.run("sum10").int_return == 55


def test_memory_load_store(machine):
    image, cpu = machine
    buf = image.malloc(64)
    load(
        image,
        "store_load",
        """
        mov [rdi+8], rsi
        mov rax, [rdi+8]
        ret
        """,
    )
    assert cpu.run("store_load", buf, 1234).int_return == 1234


def test_scaled_indexing(machine):
    image, cpu = machine
    buf = image.malloc(64)
    for i in range(4):
        image.memory.write_u64(buf + 8 * i, 100 + i)
    load(image, "idx", "mov rax, [rdi+rsi*8]\nret")
    assert cpu.run("idx", buf, 3).int_return == 103


def test_call_and_ret(machine):
    image, cpu = machine
    load(image, "callee", "mov rax, 7\nret")
    load(image, "caller", "call callee\nadd rax, 1\nret")
    assert cpu.run("caller").int_return == 8


def test_indirect_call_through_register(machine):
    image, cpu = machine
    load(image, "callee", "mov rax, 9\nret")
    load(image, "caller", "calli rdi\nret")
    assert cpu.run("caller", image.symbol("callee")).int_return == 9


def test_push_pop(machine):
    image, cpu = machine
    load(image, "f", "push rdi\npop rax\nret")
    assert cpu.run("f", 31337).int_return == 31337


def test_idiv(machine):
    image, cpu = machine
    load(image, "divmod", "mov rax, rdi\nidiv rsi\nret")
    result = cpu.run("divmod", -7 & (2**64 - 1), 2)
    assert result.int_return == -3
    assert cpu.regs[2] == (2**64 - 1)  # rdx = remainder -1


def test_setcc(machine):
    image, cpu = machine
    load(image, "less", "cmp rdi, rsi\nsetl rax\nret")
    assert cpu.run("less", -1 & (2**64 - 1), 5).int_return == 1
    assert cpu.run("less", 5, 5).int_return == 0


def test_float_compare_branch(machine):
    image, cpu = machine
    load(
        image,
        "fmax",
        """
        ucomisd xmm0, xmm1
        ja keep
        movsd xmm0, xmm1
        keep:
        ret
        """,
    )
    assert cpu.run("fmax", 1.0, 2.0).float_return == 2.0
    assert cpu.run("fmax", 3.0, 2.0).float_return == 3.0


def test_cvt_roundtrip(machine):
    image, cpu = machine
    load(image, "toint", "cvttsd2si rax, xmm0\nret")
    assert cpu.run("toint", 41.9).int_return == 41
    load(image, "tofloat", "cvtsi2sd xmm0, rdi\nret")
    assert cpu.run("tofloat", -3 & (2**64 - 1)).float_return == -3.0


def test_movq_bit_moves(machine):
    image, cpu = machine
    load(image, "bits", "movq rax, xmm0\nmovq xmm1, rax\nmovsd xmm0, xmm1\nret")
    assert cpu.run("bits", 2.5).float_return == 2.5


def test_packed_ops(machine):
    image, cpu = machine
    buf = image.malloc(32)
    image.memory.write_f64(buf, 1.0)
    image.memory.write_f64(buf + 8, 2.0)
    load(
        image,
        "vsum",
        """
        movupd xmm0, [rdi]
        movupd xmm1, [rdi]
        addpd xmm0, xmm1
        haddpd xmm0, xmm0
        ret
        """,
    )
    # lanes (2,4) -> haddpd gives 6 in lane 0
    assert cpu.run("vsum", buf).float_return == 6.0


def test_host_function(machine):
    image, cpu = machine
    calls = []

    def host(c):
        calls.append(c.regs[7])  # rdi
        c.regs[0] = 99

    addr = image.alloc_host_slot("host_fn")
    cpu.host_functions[addr] = host
    load(image, "caller", "mov rdi, 5\ncall host_fn\nret")
    assert cpu.run("caller").int_return == 99
    assert calls == [5]


def test_call_hooks_observe_targets(machine):
    image, cpu = machine
    seen = []
    cpu.call_hooks.append(lambda c, target: seen.append(target))
    callee = load(image, "callee", "ret")
    load(image, "caller", "call callee\nret")
    cpu.run("caller")
    assert seen == [callee]


def test_max_steps_guard(machine):
    image, cpu = machine
    load(image, "spin", "top:\njmp top")
    with pytest.raises(CpuError):
        cpu.run("spin", max_steps=100)


def test_hlt_stops(machine):
    image, cpu = machine
    load(image, "h", "mov rax, 5\nhlt")
    assert cpu.run("h").int_return == 5


def test_cycle_accounting_matches_cost_model(machine):
    image, cpu = machine
    costs = CostModel()
    load(image, "f", "mov rax, 1\nadd rax, 2\nret")
    result = cpu.run("f")
    # mov(1) + add(1) + ret(6 + load 4) + initial sentinel store is outside the loop
    expected = costs.mov + costs.alu + costs.ret + costs.load
    assert result.cycles == expected


def test_remote_segment_surcharge(machine):
    image, cpu = machine
    seg = image.map_remote_node(0, 0x1000, extra_cost=150)
    image.memory.write_u64(seg.base, 77)
    load(image, "f", "mov rax, [rdi]\nret")
    local_buf = image.malloc(8)
    image.memory.write_u64(local_buf, 77)
    remote = cpu.run("f", seg.base)
    local = cpu.run("f", local_buf)
    assert remote.int_return == local.int_return == 77
    assert remote.cycles == local.cycles + 150
    assert remote.perf.remote_accesses == 1


def test_branch_counters(machine):
    image, cpu = machine
    load(
        image,
        "f",
        """
        mov rcx, 3
        top:
        dec rcx
        jne top
        ret
        """,
    )
    result = cpu.run("f")
    assert result.perf.branches == 3
    assert result.perf.taken_branches == 2


def test_alternating_segments_hit_the_two_entry_tlb(machine, monkeypatch):
    """A warm loop that alternates loads from rodata and the heap, with
    the stack in play for call and return, walks the segment list only
    to fill the TLB, not on every access."""
    image, cpu = machine
    lit = image.add_rodata(None, (3).to_bytes(8, "little"))
    buf = image.malloc(8 * 16)
    load(image, "f", "\n".join([
        "mov rcx, 16",
        "xor rax, rax",
        "top:",
        f"add rax, [{lit}]",
        "add rax, [rdi]",
        "add rdi, 8",
        "sub rcx, 1",
        "cmp rcx, 0",
        "jne top",
        "ret",
    ]))
    cpu.run("f", buf)  # decode into the icache
    walks = []
    segment_for = cpu.memory.segment_for
    monkeypatch.setattr(cpu.memory, "segment_for",
                        lambda *a: walks.append(a) or segment_for(*a))
    run = cpu.run("f", buf)
    assert run.int_return == 48
    assert run.perf.loads == 33
    assert len(walks) <= 4  # stack, rodata, heap, stack


def test_icache_stays_bounded_and_costs_nothing_simulated(machine, monkeypatch):
    """A full icache is cleared instead of growing: code longer than the
    bound still runs to the same result and the same simulated cycles."""
    image, cpu = machine
    load(image, "f", "mov rax, 0\n" + "add rax, 1\n" * 20 + "ret")
    unbounded = cpu.run("f")
    cpu.invalidate_icache()
    monkeypatch.setattr("repro.machine.cpu.ICACHE_ENTRIES", 8)
    sizes = []
    fill = cpu._fill_icache
    monkeypatch.setattr(cpu, "_fill_icache",
                        lambda addr: (fill(addr), sizes.append(len(cpu._icache)))[0])
    for _ in range(2):
        bounded = cpu.run("f")
        assert bounded.int_return == unbounded.int_return == 20
        assert bounded.cycles == unbounded.cycles
    assert max(sizes) == 8
    assert len(sizes) > 2 * 8  # the second run re-decodes
