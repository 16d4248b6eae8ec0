"""Basic rewriter behaviour: specialization, folding, inlining, fallback.

The universal acceptance criterion: for every argument tuple consistent
with the declared known values, the rewritten function returns exactly
what the original returns (the drop-in-replacement contract of
Sec. III.E).
"""

from __future__ import annotations

import pytest

from repro.core import (
    BREW_KNOWN, BREW_PTR_TO_KNOWN,
    brew_init_conf, brew_rewrite, brew_setfunc, brew_setpar, brew_setmem,
)
from repro.isa.encoding import iter_decode
from repro.isa.opcodes import Op, OpClass, op_info
from repro.machine.vm import Machine


def rewritten_ops(machine: Machine, result) -> list[Op]:
    code = machine.image.peek(result.entry, result.code_size)
    return [i.op for i in iter_decode(code, result.entry)]


@pytest.fixture
def machine() -> Machine:
    return Machine()


def test_fully_known_function_folds_to_constant(machine):
    machine.load("noinline long f(long a, long b) { return a * b + 7; }")
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    brew_setpar(conf, 2, BREW_KNOWN)
    result = brew_rewrite(machine, conf, "f", 6, 7)
    assert result.ok, result.message
    assert machine.call(result.entry).int_return == 49
    ops = rewritten_ops(machine, result)
    # nothing but materializing rax and returning
    assert ops == [Op.MOV, Op.RET]


def test_partial_specialization_keeps_unknown_param(machine):
    machine.load("noinline long f(long a, long b) { return a * 10 + b; }")
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    result = brew_rewrite(machine, conf, "f", 4, 0)
    assert result.ok, result.message
    for b in (0, 1, -5, 123456):
        expected = machine.call("f", 4, b).int_return
        assert machine.call(result.entry, 4, b).int_return == expected
    # the known parameter must not be read from its register
    assert machine.call(result.entry, 999999, 2).int_return == 42


def test_unknown_params_mean_equivalent_generic_code(machine):
    machine.load("noinline long f(long a, long b) { return a - b; }")
    conf = brew_init_conf()
    result = brew_rewrite(machine, conf, "f", 0, 0)
    assert result.ok, result.message
    for a, b in [(5, 3), (0, 0), (-4, 10), (2**40, 1)]:
        assert (
            machine.call(result.entry, a, b).int_return
            == machine.call("f", a, b).int_return
        )


def test_float_specialization(machine):
    machine.load("noinline double f(double x, double y) { return x * y + 1.0; }")
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    result = brew_rewrite(machine, conf, "f", 0.0, 2.5)
    assert result.ok, result.message
    for x in (0.0, 1.0, -3.5, 42.0):
        assert (
            machine.call(result.entry, x, 2.5).float_return
            == machine.call("f", x, 2.5).float_return
        )


def test_known_trip_count_loop_fully_unrolls(machine):
    machine.load(
        """
        noinline long sumsq(long n) {
            long total = 0;
            for (long i = 1; i <= n; i++) total += i * i;
            return total;
        }
        """
    )
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    result = brew_rewrite(machine, conf, "sumsq", 5)
    assert result.ok, result.message
    assert machine.call(result.entry).int_return == 1 + 4 + 9 + 16 + 25
    ops = rewritten_ops(machine, result)
    assert not any(op_info(op).opclass in (OpClass.JCC, OpClass.JMP) for op in ops)
    assert ops == [Op.MOV, Op.RET]  # the whole loop folds to a constant


def test_loop_with_unknown_bound_stays_a_loop(machine):
    machine.load(
        """
        noinline long tri(long n) {
            long total = 0;
            for (long i = 0; i < n; i++) total += i;
            return total;
        }
        """
    )
    conf = brew_init_conf()
    brew_setfunc(conf, None, force_unknown_results=True)
    result = brew_rewrite(machine, conf, "tri", 4)
    assert result.ok, result.message
    for n in (0, 1, 4, 10, 100):
        assert machine.call(result.entry, n).int_return == n * (n - 1) // 2
    ops = rewritten_ops(machine, result)
    assert any(op_info(op).opclass is OpClass.JCC for op in ops)


def test_known_memory_folds_global_reads(machine):
    machine.load(
        """
        long table[4] = { 10, 20, 30, 40 };
        noinline long f(long i) { return table[1] + table[2] + i; }
        """
    )
    conf = brew_init_conf()
    table = machine.symbol("table")
    brew_setmem(conf, table, table + 32)
    result = brew_rewrite(machine, conf, "f", 0)
    assert result.ok, result.message
    assert machine.call(result.entry, 5).int_return == 55
    ops = rewritten_ops(machine, result)
    # both loads folded away: add imm only
    assert Op.ADD in ops
    loads = [
        i for i in iter_decode(machine.image.peek(result.entry, result.code_size), 0)
        if any(type(o).__name__ == "Mem" for o in i.operands)
    ]
    # the only memory traffic is the unknown-parameter spill slot
    assert all("rsp" in str(i) for i in loads), [str(i) for i in loads]


def test_rodata_folds_without_setmem(machine):
    machine.load("noinline double f(double x) { return x * 2.5; }")
    conf = brew_init_conf()
    result = brew_rewrite(machine, conf, "f", 0.0)
    assert result.ok, result.message
    assert machine.call(result.entry, 4.0).float_return == 10.0


def test_inlining_removes_call(machine):
    machine.load(
        """
        noinline long helper(long x) { return x * 3; }
        noinline long f(long a) { return helper(a) + 1; }
        """
    )
    conf = brew_init_conf()
    result = brew_rewrite(machine, conf, "f", 0)
    assert result.ok, result.message
    assert machine.call(result.entry, 5).int_return == 16
    ops = rewritten_ops(machine, result)
    assert Op.CALL not in ops and Op.CALLI not in ops
    assert result.stats.inlined_calls >= 1


def test_noinline_config_keeps_call(machine):
    machine.load(
        """
        noinline long helper(long x) { return x * 3; }
        noinline long f(long a) { return helper(a) + 1; }
        """
    )
    conf = brew_init_conf()
    brew_setfunc(conf, machine.symbol("helper"), inline=False)
    result = brew_rewrite(machine, conf, "f", 0)
    assert result.ok, result.message
    assert machine.call(result.entry, 5).int_return == 16
    ops = rewritten_ops(machine, result)
    assert Op.CALL in ops


def test_failure_is_graceful_not_fatal(machine):
    # jmpi through an unknown register target must fail the rewrite
    from repro.asm.assembler import assemble

    src = "jmpi rdi"
    code, _ = assemble(src, 0)
    addr = machine.image.add_function("weird", b"\x00" * len(code))
    code, _ = assemble(src, addr)
    machine.image.poke(addr, code)
    conf = brew_init_conf()
    result = brew_rewrite(machine, conf, "weird", 0)
    assert not result.ok
    assert result.reason == "indirect-jump"
    assert result.entry_or_original == addr


def test_function_pointer_drop_in_replacement(machine):
    machine.load(
        """
        noinline long f(long a, long b) { return a * b; }
        noinline long use(long (*fp)(long, long), long x) { return fp(x, 7) + 1; }
        """
    )
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    result = brew_rewrite(machine, conf, "f", 0, 7)
    assert result.ok, result.message
    # original call path and rewritten call path agree
    use_conf = brew_init_conf()
    brew_setfunc(use_conf, None, force_unknown_results=True)
    assert (
        machine.call("use", result.entry, 6).int_return
        == machine.call("use", machine.symbol("f"), 6).int_return
        == 43
    )


def test_ptr_to_known_folds_struct_reads(machine):
    machine.load(
        """
        struct Cfg { long scale; long offset; };
        struct Cfg gcfg = { 5, 100 };
        noinline long f(long x, struct Cfg *c) { return x * c->scale + c->offset; }
        """
    )
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_PTR_TO_KNOWN)
    cfg_addr = machine.symbol("gcfg")
    result = brew_rewrite(machine, conf, "f", 0, cfg_addr)
    assert result.ok, result.message
    for x in (0, 1, 9):
        assert machine.call(result.entry, x, cfg_addr).int_return == x * 5 + 100


def test_if_with_known_condition_folds_branch(machine):
    machine.load(
        """
        noinline long f(long mode, long x) {
            if (mode == 1) return x + 1000;
            return x - 1000;
        }
        """
    )
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    result = brew_rewrite(machine, conf, "f", 1, 0)
    assert result.ok, result.message
    assert machine.call(result.entry, 1, 5).int_return == 1005
    ops = rewritten_ops(machine, result)
    assert not any(op_info(op).opclass is OpClass.JCC for op in ops)


def test_if_with_unknown_condition_keeps_both_paths(machine):
    machine.load(
        """
        noinline long f(long mode, long x) {
            if (mode == 1) return x + 1000;
            return x - 1000;
        }
        """
    )
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    result = brew_rewrite(machine, conf, "f", 0, 5)
    assert result.ok, result.message
    assert machine.call(result.entry, 1, 5).int_return == 1005
    assert machine.call(result.entry, 0, 5).int_return == -995
    ops = rewritten_ops(machine, result)
    assert any(op_info(op).opclass is OpClass.JCC for op in ops)


def test_rewrite_result_of_rewrite_is_composable(machine):
    # "the result of a rewriting step itself can be used as input for
    # further rewriting" (Sec. III.A)
    machine.load("noinline long f(long a, long b) { return a * b + a; }")
    conf1 = brew_init_conf()
    brew_setpar(conf1, 1, BREW_KNOWN)
    r1 = brew_rewrite(machine, conf1, "f", 3, 0)
    assert r1.ok, r1.message
    conf2 = brew_init_conf()
    brew_setpar(conf2, 2, BREW_KNOWN)
    r2 = brew_rewrite(machine, conf2, r1.entry, 0, 10)
    assert r2.ok, r2.message
    assert machine.call(r2.entry).int_return == 3 * 10 + 3
    assert rewritten_ops(machine, r2) == [Op.MOV, Op.RET]


def test_recursion_without_unroll_control_fails_gracefully(machine):
    machine.load(
        """
        noinline long fact(long n) {
            if (n < 2) return 1;
            return n * fact(n - 1);
        }
        """
    )
    conf = brew_init_conf()
    conf.max_output_instructions = 2000
    result = brew_rewrite(machine, conf, "fact", 0)
    # unknown n: the recursive call inlines forever until a budget stops it
    # OR the variant machinery converges; either outcome is acceptable,
    # but a crash is not.
    if result.ok:
        assert machine.call(result.entry, 5).int_return == 120
    else:
        assert result.reason in ("buffer-full", "trace-limit", "variant-limit")


def test_stats_are_populated(machine):
    machine.load("noinline long f(long a) { return a + 1; }")
    result = brew_rewrite(machine, brew_init_conf(), "f", 0)
    assert result.ok
    assert result.stats.traced_instructions > 0
    assert result.stats.emitted_instructions > 0
    assert result.rewrite_seconds >= 0.0


def decoded_addresses(m: Machine) -> set:
    """Interpreter icache entries and compiled blocks, by address and
    tier (the JIT tiers decode through their own block cache)."""
    blocks = m.jit.cache if m.jit is not None else {}
    return {("icache", a) for a in m.cpu._icache} | {("block", a) for a in blocks}


def test_rewrite_keeps_decoded_code_of_unrelated_functions():
    """Emitting a variant drops only the decoded bytes it overlaps (the
    image's code-write listeners), so the interpreter icache and the
    compiled blocks of code that was already running survive, and every
    tier still agrees on the results."""
    source = """
    noinline long other(long n) { long t = 0; for (long i = 0; i < n; i++) t += i * 3; return t; }
    noinline long f(long a, long b) { return a * b + 7; }
    """
    results = []
    for tier in ({}, {"jit": True}, {"jit": True, "trace": True}):
        m = Machine()
        if tier:
            m.enable_jit(trace=tier.get("trace", False))
        m.load(source)
        m.call("other", 40)
        decoded = decoded_addresses(m)
        conf = brew_init_conf()
        brew_setpar(conf, 1, BREW_KNOWN)
        result = brew_rewrite(m, conf, "f", 6, 7)
        assert result.ok, result.message
        assert decoded and decoded <= decoded_addresses(m)
        results.append([
            (m.call(result.entry, 6, b).int_return, m.call("f", 6, b).int_return,
             m.call("other", 40).int_return)
            for b in (0, 5, -3)
        ])
    assert results[0] == results[1] == results[2]
    assert all(got == want for got, want, _ in results[0])
