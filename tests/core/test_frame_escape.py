"""Frame-escape analysis tests (World.escaped): the soundness boundary
between "unknown stores cannot touch my frame" and "all bets are off".
"""

from __future__ import annotations

import pytest

from repro.core import (
    BREW_KNOWN, brew_init_conf, brew_rewrite, brew_setfunc, brew_setpar,
)
from repro.core.known import StackRel, World, generalize, migration_compatible
from repro.isa.registers import GPR
from repro.machine.vm import Machine


# ------------------------------------------------------------- lattice laws
def test_generalize_ors_escape_flags():
    a, b = World.entry_world(), World.entry_world()
    assert not generalize(a, b).escaped
    a.escaped = True
    assert generalize(a, b).escaped
    assert generalize(b, a).escaped


def test_demoting_stackrel_escapes():
    a, b = World.entry_world(), World.entry_world()
    a.regs[GPR.RBX] = StackRel(-16)   # frame address known on one path only
    g = generalize(a, b)
    assert g.regs[GPR.RBX] is None
    assert g.escaped


def test_escaped_source_cannot_migrate_into_clean_target():
    src, dst = World.entry_world(), World.entry_world()
    src.escaped = True
    assert not migration_compatible(src, dst)
    # the other direction is fine (dst is merely conservative)
    assert migration_compatible(dst, src)


def test_digest_distinguishes_escape():
    a, b = World.entry_world(), World.entry_world()
    a.escaped = True
    assert a.digest() != b.digest()


# -------------------------------------------------------- end-to-end effects
def test_unknown_store_does_not_destroy_frame_knowledge():
    """A store through an unknown pointer inside a loop must not force the
    frame spills live (the regression that motivated the analysis: the
    pre-escape behaviour re-loaded rbp from a dirty cell and lost the
    symbolic stack)."""
    m = Machine()
    m.load("""
    noinline void fill(double *out, long n, double v) {
        for (long i = 0; i < n; i++)
            out[i] = v + (double)i;
    }
    """)
    result = brew_rewrite(m, brew_init_conf(), "fill", 0, 0, 0.0)
    assert result.ok, result.message
    buf = m.image.malloc(8 * 8)
    m.call(result.entry, buf, 8, 1.5)
    assert [m.memory.read_f64(buf + 8 * i) for i in range(8)] == [1.5 + i for i in range(8)]


def test_address_of_local_passed_to_kept_call_is_sound():
    """&local handed to a non-inlined callee: the frame escapes, the
    callee's write through the pointer must be visible afterwards."""
    m = Machine()
    m.load("""
    noinline void bump(long *p) { *p = *p + 5; }
    noinline long f(long a) {
        long v = a;
        bump(&v);
        return v;
    }
    """)
    conf = brew_init_conf()
    brew_setfunc(conf, m.symbol("bump"), inline=False)
    result = brew_rewrite(m, conf, "f", 0)
    assert result.ok, result.message
    for a in (0, 7, -3):
        assert m.call(result.entry, a).int_return == a + 5


def test_address_of_local_with_known_value_and_kept_call():
    """Known local whose address escapes: the value must be materialized
    before the call so the callee reads the real thing."""
    m = Machine()
    m.load("""
    noinline long read_it(long *p) { return *p; }
    noinline long f(long unused) {
        long v = 1234;
        return read_it(&v);
    }
    """)
    conf = brew_init_conf()
    brew_setfunc(conf, m.symbol("read_it"), inline=False)
    result = brew_rewrite(m, conf, "f", 0)
    assert result.ok, result.message
    assert m.call(result.entry, 0).int_return == 1234


def test_escaped_pointer_aliasing_after_store():
    """The conservative side: once &local is stored into the heap, an
    unknown-pointer store may alias the frame — the rewritten code must
    still compute correctly when it actually does."""
    m = Machine()
    m.load("""
    long slot = 0;
    noinline void poke(long *p, long v) { *p = v; }
    noinline long f(long a) {
        long v = 10;
        slot = (long)&v;          // the frame address escapes
        poke((long*)slot, a);     // aliases v through the escaped pointer
        return v;
    }
    """)
    conf = brew_init_conf()
    brew_setfunc(conf, m.symbol("poke"), inline=False)
    result = brew_rewrite(m, conf, "f", 0)
    assert result.ok, result.message
    for a in (1, 42, -9):
        assert m.call(result.entry, a).int_return == a


def test_escaped_alias_with_inlined_writer():
    """Same aliasing story with the writer inlined: the unknown-address
    store inside the trace must invalidate the (escaped) frame cell."""
    m = Machine()
    m.load("""
    long slot = 0;
    noinline long f(long a) {
        long v = 10;
        slot = (long)&v;
        long *p = (long*)slot;
        *p = a;
        return v;
    }
    """)
    result = brew_rewrite(m, brew_init_conf(), "f", 0)
    assert result.ok, result.message
    for a in (1, 42, -9):
        assert m.call(result.entry, a).int_return == a
