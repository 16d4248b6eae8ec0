"""Known-world state unit + property tests (lattice laws the tracer's
correctness rests on)."""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.core.known import (
    KnownFloat, KnownInt, RegSnapshot, StackRel, World,
    abs_key, generalize, materialization_needs, migration_compatible, stack_key,
)
from repro.isa.flags import Flag
from repro.isa.registers import GPR, XMM


def make_world(**regs) -> World:
    w = World.entry_world()
    for name, value in regs.items():
        w.regs[GPR[name.upper()]] = value
    return w


def test_entry_world_only_rsp_known():
    w = World.entry_world()
    assert w.regs[GPR.RSP] == StackRel(0)
    assert all(w.regs[r] is None for r in GPR if r is not GPR.RSP)
    assert all(v is None for v in w.xmm.values())


def test_digest_equality_and_hash():
    a = make_world(rax=KnownInt(5))
    b = make_world(rax=KnownInt(5))
    assert a == b and hash(a) == hash(b)
    b.regs[GPR.RAX] = KnownInt(6)
    assert a != b


def test_digest_ignores_flags():
    a = make_world()
    b = make_world()
    a.flags[Flag.ZF] = True
    assert a == b


def test_copy_is_deep_enough():
    a = make_world(rax=KnownInt(1))
    a.mem[stack_key(-8)] = KnownInt(2)
    b = a.copy()
    b.regs[GPR.RAX] = None
    b.mem[stack_key(-8)] = None
    assert a.regs[GPR.RAX] == KnownInt(1)
    assert a.mem[stack_key(-8)] == KnownInt(2)


def test_migration_subset_rule():
    rich = make_world(rax=KnownInt(1), rcx=KnownInt(2))
    poor = make_world(rax=KnownInt(1))
    assert migration_compatible(rich, poor)        # rich -> poor ok
    assert not migration_compatible(poor, rich)    # poor lacks rcx


def test_migration_value_conflict():
    a = make_world(rax=KnownInt(1))
    b = make_world(rax=KnownInt(2))
    assert not migration_compatible(a, b)


def test_migration_memory_rules():
    src = make_world()
    dst = make_world()
    src.mem[abs_key(0x1000)] = KnownInt(5)
    dst.mem[abs_key(0x1000)] = None  # dirty: runtime-live expected
    assert migration_compatible(src, dst)
    _, _, mem_keys = materialization_needs(src, dst)
    assert abs_key(0x1000) in mem_keys


def test_snapshot_alias_blocks_materializing_migration():
    # dst folds a cell to rsi; src would materialize rsi on the edge,
    # which clobbers the aliased content -> must be incompatible
    src = make_world(rsi=KnownInt(7))
    dst = make_world()
    snap = RegSnapshot(GPR.RSI, 0)
    src.mem[stack_key(-16)] = snap
    dst.mem[stack_key(-16)] = snap
    assert not migration_compatible(src, dst)


def test_generalize_keeps_agreement_drops_conflict():
    a = make_world(rax=KnownInt(1), rcx=KnownInt(2))
    b = make_world(rax=KnownInt(1), rcx=KnownInt(3))
    g = generalize(a, b)
    assert g.regs[GPR.RAX] == KnownInt(1)
    assert g.regs[GPR.RCX] is None


def test_generalize_memory_disagreement_goes_dirty():
    a = make_world()
    b = make_world()
    a.mem[stack_key(-8)] = KnownInt(1)
    b.mem[stack_key(-8)] = KnownInt(2)
    g = generalize(a, b)
    assert g.mem[stack_key(-8)] is None


def test_generalize_demotes_snapshot_when_register_diverges():
    snap = RegSnapshot(GPR.RSI, 0)
    a = make_world(rsi=KnownInt(7))
    b = make_world()
    a.mem[stack_key(-16)] = snap
    b.mem[stack_key(-16)] = snap
    g = generalize(a, b)
    assert g.mem[stack_key(-16)] is None


def test_known_float_bit_pattern_identity():
    assert KnownFloat(0.0) != KnownFloat(-0.0)
    assert KnownFloat(1.5) == KnownFloat(1.5)


# ------------------------------------------------------------- properties
values = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=2**64 - 1).map(KnownInt),
    st.integers(min_value=-512, max_value=512).map(StackRel),
)


@st.composite
def worlds(draw):
    w = World.entry_world()
    for reg in (GPR.RAX, GPR.RCX, GPR.RDX):
        w.regs[reg] = draw(values)
    for offset in (-8, -16):
        v = draw(values)
        if v is not None or draw(st.booleans()):
            w.mem[stack_key(offset)] = v
    return w


@given(a=worlds(), b=worlds())
def test_generalize_is_commutative_on_digests(a, b):
    assert generalize(a, b) == generalize(b, a)


@given(a=worlds())
def test_generalize_idempotent(a):
    g = generalize(a, a)
    # self-join keeps all knowledge except snapshot corner cases (none here)
    assert g == a or g.known_count <= a.known_count


@given(a=worlds(), b=worlds())
def test_everything_migrates_into_the_generalization(a, b):
    g = generalize(a, b)
    assert migration_compatible(a, g)
    assert migration_compatible(b, g)


@given(a=worlds(), b=worlds())
def test_generalize_never_gains_knowledge(a, b):
    g = generalize(a, b)
    assert g.known_count <= min(a.known_count, b.known_count) + len(g.mem)
    # regs specifically never gain
    for reg in GPR:
        if g.regs[reg] is not None:
            assert g.regs[reg] == a.regs[reg] == b.regs[reg]


# ----------------------------------------------------------------- CowMem
from repro.core.known import CowMem  # noqa: E402


def test_cowmem_fork_shares_base_o_delta():
    """Forking must share the base dict (O(delta), the whole point)."""
    w = World.entry_world()
    for i in range(10):
        w.mem[stack_key(-8 * i)] = KnownInt(i)
    child = w.copy()
    assert child.mem._base is w.mem._base
    # mutating the child never leaks into the parent, and vice versa
    child.mem[stack_key(-80)] = KnownInt(99)
    w.mem[stack_key(-88)] = KnownInt(77)
    assert stack_key(-80) not in w.mem
    assert stack_key(-88) not in child.mem


def test_cowmem_digest_cached_across_unmutated_forks():
    w = World.entry_world()
    w.mem[abs_key(0x1000)] = KnownInt(1)
    first = w.digest()
    child = w.copy()
    assert child.mem.snapshot_items() is w.mem.snapshot_items()
    assert child.digest() == first
    child.mem[abs_key(0x1008)] = KnownInt(2)
    assert child.digest() != first
    assert w.digest() == first


def test_cowmem_delete_and_readd_matches_dict_order():
    plain: dict = {}
    cow = CowMem()
    for target in (plain, cow):
        target[("a", 1)] = "one"
        target[("a", 2)] = "two"
        target[("a", 3)] = "three"
        del target[("a", 2)]
        target[("a", 2)] = "again"      # re-added: moves to the end
        target[("a", 1)] = "overwrite"  # overwrite: keeps its position
    assert list(plain.items()) == list(cow.items())
    assert len(cow) == len(plain)


def test_cowmem_layered_lookup_and_pop():
    base = CowMem({("a", 1): KnownInt(1), ("a", 2): KnownInt(2)})
    fork = base.fork()
    del fork[("a", 1)]
    assert ("a", 1) not in fork and ("a", 1) in base
    assert fork.get(("a", 1), "absent") == "absent"
    assert fork.pop(("a", 1), None) is None
    assert fork.pop(("a", 2)) == KnownInt(2)
    assert len(fork) == 0 and len(base) == 2
    try:
        fork.pop(("a", 9))
        raise AssertionError("expected KeyError")
    except KeyError:
        pass


def test_cowmem_flatten_threshold_preserves_content_and_sharers():
    parent = CowMem({("a", i): i for i in range(4)})
    fork = parent.fork()
    for i in range(CowMem.FLATTEN_THRESHOLD + 4):
        fork[("a", 100 + i)] = i
    before = dict(fork.items())
    sibling = fork.fork()  # crosses the flatten threshold
    assert dict(sibling.items()) == before == dict(fork.items())
    # the flatten rebuilt fork's base without touching the parent's view
    assert dict(parent.items()) == {("a", i): i for i in range(4)}


@given(st.lists(st.tuples(st.sampled_from(["set", "del", "fork"]),
                          st.integers(0, 7), st.integers(0, 99)),
                max_size=60))
def test_cowmem_random_ops_match_plain_dict(ops):
    """Property: a CowMem fork chain behaves exactly like dict copies."""
    cow, plain = CowMem(), {}
    for action, key, value in ops:
        k = ("a", key)
        if action == "set":
            cow[k] = value
            plain[k] = value
        elif action == "del":
            if k in plain:
                del cow[k]
                del plain[k]
            else:
                assert k not in cow
        else:
            cow = cow.fork()
            plain = dict(plain)
        assert len(cow) == len(plain)
        assert dict(cow.items()) == plain
        assert sorted(cow) == sorted(plain)
    assert tuple(sorted(plain.items())) == cow.snapshot_items()
