"""Memory transactions against a full-copy oracle.

The validation gate and the shadow sampler judge a variant by running
it and the original from the same memory state.  They journal the pages
each run stores into (:meth:`Memory.begin`/``dirty_pages``/``rollback``)
instead of copying every writable segment.  This file keeps the old
full-copy protocol as the oracle: copy every writable segment before,
copy them all again after each run, compare all non-stack bytes, copy
them back.  On the torture and fuzz corpora and on hand-written edge
cases, on all three execution tiers, the transaction protocol must give
the same verdict string and leave memory and the load/store counters
exactly as the full copy found them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import pytest

from repro.asm.assembler import assemble
from repro.core import BREW_KNOWN, brew_init_conf, brew_rewrite, brew_setpar
from repro.core.resilience import _divergence, _observe, validate_variant
from repro.errors import MemoryError_, ReproError
from repro.machine.image import LAYOUT
from repro.machine.memory import PAGE_SIZE, Memory, Perm, Segment
from repro.machine.vm import Machine
from repro.testing.torture import build_image, generate_images
from tests.core.test_fuzz_differential import ARG_SWEEP, ProgramGen

MAX_STEPS = 200_000
TIERS = ("interp", "jit", "trace")


def attach_tier(m: Machine, tier: str) -> Machine:
    if tier == "jit":
        m.enable_jit()
    elif tier == "trace":
        m.enable_jit(trace=True, hot_threshold=4, min_edge=1)
    return m


def make_machine(tier: str) -> Machine:
    return attach_tier(Machine(), tier)


def load_asm(machine: Machine, name: str, src: str) -> int:
    probe, _ = assemble(src, 0, extra_labels=dict(machine.image.symbols))
    addr = machine.image.add_function(name, b"\x00" * len(probe))
    code, _ = assemble(src, addr, extra_labels=dict(machine.image.symbols))
    machine.image.poke(addr, code)
    return addr


# ================================================================ the oracle
@dataclass
class FullCopy:
    """Every writable segment's bytes plus the access counters."""

    segments: list[tuple[str, bytes]]
    loads: dict[str, int]
    stores: dict[str, int]

    @classmethod
    def take(cls, memory: Memory) -> "FullCopy":
        return cls(
            [(s.name, bytes(s.data)) for s in memory.segments if Perm.W in s.perms],
            dict(memory.loads),
            dict(memory.stores),
        )

    def restore(self, memory: Memory) -> None:
        by_name = {s.name: s for s in memory.segments}
        for name, data in self.segments:
            by_name[name].data[:] = data
        memory.loads.clear()
        memory.loads.update(self.loads)
        memory.stores.clear()
        memory.stores.update(self.stores)

    def visible(self) -> list[tuple[str, bytes]]:
        return [(n, d) for n, d in self.segments if n != "stack"]


def _run(machine, entry, args):
    try:
        return machine.cpu.run(entry, *args, max_steps=MAX_STEPS), None
    except ReproError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def copy_verdict(machine, first, second):
    """The full-copy protocol: judge run ``second`` against ``first``."""
    memory = machine.image.memory
    before = FullCopy.take(memory)
    want, error = _run(machine, *first)
    want_memory = FullCopy.take(memory).visible()
    before.restore(memory)
    if error is not None:
        return "unjudged"
    args = second[1]
    got, error = _run(machine, *second)
    got_memory = FullCopy.take(memory).visible()
    before.restore(memory)
    if error is not None:
        return f"variant faulted on {args!r}: {error}"
    if got.uint_return != want.uint_return:
        return (f"int return diverged on {args!r}: "
                f"0x{got.uint_return:x} != 0x{want.uint_return:x}")
    if got.float_return != want.float_return and not (
        got.float_return != got.float_return
        and want.float_return != want.float_return
    ):
        return (f"float return diverged on {args!r}: "
                f"{got.float_return!r} != {want.float_return!r}")
    if got_memory != want_memory:
        names = [n for (n, a), (_, b) in zip(got_memory, want_memory) if a != b]
        return f"memory writes diverged on {args!r} in {names}"
    return None


def txn_verdict(machine, first, second):
    """The transaction protocol the gate and the shadow sampler use."""
    memory = machine.image.memory
    memory.begin()
    try:
        want = _observe(machine, first[0], first[1], MAX_STEPS)
    finally:
        memory.rollback()
    if want.error is not None:
        return "unjudged"
    entry, args = second
    memory.begin()
    try:
        run = machine.cpu.run(entry, *args, max_steps=MAX_STEPS)
        return _divergence(memory, want, run, args)
    except ReproError as exc:
        return f"variant faulted on {args!r}: {type(exc).__name__}: {exc}"
    finally:
        memory.rollback()


def assert_protocols_agree(machine, first, second):
    """Both protocols give one verdict, and each leaves memory and the
    counters byte-identical to the state before it.  Returns the
    verdict."""
    memory = machine.image.memory
    before = FullCopy.take(memory)
    want = copy_verdict(machine, first, second)
    assert FullCopy.take(memory) == before
    got = txn_verdict(machine, first, second)
    assert FullCopy.take(memory) == before
    assert memory.journal is None
    assert got == want, (first, second)
    return got


# ================================================================= corpora
FUZZ_WRAPPER = """
noinline long fuzz_store(long *buf, long p0, long p1) {
    long v = fuzzed(p0, p1);
    buf[v & 1023] = v;
    buf[(v >> 4) & 1023] = p0;
    return v;
}
"""


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("seed", range(6))
def test_fuzz_corpus_agrees_with_full_copy(tier, seed):
    """Random functions whose result picks the heap and remote cells they
    write: different arguments touch different pages, so pages dirtied by
    one run only are routine here."""
    m = make_machine(tier)
    m.load(ProgramGen(seed).function() + FUZZ_WRAPPER)
    remote = m.image.map_remote_node(1, 4 * PAGE_SIZE, extra_cost=50)
    # a buffer that starts mid-page, in the heap or a remote node
    heap_buf = m.image.malloc(3 * PAGE_SIZE) + PAGE_SIZE - 12
    bufs = (heap_buf, remote.base + PAGE_SIZE // 2 - 4)
    fn = m.symbol("fuzz_store")
    rng = random.Random(seed)
    verdicts = set()
    for _ in range(6):
        buf = rng.choice(bufs)
        a, b = rng.choice(ARG_SWEEP), rng.choice(ARG_SWEEP)
        verdicts.add(assert_protocols_agree(m, (fn, (buf, *a)), (fn, (buf, *b))))
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    known = rng.choice(ARG_SWEEP)
    res = brew_rewrite(m, conf, fn, heap_buf, *known)
    assert res.ok, res.message
    for buf in bufs:
        for p1 in (0, 5, -9):
            args = (buf, known[0], p1)
            verdicts.add(assert_protocols_agree(m, (fn, args), (res.entry, args)))
    assert None in verdicts  # the variant agrees with its original


@pytest.mark.parametrize("tier", TIERS)
def test_torture_corpus_agrees_with_full_copy(tier):
    """Hostile images: faults, stack repointed into data, self-modifying
    code, wild reads.  Each is judged against itself, against other
    arguments and against its rewrite when one exists."""
    faults = 0
    for spec in generate_images(20261017, 26):
        m, entry, args = build_image(spec)
        attach_tier(m, tier)
        other = tuple(a + 8 for a in args)
        for second in ((entry, args), (entry, other)):
            verdict = assert_protocols_agree(m, (entry, args), second)
            faults += verdict is not None and "faulted" in verdict
        conf = brew_init_conf()
        for position in spec.known_params:
            brew_setpar(conf, position, BREW_KNOWN)
        res = brew_rewrite(m, conf, entry, *args)
        if res.ok:
            assert_protocols_agree(m, (entry, args), (res.entry, args))
    assert faults  # the corpus exercises rollback after a mid-run fault


# ============================================================== edge cases
HEAP_PAGE = LAYOUT.heap_base + 4 * PAGE_SIZE  # page-aligned, inside the heap


def edge_machine(tier: str, **functions: str) -> tuple[Machine, dict[str, int]]:
    m = make_machine(tier)
    m.image.map_remote_node(2, 2 * PAGE_SIZE, extra_cost=100)
    return m, {name: load_asm(m, name, src) for name, src in functions.items()}


@pytest.mark.parametrize("tier", TIERS)
def test_store_straddling_a_page_boundary(tier):
    m, fn = edge_machine(
        tier,
        low="mov rcx, 0x1122334455667788\nmov [rdi], rcx\nret",
        high="mov rcx, 0x7122334455667788\nmov [rdi], rcx\nret",
    )
    at = HEAP_PAGE + PAGE_SIZE - 4
    memory = m.image.memory
    memory.begin()
    m.cpu.run(fn["low"], at)
    assert set(memory.dirty_pages()) >= {HEAP_PAGE, HEAP_PAGE + PAGE_SIZE}
    memory.rollback()
    assert m.image.peek(at, 8) == bytes(8)
    # the runs differ only in the byte that lands on the second page
    verdict = assert_protocols_agree(m, (fn["low"], (at,)), (fn["high"], (at,)))
    assert verdict == f"memory writes diverged on {(at,)!r} in ['heap']"


@pytest.mark.parametrize("tier", TIERS)
def test_byte_identical_writeback_is_not_a_divergence(tier):
    m, fn = edge_machine(
        tier,
        nothing="mov rax, 7\nret",
        writeback="mov rax, [rdi]\nmov [rdi], rax\nmov rax, 7\nret",
    )
    m.image.poke(HEAP_PAGE + 64, (0xABCD).to_bytes(8, "little"))
    args = (HEAP_PAGE + 64,)
    assert assert_protocols_agree(m, (fn["nothing"], args), (fn["writeback"], args)) is None
    memory = m.image.memory
    memory.begin()
    m.cpu.run(fn["writeback"], *args)
    assert HEAP_PAGE in memory.dirty_pages()
    memory.rollback()


@pytest.mark.parametrize("tier", TIERS)
def test_page_touched_by_only_one_run(tier):
    m, fn = edge_machine(
        tier,
        one="mov rcx, 5\nmov [rdi], rcx\nret",
        two=f"mov rcx, 5\nmov [rdi], rcx\nmov [rdi + {PAGE_SIZE}], rcx\nret",
    )
    args = (HEAP_PAGE,)
    want = f"memory writes diverged on {args!r} in ['heap']"
    assert assert_protocols_agree(m, (fn["one"], args), (fn["two"], args)) == want
    assert assert_protocols_agree(m, (fn["two"], args), (fn["one"], args)) == want


@pytest.mark.parametrize("tier", TIERS)
def test_remote_segments_are_journaled_and_named(tier):
    remote = LAYOUT.remote_base + 2 * LAYOUT.remote_stride
    m, fn = edge_machine(
        tier,
        quiet="mov rax, 1\nret",
        loud=f"mov rcx, 9\nmov [rdi], rcx\nmov rsi, {remote + 40}\n"
             "mov [rsi], rcx\nmov rax, 1\nret",
    )
    args = (HEAP_PAGE,)
    verdict = assert_protocols_agree(m, (fn["quiet"], args), (fn["loud"], args))
    assert verdict == f"memory writes diverged on {args!r} in ['heap', 'remote2']"


@pytest.mark.parametrize("tier", TIERS)
def test_stack_only_writes_are_not_a_divergence(tier):
    m, fn = edge_machine(
        tier,
        a="mov rcx, 1\npush rcx\npush rcx\npop rax\npop rax\nret",
        b="mov rcx, 99\npush rcx\nmov [rsp - 64], rcx\npop rax\nmov rax, 1\nret",
    )
    assert assert_protocols_agree(m, (fn["a"], ()), (fn["b"], ())) is None


@pytest.mark.parametrize("tier", TIERS)
def test_rollback_after_a_mid_run_fault_restores_the_pre_image(tier):
    m, fn = edge_machine(
        tier,
        ok="mov rax, 1\nret",
        crash=f"mov rcx, 77\nmov [rdi], rcx\nmov [rdi + {PAGE_SIZE + 8}], rcx\n"
              "xor rsi, rsi\nmov rax, 1\nidiv rsi\nret",
    )
    args = (HEAP_PAGE + PAGE_SIZE - 8,)
    verdict = assert_protocols_agree(m, (fn["ok"], args), (fn["crash"], args))
    assert verdict.startswith(f"variant faulted on {args!r}: CpuError")


def test_trace_tier_store_sites_journal_inside_a_hot_loop():
    """A loop hot enough to run as a compiled trace, whose store site
    was filled before the transaction opened, still journals every page
    it writes."""
    m = make_machine("trace")
    fn = load_asm(m, "fill", "\n".join([
        "mov rcx, rsi",
        "loop:",
        "mov [rdi], rcx",
        "add rdi, 512",
        "sub rcx, 1",
        "cmp rcx, 0",
        "jne loop",
        "ret",
    ]))
    m.cpu.run(fn, HEAP_PAGE, 64)  # warm up: install the trace
    assert m.jit.stats()["trace_installs"] >= 1
    memory = m.image.memory
    before = FullCopy.take(memory)
    iterations = m.jit.stats()["trace_iterations"]
    memory.begin()
    m.cpu.run(fn, HEAP_PAGE + 8, 64)
    assert m.jit.stats()["trace_iterations"] > iterations
    pages = set(memory.dirty_pages())
    memory.rollback()
    assert pages >= {HEAP_PAGE + k * PAGE_SIZE for k in range(8)}
    assert FullCopy.take(memory) == before


def test_gate_agrees_with_full_copy_on_a_diverging_variant():
    """``validate_variant`` end to end: a variant that writes a different
    heap cell is rejected with the segment named, and memory is left as
    it was."""
    m = Machine()
    m.load("""
        noinline long put(long *p, long k, long v) { p[k] = v; return k + v; }
    """)
    buf = m.image.malloc(64)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    res = brew_rewrite(m, conf, "put", buf, 3, 10)
    assert res.ok
    before = FullCopy.take(m.image.memory)
    assert validate_variant(m, conf, res, (buf, 3, 10)) is None
    # sabotage: call a variant that stores one cell further on
    sabotaged = load_asm(m, "off_by_one",
                         "mov [rdi + 32], rdx\nmov rax, rsi\nadd rax, rdx\nret")
    mismatch = validate_variant(m, conf, replace(res, entry=sabotaged), (buf, 3, 10))
    assert mismatch == f"memory writes diverged on {(buf, 3, 10)!r} in ['heap']"
    assert FullCopy.take(m.image.memory) == before


# ============================================================ the API itself
def mem() -> Memory:
    m = Memory()
    m.map_segment(Segment("ram", 0x10000, 4 * PAGE_SIZE, Perm.RW))
    m.map_segment(Segment("rom", 0x40000, PAGE_SIZE, Perm.RX))
    return m


def test_dirty_pages_needs_an_open_transaction():
    with pytest.raises(MemoryError_):
        mem().dirty_pages()


def test_nested_transactions_commit_into_the_enclosing_one():
    m = mem()
    m.write_u64(0x10000, 1)
    m.begin()
    m.write_u64(0x10000, 2)
    m.begin()
    m.write_u64(0x10000 + PAGE_SIZE, 3)
    m.write_u64(0x10000, 4)
    m.commit()
    assert set(m.dirty_pages()) == {0x10000, 0x10000 + PAGE_SIZE}
    m.begin()
    m.write_u64(0x10000 + 2 * PAGE_SIZE, 5)
    m.rollback()
    assert m.read_u64(0x10000 + 2 * PAGE_SIZE, count=False) == 0
    assert m.read_u64(0x10000, count=False) == 4
    m.rollback()
    assert m.read_u64(0x10000, count=False) == 1
    assert m.read_u64(0x10000 + PAGE_SIZE, count=False) == 0
    assert m.journal is None


def test_rollback_restores_counters_and_skips_non_writable_segments():
    m = mem()
    m.write_u64(0x10000, 1)
    loads, stores = dict(m.loads), dict(m.stores)
    m.begin()
    m.write_u64(0x10008, 2)
    m.read_u64(0x10008)
    rom = m.segment_by_name("rom")
    m.journal_write(rom, 0, 8)
    assert list(m.dirty_pages()) == [0x10000]
    m.rollback()
    assert (m.loads, m.stores) == (loads, stores)
    assert m.read_u64(0x10008, count=False) == 0


def test_image_poke_journals_writable_pages():
    m = Machine()
    memory = m.image.memory
    memory.begin()
    m.image.poke(HEAP_PAGE + 100, b"\x01\x02")
    assert list(memory.dirty_pages()) == [HEAP_PAGE]
    memory.rollback()
    assert m.image.peek(HEAP_PAGE + 100, 2) == b"\x00\x00"
