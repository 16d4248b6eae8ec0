"""The tracer's per-step bookkeeping: the running output budget, the
per-trace decode memo and the indexed migration candidates.

Each is a cheaper way to compute what the tracer computed before, so
each is checked against that older computation kept here as an oracle:
re-summing every captured block before each step, decoding every traced
instruction afresh, and pinned bytes of a migrating rewrite.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import contextmanager
from dataclasses import asdict

import pytest

import repro.core.tracer as tracer_mod
from repro.core import BREW_KNOWN, brew_init_conf, brew_rewrite, brew_setpar
from repro.core.tracer import Tracer
from repro.machine.vm import Machine
from repro.testing.torture import _make_conf, build_image, generate_images
from tests.core.test_fuzz_differential import ARG_SWEEP, ProgramGen

#: A loop whose branch on an unknown parameter keeps forking worlds, so
#: at ``variant_threshold`` 3 the trace migrates (both into existing
#: variants and into generalized ones) and emits compensation blocks.
MIGRATING = """
noinline long mix2(long n, long x) {
    long acc = 1;
    long k = 7;
    for (long i = 0; i < n; i++) {
        if (x > i) { acc = acc * 3 + k; k = k + 1; }
        else acc = acc - x;
    }
    return acc + k;
}
"""

#: A loop that unrolls completely under a known trip count: every
#: address of the body is traced once per trip.
UNROLLED = """
noinline long work(long n) {
    long total = 0;
    for (long i = 0; i < n; i++) total += i;
    return total;
}
"""
UNROLLED_STORE = """
noinline void fill(long *out, long n) {
    for (long i = 0; i < n; i++) out[i] = i * i;
}
"""


def migrating_rewrite():
    m = Machine()
    m.load(MIGRATING)
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    conf.variant_threshold = 3
    return m, conf, "mix2", (12, 5)


def unrolled_rewrite():
    m = Machine()
    m.load(UNROLLED)
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    conf.variant_threshold = 1 << 16
    return m, conf, "work", (40,)


def unrolled_store_rewrite():
    """The unrolled loop, emitting one store per trip."""
    m = Machine()
    m.load(UNROLLED_STORE)
    conf = brew_init_conf()
    brew_setpar(conf, 2, BREW_KNOWN)
    conf.variant_threshold = 1 << 16
    return m, conf, "fill", (m.image.malloc(8 * 40), 40)


def fuzz_rewrite(seed: int, known: list[int], threshold: int):
    m = Machine()
    m.load(ProgramGen(seed).function())
    conf = brew_init_conf()
    for index in known:
        brew_setpar(conf, index, BREW_KNOWN)
    conf.variant_threshold = threshold
    return m, conf, "fuzzed", ARG_SWEEP[seed % len(ARG_SWEEP)]


def outcome(machine, result) -> tuple:
    """Everything a rewrite decides: verdict, emitted bytes, stats."""
    code = machine.image.peek(result.entry, result.code_size) if result.ok else b""
    return result.ok, result.reason, code, asdict(result.stats)


# ==================================================== running output budget
@contextmanager
def resummed_output():
    """Record, before every traced step, the output size found by
    re-summing every captured block (the pre-running-count check)."""
    sizes: list[int] = []
    real = Tracer._step

    def step(tracer):
        sizes.append(sum(len(b.insns) for b in tracer.registry.blocks.values()))
        real(tracer)

    Tracer._step = step
    try:
        yield sizes
    finally:
        Tracer._step = real


def output_size(build) -> int:
    """Instructions in every captured block once the trace is done."""
    seen = []
    real = Tracer.run

    def run(tracer, world):
        out = real(tracer, world)
        seen.append(sum(len(b.insns) for b in tracer.registry.blocks.values()))
        return out

    Tracer.run = run
    try:
        m, conf, fn, args = build()
        assert brew_rewrite(m, conf, fn, *args).ok
    finally:
        Tracer.run = real
    return seen[0]


BUDGET_CASES = {
    "migrating": migrating_rewrite,
    "unrolled": unrolled_store_rewrite,
    "fuzz4": lambda: fuzz_rewrite(4, [1], 4),
    "fuzz29": lambda: fuzz_rewrite(29, [1], 2),
}


@pytest.mark.parametrize("case", sorted(BUDGET_CASES))
def test_buffer_full_fails_at_the_step_resumming_finds(case):
    build = BUDGET_CASES[case]
    size = output_size(build)
    limits = sorted({1, size // 3, size // 2, size - 2, size - 1, size, size + 1} - {0})
    fired = 0
    for limit in limits:
        m, conf, fn, args = build()
        conf.max_output_instructions = limit
        with resummed_output() as sizes:
            result = brew_rewrite(m, conf, fn, *args)
        expected = next((i for i, s in enumerate(sizes) if s >= limit), None)
        if expected is None:
            assert result.ok, (limit, result.reason)
        else:
            assert result.reason == "buffer-full", (limit, result.reason)
            assert len(sizes) - 1 == expected, limit
            fired += 1
    assert fired >= 3


def test_budget_counts_compensation_blocks():
    """Compensation blocks are part of the output: a limit that only
    the emitted instructions plus the compensation code reach must fail
    at the step where their sum first reaches it."""
    m, conf, fn, args = migrating_rewrite()
    result = brew_rewrite(m, conf, fn, *args)
    assert result.stats.compensation_blocks > 0
    size = output_size(migrating_rewrite)
    assert size > result.stats.emitted_instructions
    m, conf, fn, args = migrating_rewrite()
    conf.max_output_instructions = result.stats.emitted_instructions
    with resummed_output() as sizes:
        failed = brew_rewrite(m, conf, fn, *args)
    assert failed.reason == "buffer-full"
    assert len(sizes) - 1 == next(
        i for i, s in enumerate(sizes) if s >= conf.max_output_instructions
    )
    assert len(sizes) < result.stats.traced_instructions


# ============================================================ decode memo
@contextmanager
def decode_calls():
    """Count decoder calls and the distinct addresses the trace fetches."""
    seen = {"decodes": 0, "addrs": set()}
    real_decode, real_fetch = tracer_mod.decode, Tracer._decode

    def decode(buf, addr=0, offset=0):
        seen["decodes"] += 1
        return real_decode(buf, addr, offset)

    def fetch(tracer, addr):
        seen["addrs"].add(addr)
        return real_fetch(tracer, addr)

    tracer_mod.decode, Tracer._decode = decode, fetch
    try:
        yield seen
    finally:
        tracer_mod.decode, Tracer._decode = real_decode, real_fetch


@contextmanager
def no_decode_memo():
    """The tracer as it was: every fetch decodes afresh."""
    real = Tracer._decode

    def fetch(tracer, addr):
        tracer._decoded.clear()
        return real(tracer, addr)

    Tracer._decode = fetch
    try:
        yield
    finally:
        Tracer._decode = real


@pytest.mark.parametrize("build", [unrolled_rewrite, migrating_rewrite],
                         ids=["unrolled", "migrating"])
def test_one_decode_per_distinct_address(build):
    m, conf, fn, args = build()
    with decode_calls() as seen:
        result = brew_rewrite(m, conf, fn, *args)
    assert result.ok, result.message
    assert seen["decodes"] == len(seen["addrs"])
    assert result.stats.traced_instructions > seen["decodes"]


def test_decode_memo_is_per_trace():
    """A second rewrite of the same function decodes again: the memo
    lives and dies with one trace, so a code write between two rewrites
    can never be served stale."""
    m, conf, fn, args = unrolled_rewrite()
    counts = []
    for _ in range(2):
        with decode_calls() as seen:
            assert brew_rewrite(m, conf, fn, *args).ok
        counts.append(seen["decodes"])
    assert counts[0] == counts[1] > 0


def _fuzz_corpus():
    rng = random.Random(20261018)
    for seed in range(0, 40, 3):
        known = rng.choice([[], [1], [2], [1, 2]])
        threshold = rng.choice([1, 2, 4, 24])
        yield f"fuzz{seed}", (
            lambda s=seed, k=known, t=threshold: fuzz_rewrite(s, k, t)
        )


def _torture_corpus():
    for spec in generate_images(20261017, 26):
        def build(spec=spec):
            m, entry, args = build_image(spec)
            return m, _make_conf(spec), entry, args
        yield f"torture{spec.index}", build


@pytest.mark.parametrize("corpus, min_reasons", [(_fuzz_corpus, 1), (_torture_corpus, 5)],
                         ids=["fuzz", "torture"])
def test_decode_memo_changes_no_outcome(corpus, min_reasons):
    """Bytes, stats and failure reasons with the memo equal those of a
    tracer that decodes every traced instruction afresh; the torture
    images fail in several ways (decode errors, unmapped and
    non-executable fetches, ...), so error paths are compared too."""
    reasons = set()
    for name, build in corpus():
        m, conf, fn, args = build()
        got = outcome(m, brew_rewrite(m, conf, fn, *args))
        m, conf, fn, args = build()
        with no_decode_memo():
            want = outcome(m, brew_rewrite(m, conf, fn, *args))
        assert got == want, name
        reasons.add(got[1])
    assert len(reasons) >= min_reasons, reasons


# ================================================================ migration
def test_migrating_rewrite_is_pinned():
    """Emitted bytes and stats of a rewrite that migrates both into
    existing variants and into generalized worlds, as recorded before
    migration candidates were indexed by ``(addr, shadow digest)``."""
    m, conf, fn, args = migrating_rewrite()
    result = brew_rewrite(m, conf, fn, *args)
    assert result.ok, result.message
    assert asdict(result.stats) == {
        "traced_instructions": 132, "emitted_instructions": 62,
        "folded_instructions": 75, "inlined_calls": 0, "blocks": 27,
        "compensation_blocks": 13, "migrations": 13, "flushes": 0,
    }
    code = m.image.peek(result.entry, result.code_size)
    assert hashlib.sha256(code).hexdigest() == (
        "7b66156dd83e87ff9554cf086d9c013c10958fb813ba421419a8eb49f43f6594"
    )
    for x in (-3, 0, 5, 11, 40):
        assert m.call(result.entry, 12, x).int_return == m.call("mix2", 12, x).int_return


def test_migration_candidates_keep_enqueue_order():
    """Candidates are the same-address, same-inline-context variants in
    the order they were enqueued — the order ``min`` breaks ties in."""
    m, conf, fn, args = migrating_rewrite()
    seen = []
    real = Tracer._migrate_to

    def migrate(tracer, addr):
        labels = [label for label, _ in tracer.registry.candidates(addr, tracer.shadow)]
        want = [
            label for (baddr, _, sdig), label in tracer.registry.by_key.items()
            if baddr == addr and sdig == tracer.registry.shadow_digest(tracer.shadow)
        ]
        seen.append(labels == want and len(labels) > 0)
        return real(tracer, addr)

    Tracer._migrate_to = migrate
    try:
        assert brew_rewrite(m, conf, fn, *args).ok
    finally:
        Tracer._migrate_to = real
    assert seen and all(seen)
