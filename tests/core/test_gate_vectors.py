"""The validation gate runs each distinct argument vector once.

The gate used to run the original and the variant on every vector
``_perturbed_vectors`` drew, repeats included — with every parameter
KNOWN, that was the tracing args ``vectors + 1`` times.  The interpreter
is deterministic and every run starts from the same rolled-back memory,
so a repeat cannot change the verdict.  The old protocol is kept here as
the oracle: the vectors drawn without dropping repeats, each one run.
"""

from __future__ import annotations

import random

import pytest

from repro.asm.assembler import assemble
from repro.core import (
    BREW_KNOWN, brew_init_conf, brew_rewrite, brew_setpar, validate_variant,
)
from repro.core.config import Knownness
from repro.core.resilience import (
    DEFAULT_VALIDATION_MAX_STEPS, DEFAULT_VALIDATION_VECTORS, _divergence,
    _observe, _perturbed_vectors, _vector_key,
)
from repro.errors import ReproError
from repro.machine.memory import PAGE_SIZE
from repro.machine.vm import Machine
from repro.testing.torture import build_image, generate_images
from tests.core.test_fuzz_differential import ARG_SWEEP, ProgramGen
from tests.core.test_memtxn import FUZZ_WRAPPER


# ================================================================ the oracle
def drawn_vectors(conf, args: tuple, vectors: int, seed: int) -> list[tuple]:
    """Every vector the seeded draw yields, repeats included."""
    rng = random.Random(seed)
    entry_params = conf.function(None).params
    out = [tuple(args)]
    for _ in range(vectors):
        vec = []
        for position, arg in enumerate(args, start=1):
            knownness = entry_params.get(position, Knownness.UNKNOWN)
            if knownness is not Knownness.UNKNOWN:
                vec.append(arg)
            elif isinstance(arg, float):
                vec.append(arg + rng.choice((-1.0, 1.0)) * rng.random() * 4.0)
            elif isinstance(arg, int):
                vec.append(arg + rng.choice((-64, -8, -1, 1, 8, 64)))
            else:
                vec.append(arg)
        out.append(tuple(vec))
    return out


def first_occurrences(vecs: list[tuple]) -> list[tuple]:
    out: list[tuple] = []
    for vec in vecs:
        if vec not in out:
            out.append(vec)
    return out


def every_vector_verdict(machine, conf, result, args, *, vectors, seed=0,
                         max_steps=DEFAULT_VALIDATION_MAX_STEPS):
    """The gate as it was: one original/variant pair per drawn vector."""
    memory = machine.image.memory
    for vec in drawn_vectors(conf, tuple(args), vectors, seed):
        memory.begin()
        try:
            want = _observe(machine, result.original, vec, max_steps)
        finally:
            memory.rollback()
        if want.error is not None:
            continue
        memory.begin()
        try:
            run = machine.cpu.run(result.entry, *vec, max_steps=max_steps)
            mismatch = _divergence(memory, want, run, vec)
        except ReproError as exc:
            mismatch = f"variant faulted on {vec!r}: {type(exc).__name__}: {exc}"
        finally:
            memory.rollback()
        if mismatch is not None:
            return mismatch
    return None


class RunLog:
    """Records every (entry, args) the machine's CPU runs."""

    def __init__(self, machine, monkeypatch) -> None:
        self.runs: list[tuple[int, tuple]] = []
        real = machine.cpu.run

        def run(entry, *args, **kwargs):
            self.runs.append((entry, args))
            return real(entry, *args, **kwargs)

        monkeypatch.setattr(machine.cpu, "run", run)


def load_asm(machine: Machine, name: str, src: str) -> int:
    probe, _ = assemble(src, 0, extra_labels=dict(machine.image.symbols))
    addr = machine.image.add_function(name, b"\x00" * len(probe))
    code, _ = assemble(src, addr, extra_labels=dict(machine.image.symbols))
    machine.image.poke(addr, code)
    return addr


MULADD = """
    mov rax, rdi
    imul rax, rsi
    add rax, rdx
    cvtsi2sd xmm1, rax
    addsd xmm0, xmm1
    ret
"""


def muladd_rewrite(known: tuple[int, ...]):
    m = Machine()
    fn = load_asm(m, "muladd", MULADD)
    conf = brew_init_conf()
    for position in known:
        brew_setpar(conf, position, BREW_KNOWN)
    args = (5, 7, -3, 0.5)
    result = brew_rewrite(m, conf, fn, *args)
    assert result.ok, result.message
    return m, conf, result, args


# ================================================================== tests
@pytest.mark.parametrize("vectors", [0, 1, DEFAULT_VALIDATION_VECTORS, 8])
def test_all_known_parameters_run_one_pair(monkeypatch, vectors):
    m, conf, result, args = muladd_rewrite((1, 2, 3, 4))
    log = RunLog(m, monkeypatch)
    assert validate_variant(m, conf, result, args, vectors=vectors) is None
    assert log.runs == [(result.original, args), (result.entry, args)]


@pytest.mark.parametrize("known", [(), (1,), (2, 4), (1, 2, 3)])
@pytest.mark.parametrize("seed", range(8))
def test_unknown_parameters_run_the_drawn_vectors_in_order(monkeypatch, known, seed):
    """The distinct drawn vectors, in the order they were drawn; the RNG
    is consumed exactly as before, so a repeat changes no later vector."""
    m, conf, result, args = muladd_rewrite(known)
    for vectors in (DEFAULT_VALIDATION_VECTORS, 8):
        want = first_occurrences(drawn_vectors(conf, args, vectors, seed))
        assert _perturbed_vectors(conf, args, vectors, seed) == want
        log = RunLog(m, monkeypatch)
        assert validate_variant(m, conf, result, args, vectors=vectors, seed=seed) is None
        ran = [vec for entry, vec in log.runs if entry == result.original]
        assert ran == want
        assert [vec for entry, vec in log.runs if entry == result.entry] == want
        monkeypatch.undo()


def test_signed_zero_vectors_stay_distinct():
    """``0.0 == -0.0`` in Python, but the guest sees different bits."""
    assert _vector_key((0.0,)) != _vector_key((-0.0,))
    assert _vector_key((1,)) != _vector_key((1.0,))


def _fuzz_cases():
    for seed in range(6):
        m = Machine()
        m.load(ProgramGen(seed).function() + FUZZ_WRAPPER)
        buf = m.image.malloc(3 * PAGE_SIZE) + PAGE_SIZE - 12
        fn = m.symbol("fuzz_store")
        rng = random.Random(seed)
        known = rng.choice(ARG_SWEEP)
        for positions in ((2,), (2, 3), (1, 2, 3)):
            conf = brew_init_conf()
            for position in positions:
                brew_setpar(conf, position, BREW_KNOWN)
            res = brew_rewrite(m, conf, fn, buf, *known)
            assert res.ok, res.message
            # the tracing args, and args the variant was not specialized
            # for (a different KNOWN second parameter): those diverge
            for args in ((buf, *known), (buf, known[0] + 3, known[1])):
                yield m, conf, res, args


def _torture_cases():
    for spec in generate_images(20261017, 26):
        m, entry, args = build_image(spec)
        conf = brew_init_conf()
        for position in spec.known_params:
            brew_setpar(conf, position, BREW_KNOWN)
        res = brew_rewrite(m, conf, entry, *args)
        if res.ok:
            yield m, conf, res, args
            yield m, conf, res, tuple(a + 8 for a in args)


@pytest.mark.parametrize("corpus, diverges", [(_fuzz_cases, True), (_torture_cases, False)],
                         ids=["fuzz", "torture"])
def test_verdicts_match_running_every_vector(corpus, diverges):
    """Same verdict string as the every-vector gate, on the corpora the
    memory-transaction tests use; the fuzz corpus includes variants run
    off their specialization, so divergence strings are compared too."""
    verdicts = []
    for m, conf, res, args in corpus():
        for vectors, seed in ((DEFAULT_VALIDATION_VECTORS, 0), (2, 5)):
            want = every_vector_verdict(m, conf, res, args, vectors=vectors, seed=seed)
            got = validate_variant(m, conf, res, args, vectors=vectors, seed=seed)
            assert got == want, (args, vectors, seed)
            verdicts.append(got)
    assert None in verdicts
    assert any(v is not None for v in verdicts) == diverges
