"""Ablations ABL-1..ABL-5: the design knobs DESIGN.md calls out."""

from __future__ import annotations

from repro.experiments.harness import Experiment, Row
from repro.core import (
    BREW_KNOWN, brew_init_conf, brew_rewrite, brew_setfunc, brew_setpar,
)
from repro.machine.vm import Machine
from repro.models.stencil import StencilLab


def abl1_variant_threshold() -> Experiment:
    """ABL-1: variant threshold vs code size / rewrite effort (Sec. III.F)."""
    source = """
    noinline long work(long n) {
        long total = 0;
        for (long i = 0; i < n; i++)
            total += i * i + 3;
        return total;
    }
    """
    exp = Experiment(
        "ABL-1", "Variant threshold: controlled unrolling",
        "Sec. III.F: 'if a given configuration threshold is reached, we "
        "search for possible migrations' — the knob that trades code size "
        "for specialization depth",
    )
    oracle = sum(i * i + 3 for i in range(64))
    sizes = []
    for threshold in (2, 4, 8, 16, 32, 128):
        m = Machine()
        m.load(source)
        conf = brew_init_conf()
        brew_setpar(conf, 1, BREW_KNOWN)
        brew_setfunc(conf, None, conditionals_unknown=True)
        conf.variant_threshold = threshold
        result = brew_rewrite(m, conf, "work", 64)
        assert result.ok, result.message
        ok = m.call(result.entry, 64).int_return == oracle
        cycles = m.call(result.entry, 64).cycles
        sizes.append(result.code_size)
        exp.rows.append(Row(
            f"threshold={threshold}", cycles,
            note=f"{result.code_size} B, {result.stats.blocks} blocks, "
                 f"{result.stats.migrations} migrations, correct={ok}",
        ))
    exp.check("code size grows with the threshold (deeper unrolling)",
              sizes == sorted(sizes))
    return exp


def abl2_inlining() -> Experiment:
    """ABL-2: inlining on/off (Sec. III.D: 'the first removes the overhead
    of jumps and function prologues/epilogues')."""
    source = """
    noinline long helper(long x, long k) { return x * k + 1; }
    noinline long chain(long x) {
        long total = 0;
        for (long i = 0; i < 16; i++)
            total += helper(x + i, 3);
        return total;
    }
    """
    exp = Experiment(
        "ABL-2", "Inlining through the shadow stack",
        "Sec. III.D / IV: inlining removes call/prologue overhead; "
        "non-inlined calls keep ABI compensation",
    )
    results = {}
    for label, inline in (("inlined (default)", True), ("kept calls", False)):
        m = Machine()
        m.load(source)
        conf = brew_init_conf()
        if not inline:
            brew_setfunc(conf, m.symbol("helper"), inline=False)
        result = brew_rewrite(m, conf, "chain", 0)
        assert result.ok, result.message
        run = m.call(result.entry, 5)
        baseline = m.call("chain", 5)
        assert run.int_return == baseline.int_return
        results[label] = (run.cycles, run.perf.calls, result.code_size)
        exp.rows.append(Row(label, run.cycles,
                            note=f"{run.perf.calls} calls at runtime, "
                                 f"{result.code_size} B"))
        if label == "kept calls":
            exp.rows.append(Row("original (context)", baseline.cycles))
    exp.check("inlining removes every runtime call",
              results["inlined (default)"][1] == 0)
    exp.check("inlining is faster than keeping the calls",
              results["inlined (default)"][0] < results["kept calls"][0])
    return exp


def abl3_passes(xs: int = 20, ys: int = 20) -> Experiment:
    """ABL-3: post-capture pass pipeline on the stencil (Sec. IV future work)."""
    exp = Experiment(
        "ABL-3", "Post-capture optimization passes",
        "Sec. IV: the prototype had none; dce / redundant-load / peephole "
        "implemented here as extensions.  Measured in prototype spill mode "
        "(deferred_spills off) where there is noise to clean; the last row "
        "shows the deferred-spill extension for comparison.",
    )
    lab = StencilLab(xs=xs, ys=ys)
    baseline = None
    for label, passes, deferred in (
        ("prototype, no passes", (), False),
        ("prototype + dce", ("dce",), False),
        ("prototype + dce + redundant-load", ("dce", "redundant-load"), False),
        ("prototype + full pipeline", ("dce", "redundant-load", "peephole"), False),
        ("deferred-spill extension, no passes", (), True),
    ):
        result = lab.rewrite_apply(passes=passes, deferred_spills=deferred)
        assert result.ok, result.message
        cycles = lab.run_with_apply(result.entry, 1).cycles
        if baseline is None:
            baseline = cycles
        exp.rows.append(Row(label, cycles, cycles / baseline,
                            note=f"{result.code_size} B"))
    pipeline = exp.rows[3].cycles
    extension = exp.rows[4].cycles
    exp.check("the pass pipeline improves prototype output", pipeline < baseline)
    exp.check("deferred spills match or beat the pass pipeline",
              extension <= pipeline)
    return exp


def abl4_vectorize(n: int = 16) -> Experiment:
    """ABL-4: the greedy vectorization pass on an unrolled axpy."""
    source = """
    noinline void axpy(double *x, double *y, long n, double a) {
        for (long i = 0; i < n; i++)
            y[i] = a * x[i] + y[i];
    }
    """
    exp = Experiment(
        "ABL-4", "Greedy SLP vectorization",
        "Sec. IV: 'a simple greedy vectorization pass which may take "
        "programmer knowledge and runtime information ... into account'",
    )
    measurements = {}
    for label, passes in (
        ("scalar unrolled", ("dce", "redundant-load", "peephole")),
        ("vectorized", ("dce", "redundant-load", "peephole", "reorder", "vectorize")),
    ):
        m = Machine()
        m.load(source)
        x = m.image.malloc(n * 8)
        y = m.image.malloc(n * 8)
        conf = brew_init_conf()
        brew_setpar(conf, 3, BREW_KNOWN)
        brew_setpar(conf, 4, BREW_KNOWN)
        conf.passes = passes
        result = brew_rewrite(m, conf, "axpy", x, y, n, 2.0)
        assert result.ok, result.message
        for i in range(n):
            m.memory.write_f64(x + 8 * i, float(i + 1))
            m.memory.write_f64(y + 8 * i, float(i))
        run = m.call(result.entry, x, y, n, 2.0)
        got = [m.memory.read_f64(y + 8 * i) for i in range(n)]
        ok = got == [2.0 * (i + 1) + i for i in range(n)]
        measurements[label] = (run.cycles, ok, result.code_size)
        exp.rows.append(Row(label, run.cycles, note=f"{result.code_size} B, correct={ok}"))
    exp.check("both versions compute correctly",
              all(v[1] for v in measurements.values()))
    exp.check("vectorization reduces cycles",
              measurements["vectorized"][0] < measurements["scalar unrolled"][0])
    return exp


#: ABL-5 trip counts: the loop unrolls completely, so the traced size
#: grows linearly with the trip count (~8 traced instructions per trip).
ABL5_TRIP_COUNTS = (16, 128, 512, 2048)
#: ``variant_threshold`` for ABL-5: high enough that no trip count
#: reaches it (the default stops every size at ~220 traced instructions).
ABL5_VARIANT_THRESHOLD = 1 << 16
#: Rewrites per size; the fastest one counts (host-time noise only adds).
ABL5_REPEATS = 3


def abl5_rewrite_cost() -> Experiment:
    """ABL-5: rewrite time vs function size (amortization, Sec. VIII:
    'rewriting makes sense only for performance sensitive hot code paths').

    Each row is the best-of-``ABL5_REPEATS`` trace+emit host time per
    traced instruction; the ratio is against the smallest size.  A
    per-step cost that grows with the output so far (re-summing the
    captured blocks, scanning every variant) shows up as a ratio that
    climbs with size."""
    exp = Experiment(
        "ABL-5", "Rewriting cost vs traced size (us per traced instruction)",
        "Sec. VIII outlook: rewrite cost must amortize over hot-path calls",
    )
    m = Machine()
    m.load("""
    noinline long work(long n) {
        long total = 0;
        for (long i = 0; i < n; i++) total += i;
        return total;
    }
    """)
    conf = brew_init_conf()
    brew_setpar(conf, 1, BREW_KNOWN)
    conf.variant_threshold = ABL5_VARIANT_THRESHOLD
    per_insn = []
    for trip in ABL5_TRIP_COUNTS:
        results = [brew_rewrite(m, conf, "work", trip) for _ in range(ABL5_REPEATS)]
        assert all(r.ok for r in results), results[0].message
        best = min(r.rewrite_seconds for r in results)
        traced = results[0].stats.traced_instructions
        per_insn.append(best * 1e6 / traced)
        exp.rows.append(Row(
            f"trip count {trip}",
            round(per_insn[-1], 2),
            ratio=round(per_insn[-1] / per_insn[0], 2),
            note=f"{traced} traced, {results[0].stats.emitted_instructions} emitted, "
                 f"{results[0].code_size} B, {best:.4f} s",
        ))
    exp.check("largest size reaches 16k traced instructions", traced >= 16000)
    exp.check("us per traced instruction at the largest size <= 2x the smallest",
              per_insn[-1] <= 2 * per_insn[0])
    return exp
