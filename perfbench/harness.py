"""One benchmark run: set up several times, run blocks until the time
is up, check outputs, and report end-to-end or per-layer metrics.

End-to-end metrics come from an untraced run.  A traced run installs
the layer wrappers before set-up, then alternates untraced and traced
blocks; the per-layer metrics come from the traced ones, and the
difference between the two kinds of block is the tracing overhead.
"""

from __future__ import annotations

import gc
import resource
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from statistics import fmean, geometric_mean, median, quantiles

from perfbench import layers, spans
from perfbench.spans import SpanRecorder
from perfbench.stats import percentile, samples_beyond, tail_percentile
from perfbench.workloads import WORKLOADS, DeterminismMismatch, OracleMismatch, Samples

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 31
#: Once its fixed blocks are done, a run stops after its current block
#: when this many seconds have passed, even if the workload's sample
#: minimum is not met.
HARD_STOP_S = 140.0

END_TO_END = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio",
    "variant_cycle_ratio": "ratio", "rewrite_s.p50": "s", "rewrite_s.p90": "s",
    "call_ms.p50": "ms", "call_ms.p99": "ms",
}

#: Program counters whose growth counts as failed operations.
FAILURE_COUNTERS = ("failures", "shed", "shadow_divergences")

#: Seconds :func:`calibration_work` takes on the reference host.
CALIBRATION_REF_S = 0.010
TIMES = ("setup_s", "run_s", "rewrite_s.p50", "rewrite_s.p90", "call_ms.p50", "call_ms.p99")
#: What :func:`calibration_work` copies and compares: more than the
#: caches hold, like the gate's snapshots of a machine's memory.
_CALIBRATION_BYTES = bytearray(8 << 20)


def calibration_work() -> int:
    """Fixed pure-Python work that does not touch the program: dict and
    list traffic like the interpreter's, then a copy and compare of
    :data:`_CALIBRATION_BYTES` like the gate's snapshots.  Timed between
    operations to track host speed."""
    acc = 0
    regs = [0] * 16
    cache = {}
    for i in range(10_000):
        key = i & 1023
        regs[i & 15] = (regs[(i + 1) & 15] + i * 7) & 0xFFFFFFFFFFFFFFFF
        cache[key] = regs[i & 15]
        acc ^= cache.get(key ^ 1, 0)
    copy = bytes(_CALIBRATION_BYTES)
    return acc ^ (copy == _CALIBRATION_BYTES)


def _calibrate(run) -> float:
    start = time.perf_counter()
    calibration_work()
    elapsed = time.perf_counter() - start
    run.calibrated_at.append(start)
    run.calibrations.append(elapsed)
    return elapsed


class Run:
    """The outcome of one benchmark run, before formatting."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.samples = Samples()
        self.setup_s: list[float] = []
        self.block_s = {False: [], True: []}
        #: ``perf_counter`` start and end of each set-up and block.
        self.setup_at: list[tuple[float, float]] = []
        self.block_at = {False: [], True: []}
        self.counter_deltas = {False: {}, True: {}}
        self.recorder = SpanRecorder()
        self.setup_spans: list = []
        self.run_spans: list = []
        self.jit = {}
        #: Set when an output was wrong; the run stopped there.
        self.error: str | None = None
        #: Every :func:`calibration_work` in time order: its start and
        #: its seconds.  One is timed before every set-up and block and
        #: between a block's operations.
        self.calibrated_at: list[float] = []
        self.calibrations: list[float] = []

    def slowdown_at(self, start: float, end: float) -> float:
        """Host speed from ``start`` to ``end`` relative to the reference
        host: the mean of the calibrations from the last one before
        ``start`` to the first one after ``end``, over
        :data:`CALIBRATION_REF_S`."""
        lo = max(bisect_left(self.calibrated_at, start) - 1, 0)
        hi = bisect_right(self.calibrated_at, end) + 1
        return fmean(self.calibrations[lo:hi]) / CALIBRATION_REF_S

    def scaled(self, values, spans) -> list[float]:
        """Each value divided by the host slowdown over its
        ``(start, end)`` span."""
        return [value / self.slowdown_at(*span) for value, span in zip(values, spans)]


def execute(name: str, seed: int, seconds: float, trace: bool) -> Run:
    """Run workload ``name``.  A wrong output stops the run and is
    reported in ``Run.error``."""
    run = Run(name, seed, trace)
    recorder = run.recorder
    # the host's speed changes within seconds, so calibrations go
    # between a block's operations too; their time is taken out of the
    # block's
    ticked = []

    def tick():
        active, recorder.active = recorder.active, False
        ticked.append(_calibrate(run))
        recorder.active = active

    uninstall = layers.install(recorder) if trace else None
    try:
        workload = WORKLOADS[name](seed, recorder, tick)
        for _ in range(SETUPS):
            rig = None
            gc.collect()
            _calibrate(run)
            recorder.active = trace
            start = time.perf_counter()
            rig = workload.build()
            end = time.perf_counter()
            run.setup_s.append(end - start)
            run.setup_at.append((start, end))
            recorder.active = False
        run.setup_spans = recorder.spans
        recorder.spans = []
        started = time.perf_counter()
        index = 0
        while True:
            traced = trace and index % 2 == 1
            _calibrate(run)
            before = workload.counters(rig)
            ticked.clear()
            recorder.active = traced
            start = time.perf_counter()
            workload.run_block(rig, index, run.samples)
            end = time.perf_counter()
            run.block_s[traced].append(end - start - sum(ticked))
            run.block_at[traced].append((start, end))
            recorder.active = False
            after = workload.counters(rig)
            deltas = run.counter_deltas[traced]
            for key, value in after.items():
                deltas[key] = deltas.get(key, 0) + value - before[key]
            index += 1
            if index < workload.fixed_blocks:
                continue
            elapsed = time.perf_counter() - started
            if elapsed >= HARD_STOP_S or (elapsed >= seconds and workload.enough(run.samples)):
                break
        workload.finish(rig, run.samples)
        for deltas in run.counter_deltas.values():
            run.samples.failed += sum(deltas.get(k, 0) for k in FAILURE_COUNTERS)
        run.run_spans = recorder.spans
        run.jit = _jit_stats(workload.machines(rig))
    except (OracleMismatch, DeterminismMismatch) as exc:
        run.error = f"{type(exc).__name__}: {exc}"
    finally:
        if uninstall is not None:
            uninstall()
    return run


def _jit_stats(machines) -> dict:
    """Counters of attached execution engines (none by default)."""
    out = {"jit.engines": 0, "jit.compiles": 0, "jit.interp_fallbacks": 0}
    for machine in machines:
        if machine.jit is not None:
            stats = machine.jit.stats()
            out["jit.engines"] += 1
            out["jit.compiles"] += stats.get("compiles", 0)
            out["jit.interp_fallbacks"] += stats.get("interp_fallbacks", 0)
    return out


def end_to_end(run: Run) -> dict:
    """End-to-end metrics; times are in reference-host units: each
    set-up, block, rewrite and call is divided by :meth:`Run.slowdown_at`
    over it before the median or percentile is taken."""
    s = run.samples
    rewrite_s = run.scaled(s.rewrite_s, s.rewrite_at)
    call_ms = run.scaled(s.call_ms, s.call_at)
    return measured(run) | {
        "setup_s": median(run.scaled(run.setup_s, run.setup_at)),
        "run_s": median(run.scaled(run.block_s[False], run.block_at[False])),
        "rewrite_s.p50": percentile(rewrite_s, 50),
        "rewrite_s.p90": percentile(rewrite_s, 90),
        "call_ms.p50": percentile(call_ms, 50),
        "call_ms.p99": percentile(call_ms, 99),
    }


def measured(run: Run) -> dict:
    """End-to-end metrics with times as measured on this host."""
    s = run.samples
    return {
        "setup_s": median(run.setup_s),
        "run_s": median(run.block_s[False]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - s.failed / s.attempted,
        "variant_cycle_ratio": geometric_mean(s.ratios),
        "rewrite_s.p50": percentile(s.rewrite_s, 50),
        "rewrite_s.p90": percentile(s.rewrite_s, 90),
        "call_ms.p50": percentile(s.call_ms, 50),
        "call_ms.p99": percentile(s.call_ms, 99),
    }


def per_layer(run: Run) -> dict:
    traced_blocks = len(run.block_s[True])
    out = layers.layer_metrics(run.setup_spans, run.run_spans, len(run.setup_s), traced_blocks)
    deltas = run.counter_deltas[True]

    def per_block(key):
        return deltas.get(key, 0) / traced_blocks if traced_blocks else 0.0

    requests = deltas.get("requests", 0)
    out["manager.evictions"] = per_block("evictions")
    out["service.warm_hit_ratio"] = deltas.get("warm_hits", 0) / requests if requests else 0.0
    out["service.cold_misses"] = per_block("cold_misses")
    out["service.withdrawn"] = per_block("withdrawn")
    out.update(run.jit)
    traced = median(run.block_s[True]) if traced_blocks else 0.0
    untraced = median(run.block_s[False])
    out["trace.run_s"] = traced
    out["trace.untraced_run_s"] = untraced
    out["trace.overhead_s"] = traced - untraced
    return {name: out[name] for name, _, _ in layers.PER_LAYER}


def describe(run: Run) -> list[str]:
    """Human-readable notes printed before the result line."""
    s = run.samples
    lines = [
        f"workload {run.workload}  seed {run.seed}  trace {int(run.trace)}",
        f"  setups {len(run.setup_s)}  blocks {len(run.block_s[False]) + len(run.block_s[True])}"
        f"  attempted {s.attempted}  failed {s.failed}"
        f"  failed_share {s.failed / s.attempted:.4f}",
    ]
    for label, values, p in (("rewrite_s", s.rewrite_s, 90), ("call_ms", s.call_ms, 99)):
        tail = tail_percentile(len(values))
        lines.append(
            f"  {label}: n={len(values)}, {samples_beyond(len(values), p)} beyond p{p:g}; "
            f"highest percentile with >=10 beyond: "
            f"{'none' if tail is None else f'p{tail:g}'}")
    lines.append(f"  determinism {s.digest()}")
    slowdowns = [c / CALIBRATION_REF_S for c in run.calibrations]
    q1, q2, q3 = quantiles(slowdowns, n=4)
    lines.append(
        f"  host slowdown {q2:.4f}, quartiles {q1:.4f}-{q3:.4f}, over {len(slowdowns)}"
        f" calibrations ({CALIBRATION_REF_S * 1e3:g} ms on the reference host)")
    if not run.trace:
        raw = measured(run)
        lines.append("  as measured: " + "  ".join(f"{name} {raw[name]:.6g}" for name in TIMES))
    return lines


def dump_spans(run: Run, root: Path) -> Path:
    """Write the traced run's spans (set-up first) as JSON lines."""
    path = root / "out" / f"spans-{run.workload}-seed{run.seed}.jsonl"
    offset = len(run.setup_spans)
    spans.dump(run.setup_spans + [
        [name, start, end, parent + offset if parent >= 0 else parent, op, note]
        for name, start, end, parent, op, note in run.run_spans
    ], path)
    return path
