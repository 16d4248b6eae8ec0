"""Span wrappers around each layer's public entry points, and the
per-layer metrics derived from the recorded spans.

Each entry point is replaced under the name its caller looks it up by:
a method on its class, or a function in the namespace of the module
that calls it (``repro.core.resilience.rewrite`` is the pipeline the
supervisor runs, imported there from ``repro.core.rewriter``).  The
wrappers only read arguments and results; they never touch the
program's :class:`repro.obs.Metrics`, so deterministic snapshots stay
byte-identical with tracing on.
"""

from __future__ import annotations

import functools
import importlib

from perfbench.spans import END, NAME, NOTE, PARENT, START, self_times, within

#: Traced run: traces with at least this many instructions count as large.
LARGE_TRACE_INSNS = 1000

#: Every per-layer metric: name, unit and which direction is better.
PER_LAYER = (
    ("cc.compile_s", "s", "lower"),
    ("machine.new_s", "s", "lower"),
    ("machine.new_count", "count", "lower"),
    ("machine.run_s", "s", "lower"),
    ("machine.guest_insns", "count", "lower"),
    ("machine.ns_per_guest_insn", "ns", "lower"),
    ("machine.sim_cycles", "count", "lower"),
    ("jit.engines", "count", "higher"),
    ("jit.compiles", "count", "lower"),
    ("jit.interp_fallbacks", "count", "lower"),
    ("tracer.s", "s", "lower"),
    ("tracer.self_s", "s", "lower"),
    ("tracer.traced_insns", "count", "lower"),
    ("tracer.migrations", "count", "lower"),
    ("tracer.us_per_insn.small", "us", "lower"),
    ("tracer.us_per_insn.large", "us", "lower"),
    ("passes.s", "s", "lower"),
    ("emit.s", "s", "lower"),
    ("emit.code_bytes", "bytes", "lower"),
    ("gate.s", "s", "lower"),
    ("gate.self_s", "s", "lower"),
    ("gate.machine_s", "s", "lower"),
    ("supervisor.s", "s", "lower"),
    ("supervisor.attempts_per_rewrite", "count", "lower"),
    ("supervisor.first_try_ratio", "ratio", "higher"),
    ("manager.get_s", "s", "lower"),
    ("manager.hit_ratio", "ratio", "higher"),
    ("manager.evictions", "count", "lower"),
    ("service.request_s", "s", "lower"),
    ("service.step_s", "s", "lower"),
    ("service.call_s", "s", "lower"),
    ("service.warm_hit_ratio", "ratio", "higher"),
    ("service.cold_misses", "count", "lower"),
    ("service.withdrawn", "count", "lower"),
    ("shadow.s", "s", "lower"),
    ("shadow.self_s", "s", "lower"),
    ("shadow.samples", "count", "lower"),
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _run_note(args, result):
    return {"insns": result.perf.instructions, "cycles": result.perf.cycles}


def _trace_note(args, output):
    return {"insns": output.stats.traced_instructions,
            "migrations": output.stats.migrations}


def _emit_note(args, result):
    return {"bytes": result[1]}


def _supervised_note(args, result):
    return {"ok": int(result.ok), "first_try": int(result.ok and result.ladder_rung == 0)}


def _step_note(args, done):
    return {"done": done}


#: (module, class or None, attribute, span name, observer).
ENTRY_POINTS = (
    ("repro.machine.vm", "Machine", "__init__", "machine.new", None),
    ("repro.machine.vm", "Machine", "load", "cc.compile", None),
    ("repro.machine.cpu", "CPU", "run", "machine.run", _run_note),
    ("repro.core.tracer", "Tracer", "run", "tracer", _trace_note),
    ("repro.core.passes.pipeline", None, "run_passes", "passes", None),
    ("repro.core.rewriter", None, "emit_into_image", "emit", _emit_note),
    ("repro.core.resilience", None, "rewrite", "attempt", None),
    ("repro.core.resilience", None, "validate_variant", "gate", None),
    ("repro.core.resilience", "RewriteSupervisor", "rewrite", "supervisor", _supervised_note),
    ("repro.core.manager", "SpecializationManager", "get", "manager.get", None),
    ("repro.service.rewrite_service", "RewriteService", "request", "service.request", None),
    ("repro.service.rewrite_service", "RewriteService", "step", "service.step", _step_note),
    ("repro.service.rewrite_service", "RewriteService", "call", "service.call", None),
    ("repro.core.shadowexec", "ShadowSampler", "run_shadowed", "shadow", None),
)


def _wrap(recorder, name, fn, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if observe is not None:
            recorder.note(span, observe(args, result))
        return result

    return traced


def install(recorder):
    """Wrap every entry point; returns an undo function."""
    undo = []
    for module_name, class_name, attr, name, observe in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        original = owner.__dict__[attr]
        setattr(owner, attr, _wrap(recorder, name, original, observe))
        undo.append((owner, attr, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def _count(span, key: str) -> int:
    """A count noted at the span's boundary; 0 when the call raised."""
    return span[NOTE][key] if span[NOTE] is not None else 0


def _by_name(spans) -> dict[str, tuple[int, float, float]]:
    """Per span name: calls, total seconds and self seconds."""
    rows = {}
    for s, own in zip(spans, self_times(spans)):
        calls, total, self_s = rows.get(s[NAME], (0, 0.0, 0.0))
        rows[s[NAME]] = (calls + 1, total + s[END] - s[START], self_s + own)
    return rows


def self_time_table(spans, blocks: int) -> list[tuple[str, float, float, float]]:
    """Per span name: calls, total seconds and self seconds, each per
    block, busiest self time first."""
    table = [(name, _per(c, blocks), _per(t, blocks), _per(o, blocks))
             for name, (c, t, o) in _by_name(spans).items()]
    return sorted(table, key=lambda row: -row[3])


def layer_metrics(setup_spans, run_spans, setups: int, blocks: int) -> dict:
    """Per-layer metrics: setup-phase values per setup, run-phase values
    per traced block, ratios over the whole traced run."""
    out = {}
    for name, key in (("cc.compile", "cc.compile_s"), ("machine.new", "machine.new_s")):
        out[key] = _per(sum(s[END] - s[START] for s in setup_spans if s[NAME] == name), setups)
    out["machine.new_count"] = _per(
        sum(1 for s in setup_spans if s[NAME] == "machine.new"), setups)

    spans = run_spans
    rows = _by_name(spans)

    def calls(name):
        return rows.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return _per(rows.get(name, (0, 0.0, 0.0))[1], blocks)

    def own(name):
        return _per(rows.get(name, (0, 0.0, 0.0))[2], blocks)

    checked = within(spans, frozenset({"gate", "shadow"}))
    runs = [s for s, c in zip(spans, checked) if s[NAME] == "machine.run" and not c]
    run_s = sum(s[END] - s[START] for s in runs)
    insns = sum(_count(s, "insns") for s in runs)
    out["machine.run_s"] = _per(run_s, blocks)
    out["machine.guest_insns"] = _per(insns, blocks)
    out["machine.ns_per_guest_insn"] = run_s / insns * 1e9 if insns else 0.0
    out["machine.sim_cycles"] = _per(sum(_count(s, "cycles") for s in runs), blocks)

    traces = [s for s in spans if s[NAME] == "tracer"]
    out["tracer.s"] = total("tracer")
    out["tracer.self_s"] = own("tracer")
    out["tracer.traced_insns"] = _per(sum(_count(s, "insns") for s in traces), blocks)
    out["tracer.migrations"] = _per(sum(_count(s, "migrations") for s in traces), blocks)
    # traces that raised (e.g. a displacement overflow) have no count
    finished = [s for s in traces if s[NOTE] is not None]
    for size, large in (("small", False), ("large", True)):
        group = [s for s in finished if (s[NOTE]["insns"] >= LARGE_TRACE_INSNS) == large]
        seconds = sum(s[END] - s[START] for s in group)
        n = sum(s[NOTE]["insns"] for s in group)
        out[f"tracer.us_per_insn.{size}"] = seconds / n * 1e6 if n else 0.0

    out["passes.s"] = total("passes")
    out["emit.s"] = total("emit")
    out["emit.code_bytes"] = _per(
        sum(_count(s, "bytes") for s in spans if s[NAME] == "emit"), blocks)

    out["gate.s"] = total("gate")
    out["gate.self_s"] = own("gate")
    out["gate.machine_s"] = _per(sum(
        s[END] - s[START] for s in spans
        if s[NAME] == "machine.run" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "gate"
    ), blocks)

    supervised = [s for s in spans if s[NAME] == "supervisor"]
    out["supervisor.s"] = total("supervisor")
    out["supervisor.attempts_per_rewrite"] = _per(calls("attempt"), len(supervised))
    out["supervisor.first_try_ratio"] = _per(
        sum(_count(s, "first_try") for s in supervised), len(supervised))

    gets = [i for i, s in enumerate(spans) if s[NAME] == "manager.get"]
    rewrote = {s[PARENT] for s in supervised if s[PARENT] >= 0}
    out["manager.get_s"] = total("manager.get")
    out["manager.hit_ratio"] = _per(sum(1 for i in gets if i not in rewrote), len(gets))

    out["service.request_s"] = total("service.request")
    out["service.step_s"] = total("service.step")
    out["service.call_s"] = total("service.call")

    out["shadow.s"] = total("shadow")
    out["shadow.self_s"] = own("shadow")
    out["shadow.samples"] = _per(calls("shadow"), blocks)
    return out
