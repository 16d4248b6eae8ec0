"""Small end-to-end runs: oracle checks, determinism and tracing."""

import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import harness, layers, workloads
from perfbench.workloads import OracleMismatch, check_matrix

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def few_setups(monkeypatch):
    monkeypatch.setattr(harness, "SETUPS", 2)


@pytest.fixture
def tiny_grid(monkeypatch):
    monkeypatch.setattr(workloads, "GRID", 8)


@pytest.fixture
def tiny_churn(monkeypatch):
    monkeypatch.setattr(workloads, "GRID", 12)
    monkeypatch.setattr(workloads, "NELEMS", 256)
    monkeypatch.setattr(workloads, "CHURN_SMALL_POINTS", (3, 7))
    monkeypatch.setattr(workloads, "CHURN_LARGE_SIZES", (64,))
    monkeypatch.setattr(workloads.SpecializeChurn, "fixed_blocks", 1)


@pytest.fixture
def tiny_service(monkeypatch):
    monkeypatch.setattr(workloads, "GRID", 12)
    monkeypatch.setattr(workloads, "NELEMS", 256)
    monkeypatch.setattr(workloads, "SERVICE_COUNTS", (8, 4, 2, 1))
    monkeypatch.setattr(workloads, "SERVICE_MIN_CALLS", 0)
    monkeypatch.setattr(workloads.ServiceMix, "fixed_blocks", 2)


def test_two_runs_at_one_seed_agree(tiny_churn):
    first = harness.execute("specialize_churn", 3, 0, False)
    second = harness.execute("specialize_churn", 3, 0, False)
    assert first.samples.fingerprint == second.samples.fingerprint
    assert first.samples.failed == 0
    # simulated cycles, traced instructions and emitted bytes are in it
    traced, size, emitted, variant, original = first.samples.fingerprint[0]
    assert traced > 0 and size > 0 and len(emitted) == 16 and 0 < variant < original


def test_sweep_blocks_repeat_exactly(tiny_grid):
    run = harness.execute("stencil_sweep", 4, 0, False)
    assert run.samples.failed == 0
    assert math.isclose(harness.end_to_end(run)["variant_cycle_ratio"],
                        run.samples.ratios[0])


@pytest.mark.parametrize("skipped", [
    lambda name, nth: name == "sweep_grouped",
    lambda name, nth: nth > 0,
], ids=["grouped-sweep", "every-sweep-after-the-first"])
def test_sweep_that_stores_nothing_fails_the_oracle(monkeypatch, tiny_grid, skipped):
    from repro.machine.vm import Machine

    call = Machine.call
    sweeps = []

    def storeless(self, entry, *args, **kwargs):
        if entry in ("sweep", "sweep_grouped"):
            sweeps.append(entry)
            if skipped(entry, len(sweeps) - 1):
                return SimpleNamespace(cycles=1, perf=SimpleNamespace(instructions=1))
        return call(self, entry, *args, **kwargs)

    monkeypatch.setattr(Machine, "call", storeless)
    run = harness.execute("stencil_sweep", 4, 0, False)
    assert run.error is not None and run.error.startswith("OracleMismatch")


def test_fixed_blocks_complete_past_the_hard_stop(monkeypatch, tiny_churn):
    monkeypatch.setattr(harness, "HARD_STOP_S", 0.0)
    monkeypatch.setattr(workloads.SpecializeChurn, "fixed_blocks", 2)
    run = harness.execute("specialize_churn", 3, 0, False)
    assert len(run.block_s[False]) == 2


@pytest.mark.parametrize("workload, fixture, check", [
    ("specialize_churn", "tiny_churn", "stencil ("),
    # the sweeps reach variants through a function pointer, so only the
    # per-cell calls see the corruption
    ("stencil_sweep", "tiny_grid", "rewritten apply at"),
])
def test_corrupted_variant_result_fails_the_oracle(monkeypatch, request, workload, fixture, check):
    from repro.machine.vm import Machine

    request.getfixturevalue(fixture)
    call = Machine.call

    def corrupting(self, entry, *args, **kwargs):
        run = call(self, entry, *args, **kwargs)
        if "__brew" in self.image.symbol_names.get(self.image.resolve(entry), ""):
            run.float_return += 1e-6
        return run

    monkeypatch.setattr(Machine, "call", corrupting)
    monkeypatch.setattr(workloads, "CHURN_LARGE_SIZES", ())
    run = harness.execute(workload, 3, 0, False)
    assert run.error is not None and run.error.startswith("OracleMismatch")
    assert check in run.error


def test_matrix_check_catches_one_wrong_cell():
    want = [0.5] * 16
    check_matrix(list(want), want, "sweep")
    bad = list(want)
    bad[5] = 0.5000001
    with pytest.raises(OracleMismatch):
        check_matrix(bad, want, "sweep")


def test_tracing_leaves_program_metrics_byte_identical(tiny_service):
    plain = harness.execute("service_mix", 5, 0, False)
    traced = harness.execute("service_mix", 5, 0, True)
    # the fingerprint ends with both services' Metrics snapshots (less
    # the supervisor's host-time histogram), taken after block 1, which
    # the traced run records spans for
    assert plain.samples.fingerprint == traced.samples.fingerprint
    assert traced.run_spans and not plain.run_spans
    metrics = harness.per_layer(traced)
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    assert metrics["service.request_s"] > 0
    assert metrics["shadow.samples"] >= 0


def test_wrappers_are_removed_after_a_traced_run(tiny_grid):
    from repro.machine.cpu import CPU

    before = CPU.__dict__["run"]
    harness.execute("stencil_sweep", 4, 0, True)
    assert CPU.__dict__["run"] is before


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_each_time_is_divided_by_the_host_slowdown_around_it():
    ref = harness.CALIBRATION_REF_S
    run = harness.Run("stencil_sweep", 1, False)
    # the host is twice as slow as the reference until t=2, then four
    # times as slow
    for at, times in ((0.0, 2), (1.0, 2), (2.0, 2), (3.0, 4), (4.0, 4), (5.0, 4)):
        run.calibrated_at.append(at)
        run.calibrations.append(ref * times)
    # the calibrations just before and just after, and any in between
    assert run.slowdown_at(0.5, 0.9) == pytest.approx(2.0)
    assert run.slowdown_at(1.0, 1.5) == pytest.approx(2.0)
    assert run.slowdown_at(2.5, 2.6) == pytest.approx(3.0)
    assert run.slowdown_at(3.5, 4.5) == pytest.approx(4.0)
    assert run.slowdown_at(0.5, 4.5) == pytest.approx(3.0)
    assert run.slowdown_at(9.0, 9.5) == pytest.approx(4.0)
    run.setup_s, run.setup_at = [0.2, 0.4], [(0.5, 0.7), (4.1, 4.5)]
    run.block_s[False], run.block_at[False] = [2.7], [(0.5, 4.5)]
    run.samples.attempted = 4
    run.samples.ratios = [0.5]
    for start, end in ((0.5, 1.5), (4.0, 6.0)):
        run.samples.add_rewrite(start, end)
        run.samples.add_call(start, start + (end - start) / 100)
    raw, scaled = harness.measured(run), harness.end_to_end(run)
    assert raw["setup_s"] == pytest.approx(0.3)
    assert scaled["setup_s"] == pytest.approx(0.1)
    assert scaled["run_s"] == pytest.approx(0.9)
    assert raw["rewrite_s.p90"] == pytest.approx(2.0)
    for name, want in (("rewrite_s.p50", 0.5), ("rewrite_s.p90", 0.5),
                       ("call_ms.p50", 5.0), ("call_ms.p99", 5.0)):
        assert scaled[name] == pytest.approx(want)
    assert scaled["variant_cycle_ratio"] == raw["variant_cycle_ratio"] == 0.5
    assert scaled["ok_share"] == 1.0
