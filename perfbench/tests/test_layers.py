"""Per-layer metrics derived from a hand-built span list."""

import pytest

from perfbench.layers import layer_metrics


def span(name, start, end, parent=-1, note=None):
    return [name, start, end, parent, 1, note]


def test_gate_and_machine_attribution():
    spans = [
        span("supervisor", 0.0, 10.0, note={"ok": 1, "first_try": 1}),   # 0
        span("attempt", 0.0, 4.0, 0),                                     # 1
        span("tracer", 0.5, 3.0, 1, {"insns": 2000, "migrations": 1}),    # 2
        span("tracer", 3.0, 3.5, 1),            # raised: no counts       # 3
        span("emit", 3.5, 4.0, 1, {"bytes": 64}),                          # 4
        span("gate", 4.0, 10.0, 0),                                       # 5
        span("machine.run", 5.0, 6.0, 5, {"insns": 10, "cycles": 20}),    # 6
        span("machine.run", 7.0, 9.0, 5, {"insns": 10, "cycles": 20}),    # 7
        span("machine.run", 11.0, 15.0, note={"insns": 1000, "cycles": 3000}),
    ]
    out = layer_metrics([], spans, setups=1, blocks=2)
    assert out["gate.s"] == pytest.approx(3.0)            # 6 s over 2 blocks
    assert out["gate.machine_s"] == pytest.approx(1.5)
    assert out["gate.self_s"] == pytest.approx(1.5)       # (6 - 1 - 2) / 2
    # only the run outside the gate counts as workload execution
    assert out["machine.run_s"] == pytest.approx(2.0)
    assert out["machine.guest_insns"] == pytest.approx(500)
    assert out["machine.ns_per_guest_insn"] == pytest.approx(4.0 / 1000 * 1e9)
    assert out["tracer.s"] == pytest.approx(1.5)
    assert out["tracer.traced_insns"] == pytest.approx(1000)
    assert out["tracer.us_per_insn.large"] == pytest.approx(2.5 / 2000 * 1e6)
    assert out["tracer.us_per_insn.small"] == 0.0
    assert out["emit.code_bytes"] == pytest.approx(32)
    assert out["supervisor.attempts_per_rewrite"] == 1.0
    assert out["supervisor.first_try_ratio"] == 1.0


def test_manager_hits_are_gets_without_a_rewrite():
    spans = [
        span("manager.get", 0.0, 1.0),
        span("supervisor", 0.1, 0.9, 0, {"ok": 1, "first_try": 1}),
        span("manager.get", 1.0, 1.1),
        span("manager.get", 2.0, 2.1),
        span("shadow", 3.0, 4.0),
        span("machine.run", 3.1, 3.4, 4, {"insns": 5, "cycles": 9}),
    ]
    out = layer_metrics([], spans, setups=1, blocks=1)
    assert out["manager.hit_ratio"] == pytest.approx(2 / 3)
    assert out["shadow.self_s"] == pytest.approx(0.7)
    assert out["machine.run_s"] == 0.0


def test_setup_metrics_are_per_setup():
    setup = [span("machine.new", 0.0, 0.2), span("cc.compile", 0.2, 0.5),
             span("machine.new", 1.0, 1.2), span("cc.compile", 1.2, 1.5)]
    out = layer_metrics(setup, [], setups=2, blocks=0)
    assert out["machine.new_count"] == 1.0
    assert out["machine.new_s"] == pytest.approx(0.2)
    assert out["cc.compile_s"] == pytest.approx(0.3)
