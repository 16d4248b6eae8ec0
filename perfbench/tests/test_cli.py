"""Exit codes and the result line of ``perfbench/run.py``."""

import json

from perfbench import harness, run


def test_wrong_output_exits_1_with_correct_false(monkeypatch, capsys):
    def failing(name, seed, seconds, trace):
        result = harness.Run(name, seed, trace)
        result.samples.attempted = 3
        result.error = "OracleMismatch: sum [0, 64): got 1.0, want 2.0"
        return result

    monkeypatch.setattr(harness, "execute", failing)
    code = run.main(["--workload", "service_mix", "--seed", "1", "--seconds", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "OracleMismatch" in err
    assert json.loads(out.strip().splitlines()[-1])["correct"] is False


def test_missing_program_exits_2_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "stencil_sweep", "--seed", "1", "--seconds", "1"])
    out, _ = capsys.readouterr()
    assert code == 2
    assert out == ""
