"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run the benchmark at tiny size (window 0, two sweep frames), so they
check wiring and the correctness gate, not timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from gtmod import coeffs  # noqa: E402
from gtmod.tableaux import singular_pairs  # noqa: E402

import workloads  # noqa: E402
from worker import op_failure, run_ops  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in want.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}")
                   for line in proc.stdout.splitlines())
    assert "metric ops_failed = 0 count" in proc.stdout


def test_tiny_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "n4-sweep", "--seed", "5", "--seconds", "0",
                "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert "detail check_kind bracket = 240 count" in proc.stdout


def test_planted_sign_flip_fails_ops(monkeypatch):
    real = coeffs.coeff_e

    def flipped(r, s, w):
        value = real(r, s, w)
        return -value if s == r + 1 else value

    monkeypatch.setattr(coeffs, "coeff_e", flipped)
    ops = workloads.build_ops("n3-fixtures", workloads.DEFAULT_SEED, ROOT, tiny=True)
    results, _ = run_ops(ops)
    failed = [r["label"] for r in results if op_failure(r, None) is not None]
    assert failed, "a sign flip of e_{k,k+1} went unnoticed"
    assert "singular_n3/commutators/w0" in failed


def test_op_failure_rules():
    ok = {"label": "x", "checked": 10, "failed": 0, "error": None}
    assert op_failure(ok, None) is None
    assert op_failure(ok, 10) is None
    assert op_failure(ok, 9) is None  # more checks than recorded is fine
    assert op_failure(ok, 11) is not None
    assert op_failure({**ok, "failed": 1}, None) is not None
    assert op_failure({**ok, "checked": 0}, None) is not None
    assert op_failure({**ok, "error": "ValueError: boom"}, None) is not None


def test_recorded_counts_cover_every_op_at_the_default_seed():
    recorded = json.loads((HERE / "expected_counts.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        labels = [op.label for op in workloads.build_ops(workload, workloads.DEFAULT_SEED, ROOT)]
        assert sorted(labels) == sorted(recorded[workload])


def test_frame_generator_is_deterministic_and_1_singular():
    count = 6
    first = workloads.sweep_frames(11, count)
    assert first == workloads.sweep_frames(11, count)
    assert first != workloads.sweep_frames(12, count)
    for idx, frame in enumerate(first):
        assert (frame.k, frame.i, frame.j) == workloads.SWEEP_BRANCHES[idx % 2]
        assert singular_pairs(frame.vbar) == [(frame.k, frame.i, frame.j)]
        assert workloads.frame_from_text(workloads.frame_text(frame)) == frame


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "n4-sweep", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
