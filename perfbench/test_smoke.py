"""Smoke test of the benchmark at the tiny ``harness.config.TEST`` sizes.

Run from the repository root with:

    python -m pytest perfbench/test_smoke.py -q

A bare ``pytest`` run does not collect it: its test paths are ``tests/`` and
``benchmarks/``.
"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, Bench  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    out = run_bench(
        ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--size", "test",
    )
    assert out.returncode == 0, out.stderr[-3000:]
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, lines[:-1]
    expected = PER_LAYER if trace else END_TO_END
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, float)
        assert any(
            line.startswith(f"# {name} = ") and line.endswith(f" {unit}") for line in lines
        ), name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_perturbed_estimate_is_a_failed_operation(monkeypatch, tmp_path):
    real = workloads.make_sampler

    def perturbed(name, *args, **kwargs):
        sampler = real(name, *args, **kwargs)
        if name == "WSD-H":
            sampler.estimate += 1e-9
        return sampler

    monkeypatch.setattr(workloads, "make_sampler", perturbed)
    bench = Bench(
        "kernel-wedge-light", seed=1, seconds=0.1, traced=False, size="test",
        work_dir=tmp_path, t_start=time.perf_counter(),
    )
    bench.run()
    assert bench.checks.failed >= 1
    assert any(f.startswith("WSD-H") for f in bench.checks.failures)


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench(
        tmp_path, "--workload", "kernel-wedge-light", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
