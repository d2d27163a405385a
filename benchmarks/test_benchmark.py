"""Tests of the benchmark itself: its gates catch faults, its inputs follow
the seed, and it refuses to run where it cannot measure the package.

    python3 -m pytest benchmarks/test_benchmark.py
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize(
    "workload,fault",
    [
        ("exact-crosscheck", "eps1-flip"),
        ("level-table", "table-byte"),
        ("oracle-cold", "oracle-offset"),
        ("oracle-warm", "oracle-offset"),
    ],
)
def test_gate_catches_fault(workload, fault):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--inject", fault)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "# first failure:" in proc.stdout


def test_refuses_precision_override():
    env = {**os.environ, "SALPETER_PRECISION": "30"}
    proc = run_bench("--workload", "exact-crosscheck", "--seconds", "1", env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "exact-crosscheck", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_follow_the_seed():
    for cls in (workloads.ExactCrosscheck, workloads.LevelTable, workloads.Oracle):
        first, again, other = cls(5).items, cls(5).items, cls(6).items
        assert first == again
        assert first != other


def test_exact_states_are_the_acceptance_grid_and_ladder_states():
    wl = workloads.ExactCrosscheck(1)
    ladder = [(fock.N, fock.m) for _, fock in wl.items if fock is not None]
    grid = [(q.d, q.n, q.l) for q, fock in wl.items if fock is None]
    assert len(set(ladder)) == len(ladder) == 861
    assert len(set(grid)) == len(grid) == 51 + 9 * 26 * 26


def test_op_times_are_medians_of_latencies_at_the_reference_speed():
    slow_host = {"latencies": [0.004, 0.010], "references": [2 * run.REFERENCE_S] * 2}
    fast_host = {"latencies": [0.001, 0.003], "references": [run.REFERENCE_S / 2] * 2}
    same = {"latencies": [0.002, 0.004], "references": [run.REFERENCE_S] * 2}
    assert run.adjusted(slow_host) == pytest.approx([0.002, 0.005])
    assert run.adjusted(fast_host) == pytest.approx([0.002, 0.006])
    times = run.per_op([run.adjusted(w) for w in (slow_host, fast_host, same)])
    assert times == pytest.approx([0.002, 0.005])


def test_every_table_a_seed_can_draw_has_a_digest():
    digests = json.loads(workloads.DIGESTS.read_text())
    for cands in workloads.table_pool():
        for triple in cands:
            assert workloads.triple_key(*triple) in digests
    sizes = [sorted(nmax for _, nmax, _ in workloads.LevelTable(seed).items) for seed in (1, 2)]
    assert sizes[0] == sizes[1]


def test_oracle_sample_builds_the_same_rules_for_every_seed():
    for seed in range(20):
        ops = workloads.Oracle(seed).items
        alphas = {args[0].alpha for name, args, _, _ in ops if name == "oracle.quad_expectation"}
        assert len(alphas) == 3
        assert len(ops) == 135


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_has_exactly_the_declared_metrics(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc = run_bench("--workload", "exact-crosscheck", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
