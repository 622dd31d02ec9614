"""Tests of the benchmark itself (not part of the program's test suite).

Run from the root of a checkout; they take about a minute:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import COUNTED_CALLS, Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def traced_op(name: str, seed: int):
    workload = run.load_workloads().WORKLOADS[name]
    tracer = Tracer()
    walls, failures = run.run_phase(workload, seed, 0, tracer)
    return walls, failures, run.layer_metrics(tracer, walls)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_repeat_and_self_times_cover_the_operation(name):
    first_walls, first_failures, first = traced_op(name, seed=7)
    _, second_failures, second = traced_op(name, seed=7)
    assert first_failures == second_failures == [[]]
    counts = [f"{call}_calls" for call in COUNTED_CALLS]
    assert {c: first[c] for c in counts} == {c: second[c] for c in counts}
    assert any(first[c] > 0 for c in counts)
    # self times of every layer, cli.self_s included, sum to the operation's
    # wall time; what is left is the benchmark's own checking code
    attributed = sum(first[m] for m in run.TIMED_METRICS)
    assert attributed <= first_walls[0]
    assert first["trace.unattributed_s"] < 0.01 * first_walls[0]


def test_tracer_restores_the_program():
    from bellgate import cli, fock, qudit
    import scipy.linalg

    before = [fock.squeezer, qudit.bell_vector, cli.run_cv_verify, scipy.linalg.expm]
    tracer = Tracer()
    tracer.install()
    assert fock.squeezer is not before[0]
    tracer.restore()
    assert [fock.squeezer, qudit.bell_vector, cli.run_cv_verify, scipy.linalg.expm] == before


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(20)]) == (9.0, 50.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_per_layer_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, run.unit_of(name)) for name in run.PER_LAYER_METRICS]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)


def test_untraced_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qudit_sweep", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cv_verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
