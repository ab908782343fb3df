"""The benchmark's own test, on its tiny configuration.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs each workload traced twice (chain at n = 2 only, a few points of the
others) and checks that every per-layer metric is printed with its unit and
that every structural count repeats exactly.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


def run_bench(workload, trace, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, unit, better in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better in metrics.PER_LAYER
    ]


@pytest.mark.parametrize("workload", ["chain", "encoded", "grid"])
def test_traced_structural_counts_repeat_exactly(workload):
    first = last_json(run_bench(workload, 1))
    second = last_json(run_bench(workload, 1))
    for out in (first, second):
        assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
        assert {name: m["unit"] for name, m in out["metrics"].items()} == {
            name: unit for name, unit, _ in metrics.PER_LAYER
        }
    for name in metrics.STRUCTURAL:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["unitary.evolve.calls"]["value"] > 0


def test_end_to_end_metrics_printed_with_units():
    out = last_json(run_bench("grid", 0))
    assert out["correct"] and out["failed"] == 0
    for name, unit, _ in metrics.END_TO_END:
        assert out["metrics"][name]["unit"] == unit
        assert out["metrics"][name]["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("grid", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
