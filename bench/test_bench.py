"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench``.  They use
tiny runs (``--seconds 0.01``: one batch plus the reference batch), so they
check what the benchmark prints and catches, not how fast anything is.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_one_command_prints_every_metric_with_its_unit(trace, kind):
    proc = _bench("--workload", "all", "--seconds", "0.01", "--seed", "7", "--trace", str(trace))
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0, proc.stdout
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    lines = proc.stdout.splitlines()
    for workload in WORKLOADS:
        for name, unit in units.items():
            assert result["metrics"][f"{workload}.{name}"]["unit"] == unit
            assert any(
                line.startswith(f"{workload} {name} = ") and line.endswith(f" {unit}")
                for line in lines
            ), f"{workload} {name} not printed"
        record = json.loads(
            (BENCH / "out" / f"BENCH_{workload}{'.trace' if trace else ''}.json").read_text()
        )
        assert record["seed"] == 7
        assert {"nproc", "python", "numpy", "scipy"} <= set(record["machine"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_planner_returning_a_non_basis_raises_the_error_rate(workload):
    result = _result(_bench("--workload", workload, "--seconds", "0.01", "--fault", "non-basis"))
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_a_perturbed_value_fails_the_reference_comparison():
    proc = _bench("--workload", "bound-check", "--seconds", "0.01", "--fault", "perturb")
    result = _result(proc)
    assert result["failed"] > 0 and not result["correct"]
    assert "reference batch" in proc.stdout


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_the_design_record_covers_every_workload_and_layer_metric():
    design = json.loads((BENCH / "design.json").read_text(encoding="utf-8"))
    assert list(design["workloads"]) == WORKLOADS
    assert set(design["layer_to_end_to_end"]) == {m["name"] for m in SPEC["per_layer"]}
    assert list(run.WORKLOAD_NAMES) == WORKLOADS


def test_each_stretch_of_a_run_is_scaled_by_the_kernel_times_around_it(monkeypatch):
    import speed

    assert speed.factor([speed.NOMINAL_S] * 4) == pytest.approx(1.0)
    assert speed.factor([speed.NOMINAL_S, 3 * speed.NOMINAL_S]) == pytest.approx(0.5)
    assert speed.measure() > 0
    monkeypatch.setattr(run, "speed", speed)
    nominal = speed.NOMINAL_S
    marks = [(nominal, 0, 0.0), (nominal, 2, 1.0), (3 * nominal, 3, 1.5)]
    latencies, busy = run._in_reference_seconds(marks, [0.2, 0.4, 0.6])
    assert latencies == pytest.approx([0.2, 0.4, 0.3])
    assert busy == pytest.approx(1.25)
