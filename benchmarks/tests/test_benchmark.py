"""Tests of the benchmark itself, run at tiny input sizes.

    python3 -m pytest benchmarks/tests

They check that every metric named in BENCHMARK.json is emitted, that the
per-layer counts repeat exactly for a seed, that the correctness gate fails
on corrupted answers, and that the tracer reports a renamed probe as
missing instead of crashing or reporting zero.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Per-layer metrics that count work; they must repeat exactly for a seed.
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["unit"] != "s" and not m["name"].startswith("trace.")]

sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import unmix  # noqa: E402
from scene import WORKLOADS as SCENES, library, lower_bounds, pixels  # noqa: E402
from tracer import PER_LAYER, PRINTED_ONLY, PROBES, Tracer, per_layer_metrics  # noqa: E402


def run(root, workload, trace, seed=3):
    """Run the benchmark at 1% size; return (exit code, last-line JSON or None)."""
    done = subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.05", "--trace", str(trace), "--scale", "0.01"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, last


def units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload):
    code, result = run(ROOT, workload, trace=0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_emitted_and_counts_repeat(workload):
    (code, first), (code_again, second) = run(ROOT, workload, 1), run(ROOT, workload, 1)
    assert code == code_again == 0 and first["correct"] and second["correct"]
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: first["metrics"][n]["value"] for n in COUNTS} == \
        {n: second["metrics"][n]["value"] for n in COUNTS}
    assert first["metrics"]["kkt.factorize_calls"]["value"] > 0


def _copy_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return tmp_path


def _mutate(root, module, old, new):
    path = root / "src" / "unmix" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_fails_on_a_wrong_multiplier(tmp_path, workload):
    root = _copy_checkout(tmp_path)
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    _mutate(root, "active_set.py", "eq_multiplier=sub.multiplier,",
            "eq_multiplier=sub.multiplier + 1e-3,")
    code, result = run(root, workload, trace=0)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_gate_fails_when_cli_output_loses_digits(tmp_path):
    root = _copy_checkout(tmp_path)
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    _mutate(root, "cli.py", 'fmt="%.17g"', 'fmt="%.6g"')
    code, result = run(root, "cli-p10", trace=0)
    assert code == 1 and result["correct"] is False


def test_checkout_without_program_fails_without_result(tmp_path):
    root = _copy_checkout(tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _api_workload():
    scene = SCENES["api-p100"].scaled(0.002)
    lib = library(1, scene)
    arrays = {"library": lib, "lower_bounds": lower_bounds(1, scene),
              "pixels": np.stack([pixels(1, scene, lib, k)[:, 0] for k in range(scene.chunks)])}
    return child._ApiWorkload(unmix, arrays, None)


def test_kkt_check_rejects_a_corrupted_solution():
    workload = _api_workload()
    solutions = workload.call(0)
    workload.check(0, solutions)
    assert workload.errors == [] and workload.failed == 0
    corrupted = [replace(solutions[0], eq_multiplier=solutions[0].eq_multiplier + 1e-3)]
    workload.check(0, corrupted)
    assert workload.failed == 1 and len(workload.errors) == 1


def test_repeated_call_must_return_the_first_answer_again():
    workload = _api_workload()
    solutions = workload.call(0)
    workload.check_once(0, solutions)
    workload.check_once(0, workload.call(0))
    assert workload.errors == [] and workload.failed == 0
    shifted = solutions[0].abundances + 1e-12
    workload.check_once(0, [replace(solutions[0], abundances=shifted)])
    assert workload.failed == 1 and len(workload.errors) == 1


def test_tracer_reports_renamed_names_as_missing_and_restores_bindings():
    probes = dict(PROBES)
    probes["kkt.factorize"] = ("unmix.kkt", "factorize_renamed")
    probes["cli.main"] = ("unmix.command_line", "main")
    original = unmix.active_set.solve_subproblem
    workload = _api_workload()
    tracer = Tracer(probes)
    tracer.install()
    try:
        assert unmix.active_set.solve_subproblem is not original
        tracer.enabled = True
        workload.call(0)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    assert unmix.active_set.solve_subproblem is original
    metrics, missing = per_layer_metrics(tracer, pixels=1, untraced_wall=1.0, traced_wall=1.0)
    for name in ("kkt.factorize_calls", "kkt.factorize_s", "kkt.distinct_free_sets",
                 "kkt.mean_free_size", "cli.self_s"):
        assert name in missing and name not in metrics
    assert set(metrics) | set(missing) == set(PER_LAYER)
    assert set(PER_LAYER) == {m["name"] for m in SPEC["per_layer"]} | set(PRINTED_ONLY)
    assert metrics["kkt.solve_subproblem_self_s"]["value"] > 0
    assert metrics["active_set.iters_per_px"]["value"] >= 1
