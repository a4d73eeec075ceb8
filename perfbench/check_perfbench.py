"""The benchmark's own tests, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/check_perfbench.py -q

The file name keeps the repository's tier-1 run from collecting these
tests: they launch several fresh interpreters and take about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload, trace):
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--scale",
            "tiny",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return completed.stdout.splitlines()


def test_declared_metrics_match_the_code():
    declared = _benchmark_json()
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == layers.PER_LAYER


@pytest.mark.parametrize(
    "workload,trace",
    [("study-hpo-cold", 0), ("suite-store-replay", 0), ("suite-distributed", 1)],
)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines = _run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    table = "\n".join(lines[:-1])
    for metric in declared:
        assert f"{metric['name']} " in table
    if not trace:
        # error_rate is zero on a healthy run, so BENCHMARK.json carries it
        # among the per-layer metrics; the end-to-end table still prints it.
        assert "error_rate" in table
    provenance = json.loads(lines[-2].split(" ", 1)[1])
    for key in ("commit", "cpu_count", "python", "numpy", "seed", "telemetry", "traced"):
        assert key in provenance
    assert provenance["traced"] is bool(trace)


def test_tampered_replay_row_fails_the_check(tmp_path):
    inputs = workloads.make_inputs("suite-store-replay", 3, "tiny")
    reference = workloads.prepare("suite-store-replay", inputs, str(tmp_path))
    clean = workloads.run_iteration(
        "suite-store-replay", inputs, str(tmp_path), reference, 0
    )
    assert clean.problems == [] and clean.failed == 0

    objects = tmp_path / "store" / "objects"
    first = sorted(objects.rglob("*.pkl"))[0]
    measurement = pickle.loads(first.read_bytes())
    tampered = dataclasses.replace(measurement, test_score=measurement.test_score + 0.25)
    first.write_bytes(pickle.dumps(tampered))

    broken = workloads.run_iteration(
        "suite-store-replay", inputs, str(tmp_path), reference, 1
    )
    assert any("differ" in problem for problem in broken.problems)
    assert broken.failed == broken.operations > 0
    outcome = run._outcome([{"iterations": [broken.to_dict()], "error": None}])
    assert outcome["correct"] is False
    assert outcome["failed"] == outcome["attempted"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_the_generated_specs(workload):
    from repro.api import StudySpec, SuiteSpec

    first = workloads.make_inputs(workload, 1)
    assert first == workloads.make_inputs(workload, 1)
    second = workloads.make_inputs(workload, 2)
    assert first != second
    # The program receives only these generated inputs: specs and session
    # settings, never the seed itself.
    for inputs in (first, second):
        assert set(inputs) in ({"session", "spec"}, {"session", "suite"})
        if "spec" in inputs:
            StudySpec.from_dict(inputs["spec"])
        else:
            SuiteSpec.from_dict(inputs["suite"])
