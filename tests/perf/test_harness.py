"""The campaign benchmark at reduced fault counts: metrics, checks, trace."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PERF = ROOT / "benchmarks" / "perf"

#: faults per cell: enough to reach every campaign function, and cheap
FAULTS = {"cpu-transient": 2, "cpu-permanent": 1, "grid-liveness": 2,
          "dsa": 3}
CELLS = {"cpu-transient": 9, "cpu-permanent": 3, "grid-liveness": 12,
         "dsa": 4}


@pytest.fixture(scope="module")
def runs(perf_run, tmp_path_factory):
    """``workload -> (untraced summary, traced summary)``."""
    saved = perf_run.OUT, perf_run.SETUP_SAMPLES
    perf_run.OUT = tmp_path_factory.mktemp("perf-out")
    perf_run.SETUP_SAMPLES = 2
    try:
        yield {
            w: (perf_run.measure(w, seed=1, seconds=0, faults=n),
                perf_run.measure_traced(w, seed=1, faults=n))
            for w, n in FAULTS.items()
        }
    finally:
        perf_run.OUT, perf_run.SETUP_SAMPLES = saved


def _declared(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def test_workloads_match_benchmark_json(perf_run):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(perf_run.WORKLOADS)
    assert set(FAULTS) == set(perf_run.WORKLOADS)


@pytest.mark.parametrize("kind,index", [("end_to_end", 0), ("per_layer", 1)])
def test_every_declared_metric_is_emitted_with_its_unit(runs, perf_run,
                                                        kind, index):
    declared = _declared(kind)
    for workload, pair in runs.items():
        metrics = perf_run.with_units(pair[index]["values"], declared)
        assert list(metrics) == list(declared), workload
        for name, metric in metrics.items():
            assert metric["unit"] == declared[name]
            assert isinstance(metric["value"], (int, float)), (workload, name)
            assert math.isfinite(metric["value"]), (workload, name)


def test_end_to_end_metrics_are_never_zero(runs):
    for workload, (untraced, _) in runs.items():
        for name in _declared("end_to_end"):
            assert untraced["values"][name] > 0, (workload, name)


def test_runs_are_correct_and_complete(runs):
    for workload, (untraced, traced) in runs.items():
        assert untraced["problems"] == [] and untraced["correct"], workload
        assert traced["problems"] == [] and traced["correct"], workload
        assert untraced["attempted"] == CELLS[workload] * FAULTS[workload]
        assert untraced["failed"] == 0
        assert len(untraced["setup_samples"]) == 2


def test_traced_digest_equals_untraced(runs):
    for workload, (untraced, traced) in runs.items():
        assert traced["digest"] == untraced["digest"], workload


def test_spans_nest_with_non_negative_self_time(runs):
    for workload, (_, traced) in runs.items():
        doc = json.loads(open(traced["trace_file"]).read())
        spans = {s["id"]: s for s in doc["spans"]}
        roots = [s for s in spans.values() if s["parent"] is None]
        assert [s["name"] for s in roots] == ["workload"], workload
        faults = 0
        for span in spans.values():
            assert span["self"] >= 0, (workload, span["name"])
            for count, total, self_s in span["agg"].values():
                assert count > 0 and total >= 0 and self_s >= -1e-9
            if span["parent"] is None:
                continue
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] \
                <= parent["end"], (workload, span["name"])
            if span["name"].endswith(".fault"):
                faults += 1
                assert parent["fault"] is None
            elif parent["fault"] is not None:
                assert span["fault"] == parent["fault"]
        assert faults == CELLS[workload] * FAULTS[workload], workload
        coverage = traced["values"]["trace.coverage"]
        assert 0.5 < coverage <= 1.0, workload


def test_layers_attribute_work_to_the_right_workloads(runs):
    layers = {w: pair[1]["values"] for w, pair in runs.items()}
    assert layers["dsa"]["cpu.steps"] == 0
    assert layers["dsa"]["dataflow.ops"] > 0
    assert layers["cpu-permanent"]["checkpoint.restores"] == 0
    assert layers["cpu-transient"]["checkpoint.restores"] > 0
    assert layers["grid-liveness"]["liveness.queries"] > 0
    assert layers["cpu-transient"]["liveness.queries"] == 0
    for workload in ("cpu-transient", "cpu-permanent", "grid-liveness"):
        assert layers[workload]["cpu.steps"] > 0, workload
        assert layers[workload]["dataflow.runs"] == 0, workload


def test_pinned_digest_mismatch_is_reported(perf_run):
    assert perf_run.pinned_problems("dsa", 1, None, "0" * 64)
    assert perf_run.pinned_problems("dsa", 1, 3, "0" * 64) == []
    assert perf_run.pinned_problems("dsa", 7, None, "0" * 64) == []


def test_fails_without_simulator_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files the command exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "dsa",
         "--seed", "1", "--seconds", "15", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
