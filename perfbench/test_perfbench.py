"""Smoke tests of the benchmark itself: its spec, its workloads at tiny size, its command."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

import sparsebeam as sb
import sparsebeam.experiment as experiment
from tracing import WRAPPED, Trace, layer_metrics, tracing
from workloads import ROOT, WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _names(kind: str) -> list[str]:
    return [metric["name"] for metric in SPEC[kind]]


def test_spec_parses_and_names_are_valid():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [w["name"] for w in SPEC["workloads"]] + _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert all(0 < metric["bound"] <= 0.25 for metric in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_traced_study_matches_plain_study(name, tmp_path):
    workload = WORKLOADS[name]
    base = sb.parse_config(workload.config_path)
    sb.run_experiment(workload.study(base, 0, tmp_path / "plain", runs=1))

    originals = {name: getattr(experiment, name) for name in WRAPPED}
    trace = Trace()
    start = perf_counter()
    with tracing(trace):
        report = sb.run_experiment(workload.study(base, 0, tmp_path / "traced", runs=1))
    traced_s = perf_counter() - start
    assert {name: getattr(experiment, name) for name in WRAPPED} == originals

    assert report.total_failures == 0
    for csv in (tmp_path / "plain").iterdir():
        assert (tmp_path / "traced" / csv.name).read_bytes() == csv.read_bytes()
    metrics = layer_metrics([trace], [traced_s])
    # The worker adds the overhead and times parse_config around the study.
    expected = set(_names("per_layer")) - {"trace.overhead_frac", "experiment.parse_config.ms"}
    assert expected <= metrics.keys()
    assert all(math.isfinite(value) for value in metrics.values())
    assert metrics["experiment.self_s"] >= 0
    for method in ("mvdr", "sc", "wsc", "rmvb", "rwsc"):
        called = metrics[f"solvers.{method}.ms"] > 0
        assert called == (method in base.methods)
        if called:
            assert metrics[f"solvers.{method}.iterations"] >= 1


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run(
        RUN + ["--workload", "fig1", "--seed", "5", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == _names("end_to_end")
    assert result["metrics"]["csv_identical"]["value"] == 1.0
    assert "machine" in json.loads(proc.stdout.splitlines()[-2])


def test_command_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_solver_wrapper_counts_failures_and_reraises():
    def failing_solver(*args):
        raise sb.SolverError("no solution")

    trace = Trace()
    with pytest.raises(sb.SolverError):
        trace.wrap("solvers.rmvb", failing_solver)()
    assert trace.counts["solvers.rmvb.failures"] == 1
    assert [span[0] for span in trace.spans] == ["solvers.rmvb"]
