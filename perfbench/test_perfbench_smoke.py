"""Harness check: tiny runs of every workload.

    python3 -m pytest -q perfbench/test_perfbench_smoke.py

Checks the result line against BENCHMARK.json (metric names and units),
the correctness gate, that the traced counters repeat exactly between
two runs with the same seed, the window of speed probes a job is
scaled by, and that the benchmark refuses to run without the weylg
sources.
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    return doc


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_gate(workload):
    doc = result(bench(workload, 0))
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_exactly(workload):
    first, second = (result(bench(workload, 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units("per_layer")
    for name, metric in first["metrics"].items():
        if metric["unit"] in ("count", "ratio"):
            assert metric["value"] == second["metrics"][name]["value"], name


def test_gate_rejects_wrong_answers():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import workloads
        from weylg.errors import ObjectLimitExceeded, WeylgError
    finally:
        del sys.path[:2]
    wrong = {
        "homology": lambda raw: type(raw)(raw.group, raw.level, raw.degree,
                                          raw.free_rank + 1, raw.torsion),
        "membership": lambda raw: (not raw[0], None),
        "closure": lambda raw: ObjectLimitExceeded("planted"),
    }
    for name in WORKLOADS:
        plan = workloads.build(name, 3, smoke=True)
        plan.reset()
        job = plan.jobs[0]
        try:
            raw = job.run()
        except WeylgError as exc:
            raw = exc
        assert job.check(raw) is None, (name, job.key)
        assert job.check(wrong[name](raw)) is not None, (name, job.key)


def test_scaling_uses_probes_within_a_job_length():
    sys.path.insert(0, str(HERE))
    try:
        import speed
    finally:
        del sys.path[0]
    probes = [(0.0, 1.0), (1.5, 1.0), (2.5, 3.0), (10.0, 2.0)]
    jobs = [(0.1, 1.0), (1.6, 2.4), (2.6, 9.9)]
    # the short jobs see the two probes next to them, the long one all four
    expected = [0.9 / 1.0, 0.8 / 2.0, 7.3 / 1.75]
    got = speed.scaled(jobs, probes)
    assert got == pytest.approx([speed.REFERENCE_S * e for e in expected])


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout
