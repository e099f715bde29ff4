"""Checks of the benchmark itself.

Traced counts and sizes repeat exactly for a seed, the golden table covers
every row a seed can draw, the oracle rejects wrong answers, and the
command prints exactly the metrics BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import oracle
import speed
import workloads
from floersplice import homology, splice_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def golden():
    return oracle.load_golden()


@pytest.fixture(scope="module")
def complexes():
    import floersplice

    return workloads.build_complexes(floersplice)


def small_plan(name, seed, complexes):
    """The workload's plan cut to its four cheapest rows and a 3x3 survey."""
    plan = workloads.make_plan(name, seed, complexes)
    rows = sorted(plan.rows, key=lambda r: (abs(r.n1) + abs(r.n2), r.key))[:4]
    survey = plan.survey and (plan.survey[0], (-1, 1), plan.survey[2], (2, 4))
    return replace(plan, rows=rows, survey=survey)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat(name, golden, complexes):
    runs = []
    for _ in range(2):
        summary, _, tracer = harness.traced_run(small_plan(name, 11, complexes), golden)
        assert summary["failures"] == []
        assert tracer.spans and all(end >= start for _, start, end, _, _ in tracer.spans)
        runs.append({k: v for k, v in summary["metrics"].items()
                     if not k.endswith("_ms") and k != "trace.slowdown"})
    assert runs[0] == runs[1]
    assert runs[0]["typea.paths"] > 0 and runs[0]["boxtensor.dim"] > 0


def test_golden_covers_every_drawable_row(golden):
    for name in workloads.WORKLOADS:
        drawable = workloads.all_rows(name)
        assert {row.key for row in drawable} <= golden.keys(), name
        for seed in range(20):
            plan = workloads.make_plan(name, seed, {})
            assert set(plan.rows) <= drawable
            assert len(plan.rows) + len(plan.survey_rows()) >= 100


def test_seed_fixes_the_plan():
    a = workloads.make_plan("cfa_deep", 3, {})
    assert a.rows == workloads.make_plan("cfa_deep", 3, {}).rows
    assert a.rows != workloads.make_plan("cfa_deep", 4, {}).rows


def test_oracle_rejects_wrong_answers(golden, complexes):
    row = workloads.Row("trefoil", 3, "mirror_trefoil", -2)
    report = splice_report(complexes["trefoil"], 3, complexes["mirror_trefoil"], -2)
    assert oracle.check_report(row, report, golden) is None
    r0, r1 = report.computed.rank0, report.computed.rank1
    shifted = replace(report, computed=homology.GradedRanks(r0 + 1, r1 + 1))
    assert "golden" in oracle.check_report(row, shifted, golden)
    assert "Euler" in oracle.check_report(row, replace(report, computed=homology.GradedRanks(r0 + 1, r1)), golden)
    assert "disagrees" in oracle.check_report(row, replace(report, agree=False), golden)
    assert "report is for" in oracle.check_report(replace(row, n2=-3), report, golden)


def test_scale_uses_the_samples_around_a_call():
    s = speed.Speed()
    s.starts = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]
    s.durations = [0.9, 0.01, 0.01, 0.01, 0.02, 0.02, 0.02, 0.9]
    # a call begun at t=5 sits between the samples at 3 and 10
    assert s.scale_at(5.0) == pytest.approx(speed.REFERENCE_S / 0.015)


def test_depth_probes_are_reported(complexes):
    plan = workloads.make_plan("surgery_capped", 1, complexes)
    probes = harness.run_probes(plan)
    assert [p["row"] for p in probes] == [str(r) for r in workloads.DEPTH_PROBES]
    assert all(p["outcome"] for p in probes)


def declared(kind):
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


def test_command_prints_declared_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "box_wide",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared("end_to_end")


def test_traced_run_covers_declared_per_layer_metrics(golden, complexes):
    summary, _, _ = harness.traced_run(small_plan("box_wide", 1, complexes), golden)
    # run.py adds the probe count, which needs no tracing
    assert set(summary["metrics"]) | {"splice.depth_probe_failed"} == set(declared("per_layer"))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "box_wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
