"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

They check that every metric of BENCHMARK.json prints with its unit, that
the correctness checks reject corrupted outputs, that a call site the
wrappers miss fails the traced run, and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(tmp_path: Path, workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny",
         "--out", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)
    assert set(workloads.WORKLOADS) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(tmp_path, workload, trace):
    proc = _run(tmp_path, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    detail = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert detail["environment"]["seed"] == 3
    assert detail["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert all(s["outputs"] for s in detail["samples"])
    if trace:
        for name, want in detail["expected"].items():
            assert result["metrics"][name]["value"] == want, name
        assert (tmp_path / f"{workload}-seed3-trace1-spans.json").exists()


def _traced_op(workload, tracer: tracing.Tracer):
    tracer.install()
    try:
        first = tracer.begin_op(0)
        workload.prepare(0)
        result = workload.op(0)
        tracer.end_op(first)
    finally:
        tracer.restore()
    return result


def test_default_report_op_solves_21_times_at_1792_unknowns(tmp_path):
    workload = workloads.ReportSweep(5, tmp_path)
    tracer = tracing.Tracer()
    _traced_op(workload, tracer)
    layers = tracing.layer_metrics(tracer.spans, 1)
    assert layers["solver.solve_cross_section.calls"] == 21
    assert layers["solver.solve_cross_section.unknowns_max"] == 1792
    assert layers["geometry.interdigital_unit_cell.calls"] == 21
    workload.check(0, None)


def test_restore_puts_the_originals_back():
    import qsurfloss.lossmodel
    import qsurfloss.participation

    before = dict(qsurfloss.lossmodel.FITTERS)
    solve = qsurfloss.participation.solve_cross_section
    tracer = tracing.Tracer()
    tracer.install()
    assert qsurfloss.participation.solve_cross_section is not solve
    assert all(qsurfloss.lossmodel.FITTERS[k] is not v for k, v in before.items())
    tracer.restore()
    assert qsurfloss.participation.solve_cross_section is solve
    assert qsurfloss.lossmodel.FITTERS == before


def test_missed_wrapper_fails_the_traced_op(tmp_path):
    import qsurfloss.participation
    import qsurfloss.solver

    workload = workloads.ReportSweep(5, tmp_path, "tiny")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # a call site the wrappers did not reach
        qsurfloss.participation.solve_cross_section = qsurfloss.solver.__dict__[
            "solve_cross_section"].__wrapped__
        first = tracer.begin_op(0)
        workload.prepare(0)
        workload.op(0)
        with pytest.raises(tracing.TraceError, match="bypassed the wrappers"):
            tracer.end_op(first)
    finally:
        tracer.restore()


def test_report_check_rejects_a_non_monotone_sweep(tmp_path):
    workload = workloads.ReportSweep(5, tmp_path, "tiny")
    workload.prepare(0)
    workload.op(0)
    report = json.loads((workload.out_dir / "report.json").read_text())
    workloads.check_report(report, workload.sweep)
    points = report["sweep"]["points"]
    points[0]["p_sm"], points[1]["p_sm"] = points[1]["p_sm"], points[0]["p_sm"]
    with pytest.raises(workloads.CheckFailed, match="decreasing"):
        workloads.check_report(report, workload.sweep)


def test_report_check_rejects_a_fit_outside_its_band(tmp_path):
    workload = workloads.ReportSweep(5, tmp_path, "tiny")
    workload.prepare(0)
    workload.op(0)
    report = json.loads((workload.out_dir / "report.json").read_text())
    report["fits"]["sm+j"]["parameters"]["tan_d_j"] *= 2.0
    with pytest.raises(workloads.CheckFailed, match="tan_d_j"):
        workloads.check_report(report, workload.sweep)


def test_analysis_check_rejects_a_device_table_with_a_perturbed_q(tmp_path):
    workload = workloads.MeasurementAnalysis(5, tmp_path, "tiny")
    workload.prepare(0)
    result = workload.op(0)
    workload.check(0, result)
    with open(workload.table_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("q_mean_1e6")
    rows[3][column] = f"{float(rows[3][column]) * 1.2:.10g}"
    with open(workload.table_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(workloads.CheckFailed, match="from T1 and T_Purcell"):
        workload.check(0, result)


def test_solution_check_rejects_a_flipped_gap_field(tmp_path):
    workload = workloads.SolveGeneral(5, tmp_path, "tiny")
    workload.prepare(0)
    geom, sol, pset, volts = workload.op(0)
    workload.check(0, (geom, sol, pset, volts))
    with pytest.raises(workloads.CheckFailed, match="gap voltage"):
        workload.check(0, (geom, sol, pset, [-v for v in volts]))


def test_run_without_the_package_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "out", "solve_general", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
