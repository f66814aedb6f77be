import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
import types
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsurfloss
from qsurfloss import (
    DEFAULT_SM_SPEC,
    InvalidInputError,
    LossFitResult,
    LossModel,
    PipelineConfig,
    PurcellParams,
    QSurfLossError,
    SweepConfig,
    Weighting,
    cutoff_sensitivity,
    fit_exponential,
    group_for_fit,
    interdigital_unit_cell,
    participation_set,
    run_pipeline,
    save_device_table,
    solve_cross_section,
)
from qsurfloss import pipeline
from qsurfloss.cli import main
from qsurfloss.solver import FieldSolution
from qsurfloss.dataio import COLUMNS, _table_row
from qsurfloss.errors import MAX_JSON_DEPTH, read_json, write_csv
from qsurfloss.pipeline import MAX_SWEEP_POINTS
from test_dataio import valid_records
from test_qubitfit import arbitrary_traces

EXPECTED_FIT_CSVS = {"q_vs_psm.csv", "q_vs_normalized_pr.csv", "q_model_surface.csv"}


def make_degenerate_table(path):
    """All rows share one p_sm value: the Q0 fit design is collinear."""
    rows = [
        f"X{i}-1,dumbbell_2d,4.0,6.0,40,{100 + 10 * i},5.0,10.0,"
        f"{2.0 + 0.1 * i},0.2,1.0,0.5"
        for i in range(4)
    ]
    path.write_text(",".join(COLUMNS) + "\n" + "\n".join(rows) + "\n")


def make_edited_table(records, path, edits):
    """Save ``records`` and then set each ``(row, column, text)`` cell of
    ``edits``; row 0 is the first record."""
    save_device_table(records, path)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    for row, column, text in edits:
        rows[row][COLUMNS.index(column)] = text
    path.write_text("\n".join(",".join(cells) for cells in [header, *rows]) + "\n",
                    encoding="utf-8")


def make_rising_q_table(path, n_rows=5):
    """Q rises with p_sm: the sm+j fit clamps tan_d_sm to zero."""
    rows = [
        f"X{i}-1,dumbbell_2d,4.0,6.0,40,100,5.0,10.0,{1.0 + 0.5 * i},0.1,"
        f"{5.0 + 5 * i},{1.0 + 0.3 * (i % 2)}"
        for i in range(n_rows)
    ]
    path.write_text(",".join(COLUMNS) + "\n" + "\n".join(rows) + "\n")


class TestRunPipeline:
    def test_default_run_produces_fits_in_range(self, tmp_path):
        config = PipelineConfig(output_dir=str(tmp_path / "out"))
        report = run_pipeline(config)
        assert report["status"] == "ok"
        assert report["n_devices"] == 32
        assert report["n_fit_points"] == 24
        sm_j = report["fits"]["sm+j"]["parameters"]
        assert 7.1e-4 <= sm_j["tan_d_sm"] <= 1.07e-3
        assert 2.8e-3 <= sm_j["tan_d_j"] <= 4.2e-3
        sm_q0 = report["fits"]["sm+q0"]["parameters"]
        assert 6.6e-4 <= sm_q0["tan_d_sm"] <= 1.0e-3
        assert 5.7e6 <= sm_q0["q0"] <= 8.5e6
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert EXPECTED_FIT_CSVS | {"report.json"} <= names
        surface = (tmp_path / "out" / "q_model_surface.csv").read_text()
        assert len(surface.splitlines()) == 1 + 25 * 25

    def test_reports_are_byte_identical(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run_pipeline(PipelineConfig(output_dir=str(out)))
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_empty_dataset_writes_nothing(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(COLUMNS) + "\n")
        out = tmp_path / "out"
        config = PipelineConfig(dataset=str(empty), output_dir=str(out))
        with pytest.raises(InvalidInputError, match="^no records to group$"):
            run_pipeline(config)
        assert not out.exists()

    def test_sweep_only_emits_only_the_sweep(self, tmp_path):
        out = tmp_path / "out"
        config = PipelineConfig(
            models=(),
            output_dir=str(out),
            sweep=SweepConfig(width_min_um=2.0, width_max_um=4.0, points=2),
        )
        report = run_pipeline(config)
        assert report["status"] == "ok"
        names = {p.name for p in out.iterdir()}
        assert names == {"psm_width_sweep.csv", "report.json"}
        widths = [p["width_um"] for p in report["sweep"]["points"]]
        assert widths == [2.0, 4.0]
        sensitivity = report["sweep"]["cutoff_sensitivity"]["values"]
        assert [v["cutoff_um"] for v in sensitivity] == [0.05, 0.1, 0.2]
        p_sms = [v["p_sm"] for v in sensitivity]
        assert p_sms[0] > p_sms[1] > p_sms[2] > 0

    def test_cutoff_block_matches_a_direct_solve(self, tmp_path):
        """The block is the infinite array in closed form; the solved center
        cell of a 41-finger array at the block's 10 um width, copied at each
        cutoff, must agree to 0.5 % (measured -0.27 %, -0.28 %, -0.30 %)."""
        config = PipelineConfig(
            models=(),
            output_dir=str(tmp_path / "out"),
            sweep=SweepConfig(width_min_um=2.0, width_max_um=12.0, points=2),
        )
        block = run_pipeline(config)["sweep"]["cutoff_sensitivity"]
        assert block["width_um"] == 10.0
        sol = solve_cross_section(
            interdigital_unit_cell(10.0, 41, discretization=16)
        )
        assert [entry["cutoff_um"] for entry in block["values"]] == [0.05, 0.1, 0.2]
        for entry in block["values"]:
            at_c = replace(sol, geometry=replace(sol.geometry,
                                                 edge_cutoff=entry["cutoff_um"]))
            solved = participation_set(at_c, [DEFAULT_SM_SPEC]).p_sm
            assert entry["p_sm"] == pytest.approx(solved, rel=5e-3)

    @pytest.mark.parametrize("cutoff_um", [None, 0.02], ids=["scaled", "fixed"])
    @pytest.mark.parametrize("width_min_um, width_max_um",
                             [(1.0, 20.0), (2.0, 7.5), (0.1, 0.3)])
    def test_cutoff_block_is_cutoff_sensitivity(
            self, tmp_path, cutoff_um, width_min_um, width_max_um):
        """The report's block is the public closed form at its width, to
        the bit, whichever cutoff the sweep itself uses."""
        sweep = SweepConfig(width_min_um=width_min_um, width_max_um=width_max_um,
                            points=3, t_sm_nm=0.7, eps_sm_rel=9.0, cutoff_um=cutoff_um)
        report = run_pipeline(PipelineConfig(
            models=(), output_dir=str(tmp_path / "out"), sweep=sweep))
        block = report["sweep"]["cutoff_sensitivity"]
        want = cutoff_sensitivity(block["width_um"], sweep.spec)
        assert [(v["cutoff_um"], v["p_sm"].hex()) for v in block["values"]] == [
            (c, p.hex()) for c, p in want]

    @pytest.mark.parametrize("width_max_um, block_width_um",
                             [(0.3, 0.5), (0.4, 0.5), (0.45, 0.45)])
    def test_narrow_sweep_takes_the_cutoff_block_at_half_a_micron(
            self, tmp_path, width_max_um, block_width_um):
        """At 0.4 um and below, the 0.2 um cutoff leaves the half cell, so a
        sweep that ends there carries the closed-form block at 0.5 um; one
        that ends above 0.4 um keeps it at its last width."""
        report = run_pipeline(PipelineConfig(
            models=(),
            output_dir=str(tmp_path / "out"),
            sweep=SweepConfig(width_min_um=0.1, width_max_um=width_max_um,
                              points=3),
        ))
        assert report["status"] == "ok", report["errors"]
        block = report["sweep"]["cutoff_sensitivity"]
        assert block["width_um"] == block_width_um
        assert [v["cutoff_um"] for v in block["values"]] == [0.05, 0.1, 0.2]
        assert all(v["p_sm"] > 0 for v in block["values"])

    def test_failed_sweep_solve_still_writes_report(self, tmp_path):
        """A 3 um layer leaves [0, 1] at every width and in the cutoff block."""
        out = tmp_path / "out"
        config = PipelineConfig(
            models=(),
            output_dir=str(out),
            sweep=SweepConfig(width_min_um=2.0, width_max_um=4.0, points=2,
                              t_sm_nm=3000.0),
        )
        report = run_pipeline(config)
        assert report["status"] == "partial"
        assert [e["stage"] for e in report["errors"]] == [
            "sweep", "sweep.cutoff_sensitivity"]
        assert report["errors"][0]["error"] == "failed at width 2, 4 um"
        broken = "outside [0, 1]; the thin-layer approximation has broken down"
        assert broken in report["errors"][1]["error"]
        assert all(broken in p["error"] and p["p_sm"] is None
                   for p in report["sweep"]["points"])
        assert "cutoff_sensitivity" not in report["sweep"]
        assert report["outputs"][0] == {"path": "psm_width_sweep.csv",
                                        "kind": "psm_width_sweep",
                                        "status": "partial"}
        written = json.loads((out / "report.json").read_text())
        assert written["status"] == "partial"

    def test_report_sweep_builds_no_field_solution(self, tmp_path, monkeypatch):
        built = []
        real_init = FieldSolution.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(FieldSolution, "__init__", counted)
        solve_cross_section(interdigital_unit_cell(1.0, 5, discretization=8))
        assert len(built) == 1  # the counter sees a solve
        out = tmp_path / "out"
        result = _run_report(tmp_path, json.dumps({
            "output_dir": str(out),
            "sweep": {"width_min_um": 1.0, "width_max_um": 17.0, "points": 20},
        }))
        assert result.exit_code == 0, result.output
        assert len(built) == 1
        assert (out / "psm_width_sweep.csv").exists()

    @pytest.mark.parametrize("cutoff_um, message", [
        (0.0, "edge_cutoff must be > 0 against a width of 2.0 um"),
        (0.6, "edge_cutoff must lie in [0, 0.5) um, got 0.6"),
    ], ids=["zero", "half-width"])
    def test_bad_fixed_cutoff_is_a_bad_config(self, tmp_path, cutoff_um, message):
        """Each used to pass the config and fail the sweep stage."""
        out = tmp_path / "out"
        result = _run_report(tmp_path, json.dumps({
            "models": [], "output_dir": str(out),
            "sweep": {"width_min_um": 1.0, "width_max_um": 2.0, "points": 2,
                      "cutoff_um": cutoff_um},
        }))
        _assert_one_line_error(result, f"bad config {tmp_path / 'cfg.json'}: {message}")
        assert not out.exists()

    def test_a_cutoff_that_rounds_to_0_at_the_widest_width_is_refused_when_built(
            self):
        """It used to pass the config and fail the ``sweep`` stage of a run
        that had written ``report.json``."""
        with pytest.raises(InvalidInputError, match=re.escape(
                "edge_cutoff must be > 0 against a width of 20.0 um")):
            SweepConfig(width_min_um=1.0, width_max_um=20.0, points=2,
                        cutoff_um=5e-324)

    def test_a_one_point_sweep_takes_a_cutoff_against_its_one_width(self):
        """One point is taken at width_min_um alone, so a cutoff whose ratio
        to width_max_um rounds to 0 still serves it."""
        [point] = SweepConfig(width_min_um=1.0, width_max_um=20.0, points=1,
                              cutoff_um=1e-323).run()
        assert point.width_um == 1.0 and point.error is None

    @pytest.mark.parametrize("width_max_um", [1, 5], ids=["descending", "equal"])
    def test_a_sweep_range_that_does_not_ascend_is_refused_naming_both_bounds(
            self, width_max_um):
        """It used to be refused by the ``sweep`` stage of a run that had
        written its fits and ``report.json``."""
        message = f"sweep width_max_um = {width_max_um:.1f} must be > width_min_um = 5.0"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            SweepConfig(width_min_um=5, width_max_um=width_max_um)

    def test_writer_failure_is_a_stage_error(self, tmp_path):
        """A clamped tan_d_sm makes the normalized-participation writer fail;
        the run still writes report.json and lists no half-written file."""
        table = tmp_path / "devices.csv"
        make_rising_q_table(table)
        out = tmp_path / "out"
        report = run_pipeline(PipelineConfig(
            dataset=str(table), models=("sm+j",), grouping="per_device",
            output_dir=str(out),
        ))
        assert report["fits"]["sm+j"]["parameters"]["tan_d_sm"] == 0.0
        assert report["status"] == "partial"
        assert report["errors"] == [{"stage": "write[q_vs_normalized_pr]",
                                     "error": "tan_d_sm must be > 0 to normalize"}]
        listed = {entry["path"] for entry in report["outputs"]}
        assert listed == {"q_vs_psm.csv", "q_model_surface.csv", "report.json"}
        assert {p.name for p in out.iterdir()} == listed

    def test_half_written_file_of_a_failed_writer_is_removed(self, tmp_path,
                                                             monkeypatch):
        """A writer that creates its file and then fails leaves no file
        behind; the failure is a stage error and the file is not listed."""
        def half_write(points, fit, path):
            path.write_text("p_sm,p_j,q_model\r\n1e-05,")
            raise InvalidInputError("failed half-way")

        monkeypatch.setattr(pipeline, "_write_model_surface", half_write)
        out = tmp_path / "out"
        report = run_pipeline(PipelineConfig(output_dir=str(out)))
        assert report["errors"] == [{"stage": "write[q_model_surface]",
                                     "error": "failed half-way"}]
        listed = {entry["path"] for entry in report["outputs"]}
        assert listed == {"q_vs_psm.csv", "q_vs_normalized_pr.csv", "report.json"}
        assert {p.name for p in out.iterdir()} == listed

    @pytest.mark.parametrize("tan_d_sm, tan_d_j, failed", [
        (1e-310, 0.0, ["q_vs_psm", "q_vs_normalized_pr", "q_model_surface"]),
        (1e-300, 1e10, ["q_vs_normalized_pr"]),
    ])
    def test_extreme_fit_fails_each_model_table(self, tmp_path, monkeypatch,
                                                tan_d_sm, tan_d_j, failed):
        """An sm+j fit whose modeled Q or normalized PR leaves the float
        range fails the tables that hold it, each a stage error with no
        file; the others are written."""
        fit = LossFitResult(LossModel.SM_PLUS_J, tan_d_sm=tan_d_sm, tan_d_j=tan_d_j)
        monkeypatch.setitem(pipeline.FITTERS, LossModel.SM_PLUS_J,
                            lambda points, weighting: fit)
        out = tmp_path / "out"
        report = run_pipeline(PipelineConfig(models=("sm+j",), output_dir=str(out)))
        assert [e["stage"] for e in report["errors"]] == [
            f"write[{kind}]" for kind in failed]
        assert all("is not a finite float" in e["error"] for e in report["errors"])
        listed = {entry["path"] for entry in report["outputs"]}
        assert listed == EXPECTED_FIT_CSVS - {f"{kind}.csv" for kind in failed} | {
            "report.json"}
        assert {p.name for p in out.iterdir()} == listed

    def test_point_without_a_finite_inverse_q_fails_the_fit(self, records,
                                                            tmp_path):
        """A q_mean of 5e-324 (file units) used to give status ok with null
        parameters."""
        table = tmp_path / "devices.csv"
        make_edited_table(records, table, [(0, "q_mean_1e6", "5e-324")])
        out = tmp_path / "out"
        result = _run_report(tmp_path, json.dumps({
            "dataset": str(table), "models": ["sm+q0"], "weighting": "none",
            "grouping": "per_device", "output_dir": str(out)}))
        assert result.exit_code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "partial"
        assert report["fits"] == {}
        assert report["errors"] == [{
            "stage": "fit[sm+q0]",
            "error": "1/Q of point 'D1-1' is not a finite float"}]

    def test_six_row_table_of_extremes_fails_each_fit(self, records, tmp_path):
        """Such a q_mean among p_sm of 2.3e-98 and 2.3e6 (file units) used to
        give the sm+q0 fit a Q0 of 0 and end in a raw ZeroDivisionError, with
        no report.json."""
        table = tmp_path / "devices.csv"
        make_edited_table(records[:6], table, [
            (0, "q_mean_1e6", "5e-324"), (1, "p_sm_1e4", "2.3e-98"),
            (2, "p_sm_1e4", "2.3e6")])
        out = tmp_path / "out"
        result = _run_report(tmp_path, json.dumps({
            "dataset": str(table), "models": ["sm+q0", "sm"], "weighting": "none",
            "grouping": "per_device", "output_dir": str(out)}))
        assert result.exit_code == 1
        report = json.loads((out / "report.json").read_text())
        assert [e["stage"] for e in report["errors"]] == ["fit[sm+q0]", "fit[sm]"]
        assert {p.name for p in out.iterdir()} == {"report.json"}

    def test_degenerate_fit_marks_report_partial(self, tmp_path):
        table = tmp_path / "devices.csv"
        make_degenerate_table(table)
        config = PipelineConfig(
            dataset=str(table),
            models=("sm+q0",),
            output_dir=str(tmp_path / "out"),
        )
        report = run_pipeline(config)
        assert report["status"] == "partial"
        assert report["errors"][0]["stage"] == "fit[sm+q0]"

    def test_config_from_json(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "models": ["sm+j"],
            "weighting": "none",
            "grouping": "per_device",
            "output_dir": str(tmp_path / "out"),
        }))
        config = PipelineConfig.from_json(cfg_path)
        assert config.models == ("sm+j",)
        report = run_pipeline(config)
        assert report["n_fit_points"] == 32

    def test_bad_config_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"models": ["sm+cubic"]}))
        with pytest.raises(ValueError):
            PipelineConfig.from_json(cfg_path)

    @pytest.mark.parametrize("door, kwargs, message", [
        (PipelineConfig, {"models": ("sm+cubic",)}, "unknown LossModel 'sm+cubic'"),
        (PipelineConfig, {"weighting": "uniform"}, "unknown Weighting 'uniform'"),
        (PipelineConfig, {"grouping": "per_wafer"}, "unknown Grouping 'per_wafer'"),
        # the choice is checked first: the records and the trace are not read
        (group_for_fit, {"records": [], "mode": "per_wafer"},
         "unknown Grouping 'per_wafer'"),
        (fit_exponential, {"trace": None, "loss": "bogus"}, "unknown T1Loss 'bogus'"),
        # an int over the int-to-str digit limit used to end in a raw ValueError
        (PipelineConfig, {"models": [10**5000]},
         "unknown LossModel an int of 5001 digits"),
        (PipelineConfig, {"weighting": 10**5000},
         "unknown Weighting an int of 5001 digits"),
        (PipelineConfig, {"grouping": 10**5000},
         "unknown Grouping an int of 5001 digits"),
        (PipelineConfig, {"dataset": 10**5000},
         "dataset must be a path or None, got an int of 5001 digits"),
        # a str over 60 characters used to be shown as "an object of type str"
        (PipelineConfig, {"weighting": "inverse_variance_weighting_with_the_"
                                       "published_round_statistics_spread"},
         "unknown Weighting 'inverse_variance_weighting_with_the_published_round_stat..."),
    ])
    def test_unknown_enum_value_is_invalid_input(self, tmp_path, door, kwargs, message):
        """Every named choice is refused where it enters, by the one option
        door, as ``unknown <kind> <value>``, and a ``dataset`` that is not a
        path by the config's type table; a report config before anything
        is written."""
        out = tmp_path / "out"
        if door is PipelineConfig:
            kwargs = {**kwargs, "output_dir": str(out)}
        with pytest.raises(InvalidInputError) as info:
            door(**kwargs)
        assert str(info.value) == message
        assert not out.exists()

    def test_failed_sweep_point_fails_the_run(self, tmp_path):
        """A 300 nm layer breaks the thin-layer bound only at 0.5 um."""
        out = tmp_path / "out"
        result = _run_report(tmp_path, json.dumps({
            "models": [],
            "output_dir": str(out),
            "sweep": {"width_min_um": 0.5, "width_max_um": 20.0, "points": 4,
                      "t_sm_nm": 300.0},
        }))
        assert result.exit_code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "partial"
        assert report["errors"] == [{"stage": "sweep",
                                     "error": "failed at width 0.5 um"}]
        errors = [p["error"] is not None for p in report["sweep"]["points"]]
        assert errors == [True, False, False, False]
        assert "cutoff_sensitivity" in report["sweep"]

    def test_one_row_table_fails_every_fit(self, tmp_path):
        """Too few points is an input error of the fit, not of the run: each
        model becomes a fit stage error and report.json is still written."""
        table = tmp_path / "devices.csv"
        make_rising_q_table(table, n_rows=1)
        out = tmp_path / "out"
        result = _run_report(tmp_path, json.dumps({
            "dataset": str(table), "models": ["sm+j", "sm+q0"],
            "output_dir": str(out),
        }))
        assert result.exit_code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "partial"
        assert report["fits"] == {}
        message = "need at least 2 points for a 2-parameter fit"
        assert report["errors"] == [{"stage": "fit[sm+j]", "error": message},
                                    {"stage": "fit[sm+q0]", "error": message}]
        assert {p.name for p in out.iterdir()} == {"report.json"}

    def test_invvar_without_spread_fails_the_fit(self, tmp_path):
        """Per device, the ten bundled D8/D9 devices publish no q_std, so an
        inverse-variance fit has no weight for them."""
        out = tmp_path / "out"
        result = _run_report(tmp_path, json.dumps({
            "models": ["sm+j"], "grouping": "per_device", "output_dir": str(out),
        }))
        assert result.exit_code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "partial"
        assert report["n_fit_points"] == 32
        assert report["fits"] == {}
        assert report["errors"] == [{
            "stage": "fit[sm+j]",
            "error": "inverse-variance weighting needs a q_std > 0 on every "
                     "point; 10 of 32 have none ('D8-1', 'D8-2', 'D8-3', ...); "
                     "use weighting 'none'",
        }]


class TestBlockedReportFiles:
    """A directory where the report bundle puts a file: a CSV becomes a
    stage error, report.json one error line (both used to end in a raw
    IsADirectoryError, without report.json)."""

    @pytest.mark.parametrize("kind", ["q_vs_psm", "q_vs_normalized_pr",
                                      "q_model_surface", "psm_width_sweep"])
    def test_blocked_csv_is_a_stage_error(self, tmp_path, kind):
        out = tmp_path / "out"
        (out / f"{kind}.csv").mkdir(parents=True)
        result = _run_report(tmp_path, json.dumps({
            "output_dir": str(out),
            "sweep": {"width_min_um": 1.0, "width_max_um": 2.0, "points": 2}}))
        assert result.exit_code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "partial"
        assert [e["stage"] for e in report["errors"]] == [f"write[{kind}]"]
        assert report["errors"][0]["error"] == (
            f"cannot write {out / f'{kind}.csv'}: Is a directory")
        assert {e["path"] for e in report["outputs"]} == {
            "q_vs_psm.csv", "q_vs_normalized_pr.csv", "q_model_surface.csv",
            "psm_width_sweep.csv", "report.json"} - {f"{kind}.csv"}
        assert (out / f"{kind}.csv").is_dir()

    def test_blocked_report_json_is_one_error_line(self, tmp_path):
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        result = _run_report(tmp_path, json.dumps({"output_dir": str(out)}))
        _assert_one_line_error(
            result, f"cannot write {out / 'report.json'}: Is a directory")


def _run_report(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    return CliRunner().invoke(main, ["report", "--config", str(cfg)])


def _assert_one_line_error(result, match):
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert match in lines[0]


def _t1_files(tmp_path, depth):
    """Write a decay trace and a sidecar nested ``depth`` deep; return their
    paths and a ``--out`` path."""
    trace, meta = tmp_path / "trace.csv", tmp_path / "meta.json"
    trace.write_text("delay_us,population\n" + "\n".join(
        f"{t},{np.exp(-t / 50.0)}" for t in range(0, 100, 10)))
    meta.write_text('{"nested": ' + "[" * (depth - 1) + "1.5" + "]" * (depth - 1) + "}")
    return trace, meta, tmp_path / "t1.json"


class TestConfigErrors:
    def test_malformed_json(self, tmp_path):
        result = _run_report(tmp_path, '{"models": ["sm+j",]')
        _assert_one_line_error(result, "Expecting value")

    def test_deeply_nested_json(self, tmp_path):
        """It used to print a RecursionError traceback."""
        result = _run_report(tmp_path, "[" * 100000)
        _assert_one_line_error(result, "nested deeper than 16 arrays")
        assert f"bad config {tmp_path / 'cfg.json'}: " in result.output

    def test_unknown_sweep_key(self, tmp_path):
        result = _run_report(tmp_path, json.dumps({
            "output_dir": str(tmp_path / "out"),
            "sweep": {"width_min_um": 1.0, "pionts": 3},
        }))
        _assert_one_line_error(result, "unexpected keyword argument 'pionts'")

    @pytest.mark.parametrize("output_dir", [5, None])
    def test_output_dir_must_be_a_path(self, tmp_path, output_dir):
        result = _run_report(tmp_path, json.dumps({"output_dir": output_dir}))
        _assert_one_line_error(result, "bad config")
        assert f"output_dir must be a path, got {output_dir!r}" in result.output
        with pytest.raises(InvalidInputError, match="output_dir must be a path"):
            run_pipeline(PipelineConfig(output_dir=output_dir))

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
    def test_output_dir_blocked_by_a_file(self, tmp_path, below):
        """An output_dir that is a file, or lies under one, is one error line
        naming the path, not a traceback."""
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / below if below else blocker
        result = _run_report(tmp_path, json.dumps({"output_dir": str(out)}))
        _assert_one_line_error(result, f"cannot create output_dir {str(out)!r}")
        with pytest.raises(InvalidInputError, match="cannot create output_dir"):
            run_pipeline(PipelineConfig(output_dir=str(out)))
        assert blocker.read_text() == ""

    def test_sweep_points_are_bounded(self, tmp_path):
        """Each sweep point costs a row of the CSV and of report.json;
        MAX_SWEEP_POINTS bounds them in a config and in the Python API."""
        message = f"sweep points must be an integer in [1, {MAX_SWEEP_POINTS}], got "
        result = _run_report(tmp_path, json.dumps({
            "output_dir": str(tmp_path / "out"),
            "sweep": {"points": MAX_SWEEP_POINTS + 1},
        }))
        _assert_one_line_error(result, message + str(MAX_SWEEP_POINTS + 1))
        assert not (tmp_path / "out").exists()
        with pytest.raises(InvalidInputError, match=re.escape(message + "100000000")):
            SweepConfig(points=10**8)
        assert len(SweepConfig(points=MAX_SWEEP_POINTS).widths()) == (
            MAX_SWEEP_POINTS)

    def test_zero_sweep_points_is_a_bad_config(self, tmp_path):
        """Zero points used to pass the config; the fits ran and wrote their
        CSVs, and only the sweep stage failed, with 'bad sweep range'."""
        result = _run_report(tmp_path, json.dumps({
            "output_dir": str(tmp_path / "out"), "sweep": {"points": 0},
        }))
        _assert_one_line_error(result, "bad config")
        assert "sweep points must be an integer in [1, 10000], got 0" in result.output
        assert not (tmp_path / "out").exists()

    def test_surface_grid_points_is_not_a_config_key(self, tmp_path):
        """The model surface is a fixed 25 x 25 grid."""
        result = _run_report(tmp_path, json.dumps({
            "surface_grid_points": 25, "output_dir": str(tmp_path / "out"),
        }))
        _assert_one_line_error(result, "bad config")
        assert "unexpected keyword argument 'surface_grid_points'" in result.output
        assert not (tmp_path / "out").exists()

    def test_sweep_config_checks_its_own_types(self):
        with pytest.raises(InvalidInputError, match=re.escape(
                "sweep points must be an integer in [1, 10000], got '3'")):
            SweepConfig(points="3").run()
        with pytest.raises(InvalidInputError,
                           match="sweep width_max_um must be finite, got inf"):
            SweepConfig(width_max_um=float("inf"))

    @pytest.mark.parametrize("field, noun", [
        ("points", "an integer in [1, 10000]"), ("width_max_um", "finite"),
        ("t_sm_nm", "finite"), ("cutoff_um", "finite"),
    ])
    @pytest.mark.parametrize("value", [10**5000, -(10**5000)],
                             ids=["int1e5000", "-int1e5000"])
    def test_overlong_int_sweep_field_rejected(self, field, noun, value):
        """An int of more than 4300 digits is shown by its digit count; the
        message used to end in the int-to-str ValueError."""
        with pytest.raises(InvalidInputError, match=re.escape(
                f"sweep {field} must be {noun}, got an int of 5001 digits")):
            SweepConfig(**{field: value})

    def test_unknown_top_level_key(self, tmp_path):
        result = _run_report(tmp_path, json.dumps({
            "modles": ["sm+j"],
            "output_dir": str(tmp_path / "out"),
        }))
        _assert_one_line_error(result, "unexpected keyword argument 'modles'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sweep, message", [
        ({"points": "3"}, "sweep points must be an integer in [1, 10000], got '3'"),
        ({"points": 3.0}, "sweep points must be an integer in [1, 10000], got 3.0"),
        ({"width_max_um": None}, "sweep width_max_um must be finite, got None"),
        ({"eps_sm_rel": [10]}, "sweep eps_sm_rel must be finite, got [10]"),
        ({"width_min_um": "1"}, "sweep width_min_um must be finite, got '1'"),
        ({"t_sm_nm": False}, "sweep t_sm_nm must be finite, got False"),
        ({"cutoff_um": "0.1"}, "sweep cutoff_um must be finite, got '0.1'"),
        ({"t_sm_nm": math.inf}, "sweep t_sm_nm must be finite, got inf"),
    ])
    def test_wrongly_typed_sweep_field(self, tmp_path, sweep, message):
        result = _run_report(tmp_path, json.dumps({
            "output_dir": str(tmp_path / "out"), "sweep": sweep,
        }))
        _assert_one_line_error(result, "bad config")
        assert message in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sweep, message", [
        ({"t_sm_nm": 0}, "layer thickness_nm must be finite and > 0, got 0.0"),
        ({"eps_sm_rel": 0.5}, "layer eps_rel must be finite and >= 1, got 0.5"),
        ({"width_min_um": 0.01},
         "gap/finger width must lie in [0.1, 100] um, got 0.01"),
        ({"width_min_um": 5, "width_max_um": 1},
         "sweep width_max_um = 1.0 must be > width_min_um = 5.0"),
        ({"cutoff_um": 5, "width_min_um": 1},
         "edge_cutoff must lie in [0, 0.5) um, got 5.0"),
        ({"cutoff_um": 5e-324, "width_min_um": 1, "width_max_um": 20},
         "edge_cutoff must be > 0 against a width of 20.0 um: "),
        ({"width_min_um": 1, "width_max_um": 1.0000000000000002, "points": 3},
         "widths must be strictly ascending"),
    ], ids=["zero-layer", "thin-permittivity", "narrow-width", "descending",
            "half-width-cutoff", "cutoff-rounds-to-0", "widths-round-to-equal"])
    def test_a_sweep_the_run_cannot_take_is_a_bad_config(self, tmp_path, sweep,
                                                          message):
        """Each used to pass the config: the run fitted, wrote three CSVs and
        ``report.json``, and only then failed the ``sweep`` stage."""
        out = tmp_path / "out"
        result = _run_report(tmp_path, json.dumps({
            "output_dir": str(out), "sweep": sweep}))
        _assert_one_line_error(result, f"bad config {tmp_path / 'cfg.json'}: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["models", "output_dir", "sweep.t_sm_nm"])
    def test_a_built_config_cannot_be_changed(self, tmp_path, field):
        """The run takes the config as it was checked when built; the sweep's
        layer is built then too, so a later t_sm_nm would not reach it."""
        config = PipelineConfig(models=[], output_dir=str(tmp_path),
                                sweep=SweepConfig())
        *owner, name = field.split(".")
        with pytest.raises(FrozenInstanceError):
            setattr(config.sweep if owner else config, name, 0)

    def test_typed_sweep_fields_accepted(self, tmp_path):
        """The finite-array keys ``n_fingers`` and ``elements_per_strip`` are
        retired: accepted and ignored, whatever their value."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {
            "width_min_um": 1, "width_max_um": 2.5, "points": 2,
            "cutoff_um": None, "n_fingers": True, "elements_per_strip": [64],
        }}))
        sweep = PipelineConfig.from_json(cfg).sweep
        assert sweep == SweepConfig(width_min_um=1, width_max_um=2.5, points=2)
        assert sweep.widths() == [1.0, 2.5]

    def test_empty_sweep_runs_the_default_sweep(self, tmp_path):
        """``"sweep": {}`` used to be dropped as falsy, so no sweep ran and
        no ``psm_width_sweep.csv`` was written."""
        out = tmp_path / "out"
        result = _run_report(tmp_path, json.dumps({
            "models": [], "output_dir": str(out), "sweep": {}}))
        assert result.exit_code == 0, result.output
        report = json.loads((out / "report.json").read_text())
        assert len(report["sweep"]["points"]) == SweepConfig().points
        rows = (out / "psm_width_sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + SweepConfig().points

    @pytest.mark.parametrize("sweep", [[], 0, False], ids=["list", "zero", "false"])
    def test_sweep_that_is_not_an_object_is_refused(self, tmp_path, sweep):
        """Each used to be dropped as falsy, so the run went on without a
        sweep; it is refused as a config whose sweep is not an object."""
        result = _run_report(tmp_path, json.dumps({
            "output_dir": str(tmp_path / "out"), "sweep": sweep}))
        _assert_one_line_error(result, "bad config")
        assert (f"'{type(sweep).__name__}' object has no attribute 'items'"
                in result.output)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("models", ["sm+j", {"sm+j": 1}], ids=["str", "object"])
    def test_models_that_is_not_a_list_is_refused(self, tmp_path, models):
        """A string used to be split into its characters, and refused as
        the unknown model 's'; an object was read as the list of its keys."""
        result = _run_report(tmp_path, json.dumps({
            "models": models, "output_dir": str(tmp_path / "out")}))
        _assert_one_line_error(result, "bad config")
        assert f"models must be a list, got {models!r}" in result.output
        assert not (tmp_path / "out").exists()

    def test_repeated_model_is_refused(self, tmp_path):
        """``sm`` listed twice used to be fitted twice, the second fit
        replacing the first, and the report read ``ok``."""
        out = tmp_path / "out"
        result = _run_report(tmp_path, json.dumps({
            "models": ["sm", "sm", "sm+j"], "output_dir": str(out)}))
        _assert_one_line_error(result, f"bad config {tmp_path / 'cfg.json'}: "
                                       "models lists 'sm' more than once")
        assert not out.exists()

    @pytest.mark.parametrize("sweep, shown", [
        ({"points": 3}, "{'points': 3}"),
        ({"points": 10**5000}, "an object of type dict")], ids=["dict", "long-int"])
    def test_sweep_that_is_not_a_sweep_config_is_refused(self, tmp_path, sweep, shown):
        """A dict used to pass the config; the run created ``output_dir`` and
        ended in a raw AttributeError."""
        with pytest.raises(InvalidInputError, match="^" + re.escape(
                f"sweep must be a SweepConfig or None, got {shown}") + "$"):
            PipelineConfig(output_dir=str(tmp_path / "out"), sweep=sweep)


#: Any JSON value; an integer ``points`` is drawn from a small range or
#: above ``MAX_SWEEP_POINTS``, so that no draw runs a long sweep.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
SWEEP_KEYS = [f.name for f in fields(SweepConfig)] + ["n_fingers"]
TOP_KEYS = ["dataset", "models", "weighting", "grouping", "output_dir", "sweep",
            "surface_grid_points"]
TABLE = "<valid table>"


@st.composite
def config_edits(draw, values=None):
    """One top-level or sweep key of a working config and a value for it:
    any JSON value, or with ``values``, which maps some keys to strategies,
    one of those keys and a value of its strategy."""
    if values is not None:
        key = draw(st.sampled_from(sorted(values)))
        return key, draw(values[key])
    key = draw(st.sampled_from([(k,) for k in TOP_KEYS]
                               + [("sweep", k) for k in SWEEP_KEYS]))
    if key[-1] == "points":
        values = (st.integers(-3, 40) | st.integers(min_value=MAX_SWEEP_POINTS + 1)
                  | JSON_VALUES.filter(
                      lambda v: isinstance(v, bool) or not isinstance(v, int)))
    elif key[-1] == "output_dir":  # a string would write outside the test dir
        values = JSON_VALUES.filter(lambda v: not isinstance(v, str))
    elif key[-1] == "dataset":  # no existing path outside the test dir
        values = st.just(TABLE) | JSON_VALUES.filter(
            lambda v: not isinstance(v, str) or not os.path.lexists(v))
    else:
        values = JSON_VALUES
    return key, draw(values)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("configs")
    make_rising_q_table(path / "devices.csv")
    return path


class TestConfigProperties:
    @given(edit=config_edits())
    @example(edit=(("output_dir",), 5))
    @example(edit=(("sweep", "cutoff_um"), 5e-324))
    @example(edit=(("sweep", "width_max_um"), 2**64))
    @settings(max_examples=200, deadline=None)
    def test_one_arbitrary_value_gives_a_report_or_a_typed_error(
            self, config_dir, edit):
        (*path, key), value = edit
        out = config_dir / "out"
        config = {"models": ["sm+j"], "weighting": "none",
                  "output_dir": str(out),
                  "sweep": {"width_min_um": 1.0, "width_max_um": 20.0,
                            "points": 3}}
        target = config[path[0]] if path else config
        target[key] = str(config_dir / "devices.csv") if value == TABLE else value
        cfg_path = config_dir / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        (out / "report.json").unlink(missing_ok=True)
        try:
            report = run_pipeline(PipelineConfig.from_json(cfg_path))
        except QSurfLossError:
            return
        assert report["status"] in ("ok", "partial")
        assert (out / "report.json").exists()


#: Edits that run a report under every model set, weighting and grouping,
#: with the base config's sweep or none.
REPORT_OPTIONS = {
    ("models",): st.lists(st.sampled_from([m.value for m in LossModel]),
                          min_size=1, max_size=3, unique=True),
    ("weighting",): st.sampled_from([w.value for w in Weighting]),
    ("grouping",): st.sampled_from(["per_die_design", "per_device"]),
    ("sweep",): st.none(),
}


@st.composite
def device_tables(draw):
    """1-6 records of any values a record takes, on one die or several;
    each after the first may join the (die, geometry, p_sm, p_j) group of
    an earlier one."""
    n_dies = draw(st.integers(1, 3))
    table = []
    for i in range(draw(st.integers(1, 6))):
        record = draw(valid_records(wide=True))
        if table and draw(st.booleans()):
            other = draw(st.sampled_from(table))
            die = other.die_id
            record = replace(record, geometry=other.geometry, p_sm=other.p_sm,
                             p_j=other.p_j)
        else:
            die = f"D{draw(st.integers(1, n_dies))}"
        table.append(replace(record, device_id=f"{die}-{i}"))
    return table


def write_table(records, path):
    """The table file of ``records`` without the saver's read-back check, so
    that a table the loader refuses still reaches the commands."""
    write_csv(path, COLUMNS, map(_table_row, records))


def _assert_finite_parameters(parameters):
    """Each fitted parameter is a finite float >= 0, except a Q0 that is
    null where its inverse clamped to 0 (Q0 unbounded)."""
    for name, value in parameters.items():
        if not (name == "q0" and value is None):
            assert value is not None and 0.0 <= value < math.inf, (name, value)


def _assert_finite_cells(path):
    """Every cell of the CSV at ``path`` outside its text columns is empty
    or a finite float."""
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            for column, cell in row.items():
                if column not in ("group_id", "error") and cell:
                    assert math.isfinite(float(cell)), (path.name, column, cell)


class TestCommandProperties:
    """Any device table through ``report`` and ``fit-loss``, and any finite
    trace through ``fit-t1``: finite numbers, or typed errors that say
    where."""

    @given(records=device_tables(),
           edits=st.lists(config_edits(REPORT_OPTIONS), max_size=4,
                          unique_by=lambda edit: edit[0]))
    @settings(max_examples=150, deadline=None)
    def test_any_table_gives_a_finite_report_or_typed_stage_errors(
            self, config_dir, records, edits):
        table, out = config_dir / "table.csv", config_dir / "table-out"
        write_table(records, table)
        config = {"dataset": str(table), "models": ["sm+j"], "weighting": "none",
                  "output_dir": str(out),
                  "sweep": {"width_min_um": 1.0, "width_max_um": 20.0,
                            "points": 3}}
        for (*path, key), value in edits:
            (config[path[0]] if path else config)[key] = value
        cfg_path = config_dir / "table-cfg.json"
        cfg_path.write_text(json.dumps(config))
        shutil.rmtree(out, ignore_errors=True)
        result = CliRunner().invoke(main, ["report", "--config", str(cfg_path)])
        if not (out / "report.json").exists():  # the table or its groups
            _assert_one_line_error(result, "")
            return
        report = json.loads((out / "report.json").read_text())
        errors = {e["stage"]: e["error"] for e in report["errors"]}
        assert len(errors) == len(report["errors"])
        # the exit code and the stderr lines follow the report
        assert result.exit_code == (0 if report["status"] == "ok" else 1)
        assert (report["status"] == "ok") == (not errors)
        assert isinstance(result.exception, (type(None), SystemExit))
        assert [line for line in result.output.splitlines()
                if not line.startswith("wrote ")] == [
            f"stage {stage} failed: {error}" for stage, error in errors.items()]
        # each model is fitted or a fit stage error, with finite parameters
        fits = report["fits"]
        assert sorted([*fits, *(s[4:-1] for s in errors if s.startswith("fit["))]) \
            == sorted(config["models"])
        for fit in fits.values():
            _assert_finite_parameters(fit["parameters"])
        # each table is written or a write stage error, and nothing else is
        kinds = ["q_vs_psm"] * bool(fits) + [
            "q_vs_normalized_pr", "q_model_surface"] * ("sm+j" in fits) + [
            "psm_width_sweep"] * ("sweep" in report)
        written = {entry["path"] for entry in report["outputs"]}
        for kind in kinds:
            assert (f"{kind}.csv" in written) != (f"write[{kind}]" in errors)
        assert set(errors) <= {f"fit[{m}]" for m in config["models"]} | {
            f"write[{kind}]" for kind in kinds}
        assert {p.name for p in out.iterdir()} == written
        for name in written - {"report.json"}:
            _assert_finite_cells(out / name)

    @given(records=device_tables(),
           model=st.sampled_from([m.value for m in LossModel]),
           weights=st.sampled_from([w.value for w in Weighting]),
           group=st.sampled_from(["per-die", "per-device"]))
    @settings(max_examples=150, deadline=None)
    def test_any_table_gives_a_finite_fit_or_one_error_line(
            self, config_dir, records, model, weights, group):
        table, out = config_dir / "fit-table.csv", config_dir / "fit.json"
        write_table(records, table)
        out.unlink(missing_ok=True)
        result = CliRunner().invoke(main, [
            "fit-loss", "--input", str(table), "--model", model,
            "--weights", weights, "--group", group, "--out", str(out)])
        if result.exit_code:
            _assert_one_line_error(result, "")
            assert not out.exists()
            return
        assert result.exception is None
        _assert_finite_parameters(json.loads(out.read_text())["parameters"])

    @given(trace=arbitrary_traces())
    @settings(max_examples=150, deadline=None)
    def test_any_finite_trace_gives_a_finite_t1_or_one_error_line(
            self, config_dir, trace):
        path, out = config_dir / "trace.csv", config_dir / "t1.json"
        path.write_text("delay_us,population\n" + "".join(
            f"{t!r},{y!r}\n" for t, y in zip(trace.delays_us.tolist(),
                                             trace.populations.tolist())))
        out.unlink(missing_ok=True)
        result = CliRunner().invoke(main, ["fit-t1", "--trace", str(path),
                                           "--out", str(out)])
        if result.exit_code:
            _assert_one_line_error(result, "")
            return
        assert result.exception is None
        fit = json.loads(out.read_text())
        assert 0.0 < fit["t1_us"] < math.inf
        assert 0.0 <= fit["fit_err_us"] < math.inf


class TestCli:
    def test_public_names_are_not_modules(self):
        """The submodules bound by the package's own imports are not API,
        and the public names are exactly these 52: a change that adds or
        removes one edits this list."""
        assert sorted(qsurfloss.__all__) == [
            "ConvergenceError", "CrossSection", "DEFAULT_SM_SPEC", "DecayTrace",
            "DegenerateFitError", "DeviceRecord", "FieldSolution",
            "FitFailureError", "InterfaceRegion", "InterfaceSpec",
            "InvalidInputError", "LossDataPoint", "LossFitResult", "LossModel",
            "NumericalFailureError", "ParticipationSet", "PipelineConfig",
            "PurcellParams", "QSurfLossError", "SAPPHIRE_EPS_REL", "Strip",
            "SweepConfig", "T1Estimate", "T1Statistics", "Weighting",
            "bundled_device_table", "cutoff_sensitivity", "fit_exponential",
            "fit_sm_only", "fit_sm_plus_j", "fit_sm_plus_q0", "group_for_fit",
            "interdigital_unit_cell", "load_cross_section",
            "load_decay_trace", "load_device_table", "model_inverse_q",
            "normalized_pr", "participation_set", "psm_width_sweep",
            "purcell_limit", "purcell_subtract_q", "purcell_subtract_t1",
            "q_statistics_from_rounds", "reconstruct_gap_voltage",
            "refine_until_converged", "run_pipeline", "save_device_table",
            "solution_to_csv", "solve_cross_section", "t1_statistics",
            "write_sweep_csv"
        ]
        assert not [name for name in qsurfloss.__all__
                    if isinstance(getattr(qsurfloss, name), types.ModuleType)]

    def test_import_leaves_scipy_unloaded(self, tmp_path):
        """Neither importing the CLI nor fitting a T1 trace, through the
        Python API with either loss or through ``fit-t1``, loads scipy."""
        src = str(Path(qsurfloss.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        trace = tmp_path / "trace.csv"
        trace.write_text("delay_us,population\n" + "\n".join(
            f"{t:g},{np.exp(-t / 100.0):.9f}" for t in range(0, 300, 10)))
        report = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        fits = "\n".join([
            "import numpy as np",
            "from click.testing import CliRunner",
            "from qsurfloss import DecayTrace, fit_exponential",
            "t = np.linspace(0.0, 300.0, 32)",
            "for loss in ('linear', 'soft_l1'):",
            "    fit_exponential(DecayTrace(t, np.exp(-t / 100.0)), loss=loss)",
            f"result = CliRunner().invoke(qsurfloss.cli.main, "
            f"['fit-t1', '--trace', {str(trace)!r}])",
            "assert result.exit_code == 0, result.output",
        ])
        for probe in ("import sys, qsurfloss.cli",
                      "import sys, qsurfloss.cli\n" + fits):
            result = subprocess.run(
                [sys.executable, "-c", probe + "\n" + report], env=env,
                capture_output=True, text=True, check=True)
            assert result.stdout.strip() == "[]"

    def test_fit_loss_bundled(self):
        runner = CliRunner()
        result = runner.invoke(main, ["fit-loss", "--model", "sm+j"])
        assert result.exit_code == 0, result.output
        assert "tan_d_sm" in result.output
        assert "24 points" in result.output

    def test_fit_loss_report_file(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "fit.json"
        result = runner.invoke(
            main, ["fit-loss", "--model", "sm+q0", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["model"] == "sm+q0"
        assert payload["grouping"] == "per_die_design"

    def test_fit_loss_per_device_needs_weights_none(self):
        result = CliRunner().invoke(main, ["fit-loss", "--group", "per-device"])
        _assert_one_line_error(result, "10 of 32 have none")
        result = CliRunner().invoke(
            main, ["fit-loss", "--group", "per-device", "--weights", "none"])
        assert result.exit_code == 0, result.output
        assert "on 32 points (per-device, weights=none)" in result.output

    def test_fit_loss_sm_only(self):
        result = CliRunner().invoke(
            main, ["fit-loss", "--model", "sm", "--weights", "none"])
        assert result.exit_code == 0, result.output
        assert "model sm on 24 points" in result.output
        assert "tan_d_sm" in result.output

    def test_fit_loss_degenerate_exits_nonzero(self, tmp_path):
        table = tmp_path / "devices.csv"
        make_degenerate_table(table)
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["fit-loss", "--input", str(table), "--model", "sm+q0",
             "--group", "per-device"],
        )
        assert result.exit_code == 1
        assert "error:" in result.output

    def test_fit_loss_point_without_a_finite_inverse_q(self, records, tmp_path):
        """It used to print tan_d_sm = inf (+/- nan, nan%) and exit 0."""
        table = tmp_path / "devices.csv"
        make_edited_table(records, table, [(0, "q_mean_1e6", "5e-324")])
        result = CliRunner().invoke(main, [
            "fit-loss", "--input", str(table), "--model", "sm+q0",
            "--weights", "none", "--group", "per-device"])
        _assert_one_line_error(result, "1/Q of point 'D1-1' is not a finite float")

    def test_id_only_row_is_one_error_line(self, tmp_path):
        table = tmp_path / "devices.csv"
        table.write_text(",".join(COLUMNS) + "\nD1-1\n")
        message = "malformed row 2: no geometry cell"
        result = CliRunner().invoke(main, ["fit-loss", "--input", str(table)])
        _assert_one_line_error(result, message)
        result = _run_report(tmp_path, json.dumps({
            "dataset": str(table), "output_dir": str(tmp_path / "out")}))
        _assert_one_line_error(result, message)

    @pytest.mark.parametrize("column, field", [
        ("q_mean_1e6", "q_mean"), ("q_std_1e6", "q_std"), ("p_sm_1e4", "p_sm")])
    def test_nan_cell_is_one_error_line(self, records, tmp_path, column, field):
        """A NaN cell used to load and end the fit in a LinAlgError traceback."""
        table = tmp_path / "devices.csv"
        save_device_table(records, table)
        header, first, *rest = table.read_text().splitlines()
        cells = first.split(",")
        cells[COLUMNS.index(column)] = "nan"
        table.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        result = CliRunner().invoke(main, ["fit-loss", "--input", str(table)])
        _assert_one_line_error(result, f"field '{field}'")

    @pytest.mark.parametrize("cell", ["4_2", "\u0664\u0662"],
                             ids=["underscore", "arabic-indic"])
    def test_cell_that_float_misreads_is_one_error_line(self, records, tmp_path,
                                                        cell):
        """``float()`` read ``4_2`` and Arabic-Indic ``42`` as 42.0, so a
        p_sm cell with either loaded as 4.2e-3 and was fitted."""
        table = tmp_path / "devices.csv"
        make_edited_table(records, table, [(0, "p_sm_1e4", cell)])
        result = CliRunner().invoke(main, ["fit-loss", "--input", str(table)])
        _assert_one_line_error(result, f"{table}: malformed row 2: could not "
                                       f"convert string to float: {cell!r}")

    @pytest.mark.parametrize("cell", ["1_0", "\u0661\u0660"],
                             ids=["underscore", "arabic-indic"])
    @pytest.mark.parametrize("column", [0, 1], ids=["delay", "population"])
    def test_fit_t1_cell_that_float_misreads_is_one_error_line(self, tmp_path,
                                                               column, cell):
        """``float()`` read ``1_0`` and Arabic-Indic ``10`` as 10.0, so the
        trace was fitted with that delay or population."""
        rows = [[str(t), repr(float(np.exp(-t / 50.0)))] for t in range(0, 100, 10)]
        rows[1][column] = cell
        trace = tmp_path / "trace.csv"
        trace.write_text("delay_us,population\n"
                         + "".join(",".join(row) + "\n" for row in rows),
                         encoding="utf-8")
        result = CliRunner().invoke(main, ["fit-t1", "--trace", str(trace)])
        _assert_one_line_error(result, f"{trace}: bad row 3: could not convert "
                                       f"string to float: {cell!r}")

    def test_non_utf8_table_is_one_error_line(self, tmp_path):
        table = tmp_path / "devices.csv"
        table.write_bytes(",".join(COLUMNS).encode() + b"\nD1-1,\xff\n")
        result = CliRunner().invoke(main, ["fit-loss", "--input", str(table)])
        _assert_one_line_error(result, "not UTF-8 text")

    def test_fit_t1_oversized_cell_is_one_error_line(self, tmp_path):
        """A 200000-character cell used to end in a raw _csv.Error."""
        trace = tmp_path / "big.csv"
        trace.write_text("delay_us,population\n0," + "1" * 200000 + "\n")
        result = CliRunner().invoke(main, ["fit-t1", "--trace", str(trace)])
        _assert_one_line_error(
            result, f"{trace}: unreadable row 2: field larger than field limit")

    def test_fit_t1_bad_files_are_one_error_line(self, tmp_path):
        trace = tmp_path / "trace.csv"
        trace.write_bytes(b"delay_us,population\n0,1\xff\n")
        result = CliRunner().invoke(main, ["fit-t1", "--trace", str(trace)])
        _assert_one_line_error(result, "not UTF-8 text")
        trace.write_text("delay_us,population\n" + "\n".join(
            f"{t},{np.exp(-t / 50.0)}" for t in range(0, 100, 10)))
        meta = tmp_path / "meta.json"
        meta.write_text("{")
        result = CliRunner().invoke(
            main, ["fit-t1", "--trace", str(trace), "--meta", str(meta)])
        _assert_one_line_error(result, "bad metadata")
        out = tmp_path / "missing" / "t1.json"
        result = CliRunner().invoke(
            main, ["fit-t1", "--trace", str(trace), "--out", str(out)])
        _assert_one_line_error(result, f"cannot write {out}: No such file")

    def test_fit_t1_writes_back_a_deep_sidecar(self, tmp_path):
        """A sidecar at the depth bound comes back in the ``meta`` of
        ``--out``, and one a level deeper is one error line, through
        ``python -m qsurfloss.cli`` in a fresh interpreter."""
        src = str(Path(qsurfloss.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        trace, meta, out = _t1_files(tmp_path, MAX_JSON_DEPTH)
        command = [sys.executable, "-m", "qsurfloss.cli", "fit-t1", "--trace",
                   str(trace), "--meta", str(meta), "--out", str(out)]
        result = subprocess.run(command, env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert json.loads(out.read_text())["meta"] == json.loads(meta.read_text())
        _t1_files(tmp_path, MAX_JSON_DEPTH + 1)
        result = subprocess.run(command, env=env, capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr == (f"error: {meta}: bad metadata: nested deeper "
                                 f"than {MAX_JSON_DEPTH} arrays and objects\n")

    def test_fit_t1_writes_back_a_deep_sidecar_in_process(self, tmp_path):
        """The same inside the test's own stack."""
        trace, meta, out = _t1_files(tmp_path, MAX_JSON_DEPTH)
        args = ["fit-t1", "--trace", str(trace), "--meta", str(meta), "--out", str(out)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["meta"] == read_json(meta, "meta")
        _t1_files(tmp_path, MAX_JSON_DEPTH + 1)
        _assert_one_line_error(CliRunner().invoke(main, args), (
            f"bad metadata: nested deeper than {MAX_JSON_DEPTH} arrays and objects"))

    def test_purcell_from_chi(self):
        runner = CliRunner()
        result = runner.invoke(
            main,
            ["purcell", "--chi", "0.685", "--delta", "2.03", "--kappa", "52.4"],
        )
        assert result.exit_code == 0, result.output
        assert "g = 37.29 MHz" in result.output
        assert "T_Purcell = 9.00" in result.output

    @pytest.mark.parametrize("delta, chi", [("2.03", "5"), ("-2.03", "0.685")],
                             ids=["chi-5", "negative-delta"])
    def test_purcell_refuses_all_three_dispersive_parameters(self, delta, chi):
        """Given --g and --delta, --chi used to be ignored: both printed
        T_Purcell = 8.996 ms and exited 0."""
        result = CliRunner().invoke(main, ["purcell", "--g", "37.3", "--delta", delta,
                                           "--chi", chi, "--kappa", "52.4"])
        _assert_one_line_error(result, "provide exactly two of delta, g and chi")

    @pytest.mark.parametrize("args, message", [
        (["sweep", "--points", "1_0"], "--points must be an integer, got '1_0'"),
        (["sweep", "--points", "١٠"], "--points must be an integer, got '١٠'"),
        (["sweep", "--points", "2.5"], "--points must be an integer, got '2.5'"),
        (["sweep", "--width-min", "1_0"], "--width-min must be a number, got '1_0'"),
        (["sweep", "--cutoff-um", "٠.١"], "--cutoff-um must be a number, got '٠.١'"),
        (["purcell", "--chi", "٠.٦٨٥", "--delta", "2.03", "--kappa", "52.4"],
         "--chi must be a number, got '٠.٦٨٥'"),
        (["purcell", "--g", "37.3", "--delta", "2_03", "--kappa", "52.4"],
         "--delta must be a number, got '2_03'"),
        (["purcell", "--g", "37.3", "--delta", "2.03", "--kappa", "abc"],
         "--kappa must be a number, got 'abc'"),
    ], ids=["points-underscore", "points-arabic-indic", "points-fraction",
            "width-underscore", "cutoff-arabic-indic", "chi-arabic-indic",
            "delta-underscore", "kappa-text"])
    def test_number_option_text_the_doors_refuse_is_one_error_line(
            self, tmp_path, args, message):
        """click's own int and float types read ``1_0`` as 10 and Arabic-Indic
        ``0.685`` as 0.685, so ``sweep --points 1_0`` ran 10 widths and
        ``purcell --chi`` of Arabic-Indic digits printed T_Purcell = 9.001 ms."""
        out = tmp_path / "sweep.csv"
        command = [*args, "--out", str(out)] if args[0] == "sweep" else args
        result = CliRunner().invoke(main, command)
        _assert_one_line_error(result, message)
        assert not out.exists()

    def test_number_options_read_plain_text(self, tmp_path):
        """ASCII decimal text still reads as ``float()`` reads it: a count of
        10 widths, and chi 0.685 MHz written three ways to one output."""
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(main, ["sweep", "--points", "10",
                                           "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "(10 widths, 0 failed)" in result.output
        outputs = {CliRunner().invoke(main, ["purcell", "--chi", chi, "--delta",
                                             "2.03", "--kappa", "52.4"]).output
                   for chi in ("0.685", " 0.685", "+6.85e-1")}
        assert outputs == {"g = 37.29 MHz (cyclic)\nT_Purcell = 9.001 ms\n"}

    @pytest.mark.parametrize("action, lines", [("default", 1), ("ignore", 0)])
    def test_a_shown_warning_is_one_line(self, action, lines):
        """The dispersive-ratio warning used to print the file and line of
        its call and then that source line; the filters still decide whether
        it shows, and the display is restored after the command."""
        display = warnings.showwarning
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            result = CliRunner().invoke(
                main, ["purcell", "--g", "500", "--delta", "1.0", "--kappa", "50"])
        assert result.exit_code == 0, result.output
        assert result.stderr.splitlines() == lines * [
            "warning: |delta|/g = 2.00 < 5.0: dispersive Purcell estimate is unreliable"]
        assert warnings.showwarning is display

    def test_a_warning_the_filters_make_an_error_still_raises(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = CliRunner().invoke(
                main, ["purcell", "--g", "500", "--delta", "1.0", "--kappa", "50"])
        assert result.exit_code == 1
        assert isinstance(result.exception, UserWarning)
        assert result.stderr == ""

    @pytest.mark.parametrize("args, message", [
        (["--g", "nan", "--delta", "2", "--kappa", "50"],
         "g (MHz) must be finite and >= 0, got nan"),
        (["--g", "30", "--delta", "2", "--kappa", "inf"],
         "kappa (kHz) must be finite and > 0, got inf"),
    ], ids=["nan-g", "inf-kappa"])
    def test_purcell_non_finite_input_is_one_error_line(self, args, message):
        """These used to print T_Purcell = nan ms and 0 ms and exit 0."""
        result = CliRunner().invoke(main, ["purcell", *args])
        _assert_one_line_error(result, message)

    @pytest.mark.parametrize("args, message", [
        (["--g", "30", "--delta", "2", "--kappa", "-50"],
         "kappa (kHz) must be finite and > 0, got -50.0"),
        (["--g", "-1", "--delta", "2", "--kappa", "50"],
         "g (MHz) must be finite and >= 0, got -1.0"),
        (["--g", "30", "--delta", "0", "--kappa", "50"],
         "delta (GHz) must be finite and != 0, got 0.0"),
    ], ids=["kappa", "g", "delta"])
    def test_purcell_refuses_a_value_in_the_unit_it_was_typed_in(self, args, message):
        """The refusal used to name the value in rad/s, one never typed:
        ``kappa (rad/s) must be finite and > 0, got -314159.26535897935``."""
        result = CliRunner().invoke(main, ["purcell", *args])
        _assert_one_line_error(result, message)
        assert result.output.strip() == f"error: {message}"

    def test_purcell_names_a_value_beyond_the_float_range_in_rad_s_as_given(self):
        """2 pi x 1e300 GHz overflows in rad/s; the error used to read
        'delta must be finite, got inf', a value that was never given."""
        result = CliRunner().invoke(
            main, ["purcell", "--g", "30", "--delta", "1e300", "--kappa", "50"])
        _assert_one_line_error(
            result, "delta must be finite in GHz and in rad/s, got 1e+300")

    @pytest.mark.parametrize("args, message", [
        (["--chi", "-0.5", "--delta", "2", "--kappa", "50"],
         "chi and delta must have the same sign"),
        (["--g", "30", "--chi", "0", "--kappa", "50"],
         "cannot infer delta from chi = 0"),
    ], ids=["opposite-signs", "zero-chi"])
    def test_purcell_refuses_parameters_that_fix_no_coupling(self, args, message):
        """g = sqrt(chi delta) needs chi and delta of one sign, and
        delta = g^2 / chi a nonzero chi."""
        result = CliRunner().invoke(main, ["purcell", *args])
        _assert_one_line_error(result, message)

    @pytest.mark.filterwarnings("ignore:.*dispersive Purcell estimate")
    def test_purcell_infers_delta_where_g_squared_overflows(self):
        """g^2 / chi = 6.3e106 rad/s is a float though g^2 is not; this used
        to exit 1 with 'g^2 exceeds the float range'."""
        result = CliRunner().invoke(
            main, ["purcell", "--g", "1e150", "--chi", "1e200", "--kappa", "1"])
        assert result.exit_code == 0, result.output
        assert "T_Purcell = 1.592e-101 ms" in result.output

    @given(values=st.fixed_dictionaries({
        name: st.none() | st.floats(allow_nan=False, allow_infinity=False)
        for name in ("g", "chi", "delta", "kappa")}))
    @example(values={"g": 1e200, "chi": None, "delta": 1.0, "kappa": 1.0})
    @example(values={"g": 1e150, "chi": 1e200, "delta": None, "kappa": 1.0})
    @example(values={"g": 1e-200, "chi": None, "delta": 1e200, "kappa": 1e-300})
    @example(values={"g": 1e-200, "chi": 1.0, "delta": None, "kappa": 1.0})
    @example(values={"g": 1.0, "chi": None, "delta": 1.0, "kappa": None})
    @example(values={"g": 1e145, "chi": None, "delta": 1.0, "kappa": 1e10})
    @example(values={"g": None, "chi": 1e-300, "delta": 1e-300, "kappa": 1.0})
    @settings(max_examples=300, deadline=None)
    @pytest.mark.filterwarnings("ignore:.*dispersive Purcell estimate")
    def test_any_finite_purcell_input_gives_a_limit_or_one_error_line(self, values):
        """Any finite or omitted --g/--chi/--delta/--kappa gives the limit
        delta^2 / (g^2 kappa) of the parsed parameters, taken exactly, to the
        4 printed digits (or ``unbounded`` above 1e6 s), or one error line.
        A squared term beyond the float range used to end in a raw
        OverflowError, g^2 kappa below it in a ZeroDivisionError, and an
        omitted --kappa in click's usage error with exit 2; g^2 kappa
        overflowing to inf printed 0 ms, and chi delta underflowing to 0
        printed g = 0 and unbounded."""
        args = [f"--{name}={value!r}" for name, value in values.items()
                if value is not None]
        result = CliRunner().invoke(main, ["purcell", *args])
        if result.exit_code != 0:
            _assert_one_line_error(result, "")
            return
        assert result.exception is None
        params = PurcellParams.from_cyclic(**{
            f"{name}_{unit}": values[name] for name, unit in
            [("g", "mhz"), ("chi", "mhz"), ("delta", "ghz"), ("kappa", "khz")]})
        kappa = Fraction(params.kappa)
        # exact delta^2 / (g^2 kappa); 0 stands for g = 0
        if params.g is None:  # g^2 = chi delta
            exact = params.chi and (
                Fraction(params.delta) / (Fraction(params.chi) * kappa))
        elif params.delta is None:  # delta = g^2 / chi
            exact = params.g and (
                Fraction(params.g) ** 2 / (Fraction(params.chi) ** 2 * kappa))
        else:
            exact = params.g and (
                Fraction(params.delta) ** 2 / (Fraction(params.g) ** 2 * kappa))
        printed = result.output.split("T_Purcell = ")[1].split()[0]
        if printed == "unbounded":
            assert not exact or exact > 1e6 * (1 - 1e-12)
        else:
            assert 0 < exact <= 1e6 * (1 + 1e-12)
            assert float(printed) == pytest.approx(float(exact * 1000), rel=1e-3,
                                                 abs=1e-320)

    def test_fit_t1_on_trace(self, tmp_path):
        t = np.linspace(0.0, 900.0, 40)
        y = 0.95 * np.exp(-t / 316.8) + 0.02
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "delay_us,population\n"
            + "\n".join(f"{a:.6f},{b:.8f}" for a, b in zip(t, y))
        )
        runner = CliRunner()
        out = tmp_path / "t1.json"
        result = runner.invoke(
            main, ["fit-t1", "--trace", str(trace), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert "T1 = 316.8 us" in result.output
        assert json.loads(out.read_text())["t1_us"] == pytest.approx(316.8, rel=1e-6)

    def test_sweep_command(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            ["sweep", "--width-min", "2", "--width-max", "6", "--points", "3",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4

    def test_sweep_command_reaches_the_cell_width_range(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(
            main, ["sweep", "--width-min", "0.3", "--width-max", "2",
                   "--points", "4", "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "(4 widths, 0 failed)" in result.output

    def test_sweep_command_exits_1_when_a_width_fails(self, tmp_path):
        """A 300 nm layer breaks the thin-layer bound at 0.5 um, so that
        width fails on its own row and the command exits 1."""
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(
            main, ["sweep", "--width-min", "0.5", "--width-max", "20", "--points", "2",
                   "--t-sm-nm", "300", "--out", str(out)])
        assert result.exit_code == 1
        assert f"wrote {out} (2 widths, 1 failed)" in result.output
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [bool(row["error"]) for row in rows] == [True, False]

    def test_sweep_command_refuses_a_cutoff_that_rounds_to_0_at_the_widest_width(
            self, tmp_path):
        """5e-324 um is above 0, but its ratio to 20 um rounds to 0: one
        error line naming that width, and no CSV."""
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(
            main, ["sweep", "--width-min", "1", "--width-max", "20", "--points", "2",
                   "--cutoff-um", "5e-324", "--out", str(out)])
        _assert_one_line_error(result, "edge_cutoff must be > 0 against a width "
                                       "of 20.0 um")
        assert not out.exists()

    @pytest.mark.parametrize("cutoff_um, message", [
        ("0", "edge_cutoff must be > 0"),
        ("0.6", "edge_cutoff must lie in [0, 0.5) um, got 0.6"),
    ], ids=["zero", "half-width"])
    def test_sweep_command_rejects_a_bad_fixed_cutoff(self, tmp_path, cutoff_um,
                                                      message):
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(
            main, ["sweep", "--width-min", "1", "--width-max", "2",
                   "--cutoff-um", cutoff_um, "--out", str(out)])
        _assert_one_line_error(result, message)
        assert not out.exists()

    @pytest.mark.parametrize("command", [["sweep", "--points", "2"], ["fit-loss"]],
                             ids=["sweep", "fit-loss"])
    def test_out_into_a_missing_directory_is_one_error_line(self, tmp_path,
                                                            command):
        """These used to end in a raw FileNotFoundError."""
        out = tmp_path / "missing" / "out"
        result = CliRunner().invoke(main, [*command, "--out", str(out)])
        _assert_one_line_error(result, f"cannot write {out}: No such file")

    def test_sweep_command_bounds_points(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(
            main, ["sweep", "--points", str(MAX_SWEEP_POINTS + 1),
                   "--out", str(out)])
        _assert_one_line_error(result, (
            f"sweep points must be an integer in [1, {MAX_SWEEP_POINTS}], "
            f"got {MAX_SWEEP_POINTS + 1}"))
        assert not out.exists()

    def test_sweep_command_rejects_zero_points(self, tmp_path):
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(
            main, ["sweep", "--points", "0", "--out", str(out)]
        )
        assert result.exit_code == 1
        assert "sweep points must be an integer in [1, 10000], got 0" in result.output
        assert not out.exists()

    def test_sweep_command_names_both_bounds_of_a_descending_range(self, tmp_path):
        """This used to read 'bad sweep range', naming neither bound."""
        out = tmp_path / "sweep.csv"
        result = CliRunner().invoke(
            main, ["sweep", "--width-min", "5", "--width-max", "1", "--out", str(out)])
        _assert_one_line_error(
            result, "sweep width_max_um = 1.0 must be > width_min_um = 5.0")
        assert not out.exists()

    def test_report_command(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "models": ["sm+j", "sm+q0"],
            "output_dir": str(tmp_path / "out"),
        }))
        runner = CliRunner()
        result = runner.invoke(main, ["report", "--config", str(cfg)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "report.json").exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(language):
    """The fenced ``language`` code blocks of README, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.MULTILINE | re.DOTALL)


class TestReadme:
    """README's examples are checked against the code and run, so that they
    cannot drift from it."""

    def test_command_block_names_each_option_of_each_command(self):
        """Every ``qsurfloss <command> --option`` of the command block is an
        option of that click command, and every command and option shows."""
        (block,) = [b for b in _readme_blocks("bash") if "qsurfloss report" in b]
        used: dict[str, set] = {}
        for line in block.replace("\\\n", " ").splitlines():
            words = line.split("#")[0].split()
            if words[:1] == ["qsurfloss"]:
                used.setdefault(words[1], set()).update(
                    w for w in words if w.startswith("--"))
        options = {name: {o for p in command.params for o in p.opts if o.startswith("--")}
                   for name, command in main.commands.items()}
        assert used == options

    def test_python_sketch_runs(self, tmp_path, monkeypatch, capsys):
        """The sketch runs as written, in an empty directory, and prints the
        exactly rounded Purcell limit that its comment quotes."""
        (sketch,) = _readme_blocks("python")
        monkeypatch.chdir(tmp_path)
        exec(compile(sketch, str(README), "exec"), {})
        assert "0.008996286067800981" in capsys.readouterr().out.splitlines()
        assert list(tmp_path.iterdir()) == []
