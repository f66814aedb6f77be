"""End-to-end orchestration: load, group, fit, predict, emit report files.

A pipeline run writes a schema-versioned JSON report plus plot-ready CSVs
into the configured output directory:

* ``q_vs_psm.csv``            measured and modeled Q against p_sm
* ``q_vs_normalized_pr.csv``  the same data against the normalized PR
* ``q_model_surface.csv``     modeled Q on a (p_sm, p_j) grid
* ``psm_width_sweep.csv``     participation sweep (when requested)

Reports are byte-for-byte deterministic for identical inputs: floats are
rounded to 9 significant digits and keys are sorted.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dataio import bundled_device_table, group_for_fit, load_device_table
from .errors import InvalidInputError, QSurfLossError
from .geometry import SAPPHIRE_EPS_REL
from .lossmodel import (
    FITTERS,
    LossFitResult,
    LossModel,
    Weighting,
    model_inverse_q,
    normalized_pr,
)
from .participation import (
    SENSITIVITY_CUTOFFS_UM,
    SM_LAYER_THICKNESS_NM,
    InterfaceRegion,
    InterfaceSpec,
    SweepPoint,
    _periodic_idc,
    psm_width_sweep,
    write_sweep_csv,
)

REPORT_SCHEMA_VERSION = 1

#: Points per axis of the ``q_model_surface.csv`` grid.
_SURFACE_GRID_POINTS = 25
#: Sweep keys of the finite-array proxy the closed form replaced; a config
#: may still carry them, and they are ignored.
_RETIRED_SWEEP_KEYS = ("n_fingers", "elements_per_strip")


@dataclass
class SweepConfig:
    """Width-sweep stage settings (defaults reproduce the standard curve)."""

    width_min_um: float = 1.0
    width_max_um: float = 20.0
    points: int = 20
    t_sm_nm: float = SM_LAYER_THICKNESS_NM
    eps_sm_rel: float = SAPPHIRE_EPS_REL
    cutoff_um: float | None = None  # None: width-proportional cutoff

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name == "cutoff_um":
                continue
            if f.name == "points":
                kind, noun = numbers.Integral, "an integer"
            else:
                kind, noun = numbers.Real, "a number"
            # the bound also refuses NaN, infinities and ints beyond a float
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or not abs(value) <= sys.float_info.max):
                raise InvalidInputError(
                    f"sweep {f.name} must be {noun}, got {value!r}")

    def widths(self) -> list[float]:
        if self.points < 1 or self.width_max_um <= self.width_min_um:
            raise InvalidInputError("bad sweep range")
        return list(
            np.linspace(self.width_min_um, self.width_max_um, self.points)
        )

    @property
    def spec(self) -> InterfaceSpec:
        return InterfaceSpec(InterfaceRegion.SM, thickness_nm=self.t_sm_nm,
                             eps_rel=self.eps_sm_rel)

    def run(self) -> list[SweepPoint]:
        return psm_width_sweep(self.widths(), self.spec, self.cutoff_um)


@dataclass
class PipelineConfig:
    """Settings for one report run; see ``from_json`` for the file format."""

    dataset: str | None = None  # None: bundled device table
    models: tuple[str, ...] = ("sm+j", "sm+q0")
    weighting: str = "invvar"
    grouping: str = "per_die_design"
    output_dir: str = "."
    sweep: SweepConfig | None = None

    def validate(self) -> None:
        for value, enum in [(m, LossModel) for m in self.models] + [
                (self.weighting, Weighting)]:
            try:
                enum(value)
            except ValueError:
                raise InvalidInputError(
                    f"unknown {enum.__name__} {value!r}") from None
        if self.grouping not in ("per_die_design", "per_device"):
            raise InvalidInputError(f"unknown grouping {self.grouping!r}")
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise InvalidInputError(
                f"output_dir must be a path, got {self.output_dir!r}")
        if self.dataset is not None and not (
                isinstance(self.dataset, (str, os.PathLike))
                and Path(self.dataset).is_file()):
            raise InvalidInputError(f"dataset not found: {self.dataset}")

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
                sweep = raw.get("sweep")
                sweep = SweepConfig(**{k: v for k, v in sweep.items()
                                       if k not in _RETIRED_SWEEP_KEYS}
                                    ) if sweep else None
                cfg = cls(**{**raw, "sweep": sweep})
                cfg.models = tuple(cfg.models)
                cfg.validate()
            except (AttributeError, TypeError, ValueError) as exc:
                # malformed JSON, a non-object, an unknown key or a bad value
                raise InvalidInputError(f"bad config {path}: {exc}") from exc
        return cfg


def _nine_digits(obj):
    """Recursively round floats to 9 significant digits for stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _nine_digits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nine_digits(v) for v in obj]
    return obj


def write_report_json(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_nine_digits(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_q_vs_psm(points, fits: dict[str, LossFitResult], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        headers = ["group_id", "p_sm", "q_measured", "q_std"]
        headers += [f"q_model[{name}]" for name in fits]
        writer.writerow(headers)
        for p in points:
            row = [p.group_id, f"{p.p_sm:.9g}", f"{p.q_mean:.9g}",
                   "" if not p.q_std else f"{p.q_std:.9g}"]
            for fit in fits.values():
                inv_q = model_inverse_q(fit, p.p_sm, p.p_j)
                row.append(f"{1.0 / inv_q:.9g}" if inv_q > 0 else "")
            writer.writerow(row)


def _write_q_vs_npr(points, fit: LossFitResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group_id", "normalized_pr", "q_measured", "q_std",
                         "q_model"])
        for p in points:
            npr = normalized_pr(p.p_sm, p.p_j, fit.tan_d_sm, fit.tan_d_j)
            inv_q = fit.tan_d_sm * npr
            writer.writerow([
                p.group_id,
                f"{npr:.9g}",
                f"{p.q_mean:.9g}",
                "" if not p.q_std else f"{p.q_std:.9g}",
                f"{1.0 / inv_q:.9g}",
            ])


def _write_model_surface(points, fit: LossFitResult, path) -> None:
    p_sm_vals = np.geomspace(min(p.p_sm for p in points),
                             max(p.p_sm for p in points), _SURFACE_GRID_POINTS)
    p_j_vals = np.geomspace(min(p.p_j for p in points),
                            max(p.p_j for p in points), _SURFACE_GRID_POINTS)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p_sm", "p_j", "q_model"])
        for psm in p_sm_vals:
            for pj in p_j_vals:
                inv_q = model_inverse_q(fit, float(psm), float(pj))
                writer.writerow([f"{psm:.9g}", f"{pj:.9g}", f"{1.0 / inv_q:.9g}"])


def _emit(manifest, errors, out_dir: Path, kind: str, write, *args,
          status: str = "written") -> None:
    """Write ``<kind>.csv`` with ``write(*args, path)`` and list it; a failed
    writer removes its half-written file and becomes a stage error."""
    path = out_dir / f"{kind}.csv"
    try:
        write(*args, path)
    except QSurfLossError as exc:
        path.unlink(missing_ok=True)
        errors.append({"stage": f"write[{kind}]", "error": str(exc)})
    else:
        manifest.append({"path": path.name, "kind": kind, "status": status})


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute the configured stages and write the report bundle.

    Returns the report dictionary (also written as ``report.json``).  A fit
    that fails (too few points, a degenerate design, a point without spread
    under inverse-variance weighting), a failed file writer and a failed
    sweep do not abort the run; they are recorded under ``errors`` and flip
    ``status`` to ``"partial"`` so callers can exit nonzero.

    Raises
    ------
    InvalidInputError
        If the configuration is invalid or the dataset is empty (nothing is
        written in that case).
    """
    config.validate()
    out_dir = Path(config.output_dir)

    manifest: list[dict] = []
    errors: list[dict] = []
    report: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "grouping": config.grouping,
        "weighting": config.weighting,
        "fits": {},
        "errors": errors,
        "outputs": manifest,
    }

    points = None
    if config.models:
        if config.dataset is None:
            records = bundled_device_table()
            report["dataset"] = "bundled"
        else:
            records = load_device_table(config.dataset)
            report["dataset"] = str(config.dataset)
        if not records:
            raise InvalidInputError("dataset contains no device records")
        report["n_devices"] = len(records)
        points = group_for_fit(records, mode=config.grouping)
        points.sort(key=lambda p: (p.p_sm, p.p_j, p.group_id))
        report["n_fit_points"] = len(points)

    out_dir.mkdir(parents=True, exist_ok=True)

    fits: dict[str, LossFitResult] = {}
    if points is not None:
        for model_name in config.models:
            model = LossModel(model_name)
            try:
                fit = FITTERS[model](points, weighting=config.weighting)
            except QSurfLossError as exc:
                errors.append({"stage": f"fit[{model.value}]", "error": str(exc)})
                continue
            fits[model.value] = fit
            entry = fit.to_json_dict()
            entry["points"] = [dict(vars(p)) for p in points]
            report["fits"][model.value] = entry

        if fits:
            _emit(manifest, errors, out_dir, "q_vs_psm", _write_q_vs_psm,
                  points, fits)
        if LossModel.SM_PLUS_J.value in fits:
            fit = fits[LossModel.SM_PLUS_J.value]
            _emit(manifest, errors, out_dir, "q_vs_normalized_pr",
                  _write_q_vs_npr, points, fit)
            _emit(manifest, errors, out_dir, "q_model_surface",
                  _write_model_surface, points, fit)

    if config.sweep is not None:
        sweep_cfg = config.sweep
        try:
            sweep_points = sweep_cfg.run()
        except QSurfLossError as exc:
            errors.append({"stage": "sweep", "error": str(exc)})
        else:
            failed = [p.width_um for p in sweep_points if p.error]
            _emit(manifest, errors, out_dir, "psm_width_sweep", write_sweep_csv,
                  sweep_points, status="partial" if failed else "written")
            if failed:
                errors.append({"stage": "sweep", "error": "failed at width "
                               + ", ".join(f"{w:.9g}" for w in failed) + " um"})
            report["sweep"] = {
                "t_sm_nm": sweep_cfg.t_sm_nm,
                "eps_sm_rel": sweep_cfg.eps_sm_rel,
                "points": [dict(vars(p)) for p in sweep_points],
            }
            # every sweep report carries p_sm against the edge cutoff, which
            # regularizes the edge singularity, at one width
            width = min(max(10.0, sweep_cfg.width_min_um), sweep_cfg.width_max_um)
            if width <= 2.0 * max(SENSITIVITY_CUTOFFS_UM):
                # the largest cutoff would leave the half cell; the block is
                # closed form, so a narrow sweep takes it at 0.5 um instead
                width = 0.5
            try:
                values = [(c, _periodic_idc(width, c, sweep_cfg.spec).p_sm)
                          for c in SENSITIVITY_CUTOFFS_UM]
            except QSurfLossError as exc:
                errors.append({"stage": "sweep.cutoff_sensitivity",
                               "error": str(exc)})
            else:
                report["sweep"]["cutoff_sensitivity"] = {
                    "width_um": width,
                    "values": [{"cutoff_um": c, "p_sm": p} for c, p in values],
                }

    report["status"] = "partial" if errors else "ok"
    manifest.append({"path": "report.json", "kind": "report",
                     "status": "written"})
    write_report_json(report, out_dir / "report.json")
    return report
