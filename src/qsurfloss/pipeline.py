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

import contextlib
import json
import math
import numbers
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dataio import bundled_device_table, group_for_fit, load_device_table
from .errors import (InvalidInputError, QSurfLossError, is_finite, read_json, shown,
                     write_csv, write_text)
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

#: Most points a width sweep may ask for; each costs a row of the sweep CSV
#: and of ``report.json``.
MAX_SWEEP_POINTS = 10_000
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
            if isinstance(value, bool) or not isinstance(value, kind):
                raise InvalidInputError(
                    f"sweep {f.name} must be {noun}, got {value!r}")
            if not is_finite(value):
                raise InvalidInputError(
                    f"sweep {f.name} must be {noun}, got {shown(value)}")
        if self.points > MAX_SWEEP_POINTS:
            raise InvalidInputError(f"sweep points must be at most "
                                    f"{MAX_SWEEP_POINTS}, got {self.points}")

    def widths(self) -> list[float]:
        if self.points < 1 or self.width_max_um <= self.width_min_um:
            raise InvalidInputError("bad sweep range")
        # float() first: numpy holds an int beyond int64 as an object
        return list(np.linspace(float(self.width_min_um), float(self.width_max_um),
                                self.points))

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
        for model in self.models:
            LossModel(model)
        Weighting(self.weighting)
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
        raw = read_json(path, f"bad config {path}")
        try:
            sweep = raw.get("sweep")
            sweep = SweepConfig(**{k: v for k, v in sweep.items()
                                   if k not in _RETIRED_SWEEP_KEYS}
                                ) if sweep else None
            cfg = cls(**{**raw, "sweep": sweep})
            cfg.models = tuple(cfg.models)
            cfg.validate()
        except (AttributeError, TypeError, ValueError) as exc:
            # a non-object, an unknown key or a bad value
            raise InvalidInputError(f"bad config {path}: {exc}") from exc
        return cfg


#: json's string quoting, in C where the interpreter has it.
_quote = json.encoder.encode_basestring_ascii


def _encode(obj, pad: str, out: list) -> None:
    """Append the chunks of ``obj`` to ``out`` as ``json.dumps(obj,
    indent=2, sort_keys=True)`` writes them, with each finite float rounded
    to 9 significant digits and each other float written as null; ``pad``
    is the line break and indent that ``obj`` starts after.

    ``indent`` keeps ``json.dumps`` on its pure-Python encoder; this one
    recursion formats the same bytes with the C quoting and number reprs.
    The exact types a report is made of are tried first; a subclass (bool,
    ``np.float64``) takes the ``isinstance`` chain below them.
    """
    kind = type(obj)
    if kind is float:
        out.append(repr(float(f"{obj:.9g}")) if math.isfinite(obj) else "null")
    elif kind is str:
        out.append(_quote(obj))
    elif kind is dict:
        _encode_dict(obj, pad, out)
    elif kind is list:
        _encode_list(obj, pad, out)
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(repr(float(f"{obj:.9g}")) if math.isfinite(obj) else "null")
    elif isinstance(obj, (list, tuple)):
        _encode_list(obj, pad, out)
    elif isinstance(obj, dict):
        _encode_dict(obj, pad, out)
    else:
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable")


def _encode_list(obj, pad: str, out: list) -> None:
    if not obj:
        out.append("[]")
        return
    inner = pad + "  "
    sep = "[" + inner
    for item in obj:
        out.append(sep)
        _encode(item, inner, out)
        sep = "," + inner
    out.append(pad + "]")


def _encode_dict(obj, pad: str, out: list) -> None:
    if not obj:
        out.append("{}")
        return
    inner = pad + "  "
    sep = "{" + inner
    for key, value in sorted(obj.items()):
        out.append(sep + _quote(key) + ": ")
        _encode(value, inner, out)
        sep = "," + inner
    out.append(pad + "}")


def write_report_json(report: dict, path) -> None:
    """Write ``report`` as sorted, 2-space-indented JSON, floats rounded to
    9 significant digits and non-finite ones written as null."""
    out: list[str] = []
    _encode(report, "\n", out)
    out.append("\n")
    write_text(path, "".join(out))


def _q_std_cells(points) -> list[str]:
    """A point's spread at 9 digits, empty when it is None or 0."""
    return ["%.9g" % p.q_std if p.q_std else "" for p in points]


def _write_q_vs_psm(points, fits: dict[str, LossFitResult], path) -> None:
    p_sm = np.array([p.p_sm for p in points])
    p_j = np.array([p.p_j for p in points])
    columns = [[p.group_id for p in points],
               ["%.9g" % v for v in p_sm.tolist()],
               ["%.9g" % p.q_mean for p in points],
               _q_std_cells(points)]
    for fit in fits.values():
        inv_q = model_inverse_q(fit, p_sm, p_j).tolist()
        columns.append(["%.9g" % (1.0 / v) if v > 0 else "" for v in inv_q])
    write_csv(path, ["group_id", "p_sm", "q_measured", "q_std"]
              + [f"q_model[{name}]" for name in fits], zip(*columns))


def _write_q_vs_npr(points, fit: LossFitResult, path) -> None:
    npr = normalized_pr(np.array([p.p_sm for p in points]),
                        np.array([p.p_j for p in points]),
                        fit.tan_d_sm, fit.tan_d_j)
    inv_q = (fit.tan_d_sm * npr).tolist()
    write_csv(path, ["group_id", "normalized_pr", "q_measured", "q_std", "q_model"],
              zip([p.group_id for p in points],
                  ["%.9g" % v for v in npr.tolist()],
                  ["%.9g" % p.q_mean for p in points],
                  _q_std_cells(points),
                  ["%.9g" % (1.0 / v) if v > 0 else "" for v in inv_q]))


def _write_model_surface(points, fit: LossFitResult, path) -> None:
    """Write the modeled Q on the 25 x 25 geometric (p_sm, p_j) grid.

    The bytes are those of :func:`csv.writer`: every cell a ``%.9g``
    number, none quoted, every line ended by CRLF.  Each grid value is
    formatted once, each p_sm line becomes one row template for its 25 Q
    values, and the whole file is filled by one ``%`` and written at once.

    Raises
    ------
    InvalidInputError
        If a point's p_sm or p_j is 0, where the log-spaced grid cannot
        start, or the modeled 1/Q is 0 at a grid point, where Q is
        unbounded.
    """
    axes = []
    for name in ("p_sm", "p_j"):
        values = [getattr(p, name) for p in points]
        if min(values) == 0:
            raise InvalidInputError(
                f"{name} is 0 at a fit point; the model surface's "
                f"log-spaced grid needs {name} > 0")
        axes.append(np.geomspace(min(values), max(values), _SURFACE_GRID_POINTS))
    p_sm, p_j = axes
    inv_q = model_inverse_q(fit, p_sm[:, None], p_j[None, :])
    if not inv_q.all():
        i, j = np.argwhere(inv_q == 0)[0]
        raise InvalidInputError(
            f"modeled 1/Q is 0 at p_sm={p_sm[i]:.9g}, p_j={p_j[j]:.9g}; "
            f"Q is unbounded there")
    # ",<p_j>,%.9g\r\n" per p_j; a line's p_sm cell leads each of them
    j_rows = [f",{v:.9g},%.9g\r\n" for v in p_j.tolist()]
    template = "p_sm,p_j,q_model\r\n" + "".join(
        sm + sm.join(j_rows) for sm in [f"{v:.9g}" for v in p_sm.tolist()])
    # row-major over (p_sm, p_j), the order of the grid's flattened 1/Q
    write_text(path, template % tuple((1.0 / inv_q).ravel().tolist()))


def _emit(manifest, errors, out_dir: Path, kind: str, write, *args,
          status: str = "written") -> None:
    """Write ``<kind>.csv`` with ``write(*args, path)`` and list it; a failed
    writer removes its half-written file and becomes a stage error."""
    path = out_dir / f"{kind}.csv"
    try:
        write(*args, path)
    except QSurfLossError as exc:
        with contextlib.suppress(OSError):  # a directory there stays
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
        If the configuration is invalid, the dataset is empty or
        ``output_dir`` cannot be created (nothing is written in that case).
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
        report["n_fit_points"] = len(points)

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at or above the path, or no permission
        raise InvalidInputError(
            f"cannot create output_dir {str(out_dir)!r}: {exc.strerror}") from exc

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
