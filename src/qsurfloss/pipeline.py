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
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dataio import Grouping, bundled_device_table, group_for_fit, load_device_table
from .errors import (InvalidInputError, QSurfLossError, integer, read_json, real,
                     shown, write_csv, write_text)
from .geometry import SAPPHIRE_EPS_REL, check_interdigital_width
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
    _check_sweep,
    cutoff_sensitivity,
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


@dataclass(frozen=True)
class SweepConfig:
    """Width-sweep stage settings (defaults reproduce the standard curve),
    immutable and checked whole when built: ``points`` an int in [1,
    ``MAX_SWEEP_POINTS``], every other number finite, as float; the layer,
    built once as ``spec``; both widths; max > min width; then the checks
    of :func:`psm_width_sweep`.  So :meth:`run` fails only on a point
    outside [0, 1]."""

    width_min_um: float = 1.0
    width_max_um: float = 20.0
    points: int = 20
    t_sm_nm: float = SM_LAYER_THICKNESS_NM
    eps_sm_rel: float = SAPPHIRE_EPS_REL
    cutoff_um: float | None = None  # None: width-proportional cutoff

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "points":
                value = integer(
                    value, f"sweep points must be an integer in [1, {MAX_SWEEP_POINTS}]",
                    lambda n: 1 <= n <= MAX_SWEEP_POINTS)
            elif value is not None or f.name != "cutoff_um":
                value = real(value, f"sweep {f.name} must be finite")
            object.__setattr__(self, f.name, value)
        object.__setattr__(self, "spec", InterfaceSpec(
            InterfaceRegion.SM, thickness_nm=self.t_sm_nm, eps_rel=self.eps_sm_rel))
        # each end first, so that a refusal shows the width as configured
        for width in (self.width_min_um, self.width_max_um):
            check_interdigital_width(width)
        if self.width_max_um <= self.width_min_um:
            raise InvalidInputError(f"sweep width_max_um = {self.width_max_um} must "
                                    f"be > width_min_um = {self.width_min_um}")
        _check_sweep(self.widths(), self.spec, self.cutoff_um)

    def widths(self) -> list[float]:
        return list(np.linspace(self.width_min_um, self.width_max_um, self.points))

    def run(self) -> list[SweepPoint]:
        return psm_width_sweep(self.widths(), self.spec, self.cutoff_um)


@dataclass(frozen=True)
class PipelineConfig:
    """Settings for one report run, immutable and checked whole when built:
    ``models`` is stored as a tuple of :class:`LossModel`, each at most once,
    ``weighting`` and ``grouping`` as their options, ``dataset`` is None or
    a file and ``sweep`` None or a :class:`SweepConfig`; see ``from_json``."""

    dataset: str | None = None  # None: bundled device table
    models: tuple[str, ...] = ("sm+j", "sm+q0")
    weighting: str = "invvar"
    grouping: str = "per_die_design"
    output_dir: str = "."
    sweep: SweepConfig | None = None

    def __post_init__(self) -> None:
        for name, kinds, kind in (("dataset", (str, os.PathLike, type(None)),
                                   "a path or None"),
                                  ("models", (list, tuple), "a list"),
                                  ("output_dir", (str, os.PathLike), "a path"),
                                  ("sweep", (SweepConfig, type(None)),
                                   "a SweepConfig or None")):
            value = getattr(self, name)
            if not isinstance(value, kinds):
                raise InvalidInputError(f"{name} must be {kind}, got {shown(value)}")
        models = tuple(LossModel(m) for m in self.models)
        for i, model in enumerate(models):
            if model in models[:i]:  # a second fit would replace the first
                raise InvalidInputError(f"models lists {model.value!r} more than once")
        object.__setattr__(self, "models", models)
        object.__setattr__(self, "weighting", Weighting(self.weighting))
        object.__setattr__(self, "grouping", Grouping(self.grouping))
        if self.dataset is not None and not Path(self.dataset).is_file():
            raise InvalidInputError(f"dataset not found: {self.dataset}")

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        raw = read_json(path, f"bad config {path}")
        try:
            sweep = raw.get("sweep")
            sweep = SweepConfig(**{k: v for k, v in sweep.items()
                                   if k not in _RETIRED_SWEEP_KEYS}
                                ) if sweep is not None else None  # {}: default sweep
            return cls(**{**raw, "sweep": sweep})
        except (AttributeError, TypeError, ValueError) as exc:
            # a non-object, an unknown key or a bad value
            raise InvalidInputError(f"bad config {path}: {exc}") from exc


#: json's string quoting, in C where the interpreter has it.
_quote = json.encoder.encode_basestring_ascii


def _scalar(obj) -> str:
    """The JSON text of a value that is not a dict, list or tuple, as
    ``json.dumps`` writes it, except that a finite float is written as
    ``repr(float(f"{obj:.9g}"))`` (``123456789.5`` reads ``123456790.0``,
    ``1e-320`` stays ``1e-320``) and any other float as null.

    ``"%.9g"`` writes repr's digits, and in repr's form except at decimal
    exponents 9 to 15, which repr writes in full, and below the normal
    range, where the rounded float may hold fewer digits; only there is
    repr taken.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        text = "%.9g" % obj
        if "e" not in text:  # exponent -4 to 8; repr ends a whole number in ".0"
            return text if "." in text else text + ".0"
        # "e-05" and "+100" sort outside "e+09" to "e+15"
        if "e+09" <= text[-4:] <= "e+15" or abs(obj) < sys.float_info.min:
            return repr(float(text))
        return text
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj)
    # a bool; any other type raises json's TypeError
    return json.dumps(obj)


def _json_text(value, pad: str) -> str:
    """The JSON text of ``value`` as :func:`write_report_json` writes it;
    ``pad`` is the line break and indent before its closing bracket."""
    if not isinstance(value, (dict, list, tuple)):
        return _scalar(value)
    inner = pad + "  "
    if isinstance(value, dict):
        items = [f"{_quote(key)}: {_json_text(value[key], inner)}"
                 for key in sorted(value)]
        brackets = "{}"
    else:
        items, brackets = [_json_text(item, inner) for item in value], "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def write_report_json(report: dict, path) -> None:
    """Write ``report`` as ``json.dumps(report, indent=2, sort_keys=True)``
    does, each float rounded to 9 significant digits and each non-finite
    one written as null (see :func:`_scalar`).

    The walk recurses once per level.  A report holds documents read
    within :data:`~qsurfloss.errors.MAX_JSON_DEPTH` (16) levels, and those
    the toolkit reads nest at most 3.
    """
    write_text(path, _json_text(report, "\n") + "\n")


def _model_q(inv_q: np.ndarray, where) -> np.ndarray:
    """The modeled Q, ``1 / inv_q``, and NaN where ``inv_q`` is 0 or less.

    Raises
    ------
    InvalidInputError
        At the first other 1/Q that is not a finite float or whose inverse
        is not, named by ``where`` from its flat index.
    """
    with np.errstate(over="ignore"):  # an inverse beyond the float range, refused
        q = 1.0 / np.where(inv_q > 0, inv_q, np.nan)
    bad = ~((inv_q <= 0) | ((q > 0) & (q < math.inf)))
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidInputError(f"modeled Q {where(i)} is not a finite float "
                                f"(1/Q = {inv_q.flat[i]:.9g})")
    return q


def _write_q_table(points, x_name: str, x, inv_q: dict, path) -> None:
    """Write the measured Q of each point, and the Q of each model, against
    the column ``x`` named ``x_name``: p_sm or the normalized PR.  ``inv_q``
    maps each model column's header to its modeled 1/Q; a 1/Q that is not
    positive, and a q_std that is None or 0, is an empty cell.  An ``x``
    and a modeled Q that are not finite floats are refused."""
    ids = [p.group_id for p in points]
    if not np.isfinite(x).all():
        i = int(np.argmin(np.isfinite(x)))
        raise InvalidInputError(f"{x_name} of point {ids[i]!r} is not a finite "
                                f"float ({x[i]:.9g})")
    q_columns = [_model_q(column, lambda i, name=name: f"of point {ids[i]!r} "
                          f"in column {name}") for name, column in inv_q.items()]
    write_csv(path, ["group_id", x_name, "q_measured", "q_std", *inv_q], zip(
        ids,
        ["%.9g" % v for v in x.tolist()],
        ["%.9g" % p.q_mean for p in points],
        ["%.9g" % p.q_std if p.q_std else "" for p in points],
        *(["%.9g" % v if v == v else "" for v in column.tolist()]
          for column in q_columns)))


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
        unbounded, or it or its inverse is not a finite float there.
    """
    axes = []
    for name in ("p_sm", "p_j"):
        values = [getattr(p, name) for p in points]
        if min(values) == 0:
            raise InvalidInputError(
                f"{name} is 0 at a fit point; the model surface's "
                f"log-spaced grid needs {name} > 0")
        # 10**log10(stop) can overflow near the float maximum, but geomspace
        # sets both ends to the given values
        with np.errstate(over="ignore"):
            axes.append(np.geomspace(min(values), max(values), _SURFACE_GRID_POINTS))
    p_sm, p_j = axes
    inv_q = model_inverse_q(fit, p_sm[:, None], p_j[None, :])

    def at(flat: int) -> str:
        i, j = np.unravel_index(flat, inv_q.shape)
        return f"at p_sm={p_sm[i]:.9g}, p_j={p_j[j]:.9g}"

    if not inv_q.all():
        raise InvalidInputError(
            f"modeled 1/Q is 0 {at(int(np.argmin(inv_q != 0)))}; "
            f"Q is unbounded there")
    q = _model_q(inv_q, at)
    # ",<p_j>,%.9g\r\n" per p_j; a line's p_sm cell leads each of them
    j_rows = [f",{v:.9g},%.9g\r\n" for v in p_j.tolist()]
    template = "p_sm,p_j,q_model\r\n" + "".join(
        sm + sm.join(j_rows) for sm in [f"{v:.9g}" for v in p_sm.tolist()])
    # row-major over (p_sm, p_j), the order of the grid's flattened Q
    write_text(path, template % tuple(q.ravel().tolist()))


@contextlib.contextmanager
def _stage(errors: list, name: str, output: Path | None = None):
    """One report stage: a QSurfLossError raised in the ``with`` body is
    listed under ``errors`` as ``{"stage": name, "error": ...}`` once
    ``output``, a file the stage left half-written, is removed (a directory
    there stays), and the run goes on."""
    try:
        yield
    except QSurfLossError as exc:
        if output is not None:
            with contextlib.suppress(OSError):
                output.unlink(missing_ok=True)
        errors.append({"stage": name, "error": str(exc)})


def _emit(manifest, errors, out_dir: Path, kind: str, write,
          status: str = "written") -> None:
    """Write ``<kind>.csv`` with ``write(path)`` as stage ``write[<kind>]``
    and list it in ``manifest`` once written."""
    path = out_dir / f"{kind}.csv"
    with _stage(errors, f"write[{kind}]", path):
        write(path)
        manifest.append({"path": path.name, "kind": kind, "status": status})


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute the configured stages and write the report bundle.

    Returns the report dictionary (also written as ``report.json``).  A
    failed stage, ``fit[<model>]``, ``write[<kind>]``, ``sweep`` or
    ``sweep.cutoff_sensitivity``, does not abort the run: it is listed
    under ``errors`` and flips ``status`` to ``"partial"`` so callers can
    exit nonzero.

    Raises
    ------
    InvalidInputError
        If the device table is bad or cannot be grouped, or ``output_dir``
        cannot be created (nothing is written in that case); the config
        was checked whole when it was built.
    """
    out_dir = Path(config.output_dir)

    manifest: list[dict] = []
    errors: list[dict] = []
    report: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "grouping": config.grouping.value,
        "weighting": config.weighting.value,
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
        for model in config.models:
            with _stage(errors, f"fit[{model.value}]"):
                fit = fits[model.value] = FITTERS[model](
                    points, weighting=config.weighting)
                report["fits"][model.value] = {
                    **fit.to_json_dict(), "points": [dict(vars(p)) for p in points]}

        p_sm = np.array([p.p_sm for p in points])
        p_j = np.array([p.p_j for p in points])
        if fits:
            _emit(manifest, errors, out_dir, "q_vs_psm",
                  lambda path: _write_q_table(points, "p_sm", p_sm, {
                      f"q_model[{name}]": model_inverse_q(fit, p_sm, p_j)
                      for name, fit in fits.items()}, path))
        if LossModel.SM_PLUS_J.value in fits:
            fit = fits[LossModel.SM_PLUS_J.value]

            def write_q_vs_npr(path):  # normalizing refuses tan_d_sm = 0
                npr = normalized_pr(p_sm, p_j, fit.tan_d_sm, fit.tan_d_j)
                _write_q_table(points, "normalized_pr", npr,
                               {"q_model": model_inverse_q(fit, p_sm, p_j)}, path)

            _emit(manifest, errors, out_dir, "q_vs_normalized_pr", write_q_vs_npr)
            _emit(manifest, errors, out_dir, "q_model_surface",
                  lambda path: _write_model_surface(points, fit, path))

    if config.sweep is not None:
        sweep_cfg = config.sweep
        with _stage(errors, "sweep"):
            sweep_points = sweep_cfg.run()
            failed = [p.width_um for p in sweep_points if p.error]
            _emit(manifest, errors, out_dir, "psm_width_sweep",
                  lambda path: write_sweep_csv(sweep_points, path),
                  status="partial" if failed else "written")
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
            with _stage(errors, "sweep.cutoff_sensitivity"):
                values = [{"cutoff_um": c, "p_sm": p}
                          for c, p in cutoff_sensitivity(width, sweep_cfg.spec)]
                report["sweep"]["cutoff_sensitivity"] = {"width_um": width,
                                                         "values": values}

    report["status"] = "partial" if errors else "ok"
    manifest.append({"path": "report.json", "kind": "report",
                     "status": "written"})
    write_report_json(report, out_dir / "report.json")
    return report
