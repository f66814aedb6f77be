"""Command-line interface.

Subcommands::

    sweep      participation versus gap/finger width -> CSV
    fit-loss   loss-tangent fits on a device table -> JSON report
    fit-t1     single-exponential T1 fit of a decay trace
    purcell    Purcell-limit estimate from dispersive parameters
    report     full pipeline driven by a JSON config

All CSV output is comma separated with a header row; JSON reports are
schema versioned and deterministic for identical inputs.
"""

from __future__ import annotations

import math
import sys
import warnings
from pathlib import Path

import click

from . import __version__
from .dataio import bundled_device_table, group_for_fit, load_device_table
from .errors import InvalidInputError, QSurfLossError, integer, real_text, shown
from .lossmodel import FITTERS, LossModel, Weighting
from .participation import write_sweep_csv
from .pipeline import PipelineConfig, SweepConfig, run_pipeline, write_report_json
from .qubitfit import (
    PurcellParams,
    fit_exponential,
    load_decay_trace,
    purcell_limit,
    t1_report_dict,
)

GROUP_MODES = {"per-die": "per_die_design", "per-device": "per_device"}
_SWEEP = SweepConfig()  # qsurfloss sweep takes a report's sweep defaults


class _Number(click.ParamType):
    """A numeric option read by the number doors: its text by
    :func:`~qsurfloss.errors.real_text`, and a count on to an int by
    :func:`~qsurfloss.errors.integer`.  Text they refuse (``1_0``,
    Arabic-Indic digits, ``2.5`` for a count) is an ``InvalidInputError``,
    which ends in one ``error:`` line like any other bad input."""

    def __init__(self, count: bool) -> None:
        self.count = count
        self.name = "integer" if count else "float"

    def convert(self, value, param, ctx):
        if not isinstance(value, str):  # a default, a number already
            return value
        message = f"{param.opts[0]} must be {'an integer' if self.count else 'a number'}"
        try:
            number = real_text(value)
            return integer(int(value), message) if self.count else number
        except ValueError:  # integer's InvalidInputError is one too
            raise InvalidInputError(f"{message}, got {shown(value)}") from None


_REAL, _COUNT = _Number(count=False), _Number(count=True)


class _TypedErrorGroup(click.Group):
    """The one error boundary: a QSurfLossError ends in one ``error:`` line,
    exit 1.  A warning that the active filters show is one ``warning:`` line."""

    def invoke(self, ctx):
        with warnings.catch_warnings():  # restores the filters and the display
            warnings.showwarning = lambda message, *_: click.echo(
                f"warning: {message}", err=True)
            try:
                return super().invoke(ctx)
            except QSurfLossError as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(1)


@click.group(cls=_TypedErrorGroup)
@click.version_option(version=__version__)
def main() -> None:
    """Interface participation and dielectric-loss analysis for
    superconducting-qubit capacitors."""


@main.command()
@click.option("--width-min", type=_REAL, default=_SWEEP.width_min_um,
              show_default=True, help="Smallest gap/finger width, um.")
@click.option("--width-max", type=_REAL, default=_SWEEP.width_max_um,
              show_default=True, help="Largest gap/finger width, um.")
@click.option("--points", type=_COUNT, default=_SWEEP.points, show_default=True,
              help="Number of sweep points.")
@click.option("--t-sm-nm", type=_REAL, default=_SWEEP.t_sm_nm, show_default=True,
              help="Substrate-metal layer thickness, nm.")
@click.option("--eps-sm", type=_REAL, default=_SWEEP.eps_sm_rel, show_default=True,
              help="Relative permittivity of the SM layer; the substrate "
                   "stays sapphire.")
@click.option("--cutoff-um", type=_REAL, default=_SWEEP.cutoff_um,
              help="Fixed edge cutoff in um; default scales with the width.")
@click.option("--out", type=click.Path(dir_okay=False), default="psm_width_sweep.csv",
              show_default=True, help="Output CSV path.")
def sweep(width_min, width_max, points, t_sm_nm, eps_sm, cutoff_um, out) -> None:
    """Compute the participation-versus-width curve of the interdigital array."""
    result = SweepConfig(
        width_min_um=width_min, width_max_um=width_max, points=points,
        t_sm_nm=t_sm_nm, eps_sm_rel=eps_sm, cutoff_um=cutoff_um,
    ).run()
    write_sweep_csv(result, out)
    n_failed = sum(1 for p in result if p.error)
    click.echo(f"wrote {out} ({len(result)} widths, {n_failed} failed)")
    if n_failed:
        sys.exit(1)


@main.command("fit-loss")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Device table CSV; bundled dataset when omitted.")
@click.option("--model", type=click.Choice([m.value for m in LossModel]),
              default=LossModel.SM_PLUS_J.value, show_default=True)
@click.option("--weights", type=click.Choice([w.value for w in Weighting]),
              default=Weighting.INVERSE_VARIANCE.value, show_default=True)
@click.option("--group", type=click.Choice(sorted(GROUP_MODES)), default="per-die",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the full fit report JSON here.")
def fit_loss(input_path, model, weights, group, out) -> None:
    """Fit the loss model to a device table and print the parameters."""
    records = load_device_table(input_path) if input_path else bundled_device_table()
    points = group_for_fit(records, mode=GROUP_MODES[group])
    fit = FITTERS[LossModel(model)](points, weighting=weights)
    if out:  # written first, so a file that cannot be written is the only output
        write_report_json({**fit.to_json_dict(), "grouping": GROUP_MODES[group]}, out)
    click.echo(f"model {model} on {len(points)} points ({group}, weights={weights})")
    click.echo(
        f"  tan_d_sm = {fit.tan_d_sm:.3e} "
        f"(+/- {fit.stderr['tan_d_sm']:.1e}, {fit.relative_stderr('tan_d_sm'):.1%})"
    )
    if fit.model is LossModel.SM_PLUS_J:
        click.echo(
            f"  tan_d_j  = {fit.tan_d_j:.3e} "
            f"(+/- {fit.stderr['tan_d_j']:.1e}, {fit.relative_stderr('tan_d_j'):.1%})"
        )
    if fit.model is LossModel.SM_PLUS_Q0:
        click.echo(f"  Q0       = {fit.q0:.3e}")
    if out:
        click.echo(f"wrote {out}")


@main.command("fit-t1")
@click.option("--trace", type=click.Path(exists=True, dir_okay=False), required=True,
              help="CSV with columns delay_us, population.")
@click.option("--meta", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Optional JSON sidecar with trace metadata.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the fit result as JSON.")
def fit_t1(trace, meta, out) -> None:
    """Fit a single-exponential decay to a measured trace."""
    data = load_decay_trace(trace, meta_path=meta)
    estimate = fit_exponential(data)
    if out:  # written first, so a file that cannot be written is the only output
        write_report_json(t1_report_dict(estimate, data), out)
    click.echo(
        f"T1 = {estimate.t1_us:.1f} us (fit error {estimate.fit_err_us:.1f} us), "
        f"amplitude {estimate.amplitude:.3f}, offset {estimate.offset:.3f}"
    )
    if out:
        click.echo(f"wrote {out}")


@main.command()
@click.option("--g", "g_mhz", type=_REAL, default=None,
              help="Qubit-cavity coupling, cyclic MHz.")
@click.option("--chi", "chi_mhz", type=_REAL, default=None,
              help="Dispersive shift, cyclic MHz (alternative to --g).")
@click.option("--delta", "delta_ghz", type=_REAL, default=None,
              help="Qubit-cavity detuning, cyclic GHz (inferred from --g "
                   "and --chi when omitted).")
@click.option("--kappa", "kappa_khz", type=_REAL, default=None,
              help="Cavity linewidth, cyclic kHz (required).")
def purcell(g_mhz, chi_mhz, delta_ghz, kappa_khz) -> None:
    """Estimate the readout-cavity Purcell limit.

    Provide any two of --g, --chi and --delta; the third follows from the
    dispersive relation.
    """
    if kappa_khz is None:  # refused here, not by click, to exit 1 like any error
        raise InvalidInputError("missing option --kappa")
    params = PurcellParams.from_cyclic(
        kappa_khz=kappa_khz, delta_ghz=delta_ghz, g_mhz=g_mhz, chi_mhz=chi_mhz)
    limit = purcell_limit(params)
    click.echo(f"g = {params.g_effective / (2 * math.pi * 1e6):.4g} MHz (cyclic)")
    click.echo("T_Purcell = unbounded" if limit == math.inf
               else f"T_Purcell = {limit * 1e3:.4g} ms")


@main.command()
@click.option("--config", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Pipeline configuration JSON.")
def report(config) -> None:
    """Run the full pipeline from a JSON config and write the report bundle."""
    cfg = PipelineConfig.from_json(config)
    result = run_pipeline(cfg)
    out_dir = Path(cfg.output_dir)
    for entry in result["outputs"]:
        click.echo(f"wrote {out_dir / entry['path']} [{entry['status']}]")
    if result["status"] != "ok":
        for err in result["errors"]:
            click.echo(f"stage {err['stage']} failed: {err['error']}", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
