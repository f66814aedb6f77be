"""The three benchmark workloads: seeded inputs, one op each, output checks.

Every workload is built from a seed alone and exposes three steps:

* ``prepare(k)`` clears what op ``k`` will write (not timed);
* ``op(k)`` is the timed call into the package's public entry points;
* ``check(k, result)`` checks the outputs against independent bands and
  invariants (not timed) and returns the numbers stored next to the timing.
  It raises :class:`CheckFailed` when an output is wrong.

The checks use bands and invariants rather than golden bytes, so that a
deliberate physics change inside the bands still passes while real breakage
counts as a failed op.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import qsurfloss
from qsurfloss import cli, lossmodel
from qsurfloss.participation import InterfaceRegion, InterfaceSpec
from qsurfloss.solver import SOLVE_RESIDUAL_TOL

TWO_PI = 2.0 * math.pi


class CheckFailed(Exception):
    """An op produced output outside its correctness bands."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# --------------------------------------------------------------------------
# report_sweep: `qsurfloss report` with the README's config and a seeded sweep

#: Criterion 5 endpoint references: p_sm at 1 um and at 20 um.
P_SM_REF_1UM = 3.3e-3
P_SM_REF_20UM = 2.1e-4
#: Criteria 2 and 3 bands on the bundled table.
SM_J_TAN_SM_BAND = (7.1e-4, 1.07e-3)
SM_J_TAN_J_BAND = (2.8e-3, 4.2e-3)
SM_J_REL_STDERR_MAX = 0.15
SM_Q0_TAN_SM_BAND = (6.6e-4, 1.0e-3)
SM_Q0_Q0_BAND = (5.7e6, 8.5e6)


def p_sm_reference(width_um: float) -> float:
    """Criterion 5's two endpoint references joined by a power law in width."""
    slope = math.log(P_SM_REF_20UM / P_SM_REF_1UM) / math.log(20.0)
    return P_SM_REF_1UM * width_um**slope


def check_report(report: dict, sweep: dict) -> dict:
    """Check one ``report.json`` of the report_sweep workload.

    Bands: the fit bands of acceptance criteria 2 and 3, and criterion 5's
    sweep bands (strictly decreasing p_sm, endpoints within a factor of 2 of
    the reference, p_sm * width flat to +/-15%).  A fixed cutoff breaks the
    flatness on purpose: there the scale law p(w, c) * w = F(c / w), with F
    decreasing, requires p_sm * width to grow with width instead, and the
    endpoint band widens to [0.1, 2] of the reference because a cutoff of up
    to 0.1 um removes up to a tenth of a 1 um strip.
    """
    _require(report.get("status") == "ok", f"report status {report.get('status')!r}")
    fits = report["fits"]
    sm_j = fits["sm+j"]
    tan_sm = sm_j["parameters"]["tan_d_sm"]
    tan_j = sm_j["parameters"]["tan_d_j"]
    _require(SM_J_TAN_SM_BAND[0] <= tan_sm <= SM_J_TAN_SM_BAND[1],
             f"sm+j tan_d_sm {tan_sm:.3e} outside {SM_J_TAN_SM_BAND}")
    _require(SM_J_TAN_J_BAND[0] <= tan_j <= SM_J_TAN_J_BAND[1],
             f"sm+j tan_d_j {tan_j:.3e} outside {SM_J_TAN_J_BAND}")
    for name, value in (("tan_d_sm", tan_sm), ("tan_d_j", tan_j)):
        rel = sm_j["stderr"][name] / value
        _require(rel < SM_J_REL_STDERR_MAX, f"sm+j {name} relative error {rel:.1%}")
    sm_q0 = fits["sm+q0"]["parameters"]
    _require(SM_Q0_TAN_SM_BAND[0] <= sm_q0["tan_d_sm"] <= SM_Q0_TAN_SM_BAND[1],
             f"sm+q0 tan_d_sm {sm_q0['tan_d_sm']:.3e} outside {SM_Q0_TAN_SM_BAND}")
    _require(SM_Q0_Q0_BAND[0] <= sm_q0["q0"] <= SM_Q0_Q0_BAND[1],
             f"sm+q0 Q0 {sm_q0['q0']:.3e} outside {SM_Q0_Q0_BAND}")

    points = report["sweep"]["points"]
    widths = np.linspace(sweep["width_min_um"], sweep["width_max_um"], sweep["points"])
    _require(len(points) == len(widths), f"{len(points)} sweep points, want {len(widths)}")
    for p, w in zip(points, widths):
        _require(p["error"] is None, f"sweep point {w:g} um failed: {p['error']}")
        _require(_rel(p["width_um"], w) < 1e-8, f"sweep width {p['width_um']} != {w}")
        for key in ("p_sm", "p_sa", "p_ma"):
            _require(0.0 < p[key] < 1.0, f"{key} = {p[key]} at {w:g} um outside (0, 1)")
    p_sm = np.array([p["p_sm"] for p in points])
    pw = p_sm * widths
    _require(bool(np.all(np.diff(p_sm) < 0)), "p_sm is not strictly decreasing in width")

    fixed = sweep.get("cutoff_um") is not None
    low = 0.1 if fixed else 0.5
    for i in (0, -1):
        ratio = p_sm[i] / p_sm_reference(widths[i])
        _require(low <= ratio <= 2.0,
                 f"p_sm({widths[i]:g} um) is {ratio:.2f} x the reference, "
                 f"outside [{low}, 2]")
    if fixed:
        _require(all(p["cutoff_um"] == sweep["cutoff_um"] for p in points),
                 "sweep points do not carry the fixed cutoff")
        _require(bool(np.all(np.diff(pw) > -1e-8 * pw[1:])),
                 "p_sm * width decreases with width at a fixed cutoff")
        spread = None
    else:
        spread = float(np.max(np.abs(pw - pw.mean())) / pw.mean())
        _require(spread <= 0.15, f"p_sm * width spread +/-{spread:.1%} > 15%")

    block = report["sweep"]["cutoff_sensitivity"]["values"]
    block_p = [v["p_sm"] for v in block]
    _require(all(a > b > 0 for a, b in zip(block_p, block_p[1:])),
             "cutoff-sensitivity p_sm does not fall as the cutoff grows")
    return {
        "unknowns": sweep["n_fingers"] * sweep["elements_per_strip"],
        "p_sm_first": float(p_sm[0]),
        "p_sm_last": float(p_sm[-1]),
        "pw_spread": spread,
        "tan_d_sm": tan_sm,
        "tan_d_j": tan_j,
        "q0": sm_q0["q0"],
    }


class ReportSweep:
    """One op is one ``qsurfloss report --config <cfg>`` through click."""

    name = "report_sweep"
    accuracy_metric = None  # no independent oracle for the sweep

    def __init__(self, seed: int, work_dir: Path, size: str = "full"):
        rng = np.random.default_rng([seed, 1])
        points, elements = (20, 256) if size == "full" else (4, 32)
        self.sweep = {
            "width_min_um": round(float(rng.uniform(1.0, 6.0)), 3),
            "width_max_um": round(float(rng.uniform(12.0, 20.0)), 3),
            "points": points,
            "n_fingers": 7,
            "elements_per_strip": elements,
        }
        if rng.integers(2):
            # fixed cutoff between 10 nm and the 0.1 um film-thickness
            # default; below half of every width in the sweep
            cutoff = float(np.exp(rng.uniform(math.log(0.01), math.log(0.1))))
            self.sweep["cutoff_um"] = round(cutoff, 4)
        self.out_dir = work_dir / "report"
        self.config_path = work_dir / "report_config.json"
        config = {
            "models": ["sm+j", "sm+q0"],
            "weighting": "invvar",
            "grouping": "per_die_design",
            "output_dir": str(self.out_dir),
            "sweep": self.sweep,
        }
        self.config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")

    def describe(self) -> dict:
        return {"sweep": self.sweep}

    def expected(self) -> dict:
        """Per-op layer counts of the parent commit's algorithm: one solve per
        sweep width plus one for the cutoff block, at fingers x elements."""
        solves = self.sweep["points"] + 1
        return {
            "solver.solve_cross_section.calls": solves,
            "solver.solve_cross_section.unknowns_max":
                self.sweep["n_fingers"] * self.sweep["elements_per_strip"],
            "geometry.interdigital_unit_cell.calls": solves,
            "qubitfit.fit_exponential.calls": 0,
        }

    def prepare(self, k: int) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self, k: int) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                cli.main.main(
                    args=["report", "--config", str(self.config_path)],
                    prog_name="qsurfloss",
                    standalone_mode=False,
                )
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    raise RuntimeError(
                        f"qsurfloss report exited {exc.code}: {sink.getvalue()}"
                    ) from None

    def check(self, k: int, result) -> dict:
        path = self.out_dir / "report.json"
        _require(path.exists(), "report.json was not written")
        for name in ("psm_width_sweep.csv", "q_vs_psm.csv"):
            _require((self.out_dir / name).exists(), f"{name} was not written")
        report = json.loads(path.read_text(encoding="utf-8"))
        return check_report(report, self.sweep)


# --------------------------------------------------------------------------
# solve_general: seeded asymmetric cross sections through refine_until_converged

#: Energy tolerance of the refinement.  With 32 starting elements per strip
#: and features of 4-12 um, every section converges at 256 elements per strip
#: (changes per doubling fall 4x; this sits between the largest 128->256 and
#: the smallest 64->128 change with ~20% margin), so the run's cost does not
#: depend on the seed.
SOLVE_TOL = 5.5e-5
SOLVE_MAX_ELEMENTS = 4096
#: Strip counts cycled through; the repeated 5 puts the median op inside one
#: size class instead of on a boundary between two.
STRIP_CYCLE = (3, 4, 5, 6, 5)
SUBSTRATES = {"sapphire": 10.15, "silicon": 11.7}
POTENTIALS = (-1.0, -0.5, 0.0, 0.5, 1.0)
#: Bound on |reconstructed gap voltage - dV| / |dV|; measured 3.6e-3 to
#: 5.9e-3 at 256 elements per strip over 120 sections.
GAP_VOLTAGE_REL_TOL = 2e-2
NEUTRALITY_TOL = 1e-8


def random_section(rng: np.random.Generator, n_strips: int, discretization: int):
    """Asymmetric strip array: unequal widths and gaps, adjacent potentials differ."""
    x = float(rng.uniform(-50.0, 50.0))
    strips, pots = [], []
    for _ in range(n_strips):
        width = float(rng.uniform(4.0, 12.0))
        v = float(rng.choice(POTENTIALS))
        while pots and v == pots[-1]:
            v = float(rng.choice(POTENTIALS))
        pots.append(v)
        strips.append(qsurfloss.Strip(round(x, 4), round(width, 4), v))
        x += width + float(rng.uniform(4.0, 12.0))
    substrate = str(rng.choice(sorted(SUBSTRATES)))
    return qsurfloss.CrossSection(
        strips,
        eps_sub_rel=SUBSTRATES[substrate],
        discretization=discretization,
        label=f"{n_strips}-strip {substrate}",
    )


SOLVE_SPECS = [
    InterfaceSpec(InterfaceRegion.SM),
    InterfaceSpec(InterfaceRegion.SA),
    InterfaceSpec(InterfaceRegion.MA),
]


class SolveGeneral:
    """One op is one seeded asymmetric section through the generic solver."""

    name = "solve_general"
    accuracy_metric = "solver.reconstruct_gap_voltage.rel_err"

    def __init__(self, seed: int, work_dir: Path, size: str = "full"):
        rng = np.random.default_rng([seed, 2])
        if size == "full":
            self.tol, self.max_elements, start = SOLVE_TOL, SOLVE_MAX_ELEMENTS, 32
        else:
            self.tol, self.max_elements, start = 2e-4, 1024, 32
        self.sections = [
            random_section(rng, n, start) for _ in range(8) for n in STRIP_CYCLE
        ]
        self.csv_path = work_dir / "solution.csv"

    def describe(self) -> dict:
        return {
            "rel_tol": self.tol,
            "max_total_elements": self.max_elements,
            "sections": len(self.sections),
            "strip_cycle": list(STRIP_CYCLE),
        }

    def expected(self) -> dict:
        """The generic path: no sweep, no interdigital cells, one refinement."""
        return {
            "participation.psm_width_sweep.calls": 0,
            "geometry.interdigital_unit_cell.calls": 0,
            "solver.refine_until_converged.calls": 1,
        }

    def prepare(self, k: int) -> None:
        self.csv_path.unlink(missing_ok=True)

    def op(self, k: int):
        geom = self.sections[k % len(self.sections)]
        sol = qsurfloss.refine_until_converged(
            geom, self.tol, max_total_elements=self.max_elements
        )
        pset = qsurfloss.participation_set(sol, SOLVE_SPECS)
        volts = [qsurfloss.reconstruct_gap_voltage(sol, i) for i in range(len(sol.gaps))]
        qsurfloss.solution_to_csv(sol, self.csv_path)
        return geom, sol, pset, volts

    def check(self, k: int, result) -> dict:
        geom, sol, pset, volts = result
        return check_solution(geom, sol, pset, volts, self.csv_path, self.tol)


def check_solution(geom, sol, pset, volts, csv_path: Path, tol: float) -> dict:
    """Residual, charge neutrality, participations in [0, 1], gap voltages."""
    n = sol.elements_per_strip * len(sol.strips)
    _require(sol.residual_norm <= SOLVE_RESIDUAL_TOL,
             f"residual {sol.residual_norm:.2e} > {SOLVE_RESIDUAL_TOL:.0e}")
    _require(sol.estimated_rel_error is not None and sol.estimated_rel_error < tol,
             f"refinement stopped at change {sol.estimated_rel_error} >= {tol}")
    charges = np.array(sol.strip_charges())
    imbalance = abs(charges.sum()) / np.abs(charges).sum()
    _require(imbalance <= NEUTRALITY_TOL, f"net charge {imbalance:.2e} of total")
    _require(sol.energy_per_len > 0, f"energy {sol.energy_per_len:.3e} J/m")
    for name in ("p_sm", "p_sa", "p_ma"):
        value = getattr(pset, name)
        _require(value is not None and 0.0 < value <= 1.0, f"{name} = {value}")
    errors = []
    for i, v in enumerate(volts):
        dv = geom.strips[i].potential - geom.strips[i + 1].potential
        errors.append(abs(v - dv) / abs(dv))
    worst = max(errors)
    _require(worst <= GAP_VOLTAGE_REL_TOL,
             f"gap voltage error {worst:.2e} > {GAP_VOLTAGE_REL_TOL:.0e}")
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    want = n + len(sol.gaps) * sol.elements_per_strip
    _require(rows == want, f"field CSV has {rows} rows, want {want}")
    return {
        "unknowns": n,
        "levels": sol.refinement_levels,
        "energy_j_per_m": sol.energy_per_len,
        "capacitance_f_per_m": sol.capacitance_per_len,
        "residual": sol.residual_norm,
        "p_sm": pset.p_sm,
        "p_sa": pset.p_sa,
        "p_ma": pset.p_ma,
        "rel_err": worst,
    }


# --------------------------------------------------------------------------
# measurement_analysis: a synthetic campaign through the measurement chain

GEOMETRIES = ("interdigital_2d", "dumbbell_2d", "dumbbell_3d")
TRUE_TAN_D_SM = 8.5e-4
TRUE_TAN_D_J = 3.2e-3
NOISE = 0.02
OUTLIER_SHARE = 0.15
#: Criterion 7's T1-recovery tolerance on the median of T1_fit / T1_true.
T1_BIAS_TOL = 0.03
#: Bound on the median |T1_fit / T1_true - 1|; measured 2.8-3.1% for traces
#: of 32-64 delays at noise 0.02.
T1_REL_TOL = 0.1
#: Criterion 1's tolerance on Q recomputed from (T1, T_Purcell, omega_q).
Q_CONSISTENCY_TOL = 0.05
#: Bands on the recovered loss tangents around the generating truth;
#: measured at most 2.4% and 9.7% over 80 campaigns.
TAN_D_SM_REL_TOL = 0.1
TAN_D_J_REL_TOL = 0.3


def make_campaign(rng: np.random.Generator, n_devices: int, rounds: tuple,
                  delays: tuple) -> dict:
    """Devices, their true loss tangents and one decay trace per T1 round.

    The traces follow the independent model ``1/T1 = 1/T1' + 1/T_Purcell``
    with ``Q = omega_q T1' = 1 / (p_sm tan_sm + p_j tan_j)``; each round's T1
    scatters by 8% around the device mean, and a fixed share of the traces
    carries readout outliers and is fitted with the robust loss.  Rounds per
    device and delays per trace step through their ranges by device index, so
    every seed gives a campaign of the same shape and cost.

    Like the bundled set, the 13 designs span p_sm over its whole range
    (log-spaced, jittered) with p_j in seeded order, and every design is
    measured on two or three devices; randomly drawn designs can all sit at
    high p_sm, which leaves tan_d_j barely determined by the data.
    """
    tan_sm = TRUE_TAN_D_SM * float(rng.uniform(0.8, 1.2))
    tan_j = TRUE_TAN_D_J * float(rng.uniform(0.8, 1.2))
    n_designs = 13
    p_sm_grid = np.geomspace(1.5e-4, 3.5e-3, n_designs) * rng.uniform(0.9, 1.1, n_designs)
    p_j_grid = rng.permutation(np.geomspace(1.5e-5, 6e-5, n_designs))
    designs = [
        (float(p_sm_grid[i]), float(p_j_grid[i] * rng.uniform(0.9, 1.1)),
         GEOMETRIES[i % len(GEOMETRIES)])
        for i in range(n_designs)
    ]
    devices, traces = [], []
    for d in range(n_devices):
        p_sm, p_j, geometry = designs[d % n_designs]
        f_q = float(rng.uniform(3.8, 5.2))
        f_c = f_q + float(rng.uniform(1.5, 2.5))
        g_mhz = float(rng.uniform(30.0, 80.0))
        q = 1.0 / (p_sm * tan_sm + p_j * tan_j)
        t1_intrinsic = q / (TWO_PI * f_q * 1e9) * 1e6  # us
        t_purcell_us = t1_intrinsic * float(rng.uniform(8.0, 40.0))
        # kappa that gives this Purcell limit: T = delta^2 / (g^2 kappa)
        delta, g = TWO_PI * (f_c - f_q) * 1e9, TWO_PI * g_mhz * 1e6
        kappa_khz = delta**2 / (g**2 * t_purcell_us * 1e-6) / TWO_PI / 1e3
        t1 = 1.0 / (1.0 / t1_intrinsic + 1.0 / t_purcell_us)
        n_rounds = rounds[0] + d % (rounds[1] - rounds[0] + 1)
        n_delays = delays[0] + (delays[1] - delays[0]) * d // max(n_devices - 1, 1)
        grid = np.linspace(0.0, 3.0 * t1, n_delays)
        device = {
            "device_id": f"D{d % 9 + 1}-{d // 9 + 1}",
            "geometry": geometry,
            "omega_q_ghz": f_q,
            "omega_c_ghz": f_c,
            "g_mhz": g_mhz,
            "kappa_khz": kappa_khz,
            "p_sm": p_sm,
            "p_j": p_j,
            "traces": [],
        }
        for _ in range(n_rounds):
            t1_round = t1 * float(np.exp(rng.normal(0.0, 0.08)))
            amp = float(rng.uniform(0.85, 0.95))
            offset = float(rng.uniform(0.02, 0.08))
            pop = amp * np.exp(-grid / t1_round) + offset
            pop = pop + rng.normal(0.0, NOISE, grid.size)
            device["traces"].append(len(traces))
            traces.append({"pop": pop, "grid": grid, "loss": "linear", "t1_true": t1_round})
        devices.append(device)
    n_outliers = round(OUTLIER_SHARE * len(traces))
    for i in rng.choice(len(traces), size=n_outliers, replace=False):
        t = traces[i]
        hit = rng.choice(np.arange(1, t["grid"].size), size=2, replace=False)
        t["pop"][hit] += rng.choice([-1.0, 1.0], size=2) * 0.3
        t["loss"] = "soft_l1"
    for t in traces:
        t["trace"] = qsurfloss.DecayTrace(t.pop("grid"), t.pop("pop"))
    return {"tan_d_sm": tan_sm, "tan_d_j": tan_j, "devices": devices, "traces": traces}


class MeasurementAnalysis:
    """One op is one synthetic campaign through fits, statistics, I/O and report."""

    name = "measurement_analysis"
    accuracy_metric = "qubitfit.fit_exponential.rel_err"

    def __init__(self, seed: int, work_dir: Path, size: str = "full"):
        shape = ((32, (14, 18), (32, 64)) if size == "full"
                 else (13, (12, 12), (32, 40)))
        self.campaigns = [
            make_campaign(np.random.default_rng([seed, 3, j]), *shape)
            for j in range(4)
        ]
        self.table_path = work_dir / "devices.csv"
        self.out_dir = work_dir / "analysis"

    def describe(self) -> dict:
        return {
            "campaigns": len(self.campaigns),
            "devices": len(self.campaigns[0]["devices"]),
            "traces": [len(c["traces"]) for c in self.campaigns],
        }

    def expected(self) -> dict:
        """No solver work; every fitter once directly, the two report models
        once more inside run_pipeline."""
        return {
            "solver.solve_cross_section.calls": 0,
            "lossmodel.fit_sm_only.calls": 1,
            "lossmodel.fit_sm_plus_q0.calls": 2,
            "lossmodel.fit_sm_plus_j.calls": 2,
            "dataio.save_device_table.rows": len(self.campaigns[0]["devices"]),
        }

    def prepare(self, k: int) -> None:
        self.table_path.unlink(missing_ok=True)
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def op(self, k: int) -> dict:
        campaign = self.campaigns[k % len(self.campaigns)]
        estimates = [
            qsurfloss.fit_exponential(t["trace"], loss=t["loss"])
            for t in campaign["traces"]
        ]
        records = []
        for dev in campaign["devices"]:
            fits = [estimates[i] for i in dev["traces"]]
            stats = qsurfloss.t1_statistics(fits)
            params = qsurfloss.PurcellParams.from_cyclic(
                kappa_khz=dev["kappa_khz"],
                delta_ghz=dev["omega_c_ghz"] - dev["omega_q_ghz"],
                g_mhz=dev["g_mhz"],
            )
            t_purcell_ms = qsurfloss.purcell_limit(params) * 1e3
            q_mean, q_std = qsurfloss.q_statistics_from_rounds(
                [e.t1_us for e in fits], t_purcell_ms, dev["omega_q_ghz"]
            )
            records.append(qsurfloss.DeviceRecord(
                device_id=dev["device_id"],
                geometry=dev["geometry"],
                omega_q_ghz=dev["omega_q_ghz"],
                omega_c_ghz=dev["omega_c_ghz"],
                g_mhz=dev["g_mhz"],
                t1_mean_us=stats.mean_us,
                t1_std_us=stats.std_us,
                t_purcell_ms=t_purcell_ms,
                q_mean=q_mean,
                q_std=q_std,
                p_sm=dev["p_sm"],
                p_j=dev["p_j"],
            ))
        qsurfloss.save_device_table(records, self.table_path)
        loaded = qsurfloss.load_device_table(self.table_path)
        per_die = qsurfloss.group_for_fit(loaded, mode="per_die_design")
        per_device = qsurfloss.group_for_fit(loaded, mode="per_device")
        per_die.sort(key=lambda p: (p.p_sm, p.p_j, p.group_id))
        fits = {model.value: fitter(per_die, weighting="invvar")
                for model, fitter in lossmodel.FITTERS.items()}
        report = qsurfloss.run_pipeline(qsurfloss.PipelineConfig(
            dataset=str(self.table_path),
            models=("sm+j", "sm+q0"),
            output_dir=str(self.out_dir),
        ))
        return {
            "campaign": campaign,
            "estimates": estimates,
            "records": records,
            "per_die": per_die,
            "per_device": per_device,
            "fits": fits,
            "report": report,
        }

    def check(self, k: int, result: dict) -> dict:
        return check_analysis(result, self.table_path, self.out_dir)


def check_device_table(path: Path) -> int:
    """Criterion 1 on a written table: Q from (T1, T_Purcell, omega_q).

    Parses the CSV with the standard library and recomputes
    ``Q = 2 pi f_q / (1/T1 - 1/T_Purcell)`` independently of the package.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(bool(rows), "device table is empty")
    for row in rows:
        t1 = float(row["t1_mean_us"]) * 1e-6
        t_p = float(row["t_purcell_ms"]) * 1e-3
        q = TWO_PI * float(row["omega_q_ghz"]) * 1e9 / (1.0 / t1 - 1.0 / t_p)
        q_table = float(row["q_mean_1e6"]) * 1e6
        _require(_rel(q_table, q) <= Q_CONSISTENCY_TOL,
                 f"device {row['device_id']}: Q {q_table:.4e} vs {q:.4e} "
                 "from T1 and T_Purcell")
    return len(rows)


def check_analysis(result: dict, table_path: Path, out_dir: Path) -> dict:
    """T1 recovery, table consistency, fit bands and the written report."""
    campaign = result["campaign"]
    ratios = np.array([
        e.t1_us / t["t1_true"] for e, t in zip(result["estimates"], campaign["traces"])
    ])
    bias = float(np.median(ratios)) - 1.0
    _require(abs(bias) <= T1_BIAS_TOL, f"median T1 off the truth by {bias:.2%}")
    t1_err = float(np.median(np.abs(ratios - 1.0)))
    _require(t1_err <= T1_REL_TOL, f"median T1 error {t1_err:.2%} > {T1_REL_TOL:.0%}")

    n_devices = len(campaign["devices"])
    _require(check_device_table(table_path) == n_devices, "device table row count")
    _require(len(result["per_device"]) == n_devices, "per_device point count")
    _require(sum(p.n_devices for p in result["per_die"]) == n_devices,
             "per_die_design groups do not cover every device")

    sm_j = result["fits"]["sm+j"]
    err_sm = _rel(sm_j.tan_d_sm, campaign["tan_d_sm"])
    err_j = _rel(sm_j.tan_d_j, campaign["tan_d_j"])
    _require(err_sm <= TAN_D_SM_REL_TOL, f"sm+j tan_d_sm off the truth by {err_sm:.1%}")
    _require(err_j <= TAN_D_J_REL_TOL, f"sm+j tan_d_j off the truth by {err_j:.1%}")
    for name, fit in result["fits"].items():
        _require(math.isfinite(fit.tan_d_sm) and fit.tan_d_sm > 0,
                 f"{name} tan_d_sm = {fit.tan_d_sm}")

    report = result["report"]
    _require(report["status"] == "ok", f"pipeline status {report['status']!r}")
    written = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    params = written["fits"]["sm+j"]["parameters"]
    _require(_rel(params["tan_d_sm"], sm_j.tan_d_sm) < 1e-8
             and _rel(params["tan_d_j"], sm_j.tan_d_j) < 1e-8,
             "report.json sm+j fit differs from the direct fit")
    for entry in written["outputs"]:
        _require((out_dir / entry["path"]).exists(), f"{entry['path']} missing")
    return {
        "devices": n_devices,
        "traces": len(campaign["traces"]),
        "tan_d_sm": sm_j.tan_d_sm,
        "tan_d_j": sm_j.tan_d_j,
        "tan_d_sm_true": campaign["tan_d_sm"],
        "tan_d_j_true": campaign["tan_d_j"],
        "q0": result["fits"]["sm+q0"].q0,
        "rel_err": t1_err,
    }


WORKLOADS = {w.name: w for w in (ReportSweep, SolveGeneral, MeasurementAnalysis)}
