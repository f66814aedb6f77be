"""Relaxation-measurement analysis: T1 fits, statistics, Purcell handling.

Turns raw decay traces into the Purcell-subtracted quality factors that the
loss model consumes.  Frequencies follow the device-table convention: qubit
and cavity frequencies cyclic in GHz, couplings cyclic in MHz, cavity
linewidths cyclic in kHz; :class:`PurcellParams` stores angular rad/s.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FitFailureError, InvalidInputError

#: Purcell lifetimes above this value (s) are reported as unbounded.
UNBOUNDED_PURCELL_S = 1e6

#: Detuning-to-coupling ratio below which the dispersive estimate is dubious.
DISPERSIVE_RATIO_WARN = 5.0

TWO_PI = 2.0 * math.pi


@dataclass
class DecayTrace:
    """Excited-state population versus readout delay for one measurement round."""

    delays_us: np.ndarray
    populations: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.delays_us = np.asarray(self.delays_us, dtype=float)
        self.populations = np.asarray(self.populations, dtype=float)
        if self.delays_us.shape != self.populations.shape:
            raise InvalidInputError("delays and populations must have equal length")
        if self.delays_us.size < 8:
            raise InvalidInputError(
                f"need at least 8 samples, got {self.delays_us.size}"
            )
        if np.any(np.diff(self.delays_us) <= 0):
            raise InvalidInputError("delays must be strictly increasing")
        if not np.all(np.isfinite(self.populations)):
            raise InvalidInputError("populations must be finite")


@dataclass
class T1Estimate:
    """Result of a single-exponential decay fit."""

    t1_us: float
    fit_err_us: float
    amplitude: float
    offset: float

    def __post_init__(self) -> None:
        if self.t1_us <= 0:
            raise InvalidInputError("t1 must be > 0")
        if self.fit_err_us < 0:
            raise InvalidInputError("fit_err must be >= 0")


@dataclass
class T1Statistics:
    mean_us: float
    std_us: float          # population standard deviation
    median_us: float
    hist_counts: np.ndarray
    bin_edges: np.ndarray


def _decay(t, amplitude, t1, offset):
    return amplitude * np.exp(-t / t1) + offset


def _noise_floor(populations: np.ndarray) -> float:
    """Noise scale from second differences (insensitive to smooth decay)."""
    if populations.size < 3:
        return 0.0
    return float(np.std(np.diff(populations, 2)) / math.sqrt(6.0))


def _initial_guess(delays: np.ndarray, populations: np.ndarray):
    """Deterministic start values: A from endpoint drop, B from the tail,
    T1 from the first crossing of 1/e of the range."""
    a0 = populations[0] - populations[-1]
    b0 = populations[-1]
    target = b0 + a0 / math.e
    idx = int(np.argmin(np.abs(populations - target)))
    t10 = delays[idx]
    if t10 <= delays[0]:
        t10 = delays[0] + (delays[-1] - delays[0]) / 3.0
    return a0, t10, b0


# an optimizer's trial step to T1 < 0 overflows the model to inf, and the
# optimizer rejects that step
@np.errstate(over="ignore")
def fit_exponential(trace: DecayTrace, loss: str = "linear") -> T1Estimate:
    """Least-squares fit of ``A exp(-t/T1) + B`` to one decay trace.

    The start values follow a fixed rule, so the fit is deterministic.  The
    quoted ``fit_err`` is the 1-sigma T1 uncertainty from the Jacobian at
    the optimum.  ``loss="soft_l1"`` switches to a robust cost for traces
    with readout outliers.

    Raises
    ------
    FitFailureError
        If no decay is visible above the noise floor, the optimizer fails,
        or the fitted T1 comes out non-positive.
    """
    t = trace.delays_us
    y = trace.populations
    span = float(np.ptp(y))
    if span <= 3.0 * _noise_floor(y):
        raise FitFailureError(
            "no visible decay: population range is within the noise floor"
        )
    p0 = _initial_guess(t, y)

    # imported here so that loading the package stays free of scipy
    from scipy.optimize import curve_fit, least_squares

    try:
        if loss == "linear":
            popt, pcov = curve_fit(_decay, t, y, p0=p0, maxfev=10000)
        else:
            res = least_squares(
                lambda p: _decay(t, *p) - y, x0=p0, loss=loss, max_nfev=10000
            )
            if not res.success:
                raise FitFailureError(
                    f"robust fit did not converge: {res.message} "
                    f"({res.nfev} evaluations)"
                )
            popt = res.x
            # Gauss-Newton covariance at the optimum, chi2-scaled
            jtj_inv = np.linalg.pinv(res.jac.T @ res.jac)
            dof = max(t.size - 3, 1)
            pcov = jtj_inv * 2.0 * res.cost / dof
    except RuntimeError as exc:
        raise FitFailureError(f"exponential fit did not converge: {exc}") from exc

    amplitude, t1, offset = popt
    if t1 <= 0:
        raise FitFailureError(f"fit produced non-positive T1 = {t1:.3g} us")
    fit_err = float(np.sqrt(pcov[1, 1])) if np.all(np.isfinite(pcov)) else math.inf
    return T1Estimate(
        t1_us=float(t1),
        fit_err_us=fit_err,
        amplitude=float(amplitude),
        offset=float(offset),
    )


def t1_statistics(estimates, bins: int = 12) -> T1Statistics:
    """Mean, population standard deviation and histogram of repeated T1 fits."""
    if not estimates:
        raise InvalidInputError("need at least one estimate")
    values = np.array([e.t1_us for e in estimates], dtype=float)
    counts, edges = np.histogram(values, bins=bins)
    return T1Statistics(
        mean_us=float(values.mean()),
        std_us=float(values.std()),
        median_us=float(np.median(values)),
        hist_counts=counts,
        bin_edges=edges,
    )


@dataclass
class PurcellParams:
    """Dispersive-readout parameters in angular units (rad/s).

    Any missing member of {g, chi, delta} is inferred from the dispersive
    relation ``chi = g^2 / delta``; at least two of the three are required
    (the linewidth ``kappa`` always is).
    """

    kappa: float
    delta: float | None = None
    g: float | None = None
    chi: float | None = None

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise InvalidInputError("cavity linewidth kappa must be > 0")
        known = sum(v is not None for v in (self.delta, self.g, self.chi))
        if known < 2:
            raise InvalidInputError(
                "provide at least two of delta, g and chi"
            )
        if self.delta is not None and self.delta == 0:
            raise InvalidInputError("detuning delta must be nonzero")
        if self.g is not None and self.g < 0:
            raise InvalidInputError("g must be >= 0")

    @classmethod
    def from_cyclic(
        cls,
        kappa_khz: float,
        delta_ghz: float | None = None,
        g_mhz: float | None = None,
        chi_mhz: float | None = None,
    ) -> "PurcellParams":
        """Build from the cyclic units used in device tables."""
        return cls(
            kappa=TWO_PI * kappa_khz * 1e3,
            delta=None if delta_ghz is None else TWO_PI * delta_ghz * 1e9,
            g=None if g_mhz is None else TWO_PI * g_mhz * 1e6,
            chi=None if chi_mhz is None else TWO_PI * chi_mhz * 1e6,
        )

    @property
    def g_effective(self) -> float:
        """Coupling strength, derived from chi and delta when not given."""
        if self.g is not None:
            return self.g
        product = self.chi * self.delta
        if product < 0:
            raise InvalidInputError("chi and delta must have the same sign")
        return math.sqrt(product)

    @property
    def delta_effective(self) -> float:
        """Detuning, derived from g and chi when not given."""
        if self.delta is not None:
            return self.delta
        if self.chi == 0:
            raise InvalidInputError("cannot infer delta from chi = 0")
        return self.g**2 / self.chi

    @property
    def chi_effective(self) -> float:
        """Dispersive shift, ``g^2 / delta`` when not given."""
        if self.chi is not None:
            return self.chi
        return self.g**2 / self.delta


def purcell_limit(params: PurcellParams) -> float:
    """Relaxation-time limit through the readout cavity, in seconds.

    ``T = delta^2 / (g^2 * kappa)``; zero coupling (or a limit beyond
    ``UNBOUNDED_PURCELL_S``) returns ``math.inf``.  Warns when the
    dispersive assumption ``|delta| >> g`` is marginal.
    """
    g = params.g_effective
    if g == 0.0:
        return math.inf
    delta = params.delta_effective
    if abs(delta) / g < DISPERSIVE_RATIO_WARN:
        warnings.warn(
            f"|delta|/g = {abs(delta) / g:.2f} < {DISPERSIVE_RATIO_WARN}: "
            "dispersive Purcell estimate is unreliable",
            stacklevel=2,
        )
    t_purcell = delta**2 / (g**2 * params.kappa)
    return math.inf if t_purcell > UNBOUNDED_PURCELL_S else t_purcell


def purcell_subtract_t1(t1_us: float, t_purcell_ms: float) -> float:
    """Intrinsic T1 (us) after removing the Purcell decay channel."""
    if t1_us <= 0:
        raise InvalidInputError("t1 must be > 0")
    t_purcell_us = t_purcell_ms * 1e3
    if not t_purcell_us > t1_us:
        raise InvalidInputError(
            f"inconsistent inputs: T_Purcell = {t_purcell_ms:g} ms must exceed "
            f"the measured T1 = {t1_us:g} us"
        )
    return 1.0 / (1.0 / t1_us - 1.0 / t_purcell_us)


def purcell_subtract_q(
    t1_us: float, t_purcell_ms: float, omega_q_ghz: float
) -> float:
    """Quality factor from a measured T1 with the Purcell channel removed.

    ``Q = omega_q * T1'`` with ``1/T1' = 1/T1 - 1/T_Purcell``; the qubit
    frequency is cyclic GHz as tabulated and converted to angular internally.
    """
    if omega_q_ghz <= 0:
        raise InvalidInputError("omega_q must be > 0")
    t1_prime_us = purcell_subtract_t1(t1_us, t_purcell_ms)
    return TWO_PI * omega_q_ghz * 1e9 * t1_prime_us * 1e-6


def q_statistics_from_rounds(
    t1_rounds_us,
    t_purcell_ms: float,
    omega_q_ghz: float,
    per_round: bool = True,
) -> tuple[float, float]:
    """Mean and population std of Q over repeated T1 measurements.

    ``per_round=True`` subtracts the Purcell channel and converts each round
    to Q before averaging (subtract, convert, then apply statistics);
    ``per_round=False`` converts the mean T1 instead, in which case the
    spread is propagated from the T1 spread.
    """
    values = np.asarray(list(t1_rounds_us), dtype=float)
    if values.size == 0:
        raise InvalidInputError("need at least one round")
    if per_round:
        qs = np.array(
            [purcell_subtract_q(v, t_purcell_ms, omega_q_ghz) for v in values]
        )
        return float(qs.mean()), float(qs.std())
    q_of_mean = purcell_subtract_q(float(values.mean()), t_purcell_ms, omega_q_ghz)
    rel_spread = float(values.std()) / float(values.mean())
    return q_of_mean, q_of_mean * rel_spread


def load_decay_trace(csv_path, meta_path=None) -> DecayTrace:
    """Read a trace CSV with columns ``delay_us, population`` (+ JSON sidecar)."""
    delays, pops = [], []
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"delay_us", "population"} <= set(
            reader.fieldnames
        ):
            raise InvalidInputError(
                f"{csv_path}: expected columns delay_us, population"
            )
        for i, row in enumerate(reader, start=2):
            try:
                delays.append(float(row["delay_us"]))
                pops.append(float(row["population"]))
            except (TypeError, ValueError) as exc:
                raise InvalidInputError(f"{csv_path}: bad row {i}: {exc}") from exc
    meta = {}
    if meta_path is not None:
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
    return DecayTrace(np.array(delays), np.array(pops), meta=meta)


def write_histogram_csv(stats: T1Statistics, path) -> None:
    """Emit the T1 histogram as CSV rows of ``bin_left, count``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left_us", "count"])
        for left, count in zip(stats.bin_edges[:-1], stats.hist_counts):
            writer.writerow([f"{left:.9g}", int(count)])


def t1_report_dict(estimate: T1Estimate, trace: DecayTrace | None = None) -> dict:
    """JSON-ready summary of one T1 fit."""
    report = {
        "t1_us": estimate.t1_us,
        "fit_err_us": estimate.fit_err_us,
        "amplitude": estimate.amplitude,
        "offset": estimate.offset,
    }
    if trace is not None:
        report["n_points"] = int(trace.delays_us.size)
        report["meta"] = trace.meta
    return report
