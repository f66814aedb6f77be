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
from typing import NamedTuple

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
        if not np.all(np.isfinite(self.delays_us)):
            raise InvalidInputError("delays must be finite")
        # a comparison, not np.diff, which overflows on delays near +-1e308
        if np.any(self.delays_us[1:] <= self.delays_us[:-1]):
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


def _noise_floor(populations: np.ndarray) -> float:
    """Noise scale from second differences (insensitive to smooth decay)."""
    if populations.size < 3:
        return 0.0
    return float(np.std(np.diff(populations, 2)) / math.sqrt(6.0))


def _initial_guess(delays: np.ndarray, populations: np.ndarray) -> float:
    """Deterministic T1 start: the first delay whose population lies
    closest to 1/e of the way from the last population to the first."""
    a0 = populations[0] - populations[-1]
    target = populations[-1] + a0 / math.e
    idx = int(np.argmin(np.abs(populations - target)))
    t10 = float(delays[idx])
    if t10 <= delays[0]:
        t10 = float(delays[0] + (delays[-1] - delays[0]) / 3.0)
    return t10


#: Losses ``fit_exponential`` accepts.
LOSSES = ("linear", "soft_l1")

#: A Gauss-Newton step in s = ln T1 is cut to at most this length, so that
#: one step changes T1 by at most a factor e ...
_MAX_STEP = 1.0
#: ... the search stops once a step is this short ...
_STEP_TOL = 1e-9
#: ... and gives up after this many accepted steps.
_MAX_ITER = 1000
#: The search also gives up once T1 exceeds this many delay spans: the decay
#: is then a straight line to ~1e-4 of its drop, and A and T1 are no longer
#: separately determined.
_T1_MAX_SPANS = 1e4
_S_MAX = math.log(_T1_MAX_SPANS)
#: Trial steps below this s (delays mapped onto [0, 1]) are rejected;
#: exp(-s) stays finite.
_S_MIN = -700.0
_EPS = float(np.finfo(float).eps)


class _Weights:
    """Weights w with the T1-independent rows w * (1, y, x, xy, x^2) and
    their sums."""

    def __init__(self, basis: np.ndarray, w: np.ndarray) -> None:
        self.w = w
        self.rows = basis * w
        self.sums = self.rows.sum(axis=1).tolist()


class _Projection(NamedTuple):
    """The weighted least-squares ``A f + C`` at one T1, with f =
    exp(-x/T1) - 1, and the Gauss-Newton step in s = ln T1 from there."""

    cost: float      # weighted sum of squared residuals
    step: float      # -g/h
    h: float         # Schur complement of s in the 3x3 normal matrix
    a: float
    c: float         # offset of the f basis: B = C - A
    f: np.ndarray
    r: np.ndarray    # residual, model - y


def _project(
    x: np.ndarray, y: np.ndarray, wt: _Weights, s: float
) -> _Projection | None:
    """Variable projection of ``A exp(-x e^-s) + B`` onto y at fixed s.

    A and C = A + B solve the 2x2 weighted normal equations of the basis
    {f, 1}; ``np.expm1`` keeps f accurate as T1 grows past the delays.
    With z = x (1 + f), the model's derivative in s is ``A k z`` (k = e^-s).
    Eliminating A and C from the 3x3 Gauss-Newton system in (A, s, C)
    leaves the reduced gradient g and the Schur complement h.  Every sum is
    a weighted moment, taken in two matrix-vector products.

    Returns None where the projection is singular: the 2x2 determinant or h
    vanishes to rounding (f is constant, or the fit does not depend on T1,
    as when every delay but the first lies far beyond T1), or s < _S_MIN.
    """
    if s < _S_MIN:
        return None
    k = math.exp(-s)
    f = np.expm1(x * -k)
    sf, sfy, sxf, sxyf, sxxf = (wt.rows @ f).tolist()
    sff, sxff, sxxff = (wt.rows[::2] @ (f * f)).tolist()
    s1, sy, sx, sxy, sxx = wt.sums
    det = s1 * sff - sf * sf
    if not det > _EPS * s1 * sff:
        return None
    a = (s1 * sfy - sf * sy) / det
    c = (sy - a * sf) / s1
    sz, szf, szy = sxf + sx, sxff + sxf, sxyf + sxy
    szz = sxxff + 2.0 * sxxf + sxx
    ak = a * k
    ak2 = ak * ak
    h = ak2 * (szz - (s1 * szf * szf - 2.0 * sf * szf * sz + sff * sz * sz) / det)
    if not h > _EPS * ak2 * szz:
        return None
    r = a * f + (c - y)
    g = ak * (a * szf + c * sz - szy)
    return _Projection(float((wt.w * r) @ r), -g / h, h, a, c, f, r)


def fit_exponential(trace: DecayTrace, loss: str = "linear") -> T1Estimate:
    """Least-squares fit of ``A exp(-t/T1) + B`` to one decay trace.

    A and B enter linearly, so for every T1 they are a closed-form weighted
    least-squares solve; what is left is a damped Gauss-Newton search in
    s = ln T1, which keeps T1 > 0 (variable projection: Golub & Pereyra,
    Inverse Problems 19, R1 (2003)).  The search starts from a fixed rule,
    so the fit is deterministic.  It cuts a step in s to at most 1 (a
    factor e in T1), takes it only if the cost goes down, halving it until
    it does, and stops when a step is at most 1e-9.  The quoted ``fit_err``
    is the 1-sigma T1 uncertainty from the chi2-scaled Gauss-Newton
    covariance in (A, T1, B) at the optimum.

    ``loss="soft_l1"`` switches to the robust cost ``sum 2(sqrt(1+r^2)-1)``
    for traces with readout outliers, minimized by iteratively reweighted
    least squares with weights ``(1+r^2)^(-1/2)`` in the same loop.  Its
    covariance is the Gauss-Newton one of the robust cost: Jacobian rows
    scaled by ``sqrt(max((1+r^2)^(-3/2), eps))`` and chi2 = sum(rho)/dof.

    The fit runs on delays mapped onto [0, 1], and on populations divided
    by their largest magnitude where that exceeds 1, so no intermediate
    overflows for any finite trace.

    Raises
    ------
    InvalidInputError
        If ``loss`` is not one of :data:`LOSSES`.
    FitFailureError
        If no decay is visible above the noise floor, the projection turns
        singular, T1 runs off to infinity, the search does not converge in
        1000 steps, or T1 or the amplitude are not representable floats.
    """
    if loss not in LOSSES:
        raise InvalidInputError(
            f"loss must be one of {', '.join(LOSSES)}, got {loss!r}"
        )
    # halving first keeps the span finite for any finite delays
    half = 0.5 * trace.delays_us
    half_span = float(half[-1] - half[0])
    x = (half - half[0]) / half_span
    lo, hi = float(trace.populations.min()), float(trace.populations.max())
    y_scale = max(1.0, -lo, hi)
    y = trace.populations / y_scale
    if hi / y_scale - lo / y_scale <= 3.0 * _noise_floor(y):
        raise FitFailureError(
            "no visible decay: population range is within the noise floor"
        )

    robust = loss == "soft_l1"
    # soft_l1 acts on residuals in the trace's units, y_scale * r; in the
    # form v / hypot(v, r) its weight cannot overflow
    v = 1.0 / y_scale
    n = x.size
    basis = np.vstack((np.ones(n), y, x, x * y, x * x))
    wt = _Weights(basis, np.ones(n))
    s = math.log(_initial_guess(x, y))
    fit = _project(x, y, wt, s)
    for _ in range(_MAX_ITER):
        if robust and fit is not None:
            wt = _Weights(basis, v / np.hypot(v, fit.r))
            fit = _project(x, y, wt, s)
        if fit is None:
            raise FitFailureError(
                "singular projection: the fit does not determine T1"
            )
        step = min(max(fit.step, -_MAX_STEP), _MAX_STEP)
        while abs(step) > _STEP_TOL:
            trial = _project(x, y, wt, s + step)
            if trial is not None and trial.cost < fit.cost:
                break
            step *= 0.5
        else:
            break
        s += step
        fit = trial
        if s > _S_MAX:
            raise FitFailureError(
                f"T1 runs off to infinity: beyond {_T1_MAX_SPANS:g} delay "
                "spans the trace is a straight line"
            )
    else:
        raise FitFailureError(
            f"T1 search did not converge in {_MAX_ITER} steps"
        )

    # variance of s = ln T1; var(T1) = T1^2 var(s)
    if robust:
        # rows scaled by sqrt(rho' + 2 z rho''), which is (1 + z)^(-3/4) for
        # soft_l1 with z = (y_scale r)^2, and chi2 = sum(rho) / dof
        u = np.hypot(v, fit.r)
        e = fit.f + 1.0
        jac = np.column_stack((e, (fit.a * math.exp(-s)) * x * e, np.ones(n)))
        jac *= np.sqrt(np.maximum((v / u) ** 3, _EPS))[:, None]
        chi2 = 2.0 * v * float(np.sum(u - v)) / (n - 3)
        var_s = float(np.linalg.pinv(jac.T @ jac)[1, 1]) * chi2
    else:
        var_s = fit.cost / (n - 3) / fit.h
    t1 = 2.0 * half_span * math.exp(s)
    if not 0.0 < t1 < math.inf:
        raise FitFailureError(f"T1 = {t1:.3g} is not a representable time")
    try:
        amplitude = fit.a * y_scale * math.exp(float(trace.delays_us[0]) / t1)
    except OverflowError:
        raise FitFailureError(
            "the amplitude at zero delay is not a representable float"
        ) from None
    return T1Estimate(
        t1_us=t1,
        fit_err_us=t1 * math.sqrt(var_s),
        amplitude=amplitude,
        offset=(fit.c - fit.a) * y_scale,
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
        try:
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
                    raise InvalidInputError(
                        f"{csv_path}: bad row {i}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{csv_path}: not UTF-8 text: {exc}") from exc
    meta = {}
    if meta_path is not None:
        with open(meta_path, "r", encoding="utf-8") as fh:
            try:
                meta = json.load(fh)
            except ValueError as exc:  # malformed JSON or not UTF-8
                raise InvalidInputError(f"{meta_path}: bad metadata: {exc}") from exc
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
    report = dict(vars(estimate))
    if trace is not None:
        report["n_points"] = int(trace.delays_us.size)
        report["meta"] = trace.meta
    return report
