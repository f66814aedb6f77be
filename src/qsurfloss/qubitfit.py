"""Relaxation-measurement analysis: T1 fits, statistics, Purcell handling.

Turns raw decay traces into the Purcell-subtracted quality factors that the
loss model consumes.  Frequencies follow the device-table convention: qubit
and cavity frequencies cyclic in GHz, couplings cyclic in MHz, cavity
linewidths cyclic in kHz; :class:`PurcellParams` stores angular rad/s.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (FitFailureError, InvalidInputError, is_finite, parse_csv,
                     read_json, read_text, shown)

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


def _noise_floor(populations: np.ndarray) -> float:
    """Noise scale from second differences (insensitive to smooth decay)."""
    if populations.size < 3:
        return 0.0
    # the standard deviation of the second differences, with the sum of
    # squares taken as one dot product; the slice differences are those of
    # np.diff at a fraction of its call cost
    d1 = populations[1:] - populations[:-1]
    d2 = d1[1:] - d1[:-1]
    # the second differences telescope: their mean is (d1[-1] - d1[0]) / size
    d2 -= (d1[-1] - d1[0]) / d2.size
    return math.sqrt(float(d2 @ d2) / d2.size) / math.sqrt(6.0)


def _initial_guess(delays: np.ndarray, populations: np.ndarray) -> float:
    """Fallback T1 start: the first delay whose population lies closest to
    1/e of the way from the last population to the first."""
    a0 = populations[0] - populations[-1]
    target = populations[-1] + a0 / math.e
    idx = int(np.abs(populations - target).argmin())
    t10 = float(delays[idx])
    if t10 <= delays[0]:
        t10 = float(delays[0] + (delays[-1] - delays[0]) / 3.0)
    return t10


#: Losses ``fit_exponential`` accepts.
LOSSES = ("linear", "soft_l1")

#: A step in s = ln T1 is cut to at most this length, so that
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
#: The search gives up as well once T1 falls below the first delay step over
#: ln 1e4: the decay has then dropped to 1e-4 of its size by the second
#: delay, only the first delay sees it, and T1 is not determined.
_T1_MIN_STEPS = 1.0 / math.log(1e4)
_EPS = float(np.finfo(float).eps)
#: The smallest normal float, the floor of the population scale.
_TINY = float(np.finfo(float).tiny)
#: Roundings counted in the rounding error of an elimination (see
#: ``_rounding_floor``), with room to spare: the Schur complement of a
#: trace whose delays collapse onto two values stays below 1 % of the
#: resulting floor, that of a campaign trace lies 1e8 times above it.
_ELIMINATION_ROUNDINGS = 16.0


def _basis(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The T1-independent rows (1, y, x, xy, x^2, x^2 y) of the weighted
    moments; rows 0, 2 and 4 depend on the delays alone."""
    basis = np.empty((6, x.size))
    basis[0] = 1.0
    basis[1] = y
    basis[2] = x
    np.multiply(x, y, out=basis[3])
    np.multiply(x, x, out=basis[4])
    np.multiply(basis[4], y, out=basis[5])
    return basis


class _Weights:
    """Weights w with the T1-independent rows w * (1, y, x, xy, x^2, x^2 y)
    and their sums; w = None stands for unit weights, whose rows are the
    basis itself."""

    def __init__(self, basis: np.ndarray, w: np.ndarray | None = None) -> None:
        self.w = w
        self.rows = basis if w is None else basis * w
        self.sums = self.rows.sum(axis=1).tolist()

    def moments(self, ff: np.ndarray) -> list[float]:
        """The weighted moments of f and of f^2, the rows of ff, against
        every row, in one matrix product: ``sum w f (1, y, x, xy, x^2,
        x^2 y)`` followed by the same six sums of ``w f^2``."""
        return (ff @ self.rows.T).ravel().tolist()


def _integral_start(
    x: np.ndarray, y: np.ndarray, unit: _Weights, t1_min: float
) -> float:
    """Start of the search in s = ln T1: the integral-equation estimate
    (Foss, Biometrics 26, 815 (1970)).

    With I(x) the integral of y from the first delay, ``A exp(-x/T1) + B``
    satisfies y = c0 + c1 x + c2 I exactly, with c2 = -1/T1.  The
    unit-weight regression of y on (1, x, I), with I from the cumulative
    trapezoid rule, takes its sums from ``unit`` and from two products with
    I, and c2 from Cramer's rule.  Where the
    determinant of its normal matrix is not positive, the regression shows
    no decay (c2 >= 0), or its T1 lies outside the bounds the search
    enforces, the start falls back to :func:`_initial_guess`.
    """
    # I vanishes at the first delay and adds nothing to a sum there, so it
    # is kept from the second delay on
    steps = y[1:] + y[:-1]
    steps *= x[1:] - x[:-1]
    integral = steps.cumsum()
    integral *= 0.5
    si, syi, sxi = (unit.rows[:3, 1:] @ integral).tolist()
    sii = float(integral @ integral)
    s1, sy, sx, sxy, sxx, _ = unit.sums
    # cofactors of the I column of the normal matrix in (1, x, I): the
    # determinant expands along that column, and det * c2 along the
    # right-hand side that Cramer's rule puts in its place
    c13 = sx * sxi - sxx * si
    c23 = sx * si - s1 * sxi
    c33 = s1 * sxx - sx * sx
    det = si * c13 + sxi * c23 + sii * c33
    rate = -(sy * c13 + sxy * c23 + syi * c33)  # det / T1
    if det > 0.0 and rate > 0.0:
        s = math.log(det) - math.log(rate)
        if _S_MIN <= s <= _S_MAX and math.exp(s) >= t1_min:
            return s
    return math.log(_initial_guess(x, y))


class _Projection(NamedTuple):
    """The weighted least-squares ``A f + C`` at one T1, with f =
    exp(-x/T1) - 1, and the step in s = ln T1 from there."""

    cost: float      # weighted sum of squared residuals, phi(s)
    step: float      # Newton step -g/curv, or -g/h where curv <= 0
    h: float         # Schur complement of s in the 3x3 Gauss-Newton matrix
    curv: float      # phi''(s)/2: the same in the full Hessian of cost/2
    a: float
    c: float         # offset of the f basis: B = C - A
    ff: np.ndarray   # f and f^2, as the two rows of one buffer
    r: np.ndarray    # residual, model - y


def _eliminated(
    s1: float, sf: float, sff: float, det: float, p: float, q: float
) -> float:
    """What eliminating A and C takes off the s-diagonal of a symmetric
    matrix in (A, s, C): ``(p, q) M^-1 (p, q)^T`` for the A-C block
    ``M = [[sff, sf], [sf, s1]]`` of determinant det, where p and q are
    the s-row entries against A and C."""
    return (s1 * p * p - 2.0 * sf * p * q + sff * q * q) / det


def _rounding_floor(s1: float, sff: float, det: float, scale: float) -> float:
    """The rounding error of a Schur complement ``d - _eliminated(...)`` of
    the A-C block of determinant det, where scale bounds the diagonal
    entry d and the magnitudes of the terms it is summed from.  By
    Cauchy-Schwarz each term of the eliminated numerator is at most
    ``s1 sff scale``, so each rounding in the moments, the numerator or det
    costs up to eps times the block's condition ``s1 sff / det`` times
    scale; a complement below this is rounding noise."""
    return _ELIMINATION_ROUNDINGS * _EPS * s1 * sff / det * scale


def _project(
    x: np.ndarray, y: np.ndarray, wt: _Weights, s: float,
    ff: np.ndarray | None = None,
) -> _Projection | None:
    """Variable projection of ``A exp(-x e^-s) + B`` onto y at fixed s.

    A and C = A + B solve the 2x2 weighted normal equations of the basis
    {f, 1}; ``np.expm1`` keeps f accurate as T1 grows past the delays.
    f and f^2 fill the two rows of one buffer, evaluated once per trial s:
    a reweighted projection at the same s passes that buffer, ``ff``, back
    in and changes only the weights.
    With z = x (1 + f), the model's derivative in s is ``A k z`` (k = e^-s).
    Eliminating A and C from the 3x3 system in (A, s, C) leaves the reduced
    gradient g = phi'/2, the Gauss-Newton Schur complement h, and the exact
    curvature phi''/2.  The last is the Schur complement of the full
    Hessian of cost/2, which adds the residual's curvature: ``sum w r f_s``
    to the (A, s) entry and ``A sum w r f_ss`` to the (s, s) one.  The step
    is Newton's, -g/curv; where curv <= 0, away from a minimum, it is
    Gauss-Newton's, -g/h.  Every sum is a weighted moment, taken in one
    matrix product.

    Returns None where the projection is singular: the 2x2 determinant
    vanishes to rounding, or h to the rounding error of the elimination (f
    is constant, or the fit does not depend on T1, as when every delay but
    the first lies far beyond T1), or s < _S_MIN.
    """
    if s < _S_MIN:
        return None
    k = math.exp(-s)
    if ff is None:
        ff = np.empty((2, x.size))
        np.expm1(x * -k, out=ff[0])
        np.multiply(ff[0], ff[0], out=ff[1])
    f = ff[0]
    (sf, sfy, sxf, sxyf, sxxf, sxxyf,
     sff, _, sxff, _, sxxff, _) = wt.moments(ff)
    s1, sy, sx, sxy, sxx, sxxy = wt.sums
    det = s1 * sff - sf * sf
    if not det > _EPS * s1 * sff:
        return None
    a = (s1 * sfy - sf * sy) / det
    c = (sy - a * sf) / s1
    sz, szf, szy = sxf + sx, sxff + sxf, sxyf + sxy
    szz = sxxff + 2.0 * sxxf + sxx
    ak = a * k
    ak2 = ak * ak
    h = ak2 * (szz - _eliminated(s1, sf, sff, det, szf, sz))
    # f <= 0: the terms of szz, sum w x^2 (1 + f)^2, cancel; their
    # magnitudes, sum w x^2 (1 - f)^2, set its rounding error
    if not h > _rounding_floor(s1, sff, det, ak2 * (sxxff - 2.0 * sxxf + sxx)):
        return None
    # sum w r z and sum w r x z, with r = A f + C - y; f_s = k z and
    # f_ss = k z (k x - 1), so sum w r f_s = k rz and
    # sum w r f_ss = k (k rxz - rz)
    rz = a * szf + c * sz - szy
    rxz = a * (sxxff + sxxf) + c * (sxxf + sxx) - (sxxyf + sxxy)
    curv = (ak2 * szz + ak * (k * rxz - rz)
            - _eliminated(s1, sf, sff, det, ak * szf + k * rz, ak * sz))
    g = ak * rz
    r = f * a
    r += c
    r -= y
    cost = float(r @ r if wt.w is None else (wt.w * r) @ r)
    return _Projection(cost, -g / (curv if curv > 0.0 else h),
                       h, curv, a, c, ff, r)


def fit_exponential(trace: DecayTrace, loss: str = "linear") -> T1Estimate:
    """Least-squares fit of ``A exp(-t/T1) + B`` to one decay trace.

    A and B enter linearly, so for every T1 they are a closed-form weighted
    least-squares solve; what is left is a damped Newton search in
    s = ln T1, which keeps T1 > 0 (variable projection: Golub & Pereyra,
    Inverse Problems 19, R1 (2003)).  Each step divides the gradient of
    this reduced cost by its exact second derivative, residual curvature
    included, so the search converges quadratically also where the
    residual is large and the valley flat.  Where that derivative is not
    positive, away from a minimum, the step falls back to Gauss-Newton's.
    The search starts from the closed-form integral-equation estimate of
    T1, a linear regression of the trace on its own running integral (see
    :func:`_integral_start`), which lies a median 2e-3 from the optimum in
    ln T1; where that regression shows no decay in the search's bounds,
    it starts from the first 1/e crossing instead.  Both rules are fixed,
    so the fit is deterministic.  The search cuts a step in s to at most 1
    (a factor e in T1), takes it only if the cost goes down, halving it
    until it does, and stops when a step is at most 1e-9.  Each trial T1 evaluates ``exp(-t/T1)`` once, and every
    moment the step needs comes from one matrix product.  The quoted
    ``fit_err`` is the 1-sigma T1 uncertainty from the chi2-scaled
    Gauss-Newton covariance in (A, T1, B) at the optimum.

    ``loss="soft_l1"`` switches to the robust cost ``sum 2(sqrt(1+r^2)-1)``
    for traces with readout outliers, minimized by iteratively reweighted
    least squares with weights ``(1+r^2)^(-1/2)`` in the same loop; a
    reweight projects again at the same T1 and reuses its exponential.  Its
    covariance is the Gauss-Newton one of the robust cost, with weights
    ``max((1+r^2)^(-3/2), eps)`` and chi2 = sum(rho)/dof, taken in closed
    form from the same weighted moments at the fit's own A and T1.

    The fit runs on delays mapped onto [0, 1], and on populations divided
    by their largest magnitude, so no intermediate overflows for any finite
    trace, and none underflows for populations of tiny magnitude.

    Raises
    ------
    InvalidInputError
        If ``loss`` is not one of :data:`LOSSES`.
    FitFailureError
        If no decay is visible above the noise floor, the projection or
        the robust covariance turns singular (its Schur complement in T1
        falls to the rounding error of the elimination), T1 runs off to
        infinity or falls below the delay spacing, the search does not
        converge in 1000 steps, or T1, its error or the amplitude are not
        representable floats.
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
    # every trace is scaled to a largest magnitude of 1; the floor keeps
    # 1 / y_scale finite and leaves an all-zero trace at zero, which fails
    # just below
    y_scale = max(-lo, hi, _TINY)
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
    basis = _basis(x, y)
    wt = _Weights(basis)
    t1_min = _T1_MIN_STEPS * float(x[1])
    s = _integral_start(x, y, wt, t1_min)
    fit = _project(x, y, wt, s)
    for _ in range(_MAX_ITER):
        if robust and fit is not None:
            # a reweight stays at s: f and f^2 carry over
            wt = _Weights(basis, v / np.hypot(v, fit.r))
            fit = _project(x, y, wt, s, fit.ff)
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
        if math.exp(s) < t1_min:
            raise FitFailureError(
                "T1 falls below the delay spacing: only the first delay "
                "sees the decay"
            )
    else:
        raise FitFailureError(
            f"T1 search did not converge in {_MAX_ITER} steps"
        )

    # variance of s = ln T1; var(T1) = T1^2 var(s)
    if robust:
        # the Gauss-Newton curvature of the robust cost at the fit's A and k:
        # weights rho' + 2 z rho'', which is (1 + z)^(-3/2) for soft_l1 with
        # z = (y_scale r)^2, on the columns (e, A k x e, 1), e = 1 + f, so
        # that x^2 e^2 needs no cancellation; chi2 = sum(rho) / dof, with
        # rho / 2v = u - v summed as r^2 / (u + v), which does not cancel
        u = np.hypot(v, fit.r)
        rows = basis[::2] * np.maximum((v / u) ** 3, _EPS)
        e = fit.ff[0] + 1.0
        s1 = float(rows[0].sum())
        se, sxe = (rows[:2] @ e).tolist()
        see, sxee, sxxee = (rows @ (e * e)).tolist()
        det = s1 * see - se * se
        if not (det > _EPS * s1 * see
                and (h := sxxee - _eliminated(s1, se, see, det, sxee, sxe))
                > _rounding_floor(s1, see, det, sxxee)):
            raise FitFailureError(
                "singular projection: the robust covariance does not "
                "determine T1"
            )
        ak = fit.a * math.exp(-s)
        chi2 = 2.0 * v * float(np.sum(fit.r * fit.r / (u + v))) / (n - 3)
        var_s = chi2 / (ak * ak) / h
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
    fit_err = t1 * math.sqrt(var_s)
    if not fit_err < math.inf:
        raise FitFailureError(
            f"fit_err = {fit_err:.3g} is not a representable time")
    return T1Estimate(
        t1_us=t1,
        fit_err_us=fit_err,
        amplitude=amplitude,
        offset=(fit.c - fit.a) * y_scale,
    )


def t1_statistics(estimates) -> T1Statistics:
    """Mean and population standard deviation of repeated T1 fits.

    Both are those of ``np.mean`` and ``np.std``, taken on the values
    scaled by a power of two, which is exact, so that no sum or square
    overflows; values below 1 are not scaled, so every mean and std that
    numpy takes without overflow keeps its bits.
    """
    if not estimates:
        raise InvalidInputError("need at least one estimate")
    values = np.array([e.t1_us for e in estimates], dtype=float)
    hi = float(values.max())
    if not math.isfinite(hi):
        raise InvalidInputError(f"T1 values must be finite, got {hi}")
    exp = max(math.frexp(hi)[1], 0)
    scaled = np.ldexp(values, -exp)
    return T1Statistics(mean_us=math.ldexp(float(scaled.mean()), exp),
                        std_us=math.ldexp(float(scaled.std()), exp))


@dataclass
class PurcellParams:
    """Dispersive-readout parameters in angular units (rad/s).

    Any missing member of {g, chi, delta} is inferred from the dispersive
    relation ``chi = g^2 / delta``; at least two of the three are required
    (the linewidth ``kappa`` always is).  Every given value must be finite.
    """

    kappa: float
    delta: float | None = None
    g: float | None = None
    chi: float | None = None

    def __post_init__(self) -> None:
        for name in ("kappa", "delta", "g", "chi"):
            value = getattr(self, name)
            # kappa is required; None leaves out one of the other three
            if (value is not None or name == "kappa") and not is_finite(value):
                raise InvalidInputError(
                    f"{name} must be finite, got {shown(value)}")
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
        if self.chi < 0 < self.delta or self.delta < 0 < self.chi:
            raise InvalidInputError("chi and delta must have the same sign")
        product = self.chi * self.delta  # one root unless it leaves the normal range
        return math.sqrt(product) if _is_normal(product) else (
            math.sqrt(abs(self.chi)) * math.sqrt(abs(self.delta)))

    @property
    def delta_effective(self) -> float:
        """Detuning, derived from g and chi when not given."""
        if self.delta is not None:
            return self.delta
        if self.chi == 0:
            raise InvalidInputError("cannot infer delta from chi = 0")
        try:
            g2 = self.g**2
        except OverflowError:
            g2 = math.inf
        quotient = g2 / self.chi
        if _is_normal(g2) and _is_normal(abs(quotient)):
            return quotient
        # exact g^2 / chi, rounded once, where g^2 or the quotient is not normal
        from fractions import Fraction  # imported here: ~3 ms that few runs need
        try:
            return float(Fraction(self.g) ** 2 / Fraction(self.chi))
        except OverflowError:
            raise InvalidInputError(
                f"cannot infer delta = g^2 / chi: it exceeds the float range "
                f"at g = {self.g:.3g} and chi = {self.chi:.3g} rad/s") from None


def purcell_limit(params: PurcellParams) -> float:
    """Relaxation-time limit through the readout cavity, in seconds.

    ``T = delta^2 / (g^2 * kappa)``; zero coupling (or a limit beyond
    ``UNBOUNDED_PURCELL_S``) returns ``math.inf``.  Where a term leaves the
    normal float range, ``T`` is taken exactly and rounded once; one below
    the float range fails.  Warns when ``|delta| >> g`` is marginal.
    """
    g = params.g_effective
    if g == 0.0:
        return math.inf
    delta = params.delta_effective
    if abs(delta) / g < DISPERSIVE_RATIO_WARN:
        warnings.warn(f"|delta|/g = {abs(delta) / g:.2f} < {DISPERSIVE_RATIO_WARN}: "
                      "dispersive Purcell estimate is unreliable", stacklevel=2)
    try:
        terms = (delta**2, g**2, g**2 * params.kappa)
    except OverflowError:  # a square beyond the float range
        terms = (math.inf,)
    if all(map(_is_normal, terms)):
        t_purcell = terms[0] / terms[2]
    else:  # exact arithmetic on the given parameters, rounded once
        from fractions import Fraction  # imported here: ~3 ms that few runs need
        chi, exact_delta = (None if v is None else Fraction(v)
                            for v in (params.chi, params.delta))
        g2 = chi * exact_delta if params.g is None else Fraction(params.g) ** 2
        exact_delta = g2 / chi if exact_delta is None else exact_delta
        exact = exact_delta**2 / (g2 * Fraction(params.kappa))
        t_purcell = math.inf if exact > UNBOUNDED_PURCELL_S else float(exact)
    if t_purcell == 0.0:
        raise InvalidInputError(
            f"the Purcell limit delta^2 / (g^2 kappa) lies below the float range at "
            f"delta = {delta:.3g}, g = {g:.3g} and kappa = {params.kappa:.3g} rad/s")
    return math.inf if t_purcell > UNBOUNDED_PURCELL_S else t_purcell


def _is_normal(x: float) -> bool:
    return sys.float_info.min <= x <= sys.float_info.max


def purcell_subtract_t1(t1_us, t_purcell_ms: float):
    """Intrinsic T1 (us) after removing the Purcell decay channel, a float
    of one measured T1 or an array of rounds; the first round
    that fails a check raises its error."""
    t1 = np.asarray(t1_us, dtype=float)
    t_purcell_us = t_purcell_ms * 1e3
    bad = (t1 <= 0) | ~(t_purcell_us > t1)
    if not bad.any():
        # the rates can round to equal where T_Purcell exceeds T1 by an ulp
        rate = 1.0 / t1 - 1.0 / t_purcell_us
        bad = ~(rate > 0)
    if bad.any():
        first = t1[bad][0]
        if first <= 0:
            raise InvalidInputError("t1 must be > 0")
        raise InvalidInputError(
            f"inconsistent inputs: T_Purcell = {t_purcell_ms:g} ms must exceed "
            f"the measured T1 = {first:g} us")
    return 1.0 / rate if rate.ndim else float(1.0 / rate)


def purcell_subtract_q(t1_us, t_purcell_ms: float, omega_q_ghz: float):
    """Quality factor from a measured T1 with the Purcell channel removed.

    ``Q = omega_q * T1'`` with ``1/T1' = 1/T1 - 1/T_Purcell``; the qubit
    frequency is cyclic GHz as tabulated and converted to angular internally.
    Like :func:`purcell_subtract_t1` it takes one T1 or an array of rounds.
    """
    if omega_q_ghz <= 0:
        raise InvalidInputError("omega_q must be > 0")
    return TWO_PI * omega_q_ghz * 1e9 * purcell_subtract_t1(t1_us, t_purcell_ms) * 1e-6


def q_statistics_from_rounds(
    t1_rounds_us,
    t_purcell_ms: float,
    omega_q_ghz: float,
) -> tuple[float, float]:
    """Mean and population std of Q over repeated T1 measurements.

    Each round is Purcell-subtracted and converted to Q by
    :func:`purcell_subtract_q` before the statistics are taken (subtract,
    convert, then apply statistics).
    """
    values = np.asarray(list(t1_rounds_us), dtype=float)
    if values.size == 0:
        raise InvalidInputError("need at least one round")
    qs = purcell_subtract_q(values, t_purcell_ms, omega_q_ghz)
    return float(qs.mean()), float(qs.std())


def load_decay_trace(csv_path, meta_path=None) -> DecayTrace:
    """Read a trace CSV with columns ``delay_us, population`` (+ JSON sidecar)."""
    header, rows = parse_csv(read_text(csv_path), str(csv_path))
    if not {"delay_us", "population"} <= set(header or ()):
        raise InvalidInputError(f"{csv_path}: expected columns delay_us, population")
    delays, pops = [], []
    for i, row in enumerate(rows, start=2):
        try:
            delays.append(float(row["delay_us"]))
            pops.append(float(row["population"]))
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"{csv_path}: bad row {i}: {exc}") from exc
    meta = {} if meta_path is None else read_json(meta_path,
                                                  f"{meta_path}: bad metadata")
    return DecayTrace(np.array(delays), np.array(pops), meta=meta)


def t1_report_dict(estimate: T1Estimate, trace: DecayTrace | None = None) -> dict:
    """JSON-ready summary of one T1 fit."""
    report = dict(vars(estimate))
    if trace is not None:
        report["n_points"] = int(trace.delays_us.size)
        report["meta"] = trace.meta
    return report
