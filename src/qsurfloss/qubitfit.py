"""Relaxation-measurement analysis: T1 fits, statistics, Purcell handling.

Turns raw decay traces into the Purcell-subtracted quality factors that the
loss model consumes.  Frequencies follow the device-table convention: qubit
and cavity frequencies cyclic in GHz, couplings cyclic in MHz, cavity
linewidths cyclic in kHz; :class:`PurcellParams` stores angular rad/s.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (FitFailureError, InvalidInputError, parse_csv, read_json,
                     read_text, real, real_text, reals)

#: Purcell lifetimes above this value (s) are reported as unbounded.
UNBOUNDED_PURCELL_S = 1e6

#: Detuning-to-coupling ratio below which the dispersive estimate is dubious.
DISPERSIVE_RATIO_WARN = 5.0

TWO_PI = 2.0 * math.pi


@dataclass
class DecayTrace:
    """Excited-state population versus readout delay for one measurement
    round, both stored as float64 arrays of finite values."""

    delays_us: np.ndarray
    populations: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.delays_us = reals(self.delays_us, "delays must be finite")
        self.populations = reals(self.populations, "populations must be finite")
        if self.delays_us.shape != self.populations.shape:
            raise InvalidInputError("delays and populations must have equal length")
        if self.delays_us.size < 8:
            raise InvalidInputError(
                f"need at least 8 samples, got {self.delays_us.size}"
            )
        # a comparison, not np.diff, which overflows on delays near +-1e308
        if np.any(self.delays_us[1:] <= self.delays_us[:-1]):
            raise InvalidInputError("delays must be strictly increasing")


@dataclass
class T1Estimate:
    """Result of a single-exponential decay fit; T1 and its error are
    stored as float."""

    t1_us: float
    fit_err_us: float
    amplitude: float
    offset: float

    def __post_init__(self) -> None:
        self.t1_us = real(self.t1_us, "t1 must be finite and > 0",
                          lambda v: v > 0)
        self.fit_err_us = real(self.fit_err_us, "fit_err must be finite and >= 0",
                               lambda v: v >= 0)


@dataclass
class T1Statistics:
    mean_us: float
    std_us: float          # population standard deviation


def _noise_floor(populations: np.ndarray) -> float:
    """Noise scale from second differences (insensitive to smooth decay) of
    at least 3 populations; a ``DecayTrace`` holds at least 8."""
    # the standard deviation of the second differences, with the sum of
    # squares taken as one dot product; the slice differences are those of
    # np.diff at a fraction of its call cost
    d1 = populations[1:] - populations[:-1]
    d2 = d1[1:] - d1[:-1]
    # the second differences telescope: their mean is (d1[-1] - d1[0]) / size
    d2 -= (d1[-1] - d1[0]) / d2.size
    return math.sqrt(float(d2.dot(d2)) / d2.size) / math.sqrt(6.0)


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
#: ``_project``), with room to spare: the Schur complement of a
#: trace whose delays collapse onto two values stays below 1 % of the
#: resulting floor, that of a campaign trace lies 1e8 times above it.
_ELIMINATION_ROUNDINGS = 16.0


def _basis(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The T1-independent rows (1, y, x, xy, x^2, x^2 y) of the weighted
    moments; rows 0, 2 and 4 depend on the delays alone, and each row after
    them is that row times y."""
    basis = np.empty((6, x.size))
    pairs = basis.reshape(3, 2, x.size)  # a view: pairs[i] = (row, row * y)
    pairs[0, 0] = 1.0
    pairs[1, 0] = x
    np.multiply(x, x, pairs[2, 0])
    np.multiply(pairs[:, 0], y, pairs[:, 1])
    return basis


def _weights(basis: np.ndarray, w: np.ndarray | None = None) -> tuple:
    """Weights w, None for unit weights, as ``(w, rows.T, sums)``: the
    T1-independent rows w * (1, y, x, xy, x^2, x^2 y), transposed into the
    right factor of the moment product, and their sums."""
    rows = basis if w is None else basis * w
    return w, rows.T, np.add.reduce(rows, 1).tolist()


def _integral_start(
    x: np.ndarray, y: np.ndarray, basis: np.ndarray, sums: list[float],
    t1_min: float,
) -> float:
    """Start of the search in s = ln T1: the integral-equation estimate
    (Foss, Biometrics 26, 815 (1970)).

    With I(x) the integral of y from the first delay, ``A exp(-x/T1) + B``
    satisfies y = c0 + c1 x + c2 I exactly, with c2 = -1/T1.  The
    unit-weight regression of y on (1, x, I), with I from the cumulative
    trapezoid rule, takes its sums from the ``basis`` rows and their
    ``sums``, and c2 from Cramer's rule.  Where the
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
    # @, not ndarray.dot, which would copy this strided view first
    si, syi, sxi = (basis[:3, 1:] @ integral).tolist()
    sii = float(integral.dot(integral))
    s1, sy, sx, sxy, sxx, _ = sums
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


def _project(
    x: np.ndarray, y: np.ndarray, wt: tuple, s: float,
    ff: np.ndarray | None = None,
) -> tuple | None:
    """Variable projection of ``A exp(-x e^-s) + B`` onto y at fixed s,
    under the weights ``wt`` of :func:`_weights`.

    A and C = A + B solve the 2x2 weighted normal equations of the basis
    {f, 1}, with f = exp(-x/T1) - 1; ``np.expm1`` keeps f accurate as T1
    grows past the delays.
    f and f^2 fill the two rows of one buffer, evaluated once per trial s:
    a reweighted projection at the same s passes that buffer, ``ff``, back
    in and changes only the weights.
    With z = x (1 + f), the model's derivative in s is ``A k z`` (k = e^-s).
    Eliminating A and C from the 3x3 system in (A, s, C) takes ``(p, q)
    M^-1 (p, q)^T`` off its s-diagonal, for the A-C block ``M = [[sff, sf],
    [sf, s1]]`` and the s-row entries p and q against A and C.  That leaves
    the reduced gradient g = phi'/2, the Gauss-Newton Schur complement h,
    and the exact curvature phi''/2.  The last is the Schur complement of
    the full Hessian of cost/2, which adds the residual's curvature: ``sum
    w r f_s`` to the (A, s) entry and ``A sum w r f_ss`` to the (s, s) one.
    The step is Newton's, -g/curv; where curv <= 0, away from a minimum, it
    is Gauss-Newton's, -g/h.  Every sum is a weighted moment, taken in one
    matrix product.

    Returns ``(cost, step, h, curv, a, c, ff, r)``: the weighted sum of
    squared residuals phi(s), the step in s, h, curv, A, the offset C of
    the f basis (B = C - A), the buffer of f and f^2, and the residual
    ``model - y``.  Returns None where the projection is singular: the 2x2
    determinant vanishes to rounding, or h to the rounding error of the
    elimination (f is constant, or the fit does not depend on T1, as when
    every delay but the first lies far beyond T1), or s < _S_MIN.
    """
    if s < _S_MIN:
        return None
    w, rows_t, (s1, sy, sx, sxy, sxx, sxxy) = wt
    k = math.exp(-s)
    if ff is None:
        ff = np.empty((2, x.size))
        f = np.multiply(x, -k, ff[0])
        np.expm1(f, f)
        np.multiply(f, f, ff[1])
    else:
        f = ff[0]
    # the moments of f and f^2 against every row; ndarray.dot makes the
    # same BLAS call as @ at a fraction of its dispatch cost
    ((sf, sfy, sxf, sxyf, sxxf, sxxyf),
     (sff, _, sxff, _, sxxff, _)) = ff.dot(rows_t).tolist()
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
    # the rounding error of h: by Cauchy-Schwarz each term of the eliminated
    # numerator is at most s1 sff scale, where scale bounds the terms of
    # szz, so each rounding in the moments, the numerator or det costs up
    # to eps times the block's condition s1 sff / det times scale.  f <= 0:
    # the terms of szz, sum w x^2 (1 + f)^2, cancel; their magnitudes,
    # sum w x^2 (1 - f)^2, are that scale
    if not h > (_ELIMINATION_ROUNDINGS * _EPS * s1 * sff / det
                * (ak2 * (sxxff - 2.0 * sxxf + sxx))):
        return None
    # sum w r z and sum w r x z, with r = A f + C - y; f_s = k z and
    # f_ss = k z (k x - 1), so sum w r f_s = k rz and
    # sum w r f_ss = k (k rxz - rz)
    rz = a * szf + c * sz - szy
    rxz = a * (sxxff + sxxf) + c * (sxxf + sxx) - (sxxyf + sxxy)
    p, q = ak * szf + k * rz, ak * sz
    curv = (ak2 * szz + ak * (k * rxz - rz)
            - (s1 * p * p - 2.0 * sf * p * q + sff * q * q) / det)
    g = ak * rz
    r = f * a
    r += c
    r -= y
    cost = float(r.dot(r) if w is None else (w * r).dot(r))
    return cost, -g / (curv if curv > 0.0 else h), h, curv, a, c, ff, r


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
    until it does, and stops when a step is at most 1e-9 or when the
    step's predicted decrease of the cost, g^2/curv, is at most 4 eps times
    the cost, which is within its rounding.  On traces of 16-64 delays the
    time goes on the fixed cost of each numpy call and Python object, so a
    projection makes ten numpy calls and builds no object beyond its
    arrays and the plain tuple it returns: each trial T1 evaluates
    ``exp(-t/T1)`` once, in place, and every moment the step needs comes
    from one matrix product.  The quoted ``fit_err`` is the 1-sigma T1
    uncertainty from the chi2-scaled Gauss-Newton covariance in (A, T1, B)
    at the optimum.

    ``loss="soft_l1"`` switches to the robust cost ``sum 2(sqrt(1+r^2)-1)``
    for traces with readout outliers, minimized by iteratively reweighted
    least squares with weights ``(1+r^2)^(-1/2)`` in the same loop; a
    reweight projects again at the same T1 and reuses its exponential.  Its
    covariance is the Gauss-Newton one of the robust cost, with weights
    ``max((1+r^2)^(-3/2), eps)`` and chi2 = sum(rho)/dof: one more
    projection at the fit's T1 under these curvature weights, whose Schur
    complement is taken with the fit's own A.

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
    lo = float(np.minimum.reduce(trace.populations))
    hi = float(np.maximum.reduce(trace.populations))
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
    wt = _weights(basis)
    t1_min = _T1_MIN_STEPS * float(x[1])
    s = _integral_start(x, y, basis, wt[2], t1_min)
    fit = _project(x, y, wt, s)
    for _ in range(_MAX_ITER):
        if robust and fit is not None:
            # a reweight stays at s: f and f^2 carry over
            wt = _weights(basis, v / np.hypot(v, fit[7]))
            fit = _project(x, y, wt, s, fit[6])
        if fit is None:
            raise FitFailureError(
                "singular projection: the fit does not determine T1"
            )
        cost, newton, h, curv, a, c, ff, r = fit
        # a step whose predicted decrease, g^2 over the curvature it divides
        # by, is within the cost's rounding cannot show a lower cost
        if (curv if curv > 0.0 else h) * newton * newton <= 4.0 * _EPS * cost:
            break
        step = (-_MAX_STEP if newton < -_MAX_STEP
                else _MAX_STEP if newton > _MAX_STEP else newton)
        while abs(step) > _STEP_TOL:
            trial = _project(x, y, wt, s + step)
            if trial is not None and trial[0] < cost:
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

    # variance of s = ln T1, var(T1) = T1^2 var(s): chi2 over the Schur
    # complement h of a projection at the fit's s, whose own A' enters h as
    # (A' k)^2; the factor (A' / A)^2 puts the fit's A in its place
    if robust:
        # the Gauss-Newton curvature of the robust cost: weights
        # rho' + 2 z rho'', which is (1 + z)^(-3/2) for soft_l1 with
        # z = (y_scale r)^2; chi2 = sum(rho) / dof, with rho / 2v = u - v
        # summed as r^2 / (u + v), which does not cancel
        u = np.hypot(v, r)
        cov = _project(x, y, _weights(basis, np.maximum((v / u) ** 3, _EPS)),
                       s, ff)
        if cov is None:
            raise FitFailureError(
                "singular projection: the robust covariance does not "
                "determine T1"
            )
        h, cov_a = cov[2], cov[4]
        chi2 = 2.0 * v * float(np.add.reduce(r * r / (u + v))) / (n - 3)
    else:
        cov_a, chi2 = a, cost / (n - 3)
    var_s = chi2 / h * (cov_a / a) ** 2
    t1 = 2.0 * half_span * math.exp(s)
    if not 0.0 < t1 < math.inf:
        raise FitFailureError(f"T1 = {t1:.3g} is not a representable time")
    try:
        amplitude = a * y_scale * math.exp(float(trace.delays_us[0]) / t1)
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
        offset=(c - a) * y_scale,
    )


def _mean_std(values) -> tuple[float, float]:
    """Mean and population standard deviation of positive finite floats,
    taken as ``np.mean`` and ``np.std`` take them, of the values scaled by
    the power of two that brings the largest into [0.5, 1), so that no sum
    or square overflows and no nonzero deviation's square underflows.  The
    mean is the pairwise ``np.add.reduce`` of the scaled values over their
    count, the std the root of the same of their squared deviations from
    it: numpy's own two passes, without the Python wrappers around them,
    which cost several times the sums themselves on the 1-64 values of a
    device's rounds or a group's devices.  Where numpy's own
    squares are normal they keep numpy's bits, except that a mean rounded
    past the extreme values or a std above half their range (values an ulp
    apart) is clamped to that bound, which the exact statistics never
    exceed."""
    values = np.asarray(values, dtype=float)
    lo = float(np.minimum.reduce(values))
    hi = float(np.maximum.reduce(values))
    exp = math.frexp(hi)[1]
    scaled = np.ldexp(values, -exp)
    mean = float(np.add.reduce(scaled)) / scaled.size
    scaled -= mean
    scaled *= scaled
    std = math.sqrt(float(np.add.reduce(scaled)) / scaled.size)
    return (min(max(math.ldexp(mean, exp), lo), hi),
            min(math.ldexp(std, exp), (hi - lo) / 2))


def t1_statistics(estimates) -> T1Statistics:
    """Mean and population standard deviation of repeated T1 fits, taken
    by ``_mean_std`` like every mean and spread of the measurement chain."""
    if not estimates:
        raise InvalidInputError("need at least one estimate")
    return T1Statistics(*_mean_std([e.t1_us for e in estimates]))


#: Each Purcell parameter, in order, with its cyclic unit, that unit in Hz
#: and its rule, as text and as a test of the value.
_PURCELL_RULES = (("kappa", "kHz", 1e3, "finite and > 0", lambda k: k > 0),
                  ("delta", "GHz", 1e9, "finite and != 0", lambda d: d != 0),
                  ("g", "MHz", 1e6, "finite and >= 0", lambda g: g >= 0),
                  ("chi", "MHz", 1e6, "finite", None))


@dataclass
class PurcellParams:
    """Dispersive-readout parameters in angular units (rad/s).

    Exactly two of {g, chi, delta} are given, and the third is inferred
    from the dispersive relation ``chi = g^2 / delta`` (the linewidth
    ``kappa`` is always required).  Each given value is finite and stored
    as float, kappa > 0, delta != 0 and g >= 0, or is refused as ``<field>
    (rad/s) must be finite and <rule>, got <value>``.
    """

    kappa: float
    delta: float | None = None
    g: float | None = None
    chi: float | None = None

    def __post_init__(self) -> None:
        for name, _, _, rule, ok in _PURCELL_RULES:
            value = getattr(self, name)
            # kappa is required; None leaves out one of the other three
            if value is not None or name == "kappa":
                setattr(self, name, real(value, f"{name} (rad/s) must be {rule}", ok))
        known = sum(v is not None for v in (self.delta, self.g, self.chi))
        if known != 2:  # a third value could contradict the other two
            raise InvalidInputError("provide exactly two of delta, g and chi")

    @classmethod
    def from_cyclic(
        cls,
        kappa_khz: float,
        delta_ghz: float | None = None,
        g_mhz: float | None = None,
        chi_mhz: float | None = None,
    ) -> "PurcellParams":
        """Build from the cyclic units used in device tables; each value is
        checked by its field's rule in the unit given, then in rad/s."""
        given = {"kappa": kappa_khz, "delta": delta_ghz, "g": g_mhz, "chi": chi_mhz}
        for name, unit, scale, rule, ok in _PURCELL_RULES:
            if given[name] is not None or name == "kappa":
                value = real(given[name], f"{name} ({unit}) must be {rule}", ok)
                given[name] = TWO_PI * value * scale
                if not math.isfinite(given[name]):
                    raise InvalidInputError(
                        f"{name} must be finite in {unit} and in rad/s, got {value}")
        return cls(**given)

    @property
    def g_effective(self) -> float:
        """Coupling strength, derived from chi and delta when not given."""
        if self.g is not None:
            return self.g
        if self.chi < 0 < self.delta or self.delta < 0 < self.chi:
            raise InvalidInputError("chi and delta must have the same sign")
        # a root of each: unlike chi * delta, neither leaves the float range
        return math.sqrt(abs(self.chi)) * math.sqrt(abs(self.delta))

    @property
    def delta_effective(self) -> float:
        """Detuning, derived from g and chi when not given: g^2 / chi as one
        ratio of integers, exact from the floats' integer ratios, and one
        int true division, which CPython rounds correctly."""
        if self.delta is not None:
            return self.delta
        if self.chi == 0:
            raise InvalidInputError("cannot infer delta from chi = 0")
        (gn, gd), (cn, cd) = self.g.as_integer_ratio(), self.chi.as_integer_ratio()
        num, den = gn * gn * cd, gd * gd * cn
        if den < 0:  # the sign on the numerator: 0 / -1 would round to -0.0
            num, den = -num, -den
        try:
            return num / den
        except OverflowError:
            raise InvalidInputError(
                f"cannot infer delta = g^2 / chi: it exceeds the float range "
                f"at g = {self.g:.3g} and chi = {self.chi:.3g} rad/s") from None


def purcell_limit(params: PurcellParams) -> float:
    """Relaxation-time limit through the readout cavity, in seconds.

    ``T = delta^2 / (g^2 * kappa)`` from the given parameters (``g^2 = chi
    * delta`` or ``delta = g^2 / chi`` for the one left out), taken exactly
    as integer ratios, one correctly rounded division: each float is the
    ratio of the integers ``float.as_integer_ratio()`` gives, so T is one
    ratio of integer products, and CPython rounds the true division of two
    ints correctly.  Zero coupling (or a limit beyond
    ``UNBOUNDED_PURCELL_S``) returns ``math.inf``, and one below the float
    range fails.  Warns when ``|delta| >> g`` is marginal.
    """
    g = params.g_effective
    if g == 0.0:
        return math.inf
    delta = params.delta_effective
    if abs(delta) / g < DISPERSIVE_RATIO_WARN:
        warnings.warn(f"|delta|/g = {abs(delta) / g:.2f} < {DISPERSIVE_RATIO_WARN}: "
                      "dispersive Purcell estimate is unreliable", stacklevel=2)
    (kn, kd), (gn, gd), (cn, cd), (dn, dd) = (
        (1, 1) if v is None else v.as_integer_ratio()
        for v in (params.kappa, params.g, params.chi, params.delta))
    if params.g is None:  # g^2 = chi delta: T = delta / (chi kappa)
        num, den = dn * cd * kd, dd * cn * kn
    elif params.delta is None:  # delta = g^2 / chi: T = g^2 / (chi^2 kappa)
        num, den = (gn * cd) ** 2 * kd, (gd * cn) ** 2 * kn
    else:
        num, den = (dn * gd) ** 2 * kd, (dd * gn) ** 2 * kn
    num, den = abs(num), abs(den)  # chi and delta share their sign
    limit_num, limit_den = UNBOUNDED_PURCELL_S.as_integer_ratio()
    if num * limit_den > den * limit_num:
        return math.inf
    t_purcell = num / den
    if t_purcell == 0.0:
        raise InvalidInputError(
            f"the Purcell limit delta^2 / (g^2 kappa) lies below the float range at "
            f"delta = {delta:.3g}, g = {g:.3g} and kappa = {params.kappa:.3g} rad/s")
    return t_purcell


def _purcell_subtract(t1_us, t_purcell_ms, omega_q_ghz: float | None = None):
    """T1' = 1 / (1/T1 - 1/T_Purcell) of one T1 or an array of rounds or,
    given the checked ``omega_q_ghz``, ``Q = omega_q T1'``, in one pass
    under one errstate.  T1 and then T_Purcell go through their doors; then
    the first round that fails a check of T1' raises its error, and after
    those the first whose Q is not a positive finite float."""
    t1 = reals(t1_us, "t1 must be a number or an array of numbers")
    # a float inf is the one value beyond the door that T_Purcell takes
    if not (isinstance(t_purcell_ms, float) and t_purcell_ms == math.inf):
        t_purcell_ms = real(t_purcell_ms, "T_Purcell must be a finite number or inf")
    t_purcell_us = t_purcell_ms * 1e3
    with np.errstate(all="ignore"):
        # the rates can round to equal where T_Purcell exceeds T1 by an ulp;
        # np.divide leaves a T_Purcell of 0 to the checks below
        rate = 1.0 / t1 - np.divide(1.0, t_purcell_us)
        out = t1_prime = 1.0 / rate
        if omega_q_ghz is not None:
            # the units cancel only after the product, which overflows first
            # near the float maximum; a power-of-two scale on a T1' above
            # 2**900 moves no bit
            scale = np.where(t1_prime > 2.0**900, 2.0**-128, 1.0)
            out = TWO_PI * omega_q_ghz * 1e9 * (t1_prime * scale) * 1e-6 / scale
    ok = (t1 > 0) & (t_purcell_us > t1) & (0 < t1_prime) & (t1_prime < math.inf)
    if not ok.all():
        first, first_rate = (np.ravel(a)[np.argmin(ok)] for a in (t1, rate))
        if first <= 0:
            raise InvalidInputError("t1 must be > 0")
        if t_purcell_us > first and first_rate != 0:
            raise InvalidInputError(f"1/T1 or 1 / (1/T1 - 1/T_Purcell) exceeds "
                                    f"the float range at T1 = {first:g} us")
        raise InvalidInputError(
            f"inconsistent inputs: T_Purcell = {t_purcell_ms:g} ms must exceed "
            f"the measured T1 = {first:g} us")
    if omega_q_ghz is not None:
        ok = (out > 0) & (out < math.inf)
        if not ok.all():
            raise InvalidInputError(
                f"Q = omega_q T1' is not a positive finite float at T1 = "
                f"{np.ravel(t1)[np.argmin(ok)]:g} us")
    return out if out.ndim else float(out)


def purcell_subtract_t1(t1_us, t_purcell_ms: float):
    """Intrinsic T1 (us) after removing the Purcell decay channel, a float
    of one measured T1 or an array of rounds; the first round
    that fails a check raises its error, as does one whose 1/T1 or
    intrinsic T1 is not a finite float.  T1 must be a finite number, or an
    array of them; ``t_purcell_ms`` a finite number, or ``math.inf`` for no
    Purcell channel."""
    return _purcell_subtract(t1_us, t_purcell_ms)


def purcell_subtract_q(t1_us, t_purcell_ms: float, omega_q_ghz: float):
    """Quality factor from a measured T1 with the Purcell channel removed.

    ``Q = omega_q * T1'`` with ``1/T1' = 1/T1 - 1/T_Purcell``; the qubit
    frequency is cyclic GHz as tabulated and converted to angular internally.
    Like :func:`purcell_subtract_t1` it takes one T1 or an array of rounds;
    a round whose Q is not a positive finite float is refused.
    """
    omega_q_ghz = real(omega_q_ghz, "omega_q must be > 0 and finite",
                       lambda v: v > 0)
    return _purcell_subtract(t1_us, t_purcell_ms, omega_q_ghz)


def q_statistics_from_rounds(
    t1_rounds_us,
    t_purcell_ms: float,
    omega_q_ghz: float,
) -> tuple[float, float]:
    """Mean and population std of Q over repeated T1 measurements.

    Each round is Purcell-subtracted and converted to Q by
    :func:`purcell_subtract_q`, all rounds in one array pass, before the
    statistics are taken by ``_mean_std`` (subtract, convert, then apply
    statistics).
    """
    rounds = list(t1_rounds_us)
    if not rounds:
        raise InvalidInputError("need at least one round")
    return _mean_std(purcell_subtract_q(rounds, t_purcell_ms, omega_q_ghz))


def load_decay_trace(csv_path, meta_path=None) -> DecayTrace:
    """Read a trace CSV with columns ``delay_us, population`` (+ JSON sidecar)."""
    header, rows = parse_csv(read_text(csv_path), str(csv_path))
    if not {"delay_us", "population"} <= set(header or ()):
        raise InvalidInputError(f"{csv_path}: expected columns delay_us, population")
    delays, pops = [], []
    for i, row in enumerate(rows, start=2):
        try:
            delays.append(real_text(row["delay_us"]))
            pops.append(real_text(row["population"]))
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"{csv_path}: bad row {i}: {exc}") from exc
    meta = {} if meta_path is None else read_json(meta_path,
                                                  f"{meta_path}: bad metadata")
    return DecayTrace(np.array(delays), np.array(pops), meta=meta)


def t1_report_dict(estimate: T1Estimate, trace: DecayTrace) -> dict:
    """JSON-ready summary of one T1 fit of ``trace``."""
    return {**vars(estimate), "n_points": int(trace.delays_us.size),
            "meta": trace.meta}
