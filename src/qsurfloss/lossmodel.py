"""Interface dielectric-loss model and its linear fits.

The inverse quality factor decomposes into participation-weighted loss
tangents, ``1/Q = sum_i P_i tan(delta_i)``.  With the capacitor's
substrate-metal participation ``p_sm`` and the lumped junction-region
participation ``p_j`` this yields three fit variants on the observable 1/Q:

* ``SM_ONLY``:     1/Q = p_sm * tan_d_sm
* ``SM_PLUS_Q0``:  1/Q = p_sm * tan_d_sm + 1/Q0   (geometry-independent rest)
* ``SM_PLUS_J``:   1/Q = p_sm * tan_d_sm + p_j * tan_d_j

``_TERMS`` lists each model's parameters and the design column each one
multiplies.  Every fit is linear least squares, optionally inverse-variance
weighted with ``var(1/Q) = q_std^2 / q_mean^4``, so every point then needs
a spread.  An active set that drops the most negative parameter and refits
keeps the loss tangents non-negative.  For at most two parameters this is
exact NNLS (Lawson & Hanson, 1974) when every design column and weight is
non-negative, which holds for every model here (participations and the
intercept are >= 0); on signed columns it can stop on the wrong face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NoReturn, Sequence

import numpy as np

from .errors import DegenerateFitError, InvalidInputError, _Option, real

#: Condition number of the weighted design above which a fit is refused.
CONDITION_LIMIT = 1e10


class LossModel(_Option):
    SM_ONLY = "sm"
    SM_PLUS_Q0 = "sm+q0"
    SM_PLUS_J = "sm+j"


class Weighting(_Option):
    NONE = "none"
    INVERSE_VARIANCE = "invvar"


#: Per model, each parameter in fit order with the design column it
#: multiplies: ``p_sm``, ``p_j`` or the constant ``1``.
_TERMS: dict[LossModel, tuple[tuple[str, str], ...]] = {
    LossModel.SM_ONLY: (("tan_d_sm", "p_sm"),),
    LossModel.SM_PLUS_Q0: (("tan_d_sm", "p_sm"), ("inv_q0", "1")),
    LossModel.SM_PLUS_J: (("tan_d_sm", "p_sm"), ("tan_d_j", "p_j")),
}


@dataclass
class LossDataPoint:
    """One fit point: participations and the Purcell-subtracted quality
    factor, stored as float."""

    p_sm: float
    p_j: float
    q_mean: float
    q_std: float | None = None
    group_id: str = ""
    n_devices: int = 1

    def __post_init__(self) -> None:
        self.p_sm = real(self.p_sm, "p_sm must be finite and >= 0", lambda v: v >= 0)
        self.p_j = real(self.p_j, "p_j must be finite and >= 0", lambda v: v >= 0)
        self.q_mean = real(self.q_mean, "q_mean must be finite and > 0", lambda v: v > 0)
        if self.q_std is not None:
            self.q_std = real(self.q_std, "q_std must be finite and >= 0 when present",
                              lambda v: v >= 0)


@dataclass
class LossFitResult:
    """Fitted loss tangents (and/or Q0) with uncertainties and residuals."""

    model: LossModel
    tan_d_sm: float
    tan_d_j: float | None = None
    q0: float | None = None
    stderr: dict[str, float] = field(default_factory=dict)
    covariance: np.ndarray | None = None
    residuals: np.ndarray | None = None   # per point, in 1/Q
    weighting: Weighting = Weighting.NONE
    n_points: int = 0
    condition_number: float = 0.0

    def relative_stderr(self, name: str) -> float:
        value = {"tan_d_sm": self.tan_d_sm, "tan_d_j": self.tan_d_j,
                 "inv_q0": None if self.q0 is None else 1.0 / self.q0}[name]
        if value in (None, 0.0):
            return math.inf
        return self.stderr[name] / abs(value)

    def to_json_dict(self) -> dict:
        params = {"tan_d_sm": self.tan_d_sm, "tan_d_j": self.tan_d_j, "q0": self.q0}
        return {
            "model": self.model.value,
            "parameters": {k: v for k, v in params.items() if v is not None},
            "stderr": dict(self.stderr),
            "covariance": None if self.covariance is None else self.covariance.tolist(),
            "residuals_inv_q": None if self.residuals is None else self.residuals.tolist(),
            "weighting": self.weighting.value,
            "n_points": self.n_points,
            "condition_number": self.condition_number,
        }


def normalized_pr(p_sm: float, p_j: float, tan_d_sm: float, tan_d_j: float) -> float:
    """Single abscissa collapsing the two-term model onto one line.

    ``p_sm + (tan_d_j / tan_d_sm) * p_j``; the modeled 1/Q is then
    ``tan_d_sm`` times this value.  One beyond the float range reads inf.
    """
    if tan_d_sm <= 0:
        raise InvalidInputError("tan_d_sm must be > 0 to normalize")
    with np.errstate(over="ignore"):
        return p_sm + (tan_d_j / tan_d_sm) * p_j


def _weights(points: Sequence[LossDataPoint], weighting: Weighting) -> np.ndarray:
    if weighting is Weighting.NONE:
        return np.ones(len(points))
    missing = [p.group_id for p in points if not p.q_std]
    if missing:
        shown = ", ".join(repr(g) for g in missing[:3])
        raise InvalidInputError(
            f"inverse-variance weighting needs a q_std > 0 on every point; "
            f"{len(missing)} of {len(points)} have none ({shown}"
            f"{', ...' if len(missing) > 3 else ''}); use weighting 'none'"
        )
    # 1 / var(1/Q) = q_mean^4 / q_std^2 of q_mean and q_std brought inside
    # 2**+-128 by exact powers of two, which one even power restores: no
    # power overflows, a weight beyond the float range reads inf (the fit
    # refuses it as not finite), and values inside keep the bits of the
    # plain quotient, taken with python's pow per point (numpy's differs)
    q = np.array([(p.q_mean, p.q_std) for p in points])
    shift = np.frexp(q)[1]
    shift -= np.clip(shift, -128, 128)
    with np.errstate(over="ignore"):
        return np.ldexp([a**4 / b**2 for a, b in np.ldexp(q, -shift).tolist()],
                        shift @ [4, -2])


def _clamped_weighted_lstsq(X: np.ndarray, y: np.ndarray, w: np.ndarray,
                            ids: Sequence[str] | None = None):
    """Weighted least squares with parameters clamped to be non-negative.

    Returns (beta, covariance, residuals, condition number).  While the
    free parameters' optimum has a negative entry, the most negative one is
    fixed at zero and the rest refit; clamped parameters report zero
    variance.  Dropped parameters are never re-checked.  That is exact NNLS
    for at most two columns when every column and weight is non-negative:
    the Gram entry ``g12 >= 0`` then rules out the other face.  The
    covariance of the free parameters is ``(X'WX)^-1`` scaled by the reduced
    chi-square (set to NaN when the system is exactly determined).

    One SVD of the free columns of the weighted design serves each active
    set: the first, of every column, gives the condition number, and the
    last the covariance.  A ``y``, parameter or modeled ``y`` beyond the
    float range is refused, naming the row (of the largest weighted ``y``,
    for a parameter) by its entry of ``ids``, or by its index without them.
    """
    def refuse(message: str, i) -> NoReturn:
        raise DegenerateFitError(message.format(repr(i if ids is None else ids[i])))

    if not np.isfinite(y).all():
        refuse("1/Q of point {} is not a finite float", int(np.argmin(np.isfinite(y))))
    n, k = X.shape
    sw = np.sqrt(w)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        Xw = X * sw[:, None]
        yw = y * sw
    if not np.isfinite(Xw).all():
        raise DegenerateFitError("the weighted design is not finite")

    free = list(range(k))
    beta = np.zeros(k)
    while free:
        # the design is scaled by a power of two, which is exact, so that
        # the squared singular values below neither underflow nor overflow
        x_exp = np.frexp(np.max(np.abs(Xw[:, free])))[1]
        u, s, vt = np.linalg.svd(np.ldexp(Xw[:, free], -x_exp),
                                 full_matrices=False)
        if len(free) == k:
            # a float quotient: one over a subnormal s[-1] reads inf, unwarned
            cond = float(s[0]) / float(s[-1]) if s[-1] > 0 else math.inf
            if not cond <= CONDITION_LIMIT:
                raise DegenerateFitError(
                    f"design matrix is rank deficient or nearly collinear "
                    f"(condition number {cond:.3e})"
                )
        # the full design passed the condition check, and dropping columns
        # cannot raise the condition number (singular values interlace), so
        # no active set has a singular value below 1e-10 of its largest and
        # none needs cutting
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            sol = np.ldexp(vt.T @ ((u.T @ yw) / s), -x_exp)
        if not np.isfinite(sol).all():
            refuse("the fitted parameters are not finite floats; point {} "
                   "has the largest weighted 1/Q", int(np.argmax(np.abs(yw))))
        if np.all(sol >= 0):
            beta[free] = sol
            break
        free.remove(free[int(np.argmin(sol))])

    with np.errstate(over="ignore"):  # refused just below
        residuals = y - X @ beta
    if not np.isfinite(residuals).all():
        refuse("the modeled 1/Q of point {} is not a finite float",
               int(np.argmin(np.isfinite(residuals))))
    dof = n - len(free)
    cov = np.zeros((k, k))
    if free:
        # the residuals are scaled by a power of two as well, so that
        # chi-square does not underflow or overflow; one ldexp undoes both
        # scalings, and a variance beyond the float range reads inf
        r_exp = np.frexp(np.max(np.abs(residuals)))[1]
        chi2 = float(np.sum(w * np.ldexp(residuals, -r_exp)**2))
        scale = chi2 / dof if dof > 0 else np.nan
        # (X'X)^-1 = V diag(s^-2) V' from the SVD of X, not an inverse of the
        # Gram, whose condition number is the square of the accepted one
        with np.errstate(over="ignore"):
            sub = np.ldexp((vt.T / s**2) @ vt * scale, 2 * (r_exp - x_exp))
        cov[np.ix_(free, free)] = sub
    return beta, cov, residuals, cond


def _fit(model: LossModel, points: Sequence[LossDataPoint],
         weighting: Weighting | str) -> LossFitResult:
    """Least-squares fit of ``model`` as laid out in ``_TERMS``."""
    weighting = Weighting(weighting)
    names, columns = zip(*_TERMS[model])
    k = len(names)
    if len(points) < k:
        raise InvalidInputError(f"need at least {k} points for a {k}-parameter fit")
    design = {
        "p_sm": np.array([p.p_sm for p in points]),
        "p_j": np.array([p.p_j for p in points]),
        "1": np.ones(len(points)),
    }
    if "1" in columns and np.ptp(design["p_sm"]) == 0:
        raise DegenerateFitError("all points share the same p_sm; nothing to fit")
    X = np.column_stack([design[c] for c in columns])
    y = np.array([1.0 / p.q_mean for p in points])
    beta, cov, res, cond = _clamped_weighted_lstsq(
        X, y, _weights(points, weighting), [p.group_id for p in points])
    params = dict(zip(names, beta.tolist()))
    inv_q0 = params.get("inv_q0")
    return LossFitResult(
        model=model,
        tan_d_sm=params["tan_d_sm"],
        tan_d_j=params.get("tan_d_j"),
        q0=None if inv_q0 is None else (1.0 / inv_q0 if inv_q0 > 0 else math.inf),
        stderr={name: float(np.sqrt(cov[i, i])) for i, name in enumerate(names)},
        covariance=cov,
        residuals=res,
        weighting=weighting,
        n_points=len(points),
        condition_number=float(cond),
    )


def fit_sm_plus_q0(
    points: Sequence[LossDataPoint],
    weighting: Weighting | str = Weighting.INVERSE_VARIANCE,
) -> LossFitResult:
    """Fit ``1/Q = p_sm * tan_d_sm + 1/Q0`` by (weighted) linear least squares."""
    return _fit(LossModel.SM_PLUS_Q0, points, weighting)


def fit_sm_plus_j(
    points: Sequence[LossDataPoint],
    weighting: Weighting | str = Weighting.INVERSE_VARIANCE,
) -> LossFitResult:
    """Fit ``1/Q = p_sm * tan_d_sm + p_j * tan_d_j``."""
    return _fit(LossModel.SM_PLUS_J, points, weighting)


def fit_sm_only(
    points: Sequence[LossDataPoint],
    weighting: Weighting | str = Weighting.INVERSE_VARIANCE,
) -> LossFitResult:
    """Single-term fit ``1/Q = p_sm * tan_d_sm`` (the naive capacitor-only model)."""
    return _fit(LossModel.SM_ONLY, points, weighting)


FITTERS = {
    LossModel.SM_ONLY: fit_sm_only,
    LossModel.SM_PLUS_Q0: fit_sm_plus_q0,
    LossModel.SM_PLUS_J: fit_sm_plus_j,
}


def model_inverse_q(result: LossFitResult, p_sm: float | np.ndarray,
                    p_j: float | np.ndarray):
    """A fitted model's 1/Q, ``p_sm*tan_d_sm + p_j*tan_d_j + 1/Q0``, for one
    device or, with array participations, elementwise over their
    broadcast.  A 1/Q beyond the float range reads inf."""
    tan_d_sm, tan_d_j = result.tan_d_sm, result.tan_d_j or 0.0
    if any(np.any(np.less(v, 0)) for v in (p_sm, p_j, tan_d_sm, tan_d_j)):
        raise InvalidInputError("participations and loss tangents must be >= 0")
    if result.q0 is not None and not result.q0 > 0:
        raise InvalidInputError(f"Q0 must be > 0, got {result.q0!r}")
    with np.errstate(over="ignore"):
        return p_sm * tan_d_sm + p_j * tan_d_j + (
            1.0 / result.q0 if result.q0 is not None and math.isfinite(result.q0)
            else 0.0)
