import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsurfloss import (
    DegenerateFitError,
    InvalidInputError,
    LossDataPoint,
    LossModel,
    fit_sm_only,
    fit_sm_plus_j,
    fit_sm_plus_q0,
    group_for_fit,
    model_inverse_q,
    normalized_pr,
    predict_inverse_q,
)
from qsurfloss.lossmodel import (
    CONDITION_LIMIT,
    FITTERS,
    LossFitResult,
    Weighting,
    _clamped_weighted_lstsq,
)

# loss tangents extracted from the bundled dataset (two-term model)
TAN_SM = 8.9e-4
TAN_J = 3.5e-3


class TestPredictInverseQ:
    def test_reference_device_d5_2(self):
        """p_sm = 0.82e-4, p_j = 0.34e-4 with the extracted tangents lands
        within a few percent of the measured Q = 4.92e6."""
        inv_q = predict_inverse_q(0.82e-4, 0.34e-4, TAN_SM, TAN_J)
        assert inv_q == pytest.approx(1.92e-7, rel=2e-3)
        assert 1.0 / inv_q == pytest.approx(4.92e6, rel=0.07)

    def test_zero_participation_is_lossless(self):
        assert predict_inverse_q(0.0, 0.0, TAN_SM, TAN_J) == 0.0

    def test_junction_dominance_d7_1(self):
        """For the long-lived small-p_sm device, the junction term carries
        roughly 80% of the modeled relaxation."""
        p_sm, p_j = 0.51e-4, 0.59e-4
        total = predict_inverse_q(p_sm, p_j, TAN_SM, TAN_J)
        fraction = p_j * TAN_J / total
        assert fraction == pytest.approx(0.82, abs=0.01)

    def test_negative_input_rejected(self):
        with pytest.raises(InvalidInputError):
            predict_inverse_q(-1e-4, 0.0, TAN_SM, TAN_J)


class TestNormalizedPr:
    def test_reference_value_d7_1(self):
        value = normalized_pr(0.51e-4, 0.59e-4, 8.9e-4, 3.5e-3)
        assert value == pytest.approx(2.83e-4, rel=2e-3)

    def test_reduces_to_p_sm_without_junction(self):
        assert normalized_pr(3e-4, 0.0, TAN_SM, TAN_J) == 3e-4

    def test_equal_tangents_sum(self):
        assert normalized_pr(2e-4, 1e-4, 1e-3, 1e-3) == pytest.approx(3e-4)

    def test_zero_tan_sm_rejected(self):
        with pytest.raises(InvalidInputError):
            normalized_pr(1e-4, 1e-4, 0.0, TAN_J)


def synthetic_points(tan_sm, tan_j=None, inv_q0=0.0, p_sm=None, p_j=None):
    p_sm = [1e-4, 5e-4, 2e-3] if p_sm is None else p_sm
    p_j = [0.0] * len(p_sm) if p_j is None else p_j
    points = []
    for i, (s, j) in enumerate(zip(p_sm, p_j)):
        inv_q = s * tan_sm + (j * tan_j if tan_j else 0.0) + inv_q0
        points.append(LossDataPoint(p_sm=s, p_j=j, q_mean=1.0 / inv_q,
                                    group_id=f"synth{i}"))
    return points


class TestExactRecovery:
    def test_two_point_q0_model(self):
        """Exactly determined system: two points, two unknowns."""
        points = synthetic_points(8e-4, inv_q0=1e-7, p_sm=[1e-4, 1e-3])
        fit = fit_sm_plus_q0(points, weighting="none")
        assert fit.tan_d_sm == pytest.approx(8e-4, rel=1e-12)
        assert fit.q0 == pytest.approx(1e7, rel=1e-12)

    def test_noise_free_junction_model(self):
        points = synthetic_points(
            8.9e-4, tan_j=3.5e-3,
            p_sm=[1e-4, 5e-4, 2e-3, 3e-3],
            p_j=[0.6e-4, 0.3e-4, 0.2e-4, 0.4e-4],
        )
        fit = fit_sm_plus_j(points, weighting="none")
        assert fit.tan_d_sm == pytest.approx(8.9e-4, rel=1e-10)
        assert fit.tan_d_j == pytest.approx(3.5e-3, rel=1e-10)
        assert np.max(np.abs(fit.residuals)) < 1e-18

    def test_prediction_identity(self):
        points = synthetic_points(8e-4, inv_q0=1e-7, p_sm=[1e-4, 4e-4, 9e-4])
        fit = fit_sm_plus_q0(points, weighting="none")
        for i, (p, predicted) in enumerate(zip(points, fit.predicted_inv_q)):
            assert model_inverse_q(fit, p.p_sm, p.p_j) == pytest.approx(
                predicted, rel=1e-14
            )
            assert 1.0 / p.q_mean - predicted == pytest.approx(
                fit.residuals[i], abs=1e-20
            )


class TestDegeneracy:
    def test_constant_p_sm_rejected_for_q0_model(self):
        points = [
            LossDataPoint(p_sm=1e-4, p_j=0.0, q_mean=1e6 + i * 1e4)
            for i in range(4)
        ]
        with pytest.raises(DegenerateFitError):
            fit_sm_plus_q0(points, weighting="none")

    def test_collinear_columns_rejected_with_condition_number(self):
        points = [
            LossDataPoint(p_sm=s, p_j=2.0 * s, q_mean=1.0 / (s * 1e-3))
            for s in (1e-4, 2e-4, 5e-4)
        ]
        with pytest.raises(DegenerateFitError, match="condition"):
            fit_sm_plus_j(points, weighting="none")

    def test_too_few_points(self):
        with pytest.raises(InvalidInputError):
            fit_sm_plus_j([LossDataPoint(1e-4, 1e-5, 1e6)], weighting="none")


class TestBundledDatasetFits:
    def test_junction_model_parameters(self, grouped_points):
        fit = fit_sm_plus_j(grouped_points)
        assert 7.1e-4 <= fit.tan_d_sm <= 1.07e-3
        assert 2.8e-3 <= fit.tan_d_j <= 4.2e-3
        assert fit.relative_stderr("tan_d_sm") < 0.15
        assert fit.relative_stderr("tan_d_j") < 0.15

    def test_q0_model_parameters(self, grouped_points):
        fit = fit_sm_plus_q0(grouped_points)
        assert 6.6e-4 <= fit.tan_d_sm <= 1.0e-3
        assert 5.7e6 <= fit.q0 <= 8.5e6

    def test_model_collapse_correlation(self, grouped_points):
        """The two-term model explains the grouped data: predicted and
        measured 1/Q correlate above 0.95, and the normalized-PR abscissa
        maps the model onto the single line tan_d_sm * npr."""
        fit = fit_sm_plus_j(grouped_points)
        measured = np.array([1.0 / p.q_mean for p in grouped_points])
        modeled = np.array(
            [model_inverse_q(fit, p.p_sm, p.p_j) for p in grouped_points]
        )
        assert np.corrcoef(measured, modeled)[0, 1] > 0.95
        for p, m in zip(grouped_points, modeled):
            npr = normalized_pr(p.p_sm, p.p_j, fit.tan_d_sm, fit.tan_d_j)
            assert fit.tan_d_sm * npr == pytest.approx(m, rel=1e-12)

    def test_sm_only_overestimates_long_lived_devices(self, grouped_points):
        """Without the junction term the single-tangent model cannot follow
        the small-p_sm points; its tangent is dragged upward."""
        single = fit_sm_only(grouped_points)
        two_term = fit_sm_plus_j(grouped_points)
        assert single.tan_d_sm > two_term.tan_d_sm


class TestWeighting:
    def test_uniform_variances_match_unweighted(self):
        """Equal q_mean and q_std means equal weights, so the weighted fit
        must coincide with the unweighted one."""
        p_sm = [1e-4, 3e-4, 7e-4, 1.5e-3]
        p_j = [0.5e-4, 0.2e-4, 0.6e-4, 0.1e-4]
        points = [
            LossDataPoint(p_sm=s, p_j=j, q_mean=2e6, q_std=2e5)
            for s, j in zip(p_sm, p_j)
        ]
        a = fit_sm_plus_j(points, weighting="none")
        b = fit_sm_plus_j(points, weighting="invvar")
        assert b.tan_d_sm == pytest.approx(a.tan_d_sm, rel=1e-9)
        assert b.tan_d_j == pytest.approx(a.tan_d_j, rel=1e-9)

    def test_invvar_requires_spread_on_every_point(self):
        """A point without q_std (None or 0) has no inverse variance; it is
        refused rather than given an arbitrary weight."""
        points = [
            LossDataPoint(p_sm=s, p_j=j, q_mean=2e6, q_std=std, group_id=g)
            for s, j, std, g in [(1e-4, 0.5e-4, 2e5, "a"), (3e-4, 0.2e-4, None, "b"),
                                 (7e-4, 0.6e-4, 0.0, "c"), (1.5e-3, 0.1e-4, 2e5, "d")]
        ]
        with pytest.raises(InvalidInputError) as info:
            fit_sm_plus_j(points, weighting="invvar")
        assert str(info.value) == (
            "inverse-variance weighting needs a q_std > 0 on every point; "
            "2 of 4 have none ('b', 'c'); use weighting 'none'")
        assert fit_sm_plus_j(points, weighting="none").n_points == 4

    def test_residual_orthogonality_unweighted(self, grouped_points):
        fit = fit_sm_plus_j(grouped_points, weighting="none")
        res = fit.residuals
        for column in (
            np.array([p.p_sm for p in grouped_points]),
            np.array([p.p_j for p in grouped_points]),
        ):
            cosine = abs(res @ column) / (
                np.linalg.norm(res) * np.linalg.norm(column)
            )
            assert cosine < 1e-9


def negative_junction_points():
    """Data generated with a negative junction coefficient."""
    rng = np.random.default_rng(7)
    p_sm = np.linspace(2e-4, 2e-3, 8)
    p_j = rng.uniform(0.1e-4, 0.4e-4, 8)
    inv_q = 1e-3 * p_sm - 2e-3 * p_j
    return [
        LossDataPoint(p_sm=s, p_j=j, q_mean=1.0 / y)
        for s, j, y in zip(p_sm, p_j, inv_q)
    ]


class TestNonNegativity:
    def test_negative_optimum_clamped_to_zero(self):
        """A negative junction coefficient must come back clamped at zero,
        refit on the remaining column."""
        points = negative_junction_points()
        fit = fit_sm_plus_j(points, weighting="none")
        assert fit.tan_d_j == 0.0
        assert fit.stderr["tan_d_j"] == 0.0
        only = fit_sm_only(points, weighting="none")
        assert fit.tan_d_sm == pytest.approx(only.tan_d_sm, rel=1e-12)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_active_set_reaches_nnls_minimum(self, data):
        """The drop-the-most-negative active set is exact NNLS for k <= 2
        design columns when every column entry is >= 0 and every weight > 0
        (then g12 >= 0 in the Gram matrix): its weighted residual equals the
        least one over all 2^k active sets, each solved unconstrained and
        kept when non-negative."""
        k = data.draw(st.integers(1, 2))
        n = data.draw(st.integers(k, 8))

        def column(lo, hi):
            return np.array(data.draw(st.lists(
                st.floats(lo, hi, allow_subnormal=False), min_size=n, max_size=n)))

        X = np.column_stack([column(0.0, 1.0) for _ in range(k)])
        y = column(-1.0, 1.0)
        w = column(1e-3, 1e3)
        sw = np.sqrt(w)
        assume(np.linalg.cond(X * sw[:, None]) < CONDITION_LIMIT)

        def chi2(beta):
            return float(np.sum(w * (y - X @ beta) ** 2))

        beta, *_ = _clamped_weighted_lstsq(X, y, w)
        assert np.all(beta >= 0)
        best = chi2(np.zeros(k))
        for r in range(1, k + 1):
            for active in map(list, itertools.combinations(range(k), r)):
                sol, *_ = np.linalg.lstsq(X[:, active] * sw[:, None], y * sw,
                                          rcond=None)
                if np.all(sol >= 0):
                    candidate = np.zeros(k)
                    candidate[active] = sol
                    best = min(best, chi2(candidate))
        # an exact fit leaves best at rounding level; floor it at the scale
        # of the problem, chi2 at beta = 0
        assert chi2(beta) <= best + 1e-9 * max(best, 1e-9 * chi2(np.zeros(k)))


class TestCovariance:
    def test_power_of_two_scaling_is_exact(self, grouped_points):
        """The free-parameter covariance is bit for bit ``(X'WX)^-1`` times
        the reduced chi-square, formed without rescaling."""
        X = np.column_stack([[p.p_sm for p in grouped_points],
                             [p.p_j for p in grouped_points]])
        y = np.array([1.0 / p.q_mean for p in grouped_points])
        w = np.array([p.q_mean**4 / p.q_std**2 for p in grouped_points])
        beta, cov, res, _ = _clamped_weighted_lstsq(X, y, w)
        assert np.all(beta > 0)
        Xw = X * np.sqrt(w)[:, None]
        chi2 = float(np.sum(w * res**2))
        expected = np.linalg.inv(Xw.T @ Xw) * (chi2 / (len(y) - 2))
        np.testing.assert_array_equal(cov, expected)

    def test_tiny_design_does_not_underflow(self):
        """A well-conditioned design of magnitude 1e-200 squares to 0 in its
        Gram matrix, and its chi-square underflows, unless each is rescaled
        first; at 1e200 both overflow.  Scaling X and y together leaves beta
        and the covariance unchanged."""
        x = np.array([1.0, 2.0, 3.0])
        y = 0.5 * x * np.array([1.0, 1.1, 0.9])
        _, unit_cov, *_ = _clamped_weighted_lstsq(x[:, None], y, np.ones(3))
        assert np.all(unit_cov > 0)
        for scale in (1e-200, 1e200):
            beta, cov, *_ = _clamped_weighted_lstsq(scale * x[:, None],
                                                    scale * y, np.ones(3))
            assert beta[0] == pytest.approx(float(x @ y / (x @ x)), rel=1e-12)
            np.testing.assert_allclose(cov, unit_cov, rtol=1e-12, atol=0)

    def test_unrepresentable_variance_reads_inf(self):
        """The true variance here is 1/(3e-223)^2 ~ 1e445: it saturates to
        inf instead of raising an overflow warning."""
        X = np.array([[3.1742278738215514e-223], [0.0]])
        beta, cov, *_ = _clamped_weighted_lstsq(X, np.array([0.0, 1.0]),
                                                np.ones(2))
        assert beta[0] == 0.0
        assert cov[0, 0] == np.inf


class TestSerialization:
    def test_report_dict_is_json_ready(self, grouped_points):
        fit = fit_sm_plus_j(grouped_points)
        blob = json.dumps(fit.to_json_dict())
        parsed = json.loads(blob)
        assert parsed["model"] == LossModel.SM_PLUS_J.value
        assert parsed["parameters"]["tan_d_sm"] == pytest.approx(fit.tan_d_sm)
        assert len(parsed["residuals_inv_q"]) == len(grouped_points)


# The per-model fitters, JSON layout and prediction as they were before the
# model table, kept as the reference that the table-driven fitter must match
# bit for bit.  They share the clamped solver, and every case given to them
# with inverse-variance weighting carries a spread on each point.

def _reference_prepare(points, n_params, require_psm_range=False):
    if len(points) < n_params:
        raise InvalidInputError(
            f"need at least {n_params} points for a {n_params}-parameter fit"
        )
    p_sm = np.array([p.p_sm for p in points])
    p_j = np.array([p.p_j for p in points])
    y = np.array([1.0 / p.q_mean for p in points])
    if require_psm_range and np.ptp(p_sm) == 0:
        raise DegenerateFitError("all points share the same p_sm; nothing to fit")
    return p_sm, p_j, y


def _reference_weights(points, weighting):
    if weighting is Weighting.NONE:
        return np.ones(len(points))
    w = np.empty(len(points))
    for i, p in enumerate(points):
        w[i] = p.q_mean**4 / p.q_std**2
    return w


def reference_fit_sm_plus_q0(points, weighting):
    weighting = Weighting(weighting)
    p_sm, _, y = _reference_prepare(points, 2, require_psm_range=True)
    X = np.column_stack([p_sm, np.ones_like(p_sm)])
    w = _reference_weights(points, weighting)
    beta, cov, res, cond = _clamped_weighted_lstsq(X, y, w)
    tan_d_sm, inv_q0 = beta
    stderr = {
        "tan_d_sm": float(np.sqrt(cov[0, 0])),
        "inv_q0": float(np.sqrt(cov[1, 1])),
    }
    return LossFitResult(
        model=LossModel.SM_PLUS_Q0,
        tan_d_sm=float(tan_d_sm),
        q0=float(1.0 / inv_q0) if inv_q0 > 0 else math.inf,
        stderr=stderr,
        covariance=cov,
        residuals=res,
        predicted_inv_q=X @ beta,
        weighting=weighting,
        n_points=len(points),
        condition_number=float(cond),
    )


def reference_fit_sm_plus_j(points, weighting):
    weighting = Weighting(weighting)
    p_sm, p_j, y = _reference_prepare(points, 2)
    X = np.column_stack([p_sm, p_j])
    w = _reference_weights(points, weighting)
    beta, cov, res, cond = _clamped_weighted_lstsq(X, y, w)
    stderr = {
        "tan_d_sm": float(np.sqrt(cov[0, 0])),
        "tan_d_j": float(np.sqrt(cov[1, 1])),
    }
    return LossFitResult(
        model=LossModel.SM_PLUS_J,
        tan_d_sm=float(beta[0]),
        tan_d_j=float(beta[1]),
        stderr=stderr,
        covariance=cov,
        residuals=res,
        predicted_inv_q=X @ beta,
        weighting=weighting,
        n_points=len(points),
        condition_number=float(cond),
    )


def reference_fit_sm_only(points, weighting):
    weighting = Weighting(weighting)
    p_sm, _, y = _reference_prepare(points, 1)
    X = p_sm[:, None]
    w = _reference_weights(points, weighting)
    beta, cov, res, cond = _clamped_weighted_lstsq(X, y, w)
    return LossFitResult(
        model=LossModel.SM_ONLY,
        tan_d_sm=float(beta[0]),
        stderr={"tan_d_sm": float(np.sqrt(cov[0, 0]))},
        covariance=cov,
        residuals=res,
        predicted_inv_q=X @ beta,
        weighting=weighting,
        n_points=len(points),
        condition_number=float(cond),
    )


REFERENCE_FITTERS = {
    LossModel.SM_ONLY: reference_fit_sm_only,
    LossModel.SM_PLUS_Q0: reference_fit_sm_plus_q0,
    LossModel.SM_PLUS_J: reference_fit_sm_plus_j,
}


def reference_json_dict(result):
    params = {"tan_d_sm": result.tan_d_sm}
    if result.model is LossModel.SM_PLUS_J:
        params["tan_d_j"] = result.tan_d_j
    if result.model is LossModel.SM_PLUS_Q0:
        params["q0"] = result.q0
    return {
        "model": result.model.value,
        "parameters": params,
        "stderr": dict(result.stderr),
        "covariance": result.covariance.tolist(),
        "residuals_inv_q": result.residuals.tolist(),
        "weighting": result.weighting.value,
        "n_points": result.n_points,
        "condition_number": result.condition_number,
    }


def reference_model_inverse_q(result, p_sm, p_j):
    if result.model is LossModel.SM_PLUS_Q0:
        return predict_inverse_q(p_sm, 0.0, result.tan_d_sm) + (
            0.0 if math.isinf(result.q0) else 1.0 / result.q0
        )
    if result.model is LossModel.SM_PLUS_J:
        return predict_inverse_q(p_sm, p_j, result.tan_d_sm, result.tan_d_j)
    return predict_inverse_q(p_sm, 0.0, result.tan_d_sm)


def negative_intercept_points():
    """1/Q below the origin line: the Q0 fit clamps 1/Q0 to 0 (Q0 = inf)."""
    p_sm = np.linspace(2e-4, 2e-3, 6)
    return [LossDataPoint(p_sm=s, p_j=0.0, q_mean=1.0 / (1e-3 * s - 1e-8))
            for s in p_sm]


ALL_MODELS = tuple(LossModel)
REFERENCE_CASES = {
    # case: (points, weighting, models)
    "per-die/none": ("per_die_design", "none", ALL_MODELS),
    "per-die/invvar": ("per_die_design", "invvar", ALL_MODELS),
    "per-device/none": ("per_device", "none", ALL_MODELS),
    "two-point-q0": (lambda: synthetic_points(8e-4, inv_q0=1e-7, p_sm=[1e-4, 1e-3]),
                     "none", (LossModel.SM_PLUS_Q0,)),
    "negative-junction": (negative_junction_points, "none",
                          (LossModel.SM_ONLY, LossModel.SM_PLUS_J)),
    "clamped-intercept": (negative_intercept_points, "none", (LossModel.SM_PLUS_Q0,)),
}


def case_points(records, source):
    if callable(source):
        return source()
    points = group_for_fit(records, mode=source)
    points.sort(key=lambda p: (p.p_sm, p.p_j, p.group_id))
    return points


def assert_same_fit(got, want):
    assert got.model is want.model
    assert (got.tan_d_sm, got.tan_d_j, got.q0) == (want.tan_d_sm, want.tan_d_j, want.q0)
    assert got.stderr.keys() == want.stderr.keys()
    # exact equality; NaN (an exactly determined system) equals NaN
    np.testing.assert_array_equal(list(got.stderr.values()), list(want.stderr.values()))
    np.testing.assert_array_equal(got.covariance, want.covariance)
    np.testing.assert_array_equal(got.residuals, want.residuals)
    np.testing.assert_array_equal(got.predicted_inv_q, want.predicted_inv_q)
    assert got.condition_number == want.condition_number
    assert json.dumps(got.to_json_dict()) == json.dumps(reference_json_dict(want))


class TestAgainstPerModelFitters:
    @pytest.mark.parametrize("case, model", [
        (case, model)
        for case, (_, _, models) in REFERENCE_CASES.items() for model in models
    ], ids=lambda v: v.value if isinstance(v, LossModel) else v)
    def test_fit_matches_reference(self, records, case, model):
        source, weighting, _ = REFERENCE_CASES[case]
        points = case_points(records, source)
        got = FITTERS[model](points, weighting=weighting)
        assert_same_fit(got, REFERENCE_FITTERS[model](points, weighting))
        if case == "clamped-intercept":
            assert got.q0 == math.inf

    def test_model_inverse_q_matches_reference_on_surface_grid(self, grouped_points):
        """The q_model_surface grid (25 x 25 over the data's p ranges) for
        every model, and for a Q0 fit with Q0 = inf."""
        fits = [FITTERS[m](grouped_points) for m in LossModel]
        fits.append(fit_sm_plus_q0(negative_intercept_points(), weighting="none"))
        p_sm = np.geomspace(min(p.p_sm for p in grouped_points),
                            max(p.p_sm for p in grouped_points), 25)
        p_j = np.geomspace(min(p.p_j for p in grouped_points),
                           max(p.p_j for p in grouped_points), 25)
        for fit in fits:
            for s in p_sm:
                for j in p_j:
                    assert model_inverse_q(fit, float(s), float(j)) == (
                        reference_model_inverse_q(fit, float(s), float(j)))
