import math
import re
import statistics
import warnings
from collections import namedtuple
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsurfloss import (
    DecayTrace,
    DeviceRecord,
    FitFailureError,
    InvalidInputError,
    PurcellParams,
    T1Estimate,
    T1Statistics,
    fit_exponential,
    group_for_fit,
    load_decay_trace,
    purcell_limit,
    purcell_subtract_q,
    purcell_subtract_t1,
    q_statistics_from_rounds,
    t1_statistics,
)
from qsurfloss import qubitfit
from qsurfloss.errors import shown
from qsurfloss.qubitfit import (
    LOSSES,
    UNBOUNDED_PURCELL_S,
    _basis,
    _T1_MIN_STEPS,
    _initial_guess,
    _integral_start,
    _mean_std,
    _noise_floor,
    _project,
    _weights,
    t1_report_dict,
)

T1_REF = 316.8  # us


def make_trace(t1=T1_REF, amplitude=1.0, offset=0.0, n=32, t_max=None,
               noise=0.0, seed=0):
    t = np.linspace(0.0, 3.0 * t1 if t_max is None else t_max, n)
    y = amplitude * np.exp(-t / t1) + offset
    if noise:
        y = y + np.random.default_rng(seed).normal(0.0, noise, n)
    return DecayTrace(t, y, meta={"device": "synthetic"})


def campaign_traces(count):
    """Seeded traces like a measurement campaign's: 32-64 delays over three
    T1, noise 0.02, and every seventh trace with two +-0.3 readout
    outliers, which is fitted with soft_l1."""
    for i in range(count):
        rng = np.random.default_rng(i)
        n = int(rng.integers(32, 65))
        t1 = rng.uniform(50.0, 500.0)
        t = np.linspace(0.0, 3.0 * t1, n)
        y = (rng.uniform(0.85, 0.95) * np.exp(-t / t1) + rng.uniform(0.02, 0.08)
             + rng.normal(0.0, 0.02, n))
        loss = "linear"
        if i % 7 == 0:
            hit = rng.choice(np.arange(1, n), size=2, replace=False)
            y[hit] += rng.choice([-1.0, 1.0], size=2) * 0.3
            loss = "soft_l1"
        yield DecayTrace(t, y), loss


def reference_fit(trace, loss):
    """T1 and its 1-sigma error from ``scipy.optimize.least_squares`` in
    (A, T1, B) with a finite-difference Jacobian, tolerances 1e-15, and the
    covariance ``pinv(J^T J) * 2 cost / (n - 3)``."""
    from scipy.optimize import least_squares

    t, y = trace.delays_us, trace.populations
    a0, b0 = y[0] - y[-1], y[-1]
    t10 = t[int(np.argmin(np.abs(y - b0 - a0 / math.e)))]
    if t10 <= t[0]:
        t10 = t[0] + (t[-1] - t[0]) / 3.0
    # its unbounded trial steps to T1 < 0 overflow exp(-t/T1); they are
    # rejected by the optimizer
    with np.errstate(over="ignore"):
        res = least_squares(
            lambda p: p[0] * np.exp(-t / p[1]) + p[2] - y, x0=[a0, t10, b0],
            loss=loss, xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=10000,
        )
    assert res.success, res.message
    cov = np.linalg.pinv(res.jac.T @ res.jac) * 2.0 * res.cost / (t.size - 3)
    return res.x[1], math.sqrt(cov[1, 1])


def pinv_robust_fit_err(trace, estimate):
    """The soft_l1 fit_err as a 3x3 pseudo-inverse: Jacobian columns
    (e, A x e / T1, 1) with e = exp(-x/T1) and x the delay from the first,
    rows weighted by max((1 + r^2)^(-3/2), eps), and chi2 = sum(rho)/dof."""
    t, y = trace.delays_us, trace.populations
    t1 = estimate.t1_us
    e = np.exp(-(t - t[0]) / t1)
    a = estimate.amplitude * math.exp(-t[0] / t1)
    r = a * e + estimate.offset - y
    u = np.hypot(1.0, r)
    jac = np.column_stack((e, a * (t - t[0]) / t1 * e, np.ones(t.size)))
    jac *= np.sqrt(np.maximum(u**-3, np.finfo(float).eps))[:, None]
    chi2 = 2.0 * float(np.sum(u - 1.0)) / (t.size - 3)
    return t1 * math.sqrt(float(np.linalg.pinv(jac.T @ jac)[1, 1]) * chi2)


def unit_weight_problem(trace):
    """The fit's delays mapped onto [0, 1], its populations divided by
    their largest magnitude, and unit weights on the moment basis."""
    t, y = trace.delays_us, trace.populations
    x = (t - t[0]) / (t[-1] - t[0])
    y = y / max(-float(y.min()), float(y.max()))
    return x, y, _weights(_basis(x, y))


#: The entries of the tuple that ``_project`` returns, in its order.
Projection = namedtuple("Projection", "cost step h curv a c ff r")


def project(*args):
    """``_project`` with its tuple named by the fields of Projection."""
    fit = _project(*args)
    return None if fit is None else Projection(*fit)


def trapezoid_regression_rate(x, y):
    """c2 of the least-squares fit y ~ c0 + c1 x + c2 I by ``lstsq``, with
    I the cumulative trapezoid integral of y."""
    integral = np.concatenate(([0.0], np.cumsum(
        0.5 * (y[1:] + y[:-1]) * np.diff(x))))
    design = np.column_stack((np.ones_like(x), x, integral))
    return np.linalg.lstsq(design, y, rcond=None)[0][2]


def cost_derivatives(x, y, wt, s, d=1e-3):
    """Half the first and second central differences of the reduced cost:
    finite-difference g = phi'/2 and phi''/2."""
    cp, c0, cm = (project(x, y, wt, s + e).cost for e in (d, 0.0, -d))
    return (cp - cm) / (4.0 * d), (cp - 2.0 * c0 + cm) / (2.0 * d * d)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
positive_floats = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
nonzero_floats = positive_floats | positive_floats.map(lambda v: -v)

#: An ``arbitrary_traces`` draw whose delays collapse onto 0 and 1 once
#: mapped onto [0, 1], so that nothing determines T1.  Its Schur complement
#: passed a check against eps times its scale, though it lies below the
#: rounding error of the elimination, and the soft_l1 fit quoted T1 = 2.1e261
#: with a fit_err of 3.9e270 computed from that noise.
COLLAPSED_DELAYS_TRACE = DecayTrace(
    np.array([-1.2234762120868066e+57, -3.3027701268631028e+16,
              -2.516728322596197e+16, -2.398069083874845e+16,
              -1.8589451917613564e+16, -0.3333333333333333,
              -8.569867881792098e-59, -4.0283593678612525e-100,
              -5.50256646855022e-298, 2.225073858507203e-309,
              1.2254219878234174e-250, 3.3614518026437055e-215, 0.1,
              5521096773117202.0, 3.6271820830567016e+16,
              5.43780577572513e+16, 6.517153523215273e+16,
              1.125645315777873e+57, 9.211092885907159e+108,
              4.773317959093376e+149, 6.281991808019426e+261]),
    np.array([869.6263862436099, 869.6091220161173, 869.6263862436099,
              869.6263862436099, 869.6263862436099, 869.6263862436099,
              869.6980254470822, 869.6263862436099, 869.5263862436099,
              869.5972419092316, 869.7162275765156, 869.6263862436099,
              869.6213938645112, 869.6263862436099, 869.6309161090203,
              869.5263862436099, 869.7032212495393, 869.6263862436099,
              869.5807124876171, 869.6263862436099, 869.6263862436099]),
)


@st.composite
def arbitrary_traces(draw):
    """8-64 strictly increasing finite delays; populations either arbitrary
    finite floats or a decay over the sample index with jitter."""
    n = draw(st.integers(8, 64))
    delays = draw(st.lists(finite_floats, min_size=n, max_size=n,
                           unique=True).map(sorted))
    if draw(st.booleans()):
        populations = draw(st.lists(finite_floats, min_size=n, max_size=n))
    else:
        amplitude = draw(st.floats(-1e3, 1e3))
        offset = draw(st.floats(-1e3, 1e3))
        rate = draw(st.floats(0.0, 50.0))
        jitter = draw(st.sampled_from([0.0, 1e-3, 0.1]))
        noise = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
        populations = [amplitude * math.exp(-rate * i / n) + offset + jitter * u
                       for i, u in enumerate(noise)]
    return DecayTrace(np.array(delays), np.array(populations))


class TestNoiseFloor:
    @given(trace=arbitrary_traces())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_standard_deviation_of_second_differences(self, trace):
        """The dot-product form agrees with the numpy std it replaced, on
        populations scaled into [-1, 1] as ``fit_exponential`` passes them."""
        y = trace.populations
        y = y / max(1.0, -float(y.min()), float(y.max()))
        old = float(np.std(np.diff(y, 2)) / math.sqrt(6.0))
        assert math.isclose(_noise_floor(y), old, rel_tol=1e-15, abs_tol=0.0)


class TestDecayTraceValidation:
    def test_too_short(self):
        with pytest.raises(InvalidInputError, match="8 samples"):
            DecayTrace(np.arange(4.0), np.ones(4))

    def test_non_increasing_delays(self):
        t = np.arange(10.0)
        t[5] = t[4]
        with pytest.raises(InvalidInputError, match="increasing"):
            DecayTrace(t, np.ones(10))

    @pytest.mark.parametrize("delays", [
        np.r_[np.arange(9.0), np.inf], ["a"] * 8, [10**400] * 8,
        [str(i) for i in range(8)]], ids=["inf", "str", "int1e400", "numeric-str"])
    def test_non_finite_delay(self, delays):
        """numpy's casting used to end ['a'] * 8 in a raw ValueError and
        [10**400] * 8 in a raw OverflowError, and to read '0', '1', ... as
        delays."""
        with pytest.raises(InvalidInputError, match="delays must be finite"):
            DecayTrace(delays, range(len(delays)))

    @pytest.mark.parametrize("y", [
        np.r_[np.ones(3), np.nan, np.ones(6)], [str(i) for i in range(10)]],
        ids=["nan", "numeric-str"])
    def test_non_finite_population(self, y):
        with pytest.raises(InvalidInputError, match="populations must be finite"):
            DecayTrace(np.arange(10.0), y)


class TestFitExponential:
    def test_noiseless_recovery(self):
        estimate = fit_exponential(make_trace())
        assert abs(estimate.t1_us - T1_REF) / T1_REF < 1e-9
        assert estimate.amplitude == pytest.approx(1.0, abs=1e-9)
        assert estimate.offset == pytest.approx(0.0, abs=1e-9)

    def test_fit_err_is_the_spread_of_the_fitted_t1(self):
        """At criterion 7's settings (32 delays over three T1, noise 0.02),
        the std of (T1 - true) / fit_err over 2000 seeded traces lies in
        [0.90, 1.10].  The band is set in advance: +-4.7 % is the 3-sigma
        sampling error of a std taken from 2000 draws, and 5 % more allows
        for the chi^2-scaled Gauss-Newton covariance being asymptotic at 32
        delays."""
        pulls = []
        for seed in range(2000):
            estimate = fit_exponential(make_trace(noise=0.02, seed=seed))
            pulls.append((estimate.t1_us - T1_REF) / estimate.fit_err_us)
        assert 0.90 <= statistics.pstdev(pulls) <= 1.10

    def test_single_noisy_trace(self):
        estimate = fit_exponential(make_trace(noise=0.02, seed=42))
        assert estimate.t1_us == pytest.approx(T1_REF, rel=0.15)
        assert 0.0 < estimate.fit_err_us < 60.0

    def test_constant_trace_fails(self):
        with pytest.raises(FitFailureError, match="no visible decay"):
            fit_exponential(DecayTrace(np.arange(16.0), np.full(16, 0.4)))

    def test_range_below_noise_floor_fails(self):
        # alternating jitter dominates the (tiny) systematic span
        y = 0.5 + 1e-4 * (np.arange(32) % 2)
        with pytest.raises(FitFailureError, match="noise floor"):
            fit_exponential(DecayTrace(np.linspace(0, 100, 32), y))

    def test_time_unit_invariance(self):
        """Fitting in ms instead of us scales T1 accordingly and leaves the
        dimensionless shape parameters unchanged."""
        trace_us = make_trace(noise=0.01, seed=3)
        trace_ms = DecayTrace(trace_us.delays_us / 1e3, trace_us.populations)
        est_us = fit_exponential(trace_us)
        est_ms = fit_exponential(trace_ms)
        assert est_ms.t1_us * 1e3 == pytest.approx(est_us.t1_us, rel=1e-6)
        assert est_ms.amplitude == pytest.approx(est_us.amplitude, rel=1e-6)
        assert est_ms.fit_err_us * 1e3 == pytest.approx(est_us.fit_err_us, rel=1e-4)

    def test_robust_loss_handles_outlier(self):
        trace = make_trace(noise=0.01, seed=11)
        trace.populations[5] += 0.5
        estimate = fit_exponential(trace, loss="soft_l1")
        assert estimate.t1_us == pytest.approx(T1_REF, rel=0.15)

    def test_robust_fit_steps_past_a_negative_t1_trial(self):
        """An unbounded optimizer in (A, T1, B) tries a T1 < 0 on this trace;
        the search in ln T1 cannot, and the robust fit still recovers T1."""
        trace = make_trace(noise=0.02, seed=2)
        trace.populations[25] += 0.3
        estimate = fit_exponential(trace, loss="soft_l1")
        assert estimate.t1_us == pytest.approx(T1_REF, rel=0.15)

    def test_robust_fit_err_of_a_nearly_noiseless_trace(self):
        """At noise 1e-9 the soft_l1 chi2, summed as u - v with
        u = hypot(v, r), cancelled to exactly 0; summed as r^2 / (u + v) it
        keeps the size of the linear fit's error."""
        trace = make_trace(t1=30.0, amplitude=0.9, offset=0.05, noise=1e-9)
        linear = fit_exponential(trace).fit_err_us
        robust = fit_exponential(trace, loss="soft_l1").fit_err_us
        assert 0.0 < linear < 1e-6
        assert 0.5 * linear < robust < 2.0 * linear

    @pytest.mark.parametrize("loss", LOSSES)
    def test_straight_ramp_runs_t1_off_to_infinity(self, loss):
        """A straight line is the limit T1 -> infinity of the model."""
        t = np.linspace(0.0, 100.0, 32)
        with pytest.raises(FitFailureError, match="runs off to infinity"):
            fit_exponential(DecayTrace(t, 1.0 - 0.005 * t), loss=loss)

    def test_unknown_loss_rejected(self):
        with pytest.raises(InvalidInputError, match="'bogus'"):
            fit_exponential(make_trace(), loss="bogus")

    def test_matches_least_squares_reference(self):
        """Traces shaped like a measurement campaign against scipy run to
        its tightest tolerances: T1 to 1e-7 (linear) and 1e-6 (soft_l1),
        fit_err to 1e-3 of the reference covariance."""
        worst = {loss: [0.0, 0.0] for loss in LOSSES}
        for trace, loss in campaign_traces(50):
            estimate = fit_exponential(trace, loss=loss)
            t1, t1_err = reference_fit(trace, loss)
            dev = worst[loss]
            dev[0] = max(dev[0], abs(estimate.t1_us / t1 - 1.0))
            dev[1] = max(dev[1], abs(estimate.fit_err_us / t1_err - 1.0))
        assert worst["linear"][0] < 1e-7
        assert worst["soft_l1"][0] < 1e-6
        assert worst["linear"][1] < 1e-3 and worst["soft_l1"][1] < 1e-3

    def test_robust_covariance_matches_the_pseudo_inverse(self):
        """The closed-form soft_l1 variance, from weighted moments, equals
        the 3x3 pseudo-inverse covariance at the same fit."""
        checked = 0
        for trace, loss in campaign_traces(50):
            if loss != "soft_l1":
                continue
            estimate = fit_exponential(trace, loss=loss)
            assert estimate.fit_err_us == pytest.approx(
                pinv_robust_fit_err(trace, estimate), rel=1e-10, abs=0.0)
            checked += 1
        assert checked == 8

    def test_singular_robust_covariance_fails_typed(self):
        """The delays of this trace collapse onto 0 and 1 once mapped onto
        [0, 1], so nothing determines T1.  The search settles where the
        projection's Schur complement is still 100 times its rounding
        error.  A closed form of the robust covariance in its own columns
        refused it there; the projection under the covariance's weights
        (1+r^2)^(-3/2) does not, and the fit is refused at its T1."""
        t = [
            -1.7976931348623155e+308, -1.5253800899421676e+141,
            -4.215010742454773e+77, -5.475506323615476e+16,
            -5.3516997526877464e+16, -2.1528203777046616e+16,
            -1.202570718806977e+16, -6993926543779202.0, -2.0,
            -2.070574070804395e-45, -1.8223067419505483e-137,
            -2.1991775143351227e-209, -2.5642969737894468e-216,
            2.225073858507e-311, 3.9175547884137296e-221, 0.25,
            394068626512261.0, 3.257184427107004e+16, 4.331923389248555e+16,
            4.43465125463544e+16, 6.923087351554497e+16, 2.316641913538014e+23,
            3.062154923094665e+115, 4.1527545217580495e+291,
            1.5773595729976401e+305]
        y = [
            366.320693936784, 121.74156899553991, 40.45932990688783,
            13.445898764317858, 4.468250461814092, 1.484827396051354,
            0.492786551536745, 0.1640241953159729, 0.053925627399021486,
            0.018346746831521724, 0.006598901595067507, 0.0022891085955595103,
            0.0006649654685345096, -0.00043846688549321075,
            7.344387182659976e-05, 0.0009492000710017264,
            8.111702884015372e-06, 2.6958161476818343e-06,
            -0.0009717719880763849, 0.00025029774655224544,
            0.0010000989520911868, 0.0006974289498386388,
            1.0930025710340314e-08, 0.00010000363211577269,
            1.2070851817746577e-09]
        with pytest.raises(FitFailureError,
                           match="T1 = inf is not a representable time"):
            fit_exponential(DecayTrace(np.array(t), np.array(y)),
                            loss="soft_l1")

    def test_robust_covariance_singular_under_its_own_weights_fails_typed(self):
        """A seeded arbitrary trace whose delays collapse onto 0, 0.99995
        and 1 once mapped onto [0, 1]: the search's projection determines T1,
        but the one under the covariance's weights (1+r^2)^(-3/2) is
        singular by the same rule.  One of 4 traces in 200,000 seeded
        arbitrary soft_l1 fits refused there before and after the robust
        covariance became that projection."""
        t = [
            -4.2525462322942207e+250, -2.0342940167852262e+246,
            -2.9795208527034583e+99, -1.8509622943781362e+95,
            -2.1462271990441823e+82, -664.3115023520968, -138.56616214465066,
            -18.08579946161849, -2.0, -0.7600260179728865,
            -8.818111717257805e-108, -2.5141271165223197e-196, 0.0,
            2.27613945076147e-161, 0.000942419812761258, 0.015866368809143615,
            0.18700583299831308, 2.0, 3.0, 12.688015364039192,
            3.967247830065046e+55]
        y = [
            5.0, 1.785040996263378, -0.0003877311499556266, 23.569638412895042,
            -4.0, 0.0001628321607457585, -0.4383091591159672,
            2.1832066557846302e-75, 2.0, -6.797531288839426e-92,
            0.0128835338409585, -1.1655634554505434, -1.63974635161019,
            -228.15300040980813, 2.0, -3.152776588831989e-195, 1.0,
            0.22774352939162323, 0.019507217729032536, 3.699620600054696e+19,
            2.3731391844924247e+63]
        with pytest.raises(FitFailureError, match=(
                "^singular projection: the robust covariance does not "
                "determine T1$")):
            fit_exponential(DecayTrace(np.array(t), np.array(y)),
                            loss="soft_l1")

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("trace", [
        COLLAPSED_DELAYS_TRACE,
        DecayTrace(
            np.array([-3.997132512874204e16, -1.819669650805153e16,
                      -2.8792846114472372e-43, 1.0803032747940433e-300, 4.0,
                      2902970192309141.0, 3.295576751751434e16,
                      6.259979501245557e16, 7.739680731601954e21,
                      7.616605554460365e296]),
            np.array([159.07012598561607, 159.07059142964732,
                      159.0704770574992, 159.07012598561607,
                      159.06950666185475, 159.07012604665124,
                      159.06945927632395, 159.06998858262878,
                      159.069201880117, 159.07012598561607])),
    ], ids=["21-delays", "10-delays"])
    def test_rounding_noise_schur_complement_fails_typed(self, trace, loss):
        """Two traces whose delays collapse onto 0 and 1 once mapped onto
        [0, 1]: the projection's Schur complement is rounding noise from the
        first T1 on.  Their linear fits used to quote T1 = 2.1e261 and
        2.5e296 with fit_errs of 2.7e270 and 5.4e304."""
        with pytest.raises(FitFailureError,
                           match="singular projection: the fit does not"):
            fit_exponential(trace, loss=loss)

    @pytest.mark.parametrize("loss", LOSSES)
    def test_t1_below_the_delay_spacing_fails_typed(self, loss):
        """10 delays over 0-100 us and a true T1 of 2 us: only the first
        delay sees the decay through the noise.  The linear fit used to
        creep for 145 projections to T1 = 0.40 us with a fit_err of
        1022 us."""
        trace = make_trace(t1=2.0, amplitude=0.9, offset=0.05, n=10,
                           t_max=100.0, noise=0.01, seed=3)
        with pytest.raises(FitFailureError, match="below the delay spacing"):
            fit_exponential(trace, loss=loss)

    def test_t1_below_the_delay_spacing_stays_fitted_without_noise(self):
        """The same trace without noise still determines T1: the decay
        keeps 4e-3 of its drop at the second delay."""
        trace = make_trace(t1=2.0, amplitude=0.9, offset=0.05, n=10,
                           t_max=100.0)
        assert fit_exponential(trace).t1_us == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("scale", [1e-160, 1e-200, 1e-300])
    def test_tiny_populations_do_not_underflow(self, scale, loss):
        """Every trace is divided by its largest magnitude, so the squared
        amplitude and the moments of a clean decay of magnitude 1e-160 and
        below stay representable.  Scaled only above 1, the 1e-160 trace
        returned 29.03 us and the others failed as singular projections."""
        trace = make_trace(t1=30.0, amplitude=0.9, offset=0.05, t_max=100.0)
        estimate = fit_exponential(
            DecayTrace(trace.delays_us, trace.populations * scale), loss=loss)
        assert estimate.t1_us == pytest.approx(30.0, rel=1e-9)
        assert estimate.amplitude == pytest.approx(0.9 * scale, rel=1e-9)

    def test_all_zero_trace_fails_typed(self):
        """Scaling by the largest magnitude does not divide by zero."""
        with pytest.raises(FitFailureError, match="no visible decay"):
            fit_exponential(DecayTrace(np.arange(16.0), np.zeros(16)))

    def test_unrepresentable_fit_err_fails_typed(self):
        """63 noisy delays over 3.5e306 us: T1 = 1.5e308 us is a float, but
        its 1-sigma error is not, and the fit used to quote fit_err = inf."""
        trace = make_trace(t1=1.05e307, n=63, t_max=3.5e306, noise=0.02,
                           seed=3)
        with pytest.raises(FitFailureError,
                           match="fit_err = inf is not a representable"):
            fit_exponential(trace)

    @given(trace=arbitrary_traces(), loss=st.sampled_from(LOSSES))
    @example(trace=COLLAPSED_DELAYS_TRACE, loss="soft_l1")
    @settings(max_examples=300, deadline=None)
    def test_any_finite_trace_fits_or_fails_typed(self, trace, loss):
        """Every finite trace gives a finite positive T1 or a FitFailureError;
        nothing else escapes, and no numpy RuntimeWarning (an error in this
        suite) is raised on the way."""
        try:
            estimate = fit_exponential(trace, loss=loss)
        except FitFailureError:
            return
        assert 0.0 < estimate.t1_us < math.inf
        assert estimate.fit_err_us >= 0.0


class TestNewtonStep:
    def test_curvature_matches_finite_differences_of_the_cost(self):
        """phi''/2 from the moments agrees with a central difference of the
        reduced cost at the optimum and 0.3 either side of it in ln T1, and
        the step is -g/curv (or -g/h where curv <= 0)."""
        for trace, _ in campaign_traces(50):
            x, y, wt = unit_weight_problem(trace)
            span = trace.delays_us[-1] - trace.delays_us[0]
            best = math.log(fit_exponential(trace).t1_us / span)
            for s in (best - 0.3, best, best + 0.3):
                fit = project(x, y, wt, s)
                g, curv = cost_derivatives(x, y, wt, s)
                assert fit.curv == pytest.approx(curv, rel=1e-5)
                if s != best:
                    newton = fit.curv if fit.curv > 0.0 else fit.h
                    assert fit.step == pytest.approx(-g / newton, rel=1e-5)

    def test_gauss_newton_fallback_where_curvature_is_negative(self):
        """At its 1/e crossing the reduced cost of this outlier trace is
        concave; the step from there is Gauss-Newton's, and the fit still
        lands on the reference optimum."""
        trace, loss = next(campaign_traces(1))
        x, y, wt = unit_weight_problem(trace)
        s = math.log(_initial_guess(x, y))
        fit = project(x, y, wt, s)
        g, curv = cost_derivatives(x, y, wt, s)
        assert fit.curv < 0.0 and curv < 0.0
        assert fit.step == pytest.approx(-g / fit.h, rel=1e-5)
        t1, _ = reference_fit(trace, loss)
        assert fit_exponential(trace, loss=loss).t1_us == pytest.approx(
            t1, rel=1e-6)

    def test_projection_count_stays_at_newton_convergence(self, monkeypatch):
        """The 50 campaign traces take 199 projections with Newton steps
        from the integral-equation start (287 from the 1/e crossing, 380
        with Gauss-Newton steps); a slide back to linear convergence or to
        the old start pushes the count past 10 % above that.  Every fit
        projects at least once, so a fit that bypasses the counted
        ``_project`` cannot pass."""
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return _project(*args)

        monkeypatch.setattr(qubitfit, "_project", counted)
        for trace, loss in campaign_traces(50):
            before = calls
            fit_exponential(trace, loss=loss)
            assert calls > before
        assert calls < 1.1 * 199


    def test_search_stops_on_a_decrease_within_rounding(self, monkeypatch):
        """Campaign trace 45 ends on a Newton step in ln T1 between 1e-9 and
        1e-8, whose predicted decrease g^2/curv lies below the cost's
        rounding.  The halving search spent 3 more projections refusing its
        trials (5 in all); the stop on the predicted decrease takes 2, at
        the reference T1."""
        trace, loss = list(campaign_traces(46))[45]
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return _project(*args)

        monkeypatch.setattr(qubitfit, "_project", counted)
        t1 = fit_exponential(trace, loss=loss).t1_us
        assert calls == 2
        assert t1 == pytest.approx(reference_fit(trace, loss)[0], rel=1e-6)


class TestIntegralStart:
    def test_start_lies_near_the_optimum(self):
        """On every linear campaign trace the integral-equation start lies
        within 0.05 of the converged ln T1 (the 1/e crossing lies up to
        0.19 off), and it is -ln c2 of the same regression by ``lstsq``."""
        checked = 0
        for trace, loss in campaign_traces(50):
            if loss != "linear":
                continue
            x, y, wt = unit_weight_problem(trace)
            s = _integral_start(x, y, _basis(x, y), wt[2], _T1_MIN_STEPS * x[1])
            span = trace.delays_us[-1] - trace.delays_us[0]
            best = math.log(fit_exponential(trace).t1_us / span)
            assert abs(s - best) < 0.05
            assert s == pytest.approx(
                -math.log(-trapezoid_regression_rate(x, y)), abs=1e-10)
            checked += 1
        assert checked == 42

    @pytest.mark.parametrize("loss", LOSSES)
    def test_growth_takes_the_fallback_and_fails_typed(self, loss):
        """An exponential growth regresses to c2 > 0: no decay, so the search
        starts from the 1/e crossing and, as from there before, fails as a
        T1 that runs off to infinity."""
        trace = DecayTrace(np.linspace(0.0, 100.0, 32),
                           np.exp(np.linspace(0.0, 100.0, 32) / 30.0))
        x, y, wt = unit_weight_problem(trace)
        assert trapezoid_regression_rate(x, y) > 0.0
        assert _integral_start(x, y, _basis(x, y), wt[2],
                               _T1_MIN_STEPS * x[1]) == math.log(
            _initial_guess(x, y))
        with pytest.raises(FitFailureError, match="runs off to infinity"):
            fit_exponential(trace, loss=loss)


class TestProjectionCost:
    def test_one_product_moments_match_two_products(self):
        """The moments of f and f^2 from one matrix product agree with two
        matrix-vector products to 1e-13 of the sums of their magnitudes, at
        the start, the optimum and 1 either side of it in ln T1, under unit
        and uneven weights; ``ndarray.dot`` gives them with the bits of
        ``@``."""
        worst = 0.0
        for i, (trace, _) in enumerate(campaign_traces(50)):
            x, y, unit = unit_weight_problem(trace)
            w = np.random.default_rng(i).uniform(0.1, 1.0, x.size)
            uneven = _weights(_basis(x, y), w)
            span = trace.delays_us[-1] - trace.delays_us[0]
            best = math.log(fit_exponential(trace).t1_us / span)
            for s in (math.log(_initial_guess(x, y)), best - 1.0, best,
                      best + 1.0):
                f = np.expm1(x * -math.exp(-s))
                ff = np.stack((f, f * f))
                for wt in (unit, uneven):
                    rows = wt[1].T
                    two = np.concatenate((rows @ f, rows @ (f * f)))
                    size = np.concatenate((np.abs(rows) @ np.abs(ff).T).T)
                    one = ff.dot(wt[1]).ravel()
                    np.testing.assert_array_equal(one, (ff @ wt[1]).ravel())
                    worst = max(worst, float(np.max(np.abs(one - two) / size)))
        assert worst < 1e-13

    def test_reweighted_projection_reuses_f(self):
        """A projection handed the f and f^2 of an earlier one at the same s
        equals a fresh one under the new weights, to the last bit."""
        for trace, loss in campaign_traces(50):
            if loss != "soft_l1":
                continue
            x, y, unit = unit_weight_problem(trace)
            s = math.log(_initial_guess(x, y))
            fit = project(x, y, unit, s)
            wt = _weights(_basis(x, y), 1.0 / np.hypot(1.0, fit.r))
            reused = project(x, y, wt, s, fit.ff)
            fresh = project(x, y, wt, s)
            assert reused.ff is fit.ff
            for name in ("cost", "step", "h", "curv", "a", "c"):
                assert getattr(reused, name) == getattr(fresh, name)
            np.testing.assert_array_equal(reused.ff, fresh.ff)
            np.testing.assert_array_equal(reused.r, fresh.r)

    def test_robust_fit_calls_expm1_once_per_trial_point(self, monkeypatch):
        """Every reweight projects again at an s whose f is known; only a
        new s evaluates the exponential, and each fit evaluates it through
        the counted ``np.expm1``."""
        expm1, trials, projections = np.expm1, set(), 0

        def counted_expm1(*args, **kwargs):
            nonlocal calls
            calls += 1
            return expm1(*args, **kwargs)

        def recorded(*args):
            nonlocal projections
            projections += 1
            trials.add(args[3])
            return _project(*args)

        monkeypatch.setattr(qubitfit, "_project", recorded)
        for trace, loss in campaign_traces(50):
            if loss != "soft_l1":
                continue
            calls, projections = 0, 0
            trials.clear()
            monkeypatch.setattr(np, "expm1", counted_expm1)
            fit_exponential(trace, loss=loss)
            monkeypatch.setattr(np, "expm1", expm1)
            assert 0 < calls <= len(trials) < projections


class TestT1Statistics:
    def test_reference_mean_and_std(self):
        """A symmetric pair reproducing the best device's published
        time-averaged T1 of 291.7 +/- 68.6 us."""
        estimates = [
            T1Estimate(223.1, 1.0, 1.0, 0.0),
            T1Estimate(360.3, 1.0, 1.0, 0.0),
        ]
        stats = t1_statistics(estimates)
        assert stats.mean_us == pytest.approx(291.7)
        assert stats.std_us == pytest.approx(68.6)

    def test_single_estimate_zero_std(self):
        stats = t1_statistics([T1Estimate(100.0, 1.0, 1.0, 0.0)])
        assert stats.std_us == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            t1_statistics([])

    def test_matches_two_pass_computation(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(50.0, 400.0, 37)
        stats = t1_statistics([T1Estimate(v, 1.0, 1.0, 0.0) for v in values])
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert stats.mean_us == pytest.approx(mean, rel=1e-12)
        assert stats.std_us == pytest.approx(math.sqrt(var), rel=1e-12)

    @given(st.permutations(list(range(10))))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, order):
        base = [50.0 + 10.0 * i for i in range(10)]
        shuffled = [base[i] for i in order]
        a = t1_statistics([T1Estimate(v, 1.0, 1.0, 0.0) for v in base])
        b = t1_statistics([T1Estimate(v, 1.0, 1.0, 0.0) for v in shuffled])
        assert a.mean_us == pytest.approx(b.mean_us, rel=1e-12)
        assert a.std_us == pytest.approx(b.std_us, rel=1e-12)

    @staticmethod
    @st.composite
    def t1_lists(draw):
        """Positive T1 lists with repeats and ulp neighbours of one value
        beside arbitrary floats over the whole positive range, from
        subnormal to the largest float, where numpy's std can overflow."""
        largest = np.finfo(float).max
        base = draw(st.floats(5e-324, largest))
        near = st.sampled_from([base, min(math.nextafter(base, math.inf), largest),
                                math.nextafter(base, 0.0) or base])
        return draw(st.lists(near | st.floats(5e-324, largest),
                             min_size=1, max_size=40))

    @given(values=t1_lists())
    @example(values=[100.0, 100.0])
    @example(values=[100.0, 150.0, 200.0, 250.0])
    @example(values=[100.0, math.nextafter(100.0, 200.0)])
    @example(values=[1e200, 3e200])
    @example(values=[6.038339879714466e+169, 6.038339879714468e+169])
    @example(values=[1e-300, 3e-300])
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_numpy(self, values):
        """Mean and std carry the bits of ``np.mean`` and ``np.std``
        wherever numpy's squared deviations are normal floats or exact
        zeros, except where numpy's mean leaves [min, max] or its std
        exceeds half that range, which are clamped to those bounds; where
        the squares overflow or underflow, both are finite and match the
        exact statistics to the rounding of a sum."""
        stats = t1_statistics([T1Estimate(v, 1.0, 1.0, 0.0) for v in values])
        a = np.array(values)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            mean, std = float(a.mean()), float(a.std())
            deviations = a - a.mean()
            squares = deviations * deviations
        assert type(stats.mean_us) is float and type(stats.std_us) is float
        if np.all((squares >= np.finfo(float).tiny) & np.isfinite(squares)
                  | (deviations == 0.0)):
            lo, hi = min(values), max(values)
            assert stats.mean_us.hex() == min(max(mean, lo), hi).hex()
            assert stats.std_us.hex() == min(std, (hi - lo) / 2).hex()
        else:
            exact_mean = statistics.mean(values)
            # a subnormal result holds its rounding to the float below it
            floor = math.ulp(0.0)
            assert stats.mean_us == pytest.approx(exact_mean, rel=1e-13, abs=floor)
            assert stats.std_us == pytest.approx(
                statistics.pstdev(values), rel=1e-13,
                abs=max(1e-13 * exact_mean, floor))

    def test_std_of_t1s_whose_squares_underflow(self):
        """Deviations of 1e-300 us, whose squares underflow in numpy, used
        to give a std of 0."""
        stats = t1_statistics([T1Estimate(v, 1.0, 1.0, 0.0)
                               for v in (1e-300, 3e-300)])
        assert stats.mean_us == pytest.approx(2e-300, rel=1e-12)
        assert stats.std_us == pytest.approx(1e-300, rel=1e-12)

    def test_non_finite_t1_rejected(self):
        with pytest.raises(InvalidInputError, match="finite"):
            t1_statistics([T1Estimate(v, 1.0, 1.0, 0.0)
                           for v in (100.0, math.inf)])

    @pytest.mark.parametrize("t1, fit_err, message", [
        ("1", 1.0, "t1 must be finite and > 0, got '1'"),
        (math.nan, 1.0, "t1 must be finite and > 0, got nan"),
        (0.0, 1.0, "t1 must be finite and > 0, got 0.0"),
        (1.0, None, "fit_err must be finite and >= 0, got None"),
        (1.0, math.nan, "fit_err must be finite and >= 0, got nan"),
    ], ids=["t1-str", "t1-nan", "t1-zero", "err-None", "err-nan"])
    def test_estimate_checks_its_own_numbers(self, t1, fit_err, message):
        """A str T1 used to end in the raw TypeError of the comparison, and
        a NaN T1 was accepted."""
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            T1Estimate(t1, fit_err, 1.0, 0.0)

    def test_holds_only_mean_and_std(self):
        """The statistics are the mean and the population std; there is no
        histogram, median or bin count."""
        assert [f.name for f in fields(T1Statistics)] == ["mean_us", "std_us"]
        with pytest.raises(TypeError, match="bins"):
            t1_statistics([T1Estimate(100.0, 1.0, 1.0, 0.0)], bins=12)

    def test_overflowing_spread_is_finite_without_warning(self):
        """numpy squares deviations of 1e200 to inf; the scaled std does not
        overflow and raises no RuntimeWarning."""
        values = [1e200, 3e200]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = t1_statistics([T1Estimate(v, 1.0, 1.0, 0.0) for v in values])
        assert stats.mean_us == pytest.approx(statistics.mean(values), rel=1e-15)
        assert stats.std_us == pytest.approx(statistics.pstdev(values), rel=1e-15)

    @pytest.mark.parametrize("value", [1e-300, 100.0, 1e20, np.finfo(float).max])
    def test_equal_values_have_zero_spread(self, value):
        """Four equal T1s give that T1 and std 0 across the float range,
        including the largest float, whose sum numpy overflows."""
        stats = t1_statistics([T1Estimate(value, 1.0, 1.0, 0.0)] * 4)
        assert stats.mean_us == value
        assert stats.std_us == 0.0


#: The rule of each Purcell parameter, in rad/s.
PURCELL_RULES = {"kappa": "finite and > 0", "delta": "finite and != 0",
                 "g": "finite and >= 0", "chi": "finite"}


class TestPurcellLimit:
    def test_reference_coupling_triple(self):
        """g = 2pi*37.3 MHz, delta = 2pi*2.03 GHz and kappa = 2pi*52.4 kHz
        reproduce the tabulated 9.0 ms Purcell limit."""
        params = PurcellParams.from_cyclic(delta_ghz=2.03, kappa_khz=52.4,
                                           g_mhz=37.3)
        assert purcell_limit(params) == pytest.approx(9.0e-3, rel=0.01)

    def test_g_derived_from_dispersive_shift(self):
        params = PurcellParams.from_cyclic(delta_ghz=2.03, kappa_khz=52.4,
                                           chi_mhz=0.685)
        g_mhz = params.g_effective / (2 * math.pi * 1e6)
        assert g_mhz == pytest.approx(37.3, rel=2e-3)

    def test_delta_inferred_from_g_and_chi(self):
        params = PurcellParams.from_cyclic(kappa_khz=52.4, g_mhz=37.3,
                                           chi_mhz=0.685)
        delta_ghz = params.delta_effective / (2 * math.pi * 1e9)
        assert delta_ghz == pytest.approx(2.031, rel=1e-3)
        assert purcell_limit(params) == pytest.approx(9.0e-3, rel=0.01)

    @pytest.mark.parametrize("g, chi", [(1e160, 1e200), (1e-160, 1e-300),
                                        (3e7, 1e6), (1e-200, -1.0),
                                        (234362811.95779857, 4303981.935418017)])
    def test_delta_is_g_squared_over_chi_rounded_once(self, g, chi):
        """Also where g^2 overflows or is subnormal but the quotient is a
        float."""
        params = PurcellParams(kappa=1.0, g=g, chi=chi)
        assert params.delta_effective == float(Fraction(g) ** 2 / Fraction(chi))

    @pytest.mark.parametrize("cyclic, limit_s", [
        # the README's example
        ({"kappa_khz": 52.4, "delta_ghz": 2.03, "g_mhz": 37.3}, 0.008996286067800981),
        ({"kappa_khz": 60.0, "delta_ghz": 1.5, "chi_mhz": 0.5}, 0.007957747154594769),
    ], ids=["g-delta", "chi-delta"])
    def test_limit_is_exact_and_rounded_once(self, cyclic, limit_s):
        """Inside the normal range too: the float quotient of the rounded
        terms read 0.00899628606780098 and 0.007957747154594767 s."""
        assert purcell_limit(PurcellParams.from_cyclic(**cyclic)) == limit_s

    @pytest.mark.parametrize("g, chi", [(1e200, 1e-200), (Fraction(10**200), 1.0)],
                             ids=["float", "Fraction"])
    def test_delta_beyond_the_float_range_is_refused(self, g, chi):
        """A Fraction g used to be stored as given, and the message's
        ``:.3g`` of it ended in a raw TypeError."""
        with pytest.raises(InvalidInputError, match="it exceeds the float range"):
            purcell_limit(PurcellParams(kappa=1.0, g=g, chi=chi))

    @given(pair=st.sampled_from(["g-delta", "chi-delta", "g-chi"]),
           g=st.just(0.0) | positive_floats, chi=nonzero_floats,
           delta=nonzero_floats, kappa=positive_floats)
    # the unbounded edge: exactly 1e6 s, an ulp of kappa above and below it
    @example(pair="g-delta", g=1.0, chi=1.0, delta=1e3, kappa=1.0)
    @example(pair="g-delta", g=1.0, chi=1.0, delta=1e3,
             kappa=math.nextafter(1.0, 0.0))
    @example(pair="g-delta", g=1.0, chi=1.0, delta=1e3,
             kappa=math.nextafter(1.0, 2.0))
    @example(pair="chi-delta", g=1.0, chi=-1.0, delta=-1e6, kappa=1.0)
    @example(pair="g-chi", g=1e3, chi=1.0, delta=1.0, kappa=1.0)
    # delta = g^2 / chi beyond the float range, and a limit below it
    @example(pair="g-chi", g=1e200, chi=1e-200, delta=1.0, kappa=1.0)
    @example(pair="g-delta", g=1e200, chi=1.0, delta=1e-200, kappa=1e10)
    @example(pair="chi-delta", g=1.0, chi=1e300, delta=5e-324, kappa=1e10)
    # g^2 overflows or is subnormal while the quotient is a float
    @example(pair="g-chi", g=1e160, chi=1e200, delta=1.0, kappa=1.0)
    @example(pair="g-chi", g=1e-160, chi=-1e-300, delta=1.0, kappa=1.0)
    # zero coupling: no limit, and a delta of +0.0 whatever the sign of chi
    @example(pair="g-chi", g=0.0, chi=-1.0, delta=1.0, kappa=1.0)
    @example(pair="g-delta", g=0.0, chi=1.0, delta=1.0, kappa=1.0)
    @settings(max_examples=1000, deadline=None)
    @pytest.mark.filterwarnings("ignore:.*dispersive Purcell estimate")
    def test_limit_and_delta_are_the_exact_quotients_rounded_once(
            self, pair, g, chi, delta, kappa):
        """For each pair of (g, chi, delta), ``delta_effective`` and
        ``purcell_limit`` carry the bits of the exact quotient of the given
        floats rounded once, as ``float(Fraction)`` rounds it; a limit above
        ``UNBOUNDED_PURCELL_S`` or at zero coupling is inf, and a delta above
        the float range or a limit below it is refused."""
        if pair == "chi-delta":  # the dispersive relation needs one sign
            g, delta = None, math.copysign(delta, chi)
        elif pair == "g-chi":
            delta = None
        else:
            chi = None
        params = PurcellParams(kappa=kappa, delta=delta, g=g, chi=chi)
        g2 = Fraction(chi) * Fraction(delta) if g is None else Fraction(g) ** 2
        exact_delta = g2 / Fraction(chi) if delta is None else Fraction(delta)
        try:
            expected_delta = float(exact_delta)
        except OverflowError:
            for call in (lambda: params.delta_effective, lambda: purcell_limit(params)):
                with pytest.raises(InvalidInputError, match=(
                        r"^cannot infer delta = g\^2 / chi: it exceeds the float range")):
                    call()
            return
        assert params.delta_effective.hex() == expected_delta.hex()
        if g2 == 0:
            assert purcell_limit(params) == math.inf
            return
        exact = exact_delta**2 / (g2 * Fraction(kappa))
        if exact > UNBOUNDED_PURCELL_S:
            assert purcell_limit(params) == math.inf
        elif float(exact) == 0.0:
            with pytest.raises(InvalidInputError, match=(
                    r"^the Purcell limit delta\^2 / \(g\^2 kappa\) lies below "
                    r"the float range")):
                purcell_limit(params)
        else:
            assert purcell_limit(params).hex() == float(exact).hex()

    def test_zero_coupling_unbounded(self):
        params = PurcellParams.from_cyclic(delta_ghz=2.0, kappa_khz=50.0, g_mhz=0.0)
        assert purcell_limit(params) == math.inf

    def test_dispersive_warning(self):
        params = PurcellParams.from_cyclic(delta_ghz=2.0, kappa_khz=50.0,
                                           g_mhz=500.0)
        with pytest.warns(UserWarning, match="dispersive"):
            purcell_limit(params)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidInputError):
            PurcellParams.from_cyclic(delta_ghz=0.0, kappa_khz=50.0, g_mhz=30.0)
        with pytest.raises(InvalidInputError):
            PurcellParams.from_cyclic(delta_ghz=2.0, kappa_khz=0.0, g_mhz=30.0)
        with pytest.raises(InvalidInputError):
            PurcellParams.from_cyclic(delta_ghz=2.0, kappa_khz=50.0)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400, 10**5000],
        ids=["nan", "inf", "-inf", "int1e400", "int1e5000"])
    @pytest.mark.parametrize("field", ["kappa", "delta", "g", "chi"])
    def test_non_finite_parameter_rejected(self, field, value):
        """NaN passes every comparison; it used to give a Purcell limit of
        nan, an infinite kappa one of 0, an int beyond the float range an
        OverflowError, and one of more than 4300 digits the message's
        int-to-str conversion ValueError."""
        given = {"kappa": 2e5, "delta": 1e10, "g": 2e8, "chi": 4e6, field: value}
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{field} (rad/s) must be {PURCELL_RULES[field]}, got {shown(value)}")):
            PurcellParams(**given)

    @pytest.mark.parametrize("field, value", [
        ("kappa", "1"), ("kappa", None), ("delta", "1"), ("g", "1"),
        ("chi", "1"), ("kappa", True), ("g", True)])
    def test_non_number_rejected(self, field, value):
        """A str, or None for the required kappa, used to end in the raw
        TypeError of the finiteness test; None is how the other three are
        left out.  True was read as 1 rad/s."""
        given = {"kappa": 2e5, "delta": 1e10, "g": 2e8, "chi": 4e6, field: value}
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{field} (rad/s) must be {PURCELL_RULES[field]}, got {value!r}")):
            PurcellParams(**given)

    @pytest.mark.parametrize("given, message", [
        ({"kappa_khz": 1e306, "delta_ghz": 2.0, "g_mhz": 30.0},
         "kappa must be finite in kHz and in rad/s, got 1e+306"),
        ({"kappa_khz": 50.0, "delta_ghz": 1e300, "g_mhz": 30.0},
         "delta must be finite in GHz and in rad/s, got 1e+300"),
        ({"kappa_khz": 50.0, "delta_ghz": 2.0, "g_mhz": 1e304},
         "g must be finite in MHz and in rad/s, got 1e+304"),
        ({"kappa_khz": 50.0, "delta_ghz": 2.0, "chi_mhz": 1e304},
         "chi must be finite in MHz and in rad/s, got 1e+304"),
    ], ids=["kappa", "delta", "g", "chi"])
    def test_cyclic_value_beyond_the_float_range_in_rad_s_is_shown_as_given(
            self, given, message):
        """2 pi times the value in rad/s overflows; the refusal used to name
        inf, the product, and not the value given."""
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            PurcellParams.from_cyclic(**given)

    def test_largest_cyclic_value_finite_in_rad_s_is_taken(self):
        """2.8e298 GHz is 1.76e308 rad/s, just below the float maximum."""
        params = PurcellParams.from_cyclic(kappa_khz=50.0, delta_ghz=2.8e298,
                                           g_mhz=30.0)
        assert params.delta == 2.0 * math.pi * 2.8e298 * 1e9


#: A T1 and a Purcell limit one ulp above it, whose rates 1/T round to the
#: same float.
ULP_T1_US = 6369.979911527222
ULP_T_PURCELL_MS = math.nextafter(ULP_T1_US, math.inf) / 1e3


class TestPurcellSubtraction:
    def test_rates_that_round_to_equal_are_inconsistent(self):
        """T_Purcell exceeds T1, but not by enough to leave a rate between
        them; the subtraction used to divide by zero."""
        assert ULP_T_PURCELL_MS * 1e3 > ULP_T1_US
        assert 1.0 / ULP_T1_US == 1.0 / (ULP_T_PURCELL_MS * 1e3)
        with pytest.raises(InvalidInputError, match="inconsistent inputs"):
            purcell_subtract_q(ULP_T1_US, ULP_T_PURCELL_MS, 4.5)

    def test_reference_row_d3_1(self):
        q = purcell_subtract_q(116.3, 9.3, 4.21)
        assert q == pytest.approx(3.12e6, rel=0.01)

    def test_reference_row_d9_2(self):
        q = purcell_subtract_q(236.0, 2.7, 4.70)
        assert q == pytest.approx(7.63e6, rel=0.01)

    def test_no_purcell_limit_is_plain_conversion(self):
        q = purcell_subtract_q(100.0, math.inf, 5.0)
        assert q == pytest.approx(2 * math.pi * 5e9 * 100e-6, rel=1e-15)

    def test_unphysical_inputs_rejected(self):
        with pytest.raises(InvalidInputError, match="exceed"):
            purcell_subtract_q(300.0, 0.2, 4.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: purcell_subtract_q(100.0, 10.0, "5"),
         "omega_q must be > 0 and finite, got '5'"),
        (lambda: purcell_subtract_q(100.0, 10.0, math.inf),
         "omega_q must be > 0 and finite, got inf"),
        (lambda: purcell_subtract_t1(100.0, "10"),
         "T_Purcell must be a finite number or inf, got '10'"),
        (lambda: purcell_subtract_t1(100.0, -math.inf),
         "T_Purcell must be a finite number or inf, got -inf"),
        (lambda: purcell_subtract_t1(100.0, Decimal("Infinity")),
         "T_Purcell must be a finite number or inf, got Decimal('Infinity')"),
        (lambda: purcell_subtract_t1("100", 10.0),
         "t1 must be a number or an array of numbers, got '100'"),
        (lambda: purcell_subtract_t1([100.0, None], 10.0),
         "t1 must be a number or an array of numbers, got [100.0, None]"),
        (lambda: purcell_subtract_t1(10**400, 10.0),
         "t1 must be a number or an array of numbers, got 1" + "0" * 400),
        (lambda: purcell_subtract_t1([1.0, [2.0]], 10.0),
         "t1 must be a number or an array of numbers, got [1.0, [2.0]]"),
        (lambda: purcell_subtract_t1([True, 120.0], 5.0),
         "t1 must be a number or an array of numbers, got [True, 120.0]"),
    ], ids=["omega-str", "omega-inf", "purcell-str", "purcell--inf",
            "purcell-decimal-inf", "t1-str", "t1-None", "t1-int1e400",
            "t1-ragged", "t1-bool-in-list"])
    def test_non_number_argument_fails_typed(self, call, message):
        """A str qubit frequency or Purcell limit used to end in a raw
        TypeError, a str T1 was converted by numpy, a T1 beyond the float
        range or a ragged list ended in numpy's own error, and numpy read
        True in a list of floats as a T1 of 1 us."""
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            call()

    def test_subnormal_t1_is_refused(self):
        """1/T1 of a subnormal T1 used to overflow, with a RuntimeWarning, to
        a rate of inf and an intrinsic T1 of 0."""
        with pytest.raises(InvalidInputError, match=(
                r"1/T1 or 1 / \(1/T1 - 1/T_Purcell\) exceeds the float range "
                r"at T1 = 2.99997e-320 us")):
            purcell_subtract_t1(3e-320, 1.0)

    @given(
        t1=st.floats(min_value=1.0, max_value=1e4),
        ratio=st.floats(min_value=1.5, max_value=1e4),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, t1, ratio):
        """Re-adding the Purcell channel to the subtracted T1 recovers the
        measured rate."""
        t_purcell_ms = t1 * ratio / 1e3
        t1_prime = purcell_subtract_t1(t1, t_purcell_ms)
        recovered = 1.0 / (1.0 / t1_prime + 1.0 / (t_purcell_ms * 1e3))
        assert recovered == pytest.approx(t1, rel=1e-12)


class TestQStatisticsFromRounds:
    def test_one_purcell_path_for_rounds_and_scalars(self):
        """The rounds go through :func:`purcell_subtract_q` as an array; a
        scalar still comes back as a Python float."""
        rounds = np.random.default_rng(7).uniform(50.0, 300.0, 9)
        qs = purcell_subtract_q(rounds, 4.7, 4.4)
        assert type(purcell_subtract_q(float(rounds[0]), 4.7, 4.4)) is float
        assert type(purcell_subtract_t1(float(rounds[0]), 4.7)) is float
        assert qs.tolist() == [purcell_subtract_q(float(r), 4.7, 4.4) for r in rounds]

    def test_per_round_matches_explicit_loop(self):
        rounds = [180.0, 200.0, 210.0, 190.0]
        mean, std = q_statistics_from_rounds(rounds, 10.0, 4.5)
        qs = [purcell_subtract_q(r, 10.0, 4.5) for r in rounds]
        assert mean == pytest.approx(np.mean(qs), rel=1e-12)
        assert std == pytest.approx(np.std(qs), rel=1e-12)

    def test_no_rounds_rejected(self):
        with pytest.raises(InvalidInputError, match="^need at least one round$"):
            q_statistics_from_rounds([], 1.0, 4.0)

    def test_identical_rounds_coincide(self):
        a, _ = q_statistics_from_rounds([150.0] * 5, 8.0, 4.2)
        b = purcell_subtract_q(150.0, 8.0, 4.2)
        assert a == pytest.approx(b, rel=1e-12)

    @given(t1=st.floats(min_value=1.0, max_value=1e4),
           ratio=st.floats(min_value=1.01, max_value=1e4),
           omega=st.floats(min_value=3.0, max_value=6.0))
    @settings(max_examples=100, deadline=None)
    def test_one_round_is_the_per_round_q_to_the_bit(self, t1, ratio, omega):
        """The array pass performs the per-round operations in their order."""
        t_purcell_ms = t1 * ratio / 1e3
        assert q_statistics_from_rounds([t1], t_purcell_ms, omega) == (
            purcell_subtract_q(t1, t_purcell_ms, omega), 0.0)

    def test_campaign_rounds_match_the_per_round_loop_exactly(self):
        rounds = np.random.default_rng(4).uniform(50.0, 300.0, 18).tolist()
        qs = np.array([purcell_subtract_q(r, 4.7, 4.4) for r in rounds])
        assert q_statistics_from_rounds(rounds, 4.7, 4.4) == (
            float(qs.mean()), float(qs.std()))

    def test_spread_whose_square_leaves_the_float_range(self):
        """Qs near 1e200 used to give a std of inf with a RuntimeWarning."""
        assert q_statistics_from_rounds([3e195, 6e195], 1e300, 5.0) == (
            1.4137166941154068e+200, 4.712388980384689e+199)

    def test_q_whose_product_leaves_the_float_range_before_its_units_cancel(self):
        """omega_q T1' in Hz * us overflowed before the 1e-6 that brings it
        back to a float, so these rounds were refused."""
        assert q_statistics_from_rounds([1e300, 2e300], 1e300, 5.0) == (
            4.720257125941081e+304, 1.5755197349603075e+304)
        # exact power-of-two scaling: the bits of the Q of a smaller T1
        q = purcell_subtract_q(1e300, math.inf, 1.0)
        assert type(q) is float
        assert q == purcell_subtract_q(1e300 * 2.0**-128, math.inf, 1.0) * 2.0**128

    @pytest.mark.parametrize("rounds, t_purcell_ms, omega_q_ghz, message", [
        ([180.0, -5.0, 300.0], 0.25, 4.5, "t1 must be > 0"),
        ([180.0, 300.0, -5.0], 0.25, 4.5, "T1 = 300 us"),
        ([180.0, float("nan")], 0.25, 4.5,
         r"t1 must be a number or an array of numbers, got \[180\.0, nan\]"),
        ([180.0], 0.0, 4.5, "T_Purcell = 0 ms"),
        ([180.0], 0.25, 0.0, "omega_q must be > 0"),
        ([180.0, ULP_T1_US], ULP_T_PURCELL_MS, 4.5, "inconsistent"),
        ([3e-320, 6e-320], 1.0, 5.0, r"1/T1 or .* exceeds the float range at "
         r"T1 = 2.99997e-320 us"),
        ([1e300, 1e308], math.inf, 5.0, r"Q = omega_q T1' is not a positive finite "
         r"float at T1 = 1e\+308 us"),
        (["100", 120.0], 0.25, 4.5, r"t1 must be a number or an array of numbers"),
        ([10**400], 0.25, 4.5, r"t1 must be a number or an array of numbers"),
    ])
    def test_first_offending_round_raises_its_own_error(
            self, rounds, t_purcell_ms, omega_q_ghz, message):
        """The checks and messages of the per-round conversion, raised for
        the first round that fails them."""
        with pytest.raises(InvalidInputError, match=message):
            q_statistics_from_rounds(rounds, t_purcell_ms, omega_q_ghz)


    @given(rounds=st.lists(st.floats(1.0, 1e4) | finite_floats, min_size=1,
                           max_size=12),
           t_purcell_ms=st.floats(0.01, 1e3) | st.floats(),
           omega_q_ghz=st.floats(3.0, 6.0) | st.floats())
    @example(rounds=[180.0, ULP_T1_US], t_purcell_ms=ULP_T_PURCELL_MS,
             omega_q_ghz=4.5)
    @example(rounds=[1e300, 1e308], t_purcell_ms=math.inf, omega_q_ghz=5.0)
    @example(rounds=[3e-320, 6e-320], t_purcell_ms=1.0, omega_q_ghz=5.0)
    @settings(max_examples=500, deadline=None)
    def test_statistics_are_mean_std_of_the_subtracted_q(
            self, rounds, t_purcell_ms, omega_q_ghz):
        """``q_statistics_from_rounds`` is ``_mean_std`` of
        ``purcell_subtract_q`` to the bit; where a round or parameter is
        bad, both refuse the first with the same typed error text."""
        try:
            expected = _mean_std(purcell_subtract_q(rounds, t_purcell_ms, omega_q_ghz))
        except InvalidInputError as exc:
            with pytest.raises(type(exc)) as raised:
                q_statistics_from_rounds(rounds, t_purcell_ms, omega_q_ghz)
            assert str(raised.value) == str(exc)
            return
        got = q_statistics_from_rounds(rounds, t_purcell_ms, omega_q_ghz)
        assert [v.hex() for v in got] == [v.hex() for v in expected]


def assert_one_rule(values, mean, std):
    """The mean lies in [min, max] and the std in [0, (max - min) / 2],
    both finite; wherever numpy's own mean and std raise no floating-point
    error, they are numpy's bits, clamped to those bounds (numpy's mean of
    values an ulp apart can round past them, and its std exceed them)."""
    lo, hi = min(values), max(values)
    assert isinstance(mean, float) and isinstance(std, float)
    assert lo <= mean <= hi and math.isfinite(mean)
    assert 0.0 <= std <= (hi - lo) / 2 and math.isfinite(std)
    a = np.array(values)
    try:
        with np.errstate(all="raise"):
            np_mean, np_std = float(a.mean()), float(a.std())
    except FloatingPointError:
        return
    assert mean.hex() == min(max(np_mean, lo), hi).hex()
    assert std.hex() == min(np_std, (hi - lo) / 2).hex()


class TestOneRule:
    """T1 over rounds, Q over rounds and Q over the devices of a group take
    their mean and spread by one rule."""

    @given(values=TestT1Statistics.t1_lists(),
           omega_q_ghz=st.floats(1e-12, 10.0))
    @example(values=[1.0, 1.0000000000000002], omega_q_ghz=4.5)
    @example(values=[1.5719613796111554e+16, 1.5719613796111556e+16,
                     1.5719613796111556e+16], omega_q_ghz=4.5)
    @example(values=[1.7e308, 1.7e308], omega_q_ghz=4.5)
    @example(values=[3e195, 6e195], omega_q_ghz=4.5)
    @example(values=[3e-320, 6e-320], omega_q_ghz=4.5)
    @settings(max_examples=200, deadline=None)
    def test_every_level_keeps_the_bounds_and_numpys_bits(self, values,
                                                          omega_q_ghz):
        """Positive finite lists of 1-40 values, subnormals and the float
        maximum included.  Q over rounds is refused exactly where a round's
        own Q is, and otherwise holds to the rule over the per-round Qs."""
        stats = t1_statistics([T1Estimate(v, 1.0, 1.0, 0.0) for v in values])
        assert_one_rule(values, stats.mean_us, stats.std_us)

        try:
            qs = [purcell_subtract_q(v, math.inf, omega_q_ghz) for v in values]
        except InvalidInputError:
            with pytest.raises(InvalidInputError):
                q_statistics_from_rounds(values, math.inf, omega_q_ghz)
        else:
            assert_one_rule(qs, *q_statistics_from_rounds(
                values, math.inf, omega_q_ghz))

        group = [DeviceRecord(
            device_id=f"D1-{i}", geometry="dumbbell_2d", omega_q_ghz=4.0,
            omega_c_ghz=6.0, g_mhz=40.0, t1_mean_us=100.0, t1_std_us=None,
            t_purcell_ms=10.0, q_mean=v, q_std=None, p_sm=1e-4, p_j=1e-5)
            for i, v in enumerate(values)]
        (point,) = group_for_fit(group, mode="per_die_design")
        assert point.n_devices == len(values)
        assert_one_rule(values, point.q_mean, point.q_std)


class TestTraceIO:
    def test_round_trip(self, tmp_path):
        trace = make_trace(noise=0.01, seed=9)
        csv_path = tmp_path / "trace.csv"
        with open(csv_path, "w") as fh:
            fh.write("delay_us,population\n")
            for t, y in zip(trace.delays_us, trace.populations):
                fh.write(f"{t:.9g},{y:.9g}\n")
        meta_path = tmp_path / "trace.json"
        meta_path.write_text('{"device": "synthetic"}')
        loaded = load_decay_trace(csv_path, meta_path)
        assert loaded.meta["device"] == "synthetic"
        assert np.allclose(loaded.populations, trace.populations, rtol=1e-8)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInputError, match="delay_us"):
            load_decay_trace(path)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("delay_us,population\n1.0,oops\n")
        with pytest.raises(InvalidInputError, match="row 2"):
            load_decay_trace(path)

    def test_non_utf8_trace(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"delay_us,population\n1.0,0.9\xff\n")
        with pytest.raises(InvalidInputError, match="not UTF-8"):
            load_decay_trace(path)

    def test_malformed_metadata(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("delay_us,population\n" + "\n".join(
            f"{t},{math.exp(-t / 50.0)}" for t in range(0, 100, 10)))
        meta = tmp_path / "trace.json"
        meta.write_text('{"device": ')
        with pytest.raises(InvalidInputError, match="bad metadata"):
            load_decay_trace(path, meta)

    def test_report_dict(self):
        trace = make_trace()
        estimate = fit_exponential(trace)
        report = t1_report_dict(estimate, trace)
        assert report["n_points"] == 32
        assert report["t1_us"] == pytest.approx(T1_REF, rel=1e-9)
