import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsurfloss import (
    DecayTrace,
    FitFailureError,
    InvalidInputError,
    PurcellParams,
    T1Estimate,
    fit_exponential,
    load_decay_trace,
    purcell_limit,
    purcell_subtract_q,
    purcell_subtract_t1,
    q_statistics_from_rounds,
    t1_statistics,
)
from qsurfloss.qubitfit import LOSSES, t1_report_dict, write_histogram_csv

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


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


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


class TestDecayTraceValidation:
    def test_too_short(self):
        with pytest.raises(InvalidInputError, match="8 samples"):
            DecayTrace(np.arange(4.0), np.ones(4))

    def test_non_increasing_delays(self):
        t = np.arange(10.0)
        t[5] = t[4]
        with pytest.raises(InvalidInputError, match="increasing"):
            DecayTrace(t, np.ones(10))

    def test_non_finite_delay(self):
        t = np.arange(10.0)
        t[-1] = np.inf
        with pytest.raises(InvalidInputError, match="delays must be finite"):
            DecayTrace(t, np.ones(10))

    def test_non_finite_population(self):
        y = np.ones(10)
        y[3] = np.nan
        with pytest.raises(InvalidInputError, match="finite"):
            DecayTrace(np.arange(10.0), y)


class TestFitExponential:
    def test_noiseless_recovery(self):
        estimate = fit_exponential(make_trace())
        assert abs(estimate.t1_us - T1_REF) / T1_REF < 1e-9
        assert estimate.amplitude == pytest.approx(1.0, abs=1e-9)
        assert estimate.offset == pytest.approx(0.0, abs=1e-9)

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

    @given(trace=arbitrary_traces(), loss=st.sampled_from(LOSSES))
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
        assert np.array_equal(a.hist_counts, b.hist_counts)

    def test_histogram_default_bins(self):
        values = np.linspace(100, 200, 30)
        stats = t1_statistics([T1Estimate(v, 1.0, 1.0, 0.0) for v in values])
        assert stats.hist_counts.size == 12
        assert stats.hist_counts.sum() == 30

    def test_histogram_csv(self, tmp_path):
        stats = t1_statistics(
            [T1Estimate(v, 1.0, 1.0, 0.0) for v in (100.0, 150.0, 200.0)]
        )
        path = tmp_path / "hist.csv"
        write_histogram_csv(stats, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_left_us,count"
        assert len(lines) == 13


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

    def test_chi_inferred_from_g_and_delta(self):
        params = PurcellParams.from_cyclic(delta_ghz=2.03, kappa_khz=52.4,
                                           g_mhz=37.3)
        chi_mhz = params.chi_effective / (2 * math.pi * 1e6)
        assert chi_mhz == pytest.approx(0.685, rel=2e-3)

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


class TestPurcellSubtraction:
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
    def test_per_round_matches_explicit_loop(self):
        rounds = [180.0, 200.0, 210.0, 190.0]
        mean, std = q_statistics_from_rounds(rounds, 10.0, 4.5)
        qs = [purcell_subtract_q(r, 10.0, 4.5) for r in rounds]
        assert mean == pytest.approx(np.mean(qs), rel=1e-12)
        assert std == pytest.approx(np.std(qs), rel=1e-12)

    def test_mean_t1_variant(self):
        rounds = [180.0, 200.0, 210.0, 190.0]
        mean, _ = q_statistics_from_rounds(rounds, 10.0, 4.5, per_round=False)
        assert mean == pytest.approx(
            purcell_subtract_q(float(np.mean(rounds)), 10.0, 4.5), rel=1e-12
        )

    def test_identical_rounds_coincide(self):
        a, _ = q_statistics_from_rounds([150.0] * 5, 8.0, 4.2)
        b = purcell_subtract_q(150.0, 8.0, 4.2)
        assert a == pytest.approx(b, rel=1e-12)


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
