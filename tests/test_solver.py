from dataclasses import replace

import numpy as np
import pytest
import scipy.constants

from qsurfloss import (
    DEFAULT_SM_SPEC,
    ConvergenceError,
    CrossSection,
    InterfaceRegion,
    InterfaceSpec,
    InvalidInputError,
    Strip,
    participation_set,
    reconstruct_gap_voltage,
    refine_until_converged,
    solution_to_csv,
    solve_cross_section,
)
from qsurfloss import solver
from qsurfloss.solver import _surface_samples, epsilon_0

from conftest import cps_capacitance


def field_energy_quadrature(sol, n_x=700, n_y=360, span_factor=25.0):
    """Total electric energy per unit length from a 2D field quadrature.

    In units z = (x + iy - c)/h of a strip, each coefficient's field is
    closed form: E_x - i E_y = a_n w^n / (2 eps_bar sqrt(z^2 - 1)) with
    w = z - sqrt(z^2 - 1), from the Chebyshev Cauchy integral
    int T_n(s) / (sqrt(1 - s^2) (z - s)) ds = pi w^n / sqrt(z^2 - 1).  The
    energy density is integrated over the upper half-plane on a graded tensor
    grid; by the up-down symmetry of the interface problem this equals the
    energy in both half-spaces when weighted with ``eps_bar``.  Serves as the
    independent oracle for ``energy_per_len``; expect agreement at the
    percent level.
    """
    lo = sol.strips[0].x_start * 1e-6
    hi = sol.strips[-1].x_end * 1e-6
    span = hi - lo
    far = span_factor * span

    x_core = np.linspace(lo - 0.5 * span, hi + 0.5 * span, n_x)
    x_wing = np.geomspace(span / n_x, far, n_x // 3)
    xs = np.unique(np.concatenate([x_core, lo - 0.5 * span - x_wing, hi + 0.5 * span + x_wing]))
    ys = np.geomspace(span * 1e-5, far, n_y)

    X, Y = np.meshgrid(xs, ys, indexing="ij")
    field = np.zeros(X.shape, dtype=complex)
    for strip, coefficients in zip(sol.strips, sol.coefficients):
        half = 0.5e-6 * strip.width
        z = (X + 1j * Y - (strip.x_start * 1e-6 + half)) / half
        root = np.sqrt(z - 1.0) * np.sqrt(z + 1.0)  # ~z at infinity, cut on [-1, 1]
        w = 1.0 / (z + root)
        series = np.zeros_like(z)
        for a in coefficients[::-1]:
            series = series * w + a
        field += series / root
    density = np.abs(field / (2.0 * sol.eps_bar)) ** 2
    return float(sol.eps_bar * np.trapezoid(np.trapezoid(density, ys, axis=1), xs))


def charge_density(sol):
    """sigma at the Chebyshev points of every strip, shape (strips, M)."""
    return _surface_samples(sol)[1]


class TestOracleAgreement:
    def test_capacitance_matches_conformal_mapping(self, two_strip_sol):
        """Two equal coplanar strips against the elliptic-integral formula."""
        oracle = cps_capacitance(10.0, 10.0, 10.15)
        assert two_strip_sol.capacitance_per_len == pytest.approx(oracle, rel=5e-3)

    def test_asymmetric_gap_still_close(self):
        geom = CrossSection(
            [Strip(0.0, 5.0, 0.5), Strip(7.0, 5.0, -0.5)], discretization=16
        )
        sol = solve_cross_section(geom)
        oracle = cps_capacitance(5.0, 2.0, 10.15)
        assert sol.capacitance_per_len == pytest.approx(oracle, rel=5e-3)

    def test_energy_equals_half_c_v_squared(self, two_strip_sol):
        c = two_strip_sol.capacitance_per_len
        assert two_strip_sol.energy_per_len == pytest.approx(0.5 * c * 1.0**2)


class TestInvariants:
    def test_scale_invariance(self, two_strip_geom, two_strip_sol):
        """2D capacitance is unchanged under uniform lateral scaling."""
        doubled = solve_cross_section(two_strip_geom.scaled(2.0))
        assert doubled.capacitance_per_len == pytest.approx(
            two_strip_sol.capacitance_per_len, rel=1e-9
        )

    def test_superposition(self, two_strip_geom):
        v1 = [0.5, -0.5]
        v2 = [0.3, 0.1]
        a, b = 1.7, -0.4
        sol1 = solve_cross_section(two_strip_geom.with_potentials(v1))
        sol2 = solve_cross_section(two_strip_geom.with_potentials(v2))
        combo = solve_cross_section(
            two_strip_geom.with_potentials(
                [a * x + b * y for x, y in zip(v1, v2)]
            )
        )
        expected = a * charge_density(sol1) + b * charge_density(sol2)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(charge_density(combo) - expected)) / scale < 1e-9

    def test_mirror_antisymmetry(self, two_strip_sol):
        """Antisymmetric drive on a mirror-symmetric pair gives
        mirror-antisymmetric charge."""
        left, right = charge_density(two_strip_sol)
        scale = np.max(np.abs(left))
        assert np.max(np.abs(left + right[::-1])) / scale < 1e-9

    def test_potential_swap_negates_charge(self, two_strip_geom, two_strip_sol):
        swapped = solve_cross_section(two_strip_geom.with_potentials([-0.5, 0.5]))
        assert swapped.energy_per_len == pytest.approx(
            two_strip_sol.energy_per_len, rel=1e-12
        )
        assert np.allclose(
            charge_density(swapped), -charge_density(two_strip_sol), rtol=1e-9
        )

    def test_charge_neutrality(self, two_strip_sol):
        charges = two_strip_sol.strip_charges()
        assert abs(sum(charges)) / max(abs(q) for q in charges) < 1e-9

    def test_energy_consistency_against_field_quadrature(self, two_strip_sol):
        """1/2 sum(q V) against the 2D integral of the energy density."""
        u_field = field_energy_quadrature(two_strip_sol)
        assert u_field == pytest.approx(two_strip_sol.energy_per_len, rel=0.03)

    def test_gap_voltage_reconstruction(self, two_strip_sol):
        """Line integral of sampled E_par across the gap recovers the 1 V
        potential difference (and with it the energy)."""
        dv = reconstruct_gap_voltage(two_strip_sol, 0)
        assert abs(dv) == pytest.approx(1.0, rel=0.03)
        q_pos = two_strip_sol.strip_charges()[0]
        assert 0.5 * q_pos * abs(dv) == pytest.approx(
            two_strip_sol.energy_per_len, rel=0.03
        )

    def test_determinism(self, two_strip_geom):
        a = solve_cross_section(two_strip_geom)
        b = solve_cross_section(two_strip_geom)
        assert np.array_equal(charge_density(a), charge_density(b))


class TestErrors:
    def test_equal_potentials_rejected(self):
        geom = CrossSection([Strip(0, 10, 0.5), Strip(20, 10, 0.5)])
        with pytest.raises(InvalidInputError, match="degenerate"):
            solve_cross_section(geom)

    def test_single_strip_rejected(self):
        geom = CrossSection([Strip(0, 10, 0.5)])
        with pytest.raises(InvalidInputError):
            solve_cross_section(geom)


class TestRefinement:
    def test_converges_to_one_percent(self, two_strip_geom):
        geom = CrossSection(
            two_strip_geom.strips, eps_sub_rel=10.15, discretization=16
        )
        sol = refine_until_converged(geom, rel_tol=0.01)
        assert sol.estimated_rel_error is not None
        assert sol.estimated_rel_error < 0.01
        assert sol.refinement_levels == 1
        assert sol.elements_per_strip == 16

    def test_floor_start_climbs_one_doubling(self, two_strip_geom):
        """At the 8-term floor half of M0 would fall below it, so the
        ladder starts at M0 itself and returns twice it."""
        sol = refine_until_converged(replace(two_strip_geom, discretization=8),
                                     rel_tol=0.01)
        assert (sol.refinement_levels, sol.elements_per_strip) == (1, 16)
        assert sol.geometry.discretization == 16

    def test_odd_discretization_returns_at_least_it(self, two_strip_geom):
        sol = refine_until_converged(replace(two_strip_geom, discretization=17),
                                     rel_tol=0.01)
        assert sol.elements_per_strip == 18

    @pytest.mark.parametrize("n_strips", [3, 4, 5, 6])
    def test_asymmetric_section_matches_a_solve_at_twice_its_terms(self, n_strips):
        """A section checked against half its terms agrees with a direct
        solve at twice them: p_sm, p_sa, p_ma and energy within rel_tol."""
        rng = np.random.default_rng(n_strips)
        x, strips = 0.0, []
        for i in range(n_strips):
            width = float(rng.uniform(4.0, 12.0))
            strips.append(Strip(round(x, 4), round(width, 4), 1.0 if i % 2 else -0.5))
            x += width + float(rng.uniform(4.0, 12.0))
        geom = CrossSection(strips, discretization=32)
        rel_tol = 5.5e-5
        sol = refine_until_converged(geom, rel_tol=rel_tol)
        assert sol.elements_per_strip >= 32
        finer = solve_cross_section(
            replace(geom, discretization=2 * sol.elements_per_strip))
        specs = [InterfaceSpec(region) for region in InterfaceRegion]
        got, want = participation_set(sol, specs), participation_set(finer, specs)
        for name in ("p_sm", "p_sa", "p_ma"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=rel_tol)
        assert sol.energy_per_len == pytest.approx(finer.energy_per_len, rel=rel_tol)

    def test_zero_tolerance_rejected(self, two_strip_geom):
        with pytest.raises(InvalidInputError, match="rel_tol"):
            refine_until_converged(two_strip_geom, rel_tol=0.0)
        with pytest.raises(InvalidInputError, match="rel_tol"):
            refine_until_converged(two_strip_geom, rel_tol=0.5)

    def test_already_converged_returns_after_one_doubling(self, two_strip_geom):
        sol = refine_until_converged(two_strip_geom, rel_tol=0.05)
        assert sol.refinement_levels == 1

    def test_budget_exhaustion_reports_energies(self):
        """w/g = 1000 is still off by 2.6e-3 in energy between 32 and 64
        terms per strip, so a budget that stops at 64 must raise instead of
        returning the unconverged solution."""
        geom = CrossSection([Strip(0.0, 10.0, 0.5), Strip(10.01, 10.0, -0.5)],
                            discretization=16)
        with pytest.raises(ConvergenceError, match="J/m"):
            refine_until_converged(geom, rel_tol=1e-4, max_total_elements=128)

    def test_budget_below_the_first_doubling_raises(self, two_strip_geom):
        """The ladder starts at 8 terms of the 16 asked for; a budget below
        the 2 x 16 terms of its second level stops it there."""
        with pytest.raises(ConvergenceError, match="last level 8 terms/strip"):
            refine_until_converged(two_strip_geom, rel_tol=0.05, max_total_elements=31)

    def test_zero_cutoff_converges_on_energy_alone(self, two_strip_geom):
        """The layer integrals diverge at a zero cutoff, so refinement
        follows the energy only."""
        geom = CrossSection(two_strip_geom.strips, edge_cutoff=0.0, discretization=8)
        sol = refine_until_converged(geom, rel_tol=1e-9)
        assert sol.refinement_levels == 1
        assert sol.capacitance_per_len == pytest.approx(
            cps_capacitance(10.0, 10.0, 10.15), rel=1e-10)

    def test_narrow_gap_converges(self):
        """w/g = 100 needs more terms but converges, to the conformal map."""
        geom = CrossSection([Strip(0.0, 10.0, 0.5), Strip(10.1, 10.0, -0.5)],
                            discretization=16, edge_cutoff=0.01)
        sol = refine_until_converged(geom, rel_tol=1e-6)
        assert sol.estimated_rel_error < 1e-6
        assert sol.elements_per_strip >= 64
        assert sol.capacitance_per_len == pytest.approx(
            cps_capacitance(10.0, 0.1, 10.15), rel=1e-9)
        assert reconstruct_gap_voltage(sol) == pytest.approx(1.0, rel=1e-9)


class TestCsvExport:
    def test_surface_samples_csv(self, two_strip_sol, tmp_path):
        path = tmp_path / "fields.csv"
        solution_to_csv(two_strip_sol, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:5] == [
            "x_um",
            "sigma_c_per_m2",
            "e_perp_sub_v_per_m",
            "e_perp_vac_v_per_m",
            "e_par_v_per_m",
        ]
        # two strips and one gap, 16 samples each
        assert len(lines) - 1 == 3 * 16
        # the one normal field of a strip fills both normal-field columns
        rows = [line.split(",") for line in lines[1:17]]
        e_perp = charge_density(two_strip_sol)[0] / (2.0 * two_strip_sol.eps_bar)
        assert [float(r[2]) for r in rows] == pytest.approx(e_perp, rel=1e-8)
        assert all(r[2] == r[3] for r in rows)


class TestSurfaceSampling:
    """A solve keeps only coefficients; the gap field is sampled where the
    CSV writes it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        original = solver.tangential_field

        def counting(*args, **kwargs):
            counted.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "tangential_field", counting)
        return counted

    def test_solve_samples_nothing(self, two_strip_geom, calls):
        solve_cross_section(two_strip_geom)
        assert calls == []

    def test_csv_samples_the_gaps_once(self, two_strip_sol, calls, tmp_path):
        solution_to_csv(two_strip_sol, tmp_path / "fields.csv")
        assert len(calls) == 1

    def test_refinement_at_zero_cutoff_samples_nothing(self, two_strip_geom, calls):
        """Without a cutoff the refinement follows the energy alone, so no
        gap integral is taken either."""
        refine_until_converged(replace(two_strip_geom, edge_cutoff=0.0), rel_tol=1e-6)
        assert calls == []


def test_vacuum_permittivity_literal():
    assert epsilon_0 == scipy.constants.epsilon_0


class TestChebyshevBasis:
    @pytest.mark.parametrize("width_um, gap_um, terms", [
        (10.0, 10.0, 8), (10.0, 10.0, 16), (5.0, 2.0, 16), (1.0, 7.0, 16),
    ])
    def test_coplanar_strips_match_the_conformal_map(self, width_um, gap_um, terms):
        """The edge-singular basis is exact for two strips up to the
        truncation of a fast-decaying series (at 8 terms w/g = 2.5 is still
        5e-10 off)."""
        geom = CrossSection([Strip(0.0, width_um, 0.5),
                             Strip(width_um + gap_um, width_um, -0.5)])
        sol = solve_cross_section(replace(geom, discretization=terms))
        assert sol.capacitance_per_len == pytest.approx(
            cps_capacitance(width_um, gap_um, 10.15), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("section", [
        CrossSection([Strip(0.0, 5.0, 1.0), Strip(7.0, 4.0, -1.0),
                      Strip(13.0, 6.0, 0.3), Strip(21.0, 5.0, 1.0)]),
        CrossSection([Strip(-20.0, 11.5, 0.5), Strip(-3.2, 4.1, -1.0),
                      Strip(8.9, 7.3, 0.0)], eps_sub_rel=11.7),
    ], ids=["four-strip", "three-strip-silicon"])
    def test_participations_converge_spectrally(self, section):
        """12 terms per strip agree with 64 to 1e-7 in every region
        (measured 7e-9 and 1.8e-8)."""
        specs = [replace(DEFAULT_SM_SPEC, region=r) for r in InterfaceRegion]
        coarse, fine = (participation_set(
            solve_cross_section(replace(section, discretization=m)), specs)
            for m in (12, 64))
        for region in InterfaceRegion:
            assert coarse[region] == pytest.approx(fine[region], rel=1e-7)

    def test_gap_voltage_is_the_drive(self):
        geom = CrossSection([Strip(0.0, 4.0, 1.0), Strip(6.0, 8.0, 0.0),
                             Strip(17.0, 5.0, -0.3)], discretization=32)
        sol = solve_cross_section(geom)
        volts = [reconstruct_gap_voltage(sol, i) for i in range(2)]
        assert volts == pytest.approx([1.0, 0.3], rel=1e-12)

    def test_gap_field_integrates_to_the_gap_voltage(self, two_strip_sol):
        """Gauss-Chebyshev quadrature of the sampled E_par, weighted back by
        sqrt(1 - t^2) against its end singularities."""
        gap_left, gap_right = two_strip_sol.gaps[0]
        _, _, gap_x, e_par = _surface_samples(two_strip_sol)
        half = 0.5 * (gap_right - gap_left)
        t = (gap_x[0] - gap_left) / half - 1.0
        integral = np.pi / t.size * half * np.sum(e_par[0] * np.sqrt(1.0 - t * t))
        assert integral == pytest.approx(reconstruct_gap_voltage(two_strip_sol),
                                         rel=1e-9)

    def test_samples_sit_at_chebyshev_points(self, two_strip_sol):
        m = two_strip_sol.elements_per_strip
        t = np.cos(np.pi * (m - 0.5 - np.arange(m)) / m)
        strip_x, _, gap_x, _ = _surface_samples(two_strip_sol)
        assert strip_x[1] == pytest.approx(25e-6 + 5e-6 * t, rel=1e-12)
        assert gap_x[0] == pytest.approx(15e-6 + 5e-6 * t, rel=1e-12)
        assert two_strip_sol.strip_charges()[1] == pytest.approx(
            0.5 * np.pi * 10e-6 * two_strip_sol.coefficients[1, 0], rel=1e-15)
