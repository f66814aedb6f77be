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
    interdigital_unit_cell,
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


def asymmetric_section(seed, n_strips, discretization, edge_cutoff=0.1):
    """Unequal strips and gaps of 4-12 um, driven alternately at -0.5 and
    +1 V."""
    rng = np.random.default_rng(seed)
    x, strips = 0.0, []
    for i in range(n_strips):
        width = float(rng.uniform(4.0, 12.0))
        strips.append(Strip(round(x, 4), round(width, 4), 1.0 if i % 2 else -0.5))
        x += width + float(rng.uniform(4.0, 12.0))
    return CrossSection(strips, discretization=discretization, edge_cutoff=edge_cutoff)


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
        assert sol.refinement_levels == 0
        assert sol.elements_per_strip == 16

    def test_floor_start_is_solved_as_given(self, two_strip_geom):
        """The ladder starts at the section's own terms, also at the 8-term
        floor: its tail of 7.4e-4 is accepted there."""
        sol = refine_until_converged(replace(two_strip_geom, discretization=8),
                                     rel_tol=0.01)
        assert (sol.refinement_levels, sol.elements_per_strip) == (0, 8)
        assert sol.geometry.discretization == 8

    def test_odd_discretization_returns_at_least_it(self, two_strip_geom):
        """An odd M is solved as given, not rounded to an even one."""
        sol = refine_until_converged(replace(two_strip_geom, discretization=17),
                                     rel_tol=0.01)
        assert sol.elements_per_strip == 17

    @pytest.mark.parametrize("n_strips", [3, 4, 5, 6])
    def test_asymmetric_section_matches_a_solve_at_twice_its_terms(self, n_strips):
        """A section accepted on its coefficient tail agrees with a direct
        solve at twice its terms: p_sm, p_sa, p_ma and energy within
        rel_tol."""
        geom = asymmetric_section(n_strips, n_strips, 32)
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

    def test_already_converged_returns_its_first_level(self, two_strip_geom):
        sol = refine_until_converged(two_strip_geom, rel_tol=0.05)
        assert sol.refinement_levels == 0

    def test_budget_exhaustion_reports_energies(self):
        """w/g = 1000 still has a coefficient tail of 5.3e-2 at 64 terms per
        strip, so a budget that stops at 64 must raise instead of returning
        the unconverged solution."""
        geom = CrossSection([Strip(0.0, 10.0, 0.5), Strip(10.01, 10.0, -0.5)],
                            discretization=16)
        with pytest.raises(ConvergenceError, match="J/m"):
            refine_until_converged(geom, rel_tol=1e-4, max_total_elements=128)

    def test_budget_below_the_first_doubling_raises(self, two_strip_geom):
        """The first level, 16 terms with a tail of 4.4e-7, misses 1e-9; a
        budget below the 2 x 32 terms of its second level stops it there,
        and the error names that level, its tail and its energy."""
        with pytest.raises(ConvergenceError, match="last level 16 terms/strip") as info:
            refine_until_converged(two_strip_geom, rel_tol=1e-9, max_total_elements=31)
        assert "coefficient tail 4.4" in str(info.value)
        assert "J/m" in str(info.value)

    def test_zero_cutoff_follows_the_same_rule(self, two_strip_geom):
        """The layer integrals diverge at a zero cutoff, but the coefficient
        tail does not: 8 terms (7.4e-4) and 16 (4.4e-7) miss 1e-9, and 32
        is accepted."""
        geom = CrossSection(two_strip_geom.strips, edge_cutoff=0.0, discretization=8)
        sol = refine_until_converged(geom, rel_tol=1e-9)
        assert (sol.refinement_levels, sol.elements_per_strip) == (2, 32)
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


SPECS = [InterfaceSpec(region) for region in InterfaceRegion]


def error_against_four_times_the_terms(sol):
    """Largest relative error of the energy and of p_sm, p_sa and p_ma
    against a direct solve of the same section at 4x its terms."""
    fine = solve_cross_section(
        replace(sol.geometry, discretization=4 * sol.elements_per_strip))
    got, want = participation_set(sol, SPECS), participation_set(fine, SPECS)
    errors = [abs(sol.energy_per_len / fine.energy_per_len - 1.0)]
    errors += [abs(got[region] / want[region] - 1.0) for region in InterfaceRegion]
    return max(errors)


class TestCoefficientTail:
    """A level is accepted when its upper half of Chebyshev terms holds less
    than rel_tol of sum |a_n| on every strip; that tail is the error
    estimate."""

    @pytest.mark.parametrize("rel_tol", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("discretization", [8, 16])
    @pytest.mark.parametrize("cutoff_fraction", [1e-3, 0.025])
    def test_tail_bounds_the_error_of_asymmetric_sections(
            self, rel_tol, discretization, cutoff_fraction):
        """Seeded 3-6 strip sections with cutoffs of 1e-3 and 0.025 of the
        narrowest possible gap, 4 um (the tail exceeds the true error by at
        least 590x here)."""
        for n_strips in (3, 4, 5, 6):
            sol = refine_until_converged(asymmetric_section(
                n_strips, n_strips, discretization, 4.0 * cutoff_fraction), rel_tol)
            assert sol.estimated_rel_error < rel_tol
            assert sol.estimated_rel_error >= error_against_four_times_the_terms(sol)

    @pytest.mark.parametrize("rel_tol", [0.1, 1e-3])
    @pytest.mark.parametrize("cutoff_fraction", [1e-3, 0.1])
    @pytest.mark.parametrize("width_over_gap", [20, 200])
    def test_tail_bounds_the_error_of_narrow_gaps(
            self, width_over_gap, cutoff_fraction, rel_tol):
        """Two 10 um strips with w/g of 20 and 200, cut 1e-3 and 0.1 of the
        gap from each edge (the true error reaches 0.21x the tail at w/g =
        20, 0.13x at 200)."""
        gap = 10.0 / width_over_gap
        geom = CrossSection([Strip(0.0, 10.0, 0.5), Strip(10.0 + gap, 10.0, -0.5)],
                            discretization=8, edge_cutoff=cutoff_fraction * gap)
        sol = refine_until_converged(geom, rel_tol)
        assert sol.estimated_rel_error >= error_against_four_times_the_terms(sol)

    def test_tail_bounds_the_error_of_the_161_finger_cell(self):
        """The 161-finger 1 um cell is accepted at 8 terms with a tail of
        1.45e-3; against 32 terms its error is 2.8e-7."""
        cell = interdigital_unit_cell(1.0, 161, discretization=8)
        sol = refine_until_converged(cell, rel_tol=0.01)
        assert (sol.refinement_levels, sol.elements_per_strip) == (0, 8)
        assert sol.estimated_rel_error == pytest.approx(1.45e-3, rel=0.01)
        assert sol.estimated_rel_error >= error_against_four_times_the_terms(sol)

    @pytest.mark.parametrize("discretization", [8, 16, 17, 32])
    def test_accepted_first_level_is_the_direct_solve(self, discretization):
        """A section accepted at its own discretization, also 8 or an odd
        M, returns the coefficients and energy of ``solve_cross_section`` on
        it, bit for bit."""
        for n_strips in (3, 4, 5, 6):
            geom = asymmetric_section(n_strips + 10, n_strips, discretization)
            sol = refine_until_converged(geom, rel_tol=0.01)
            direct = solve_cross_section(geom)
            assert (sol.refinement_levels, sol.elements_per_strip) == (0, discretization)
            assert sol.coefficients.tobytes() == direct.coefficients.tobytes()
            assert sol.energy_per_len == direct.energy_per_len

    @pytest.mark.parametrize("edge_cutoff", [0.0, 1e-3, 0.1])
    @pytest.mark.parametrize("rel_tol, levels", [(0.01, 0), (1e-9, 1)])
    def test_one_result_per_solve_and_no_integral(
            self, two_strip_geom, monkeypatch, edge_cutoff, rel_tol, levels):
        """The refinement calls the module's ``solve_cross_section`` once
        per level, builds one ``FieldSolution`` per solve and, at any
        cutoff, takes no edge-cut integral and samples no field (16 terms
        have a tail of 4.4e-7, 32 of 2.9e-13)."""
        counts = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("solve_cross_section", "edge_cut_square_integral",
                     "tangential_field"):
            monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
        monkeypatch.setattr(solver.FieldSolution, "__init__",
                            counted("FieldSolution", solver.FieldSolution.__init__))
        sol = refine_until_converged(
            replace(two_strip_geom, edge_cutoff=edge_cutoff), rel_tol)
        assert sol.refinement_levels == levels
        assert counts == {"solve_cross_section": levels + 1,
                          "FieldSolution": levels + 1}


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


def per_gap_voltage(sol, i):
    """The drop across gap i alone: the exterior log kernel of every strip
    at the gap's two ends, weighted by b_n = a_n h / (2 eps_bar), left end
    minus right end."""
    left, right = sol._bounds
    kernel = solver._log_kernel(np.array(sol.gaps[i]), left, right,
                                sol.coefficients.shape[1])
    volts = sol.coefficients * (0.5 * (right - left) / (2.0 * sol.eps_bar))[:, None]
    phi = np.einsum("nps,sn->p", kernel, volts)
    return float(phi[0] - phi[1])


class TestGapVoltages:
    """A solution derives the drops across all its gaps once, from one
    exterior-kernel evaluation at every gap end."""

    @pytest.mark.parametrize("section", [
        *(asymmetric_section(n + 20, n, 32) for n in (2, 3, 4, 5, 6)),
        CrossSection([Strip(0.0, 10.0, 0.5), Strip(10.1, 10.0, -0.5),
                      Strip(26.0, 6.0, 0.2)], discretization=64),
    ], ids=["2-strip", "3-strip", "4-strip", "5-strip", "6-strip", "narrow-gap"])
    def test_every_gap_matches_the_per_gap_formula(self, section):
        """Bit for bit, and each reproduces the drive across its gap."""
        sol = refine_until_converged(section, rel_tol=1e-6)
        pots = section.potentials
        gaps = range(len(sol.gaps))
        expected = [per_gap_voltage(sol, i) for i in gaps]
        assert [reconstruct_gap_voltage(sol, i) for i in gaps] == expected
        assert expected == pytest.approx(np.subtract(pots[:-1], pots[1:]), rel=1e-9)

    def test_all_gaps_cost_one_kernel_evaluation(self, monkeypatch):
        sol = solve_cross_section(asymmetric_section(26, 6, 16))
        calls = []
        original = solver._log_kernel

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "_log_kernel", counting)
        for i in [*range(5), -1, 2]:
            reconstruct_gap_voltage(sol, i)
        assert len(calls) == 1
        assert calls[0][0].shape == (10,)  # both ends of the 5 gaps

    def test_a_replaced_copy_reads_its_own_coefficients(self):
        sol = solve_cross_section(asymmetric_section(27, 4, 16))
        first = [reconstruct_gap_voltage(sol, i) for i in range(3)]
        copy = replace(sol, coefficients=2.0 * sol.coefficients)
        # doubling every coefficient doubles every term and sum exactly
        assert [reconstruct_gap_voltage(copy, i) for i in range(3)] == [
            2.0 * v for v in first]
        assert [reconstruct_gap_voltage(sol, i) for i in range(3)] == first

    def test_errors_are_unchanged(self, two_strip_sol):
        assert reconstruct_gap_voltage(two_strip_sol, -1) == reconstruct_gap_voltage(
            two_strip_sol, 0)
        with pytest.raises(IndexError):
            reconstruct_gap_voltage(two_strip_sol, 1)
        lone = solver.FieldSolution(CrossSection([Strip(0.0, 10.0, 1.0)]),
                                    np.ones((1, 16)), 1.0, 0.0)
        with pytest.raises(InvalidInputError, match="^solution has no gaps$"):
            reconstruct_gap_voltage(lone)


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
