from dataclasses import replace

import numpy as np
import pytest
import scipy.constants

from qsurfloss import (
    DEFAULT_SM_SPEC,
    ConvergenceError,
    CrossSection,
    InterfaceRegion,
    InvalidInputError,
    Strip,
    field_energy_quadrature,
    interdigital_unit_cell,
    participation_set,
    reconstruct_gap_voltage,
    refine_until_converged,
    solution_to_csv,
    solve_cross_section,
)
from qsurfloss.solver import epsilon_0

from conftest import cps_capacitance


class TestOracleAgreement:
    def test_capacitance_matches_conformal_mapping(self, two_strip_sol):
        """Two equal coplanar strips against the elliptic-integral formula."""
        oracle = cps_capacitance(10.0, 10.0, 10.15)
        assert two_strip_sol.capacitance_per_len == pytest.approx(oracle, rel=5e-3)

    def test_asymmetric_gap_still_close(self):
        geom = CrossSection(
            [Strip(0.0, 5.0, 0.5), Strip(7.0, 5.0, -0.5)], discretization=256
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
        expected = a * sol1.charge_density + b * sol2.charge_density
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(combo.charge_density - expected)) / scale < 1e-9

    def test_mirror_antisymmetry(self, two_strip_sol):
        """Antisymmetric drive on a mirror-symmetric pair gives
        mirror-antisymmetric charge."""
        left = two_strip_sol.strips[0].charge_density
        right = two_strip_sol.strips[1].charge_density
        scale = np.max(np.abs(left))
        assert np.max(np.abs(left + right[::-1])) / scale < 1e-9

    def test_potential_swap_negates_charge(self, two_strip_geom, two_strip_sol):
        swapped = solve_cross_section(two_strip_geom.with_potentials([-0.5, 0.5]))
        assert swapped.energy_per_len == pytest.approx(
            two_strip_sol.energy_per_len, rel=1e-12
        )
        assert np.allclose(
            swapped.charge_density, -two_strip_sol.charge_density, rtol=1e-9
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
        q_pos = two_strip_sol.strips[0].charge
        assert 0.5 * q_pos * abs(dv) == pytest.approx(
            two_strip_sol.energy_per_len, rel=0.03
        )

    def test_determinism(self, two_strip_geom):
        a = solve_cross_section(two_strip_geom)
        b = solve_cross_section(two_strip_geom)
        assert np.array_equal(a.charge_density, b.charge_density)


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
        assert sol.refinement_levels >= 1
        assert sol.elements_per_strip > 16

    def test_zero_tolerance_rejected(self, two_strip_geom):
        with pytest.raises(InvalidInputError, match="rel_tol"):
            refine_until_converged(two_strip_geom, rel_tol=0.0)
        with pytest.raises(InvalidInputError, match="rel_tol"):
            refine_until_converged(two_strip_geom, rel_tol=0.5)

    def test_already_converged_returns_after_one_doubling(self, two_strip_geom):
        sol = refine_until_converged(two_strip_geom, rel_tol=0.05)
        assert sol.refinement_levels == 1

    def test_budget_exhaustion_reports_energies(self, two_strip_geom):
        geom = CrossSection(
            two_strip_geom.strips, eps_sub_rel=10.15, discretization=16
        )
        with pytest.raises(ConvergenceError, match="J/m"):
            refine_until_converged(geom, rel_tol=1e-4, max_total_elements=64)


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
        # two strips and one gap, 256 samples each
        assert len(lines) - 1 == 3 * 256
        # the one normal field of a strip fills both normal-field columns
        rows = [line.split(",") for line in lines[1:257]]
        e_perp = two_strip_sol.strips[0].e_perp
        assert [float(r[2]) for r in rows] == pytest.approx(e_perp, rel=1e-8)
        assert all(r[2] == r[3] for r in rows)


def test_vacuum_permittivity_literal():
    assert epsilon_0 == scipy.constants.epsilon_0


def edge_pair_reference(sol):
    """``sol`` re-solved with every kernel entry taken from its element's two
    edges and the full dense system, as before node assembly and the fold."""
    a = np.concatenate([s.edges[:-1] for s in sol.strips])
    b = np.concatenate([s.edges[1:] for s in sol.strips])
    xc, n, scale = 0.5 * (a + b), a.size, 2.0 * np.pi * sol.eps_bar

    def antiderivative(u):
        return u * (np.log(np.abs(u)) - 1.0)

    system = np.zeros((n + 1, n + 1))
    system[:n, :n] = -(antiderivative(b - xc[:, None])
                       - antiderivative(a - xc[:, None])) / scale
    system[:n, n] = 1.0
    system[n, :n] = b - a
    pots = sol.geometry.potentials
    rhs = np.append(np.repeat(pots, sol.elements_per_strip), 0.0)
    sigma = np.linalg.solve(system, rhs)[:n]
    strips = [replace(s, charge_density=q, e_perp=q / (2.0 * sol.eps_bar))
              for s, q in zip(sol.strips, np.split(sigma, len(sol.strips)))]
    gaps = [replace(g, e_par=(np.log(np.abs(g.centers[:, None] - a))
                              - np.log(np.abs(g.centers[:, None] - b))) @ sigma / scale)
            for g in sol.gaps]
    energy = 0.5 * sum(s.charge * s.potential for s in strips)
    return replace(sol, strips=strips, gaps=gaps, energy_per_len=energy,
                   capacitance_per_len=2.0 * energy / (max(pots) - min(pots)) ** 2)


def shifted(geom, index, dx_um):
    """``geom`` with one strip moved by ``dx_um``."""
    strips = [Strip(s.x_start + (dx_um if i == index else 0.0), s.width, s.potential)
              for i, s in enumerate(geom.strips)]
    return replace(geom, strips=strips)


IDC_256 = interdigital_unit_cell(1.0, 7, discretization=256)
IDC_33 = interdigital_unit_cell(3.0, 7, discretization=33)
NEAR_SYMMETRIC = shifted(interdigital_unit_cell(1.0, 7, discretization=64), 2, 1e-3)
ASYMMETRIC = CrossSection(
    [Strip(0.0, 5.0, 1.0), Strip(7.0, 4.0, -1.0), Strip(13.0, 6.0, 0.3),
     Strip(21.0, 5.0, 1.0)],
    discretization=64,
)
EVEN_STRIPS_33 = CrossSection(
    [Strip(0.0, 3.0, 1.0), Strip(5.0, 2.0, -1.0), Strip(9.0, 2.0, -1.0),
     Strip(13.0, 3.0, 1.0)],
    discretization=33,
)


class TestNodeAssemblyAndMirrorFold:
    """Both paths against the edge-pair reference; a mirror-even section is
    solved at half size, anything else at full size."""

    @pytest.mark.parametrize("geom, system_size", [
        (IDC_256, 3 * 256 + 128 + 1),
        (IDC_33, 3 * 33 + 17 + 1),  # the centre strip's middle element once
        (NEAR_SYMMETRIC, 7 * 64 + 1),
        (ASYMMETRIC, 4 * 64 + 1),
        (EVEN_STRIPS_33, 2 * 33 + 1),  # no centre strip: the fold ends between strips
    ], ids=["idc-256", "idc-33", "near-symmetric", "asymmetric", "even-strips-33"])
    def test_matches_edge_pair_reference(self, geom, system_size, monkeypatch):
        sizes = []
        dense_solve = np.linalg.solve

        def spy(system, rhs):
            sizes.append(system.shape[0])
            return dense_solve(system, rhs)

        monkeypatch.setattr(np.linalg, "solve", spy)
        sol = solve_cross_section(geom)
        assert sizes == [system_size]
        ref = edge_pair_reference(sol)

        assert sol.strip_charges() == pytest.approx(ref.strip_charges(), rel=1e-9)
        assert sol.energy_per_len == pytest.approx(ref.energy_per_len, rel=1e-9)
        assert sol.capacitance_per_len == pytest.approx(
            ref.capacitance_per_len, rel=1e-9)
        e_par, e_ref = (np.concatenate([g.e_par for g in s.gaps]) for s in (sol, ref))
        assert np.max(np.abs(e_par - e_ref)) <= 1e-9 * np.max(np.abs(e_ref))
        specs = [DEFAULT_SM_SPEC.with_region(r) for r in InterfaceRegion]
        got = participation_set(sol, specs)
        want = participation_set(ref, specs)
        for region in InterfaceRegion:
            assert got[region] == pytest.approx(want[region], rel=1e-9)

    def test_folded_solution_keeps_the_full_layout(self):
        sol = solve_cross_section(IDC_33)
        assert [s.charge_density.size for s in sol.strips] == [33] * 7
        assert [g.e_par.size for g in sol.gaps] == [33] * 6
        for left, right in zip(sol.strips, sol.strips[::-1]):
            assert np.array_equal(left.charge_density, right.charge_density[::-1])
