from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import epsilon_0

from qsurfloss import (
    CrossSection,
    DEFAULT_SM_SPEC,
    InterfaceRegion,
    InterfaceSpec,
    InvalidInputError,
    NumericalFailureError,
    Strip,
    cutoff_sensitivity,
    interdigital_unit_cell,
    layer_energy,
    participation_set,
    psm_width_sweep,
    solve_cross_section,
    write_sweep_csv,
)
from qsurfloss.geometry import INTERDIGITAL_CUTOFF_FRACTION
from qsurfloss.participation import JUNCTION_MA_SPEC
from qsurfloss.solver import FieldSolution, StripFields

UM = 1e-6
NM = 1e-9


def uniform_field_solution(width_um, e_field, depth_um, eps_sub_rel):
    """Hand-built solution with a uniform normal field under one plate.

    Total energy is set to that of a substrate-filled parallel-plate gap of
    the given depth, so layer ratios have the closed form t/d when the layer
    shares the substrate permittivity.
    """
    geom = CrossSection(
        [Strip(0.0, width_um, 1.0)], eps_sub_rel=eps_sub_rel, edge_cutoff=0.0
    )
    eps_bar = 0.5 * (1.0 + eps_sub_rel) * epsilon_0
    edges = np.linspace(0.0, width_um * UM, 17)
    centers = 0.5 * (edges[:-1] + edges[1:])
    e = np.full(centers.size, e_field)
    strip = StripFields(
        index=0,
        x_left=0.0,
        x_right=width_um * UM,
        potential=1.0,
        edges=edges,
        centers=centers,
        widths=np.diff(edges),
        charge_density=2.0 * eps_bar * e,
        e_perp=e,
    )
    energy = (
        0.5 * eps_sub_rel * epsilon_0 * e_field**2 * depth_um * UM * width_um * UM
    )
    return FieldSolution(
        geometry=geom,
        strips=[strip],
        gaps=[],
        capacitance_per_len=float("nan"),
        energy_per_len=energy,
        eps_bar=eps_bar,
        reference_offset=0.0,
        residual_norm=0.0,
        elements_per_strip=16,
    )


class TestInterfaceSpec:
    def test_junction_layer_thickness_default(self):
        assert JUNCTION_MA_SPEC.thickness_nm == 5.5
        assert JUNCTION_MA_SPEC.eps_rel == 10.15

    def test_bad_thickness(self):
        with pytest.raises(InvalidInputError):
            InterfaceSpec(InterfaceRegion.SM, thickness_nm=0.0)


class TestLayerEnergy:
    def test_parallel_plate_ratio(self):
        """Uniform field, substrate-filled gap of 1 um, 1 nm layer with the
        substrate permittivity: energy ratio must be exactly t/d = 1e-3."""
        sol = uniform_field_solution(50.0, 1e5, 1.0, 10.15)
        spec = InterfaceSpec(InterfaceRegion.SM, thickness_nm=1.0, eps_rel=10.15)
        ratio = layer_energy(sol, spec, cutoff_um=0.0) / sol.energy_per_len
        assert ratio == pytest.approx(1.0e-3, rel=1e-9)

    def test_linear_in_thickness(self, two_strip_sol):
        one = layer_energy(two_strip_sol, InterfaceSpec(InterfaceRegion.SM, 1.0))
        two = layer_energy(two_strip_sol, InterfaceSpec(InterfaceRegion.SM, 2.0))
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_sm_exceeds_sa_for_equal_layer(self, two_strip_sol):
        """Under-metal normal fields dominate the gap tangential fields for
        coplanar strips."""
        sm = layer_energy(two_strip_sol, InterfaceSpec(InterfaceRegion.SM))
        sa = layer_energy(two_strip_sol, InterfaceSpec(InterfaceRegion.SA))
        assert sm > sa > 0.0

    def test_missing_gap_samples_rejected(self):
        sol = uniform_field_solution(50.0, 1e5, 1.0, 10.15)
        with pytest.raises(InvalidInputError, match="gap field samples"):
            layer_energy(sol, DEFAULT_SM_SPEC.with_region(InterfaceRegion.SA))


class TestParticipationSet:
    def test_interdigital_1um_matches_published_scale(self, interdigital_sol_1um):
        pset = participation_set(interdigital_sol_1um, [DEFAULT_SM_SPEC])
        assert 0.5 * 3.3e-3 <= pset.p_sm <= 2.0 * 3.3e-3
        assert pset.p_sa is None and pset.p_ma is None

    def test_interdigital_20um_matches_published_scale(self):
        sol = solve_cross_section(interdigital_unit_cell(20.0, 7, discretization=256))
        pset = participation_set(sol, [DEFAULT_SM_SPEC])
        assert 0.5 * 2.1e-4 <= pset.p_sm <= 2.0 * 2.1e-4

    def test_all_ratios_small_and_positive(self, interdigital_sol_1um):
        specs = [
            DEFAULT_SM_SPEC,
            DEFAULT_SM_SPEC.with_region(InterfaceRegion.SA),
            DEFAULT_SM_SPEC.with_region(InterfaceRegion.MA),
        ]
        pset = participation_set(interdigital_sol_1um, specs)
        values = [pset.p_sm, pset.p_sa, pset.p_ma]
        assert all(0.0 < v < 1.0 for v in values)
        assert sum(values) < 0.05

    def test_duplicate_regions_rejected(self, two_strip_sol):
        with pytest.raises(InvalidInputError, match="duplicate"):
            participation_set(two_strip_sol, [DEFAULT_SM_SPEC, DEFAULT_SM_SPEC])

    def test_scale_law(self):
        """For fixed layer thickness, scaling the lateral geometry by s
        scales every participation by 1/s."""
        geom = interdigital_unit_cell(2.0, 7, discretization=128)
        small = participation_set(solve_cross_section(geom), [DEFAULT_SM_SPEC])
        big = participation_set(
            solve_cross_section(geom.scaled(2.0)), [DEFAULT_SM_SPEC]
        )
        assert big.p_sm == pytest.approx(0.5 * small.p_sm, rel=1e-6)

    def test_ratio_homogeneity_in_permittivities(self):
        """Halving vacuum, substrate and layer permittivities together leaves
        every participation unchanged (fields are permittivity independent,
        charges and energies scale homogeneously)."""
        strips = [Strip(0.0, 4.0, 0.5), Strip(8.0, 4.0, -0.5)]
        specs = lambda s: [
            InterfaceSpec(InterfaceRegion.SM, 1.0, 10.15 * s),
            InterfaceSpec(InterfaceRegion.SA, 1.0, 10.15 * s),
            InterfaceSpec(InterfaceRegion.MA, 1.0, 2.0 * s),
        ]
        base = participation_set(
            solve_cross_section(
                CrossSection(strips, eps_sub_rel=10.15, eps_vac_rel=1.0,
                             discretization=96)
            ),
            specs(1.0),
        )
        halved = participation_set(
            solve_cross_section(
                CrossSection(strips, eps_sub_rel=10.15 / 2, eps_vac_rel=0.5,
                             discretization=96)
            ),
            specs(0.5),
        )
        for region in InterfaceRegion:
            assert halved[region] == pytest.approx(base[region], rel=1e-9)

    def test_whole_array_close_to_cell(self, interdigital_sol_1um):
        cell = participation_set(interdigital_sol_1um, [DEFAULT_SM_SPEC])
        whole_array = replace(interdigital_sol_1um.geometry, representative_cell=None)
        whole = participation_set(
            solve_cross_section(whole_array), [DEFAULT_SM_SPEC]
        )
        # finite-array edges perturb the whole-array ratio by O(10%)
        assert whole.p_sm == pytest.approx(cell.p_sm, rel=0.25)


class TestCutoffSensitivity:
    def test_report_three_cutoffs_smooth(self):
        sol = solve_cross_section(interdigital_unit_cell(10.0, 7, discretization=128))
        report = cutoff_sensitivity(sol, DEFAULT_SM_SPEC)
        assert [c for c, _ in report] == [0.05, 0.1, 0.2]
        values = [v for _, v in report]
        assert values[0] > values[1] > values[2] > 0
        # smooth variation: each halving of the cutoff adds a bounded slice
        assert values[0] / values[1] < 1.5
        assert values[1] / values[2] < 1.5


class TestWidthSweep:
    def test_single_width_consistent_with_participation_set(self):
        points = psm_width_sweep([5.0], discretization=128)
        sol = solve_cross_section(interdigital_unit_cell(5.0, 7, discretization=128))
        pset = participation_set(
            sol,
            [
                DEFAULT_SM_SPEC,
                DEFAULT_SM_SPEC.with_region(InterfaceRegion.SA),
                DEFAULT_SM_SPEC.with_region(InterfaceRegion.MA),
            ],
        )
        assert points[0].p_sm == pytest.approx(pset.p_sm, rel=1e-12)
        assert points[0].p_sa == pytest.approx(pset.p_sa, rel=1e-12)

    def test_monotone_and_scale_flat(self):
        points = psm_width_sweep([1.0, 2.0, 4.0, 8.0], discretization=96)
        values = [p.p_sm for p in points]
        assert all(a > b for a, b in zip(values, values[1:]))
        products = [p.p_sm * p.width_um for p in points]
        assert max(products) / min(products) < 1.3

    def test_width_validation(self):
        with pytest.raises(InvalidInputError, match="ascending"):
            psm_width_sweep([2.0, 1.0])
        for widths in ([0.05, 1.0], [1.0, 200.0]):
            with pytest.raises(InvalidInputError, match=r"\[0\.1, 100\] um"):
                psm_width_sweep(widths)
        with pytest.raises(InvalidInputError, match="SM"):
            psm_width_sweep([1.0], spec=DEFAULT_SM_SPEC.with_region(InterfaceRegion.SA))

    @pytest.mark.parametrize("cutoff_um", [None, 0.043])
    def test_one_solve_matches_direct_solves(self, cutoff_um, monkeypatch):
        """The scale law checked, not assumed: every sweep point equals a
        direct solve at its own width, with the width-proportional and with
        a fixed cutoff, from a single solve."""
        import qsurfloss.participation as participation_module

        calls = []
        real_solve = participation_module.solve_cross_section

        def counted(geom, *args, **kwargs):
            calls.append(geom.strips[0].width)
            return real_solve(geom, *args, **kwargs)

        monkeypatch.setattr(participation_module, "solve_cross_section", counted)
        widths = [1.3, 4.0, 11.7]
        points = psm_width_sweep(widths, discretization=64, cutoff_um=cutoff_um)
        assert calls == [1.3]
        specs = [
            DEFAULT_SM_SPEC,
            DEFAULT_SM_SPEC.with_region(InterfaceRegion.SA),
            DEFAULT_SM_SPEC.with_region(InterfaceRegion.MA),
        ]
        for w, point in zip(widths, points):
            geom = interdigital_unit_cell(w, 7, discretization=64,
                                          edge_cutoff=cutoff_um)
            direct = participation_set(real_solve(geom), specs)
            assert point.error is None
            assert point.cutoff_um == geom.edge_cutoff
            for region, value in ((InterfaceRegion.SM, point.p_sm),
                                  (InterfaceRegion.SA, point.p_sa),
                                  (InterfaceRegion.MA, point.p_ma)):
                assert value == pytest.approx(direct[region], rel=1e-9)

    def test_bound_checked_on_each_scaled_point(self):
        """A 300 nm layer breaks the thin-layer bound only at 0.5 um, although
        the reference solve sits at that width."""
        spec = InterfaceSpec(InterfaceRegion.SM, thickness_nm=300.0)
        points = psm_width_sweep([0.5, 1.0, 2.0, 5.0, 20.0], spec=spec,
                                 discretization=64)
        assert "outside [0, 1]" in points[0].error and points[0].p_sm is None
        for point in points[1:]:
            assert point.error is None
            assert 0.0 < point.p_sm < 1.0

    def test_failed_reference_solve_marks_every_point(self, monkeypatch):
        import qsurfloss.participation as participation_module

        def failing(geom, *args, **kwargs):
            raise NumericalFailureError("synthetic failure")

        monkeypatch.setattr(participation_module, "solve_cross_section", failing)
        points = psm_width_sweep([1.0, 2.0, 3.0], discretization=64)
        assert [p.error for p in points] == ["synthetic failure"] * 3
        assert all(p.p_sm is None and p.cutoff_um is not None for p in points)

    def test_fixed_cutoff_must_fit_the_narrowest_width(self):
        """The sweep's one cell, at the first width, rejects a fixed cutoff
        of at least half that width with the geometry's own message."""
        for cutoff_um in (0.5, 0.6):
            with pytest.raises(InvalidInputError,
                               match=r"edge_cutoff must lie in \[0, 0\.5\) um"):
                psm_width_sweep([1.0, 2.0], discretization=64, cutoff_um=cutoff_um)

    def test_one_cell_per_sweep(self, monkeypatch):
        import qsurfloss.participation as participation_module

        built = []
        real_cell = participation_module.interdigital_unit_cell

        def counted(width, *args, **kwargs):
            built.append(width)
            return real_cell(width, *args, **kwargs)

        monkeypatch.setattr(participation_module, "interdigital_unit_cell", counted)
        widths = [0.1, 1.0, 2.5, 40.0, 100.0]  # the cell's whole width range
        points = psm_width_sweep(widths, discretization=64)
        assert built == [0.1]
        assert [p.cutoff_um for p in points] == [
            w * INTERDIGITAL_CUTOFF_FRACTION for w in widths]
        assert all(p.error is None for p in points)

    def test_empty_sweep(self):
        assert psm_width_sweep([]) == []

    def test_csv_emission(self, tmp_path):
        points = psm_width_sweep([1.0, 2.0], discretization=64)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(points, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "width_um,p_sm,p_sa,p_ma,cutoff_um,n_fingers,error"
        assert len(lines) == 3
