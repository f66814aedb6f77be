import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import epsilon_0
from scipy.special import ellipk

from qsurfloss import (
    CrossSection,
    DEFAULT_SM_SPEC,
    InterfaceRegion,
    InterfaceSpec,
    InvalidInputError,
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
from qsurfloss.participation import _K_EQUAL_GAP, JUNCTION_MA_SPEC
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


def agm(a: float, b: float) -> float:
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a


def ellip_k(k: float) -> float:
    """Complete elliptic integral of the first kind at modulus k, by AGM."""
    return math.pi / (2.0 * agm(1.0, math.sqrt(1.0 - k * k)))


def periodic_reference(width_um, gap_um, cutoff_um, spec, eps_sub=10.15):
    """(p_sm, p_sa, p_ma) of one cell of the infinite alternating array with
    any finger width and gap, from the general-modulus conformal map: strip
    charge q = 4 eps_bar V K(k) / K(k'), k = sin(pi w / 2P), and the edge-cut
    integrals of sigma^2 and E_par^2 as artanh forms (relative permittivities,
    lengths in um)."""
    w, pitch, c = width_um, width_um + gap_um, cutoff_um
    k = math.sin(math.pi * w / (2.0 * pitch))
    kp = math.cos(math.pi * w / (2.0 * pitch))
    eps_bar, volts = 0.5 * (eps_sub + 1.0), 0.5
    q = 4.0 * eps_bar * volts * ellip_k(k) / ellip_k(kp)
    a = math.pi * q / (2.0 * pitch * ellip_k(k))
    scale = 2.0 * a * a * (pitch / math.pi) / (k * kp) / (4.0 * eps_bar**2)
    e_perp2 = scale * math.atanh(kp * math.tan(math.pi * (w / 2 - c) / pitch) / k)
    e_par2 = scale * math.atanh(k / (kp * math.tan(math.pi * (w / 2 + c) / pitch)))
    layer = 0.5 * spec.thickness_nm * 1e-3 / (0.5 * q * volts)
    eps_i = spec.eps_rel
    return (layer * eps_sub**2 / eps_i * e_perp2, layer * eps_i * e_par2,
            layer / eps_i * e_perp2)


@pytest.fixture(scope="module")
def finite_arrays_1um():
    """Center-cell participation of 1 um interdigital arrays solved with 11,
    21 and 41 fingers at a 0.02 um cutoff."""
    specs = [DEFAULT_SM_SPEC.with_region(r) for r in InterfaceRegion]
    return {
        n: participation_set(solve_cross_section(interdigital_unit_cell(
            1.0, n, discretization=64, edge_cutoff=0.02)), specs)
        for n in (11, 21, 41)
    }


class TestPeriodicArray:
    def test_elliptic_constant_matches_scipy(self):
        assert _K_EQUAL_GAP == pytest.approx(ellipk(0.5), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("width_um", [0.1, 1.0, 7.3, 100.0])
    @pytest.mark.parametrize("cutoff_fraction", [1e-3, 0.043, 0.3])
    def test_matches_the_general_modulus_form(self, width_um, cutoff_fraction):
        cutoff = cutoff_fraction * width_um
        for spec in (DEFAULT_SM_SPEC, InterfaceSpec(InterfaceRegion.SM, 0.3, 4.0)):
            point = psm_width_sweep([width_um], spec, cutoff_um=cutoff)[0]
            want = periodic_reference(width_um, width_um, cutoff, spec)
            got = (point.p_sm, point.p_sa, point.p_ma)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_default_value_at_1um(self):
        point = psm_width_sweep([1.0])[0]
        assert f"{point.p_sm:.9g}" == "0.00268554035"
        assert point.p_sa == point.p_sm
        assert f"{point.p_ma:.9g}" == "2.60675129e-05"

    @given(
        width=st.floats(0.1, 10.0),
        scale=st.floats(1.0, 10.0),
        cutoff_fraction=st.floats(1e-3, 0.3),
        thickness=st.floats(0.1, 2.0),
        eps_rel=st.floats(1.0, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_law_and_permittivity_ratio(
        self, width, scale, cutoff_fraction, thickness, eps_rel
    ):
        spec = InterfaceSpec(InterfaceRegion.SM, thickness, eps_rel)
        cutoff = cutoff_fraction * width
        (small,) = psm_width_sweep([width], spec, cutoff_um=cutoff)
        (big,) = psm_width_sweep([scale * width], spec, cutoff_um=scale * cutoff)
        for name in ("p_sm", "p_sa", "p_ma"):
            assert getattr(big, name) * scale == pytest.approx(
                getattr(small, name), rel=1e-12)
        assert small.p_ma / small.p_sm == pytest.approx(1.0 / 10.15**2, rel=1e-12)

    @given(st.lists(st.floats(0.1, 100.0), min_size=2, max_size=20, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_fraction_cutoff_makes_p_times_width_flat(self, widths):
        points = psm_width_sweep(sorted(widths))
        products = [p.p_sm * p.width_um for p in points]
        assert products == pytest.approx([products[0]] * len(products),
                                         rel=1e-12)

    def test_finite_arrays_converge_to_the_closed_form(self, finite_arrays_1um):
        """The boundary-element center cell approaches the infinite array as
        fingers are added: p_sm errors of about 2.5 %, 0.56 % and 0.03 %."""
        exact = psm_width_sweep([1.0], cutoff_um=0.02)[0].p_sm
        errors = [abs(finite_arrays_1um[n].p_sm / exact - 1.0)
                  for n in (11, 21, 41)]
        assert errors[0] > errors[1] > errors[2]


class TestWidthSweep:
    def test_single_width_consistent_with_participation_set(self, finite_arrays_1um):
        """A one-width sweep agrees with the solved center cell of a 41-finger
        array to 0.5 % in every region (measured -0.03 %, -0.17 %, -0.03 %)."""
        point = psm_width_sweep([1.0], cutoff_um=0.02)[0]
        pset = finite_arrays_1um[41]
        for region, value in ((InterfaceRegion.SM, point.p_sm),
                              (InterfaceRegion.SA, point.p_sa),
                              (InterfaceRegion.MA, point.p_ma)):
            assert pset[region] == pytest.approx(value, rel=5e-3)

    def test_monotone_and_scale_flat(self):
        points = psm_width_sweep([1.0, 2.0, 4.0, 8.0])
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

    def test_bound_checked_on_each_scaled_point(self):
        """A 300 nm layer breaks the thin-layer bound only at 0.5 um."""
        spec = InterfaceSpec(InterfaceRegion.SM, thickness_nm=300.0)
        points = psm_width_sweep([0.5, 1.0, 2.0, 5.0, 20.0], spec=spec)
        assert "outside [0, 1]" in points[0].error and points[0].p_sm is None
        for point in points[1:]:
            assert point.error is None
            assert 0.0 < point.p_sm < 1.0

    def test_fixed_cutoff_must_fit_the_narrowest_width(self):
        """A fixed cutoff of at least half the first width is rejected with
        the geometry's own message."""
        for cutoff_um in (0.5, 0.6):
            with pytest.raises(InvalidInputError,
                               match=r"edge_cutoff must lie in \[0, 0\.5\) um"):
                psm_width_sweep([1.0, 2.0], cutoff_um=cutoff_um)

    def test_cutoff_too_small_for_a_width_fails_that_point(self):
        """At 20 um the smallest subnormal cutoff underflows against the
        width, where ln(1 / cutoff) has no finite value."""
        points = psm_width_sweep([1.0, 20.0], cutoff_um=5e-324)
        assert points[0].error is None
        assert points[1].error.startswith("edge_cutoff must be > 0")

    def test_cutoff_rule_over_the_width_range(self):
        widths = [0.1, 1.0, 2.5, 40.0, 100.0]  # the cell's whole width range
        points = psm_width_sweep(widths)
        assert [p.cutoff_um for p in points] == [
            w * INTERDIGITAL_CUTOFF_FRACTION for w in widths]
        assert all(p.error is None for p in points)

    def test_empty_sweep(self):
        assert psm_width_sweep([]) == []

    def test_csv_emission(self, tmp_path):
        points = psm_width_sweep([1.0, 2.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(points, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "width_um,p_sm,p_sa,p_ma,cutoff_um,error"
        assert len(lines) == 3
