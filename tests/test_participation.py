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
    participation_set,
    psm_width_sweep,
    refine_until_converged,
    solve_cross_section,
    write_sweep_csv,
)
from qsurfloss import participation, solver
from qsurfloss.errors import shown
from qsurfloss.geometry import INTERDIGITAL_CUTOFF_FRACTION
from qsurfloss.participation import _K_EQUAL_GAP, _periodic_idc
from qsurfloss.solver import FieldSolution

UM = 1e-6
NM = 1e-9


def at_cutoff(sol, cutoff_um):
    """``sol`` on a copy of its geometry with another edge cutoff."""
    return replace(sol, geometry=replace(sol.geometry, edge_cutoff=cutoff_um))


def single_term_solution(width_um, e_field, depth_um, eps_sub_rel, cutoff_um):
    """Hand-built one-strip solution whose normal field is the single edge
    term ``E_perp = e_field / sqrt(1 - t^2)``.

    Its edge-cut square integral is closed form, 2 h e_field^2 atanh(1 - c/h),
    and the total energy is set to that of a substrate-filled parallel-plate
    gap of the given depth under the same cut field profile, so layer ratios
    have the closed form t/d when the layer shares the substrate permittivity.
    """
    geom = CrossSection(
        [Strip(0.0, width_um, 1.0)], eps_sub_rel=eps_sub_rel, edge_cutoff=cutoff_um
    )
    eps_bar = 0.5 * (1.0 + eps_sub_rel) * epsilon_0
    half = 0.5 * width_um * UM
    coefficients = np.zeros((1, geom.discretization))
    coefficients[0, 0] = 2.0 * eps_bar * e_field
    square_integral = 2.0 * half * e_field**2 * math.atanh(1.0 - cutoff_um * UM / half)
    energy = 0.5 * eps_sub_rel * epsilon_0 * depth_um * UM * square_integral
    return FieldSolution(geometry=geom, coefficients=coefficients,
                         energy_per_len=energy, residual_norm=0.0)


def ratio(sol, spec=DEFAULT_SM_SPEC):
    """Participation of ``spec``'s region in ``sol``: its layer energy over
    the solution's (cell) energy."""
    return participation_set(sol, [spec])[spec.region]


class TestInterfaceSpec:
    def test_bad_thickness(self):
        with pytest.raises(InvalidInputError):
            InterfaceSpec(InterfaceRegion.SM, thickness_nm=0.0)

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400, 10**5000],
        ids=["nan", "inf", "-inf", "int1e400", "int1e5000"])
    @pytest.mark.parametrize("field", ["thickness_nm", "eps_rel"])
    def test_non_finite_number_rejected(self, field, value):
        """A NaN thickness used to fail every sweep point as p_sm = nan; an
        int beyond the float range raised OverflowError, and one of more
        than 4300 digits the message's int-to-str conversion ValueError."""
        with pytest.raises(InvalidInputError, match=(
                f"layer {field} must be finite, got {shown(value)}")):
            InterfaceSpec(InterfaceRegion.SM, **{field: value})

    @pytest.mark.parametrize("value", ["3", None], ids=["str", "None"])
    @pytest.mark.parametrize("field", ["thickness_nm", "eps_rel"])
    def test_non_number_rejected(self, field, value):
        """A str or None used to end in the raw TypeError of the
        finiteness test."""
        with pytest.raises(InvalidInputError, match=(
                f"layer {field} must be finite, got {value!r}")):
            InterfaceSpec(InterfaceRegion.SM, **{field: value})


class TestLayerEnergy:
    def test_parallel_plate_ratio(self):
        """Edge-singular field under one plate, total energy of a substrate-
        filled gap of 1 um under the same cut field, 1 nm layer with the
        substrate permittivity: energy ratio must be exactly t/d = 1e-3."""
        sol = single_term_solution(50.0, 1e5, 1.0, 10.15, cutoff_um=0.05)
        spec = InterfaceSpec(InterfaceRegion.SM, thickness_nm=1.0, eps_rel=10.15)
        assert ratio(sol, spec) == pytest.approx(1.0e-3, rel=1e-12)

    def test_zero_cutoff_rejected(self, two_strip_sol):
        """The edge integrals diverge as ln(1 / cutoff)."""
        sol = at_cutoff(two_strip_sol, 0.0)
        for region in InterfaceRegion:
            with pytest.raises(InvalidInputError, match="cutoff must be > 0"):
                ratio(sol, replace(DEFAULT_SM_SPEC, region=region))

    def test_linear_in_thickness(self, two_strip_sol):
        one = ratio(two_strip_sol, InterfaceSpec(InterfaceRegion.SM, 1.0))
        two = ratio(two_strip_sol, InterfaceSpec(InterfaceRegion.SM, 2.0))
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_sm_exceeds_sa_for_equal_layer(self, two_strip_sol):
        """Under-metal normal fields dominate the gap tangential fields for
        coplanar strips."""
        sm = ratio(two_strip_sol, InterfaceSpec(InterfaceRegion.SM))
        sa = ratio(two_strip_sol, InterfaceSpec(InterfaceRegion.SA))
        assert sm > sa > 0.0

    def test_unresolvable_cutoff_rejected(self, two_strip_sol):
        """1e-15 um is below one rounding step of x = 10 um, so the cut
        interval would start on the edge itself."""
        with pytest.raises(InvalidInputError, match="below the resolution"):
            ratio(at_cutoff(two_strip_sol, 1e-15))
        assert ratio(at_cutoff(two_strip_sol, 1e-12)) > 0

    def test_missing_gap_samples_rejected(self):
        sol = single_term_solution(50.0, 1e5, 1.0, 10.15, cutoff_um=0.05)
        with pytest.raises(InvalidInputError, match="gap field samples"):
            ratio(sol, replace(DEFAULT_SM_SPEC, region=InterfaceRegion.SA))


class TestZeroVoltCell:
    """A cell on a 0 V strip has cell energy 1/2 |q V| = 0, which every
    participation divides by."""

    @pytest.mark.parametrize("entry", [
        lambda geom: refine_until_converged(geom, rel_tol=1e-3),
        lambda geom: participation_set(solve_cross_section(geom), [DEFAULT_SM_SPEC]),
    ], ids=["refine_until_converged", "participation_set"])
    def test_cell_on_a_grounded_strip_is_refused(self, entry):
        """Both ended in a ZeroDivisionError; the section is refused, typed,
        when it is built, also as a copy of a valid one."""
        strips = [Strip(0.0, 10.0, 1.0), Strip(20.0, 10.0, 0.0), Strip(40.0, 10.0, 1.0)]
        with pytest.raises(InvalidInputError, match="sits at 0 V"):
            entry(CrossSection(strips, representative_cell=1))
        valid = CrossSection(strips, representative_cell=0)
        with pytest.raises(InvalidInputError, match="sits at 0 V"):
            entry(replace(valid, representative_cell=1))


class TestParticipationSet:
    def test_interdigital_1um_matches_published_scale(self, interdigital_sol_1um):
        pset = participation_set(interdigital_sol_1um, [DEFAULT_SM_SPEC])
        assert 0.5 * 3.3e-3 <= pset.p_sm <= 2.0 * 3.3e-3
        assert pset.p_sa is None and pset.p_ma is None

    def test_interdigital_20um_matches_published_scale(self):
        sol = solve_cross_section(interdigital_unit_cell(20.0, 7, discretization=16))
        pset = participation_set(sol, [DEFAULT_SM_SPEC])
        assert 0.5 * 2.1e-4 <= pset.p_sm <= 2.0 * 2.1e-4

    def test_all_ratios_small_and_positive(self, interdigital_sol_1um):
        specs = [
            DEFAULT_SM_SPEC,
            replace(DEFAULT_SM_SPEC, region=InterfaceRegion.SA),
            replace(DEFAULT_SM_SPEC, region=InterfaceRegion.MA),
        ]
        pset = participation_set(interdigital_sol_1um, specs)
        values = [pset.p_sm, pset.p_sa, pset.p_ma]
        assert all(0.0 < v < 1.0 for v in values)
        assert sum(values) < 0.05

    def test_one_integral_per_field_component(self, interdigital_sol_1um,
                                              monkeypatch):
        """SM and MA share one strip integral and SA takes one gap integral,
        and every ratio is still the one its spec alone gives, to the last
        bit."""
        sol = at_cutoff(interdigital_sol_1um, 0.02)
        specs = [
            DEFAULT_SM_SPEC,
            replace(DEFAULT_SM_SPEC, region=InterfaceRegion.SA),
            replace(DEFAULT_SM_SPEC, region=InterfaceRegion.MA),
        ]
        expected = [ratio(sol, spec) for spec in specs]
        on_gaps = []

        def counted(*args, gaps=False):
            on_gaps.append(gaps)
            return integral(*args, gaps=gaps)

        integral = participation.edge_cut_square_integral
        monkeypatch.setattr(participation, "edge_cut_square_integral", counted)
        pset = participation_set(sol, specs)
        assert sorted(on_gaps) == [False, True]
        assert [pset.p_sm, pset.p_sa, pset.p_ma] == expected

    def test_refinement_takes_no_integral_and_participations_one_each(
            self, monkeypatch):
        """The refinement takes no edge-cut integral, and each
        participation_set call takes the strip and the gap integral once;
        its ratios equal those of a copy of the solution to the last bit."""
        geom = CrossSection([Strip(0.0, 4.0, 1.0), Strip(6.0, 8.0, 0.0),
                             Strip(17.0, 5.0, -0.3)], discretization=16)
        specs = [replace(DEFAULT_SM_SPEC, region=region) for region in InterfaceRegion]
        on_gaps = []

        def counted(*args, gaps=False):
            on_gaps.append(gaps)
            return integral(*args, gaps=gaps)

        integral = participation.edge_cut_square_integral
        monkeypatch.setattr(participation, "edge_cut_square_integral", counted)
        monkeypatch.setattr(solver, "edge_cut_square_integral", counted)
        sol = refine_until_converged(geom, 1e-4)
        assert sol.refinement_levels >= 1
        assert on_gaps == []
        pset = participation_set(sol, specs)
        assert sorted(on_gaps) == [False, True]

        on_gaps.clear()
        copy = participation_set(replace(sol), specs)
        assert sorted(on_gaps) == [False, True]
        assert [pset.p_sm, pset.p_sa, pset.p_ma] == [
            copy.p_sm, copy.p_sa, copy.p_ma]

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
        # each value is the participation of the copy at that cutoff
        assert values[1] == participation_set(
            at_cutoff(sol, 0.1), [DEFAULT_SM_SPEC]).p_sm

    def test_cutoff_the_geometry_refuses_fails(self):
        """A cutoff of half the narrowest strip or more used to drop that
        strip from the integral; like a negative one, it is now refused."""
        sol = solve_cross_section(CrossSection(
            [Strip(0.0, 1.0, 1.0), Strip(5.0, 10.0, -1.0)]))
        assert cutoff_sensitivity(sol, cutoffs_um=[0.1])[0][1] > 0
        for cutoff in (0.5, 0.6, -0.1):
            with pytest.raises(InvalidInputError, match="edge_cutoff must lie"):
                cutoff_sensitivity(sol, cutoffs_um=[cutoff])

    @pytest.mark.parametrize("cutoff_um", [0.02, 0.1, 0.4])
    def test_each_value_is_the_copy_at_that_cutoff(self, cutoff_um):
        """For every region, the value at a cutoff is to the last bit the
        participation of the geometry copied at that cutoff."""
        sol = solve_cross_section(CrossSection(
            [Strip(0.0, 1.0, 1.0), Strip(5.0, 10.0, -1.0)], discretization=16))
        for region in InterfaceRegion:
            spec = replace(DEFAULT_SM_SPEC, region=region)
            [(cutoff, value)] = cutoff_sensitivity(sol, spec, [cutoff_um])
            want = participation_set(at_cutoff(sol, cutoff_um), [spec])[region]
            assert cutoff == cutoff_um
            assert value.hex() == float(want).hex()

    def test_no_per_call_cutoff(self, two_strip_sol):
        """The cutoff is the geometry's ``edge_cutoff``; the entry point
        takes none of its own."""
        with pytest.raises(TypeError, match="cutoff_um"):
            participation_set(two_strip_sol, [DEFAULT_SM_SPEC], cutoff_um=0.1)


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
    21, 41 and 161 fingers at a 0.02 um cutoff."""
    specs = [replace(DEFAULT_SM_SPEC, region=r) for r in InterfaceRegion]
    return {
        n: participation_set(solve_cross_section(replace(interdigital_unit_cell(
            1.0, n, discretization=16 if n < 100 else 8), edge_cutoff=0.02)), specs)
        for n in (11, 21, 41, 161)
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
        """The solved center cell approaches the infinite array as fingers
        are added: p_sm truncation errors of +2.26 %, -0.83 % and -0.30 %."""
        exact = psm_width_sweep([1.0], cutoff_um=0.02)[0].p_sm
        errors = [abs(finite_arrays_1um[n].p_sm / exact - 1.0)
                  for n in (11, 21, 41)]
        assert errors[0] > errors[1] > errors[2]

    def test_161_finger_center_cell_matches_the_periodic_array(
            self, finite_arrays_1um):
        """Every region within 5e-4 (measured -3.8e-4, -0.6e-4, -3.8e-4),
        closer than at 41 fingers."""
        exact = _periodic_idc(1.0, 0.02, DEFAULT_SM_SPEC)
        for region in InterfaceRegion:
            error = finite_arrays_1um[161][region] / exact[region] - 1.0
            assert abs(error) <= 5e-4
            assert abs(error) < abs(finite_arrays_1um[41][region] / exact[region] - 1.0)


class TestWidthSweep:
    def test_single_width_consistent_with_participation_set(self, finite_arrays_1um):
        """A one-width sweep agrees with the solved center cell of a 41-finger
        array to 0.5 % in every region (measured -0.30 %, -0.05 %, -0.30 %)."""
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
            psm_width_sweep([1.0], spec=replace(DEFAULT_SM_SPEC, region=InterfaceRegion.SA))

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
