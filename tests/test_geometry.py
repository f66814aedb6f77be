import json

import pytest

from qsurfloss import CrossSection, InvalidInputError, Strip, interdigital_unit_cell
from qsurfloss.geometry import dump_cross_section, load_cross_section


class TestCrossSectionValidation:
    def test_overlapping_strips_rejected(self):
        with pytest.raises(InvalidInputError, match="overlap"):
            CrossSection([Strip(0, 10, 0.5), Strip(5, 10, -0.5)])

    def test_unsorted_strips_rejected(self):
        with pytest.raises(InvalidInputError):
            CrossSection([Strip(20, 10, 0.5), Strip(0, 10, -0.5)])

    def test_touching_strips_rejected(self):
        with pytest.raises(InvalidInputError, match="touch"):
            CrossSection([Strip(0, 10, 0.5), Strip(10, 10, -0.5)])

    def test_zero_width_rejected(self):
        with pytest.raises(InvalidInputError, match="width"):
            CrossSection([Strip(0, 0.0, 0.5), Strip(20, 10, -0.5)])

    def test_substrate_permittivity_below_one_rejected(self):
        with pytest.raises(InvalidInputError, match="eps_sub_rel"):
            CrossSection([Strip(0, 10, 0.5), Strip(20, 10, -0.5)], eps_sub_rel=0.5)

    def test_cutoff_must_be_below_half_width(self):
        with pytest.raises(InvalidInputError, match="edge_cutoff"):
            CrossSection(
                [Strip(0, 10, 0.5), Strip(20, 1.0, -0.5)], edge_cutoff=0.5
            )

    def test_coarse_discretization_rejected(self):
        with pytest.raises(InvalidInputError, match="discretization"):
            CrossSection(
                [Strip(0, 10, 0.5), Strip(20, 10, -0.5)], discretization=4
            )

    def test_representative_cell_bounds(self):
        with pytest.raises(InvalidInputError, match="representative_cell"):
            CrossSection(
                [Strip(0, 10, 0.5), Strip(20, 10, -0.5)], representative_cell=2
            )

    def test_potential_replacement_checks_length(self):
        geom = CrossSection([Strip(0, 10, 0.5), Strip(20, 10, -0.5)])
        with pytest.raises(InvalidInputError):
            geom.with_potentials([1.0])
        swapped = geom.with_potentials([-0.5, 0.5])
        assert swapped.potentials == [-0.5, 0.5]


class TestInterdigitalUnitCell:
    def test_seven_finger_layout(self):
        geom = interdigital_unit_cell(10.0, 7)
        assert len(geom.strips) == 7
        assert all(s.width == 10.0 for s in geom.strips)
        gaps = [
            b.x_start - a.x_end for a, b in zip(geom.strips, geom.strips[1:])
        ]
        assert gaps == [10.0] * 6
        assert geom.potentials == [0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 0.5]
        assert geom.representative_cell == 3

    def test_total_extent_five_fingers(self):
        # 5 strips of 1 um and 4 gaps of 1 um span 9 um
        geom = interdigital_unit_cell(1.0, 5)
        lo, hi = geom.extent
        assert hi - lo == pytest.approx(9.0)

    def test_even_finger_count_rejected(self):
        with pytest.raises(InvalidInputError, match="odd"):
            interdigital_unit_cell(10.0, 6)

    def test_too_few_fingers_rejected(self):
        with pytest.raises(InvalidInputError, match=">= 5"):
            interdigital_unit_cell(10.0, 3)

    def test_width_range_enforced(self):
        with pytest.raises(InvalidInputError):
            interdigital_unit_cell(0.05, 7)
        with pytest.raises(InvalidInputError):
            interdigital_unit_cell(200.0, 7)

    def test_cutoff_scales_with_width(self):
        assert interdigital_unit_cell(1.0, 7).edge_cutoff == pytest.approx(1e-3)
        assert interdigital_unit_cell(20.0, 7).edge_cutoff == pytest.approx(2e-2)


class TestScaling:
    def test_scaled_copy(self):
        geom = interdigital_unit_cell(2.0, 5)
        big = geom.scaled(3.0)
        assert big.strips[1].x_start == pytest.approx(3 * geom.strips[1].x_start)
        assert big.edge_cutoff == pytest.approx(3 * geom.edge_cutoff)

    def test_bad_scale_factor(self):
        geom = interdigital_unit_cell(2.0, 5)
        with pytest.raises(InvalidInputError):
            geom.scaled(0.0)


class TestJsonInterface:
    def test_round_trip(self, tmp_path):
        geom = interdigital_unit_cell(3.0, 5, discretization=64)
        path = tmp_path / "geom.json"
        dump_cross_section(geom, path)
        loaded = load_cross_section(path)
        assert loaded == geom

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"eps_sub_rel": 10.15}))
        with pytest.raises(InvalidInputError):
            load_cross_section(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"strips": [')
        with pytest.raises(InvalidInputError, match="bad cross-section document"):
            load_cross_section(path)

    def test_non_integer_discretization_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = interdigital_unit_cell(3.0, 5).to_json_dict()
        path.write_text(json.dumps({**doc, "discretization": "a"}))
        with pytest.raises(InvalidInputError, match="bad cross-section document"):
            load_cross_section(path)

    def test_invalid_geometry_keeps_its_message(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = interdigital_unit_cell(3.0, 5).to_json_dict()
        path.write_text(json.dumps({**doc, "discretization": 4}))
        with pytest.raises(InvalidInputError) as info:
            load_cross_section(path)
        assert str(info.value) == (
            "discretization must be >= 8 elements per strip, got 4")
