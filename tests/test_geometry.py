import json
import math
import re
from dataclasses import FrozenInstanceError, replace
from decimal import Decimal

import pytest

from qsurfloss import CrossSection, InvalidInputError, Strip, geometry, interdigital_unit_cell
from qsurfloss.errors import shown
from qsurfloss.geometry import MAX_INTERDIGITAL_FINGERS, load_cross_section


#: The whole rule of each numeric field of a two-strip section of 10 um
#: strips, as its refusal states it.
FIELD_RULES = {
    "strips[1].x_start": "strips[1].x_start must be finite",
    "strips[1].width": "strips[1].width must be finite and > 0",
    "strips[1].potential": "strips[1].potential must be finite",
    "eps_sub_rel": "eps_sub_rel must be finite and >= 1",
    "eps_vac_rel": "eps_vac_rel must be finite and > 0",
    "edge_cutoff": "edge_cutoff must lie in [0, 5.0) um",
    "discretization": "discretization must be an integer >= 8",
}


class TestCrossSectionValidation:
    def test_no_strips_rejected(self):
        with pytest.raises(InvalidInputError, match="at least one strip"):
            CrossSection([])

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

    @pytest.mark.parametrize("build", ["constructor", "document"])
    @pytest.mark.parametrize("field, value", [
        ("discretization", 16.5), ("representative_cell", 1.5),
        ("representative_cell", True),
    ])
    def test_non_integer_count_rejected(self, build, field, value):
        """16.5 terms per strip used to end in a TypeError of the solve, a
        cell index 1.5 in one of ``cell()``, and True was taken as index 1."""
        strips = [Strip(0.0, 10.0, 0.5), Strip(20.0, 10.0, -0.5), Strip(40.0, 10.0, 0.5)]
        with pytest.raises(InvalidInputError, match=field):
            if build == "constructor":
                CrossSection(strips, **{field: value})
            else:
                CrossSection.from_json_dict(
                    {**CrossSection(strips).to_json_dict(), field: value})

    def test_representative_cell_bounds(self):
        with pytest.raises(InvalidInputError, match="representative_cell"):
            CrossSection(
                [Strip(0, 10, 0.5), Strip(20, 10, -0.5)], representative_cell=2
            )

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, 10**400, 10**5000],
        ids=["nan", "inf", "-inf", "int1e400", "int1e5000"])
    @pytest.mark.parametrize("field", [
        "strips[1].x_start", "strips[1].width", "strips[1].potential",
        "eps_sub_rel", "eps_vac_rel", "edge_cutoff", "discretization"])
    def test_non_finite_number_rejected(self, field, value):
        """NaN passes every range comparison, an infinite width used to
        reach the solve as a residual of nan, and an int beyond the float
        range made the finiteness test raise OverflowError, and one of more
        than 4300 digits the message's int-to-str conversion ValueError."""
        strips = [Strip(0.0, 10.0, 0.5), Strip(20.0, 10.0, -0.5)]
        kwargs = {}
        if field.startswith("strips[1]."):
            strips[1] = replace(strips[1], **{field.split(".")[1]: value})
        else:
            kwargs[field] = value
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{FIELD_RULES[field]}, got {shown(value)}")):
            CrossSection(strips, **kwargs)

    @pytest.mark.parametrize("value", ["3", None, Decimal("10"), True],
                             ids=["str", "None", "Decimal", "bool"])
    @pytest.mark.parametrize("field", [
        "strips[1].x_start", "strips[1].width", "strips[1].potential",
        "eps_sub_rel", "eps_vac_rel", "edge_cutoff", "discretization"])
    def test_non_number_rejected(self, field, value):
        """A str or None used to end in the raw TypeError of the
        finiteness test, a Decimal in one of the solve, and True was read
        as 1."""
        strips = [Strip(0.0, 10.0, 0.5), Strip(20.0, 10.0, -0.5)]
        kwargs = {}
        if field.startswith("strips[1]."):
            strips[1] = replace(strips[1], **{field.split(".")[1]: value})
        else:
            kwargs[field] = value
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{FIELD_RULES[field]}, got {value!r}")):
            CrossSection(strips, **kwargs)

    @pytest.mark.parametrize("digits", [4301, 5000, 5001])
    def test_overlong_int_is_shown_by_its_digit_count(self, digits):
        """Both ends of the digit count: 10**(d-1) and -(10**d - 1)."""
        assert shown(10 ** (digits - 1)) == f"an int of {digits} digits"
        assert shown(-(10**digits - 1)) == f"an int of {digits} digits"

    def test_section_is_immutable(self):
        geom = CrossSection([[0.0, 10.0, 0.5], (20.0, 10.0, -0.5)])
        assert geom.strips == (Strip(0.0, 10.0, 0.5), Strip(20.0, 10.0, -0.5))
        with pytest.raises(FrozenInstanceError):
            geom.edge_cutoff = 6.0

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
        assert geom.strips[-1].x_end - geom.strips[0].x_start == pytest.approx(9.0)

    def test_even_finger_count_rejected(self):
        with pytest.raises(InvalidInputError, match="odd"):
            interdigital_unit_cell(10.0, 6)

    def test_too_few_fingers_rejected(self):
        with pytest.raises(InvalidInputError, match=re.escape(
                "n_fingers must be an odd integer in [5, 1001], got 3")):
            interdigital_unit_cell(10.0, 3)

    def test_too_many_fingers_rejected_before_any_strip_is_built(self, monkeypatch):
        """One Strip per finger made 10**8 + 1 fingers about 46 GB."""
        built = []
        monkeypatch.setattr(geometry, "Strip", lambda *args: built.append(args))
        with pytest.raises(InvalidInputError, match=re.escape(
                f"in [5, {MAX_INTERDIGITAL_FINGERS}], got 100000001")):
            interdigital_unit_cell(10.0, 10**8 + 1)
        assert built == []

    def test_most_fingers_accepted(self):
        geom = interdigital_unit_cell(1.0, MAX_INTERDIGITAL_FINGERS)
        assert len(geom.strips) == MAX_INTERDIGITAL_FINGERS
        assert geom.representative_cell == MAX_INTERDIGITAL_FINGERS // 2

    def test_width_range_enforced(self):
        with pytest.raises(InvalidInputError):
            interdigital_unit_cell(0.05, 7)
        with pytest.raises(InvalidInputError):
            interdigital_unit_cell(200.0, 7)

    @pytest.mark.parametrize("width, n_fingers, message", [
        (3.0, 10**5000,
         "n_fingers must be an odd integer in [5, 1001], got an int of 5001 digits"),
        (3.0, math.inf, "n_fingers must be an odd integer in [5, 1001], got inf"),
        (10**5000, 5, "um, got an int of 5001 digits"),
        (10**400, 5, "um, got 1000"),
        (math.nan, 5, "um, got nan"),
        ("2", 7, "um, got '2'"),
        (None, 7, "um, got None"),
        (1.0, 7.0, "n_fingers must be an odd integer in [5, 1001], got 7.0"),
    ], ids=["n-int1e5000", "n-inf", "width-int1e5000",
            "width-int1e400", "width-nan", "width-str", "width-None",
            "n-float"])
    def test_non_finite_argument_rejected(self, width, n_fingers, message):
        """An int of more than 4300 digits used to end in the message's
        int-to-str ValueError, a width beyond the float range in the
        OverflowError of float(), and a str or None width in the raw
        TypeError of the range test."""
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            interdigital_unit_cell(width, n_fingers)

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
        path.write_text(json.dumps(geom.to_json_dict()))
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
        with pytest.raises(InvalidInputError,
                           match="^discretization must be an integer >= 8, got 'a'$"):
            load_cross_section(path)

    @pytest.mark.parametrize("field, value, message", [
        ("x_start", "0", "strips[0].x_start must be finite, got '0'"),
        ("width", "10", "strips[0].width must be finite and > 0, got '10'"),
        ("potential", True, "strips[0].potential must be finite, got True"),
        ("eps_sub_rel", "10.15", "eps_sub_rel must be finite and >= 1, got '10.15'"),
        ("eps_vac_rel", True, "eps_vac_rel must be finite and > 0, got True"),
        ("edge_cutoff", False, "edge_cutoff must lie in [0, 1.5) um, got False"),
        ("discretization", "16", "discretization must be an integer >= 8, got '16'"),
        ("representative_cell", True,
         "representative_cell must be an integer in [0, 4], got True"),
    ], ids=["x_start-str", "width-str", "potential-bool", "eps_sub_rel-str",
            "eps_vac_rel-bool", "edge_cutoff-bool", "discretization-str",
            "representative_cell-bool"])
    def test_string_or_bool_number_rejected(self, tmp_path, field, value, message):
        """The reader cast a document's numbers with ``float()``, so
        ``"x_start": "0"`` loaded as 0.0, ``"potential": true`` as 1.0 V and
        ``"edge_cutoff": false`` as 0.0; they now reach the door as JSON
        holds them."""
        path = tmp_path / "bad.json"
        doc = interdigital_unit_cell(3.0, 5).to_json_dict()
        if field in Strip.__dataclass_fields__:
            doc["strips"][0][field] = value
        else:
            doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            load_cross_section(path)

    def test_absent_fields_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "geom.json"
        strips = [Strip(0.0, 10.0, 0.5), Strip(20.0, 10.0, -0.5)]
        path.write_text(json.dumps({"strips": [vars(s) for s in strips]}))
        assert load_cross_section(path) == CrossSection(strips)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_non_finite_permittivity_rejected(self, tmp_path, value):
        """A NaN permittivity used to fail in the solve as a stored energy
        of nan J/m; json writes and reads it as the literal NaN."""
        path = tmp_path / "bad.json"
        doc = interdigital_unit_cell(3.0, 5).to_json_dict()
        path.write_text(json.dumps({**doc, "eps_sub_rel": value}))
        with pytest.raises(InvalidInputError, match="eps_sub_rel must be finite"):
            load_cross_section(path)

    def test_overflowing_discretization_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = interdigital_unit_cell(3.0, 5).to_json_dict()
        path.write_text(json.dumps({**doc, "discretization": 1e400}))
        with pytest.raises(InvalidInputError,
                           match="^discretization must be an integer >= 8, got inf$"):
            load_cross_section(path)

    def test_invalid_geometry_keeps_its_message(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = interdigital_unit_cell(3.0, 5).to_json_dict()
        path.write_text(json.dumps({**doc, "discretization": 4}))
        with pytest.raises(InvalidInputError) as info:
            load_cross_section(path)
        assert str(info.value) == (
            "discretization must be an integer >= 8, got 4")
