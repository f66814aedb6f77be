"""Two doors for every numeric argument: one for numbers, one for counts.

``errors.is_finite`` takes a number to be a ``numbers.Real`` other than a
bool (a float, an int, a numpy scalar or a ``Fraction``) within the float
range.  ``errors.shown`` quotes any other value by its repr.  The door of
numbers, ``errors.real`` and ``errors.reals``, admits a finite number by
that rule and converts it to float once: every class it feeds stores a
float (a float64 array for a trace), whatever kind of number it was given.
The door of counts, ``errors.integer``, admits a ``numbers.Integral``
other than a bool within the float range and converts it to int once:
every count and index is stored as a Python int.  A cross-section document
passes its JSON values to both doors as they are.
"""

import json
import math
import re
import warnings
from dataclasses import astuple, fields
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsurfloss import (
    CrossSection,
    DecayTrace,
    DeviceRecord,
    InterfaceSpec,
    InvalidInputError,
    LossDataPoint,
    PurcellParams,
    QSurfLossError,
    Strip,
    SweepConfig,
    T1Estimate,
    cutoff_sensitivity,
    interdigital_unit_cell,
    load_cross_section,
    psm_width_sweep,
    purcell_limit,
    purcell_subtract_q,
)
from qsurfloss.errors import integer, is_finite, shown


class TestPredicates:
    @pytest.mark.parametrize("value", [
        1.0, -3, 0, np.float32(2.5), np.float64(-1e308), np.int64(7),
        Fraction(1, 3), 10**300])
    def test_finite_real_numbers(self, value):
        assert is_finite(value)

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf, 10**400, Fraction(10**400, 3), True,
        np.bool_(False), Decimal("1"), 1j, "1", None, [1.0]])
    def test_non_finite_or_non_real(self, value):
        assert not is_finite(value)

    def test_integers(self):
        """A count is an int within the float range: 10**5000 is refused."""
        for value in (0, -5, np.int64(3), np.uint8(7)):
            count = integer(value, "n")
            assert type(count) is int and count == value
        for value in (10**5000, True, np.bool_(True), 7.0, Fraction(7),
                      Decimal(7), "7", None):
            with pytest.raises(InvalidInputError,
                               match=f"^n, got {re.escape(shown(value))}$"):
                integer(value, "n")

    @pytest.mark.parametrize("value, text", [
        (Decimal("0.1"), "Decimal('0.1')"), ("3", "'3'"), (1j, "1j"),
        (None, "None"), (True, "True"), (2.5, "2.5"), (Fraction(1, 3), "1/3"),
        ([10**5000], "an object of type list")])
    def test_shown(self, value, text):
        assert shown(value) == text


def test_decimal_layer_of_a_sweep_is_refused():
    """A Decimal thickness used to reach the sweep and end there in a raw
    TypeError."""
    with pytest.raises(InvalidInputError, match=(
            r"^layer thickness_nm must be finite and > 0, got Decimal\('1'\)$")):
        psm_width_sweep([1.0], InterfaceSpec("SM", Decimal("1"), 10.15))


#: Each class the door feeds, built with every number of one kind ``k``, and
#: the fields that store those numbers.
STORED = {
    "CrossSection": (lambda k: CrossSection(
        [Strip(k(0), k(10), k(1)), Strip(k(20), k(10), k(-1))], k(10), k(1), k(1)),
        ("strips", "eps_sub_rel", "eps_vac_rel", "edge_cutoff")),
    "DecayTrace": (lambda k: DecayTrace([k(i) for i in range(8)],
                                        [k(8 - i) for i in range(8)]),
                   ("delays_us", "populations")),
    "DeviceRecord": (lambda k: DeviceRecord(
        "D1-1", "dumbbell_2d", k(4), k(6), k(40), k(100), k(5), k(10), k(10**6),
        k(10**5), k(1), k(2)),
        ("omega_q_ghz", "omega_c_ghz", "g_mhz", "t1_mean_us", "t1_std_us",
         "t_purcell_ms", "q_mean", "q_std", "p_sm", "p_j")),
    "InterfaceSpec": (lambda k: InterfaceSpec("SM", k(1), k(10)),
                      ("thickness_nm", "eps_rel")),
    "LossDataPoint": (lambda k: LossDataPoint(k(1), k(2), k(10**6), k(10**5)),
                      ("p_sm", "p_j", "q_mean", "q_std")),
    "PurcellParams.delta+g": (
        lambda k: PurcellParams(k(2 * 10**5), delta=k(10**10), g=k(2 * 10**8)),
        ("kappa", "delta", "g")),
    "PurcellParams.g+chi": (
        lambda k: PurcellParams(k(2 * 10**5), g=k(2 * 10**8), chi=k(4 * 10**6)),
        ("kappa", "g", "chi")),
    "SweepConfig": (lambda k: SweepConfig(k(4), k(20), 20, k(1), k(10), k(1)),
                    ("width_min_um", "width_max_um", "t_sm_nm", "eps_sm_rel",
                     "cutoff_um")),
    "T1Estimate": (lambda k: T1Estimate(k(100), k(2), 1.0, 0.0),
                   ("t1_us", "fit_err_us")),
}


@pytest.mark.parametrize("kind", [np.float32, int, Fraction],
                         ids=["float32", "int", "Fraction"])
@pytest.mark.parametrize("name", sorted(STORED))
def test_numbers_are_stored_as_float(name, kind):
    """Past the door every number is a float, or a float64 array for a
    trace, equal to what floats build.  A float32 layer thickness used to
    carry float32 rounding into p_sm, and a Fraction Purcell parameter to
    reach a ``:.3g`` message that it does not support."""
    build, names = STORED[name]
    built, reference = build(kind), build(float)
    for field in names:
        value = getattr(built, field)
        assert np.array_equal(value, getattr(reference, field)), field
        if field == "strips":
            assert {type(v) for s in value for v in astuple(s)} == {float}
        elif name == "DecayTrace":
            assert type(value) is np.ndarray and value.dtype == np.float64
        else:
            assert type(value) is float, field


#: Each class that stores what the door of counts returns, built with one
#: count of kind ``k``, and the field that stores it.
COUNTS = {
    "SweepConfig.points": (lambda k: SweepConfig(points=k(20)), "points"),
    "CrossSection.discretization": (
        lambda k: CrossSection([Strip(0, 10, 1), Strip(20, 10, -1)],
                               discretization=k(16)), "discretization"),
    "CrossSection.representative_cell": (
        lambda k: CrossSection([Strip(0, 10, 1), Strip(20, 10, -1)],
                               representative_cell=k(1)), "representative_cell"),
}


@pytest.mark.parametrize("kind", [np.int64, np.uint8], ids=["int64", "uint8"])
@pytest.mark.parametrize("name", sorted(COUNTS))
def test_counts_are_stored_as_int(name, kind):
    """Past the door every count is a Python int.  A uint8 count used to be
    kept as given, so a product of it with the strip count wrapped."""
    build, field = COUNTS[name]
    value = getattr(build(kind), field)
    assert type(value) is int and value == getattr(build(int), field)


#: Any value of any type: numbers of every kind, in and out of range, and
#: values that are not numbers.
ANY_VALUE = st.one_of(
    st.none(), st.booleans(), st.booleans().map(np.bool_),
    st.integers(), st.sampled_from([10**400, -(10**5000)]),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(), st.floats(width=32).map(np.float32),
    st.fractions(), st.decimals(), st.complex_numbers(),
    st.text(max_size=4), st.binary(max_size=4),
    st.lists(st.floats(), max_size=3), st.builds(object),
)


def _record(device_id, geometry):
    """A device record with the given text fields and valid numbers."""
    return DeviceRecord(device_id, geometry, 4.0, 6.0, 40.0, 100.0, None, 10.0,
                        1e6, None, 1e-4, 1e-5)


#: Each argument of the checked entry points, as a call with any value in
#: its place and valid values in the others.
CALLS = {
    "InterfaceSpec.thickness_nm": lambda v: InterfaceSpec("SM", v, 10.15),
    "InterfaceSpec.eps_rel": lambda v: InterfaceSpec("SM", 1.0, v),
    "psm_width_sweep.width": lambda v: psm_width_sweep([v]),
    "psm_width_sweep.second_width": lambda v: psm_width_sweep([0.1, v]),
    "psm_width_sweep.cutoff_um": lambda v: psm_width_sweep([1.0], cutoff_um=v),
    "cutoff_sensitivity.width_um": lambda v: cutoff_sensitivity(v),
    "cutoff_sensitivity.cutoff": lambda v: cutoff_sensitivity(10.0, cutoffs_um=[v]),
    "interdigital_unit_cell.width": lambda v: interdigital_unit_cell(v, 7),
    "interdigital_unit_cell.n_fingers": lambda v: interdigital_unit_cell(1.0, v),
    "interdigital_unit_cell.discretization": (
        lambda v: interdigital_unit_cell(1.0, 7, v)),
    "purcell_subtract_q.t1_us": lambda v: purcell_subtract_q(v, 10.0, 5.0),
    "purcell_subtract_q.t_purcell_ms": lambda v: purcell_subtract_q(100.0, v, 5.0),
    "purcell_subtract_q.omega_q_ghz": lambda v: purcell_subtract_q(100.0, 10.0, v),
    "DeviceRecord.device_id": lambda v: _record(v, "dumbbell_2d"),
    "DeviceRecord.geometry": lambda v: _record("D1-1", v),
}


@given(argument=st.sampled_from(sorted(CALLS)), value=ANY_VALUE)
@settings(max_examples=1000, deadline=None)
def test_any_value_gives_a_result_or_one_typed_error(argument, value):
    """Nothing but a ``QSurfLossError`` escapes, and no RuntimeWarning (an
    error in this suite) is raised on the way."""
    try:
        CALLS[argument](value)
    except QSurfLossError:
        pass


def _limit(**given):
    """``purcell_limit`` of the given parameters, without its warning of a
    small dispersive ratio (a UserWarning; a RuntimeWarning still fails)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return purcell_limit(PurcellParams(**given))


def _section(**given):
    """A section of two 10 um strips, at +1 and -1 V, with the given fields."""
    return CrossSection([Strip(0.0, 10.0, 1.0), Strip(20.0, 10.0, -1.0)], **given)


#: Each field that one door checks with its whole rule, as a construction
#: with any value in that field and valid values in the others; the key
#: names the field after its class.  The strip whose width varies is the
#: last, so that no width makes the strips overlap, and the cutoff is 0.
FIELD_DOORS = {
    "CrossSection.strips[1].width": lambda v: CrossSection(
        [Strip(0.0, 10.0, 1.0), Strip(20.0, v, -1.0)], edge_cutoff=0.0),
    "CrossSection.eps_sub_rel": lambda v: _section(eps_sub_rel=v),
    "CrossSection.eps_vac_rel": lambda v: _section(eps_vac_rel=v),
    "CrossSection.edge_cutoff": lambda v: _section(edge_cutoff=v),
    "CrossSection.discretization": lambda v: _section(discretization=v),
    "CrossSection.representative_cell": lambda v: _section(representative_cell=v),
    "InterfaceSpec.thickness_nm": lambda v: InterfaceSpec("SM", v, 10.15),
    "InterfaceSpec.eps_rel": lambda v: InterfaceSpec("SM", 1.0, v),
    "PurcellParams.kappa": lambda v: PurcellParams(v, delta=1e10, g=2e8),
    "PurcellParams.delta": lambda v: PurcellParams(2e5, delta=v, g=2e8),
    "PurcellParams.g": lambda v: PurcellParams(2e5, g=v, chi=4e6),
    "SweepConfig.points": lambda v: SweepConfig(points=v),
}

#: The refusals of a rule between fields, which name no one value: a None
#: that leaves out a second of delta, g and chi, and a strip width whose
#: half rounds to 0, leaving no cutoff in [0, w / 2).
CROSS_FIELD_RULES = ("provide exactly two of delta, g and chi",
                     "edge_cutoff must lie in [0, 0.0) um")

#: Each numeric field of the classes that store what the door returns, as a
#: construction with any value in its place and valid values in the others.
STORING_CALLS = {
    **FIELD_DOORS,
    "DecayTrace.delays_us": lambda v: DecayTrace(v, range(8)),
    "DecayTrace.populations": lambda v: DecayTrace(range(8), v),
    "purcell_limit.kappa": lambda v: _limit(kappa=v, delta=1e10, g=2e8),
    "purcell_limit.delta": lambda v: _limit(kappa=2e5, delta=v, g=2e8),
    "purcell_limit.g": lambda v: _limit(kappa=2e5, g=v, chi=4e6),
    "purcell_limit.chi": lambda v: _limit(kappa=2e5, delta=1e10, chi=v),
    "T1Estimate.t1_us": lambda v: T1Estimate(v, 1.0, 1.0, 0.0),
    "T1Estimate.fit_err_us": lambda v: T1Estimate(100.0, v, 1.0, 0.0),
    "LossDataPoint.p_sm": lambda v: LossDataPoint(v, 1e-5, 1e6, 1e5),
    "LossDataPoint.p_j": lambda v: LossDataPoint(1e-4, v, 1e6, 1e5),
    "LossDataPoint.q_mean": lambda v: LossDataPoint(1e-4, 1e-5, v, 1e5),
    "LossDataPoint.q_std": lambda v: LossDataPoint(1e-4, 1e-5, 1e6, v),
}


@given(argument=st.sampled_from(sorted(STORING_CALLS)), value=ANY_VALUE)
@settings(max_examples=1000, deadline=None)
def test_any_value_is_stored_as_a_finite_float_or_refused(argument, value):
    """The same for the fields the door feeds, kept apart from the entry
    points above so that each keeps its share of examples; whatever is
    built stores finite floats.  A field checked by one door is refused
    with a message whose subject names it and that ends in the value."""
    try:
        built = STORING_CALLS[argument](value)
    except QSurfLossError as exc:
        message = str(exc)
        if argument in FIELD_DOORS and not message.startswith(CROSS_FIELD_RULES):
            field = argument.split(".", 1)[1]
            assert field in message.split(" must ")[0].split(), message
            assert message.endswith(f", got {shown(value)}"), message
        return
    if isinstance(built, DecayTrace):
        for array in (built.delays_us, built.populations):
            assert array.dtype == np.float64 and np.isfinite(array).all()
    elif not isinstance(built, float):  # a limit is a float, inf included
        stored = [getattr(built, f.name) for f in fields(built)]
        if isinstance(built, CrossSection):  # the strips' numbers, not their tuple
            stored = [v for v in stored if not isinstance(v, tuple)] + [
                v for strip in built.strips for v in astuple(strip)]
        # None is a left-out q_std; a str or an int is not a stored number
        assert all(type(v) is float and math.isfinite(v) for v in stored
                   if not isinstance(v, (str, int, type(None))))


#: Any JSON value: a scalar of each kind, or an array or object of them.
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(max_size=4))
JSON_VALUES = JSON_SCALARS | st.lists(JSON_SCALARS, max_size=3) | st.dictionaries(
    st.text(max_size=4), JSON_SCALARS, max_size=3)

#: A cross-section document with three strips, the middle one representative.
DOCUMENT = CrossSection([Strip(0.0, 10.0, 0.5), Strip(20.0, 10.0, -0.5),
                         Strip(40.0, 10.0, 0.5)], representative_cell=1).to_json_dict()
#: The path of each numeric field of ``DOCUMENT``, and whether it is a count.
DOCUMENT_NUMBERS = {
    **{("strips", i, name): False for i in range(3)
       for name in ("x_start", "width", "potential")},
    **{(name,): False for name in ("eps_sub_rel", "eps_vac_rel", "edge_cutoff")},
    **{(name,): True for name in ("discretization", "representative_cell")},
}


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "section.json"


@given(path=st.sampled_from(sorted(DOCUMENT_NUMBERS, key=str)), value=JSON_VALUES)
@settings(max_examples=1000, deadline=None)
def test_any_json_value_in_a_document_is_stored_or_refused(document_path, path,
                                                           value):
    """A document's number reaches the doors as JSON holds it: a number of
    the field's kind is stored as float (or int, for a count) or refused
    typed, and a string, a bool, an array or an object is refused, as is
    null except as a ``representative_cell``, where it means none.  The
    reader used to cast with ``float()``, so ``"0"`` and ``true`` loaded."""
    doc = json.loads(json.dumps(DOCUMENT))
    *parents, key = path
    target = doc
    for step in parents:
        target = target[step]
    target[key] = value
    document_path.write_text(json.dumps(doc))
    try:
        section = load_cross_section(document_path)
    except QSurfLossError:
        return
    stored = section.strips[path[1]] if path[0] == "strips" else section
    stored = getattr(stored, key)
    if value is None:
        assert key == "representative_cell" and stored is None
    elif DOCUMENT_NUMBERS[path]:
        assert type(value) is int and type(stored) is int and stored == value
    else:
        assert type(value) in (int, float) and type(stored) is float
        assert stored == float(value)
