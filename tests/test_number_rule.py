"""One number rule and one integer rule for every numeric argument.

``errors.is_finite`` takes a number to be a ``numbers.Real`` other than a
bool (a float, an int, a numpy scalar or a ``Fraction``), and
``errors.is_integer`` a count or an index to be a ``numbers.Integral``
other than a bool.  ``errors.shown`` quotes any other value by its repr.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsurfloss import (
    InterfaceRegion,
    InterfaceSpec,
    InvalidInputError,
    QSurfLossError,
    cutoff_sensitivity,
    interdigital_unit_cell,
    psm_width_sweep,
    purcell_subtract_q,
)
from qsurfloss.errors import is_finite, is_integer, shown


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
        for value in (0, -5, 10**5000, np.int64(3), np.uint8(7)):
            assert is_integer(value)
        for value in (True, np.bool_(True), 7.0, Fraction(7), Decimal(7),
                      "7", None):
            assert not is_integer(value)

    @pytest.mark.parametrize("value, text", [
        (Decimal("0.1"), "Decimal('0.1')"), ("3", "'3'"), (1j, "1j"),
        (None, "None"), (True, "True"), (2.5, "2.5"), (Fraction(1, 3), "1/3")])
    def test_shown(self, value, text):
        assert shown(value) == text


def test_decimal_layer_of_a_sweep_is_refused():
    """A Decimal thickness used to reach the sweep and end there in a raw
    TypeError."""
    with pytest.raises(InvalidInputError, match=(
            r"^layer thickness_nm must be finite, got Decimal\('1'\)$")):
        psm_width_sweep([1.0], InterfaceSpec("SM", Decimal("1"), 10.15))


def test_layer_numbers_are_stored_as_float():
    """A float32 thickness used to carry float32 rounding into p_sm."""
    spec = InterfaceSpec(InterfaceRegion.SM, np.float32(1.0), Fraction(203, 20))
    assert type(spec.thickness_nm) is float and type(spec.eps_rel) is float
    assert spec == InterfaceSpec(InterfaceRegion.SM, 1.0, 10.15)
    assert psm_width_sweep([1.0], spec)[0].p_sm == 0.0026855403520031954


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

#: Each numeric argument of the checked entry points, as a call with any
#: value in its place and valid values in the others.
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
