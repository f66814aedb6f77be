import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import epsilon_0
from scipy.special import ellipk

from qsurfloss import (
    CrossSection,
    Strip,
    bundled_device_table,
    group_for_fit,
    interdigital_unit_cell,
    solve_cross_section,
)


def cps_capacitance(width_um: float, gap_um: float, eps_sub_rel: float) -> float:
    """Conformal-mapping capacitance of two coplanar strips, F/m.

    Independent analytic oracle: strips of equal width w separated by gap s
    on a dielectric half-space map to ``C = eps0 (1+eps_r)/2 K(k')/K(k)``
    with modulus k = s/(s + 2w) (half-gap over outer half-width).
    """
    k = gap_um / (gap_um + 2.0 * width_um)
    kp = np.sqrt(1.0 - k * k)
    return epsilon_0 * 0.5 * (1.0 + eps_sub_rel) * ellipk(kp**2) / ellipk(k**2)


def scaled(geom: CrossSection, factor: float) -> CrossSection:
    """The copy of ``geom`` with every lateral length, its edge cutoff
    too, times ``factor``."""
    strips = [Strip(s.x_start * factor, s.width * factor, s.potential)
              for s in geom.strips]
    return replace(geom, strips=strips, edge_cutoff=geom.edge_cutoff * factor)


def with_potentials(geom: CrossSection, potentials) -> CrossSection:
    """The copy of ``geom`` with one potential per strip, in order."""
    return replace(geom, strips=[replace(s, potential=v) for s, v in
                                 zip(geom.strips, potentials, strict=True)])


@pytest.fixture(autouse=True)
def recursion_limit_kept():
    """Fail a test after which the interpreter's recursion limit differs
    from its value before the test: nothing may change that global."""
    limit = sys.getrecursionlimit()
    yield
    assert sys.getrecursionlimit() == limit, "the test changed the recursion limit"


@pytest.fixture(scope="session")
def two_strip_geom() -> CrossSection:
    """10 um strips with a 10 um gap at +/-0.5 V on sapphire."""
    return CrossSection(
        [Strip(0.0, 10.0, +0.5), Strip(20.0, 10.0, -0.5)],
        eps_sub_rel=10.15,
        discretization=16,
    )


@pytest.fixture(scope="session")
def two_strip_sol(two_strip_geom):
    return solve_cross_section(two_strip_geom)


@pytest.fixture(scope="session")
def interdigital_sol_1um():
    return solve_cross_section(interdigital_unit_cell(1.0, 7, discretization=16))


@pytest.fixture(scope="session")
def records():
    return bundled_device_table()


@pytest.fixture(scope="session")
def grouped_points(records):
    return group_for_fit(records, mode="per_die_design")
