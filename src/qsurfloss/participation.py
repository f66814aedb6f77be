"""Thin-lossy-layer participation ratios of coplanar capacitor cross sections.

Each interface (substrate-metal, substrate-air, metal-air) is a thin layer of
thickness t and permittivity eps_i in which the field is taken uniform across
the thickness.  The layer energy per unit length is

    u_i = 1/2 * eps_i * t * integral |E_layer|^2 dx

with E_layer obtained from the surface solution by the region's field rule:

* SM and MA: purely normal field on the substrate (SM) or vacuum (MA) face of
  the metal.  Both faces carry the same ``E_perp = sigma / (2 eps_bar)``, and
  continuity of the normal displacement gives ``E_layer = (eps_side / eps_i)
  * E_perp`` with eps_side = eps_sub for SM and eps_vac for MA.
* SA: layer just inside the exposed substrate; the tangential component is
  continuous and the normal component is identically zero at y = 0 in the
  zero-thickness model, so only ``E_par`` contributes.

The surface charge (and with it E^2) diverges as 1/r toward strip edges, so
every layer integral excludes a cutoff distance around each strip edge; the
participation ratio is u_i over the total electric energy per unit length.

A solved cross section (:func:`participation_set`) serves any strip layout.
The width sweep (:func:`psm_width_sweep`) and the cutoff-sensitivity block
(:func:`cutoff_sensitivity`) are the infinite interdigital array, whose
conformal map gives the same integrals in closed form with no solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

from .errors import InvalidInputError, _Option, real, write_csv
from .geometry import (
    INTERDIGITAL_CUTOFF_FRACTION,
    SAPPHIRE_EPS_REL,
    check_edge_cutoff,
    check_interdigital_width,
)
from .solver import FieldSolution, edge_cut_square_integral, epsilon_0

NM = 1e-9

#: Disordered-layer thickness at the substrate-metal interface, nm.
SM_LAYER_THICKNESS_NM = 1.0
#: Edge cutoffs of the standard cutoff-sensitivity study, um.
SENSITIVITY_CUTOFFS_UM = (0.05, 0.1, 0.2)


class InterfaceRegion(_Option):
    SM = "SM"
    SA = "SA"
    MA = "MA"


@dataclass(frozen=True)
class InterfaceSpec:
    """One lossy layer: region, thickness (nm) > 0 and relative permittivity
    >= 1, both stored as float; a refusal reads ``layer <field> must be
    finite and <rule>, got <value>``."""

    region: InterfaceRegion
    thickness_nm: float = SM_LAYER_THICKNESS_NM
    eps_rel: float = SAPPHIRE_EPS_REL

    def __post_init__(self) -> None:
        object.__setattr__(self, "region", InterfaceRegion(self.region))
        for name, rule, ok in (("thickness_nm", "> 0", lambda t: t > 0),
                               ("eps_rel", ">= 1", lambda e: e >= 1.0)):
            object.__setattr__(self, name, real(
                getattr(self, name), f"layer {name} must be finite and {rule}", ok))


#: Default substrate-metal layer (1 nm disordered layer, sapphire-like).
DEFAULT_SM_SPEC = InterfaceSpec(InterfaceRegion.SM)


@dataclass
class ParticipationSet:
    """Participation ratios of the requested interfaces for one geometry.

    Regions that were not requested are ``None`` (absent), not zero.
    """

    p_sm: float | None
    p_sa: float | None
    p_ma: float | None

    def __post_init__(self) -> None:
        for name in ("p_sm", "p_sa", "p_ma"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise InvalidInputError(
                    f"{name} = {value:.3e} outside [0, 1]; the thin-layer "
                    "approximation has broken down"
                )

    def __getitem__(self, region: InterfaceRegion) -> float | None:
        return {
            InterfaceRegion.SM: self.p_sm,
            InterfaceRegion.SA: self.p_sa,
            InterfaceRegion.MA: self.p_ma,
        }[InterfaceRegion(region)]


def participation_set(
    sol: FieldSolution, specs: Sequence[InterfaceSpec]
) -> ParticipationSet:
    """Participation ratio of each requested interface layer at the
    geometry's edge cutoff.

    ``p_region = u_region / U``: the energy stored in the region's layer,
    whose integral excludes the cutoff around every strip edge, over U, the
    total energy per unit length, both over the representative cell when the
    geometry flags one (finger arrays).  The geometry checked its cutoff
    when it was built and the edge-cut integral refuses a zero one; this
    entry refuses duplicate regions in ``specs``.  Regions not requested
    come back as ``None``.  Each call takes one edge-cut integral per field
    component it needs, over the strips for SM and MA (which differ by a
    constant factor) and over the gaps for SA.  Another cutoff is that of
    the copy ``dataclasses.replace(geom, edge_cutoff=c)``.
    """
    geom = sol.geometry
    u_total = sol.cell()[2]
    values: dict[InterfaceRegion, float] = {}
    integrals: dict[bool, float] = {}
    for spec in specs:
        if spec.region in values:
            raise InvalidInputError("duplicate interface regions in specs")
        gaps = spec.region is InterfaceRegion.SA
        if gaps and not sol.gaps:
            raise InvalidInputError(
                "no gap field samples available for the SA region"
            )
        eps_i = spec.eps_rel * epsilon_0
        if gaps not in integrals:
            integrals[gaps] = edge_cut_square_integral(sol, gaps=gaps)
        total = integrals[gaps]
        if not gaps:
            scale = (geom.eps_sub_rel if spec.region is InterfaceRegion.SM
                     else geom.eps_vac_rel) * epsilon_0 / eps_i
            total = scale**2 * total
        u_layer = 0.5 * eps_i * (spec.thickness_nm * NM) * total
        values[spec.region] = u_layer / u_total
    return ParticipationSet(*(values.get(region) for region in InterfaceRegion))


@dataclass
class SweepPoint:
    """One width point of a participation sweep; ``error`` set on failure."""

    width_um: float
    p_sm: float | None = None
    p_sa: float | None = None
    p_ma: float | None = None
    cutoff_um: float | None = None
    error: str | None = None


#: K(1/sqrt(2)), the complete elliptic integral of the first kind at the
#: modulus of an interdigital array whose gap equals its finger width.
_K_EQUAL_GAP = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi))


def _check_cutoff(cutoff_um: float, narrowest_um: float, widest_um: float) -> float:
    """Reject an edge cutoff that the exact array cannot take at some width
    from ``narrowest_um`` to ``widest_um``: one outside [0, w / 2) at the
    narrowest, or one whose ratio to the widest is zero, where ln(1 / cutoff)
    has no finite value.  Return it as a float."""
    cutoff_um = check_edge_cutoff(cutoff_um, narrowest_um)
    if cutoff_um / widest_um == 0.0:  # zero, or too small against the width
        raise InvalidInputError(
            f"edge_cutoff must be > 0 against a width of {widest_um} um: the "
            "edge integrals of the exact array diverge as ln(1 / cutoff)"
        )
    return cutoff_um


def _periodic_idc(
    width_um: float, cutoff_um: float, spec: InterfaceSpec
) -> dict[InterfaceRegion, float]:
    """Participation of the SM, SA and MA layers, keyed by region in that
    order, in one cell of the infinite interdigital array on sapphire, gap =
    finger width = w, every layer set by ``spec``.  Nothing is checked: the
    callers check the cutoff and hold the values to [0, 1].

    The map t = sin^2(pi x / P), P = 2w, and a Schwarz-Christoffel map take
    the alternately driven (+-V) array to a rectangle (Igreja & Dias, Sens.
    Actuators A 112, 291 (2004)).  At gap = width the modulus is k = k' =
    1/sqrt(2), so each strip carries q = 4 eps_bar V and its charge is
    sigma(x) = A / sqrt(1/2 - sin^2(pi x / P)), A = pi q / (4 w K).  The gap
    field has the same profile, and with both edges cut by c each integral
    is 4 A^2 w L / pi, L = -ln tan(pi c / (2w)).  Over the cell energy
    1/2 |q V| that gives ``base = (t / w) pi L / (4 eps_bar K^2)`` times
    eps_sub^2 / eps_i (SM), eps_i (SA) or 1 / eps_i (MA), with relative
    permittivities throughout.
    """
    eps_bar = 0.5 * (SAPPHIRE_EPS_REL + 1.0)
    log_term = -math.log(math.tan(0.5 * math.pi * cutoff_um / width_um))
    base = (spec.thickness_nm * 1e-3 / width_um * math.pi * log_term
            / (4.0 * eps_bar * _K_EQUAL_GAP**2))
    return {InterfaceRegion.SM: base * SAPPHIRE_EPS_REL**2 / spec.eps_rel,
            InterfaceRegion.SA: base * spec.eps_rel,
            InterfaceRegion.MA: base / spec.eps_rel}


def _check_sweep(widths_um: Sequence[float], spec: InterfaceSpec,
                 cutoff_um: float | None) -> tuple[list[float], float | None]:
    """The checks of :func:`psm_width_sweep`: its widths, as floats, and
    its cutoff, None or a float, or an :class:`InvalidInputError`."""
    widths = [check_interdigital_width(w) for w in widths_um]
    if any(b <= a for a, b in zip(widths, widths[1:])):
        raise InvalidInputError("widths must be strictly ascending")
    if spec.region is not InterfaceRegion.SM:
        raise InvalidInputError("sweep spec must describe the SM region")
    if widths and cutoff_um is not None:
        cutoff_um = _check_cutoff(cutoff_um, widths[0], widths[-1])
    return widths, cutoff_um


def psm_width_sweep(
    widths_um: Sequence[float],
    spec: InterfaceSpec = DEFAULT_SM_SPEC,
    cutoff_um: float | None = None,
) -> list[SweepPoint]:
    """Substrate-metal participation versus gap/finger width.

    Each point is one cell of the infinite interdigital array on sapphire
    (equal gap and finger width, alternating drive), evaluated in closed
    form from its conformal map, so no cross section is solved.  With
    ``cutoff_um=None`` each width keeps its width-proportional edge cutoff,
    which makes p * width constant across the sweep.  A fixed cutoff is
    checked once, before any point: it must lie in [0, w / 2) at the first,
    narrowest width and be above zero against every width of the sweep, so
    its ratio to the last, widest width must not round to 0.

    SA and MA companion layers with the same thickness and permittivity are
    evaluated alongside, so the emitted curve carries all three columns for
    sensitivity comparison.  A ratio outside [0, 1] is recorded on its own
    point, the only error a point can carry; the sweep still returns all
    points.
    """
    widths, cutoff_um = _check_sweep(widths_um, spec, cutoff_um)
    points = []
    for w in widths:
        c = w * INTERDIGITAL_CUTOFF_FRACTION if cutoff_um is None else cutoff_um
        try:
            values = vars(ParticipationSet(*_periodic_idc(w, c, spec).values()))
        except InvalidInputError as exc:
            values = {"error": str(exc)}
        points.append(SweepPoint(width_um=w, cutoff_um=c, **values))
    return points


def cutoff_sensitivity(
    width_um: float,
    spec: InterfaceSpec = DEFAULT_SM_SPEC,
    cutoffs_um: Iterable[float] = SENSITIVITY_CUTOFFS_UM,
) -> list[tuple[float, float]]:
    """Participation of ``spec``'s region at several edge cutoffs, in one
    cell of the infinite interdigital array at gap = finger width ``width_um``.

    The cutoff regularizes the edge singularity, so its value must always be
    reported next to a participation number; larger cutoffs exclude more of
    the edge energy, so the values decrease smoothly.  A width that is not a
    real number in [0.1, 100] um is refused, as is a cutoff outside
    [0, w / 2) or one whose ratio to the width rounds to 0, each checked
    once against the width, and a value of the requested region outside
    [0, 1]; the other regions are not checked.
    """
    width_um = check_interdigital_width(width_um)
    cutoffs = (_check_cutoff(c, width_um, width_um) for c in cutoffs_um)
    ratios = ((c, _periodic_idc(width_um, c, spec)[spec.region]) for c in cutoffs)
    # the [0, 1] bound is held on the requested region only
    return [(c, ParticipationSet(*(p if region is spec.region else None
                                   for region in InterfaceRegion))[spec.region])
            for c, p in ratios]


def write_sweep_csv(points: Sequence[SweepPoint], path) -> None:
    """Emit a width sweep as CSV, one row per width and one column per
    ``SweepPoint`` field: numbers at 9 significant digits, None empty."""
    names = [f.name for f in fields(SweepPoint)]
    columns = [["" if v is None else v if isinstance(v, str) else "%.9g" % v
                for v in (getattr(p, name) for p in points)] for name in names]
    write_csv(path, names, zip(*columns))
