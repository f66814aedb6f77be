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
The width sweep is the infinite interdigital array, whose conformal map gives
the same integrals in closed form with no solve (:func:`psm_width_sweep`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError
from .geometry import (
    INTERDIGITAL_CUTOFF_FRACTION,
    INTERDIGITAL_WIDTH_RANGE_UM,
    SAPPHIRE_EPS_REL,
)
from .solver import FieldSolution, epsilon_0

UM = 1e-6
NM = 1e-9

#: Disordered-layer thickness at the substrate-metal interface, nm.
SM_LAYER_THICKNESS_NM = 1.0
#: Amorphous-layer thickness at the metal-air interface of the junction
#: electrodes, nm; recorded for user-supplied junction geometries.
JUNCTION_MA_LAYER_THICKNESS_NM = 5.5
#: Edge cutoffs of the standard cutoff-sensitivity study, um.
SENSITIVITY_CUTOFFS_UM = (0.05, 0.1, 0.2)


class InterfaceRegion(str, Enum):
    SM = "SM"
    SA = "SA"
    MA = "MA"


@dataclass(frozen=True)
class InterfaceSpec:
    """One lossy layer: region, thickness (nm) and relative permittivity."""

    region: InterfaceRegion
    thickness_nm: float = SM_LAYER_THICKNESS_NM
    eps_rel: float = SAPPHIRE_EPS_REL

    def __post_init__(self) -> None:
        region = InterfaceRegion(self.region)
        object.__setattr__(self, "region", region)
        if self.thickness_nm <= 0:
            raise InvalidInputError(f"layer thickness must be > 0, got {self.thickness_nm}")
        if self.eps_rel < 1.0:
            raise InvalidInputError(f"layer eps_rel must be >= 1, got {self.eps_rel}")

    def with_region(self, region: InterfaceRegion) -> "InterfaceSpec":
        """Same layer parameters applied at a different interface."""
        return replace(self, region=region)


#: Default substrate-metal layer (1 nm disordered layer, sapphire-like).
DEFAULT_SM_SPEC = InterfaceSpec(InterfaceRegion.SM)
#: Junction-electrode metal-air layer recorded from cross-section imaging.
JUNCTION_MA_SPEC = InterfaceSpec(
    InterfaceRegion.MA, thickness_nm=JUNCTION_MA_LAYER_THICKNESS_NM
)


@dataclass
class ParticipationSet:
    """Participation ratios of the requested interfaces for one geometry.

    Regions that were not requested are ``None`` (absent), not zero.
    """

    p_sm: float | None
    p_sa: float | None
    p_ma: float | None
    cutoff_used: float  # um
    geometry_id: str

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


def _cell_bounds(sol: FieldSolution) -> tuple[float, float]:
    """x-extent in metres of the representative cell, the strip plus half of
    each adjacent gap; the whole line when the geometry flags no cell."""
    ci = sol.geometry.representative_cell
    if ci is None:
        return -np.inf, np.inf
    strip = sol.strips[ci]
    left = strip.x_left
    right = strip.x_right
    if ci > 0:
        left = 0.5 * (sol.strips[ci - 1].x_right + strip.x_left)
    if ci < len(sol.strips) - 1:
        right = 0.5 * (strip.x_right + sol.strips[ci + 1].x_left)
    return left, right


def _strip_square_integral(
    strip_fields, values: np.ndarray, cutoff_m: float
) -> float:
    """integral values^2 dx over one strip, excluding cutoff at both edges."""
    a = np.maximum(strip_fields.edges[:-1], strip_fields.x_left + cutoff_m)
    b = np.minimum(strip_fields.edges[1:], strip_fields.x_right - cutoff_m)
    eff = np.clip(b - a, 0.0, None)
    return float(np.sum(values**2 * eff))


def _gap_square_integral(gap, cutoff_m: float, x_min: float, x_max: float) -> float:
    """integral e_par^2 dx over one gap restricted to [x_min, x_max],
    excluding cutoff next to each bounding strip edge."""
    lo = max(gap.x_left + cutoff_m, x_min)
    hi = min(gap.x_right - cutoff_m, x_max)
    if hi <= lo:
        return 0.0
    a = np.maximum(gap.centers - 0.5 * gap.widths, lo)
    b = np.minimum(gap.centers + 0.5 * gap.widths, hi)
    eff = np.clip(b - a, 0.0, None)
    return float(np.sum(gap.e_par**2 * eff))


def layer_energy(
    sol: FieldSolution,
    spec: InterfaceSpec,
    cutoff_um: float | None = None,
) -> float:
    """Electric energy per unit length stored in one thin interface layer (J/m).

    ``cutoff_um`` overrides the geometry's edge cutoff.  When the geometry
    flags a representative cell (finger arrays), the integral is restricted
    to that cell; otherwise it covers the whole array.
    """
    geom = sol.geometry
    cutoff_m = (geom.edge_cutoff if cutoff_um is None else cutoff_um) * UM
    if cutoff_m < 0:
        raise InvalidInputError("cutoff must be >= 0")

    eps_i = spec.eps_rel * epsilon_0
    t = spec.thickness_nm * NM

    x_min, x_max = _cell_bounds(sol)
    if spec.region is InterfaceRegion.SA:
        if not sol.gaps:
            raise InvalidInputError(
                "no gap field samples available for the SA region"
            )
        total = sum(
            _gap_square_integral(g, cutoff_m, x_min, x_max) for g in sol.gaps
        )
    else:
        scale = (geom.eps_sub_rel if spec.region is InterfaceRegion.SM
                 else geom.eps_vac_rel) * epsilon_0 / eps_i
        total = sum(
            _strip_square_integral(s, scale * s.e_perp, cutoff_m)
            for s in sol.strips if x_min <= s.x_left and s.x_right <= x_max
        )

    return 0.5 * eps_i * t * total


def participation_set(
    sol: FieldSolution,
    specs: Sequence[InterfaceSpec],
    cutoff_um: float | None = None,
) -> ParticipationSet:
    """Participation ratio of each requested interface layer.

    ``p_region = layer_energy / U`` where U is the total energy per unit
    length, or the representative cell's energy share when the geometry
    flags one.  Duplicate regions in ``specs`` are rejected; regions
    not requested come back as ``None``.
    """
    regions = [InterfaceRegion(s.region) for s in specs]
    if len(set(regions)) != len(regions):
        raise InvalidInputError("duplicate interface regions in specs")
    geom = sol.geometry
    if geom.representative_cell is None:
        u_total = sol.energy_per_len
    else:  # the cell's energy share, J/m (periodic-interior proxy)
        cell = sol.strips[geom.representative_cell]
        u_total = 0.5 * abs(cell.charge * cell.potential)

    values: dict[InterfaceRegion, float] = {}
    for spec in specs:
        u = layer_energy(sol, spec, cutoff_um=cutoff_um)
        values[InterfaceRegion(spec.region)] = u / u_total

    cutoff = geom.edge_cutoff if cutoff_um is None else cutoff_um
    return ParticipationSet(
        p_sm=values.get(InterfaceRegion.SM),
        p_sa=values.get(InterfaceRegion.SA),
        p_ma=values.get(InterfaceRegion.MA),
        cutoff_used=cutoff,
        geometry_id=geom.label or f"{len(geom.strips)}-strip array",
    )


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


def _check_cutoff(cutoff_um: float, width_um: float) -> None:
    """Reject an edge cutoff that the exact array at ``width_um`` cannot take."""
    if not 0.0 <= cutoff_um < width_um / 2:
        raise InvalidInputError(
            f"edge_cutoff must lie in [0, {width_um / 2}) um, got {cutoff_um}"
        )
    if cutoff_um / width_um == 0.0:  # zero, or too small against the width
        raise InvalidInputError(
            "edge_cutoff must be > 0: the edge integrals of the exact array "
            "diverge as ln(1 / cutoff)"
        )


def _periodic_idc(
    width_um: float, cutoff_um: float, spec: InterfaceSpec
) -> ParticipationSet:
    """SM, SA and MA participation of one cell of the infinite interdigital
    array on sapphire, gap = finger width = w, every layer set by ``spec``.

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
    _check_cutoff(cutoff_um, width_um)
    eps_bar = 0.5 * (SAPPHIRE_EPS_REL + 1.0)
    log_term = -math.log(math.tan(0.5 * math.pi * cutoff_um / width_um))
    base = (spec.thickness_nm * 1e-3 / width_um * math.pi * log_term
            / (4.0 * eps_bar * _K_EQUAL_GAP**2))
    return ParticipationSet(
        p_sm=base * SAPPHIRE_EPS_REL**2 / spec.eps_rel,
        p_sa=base * spec.eps_rel,
        p_ma=base / spec.eps_rel,
        cutoff_used=cutoff_um,
        geometry_id=f"periodic interdigital w={width_um:g}um",
    )


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
    which makes p * width constant across the sweep; a fixed cutoff must lie
    in (0, w / 2) at the first, narrowest width.

    SA and MA companion layers with the same thickness and permittivity are
    evaluated alongside, so the emitted curve carries all three columns for
    sensitivity comparison.  A ratio outside [0, 1] is recorded on its own
    point; the sweep still returns all points.
    """
    widths = [float(w) for w in widths_um]
    if any(b <= a for a, b in zip(widths, widths[1:])):
        raise InvalidInputError("widths must be strictly ascending")
    lo, hi = INTERDIGITAL_WIDTH_RANGE_UM
    if any(not lo <= w <= hi for w in widths):
        raise InvalidInputError(f"sweep widths must lie in [{lo:g}, {hi:g}] um")
    if InterfaceRegion(spec.region) is not InterfaceRegion.SM:
        raise InvalidInputError("sweep spec must describe the SM region")
    if widths and cutoff_um is not None:
        _check_cutoff(cutoff_um, widths[0])

    points = []
    for w in widths:
        c = w * INTERDIGITAL_CUTOFF_FRACTION if cutoff_um is None else cutoff_um
        point = SweepPoint(width_um=w, cutoff_um=c)
        try:
            pset = _periodic_idc(w, c, spec)
        except InvalidInputError as exc:
            point.error = str(exc)
        else:
            point.p_sm, point.p_sa, point.p_ma = pset.p_sm, pset.p_sa, pset.p_ma
        points.append(point)
    return points


def cutoff_sensitivity(
    sol: FieldSolution,
    spec: InterfaceSpec = DEFAULT_SM_SPEC,
    cutoffs_um: Iterable[float] = SENSITIVITY_CUTOFFS_UM,
) -> list[tuple[float, float]]:
    """Participation of ``spec``'s region at several edge cutoffs.

    The cutoff regularizes the edge singularity, so its value must always be
    reported next to a participation number; this helper evaluates the same
    solution at each cutoff (larger cutoffs exclude more of the edge energy,
    so the values decrease smoothly).
    """
    region = InterfaceRegion(spec.region)
    out = []
    for c in cutoffs_um:
        pset = participation_set(sol, [spec], cutoff_um=c)
        out.append((float(c), float(pset[region])))
    return out


def write_sweep_csv(points: Sequence[SweepPoint], path) -> None:
    """Emit a width sweep as CSV, one row per width and one column per
    ``SweepPoint`` field: numbers at 9 significant digits, None empty."""
    import csv

    names = [f.name for f in fields(SweepPoint)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for p in points:
            values = [getattr(p, name) for name in names]
            writer.writerow(["" if v is None else v if isinstance(v, str)
                             else f"{v:.9g}" for v in values])
