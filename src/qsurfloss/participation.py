"""Thin-lossy-layer participation ratios from a solved cross section.

Each interface (substrate-metal, substrate-air, metal-air) is a thin layer of
thickness t and permittivity eps_i in which the field is taken uniform across
the thickness.  The layer energy per unit length is

    u_i = 1/2 * eps_i * t * integral |E_layer|^2 dx

with E_layer obtained from the surface solution by the region's field rule:

* SM: purely normal field under the metal, substrate side; continuity of the
  normal displacement gives ``E_layer = (eps_sub / eps_i) * E_perp_sub``.
* SA: layer just inside the exposed substrate; the tangential component is
  continuous and the normal component scales by ``eps_sub / eps_i`` (it is
  identically zero at y = 0 in the zero-thickness model).
* MA: vacuum side of the metal; ``E_layer = (eps_vac / eps_i) * E_perp_vac``.

The surface charge (and with it E^2) diverges as 1/r toward strip edges, so
every layer integral excludes a cutoff distance around each strip edge; the
participation ratio is u_i over the total electric energy per unit length.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, QSurfLossError
from .geometry import SAPPHIRE_EPS_REL, interdigital_unit_cell
from .solver import FieldSolution, epsilon_0, solve_cross_section

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


def _cell_bounds(sol: FieldSolution) -> tuple[int, float, float]:
    """Representative-cell strip index and the cell's x-extent in metres."""
    ci = sol.geometry.representative_cell
    assert ci is not None
    strip = sol.strips[ci]
    left = strip.x_left
    right = strip.x_right
    if ci > 0:
        left = 0.5 * (sol.strips[ci - 1].x_right + strip.x_left)
    if ci < len(sol.strips) - 1:
        right = 0.5 * (strip.x_right + sol.strips[ci + 1].x_left)
    return ci, left, right


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
    restrict_to_cell: bool | None = None,
) -> float:
    """Electric energy per unit length stored in one thin interface layer (J/m).

    ``cutoff_um`` overrides the geometry's edge cutoff.  When the geometry
    flags a representative cell (finger arrays), the integral is restricted
    to that cell by default; pass ``restrict_to_cell=False`` to integrate
    over the whole array.
    """
    geom = sol.geometry
    cutoff_m = (geom.edge_cutoff if cutoff_um is None else cutoff_um) * UM
    if cutoff_m < 0:
        raise InvalidInputError("cutoff must be >= 0")
    if restrict_to_cell is None:
        restrict_to_cell = geom.representative_cell is not None
    if restrict_to_cell and geom.representative_cell is None:
        raise InvalidInputError("geometry flags no representative cell")

    eps_i = spec.eps_rel * epsilon_0
    eps_sub = geom.eps_sub_rel * epsilon_0
    eps_vac = geom.eps_vac_rel * epsilon_0
    t = spec.thickness_nm * NM

    if restrict_to_cell:
        ci, x_min, x_max = _cell_bounds(sol)
        strip_sel = [sol.strips[ci]]
        gap_sel = [g for g in sol.gaps if g.index in (ci - 1, ci)]
    else:
        x_min, x_max = -np.inf, np.inf
        strip_sel = sol.strips
        gap_sel = sol.gaps

    if spec.region is InterfaceRegion.SM:
        scale = eps_sub / eps_i
        total = sum(
            _strip_square_integral(s, scale * s.e_perp_sub, cutoff_m)
            for s in strip_sel
        )
    elif spec.region is InterfaceRegion.MA:
        scale = eps_vac / eps_i
        total = sum(
            _strip_square_integral(s, scale * s.e_perp_vac, cutoff_m)
            for s in strip_sel
        )
    else:
        if not gap_sel:
            raise InvalidInputError(
                "no gap field samples available for the SA region"
            )
        # tangential component continuous into the layer; the normal
        # component (scaled by eps_sub/eps_i) is identically zero on the
        # exposed interface in the zero-thickness model, so only E_par
        # contributes here.
        total = sum(
            _gap_square_integral(g, cutoff_m, x_min, x_max) for g in gap_sel
        )

    return 0.5 * eps_i * t * total


def _cell_energy(sol: FieldSolution) -> float:
    """Energy share of the representative cell, J/m (periodic-interior proxy)."""
    ci, _, _ = _cell_bounds(sol)
    strip = sol.strips[ci]
    return 0.5 * abs(strip.charge * strip.potential)


def participation_set(
    sol: FieldSolution,
    specs: Sequence[InterfaceSpec],
    cutoff_um: float | None = None,
    restrict_to_cell: bool | None = None,
) -> ParticipationSet:
    """Participation ratio of each requested interface layer.

    ``p_region = layer_energy / U`` where U is the total energy per unit
    length, or the representative cell's energy share when the integrals are
    cell restricted.  Duplicate regions in ``specs`` are rejected; regions
    not requested come back as ``None``.
    """
    regions = [InterfaceRegion(s.region) for s in specs]
    if len(set(regions)) != len(regions):
        raise InvalidInputError("duplicate interface regions in specs")
    geom = sol.geometry
    if restrict_to_cell is None:
        restrict_to_cell = geom.representative_cell is not None
    u_total = _cell_energy(sol) if restrict_to_cell else sol.energy_per_len

    values: dict[InterfaceRegion, float] = {}
    for spec in specs:
        u = layer_energy(sol, spec, cutoff_um=cutoff_um,
                         restrict_to_cell=restrict_to_cell)
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
    n_fingers: int = 0
    error: str | None = None


def psm_width_sweep(
    widths_um: Sequence[float],
    spec: InterfaceSpec = DEFAULT_SM_SPEC,
    n_fingers: int = 7,
    eps_sub_rel: float = SAPPHIRE_EPS_REL,
    discretization: int = 256,
    cutoff_um: float | None = None,
    include_companion_regions: bool = True,
) -> list[SweepPoint]:
    """Substrate-metal participation versus gap/finger width.

    The sweep cell is an interdigital unit cell (equal gap and finger width,
    alternating drive) and each point is its representative-cell
    participation.  One solve at the first width w0 serves every point by
    the scale law ``p(w, c) = p(w0, c * w0 / w) * w0 / w``.  With
    ``cutoff_um=None`` each width keeps its width-proportional edge cutoff,
    which makes p * width constant across the sweep.

    SA and MA companion layers with the same thickness and permittivity are
    evaluated alongside by default so the emitted curve carries all three
    columns for sensitivity comparison.

    A failed reference solve is recorded on every point, and a ratio outside
    [0, 1] on its own point; the sweep still returns all points.
    """
    return _width_sweep(widths_um, spec, n_fingers, discretization, cutoff_um,
                        eps_sub_rel, include_companion_regions)[0]


def _width_sweep(
    widths_um: Sequence[float], spec: InterfaceSpec, n_fingers: int,
    discretization: int, cutoff_um: float | None,
    eps_sub_rel: float = SAPPHIRE_EPS_REL, include_companion_regions: bool = True,
) -> tuple[list[SweepPoint], FieldSolution | None]:
    """``psm_width_sweep`` plus its reference solution at the first width
    (``None`` when the sweep is empty or the solve failed)."""
    widths = [float(w) for w in widths_um]
    if any(b <= a for a, b in zip(widths, widths[1:])):
        raise InvalidInputError("widths must be strictly ascending")
    if any(not 0.5 <= w <= 50.0 for w in widths):
        raise InvalidInputError("sweep widths must lie in [0.5, 50] um")
    if InterfaceRegion(spec.region) is not InterfaceRegion.SM:
        raise InvalidInputError("sweep spec must describe the SM region")

    specs = [spec]
    if include_companion_regions:
        specs += [spec.with_region(InterfaceRegion.SA),
                  spec.with_region(InterfaceRegion.MA)]

    # every width's geometry validates its own cutoff against that width
    geoms = [
        interdigital_unit_cell(w, n_fingers, eps_sub_rel=eps_sub_rel,
                               discretization=discretization,
                               edge_cutoff=cutoff_um)
        for w in widths
    ]
    points = [SweepPoint(width_um=w, n_fingers=n_fingers,
                         cutoff_um=g.edge_cutoff)
              for w, g in zip(widths, geoms)]
    try:
        reference = solve_cross_section(geoms[0]) if geoms else None
    except QSurfLossError as exc:
        for point in points:
            point.error = str(exc)
        return points, None
    for point in points:
        try:
            pset = _at_width(reference, specs, point.width_um, point.cutoff_um)
        except QSurfLossError as exc:
            point.error = str(exc)
        else:
            point.p_sm, point.p_sa, point.p_ma = pset.p_sm, pset.p_sa, pset.p_ma
    return points, reference


def _at_width(
    reference: FieldSolution,
    specs: Sequence[InterfaceSpec],
    width_um: float,
    cutoff_um: float,
) -> ParticipationSet:
    """Participation of the sweep cell at ``width_um`` from its ``reference``
    solution at another width.

    Scaling the lateral geometry by s maps sigma(x) to sigma(x / s) / s, also
    in the discretized equations (charge neutrality cancels the ln(s) term of
    the kernel).  The energy is unchanged and each layer energy falls by 1/s,
    as if the layer were s times thinner: ``p(s * cell, c, t) = p(cell, c / s,
    t / s)`` (Wenner et al., APL 99, 113513 (2011)), bounded on that value.
    """
    s = width_um / reference.geometry.strips[0].width
    thinner = [replace(spec, thickness_nm=spec.thickness_nm / s) for spec in specs]
    return participation_set(reference, thinner, cutoff_um=cutoff_um / s)


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
    """Emit a width sweep as CSV, one row per width."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["width_um", "p_sm", "p_sa", "p_ma", "cutoff_um",
                         "n_fingers", "error"])
        for p in points:
            writer.writerow([
                f"{p.width_um:.9g}",
                "" if p.p_sm is None else f"{p.p_sm:.9g}",
                "" if p.p_sa is None else f"{p.p_sa:.9g}",
                "" if p.p_ma is None else f"{p.p_ma:.9g}",
                "" if p.cutoff_um is None else f"{p.cutoff_um:.9g}",
                p.n_fingers,
                p.error or "",
            ])
