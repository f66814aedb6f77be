"""Coplanar strip-array cross sections for the 2D electrostatic solver.

All lateral dimensions are in micrometres and potentials in volts.  A cross
section describes zero-thickness conducting strips lying on the interface
between vacuum (above) and a dielectric substrate half-space (below).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, replace
from typing import Sequence

from .errors import InvalidInputError

#: Relative permittivity of c-plane sapphire used throughout as the default.
SAPPHIRE_EPS_REL = 10.15

#: Default exclusion distance around strip edges for layer-energy integrals,
#: in micrometres (comparable to the metal film thickness).
DEFAULT_EDGE_CUTOFF_UM = 0.1

#: Edge cutoff used for interdigital unit cells, as a fraction of the strip
#: width.  Scaling the cutoff with the feature size preserves the exact
#: 1/width scaling of thin-layer participation ratios; at 1 um width the
#: exclusion equals the ~1 nm disordered-layer thickness scale where the
#: thin-layer approximation itself breaks down.
INTERDIGITAL_CUTOFF_FRACTION = 1e-3

#: Gap/finger widths (um) an interdigital cell, and so a width sweep, accepts.
INTERDIGITAL_WIDTH_RANGE_UM = (0.1, 100.0)


@dataclass(frozen=True)
class Strip:
    """One zero-thickness conducting strip at the substrate surface."""

    x_start: float  # um
    width: float    # um
    potential: float  # V

    @property
    def x_end(self) -> float:
        return self.x_start + self.width


@dataclass
class CrossSection:
    """Coplanar strip array over a dielectric half-space.

    Parameters
    ----------
    strips:
        Strips sorted by ``x_start``, non-overlapping, widths > 0.
    eps_sub_rel:
        Relative permittivity of the substrate half-space (>= 1).
    eps_vac_rel:
        Relative permittivity of the upper half-space, normally 1.0.
    edge_cutoff:
        Exclusion distance (um) around strip edges applied to layer-energy
        integrals; must be smaller than half the narrowest strip.
    discretization:
        Boundary elements per strip (>= 8).
    representative_cell:
        Index of the strip whose cell (strip plus half of each adjacent
        gap) represents the periodic interior of a finger array; ``None``
        for geometries without one.
    """

    strips: list[Strip]
    eps_sub_rel: float = SAPPHIRE_EPS_REL
    eps_vac_rel: float = 1.0
    edge_cutoff: float = DEFAULT_EDGE_CUTOFF_UM
    discretization: int = 128
    representative_cell: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        self.strips = [s if isinstance(s, Strip) else Strip(*s) for s in self.strips]
        self.validate()

    def validate(self) -> None:
        if len(self.strips) < 1:
            raise InvalidInputError("cross section needs at least one strip")
        for s in self.strips:
            if not s.width > 0:
                raise InvalidInputError(f"strip width must be > 0, got {s.width}")
        for a, b in zip(self.strips, self.strips[1:]):
            if b.x_start < a.x_end:
                raise InvalidInputError(
                    f"strips overlap or are unsorted near x={b.x_start} um"
                )
            if b.x_start == a.x_end:
                raise InvalidInputError(
                    f"strips touch at x={b.x_start} um; merge them or open a gap"
                )
        if self.eps_sub_rel < 1.0:
            raise InvalidInputError(f"eps_sub_rel must be >= 1, got {self.eps_sub_rel}")
        if self.eps_vac_rel <= 0.0:
            raise InvalidInputError(f"eps_vac_rel must be > 0, got {self.eps_vac_rel}")
        min_width = min(s.width for s in self.strips)
        if not 0.0 <= self.edge_cutoff < min_width / 2:
            raise InvalidInputError(
                f"edge_cutoff must lie in [0, {min_width / 2}) um, got {self.edge_cutoff}"
            )
        if self.discretization < 8:
            raise InvalidInputError(
                f"discretization must be >= 8 elements per strip, got {self.discretization}"
            )
        if self.representative_cell is not None and not (
            0 <= self.representative_cell < len(self.strips)
        ):
            raise InvalidInputError(
                f"representative_cell index {self.representative_cell} out of range"
            )

    @property
    def potentials(self) -> list[float]:
        return [s.potential for s in self.strips]

    @property
    def extent(self) -> tuple[float, float]:
        """Leftmost and rightmost metal coordinate (um)."""
        return self.strips[0].x_start, self.strips[-1].x_end

    def with_potentials(self, potentials: Sequence[float]) -> "CrossSection":
        """Copy of this geometry with strip potentials replaced."""
        if len(potentials) != len(self.strips):
            raise InvalidInputError(
                f"expected {len(self.strips)} potentials, got {len(potentials)}"
            )
        strips = [
            Strip(s.x_start, s.width, float(v)) for s, v in zip(self.strips, potentials)
        ]
        return replace(self, strips=strips)

    def scaled(self, factor: float) -> "CrossSection":
        """Copy with every lateral dimension (including the cutoff) scaled."""
        if factor <= 0:
            raise InvalidInputError("scale factor must be positive")
        strips = [
            Strip(s.x_start * factor, s.width * factor, s.potential)
            for s in self.strips
        ]
        return replace(self, strips=strips, edge_cutoff=self.edge_cutoff * factor)

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["strips"] = [asdict(s) for s in self.strips]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "CrossSection":
        try:
            strips = [
                Strip(float(s["x_start"]), float(s["width"]), float(s["potential"]))
                for s in d["strips"]
            ]
            return cls(
                strips,
                eps_sub_rel=float(d.get("eps_sub_rel", SAPPHIRE_EPS_REL)),
                eps_vac_rel=float(d.get("eps_vac_rel", 1.0)),
                edge_cutoff=float(d.get("edge_cutoff", DEFAULT_EDGE_CUTOFF_UM)),
                discretization=int(d.get("discretization", 128)),
                representative_cell=d.get("representative_cell"),
                label=str(d.get("label", "")),
            )
        except InvalidInputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad cross-section document: {exc}") from exc


def load_cross_section(path) -> CrossSection:
    """Read a cross section from a JSON document mirroring the field names."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # malformed JSON or not UTF-8
            raise InvalidInputError(f"bad cross-section document: {exc}") from exc
    return CrossSection.from_json_dict(doc)


def dump_cross_section(geom: CrossSection, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(geom.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def interdigital_unit_cell(
    gap_and_finger_width: float,
    n_fingers: int,
    discretization: int = 128,
    edge_cutoff: float | None = None,
) -> CrossSection:
    """Finite interdigital array whose center cell approximates the periodic
    interior.

    ``n_fingers`` equal-width strips on sapphire, separated by equal gaps,
    carry alternating potentials ``+0.5, -0.5, ...`` V.  The center strip is
    flagged as the representative cell so that participation extraction sees
    a cell shielded from the finite-array edges; for that reason
    ``n_fingers`` must be odd and at least 5.  The width sweep evaluates the
    infinite array in closed form instead; solving this cell with more
    fingers converges to that closed form and so cross-checks it.

    The edge cutoff defaults to ``width * INTERDIGITAL_CUTOFF_FRACTION``
    rather than the global fixed default, so that sweeping the width keeps
    the cutoff proportional to the feature size.
    """
    w = float(gap_and_finger_width)
    lo, hi = INTERDIGITAL_WIDTH_RANGE_UM
    if not lo <= w <= hi:
        raise InvalidInputError(
            f"gap/finger width must lie in [{lo:g}, {hi:g}] um, got {w}"
        )
    if n_fingers % 2 == 0:
        raise InvalidInputError(f"n_fingers must be odd, got {n_fingers}")
    if n_fingers < 5:
        raise InvalidInputError(f"n_fingers must be >= 5, got {n_fingers}")
    if edge_cutoff is None:
        edge_cutoff = w * INTERDIGITAL_CUTOFF_FRACTION
    strips = [
        Strip(i * 2.0 * w, w, 0.5 if i % 2 == 0 else -0.5)
        for i in range(n_fingers)
    ]
    return CrossSection(
        strips,
        edge_cutoff=edge_cutoff,
        discretization=discretization,
        representative_cell=n_fingers // 2,
        label=f"interdigital w={w:g}um n={n_fingers}",
    )
