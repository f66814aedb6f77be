"""Coplanar strip-array cross sections for the 2D electrostatic solver.

All lateral dimensions are in micrometres and potentials in volts.  A cross
section describes zero-thickness conducting strips lying on the interface
between vacuum (above) and a dielectric substrate half-space (below).
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, asdict, replace
from typing import Sequence

from .errors import InvalidInputError, is_finite, read_json, shown

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

#: Fewest Chebyshev terms per strip a section is solved at.
MIN_TERMS_PER_STRIP = 8

#: Most fingers an interdigital cell takes.  At the fewest terms per strip
#: this many fingers are already a dense solve of 8008 unknowns (0.5 GB).
MAX_INTERDIGITAL_FINGERS = 1001


@dataclass(frozen=True)
class Strip:
    """One zero-thickness conducting strip at the substrate surface."""

    x_start: float  # um
    width: float    # um
    potential: float  # V

    @property
    def x_end(self) -> float:
        return self.x_start + self.width


def check_edge_cutoff(cutoff_um: float, width_um: float) -> None:
    """Reject an edge cutoff (um) outside [0, width / 2) of a ``width_um`` strip."""
    if not 0.0 <= cutoff_um < width_um / 2:
        raise InvalidInputError(
            f"edge_cutoff must lie in [0, {width_um / 2}) um, got {cutoff_um}"
        )


def check_interdigital_width(width_um: float) -> None:
    """Reject a gap/finger width outside ``INTERDIGITAL_WIDTH_RANGE_UM``."""
    lo, hi = INTERDIGITAL_WIDTH_RANGE_UM
    if not lo <= width_um <= hi:
        raise InvalidInputError(
            f"gap/finger width must lie in [{lo:g}, {hi:g}] um, "
            f"got {shown(width_um)}"
        )


@dataclass(frozen=True)
class CrossSection:
    """Coplanar strip array over a dielectric half-space.

    Parameters
    ----------
    strips:
        Strips sorted by ``x_start``, non-overlapping, widths > 0; stored
        as a tuple of :class:`Strip`.
    eps_sub_rel:
        Relative permittivity of the substrate half-space (>= 1).
    eps_vac_rel:
        Relative permittivity of the upper half-space, normally 1.0.
    edge_cutoff:
        Exclusion distance (um) around strip edges applied to layer-energy
        integrals; must be smaller than half the narrowest strip.
    discretization:
        Chebyshev terms per strip, an integer (>= ``MIN_TERMS_PER_STRIP``),
        of a solve, and the fewest a refinement returns; it checks them
        against half as many.
    representative_cell:
        Index of the strip, not at 0 V, whose cell (strip plus half of each
        adjacent gap) represents the periodic interior of a finger array;
        ``None`` for geometries without one.

    Every number must be finite.  The section is immutable and checked once,
    when built; :func:`dataclasses.replace` and the methods below check
    their copy.
    """

    strips: tuple[Strip, ...]
    eps_sub_rel: float = SAPPHIRE_EPS_REL
    eps_vac_rel: float = 1.0
    edge_cutoff: float = DEFAULT_EDGE_CUTOFF_UM
    discretization: int = 16
    representative_cell: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        strips = tuple(s if isinstance(s, Strip) else Strip(*s) for s in self.strips)
        object.__setattr__(self, "strips", strips)
        if len(strips) < 1:
            raise InvalidInputError("cross section needs at least one strip")
        reals = {f"strips[{i}].{name}": getattr(s, name)
                 for i, s in enumerate(strips)
                 for name in ("x_start", "width", "potential")}
        reals.update((name, getattr(self, name)) for name in
                     ("eps_sub_rel", "eps_vac_rel", "edge_cutoff", "discretization"))
        for name, value in reals.items():
            if not is_finite(value):
                raise InvalidInputError(
                    f"{name} must be finite, got {shown(value)}")
        for s in strips:
            if not s.width > 0:
                raise InvalidInputError(f"strip width must be > 0, got {s.width}")
        for a, b in zip(strips, strips[1:]):
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
        check_edge_cutoff(self.edge_cutoff, min(s.width for s in strips))
        cell = self.representative_cell
        for name, value in (("discretization", self.discretization),
                            ("representative_cell", 0 if cell is None else cell)):
            # a solve cannot size its arrays by 16.5, and True indexes as 1
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidInputError(
                    f"{name} must be an integer, got {shown(value)}")
        if self.discretization < MIN_TERMS_PER_STRIP:
            raise InvalidInputError(
                f"discretization must be >= {MIN_TERMS_PER_STRIP} terms per strip, "
                f"got {self.discretization}"
            )
        if cell is not None and not 0 <= cell < len(strips):
            raise InvalidInputError(
                f"representative_cell index {shown(cell)} out of range")
        if cell is not None and strips[cell].potential == 0.0:
            raise InvalidInputError(f"representative_cell strip {cell} sits at 0 V, "
                                    "where its cell energy 1/2 |q V| is zero")

    @property
    def potentials(self) -> list[float]:
        return [s.potential for s in self.strips]

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
        d["strips"] = list(d["strips"])
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "CrossSection":
        name = "strips"
        try:
            strips = [Strip(float(s["x_start"]), float(s["width"]),
                            float(s["potential"])) for s in d["strips"]]
            fields = {}
            for name, convert in _DOCUMENT_FIELDS.items():
                if name in d:
                    fields[name] = convert(d[name])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(
                f"bad cross-section document: {name}: {exc}") from exc
        return cls(strips, **fields)


#: Converters of the optional fields of a cross-section document; a field the
#: document leaves out takes the dataclass default.  ``int`` would truncate 16.5.
_DOCUMENT_FIELDS = {"eps_sub_rel": float, "eps_vac_rel": float, "edge_cutoff": float,
                    "discretization": operator.index,
                    "representative_cell": lambda i: i, "label": str}


def load_cross_section(path) -> CrossSection:
    """Read a cross section from a JSON document mirroring the field names."""
    return CrossSection.from_json_dict(read_json(path, "bad cross-section document"))


def interdigital_unit_cell(
    gap_and_finger_width: float,
    n_fingers: int,
    discretization: int = 16,
) -> CrossSection:
    """Finite interdigital array whose center cell approximates the periodic
    interior.

    ``n_fingers`` equal-width strips on sapphire, separated by equal gaps,
    carry alternating potentials ``+0.5, -0.5, ...`` V.  The center strip is
    flagged as the representative cell so that participation extraction sees
    a cell shielded from the finite-array edges; for that reason
    ``n_fingers`` must be odd and at least 5, and it is at most
    ``MAX_INTERDIGITAL_FINGERS``.  The width sweep evaluates the
    infinite array in closed form instead; solving this cell with more
    fingers converges to that closed form and so cross-checks it.

    The edge cutoff is ``width * INTERDIGITAL_CUTOFF_FRACTION`` rather
    than the global fixed default, so that sweeping the width keeps the
    cutoff proportional to the feature size; another cutoff is that of the
    copy ``dataclasses.replace(cell, edge_cutoff=c)``.
    """
    # checked before float(), which overflows on an int beyond the range
    check_interdigital_width(gap_and_finger_width)
    w = float(gap_and_finger_width)
    if not is_finite(n_fingers):
        raise InvalidInputError(
            f"n_fingers must be finite, got {shown(n_fingers)}")
    if n_fingers % 2 == 0:
        raise InvalidInputError(f"n_fingers must be odd, got {n_fingers}")
    if n_fingers < 5:
        raise InvalidInputError(f"n_fingers must be >= 5, got {n_fingers}")
    if n_fingers > MAX_INTERDIGITAL_FINGERS:
        raise InvalidInputError(
            f"n_fingers must be <= {MAX_INTERDIGITAL_FINGERS}, got {n_fingers}")
    strips = [
        Strip(i * 2.0 * w, w, 0.5 if i % 2 == 0 else -0.5)
        for i in range(n_fingers)
    ]
    return CrossSection(
        strips,
        edge_cutoff=w * INTERDIGITAL_CUTOFF_FRACTION,
        discretization=discretization,
        representative_cell=n_fingers // 2,
        label=f"interdigital w={w:g}um n={n_fingers}",
    )
