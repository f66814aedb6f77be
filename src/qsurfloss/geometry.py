"""Coplanar strip-array cross sections for the 2D electrostatic solver.

All lateral dimensions are in micrometres and potentials in volts.  A cross
section describes zero-thickness conducting strips lying on the interface
between vacuum (above) and a dielectric substrate half-space (below).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

from .errors import InvalidInputError, integer, read_json, real

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


def check_edge_cutoff(cutoff_um: float, width_um: float) -> float:
    """An edge cutoff (um) as a float; one that is not a finite number in
    [0, width / 2) of a ``width_um`` strip is refused."""
    return real(cutoff_um, f"edge_cutoff must lie in [0, {width_um / 2}) um",
                lambda c: 0.0 <= c < width_um / 2)


def check_interdigital_width(width_um: float) -> float:
    """A gap/finger width as a float; one that is not a finite number in
    ``INTERDIGITAL_WIDTH_RANGE_UM`` is refused."""
    lo, hi = INTERDIGITAL_WIDTH_RANGE_UM
    return real(width_um, f"gap/finger width must lie in [{lo:g}, {hi:g}] um",
                lambda w: lo <= w <= hi)


@dataclass(frozen=True)
class CrossSection:
    """Coplanar strip array over a dielectric half-space.

    Parameters
    ----------
    strips:
        Strips sorted by ``x_start``, neither overlapping nor touching, each
        ``width`` > 0; stored as a tuple of :class:`Strip`.
    eps_sub_rel:
        Relative permittivity of the substrate half-space, >= 1.
    eps_vac_rel:
        Relative permittivity of the upper half-space, > 0; normally 1.0.
    edge_cutoff:
        Exclusion distance (um) around strip edges applied to layer-energy
        integrals, in [0, w / 2) for the narrowest strip width w.
    discretization:
        Chebyshev terms per strip of a solve, an integer >=
        ``MIN_TERMS_PER_STRIP``, and the fewest a refinement returns; it
        checks them against half as many.
    representative_cell:
        Index in [0, len(strips) - 1] of the strip, not at 0 V, whose cell
        (strip plus half of each adjacent gap) represents the periodic
        interior of a finger array; ``None`` for geometries without one.

    Each number passes one door with its whole rule, stored as float (the
    two counts as int), or is refused as ``<field> must be finite and
    <rule>, got <value>`` (``must be an integer <rule>`` for a count, ``must
    lie in [0, w / 2) um`` for the cutoff).  The section is immutable and
    checked once, when built; a copy with other strips, potentials or
    cutoff is built, and checked, by :func:`dataclasses.replace`.
    """

    strips: tuple[Strip, ...]
    eps_sub_rel: float = SAPPHIRE_EPS_REL
    eps_vac_rel: float = 1.0
    edge_cutoff: float = DEFAULT_EDGE_CUTOFF_UM
    discretization: int = 16
    representative_cell: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        strips = [s if isinstance(s, Strip) else Strip(*s) for s in self.strips]
        if len(strips) < 1:
            raise InvalidInputError("cross section needs at least one strip")
        strips = tuple(
            Strip(real(s.x_start, f"strips[{i}].x_start must be finite"),
                  real(s.width, f"strips[{i}].width must be finite and > 0",
                       lambda w: w > 0),
                  real(s.potential, f"strips[{i}].potential must be finite"))
            for i, s in enumerate(strips))
        for a, b in zip(strips, strips[1:]):
            if b.x_start < a.x_end:
                raise InvalidInputError(
                    f"strips overlap or are unsorted near x={b.x_start} um")
            if b.x_start == a.x_end:
                raise InvalidInputError(
                    f"strips touch at x={b.x_start} um; merge them or open a gap")
        object.__setattr__(self, "strips", strips)
        for name, rule, ok in (("eps_sub_rel", ">= 1", lambda e: e >= 1.0),
                               ("eps_vac_rel", "> 0", lambda e: e > 0.0)):
            object.__setattr__(self, name, real(
                getattr(self, name), f"{name} must be finite and {rule}", ok))
        object.__setattr__(self, "edge_cutoff", check_edge_cutoff(
            self.edge_cutoff, min(s.width for s in strips)))
        # a solve cannot size its arrays by 16.5
        object.__setattr__(self, "discretization", integer(
            self.discretization, "discretization must be an integer >= "
            f"{MIN_TERMS_PER_STRIP}", lambda n: n >= MIN_TERMS_PER_STRIP))
        cell = self.representative_cell
        if cell is not None:  # True would index strip 1
            cell = integer(cell, "representative_cell must be an integer in "
                           f"[0, {len(strips) - 1}]", lambda c: 0 <= c < len(strips))
            object.__setattr__(self, "representative_cell", cell)
            if strips[cell].potential == 0.0:
                raise InvalidInputError(f"representative_cell strip {cell} sits at 0 V, "
                                        "where its cell energy 1/2 |q V| is zero")

    @property
    def potentials(self) -> list[float]:
        return [s.potential for s in self.strips]

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["strips"] = list(d["strips"])
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "CrossSection":
        try:  # the numbers as JSON holds them, so the doors refuse "0" and true
            strips = [Strip(s["x_start"], s["width"], s["potential"])
                      for s in d["strips"]]
            fields = {name: d[name] for name in _DOCUMENT_FIELDS if name in d}
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(
                f"bad cross-section document: strips: {exc}") from exc
        if "label" in fields:
            fields["label"] = str(fields["label"])
        return cls(strips, **fields)


#: The optional fields of a cross-section document; a field the document
#: leaves out takes the dataclass default.
_DOCUMENT_FIELDS = ("eps_sub_rel", "eps_vac_rel", "edge_cutoff", "discretization",
                    "representative_cell", "label")


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
    ``n_fingers`` is an odd integer in [5, ``MAX_INTERDIGITAL_FINGERS``].
    The width sweep evaluates the infinite array in closed form instead;
    solving this cell with more fingers converges to that closed form and
    so cross-checks it.

    The edge cutoff is ``width * INTERDIGITAL_CUTOFF_FRACTION`` rather
    than the global fixed default, so that sweeping the width keeps the
    cutoff proportional to the feature size; another cutoff is that of the
    copy ``dataclasses.replace(cell, edge_cutoff=c)``.
    """
    w = check_interdigital_width(gap_and_finger_width)
    n_fingers = integer(
        n_fingers, f"n_fingers must be an odd integer in [5, {MAX_INTERDIGITAL_FINGERS}]",
        lambda n: n % 2 == 1 and 5 <= n <= MAX_INTERDIGITAL_FINGERS)
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
