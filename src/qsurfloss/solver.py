"""Boundary-element electrostatics for coplanar strips on a dielectric half-space.

The strips are zero-thickness conductors lying on the y = 0 interface between
vacuum (above) and the substrate (below).  For charge confined to that plane
the two-media problem is equivalent to a homogeneous medium with permittivity
``eps_bar = (eps_vac + eps_sub)/2 * eps0``; the potential is symmetric in y,
so field magnitudes sampled just above and just below the plane coincide, and
the normal field component vanishes on the exposed substrate in the gaps.

The integral equation ``phi(x) = V_i`` on each strip is discretized with
piecewise-constant charge elements on a cosine-graded per-strip mesh
(clustering resolves the inverse-square-root edge singularity), collocated at
element midpoints.  A floating reference constant plus a global charge-
neutrality row make the two-terminal capacitance well defined and exactly
scale invariant.

The kernel is assembled from element nodes: the integral of ``ln|x - x'|``
over an element is the difference of the antiderivative ``u (ln|u| - 1)`` at
its two nodes, so each strip needs n+1 evaluations per collocation row, not
2n, and adjacent node values are differenced straight into the system
matrix.  Gap fields are sampled the same way, one log per node weighted by
the jump of the charge density there.

A mirror-even section (strip i and strip S-1-i at equal potentials with
mirror-image extents, to 1e-12 of the span; every interdigital cell is one)
carries a mirror-symmetric charge.  Every strip has the same number of
elements, so in the flat list of N elements element j mirrors element
N-1-j, and the section is solved as a folded system in the first
ceil(N/2) charges: the column and neutrality weight of each later element
are added onto those of its mirror, and the solution is read back through
the same mirror.  That is about 8x less LU work.  Any other section,
including a mirror-symmetric one at odd drive, is solved in full by the same
assembly loop.

Internal solution arrays are in SI units (m, C/m^2, V/m, F/m, J/m); geometry
input remains in micrometres.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InvalidInputError, NumericalFailureError
from .geometry import CrossSection

UM = 1e-6

#: Vacuum permittivity, F/m (CODATA 2022, the value of ``scipy.constants``).
epsilon_0 = 8.8541878188e-12

#: Relative residual above which a direct solve is treated as failed.
SOLVE_RESIDUAL_TOL = 1e-8


def cosine_graded_nodes(a: float, b: float, n: int) -> np.ndarray:
    """n+1 node positions on [a, b] clustered toward both endpoints."""
    k = np.arange(n + 1)
    return a + (b - a) * 0.5 * (1.0 - np.cos(np.pi * k / n))


@dataclass
class StripFields:
    """Per-strip discretization and surface solution (SI units)."""

    index: int
    x_left: float
    x_right: float
    potential: float
    edges: np.ndarray        # element boundaries, shape (n+1,)
    centers: np.ndarray      # collocation points, shape (n,)
    widths: np.ndarray       # element widths, shape (n,)
    charge_density: np.ndarray  # sigma, C/m^2 (per unit length / per metre of x)
    e_perp: np.ndarray       # normal field sigma/(2 eps_bar) on both faces, V/m

    @property
    def charge(self) -> float:
        """Total line charge of the strip, C/m."""
        return float(np.sum(self.charge_density * self.widths))


@dataclass
class GapFields:
    """Tangential field on the exposed substrate between two adjacent strips."""

    index: int
    x_left: float
    x_right: float
    centers: np.ndarray
    widths: np.ndarray
    e_par: np.ndarray        # tangential field, V/m


@dataclass
class FieldSolution:
    """Self-consistent surface solution of a :class:`CrossSection`."""

    geometry: CrossSection
    strips: list[StripFields]
    gaps: list[GapFields]
    capacitance_per_len: float  # F/m
    energy_per_len: float       # J/m
    eps_bar: float              # effective homogeneous permittivity, F/m
    reference_offset: float     # floating potential constant, V
    residual_norm: float
    elements_per_strip: int
    refinement_levels: int = 0
    estimated_rel_error: float | None = None

    @property
    def charge_density(self) -> np.ndarray:
        """Concatenated element charge densities over all strips."""
        return np.concatenate([s.charge_density for s in self.strips])

    def strip_charges(self) -> list[float]:
        return [s.charge for s in self.strips]


def _log_antiderivative(u: np.ndarray) -> np.ndarray:
    """Antiderivative of ln|u|, i.e. u*(ln|u| - 1), continuous through 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(np.abs(u))
        out -= 1.0
        out *= u
    out[u == 0.0] = 0.0
    return out


def _is_mirror_even(geom: CrossSection) -> bool:
    """Whether strip i and strip S-1-i sit at equal potentials and have
    mirror-image extents (to 1e-12 of the span) about the section's centre."""
    lo, hi = geom.extent
    tol = 1e-12 * (hi - lo)
    return all(
        a.potential == b.potential
        and abs(a.x_start + b.x_end - (lo + hi)) <= tol
        and abs(a.x_end + b.x_start - (lo + hi)) <= tol
        for a, b in zip(geom.strips, reversed(geom.strips))
    )


def solve_cross_section(geom: CrossSection, n_elem: int | None = None) -> FieldSolution:
    """Solve the electrostatic problem for a strip-array cross section.

    Parameters
    ----------
    geom:
        Validated cross section; needs at least two strips at differing
        potentials.
    n_elem:
        Elements per strip; defaults to ``geom.discretization``.

    Returns
    -------
    FieldSolution
        Charge density per element, normal fields on strips, tangential
        fields in gaps, capacitance and electric energy per unit length.

    Raises
    ------
    InvalidInputError
        If all strips sit at the same potential (degenerate drive).
    NumericalFailureError
        If the dense solve leaves a relative residual above
        ``SOLVE_RESIDUAL_TOL``.
    """
    geom.validate()
    if n_elem is None:
        n_elem = geom.discretization
    if n_elem < 8:
        raise InvalidInputError(f"need >= 8 elements per strip, got {n_elem}")
    pots = geom.potentials
    if len(geom.strips) < 2 or max(pots) == min(pots):
        raise InvalidInputError(
            "degenerate geometry: need at least two strips at differing potentials"
        )

    eps_bar = 0.5 * (geom.eps_vac_rel + geom.eps_sub_rel) * epsilon_0
    edges = [cosine_graded_nodes(s.x_start * UM, s.x_end * UM, n_elem)
             for s in geom.strips]
    centers = [0.5 * (e[:-1] + e[1:]) for e in edges]
    widths = [e[1:] - e[:-1] for e in edges]

    # Every strip has n_elem elements, so in the flat element list of a
    # mirror-even section element j mirrors element N-1-j and only the first
    # n = ceil(N/2) charges are unknown; otherwise n = N.
    n_strips = len(edges)
    N = n_strips * n_elem
    n = (N + 1) // 2 if _is_mirror_even(geom) else N
    xc = np.concatenate(centers)[:n]

    # phi(x_i) = -1/(2 pi eps_bar) * sum_j sigma_j int_j ln|x_i - x'| dx' + c.
    # Per strip the element integrals are differences of the antiderivative
    # at adjacent nodes, so it is evaluated once per node and row.  Columns
    # of elements j >= n are added, reversed, onto their mirrors' columns
    # N-1-j < n, which an earlier strip or this one has already written.
    system = np.empty((n + 1, n + 1))
    for si, e in enumerate(edges):
        lo = si * n_elem
        k = min(max(n - lo, 0), n_elem)
        f = _log_antiderivative(e[None, :] - xc[:, None])
        np.subtract(f[:, 1:k + 1], f[:, :k], out=system[:n, lo:lo + k])
        system[:n, N - lo - n_elem:N - lo - k] += (f[:, k + 1:] - f[:, k:-1])[:, ::-1]
    system[:n, :n] /= -(2.0 * np.pi * eps_bar)
    system[:n, n] = 1.0       # floating reference constant
    w = np.concatenate(widths)
    system[n, :n] = w[:n]     # global charge neutrality
    system[n, :N - n] += w[n:][::-1]
    system[n, n] = 0.0
    rhs = np.append(np.repeat(pots, n_elem)[:n], 0.0)

    try:
        unknowns = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"singular boundary-element system: {exc}") from exc
    residual = np.linalg.norm(system @ unknowns - rhs) / np.linalg.norm(rhs)
    if not np.isfinite(residual) or residual > SOLVE_RESIDUAL_TOL:
        raise NumericalFailureError(
            f"linear solve did not converge: relative residual {residual:.3e}"
        )
    offset = float(unknowns[n])
    sigma = np.split(np.concatenate([unknowns[:n], unknowns[:N - n][::-1]]), n_strips)

    strips: list[StripFields] = []
    for si, (s, sig) in enumerate(zip(geom.strips, sigma)):
        strips.append(
            StripFields(
                index=si,
                x_left=s.x_start * UM,
                x_right=s.x_end * UM,
                potential=s.potential,
                edges=edges[si],
                centers=centers[si],
                widths=widths[si],
                charge_density=sig,
                e_perp=sig / (2.0 * eps_bar),
            )
        )

    gaps: list[GapFields] = []
    for gi in range(n_strips - 1):
        ga = geom.strips[gi].x_end * UM
        gb = geom.strips[gi + 1].x_start * UM
        nodes = cosine_graded_nodes(ga, gb, n_elem)
        gap_centers = 0.5 * (nodes[:-1] + nodes[1:])
        e_par = tangential_field(gap_centers, strips, eps_bar)
        gaps.append(
            GapFields(
                index=gi,
                x_left=ga,
                x_right=gb,
                centers=gap_centers,
                widths=np.diff(nodes),
                e_par=e_par,
            )
        )

    charges = np.array([s.charge for s in strips])
    energy = 0.5 * float(np.sum(charges * np.array(pots)))
    if not energy > 0.0:
        raise NumericalFailureError(
            f"non-physical solution: stored energy {energy:.3e} J/m"
        )
    dv = max(pots) - min(pots)
    capacitance = 2.0 * energy / dv**2

    return FieldSolution(
        geometry=geom,
        strips=strips,
        gaps=gaps,
        capacitance_per_len=capacitance,
        energy_per_len=energy,
        eps_bar=eps_bar,
        reference_offset=offset,
        residual_norm=float(residual),
        elements_per_strip=n_elem,
    )


def tangential_field(
    x: np.ndarray, strips: list[StripFields], eps_bar: float
) -> np.ndarray:
    """In-plane field E_x at points x on y = 0 outside the metal.

    Element j contributes ``sigma_j (ln|x - a_j| - ln|x - b_j|)``; over a
    strip the sum telescopes to one log per node, weighted by the jump of
    sigma there (zero outside the strip).
    """
    nodes = np.concatenate([s.edges for s in strips])
    jumps = np.concatenate(
        [np.diff(s.charge_density, prepend=0.0, append=0.0) for s in strips]
    )
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(x[:, None] - nodes[None, :]))
    return (logs @ jumps) / (2.0 * np.pi * eps_bar)


def refine_until_converged(
    geom: CrossSection,
    rel_tol: float,
    max_total_elements: int = 8192,
) -> FieldSolution:
    """Double the per-strip discretization until the energy stabilizes.

    Stops once the energy per unit length changes by less than ``rel_tol``
    between successive levels; the returned solution carries the achieved
    level and the last relative change as the discretization-error estimate.

    Raises
    ------
    ConvergenceError
        If the tolerance is not met before the next doubling would exceed
        ``max_total_elements``; the error reports the last two energies.
    """
    if not 0.0 < rel_tol <= 0.1:
        raise InvalidInputError(f"rel_tol must lie in (0, 0.1], got {rel_tol}")
    n_strips = len(geom.strips)
    n_elem = geom.discretization
    prev = solve_cross_section(geom, n_elem)
    energies = [prev.energy_per_len]
    levels = 0
    while 2 * n_elem * n_strips <= max_total_elements:
        next_elem = 2 * n_elem
        sol = solve_cross_section(geom, next_elem)
        levels += 1
        energies.append(sol.energy_per_len)
        change = abs(sol.energy_per_len - prev.energy_per_len) / prev.energy_per_len
        if change < rel_tol:
            sol.refinement_levels = levels
            sol.estimated_rel_error = change
            return sol
        prev, n_elem = sol, next_elem
    last = ", ".join(f"{u:.9e}" for u in energies[-2:])
    raise ConvergenceError(
        f"energy did not converge to rel_tol={rel_tol:g} within the element "
        f"budget; last level {n_elem} elements/strip, last energies [{last}] J/m"
    )


def reconstruct_gap_voltage(sol: FieldSolution, gap_index: int = 0) -> float:
    """Potential drop across a gap from the sampled tangential field.

    Midpoint-rule line integral of ``E_par`` over the gap; up to sampling
    error it must reproduce the potential difference between the bounding
    strips, which makes it an independent check of the field samples.
    """
    if not sol.gaps:
        raise InvalidInputError("solution has no gaps")
    g = sol.gaps[gap_index]
    return float(np.sum(g.e_par * g.widths))


def field_energy_quadrature(
    sol: FieldSolution,
    n_x: int = 700,
    n_y: int = 360,
    span_factor: float = 25.0,
) -> float:
    """Total electric energy per unit length from a 2D field quadrature.

    Reconstructs E(x, y) in the upper half-plane from the element charges
    (closed-form field of each uniformly charged strip element) and
    integrates the energy density on a graded tensor grid.  By the up-down
    symmetry of the interface problem this equals the energy in both
    half-spaces when weighted with ``eps_bar``.  Serves as the independent
    oracle for ``energy_per_len``; expect agreement at the percent level.
    """
    a = np.concatenate([s.edges[:-1] for s in sol.strips])
    b = np.concatenate([s.edges[1:] for s in sol.strips])
    sigma = sol.charge_density
    eps_bar = sol.eps_bar

    lo = sol.strips[0].x_left
    hi = sol.strips[-1].x_right
    span = hi - lo
    far = span_factor * span

    x_core = np.linspace(lo - 0.5 * span, hi + 0.5 * span, n_x)
    x_wing = np.geomspace(span / n_x, far, n_x // 3)
    xs = np.unique(np.concatenate([x_core, lo - 0.5 * span - x_wing, hi + 0.5 * span + x_wing]))
    ys = np.geomspace(span * 1e-5, far, n_y)

    X, Y = np.meshgrid(xs, ys, indexing="ij")
    ex = np.zeros_like(X)
    ey = np.zeros_like(X)
    pref = 1.0 / (2.0 * np.pi * eps_bar)
    for j in range(sigma.size):
        dxa = X - a[j]
        dxb = X - b[j]
        ex += sigma[j] * pref * 0.5 * np.log((dxa**2 + Y**2) / (dxb**2 + Y**2))
        ey += sigma[j] * pref * (np.arctan(dxa / Y) - np.arctan(dxb / Y))
    density = ex**2 + ey**2
    return float(eps_bar * np.trapezoid(np.trapezoid(density, ys, axis=1), xs))


def solution_to_csv(sol: FieldSolution, path) -> None:
    """Write surface samples as CSV: x, sigma, E_perp_sub, E_perp_vac, E_par.

    Strip rows carry the charge density and the normal field, the same in
    both normal-field columns (tangential field is zero on a conductor); gap
    rows carry the tangential field.  An extra
    ``segment`` column identifies the source segment.
    """
    def cells(arrays) -> list[str]:
        return ["%.9g" % v for a in arrays for v in a.tolist()]

    strips, gaps = sol.strips, sol.gaps
    n_strip = sum(s.centers.size for s in strips)
    n_gap = sum(g.centers.size for g in gaps)
    e_perp = cells(s.e_perp for s in strips) + ["0"] * n_gap
    columns = [
        cells(seg.centers / UM for seg in [*strips, *gaps]),
        cells(s.charge_density for s in strips) + ["0"] * n_gap,
        e_perp,
        e_perp,
        ["0"] * n_strip + cells(g.e_par for g in gaps),
        [f"strip{s.index}" for s in strips for _ in range(s.centers.size)]
        + [f"gap{g.index}" for g in gaps for _ in range(g.centers.size)],
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_um", "sigma_c_per_m2", "e_perp_sub_v_per_m",
                         "e_perp_vac_v_per_m", "e_par_v_per_m", "segment"])
        writer.writerows(zip(*columns))
