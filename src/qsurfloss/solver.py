"""Chebyshev-collocation electrostatics for coplanar strips on a dielectric
half-space.

The strips are zero-thickness conductors on the y = 0 interface between
vacuum (above) and the substrate (below).  For charge confined to that plane
the two-media problem is equivalent to a homogeneous medium with permittivity
``eps_bar = (eps_vac + eps_sub)/2 * eps0``; the potential is symmetric in y,
so field magnitudes just above and just below the plane coincide, and the
normal field vanishes on the exposed substrate in the gaps.

On strip j (centre c, half-width h, t = (x - c)/h) the charge density is
``sigma = sum_{n<M} a_n T_n(t) / sqrt(1 - t^2)``, which builds in Meixner's
inverse-square-root edge condition (IEEE Trans. AP 20, 442 (1972)).  The log
kernel is diagonal in this basis (Erdogan & Gupta, Q. Appl. Math. 29, 525
(1972)): int ln|t - s| T_n(s) / sqrt(1 - s^2) ds is -pi T_n(t)/n (n >= 1)
and -pi ln 2 (n = 0) on the strip, and -(pi/n) u^n and
pi ln((|t| + sqrt(t^2 - 1))/2) beyond it, u = t - sgn(t) sqrt(t^2 - 1).
``phi = V_i`` is collocated at the M Chebyshev-Gauss points of every strip.
A floating reference constant and the neutrality row ``sum_j pi h_j a_j0 =
0`` make the capacitance well defined and exactly scale invariant; the strip
charge is ``pi h a_0``.

The gap field ``E_x = sum_n a_n sgn(t) u^n / (2 eps_bar sqrt(t^2 - 1))``
and the gap voltage, a difference of the exterior kernel, are closed forms.
A solution keeps the a_n and derives the rest: its gap voltages once, from
one kernel evaluation at every gap end; only :func:`solution_to_csv`
samples sigma and E_x, at the Chebyshev points of every strip and gap.
The series shows its own truncation error: the a_n of a resolved strip
decay geometrically, so the share of sum |a_n| held by the upper half of
the terms measures what the missing terms would add (Boyd, *Chebyshev and
Fourier Spectral Methods*, 2nd ed., 2001, ch. 2; Aurentz & Trefethen, ACM
TOMS 43, 33 (2017)).  :func:`refine_until_converged` accepts a solve on
that tail alone.
Beyond a strip, |t| is taken as 1 + d/h from the offset d to the nearest
edge, so rounding does not enter sqrt(t^2 - 1) there.  The edge-cut
integrals of sigma^2 and E_x^2 substitute x = mid + half tanh(s), which
makes the integrands smooth for Gauss-Legendre quadrature.

Solution arrays are in SI units (m, C/m^2, V/m, F/m, J/m); geometry input
remains in micrometres.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import (ConvergenceError, InvalidInputError, NumericalFailureError,
                     integer, real, write_text)
from .geometry import CrossSection, Strip

UM = 1e-6

#: Vacuum permittivity, F/m (CODATA 2022, the value of ``scipy.constants``).
epsilon_0 = 8.8541878188e-12

#: Relative residual above which a direct solve is treated as failed.
SOLVE_RESIDUAL_TOL = 1e-8


def _edges(geom: CrossSection) -> tuple[np.ndarray, np.ndarray]:
    """Left and right edges of the strips of ``geom``, m."""
    return (np.array([s.x_start for s in geom.strips]) * UM,
            np.array([s.x_end for s in geom.strips]) * UM)


@dataclass
class FieldSolution:
    """Self-consistent surface solution of a :class:`CrossSection`: one row
    of Chebyshev coefficients per strip.  Strip bounds and charges, gaps,
    ``eps_bar`` and the capacitance follow from them and the geometry."""

    geometry: CrossSection
    coefficients: np.ndarray    # a_n of sigma = sum a_n T_n(t)/sqrt(1-t^2), C/m^2
    energy_per_len: float       # J/m
    residual_norm: float
    refinement_levels: int = 0
    estimated_rel_error: float | None = None

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Left and right strip edges, m, derived from the geometry once per
        solution; a copy that :func:`dataclasses.replace` makes derives its
        own."""
        return _edges(self.geometry)

    @cached_property
    def _gap_voltages(self) -> list[float]:
        """Potential drop across every gap, V: one exterior-kernel evaluation
        at the 2G gap ends (left, right of each gap in turn), derived once
        per solution like :attr:`_bounds`."""
        left, right = self._bounds
        ends = np.stack([right[:-1], left[1:]], axis=1).ravel()
        kernel = _log_kernel(ends, left, right, self.coefficients.shape[1])
        scale = 0.5 * (right - left) / (2.0 * self.eps_bar)  # b_n = a_n h / (2 eps_bar)
        phi = np.einsum("nps,sn->p", kernel, self.coefficients * scale[:, None])
        return (phi[0::2] - phi[1::2]).tolist()

    @property
    def strips(self) -> tuple[Strip, ...]:
        return self.geometry.strips

    @property
    def gaps(self) -> list[tuple[float, float]]:
        """(left, right) of the exposed substrate between adjacent strips, m."""
        left, right = self._bounds
        return list(zip(right[:-1].tolist(), left[1:].tolist()))

    @property
    def elements_per_strip(self) -> int:
        """Chebyshev terms per strip, M, the discretization of the geometry."""
        return self.geometry.discretization

    @property
    def eps_bar(self) -> float:
        """Effective homogeneous permittivity of the interface problem, F/m."""
        return 0.5 * (self.geometry.eps_vac_rel + self.geometry.eps_sub_rel) * epsilon_0

    @property
    def capacitance_per_len(self) -> float:
        """2 U / dV^2 over the largest potential difference, F/m."""
        pots = self.geometry.potentials
        return 2.0 * self.energy_per_len / (max(pots) - min(pots))**2

    def strip_charges(self) -> list[float]:
        """Line charge pi h a_0 of every strip, C/m."""
        left, right = self._bounds
        return (np.pi * (0.5 * (right - left)) * self.coefficients[:, 0]).tolist()

    def cell(self) -> tuple[float, float, float]:
        """x-bounds in metres and energy in J/m of the representative cell.

        The cell is the flagged strip plus half of each adjacent gap, and its
        energy is that strip's share 1/2 |q V| (periodic-interior proxy).
        Without a flagged cell it is the whole line and the total energy.
        """
        ci = self.geometry.representative_cell
        if ci is None:
            return -np.inf, np.inf, self.energy_per_len
        left, right = self._bounds
        lo, hi = left[ci], right[ci]
        if ci > 0:
            lo = 0.5 * (right[ci - 1] + lo)
        if ci < len(left) - 1:
            hi = 0.5 * (hi + left[ci + 1])
        return lo, hi, 0.5 * abs(self.strip_charges()[ci] * self.strips[ci].potential)


def _exterior(
    x: np.ndarray, left: np.ndarray, right: np.ndarray, m: int
) -> tuple[np.ndarray, ...]:
    """sgn(t), |t| - 1, sqrt(t^2 - 1) and u**n (n < m) of every strip
    [left, right] at points x on y = 0 beyond its edges, of shape
    (points, strips) and (m, points, strips); |t| - 1 is the offset from the
    nearest edge over the half-width."""
    x = x[:, None]
    beyond = x >= right
    sign = np.where(beyond, 1.0, -1.0)
    e = np.maximum(np.where(beyond, x - right, left - x), 0.0) / (0.5 * (right - left))
    root = np.sqrt(e * (e + 2.0))
    u = sign / (1.0 + e + root)
    powers = np.empty((m,) + e.shape)
    powers[0] = 1.0
    for n in range(1, m):  # contiguous products; np.cumprod is ~4x slower here
        np.multiply(powers[n - 1], u, out=powers[n])
    return sign, e, root, powers


def _log_kernel(
    x: np.ndarray, left: np.ndarray, right: np.ndarray, m: int
) -> np.ndarray:
    """Potential at points x beyond each strip of a unit coefficient
    b_n = a_n h / (2 eps_bar): u^n / n for n >= 1 and -(acosh|t| + ln(h/2))
    for n = 0, shape (m, points, strips)."""
    _, e, root, kernel = _exterior(x, left, right, m)
    kernel[1:] /= np.arange(1, m)[:, None, None]
    kernel[0] = -(np.log1p(e + root) + np.log(0.5 * (right - left) / 2.0))
    return kernel


@lru_cache(maxsize=4)
def _chebyshev_nodes(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """theta_k, T_n(t_k) and 1 + t_k at the m ascending Chebyshev-Gauss points
    t_k = cos(theta_k) of collocation and sampling, built once, read-only."""
    theta = np.pi * (m - 0.5 - np.arange(m)) / m
    cheb = np.cos(np.outer(theta, np.arange(m)))
    rise = 2.0 * np.cos(0.5 * theta) ** 2
    theta.flags.writeable = cheb.flags.writeable = rise.flags.writeable = False
    return theta, cheb, rise


def solve_cross_section(geom: CrossSection) -> FieldSolution:
    """Solve the electrostatic problem for a strip-array cross section.

    Parameters
    ----------
    geom:
        Cross section with at least two strips at differing potentials,
        solved at ``geom.discretization`` Chebyshev terms per strip, M.
        Solve another M with ``dataclasses.replace(geom, discretization=M)``.

    Returns
    -------
    FieldSolution
        The Chebyshev coefficients of every strip and the electric energy
        per unit length; bounds, charges and capacitance follow from them
        and ``geom``.

    Raises
    ------
    InvalidInputError
        If all strips sit at the same potential (degenerate drive).
    NumericalFailureError
        If the dense solve leaves a relative residual above
        ``SOLVE_RESIDUAL_TOL``.
    """
    m = geom.discretization
    pots = geom.potentials
    if len(geom.strips) < 2 or max(pots) == min(pots):
        raise InvalidInputError(
            "degenerate geometry: need at least two strips at differing potentials"
        )

    eps_bar = 0.5 * (geom.eps_vac_rel + geom.eps_sub_rel) * epsilon_0
    n_strips = len(geom.strips)
    left, right = _edges(geom)
    half = 0.5 * (right - left)
    _, cheb, rise = _chebyshev_nodes(m)
    centers = left[:, None] + half[:, None] * rise

    # Row (i, k): sum_j,n b_jn K_n(x_ik) + c = V_i in b_jn = a_jn h_j/(2 eps_bar).
    # Off-strip blocks are the exterior kernel, diagonal blocks the interior
    # T_n(t_k)/n and -ln(h/2) of the diagonal log kernel.
    N = n_strips * m
    system = np.zeros((N + 1, N + 1))
    blocks = system[:N, :N].reshape(n_strips, m, n_strips, m)
    blocks[...] = _log_kernel(centers.ravel(), left, right, m).transpose(
        1, 2, 0).reshape(n_strips, m, n_strips, m)
    interior = np.empty((n_strips, m, m))
    interior[:, :, 1:] = cheb[:, 1:] / np.arange(1, m)
    interior[:, :, 0] = -np.log(half / 2.0)[:, None]
    every = np.arange(n_strips)
    blocks[every, :, every, :] = interior
    system[:N, N] = 1.0            # floating reference constant
    system[N, :N:m] = 1.0          # neutrality: sum_j b_j0 = 0
    rhs = np.append(np.repeat(pots, m), 0.0)

    try:
        unknowns = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"singular collocation system: {exc}") from exc
    residual = np.linalg.norm(system @ unknowns - rhs) / np.linalg.norm(rhs)
    if not np.isfinite(residual) or residual > SOLVE_RESIDUAL_TOL:
        raise NumericalFailureError(
            f"linear solve did not converge: relative residual {residual:.3e}"
        )
    coeffs = unknowns[:N].reshape(n_strips, m) * (2.0 * eps_bar / half[:, None])
    energy = 0.5 * float(np.dot(np.pi * half * coeffs[:, 0], pots))  # 1/2 sum q V
    if not energy > 0.0:
        raise NumericalFailureError(
            f"non-physical solution: stored energy {energy:.3e} J/m"
        )
    return FieldSolution(geom, coeffs, energy, float(residual))


def tangential_field(x: np.ndarray, sol: FieldSolution) -> np.ndarray:
    """In-plane field E_x at points x on y = 0 outside the metal, the sum of
    ``a_n sgn(t) u^n / (2 eps_bar sqrt(t^2 - 1))`` over every strip and term."""
    left, right = sol._bounds
    sign, _, root, powers = _exterior(np.asarray(x, dtype=float), left, right,
                                      sol.coefficients.shape[1])
    series = np.einsum("nps,sn->ps", powers, sol.coefficients)
    return (series * sign / root).sum(axis=1) / (2.0 * sol.eps_bar)


def reconstruct_gap_voltage(sol: FieldSolution, gap_index: int = 0) -> float:
    """Potential drop across a gap, the integral of ``E_par`` over it.

    It is the difference of the exterior log kernel of every strip at the
    gap's two ends, so it is exact for the solved coefficients; it must
    reproduce the potential difference between the bounding strips, which
    checks the collocation between the points.  The solution derives the
    drops of all its gaps at once, on first use.  ``gap_index`` must be an
    integer in ``range(len(sol.gaps))``; a negative one is refused, not
    counted from the last gap.
    """
    n = len(sol.gaps)
    if not n:
        raise InvalidInputError("solution has no gaps")
    return sol._gap_voltages[integer(
        gap_index, f"gap_index must be an integer in [0, {n})", lambda i: 0 <= i < n)]


@lru_cache(maxsize=None)
def _gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of k-point Gauss-Legendre on [-1, 1], built once."""
    return np.polynomial.legendre.leggauss(k)


def edge_cut_square_integral(sol: FieldSolution, gaps: bool = False) -> float:
    """Integral of E_perp^2 dx over the strips inside the cell window
    :meth:`FieldSolution.cell`, or with ``gaps=True`` of E_x^2 dx over the
    gaps clipped to it, cut the geometry's ``edge_cutoff`` away from every
    strip edge; (V/m)^2 m.  It is 0.0 when the cut leaves no segment, as
    with gaps that are all narrower than twice the cutoff.

    On a segment [L, R], x = mid + half tanh(s) cancels the inverse-square-
    root ends (dx/ds = half / cosh^2 s), so Gauss-Legendre quadrature in s
    with a number of points growing with the terms per strip is exact to
    rounding.
    """
    cutoff_m = sol.geometry.edge_cutoff * UM
    if not cutoff_m > 0:
        raise InvalidInputError(
            "edge cutoff must be > 0: the edge integrals diverge as ln(1 / cutoff)"
        )
    x_min, x_max, _ = sol.cell()
    left, right = sol._bounds
    keep = (x_min <= left) & (right <= x_max)  # whole strips inside the cell
    if gaps:  # every gap, clipped to the cell
        left, right, keep = right[:-1], left[1:], True
    lo, hi = np.maximum(left + cutoff_m, x_min), np.minimum(right - cutoff_m, x_max)
    keep = keep & (lo < hi)
    if not keep.any():
        return 0.0
    left, right, lo, hi = left[keep], right[keep], lo[keep], hi[keep]
    if np.any(lo <= left) or np.any(hi >= right):
        raise InvalidInputError(
            f"edge cutoff {cutoff_m / UM:g} um is below the resolution of the "
            "section's coordinates"
        )
    half = 0.5 * (right - left)
    s_lo = 0.5 * np.log((lo - left) / (right - lo))
    s_hi = 0.5 * np.log((hi - left) / (right - hi))
    nodes, weights = _gauss_legendre(sol.elements_per_strip + 32)
    s = 0.5 * (s_lo + s_hi) + 0.5 * np.outer(nodes, s_hi - s_lo)
    if gaps:
        x = left + 2.0 * half / (1.0 + np.exp(-2.0 * s))
        field = tangential_field(x.ravel(), sol).reshape(x.shape)
        dx_ds = half / np.cosh(s) ** 2
    else:  # sigma^2 dx = h (sum a_n T_n(t))^2 ds at t = tanh(s)
        field = np.polynomial.chebyshev.chebval(np.tanh(s), sol.coefficients[keep].T,
                                                tensor=False)
        field /= 2.0 * sol.eps_bar
        dx_ds = half
    return float(weights @ (field**2 * dx_ds) @ (0.5 * (s_hi - s_lo)))


def _coefficient_tail(coefficients: np.ndarray) -> float:
    """Largest share, over strips, of sum |a_n| held by the terms n >= M/2."""
    magnitudes = np.abs(coefficients)
    upper = magnitudes[:, (magnitudes.shape[1] + 1) // 2:].sum(axis=1)
    return float(np.max(upper / magnitudes.sum(axis=1)))


def refine_until_converged(
    geom: CrossSection,
    rel_tol: float,
    max_total_elements: int = 8192,
) -> FieldSolution:
    """Solve ``geom``, doubling its Chebyshev terms per strip until the
    series resolves every strip.

    The first level solves ``geom`` at its own ``discretization`` M.  A level
    is accepted once its coefficient tail, the largest share over strips of
    sum |a_n| held by the terms n >= M/2, is below ``rel_tol``; otherwise M
    doubles.  The rule is the same at every level and every edge cutoff, and
    it takes no layer integral.  The returned solution, whose ``geometry``
    is the last copy, carries the number of doublings as
    ``refinement_levels`` and its tail as ``estimated_rel_error``.  On the
    sections tested, down to w/g = 200, cutoffs of 1e-3 of the gap and the
    161-finger cell, the tail is at least the relative change of the energy
    and of every participation against four times the terms; narrow gaps,
    w/g of 100 and more, need more terms.

    Raises
    ------
    InvalidInputError
        If ``rel_tol`` is not a number in (0, 0.1] or ``max_total_elements``
        is not an integer.
    ConvergenceError
        If the tail is not below ``rel_tol`` before the next doubling would
        exceed ``max_total_elements`` terms over all strips; the error
        reports the last level's terms per strip, tail and energy.
    """
    rel_tol = real(rel_tol, "rel_tol must lie in (0, 0.1]", lambda t: 0.0 < t <= 0.1)
    max_total_elements = integer(max_total_elements,
                                 "max_total_elements must be an integer")
    levels = 0
    while True:
        sol = solve_cross_section(geom)
        tail = _coefficient_tail(sol.coefficients)
        if tail < rel_tol:
            sol.refinement_levels, sol.estimated_rel_error = levels, tail
            return sol
        m = geom.discretization
        if 2 * m * len(geom.strips) > max_total_elements:
            raise ConvergenceError(
                f"solution did not converge to rel_tol={rel_tol:g} within the "
                f"term budget; last level {m} terms/strip, coefficient tail "
                f"{tail:.3e}, energy {sol.energy_per_len:.9e} J/m"
            )
        geom = replace(geom, discretization=2 * m)
        levels += 1


def _surface_samples(sol: FieldSolution) -> tuple[np.ndarray, ...]:
    """Chebyshev points (m) and sigma (C/m^2) of every strip, and Chebyshev
    points (m) and E_x (V/m) of every gap, each of shape (segments, M)."""
    left, right = sol._bounds
    theta, cheb, rise = _chebyshev_nodes(sol.coefficients.shape[1])
    strip_x = left[:, None] + (0.5 * (right - left))[:, None] * rise
    sigma = sol.coefficients @ cheb.T / np.sin(theta)
    gap_x = right[:-1, None] + 0.5 * (left[1:] - right[:-1])[:, None] * rise
    e_par = tangential_field(gap_x.ravel(), sol)
    return strip_x, sigma, gap_x, e_par.reshape(gap_x.shape)


def solution_to_csv(sol: FieldSolution, path) -> None:
    """Write surface samples as CSV: x, sigma, E_perp_sub, E_perp_vac, E_par.

    Strip rows sit at the Chebyshev points of each strip and carry the charge
    density and the normal field sigma / (2 eps_bar), the same in both
    normal-field columns (tangential field is zero on a conductor); gap rows
    sit at the Chebyshev points of each gap and carry the tangential field.
    An extra ``segment`` column identifies the source segment.

    The bytes are those of :func:`csv.writer`: numbers as ``%.9g``, a
    column the segment does not carry as ``0``, no cell quoted (none holds
    a comma, quote or line break) and every line ended by CRLF.  The file is formatted by one
    ``%`` on a row template repeated per sample, and written at once.
    """
    strip_x, sigma, gap_x, e_par = _surface_samples(sol)
    e_perp, m = sigma / (2.0 * sol.eps_bar), sigma.shape[1]
    template = ["x_um,sigma_c_per_m2,e_perp_sub_v_per_m,e_perp_vac_v_per_m,"
                "e_par_v_per_m,segment\r\n"]
    template += [f"%.9g,%.9g,%.9g,%.9g,0,strip{i}\r\n" * m for i in range(len(sigma))]
    template += [f"%.9g,0,0,0,%.9g,gap{i}\r\n" * m for i in range(len(gap_x))]
    values = (np.stack([strip_x / UM, sigma, e_perp, e_perp], axis=-1).ravel().tolist()
              + np.stack([gap_x / UM, e_par], axis=-1).ravel().tolist())
    write_text(path, "".join(template) % tuple(values))
