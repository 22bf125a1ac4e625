"""Arrival times by direct quadrature: the checks, the panels and the integrand.

arrival_times checks that each phase point reaches x (_prepare), grades
its panels toward the nearly singular points (_graded_ends) and integrates
1/sqrt(H - V) with the package's one rule, the rows of a toa grid in
batches. classical_toa.toa_quadrature is its one-row case. The module
loads with the first arrival time, so the exact commands never compile or
import it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .algebra import QPoly, _finite, poly_shift
from .classical_toa import _ACCESS_MARGIN, PhasePoint, Potential, _critical_values
from .errors import NotAccessible, QuadratureFailure, SupratoaError, ZeroMomentum
from .quadrature import _integrate

# Geometric grading of an arrival time's panels toward a nearly singular end:
# the ratio of successive distances, and the most extra ends per panel side.
_GRADE_RATIO = 16.0
_GRADE_MAX = 13

# A gap H - V below this share of |H| plus the sum of |V|'s terms is
# computed exactly, and H - V near it from V's exact expansion.
_CAREFUL_GAP = 1e-4


def _taylor(terms: tuple[tuple[int, float], ...], b: float) -> list[tuple[int, float]]:
    """(k, V^(k)(b) / k!) for k >= 1, from V's float terms by Horner's scheme, repeated."""
    top = max((d for d, _ in terms), default=0)
    c = [0.0] * (top + 1)  # highest degree first
    for d, value in terms:
        c[top - d] = value
    out = []
    for k in range(top + 1):  # pass k leaves the k-th coefficient in c[top - k]
        for i in range(1, top + 1 - k):
            c[i] += b * c[i - 1]
        if k:
            out.append((k, c[top - k]))
    return out


def _width(taylor: list[tuple[int, float]], gap: float) -> float:
    """The distance from b over which V can change by gap, from taylor = _taylor(terms, b).

    min over k >= 1 of (gap / |a_k|)^(1/k), a_k = V^(k)(b) / k!:
    gap / |V'(b)| and sqrt(2 gap / |V''(b)|) and their higher-order kin.
    Within it no term of V(b + s) - V(b) exceeds gap, so 1/sqrt(H - V)
    has no singularity closer to b than this width over the degree of V.
    inf for a constant V, 0 where a coefficient left the float range.
    A zero coefficient is dropped and the others enter by |a_k|, so the
    coefficients at b = -0.0 serve for b = 0.0: they differ at most in the
    sign of a zero.
    """
    gap = max(gap, 0.0)  # an exact gap can fall to 0 where the float one cleared the margin
    return min(
        ((gap / abs(a)) ** (1.0 / k) if math.isfinite(a) else 0.0 for k, a in taylor if a), default=math.inf
    )


def _graded_ends(breaks: list[float], widths: list[float], x: float, q: float) -> list[float]:
    """Panel ends from x to q for the integrand 1/sqrt(H - V).

    breaks are x, q and the critical points of V between them, sorted, and
    widths their local widths (_width). Where a width is short of half a
    panel, that panel is graded toward the breakpoint: extra ends at
    distances width * _GRADE_RATIO^j (j = 0, 1, ...) below half the panel,
    the width floored so that there are at most _GRADE_MAX of them. Each
    graded panel then spans a fixed ratio of distances to the nearly
    singular point, so the Gauss-Kronrod rule converges on it as fast as
    on a smooth integrand, however small H - V is at the breakpoint.
    """
    ends = set(breaks)
    for lo, hi, w_lo, w_hi in zip(breaks, breaks[1:], widths, widths[1:]):
        half = 0.5 * (hi - lo)
        for e, sign, width in ((lo, 1.0, w_lo), (hi, -1.0, w_hi)):
            dist = max(width, half * _GRADE_RATIO**-_GRADE_MAX)
            while dist < half:
                ends.add(e + sign * dist)
                dist *= _GRADE_RATIO
    return sorted(ends, reverse=q < x)


def _prepare(V: Potential, pt: PhasePoint, taylors: dict[float, list[tuple[int, float]]]):
    """A phase point's checks and panels, in toa_quadrature's order.

    ZeroMomentum at p^2 = 0; None when q == x, whose arrival time is 0;
    QuadratureFailure when V at the candidates (classical_toa._critical_values)
    or H is beyond the float range; NotAccessible when H - V is at most the
    access margin at a candidate, the first lowest one named, as argmin
    picks it. Otherwise (energy, ends, careful): the graded panel ends from
    x to q (_graded_ends), and careful the arguments of the integrand's
    exact gaps near the breakpoints where the float gap would lose its
    digits, or None where there are none. The checks run on Python floats.

    taylors maps a breakpoint b to V's Taylor coefficients there,
    _taylor(terms, b), and takes in those this row computes: the rows of
    one arrival_times call share x, V's critical points and, along a toa
    grid's p axis, q, so most of their breakpoints are already in it.

    A float H - V(t) carries an error of order eps times |H| plus the sum
    of |V|'s terms, so where a gap falls below _CAREFUL_GAP of that size,
    the float difference loses most of its digits near the breakpoint b.
    There V's Taylor shift to b is exact, V(b + s) = V(b) + D_b(s), the
    gap is H - V(b) for the exact H of the phase point, rounded once, and
    at each node t nearest to b, H - V(t) = gap_b - D_b(t - b). Just above
    a barrier peak, or where the trajectory barely reaches x, the
    integrand is then as smooth as the rule needs, and as accurate as the
    float inputs allow.
    """
    if pt.p * pt.p == 0:
        raise ZeroMomentum(f"time of arrival undefined at p^2 = 0 (p = {pt.p!r})")
    q, x = float(pt.q), float(pt.x)
    if q == x:
        return None
    points, values = _critical_values(V, x, q)
    energy = _finite("H = p^2/(2 mu) + V(q)", pt.energy, V)

    margin = _ACCESS_MARGIN * max(1.0, abs(energy))
    gaps = [energy - v for v in values]
    k = gaps.index(min(gaps))  # the first lowest, as argmin
    if gaps[k] <= margin:
        raise NotAccessible(f"H - V = {gaps[k]:.3g} <= {margin:.3g} at q' = {points[k]:.6g}")

    gap_at = dict(zip(points, gaps))
    breaks = sorted(gap_at)
    gaps = [gap_at[b] for b in breaks]
    terms = V.poly._floats()
    local = {}  # breakpoint index -> V's expansion there, less its constant
    exact = None
    for j, b in enumerate(breaks):
        size = abs(energy) + sum(abs(c) * abs(b) ** d for d, c in terms)
        if gaps[j] < _CAREFUL_GAP * size:
            if exact is None:
                exact = Fraction(pt.p) ** 2 / (2 * Fraction(pt.mu)) + V.value(Fraction(pt.q))
            shifted = poly_shift(V.poly, Fraction(b))
            local[j] = Potential(QPoly.trusted({d: c for d, c in shifted.coeffs.items() if d}))
            try:
                local[j].poly._floats()  # each coefficient's quotient rounds, or raises
            except OverflowError:
                raise QuadratureFailure(f"V's expansion at q' = {b:.6g} is beyond the float range") from None
            gaps[j] = _finite(f"H - V at q' = {b:.6g}", float, exact - shifted.coeff(0))
    widths = []
    for b, gap in zip(breaks, gaps):
        taylor = taylors.get(b)
        if taylor is None:
            taylor = taylors[b] = _taylor(terms, b)
        widths.append(_width(taylor, gap))
    ends = _graded_ends(breaks, widths, x, q)
    careful = None
    if local:
        cuts = np.array([0.5 * (lo + hi) for lo, hi in zip(breaks, breaks[1:])])
        careful = (breaks, gaps, cuts, local)
    return energy, ends, careful


def _integrand(V: Potential, energies: np.ndarray, careful):
    """1/sqrt(H - V) for a batch of rows, the form _integrate calls: g(nodes, i).

    energies are the rows' H, and careful (_prepare) sets the exact gaps of
    a batch of one row. Raises NotAccessible at a node where H - V <= 0.
    """

    def g(nodes: np.ndarray, i: np.ndarray) -> np.ndarray:
        kinetic = energies[i][:, None] - V.value(nodes)
        if careful is not None:
            breaks, gaps, cuts, local = careful
            near = np.searchsorted(cuts, nodes)
            for j, expansion in local.items():
                at = near == j
                if at.any():
                    kinetic[at] = gaps[j] - expansion.value(nodes[at] - breaks[j])
        # H - V is checked at the critical points only; between them float
        # rounding can still reach 0, where the square root would be NaN
        closed = kinetic <= 0
        if closed.any():
            raise NotAccessible(f"H - V <= 0 at q' = {nodes[closed][0]:.6g}")
        return 1.0 / np.sqrt(kinetic)

    return g


def arrival_times(V: Potential, pts: list[PhasePoint], tol: float) -> list:
    """The time of arrival at each phase point, or the error toa_quadrature raises there.

    Each point gets the float a toa_quadrature(V, pt, tol) call returns,
    or the SupratoaError it raises, of the same class and with the same
    message. Each runs toa_quadrature's checks (_prepare), and the rows
    share one table of V's Taylor coefficients, computed once per distinct
    breakpoint (x, V's critical points, each q) for the call; the rows
    without exact gaps are then integrated in batches, one per number of
    panel ends, through _integrate's batch form, which gives each row the
    value and estimate a call on that row alone gives; a row with exact
    gaps is a batch of one. A batch that raises is integrated again row by
    row, so that each row gets its own error. A row whose estimate exceeds
    max(tol, 1e-14 |integral|) gets QuadratureFailure. A tolerance that is
    not positive and finite raises ValueError.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    results: list = [None] * len(pts)
    batches: dict[int, list] = {}  # number of panel ends -> rows
    singles = []
    taylors: dict[float, list] = {}  # breakpoint -> V's Taylor coefficients there, for every row
    for index, pt in enumerate(pts):
        try:
            row = _prepare(V, pt, taylors)
        except SupratoaError as exc:
            results[index] = exc
            continue
        if row is None:
            results[index] = 0.0
        elif row[2] is None:
            batches.setdefault(len(row[1]), []).append((index, row))
        else:
            singles.append([(index, row)])
    for batch in [*batches.values(), *singles]:
        _integrate_rows(V, pts, batch, tol, results)
    return results


def _integrate_rows(V: Potential, pts: list[PhasePoint], batch: list, tol: float, results: list) -> None:
    """Integrate the prepared rows of batch, all with the same number of panel
    ends, and set each row's arrival time, or the SupratoaError it raises, in results.

    A batch of more than one row that raises runs again row by row.
    """
    energies = np.array([energy for _, (energy, _, _) in batch])
    ends = np.array([row_ends for _, (_, row_ends, _) in batch])
    careful = batch[0][1][2] if len(batch) == 1 else None
    try:
        values, errs = _integrate(_integrand(V, energies, careful), ends, tol)
    except SupratoaError as exc:
        if len(batch) == 1:
            results[batch[0][0]] = exc
        else:
            for row in batch:
                _integrate_rows(V, pts, [row], tol, results)
        return
    for (index, _), value, err in zip(batch, values.tolist(), errs.tolist()):
        pt = pts[index]
        if err > max(tol, 1e-14 * abs(value)):
            results[index] = QuadratureFailure(f"estimated error {err:.3g} exceeds tol {tol:.3g}")
        else:
            sgn_p = 1.0 if pt.p > 0 else -1.0
            results[index] = -sgn_p * math.sqrt(pt.mu / 2.0) * value
