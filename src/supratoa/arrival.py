"""Arrival times by direct quadrature: the panels and the integrand.

classical_toa.toa_quadrature checks that a phase point reaches x and calls
arrival_integral, which grades the panels toward the nearly singular
points (_graded_ends) and integrates 1/sqrt(H - V) with the package's one
rule. The module loads with the first arrival time, so the exact commands
never compile or import it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .algebra import QPoly, poly_shift
from .classical_toa import PhasePoint, Potential, _finite
from .errors import NotAccessible
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


def _width(terms: tuple[tuple[int, float], ...], b: float, gap: float) -> float:
    """The distance from b over which V can change by gap.

    min over k >= 1 of (gap / |a_k|)^(1/k), a_k = V^(k)(b) / k!:
    gap / |V'(b)| and sqrt(2 gap / |V''(b)|) and their higher-order kin.
    Within it no term of V(b + s) - V(b) exceeds gap, so 1/sqrt(H - V)
    has no singularity closer to b than this width over the degree of V.
    inf for a constant V, 0 where a coefficient left the float range.
    """
    gap = max(gap, 0.0)  # an exact gap can fall to 0 where the float one cleared the margin
    taylor = [(k, abs(a)) for k, a in _taylor(terms, b) if a]
    return min(((gap / a) ** (1.0 / k) if math.isfinite(a) else 0.0 for k, a in taylor), default=math.inf)


def _graded_ends(breaks: list[float], widths: list[float], x: float, q: float) -> list[float]:
    """Panel ends from x to q for the integrand 1/sqrt(H - V).

    breaks are x, q and the critical points of V between them, sorted, and
    widths their local widths (_width). Where a width is short of half a
    panel, that panel is graded toward the breakpoint: extra ends at
    distances width * _GRADE_RATIO^j (j = 0, 1, ...) below half the panel,
    the width floored so that there are at most _GRADE_MAX of them. Each
    graded panel then spans a fixed ratio of distances to the nearly
    singular point, so the Gauss-Legendre rule converges on it as fast as
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


def arrival_integral(
    V: Potential, pt: PhasePoint, energy: float, points: np.ndarray, values: np.ndarray, tol: float
) -> tuple[float, float]:
    """The integral of 1/sqrt(H - V) from x to q, and the rule's error estimate.

    energy is H, points are x, q and V's critical points clipped between
    them (classical_toa._critical_values), values V there, and H - V is
    above the access margin at each. The breakpoints are those points,
    sorted, and the panels are graded toward each (_graded_ends).

    A float H - V(t) carries an error of order eps times |H| plus the sum
    of |V|'s terms, so where a gap falls below _CAREFUL_GAP of that size,
    the float difference loses most of its digits near the breakpoint b.
    There V's Taylor shift to b is exact, V(b + s) = V(b) + D_b(s), the
    gap is H - V(b) for the exact H of the phase point, rounded once, and
    at each node t nearest to b, H - V(t) = gap_b - D_b(t - b). Just above
    a barrier peak, or where the trajectory barely reaches x, the
    integrand is then as smooth as the rule needs, and as accurate as the
    float inputs allow. Raises NotAccessible at a node where H - V <= 0.
    """
    gap_at = dict(zip(points.tolist(), (energy - values).tolist()))
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
            _finite(f"V's expansion at q' = {b:.6g}", local[j].poly._floats)
            gaps[j] = _finite(f"H - V at q' = {b:.6g}", float, exact - shifted.coeff(0))
    cuts = np.array([0.5 * (lo + hi) for lo, hi in zip(breaks, breaks[1:])])
    widths = [_width(terms, b, g) for b, g in zip(breaks, gaps)]

    def integrand(nodes: np.ndarray) -> np.ndarray:
        kinetic = energy - V.value(nodes)
        if local:
            near = np.searchsorted(cuts, nodes)
            for j, expansion in local.items():
                at = near == j
                if at.any():
                    kinetic[at] = gaps[j] - expansion.value(nodes[at] - breaks[j])
        # H - V is checked at the critical points only; between them float
        # rounding can still reach 0, where the square root would be NaN
        closed = kinetic <= 0
        if closed.any():
            raise NotAccessible(f"H - V <= 0 at q' = {nodes[closed.argmax()]:.6g}")
        return 1.0 / np.sqrt(kinetic)

    return _integrate(integrand, _graded_ends(breaks, widths, float(pt.x), float(pt.q)), tol)
