"""Weyl-Wigner transforms between kernel tables and phase-space series.

Both directions are algebraic term maps, never numeric integrals: the
distributional identity
    integral sigma^(m-1) sgn(sigma) e^(-i x sigma) d sigma = 2 (m-1)! / i^m x^-m
is applied as an exact rewrite rule on each monomial. All bookkeeping stays
rational; the powers of i cancel pairwise so every output coefficient is real.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .algebra import GradedKernel, MomentumSeries, QPoly, Rational, RationalLike
from .errors import GradeError


def _term_factor(mu: Rational, j: int, e: int) -> Rational:
    """-2 mu (2j)! (-1)^j (mu/2)^e, the Wigner image of v^(2j) at w-power e."""
    return -2 * mu * math.factorial(2 * j) * (-1) ** j * (mu / 2) ** e


def wigner_transform(K: GradedKernel) -> MomentumSeries:
    """Phase-space series of a kernel table.

    The kernel entry (m, j, s) with coefficient A contributes exactly
        -2 mu (2j)! (-1)^j (mu/2)^(j-s) A 2^m q^m
    to the series term at p-index k = j and hbar grade s. The output is odd
    in p by construction (only p^-(2j+1) powers arise) and hbar enters only
    at even powers 2s. Entry n / D_j of layer j with factor F / F' is the
    coefficient n F 2^m / (D_j F'): one Fraction per coefficient, in the
    table's layer, row and grade order.
    """
    if not K.mu:
        return MomentumSeries()  # every factor is zero
    polys: dict[tuple[int, int], dict[int, Rational]] = {}
    for j, (rows, D) in enumerate(K.layers):
        scale: dict[int, tuple[int, int, dict[int, Rational]]] = {}
        for m, row in rows.items():
            for s, n in row.items():
                if s not in scale:
                    f = _term_factor(K.mu, j, j - s)
                    scale[s] = (f.numerator, D * f.denominator, polys.setdefault((j, s), {}))
                num, den, poly = scale[s]
                poly[m] = Fraction(n * num << m, den)
    return MomentumSeries({key: QPoly.trusted(row) for key, row in polys.items()})


def classical_limit(T: MomentumSeries) -> MomentumSeries:
    """Restriction to hbar grade s = 0 (the hbar -> 0 limit)."""
    return T.restrict(lambda k, s: s == 0)


def hbar2_residual(T: MomentumSeries) -> MomentumSeries:
    """Restriction to grades s >= 1: the obstruction to a pure classical limit.

    Empty exactly when the generating system is linear (degree <= 2).
    """
    return T.restrict(lambda k, s: s >= 1)


def weyl_quantize(t: MomentumSeries, mu: RationalLike = 1) -> GradedKernel:
    """Kernel table of a classical phase-space series.

    Inverts the wigner_transform term map on s = 0 input: the monomial
    c q^a p^-(2k+1) becomes the kernel entry
        A[(a, k, 0)] = c / (-2 mu (2k)! (-1)^k (mu/2)^k 2^a).
    Quantization acts on classical observables only, so any s >= 1 term is
    rejected rather than guessing a mixed-order convention.
    """
    mu = Fraction(mu)
    graded = sorted(key for key in t.terms if key[1] >= 1)
    if graded:
        raise GradeError(f"input carries hbar grades s >= 1 at {graded}")
    table: dict[tuple[int, int, int], Rational] = {}
    max_a = 0
    max_k = 0
    for (k, _), poly in t.terms.items():
        denom_k = _term_factor(mu, k, k)
        for a, c in poly.coeffs.items():
            if a == 0:
                raise ValueError(
                    "constant-in-q term is not representable as a kernel entry (needs u-power >= 1)"
                )
            table[(a, k, 0)] = c / (denom_k * 2**a)
            max_a = max(max_a, a)
            max_k = max(max_k, k)
    truncation = (max(max_a, 2 * max_k + 1), max_k)
    return GradedKernel(table, mu, truncation)
