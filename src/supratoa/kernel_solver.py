"""Solvers for the time kernel equation as an exact graded power series.

The kernel factor T is expanded in characteristic coordinates u = q + q',
v = q - q' as T(u, v) = sum A[(m, j, s)] (mu/2 hbar^2)^(j-s) u^m v^(2j) with
boundary data T(u, 0) = u/4 and T(0, v) = 0. The PDE
    -2 (hbar^2/mu) d2T/dudv + [V((u+v)/2) - V((u-v)/2)] T = 0
closes into a rational recurrence on the table A: writing the potential
difference as
    V((u+v)/2) - V((u-v)/2) = sum_l (a_l / 2^(l-1)) sum_r C(l, 2r+1) u^(l-2r-1) v^(2r+1)
and matching monomials gives
    A[(m, j, s)] = (1 / (2 j m)) * sum_{r, l} (a_l / 2^(l-1)) C(l, 2r+1) A[(m-l+2r, j-1-r, s-r)]
with seed A[(1, 0, 0)] = 1/4 and all out-of-range references zero. The
general solver fills layer j by pushing each nonzero entry of layer j-1-r
through the difference terms with that r, so empty cells are never visited.

Specialized solvers for the harmonic, purely quartic, and general linear
potentials reach the same tables through independent routes and serve as
exact cross-checks of the general recurrence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .algebra import GradedKernel, QPoly, Rational, RationalLike
from .classical_toa import Potential


def default_mmax(degree: int, jmax: int) -> int:
    """Natural u-power bound for a degree-D potential at truncation jmax.

    Recurrence support analysis gives m <= D*jmax + 1; the container floor
    2*jmax + 1 covers the low-degree cases (D <= 2) where v-powers outrun it.
    """
    return max(degree * jmax + 1, 2 * jmax + 1)


@dataclass(frozen=True)
class KernelRequest:
    """Inputs for the general solver: potential, mass, truncation order."""

    V: Potential
    mu: Rational
    Jmax: int

    def __post_init__(self):
        if self.Jmax < 0:
            raise ValueError("Jmax must be >= 0")
        object.__setattr__(self, "mu", Fraction(self.mu))


def _potential_monomials(V: Potential) -> list[tuple[int, Rational]]:
    """(degree, coefficient) pairs with degree >= 1; the constant term cancels."""
    return sorted((d, c) for d, c in V.poly.coeffs.items() if d >= 1)


def _difference_terms(V: Potential) -> list[tuple[int, int, Rational]]:
    """(l, r, a_l C(l, 2r+1) / 2^(l-1)) for each monomial of V((u+v)/2) - V((u-v)/2).

    Term (l, r) multiplies u^(l-2r-1) v^(2r+1); the constant of V cancels.
    """
    return [
        (l, r, a_l * Fraction(math.comb(l, 2 * r + 1), 2 ** (l - 1)))
        for l, a_l in _potential_monomials(V)
        for r in range((l - 1) // 2 + 1)
    ]


def solve_kernel_general(req: KernelRequest) -> GradedKernel:
    """Fill the graded coefficient table for an arbitrary polynomial potential.

    Works for every polynomial potential including V = 0 (free particle),
    whose exact kernel is the single seed entry A[(1, 0, 0)] = 1/4.

    Layer j is pushed on integers, and the table is those layers: each
    layer is held as integer numerators over its minimal common denominator
    D_j, difference term p/q reads layer j-1-r scaled to E = lcm(D_{j-1-r} q)
    over the active terms, and entry (m, s) of layer j is its integer sum t
    over 2 j m E. With M the lcm of the layer's m, that is t (M / m) over
    L = 2 j E M, and one gcd of L and those numerators reduces the layer to
    D_j. Nothing is cut: by induction over the difference terms every entry
    of layer j has m <= D*j + 1 for a degree-D potential, inside the
    recorded default_mmax truncation.
    """
    terms = [(l, r, c.numerator, c.denominator) for l, r, c in _difference_terms(req.V)]
    layers: list[tuple[dict[tuple[int, int], int], int]] = [({(1, 0): 1}, 4)]
    for j in range(1, req.Jmax + 1):
        active = [(l, r, p, q, layers[j - 1 - r]) for l, r, p, q in terms if r < j]
        E = math.lcm(*(D * q for _, _, _, q, (_, D) in active))
        sums: dict[tuple[int, int], int] = {}
        for l, r, p, q, (nums, D) in active:
            scale = p * (E // (D * q))
            for (mp, sp), n in nums.items():
                key = (mp + l - 2 * r, sp + r)
                sums[key] = sums.get(key, 0) + scale * n
        M = math.lcm(*(m for (m, _), t in sums.items() if t))
        layer = {(m, s): t * (M // m) for (m, s), t in sorted(sums.items()) if t}
        L = 2 * j * E * M
        g = math.gcd(L, *layer.values())
        layers.append(({key: n // g for key, n in layer.items()}, L // g))
    mmax = default_mmax(max(req.V.degree, 0), req.Jmax)
    return GradedKernel.from_layers(layers, req.mu, (mmax, req.Jmax), potential=req.V.poly)


def solve_kernel_harmonic(muomega: RationalLike, Jmax: int, mu: RationalLike = 1) -> GradedKernel:
    """Closed-form kernel table for V = (1/2) mu omega^2 q^2.

    The solution is the single chain A[(2k+1, k, 0)] = (1/4) a2^k / (2k+1)!
    with a2 = (1/2) mu omega^2 = muomega^2 / (2 mu); no s >= 1 grades appear.
    The muomega argument is the product mu*omega; the mass enters separately
    only through a2 and the stored mu field.
    """
    if Jmax < 0:
        raise ValueError("Jmax must be >= 0")
    muomega = Fraction(muomega)
    mu = Fraction(mu)
    a2 = muomega**2 / (2 * mu)
    table: dict[tuple[int, int, int], Rational] = {}
    for k in range(Jmax + 1):
        table[(2 * k + 1, k, 0)] = Fraction(1, 4) * a2**k / math.factorial(2 * k + 1)
    return GradedKernel(table, mu, (2 * Jmax + 1, Jmax), potential=QPoly({2: a2}))


def solve_kernel_anharmonic(lam: RationalLike, mu: RationalLike, Jmax: int) -> GradedKernel:
    """Kernel table for the pure quartic V = lam q^4 via the beta recurrence.

    In reduced units the double-sum layout beta[k][j] (k the hbar-correction
    index, j the v-power index) satisfies
        beta[k][j] = (beta[k][j-1] + beta[k-1][j-2]) / ((4j+1-6k) * 2j)
    with beta[0][0] = 1 and support j >= 2k. Each (k, j) converts to the
    graded entry A[(4j+1-6k, j, k)] = (1/4) beta[k][j] (lam/2)^(j-k). The
    gamma-function closed forms that also solve this recurrence are not
    evaluated; the rational recurrence is the computation path.
    """
    if Jmax < 0:
        raise ValueError("Jmax must be >= 0")
    lam = Fraction(lam)
    mu = Fraction(mu)
    beta: dict[tuple[int, int], Rational] = {(0, 0): Fraction(1)}
    for j in range(1, Jmax + 1):
        for k in range(0, j // 2 + 1):
            num = beta.get((k, j - 1), Fraction(0)) + beta.get((k - 1, j - 2), Fraction(0))
            if num:
                beta[(k, j)] = num / ((4 * j + 1 - 6 * k) * 2 * j)
    table: dict[tuple[int, int, int], Rational] = {}
    for (k, j), b in beta.items():
        table[(4 * j + 1 - 6 * k, j, k)] = Fraction(1, 4) * b * (lam / 2) ** (j - k)
    return GradedKernel(table, mu, (4 * Jmax + 1, Jmax), potential=QPoly({4: lam}))


def linear_sigma_table(kmax: int) -> dict[tuple[int, int], Rational]:
    """sigma[k, j] coefficients of the linear-potential kernel assembly.

    sigma[k, j] = (sigma[k-1, j-1] + sigma[k-1, j]/2) / (2k+1-j), seeded by
    sigma[0, 0] = 1, vanishing outside 0 <= j <= k. These also enter the
    binomial-integral identity checked in the test suite.
    """
    sigma: dict[tuple[int, int], Rational] = {(0, 0): Fraction(1)}
    for k in range(1, kmax + 1):
        for j in range(0, k + 1):
            num = sigma.get((k - 1, j - 1), Fraction(0)) + sigma.get((k - 1, j), Fraction(0)) / 2
            if num:
                sigma[(k, j)] = num / (2 * k + 1 - j)
    return sigma


def solve_kernel_linear(a: RationalLike, b: RationalLike, mu: RationalLike, Kmax: int) -> GradedKernel:
    """Kernel table for the general linear system V = a q + (1/2) b q^2.

    Assembled as T = (1/4) sum_k (mu/2 hbar^2)^k (1/(2^k k!))
    sum_j sigma[k, j] b^(k-j) a^j u^(2k+1-j) v^(2k); only s = 0 grades are
    populated, which is the linear-system purity statement.
    """
    if Kmax < 0:
        raise ValueError("Kmax must be >= 0")
    a = Fraction(a)
    b = Fraction(b)
    mu = Fraction(mu)
    sigma = linear_sigma_table(Kmax)
    table: dict[tuple[int, int, int], Rational] = {}
    for (k, j), s_kj in sigma.items():
        coeff = Fraction(1, 4) * s_kj * b ** (k - j) * a**j / (2**k * math.factorial(k))
        if coeff:
            key = (2 * k + 1 - j, k, 0)
            table[key] = table.get(key, Fraction(0)) + coeff
    table = {key: c for key, c in table.items() if c}
    potential = QPoly({1: a, 2: b / 2})
    return GradedKernel(table, mu, (2 * Kmax + 1, Kmax), potential=potential)


def classical_term(V: Potential, mu: RationalLike, Jmax: int) -> dict[tuple[int, int], Rational]:
    """The s = 0 (classical) slice of the kernel table, by its own recurrence.

    C[m, j] = sum_{s=1}^{m-j} (s a_s / (m-s)) C[m-s, j-1] with C[m, 0] =
    delta_{m,1}; the slice entries are A[(m, j, 0)] = C[m, j]/(j! 2^(m+1) m).
    Support is confined to m >= j+1. The table carries no mass factor; mu is
    accepted for signature parity with the solvers.
    """
    if Jmax < 0:
        raise ValueError("Jmax must be >= 0")
    del mu
    pot = _potential_monomials(V)
    deg = max(V.degree, 1)
    ctable: dict[tuple[int, int], Rational] = {(1, 0): Fraction(1)}
    for j in range(1, Jmax + 1):
        for m in range(j + 1, deg * j + 2):
            total = Fraction(0)
            for s, a_s in pot:
                if s > m - j:
                    continue
                src = ctable.get((m - s, j - 1))
                if src:
                    total += Fraction(s, m - s) * a_s * src
            if total:
                ctable[(m, j)] = total
    return {
        (m, j): c / (math.factorial(j) * 2 ** (m + 1) * m)
        for (m, j), c in ctable.items()
    }


def kernel_eval(K: GradedKernel, q, qp, hbar: float):
    """Truncated value of the full kernel <q|T|q'> = (mu/i hbar) T(q,q') sgn(q-q').

    Purely imaginary whenever T is real (it is); zero on the diagonal by the
    sgn(0) = 0 convention. q and q' may be numpy arrays that broadcast (a
    column of points against node rows); points give a complex equal, signed
    zeros included, to the matching element of an array call.
    """
    import numpy as np

    if hbar <= 0:
        raise ValueError("hbar must be positive")
    t = K.tvalue(q + qp, q - qp, hbar)
    return (float(K.mu) / (1j * hbar)) * t * np.sign(q - qp)


def _residual_monomials(K: GradedKernel, V: Potential) -> Iterator[tuple[int, dict[tuple[int, int, int], Rational]]]:
    """Exact monomials of the PDE residual of the truncated table, by total degree.

    Yields (d, monomials) in ascending total (u, v) degree d, for each d whose
    monomials do not all cancel. Keys are (u-power, v-power, w-power) with
    w = mu/2 hbar^2; the PDE is evaluated as
    -(1/w) d2T/dudv + [V((u+v)/2) - V((u-v)/2)] T. Entry (m, j, s) has
    t = m + 2j: its derivative term lands at degree t - 2 and its term
    through difference term (l, r) at degree t + l, so degree d reads only
    the entries with t = d + 2 or t = d - l. The entries of one layer and
    one t are a group over one denominator, D_j reduced by one gcd with
    their numerators when a degree first reads the group; each degree sums
    on integers over the lcm of its groups' denominators, with one quotient
    of that lcm per group and term.
    """
    by_t: dict[int, list[tuple[int, int, list[tuple[int, int, int]]]]] = {}
    for j, (nums, D) in enumerate(K.layers):
        groups: dict[int, list[tuple[int, int, int]]] = {}
        for (m, s), n in nums.items():
            groups.setdefault(m + 2 * j, []).append((m, s, n))
        for t, group in groups.items():
            by_t.setdefault(t, []).append((j, D, group))

    @functools.cache
    def reduced(t: int) -> list[tuple[int, int, list[tuple[int, int, int]]]]:
        out = []
        for j, D, group in by_t.get(t, ()):
            g = math.gcd(D, *(n for _, _, n in group))
            out.append((j, D // g, [(m, s, n // g) for m, s, n in group] if g > 1 else group))
        return out

    by_l: dict[int, list[tuple[int, int, int]]] = {}
    for l, r, coeff in _difference_terms(V):
        by_l.setdefault(l, []).append((r, coeff.numerator, coeff.denominator))
    if not by_t:
        return
    for d in range(min(by_t) - 2, max(by_t) + max(by_l, default=0) + 1):
        derivative = [(j, den, group) for j, den, group in reduced(d + 2) if j >= 1]
        through = [(l, rs, reduced(d - l)) for l, rs in by_l.items()]
        E = math.lcm(
            *(den for _, den, _ in derivative),
            *(den * q for _, rs, groups in through for _, den, _ in groups for _, _, q in rs),
        )
        sums: dict[tuple[int, int, int], int] = {}
        for j, den, group in derivative:
            scale = E // den
            for m, s, n in group:
                key = (m - 1, 2 * j - 1, j - s - 1)
                sums[key] = sums.get(key, 0) - n * (2 * j * m) * scale
        for l, rs, groups in through:
            for j, den, group in groups:
                scales = [(r, p * (E // (den * q))) for r, p, q in rs]
                for m, s, n in group:
                    for r, scale in scales:
                        key = (m + l - 2 * r - 1, 2 * j + 2 * r + 1, j - s)
                        sums[key] = sums.get(key, 0) + n * scale
        res = {key: Fraction(t, E) for key, t in sums.items() if t}
        if res:
            yield d, res


def pde_residual(K: GradedKernel, V: Potential) -> int | None:
    """Lowest uncancelled total (u, v) degree of the PDE residual, or None.

    A correctly filled table cancels every residual monomial whose v-power is
    at most 2*Jmax - 1, so the value (when not None) must exceed the
    truncation-guaranteed order. None means the truncated table solves the
    PDE identically (the free particle). Only the entries that reach the
    degrees up to the answer are multiplied out.
    """
    return next((d for d, _ in _residual_monomials(K, V)), None)


@dataclass(frozen=True)
class BoundaryReport:
    """Outcome of the kernel boundary verification.

    Conditions: (i) the v = 0 slice equals u/4 exactly, (ii) no entries exist
    outside the valid index ranges, (iii) the diagonal derivative combination
    dT(q,q)/dq + dT/dq|_{q'=q} + dT/dq'|_{q'=q}, which collapses to
    4 * sum_m m A[(m,0,0)] (2q)^(m-1), equals 1 identically.
    """

    passed: bool
    failures: tuple[str, ...]


def boundary_check(K: GradedKernel) -> BoundaryReport:
    """Verify the boundary data of a kernel table; see BoundaryReport."""
    failures: list[str] = []

    nums0, D0 = K.layers[0] if K.layers else ({}, 1)
    slice0 = {m: Fraction(n, D0) for (m, _), n in nums0.items()}
    if slice0 != {1: Fraction(1, 4)}:
        failures.append("(i) v = 0 slice differs from u/4")

    bad = [
        (m, j, s)
        for j, (nums, _) in enumerate(K.layers)
        for m, s in nums
        if m < 1 or s < 0 or s > max(j - 1, 0)
    ]
    if bad:
        failures.append(f"(ii) entries outside valid index ranges: {sorted(bad)}")

    deriv_sum = QPoly({m - 1: c * m * 2 ** (m + 1) for m, c in slice0.items()})
    if deriv_sum != QPoly.constant(1):
        failures.append("(iii) diagonal derivative combination differs from 1")

    return BoundaryReport(passed=not failures, failures=tuple(failures))


def solve_kernel_ungraded(V: Potential, nmax: int, mmax: int) -> dict[tuple[int, int], dict[int, Rational]]:
    """Debug route: the raw recurrence over all v-powers, odd ones included.

    Returns alpha[(m, n)] as a sparse map w-power -> Rational, where w =
    mu/2 hbar^2 is carried as a formal unit. The graded solver never stores
    odd n; this route computes them so tests can assert they all vanish, and
    that even rows reproduce the graded table via
    alpha[(m, 2j)] = sum_s A[(m, j, s)] w^(j-s).
    """
    if nmax < 0 or mmax < 1:
        raise ValueError("need nmax >= 0 and mmax >= 1")
    terms = _difference_terms(V)
    alpha: dict[tuple[int, int], dict[int, Rational]] = {(1, 0): {0: Fraction(1, 4)}}
    for n in range(1, nmax + 1):
        for m in range(1, mmax + 1):
            acc: dict[int, Rational] = {}
            for l, r, coeff in terms:
                np_, mp = n - 2 * r - 2, m - l + 2 * r
                if np_ < 0 or mp < 1:
                    continue
                src = alpha.get((mp, np_))
                if not src:
                    continue
                factor = coeff / (m * n)
                for wpow, c in src.items():
                    key = wpow + 1
                    val = acc.get(key, Fraction(0)) + factor * c
                    if val:
                        acc[key] = val
                    else:
                        acc.pop(key, None)
            if acc:
                alpha[(m, n)] = acc
    return alpha
