"""Floating-point layer: 0F1 evaluation, integral-form kernel, operator
application on bump functions, and the canonical-commutator harness.

Everything here is double precision. The exact modules never import this one,
and import numpy only inside their float functions, so the exact layer runs
without either; the package and the CLI load this module on first use.
Agreement between the two layers is what several verification paths check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import GradedKernel, KernelCells
from .classical_toa import Potential, _finite
from .errors import ArgumentTooNegative, NoConvergence, QuadratureFailure, ZeroOverlap
from .kernel_solver import kernel_eval  # noqa: F401  (perfbench/trace.py wraps numerics.kernel_eval)
from .quadrature import _integrate

# Below this the alternating 0F1 series cancels too much for doubles: against
# mpmath the error first passes 1e-9 * max(1, |f|) near z = -93.8, is 2.6e-6 at
# -200 and has the wrong sign at -400.
_Z_CUTOFF = -90.0

_MAX_TERMS = 800

_SERIES_TOL = 1e-15


# Where 1 - u^2 is below this, exp(-1/(1-u^2)) <= exp(-1000) is 0 in doubles.
# u is clipped to [-1, 1] and 1 - u^2 clamped to this, so points on or
# outside the support give exp(-1000) = 0, and their derivatives 0 * finite.
_BUMP_EDGE = 1e-3


@dataclass(frozen=True)
class BumpProfile:
    """Smooth compactly supported test function with closed-form derivatives.

    phi(q) = amplitude * exp(-1/(1-u^2)) for u = (q-center)/halfwidth inside
    |u| < 1, and 0 outside. The first two derivatives are analytic, not
    finite differences; the commutator test's sensitivity demands that.
    Each takes a float or a numpy array of points.
    """

    center: float
    halfwidth: float
    amplitude: complex = 1.0

    def __post_init__(self):
        if not 0 < self.halfwidth < math.inf:
            raise ValueError("halfwidth must be positive and finite")

    @property
    def support(self) -> tuple[float, float]:
        return (self.center - self.halfwidth, self.center + self.halfwidth)

    def _terms(self, q):
        """u clipped to [-1, 1], r = 1/(1 - u^2) and exp(-r), which is 0 on and outside the support."""
        u = np.clip((np.asarray(q, dtype=float) - self.center) / self.halfwidth, -1.0, 1.0)
        r = 1.0 / np.maximum(1.0 - u * u, _BUMP_EDGE)
        return u, r, np.exp(-r)

    def value(self, q):
        return self.amplitude * self._terms(q)[2]

    def deriv1(self, q):
        u, r, g = self._terms(q)
        return self.amplitude * g * (-2.0 * u * r * r) / self.halfwidth

    def deriv2(self, q):
        return self.value_deriv2(q)[1]

    def value_deriv2(self, q):
        """(value, deriv2) from one pass: phi'' = phi r^2 (4 u^2 r (r - 2) - 2) / h^2."""
        u, r, g = self._terms(q)
        value = self.amplitude * g
        return value, value * (r * r * (4.0 * u * u * r * (r - 2.0) - 2.0) / self.halfwidth**2)


@dataclass(frozen=True)
class QuadSpec:
    """Adaptive-quadrature request: the absolute error tolerance."""

    abs_tol: float

    def __post_init__(self):
        if not 0 < self.abs_tol < math.inf:
            raise ValueError("abs_tol must be positive and finite")


def hyper0f1(z: float) -> float:
    """The confluent limit function 0F1(1; z) = sum_n z^n / (n!)^2.

    Summed forward with compensated (Kahan) accumulation, at least 8 terms,
    stopping once |term| < _SERIES_TOL * |partial sum|. Arguments below -90
    are rejected: there the alternating sum cancels so much that its error
    can pass 1e-9 * max(1, |f|), and by -400 the doubles carry no information.
    """
    if z < _Z_CUTOFF:
        raise ArgumentTooNegative(f"0F1 argument {z} below cutoff {_Z_CUTOFF}")
    total = 1.0
    comp = 0.0
    term = 1.0
    for n in range(1, _MAX_TERMS + 1):
        term *= z / (n * n)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if n >= 8 and abs(term) < _SERIES_TOL * max(abs(total), 1e-300):
            return total
    raise NoConvergence(f"0F1 series did not settle within {_MAX_TERMS} terms at z = {z}")


def kernel_integral_form(
    V: Potential, mu: float, hbar: float, q: float, qp: float, quad: QuadSpec
) -> float:
    """The kernel T-factor as a 0F1 integral.

    T0(q, q') = (1/2) * integral_0^((q+q')/2) 0F1(1; (mu/2 hbar^2)(q-q')^2
    [V((q+q')/2) - V(q'')]) dq''. Returns the real factor only; callers apply
    the (mu / i hbar) sgn(q - q') prefactor. Agrees with the series
    evaluation of the classical term within combined tolerance. The integral
    is one panel of _integrate at an absolute tolerance of at least 1e-15; the
    panel is empty when q' = -q and reversed when q + q' < 0.
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    s_hi = 0.5 * (q + qp)
    scale = float(mu) / (2.0 * hbar * hbar) * (q - qp) ** 2
    v_top = V.value(s_hi)

    def f(nodes):
        zs = scale * (v_top - V.value(nodes))
        return np.array([hyper0f1(z) for z in zs.tolist()])

    return 0.5 * _integrate(f, [0.0, s_hi], max(quad.abs_tol, 1e-15))[0]


def _as_kernel_func(K, hbar: float):
    """(c, f) with <q|T|q'> = c f(q, q') for a kernel argument.

    For a table's cells at hbar, c = mu / (i hbar) and f(q, q') = T(q + q',
    q - q') sgn(q - q'), a real function, so the integrals run on floats and
    take c once; the cells are rounded here, so one beyond the float range
    is named before anything is integrated. A GradedKernel is collapsed to
    its cells, and cells at another hbar are refused. A callable is f
    itself, with c = 1. A c of magnitude 0 or infinity raises
    QuadratureFailure: the integrals run at tolerances divided by |c|.
    """
    if isinstance(K, GradedKernel):
        K = K.cells(hbar)
    if isinstance(K, KernelCells):
        if K.hbar != hbar:
            raise ValueError(f"cells solved at hbar = {K.hbar!r}, evaluated at {hbar!r}")
        K.dense_form()
        c = float(K.mu) / (1j * K.hbar)  # kernel_eval's factor, bit for bit
        if not 0 < abs(c) < math.inf:
            raise QuadratureFailure(f"kernel factor mu / hbar = {K.mu} / {K.hbar!r} is 0 or beyond the float range")

        def f(q, qp):
            v = q - qp
            return K.tvalue(q + qp, v) * np.sign(v)

        return c, f
    if callable(K):
        return 1, K
    raise TypeError("kernel must be a GradedKernel, KernelCells or a callable (q, q') -> complex")


def _apply(kernel_func, f, support: tuple[float, float], qs, epsabs: float) -> tuple[np.ndarray, np.ndarray]:
    """(T f_q)(q) = integral of kernel_func(q, q') f_q(q') over the support, at each q of qs.

    kernel_func is the f of _as_kernel_func: a caller with a factor c
    passes epsabs = its tolerance / |c|, and multiplies the values by c and
    the estimates by |c|, so each row closes where the integral of c f f_q
    would. f(q, q') takes a column of outer points q and node rows q' and
    returns f_q(q'). The points inside the support are one _integrate batch
    with the panels [lo, q, hi], so the sgn jump at q' = q is a panel end;
    the points at or outside an end are another, with the one panel
    [lo, hi]. Each row's value and estimate are those of the panels
    [lo, clip(q), hi], whose empty panel adds 0. The rows of that second
    batch share their nodes, bit for bit, so f gets one node row, shape
    (1, N), and its values broadcast over the rows of kernel_func's; an f
    evaluated node by node gives what it would on every row. Returns the
    values and the error estimates.
    """
    lo, hi = support
    q = np.asarray(qs, dtype=float).reshape(-1, 1)
    inside = ((lo < q) & (q < hi)).ravel()
    parts = []
    for rows in (np.flatnonzero(inside), np.flatnonzero(~inside)):
        if len(rows):
            qr = q[rows]
            cols = [np.full_like(qr, lo), qr, np.full_like(qr, hi)]
            ends = np.hstack(cols if inside[rows[0]] else cols[::2])
            nodes = slice(None) if inside[rows[0]] else slice(1)  # f's node rows

            def g(x, i, qr=qr, nodes=nodes):
                return np.broadcast_to(kernel_func(qr[i], x) * f(qr[i], x[nodes]), x.shape)

            parts.append((rows, *_integrate(g, ends, epsabs)))
    vals = np.empty(len(q), dtype=np.result_type(*(v for _, v, _ in parts)))
    errs = np.empty(len(q))
    for rows, v, e in parts:
        vals[rows], errs[rows] = v, e
    return vals, errs


def apply_kernel(K, phi: BumpProfile, qgrid, hbar: float, quad: QuadSpec) -> list[complex]:
    """Sample (T phi)(q) = integral <q|T|q'> phi(q') dq' on a grid of points.

    K may be a GradedKernel, its KernelCells at hbar, or a callable kernel
    (q, q') that takes a column of points q, shape (R, 1), and node rows q',
    shape (R, N), and returns their values (a constant broadcasts). The
    rule integrates the real factor f of _as_kernel_func against phi at the
    tolerance over |c|, and c scales the values. Every returned value is
    checked finite; the integral of a bounded kernel against a bump must be.
    """
    c, kf = _as_kernel_func(K, hbar)  # a table refuses hbar <= 0; a callable does not read it
    qs = np.asarray(qgrid, dtype=float)
    if not qs.size:
        return []
    vals, _ = _apply(kf, lambda q, qp: phi.value(qp), phi.support, qs, quad.abs_tol / abs(c))
    return [complex(c * v) for v in vals.tolist()]


@dataclass(frozen=True)
class CommutatorReport:
    """Relative commutator residual together with its numerical error budget."""

    residual: float
    error_budget: float
    params: dict


def commutator_residual(
    V: Potential,
    K,
    phi: BumpProfile,
    psi: BumpProfile,
    mu: float,
    hbar: float,
    quad: QuadSpec,
) -> CommutatorReport:
    """Residual of the canonical commutation relation on a pair of bumps.

    r = |<phi|(HT - TH)psi> - i hbar <phi|psi>| / (hbar |<phi|psi>|), where
    H chi = -(hbar^2/2 mu) chi'' + V chi. Both bumps vanish with all their
    derivatives at the edges of their supports, so <phi|H T psi> =
    <H phi|T psi> and H only ever acts on a bump, through its analytic second
    derivative. The commutator is then one nested integral over
    supp(phi) x supp(psi) of
    <q|T|q'> [conj(H phi)(q) psi(q') - conj(phi)(q) (H psi)(q')].
    Every integral is the one rule of _integrate, the nested chain G64 in
    K129 in P259 in P519: the inner one over q' on supp(psi) split at
    q' = q, for the outer nodes each outer level adds as one batch of rows
    (_apply), the outer one over supp(phi)
    split at the ends of supp(psi) inside it, where the outer integrand
    inherits the flat, non-analytic edge of psi, and the overlap and the
    norms on one panel each. The nested integral runs on the real factor f
    of _as_kernel_func, <q|T|q'> = c f(q, q'), with the inner and outer
    tolerances divided by |c|; c then multiplies its value and |c| its
    estimates, so each row closes at the level the integral of c f would.
    So a tolerance the rule cannot certify raises
    QuadratureFailure instead of returning a report, and so does a cell of
    the table at hbar or a coefficient of V beyond the float range. K is a
    GradedKernel, its KernelCells at hbar (what the commutator command
    solves), or a callable; a table or cells whose mass is not mu, or cells
    at another hbar, raise ValueError. The error budget sums the outer
    estimate, hbar times the overlap estimate, and the largest inner
    estimate integrated over supp(phi); it has no term for truncation of
    the table.
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    c, kf = _as_kernel_func(K, hbar)  # the floats of the table, then of V: one beyond the float range is named
    if isinstance(K, (GradedKernel, KernelCells)) and float(K.mu) != float(mu):
        raise ValueError(f"kernel solved at mu = {K.mu}, evaluated at mu = {mu!r}")
    scale = abs(c)
    for d, coeff in V.poly.coeffs.items():
        _finite(f"V coefficient of q^{d}", operator.truediv, coeff.numerator, coeff.denominator)
    inner_tol = max(quad.abs_tol * 1e-3, 5e-15)

    lo = max(phi.support[0], psi.support[0])
    hi = min(phi.support[1], psi.support[1])
    if lo >= hi:
        raise ZeroOverlap("test function supports do not intersect")

    overlap, overlap_err = _integrate(
        lambda q: phi.value(q).conjugate() * psi.value(q), [lo, hi], inner_tol
    )
    norm_phi = math.sqrt(_integrate(lambda q: abs(phi.value(q)) ** 2, phi.support, inner_tol)[0])
    norm_psi = math.sqrt(_integrate(lambda q: abs(psi.value(q)) ** 2, psi.support, inner_tol)[0])
    if abs(overlap) < 1e-12 * norm_phi * norm_psi:
        raise ZeroOverlap(f"|<phi|psi>| = {abs(overlap):.3g} is below threshold")

    def h(chi: BumpProfile, q):
        """(chi, H chi) at a point or on a node array."""
        value, d2 = chi.value_deriv2(q)
        return value, -(hbar * hbar) / (2.0 * mu) * d2 + V.value(q) * value

    def integrand(q, qp):
        phi_q, h_phi = h(phi, q)
        psi_qp, h_psi = h(psi, qp)
        return h_phi.conjugate() * psi_qp - phi_q.conjugate() * h_psi

    inner_err = 0.0

    def inner(qs):
        nonlocal inner_err
        vals, errs = _apply(kf, integrand, psi.support, qs, inner_tol / scale)
        inner_err = max(inner_err, float(errs.max()))
        return vals

    # lo and hi are the ends of supp(psi) clipped to supp(phi)
    commutator, err = _integrate(inner, sorted({*phi.support, lo, hi}), quad.abs_tol / scale)

    numerator = c * commutator - 1j * hbar * overlap
    denom = hbar * abs(overlap)
    residual = abs(numerator) / denom

    # Each estimate bounds |error| of its complex value, and _integrate
    # accepts up to 1e3 times its tolerance, so the budget takes the
    # estimates returned, not the tolerances: the outer and overlap ones as
    # they are, and the largest inner one over the length of supp(phi),
    # the nested ones times |c|.
    inner_noise = (2.0 * phi.halfwidth) * (scale * inner_err)
    budget = (scale * err + hbar * overlap_err + inner_noise) / denom

    params = {
        "mu": mu,
        "hbar": hbar,
        "abs_tol": quad.abs_tol,
        "potential": sorted((d, str(c)) for d, c in V.poly.coeffs.items()),
        "phi": {"center": phi.center, "halfwidth": phi.halfwidth},
        "psi": {"center": psi.center, "halfwidth": psi.halfwidth},
    }
    return CommutatorReport(residual=residual, error_budget=budget, params=params)
