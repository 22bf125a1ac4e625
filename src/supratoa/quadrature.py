"""The package's one quadrature rule: Gauss-Legendre panels with nodes made here.

_gauss_legendre(n) computes the n-node rule by Newton's iteration in
theta = arccos x (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013), and
_integrate sums panels of it at doubling node counts until an error
estimate meets the tolerance. numerics and arrival integrate with it; no
other module integrates numerically.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import QuadratureFailure

# Gauss-Legendre levels pair n with 2n nodes per panel, from
# (_GL_FIRST, 2 * _GL_FIRST) up to a 2n of _GL_CAP.
_GL_FIRST = 64
_GL_CAP = 512

# Node values per call of a batch integrand (whole rows, at least one):
# it bounds the arrays of one kernel evaluation, and with them peak memory.
_NODE_CAP = 4096

# QUADPACK's roundoff floor on an error estimate: 50 machine epsilons times
# the integral of |integrand|.
_ROUNDOFF = 50.0 * sys.float_info.epsilon


def _legendre(n: int, u: np.ndarray):
    """(P_k, P_k - P_(k-1)) at x = 1 - u for k = 0, 1, ..., n, in turn.

    The three-term recurrence runs on the differences D_k = P_k - P_(k-1),
    D_(k+1) = (k D_k - (2k+1) u P_k) / (k+1), so x itself is never formed:
    near x = 1, where 1 - x cancels, u = 2 sin^2(theta/2) keeps its
    relative accuracy and with it the weights of the outer nodes.
    """
    p, d = np.ones_like(u), np.zeros_like(u)
    yield p, d
    for k in range(n):
        d = (k * d - (2 * k + 1) * (u * p)) / (k + 1)
        p = p + d
        yield p, d


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (increasing) and weights of the n-node Gauss-Legendre rule on [-1, 1].

    Newton's iteration in theta finds the roots cos(theta_k) of P_n in
    [0, 1), from theta_k = pi (4k - 1) / (4n + 2) + (n - 1) / (8 n^3 tan)
    (Tricomi's x_k = (1 - (n - 1) / 8n^3) cos, to first order), and mirrors
    them. From there each step squares the relative error, so a step below
    1e-9 leaves none a double can hold. The weights are the Christoffel
    numbers 2 / sum_(k<n) (2k+1) P_k^2 at the roots, a sum of positive
    terms, scaled to sum to 2, which the rule integrates exactly. Against
    40-digit roots and weights the nodes are within 3e-16 and the weights
    within 5e-15 relative for n up to 512.
    """
    if n < 1:
        raise ValueError("a Gauss-Legendre rule needs n >= 1")
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = np.pi * (4 * k - 1) / (4 * n + 2)
    theta += (n - 1) / (8.0 * n**3) / np.tan(theta)
    for _ in range(10):  # 3 steps for n <= 512
        u = 2.0 * np.sin(0.5 * theta) ** 2
        *_, (p, d) = _legendre(n, u)
        # P_n over dP_n/dtheta = n (x P_n - P_(n-1)) / sin(theta), x P_n - P_(n-1) = D_n - u P_n
        step = p * np.sin(theta) / (n * (d - u * p))
        theta -= step
        if np.all(np.abs(step) <= 1e-9 * theta):
            break
    u = 2.0 * np.sin(0.5 * theta) ** 2
    x = np.cos(theta)
    w = 2.0 / sum((2 * j + 1) * (p * p) for j, (p, _) in zip(range(n), _legendre(n, u)))
    if n % 2:
        x[-1] = 0.0  # theta = pi/2, the middle node, which the mirror keeps once
    nodes = np.concatenate((-x, x[::-1][n % 2 :]))
    weights = np.concatenate((w, w[::-1][n % 2 :]))
    weights *= 2.0 / math.fsum(weights)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return nodes, weights


def _integrate(g, ends, epsabs: float):
    """The integral of g over the panels between consecutive ends, and its error estimate.

    The one quadrature rule of the package. ends is one row of panel ends,
    shape (P + 1,), or a batch of rows, shape (R, P + 1). g returns its
    values at the nodes it gets: g(x) with x of shape (P n,) for one row,
    once per level; g(x, i) for a batch, with x of shape (R', P n) holding
    the nodes of rows i (an index array, in order) that are still open, in
    calls of at most _NODE_CAP node values (but at least one row). Each
    level sums n and 2n Gauss-Legendre nodes per panel; a row's estimate is
    the sum over its panels of |I_2n - I_n| plus a roundoff floor of
    50 eps * integral |integrand|, and n doubles until the estimate is
    within epsabs or 2n reaches _GL_CAP. Each row stops at its own level,
    with the value and estimate a call on that row alone would give. The 2n
    sum is the value, a float or a complex as g's values are; a batch
    returns arrays of R values and R estimates. A non-finite value, or an
    estimate above 1e3 * epsabs, raises QuadratureFailure. A panel with
    equal ends adds 0, and one with decreasing ends adds the negated
    integral.
    """
    ends = np.asarray(ends, dtype=float)
    rows = ends.reshape(-1, ends.shape[-1])
    mid = 0.5 * (rows[:, 1:] + rows[:, :-1])[:, :, None]
    half = 0.5 * (rows[:, 1:] - rows[:, :-1])[:, :, None]

    def panel_sums(n: int, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t, w = _gauss_legendre(n)
        step = max(1, _NODE_CAP // (n * half.shape[1])) if ends.ndim == 2 else 1
        sums, mass = [], []
        for start in range(0, len(live), step):
            i = live[start : start + step]
            h = half[i]
            x = (mid[i] + h * t).reshape(len(i), -1)
            wg = (h * w).reshape(len(i), -1) * (g(x, i) if ends.ndim == 2 else g(x[0]))
            sums.append(wg.reshape(len(i), -1, n).sum(axis=2))
            mass.append(np.abs(wg).sum(axis=1))
        return np.concatenate(sums), np.concatenate(mass)

    n = _GL_FIRST
    live = np.arange(len(rows))
    coarse, _ = panel_sums(n, live)
    vals, errs = None, np.empty(len(rows))
    while True:
        fine, mass = panel_sums(2 * n, live)
        val = fine.sum(axis=1)
        finite = np.isfinite(val)
        if not finite.all():
            raise QuadratureFailure(f"non-finite integral over panels {rows[live[np.argmin(finite)]].tolist()}")
        err = np.abs(fine - coarse).sum(axis=1) + _ROUNDOFF * mass
        done = (err <= epsabs) | (2 * n >= _GL_CAP)
        if vals is None:
            vals = np.empty(len(rows), dtype=val.dtype)
        vals[live[done]], errs[live[done]] = val[done], err[done]
        if done.all():
            break
        live, coarse, n = live[~done], fine[~done], 2 * n
    failed = errs > 1e3 * epsabs
    if failed.any():
        i = int(np.argmax(failed))
        raise QuadratureFailure(f"quadrature error estimate {errs[i]:.3g} over panels {rows[i].tolist()}")
    if ends.ndim == 1:
        return vals[0].item(), errs[0].item()
    return vals, errs
