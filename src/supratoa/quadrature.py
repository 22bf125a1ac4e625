"""The package's one quadrature rule: Gauss-Kronrod panels with nodes made here.

_gauss_legendre(n) computes the n-node Gauss rule by Newton's iteration
in theta = arccos x (Hale and Townsend, SIAM J. Sci. Comput. 35, 2013).
_gauss_kronrod(n) adds the n + 1 nodes of its Kronrod extension, from the
Jacobi-Kronrod recurrence of Laurie (Math. Comp. 66, 1997), so that one
evaluation of an integrand on 2n + 1 nodes gives both sums. _integrate
sums panels of the pair at doubling n until an error estimate meets the
tolerance. numerics and arrival integrate with it; no other module
integrates numerically.
"""

from __future__ import annotations

import functools
import math
import sys
from decimal import Decimal, localcontext

import numpy as np

from .errors import QuadratureFailure

# Gauss-Kronrod levels: n Gauss nodes embedded in 2n + 1 Kronrod nodes per panel.
_GK_LEVELS = (64, 128, 256)

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
def _legendre_angles(n: int) -> np.ndarray:
    """theta_k = arccos x_k for the roots x_k of P_n in [0, 1), increasing.

    Newton's iteration in theta from theta_k = pi (4k - 1) / (4n + 2) +
    (n - 1) / (8 n^3 tan) (Tricomi's x_k = (1 - (n - 1) / 8n^3) cos, to
    first order). From there each step squares the relative error, so a
    step below 1e-9 leaves none a double can hold.
    """
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
    theta.flags.writeable = False
    return theta


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (increasing) and weights of the n-node Gauss-Legendre rule on [-1, 1].

    The nodes are cos(theta_k) of _legendre_angles, mirrored. The weights
    are the Christoffel numbers 2 / sum_(k<n) (2k+1) P_k^2 at the roots, a
    sum of positive terms, scaled to sum to 2, which the rule integrates
    exactly. Against 40-digit roots and weights the nodes are within 3e-16
    and the weights within 5e-15 relative for n up to 512.
    """
    if n < 1:
        raise ValueError("a Gauss-Legendre rule needs n >= 1")
    theta = _legendre_angles(n)
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


def _kronrod_coefficients(n: int) -> tuple[list[float], list[float], list[float]]:
    """(alpha_k, beta_k, sigma_k^2) for k = 0, ..., 2n of the Legendre Kronrod recurrence.

    Laurie's algorithm gives the Jacobi-Kronrod matrix of order 2n + 1: its
    first ceil(3n/2) + 1 entries b_k are Legendre's, k^2 / (4k^2 - 1), and
    its diagonal is 0, as for every rule symmetric about 0. Its orthonormal
    polynomials p_k, with p_k(1) = sigma_k, are written rho_k = p_k / sigma_k,
    so rho_k(1) = 1 and rho_(k+1) = alpha_k x rho_k - beta_k rho_(k-1), where
    beta_k = r_k alpha_k, alpha_k = 1 / (1 - r_k), r_(k+1) = b_(k+1) / (1 - r_k)
    and r_0 = 0 (Legendre: r_k = k / (2k + 1), sigma_k^2 = k + 1/2). Run in
    floats, Laurie's recurrence leaves the b_k a few units in the last
    place off, and that moves the outermost weights by up to 7e-13
    relative at n = 256; so it runs in 40-digit decimals (15 ms at n = 256
    on a 2-vCPU VM), and only alpha, beta and sigma^2 are rounded to floats.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        known = -(-3 * n // 2)  # b_k for k <= known are Legendre's; Laurie's loop fills the rest
        b = [Decimal(2)] + [Decimal(k * k) / (4 * k * k - 1) for k in range(1, known + 1)]
        b += [Decimal(0)] * (2 * n - known)
        # Laurie's recurrence on his two rows s, t of mixed moments (s[0] is his s_-1 = 0)
        s, t = [Decimal(0)] * (n // 2 + 2), [Decimal(0)] * (n // 2 + 2)
        t[1] = b[n + 1]
        for m in range(n - 1):
            acc = Decimal(0)
            for k in range((m + 1) // 2, -1, -1):
                acc += b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
                s[k + 1] = acc
            s, t = t, s
        s[1:] = s[:-1]
        for m in range(n - 1, 2 * n - 2):
            acc = Decimal(0)
            for k in range(m + 1 - n, (m - 1) // 2 + 1):
                j = n - (m - k)
                acc += b[m - k] * s[j + 1] - b[k + n + 1] * s[j]
                s[j] = acc
            if m % 2:
                b[(m + 1) // 2 + n + 1] = s[j] / s[j + 1]
            s, t = t, s
        r, sigma2 = Decimal(0), Decimal(1) / 2
        alpha, beta, sigma2s = [], [], []
        for k in range(2 * n + 1):
            alpha.append(float(1 / (1 - r)))
            beta.append(float(r / (1 - r)))
            sigma2s.append(float(sigma2))
            if k < 2 * n:
                sigma2 *= (1 - r) ** 2 / b[k + 1]
                r = b[k + 1] / (1 - r)
    return alpha, beta, sigma2s


def _stieltjes_step(alpha, beta, u: np.ndarray) -> np.ndarray:
    """rho_(2n+1) / (d rho_(2n+1)/du) at x = 1 - u, the Newton step in u.

    The recurrence of _kronrod_coefficients on the differences
    D_k = rho_k - rho_(k-1), D_(k+1) = beta_k D_k - alpha_k u rho_k (as
    _legendre does for P_k, since alpha_k - beta_k = 1), so x itself is
    never formed, and the same recurrence differentiated in u.
    """
    rho, d = np.ones_like(u), np.zeros_like(u)
    rho_u = d_u = 0.0
    for a, b in zip(alpha, beta):
        d_u = b * d_u - a * (rho + u * rho_u)
        rho_u = rho_u + d_u
        d = b * d - a * (u * rho)
        rho = rho + d
    return rho / rho_u


def _christoffel(alpha, beta, sigma2, u: np.ndarray) -> np.ndarray:
    """The Christoffel number 1 / sum_(k<=2n) p_k^2 at x = 1 - u.

    The sum, of positive terms sigma_k^2 rho_k^2 with rho_k from the
    recurrence of _stieltjes_step, runs along: O(len(u)) memory.
    """
    rho, d, total = np.ones_like(u), np.zeros_like(u), np.zeros_like(u)
    for a, b, s2 in zip(alpha, beta, sigma2):
        total += s2 * (rho * rho)
        d = b * d - a * (u * rho)
        rho = rho + d
    return 1.0 / total


@functools.cache
def _gauss_kronrod(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes (increasing), Kronrod weights and Gauss weights of the pair G_n in K_(2n+1).

    The nodes at odd positions are _gauss_legendre(n)'s, bit for bit, and
    the Gauss weights are its weights. The other n + 1, the roots of the
    Stieltjes polynomial, interlace with them; each is found by Newton's
    iteration in theta on rho_(2n+1), the last polynomial of the Kronrod
    recurrence, from midway (in theta) between consecutive Gauss nodes or
    between the outermost one and +-1. The Kronrod weights are the
    Christoffel numbers at every node, scaled to sum to 2. Against 40-digit
    references the nodes are within 3e-16 and the weights within 5e-15
    relative for the n of _GK_LEVELS. The rule integrates polynomials of
    degree 3n + 1 exactly (3n + 2 for odd n, by symmetry).
    """
    if n < 1:
        raise ValueError("a Gauss-Kronrod rule needs n >= 1")
    gauss_x, gauss_w = _gauss_legendre(n)
    alpha, beta, sigma2 = _kronrod_coefficients(n)
    # the Stieltjes roots in [0, 1): between the Gauss angles, from 0 up to
    # pi/2, the middle of the last one and its mirror, which is a Stieltjes
    # root (x = 0) when n is even
    gauss_theta = _legendre_angles(n)
    edges = np.concatenate(([0.0], gauss_theta, [np.pi - gauss_theta[-1]]))[: n // 2 + 2]
    theta = 0.5 * (edges[1:] + edges[:-1])
    for _ in range(10):  # 5 steps for n <= 256, the last two for the outermost root
        u = 2.0 * np.sin(0.5 * theta) ** 2
        step = _stieltjes_step(alpha, beta, u) / np.sin(theta)  # du/dtheta = sin(theta)
        theta -= step
        if np.all(np.abs(step) <= 1e-9 * theta):
            break
    x = np.cos(theta)
    if n % 2 == 0:
        x[-1] = 0.0  # theta = pi/2, the middle node, which the mirror keeps once
    u = 2.0 * np.sin(0.5 * np.concatenate((theta, gauss_theta))) ** 2
    w = _christoffel(alpha, beta, sigma2, u)
    w_new, w_gauss = w[: len(theta)], w[len(theta) :]
    nodes = np.empty(2 * n + 1)
    weights = np.empty(2 * n + 1)
    nodes[1::2] = gauss_x
    nodes[0::2] = np.concatenate((-x, x[::-1][1 - n % 2 :]))
    weights[1::2] = np.concatenate((w_gauss, w_gauss[::-1][n % 2 :]))
    weights[0::2] = np.concatenate((w_new, w_new[::-1][1 - n % 2 :]))
    weights *= 2.0 / math.fsum(weights)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return nodes, weights, gauss_w


def _integrate(g, ends, epsabs: float):
    """The integral of g over the panels between consecutive ends, and its error estimate.

    The one quadrature rule of the package. ends is one row of panel ends,
    shape (P + 1,), or a batch of rows, shape (R, P + 1). g returns its
    values at the nodes it gets: g(x) with x of shape (P m,) for one row,
    once per level; g(x, i) for a batch, with x of shape (R', P m) holding
    the nodes of rows i (an index array, in order) that are still open, in
    calls of at most _NODE_CAP node values (but at least one row). At each
    level of _GK_LEVELS, g is evaluated once on the m = 2n + 1 nodes of
    _gauss_kronrod(n) per panel, and both sums are read from those values:
    a row's estimate is the sum over its panels of |K_(2n+1) - G_n| plus a
    roundoff floor of 50 eps * integral |integrand|, and the row closes at
    the first level where it is within epsabs, or at the last. Each row
    closes at its own level, with the value and estimate a call on that row
    alone would give. The estimate is that of the Gauss sum's error, and the
    Kronrod sum, of higher degree, is the value: a float or a complex as
    g's values are; a batch returns arrays of R values and R estimates. A
    non-finite value, or an estimate above 1e3 * epsabs, raises
    QuadratureFailure. A panel with equal ends adds 0, and one with
    decreasing ends adds the negated integral.
    """
    ends = np.asarray(ends, dtype=float)
    rows = ends.reshape(-1, ends.shape[-1])
    mid = 0.5 * (rows[:, 1:] + rows[:, :-1])[:, :, None]
    half = 0.5 * (rows[:, 1:] - rows[:, :-1])[:, :, None]

    def panel_sums(n: int, live: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t, w, gauss_w = _gauss_kronrod(n)
        step = max(1, _NODE_CAP // (len(t) * half.shape[1])) if ends.ndim == 2 else 1
        kronrod, gauss, mass = [], [], []
        for start in range(0, len(live), step):
            i = live[start : start + step]
            h = half[i]
            x = (mid[i] + h * t).reshape(len(i), -1)
            gx = (g(x, i) if ends.ndim == 2 else g(x[0])).reshape(h.shape[:2] + t.shape)
            wg = h * w * gx
            kronrod.append(wg.sum(axis=2))
            gauss.append((h * gauss_w * gx[:, :, 1::2]).sum(axis=2))
            mass.append(np.abs(wg).reshape(len(i), -1).sum(axis=1))
        return np.concatenate(kronrod), np.concatenate(gauss), np.concatenate(mass)

    live = np.arange(len(rows))
    vals, errs = None, np.empty(len(rows))
    for n in _GK_LEVELS:
        fine, coarse, mass = panel_sums(n, live)
        val = fine.sum(axis=1)
        finite = np.isfinite(val)
        if not finite.all():
            raise QuadratureFailure(f"non-finite integral over panels {rows[live[np.argmin(finite)]].tolist()}")
        err = np.abs(fine - coarse).sum(axis=1) + _ROUNDOFF * mass
        done = (err <= epsabs) | (n == _GK_LEVELS[-1])
        if vals is None:
            vals = np.empty(len(rows), dtype=val.dtype)
        vals[live[done]], errs[live[done]] = val[done], err[done]
        live = live[~done]
        if not len(live):
            break
    failed = errs > 1e3 * epsabs
    if failed.any():
        i = int(np.argmax(failed))
        raise QuadratureFailure(f"quadrature error estimate {errs[i]:.3g} over panels {rows[i].tolist()}")
    if ends.ndim == 1:
        return vals[0].item(), errs[0].item()
    return vals, errs
