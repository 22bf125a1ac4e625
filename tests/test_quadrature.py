"""The package's quadrature chain G64 < K129 < P259 < P519, and the float builders that are its oracle.

The chain's rules are constants (supratoa._rules, written by make_rules.py).
The tests of rule_oracle's Gauss-Legendre and Gauss-Kronrod builders
against 40-digit references stay here, and the chain's first level must
equal the oracle's gauss_kronrod(64) bit for bit.
"""

import functools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from rule_oracle import gauss_kronrod, gauss_legendre
from supratoa import numerics, quadrature

LEVELS = [64, 128, 256, 512]  # Gauss n whose oracle rules are checked against references


@functools.cache
def reference_rule(n):
    """Nodes x >= 0 (increasing) and their weights at 40 digits, rounded to floats.

    Two Newton steps in x from the oracle's nodes, with P_n, P_(n-1) by the
    three-term recurrence in decimal arithmetic; the weight is
    2 (1 - x^2) / (n P_(n-1)(x))^2 at the converged root.
    """
    start, _ = gauss_legendre(n)
    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = 40
        for x0 in start[n // 2 :].tolist():
            x = Decimal(x0)
            for step in range(3):
                p_prev, p = Decimal(1), x
                for k in range(1, n):
                    p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
                if step < 2:
                    x -= p * (1 - x * x) / (n * (p_prev - x * p))
            nodes.append(float(x))
            weights.append(float(2 * (1 - x * x) / (n * p_prev) ** 2))
    return np.array(nodes), np.array(weights)


@pytest.mark.parametrize("n", [1, 2, 3, 7, *LEVELS])
def test_rule_is_exact_on_monomials(n):
    x, w = gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2.0) <= 4.5e-16
    # integral of q^k over [-1, 1] for every k the rule integrates exactly
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum((w * x**k).tolist()) - exact) <= 2e-15, k


@pytest.mark.parametrize("n", LEVELS)
def test_matches_a_40_digit_reference(n):
    x, w = gauss_legendre(n)
    ref_x, ref_w = reference_rule(n)
    assert np.max(np.abs(x[n // 2 :] - ref_x)) <= 3e-16
    assert np.max(np.abs(w[n // 2 :] - ref_w) / ref_w) <= 1e-14


@pytest.mark.parametrize("n", LEVELS)
def test_matches_roots_legendre(n):
    special = pytest.importorskip("scipy.special")
    x, w = gauss_legendre(n)
    sx, sw = special.roots_legendre(n)
    assert np.max(np.abs(x - sx)) <= 1e-15
    # roots_legendre's outer weights are off the 40-digit values by up to
    # 1.5e-9 relative at n = 512; where the two rules differ by more than
    # 1e-14 relative, the oracle's weight is the one nearer the reference
    _, ref_w = reference_rule(n)
    half_w, half_sw = w[n // 2 :], sw[n // 2 :]
    apart = np.abs(half_w - half_sw) > 1e-14 * half_sw
    assert np.all(np.abs(half_w - ref_w)[apart] < np.abs(half_sw - ref_w)[apart])


def test_rejects_an_empty_rule():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_numerics_shares_the_rule():
    assert numerics._integrate is quadrature._integrate
    x, w = gauss_legendre(64)
    assert not x.flags.writeable and not w.flags.writeable
    for a in (quadrature._G64_WEIGHTS, *(a for level in quadrature._LEVELS for a in level)):
        assert not a.flags.writeable


KRONROD_SMALL = [1, 2, 3, 4, 5, 6, 7, 8, 10, 15, 20]


def legendre_values(n, x):
    """P_0, ..., P_n at x by the three-term recurrence, in x's arithmetic."""
    p = [x**0, x]
    for k in range(1, n):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return p[: n + 1]


@functools.cache
def kronrod_reference(n):
    """Nodes (increasing) and weights of K_(2n+1) in 60-digit arithmetic, rounded to floats.

    Independent of Laurie's recurrence: the Stieltjes polynomial
    E = P_(n+1) + sum_(j<n+1) e_j P_j is solved exactly in rationals from
    integral P_n E x^k = 0 for k = 0, ..., n; its roots and those of P_n are
    polished by Newton's iteration in mpmath from the oracle's nodes; the
    weights solve sum_j w_j P_k(z_j) = 2 delta_k0 for k = 0, ..., 2n.
    """
    mp = pytest.importorskip("mpmath")

    def poly(k):  # coefficients of P_k, ascending powers
        p = [[Fraction(1)], [Fraction(0), Fraction(1)]]
        for j in range(1, k):
            nxt = [Fraction(0)] + [Fraction(2 * j + 1, j + 1) * c for c in p[j]]
            for i, c in enumerate(p[j - 1]):
                nxt[i] -= Fraction(j, j + 1) * c
            p.append(nxt)
        return p[k]

    def times(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def integral(a):
        return sum(c * Fraction(2, i + 1) for i, c in enumerate(a) if i % 2 == 0)

    basis = [poly(j) for j in range(n + 2)]
    pn = basis[n]
    unknowns = list(range(n + 1 - 2, -1, -2))  # E has the parity of n + 1
    rows = [[integral(times(times(pn, basis[j]), [Fraction(0)] * k + [Fraction(1)])) for j in unknowns]
            for k in range(n + 1)]
    rhs = [-integral(times(times(pn, basis[n + 1]), [Fraction(0)] * k + [Fraction(1)])) for k in range(n + 1)]
    # the odd-k (even n) or even-k (odd n) conditions vanish by parity; keep the others
    keep = [k for k in range(n + 1) if any(rows[k]) or rhs[k]]
    a = [rows[k][:] + [rhs[k]] for k in keep]
    for col in range(len(unknowns)):  # exact Gauss-Jordan
        piv = next(r for r in range(col, len(a)) if a[r][col])
        a[col], a[piv] = a[piv], a[col]
        a[col] = [c / a[col][col] for c in a[col]]
        for r in range(len(a)):
            if r != col and a[r][col]:
                a[r] = [x - a[r][col] * y for x, y in zip(a[r], a[col])]
    coeffs = {j: a[i][-1] for i, j in enumerate(unknowns)}
    coeffs[n + 1] = Fraction(1)

    with mp.workdps(60):
        def stieltjes(z):
            p = legendre_values(n + 1, z)
            return sum(mp.mpf(c.numerator) / c.denominator * p[j] for j, c in coeffs.items())

        start, _, _ = gauss_kronrod(n)
        nodes = []
        for i, z0 in enumerate(start.tolist()):
            f = stieltjes if i % 2 == 0 else (lambda z: legendre_values(n, z)[n])
            nodes.append(mp.findroot(f, mp.mpf(z0), tol=mp.mpf(10) ** -55))
        m = len(nodes)
        vander = mp.matrix([legendre_values(m - 1, z) for z in nodes]).T
        weights = mp.lu_solve(vander, mp.matrix([2] + [0] * (m - 1)))
        return np.array([float(z) for z in nodes]), np.array([float(w) for w in weights])


@pytest.mark.parametrize("n", KRONROD_SMALL)
def test_kronrod_matches_a_40_digit_reference(n):
    x, w, gauss_w = gauss_kronrod(n)
    ref_x, ref_w = kronrod_reference(n)
    assert np.max(np.abs(x - ref_x)) <= 3e-16
    assert np.max(np.abs(w - ref_w) / ref_w) <= 5e-15
    assert gauss_w is gauss_legendre(n)[1]


@pytest.mark.parametrize("n, table", [(7, "_quadrature_gk15"), (10, "_quadrature_gk21")])
def test_kronrod_matches_quadpack_tables(n, table):
    quad_vec = pytest.importorskip("scipy.integrate._quad_vec")
    # the tables are literal tuples of the function: nodes (decreasing),
    # Gauss weights of the odd nodes, Kronrod weights
    nodes, gauss, kronrod = (np.array(c, dtype=float) for c in getattr(quad_vec, table).__code__.co_consts
                             if isinstance(c, tuple))
    x, w, gauss_w = gauss_kronrod(n)
    assert np.max(np.abs(x[::-1] - nodes)) <= 3e-16
    assert np.max(np.abs(w[::-1] - kronrod) / kronrod) <= 5e-15
    assert np.max(np.abs(gauss_w[::-1] - gauss) / gauss) <= 5e-15


@pytest.mark.parametrize("n", [64, 128, 256])
def test_kronrod_rule_at_every_level(n):
    x, w, gauss_w = gauss_kronrod(n)
    assert x.shape == w.shape == (2 * n + 1,)
    assert not x.flags.writeable and not w.flags.writeable
    # the Gauss nodes embedded at odd positions, bit for bit
    assert np.array_equal(x[1::2], gauss_legendre(n)[0])
    assert gauss_w is gauss_legendre(n)[1]
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # strictly increasing: the new nodes interlace with the Gauss nodes
    assert -1.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0)
    assert np.all(w > 0)
    sums = [math.fsum((w * p).tolist()) for p in legendre_values(3 * n + 2, x)]
    assert abs(sums[0] - 2.0) <= 2e-15
    assert max(abs(s) for s in sums[1 : 3 * n + 2]) <= 2e-15
    # even n: degree 3n + 2 is the first it misses, unlike a (2n+1)-node Gauss rule
    assert abs(sums[3 * n + 2]) > 1e-8


def test_rejects_an_empty_kronrod_rule():
    with pytest.raises(ValueError):
        gauss_kronrod(0)


@functools.cache
def laurie_reference(n):
    """Nodes x >= 0 (increasing) of K_(2n+1) and their weights at 40 digits, rounded to floats.

    For a level, where kronrod_reference is too slow: Laurie's recurrence
    for the Jacobi-Kronrod entries b_k run in mpmath (the b_k of
    kronrod_reference's rules at small n), Newton's iteration in x on the
    orthonormal p_(2n+1) from the oracle's nodes, and the weight
    1 / sum_(k<=2n) p_k^2. It checks the float side: the recurrence in
    1 - x, Newton's iteration in theta and the Christoffel sums.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        known = -(-3 * n // 2)
        b = [mp.mpf(2)] + [mp.mpf(k * k) / (4 * k * k - 1) for k in range(1, known + 1)]
        b += [mp.mpf(0)] * (2 * n - known)
        s, t = [mp.mpf(0)] * (n // 2 + 2), [mp.mpf(0)] * (n // 2 + 2)
        t[1] = b[n + 1]
        for m in range(n - 1):
            acc = mp.mpf(0)
            for k in range((m + 1) // 2, -1, -1):
                acc += b[k + n + 1] * s[k] - b[m - k] * s[k + 1]
                s[k + 1] = acc
            s, t = t, s
        s[1:] = s[:-1]
        for m in range(n - 1, 2 * n - 2):
            acc = mp.mpf(0)
            for k in range(m + 1 - n, (m - 1) // 2 + 1):
                j = n - (m - k)
                acc += b[m - k] * s[j + 1] - b[k + n + 1] * s[j]
                s[j] = acc
            if m % 2:
                b[(m + 1) // 2 + n + 1] = s[j] / s[j + 1]
            s, t = t, s
        c = [mp.sqrt(v) for v in b]

        def rows(x):  # p_0, ..., p_2n and the unnormalised p_(2n+1) with its derivative
            p_prev, p, dp_prev, dp = mp.mpf(0), 1 / c[0], mp.mpf(0), mp.mpf(0)
            total = p * p
            for k in range(2 * n + 1):
                p_next, dp_next = x * p - c[k] * p_prev, p + x * dp - c[k] * dp_prev
                if k < 2 * n:
                    p_next, dp_next = p_next / c[k + 1], dp_next / c[k + 1]
                    total += p_next * p_next
                p_prev, p, dp_prev, dp = p, p_next, dp, dp_next
            return p, dp, total

        start, _, _ = gauss_kronrod(n)
        nodes, weights = [], []
        for x0 in start[n:].tolist():
            x = mp.mpf(x0)
            for _ in range(3):
                f, df, _ = rows(x)
                x -= f / df
            nodes.append(float(x))
            weights.append(float(1 / rows(x)[2]))
        return np.array(nodes), np.array(weights)


@pytest.mark.parametrize("n", [7, 10, 64])
def test_kronrod_level_matches_laurie_in_40_digits(n):
    x, w, _ = gauss_kronrod(n)
    ref_x, ref_w = laurie_reference(n)
    assert np.max(np.abs(x[n:] - ref_x)) <= 3e-16
    assert np.max(np.abs(w[n:] - ref_w) / ref_w) <= 5e-15
    if n < 64:  # the same rule as the independent reference
        assert np.array_equal(ref_x, kronrod_reference(n)[0][n:])


def interleave(new, old):
    """A rule's nodes from those it adds (the even positions) and its predecessor's (the odd)."""
    out = np.empty(len(new) + len(old))
    out[0::2], out[1::2] = new, old
    return out


def chain():
    """{name: (nodes, weights, degree)} of the package's rules, the degree the last one exact."""
    (k_x, k_w), (p_new, p_w), (q_new, q_w) = quadrature._LEVELS
    p_x = interleave(p_new, k_x)
    return {
        "G64": (k_x[1::2], quadrature._G64_WEIGHTS, 127),
        "K129": (k_x, k_w, 193),
        "P259": (p_x, p_w, 388),
        "P519": (interleave(q_new, p_x), q_w, 778),
    }


def test_first_level_is_the_oracle_bit_for_bit():
    (k_x, k_w), *_ = quadrature._LEVELS
    x, w, gauss_w = gauss_kronrod(64)
    assert k_x.tobytes() == x.tobytes()  # -0.0 in the middle, as the oracle mirrors it
    assert k_w.tobytes() == w.tobytes()
    assert quadrature._G64_WEIGHTS.tobytes() == gauss_w.tobytes()


@pytest.mark.parametrize("name", ["G64", "K129", "P259", "P519"])
def test_chain_rule(name):
    rules = chain()
    x, w, degree = rules[name]
    assert x.shape == w.shape
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # nested, bit for bit: the rule before at the odd positions, and new nodes interlacing
    names = list(rules)
    if name != "G64":
        assert x[1::2].tobytes() == rules[names[names.index(name) - 1]][0].tobytes()
    assert -1.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0)
    assert np.all(w > 0)
    sums = [math.fsum((w * p).tolist()) for p in legendre_values(degree + 2, x)]
    assert abs(sums[0] - 2.0) <= 1e-15
    assert max(abs(s) for s in sums[1 : degree + 1]) <= 1e-15
    # odd degrees vanish by symmetry; the next even one is missed (P519 by 1.1e-14)
    assert abs(sums[degree + 2 - degree % 2]) > 5e-15


class TestNestedLevels:
    """_integrate on the chain: each level evaluates only the nodes its rule adds."""

    ENDS = np.array([[-1.0, 0.0, 1.0]] * 3)
    SCALE = np.array([1.0, 80.0, 200.0])  # 1 / (1 + (c x)^2) closes at levels 1, 2 and 3 at TOL
    TOL = 1e-13

    def run(self):
        calls = []

        def g(x, i):
            calls.append((i.tolist(), x.copy()))
            return 1.0 / (1.0 + (self.SCALE[i, None] * x) ** 2)

        vals, errs = quadrature._integrate(g, self.ENDS, self.TOL)
        return calls, vals, errs

    def test_each_level_evaluates_the_new_nodes_of_the_open_rows(self):
        calls, vals, errs = self.run()
        assert [i for i, _ in calls] == [[0, 1, 2], [1, 2], [2]]
        mid, half = 0.5 * (self.ENDS[:, 1:] + self.ENDS[:, :-1]), 0.5 * (self.ENDS[:, 1:] - self.ENDS[:, :-1])
        for (i, x), (t, _) in zip(calls, quadrature._LEVELS):
            assert x.shape == (len(i), 2 * len(t))
            assert len(t) in (129, 130, 260)
            assert np.array_equal(x, (mid[i, :, None] + half[i, :, None] * t).reshape(len(i), -1))
        every = np.concatenate([x[-1] for _, x in calls])
        assert len(np.unique(every)) == len(every) == 2 * 519  # the last row: no node twice
        assert np.all(np.abs(vals - 2.0 * np.arctan(self.SCALE) / self.SCALE) <= self.TOL)
        assert np.all(errs <= self.TOL)

    def test_a_row_equals_its_call_alone(self):
        _, vals, errs = self.run()
        for r in range(3):
            val, err = quadrature._integrate(lambda x: 1.0 / (1.0 + (self.SCALE[r] * x) ** 2), self.ENDS[r], self.TOL)
            assert (val, err) == (vals[r], errs[r])

    def test_level_one_equals_the_oracle_bit_for_bit(self):
        # the sums Gauss-Kronrod level n = 64 read from rule_oracle's rule
        ends = np.array([[0.0, 0.5, 1.0], [-0.3, 0.2, 2.0], [1.0, 1.0, -1.0]])
        t, w, gauss_w = gauss_kronrod(64)
        mid = 0.5 * (ends[:, 1:] + ends[:, :-1])[:, :, None]
        h = 0.5 * (ends[:, 1:] - ends[:, :-1])[:, :, None]
        gx = np.cos(mid + h * t)
        wg = h * w * gx
        fine = wg.sum(axis=2)
        coarse = (h * gauss_w * gx[:, :, 1::2]).sum(axis=2)
        ref_vals = fine.sum(axis=1)
        ref_errs = np.abs(fine - coarse).sum(axis=1) + quadrature._ROUNDOFF * np.abs(wg).reshape(3, -1).sum(axis=1)
        vals, errs = quadrature._integrate(lambda x, i: np.cos(x), ends, 1e-10)
        assert vals.tobytes() == ref_vals.tobytes() and errs.tobytes() == ref_errs.tobytes()
        assert quadrature._integrate(np.cos, ends[1], 1e-10) == (ref_vals[1], ref_errs[1])

    def test_an_empty_batch_returns_empty_arrays(self):
        def g(x, i):
            raise AssertionError("no row to evaluate")

        vals, errs = quadrature._integrate(g, np.empty((0, 3)), 1e-10)
        assert vals.shape == errs.shape == (0,)
        assert vals.dtype == errs.dtype == np.float64
