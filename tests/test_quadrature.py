"""The package's Gauss-Legendre rule: nodes and weights computed in the package."""

import functools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from supratoa import numerics, quadrature
from supratoa.quadrature import _gauss_legendre

LEVELS = [64, 128, 256, 512]  # every n the rule of _integrate uses


@functools.cache
def reference_rule(n):
    """Nodes x >= 0 (increasing) and their weights at 40 digits, rounded to floats.

    Two Newton steps in x from the package's nodes, with P_n, P_(n-1) by the
    three-term recurrence in decimal arithmetic; the weight is
    2 (1 - x^2) / (n P_(n-1)(x))^2 at the converged root.
    """
    start, _ = _gauss_legendre(n)
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
    x, w = _gauss_legendre(n)
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
    x, w = _gauss_legendre(n)
    ref_x, ref_w = reference_rule(n)
    assert np.max(np.abs(x[n // 2 :] - ref_x)) <= 3e-16
    assert np.max(np.abs(w[n // 2 :] - ref_w) / ref_w) <= 1e-14


@pytest.mark.parametrize("n", LEVELS)
def test_matches_roots_legendre(n):
    special = pytest.importorskip("scipy.special")
    x, w = _gauss_legendre(n)
    sx, sw = special.roots_legendre(n)
    assert np.max(np.abs(x - sx)) <= 1e-15
    # roots_legendre's outer weights are off the 40-digit values by up to
    # 1.5e-9 relative at n = 512; where the two rules differ by more than
    # 1e-14 relative, the package's weight is the one nearer the reference
    _, ref_w = reference_rule(n)
    half_w, half_sw = w[n // 2 :], sw[n // 2 :]
    apart = np.abs(half_w - half_sw) > 1e-14 * half_sw
    assert np.all(np.abs(half_w - ref_w)[apart] < np.abs(half_sw - ref_w)[apart])


def test_rejects_an_empty_rule():
    with pytest.raises(ValueError):
        _gauss_legendre(0)


def test_numerics_shares_the_rule():
    assert numerics._integrate is quadrature._integrate
    x, w = _gauss_legendre(64)
    assert not x.flags.writeable and not w.flags.writeable
