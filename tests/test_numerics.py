"""Float-domain checks: special function, integral form, operator application."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import supratoa
from supratoa.algebra import GradedKernel, KernelCells
from supratoa.classical_toa import Potential
from supratoa.errors import (
    ArgumentTooNegative,
    NoConvergence,
    QuadratureFailure,
    ZeroOverlap,
)
from supratoa.kernel_solver import (
    KernelRequest,
    classical_term,
    kernel_eval,
    solve_kernel_general,
    solve_kernel_harmonic,
)
from supratoa import numerics
from supratoa.numerics import (
    _Z_CUTOFF,
    BumpProfile,
    QuadSpec,
    apply_kernel,
    commutator_residual,
    _apply,
    _integrate,
    hyper0f1,
    kernel_integral_form,
)
from supratoa.quadrature import _NODE_CAP

HARMONIC = Potential.from_pairs([(2, F(1, 2))])
QUARTIC = Potential.from_pairs([(4, 1)])
FREE_KERNEL = solve_kernel_general(KernelRequest(Potential.free(), 1, 0))


def classical_slice(V, jmax=12):
    """The s = 0 grade of V's kernel table (mu = 1) as a GradedKernel."""
    cterm = classical_term(V, 1, jmax)
    table = {(m, j, 0): c for (m, j), c in cterm.items()}
    return GradedKernel(table, 1.0, (max(m for m, _ in cterm), max(j for _, j in cterm)))


@pytest.fixture
def sizes(monkeypatch):
    """Node values per KernelCells.tvalue call: one call per evaluation of a
    table's real factor T(q + q', q - q') sgn(q - q'), and per kernel_eval."""
    seen = []
    tvalue = KernelCells.tvalue

    def counted(cells, u, v):
        seen.append(np.broadcast(u, v).size)
        return tvalue(cells, u, v)

    monkeypatch.setattr(KernelCells, "tvalue", counted)
    return seen


def hyper0f1_oracle(z, nterms=90):
    """Exact rational partial sum, converted to float at the end."""
    zf = F(z)
    total, term = F(1), F(1)
    for n in range(1, nterms + 1):
        term *= zf / (n * n)
        total += term
    return float(total)


class TestQuadSpec:
    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, -math.inf])
    def test_refuses_a_tolerance_that_is_not_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="abs_tol must be positive"):
            QuadSpec(tol)


class TestBumpProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            BumpProfile(0.0, 0.0)
        with pytest.raises(ValueError):
            BumpProfile(0.0, -0.5)

    @pytest.mark.parametrize("halfwidth", [math.nan, math.inf])
    def test_refuses_nan_and_infinite_halfwidths(self, halfwidth):
        with pytest.raises(ValueError, match="halfwidth must be positive and finite"):
            BumpProfile(0.0, halfwidth)

    # inside, within 1e-6 of the edges, on them and outside; center 0 and
    # halfwidth 1 make u = q exactly
    EDGE_POINTS = [0.0, 0.3, -0.6, 0.77, 0.9, -0.99, 0.999, 1 - 1e-6, -(1 - 1e-6), 1.0, -1.0,
                   1 + 1e-9, 1.5, -3.0, 1e300]

    @pytest.mark.filterwarnings("error")
    def test_value_deriv2_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        phi = BumpProfile(0.0, 1.0)
        qs = np.array(self.EDGE_POINTS)
        value, deriv2 = phi.value_deriv2(qs)
        assert not np.isnan(value).any() and not np.isnan(deriv2).any()
        assert value.tolist() == phi.value(qs).tolist()
        with mp.workdps(40):
            def bump(t):
                return mp.exp(-1 / (1 - t * t)) if abs(t) < 1 else mp.mpf(0)

            for q, v, d2 in zip(qs.tolist(), value.tolist(), deriv2.tolist()):
                ref_v, ref_d2 = float(bump(mp.mpf(q))), float(mp.diff(bump, mp.mpf(q), 2))
                if abs(q) >= 1:
                    assert v == d2 == 0.0, q
                    continue
                # rounding 1 - u^2 costs eps r relative in r, so eps r^2 in exp(-r)
                r = 1.0 / (1.0 - q * q)
                tol = 8 * sys.float_info.epsilon * (1 + r * r)
                assert abs(v - ref_v) <= tol * abs(ref_v), q
                assert abs(d2 - ref_d2) <= tol * abs(ref_d2), q

    def test_support_and_vanishing_outside(self):
        phi = BumpProfile(1.0, 0.25)
        assert phi.support == (0.75, 1.25)
        assert phi.value(0.75) == 0
        assert phi.value(2.0) == 0
        assert phi.deriv1(0.7) == 0
        assert phi.deriv2(10.0) == 0

    def test_peak_value(self):
        phi = BumpProfile(0.3, 0.5, amplitude=2.0)
        assert phi.value(0.3) == pytest.approx(2.0 * math.exp(-1.0))

    def test_amplitude_may_be_complex(self):
        phi = BumpProfile(0.0, 1.0, amplitude=1j)
        assert phi.value(0.0) == pytest.approx(1j * math.exp(-1.0))

    @pytest.mark.parametrize("q", [-0.41, -0.13, 0.02, 0.27, 0.44])
    def test_derivatives_match_finite_differences(self, q):
        phi = BumpProfile(0.0, 0.6)
        h = 1e-5
        fd1 = (phi.value(q + h) - phi.value(q - h)) / (2 * h)
        fd2 = (phi.deriv1(q + h) - phi.deriv1(q - h)) / (2 * h)
        assert phi.deriv1(q) == pytest.approx(fd1, rel=1e-7, abs=1e-10)
        assert phi.deriv2(q) == pytest.approx(fd2, rel=1e-7, abs=1e-10)

    def test_array_evaluation_equals_scalar_calls(self):
        phi = BumpProfile(0.2, 0.6, amplitude=1 - 2j)
        qs = np.linspace(-0.5, 0.9, 29)
        for method in (phi.value, phi.deriv1, phi.deriv2):
            assert method(qs).tolist() == [complex(method(q)) for q in qs.tolist()]

    def test_halfwidth_scaling(self):
        wide = BumpProfile(0.0, 2.0)
        narrow = BumpProfile(0.0, 1.0)
        assert wide.value(1.0) == pytest.approx(narrow.value(0.5))
        assert wide.deriv1(1.0) == pytest.approx(narrow.deriv1(0.5) / 2.0)
        assert wide.deriv2(1.0) == pytest.approx(narrow.deriv2(0.5) / 4.0)


class TestHyper0f1:
    def test_pinned_values(self):
        assert hyper0f1(0.0) == 1.0
        assert hyper0f1(1.0) == pytest.approx(2.2795853023360673, rel=1e-15)
        assert hyper0f1(-1.0) == pytest.approx(0.22389077914123567, rel=1e-15)

    @pytest.mark.parametrize("z", [-20, -4, -1, 0.5, 2, 10, 60])
    def test_matches_exact_rational_sum(self, z):
        assert hyper0f1(float(z)) == pytest.approx(hyper0f1_oracle(z), rel=5e-13)

    def test_mild_cancellation_region(self):
        assert hyper0f1(-50.0) == pytest.approx(hyper0f1_oracle(-50), rel=1e-9)

    @pytest.mark.parametrize("z", [-4.0, -1.0, 0.5, 2.0, 10.0])
    def test_satisfies_defining_ode(self, z):
        # z f'' + f' - f = 0 for f = 0F1(1; z)
        h = 1e-4
        f0, fp, fm = hyper0f1(z), hyper0f1(z + h), hyper0f1(z - h)
        d1 = (fp - fm) / (2 * h)
        d2 = (fp - 2 * f0 + fm) / (h * h)
        assert z * d2 + d1 - f0 == pytest.approx(0.0, abs=1e-5 * (1 + abs(f0)))

    def test_matches_mpmath_down_to_cutoff(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for z in np.linspace(_Z_CUTOFF, 60.0, 301):
                ref = float(mpmath.hyp0f1(1, float(z)))
                assert abs(hyper0f1(float(z)) - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_rejects_deep_negative_arguments(self):
        # at -200 the double sum is off by 2.6e-6, at -400 its sign is wrong
        for z in (-200.0, -400.0, -1000.0):
            with pytest.raises(ArgumentTooNegative):
                hyper0f1(z)

    def test_reports_non_convergence(self):
        with pytest.raises(NoConvergence):
            hyper0f1(1e7)


class TestIntegralForm:
    def test_free_particle_is_exact(self):
        rng = random.Random(7)
        quad = QuadSpec(1e-12)
        for _ in range(40):
            q, qp = rng.uniform(-1, 1), rng.uniform(-1, 1)
            got = kernel_integral_form(Potential.free(), 1.0, 1.0, q, qp, quad)
            assert got == pytest.approx((q + qp) / 4.0, abs=1e-13)

    @pytest.mark.parametrize("V", [HARMONIC, Potential.from_pairs([(4, 1)])])
    def test_matches_series_evaluation(self, V):
        series = classical_slice(V).cells(1.0)
        rng = random.Random(11)
        quad = QuadSpec(1e-11)
        for _ in range(25):
            q, qp = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
            via_integral = kernel_integral_form(V, 1.0, 1.0, q, qp, quad)
            via_series = series.tvalue(q + qp, q - qp)
            assert via_integral == pytest.approx(via_series, abs=1e-8)

    @pytest.mark.parametrize("V", [HARMONIC, QUARTIC], ids=["harmonic", "quartic"])
    def test_empty_panel_is_zero(self, V):
        assert kernel_integral_form(V, 1.0, 1.0, 0.3, -0.3, QuadSpec(1e-12)) == 0.0

    @pytest.mark.parametrize("V", [HARMONIC, QUARTIC], ids=["harmonic", "quartic"])
    def test_reversed_panel_matches_quadpack(self, V):
        # (q + q')/2 < 0: the panel runs from 0 down to a negative end
        q, qp = -0.41, 0.17
        s_hi = 0.5 * (q + qp)
        scale = 0.5 * (q - qp) ** 2
        oracle = integrate.quad(
            lambda q2: hyper0f1(scale * (V.value(s_hi) - V.value(q2))),
            0.0,
            s_hi,
            epsabs=1e-14,
            epsrel=0.0,
        )[0]
        got = kernel_integral_form(V, 1.0, 1.0, q, qp, QuadSpec(1e-14))
        assert abs(oracle) > 1e-2
        assert abs(got - 0.5 * oracle) <= 1e-12

    def test_hbar_validation(self):
        with pytest.raises(ValueError):
            kernel_integral_form(HARMONIC, 1.0, 0.0, 0.1, 0.2, QuadSpec(1e-10))


class TestApplyKernel:
    def test_free_kernel_against_closed_oracle(self):
        phi = BumpProfile(0.0, 0.8)
        got = apply_kernel(FREE_KERNEL, phi, [0.0], 1.0, QuadSpec(1e-12))[0]
        m1 = integrate.quad(
            lambda q: abs(q) * phi.value(q).real, *phi.support, epsabs=1e-14, epsrel=0.0
        )[0]
        assert got == pytest.approx(0.25j * m1, abs=1e-12)

    def test_callable_kernel_accepted(self):
        phi = BumpProfile(0.0, 0.5)
        out = apply_kernel(lambda q, qp: 0j, phi, [-0.2, 0.0, 0.3], 1.0, QuadSpec(1e-10))
        assert out == [0j, 0j, 0j]

    @pytest.mark.parametrize("V", [HARMONIC, QUARTIC], ids=["harmonic", "quartic"])
    @pytest.mark.parametrize("q", [0.13, 0.5, -0.5, 0.8], ids=["inside", "edge", "edge-", "outside"])
    def test_array_rule_matches_quadpack(self, V, q):
        K = solve_kernel_general(KernelRequest(V, 1, 8))
        cells = K.cells(1.0)
        phi = BumpProfile(0.0, 0.5)
        lo, hi = phi.support
        got = apply_kernel(K, phi, [q], 1.0, QuadSpec(1e-13))[0]
        # <q|T|q'> is imaginary and phi real, so the integrand is imaginary
        oracle = integrate.quad(
            lambda qp: (kernel_eval(cells, q, qp) * phi.value(qp)).imag,
            lo,
            hi,
            points=[q] if lo < q < hi else None,
            epsabs=1e-14,
            epsrel=0.0,
            limit=200,
        )[0]
        assert abs(oracle) > 1e-3
        assert abs(got - 1j * oracle) <= 1e-12

    @pytest.mark.parametrize("mu, hbar", [(2, 1.0), (2, 0.7), (50, 0.5)])
    def test_cells_match_their_kernel_as_a_callable(self, mu, hbar, sizes):
        # mu / i hbar taken out of the integral, against kernel_eval inside
        # it (a callable's factor is 1): equal within the two estimates, and
        # every row closes at the same level, so the node values are the same
        cells = solve_kernel_general(KernelRequest(HARMONIC, mu, 8)).cells(hbar)
        phi = BumpProfile(0.1, 0.5)
        qs = np.linspace(-0.5, 0.7, 13)
        tol = 1e-11
        ref, ref_errs = _apply(
            lambda q, qp: kernel_eval(cells, q, qp), lambda q, qp: phi.value(qp), phi.support, qs, tol
        )
        n = len(sizes)
        got = np.array(apply_kernel(cells, phi, qs, hbar, QuadSpec(tol)))
        assert sizes[n:] == sizes[:n]
        c, f = numerics._as_kernel_func(cells, hbar)
        assert c == mu / (1j * hbar)
        _, errs = _apply(f, lambda q, qp: phi.value(qp), phi.support, qs, tol / abs(c))
        assert np.all(np.abs(got) > 1e-3)
        assert np.all(np.abs(got - ref) <= abs(c) * errs + ref_errs)

    @pytest.mark.parametrize("mu, hbar", [(10**300, 1e-10), (0, 1.0)], ids=["infinite", "zero"])
    def test_factor_outside_the_floats_refused(self, mu, hbar):
        # the integrals run at tolerances over |mu / i hbar|, which must be a positive float
        cells = solve_kernel_general(KernelRequest(Potential.free(), mu, 0)).cells(hbar)
        phi = BumpProfile(0.0, 0.5)
        with pytest.raises(QuadratureFailure, match="kernel factor mu / hbar = .* is 0 or beyond the float range"):
            apply_kernel(cells, phi, [0.1], hbar, QuadSpec(1e-10))
        with pytest.raises(QuadratureFailure, match="kernel factor"):
            commutator_residual(Potential.free(), cells, phi, phi, 1.0, hbar, QuadSpec(1e-8))

    def test_cell_beyond_the_float_range_is_named(self):
        # a graded table's cells are rounded on its first float evaluation, and the first too large is named
        K = GradedKernel({(1, 0, 0): F(1, 4), (3, 1, 0): 10**400}, 1, (3, 1))
        with pytest.raises(QuadratureFailure, match=r"^kernel cell \(m, j\) = \(3, 1\) is beyond the float range$"):
            apply_kernel(K, BumpProfile(0.0, 0.5), [0.0], 1.0, QuadSpec(1e-10))

    def test_rejects_non_kernel(self):
        with pytest.raises(TypeError):
            apply_kernel(42, BumpProfile(0.0, 0.5), [0.0], 1.0, QuadSpec(1e-10))

    def test_cells_at_another_hbar_refused(self):
        cells = solve_kernel_harmonic(1, 4).cells(0.7)
        phi = BumpProfile(0.0, 0.5)
        with pytest.raises(ValueError, match=r"cells solved at hbar = 0\.7, evaluated at 1\.0"):
            apply_kernel(cells, phi, [0.0], 1.0, QuadSpec(1e-10))
        with pytest.raises(ValueError, match=r"cells solved at hbar = 0\.7, evaluated at 1\.0"):
            commutator_residual(HARMONIC, cells, phi, phi, 1.0, 1.0, QuadSpec(1e-8))
        with pytest.raises(ValueError, match="hbar must be positive"):
            apply_kernel(solve_kernel_harmonic(1, 4), phi, [0.0], 0.0, QuadSpec(1e-10))

    def test_kernel_at_another_mu_refused(self):
        # H's mass and the kernel's must agree; a callable carries no mass to check
        K = solve_kernel_general(KernelRequest(HARMONIC, 2, 4))
        phi = BumpProfile(0.0, 0.5)
        for kernel in (K, K.cells(1.0)):
            with pytest.raises(ValueError, match=r"kernel solved at mu = 2, evaluated at mu = 1\.0"):
                commutator_residual(HARMONIC, kernel, phi, phi, 1.0, 1.0, QuadSpec(1e-8))
        assert commutator_residual(HARMONIC, K, phi, phi, 2.0, 1.0, QuadSpec(1e-8)).params["mu"] == 2.0
        commutator_residual(HARMONIC, lambda q, qp: 0j, phi, phi, 1.0, 1.0, QuadSpec(1e-8))

    def test_graded_table_collapses_once_per_call(self, monkeypatch):
        # a table and its cells at hbar give the same values, and a graded
        # table is collapsed once per call, not once per batch of nodes
        K = solve_kernel_harmonic(1, 6)
        phi = BumpProfile(0.0, 0.5)
        qs = [-0.3, 0.1, 0.7]
        via_cells = apply_kernel(K.cells(0.7), phi, qs, 0.7, QuadSpec(1e-12))
        collapse = GradedKernel.cells
        hbars = []

        def counted(self, hbar):
            hbars.append(hbar)
            return collapse(self, hbar)

        monkeypatch.setattr(GradedKernel, "cells", counted)
        assert apply_kernel(K, phi, qs, 0.7, QuadSpec(1e-12)) == via_cells
        assert hbars == [0.7]
        commutator_residual(HARMONIC, K, phi, BumpProfile(0.1, 0.5), 1.0, 0.7, QuadSpec(1e-8))
        assert hbars == [0.7, 0.7]

    def test_quadspec_validation(self):
        with pytest.raises(ValueError):
            QuadSpec(0.0)

    def test_unattainable_tolerance_raises(self):
        # double precision cannot certify an absolute error of 1e-22, so the
        # error-estimate guard must refuse rather than return a value
        with pytest.raises(QuadratureFailure):
            apply_kernel(FREE_KERNEL, BumpProfile(0.0, 0.5), [0.1], 1.0, QuadSpec(1e-22))


def bump_expectation(K, p1, p2, n=160, tol=1e-13):
    """<chi|T chi> for chi = p1 + i p2 via per-support Gauss panels."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    total = 0j
    for piece in (p1, p2):
        lo, hi = piece.support
        qs = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * weights
        t1 = apply_kernel(K, p1, qs, 1.0, QuadSpec(tol))
        t2 = apply_kernel(K, p2, qs, 1.0, QuadSpec(tol))
        for q, w, a, b in zip(qs, ws, t1, t2):
            chi = p1.value(q) + 1j * p2.value(q)
            total += w * chi.conjugate() * (a + 1j * b)
    return total


class TestExpectationReality:
    # disjoint, strictly ordered supports: the sgn factor is constant on
    # each cross integral, so the free-kernel expectation has a closed form
    P1 = BumpProfile(0.2, 0.35)
    P2 = BumpProfile(1.0, 0.35)

    def test_free_kernel_closed_form(self):
        a1 = integrate.quad(
            lambda q: self.P1.value(q).real, *self.P1.support, epsabs=1e-14, epsrel=0.0
        )[0]
        a2 = integrate.quad(
            lambda q: self.P2.value(q).real, *self.P2.support, epsabs=1e-14, epsrel=0.0
        )[0]
        oracle = -0.5 * a1 * a2 * (self.P1.center + self.P2.center)
        got = bump_expectation(FREE_KERNEL, self.P1, self.P2, n=120)
        assert got.real == pytest.approx(oracle, abs=1e-12)
        assert abs(got.imag) < 1e-12

    @pytest.mark.parametrize("K", [FREE_KERNEL, solve_kernel_harmonic(1, 8)])
    def test_expectation_is_real(self, K):
        got = bump_expectation(K, self.P1, self.P2, n=120)
        assert abs(got) > 1e-3  # meaningful denominator
        assert abs(got.imag) / abs(got) < 1e-8

    def test_real_state_expectation_vanishes(self):
        # for a real wave function the expectation is zero outright
        # (imaginary antisymmetric kernel); measure only numerical noise
        phi = BumpProfile(0.0, 0.6)
        nodes, weights = np.polynomial.legendre.leggauss(120)
        lo, hi = phi.support
        qs = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * weights
        tphi = apply_kernel(solve_kernel_harmonic(1, 8), phi, qs, 1.0, QuadSpec(1e-12))
        e = sum(w * phi.value(q).conjugate() * t for q, w, t in zip(qs, ws, tphi))
        norm2 = sum(w * abs(phi.value(q)) ** 2 for q, w in zip(qs, ws))
        assert abs(e) < 1e-10 * norm2


class TestCommutator:
    PHI = BumpProfile(0.0, 0.5)
    PSI = BumpProfile(0.1, 0.5)

    def test_harmonic_kernel_closes_relation(self):
        K = solve_kernel_harmonic(1, 10)
        report = commutator_residual(HARMONIC, K, self.PHI, self.PSI, 1.0, 1.0, QuadSpec(1e-8))
        assert report.residual < 1e-4
        assert report.residual <= report.error_budget
        assert math.isfinite(report.error_budget)
        assert report.residual < 1e-9
        assert report.error_budget < 1e-6

    def test_quartic_kernel_closes_relation(self):
        K = solve_kernel_general(KernelRequest(QUARTIC, 1, 8))
        report = commutator_residual(QUARTIC, K, self.PHI, self.PSI, 1.0, 1.0, QuadSpec(1e-8))
        assert report.residual < 1e-9
        assert report.residual <= report.error_budget

    def test_complex_amplitudes_give_the_real_residual(self):
        # the residual does not see the bumps' amplitudes; with complex ones
        # the nested integral is complex before mu / i hbar multiplies it
        K = solve_kernel_general(KernelRequest(HARMONIC, 1, 8))
        real = commutator_residual(HARMONIC, K, self.PHI, self.PSI, 1.0, 1.0, QuadSpec(1e-8))
        phi = BumpProfile(self.PHI.center, self.PHI.halfwidth, 0.5j)
        psi = BumpProfile(self.PSI.center, self.PSI.halfwidth, 1 + 1j)
        report = commutator_residual(HARMONIC, K, phi, psi, 1.0, 1.0, QuadSpec(1e-8))
        assert report.residual <= report.error_budget
        assert abs(report.residual - real.residual) <= report.error_budget

    @pytest.mark.parametrize("mu, hbar", [(1, 1.0), (2, 0.7), (1, 5.0)])
    def test_cells_report_what_their_complex_kernel_reports(self, mu, hbar, sizes):
        # mu / i hbar outside the nested integral, with the tolerances over
        # mu / hbar, against kernel_eval inside it as a callable (factor 1):
        # the same report, from the same node values
        cells = solve_kernel_general(KernelRequest(HARMONIC, mu, 8)).cells(hbar)
        quad = QuadSpec(1e-8)
        ref = commutator_residual(
            HARMONIC, lambda q, qp: kernel_eval(cells, q, qp), self.PHI, self.PSI, float(mu), hbar, quad
        )
        n = len(sizes)
        got = commutator_residual(HARMONIC, cells, self.PHI, self.PSI, float(mu), hbar, quad)
        assert sizes[n:] == sizes[:n]
        assert abs(got.residual - ref.residual) <= 1e-3 * ref.error_budget
        assert got.error_budget == pytest.approx(ref.error_budget, rel=1e-6)

    def test_slightly_wrong_potential_exceeds_budget(self):
        # the harmonic table against H with V scaled by 1001/1000: the
        # mismatch (about 1.7e-6) must stand out of the budget (about 8e-8)
        K = solve_kernel_harmonic(1, 10)
        V = Potential.from_pairs([(2, F(1001, 2000))])
        report = commutator_residual(V, K, self.PHI, self.PSI, 1.0, 1.0, QuadSpec(1e-8))
        assert report.residual > report.error_budget

    def test_corrupted_seed_is_flagged(self):
        K = solve_kernel_harmonic(1, 10).replace_entry(1, 0, 0, F(1, 2))
        report = commutator_residual(HARMONIC, K, self.PHI, self.PSI, 1.0, 1.0, QuadSpec(1e-8))
        assert report.residual > 0.5

    def test_disjoint_supports_rejected(self):
        with pytest.raises(ZeroOverlap):
            commutator_residual(
                HARMONIC,
                solve_kernel_harmonic(1, 4),
                BumpProfile(-2.0, 0.3),
                BumpProfile(2.0, 0.3),
                1.0,
                1.0,
                QuadSpec(1e-8),
            )

    def test_hbar_validation(self):
        with pytest.raises(ValueError):
            commutator_residual(
                HARMONIC, solve_kernel_harmonic(1, 4), self.PHI, self.PSI, 1.0, 0.0, QuadSpec(1e-8)
            )

    def test_unattainable_tolerance_raises(self):
        # as for apply_kernel: the outer rule's roundoff floor alone is far
        # above 1e3 * 1e-22, so no report may come back
        K = solve_kernel_harmonic(1, 10)
        with pytest.raises(QuadratureFailure):
            commutator_residual(HARMONIC, K, self.PHI, self.PSI, 1.0, 1.0, QuadSpec(1e-22))

    def test_residual_improves_with_truncation_then_saturates(self):
        # bumps pushed away from the origin so jmax = 4 truncation dominates;
        # by jmax = 8 the table is converged far below the quadrature floor
        # (factorial decay), so 8 -> 12 can only agree, never improve further
        phi = BumpProfile(1.2, 0.8)
        psi = BumpProfile(1.4, 0.8)
        r = {}
        for jmax in (4, 8, 12):
            K = solve_kernel_general(KernelRequest(HARMONIC, 1, jmax))
            r[jmax] = commutator_residual(HARMONIC, K, phi, psi, 1.0, 1.0, QuadSpec(1e-7)).residual
        assert r[4] > 5 * r[8]
        assert abs(r[12] - r[8]) < 1e-8
        assert r[12] < 1e-6


def per_row_apply(kernel_func, f, support, qs, epsabs):
    """Reference for the batched inner rule: one _integrate call per outer point.

    Each q is its own _integrate call on [lo, q, hi], or on [lo, hi] when q
    is not inside the support. Returns the values, the estimates and the
    number of integrand calls per row (one per level, plus one).
    """
    lo, hi = support
    vals, errs, calls = [], [], []
    for q in qs:
        count = [0]

        def g(x, q=q, count=count):
            count[0] += 1
            return kernel_func(q, x) * f(q, x)

        val, err = _integrate(g, [lo, q, hi] if lo < q < hi else [lo, hi], epsabs)
        vals.append(val)
        errs.append(err)
        calls.append(count[0])
    return vals, errs, calls


class TestBatchedRule:
    """One _integrate batch of rows equals one call per row."""

    PSI = BumpProfile(0.1, 0.5)
    # inside, at both ends of supp psi, and outside it on either side
    QS = [-0.45, -0.4, -0.13, 0.0, 0.1, 0.27, 0.44, 0.6, 0.9]

    @pytest.mark.parametrize("tol", [1e-11, 1e-14])
    def test_values_and_estimates_equal_per_row_calls(self, tol):
        K = solve_kernel_general(KernelRequest(QUARTIC, 1, 8)).cells(0.7)

        def kf(q, qp):
            return kernel_eval(K, q, qp)

        def f(q, qp):
            return self.PSI.deriv2(qp) * np.cos(3.0 * q) + self.PSI.value(qp)

        vals, errs = _apply(kf, f, self.PSI.support, self.QS, tol)
        ref_vals, ref_errs, calls = per_row_apply(kf, f, self.PSI.support, self.QS, tol)
        assert vals.tolist() == ref_vals
        assert errs.tolist() == ref_errs
        if tol < 1e-12:
            assert len(set(calls)) > 1  # rows close at different levels

    @pytest.mark.parametrize("tol", [1e-11, 1e-14])
    def test_rows_equal_the_two_panel_batch(self, tol):
        # rows at or outside supp psi integrate the one panel [lo, hi]; each
        # keeps the value and estimate of [lo, clip(q), hi] with its empty panel
        K = solve_kernel_general(KernelRequest(QUARTIC, 1, 8)).cells(0.7)

        def g(q, qp):
            return kernel_eval(K, q, qp) * (self.PSI.deriv2(qp) * np.cos(3.0 * q) + self.PSI.value(qp))

        lo, hi = self.PSI.support
        q = np.array(self.QS).reshape(-1, 1)
        ends = np.hstack([np.full_like(q, lo), np.clip(q, lo, hi), np.full_like(q, hi)])
        ref_vals, ref_errs = _integrate(lambda x, i: g(q[i], x), ends, tol)
        vals, errs = _apply(g, lambda q, qp: 1.0, self.PSI.support, self.QS, tol)
        assert vals.tolist() == ref_vals.tolist()
        assert errs.tolist() == ref_errs.tolist()

    @pytest.mark.parametrize("tol", [1e-11, 1e-14])
    def test_outside_rows_hand_f_one_node_row(self, tol):
        # rows at or outside supp psi share their nodes: f gets one node row,
        # the kernel factor every row, and each row is the per-row call's
        K = solve_kernel_general(KernelRequest(QUARTIC, 1, 8)).cells(0.7)
        lo, hi = self.PSI.support
        outside = [q for q in self.QS if not lo < q < hi]
        calls = []

        def kf(q, qp):
            return kernel_eval(K, q, qp)

        def f(q, qp):
            return self.PSI.deriv2(qp) * np.cos(3.0 * q) + self.PSI.value(qp)

        def seen(name, g):
            def recorded(q, qp):
                calls.append((name, q.shape, qp.shape))
                return g(q, qp)

            return recorded

        vals, errs = _apply(seen("kernel", kf), seen("f", f), self.PSI.support, outside, tol)
        kernel_calls, f_calls = calls[::2], calls[1::2]
        assert {name for name, _, _ in kernel_calls} == {"kernel"} and {name for name, _, _ in f_calls} == {"f"}
        for (_, rows, nodes), (_, f_rows, f_nodes) in zip(kernel_calls, f_calls):
            assert f_rows == rows == (nodes[0], 1)
            assert f_nodes == (1, nodes[1])
        assert max(rows[0] for _, rows, _ in kernel_calls) == len(outside)
        ref_vals, ref_errs, _ = per_row_apply(kf, f, self.PSI.support, outside, tol)
        assert vals.tolist() == ref_vals
        assert errs.tolist() == ref_errs

    @pytest.mark.parametrize(
        "w, tol, sizes",
        [(1.0, 1e-13, [129]), (250.0, 1e-13, [129, 130]), (1.0, 1e-16, [129, 130, 260])],
        ids=["level-1", "level-2", "level-3"],
    )
    def test_an_empty_panel_adds_exactly_zero(self, w, tol, sizes):
        # the contract _apply's rows at or outside supp psi rest on, at the level each row closes
        for a in np.linspace(0.1, 3.0, 200).tolist():
            seen = []

            def g(x):
                seen.append(x.size)
                return np.exp(a * x) * np.cos(w * x)

            ref = _integrate(g, [-0.5, 0.5], tol)
            assert seen == sizes
            for ends in ([-0.5, -0.5, 0.5], [-0.5, 0.5, 0.5]):
                assert _integrate(g, ends, tol) == ref

    def test_callable_kernel_gets_a_column_of_points(self):
        shapes = []

        def kf(q, qp):
            shapes.append((q.shape, qp.shape))
            return np.where(qp < q, 1.0, -1.0)

        vals, _ = _apply(kf, lambda q, qp: self.PSI.value(qp), self.PSI.support, self.QS, 1e-12)
        ref, _, _ = per_row_apply(
            lambda q, qp: np.where(qp < q, 1.0, -1.0),
            lambda q, qp: self.PSI.value(qp),
            self.PSI.support,
            self.QS,
            1e-12,
        )
        assert vals.tolist() == ref
        assert all(len(q) == 2 and q[1] == 1 and q[0] == x[0] for q, x in shapes)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_row_raises(self):
        def kf(q, qp):
            return np.where(q > 0.25, np.inf, 1.0) * qp

        def f(q, qp):
            return self.PSI.value(qp)

        with pytest.raises(QuadratureFailure, match="non-finite"):
            _apply(kf, f, self.PSI.support, self.QS, 1e-10)
        with pytest.raises(QuadratureFailure, match="non-finite"):
            per_row_apply(kf, f, self.PSI.support, self.QS, 1e-10)

    def test_one_row_returns_scalars(self):
        val, err = _integrate(np.cos, [0.0, 0.5, 1.0], 1e-12)
        assert isinstance(val, float) and isinstance(err, float)
        assert val == pytest.approx(math.sin(1.0), abs=1e-14)

    def test_empty_grid(self):
        assert apply_kernel(FREE_KERNEL, self.PSI, [], 1.0, QuadSpec(1e-10)) == []


class TestWorkCounters:
    """Evaluation counts that guard the batched inner rule without timing it."""

    def test_harmonic_commutator_evaluates_few_arrays(self, sizes):
        K = solve_kernel_general(KernelRequest(HARMONIC, 1, 8))
        report = commutator_residual(
            HARMONIC, K, TestCommutator.PHI, TestCommutator.PSI, 1.0, 1.0, QuadSpec(1e-8)
        )
        assert report.residual < 1e-9
        # one array per level and slice of outer rows, at most _NODE_CAP
        # node values each; a call per outer node would make 1,049, a cap of
        # 4096 made 34, and Gauss-Kronrod levels of 129 and 257 fresh nodes
        # per panel 18
        assert len(sizes) == 14
        assert max(sizes) <= _NODE_CAP
        # 129 node values per panel for the 258 inner rows, then only the 130
        # that P259 adds for the 176 that go on (the Gauss-Kronrod levels
        # took 119,827, and the n and 2n Gauss sums of each level 216,064)
        assert sum(sizes) == 85_283

    def test_free_commutator_respects_the_node_cap(self, sizes):
        commutator_residual(
            Potential.free(), FREE_KERNEL, TestCommutator.PHI, TestCommutator.PSI, 1.0, 1.0, QuadSpec(1e-10)
        )
        assert max(sizes) <= _NODE_CAP
        assert len(sizes) == 28  # 111 at a cap of 4096, 55 on the Gauss-Kronrod levels
        # the outer rule closes at its second level, 129 + 130 points per
        # panel; of those 518 inner rows, 412 take a second level and none a
        # third, at 129 and then 130 node values per panel. No node on the
        # empty panel of an outer point at or outside supp psi. (Gauss-Kronrod
        # levels of 129 and 257 fresh nodes per panel took 395,331, for 772
        # inner rows; the n and 2n Gauss sums of each level 542,976.)
        assert sum(sizes) == 183_563

    def test_factor_off_one_closes_rows_at_the_same_levels(self, sizes):
        # at mu / hbar = 2 / 0.7 the rule integrates the real factor at the
        # tolerances over |mu / i hbar|, and every row closes where the
        # complex kernel's did: the same node values
        K = solve_kernel_general(KernelRequest(HARMONIC, 2, 8))
        report = commutator_residual(
            HARMONIC, K, TestCommutator.PHI, TestCommutator.PSI, 2.0, 0.7, QuadSpec(1e-8)
        )
        assert report.residual < 1e-9
        assert report.residual <= report.error_budget
        assert len(sizes) == 13  # 18 on the Gauss-Kronrod levels
        assert sum(sizes) == 83_853  # 117,000 on the Gauss-Kronrod levels


ONE_RULE_SCRIPT = """
import sys
from fractions import Fraction as F
from supratoa.classical_toa import PhasePoint, Potential, toa_quadrature
from supratoa.kernel_solver import solve_kernel_harmonic
from supratoa.numerics import BumpProfile, QuadSpec, commutator_residual, kernel_integral_form
V = Potential.from_pairs([(2, F(1, 2))])
phi, psi = BumpProfile(0.0, 0.5), BumpProfile(0.1, 0.5)
commutator_residual(V, solve_kernel_harmonic(1, 4), phi, psi, 1.0, 1.0, QuadSpec(1e-8))
kernel_integral_form(V, 1.0, 1.0, 0.3, 0.1, QuadSpec(1e-12))
toa_quadrature(V, PhasePoint(0.2, 1.0))
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_numerics_integrates_without_scipy_integrate():
    # no scipy module at all, after the commutator, the integral form and an
    # arrival time; a fresh interpreter, since this test module imports
    # scipy.integrate itself
    src = str(Path(supratoa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", ONE_RULE_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
