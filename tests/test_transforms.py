"""Phase-space transform pair: kernel table <-> momentum series."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supratoa.algebra import MomentumSeries, QPoly
from supratoa.classical_toa import Potential, local_toa, toa_iterate_closed
from supratoa.errors import GradeError
from supratoa.kernel_solver import (
    KernelRequest,
    classical_term,
    linear_sigma_table,
    solve_kernel_general,
    solve_kernel_harmonic,
    solve_kernel_linear,
)
from supratoa.transforms import (
    classical_limit,
    hbar2_residual,
    weyl_quantize,
    wigner_transform,
)

HARMONIC = Potential.from_pairs([(2, F(1, 2))])
params = st.fractions(min_value=-2, max_value=2, max_denominator=8)


class TestWigner:
    def test_free_kernel_gives_free_flight(self):
        K = solve_kernel_general(KernelRequest(Potential.free(), F(3, 2), 0))
        series = wigner_transform(K)
        assert series.terms == {(0, 0): QPoly({1: F(-3, 2)})}

    def test_harmonic_reproduces_arrival_series(self):
        K = solve_kernel_harmonic(1, 6)
        assert wigner_transform(K) == local_toa(HARMONIC, 1, 0, 6)

    def test_harmonic_single_term_hand_value(self):
        K = solve_kernel_harmonic(1, 1)
        assert wigner_transform(K).term(1, 0) == QPoly({3: F(1, 3)})

    def test_grade_splits(self):
        V = Potential.from_pairs([(4, F(1, 2))])
        series = wigner_transform(solve_kernel_general(KernelRequest(V, 1, 6)))
        classical = classical_limit(series)
        residual = hbar2_residual(series)
        assert classical + residual == series
        assert classical.max_s() == 0
        assert not residual.is_zero()
        assert min(s for (_, s) in residual.terms) == 1

    def test_linear_kernels_have_no_residual(self):
        K = solve_kernel_linear(F(1, 3), F(2, 7), 1, 6)
        assert hbar2_residual(wigner_transform(K)).is_zero()

    def test_classical_limit_matches_direct_classical_table(self):
        for V in (HARMONIC, Potential.from_pairs([(3, F(1, 5))])):
            K = solve_kernel_general(KernelRequest(V, 1, 5))
            limit = classical_limit(wigner_transform(K))
            direct = wigner_transform(
                solve_kernel_general(KernelRequest(V, 1, 5))
            ).restrict(lambda k, s: s == 0)
            assert limit == direct
            assert limit == local_toa(V, 1, 0, 5)

    def test_quartic_first_order_term(self):
        lam = F(2, 5)
        V = Potential.from_pairs([(4, lam)])
        series = wigner_transform(solve_kernel_general(KernelRequest(V, 1, 2)))
        assert series.term(1, 0) == QPoly({5: F(4, 5) * lam})


class TestWeyl:
    def test_inverts_wigner_on_linear_tables(self):
        K = solve_kernel_linear(F(1, 2), F(1, 3), 1, 6)
        assert weyl_quantize(wigner_transform(K)) == K

    def test_quantizes_arrival_series_to_kernel(self):
        series = local_toa(HARMONIC, 1, 0, 8)
        assert weyl_quantize(series) == solve_kernel_harmonic(1, 8)

    def test_respects_mass(self):
        mu = F(2)
        series = local_toa(HARMONIC, mu, 0, 5)
        K = solve_kernel_general(KernelRequest(HARMONIC, mu, 5))
        assert weyl_quantize(series, mu=mu) == K

    def test_rejects_graded_series(self):
        series = MomentumSeries({(1, 1): QPoly({3: 1})})
        with pytest.raises(GradeError):
            weyl_quantize(series)

    def test_rejects_q_constant_terms(self):
        series = MomentumSeries({(0, 0): QPoly.constant(2)})
        with pytest.raises(ValueError):
            weyl_quantize(series)

    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=4),
            st.dictionaries(st.integers(min_value=1, max_value=7), params, min_size=1, max_size=3),
            max_size=4,
        )
    )
    @settings(max_examples=50)
    def test_round_trip_on_grade_zero_series(self, raw):
        series = MomentumSeries({(k, 0): QPoly(coeffs) for k, coeffs in raw.items()})
        if series.is_zero():
            return
        assert wigner_transform(weyl_quantize(series)) == series

    @given(params, params)
    @settings(max_examples=25, deadline=None)
    def test_round_trip_on_solver_tables(self, a, b):
        K = solve_kernel_linear(a, b, 1, 4)
        assert weyl_quantize(wigner_transform(K)) == K

    def test_round_trip_high_order_dense_series(self):
        # dense grade-zero input out to p-index 10 and degree 20
        terms = {}
        for k in range(11):
            terms[(k, 0)] = QPoly({d: F(2 * d - 3, d + k + 1) for d in range(1, 21)})
        series = MomentumSeries(terms)
        assert wigner_transform(weyl_quantize(series, mu=F(5, 3))) == series


class TestBinomialIntegralIdentity:
    # For V = a q + (b/2) q^2 the sigma-table row k resums to the k-th power
    # integral: sum_j sigma[k,j] b^(k-j) a^j u^(2k+1-j)
    #   = (2^(k+1)/k!) * integral_0^(u/2) (V(u/2) - V(s))^k ds.
    @staticmethod
    def _rhs(a, b, k):
        V = Potential.from_pairs([(1, a), (2, b / 2)])
        pk = toa_iterate_closed(V, 1, k)  # -(2k-1)!!/k! * integral
        dfac = 1
        for i in range(2 * k - 1, 0, -2):
            dfac *= i
        half = QPoly({d: c * F(1, 2) ** d for d, c in pk.coeffs.items()})
        return half * F(-(2 ** (k + 1)), dfac)

    @pytest.mark.parametrize("k", range(6))
    def test_identity_fixed_params(self, k):
        a, b = F(2, 3), F(1, 5)
        sigma = linear_sigma_table(k)
        lhs = QPoly(
            {2 * k + 1 - j: sigma[(k, j)] * b ** (k - j) * a**j for j in range(k + 1)}
        )
        assert lhs == self._rhs(a, b, k)

    @given(params, params)
    @settings(max_examples=30, deadline=None)
    def test_identity_random_params(self, a, b):
        for k in range(4):
            sigma = linear_sigma_table(k)
            lhs = QPoly(
                {2 * k + 1 - j: sigma[(k, j)] * b ** (k - j) * a**j for j in range(k + 1)}
            )
            assert lhs == self._rhs(a, b, k)


class TestStructuralProperties:
    def test_series_terms_are_odd_in_momentum(self):
        # every key (k, s) carries p^-(2k+1); evaluate() must be odd in p
        series = local_toa(HARMONIC, 1, 0, 5)
        assert series.evaluate(0.3, 1.1) == pytest.approx(-series.evaluate(0.3, -1.1))

    def test_wigner_keeps_rational_coefficients(self):
        K = solve_kernel_general(KernelRequest(Potential.from_pairs([(3, F(1, 7))]), 1, 4))
        for (_, _), poly in wigner_transform(K).items():
            for c in poly.coeffs.values():
                assert isinstance(c, F)

    def test_series_terms_trace_back_to_kernel_rows(self):
        # every series key (k, s) must name kernel entries with j = k at
        # the same grade; no other provenance is possible
        V = Potential.from_pairs([(4, F(1, 2))])
        K = solve_kernel_general(KernelRequest(V, 1, 6))
        assert set(wigner_transform(K).terms) <= {(j, s) for (_, j, s) in K.A}

    def test_classical_table_and_series_connect(self):
        # classical_term rows, pushed through the transform normalization,
        # are exactly the local arrival series coefficients
        V = Potential.from_pairs([(4, F(1, 3))])
        table = classical_term(V, 1, 4)
        series = local_toa(V, 1, 0, 4)
        for (m, j), c in table.items():
            coeff = -2 * F(2) ** (m - j) * (-1) ** j * math.factorial(2 * j) * c
            assert series.term(j, 0).coeff(m) == coeff
