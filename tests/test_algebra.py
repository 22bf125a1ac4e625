"""Exact-arithmetic substrate: rationals, polynomials, series containers."""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supratoa.algebra import (
    GradedKernel,
    MomentumSeries,
    QPoly,
    format_rational,
    parse_rational,
    poly_antideriv,
    poly_defint,
    poly_shift,
)
from supratoa.classical_toa import Potential
from supratoa.kernel_solver import KernelRequest, solve_kernel_general

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
polys = st.builds(
    QPoly,
    st.dictionaries(st.integers(min_value=0, max_value=8), rationals, max_size=5),
)


class TestRational:
    def test_parse_fraction_and_integer_forms(self):
        assert parse_rational("-3/4") == F(-3, 4)
        assert parse_rational("5") == F(5)
        assert parse_rational(" 7/2 ") == F(7, 2)

    def test_format_round_trip(self):
        for r in (F(-3, 4), F(5), F(0), F(22, 7)):
            assert parse_rational(format_rational(r)) == r

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")
        with pytest.raises(ValueError):
            parse_rational("1/0")

    @given(rationals, rationals, rationals)
    def test_field_laws_hold_exactly(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


class TestQPoly:
    def test_strips_zero_coefficients(self):
        p = QPoly({3: F(0), 1: F(2)})
        assert p.coeffs == {1: F(2)}
        assert QPoly({2: F(1)}) - QPoly({2: F(1)}) == QPoly.zero()

    def test_degree_conventions(self):
        assert QPoly.zero().degree() == -1
        assert QPoly({0: 3}).degree() == 0
        assert QPoly({4: 1, 1: 2}).degree() == 4

    def test_arithmetic_small_cases(self):
        p = QPoly({1: 1, 0: 1})  # q + 1
        assert p * p == QPoly({2: 1, 1: 2, 0: 1})
        assert p**3 == QPoly({3: 1, 2: 3, 1: 3, 0: 1})
        assert p.derivative() == QPoly.constant(1)

    def test_evaluation_exact_and_float(self):
        p = QPoly({2: F(1, 2), 0: 1})
        assert p(F(1, 3)) == F(19, 18)
        assert p(2.0) == pytest.approx(3.0)

    def test_shift_identity_and_binomial(self):
        assert poly_shift(QPoly({2: 1}), 0) == QPoly({2: 1})
        assert poly_shift(QPoly({2: 1}), 1) == QPoly({2: 1, 1: 2, 0: 1})

    def test_shift_quartic_hand_oracle(self):
        lam = F(3, 7)
        expected = QPoly(
            {4: lam, 3: 4 * lam * F(2), 2: 6 * lam * F(4), 1: 4 * lam * F(8), 0: lam * F(16)}
        )
        assert poly_shift(QPoly({4: lam}), 2) == expected

    @given(polys, rationals)
    @settings(max_examples=60)
    def test_shift_round_trips(self, p, x):
        assert poly_shift(poly_shift(p, x), -x) == p

    def test_antideriv_and_defint_basics(self):
        assert poly_defint(QPoly.constant(1), 0, 1) == 1
        assert poly_antideriv(QPoly({1: 1})) == QPoly({2: F(1, 2)})
        assert poly_defint(QPoly({2: 3}), 1, 2) == 7
        assert poly_antideriv(QPoly({1: 1})).coeff(0) == 0

    @given(polys, rationals, rationals, rationals)
    @settings(max_examples=60)
    def test_defint_is_additive_over_intervals(self, p, a, b, c):
        assert poly_defint(p, a, b) + poly_defint(p, b, c) == poly_defint(p, a, c)


class TestMomentumSeries:
    def test_rejects_bad_keys_and_drops_zero_polys(self):
        with pytest.raises(ValueError):
            MomentumSeries({(-1, 0): QPoly({1: 1})})
        assert MomentumSeries({(0, 0): QPoly.zero()}).is_zero()

    def test_term_access_and_restrict(self):
        series = MomentumSeries({(0, 0): QPoly({1: 1}), (1, 1): QPoly({2: 1})})
        assert series.term(0, 0) == QPoly({1: 1})
        assert series.term(5, 0) == QPoly.zero()
        assert series.restrict(lambda k, s: s == 0).terms == {(0, 0): QPoly({1: 1})}

    def test_evaluate_is_the_odd_p_partial_sum(self):
        series = MomentumSeries({(0, 0): QPoly({1: -1})})  # -q/p
        assert series.evaluate(2.0, 4.0) == pytest.approx(-0.5)
        assert series.evaluate(2.0, -4.0) == pytest.approx(0.5)


class TestGradedKernel:
    def test_index_validation(self):
        with pytest.raises(ValueError):
            GradedKernel({(0, 0, 0): F(1)}, 1, (1, 0))
        with pytest.raises(ValueError):
            GradedKernel({(1, 1, 1): F(1)}, 1, (3, 1))  # s must be <= j-1
        GradedKernel({(1, 2, 1): F(1)}, 1, (5, 2))

    def test_entry_default_and_slices(self):
        K = GradedKernel({(1, 0, 0): F(1, 4), (5, 2, 1): F(1, 3)}, 1, (5, 2))
        assert K.entry(1, 0, 0) == F(1, 4)
        assert K.entry(9, 9, 0) == 0
        assert K.s_slice(0) == {(1, 0): F(1, 4)}
        assert K.max_grade() == 1

    def test_replace_entry_returns_new_table(self):
        K = GradedKernel({(1, 0, 0): F(1, 4)}, 1, (1, 0))
        K2 = K.replace_entry(1, 0, 0, F(1, 2))
        assert K.entry(1, 0, 0) == F(1, 4)
        assert K2.entry(1, 0, 0) == F(1, 2)

    def test_replace_entry_is_seen_by_float_evaluation(self):
        K = GradedKernel({(1, 0, 0): F(1, 4)}, 1, (3, 1))
        assert K.tvalue(0.8, 0.3, 1.0) == pytest.approx(0.2)
        K2 = K.replace_entry(3, 1, 0, F(1, 6))
        assert K2.tvalue(0.8, 0.3, 1.0) == pytest.approx(0.2 + 0.5 * 0.8**3 * 0.3**2 / 6)
        assert K.tvalue(0.8, 0.3, 1.0) == pytest.approx(0.2)

    def test_array_evaluation_equals_scalar_calls(self):
        # the ladder sextic at J = 20: 4431 entries, denominators of hundreds
        # of bits, powers up to u^121 and v^40
        V = Potential.from_pairs([(2, F(1, 2)), (3, F(1, 3)), (6, F(1, 7))])
        K = solve_kernel_general(KernelRequest(V, 1, 20))
        rng = np.random.default_rng(5)
        q, qp = rng.uniform(-1.0, 1.0, 64), rng.uniform(-1.0, 1.0, 64)
        u, v = q + qp, q - qp
        for hbar in (1.0, 0.7):
            values = K.tvalue(u, v, hbar)
            assert values.tolist() == [K.tvalue(a, b, hbar) for a, b in zip(u.tolist(), v.tolist())]
        poly = QPoly({m: c for (m, j, s), c in K.A.items() if (j, s) == (10, 0)})
        for p in (V.poly, poly):
            assert p(u).tolist() == [p(a) for a in u.tolist()]

    def test_tvalue_free_kernel(self):
        K = GradedKernel({(1, 0, 0): F(1, 4)}, 1, (1, 0))
        assert K.tvalue(0.8, 0.3, 1.0) == pytest.approx(0.2)

    def test_empty_evaluations_keep_the_array_shape(self):
        nodes = np.linspace(-1.0, 1.0, 7)
        for q in (nodes, nodes.reshape(7, 1)):
            values = QPoly.zero()(q)
            assert isinstance(values, np.ndarray) and values.shape == q.shape
            assert not values.any()
        assert QPoly.zero()(0.5) == 0.0
        empty = GradedKernel({}, 1, (1, 0))
        values = empty.tvalue(nodes, 0.25, 1.0)
        assert isinstance(values, np.ndarray) and values.shape == nodes.shape
        assert not values.any()
        assert empty.tvalue(0.3, nodes.reshape(7, 1), 1.0).shape == (7, 1)
        assert empty.tvalue(0.8, 0.3, 1.0) == 0.0
