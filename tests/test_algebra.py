"""Exact-arithmetic substrate: rationals, polynomials, series containers."""

import functools
import math
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from supratoa.kernel_solver import KernelRequest, solve_kernel_at_hbar, solve_kernel_general, solve_kernel_harmonic

SEXTIC = Potential.from_pairs([(2, F(1, 2)), (3, F(1, 3)), (6, F(1, 7))])

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

    def test_format_takes_a_fraction_as_it_is(self, monkeypatch):
        cases = [F(-3, 4), F(5), F(0), F(22, 7), F(10**30 + 1, 3)]
        expected = ["-3/4", "5", "0", "22/7", f"{10**30 + 1}/3"]
        construct = vars(F)["__new__"].__func__
        made = [0]

        def counted(cls, *args, **kwargs):
            made[0] += 1
            return construct(cls, *args, **kwargs)

        monkeypatch.setattr(F, "__new__", staticmethod(counted))
        out = [format_rational(r) for r in cases]
        monkeypatch.undo()
        assert out == expected
        assert made[0] == 0
        assert format_rational(7) == "7"
        assert format_rational("-4/6") == "-2/3"

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

    @given(polys, st.floats(min_value=-1e3, max_value=1e3))
    @settings(max_examples=60)
    def test_float_point_is_the_term_loop(self, p, x):
        # the same IEEE operations in the same order as the loop over the
        # float terms with pow, and as one element of an array evaluation
        total = 0.0
        for d, c in p.coeffs.items():
            total += float(c) * pow(x, d)
        value = p(x)
        assert type(value) is float
        assert np.array(value).tobytes() == np.array(total).tobytes()
        assert np.array(value).tobytes() == p(np.array([x]))[0].tobytes()

    @given(
        st.integers(min_value=-(10**400), max_value=10**400).filter(bool),
        st.integers(min_value=1, max_value=10**400),
    )
    @example(10**400, 3)
    @example(-(10**309), 1)
    @example(1, 10**400)  # underflows to 0.0
    @example(2**1024 - 2**971, 1)  # the largest float
    @example(2**1024 - 2**970, 1)  # halfway above it, rounds to 2**1024: overflows
    @settings(max_examples=200)
    def test_float_terms_are_float_of_each_coefficient(self, num, den):
        # c.numerator / c.denominator is the division float(c) makes
        c = F(num, den)
        try:
            expected = float(c)
        except OverflowError as exc:
            with pytest.raises(OverflowError, match=f"^{re.escape(str(exc))}$"):
                QPoly({1: c})._floats()
        else:
            assert QPoly({1: c})._floats()[0][1].hex() == expected.hex()

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

    @staticmethod
    def binomial_shift(p, x):
        """Reference: the term-by-term binomial expansion in Fractions, and
        whether a partial sum cancelled (which moves its degree to the end)."""
        table, cancelled = {}, False
        for d, c in p.coeffs.items():
            term = c
            for i in range(d, -1, -1):
                acc = table.get(i, F(0)) + term
                if acc:
                    table[i] = acc
                else:
                    cancelled = True
                    table.pop(i, None)
                if i > 0:
                    term = term * x * i / (d - i + 1)
        return table, cancelled

    @given(polys, rationals)
    @example(QPoly(), F(3, 2))
    @example(QPoly({5: F(-2, 3), 0: 1}), F(0))
    @example(QPoly({1: F(1, 3), 4: F(-7, 2), 2: 5}), F(-5, 3))
    @settings(max_examples=100)
    def test_integer_shift_equals_binomial_expansion(self, p, x):
        shifted = poly_shift(p, x)
        expected, cancelled = self.binomial_shift(p, x)
        assert shifted.coeffs == expected
        assert all(type(c) is F and c for c in shifted.coeffs.values())
        if x and not cancelled:
            assert list(shifted.coeffs) == list(expected)

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
        assert K.A == {(1, 0, 0): F(1, 4), (5, 2, 1): F(1, 3)}
        assert K.s_slice(0) == {(1, 0): F(1, 4)}
        assert max(s for _, _, s in K.A) == 1

    def test_table_is_stored_as_layers_only(self):
        K = GradedKernel({(5, 1, 0): F(-2, 9), (1, 0, 0): F(1, 4), (3, 1, 0): F(1, 6), (2, 3, 2): 0}, 1, (5, 1))
        assert GradedKernel.__slots__ == ("layers", "mu", "truncation", "potential")
        # rows {m: {s: n}}, D_j the lcm of the layer's denominators, keys in the order given
        assert K.layers == [({1: {0: 1}}, 4), ({5: {0: -4}, 3: {0: 3}}, 18)]
        assert list(K.layers[1][0]) == [5, 3]
        assert K.A == {(1, 0, 0): F(1, 4), (5, 1, 0): F(-2, 9), (3, 1, 0): F(1, 6)}
        assert not any(hasattr(K, name) for name in ("tvalue", "dense_form", "_cells", "_A"))

    def test_replace_entry_returns_new_table(self):
        K = GradedKernel({(1, 0, 0): F(1, 4)}, 1, (1, 0))
        K2 = K.replace_entry(1, 0, 0, F(1, 2))
        assert K.A == {(1, 0, 0): F(1, 4)}
        assert K2.A == {(1, 0, 0): F(1, 2)}

    def test_replace_entry_is_seen_by_float_evaluation(self):
        K = GradedKernel({(1, 0, 0): F(1, 4)}, 1, (3, 1))
        assert K.cells(1.0).tvalue(0.8, 0.3) == pytest.approx(0.2)
        K2 = K.replace_entry(3, 1, 0, F(1, 6))
        assert K2.cells(1.0).tvalue(0.8, 0.3) == pytest.approx(0.2 + 0.5 * 0.8**3 * 0.3**2 / 6)
        assert K.cells(1.0).tvalue(0.8, 0.3) == pytest.approx(0.2)

    def test_array_evaluation_equals_scalar_calls(self):
        # the ladder sextic at J = 20: 4431 entries, denominators of hundreds
        # of bits, powers up to u^121 and v^40
        V = Potential.from_pairs([(2, F(1, 2)), (3, F(1, 3)), (6, F(1, 7))])
        K = solve_kernel_general(KernelRequest(V, 1, 20))
        rng = np.random.default_rng(5)
        q, qp = rng.uniform(-1.0, 1.0, 64), rng.uniform(-1.0, 1.0, 64)
        u, v = q + qp, q - qp
        for hbar in (1.0, 0.7):
            T = K.cells(hbar)
            values = T.tvalue(u, v)
            assert values.tolist() == [T.tvalue(a, b) for a, b in zip(u.tolist(), v.tolist())]
        poly = QPoly({m: c for (m, j, s), c in K.A.items() if (j, s) == (10, 0)})
        for p in (V.poly, poly):
            assert p(u).tolist() == [p(a) for a in u.tolist()]

    def test_tvalue_free_kernel(self):
        K = GradedKernel({(1, 0, 0): F(1, 4)}, 1, (1, 0))
        assert K.cells(1.0).tvalue(0.8, 0.3) == pytest.approx(0.2)

    def test_empty_evaluations_keep_the_array_shape(self):
        nodes = np.linspace(-1.0, 1.0, 7)
        for q in (nodes, nodes.reshape(7, 1)):
            values = QPoly.zero()(q)
            assert isinstance(values, np.ndarray) and values.shape == q.shape
            assert not values.any()
        assert QPoly.zero()(0.5) == 0.0
        empty = GradedKernel({}, 1, (1, 0)).cells(1.0)
        values = empty.tvalue(nodes, 0.25)
        assert isinstance(values, np.ndarray) and values.shape == nodes.shape
        assert not values.any()
        assert empty.tvalue(0.3, nodes.reshape(7, 1)).shape == (7, 1)
        assert empty.tvalue(0.8, 0.3) == 0.0


_EXACT_ROWS = {}


def exact_rows(K, hbar, absolute):
    """Integer numerators N[m][j] over one denominator D of sum_s A w^(j-s).

    w = mu / 2 hbar^2 with hbar taken as the rational the float is; with
    absolute=True the sum is of |A| w^(j-s). Kept per table, hbar and kind.
    """
    key = (id(K), hbar, absolute)
    if key not in _EXACT_ROWS:
        _EXACT_ROWS[key] = _exact_rows(K, hbar, absolute)
    return _EXACT_ROWS[key]


def _exact_rows(K, hbar, absolute):
    w = F(K.mu) / (2 * F(hbar) ** 2)
    mmax = max(m for m, _, _ in K.A)
    jmax = max(j for _, j, _ in K.A)
    dense = {}
    for (m, j, s), c in K.A.items():
        term = c * w ** (j - s)
        dense[m, j] = dense.get((m, j), 0) + (abs(term) if absolute else term)
    den = math.lcm(*(F(c).denominator for c in dense.values()))
    rows = [[int(dense.get((m, j), 0) * den) for j in range(jmax + 1)] for m in range(mmax + 1)]
    return rows, den


def exact_t(K, u, v, hbar, absolute=False):
    """T(u, v) of the table in exact rational arithmetic, at float u, v and hbar.

    With absolute=True it is sum over entries |A| w^(j-s) |u|^m v^(2j)
    instead. Horner's scheme on integers: u = a / e and z = v^2 = b / f with
    e and f powers of two, and the table over one denominator.
    """
    rows, den = exact_rows(K, hbar, absolute)
    mmax, jmax = len(rows) - 1, len(rows[0]) - 1
    a, e = F(abs(u) if absolute else u).as_integer_ratio()
    b, f = (F(v) ** 2).as_integer_ratio()
    total = 0
    for m in range(mmax, -1, -1):
        row = 0
        for j in range(jmax, -1, -1):
            row = row * b + rows[m][j] * f ** (jmax - j)
        total = total * a + row * e ** (mmax - m)
    return F(total, den * e**mmax * f**jmax)


# the rounding model leaves out underflow, so no tiny nonzero points
points = st.floats(-2.0, 2.0).filter(lambda x: x == 0 or abs(x) > 1e-100)

ROUNDING_TABLES = {
    "sextic-j20": solve_kernel_general(KernelRequest(SEXTIC, 1, 20)),
    "quartic-j8": solve_kernel_general(KernelRequest(Potential.from_pairs([(4, 1)]), 1, 8)),
    "harmonic-j10": solve_kernel_harmonic(1, 10),
    "free": solve_kernel_general(KernelRequest(Potential.free(), F(3, 2), 4)),
}

# the requests that solve the same tables at one hbar
AT_HBAR_REQUESTS = {
    "sextic-j20": KernelRequest(SEXTIC, 1, 20),
    "quartic-j8": KernelRequest(Potential.from_pairs([(4, 1)]), 1, 8),
    "harmonic-j10": KernelRequest(Potential.from_pairs([(2, F(1, 2))]), 1, 10),
    "free": KernelRequest(Potential.free(), F(3, 2), 4),
}


@functools.cache
def collapsed(name, hbar):
    return ROUNDING_TABLES[name].cells(hbar)


@functools.cache
def at_hbar(name, hbar):
    cells = solve_kernel_at_hbar(AT_HBAR_REQUESTS[name], hbar)
    assert cells == collapsed(name, hbar)
    return cells


def within_horner_bound(K, T, u, v, hbar):
    """|T(u, v) - exact| of the float tvalue of the cells T at hbar, against
    gamma_n times the absolute sum of the table K, n = 8 J + 2 M + 3."""
    mmax = max(m for m, _, _ in K.A)
    jmax = max(j for _, j, _ in K.A)
    n = 8 * jmax + 2 * mmax + 3
    eps = F(1, 2**53)
    gamma = n * eps / (1 - n * eps)
    error = abs(F(T.tvalue(u, v)) - exact_t(K, u, v, hbar))
    return error <= gamma * exact_t(K, u, v, hbar, absolute=True)


class TestHornerRoundingBound:
    """tvalue against exact rationals, within Horner's forward error bound."""

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    @pytest.mark.parametrize("name", list(ROUNDING_TABLES))
    @given(u=points, v=points)
    @settings(max_examples=25, deadline=None)
    def test_error_within_bound(self, name, hbar, u, v):
        assert within_horner_bound(ROUNDING_TABLES[name], collapsed(name, hbar), u, v, hbar)

    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    @pytest.mark.parametrize("name", list(ROUNDING_TABLES))
    @given(u=points, v=points)
    @settings(max_examples=25, deadline=None)
    def test_at_hbar_error_within_bound(self, name, hbar, u, v):
        # the cells solved at hbar, against the same exact sum and n
        assert within_horner_bound(ROUNDING_TABLES[name], at_hbar(name, hbar), u, v, hbar)

    def test_exact_helper_matches_direct_sum(self):
        K = ROUNDING_TABLES["quartic-j8"]
        u, v, hbar = 0.375, -1.25, 0.7
        w = F(K.mu) / (2 * F(hbar) ** 2)
        direct = sum(c * w ** (j - s) * F(u) ** m * F(v) ** (2 * j) for (m, j, s), c in K.A.items())
        assert exact_t(K, u, v, hbar) == direct
        assert exact_t(K, -u, v, hbar, absolute=True) == sum(
            abs(c) * w ** (j - s) * F(u) ** m * F(v) ** (2 * j) for (m, j, s), c in K.A.items()
        )

    def test_dense_form_collapses_grades(self):
        K = GradedKernel({(1, 0, 0): F(1, 4), (3, 2, 0): F(1, 3), (3, 2, 1): F(-1, 5)}, 2, (3, 2))
        dense = K.cells(0.5).dense_form()  # w = mu / 2 hbar^2 = 4
        assert dense.shape == (4, 3)
        assert dense[1, 0] == 0.25
        assert dense[3, 2] == pytest.approx(16 / 3 - 4 / 5, rel=1e-15)
        assert np.count_nonzero(dense) == 2
        assert GradedKernel({}, 1, (1, 0)).cells(1.0).dense_form().shape == (1, 1)
