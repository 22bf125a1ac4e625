"""Classical arrival-time series: iterates, dual routes, quadrature oracle."""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
import hypothesis
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supratoa import arrival, classical_toa
from supratoa.algebra import QPoly, poly_antideriv
from supratoa.classical_toa import (
    _ACCESS_MARGIN,
    PhasePoint,
    Potential,
    _interval,
    convergence_margin,
    local_toa,
    local_toa_value,
    series_tail_bound,
    shift_arrival,
    toa_iterate_closed,
    toa_iterate_liouville,
    toa_quadrature,
)
from supratoa.errors import NotAccessible, QuadratureFailure, ZeroMomentum

HARMONIC = Potential.from_pairs([(2, F(1, 2))])  # mass 1, unit frequency
ARCTAN_02 = 0.19739555984988078  # atan(1/5)

params = st.fractions(min_value=-2, max_value=2, max_denominator=8)
nonzero_params = params.filter(bool)


def family_potentials(a, b, lam):
    return [
        Potential.free(),
        Potential.from_pairs([(1, a)]),
        Potential.from_pairs([(2, b)]),
        Potential.from_pairs([(1, a), (2, b)]),
        Potential.from_pairs([(3, lam)]),
        Potential.from_pairs([(4, lam)]),
    ]


class TestIterates:
    def test_zeroth_iterate_is_free_flight(self):
        V = Potential.from_pairs([(4, 3)])
        assert toa_iterate_closed(V, 1, 0) == QPoly({1: -1})
        assert toa_iterate_closed(V, 2, 0, x=F(1, 4)) == QPoly({1: -2, 0: F(1, 2)})

    def test_harmonic_first_iterates(self):
        assert toa_iterate_closed(HARMONIC, 1, 1) == QPoly({3: F(-1, 3)})
        assert toa_iterate_closed(HARMONIC, 1, 2) == QPoly({5: F(-1, 5)})

    def test_linear_first_iterate(self):
        a = F(5, 3)
        V = Potential.from_pairs([(1, a)])
        mu = F(3, 2)
        assert toa_iterate_closed(V, mu, 1) == QPoly({2: -a * mu**2 / 2})

    def test_quartic_first_iterate(self):
        lam = F(2, 7)
        V = Potential.from_pairs([(4, lam)])
        mu = F(3)
        assert toa_iterate_closed(V, mu, 1) == QPoly({5: -F(4, 5) * lam * mu**2})

    def test_free_iterates_vanish_beyond_zeroth(self):
        for k in range(1, 6):
            assert toa_iterate_closed(Potential.free(), 1, k).is_zero()

    def test_constant_offset_is_inert(self):
        V = Potential.from_pairs([(2, F(1, 2))])
        Vc = Potential.from_pairs([(2, F(1, 2)), (0, F(9, 4))])
        for k in range(5):
            assert toa_iterate_closed(V, 1, k) == toa_iterate_closed(Vc, 1, k)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            toa_iterate_closed(HARMONIC, 1, -1)
        with pytest.raises(ValueError):
            toa_iterate_liouville(HARMONIC, 1, -1)

    @given(params, params, params, params, st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_both_routes_agree(self, a, b, lam, x, k):
        for V in family_potentials(a, b, lam):
            closed = toa_iterate_closed(V, F(3, 2), k, x=x)
            stepped = toa_iterate_liouville(V, F(3, 2), k, x=x)
            assert closed == stepped


class TestLocalSeries:
    def test_harmonic_series_is_arctan_expansion(self):
        series = local_toa(HARMONIC, 1, 0, 6)
        for k in range(7):
            sign = -1 if k % 2 == 0 else 1
            assert series.term(k, 0) == QPoly({2 * k + 1: F(sign, 2 * k + 1)})

    def test_free_series_is_single_term(self):
        series = local_toa(Potential.free(), 1, 0, 8)
        assert series.terms == {(0, 0): QPoly({1: -1})}

    def test_all_terms_sit_at_grade_zero(self):
        series = local_toa(Potential.from_pairs([(4, F(1, 3))]), 2, F(1, 2), 5)
        assert series.max_s() == 0
        assert series.max_k() == 5

    def test_terms_alternate_against_iterates(self):
        V = Potential.from_pairs([(3, F(1, 5))])
        series = local_toa(V, 1, 0, 4)
        for k in range(5):
            assert series.term(k, 0) == toa_iterate_closed(V, 1, k) * (-1) ** k


# The QPoly-arithmetic iteration that the integer route replaced, kept as its
# reference: local_toa must give == terms, with the keys and each
# polynomial's coefficients in the same order (float sums over a
# polynomial's terms follow that order).
def qpoly_liouville_iterates(V, mu, x):
    vprime = V.poly.derivative()
    current = QPoly({1: -mu}) + QPoly.constant(mu * x)
    k = 0
    while True:
        yield current
        k += 1
        anti = poly_antideriv(vprime * current)
        integral = anti - QPoly.constant(anti(x))
        current = integral * (F(2 * k - 1) * mu)


def qpoly_local_toa(V, mu, x, K):
    terms = {}
    for k, current in zip(range(K + 1), qpoly_liouville_iterates(V, F(mu), F(x))):
        if current:
            terms[(k, 0)] = current * (-1) ** k
    return terms


def assert_same_terms(series, reference):
    assert list(series.terms) == list(reference)
    for key, poly in reference.items():
        coeffs = series.terms[key].coeffs
        assert list(coeffs.items()) == list(poly.coeffs.items())
        assert all(type(c) is F and c != 0 for c in coeffs.values())


class TestIntegerIterates:
    @given(
        st.dictionaries(st.integers(min_value=0, max_value=7), params, max_size=5),
        params,
        params,
        st.integers(min_value=0, max_value=8),
    )
    @example({}, F(3, 2), F(1, 3), 4)  # free particle
    @example({0: F(5, 3)}, F(1, 2), F(-2), 3)  # constant only
    @example({4: F(1, 3), 1: F(-1, 2)}, F(2), F(3, 4), 0)  # K = 0
    @example({2: F(1), 1: F(-2)}, F(1), F(-1), 3)  # V' P_0 = -2 (q^2 - 1): the q term cancels
    @example({4: F(3), 2: F(2, 3), 1: F(-1)}, F(1), F(-1, 2), 4)  # a cancelled degree comes back
    @settings(max_examples=60, deadline=None)
    def test_equals_qpoly_iteration(self, coeffs, mu, x, K):
        V = Potential.from_pairs(coeffs.items())
        reference = qpoly_local_toa(V, mu, x, K)
        assert_same_terms(local_toa(V, mu, x, K), reference)
        last = toa_iterate_liouville(V, mu, K, x=x)
        expected = next(itertools.islice(qpoly_liouville_iterates(V, F(mu), F(x)), K, None))
        assert list(last.coeffs.items()) == list(expected.coeffs.items())

    def test_zero_mass_gives_empty_series(self):
        for V in (HARMONIC, Potential.from_pairs([(4, 1), (1, F(1, 2))])):
            for x in (0, F(1, 2)):
                assert local_toa(V, 0, x, 6).terms == {}
                assert toa_iterate_liouville(V, 0, 3, x=x).coeffs == {}

    def test_no_zero_is_stored(self):
        # V' = q - 1/2 and x = 3/2: int_x^q V' P_0 vanishes at q = 0, so P_1
        # has no constant term
        V = Potential.from_pairs([(2, F(1, 2)), (1, F(-1, 2))])
        P1 = toa_iterate_liouville(V, 1, 1, x=F(3, 2))
        assert list(P1.coeffs.items()) == [(3, F(-1, 3)), (2, F(1)), (1, F(-3, 4))]
        assert list(local_toa(V, 1, F(3, 2), 1).term(1, 0).coeffs) == [3, 2, 1]
        # V' = 2 (q - 1) against P_0 = -(q + 1): the q term of the product
        # cancels, so P_1 has no q^2 term
        V = Potential.from_pairs([(2, 1), (1, -2)])
        assert list(toa_iterate_liouville(V, 1, 1, x=-1).coeffs) == [3, 1, 0]

    def test_one_fraction_per_coefficient(self, monkeypatch):
        # a work count: the QPoly route made 5,316 Fractions for these 260 coefficients
        construct = vars(classical_toa.Fraction)["__new__"].__func__
        made = [0]

        def counted(cls, *args, **kwargs):
            made[0] += 1
            return construct(cls, *args, **kwargs)

        V = Potential.from_pairs([(2, F(1, 3)), (4, F(-1, 7))])
        monkeypatch.setattr(classical_toa.Fraction, "__new__", staticmethod(counted))
        series = local_toa(V, 1, F(1, 10), 12)
        monkeypatch.undo()
        coefficients = sum(len(poly.coeffs) for poly in series.terms.values())
        assert coefficients == 260
        assert made[0] <= coefficients + 4


def float_bits(f, *args):
    """f(*args) as float.hex, which tells -0.0 from 0.0, or the OverflowError it raises."""
    try:
        return f(*args).hex()
    except OverflowError:
        return OverflowError


class TestLocalSeriesValue:
    """The toa command's series sum, straight from the integer iterates."""

    @given(
        st.dictionaries(st.integers(min_value=0, max_value=6), params, max_size=5),
        params,
        params,
        st.integers(min_value=0, max_value=14),
        st.one_of(st.floats(-4, 4), st.sampled_from([1e160, -1e200])),
        st.one_of(st.floats(-3, 3), st.sampled_from([1e-170, -1e150, 1e300])).filter(bool),
    )
    @example({}, F(3, 2), F(1, 3), 9, 0.7, -0.4)  # free particle: every iterate after the first is zero
    @example({4: F(1)}, F(0), F(1, 2), 5, 0.3, 1.0)  # mu = 0: every iterate is zero
    @example({2: F(1, 2), 3: F(1, 3), 6: F(1, 7)}, F(2), F(1, 3), 14, 0.2, 1.3)
    @example({2: F(1, 2)}, F(1), F(0), 12, 0.2, 1e-17)  # p^-(2k+1) beyond the float range
    @settings(max_examples=80, deadline=None)
    def test_equals_evaluate_bit_for_bit(self, coeffs, mu, x, K, q, p):
        V = Potential.from_pairs(coeffs.items())
        expected = float_bits(local_toa(V, mu, x, K).evaluate, q, p)
        assert float_bits(local_toa_value, V, mu, x, K, q, p) == expected

    def test_refuses_what_evaluate_refuses(self):
        with pytest.raises(ZeroDivisionError):
            local_toa_value(HARMONIC, 1, 0, 4, 0.2, 0.0)
        with pytest.raises(ValueError, match="series order must be >= 0"):
            local_toa_value(HARMONIC, 1, 0, -1, 0.2, 1.0)


class TestQuadrature:
    def test_free_particle_value(self):
        t = toa_quadrature(Potential.free(), PhasePoint(1.0, 1.0))
        assert t == pytest.approx(-1.0, abs=1e-12)

    def test_harmonic_matches_arctan(self):
        t = toa_quadrature(HARMONIC, PhasePoint(0.2, 1.0))
        assert t == pytest.approx(-ARCTAN_02, abs=1e-12)

    def test_negative_momentum_flips_sign(self):
        t = toa_quadrature(HARMONIC, PhasePoint(0.2, -1.0))
        assert t == pytest.approx(ARCTAN_02, abs=1e-12)

    def test_time_reversal_parity(self):
        a = toa_quadrature(HARMONIC, PhasePoint(0.35, 1.3))
        b = toa_quadrature(HARMONIC, PhasePoint(-0.35, -1.3))
        assert a == pytest.approx(b, abs=1e-12)

    def test_arrival_at_start_is_zero(self):
        assert toa_quadrature(HARMONIC, PhasePoint(0.7, 2.0, x=0.7)) == 0.0

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            toa_quadrature(HARMONIC, PhasePoint(0.2, 1.0), tol)
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            arrival.arrival_times(HARMONIC, [PhasePoint(0.2, 1.0)], tol)

    def test_zero_momentum_rejected(self):
        with pytest.raises(ZeroMomentum):
            toa_quadrature(HARMONIC, PhasePoint(0.2, 0.0))
        with pytest.raises(ZeroMomentum):
            series_tail_bound(0.1, 1.0, 0.2, 0.0, 0.0, 12)

    def test_classically_forbidden_region_rejected(self):
        V = Potential.from_pairs([(1, 1)])
        with pytest.raises(NotAccessible):
            toa_quadrature(V, PhasePoint(0.0, 1.0, x=3.0))

    def test_barrier_between_scan_points_rejected(self):
        # the barrier peak at q = 8193/16384 is a root of V'; H sits 1e-3
        # below it, a forbidden zone 6.3e-5 wide that only the critical
        # point sees before the quadrature
        V = Potential.from_pairs([(2, -(10**6)), (1, F(2 * 10**6 * 8193, 16384))])
        p = math.sqrt(2 * (V.value(8193 / 16384) - 1e-3 - V.value(1.0)))
        with pytest.raises(NotAccessible):
            toa_quadrature(V, PhasePoint(1.0, p))

    @pytest.mark.parametrize("s, peak", [(1, "8193/16384"), (10, "1/3"), (1000, "2/7")])
    @pytest.mark.parametrize("band", [0.5, 0.9])
    def test_margin_band_is_not_accessible(self, s, peak, band):
        # H above the peak of V = -s q^2 + 2 s peak q by a share of the
        # margin: positive, yet not accessible by definition
        peak = F(peak)
        V = Potential.from_pairs([(2, -s), (1, 2 * s * peak)])
        top = s * peak * peak
        margin = _ACCESS_MARGIN * max(1.0, float(top))
        p = math.sqrt(2 * (float(top - V.value(F(1))) + band * margin))
        with pytest.raises(NotAccessible, match=r"^H - V = .* at q' = "):
            toa_quadrature(V, PhasePoint(1.0, p))

    def test_mass_scaling(self):
        light = toa_quadrature(Potential.free(), PhasePoint(1.0, 1.0, mu=1.0))
        heavy = toa_quadrature(Potential.free(), PhasePoint(1.0, 1.0, mu=4.0))
        assert heavy == pytest.approx(4.0 * light, rel=1e-12)


class TestSeriesVsQuadrature:
    def test_margin_oracle(self):
        ratio, ok = convergence_margin(HARMONIC, 1.0, 0.2, 0.0, 1.0)
        assert ratio == pytest.approx(0.02, abs=1e-12)
        assert ok

    def test_margin_flags_divergence(self):
        ratio, ok = convergence_margin(HARMONIC, 1.0, 2.0, 0.0, 0.5)
        assert ratio > 0.5
        assert not ok

    def test_tail_bound_oracle(self):
        ratio, _ = convergence_margin(HARMONIC, 1.0, 0.2, 0.0, 1.0)
        bound = series_tail_bound(ratio, 1.0, 0.2, 0.0, 1.0, 12)
        expected = 0.2 * 0.04**13 / 0.96
        assert bound == pytest.approx(expected, rel=1e-12)
        ratio, _ = convergence_margin(HARMONIC, 1.0, 2.0, 0.0, 0.5)
        assert series_tail_bound(ratio, 1.0, 2.0, 0.0, 0.5, 12) == math.inf

    @pytest.mark.parametrize(
        "V,q,p",
        [
            (HARMONIC, 0.2, 1.0),
            (HARMONIC, 0.4, 1.6),
            (Potential.from_pairs([(1, F(1, 2))]), 0.3, 1.2),
            (Potential.from_pairs([(4, F(1, 4))]), 0.5, 1.5),
            (Potential.from_pairs([(3, F(1, 3)), (1, F(-1, 5))]), 0.3, 1.4),
        ],
    )
    def test_partial_sum_matches_quadrature(self, V, q, p):
        ratio, ok = convergence_margin(V, 1.0, q, 0.0, p)
        assert ok, f"test point not in the convergent regime (ratio={ratio})"
        series = local_toa(V, 1, 0, 12)
        exact = toa_quadrature(V, PhasePoint(q, p), tol=1e-12)
        bound = series_tail_bound(ratio, 1.0, q, 0.0, p, 12)
        assert abs(series.evaluate(q, p) - exact) <= bound + 1e-9


class TestShiftArrival:
    def test_harmonic_shift(self):
        shifted = shift_arrival(HARMONIC, F(1, 2))
        assert shifted.poly == QPoly({2: F(1, 2), 1: F(1, 2), 0: F(1, 8)})

    def test_zero_shift_is_identity(self):
        V = Potential.from_pairs([(3, F(2, 5)), (1, 1)])
        assert shift_arrival(V, 0).poly == V.poly

    @given(params, params, params, params)
    @settings(max_examples=40, deadline=None)
    def test_shifted_iterates_relate_by_translation(self, a, b, lam, x):
        from supratoa.algebra import poly_shift

        for V in family_potentials(a, b, lam):
            direct = toa_iterate_closed(V, 1, 2, x=x)
            via_shift = toa_iterate_closed(shift_arrival(V, x), 1, 2, x=0)
            assert poly_shift(direct, x) == via_shift


# An mpmath oracle for the critical-point definition. The real roots of V'
# come from its square-free part, V' / gcd(V', V''), reduced exactly, so a
# multiple root is a simple one for polyroots and real roots are told from
# complex ones by their imaginary part at 50 digits.
def _exact_divmod(num, den):
    """Quotient and remainder of dense Fraction polynomials, highest degree first."""
    num, quot = list(num), []
    while len(num) >= len(den):
        factor = num[0] / den[0]
        quot.append(factor)
        num = [a - factor * b for a, b in zip(num, den + [0] * (len(num) - len(den)))][1:]
    return quot, num


def _trim(poly):
    while poly and poly[0] == 0:
        poly = poly[1:]
    return poly


def _dense(poly):
    return [poly.coeff(d) for d in range(poly.degree(), -1, -1)]


def exact_real_critical_points(V, lo, hi, mpmath):
    """Real roots of V' inside (lo, hi), as mpf at 50 digits."""
    vp = V.poly.derivative()
    if vp.degree() < 1 or lo == hi:
        return []
    dense = _dense(vp)
    a, b = dense, _dense(vp.derivative())
    while b:
        a, b = b, _trim(_exact_divmod(a, b)[1])
    square_free = _exact_divmod(dense, a)[0]
    if len(square_free) < 2:
        return []
    with mpmath.workdps(50):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in square_free]
        roots = mpmath.polyroots(coeffs, maxsteps=500, extraprec=100) if len(coeffs) > 2 else [-coeffs[1] / coeffs[0]]
        return [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** -30 and lo < mpmath.re(r) < hi]


def oracle(V, q, x, p, mu, mpmath):
    """(accessible, ratio, gap - margin over max(1, |H|)) by the critical-point definition."""
    lo, hi = _interval(x, q)
    with mpmath.workdps(50):

        def value(t):
            return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * t**d for d, c in V.poly.coeffs.items())

        points = [mpmath.mpf(x), mpmath.mpf(q), *exact_real_critical_points(V, lo, hi, mpmath)]
        energy = mpmath.mpf(p) ** 2 / (2 * mpmath.mpf(mu)) + value(mpmath.mpf(q))
        scale = max(1, abs(energy))
        gap = min(energy - value(c) for c in points)
        ratio = mu * max(abs(value(mpmath.mpf(q)) - value(c)) for c in points) / mpmath.mpf(p) ** 2
        return bool(gap > _ACCESS_MARGIN * scale), float(ratio), float((gap - _ACCESS_MARGIN * scale) / scale)


def check_against_oracle(V, q, x, p, mu=1.0):
    """Assert the verdict and the ratio; False when the draw is too close to the margin to judge."""
    mpmath = pytest.importorskip("mpmath")
    accessible, ratio, distance = oracle(V, q, x, p, mu, mpmath)
    if abs(distance) <= 1e-9:
        return False
    assert convergence_margin(V, mu, q, x, p)[0] == pytest.approx(ratio, rel=1e-9, abs=0)
    try:
        toa_quadrature(V, PhasePoint(q, p, x=x, mu=mu))
    except NotAccessible:
        assert not accessible
    except QuadratureFailure:  # reached, but short of its tolerance near a peak
        assert accessible
    else:
        assert accessible
    return True


def cubed_derivative(c, power):
    """V with V' = (q - c)^power."""
    return Potential(poly_antideriv(QPoly({1: 1, 0: -c}) ** power))


class TestArrayScans:
    """Accessibility and the convergence ratio against the mpmath oracle, on
    random potentials, dyadic critical points and fixed low-degree cases."""

    @given(
        st.dictionaries(st.integers(min_value=0, max_value=7), params, max_size=5),
        params,
        params,
        nonzero_params,
        st.sampled_from([1.0, 0.5, 2.0]),
    )
    @example({}, F(1), F(-1), F(1, 2), 1.0)  # free
    @example({1: F(3, 2)}, F(-1), F(2), F(3, 2), 1.0)  # linear, blocked
    @example({3: F(1, 3), 2: F(-1), 1: F(1)}, F(2), F(-1), F(3, 8), 1.0)  # V' = (q - 1)^2
    @example({4: F(1, 4), 3: F(-1), 2: F(3, 2), 1: F(-1)}, F(2), F(-1, 2), F(1, 8), 1.0)  # V' = (q - 1)^3
    @settings(max_examples=80, deadline=None)
    def test_matches_mpmath_oracle(self, coeffs, q, x, p, mu):
        V = Potential.from_pairs(coeffs.items())
        hypothesis.assume(check_against_oracle(V, float(q), float(x), float(p), mu))

    @pytest.mark.parametrize("power", [2, 3])
    @pytest.mark.parametrize("c", [F(1, 3), F(-5, 7), F(0)])
    @pytest.mark.parametrize("p", [0.05, 0.5, 3.0])
    def test_multiple_roots_of_the_derivative(self, c, power, p):
        V = cubed_derivative(c, power)
        for q, x in [(1.0, -1.0), (-1.0, 1.0), (float(c), 1.0), (0.9, float(c) - 0.4)]:
            assert check_against_oracle(V, q, x, p)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k", [-2048, -2047, -1, 0, 1, 777, 2047, 2048])
    def test_derivative_zero_on_a_grid_point(self, k, sign):
        # V' = 2 sign (q - c) vanishes at the dyadic c = k / 2048 of [-1, 1];
        # k = +-2048 puts it on an end
        c = F(k, 2048)
        V = Potential.from_pairs([(2, sign), (1, -2 * sign * c), (0, sign * c * c)])
        assert V.critical_points.tolist() == [float(c)]
        assert check_against_oracle(V, 1.0, -1.0, 3.0)
        assert check_against_oracle(V, -1.0, 1.0, -3.0)

    @pytest.mark.parametrize(
        "V", [Potential.free(), Potential.from_pairs([(1, F(3, 4))]), HARMONIC], ids=["free", "linear", "harmonic"]
    )
    @pytest.mark.parametrize("q, x", [(0.6, 0.6), (0.6, -0.3), (-0.5, 0.25)])
    def test_fixed_cases(self, V, q, x):
        assert check_against_oracle(V, q, x, 1.3)
        assert check_against_oracle(V, q, x, 0.2)

    def test_blocked_point_message(self):
        V = Potential.from_pairs([(1, 1)])
        with pytest.raises(NotAccessible) as exc:
            toa_quadrature(V, PhasePoint(0.0, 1.0, x=3.0))
        assert str(exc.value) == "H - V = -2.5 <= 1e-12 at q' = 3"


def mp_arrival_time(V, q, x, p, mu=1.0):
    """-sgn(p) sqrt(mu/2) integral_x^q dq'/sqrt(H - V) at 30 digits, H from the float q and p.

    The breakpoints are x, q and the real critical points of V between them,
    so every nearly singular point of the integrand is an end of a
    tanh-sinh panel.
    """
    mpmath = pytest.importorskip("mpmath")
    lo, hi = _interval(x, q)
    with mpmath.workdps(30):

        def value(t):
            return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * t**d for d, c in V.poly.coeffs.items())

        energy = mpmath.mpf(p) ** 2 / (2 * mpmath.mpf(mu)) + value(mpmath.mpf(q))
        breaks = sorted({mpmath.mpf(lo), mpmath.mpf(hi), *exact_real_critical_points(V, lo, hi, mpmath)})
        integral = mpmath.quad(lambda t: 1 / mpmath.sqrt(energy - value(t)), breaks)
        sign = 1 if q > x else -1
        return float(-mpmath.sign(p) * mpmath.sqrt(mpmath.mpf(mu) / 2) * sign * integral)


def assert_oracle_time(V, q, x, p, mu=1.0, tol=1e-10):
    """toa_quadrature within max(1e3 tol, 1e-9 |t|) of the 30-digit value."""
    ref = mp_arrival_time(V, q, x, p, mu)
    got = toa_quadrature(V, PhasePoint(q, p, x=x, mu=mu), tol)
    assert abs(got - ref) <= max(1e3 * tol, 1e-9 * abs(ref)), (got, ref)
    return got, ref


class TestQuadratureOracle:
    """Nearly singular integrands against mpmath: H just above a barrier
    peak, a gap that closes at the x or q end, and a sextic whose interior
    critical points are panel ends."""

    @pytest.mark.parametrize("a, b", [(F(1), F(1, 4)), (F(3, 2), F(1, 3)), (F(4), F(1, 8))])
    @pytest.mark.parametrize("f", [1, 4, 16])
    def test_above_a_barrier_peak(self, a, b, f):
        # V = a q^2 - b q^4 peaks at q* = sqrt(a / 2b) with V'' = -4a; H sits
        # above the peak by |V''| / 2 (f h)^2, h = q / 4096, for q past q*
        V = Potential.from_pairs([(2, a), (4, -b)])
        q_star = math.sqrt(float(a) / (2 * float(b)))
        q = 1.2 * q_star
        energy = float(a * a / (4 * b)) + 2 * float(a) * (f * q / 4096) ** 2
        p = math.sqrt(2 * (energy - V.value(q)))
        assert_oracle_time(V, q, 0.0, p)
        assert_oracle_time(V, -q, 0.0, -p)

    @pytest.mark.parametrize("gap", [1e-4, 1e-8, 1e-11])
    @pytest.mark.parametrize(
        "V, q, x",
        [(HARMONIC, 0.1, 0.8), (HARMONIC, -0.3, -1.1), (Potential.from_pairs([(1, F(3, 4))]), -0.2, 0.9)],
        ids=["harmonic", "harmonic-left", "linear"],
    )
    def test_x_barely_reachable(self, V, q, x, gap):
        # H - V(x) = gap: the integrand peaks at the x end
        p = math.sqrt(2 * (V.value(x) - V.value(q) + gap))
        assert_oracle_time(V, q, x, p)

    @pytest.mark.parametrize("p", [1e-3, 1e-5])
    def test_slow_start_at_q(self, p):
        # H - V(q) = p^2 / 2: the integrand peaks at the q end
        assert_oracle_time(Potential.from_pairs([(1, F(3, 4))]), 0.6, -0.4, -p)
        assert_oracle_time(HARMONIC, -0.5, 0.3, p)

    # V' = q (q^2 - 1)(q^2 - 4): peaks at +-1 (V = 11/12), valleys at 0 and +-2
    SEXTIC = Potential.from_pairs([(6, F(1, 6)), (4, F(-5, 4)), (2, F(2))])

    @pytest.mark.parametrize("gap", [1.0, 1e-3, 1e-7, 1e-10])
    @pytest.mark.parametrize("q, x", [(1.5, -1.5), (-2.3, 2.2), (0.5, 1.9)])
    @pytest.mark.parametrize("mu", [1.0, 2.0])
    def test_sextic_with_interior_critical_points(self, q, x, gap, mu):
        # H = 11/12 + gap, above both peaks; float H - V loses the gap below
        # about 1e-7, where only V's exact expansion at the peaks keeps it
        p = math.sqrt(2 * mu * (float(F(11, 12)) + gap - self.SEXTIC.value(q)))
        assert_oracle_time(self.SEXTIC, q, x, p, mu)
        assert_oracle_time(self.SEXTIC, q, x, -p, mu)

    def test_graded_panels_stay_few(self, monkeypatch):
        # the barrier at f = 1 and a 1e-11 gap at x: one row of a dozen panel
        # ends at most, and the rule's first level (one call, on the 2n + 1
        # Gauss-Kronrod nodes of each panel) meets the tolerance on them
        seen = []
        integrate = arrival._integrate

        def counted(g, ends, *args):
            calls = []
            result = integrate(lambda x, i: calls.append(x.size) or g(x, i), ends, *args)
            assert ends.shape[0] == 1
            seen.append((ends.shape[1], len(calls)))
            return result

        monkeypatch.setattr(arrival, "_integrate", counted)
        V = Potential.from_pairs([(2, 1), (4, F(-1, 4))])
        q = 1.2 * math.sqrt(2)
        p = math.sqrt(2 * (1 + 2 * (q / 4096) ** 2 - V.value(q)))
        toa_quadrature(V, PhasePoint(q, p))
        p = math.sqrt(2 * (HARMONIC.value(0.8) - HARMONIC.value(0.1) + 1e-11))
        toa_quadrature(HARMONIC, PhasePoint(0.1, p, x=0.8))
        assert len(seen) == 2 and all(2 < ends <= 12 and calls == 1 for ends, calls in seen), seen



def one_row_results(V, pts, tol):
    """toa_quadrature on each point alone: float.hex, or the error's class and message."""
    out = []
    for pt in pts:
        try:
            out.append(toa_quadrature(V, pt, tol).hex())
        except (NotAccessible, QuadratureFailure, ZeroMomentum) as exc:
            out.append((type(exc), str(exc)))
    return out


# V = q^2 - q^4/4: a barrier of height 1 at q = sqrt(2)
BARRIER_V = Potential.from_pairs([(2, 1), (4, F(-1, 4))])


def barrier_rows():
    """Rows below the peak, just above it (exact gaps), well above it, and at q == x."""
    pts = []
    for q in (0.3, 0.9, 1.2 * math.sqrt(2), 1.6, -1.7, 0.5):
        for energy in (0.5, 1 - 1e-3, 1 + 1e-9, 1 + 1e-3, 2.0):
            gap = energy - BARRIER_V.value(q)
            if gap > 0:
                p = math.sqrt(2 * gap)
                pts += [PhasePoint(q, p), PhasePoint(q, -p, x=-0.4, mu=2.0), PhasePoint(q, p, x=q)]
    return pts


GOOD_ROWS = [PhasePoint(0.2, 1.0), PhasePoint(-0.3, 2.0), PhasePoint(0.5, -0.7, x=0.1)]


class TestArrivalTimesInBatches:
    """A toa grid's rows, integrated in batches, get what toa_quadrature gives each alone."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-17], ids=["tol-1e-10", "tol-1e-17"])
    def test_barrier_rows(self, tol, monkeypatch):
        pts = barrier_rows()
        expected = one_row_results(BARRIER_V, pts, tol)
        kinds = {r if isinstance(r, str) else r[1].split(" ", 1)[0] for r in expected}
        assert "0x0.0p+0" in kinds and "H" in kinds  # q == x and rows below the peak
        if tol < 1e-16:
            assert "quadrature" in kinds  # a batch raises, then runs row by row
        batches = []
        integrate = arrival._integrate

        def counted(g, ends, *args):
            batches.append(len(ends))
            return integrate(g, ends, *args)

        monkeypatch.setattr(arrival, "_integrate", counted)
        got = arrival.arrival_times(BARRIER_V, pts, tol)
        assert [r.hex() if isinstance(r, float) else (type(r), str(r)) for r in got] == expected
        assert 1 in batches and max(batches) > 4  # exact-gap rows alone, the others together
        if tol > 1e-16:
            assert len(batches) < sum(1 for pt in pts if pt.q != pt.x) / 4

    @pytest.mark.parametrize(
        "pairs, bad",
        [
            ({2: F(1, 2)}, PhasePoint(0.2, 1e200)),
            ({2: F(1, 2)}, PhasePoint(0.2, 1.0, mu=1e-320)),
            ({2: F(1, 2)}, PhasePoint(1e200, 1.0)),
            ({2: F(1, 2)}, PhasePoint(0.2, 1e-200)),
            ({2: F(10) ** 400}, PhasePoint(0.2, 1.0)),
            ({3: F(1, 10**300), 1: F(10**300)}, PhasePoint(0.2, 1.0)),
        ],
        ids=["p-overflow", "mu-underflow", "q-overflow", "p-underflow", "coefficient-overflow", "ratio-overflow"],
    )
    def test_non_finite_rows(self, pairs, bad):
        # the points of cli's test_non_finite_float_is_named, among rows that integrate
        V = Potential.from_pairs(pairs.items())
        pts = [GOOD_ROWS[0], bad, *GOOD_ROWS[1:]]
        got = arrival.arrival_times(V, pts, 1e-10)
        assert [r.hex() if isinstance(r, float) else (type(r), str(r)) for r in got] == one_row_results(V, pts, 1e-10)
        assert isinstance(got[1], (QuadratureFailure, ZeroMomentum))
