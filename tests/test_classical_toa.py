"""Classical arrival-time series: iterates, dual routes, quadrature oracle."""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supratoa import classical_toa
from supratoa.algebra import QPoly, poly_antideriv
from supratoa.classical_toa import (
    _ACCESS_MARGIN,
    _SCAN_POINTS,
    PhasePoint,
    Potential,
    _extremum_candidates,
    _interval,
    _scan_grid,
    convergence_margin,
    local_toa,
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
        # the barrier peak at q = 8193/16384 falls between two points of the
        # accessibility scan; H sits 1e-3 below it, so only QUADPACK samples
        # the forbidden zone and must report it as NotAccessible
        V = Potential.from_pairs([(2, -(10**6)), (1, F(2 * 10**6 * 8193, 16384))])
        p = math.sqrt(2 * (V.value(8193 / 16384) - 1e-3 - V.value(1.0)))
        with pytest.raises(NotAccessible):
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


# The scalar loops that the array scans replaced, kept as their reference:
# the scans must give == candidates (in the same order), margins, tail
# bounds and NotAccessible messages.
def scalar_extremum_candidates(V, lo, hi):
    candidates = [lo, hi]
    vp = V.poly.derivative()
    vpp = vp.derivative()
    if vp.is_zero() or lo == hi:
        return candidates
    n = _SCAN_POINTS
    prev_q = lo
    prev_f = vp(lo)
    for i in range(1, n + 1):
        qi = lo + (hi - lo) * i / n
        fi = vp(qi)
        if prev_f == 0.0:
            candidates.append(prev_q)
        elif fi == 0.0 or (prev_f < 0.0) != (fi < 0.0):
            root = 0.5 * (prev_q + qi)
            for _ in range(30):
                d = vpp(root)
                if d == 0.0:
                    break
                step = vp(root) / d
                root -= step
                if abs(step) < 1e-15 * max(1.0, abs(root)):
                    break
            if lo <= root <= hi:
                candidates.append(root)
        prev_q, prev_f = qi, fi
    return candidates


def scalar_access_message(V, pt):
    energy = pt.energy(V)
    lo, hi = _interval(float(pt.x), float(pt.q))
    margin = _ACCESS_MARGIN * max(1.0, abs(energy))
    n = _SCAN_POINTS
    for i in range(n + 1):
        qi = lo + (hi - lo) * i / n
        if energy - V.value(qi) <= margin:
            return f"H - V <= 0 near q' = {qi:.6g}"
    return None


def assert_scans_match_scalar_loops(V, q, x, p, mu=1.0, K=8):
    lo, hi = _interval(x, q)
    expected = scalar_extremum_candidates(V, lo, hi)
    assert _extremum_candidates(V, lo, hi) == expected
    vq = V.value(q)
    ratio = mu * max(abs(vq - V.value(c)) for c in expected) / (p * p)
    assert convergence_margin(V, mu, q, x, p) == (ratio, ratio < 0.5)
    two_r = 2.0 * ratio
    tail = math.inf if two_r >= 1.0 else abs(mu * (q - x) / p) * two_r ** (K + 1) / (1.0 - two_r)
    assert series_tail_bound(ratio, mu, q, x, p, K) == tail

    pt = PhasePoint(q, p, x=x, mu=mu)
    message = scalar_access_message(V, pt) if q != x else None
    try:
        toa_quadrature(V, pt)
    except NotAccessible as exc:
        # QUADPACK may still find a zone the scan missed ("at q' = ...")
        assert str(exc) == message or (message is None and "near" not in str(exc))
    except QuadratureFailure:
        assert message is None
    else:
        assert message is None


class TestArrayScans:
    @given(
        st.dictionaries(st.integers(min_value=0, max_value=7), params, max_size=5),
        params,
        params,
        nonzero_params,
        st.sampled_from([1.0, 0.5, 2.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_match_scalar_loops(self, coeffs, q, x, p, mu):
        V = Potential.from_pairs(coeffs.items())
        assert_scans_match_scalar_loops(V, float(q), float(x), float(p), mu)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("k", [-2048, -2047, -1, 0, 1, 777, 2047, 2048])
    def test_derivative_zero_on_a_grid_point(self, k, sign):
        # V' = 2 sign (q - c) vanishes exactly on scan point k + 2048 of
        # [-1, 1]; k = 2048 puts it on the last point
        c = F(k, 2048)
        V = Potential.from_pairs([(2, sign), (1, -2 * sign * c), (0, sign * c * c)])
        assert float(c) in _extremum_candidates(V, -1.0, 1.0)
        assert_scans_match_scalar_loops(V, 1.0, -1.0, 3.0)
        assert_scans_match_scalar_loops(V, -1.0, 1.0, -3.0)

    @pytest.mark.parametrize(
        "V", [Potential.free(), Potential.from_pairs([(1, F(3, 4))]), HARMONIC], ids=["free", "linear", "harmonic"]
    )
    @pytest.mark.parametrize("q, x", [(0.6, 0.6), (0.6, -0.3), (-0.5, 0.25)])
    def test_fixed_cases(self, V, q, x):
        assert_scans_match_scalar_loops(V, q, x, 1.3)
        assert_scans_match_scalar_loops(V, q, x, 0.2)

    def test_blocked_point_message(self):
        V = Potential.from_pairs([(1, 1)])
        pt = PhasePoint(0.0, 1.0, x=3.0)
        with pytest.raises(NotAccessible) as exc:
            toa_quadrature(V, pt)
        assert str(exc.value) == scalar_access_message(V, pt) == "H - V <= 0 near q' = 0.500244"

    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_grid_equals_scalar_points(self, lo, hi):
        n = _SCAN_POINTS
        expected = np.array([lo + (hi - lo) * i / n for i in range(n + 1)])
        assert _scan_grid(lo, hi).tobytes() == expected.tobytes()
