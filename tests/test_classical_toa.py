"""Classical arrival-time series: iterates, dual routes, quadrature oracle."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supratoa.algebra import QPoly
from supratoa.classical_toa import (
    PhasePoint,
    Potential,
    convergence_margin,
    local_toa,
    series_tail_bound,
    shift_arrival,
    toa_iterate_closed,
    toa_iterate_liouville,
    toa_quadrature,
)
from supratoa.errors import NotAccessible, ZeroMomentum

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
        bound = series_tail_bound(HARMONIC, 1.0, 0.2, 0.0, 1.0, 12)
        expected = 0.2 * 0.04**13 / 0.96
        assert bound == pytest.approx(expected, rel=1e-12)
        assert series_tail_bound(HARMONIC, 1.0, 2.0, 0.0, 0.5, 12) == math.inf

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
        bound = series_tail_bound(V, 1.0, q, 0.0, p, 12)
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
