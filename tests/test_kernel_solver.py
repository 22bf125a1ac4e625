"""Kernel coefficient tables: recurrences, cross-checks, diagnostics."""

import gc
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supratoa.algebra import GradedKernel, KernelCells
from supratoa.classical_toa import Potential, shift_arrival
from supratoa.kernel_solver import (
    KernelRequest,
    _difference_terms,
    _residual_monomials,
    boundary_check,
    classical_term,
    default_mmax,
    kernel_eval,
    linear_sigma_table,
    pde_residual,
    solve_kernel_anharmonic,
    solve_kernel_at_hbar,
    solve_kernel_general,
    solve_kernel_harmonic,
    solve_kernel_linear,
    solve_kernel_ungraded,
)

HARMONIC = Potential.from_pairs([(2, F(1, 2))])
QUARTIC = Potential.from_pairs([(4, 1)])

params = st.fractions(min_value=-2, max_value=2, max_denominator=8)
# degree <= 6 with constant, odd and even terms; zero coefficients drop out
potentials = st.dictionaries(st.integers(0, 6), params, max_size=7).map(
    lambda pairs: Potential.from_pairs(pairs.items())
)


def general(V, mu, jmax):
    return solve_kernel_general(KernelRequest(V, mu, jmax))


def full_residual(K, V):
    """Every residual monomial at once: (u-power, v-power, w-power) -> coefficient."""
    res = {}
    for (m, j, s), c in K.A.items():
        if j >= 1:
            key = (m - 1, 2 * j - 1, j - s - 1)
            res[key] = res.get(key, 0) - c * m * 2 * j
    for (m, j, s), c in K.A.items():
        for l, r, coeff in _difference_terms(V):
            key = (m + l - 2 * r - 1, 2 * j + 2 * r + 1, j - s)
            res[key] = res.get(key, 0) + c * coeff
    return {key: val for key, val in res.items() if val}


def lowest_degree(res):
    return min((u + v for (u, v, _) in res), default=None)


class TestRequest:
    def test_default_truncation(self):
        assert default_mmax(2, 6) == 13
        assert default_mmax(4, 6) == 25
        assert default_mmax(1, 6) == 13  # clamped to 2*Jmax + 1
        assert general(HARMONIC, 1, 6).truncation == (13, 6)
        assert general(QUARTIC, 1, 6).truncation == (25, 6)
        assert general(Potential.free(), 1, 6).truncation == (13, 6)

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelRequest(HARMONIC, 1, -1)


class TestSeedAndHandValues:
    def test_seed_entry(self):
        K = general(Potential.free(), 1, 0)
        assert K.A == {(1, 0, 0): F(1, 4)}

    def test_harmonic_first_correction(self):
        K = general(HARMONIC, 1, 2)
        assert K.A.get((3, 1, 0), 0) == F(1, 48)
        assert K.A.get((5, 2, 0), 0) == F(1, 1920)

    def test_harmonic_closed_chain(self):
        K = solve_kernel_harmonic(1, 5)  # a2 = 1/2 at mu = omega = 1
        for k in range(6):
            assert K.A.get((2 * k + 1, k, 0), 0) == F(1, 2) ** k / (4 * math.factorial(2 * k + 1))
        assert len(K.A) == 6

    def test_anharmonic_hand_value(self):
        lam = F(1)
        K = solve_kernel_anharmonic(lam, 1, 2)
        assert K.A.get((3, 2, 1), 0) == lam / 96
        assert K.A.get((5, 1, 0), 0) == lam / 80

    def test_linear_hand_value(self):
        a, b = F(1), F(1)
        K = solve_kernel_linear(a, b, 1, 4)
        assert K.A.get((4, 2, 0), 0) == 5 * a * b / 1536
        sigma = linear_sigma_table(4)
        assert sigma[(1, 1)] == F(1, 2)
        for k in range(5):
            assert sigma[(k, 0)] == F(math.factorial(k), math.factorial(2 * k + 1))


class TestCrossPathEquality:
    def test_general_matches_harmonic_chain(self):
        for muomega in (F(1), F(3, 2)):
            V = Potential.from_pairs([(2, muomega**2 / 2)])
            assert general(V, 1, 4) == solve_kernel_harmonic(muomega, 4)

    def test_general_matches_harmonic_offset_mass(self):
        mu = F(2)
        muomega = F(3)  # omega = 3/2
        V = Potential.from_pairs([(2, muomega**2 / (2 * mu))])
        assert general(V, mu, 4) == solve_kernel_harmonic(muomega, 4, mu=mu)

    def test_general_matches_anharmonic_chain(self):
        lam = F(2, 3)
        V = Potential.from_pairs([(4, lam)])
        assert general(V, 1, 6) == solve_kernel_anharmonic(lam, 1, 6)

    def test_general_matches_linear_chain(self):
        # chain convention: V = a q + (b/2) q^2
        a, b = F(1, 2), F(2, 5)
        V = Potential.from_pairs([(1, a), (2, b / 2)])
        assert general(V, 1, 5) == solve_kernel_linear(a, b, 1, 5)

    @given(params, params)
    @settings(max_examples=25, deadline=None)
    def test_general_matches_linear_chain_random(self, a, b):
        V = Potential.from_pairs([(1, a), (2, b / 2)])
        assert general(V, 1, 4) == solve_kernel_linear(a, b, 1, 4)


class TestStructure:
    def test_linear_tables_are_grade_pure(self):
        K = solve_kernel_linear(F(2, 3), F(1, 5), 1, 8)
        assert not any(s for _, _, s in K.A)

    def test_quartic_support_pattern(self):
        K = general(QUARTIC, 1, 10)
        rows = {}
        for m, j, _ in K.A:
            rows.setdefault(2 * j, set()).add(m)
        assert rows[2] == {5}
        assert rows[4] == {3, 9}
        assert rows[6] == {7, 13}
        assert rows[8] == {5, 11, 17}
        assert rows[10] == {9, 15, 21}

    def test_quartic_has_grade_one_entries(self):
        K = general(QUARTIC, 1, 4)
        graded = [key for key in K.A if key[2] >= 1]
        assert graded
        assert min(s for (_, _, s) in graded) == 1

    def test_stored_entries_are_mass_free(self):
        # mass enters kernel values only through the (mu / 2 hbar^2)^(j-s)
        # prefactor; the stored table depends on the potential alone
        V = Potential.from_pairs([(2, F(1, 2)), (1, F(1, 3))])
        assert general(V, 1, 4).A == general(V, F(17, 5), 4).A

    def test_harmonic_closed_form_any_coupling(self):
        a2 = F(3, 7)
        K = general(Potential.from_pairs([(2, a2)]), 1, 3)
        for k in range(4):
            assert K.A.get((2 * k + 1, k, 0), 0) == a2**k / (4 * math.factorial(2 * k + 1))


class TestClassicalTerm:
    def test_matches_grade_zero_slice(self):
        for V, jmax in ((HARMONIC, 6), (QUARTIC, 5), (Potential.from_pairs([(3, F(1, 3))]), 5)):
            K = general(V, 1, jmax)
            assert classical_term(V, 1, jmax) == K.s_slice(0)

    def test_free_particle(self):
        assert classical_term(Potential.free(), 1, 4) == {(1, 0): F(1, 4)}

    def test_mass_independent(self):
        V = Potential.from_pairs([(3, F(2, 7)), (1, F(1, 2))])
        assert classical_term(V, 1, 4) == classical_term(V, F(17, 3), 4)


class TestKernelEval:
    def test_free_kernel_value(self):
        K = general(Potential.free(), 1, 0).cells(1.0)
        assert kernel_eval(K, 0.7, 0.2) == pytest.approx(-0.225j)
        assert kernel_eval(K, 0.2, 0.7) == pytest.approx(0.225j)

    def test_diagonal_vanishes(self):
        K = solve_kernel_harmonic(1, 6).cells(1.0)
        assert kernel_eval(K, 0.4, 0.4) == 0

    def test_hermitian_symmetry(self):
        K = solve_kernel_harmonic(1, 8).cells(1.0)
        for q, qp in ((0.3, -0.1), (0.5, 0.2), (-0.4, 0.1)):
            val = kernel_eval(K, q, qp)
            swapped = kernel_eval(K, qp, q)
            assert val == pytest.approx(swapped.conjugate(), rel=1e-14)

    def test_node_array_equals_scalar_calls(self):
        K = general(QUARTIC, F(3, 2), 8).cells(0.8)
        qp = np.array([-0.7, -0.2, 0.3, 0.31, 0.9])
        values = kernel_eval(K, 0.3, qp)
        points = [kernel_eval(K, 0.3, x) for x in qp.tolist()]
        assert values.tolist() == points
        assert values[2] == 0
        # each point is a complex with its element's bits, signed zeros included
        assert all(type(value) is complex for value in points)
        assert np.array(points).view(np.uint64).tolist() == values.view(np.uint64).tolist()

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan])
    def test_hbar_must_be_positive(self, hbar):
        # the cells refuse it once, so kernel_eval never sees it
        with pytest.raises(ValueError, match="hbar must be positive"):
            KernelCells([({1: 1}, 4)], 1, hbar)


# dyadic, non-dyadic and far-from-1 hbar; 2^-20 makes w = mu 2^39
HBARS = [1.0, 0.5, 0.7, 1.7, 2.0**-20]
masses = st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8).filter(lambda mu: mu > 0)


class TestAtHbar:
    """The cells solved at one hbar are the graded table collapsed at that hbar."""

    @given(potentials, masses, st.integers(0, 10), st.sampled_from(HBARS))
    @settings(max_examples=60, deadline=None)
    def test_cells_equal_exact_collapse(self, V, mu, jmax, hbar):
        req = KernelRequest(V, mu, jmax)
        K = solve_kernel_general(req)
        at = solve_kernel_at_hbar(req, hbar)
        w = mu / (2 * F(hbar) ** 2)
        collapse = {}
        for (m, j, s), c in K.A.items():
            collapse[m, j] = collapse.get((m, j), 0) + c * w ** (j - s)
        assert at.C == {key: c for key, c in collapse.items() if c}
        assert at == K.cells(hbar)
        # each layer is over its minimal common denominator
        assert all(math.gcd(D, *nums.values()) == 1 for nums, D in at.layers)
        assert np.array_equal(at.dense_form(), K.cells(hbar).dense_form())

    def test_one_cell_per_power_pair(self):
        V = Potential.from_pairs([(2, F(1, 2)), (3, F(1, 3)), (6, F(1, 7))])
        K = general(V, 1, 20)
        at = solve_kernel_at_hbar(KernelRequest(V, 1, 20), 1.0)
        assert (len(K.A), len(at.C)) == (4431, 1107)
        assert set(at.C) == {(m, j) for m, j, _ in K.A}

    def test_cells_hold_one_hbar(self):
        at = solve_kernel_at_hbar(KernelRequest(QUARTIC, 1, 4), 0.7)
        assert at.hbar == 0.7
        assert at.tvalue(0.3, 0.2) == general(QUARTIC, 1, 4).cells(0.7).tvalue(0.3, 0.2)
        with pytest.raises(ValueError, match="hbar must be positive"):
            solve_kernel_at_hbar(KernelRequest(QUARTIC, 1, 4), 0.0)


class TestLayerReduction:
    """Each layer's numerators and denominator D_j have no common factor."""

    @given(potentials, masses, st.integers(0, 12), st.sampled_from(HBARS))
    @settings(max_examples=40, deadline=None)
    def test_every_layer_of_both_solvers_is_reduced(self, V, mu, jmax, hbar):
        req = KernelRequest(V, mu, jmax)
        graded = solve_kernel_general(req).layers
        assert all(all(rows.values()) for rows, _ in graded)  # no empty row
        for layers in (
            [([n for row in rows.values() for n in row.values()], D) for rows, D in graded],
            [(list(nums.values()), D) for nums, D in solve_kernel_at_hbar(req, hbar).layers],
        ):
            assert len(layers) >= 1
            for numerators, D in layers:
                assert D > 0 and all(numerators)
                assert math.gcd(D, *numerators) == 1


class TestResidual:
    def test_free_kernel_solves_exactly(self):
        assert pde_residual(general(Potential.free(), 1, 0), Potential.free()) is None

    def test_harmonic_residual_order_grows_with_truncation(self):
        for jmax in (2, 3, 4):
            K = solve_kernel_harmonic(1, jmax)
            assert pde_residual(K, HARMONIC) == 4 * jmax + 3

    def test_residual_only_in_dropped_orders(self):
        for V, jmax in ((HARMONIC, 5), (QUARTIC, 4)):
            K = general(V, 1, jmax)
            order = pde_residual(K, V)
            assert order is not None
            assert order >= 2 * jmax + 2

    def test_wrong_potential_breaks_low_orders(self):
        K = solve_kernel_harmonic(1, 4)
        order = pde_residual(K, QUARTIC)
        assert order is not None
        assert order < 2 * 4 + 2


class TestResidualStream:
    """pde_residual and its degree stream against the all-monomials residual."""

    @staticmethod
    def check(K, V):
        res = full_residual(K, V)
        assert pde_residual(K, V) == lowest_degree(res)
        stream = list(_residual_monomials(K, V))
        degrees = [d for d, _ in stream]
        assert degrees == sorted(set(degrees))
        merged = {}
        for d, monomials in stream:
            assert monomials
            assert all(u + v == d for (u, v, _) in monomials)
            merged.update(monomials)
        assert merged == res

    @given(potentials, st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_solver_tables(self, V, jmax):
        self.check(general(V, 1, jmax), V)

    @given(potentials, st.integers(1, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_entry_changed(self, V, jmax, data):
        K = general(V, 1, jmax)
        m, j, s = data.draw(st.sampled_from(sorted(K.A)))
        K = K.replace_entry(m, j, s, data.draw(params))
        self.check(K, V)

    @given(potentials, st.integers(1, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_numerator_moved(self, V, jmax, data):
        # a layer the solver did not reduce: its denominator may share a
        # factor with every numerator
        K = general(V, 1, jmax)
        j = data.draw(st.sampled_from([j for j, (rows, _) in enumerate(K.layers) if rows]))
        rows, D = K.layers[j]
        m, s = data.draw(st.sampled_from(sorted((m, s) for m, row in rows.items() for s in row)))
        moved = {m1: dict(row) for m1, row in rows.items()}
        moved[m][s] += 1 if moved[m][s] != -1 else -1
        layers = list(K.layers)
        layers[j] = (moved, D)
        self.check(GradedKernel.from_layers(layers, K.mu, K.truncation, K.potential), V)

    @given(potentials, potentials, st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_wrong_potential(self, V, W, jmax):
        self.check(general(V, 1, jmax), W)

    def test_ladder_sextic(self):
        V = Potential.from_pairs([(2, F(1, 2)), (3, F(1, 3)), (6, F(1, 7))])
        K = general(V, 1, 12)
        self.check(K, V)
        assert pde_residual(K, V) == 32


@pytest.mark.parametrize(
    "V",
    [
        Potential.from_pairs([(2, F(1, 2)), (3, F(1, 3)), (6, F(1, 7))]),
        shift_arrival(Potential.from_pairs([(0, F(3, 2)), (1, F(2, 3)), (4, F(-1, 5)), (5, F(3, 7))]), F(1, 2)),
    ],
    ids=["ladder-sextic", "shifted-with-constant"],
)
class TestLayerOrder:
    """Integer-numerator layers give the dense reference table, in (j, m, s) order."""

    def test_insertion_order_and_dense_reference(self, V):
        jmax = 12
        K = general(V, 1, jmax)
        assert list(K.A) == sorted(K.A, key=lambda key: (key[1], key[0], key[2]))
        rebuilt = {}
        for (m, j, s), c in K.A.items():
            rebuilt.setdefault((m, 2 * j), {})[j - s] = c
        assert solve_kernel_ungraded(V, 2 * jmax, K.truncation[0]) == rebuilt

    def test_trusted_table_passes_full_validation(self, V):
        # the solver skips GradedKernel's checks; building the same table
        # through them must change nothing
        K = general(V, F(3, 2), 12)
        checked = GradedKernel(K.A, K.mu, K.truncation, K.potential)
        assert checked == K
        assert list(checked.A.items()) == list(K.A.items())
        assert all(type(c) is F and c for c in K.A.values())
        assert (K.truncation, K.potential) == (checked.truncation, checked.potential)
        # the layers derived from the Fractions are the solver's, and both
        # collapse at hbar to the cells of the at-hbar solve, to the bit
        assert checked.layers == K.layers
        at = solve_kernel_at_hbar(KernelRequest(V, F(3, 2), 12), 0.7)
        assert at == K.cells(0.7) == checked.cells(0.7)
        assert np.array_equal(at.dense_form(), K.cells(0.7).dense_form())
        assert np.array_equal(checked.cells(0.7).dense_form(), K.cells(0.7).dense_form())


class TestTableEquality:
    """== compares the mass and the layers of rows, with trailing empty
    layers dropped; it agrees with equality of the Fraction view A."""

    @staticmethod
    def equal(K1, K2):
        """K1 == K2, checked against A and mu in both directions."""
        assert (K1 == K2) == (K2 == K1) == (K1.A == K2.A and K1.mu == K2.mu)
        assert (K1 != K2) == (not K1 == K2)
        return K1 == K2

    @given(potentials, masses, st.integers(0, 8), st.randoms(use_true_random=False), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rebuilt_and_perturbed_tables(self, V, mu, jmax, rng, data):
        K = general(V, mu, jmax)
        items = list(K.A.items())
        rng.shuffle(items)
        shuffled = GradedKernel(dict(items), K.mu, K.truncation, K.potential)
        assert self.equal(K, shuffled)
        assert not self.equal(K, GradedKernel(K.A, K.mu + 1, K.truncation))
        # one entry replaced, removed or added, at an index of the table or a new one
        m, j, s = data.draw(
            st.sampled_from(sorted(K.A))
            | st.tuples(st.integers(1, 12), st.integers(0, jmax + 1), st.integers(0, jmax)).filter(
                lambda key: key[2] <= max(key[1] - 1, 0)
            )
        )
        c = data.draw(params)
        assert self.equal(K, K.replace_entry(m, j, s, c)) == (c == K.A.get((m, j, s), 0))
        assert self.equal(shuffled.replace_entry(m, j, s, c), K.replace_entry(m, j, s, c))

    @given(st.integers(1, 12), masses)
    @settings(max_examples=20, deadline=None)
    def test_zero_tables_and_trailing_empty_layers(self, jmax, mu):
        free = general(Potential.free(), mu, jmax)
        seed = GradedKernel({(1, 0, 0): F(1, 4)}, mu, (1, 0))
        # the solver keeps its empty layers up to Jmax; __init__ stops at the last entry
        assert (len(free.layers), len(seed.layers)) == (jmax + 1, 1)
        assert self.equal(free, seed)
        zero = GradedKernel({}, mu, (1, 0))
        assert zero.layers == []
        assert self.equal(zero, GradedKernel({(3, jmax, jmax - 1): 0}, mu, (3, jmax)))
        assert self.equal(zero, GradedKernel.from_layers([({}, 1)] * (jmax + 1), mu, (1, jmax)))
        assert self.equal(zero, free.replace_entry(1, 0, 0, 0))
        assert not self.equal(zero, free)
        assert not self.equal(free, seed.replace_entry(2, jmax, 0, 1))


class TestTableMemory:
    """Traced allocations of the J=40 ladder sextic's solve and residual
    check, measured against the table the solve returns."""

    def test_solve_and_residual_hold_little_beside_the_table(self):
        V = Potential.from_pairs([(2, F(1, 2)), (3, F(1, 3)), (6, F(1, 7))])
        solve_kernel_general(KernelRequest(V, 1, 4))  # lazy imports and caches
        gc.collect()
        tracemalloc.start()
        try:
            K = solve_kernel_general(KernelRequest(V, 1, 40))
            table, solve_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert pde_residual(K, V) == 102
            residual = tracemalloc.get_traced_memory()[1] - table
        finally:
            tracemalloc.stop()
        # the int-keyed layers and the rows never both hold the whole table:
        # 1.48 times the table with both, about 1.2 with the rows alone
        assert solve_peak < 1.35 * table
        # the residual reads each (j, t) group as one row; a tuple per
        # entry made it 0.67 times the table, the rows about 0.06
        assert residual < 0.5 * table


class TestBoundary:
    def test_solver_output_passes(self):
        for K in (
            general(HARMONIC, 1, 5),
            general(QUARTIC, 1, 4),
            solve_kernel_linear(F(1, 3), F(2, 5), 1, 6),
        ):
            report = boundary_check(K)
            assert report.passed
            assert report.failures == ()

    def test_corrupted_seed_fails_first_condition(self):
        K = solve_kernel_harmonic(1, 3).replace_entry(1, 0, 0, F(1, 2))
        report = boundary_check(K)
        assert not report.passed
        assert any("(i)" in f for f in report.failures)

    def test_extra_row_zero_entry_fails_derivative_condition(self):
        K = solve_kernel_harmonic(1, 3).replace_entry(3, 0, 0, F(1, 100))
        report = boundary_check(K)
        assert not report.passed


class TestUngradedDebugRoute:
    def test_odd_v_rows_absent(self):
        for V in (HARMONIC, QUARTIC, Potential.from_pairs([(3, F(1, 2)), (1, F(1, 4))])):
            table = solve_kernel_ungraded(V, 12, 25)
            assert all(n % 2 == 0 for (_, n) in table)

    def test_matches_graded_solver(self):
        for V in (HARMONIC, QUARTIC):
            jmax = 5
            K = general(V, 1, jmax)
            table = solve_kernel_ungraded(V, 2 * jmax, default_mmax(V.degree, jmax))
            rebuilt = {}
            for (m, j, s), c in K.A.items():
                rebuilt.setdefault((m, 2 * j), {})[j - s] = c
            assert table == rebuilt

    @given(potentials, st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_push_solver_matches_dense_reference(self, V, jmax):
        K = general(V, 1, jmax)
        # each layer is over its minimal common denominator
        assert all(math.gcd(D, *(n for row in rows.values() for n in row.values())) == 1 for rows, D in K.layers)
        table = solve_kernel_ungraded(V, 2 * jmax, K.truncation[0])
        rebuilt = {}
        for (m, j, s), c in K.A.items():
            rebuilt.setdefault((m, 2 * j), {})[j - s] = c
        assert table == rebuilt

    @given(potentials, st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_entries_stay_inside_the_default_truncation(self, V, jmax):
        # the solver cuts no u-power: layer j of a degree-D table ends at D j + 1
        degree = max(V.degree, 0)
        K = general(V, 1, jmax)
        assert all(m <= max(degree * j + 1, 2 * j + 1) for m, j, _ in K.A)
        assert K.truncation == (max(degree * jmax + 1, 2 * jmax + 1), jmax)

    @given(potentials, params, params)
    @settings(max_examples=40, deadline=None)
    def test_difference_terms_expand_potential_difference(self, V, u, v):
        expanded = sum(
            (c * u ** (l - 2 * r - 1) * v ** (2 * r + 1) for l, r, c in _difference_terms(V)),
            F(0),
        )
        assert expanded == V.value((u + v) / 2) - V.value((u - v) / 2)
