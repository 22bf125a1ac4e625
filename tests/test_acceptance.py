"""End-to-end acceptance checks.

One test per shipped claim; each prints a single PASS/FAIL line (visible
with -s, and mirrored by the test verdicts under -v). Tolerances and
runtime caps are pinned in the assertions, not configurable.
"""

import math
import random
import time
from fractions import Fraction as F

from supratoa.algebra import GradedKernel, QPoly, poly_shift
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
from supratoa.kernel_solver import (
    KernelRequest,
    boundary_check,
    classical_term,
    default_mmax,
    linear_sigma_table,
    solve_kernel_anharmonic,
    solve_kernel_general,
    solve_kernel_harmonic,
    solve_kernel_linear,
    solve_kernel_ungraded,
)
from supratoa.numerics import (
    BumpProfile,
    QuadSpec,
    commutator_residual,
    kernel_integral_form,
)
from supratoa.transforms import (
    classical_limit,
    hbar2_residual,
    weyl_quantize,
    wigner_transform,
)

HARMONIC = Potential.from_pairs([(2, F(1, 2))])
QUARTIC = Potential.from_pairs([(4, 1)])


def verdict(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'}")


def general(V, mu, jmax):
    return solve_kernel_general(KernelRequest(V, mu, jmax))


def test_criterion_01_harmonic_exactness():
    start = time.monotonic()
    K = general(HARMONIC, 1, 10)
    series = local_toa(HARMONIC, 1, 0, 10)
    symbolic = classical_limit(wigner_transform(K)) == series

    q, p = 0.2, 1.0
    ratio, _ = convergence_margin(HARMONIC, 1.0, q, 0.0, p)
    tail = series_tail_bound(ratio, 1.0, q, 0.0, p, 10)
    diff = abs(series.evaluate(q, p) - (-math.atan(q / p)))
    numeric = tail < 1e-12 and diff <= 1e-12
    elapsed = time.monotonic() - start

    ok = symbolic and numeric and elapsed < 5.0
    verdict(1, "harmonic kernel reproduces arctan arrival series", ok)
    assert symbolic, "s=0 transform differs from the arrival series"
    assert numeric, f"partial sum off by {diff:.3e} (tail bound {tail:.3e})"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_02_linear_purity():
    start = time.monotonic()
    rng = random.Random(20260815)
    failures = []
    for trial in range(20):
        a = F(rng.randint(-6, 6), rng.randint(1, 6))
        b = F(rng.randint(-6, 6), rng.randint(1, 6))
        V = Potential.from_pairs([(1, a), (2, b / 2)])
        K = general(V, 1, 8)
        if K.max_grade() != 0:
            failures.append((trial, a, b, "graded entries present"))
        if wigner_transform(K) != local_toa(V, 1, 0, 8):
            failures.append((trial, a, b, "transform mismatch"))
    elapsed = time.monotonic() - start

    ok = not failures and elapsed < 10.0
    verdict(2, "linear potentials stay grade-pure through Jmax=8", ok)
    assert not failures, failures
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_03_nonlinear_obstruction():
    start = time.monotonic()
    K = general(QUARTIC, 1, 8)
    transform = wigner_transform(K)
    classical_ok = classical_limit(transform) == local_toa(QUARTIC, 1, 0, 8)
    residual = hbar2_residual(transform)
    obstruction = (not residual.is_zero()) and min(s for (_, s) in residual.terms) == 1
    elapsed = time.monotonic() - start

    ok = classical_ok and obstruction and elapsed < 10.0
    verdict(3, "quartic keeps the classical term plus hbar^2 tail", ok)
    assert classical_ok, "s=0 slice differs from the arrival series"
    assert obstruction, "expected a nonzero s=1 slice"
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_04_weyl_agreement_and_failure():
    cases = {
        "harmonic": HARMONIC,
        "linear": Potential.from_pairs([(1, F(2, 3))]),
        "cubic": Potential.from_pairs([(3, 1)]),
        "quartic": QUARTIC,
    }
    mismatches = []
    for tag, V in cases.items():
        W = weyl_quantize(local_toa(V, 1, 0, 6))
        if W.s_slice(0) != classical_term(V, 1, 6) or W.max_grade() != 0:
            mismatches.append(tag)

    K_full = general(QUARTIC, 1, 6)
    W_quartic = weyl_quantize(local_toa(QUARTIC, 1, 0, 6))
    extra = {key: c for key, c in K_full.A.items() if c != W_quartic.entry(*key)}
    witness = bool(extra) and all(s >= 1 for (_, _, s) in extra)

    ok = not mismatches and witness
    verdict(4, "Weyl map agrees classically, fails only at hbar^2", ok)
    assert not mismatches, f"Weyl/classical mismatch for {mismatches}"
    assert witness, "quartic kernel should exceed its Weyl part at s >= 1"


def test_criterion_05_route_equivalence():
    a, b, lam = F(2, 3), F(3, 5), F(5, 7)
    families = [
        Potential.free(),
        Potential.from_pairs([(1, a)]),
        Potential.from_pairs([(2, b / 2)]),
        Potential.from_pairs([(1, a), (2, b / 2)]),
        Potential.from_pairs([(3, lam)]),
        Potential.from_pairs([(4, lam)]),
    ]
    route_failures = []
    for V in families:
        for x in (0, F(1, 4)):
            for k in range(9):
                if toa_iterate_closed(V, F(3, 2), k, x=x) != toa_iterate_liouville(
                    V, F(3, 2), k, x=x
                ):
                    route_failures.append((V.poly, x, k))

    solver_failures = []
    if general(HARMONIC, 1, 8) != solve_kernel_harmonic(1, 8):
        solver_failures.append("harmonic")
    if general(QUARTIC, 1, 8) != solve_kernel_anharmonic(1, 1, 8):
        solver_failures.append("anharmonic")
    V_lin = Potential.from_pairs([(1, a), (2, b / 2)])
    if general(V_lin, 1, 8) != solve_kernel_linear(a, b, 1, 8):
        solver_failures.append("linear")

    ok = not route_failures and not solver_failures
    verdict(5, "independent routes produce identical tables", ok)
    assert not route_failures, route_failures[:3]
    assert not solver_failures, solver_failures


def test_criterion_06_integral_form():
    start = time.monotonic()
    rng = random.Random(60902)
    quad = QuadSpec(1e-11)
    worst = 0.0
    for V in (HARMONIC, QUARTIC):
        cterm = classical_term(V, 1, 12)
        series = GradedKernel(
            {(m, j, 0): c for (m, j), c in cterm.items()},
            1.0,
            (max(m for m, _ in cterm), max(j for _, j in cterm)),
        ).cells(1.0)
        for _ in range(100):
            q = rng.uniform(-0.5, 0.5)
            qp = rng.uniform(-0.5, 0.5)
            via_integral = kernel_integral_form(V, 1.0, 1.0, q, qp, quad)
            via_series = series.tvalue(q + qp, q - qp)
            worst = max(worst, abs(via_integral - via_series))
    elapsed = time.monotonic() - start

    ok = worst < 1e-8 and elapsed < 30.0
    verdict(6, "hypergeometric integral form matches the series", ok)
    assert worst < 1e-8, f"worst deviation {worst:.3e}"
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s"


def test_criterion_07_commutator():
    phi = BumpProfile(0.0, 0.5)
    psi = BumpProfile(0.1, 0.5)
    quad = QuadSpec(1e-10)

    free_K = general(Potential.free(), 1, 0)
    r_free = commutator_residual(Potential.free(), free_K, phi, psi, 1.0, 1.0, quad).residual

    harmonic_K = general(HARMONIC, 1, 12)
    r_harm = commutator_residual(HARMONIC, harmonic_K, phi, psi, 1.0, 1.0, quad).residual

    corrupted = free_K.replace_entry(1, 0, 0, F(1, 2))
    r_bad = commutator_residual(Potential.free(), corrupted, phi, psi, 1.0, 1.0, quad).residual

    ok = r_free < 1e-6 and r_harm < 1e-6 and r_bad > 0.1
    verdict(7, "canonical commutator closes on true kernels only", ok)
    assert r_free < 1e-6, f"free residual {r_free:.3e}"
    assert r_harm < 1e-6, f"harmonic residual {r_harm:.3e}"
    assert r_bad > 0.1, f"negative control residual {r_bad:.3e} suspiciously small"


def test_criterion_08_resummation_identity():
    # sum_j sigma[k,j] b^(k-j) a^j u^(2k+1-j)
    #   = (2^(k+1)/k!) integral_0^(u/2) (V(u/2) - V(s))^k ds,  V = aq + (b/2)q^2
    failures = []
    for a, b in ((F(2, 3), F(1, 5)), (F(-1, 2), F(3, 4)), (F(1), F(1))):
        V = Potential.from_pairs([(1, a), (2, b / 2)])
        for k in range(6):
            sigma = linear_sigma_table(k)
            lhs = QPoly(
                {2 * k + 1 - j: sigma[(k, j)] * b ** (k - j) * a**j for j in range(k + 1)}
            )
            pk = toa_iterate_closed(V, 1, k)
            dfac = math.prod(range(2 * k - 1, 0, -2))
            halved = QPoly({d: c * F(1, 2) ** d for d, c in pk.coeffs.items()})
            rhs = halved * F(-(2 ** (k + 1)), dfac)
            if lhs != rhs:
                failures.append((a, b, k))

    ok = not failures
    verdict(8, "sigma rows resum to the power integrals (k <= 5)", ok)
    assert not failures, failures


def test_criterion_09_arbitrary_arrival_point():
    V = Potential.from_pairs([(2, 1)])
    x = F(1, 2)
    shifted = shift_arrival(V, x)
    K = general(shifted, 1, 6)
    series = local_toa(V, 1, x, 6)
    limit = classical_limit(wigner_transform(K))
    keys = {k for (k, _) in limit.terms} | {k for (k, _) in series.terms}
    symbolic = all(
        limit.term(k, 0) == poly_shift(series.term(k, 0), x) for k in sorted(keys)
    )

    numeric_failures = []
    for q, p in ((0.6, 1.5), (0.4, 1.2), (0.55, 2.0)):
        ratio, converges = convergence_margin(V, 1.0, q, float(x), p)
        exact = toa_quadrature(V, PhasePoint(q, p, x=float(x)), tol=1e-11)
        tail = series_tail_bound(ratio, 1.0, q, float(x), p, 6)
        diff = abs(series.evaluate(q, p) - exact)
        if not (converges and diff <= tail + 1e-10):
            numeric_failures.append((q, p, ratio, diff, tail))

    ok = symbolic and not numeric_failures
    verdict(9, "shifted arrival point stays exact and in-bound", ok)
    assert symbolic, "shifted kernel limit differs from the translated series"
    assert not numeric_failures, numeric_failures


def test_criterion_10_structure_theorems():
    potentials = [
        HARMONIC,
        QUARTIC,
        Potential.from_pairs([(3, F(1, 2))]),
        Potential.from_pairs([(1, F(1, 3)), (2, F(2, 5))]),
        Potential.free(),
    ]
    odd_rows = []
    for V in potentials:
        mmax = default_mmax(max(V.degree, 1), 6)
        table = solve_kernel_ungraded(V, 13, mmax)
        if any(n % 2 for (_, n) in table):
            odd_rows.append(V.poly)

    K_quartic = general(QUARTIC, 1, 10)
    rows = {}
    for (m, j, s), _ in K_quartic.items():
        rows.setdefault(2 * j, set()).add(m)
    pattern_ok = (
        rows[2] == {5}
        and rows[4] == {3, 9}
        and rows[6] == {7, 13}
        and rows[8] == {5, 11, 17}
        and rows[10] == {9, 15, 21}
    )

    produced = [general(V, 1, 6) for V in potentials]
    produced.append(general(shift_arrival(Potential.from_pairs([(2, 1)]), F(1, 2)), 1, 6))
    produced.append(K_quartic)
    boundary_bad = [repr(K) for K in produced if not boundary_check(K).passed]

    ok = not odd_rows and pattern_ok and not boundary_bad
    verdict(10, "parity, support pattern, boundary data all hold", ok)
    assert not odd_rows, f"odd v-rows appeared for {odd_rows}"
    assert pattern_ok, f"quartic support rows {rows}"
    assert not boundary_bad, boundary_bad
