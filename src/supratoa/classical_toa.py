"""Classical local time of arrival: exact series by two routes, plus numerics.

The local time of arrival at arrival point x is the series
    t(q, p) = sum_k (-1)^k P_k(q) p^-(2k+1)
where the iterates P_k are polynomials in q. Two independent constructions of
P_k are provided (a closed-form integral and a Liouville-type iteration); they
must agree exactly, and inside the convergence region the partial sums must
agree with direct quadrature of the equations of motion.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .algebra import MomentumSeries, QPoly, Rational, RationalLike, _finite, poly_shift
from .errors import QuadratureFailure, SupratoaError, ZeroMomentum

if TYPE_CHECKING:
    import numpy as np

# Interior margin for the accessibility guard: the inverse-square-root
# integrand is only evaluated where H - V > margin * max(1, |H|).
_ACCESS_MARGIN = 1e-12


@dataclass(frozen=True)
class Potential:
    """Polynomial potential V(q) with rational coefficients.

    A constant term is allowed and physically inert: it cancels in every
    V(q) - V(q') difference. Degree <= 2 is classified "linear" (linear
    classical equations of motion), higher degrees "nonlinear".
    """

    poly: QPoly

    @classmethod
    def free(cls) -> "Potential":
        return cls(QPoly.zero())

    @classmethod
    def from_pairs(cls, pairs) -> "Potential":
        return cls(QPoly(dict(pairs)))

    @property
    def degree(self) -> int:
        return self.poly.degree()

    @property
    def is_linear(self) -> bool:
        return self.degree <= 2

    def coeff(self, s: int) -> Rational:
        return self.poly.coeff(s)

    def value(self, q):
        return self.poly(q)

    @functools.cached_property
    def critical_points(self) -> np.ndarray:
        """The real part of every complex root of V', solved once per potential.

        A superset of V's real critical points up to eigenvalue error: no
        root is dropped for its imaginary part, and callers clip the points
        to their interval, where an extra point is harmless.
        """
        import numpy as np

        vp = self.poly.derivative()
        top = vp.degree()
        dense = np.zeros(top + 1)
        for d, c in vp.coeffs.items():
            dense[top - d] = _finite(f"V' coefficient of q^{d}", operator.truediv, c.numerator, c.denominator)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                roots = np.roots(dense)
        except np.linalg.LinAlgError:  # inf in np.roots' companion matrix
            roots = None
        if roots is None or not np.isfinite(roots).all():
            raise QuadratureFailure("a ratio of V' coefficients is beyond the float range")
        return roots.real


@dataclass(frozen=True)
class PhasePoint:
    """A classical state (q, p) with arrival point x and mass mu."""

    q: float
    p: float
    x: float = 0.0
    mu: float = 1.0

    def energy(self, V: Potential) -> float:
        return self.p * self.p / (2.0 * self.mu) + V.value(float(self.q))


def _double_factorial(n: int) -> int:
    """Product n(n-2)(n-4)...; empty product (n <= 0) is 1, so (-1)!! = 1."""
    return math.prod(range(n, 0, -2))


def toa_iterate_closed(V: Potential, mu: RationalLike, k: int, x: RationalLike = 0) -> QPoly:
    """k-th arrival-time iterate by the closed form.

    Returns the polynomial P_k with T_k = P_k(q) p^-(2k+1), where
        P_k(q) = -((2k-1)!!/k!) mu^(k+1) * integral_x^q (V(q)-V(q'))^k dq'.
    For k = 0 this is -mu (q - x).
    """
    if k < 0:
        raise ValueError("iterate index must be >= 0")
    mu = Fraction(mu)
    x = Fraction(x)

    # (V(q) - V(q'))^k as a polynomial in q' whose coefficients are QPoly in q.
    base: dict[int, QPoly] = {0: V.poly - QPoly.constant(V.coeff(0))}
    for d, c in V.poly.coeffs.items():
        if d >= 1:
            base[d] = QPoly.constant(-c)
    power: dict[int, QPoly] = {0: QPoly.constant(1)}
    for _ in range(k):
        nxt: dict[int, QPoly] = {}
        for d1, p1 in power.items():
            for d2, p2 in base.items():
                prod = p1 * p2
                if prod:
                    d = d1 + d2
                    acc = nxt.get(d)
                    nxt[d] = prod if acc is None else acc + prod
        power = {d: p for d, p in nxt.items() if p}

    # Antiderivative in q', then evaluate at q' = q and q' = x.
    at_q = QPoly.zero()
    at_x = QPoly.zero()
    for d, coeff_poly in power.items():
        anti = coeff_poly * Fraction(1, d + 1)
        at_q = at_q + anti * QPoly.monomial(d + 1)
        at_x = at_x + anti * (x ** (d + 1))
    integral = at_q - at_x

    factor = -Fraction(_double_factorial(2 * k - 1), math.factorial(k)) * mu ** (k + 1)
    return integral * factor


def _liouville_iterates(V: Potential, mu: Fraction, x: Fraction):
    """P_0, P_1, ... of the Liouville-type iteration, without end.

    Each P_k is yielded as (numerators, denominator): a dict degree ->
    nonzero integer numerator over one common positive denominator, reduced
    by the gcd of all of them. The step P_k = (2k-1) mu int_x^q V' P_{k-1}
    runs on integers: V' P_{k-1} is an integer convolution, the
    antiderivative scales by the lcm of its divisors, and the value at
    x = a/b is Horner's scheme on integers scaled by b^E, E the top degree.
    The degrees come in the order QPoly arithmetic gives them (its product
    loop, a cancelled degree dropped and re-entered at the end, then the
    constant -anti(x) last), so the polynomials equal the QPoly route's
    coefficient for coefficient and in insertion order, and float sums over
    their terms are unchanged.
    """
    terms = [(d, c) for d, c in V.poly.coeffs.items() if d >= 1]
    vp_den = math.lcm(*(c.denominator for _, c in terms))
    vp = [(d - 1, d * c.numerator * (vp_den // c.denominator)) for d, c in terms]
    mu_n, mu_d = mu.numerator, mu.denominator
    a, b = x.numerator, x.denominator

    # the seed -mu (q - x), over mu_d b
    nums = {d: n for d, n in ((1, -mu_n * b), (0, mu_n * a)) if n}
    den = mu_d * b
    k = 0
    while True:
        g = math.gcd(den, *nums.values())
        if g > 1:
            nums = {d: n // g for d, n in nums.items()}
            den //= g
        yield nums, den
        k += 1
        prod: dict[int, int] = {}
        for d1, c1 in vp:
            for d2, c2 in nums.items():
                d = d1 + d2
                acc = prod.get(d, 0) + c1 * c2
                if acc:
                    prod[d] = acc
                else:
                    prod.pop(d, None)
        lcm = math.lcm(*(d + 1 for d in prod))
        anti = {d + 1: c * (lcm // (d + 1)) for d, c in prod.items()}
        den *= vp_den * lcm * mu_d
        step = (2 * k - 1) * mu_n
        at_x, bpow = 0, 1
        if a and anti:
            # b^top anti(a/b), by Horner's scheme on integers
            for e in range(max(anti), -1, -1):
                at_x = at_x * a + anti.get(e, 0) * bpow
                bpow *= b
            bpow //= b
            den *= bpow
        scale = step * bpow
        nums = {e: c * scale for e, c in anti.items()}
        if at_x:
            nums[0] = -at_x * step


def _iterate_poly(nums: dict[int, int], den: int, sign: int = 1) -> QPoly:
    """The QPoly sign * nums / den: one Fraction per coefficient, order kept."""
    return QPoly.trusted({d: Fraction(sign * n, den) for d, n in nums.items()})


def toa_iterate_liouville(V: Potential, mu: RationalLike, k: int, x: RationalLike = 0) -> QPoly:
    """k-th arrival-time iterate by the Liouville-type iteration.

    The p-bookkeeping of the iteration T_k = -(mu/p) int_x^q V' dT_{k-1}/dp dq'
    collapses, on the single-term representation T_k = P_k p^-(2k+1), to
        P_k(q) = (2k-1) mu * integral_x^q V'(q') P_{k-1}(q') dq'.
    Must equal toa_iterate_closed for every k.
    """
    if k < 0:
        raise ValueError("iterate index must be >= 0")
    nums, den = next(itertools.islice(_liouville_iterates(V, Fraction(mu), Fraction(x)), k, None))
    return _iterate_poly(nums, den)


def local_toa(V: Potential, mu: RationalLike, x: RationalLike, K: int) -> MomentumSeries:
    """Partial sum of the local arrival-time series up to order K.

    Returns a MomentumSeries whose (k, 0) term is (-1)^k P_k; all terms sit at
    hbar grade s = 0. Zero iterates (e.g. every k >= 1 for the free particle)
    are dropped.
    """
    if K < 0:
        raise ValueError("series order must be >= 0")
    terms = {}
    for k, (nums, den) in zip(range(K + 1), _liouville_iterates(V, Fraction(mu), Fraction(x))):
        if nums:
            terms[(k, 0)] = _iterate_poly(nums, den, (-1) ** k)
    return MomentumSeries(terms)


def local_toa_value(V: Potential, mu: RationalLike, x: RationalLike, K: int, q: float, p: float) -> float:
    """The float value at (q, p) of the series up to order K, equal bit for bit
    to local_toa(V, mu, x, K).evaluate(q, p).

    The sum runs the same float operations in the same order straight on the
    integer iterates, without a Fraction: each coefficient is sign * n / den,
    the correctly rounded quotient of the same rational that c.numerator /
    c.denominator rounds for the reduced Fraction c. A quotient or a power
    beyond the float range raises OverflowError there too.
    """
    if K < 0:
        raise ValueError("series order must be >= 0")
    if p == 0:
        raise ZeroDivisionError("series has only negative powers of p")
    q = float(q)
    total = 0.0
    for k, (nums, den) in zip(range(K + 1), _liouville_iterates(V, Fraction(mu), Fraction(x))):
        if nums:
            sign = (-1) ** k
            value = 0.0
            for d, n in nums.items():
                value += sign * n / den * q**d
            total += value * p ** -(2 * k + 1)  # evaluate's factor hbar^0 = 1.0 is exact
    return total


def _interval(a: float, b: float) -> tuple[float, float]:
    return (a, b) if a <= b else (b, a)


def _critical_values(V: Potential, x: float, q: float) -> tuple[list[float], list[float]]:
    """The points x, q and V's critical points clipped to [x, q], and V there.

    The extrema of V on the interval lie among these points. Each point is
    clipped as np.clip clips, keeping a point that ties with an end, signed
    zeros included, and V is evaluated at each on QPoly's float branch:
    the terms c * x**d summed in order, the libm pow that np.float_power
    calls on an array. The lists equal, float for float, what the array
    evaluation of the clipped array gives. Raises QuadratureFailure when V
    is beyond the float range at one of them.
    """
    lo, hi = _interval(x, q)
    points = [x, q, *(min(max(c, lo), hi) for c in V.critical_points.tolist())]
    try:
        values = [V.value(c) for c in points]
    except OverflowError:  # a power beyond the float range
        values = [math.inf]
    if not all(map(math.isfinite, values)):
        raise QuadratureFailure(f"V on [{lo:.6g}, {hi:.6g}] is beyond the float range")
    return points, values


def toa_quadrature(V: Potential, pt: PhasePoint, tol: float = 1e-10) -> float:
    """Time of arrival by direct quadrature of the equations of motion.

    Evaluates -sgn(p) sqrt(mu/2) * integral_x^q dq' / sqrt(H - V(q')) with
    H the conserved energy of pt. Serves as the independent oracle for the
    series inside its convergence region. The trajectory reaches x iff
    H - V > _ACCESS_MARGIN * max(1, |H|) at x, q and every critical point of
    V between them; otherwise NotAccessible names the lowest such point.
    The integral is the package's one rule (quadrature._integrate) on
    graded panels; QuadratureFailure is raised when its error estimate
    exceeds max(tol, 1e-14 |integral|), and ValueError when tol is not
    positive and finite. This is the one-row case of arrival.arrival_times,
    which a toa grid calls on all its rows at once.
    """
    from .arrival import arrival_times  # the rule and its panels load with the first arrival time

    (result,) = arrival_times(V, [pt], tol)
    if isinstance(result, SupratoaError):
        raise result
    return result


def convergence_margin(V: Potential, mu: float, q: float, x: float, p: float) -> tuple[float, bool]:
    """Convergence criterion of the local series: (ratio, ratio < 1/2).

    ratio = mu * M_q / p^2 with M_q = max |V(q) - V(q')| over the interval
    between x and q, taken over x, q and the critical points of V between
    them. The series converges absolutely iff ratio < 1/2.
    """
    if p * p == 0:
        raise ZeroMomentum(f"convergence ratio undefined at p^2 = 0 (p = {p!r})")
    _, values = _critical_values(V, float(x), float(q))
    m_q = max(abs(values[1] - v) for v in values)
    ratio = float(mu) * m_q / (p * p)
    return ratio, ratio < 0.5


def series_tail_bound(ratio: float, mu: float, q: float, x: float, p: float, K: int) -> float:
    """Geometric bound on the tail of the local series dropped after order K.

    ratio is the convergence ratio that convergence_margin returns for the
    same (mu, q, x, p). The iterates obey |T_k| <= (mu |q-x| / |p|) (2 ratio)^k
    because (2k-1)!!/k! <= 2^k, so for ratio < 1/2 the tail after K is at most
    lead * (2 ratio)^(K+1) / (1 - 2 ratio). Returns inf outside that region.
    """
    if p == 0:
        raise ZeroMomentum("tail bound undefined at p = 0")
    two_r = 2.0 * ratio
    lead = abs(mu * (q - x) / p)
    if two_r >= 1.0:
        return math.inf
    return lead * two_r ** (K + 1) / (1.0 - two_r)


def shift_arrival(V: Potential, x: RationalLike) -> Potential:
    """Potential seen from the arrival point: V~(t) = V(t + x).

    Reduces an arrival-point-x problem to an origin problem in the relabeled
    coordinate q~ = q - x. The constant term that appears is retained; it
    cancels identically in all V(q) - V(q') differences.
    """
    return Potential(poly_shift(V.poly, Fraction(x)))
