"""Exact arithmetic substrate: rationals, q-polynomials, and graded series tables.

Everything stored in this module is exact; all recurrence and transform work
happens on Rational values so that equality tests between independently
computed tables are meaningful. The one float path is the evaluation of a
polynomial or a kernel table at a point or on a node array, which reads a
tuple of float terms converted once per object.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

import numpy as np

# Arbitrary-precision rational scalar. fractions.Fraction already guarantees
# lowest terms, positive denominator, exact arithmetic, and errors on
# division by zero, which is the full contract needed here.
Rational = Fraction

RationalLike = Rational | int | str


def _power_fn(x):
    """x -> x**d with libm's pow, elementwise on arrays.

    np.power may take a SIMD route whose last bit differs from pow();
    np.float_power calls pow() per element, so an array evaluation equals
    the scalar evaluations element by element.
    """
    return np.float_power if isinstance(x, np.ndarray) else pow


def parse_rational(text: str) -> Rational:
    """Parse "num/den" or a plain integer string ("-3/4", "5")."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(r: RationalLike) -> str:
    """Render a rational as "num/den", or "num" when the denominator is 1."""
    return str(r if isinstance(r, Fraction) else Fraction(r))


class QPoly:
    """Univariate polynomial in q with Rational coefficients.

    Coefficients are stored sparsely as degree -> Rational with no explicit
    zeros; the zero polynomial has an empty table. Instances are treated as
    immutable: no method mutates self, and the coefficient table must not be
    modified after construction.
    """

    __slots__ = ("coeffs", "_float_terms")

    def __init__(self, coeffs: Mapping[int, RationalLike] | Iterable[tuple[int, RationalLike]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        table: dict[int, Rational] = {}
        for deg, c in items:
            deg = int(deg)
            if deg < 0:
                raise ValueError(f"negative degree {deg}")
            c = Fraction(c)
            if c:
                acc = table.get(deg, Fraction(0)) + c
                if acc:
                    table[deg] = acc
                else:
                    table.pop(deg, None)
        self.coeffs = table
        self._float_terms: tuple[tuple[int, float], ...] | None = None

    @classmethod
    def trusted(cls, table: dict[int, Rational]) -> "QPoly":
        """A table of nonzero Fractions at degrees >= 0, taken as it is.

        The dict is neither copied nor checked, and its insertion order is
        kept: for arithmetic that builds the table itself. Every other
        caller goes through __init__.
        """
        poly = cls()
        poly.coeffs = table
        return poly

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def constant(cls, c: RationalLike) -> "QPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, deg: int, c: RationalLike = 1) -> "QPoly":
        return cls({deg: c})

    def degree(self) -> int:
        """Largest stored degree; -1 for the zero polynomial."""
        return max(self.coeffs) if self.coeffs else -1

    def coeff(self, deg: int) -> Rational:
        return self.coeffs.get(deg, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __neg__(self) -> "QPoly":
        return QPoly({d: -c for d, c in self.coeffs.items()})

    def __add__(self, other: "QPoly") -> "QPoly":
        if not isinstance(other, QPoly):
            return NotImplemented
        table = dict(self.coeffs)
        for d, c in other.coeffs.items():
            acc = table.get(d, Fraction(0)) + c
            if acc:
                table[d] = acc
            else:
                table.pop(d, None)
        return QPoly.trusted(table)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly | RationalLike") -> "QPoly":
        if isinstance(other, QPoly):
            table: dict[int, Rational] = {}
            for d1, c1 in self.coeffs.items():
                for d2, c2 in other.coeffs.items():
                    d = d1 + d2
                    acc = table.get(d, Fraction(0)) + c1 * c2
                    if acc:
                        table[d] = acc
                    else:
                        table.pop(d, None)
            return QPoly.trusted(table)
        scale = Fraction(other)
        if not scale:
            return QPoly()
        return QPoly({d: c * scale for d, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power")
        result = QPoly.constant(1)
        for _ in range(n):
            result = result * self
        return result

    def derivative(self) -> "QPoly":
        return QPoly({d - 1: d * c for d, c in self.coeffs.items() if d >= 1})

    def __call__(self, x):
        """Evaluate at x: exact for Fraction/int arguments, float otherwise.

        A float or a numpy array x reads the (degree, float coefficient)
        terms, converted on the first float evaluation. The zero polynomial
        gives 0.0 at a float and zeros of x's shape on an array.
        """
        if type(x) is float:
            # the loop below with power = pow, without the type dispatch
            total = 0.0
            for d, c in self._floats():
                total += c * x**d
            return total
        if isinstance(x, (Fraction, int)):
            total = Fraction(0)
            for d, c in self.coeffs.items():
                total += c * x**d
            return total
        terms = self._floats()
        if not terms:
            return np.zeros(x.shape) if isinstance(x, np.ndarray) else 0.0
        power = _power_fn(x)
        total = 0.0
        for d, c in terms:
            total += c * power(x, d)
        return total

    def _floats(self) -> tuple[tuple[int, float], ...]:
        """The (degree, float coefficient) terms, converted on the first call."""
        if self._float_terms is None:
            self._float_terms = tuple((d, c.numerator / c.denominator) for d, c in self.coeffs.items())
        return self._float_terms

    def __repr__(self) -> str:
        if not self.coeffs:
            return "QPoly(0)"
        parts = [f"{c}*q^{d}" for d, c in sorted(self.coeffs.items())]
        return "QPoly(" + " + ".join(parts) + ")"


def poly_shift(p: QPoly, x: RationalLike) -> QPoly:
    """Return the polynomial t -> p(t + x), expanded exactly."""
    x = Fraction(x)
    if not x:
        return p
    table: dict[int, Rational] = {}
    for d, c in p.coeffs.items():
        # binomial expansion of c*(t+x)^d, building the row incrementally
        term = c
        for i in range(d, -1, -1):
            acc = table.get(i, Fraction(0)) + term
            if acc:
                table[i] = acc
            else:
                table.pop(i, None)
            if i > 0:
                term = term * x * i / (d - i + 1)
    return QPoly(table)


def poly_antideriv(p: QPoly) -> QPoly:
    """Exact antiderivative with zero constant term."""
    return QPoly({d + 1: c / (d + 1) for d, c in p.coeffs.items()})


def poly_defint(p: QPoly, lo: RationalLike, hi: RationalLike) -> Rational:
    """Exact definite integral of p over [lo, hi]."""
    anti = poly_antideriv(p)
    return anti(Fraction(hi)) - anti(Fraction(lo))


class MomentumSeries:
    """Phase-space series: sum over (k, s) of P(q) * p^-(2k+1) * hbar^(2s).

    The key (k, s) holds the q-polynomial multiplying p^-(2k+1) at hbar
    grade 2s. The classical part is the restriction to s = 0. Zero
    polynomials are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], QPoly] | Iterable[tuple[tuple[int, int], QPoly]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        table: dict[tuple[int, int], QPoly] = {}
        for (k, s), poly in items:
            k, s = int(k), int(s)
            if k < 0 or s < 0:
                raise ValueError(f"invalid series key (k={k}, s={s})")
            if not isinstance(poly, QPoly):
                raise TypeError("series terms must be QPoly")
            if poly:
                prev = table.get((k, s))
                merged = prev + poly if prev is not None else poly
                if merged:
                    table[(k, s)] = merged
                else:
                    table.pop((k, s), None)
        self.terms = table

    def term(self, k: int, s: int) -> QPoly:
        return self.terms.get((k, s), QPoly.zero())

    def items(self) -> Iterator[tuple[tuple[int, int], QPoly]]:
        return iter(sorted(self.terms.items()))

    def is_zero(self) -> bool:
        return not self.terms

    def max_k(self) -> int:
        return max((k for k, _ in self.terms), default=-1)

    def max_s(self) -> int:
        return max((s for _, s in self.terms), default=-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MomentumSeries):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset((key, poly) for key, poly in self.terms.items()))

    def __add__(self, other: "MomentumSeries") -> "MomentumSeries":
        merged = list(self.terms.items()) + list(other.terms.items())
        return MomentumSeries(merged)

    def __neg__(self) -> "MomentumSeries":
        return MomentumSeries({key: -poly for key, poly in self.terms.items()})

    def __sub__(self, other: "MomentumSeries") -> "MomentumSeries":
        return self + (-other)

    def restrict(self, keep) -> "MomentumSeries":
        """Sub-series of the terms whose key (k, s) satisfies keep(k, s)."""
        return MomentumSeries({key: poly for key, poly in self.terms.items() if keep(*key)})

    def evaluate(self, q: float, p: float, hbar: float = 1.0) -> float:
        """Numeric value of the truncated series at a phase point."""
        if p == 0:
            raise ZeroDivisionError("series has only negative powers of p")
        total = 0.0
        for (k, s), poly in self.terms.items():
            total += poly(float(q)) * p ** -(2 * k + 1) * hbar ** (2 * s)
        return total

    def __repr__(self) -> str:
        keys = sorted(self.terms)
        return f"MomentumSeries({len(self.terms)} terms, keys={keys})"


class GradedKernel:
    """Coefficient table of the kernel factor T in characteristic coordinates.

    Represents T(u, v) = sum over entries of
        A[(m, j, s)] * (mu / 2 hbar^2)^(j-s) * u^m * v^(2j)
    with u = q + q' and v = q - q'. Only even powers of v are representable;
    that parity is structural, not checked at runtime. Index ranges: m >= 1,
    j >= 0, 0 <= s <= max(j-1, 0). Entries are exact rationals and never
    explicitly zero.

    Solver outputs additionally satisfy A[(m, 0, 0)] = 1/4 when m = 1 and 0
    otherwise; that is a property of solutions (verified by boundary_check),
    not of the container, so deliberately corrupted tables can be built for
    negative controls.

    Instances are immutable by convention; use replace_entry to derive
    modified copies.
    """

    __slots__ = ("A", "mu", "truncation", "potential", "_float_terms", "_float_form")

    def __init__(
        self,
        entries: Mapping[tuple[int, int, int], RationalLike] | Iterable[tuple[tuple[int, int, int], RationalLike]],
        mu: RationalLike,
        truncation: tuple[int, int],
        potential: QPoly | None = None,
    ):
        items = entries.items() if isinstance(entries, Mapping) else entries
        table: dict[tuple[int, int, int], Rational] = {}
        for (m, j, s), c in items:
            m, j, s = int(m), int(j), int(s)
            if m < 1 or j < 0 or s < 0 or s > max(j - 1, 0):
                raise ValueError(f"invalid kernel index (m={m}, j={j}, s={s})")
            c = Fraction(c)
            if c:
                table[(m, j, s)] = c
        self._fill(table, mu, truncation, potential)

    @classmethod
    def trusted(
        cls,
        table: dict[tuple[int, int, int], Rational],
        mu: RationalLike,
        truncation: tuple[int, int],
        potential: QPoly | None = None,
    ) -> "GradedKernel":
        """A table whose entries are already nonzero Fractions at valid indices.

        The dict is taken as it is, neither copied nor checked: for solvers
        that build it themselves. Every other caller goes through __init__.
        """
        kernel = cls.__new__(cls)
        kernel._fill(table, mu, truncation, potential)
        return kernel

    def _fill(self, table, mu, truncation, potential) -> None:
        self.A = table
        self.mu = Fraction(mu)
        mmax, jmax = truncation
        self.truncation = (int(mmax), int(jmax))
        self.potential = potential
        # built on the first float evaluation: see _float_plan and dense_form
        self._float_terms: tuple | None = None
        self._float_form: tuple | None = None

    def entry(self, m: int, j: int, s: int) -> Rational:
        return self.A.get((m, j, s), Fraction(0))

    def items(self) -> Iterator[tuple[tuple[int, int, int], Rational]]:
        return iter(sorted(self.A.items()))

    def s_slice(self, s: int) -> dict[tuple[int, int], Rational]:
        """The (m, j) -> coefficient map at a fixed hbar grade."""
        return {(m, j): c for (m, j, s1), c in self.A.items() if s1 == s}

    def max_grade(self) -> int:
        return max((s for (_, _, s) in self.A), default=0)

    def replace_entry(self, m: int, j: int, s: int, coeff: RationalLike) -> "GradedKernel":
        """New table with one entry overridden (used for negative controls)."""
        table = dict(self.A)
        c = Fraction(coeff)
        if c:
            table[(m, j, s)] = c
        else:
            table.pop((m, j, s), None)
        return GradedKernel(table, self.mu, self.truncation, self.potential)

    def _float_plan(self) -> tuple:
        """Float coefficients and Horner layout, built on the first float evaluation.

        (keys, coef, rows, counts, slot): the (m, j, j - s) key and the float
        value of each entry in table order; the powers m of u that hold
        entries, ordered by their highest power j of z = v^2, highest first,
        and the zero row m = 0 (its addition gives every result, an empty
        table's too, the broadcast shape of u and v); counts[j], how many of
        those rows reach z^j (a prefix); and slot[m], row m's place in that
        order, or -1 when it has no entry.
        """
        if self._float_terms is None:
            keys = np.array([(m, j, j - s) for m, j, s in self.A], dtype=np.intp).reshape(-1, 3)
            # float(c) without the numbers.Rational indirection: the same
            # correctly rounded integer division
            coef = np.array([c.numerator / c.denominator for c in self.A.values()])
            mmax, jmax = keys[:, :2].max(axis=0) if len(keys) else (0, 0)
            top = np.full(mmax + 1, -1)
            np.maximum.at(top, keys[:, 0], keys[:, 1])
            top[0] = 0  # every entry has m >= 1: row 0 is the zero row
            rows = sorted(np.flatnonzero(top >= 0).tolist(), key=lambda m: -top[m])
            counts = [sum(top[m] >= j for m in rows) for j in range(jmax + 1)]
            slot = [-1] * (mmax + 1)
            for i, m in enumerate(rows):
                slot[m] = i
            self._float_terms = (keys, coef, rows, counts, slot)
        return self._float_terms

    def dense_form(self, hbar: float) -> np.ndarray:
        """The float matrix C[m, j] = sum_s A[(m, j, s)] w^(j-s), w = mu / 2 hbar^2.

        Row m holds the coefficients of u^m (row 0 is zero: every entry has
        m >= 1), column j those of z^j, z = v^2; an empty table gives a 1 x 1
        zero matrix. Each entry is converted to a float once per table, w is
        mu / (2 hbar hbar) in floats and its powers are repeated products;
        the sum over s runs in table order. The matrix is kept for the last
        hbar asked for.
        """
        if self._float_form is None or self._float_form[0] != hbar:
            keys, coef, rows, counts, slot = self._float_plan()
            w = float(self.mu) / (2.0 * hbar * hbar)
            wk = [1.0]
            for _ in range(len(counts) - 1):
                wk.append(wk[-1] * w)
            dense = np.zeros((len(slot), len(counts)))
            np.add.at(dense, (keys[:, 0], keys[:, 1]), coef * np.array(wk)[keys[:, 2]])
            self._float_form = (hbar, dense, dense[rows])
        return self._float_form[1]

    def tvalue(self, u, v, hbar: float):
        """Float value of the truncated T(u, v), at a point or on node arrays.

        Horner's scheme on dense_form(hbar), in z = v^2 and then in u. The z
        pass runs on the rows of u-powers that hold entries at once, each
        row joining at its highest power of z; the u pass skips the empty
        rows' additions. Points and arrays run the same float operations,
        so an array evaluation equals the scalar calls element by element;
        arrays broadcast, and a point gives a float. Against the exact T at
        the float u, v and w = mu / 2 hbar^2, and barring underflow, the
        error is at most
        gamma_n * sum over entries |A| w^(j-s) |u|^m v^(2j), with
        gamma_n = n eps / (1 - n eps), eps = 2^-53 and n = 8 J + 2 M + 3 for
        largest powers u^M and v^(2J): 5 J + 1 roundings from the collapse
        into C, J from z^j, 2 J + 1 and 2 M + 1 from the two Horner passes.
        """
        self.dense_form(hbar)
        block = self._float_form[2]  # the rows of the dense form in Horner order
        _, _, _, counts, slot = self._float_plan()
        z = v * v
        p = np.zeros((len(block),) + np.shape(z))
        column = (-1,) + (1,) * np.ndim(z)
        for j in range(len(counts) - 1, -1, -1):
            k = counts[j]
            p[:k] *= z
            p[:k] += block[:k, j].reshape(column)
        t = 0.0
        for m in range(len(slot) - 1, -1, -1):
            t = t * u
            if slot[m] >= 0:
                t = t + p[slot[m]]
        if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
            return t
        return float(t)

    def __eq__(self, other: object) -> bool:
        """Entry-wise equality of the tables (and mass); truncation metadata
        and the potential tag are not part of value identity."""
        if not isinstance(other, GradedKernel):
            return NotImplemented
        return self.A == other.A and self.mu == other.mu

    def __repr__(self) -> str:
        mmax, jmax = self.truncation
        return f"GradedKernel({len(self.A)} entries, mu={self.mu}, Mmax={mmax}, Jmax={jmax})"
