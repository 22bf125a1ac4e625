"""Exact arithmetic substrate: rationals, q-polynomials, and graded series tables.

Everything stored in this module is exact; all recurrence and transform work
happens on Rational values, or on integer numerators over a common
denominator, so that equality tests between independently computed tables
are meaningful. The one float path is the evaluation of a
polynomial or a kernel table at a point or on a node array, which reads
float terms converted once per object: a polynomial's coefficients, or a
kernel's exact cells at one hbar, each rounded once. numpy is imported by the
functions of that path, so the exact layer starts without it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .errors import QuadratureFailure

# Arbitrary-precision rational scalar. fractions.Fraction already guarantees
# lowest terms, positive denominator, exact arithmetic, and errors on
# division by zero, which is the full contract needed here.
Rational = Fraction

RationalLike = Rational | int | str

if TYPE_CHECKING:
    import numpy as np


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
        import numpy as np

        terms = self._floats()
        if not terms:
            return np.zeros(x.shape) if isinstance(x, np.ndarray) else 0.0
        # np.float_power calls libm's pow per element, as x**d does on a float;
        # np.power may take a SIMD route whose last bit differs
        total = 0.0
        for d, c in terms:
            total += c * np.float_power(x, d)
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
    """Return the polynomial t -> p(t + x), expanded exactly.

    A Taylor shift on integers: with x = a/b, N = deg p and D the lcm of
    p's denominators, b^N D p(t + x) = sum_d n_d b^(N-d) (s + a)^d for the
    integer numerators n_d = D c_d and s = b t, which Horner's scheme in s
    expands on ints. The coefficient of t^i is that of s^i over
    b^(N-i) D: one Fraction per output coefficient. The degrees are in
    the order in which a term-by-term binomial expansion over p's
    coefficients first meets them: each coefficient's degree and the
    degrees below it not met before, highest first.
    """
    x = Fraction(x)
    if not x or not p.coeffs:
        return p
    a, b = x.numerator, x.denominator
    top = p.degree()
    D = math.lcm(*(c.denominator for c in p.coeffs.values()))
    nums = [0] * (top + 1)
    for d, c in p.coeffs.items():
        nums[d] = c.numerator * (D // c.denominator)
    bpow = [1]
    for _ in range(top):
        bpow.append(bpow[-1] * b)
    # Horner in s: r <- r (s + a) + n_d b^(N-d), for d from N - 1 down to 0
    r = [nums[top]]
    for d in range(top - 1, -1, -1):
        r.append(0)
        for i in range(len(r) - 1, 0, -1):
            r[i] = a * r[i] + r[i - 1]
        r[0] = a * r[0] + nums[d] * bpow[top - d]
    order: list[int] = []
    for d in p.coeffs:
        order.extend(range(d, len(order) - 1, -1))
    return QPoly.trusted({i: Fraction(r[i], bpow[top - i] * D) for i in order if r[i]})


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

    The table is held as layers of rows: layers[j] = ({m: {s: n}}, D_j),
    entry (m, j, s) being the integer n over the layer's common denominator
    D_j, the least one, and row m of layer j holding the layer's entries at
    that power of u. That is the form the general solver fills, with rows
    and their grades in ascending order. __init__ builds the layers from
    entries, D_j the lcm of the layer's denominators, rows in the order
    their first entry is given and grades in the order given; A is the same
    table as a dict (m, j, s) -> Fraction, built on each access, and
    cells(hbar) the cells that float evaluations read.

    Solver outputs additionally satisfy A[(m, 0, 0)] = 1/4 when m = 1 and 0
    otherwise; that is a property of solutions (verified by boundary_check),
    not of the container, so deliberately corrupted tables can be built for
    negative controls.

    Instances are immutable by convention; use replace_entry to derive
    modified copies.
    """

    __slots__ = ("layers", "mu", "truncation", "potential")

    def __init__(
        self,
        entries: Mapping[tuple[int, int, int], RationalLike] | Iterable[tuple[tuple[int, int, int], RationalLike]],
        mu: RationalLike,
        truncation: tuple[int, int],
        potential: QPoly | None = None,
    ):
        items = entries.items() if isinstance(entries, Mapping) else entries
        fractions: dict[int, dict[int, dict[int, Rational]]] = {}
        for (m, j, s), c in items:
            m, j, s = int(m), int(j), int(s)
            if m < 1 or j < 0 or s < 0 or s > max(j - 1, 0):
                raise ValueError(f"invalid kernel index (m={m}, j={j}, s={s})")
            c = Fraction(c)
            if c:
                rows = fractions.get(j)
                if rows is None:
                    rows = fractions[j] = {}
                row = rows.get(m)
                if row is None:
                    row = rows[m] = {}
                row[s] = c
        layers = []
        for j in range(max(fractions, default=-1) + 1):
            rows = fractions.get(j, {})
            D = math.lcm(*(c.denominator for row in rows.values() for c in row.values()))
            scaled = {m: {s: c.numerator * (D // c.denominator) for s, c in row.items()} for m, row in rows.items()}
            layers.append((scaled, D))
        self.layers = layers
        self.mu = Fraction(mu)
        mmax, jmax = truncation
        self.truncation = (int(mmax), int(jmax))
        self.potential = potential

    @classmethod
    def from_layers(
        cls,
        layers: list[tuple[dict[int, dict[int, int]], int]],
        mu: RationalLike,
        truncation: tuple[int, int],
        potential: QPoly | None = None,
    ) -> "GradedKernel":
        """A table given as layers of rows of nonzero integer numerators at valid indices.

        Each layer must be over its minimal common denominator D_j, with no
        empty row, as the solver's are: equality compares the layers as they
        are. The list is taken as it is, neither copied nor checked: for
        solvers that build it themselves. Every other caller goes through
        __init__.
        """
        kernel = cls((), mu, truncation, potential)
        kernel.layers = layers
        return kernel

    @property
    def A(self) -> dict[tuple[int, int, int], Rational]:
        """The table as (m, j, s) -> Fraction, in layer, row and grade order."""
        return {
            (m, j, s): Fraction(n, D)
            for j, (rows, D) in enumerate(self.layers)
            for m, row in rows.items()
            for s, n in row.items()
        }

    def s_slice(self, s: int) -> dict[tuple[int, int], Rational]:
        """The (m, j) -> coefficient map at a fixed hbar grade."""
        return {
            (m, j): Fraction(row[s], D)
            for j, (rows, D) in enumerate(self.layers)
            for m, row in rows.items()
            if s in row
        }

    def replace_entry(self, m: int, j: int, s: int, coeff: RationalLike) -> "GradedKernel":
        """New table with one entry overridden (used for negative controls); 0 removes it."""
        return GradedKernel({**self.A, (m, j, s): coeff}, self.mu, self.truncation, self.potential)

    def cells(self, hbar: float) -> "KernelCells":
        """The table at one hbar, by exact collapse; a new KernelCells on each call.

        With w = mu / 2 hbar^2 = a / b (hbar the rational the float is),
        cell (m, j) is sum_s n a^(j-s) b^s over D_j b^j, row m of layer j
        summed on integers. Cells that cancel are left out.
        """
        w = hbar_weight(self.mu, hbar)
        a, b = w.numerator, w.denominator
        apow, bpow = [1], [1]
        for _ in self.layers[1:]:
            apow.append(apow[-1] * a)
            bpow.append(bpow[-1] * b)
        layers = []
        for j, (rows, D) in enumerate(self.layers):
            weights = [apow[j - s] * bpow[s] for s in range(max(j, 1))]
            sums = {m: sum(n * weights[s] for s, n in row.items()) for m, row in rows.items()}
            layers.append(({m: n for m, n in sums.items() if n}, D * bpow[j]))
        return KernelCells(layers, self.mu, hbar)

    def _nonempty_layers(self) -> list[tuple[dict[int, dict[int, int]], int]]:
        """The layers up to the last one that holds an entry."""
        top = len(self.layers)
        while top and not self.layers[top - 1][0]:
            top -= 1
        return self.layers[:top]

    def __eq__(self, other: object) -> bool:
        """Entry-wise equality of the tables (and mass); truncation metadata
        and the potential tag are not part of value identity.

        Each layer is over its minimal D_j and holds no empty row, so two
        tables are equal exactly when their layers are, once trailing empty
        layers (which the solver keeps up to Jmax) are dropped; dict
        equality ignores the order of rows and grades.
        """
        if not isinstance(other, GradedKernel):
            return NotImplemented
        return self.mu == other.mu and self._nonempty_layers() == other._nonempty_layers()

    def __repr__(self) -> str:
        mmax, jmax = self.truncation
        entries = sum(len(row) for rows, _ in self.layers for row in rows.values())
        return f"GradedKernel({entries} entries, mu={self.mu}, Mmax={mmax}, Jmax={jmax})"


def hbar_weight(mu: RationalLike, hbar: float) -> Rational:
    """w = mu / 2 hbar^2, exact, with hbar the rational the float is."""
    if not hbar > 0:
        raise ValueError("hbar must be positive")
    return Fraction(mu) / (2 * Fraction(hbar) ** 2)


def _cell_float(n: int, D: int, m: int, j: int) -> float:
    """Cell (m, j) = n / D rounded once, or QuadratureFailure naming it beyond the float range."""
    try:
        return n / D
    except OverflowError:
        raise QuadratureFailure(f"kernel cell (m, j) = ({m}, {j}) is beyond the float range") from None


class KernelCells:
    """The kernel factor at one hbar: T(u, v) = sum C[m, j] u^m v^(2j).

    C[m, j] = sum_s A[(m, j, s)] w^(j-s) with w = mu / 2 hbar^2, hbar the
    rational the float is. The cells are exact and held like a table's
    layers: layers[j] = ({m: n}, D_j), cell (m, j) being n / D_j, with no
    zero cell. solve_kernel_at_hbar fills them directly, and
    GradedKernel.cells collapses a graded table into them; C is the same
    cells as a dict (m, j) -> Fraction. The cells hold their mu and their
    hbar, which must be positive. Every float evaluation of a kernel runs
    here: each cell is rounded once, and Horner's scheme reads the rounded
    cells.
    """

    __slots__ = ("layers", "mu", "hbar", "_float_form")

    def __init__(self, layers: list[tuple[dict[int, int], int]], mu: RationalLike, hbar: float):
        if not hbar > 0:
            raise ValueError("hbar must be positive")
        self.layers = layers
        self.mu = Fraction(mu)
        self.hbar = hbar
        self._float_form: tuple | None = None

    @property
    def C(self) -> dict[tuple[int, int], Rational]:
        """The cells as (m, j) -> Fraction, in layer order."""
        return {(m, j): Fraction(n, D) for j, (nums, D) in enumerate(self.layers) for m, n in nums.items()}

    def _floats(self) -> tuple:
        """(dense, block, counts, slot), built on the first float evaluation.

        dense[m, j] is cell (m, j) rounded once (n / D_j, Python's correctly
        rounded integer division); row 0 is zero, since every cell has
        m >= 1, and an empty table gives a 1 x 1 zero matrix. block holds
        the rows of the powers m of u that hold cells, ordered by their
        highest power j of z = v^2, highest first, and the zero row m = 0
        (its addition gives every result, an empty table's too, the
        broadcast shape of u and v); counts[j], how many of those rows
        reach z^j (a prefix); and slot[m], row m's place in that order, or
        -1 when it has no cell. A cell beyond the float range raises
        QuadratureFailure naming it.
        """
        if self._float_form is None:
            import numpy as np

            top = {0: 0}  # row m -> its highest j
            ms, js, values = [], [], []
            for j, (nums, D) in enumerate(self.layers):
                try:
                    values += [n / D for n in nums.values()]
                except OverflowError:
                    for m, n in nums.items():
                        _cell_float(n, D, m, j)  # names the first cell beyond the float range
                ms += nums
                js += [j] * len(nums)
                top.update(dict.fromkeys(nums, j))
            dense = np.zeros((max(top) + 1, max(js, default=0) + 1))
            dense[ms, js] = values
            rows = sorted(sorted(top), key=lambda m: -top[m])
            counts = [0] * dense.shape[1]  # rows topping out at z^j, then summed from the top down
            for j in top.values():
                counts[j] += 1
            for j in range(len(counts) - 2, -1, -1):
                counts[j] += counts[j + 1]
            slot = [-1] * len(dense)
            for i, m in enumerate(rows):
                slot[m] = i
            self._float_form = (dense, dense[rows], counts, slot)
        return self._float_form

    def dense_form(self) -> np.ndarray:
        """The float matrix C[m, j]: row m the coefficients of u^m, column j those of z^j."""
        return self._floats()[0]

    def tvalue(self, u, v):
        """Float value of the truncated T(u, v), at a point or on node arrays.

        Horner's scheme on the rounded cells, in z = v^2 and then in u. The
        z pass runs on the rows of u-powers that hold cells at once, each
        row joining at its highest power of z; the u pass skips the empty
        rows' additions. Points and arrays run the same float operations,
        so an array evaluation equals the scalar calls element by element;
        arrays broadcast, and a point gives a float. Against the exact T at
        the float u, v and w = mu / 2 hbar^2, and barring underflow, the
        error is at most
        gamma_n * sum over entries |A| w^(j-s) |u|^m v^(2j), with
        gamma_n = n eps / (1 - n eps), eps = 2^-53 and n = 3 J + 2 M + 3 for
        largest powers u^M and v^(2J): one rounding per cell, J from z^j,
        2 J + 1 and 2 M + 1 from the two Horner passes.
        """
        import numpy as np

        _, block, counts, slot = self._floats()
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
        """Cell-wise equality, with mass and hbar."""
        if not isinstance(other, KernelCells):
            return NotImplemented
        return self.C == other.C and self.mu == other.mu and self.hbar == other.hbar

    def __repr__(self) -> str:
        cells = sum(len(nums) for nums, _ in self.layers)
        return f"KernelCells({cells} cells, mu={self.mu}, hbar={self.hbar!r})"
