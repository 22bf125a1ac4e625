"""Oracles: judge each job's exit code and output without trusting the code path it ran.

- exact_tables: tables parse back `==` to the harmonic, quartic or linear
  closed chains where one applies; every table passes boundary_check, has
  pde_residual >= 2J+2 and an s = 0 slice `==` classical_term (its own
  recurrence). Classical series are rebuilt by an iteration written here.
- commutator: residual below threshold and within its error budget; the
  corrupted-table negative control must read above 0.5; kernel grids match
  a float evaluation of the table written here.
- toa_scan: accessibility, convergence and the expected exit code come from
  mpmath root isolation of V' on [x, q]; values must match mpmath.quad.

A verdict is "ok", "failed" (raised, refused or wrong exit code) or "wrong"
(the program emitted a number, table or verdict the oracle rejects).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import mpmath
import numpy as np

from supratoa.algebra import GradedKernel, QPoly
from supratoa.classical_toa import Potential
from supratoa.kernel_solver import (
    KernelRequest,
    boundary_check,
    classical_term,
    default_mmax,
    pde_residual,
    solve_kernel_anharmonic,
    solve_kernel_general,
    solve_kernel_harmonic,
    solve_kernel_linear,
)

from .workloads import NEGATIVE_CONTROL, Job, parse_potential

# Accessibility margin of toa_quadrature: H - V must exceed this times max(1, |H|).
ACCESS_MARGIN = 1e-12


class Wrong(Exception):
    """The job's output contradicts the oracle."""


class Failed(Exception):
    """The job did not produce what was due (raised, refused, wrong exit code)."""


def judge(job: Job, code: int, output: str | None, stderr: str) -> tuple[str, str]:
    """(verdict, reason) for one job result."""
    try:
        _ORACLES[job.command](job, code, output, stderr)
    except Wrong as exc:
        return "wrong", str(exc)
    except Failed as exc:
        return "failed", str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "wrong", f"unparseable output: {exc!r}"
    return "ok", ""


def _require(cond: bool, message: str, exc=Wrong) -> None:
    if not cond:
        raise exc(message)


def _exit(code: int, expected: int, stderr: str) -> None:
    if code != expected:
        raise Failed(f"exit {code}, expected {expected}: {stderr.strip()[:200]}")


# ---------------------------------------------------------------- exact side

def shift(coeffs: dict[int, Fraction], x: Fraction) -> dict[int, Fraction]:
    """Coefficients of t -> V(t + x), by the binomial theorem."""
    out: dict[int, Fraction] = {}
    for d, c in coeffs.items():
        for i in range(d + 1):
            out[i] = out.get(i, Fraction(0)) + c * math.comb(d, i) * x ** (d - i)
    return {d: c for d, c in out.items() if c}


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _eval(p: list[Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


def classical_iterates(coeffs: dict[int, Fraction], mu: Fraction, x: Fraction, kmax: int) -> list[dict[int, Fraction]]:
    """(-1)^k P_k for k <= kmax: P_0 = -mu (q - x), P_k = (2k-1) mu int_x^q V' P_{k-1}."""
    deg = max(coeffs, default=0)
    vprime = [Fraction(d) * coeffs.get(d, Fraction(0)) for d in range(1, deg + 1)] or [Fraction(0)]
    current = [mu * x, -mu]
    out = []
    for k in range(kmax + 1):
        if k:
            prod = _poly_mul(vprime, current)
            anti = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(prod)]
            anti[0] = -_eval(anti, x)
            current = [c * (2 * k - 1) * mu for c in anti]
        out.append({d: c * (-1) ** k for d, c in enumerate(current) if c})
    return out


def _pairs(pairs) -> dict[int, Fraction]:
    return {int(d): Fraction(c) for d, c in pairs}


def _closed_chain(coeffs: dict[int, Fraction], mu: Fraction, jmax: int) -> GradedKernel | None:
    """The specialised solver that applies to this potential, if any."""
    terms = {d: c for d, c in coeffs.items() if d >= 1}
    if set(terms) == {4}:
        return solve_kernel_anharmonic(terms[4], mu, jmax)
    if set(terms) <= {1, 2}:
        a, a2 = terms.get(1, Fraction(0)), terms.get(2, Fraction(0))
        if not a and a2 > 0:
            square = 2 * mu * a2  # (mu omega)^2
            root = Fraction(math.isqrt(square.numerator), math.isqrt(square.denominator))
            if root * root == square:
                return solve_kernel_harmonic(root, jmax, mu)
        return solve_kernel_linear(a, 2 * a2, mu, jmax)
    return None


def verify_table(entries: dict, coeffs: dict[int, Fraction], mu: Fraction, jmax: int) -> None:
    """Raise Wrong unless the table is the kernel of `coeffs` truncated at jmax."""
    chain = _closed_chain(coeffs, mu, jmax)
    if chain is not None:
        _require(entries == chain.A, "table differs from the closed-chain solver")
    degree = max(coeffs, default=0)
    K = GradedKernel(entries, mu, (default_mmax(degree, jmax), jmax), potential=QPoly(coeffs))
    V = Potential(QPoly(coeffs))
    report = boundary_check(K)
    _require(report.passed, f"boundary check: {report.failures}")
    order = pde_residual(K, V)
    _require(order is None or order >= 2 * jmax + 2, f"pde residual order {order} < {2 * jmax + 2}")
    _require(K.s_slice(0) == classical_term(V, mu, jmax), "s = 0 slice differs from classical_term")


def _inputs(job: Job):
    cfg = job.config
    coeffs = parse_potential(cfg.get("potential", "free"))
    return coeffs, Fraction(cfg.get("mu", "1")), Fraction(cfg.get("x", "0"))


def _kernel(job: Job, code: int, output: str | None, stderr: str) -> None:
    coeffs, mu, x = _inputs(job)
    jmax = int(job.config["jmax"])
    _exit(code, 0, stderr)
    data = json.loads(output)
    effective = shift(coeffs, x)
    _require(_pairs(data["potential"]) == effective, "header potential is not V(t + x)")
    _require(Fraction(data["mu"]) == mu and data["jmax"] == jmax, "header mu/jmax mismatch")
    entries = {(e["m"], e["j"], e["s"]): Fraction(e["coeff"]) for e in data["entries"]}
    _require(len(entries) == len(data["entries"]), "duplicate table entries")
    verify_table(entries, effective, mu, jmax)


def _classical_limit(job: Job, code: int, output: str | None, stderr: str) -> None:
    coeffs, mu, x = _inputs(job)
    kmax = min(int(job.config["kmax"]), int(job.config["jmax"]))
    _exit(code, 0, stderr)
    data = json.loads(output)
    expected = [shift(p, x) for p in classical_iterates(coeffs, mu, x, kmax)]
    _require(len(data["terms"]) == kmax + 1, "wrong number of series terms")
    for k, row in enumerate(data["terms"]):
        _require(row["k"] == k and row["equal"] is True, f"term {k} not reported equal")
        _require(_pairs(row["classical"]) == expected[k], f"classical term {k} is wrong")
        _require(_pairs(row["wigner"]) == expected[k], f"Wigner term {k} is wrong")
    linear = max(coeffs, default=0) <= 2
    _require(data["linear_system"] is linear and data["all_match"] is True, "flags wrong")
    _require((not data["hbar2_residual"]) == linear, "hbar^2 remainder present iff nonlinear")


def _weyl_compare(job: Job, code: int, output: str | None, stderr: str) -> None:
    coeffs, _, _ = _inputs(job)
    _exit(code, 0, stderr)
    data = json.loads(output)
    linear = max(coeffs, default=0) <= 2
    _require(data["weyl_equals_classical"] is True, "Weyl map differs from classical term")
    _require(data["linear_system"] is linear, "linear_system flag wrong")
    _require(data["full_minus_weyl_nonzero"] is not linear, "full - Weyl must vanish iff linear")
    _require((data["s_ge_1_entries"] == 0) == linear, "s >= 1 entries present iff nonlinear")


# ---------------------------------------------------------------- float side

def _commutator(job: Job, code: int, output: str | None, stderr: str) -> None:
    threshold = float(job.config["threshold"])
    _exit(code, 0, stderr)
    data = json.loads(output)
    residual, budget = data["residual"], data["error_budget"]
    _require(math.isfinite(residual) and math.isfinite(budget), "non-finite residual or budget")
    _require(residual < threshold, f"residual {residual:.3g} >= threshold {threshold:.3g}")
    _require(residual <= budget, f"residual {residual:.3g} above its error budget {budget:.3g}")
    _require(data["passed"] is True, "report not marked passed")


def _negative_control(job: Job, code: int, output: str | None, stderr: str) -> None:
    _exit(code, 0, stderr)
    residual = json.loads(output)["residual"]
    _require(residual > 0.5, f"corrupted table passed: residual {residual:.3g} <= 0.5")


_TABLES: dict[tuple, dict] = {}


def _verified_table(coeffs: dict[int, Fraction], mu: Fraction, jmax: int) -> dict:
    key = (tuple(sorted(coeffs.items())), mu, jmax)
    if key not in _TABLES:
        table = solve_kernel_general(KernelRequest(Potential(QPoly(coeffs)), mu, jmax)).A
        verify_table(table, coeffs, mu, jmax)
        _TABLES[key] = table
    return _TABLES[key]


def _csv(output: str, header: str) -> np.ndarray:
    lines = output.strip().splitlines()
    _require(lines[0] == header, f"CSV header {lines[0]!r}")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).reshape(-1, len(header.split(",")))


def _axis(cfg: dict, lo: str, hi: str, n: str, defaults: tuple[float, float, int]) -> np.ndarray:
    def num(key, default):
        return float(Fraction(cfg[key])) if key in cfg else default

    return np.linspace(num(lo, defaults[0]), num(hi, defaults[1]), int(cfg.get(n, defaults[2])))


def _grid(job: Job, code: int, output: str | None, stderr: str) -> None:
    cfg = job.config
    _exit(code, 0, stderr)
    qs = _axis(cfg, "qmin", "qmax", "nq", (-1.0, 1.0, 50))
    if cfg["grid_kind"] == "kernel":
        _kernel_grid(job, qs, _csv(output, "q,qp,re,im"))
    else:
        _toa_grid(job, qs, _csv(output, "q,p,toa"))


def _kernel_grid(job: Job, qs: np.ndarray, rows: np.ndarray) -> None:
    coeffs, mu, x = _inputs(job)
    hbar = float(Fraction(job.config.get("hbar", "1")))
    table = _verified_table(shift(coeffs, x), mu, int(job.config["jmax"]))
    qps = _axis(job.config, "qpmin", "qpmax", "nqp", (-1.0, 1.0, 50))
    grid_q, grid_qp = np.meshgrid(qs, qps, indexing="ij")
    _require(rows.shape[0] == grid_q.size, "wrong number of grid rows")
    _require(np.array_equal(rows[:, 0], grid_q.ravel()) and np.array_equal(rows[:, 1], grid_qp.ravel()), "grid axes")
    keys = np.array(list(table), dtype=float)
    coef = np.array([float(c) for c in table.values()])
    w = float(mu) / (2 * hbar * hbar)
    u = rows[:, 0:1] + rows[:, 1:2]
    v = rows[:, 0:1] - rows[:, 1:2]
    terms = coef * w ** (keys[:, 1] - keys[:, 2]) * u ** keys[:, 0] * v ** (2 * keys[:, 1])
    expected = -float(mu) / hbar * terms.sum(axis=1) * np.sign(v[:, 0])
    scale = float(mu) / hbar * np.abs(terms).sum(axis=1)
    _require(np.all(rows[:, 2] == 0.0), "kernel values must be purely imaginary")
    bad = np.abs(rows[:, 3] - expected) > 1e-12 * scale + 1e-300
    _require(not bad.any(), f"{int(bad.sum())} kernel values off the table's own value")


def _mpf(c: Fraction):
    return mpmath.mpf(c.numerator) / c.denominator


class Arrival:
    """mpmath analysis of one phase point: accessibility, ratio, arrival time."""

    def __init__(self, coeffs: dict[int, Fraction], mu: float, x: float, q: float, p: float):
        mpmath.mp.dps = 30
        self.coeffs = coeffs
        lo, hi = sorted((x, q))
        crit = self._critical_points(lo, hi)
        self.breaks = sorted({lo, hi, *crit})
        energy = mpmath.mpf(p) ** 2 / (2 * mpmath.mpf(mu)) + self.V(q)
        self.energy = energy
        gap = min(energy - self.V(c) for c in self.breaks)
        self.accessible = gap > ACCESS_MARGIN * max(1, abs(energy))
        self.ratio = float(mu * max(abs(self.V(q) - self.V(c)) for c in self.breaks) / mpmath.mpf(p) ** 2)
        self.mu, self.x, self.q, self.p = mu, x, q, p

    def V(self, t):
        t = mpmath.mpf(t)
        return mpmath.fsum(_mpf(c) * t**d for d, c in self.coeffs.items())

    def _critical_points(self, lo: float, hi: float) -> list:
        """Real roots of V' strictly inside (lo, hi)."""
        deg = max(self.coeffs, default=0)
        if deg < 2 or lo == hi:
            return []
        dcoef = [d * _mpf(self.coeffs.get(d, Fraction(0))) for d in range(deg, 0, -1)]
        roots = [-dcoef[1] / dcoef[0]] if deg == 2 else mpmath.polyroots(dcoef, maxsteps=200, extraprec=60)
        tiny = mpmath.mpf(10) ** -20
        return [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < tiny and lo < mpmath.re(r) < hi]

    def time(self) -> float:
        if self.q == self.x:
            return 0.0
        integral = mpmath.quad(lambda t: 1 / mpmath.sqrt(self.energy - self.V(t)), self.breaks)
        if self.q < self.x:
            integral = -integral
        return float(-mpmath.sign(self.p) * mpmath.sqrt(mpmath.mpf(self.mu) / 2) * integral)


def _close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= max(1e3 * tol, 1e-9 * abs(ref))


def _toa(job: Job, code: int, output: str | None, stderr: str) -> None:
    cfg = job.config
    coeffs, mu, x = _inputs(job)
    q, p = float(Fraction(cfg["q"])), float(Fraction(cfg["p"]))
    tol = float(Fraction(cfg.get("quad_abs_tol", "1e-10")))
    point = Arrival(coeffs, float(mu), float(x), q, p)
    if not point.accessible:
        _exit(code, 2, stderr)
        _require(not output, "report emitted for an unreachable phase point")
        return
    converges = point.ratio < 0.5
    _exit(code, 0 if converges else 2, stderr)
    data = json.loads(output)
    _require(data["converges"] is converges, f"converges={data['converges']}, ratio {point.ratio:.6g}")
    _require(abs(data["convergence_ratio"] - point.ratio) <= 1e-6 * point.ratio, "convergence ratio")
    _require(data["verified"] is converges, "verified flag")
    ref = point.time()
    _require(_close(data["quadrature_value"], ref, tol), f"quadrature {data['quadrature_value']!r} vs {ref!r}")


def _toa_grid(job: Job, qs: np.ndarray, rows: np.ndarray) -> None:
    cfg = job.config
    coeffs, mu, x = _inputs(job)
    tol = float(Fraction(cfg.get("quad_abs_tol", "1e-10")))
    ps = _axis(cfg, "pmin", "pmax", "np", (0.5, 1.5, 50))
    grid_q, grid_p = np.meshgrid(qs, ps, indexing="ij")
    _require(rows.shape[0] == grid_q.size, "wrong number of grid rows")
    _require(np.array_equal(rows[:, 0], grid_q.ravel()) and np.array_equal(rows[:, 1], grid_p.ravel()), "grid axes")
    for q, p, value in rows:
        point = Arrival(coeffs, float(mu), float(x), q, p)
        if not point.accessible:
            _require(math.isnan(value), f"value at unreachable ({q!r}, {p!r})")
        else:
            _require(not math.isnan(value), f"NaN at reachable ({q!r}, {p!r})")
            _require(_close(value, point.time(), tol), f"toa at ({q!r}, {p!r})")


_ORACLES = {
    "kernel": _kernel,
    "classical-limit": _classical_limit,
    "weyl-compare": _weyl_compare,
    "commutator": _commutator,
    NEGATIVE_CONTROL: _negative_control,
    "grid": _grid,
    "toa": _toa,
}
