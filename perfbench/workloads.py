"""Seeded job generators for the three benchmark workloads.

A job is one CLI invocation: a subcommand's ``--seed-config`` sample with
some keys overridden. The commutator workload also holds one library job,
a corrupted-table negative control that no config can express.

Every generator takes a ``random.Random`` and returns the jobs of one
round. The mix of subcommands, potential degrees and truncation orders is
fixed per workload; the seed draws coefficients, arrival points, bump
positions and phase points inside cost classes that do not change, so two
seeds give rounds of similar cost. Potentials are exact rationals written
as ``degree:coeff`` tokens, as the config format wants them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("exact_tables", "commutator", "toa_scan")

# The ROADMAP ladder: harmonic, pure quartic, and a sextic with odd terms.
LADDER = ("2:1/2", "4:1", "2:1/2 3:1/3 6:1/7")

# Points of the accessibility scan in toa_quadrature; the generator places
# barrier energies relative to its spacing |q - x| / SCAN_POINTS.
SCAN_POINTS = 4096

NEGATIVE_CONTROL = "negative-control"


@dataclass(frozen=True)
class Job:
    """One unit of work: a CLI subcommand plus its config overrides."""

    id: str
    command: str
    overrides: tuple[tuple[str, str], ...]

    @property
    def config(self) -> dict[str, str]:
        return dict(self.overrides)


def _job(jobs: list[Job], command: str, **overrides) -> None:
    jobs.append(Job("", command, tuple((key, str(value)) for key, value in overrides.items())))


def potential_text(coeffs: dict[int, Fraction]) -> str:
    return " ".join(f"{d}:{c}" for d, c in sorted(coeffs.items()) if c) or "free"


def parse_potential(text: str) -> dict[int, Fraction]:
    """Inverse of potential_text; repeated degrees add up, as in the CLI."""
    out: dict[int, Fraction] = {}
    if text.strip() == "free":
        return out
    for token in text.split():
        deg, coeff = token.split(":")
        out[int(deg)] = out.get(int(deg), Fraction(0)) + Fraction(coeff)
    return {d: c for d, c in out.items() if c}


def _rational(rng: random.Random, top: int = 5, den: int = 6) -> Fraction:
    num = rng.choice([n for n in range(-top, top + 1) if n])
    return Fraction(num, rng.randint(1, den))


def random_polynomial(rng: random.Random, degrees) -> dict[int, Fraction]:
    """Rational polynomial with a seeded nonzero coefficient at each degree.

    The support is fixed by the caller and every coefficient is +-1, 2 or 3
    over 3, 5 or 7, so the table shape and the size of its rationals, and
    with them the cost of a job, hardly depend on the seed.
    """
    return {d: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((3, 5, 7))) for d in degrees}


_MUS = ("1", "1/2", "2")
_SHIFTS = ("1/2", "-1/2")

# Seeded exact_tables slots: (degree, jmax, shifted arrival point, command).
_EXACT_SLOTS = (
    (1, 40, True, "kernel"),
    (2, 40, True, "kernel"),
    (2, 20, False, "classical-limit"),
    (3, 20, False, "kernel"),
    (3, 10, True, "classical-limit"),
    (4, 20, True, "kernel"),
    (4, 10, False, "weyl-compare"),
    (5, 10, True, "kernel"),
    (5, 10, False, "classical-limit"),
    (6, 10, False, "kernel"),
    (6, 10, True, "classical-limit"),
    (3, 10, False, "weyl-compare"),
)


def exact_tables(rng: random.Random) -> list[Job]:
    """kernel, classical-limit and weyl-compare jobs; rational arithmetic only."""
    jobs: list[Job] = []
    for pot in LADDER:
        for jmax in (10, 20, 40):
            _job(jobs, "kernel", potential=pot, jmax=jmax)
            # the sextic classical limit at J=40 would add 5 s to every round
            if jmax < 40 or pot != LADDER[2]:
                _job(jobs, "classical-limit", potential=pot, jmax=jmax, kmax=jmax)
        for kmax in (10, 20):
            _job(jobs, "weyl-compare", potential=pot, kmax=kmax)
    for degree, jmax, shifted, command in _EXACT_SLOTS:
        pot = potential_text(random_polynomial(rng, range(1, degree + 1)))
        extra = {"mu": rng.choice(_MUS)}
        if shifted and command != "weyl-compare":
            extra["x"] = rng.choice(_SHIFTS)
        if command == "weyl-compare":
            _job(jobs, command, potential=pot, kmax=jmax, **extra)
        elif command == "classical-limit":
            _job(jobs, command, potential=pot, jmax=jmax, kmax=jmax, **extra)
        else:
            _job(jobs, command, potential=pot, jmax=jmax, **extra)
    rng.shuffle(jobs)
    return _renumber(jobs)


def commutator(rng: random.Random) -> list[Job]:
    """Commutator jobs on converged tables, a negative control, kernel grids.

    The harmonic job keeps jmax = 8, the cheapest converged table: kernel_eval
    cost grows with the table, so a seeded jmax would move the round time by
    a fifth. The free table has one entry whatever jmax is, so there the
    seed picks it. Quartic commutator jobs are left out: at 45 s each they
    would not fit a run.
    """
    jobs: list[Job] = []
    shift = rng.choice((-0.1, -0.05, 0.0, 0.05))
    bumps = dict(phi_center=shift, phi_halfwidth="1/2", psi_center=round(shift + 0.1, 10), psi_halfwidth="1/2")
    _job(
        jobs, "commutator", potential="free", jmax=rng.randint(8, 12),
        quad_abs_tol="1e-10", threshold="1e-6", **bumps,
    )
    _job(
        jobs, "commutator", potential=f"2:{rng.choice(('1/2', '1/4', '1'))}", jmax=8,
        quad_abs_tol="1e-8", threshold="1e-4", **bumps,
    )
    _job(jobs, NEGATIVE_CONTROL, potential="free", jmax=rng.randint(8, 12), quad_abs_tol="1e-8", **bumps)
    # Kernel grids on the ladder sextic at J=20 (4431 entries); the seed
    # moves each grid's rectangle.
    for _ in range(12):
        lo = round(rng.uniform(-1.0, -0.5), 3)
        hi = round(rng.uniform(0.5, 1.0), 3)
        _job(
            jobs, "grid", grid_kind="kernel", potential=LADDER[2], jmax=20,
            qmin=lo, qmax=hi, nq=6, qpmin=-hi, qpmax=-lo, nqp=6,
        )
    rng.shuffle(jobs)
    return _renumber(jobs)


def _max_gap(coeffs: dict[int, Fraction], q: float, x: float) -> float:
    """max |V(q) - V(q')| over q' between x and q, on a dense sample."""
    n = 2000
    vq = _value(coeffs, q)
    return max(abs(vq - _value(coeffs, x + (q - x) * i / n)) for i in range(n + 1))


def _value(coeffs: dict[int, Fraction], q: float) -> float:
    return sum(float(c) * q**d for d, c in coeffs.items())


def _phase_job(jobs, rng, coeffs, q, x, ratio, mu=1.0):
    """A toa job at q whose convergence ratio mu M_q / p^2 is about `ratio`."""
    gap = _max_gap(coeffs, q, x)
    p = math.sqrt(mu * gap / ratio) * rng.choice((1, -1))
    _job(jobs, "toa", potential=potential_text(coeffs), q=repr(q), p=repr(p), x=repr(x), mu=repr(mu))


def _barrier(rng: random.Random) -> tuple[dict[int, Fraction], float, float, float]:
    """V = a q^2 - b q^4: a barrier of height a^2/4b at q* = sqrt(a/2b)."""
    a = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    b = Fraction(rng.randint(1, 4), rng.randint(2, 8))
    q_star = math.sqrt(float(a) / (2 * float(b)))
    return {2: a, 4: -b}, q_star, float(a * a / (4 * b)), abs(2 * float(a) - 12 * float(b) * q_star**2)


def toa_scan(rng: random.Random) -> list[Job]:
    """toa jobs at seeded phase points, some at barrier peaks, plus toa grids.

    Near a barrier the energy is set by a rule on the potential: H = V* +
    sign * |V''(q*)|/2 * (f h)^2 with h the scan spacing. Below the peak,
    f < 1/2 makes the forbidden zone narrower than the spacing, where the
    scan can miss it. Above the peak f >= 1, where the quadrature meets its
    tolerance.
    """
    jobs: list[Job] = []
    # Every smooth potential has two terms, so all of them cost about the
    # same per evaluation. Points outside the convergence region use the
    # even quartic with x = 0, which they can always reach, so the count of
    # cheap refusals, and with it the median job, does not hinge on the seed.
    smooth = (
        lambda: {1: _rational(rng), 2: abs(_rational(rng))},
        lambda: {2: abs(_rational(rng)), 4: abs(_rational(rng))},
        lambda: {1: _rational(rng), 3: abs(_rational(rng))},
    )
    for i in range(24):
        inside = i < 16
        coeffs = smooth[i % 3 if inside else 1]()
        x = rng.choice((0.0, 0.0, 0.1, -0.2)) if inside else 0.0
        q = round(x + rng.choice((1, -1)) * rng.uniform(0.2, 0.9), 6)
        ratio = rng.uniform(0.1, 0.35) if inside else rng.uniform(0.7, 1.5)
        _phase_job(jobs, rng, coeffs, q, x, ratio, mu=rng.choice((1.0, 0.5, 2.0)))
    for sign, f in [(1, 1), (1, 4), (1, 16), (-1, 1), (-1, 4), (-1, 16), (-1, 0.05), (-1, 0.2)] * 2:
        coeffs, q_star, v_star, curvature = _barrier(rng)
        q = q_star * rng.uniform(1.1, 1.35)
        h = q / SCAN_POINTS
        energy = v_star + sign * curvature / 2 * (f * h) ** 2
        p = math.sqrt(2 * (energy - _value(coeffs, q)))
        _job(jobs, "toa", potential=potential_text(coeffs), q=repr(q), p=repr(p), x="0")
    # The confirmed defect: an inverted parabola whose peak at q = 8193/16384
    # falls between scan points, with H one part in 2.5e8 below it.
    for scale, offset in ((10**6, 8193), (rng.choice((5 * 10**5, 2 * 10**6)), rng.choice((8189, 8197, 8201)))):
        peak = Fraction(offset, 16384)
        coeffs = {2: Fraction(-scale), 1: 2 * scale * peak}
        energy = float(scale * peak * peak) - 1e-3 * scale / 10**6
        p = math.sqrt(2 * (energy - _value(coeffs, 1.0)))
        _job(jobs, "toa", potential=potential_text(coeffs), q="1", p=repr(p), x="0")
    for _ in range(3):
        coeffs, q_star, v_star, _ = _barrier(rng)
        p_top = math.sqrt(2 * v_star)
        _job(
            jobs, "grid", grid_kind="toa", potential=potential_text(coeffs),
            qmin=repr(0.5 * q_star), qmax=repr(1.5 * q_star), nq=6,
            pmin=repr(0.3 * p_top), pmax=repr(1.3 * p_top), np=6,
        )
    rng.shuffle(jobs)
    return _renumber(jobs)


def _renumber(jobs: list[Job]) -> list[Job]:
    return [Job(f"{i:03d}-{job.command}", job.command, job.overrides) for i, job in enumerate(jobs)]


GENERATORS = {"exact_tables": exact_tables, "commutator": commutator, "toa_scan": toa_scan}


def generate(workload: str, seed: int) -> list[Job]:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
