"""Write src/supratoa/_rules.py, the nested quadrature chain G64 < K129 < P259 < P519.

Run from the repository root (mpmath and numpy; about a minute on a
2-vCPU VM):

    PYTHONPATH=src:tests python tests/make_rules.py          # rewrite the module
    PYTHONPATH=src:tests python tests/make_rules.py --check  # compare; exit 1 if it differs

G64 and K129 are rule_oracle.gauss_kronrod(64), bit for bit: the first
level of the chain the package held before its rules became constants.
Each further rule adds M = N + 1 nodes to the N of the one before
(Patterson, Math. Comp. 22, 1968): the roots of the polynomial F of degree
M orthogonal to every lower degree under the weight prod (x - z) over the
old nodes z, computed in mpmath at DPS digits with the old nodes taken as
the exact binary values the module holds. The rule on both sets, with its
interpolatory weights, integrates polynomials of degree N + 2M - 1
exactly. The script refuses a rule whose new nodes are not real, do not
interlace with the old ones in (-1, 1), or whose weights are not all
positive, and checks exactness in DPS digits before it rounds anything to
floats. As a check of the method, the extension of G64 found here must
agree with the oracle's K129 to 3e-16 in the nodes and 5e-15 relative in
the weights.
"""

from __future__ import annotations

import argparse
import difflib
import sys
import time
from pathlib import Path

import mpmath as mp
import numpy as np

from rule_oracle import gauss_kronrod

DPS = 60
TARGET = Path(__file__).resolve().parents[1] / "src" / "supratoa" / "_rules.py"
PER_LINE = 3

HEADER = '''"""Nodes and weights of the nested quadrature chain G64 < K129 < P259 < P519 on [-1, 1].

Written by tests/make_rules.py; do not edit. To regenerate it, or to check
it against a fresh computation (exit 1 on a difference), run from the
repository root:

    PYTHONPATH=src:tests python tests/make_rules.py [--check]

Each rule holds the nodes of the one before it and adds new ones that
interlace with them: G64 is the 64-point Gauss-Legendre rule, K129 its
Gauss-Kronrod extension (both bit for bit the rule that Laurie's
recurrence gives in floats, tests/rule_oracle.py), and P259 and P519 the
Kronrod-Patterson extensions of K129 and P259, computed in mpmath at
{dps} digits and rounded to the nearest float. A rule of N + M nodes
extending one of N integrates polynomials of degree N + 2M - 1 exactly.

Every rule is symmetric about 0, so each is stored by its half x >= 0, as
hex floats in increasing x: NODES the nodes it adds (all 64 for G64),
WEIGHTS the weights of all its nodes.
"""

'''


def legendre(n: int, x):
    """P_0(x), ..., P_n(x) by the three-term recurrence."""
    p = [mp.mpf(1), x]
    for k in range(1, n):
        p.append(((2 * k + 1) * x * p[k] - k * p[k - 1]) / (k + 1))
    return p[: n + 1]


def gauss_legendre(n: int):
    """Nodes x > 0 and weights of the n-node Gauss-Legendre rule (n even), by Newton's iteration from numpy's."""
    start, _ = np.polynomial.legendre.leggauss(n)
    nodes, weights = [], []
    for x0 in start[n // 2 :].tolist():
        x = mp.mpf(x0)
        for _ in range(4):
            *_, p_prev, p = legendre(n, x)
            dp = n * (x * p - p_prev) / (x * x - 1)
            x -= p / dp
        *_, p_prev, p = legendre(n, x)
        dp = n * (x * p - p_prev) / (x * x - 1)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


def full(half):
    """The sorted nodes of a symmetric rule from its nodes x >= 0."""
    return [-x for x in reversed(half) if x] + list(half)


def node_poly(half, x):
    """prod (x - z) over the symmetric rule with nodes half (x >= 0)."""
    out = x if half[0] == 0 else mp.mpf(1)
    for z in half:
        if z:
            out *= x * x - z * z
    return out


def extend(old):
    """The nodes x >= 0 of the Patterson extension of the symmetric rule with nodes old (x >= 0).

    F = P_M + sum_(j < M) c_j P_j has the parity of M, so it solves the
    conditions integral prod (x - z) F P_k = 0 for odd k < M, the others
    holding by parity; the integrals are a Gauss-Legendre sum exact at
    their degree. Its roots are found one per gap between old nodes and
    +-1, by Newton's iteration kept inside the gap; a gap without a sign
    change raises ValueError.
    """
    n = len(full(old))
    m = n + 1
    gl_x, gl_w = gauss_legendre(2 * ((n + 2 * m) // 4 + 1))
    unknown = list(range(m % 2, m, 2))
    tests = list(range(1, m, 2))
    table = [legendre(m, x) for x in gl_x]
    weight = [w * node_poly(old, x) for x, w in zip(gl_x, gl_w)]
    cols = {j: [p[j] for p in table] for j in [*unknown, m]}
    rows = []
    for k in tests:
        u = [w * p[k] for w, p in zip(weight, table)]
        rows.append([mp.fdot(u, cols[j]) for j in [*unknown, m]])
    a = mp.matrix([r[:-1] for r in rows])
    c = mp.lu_solve(a, mp.matrix([-r[-1] for r in rows]))
    coeffs = dict(zip(unknown, c))
    coeffs[m] = mp.mpf(1)

    def f_df(x):
        p_prev, p, dp_prev, dp = mp.mpf(0), mp.mpf(1), mp.mpf(0), mp.mpf(0)
        f = df = mp.mpf(0)
        for j in range(m + 1):
            if j in coeffs:
                f += coeffs[j] * p
                df += coeffs[j] * dp
            p_prev, p, dp_prev, dp = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1), dp, dp_prev + (2 * j + 1) * p
        return f, df

    ends = [z for z in old if z] + [mp.mpf(1)]
    gaps = list(zip([mp.mpf(0)] + ends[:-1], ends))
    if m % 2:  # the middle root, x = 0, is F's by parity
        gaps = gaps[1:]
    tol = mp.mpf(10) ** (10 - DPS)
    roots = [mp.mpf(0)] if m % 2 else []
    for lo, hi in gaps:
        f_lo, _ = f_df(lo)
        if f_lo * f_df(hi)[0] >= 0:
            raise ValueError(f"no sign change of the extension polynomial in ({float(lo)}, {float(hi)})")
        x = (lo + hi) / 2
        for _ in range(200):
            f, df = f_df(x)
            if (f < 0) == (f_lo < 0):
                lo = x
            else:
                hi = x
            step = f / df
            nxt = x - step
            if not lo < nxt < hi:
                nxt = (lo + hi) / 2
            done = abs(nxt - x) <= tol
            x = nxt
            if done:
                break
        else:
            raise ValueError(f"Newton's iteration did not settle in ({float(lo)}, {float(hi)})")
        roots.append(x)
    return roots


def weights(half):
    """Interpolatory weights at the nodes x >= 0 of the symmetric rule with nodes half.

    w_s = integral omega(x) / (x - s) dx / omega'(s), omega = prod (x - t)
    over every node, the integral a Gauss-Legendre sum exact at its degree.
    """
    n = len(full(half))
    gl_x, gl_w = gauss_legendre(2 * (n // 4 + 1))
    omega = [w * node_poly(half, x) for x, w in zip(gl_x, gl_w)]
    nodes = full(half)
    sign = -1 if n % 2 else 1  # omega is odd or even: the negative Gauss nodes fold onto the positive ones
    out = []
    for s in half:
        total = mp.fsum(o * (1 / (x - s) - sign / (x + s)) for x, o in zip(gl_x, omega))
        deriv = mp.fprod(s - t for t in nodes if t != s)
        out.append(total / deriv)
    return out


def check_rule(half, w, degree):
    """Exactness through degree and failure at the next even one, in DPS digits; positive weights."""
    if min(w) <= 0:
        raise ValueError("a weight is not positive")
    nodes = full(half)
    ws = full_weights(w, half)
    sums = [mp.mpf(0)] * (degree + 3)
    for x, wx in zip(nodes, ws):
        for k, p in enumerate(legendre(degree + 2, x)):
            sums[k] += wx * p
    worst = max(abs(sums[0] - 2), *(abs(s) for s in sums[1 : degree + 1]))
    miss = abs(sums[degree + 2 - degree % 2])
    if worst > mp.mpf(10) ** (20 - DPS) or miss < mp.mpf(10) ** (30 - DPS):
        raise ValueError(f"degree check failed: worst {mp.nstr(worst, 3)}, next {mp.nstr(miss, 3)}")
    return float(worst), float(miss)


def full_weights(w, half):
    """The weights of every node, in increasing order, from those w at the nodes half (x >= 0)."""
    return [wx for x, wx in zip(reversed(half), reversed(w)) if x] + list(w)


def hexes(name, values, comment):
    """A module constant: the hex floats of values, PER_LINE a line, under a comment."""
    lines = [f"# {comment}", f'{name} = """']
    text = [float(v).hex() for v in values]
    for i in range(0, len(text), PER_LINE):
        lines.append(" ".join(text[i : i + PER_LINE]))
    lines.append('"""')
    return "\n".join(lines) + "\n"


def build() -> str:
    mp.mp.dps = DPS
    kx, kw, gw = gauss_kronrod(64)
    # the method, checked on the first level: the extension of the Legendre roots is K129
    g64, _ = gauss_legendre(64)
    k_half = sorted(g64 + extend(g64))
    k_w = weights(k_half)
    if (max(abs(float(a) - b) for a, b in zip(k_half, kx[64:].tolist())) > 3e-16
            or max(abs(float(a) - b) / b for a, b in zip(k_w, kw[64:].tolist())) > 5e-15):
        raise ValueError("the extension of G64 is not the oracle's K129")
    parts = [
        hexes("G64_NODES", kx[1::2][32:], "G64: the 64 Gauss-Legendre nodes, and their weights"),
        hexes("G64_WEIGHTS", gw[32:], "exact through degree 127"),
        hexes("K129_NODES", np.abs(kx[0::2][32:]), "K129: the 65 Kronrod nodes, and the weights of all 129"),
        hexes("K129_WEIGHTS", kw[64:], "exact through degree 193"),
    ]
    rule = [mp.mpf(x) for x in np.abs(kx[64:]).tolist()]
    for name, degree in (("P259", 388), ("P519", 778)):
        started = time.perf_counter()
        new = extend(rule)
        exact = sorted(rule + new)
        w = weights(exact)
        worst, miss = check_rule(exact, w, degree)
        rule = sorted(rule + [mp.mpf(float(x)) for x in new])  # the floats the module holds
        print(f"{name}: {time.perf_counter() - started:.1f} s, worst {worst:.1e} through degree {degree}, "
              f"{miss:.1e} at {degree + 2 - degree % 2}, min weight {float(min(w)):.2e}", file=sys.stderr)
        parts.append(hexes(f"{name}_NODES", [x for x in new if x], f"{name}: the {2 * len(new)} nodes it adds, "
                           f"and the weights of all {len(full(rule))}"))
        parts.append(hexes(f"{name}_WEIGHTS", w, f"exact through degree {degree}"))
    return HEADER.format(dps=DPS) + "\n".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the checked-in module; exit 1 if it differs")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    text = build()
    print(f"built in {time.perf_counter() - started:.1f} s", file=sys.stderr)
    if not args.check:
        TARGET.write_text(text)
        return 0
    old = TARGET.read_text()
    if old == text:
        print(f"{TARGET.name}: identical", file=sys.stderr)
        return 0
    sys.stdout.writelines(difflib.unified_diff(old.splitlines(True), text.splitlines(True), "checked-in", "computed"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
