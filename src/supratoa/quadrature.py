"""The package's one quadrature rule: panels of a nested chain of rules held as constants.

The chain is G64 in K129 in P259 in P519 (_rules): the 64-point Gauss rule,
its Gauss-Kronrod extension, and two Kronrod-Patterson extensions
(Patterson, Math. Comp. 22, 1968), each rule holding every node of the one
before it, as QUADPACK's QNG nests 10 in 21 in 43 in 87 points. _integrate
sums panels of the chain a level at a time, and a row that goes on to the
next level evaluates only the nodes that level adds. numerics and arrival
integrate with it; no other module integrates numerically.
"""

from __future__ import annotations

import sys

import numpy as np

from . import _rules
from .errors import QuadratureFailure

# Node values per call of a batch integrand (whole rows, at least one),
# counting the nodes a level evaluates (129, 130 or 260 per panel): it
# bounds the arrays of one kernel evaluation, and with them peak memory.
# Per commutator job the integrand calls go 24 -> 14 -> 8 (harmonic,
# J = 8) and 50 -> 28 -> 16 (free) from 4096 to 8192 to 16384, for the
# same node values. 8192 kept the commutator benchmark's peak RSS within
# 1 MB of 4096's (0.5 MB above; 1.6 MB at 16384, both measured on
# Gauss-Kronrod levels of 129 and 257 fresh nodes per panel).
_NODE_CAP = 8192

# QUADPACK's roundoff floor on an error estimate: 50 machine epsilons times
# the integral of |integrand|.
_ROUNDOFF = 50.0 * sys.float_info.epsilon


def _mirror(text: str, odd: bool, sign: float = 1.0) -> np.ndarray:
    """Values on a rule symmetric about 0 from the hex floats of its half x >= 0, increasing.

    The half is mirrored, times sign (-1 for nodes); an odd rule holds x = 0
    once, as the mirror's (-0.0 for a node).
    """
    half = np.array([float.fromhex(v) for v in text.split()])
    return np.concatenate((sign * half[::-1], half[odd:]))


def _chain() -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """G64's weights, and per level the nodes it evaluates and the weights of its rule.

    The first level evaluates all 129 nodes of K129, G64's at the odd
    positions; each later level evaluates only the nodes its rule adds, which
    interlace with the rule before it: the new nodes fall at the even
    positions of its weights, the old at the odd.
    """
    k129 = np.empty(129)
    k129[1::2] = _mirror(_rules.G64_NODES, False, -1.0)
    k129[0::2] = _mirror(_rules.K129_NODES, True, -1.0)
    levels = (
        (k129, _mirror(_rules.K129_WEIGHTS, True)),
        (_mirror(_rules.P259_NODES, False, -1.0), _mirror(_rules.P259_WEIGHTS, True)),
        (_mirror(_rules.P519_NODES, False, -1.0), _mirror(_rules.P519_WEIGHTS, True)),
    )
    g64_weights = _mirror(_rules.G64_WEIGHTS, False)
    for a in (g64_weights, *(a for level in levels for a in level)):
        a.flags.writeable = False  # shared by every call
    return g64_weights, levels


_G64_WEIGHTS, _LEVELS = _chain()


def _integrate(g, ends, epsabs: float):
    """The integral of g over the panels between consecutive ends, and its error estimate.

    The one quadrature rule of the package. ends is one row of panel ends,
    shape (P + 1,), or a batch of rows, shape (R, P + 1). g returns its
    values at the nodes it gets: g(x) with x of shape (P m,) for one row,
    once per level; g(x, i) for a batch, with x of shape (R', P m) holding
    the nodes of rows i (an index array, in order) that are still open, in
    calls of at most _NODE_CAP node values (but at least one row). Level 1
    evaluates the m = 129 nodes of K129 per panel and reads two sums from
    them: the value is K129 and the estimate |K129 - G64|. Level 2
    evaluates only the 130 nodes P259 adds, with the value P259 and the
    estimate |P259 - K129|; level 3 the 260 that P519 adds, with P519 and
    |P519 - P259|. Each estimate is summed over the row's panels, plus a
    roundoff floor of 50 eps * integral |integrand|, and a row closes at
    the first level where it is within epsabs, or at the last; until then
    it keeps g's values at the nodes so far. Each row closes at its own
    level, with the value and estimate a call on that row alone would
    give: a float or a complex as g's values are; a batch returns arrays
    of R values and R estimates, empty for R = 0. A non-finite value, or an
    estimate above 1e3 * epsabs, raises QuadratureFailure. A panel with
    equal ends adds 0, and one with decreasing ends adds the negated
    integral.
    """
    ends = np.asarray(ends, dtype=float)
    rows = ends.reshape(-1, ends.shape[-1])
    mid = 0.5 * (rows[:, 1:] + rows[:, :-1])[:, :, None]
    half = 0.5 * (rows[:, 1:] - rows[:, :-1])[:, :, None]

    closed = []  # (rows, values, estimates) of each batch of g's calls
    live = np.arange(len(rows))
    seen = last = None  # for the open rows: g at every node so far, in order, and the last level's panel sums
    for level, (t, w) in enumerate(_LEVELS):
        if not len(live):
            break
        step = max(1, _NODE_CAP // (len(t) * half.shape[1])) if ends.ndim == 2 else 1
        still, keep, sums = [], [], []
        for start in range(0, len(live), step):
            i = live[start : start + step]
            h = half[i]
            x = (mid[i] + h * t).reshape(len(i), -1)
            gx = (g(x, i) if ends.ndim == 2 else g(x[0])).reshape(h.shape[:2] + t.shape)
            if seen is None:
                coarse = (h * _G64_WEIGHTS * gx[:, :, 1::2]).sum(axis=2)
            else:  # the new nodes interlace with the rule before
                both = np.empty(gx.shape[:2] + w.shape, np.result_type(gx, seen))
                both[:, :, 0::2], both[:, :, 1::2] = gx, seen[start : start + step]
                gx, coarse = both, last[start : start + step]
            wg = h * w * gx
            fine = wg.sum(axis=2)
            val = fine.sum(axis=1)
            finite = np.isfinite(val)
            if not finite.all():
                raise QuadratureFailure(f"non-finite integral over panels {rows[i[np.argmin(finite)]].tolist()}")
            # |g| over the row: level 1 sums the row's node values in one pass,
            # on which its pinned outputs (toa grid digests) rest; later levels
            # sum by panel, so that an empty panel adds exactly 0 there
            mass = np.abs(wg).reshape(len(i), -1).sum(axis=1) if seen is None else np.abs(wg).sum(axis=2).sum(axis=1)
            err = np.abs(fine - coarse).sum(axis=1) + _ROUNDOFF * mass
            done = (err <= epsabs) | (level == len(_LEVELS) - 1)
            closed.append((i[done], val[done], err[done]))
            still.append(i[~done])
            keep.append(gx[~done])
            sums.append(fine[~done])
        live = np.concatenate(still)
        seen, last = np.concatenate(keep), np.concatenate(sums)
    vals = np.empty(len(rows), dtype=np.result_type(float, *(v for _, v, _ in closed)))
    errs = np.empty(len(rows))
    for i, v, e in closed:
        vals[i], errs[i] = v, e
    failed = errs > 1e3 * epsabs
    if failed.any():
        i = int(np.argmax(failed))
        raise QuadratureFailure(f"quadrature error estimate {errs[i]:.3g} over panels {rows[i].tolist()}")
    if ends.ndim == 1:
        return vals[0].item(), errs[0].item()
    return vals, errs
