"""Command-line front end.

Subcommands: kernel, classical-limit, commutator, weyl-compare, grid, toa.
Each reads a flat key = value config file (# comments allowed, rationals as
"num/den" strings) and writes JSON or CSV. Exit codes: 0 success, 1 usage or
config error, 2 verification failure.

numpy loads with the first command that needs floats (commutator, grid, toa),
the numerics module with commutator; kernel, classical-limit, weyl-compare
and every --seed-config run without either.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .algebra import QPoly, _finite, parse_rational, poly_shift
from .classical_toa import (
    PhasePoint,
    Potential,
    convergence_margin,
    local_toa,
    local_toa_value,
    series_tail_bound,
    shift_arrival,
    toa_quadrature,
)
from .errors import ConfigError, SupratoaError
from .kernel_solver import (
    KernelRequest,
    boundary_check,
    classical_term,
    kernel_eval,
    pde_residual,
    solve_kernel_at_hbar,
    solve_kernel_general,
)
from .serialize import (
    _digit_limit,
    kernel_json_chunks,
    kernel_rows,
    poly_to_pairs,
    residual_report_to_dict,
    series_to_list,
)
from .serialize import kernel_to_dict  # noqa: F401  no caller here; perfbench/trace.py wraps it by this name
from .transforms import classical_limit, hbar2_residual, weyl_quantize, wigner_transform

_FORMATS = ("json", "csv")


@dataclass
class RunConfig:
    """Parsed run configuration with documented defaults."""

    potential: Potential = field(default_factory=Potential.free)
    mu: Fraction = Fraction(1)
    hbar: float = 1.0
    x: Fraction = Fraction(0)
    jmax: int = 6
    kmax: int = 6
    quad_abs_tol: float = 1e-10
    format: str | None = None
    out: str | None = None
    threshold: float = 1e-6
    phi_center: float = 0.0
    phi_halfwidth: float = 0.5
    psi_center: float = 0.0
    psi_halfwidth: float = 0.5
    grid_kind: str = "kernel"
    qmin: float = -1.0
    qmax: float = 1.0
    nq: int = 50
    qpmin: float = -1.0
    qpmax: float = 1.0
    nqp: int = 50
    pmin: float = 0.5
    pmax: float = 1.5
    np: int = 50
    q: float = 0.2
    p: float = 1.0


def _parse_potential(raw: str) -> Potential:
    raw = raw.strip()
    if raw == "free":
        return Potential.free()
    pairs: dict[int, Fraction] = {}
    for token in raw.split():
        if ":" not in token:
            raise ConfigError(f"key 'potential': token {token!r} is not degree:coeff")
        deg_text, coeff_text = token.split(":", 1)
        try:
            deg = int(deg_text)
            coeff = parse_rational(coeff_text)
        except ValueError as exc:
            raise ConfigError(f"key 'potential': {exc}") from exc
        if deg < 0:
            raise ConfigError(f"key 'potential': negative degree {deg}")
        pairs[deg] = pairs.get(deg, Fraction(0)) + coeff
    if not pairs:
        raise ConfigError("key 'potential': empty (use 'free' for V = 0)")
    return Potential(QPoly(pairs))


def _to_rational(key: str, raw: str) -> Fraction:
    try:
        value = parse_rational(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {exc}") from exc
    try:
        str(value)  # outputs write the value back, within int-to-str conversion's digit limit
    except ValueError:
        raise ConfigError(f"key {key!r}: its numerator or denominator has {_digit_limit()}") from None
    return value


def _to_float(key: str, raw: str) -> float:
    """The float of a decimal or an "a/b" value; ConfigError when it is not a finite number.

    float(raw) rounds a decimal correctly, so it equals float(Fraction(raw)),
    without Fraction's parse. The exact parse reads what float() refuses
    ("a/b") and a negative zero, whose sign the exact value decides: "-0"
    reads as 0.0, and a negative decimal that underflows as -0.0. A
    rational beyond the float range reads as inf, like a decimal beyond it.
    """
    try:
        value = float(raw)
    except ValueError:
        value = None
    if value is None or (not value and math.copysign(1.0, value) < 0):
        try:
            value = float(parse_rational(raw))
        except OverflowError:
            value = math.inf
        except ValueError as exc:
            if value is None:
                raise ConfigError(f"key {key!r}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: not a finite number: {raw!r}")
    return value


def _float_of(key: str, value: Fraction) -> float:
    """The float of an exact config value; ConfigError when it is infinite or a nonzero value's is 0."""
    try:
        result = float(value)
    except OverflowError:
        raise ConfigError(f"key {key!r}: its float is infinite (beyond the float range)") from None
    if value and not result:
        raise ConfigError(f"key {key!r}: its float is 0 (below the float range)")
    return result


def _to_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {raw!r}") from exc


def _to_text(key: str, raw: str) -> str:
    return raw.strip()


# RunConfig annotation (a string under postponed evaluation) -> (key, raw) parser
_TYPE_PARSERS = {
    "Potential": lambda key, raw: _parse_potential(raw),
    "Fraction": _to_rational,
    "float": _to_float,
    "int": _to_int,
    "str": _to_text,
    "str | None": _to_text,
}

_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(RunConfig)}


def parse_config_text(text: str, command: str) -> RunConfig:
    """Parse the flat key = value config format into a validated RunConfig.

    A key the subcommand never reads is refused, like an unknown one, and so
    is a key that only the other grid kind reads, whichever line sets grid_kind.
    """
    keys = _COMMANDS[command][2]
    values, linenos = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        parser = _PARSERS.get(key)
        if parser is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key not in keys:
            raise ConfigError(f"line {lineno}: key {key!r} has no effect on {command}")
        values[key] = parser(key, raw)
        linenos.setdefault(key, lineno)
    if command == "grid":  # the first line that sets a key of the other kind is named
        kind = values.get("grid_kind", RunConfig.grid_kind)
        if kind not in _GRID_KINDS:
            raise ConfigError(f"key 'grid_kind': must be one of {tuple(_GRID_KINDS)}")
        for key, lineno in linenos.items():
            if key not in _GRID_SHARED_KEYS | _GRID_KINDS[kind]:
                raise ConfigError(f"line {lineno}: key {key!r} has no effect on a {kind} grid")
    config = RunConfig(**values)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.jmax < 0:
        raise ConfigError("key 'jmax': must be >= 0")
    if config.kmax < 0:
        raise ConfigError("key 'kmax': must be >= 0")
    if config.quad_abs_tol <= 0:
        raise ConfigError("key 'quad_abs_tol': must be positive")
    if config.mu <= 0:
        raise ConfigError("key 'mu': must be positive")
    if config.hbar <= 0:
        raise ConfigError("key 'hbar': must be positive")
    if config.phi_halfwidth <= 0 or config.psi_halfwidth <= 0:
        raise ConfigError("bump halfwidths must be positive")
    if min(config.nq, config.nqp, config.np) < 1:
        raise ConfigError("grid point counts must be >= 1")
    for lo, hi in (("qmin", "qmax"), ("qpmin", "qpmax"), ("pmin", "pmax")):
        if not math.isfinite(getattr(config, hi) - getattr(config, lo)):
            raise ConfigError(f"keys {lo!r} and {hi!r}: the span {hi} - {lo} is beyond the float range")


def load_config(path: str, command: str) -> RunConfig:
    """Read the config file as UTF-8 and parse it; ConfigError names a file that cannot be read or decoded.

    The bytes are decoded once, without text mode's newline translation:
    str.splitlines splits at CR LF and at a lone CR as it would split at
    the LF that translation leaves in their place.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8: {exc.reason} at byte {exc.start}") from None
    return parse_config_text(text, command)


def _emit(text, out: str | None) -> None:
    """Write text, a str or an iterable of str chunks, to the file out or to stdout.

    Both destinations get the same bytes, written as the chunks come (see
    _write_batches). A chunk that raises leaves no partial file: the file is
    deleted and the error re-raised.
    """
    if not out:
        _write_batches(text, _write_stdout)
        return
    fh = open(out, "w", encoding="utf-8")
    try:
        with fh:
            _write_batches(text, fh.write)
    except BaseException:
        import os

        if os.path.isfile(out):  # never a device or a pipe named by --out
            os.remove(out)
        raise


def _write_stdout(batch: str) -> None:
    sys.stdout.write(batch)
    sys.stdout.flush()


def _stderr_line(text: str) -> None:
    """One line on stderr, flushed."""
    print(text, file=sys.stderr, flush=True)


def _write_batches(text, write) -> None:
    """Write text, a str or an iterable of str chunks, joined 128 chunks per
    call of write, then a newline unless the text ends with one.

    Batches keep the calls of write few for a report of small tokens, and
    the memory small for a table of large entries.
    """
    from itertools import islice  # not at module level: start-up imports stay as they are

    chunks = iter([text] if isinstance(text, str) else text)
    end = ""
    while batch := list(islice(chunks, 128)):
        joined = "".join(batch)
        if joined:
            write(joined)
            end = joined[-1]
    if end != "\n":
        write("\n")


def _emit_json(payload: dict, out: str | None) -> None:
    _emit(json.JSONEncoder(indent=2).iterencode(payload), out)


def _csv(header: str, rows):
    """CSV lines: the header, then each row."""
    yield header
    for row in rows:
        yield "\n" + row


def _effective_potential(config: RunConfig) -> Potential:
    """Arrival point x != 0 is folded into the potential before solving."""
    if config.x:
        return shift_arrival(config.potential, config.x)
    return config.potential


def cmd_kernel(config: RunConfig) -> int:
    """Solve the kernel table, verify boundary and PDE residual, emit it."""
    V = _effective_potential(config)
    K = solve_kernel_general(KernelRequest(V=V, mu=config.mu, Jmax=config.jmax))
    report = boundary_check(K)
    residual = pde_residual(K, V)
    residual_ok = residual is None or residual >= 2 * config.jmax + 2
    if not (report.passed and residual_ok):
        diagnostics = {
            "diagnostics": {
                "boundary_failures": list(report.failures),
                "pde_residual_order": residual,
                "required_min_order": 2 * config.jmax + 2,
            }
        }
        _emit_json(diagnostics, config.out)
        return 2
    if config.format == "json":
        _emit(kernel_json_chunks(K), config.out)
    else:
        _emit(_csv("m,j,s,coeff", (f"{m},{j},{s},{c}" for m, j, s, c in kernel_rows(K))), config.out)
    return 0


def cmd_classical_limit(config: RunConfig) -> int:
    """Compare the Wigner transform of the kernel with the classical series."""
    V = _effective_potential(config)
    kmax = min(config.kmax, config.jmax)
    K = solve_kernel_general(KernelRequest(V=V, mu=config.mu, Jmax=config.jmax))
    transform = wigner_transform(K)
    limit = classical_limit(transform)
    residual = hbar2_residual(transform)
    series = local_toa(config.potential, config.mu, config.x, kmax)

    rows = []
    all_match = True
    for k in range(kmax + 1):
        wig = limit.term(k, 0)
        # the kernel was solved at the shifted origin; move the classical
        # series into the same coordinate before comparing
        cls = poly_shift(series.term(k, 0), config.x)
        equal = wig == cls
        all_match = all_match and equal
        rows.append(
            {
                "k": k,
                "wigner": poly_to_pairs(wig),
                "classical": poly_to_pairs(cls),
                "equal": equal,
            }
        )
    payload = {
        "terms": rows,
        "hbar2_residual": series_to_list(residual),
        "linear_system": V.is_linear,
        "all_match": all_match,
    }
    _emit_json(payload, config.out)
    return 0 if all_match else 2


def cmd_commutator(config: RunConfig) -> int:
    """Measure the canonical-commutator residual of the solved kernel."""
    if config.x:
        raise ConfigError("key 'x': commutator works at the origin only; x must be 0")
    import numpy as np

    from . import numerics

    mu = _float_of("mu", config.mu)  # a config error comes before the solve refuses a cell
    V = config.potential
    K = solve_kernel_at_hbar(KernelRequest(V=V, mu=config.mu, Jmax=config.jmax), config.hbar)
    phi = numerics.BumpProfile(config.phi_center, config.phi_halfwidth)
    psi = numerics.BumpProfile(config.psi_center, config.psi_halfwidth)
    quad = numerics.QuadSpec(abs_tol=config.quad_abs_tol)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite integral is refused by name
        report = numerics.commutator_residual(V, K, phi, psi, mu, config.hbar, quad)
    payload = residual_report_to_dict(report)
    payload["threshold"] = config.threshold
    payload["passed"] = report.residual < config.threshold
    _emit_json(payload, config.out)
    return 0 if payload["passed"] else 2


def cmd_weyl_compare(config: RunConfig) -> int:
    """Weyl-quantized classical series vs the kernel's classical term."""
    if config.x:
        raise ConfigError("key 'x': weyl-compare works at the origin only; x must be 0")
    V = config.potential
    kmax = config.kmax
    series = local_toa(V, config.mu, 0, kmax)
    weyl = weyl_quantize(series, config.mu)
    cterm = classical_term(V, config.mu, kmax)
    weyl_map = weyl.s_slice(0)
    weyl_equals_classical = weyl_map == cterm

    full = solve_kernel_general(KernelRequest(V=V, mu=config.mu, Jmax=kmax))
    s_ge_1 = sum(1 for rows, _ in full.layers for row in rows.values() for s in row if s >= 1)
    # the Weyl table has s = 0 entries only: an s >= 1 entry already differs
    difference_nonzero = s_ge_1 > 0 or full != weyl

    payload = {
        "weyl_equals_classical": weyl_equals_classical,
        "linear_system": V.is_linear,
        "full_minus_weyl_nonzero": difference_nonzero,
        "s_ge_1_entries": s_ge_1,
    }
    if not V.is_linear and s_ge_1:
        payload["note"] = "obstruction: s>=1 terms present"
    ok = weyl_equals_classical and (V.is_linear or difference_nonzero)
    _emit_json(payload, config.out)
    return 0 if ok else 2


def cmd_grid(config: RunConfig) -> int:
    """Write a CSV evaluation grid (kernel values or arrival times)."""
    import numpy as np

    mu = _float_of("mu", config.mu)  # both kinds: kernel_eval also takes mu as a float
    qs = np.linspace(config.qmin, config.qmax, config.nq)
    nan_reasons = Counter()
    if config.grid_kind == "kernel":
        V = _effective_potential(config)
        K = solve_kernel_at_hbar(KernelRequest(V=V, mu=config.mu, Jmax=config.jmax), config.hbar)
        qps = np.linspace(config.qpmin, config.qpmax, config.nqp)
        with np.errstate(over="ignore", invalid="ignore"):  # T overflows at large |u|: counted below
            values = kernel_eval(K, qs[:, None], qps)
        nan_reasons["overflow"] = int(np.count_nonzero(~np.isfinite(values)))
        header, count = "q,qp,re,im", values.size
        rows = (
            f"{q!r},{qp!r},{val.real!r},{val.imag!r}"
            for q, row in zip(qs.tolist(), values.tolist())
            for qp, val in zip(qps.tolist(), row)
        )
    else:
        from .arrival import arrival_times  # toa_quadrature on every row at once

        x = _float_of("x", config.x)
        ps = np.linspace(config.pmin, config.pmax, config.np)
        points = [(q, p) for q in qs.tolist() for p in ps.tolist()]
        pts = [PhasePoint(q=q, p=p, x=x, mu=mu) for q, p in points]
        rows = []
        for (q, p), value in zip(points, arrival_times(config.potential, pts, config.quad_abs_tol)):
            if isinstance(value, SupratoaError):
                nan_reasons[type(value).__name__] += 1
                value = math.nan
            rows.append(f"{q!r},{p!r},{value!r}")
        header, count = "q,p,toa", len(rows)
    if nan_reasons.total():
        reasons = ", ".join(f"{name} {n}" for name, n in sorted(nan_reasons.items()))
        _stderr_line(f"grid: {nan_reasons.total()} of {count} rows NaN ({reasons})")
    _emit(_csv(header, rows), config.out)
    return 0


def cmd_toa(config: RunConfig) -> int:
    """Classical arrival time at one phase point: series, quadrature, margin."""
    V = config.potential
    mu = _float_of("mu", config.mu)
    x = _float_of("x", config.x)
    pt = PhasePoint(q=config.q, p=config.p, x=x, mu=mu)
    ratio, converges = convergence_margin(V, mu, config.q, x, config.p)
    series_value = _finite(
        "the series value at (q, p)", local_toa_value, V, config.mu, config.x, config.kmax, config.q, config.p
    )
    quad_value = toa_quadrature(V, pt, config.quad_abs_tol)
    tail = series_tail_bound(ratio, mu, config.q, x, config.p, config.kmax)
    # quadrature tolerance plus roundoff; the tail alone can sit below both
    slack = max(100.0 * config.quad_abs_tol, 1e-12)
    verified = converges and abs(series_value - quad_value) <= tail + slack
    payload = {
        "q": config.q,
        "p": config.p,
        "x": x,
        "kmax": config.kmax,
        "series_value": series_value,
        "quadrature_value": quad_value,
        "difference": series_value - quad_value,
        "tail_bound": tail if math.isfinite(tail) else None,
        "convergence_ratio": ratio,
        "converges": converges,
        "verified": verified,
    }
    _emit_json(payload, config.out)
    return 0 if verified else 2


_SAMPLES = {
    "kernel": """\
# kernel: solve the time kernel coefficient table and emit it
# potential: "free" or space-separated degree:coefficient pairs, exact rationals
potential = 2:1/2
mu = 1
# arrival point; nonzero x is folded into the potential before solving
x = 0
# truncation order (max v-power / 2)
jmax = 6
# output: json (exact round-trip table) or csv (m,j,s,coeff rows)
format = json
# out = kernel.json
""",
    "classical-limit": """\
# classical-limit: Wigner transform of the kernel vs the classical series
potential = 2:1/2
mu = 1
x = 0
jmax = 8
# number of series orders compared (clamped to jmax)
kmax = 8
format = json
# out = classical_limit.json
""",
    "commutator": """\
# commutator: canonical commutation relation residual on a pair of bumps
potential = free
mu = 1
hbar = 1
jmax = 8
quad_abs_tol = 1e-10
# acceptance threshold on the relative residual
threshold = 1e-6
phi_center = 0
phi_halfwidth = 1/2
psi_center = 0
psi_halfwidth = 1/2
format = json
# out = commutator.json
""",
    "weyl-compare": """\
# weyl-compare: Weyl quantization of the classical series vs the kernel
potential = 4:1
mu = 1
# series / table order
kmax = 6
format = json
# out = weyl_compare.json
""",
    "grid": """\
# grid: CSV evaluation grid for plotting
# grid_kind = kernel writes q,qp,re,im rows; grid_kind = toa writes q,p,toa rows
grid_kind = kernel
potential = 2:1/2
mu = 1
qmin = -1
qmax = 1
nq = 50
# a kernel grid also reads, with these defaults: hbar = 1, jmax = 6, qpmin = -1, qpmax = 1, nqp = 50
# a toa grid also reads, with these defaults: pmin = 1/2, pmax = 3/2, np = 50, quad_abs_tol = 1e-10
format = csv
# out = grid.csv
""",
    "toa": """\
# toa: classical arrival time at one phase point, series vs quadrature
potential = 2:1/2
mu = 1
x = 0
q = 1/5
p = 1
kmax = 12
quad_abs_tol = 1e-10
format = json
# out = toa.json
""",
}

# the keys every subcommand reads
_COMMON_KEYS = {"potential", "mu", "x", "format", "out"}
# the keys every grid reads, and grid_kind -> the keys only a grid of that kind
# reads; parse_config_text refuses the other kind's
_GRID_SHARED_KEYS = _COMMON_KEYS | {"grid_kind", "qmin", "qmax", "nq"}
_GRID_KINDS = {
    "kernel": {"hbar", "jmax", "qpmin", "qpmax", "nqp"},
    "toa": {"pmin", "pmax", "np", "quad_abs_tol"},
}
_COMMUTATOR_KEYS = {
    "hbar", "jmax", "quad_abs_tol", "threshold", "phi_center", "phi_halfwidth", "psi_center", "psi_halfwidth",
}

# subcommand -> (command, the formats it writes, the first its default, and
# the config keys it reads, for grid those of either kind; commutator and
# weyl-compare read x to refuse it)
_COMMANDS = {
    "kernel": (cmd_kernel, ("json", "csv"), _COMMON_KEYS | {"jmax"}),
    "classical-limit": (cmd_classical_limit, ("json",), _COMMON_KEYS | {"jmax", "kmax"}),
    "commutator": (cmd_commutator, ("json",), _COMMON_KEYS | _COMMUTATOR_KEYS),
    "weyl-compare": (cmd_weyl_compare, ("json",), _COMMON_KEYS | {"kmax"}),
    "grid": (cmd_grid, ("csv",), _GRID_SHARED_KEYS.union(*_GRID_KINDS.values())),
    "toa": (cmd_toa, ("json",), _COMMON_KEYS | {"q", "p", "kmax", "quad_abs_tol"}),
}


def _run_command(name: str, config_path: str | None, out: str | None, fmt: str | None, seed: bool) -> int:
    if seed:
        # the sample goes to --out or stdout; no other flag has an effect on it
        for flag, value in (("--config", config_path), ("--format", fmt)):
            if value is not None:
                raise ConfigError(f"{flag} has no effect with --seed-config")
        _emit(_SAMPLES[name], out)
        return 0
    if not config_path:
        raise ConfigError("--config FILE is required (or use --seed-config)")
    config = load_config(config_path, name)
    if out:
        config.out = out
    command, formats, _ = _COMMANDS[name]
    config.format = fmt or config.format or formats[0]
    if config.format not in formats:
        raise ConfigError(f"key 'format': {name} writes {' or '.join(formats)} only, not {config.format!r}")
    return command(config)


class _UsageError(Exception):
    """A command line the parser refuses: the message, then the usage line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage().rstrip()}")


class _Formatter(argparse.HelpFormatter):
    def add_usage(self, usage, actions, groups, prefix=None):
        super().add_usage(usage, actions, groups, "Usage: " if prefix is None else prefix)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="supratoa",
        description="Exact time-kernel tables for arrival-time operators, with transform, "
        "commutator, and quadrature verification commands.",
        formatter_class=_Formatter,
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(title="commands", dest="command", metavar="COMMAND", required=True)
    for name, (func, _, _) in _COMMANDS.items():
        help_text = (func.__doc__ or "").strip().splitlines()[0]
        sub = commands.add_parser(
            name, help=help_text, description=help_text, formatter_class=_Formatter, allow_abbrev=False
        )
        sub.add_argument("--config", dest="config_path", metavar="PATH", help="Config file (key = value lines).")
        sub.add_argument("--out", metavar="PATH", help="Write output to this path instead of stdout.")
        sub.add_argument("--format", dest="fmt", choices=_FORMATS, help="Output format override.")
        sub.add_argument(
            "--seed-config", dest="seed", action="store_true", help="Print a commented sample config and exit."
        )
    return parser


_PARSER = _build_parser()


def __getattr__(name: str):
    """commutator_residual, resolved from numerics on first access.

    cmd_commutator calls numerics.commutator_residual; the name stays
    reachable here because perfbench/trace.py wraps it by this name.
    """
    if name == "commutator_residual":
        from .numerics import commutator_residual

        return commutator_residual
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract (0 / 1 / 2)."""
    try:
        args = _PARSER.parse_args(argv)
        return _run_command(args.command, args.config_path, args.out, args.fmt, args.seed)
    except SystemExit as exc:  # --help, written to stdout
        return exc.code
    except _UsageError as exc:
        _stderr_line(f"error: {exc}")
        return 1
    except ConfigError as exc:
        _stderr_line(f"config error: {exc}")
        return 1
    except SupratoaError as exc:
        _stderr_line(f"verification failure: {exc}")
        return 2
    except Exception as exc:  # malformed input must never escape as a traceback
        _stderr_line(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
