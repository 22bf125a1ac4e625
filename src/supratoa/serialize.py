"""JSON serialization for coefficient tables and momentum series, and the
coefficient rows that the kernel command's JSON and CSV share.

Rationals travel as strings ("num/den" or a plain integer string) so that
round trips are bit-exact; polynomial coefficient lists are [degree, "coeff"]
pairs with integer degrees.
"""

from __future__ import annotations

import json
import math
import sys
from typing import TYPE_CHECKING, Iterator

from .algebra import GradedKernel, MomentumSeries, QPoly, format_rational, parse_rational
from .errors import ConfigError

if TYPE_CHECKING:
    from .numerics import CommutatorReport


def _digit_limit() -> str:
    """How many digits an exact number written out may have, in words."""
    return f"more than {sys.get_int_max_str_digits()} digits, the limit of int-to-str conversion"


def _too_long(what: str, keys: str) -> ConfigError:
    """The error for an exact number with more digits than int-to-str conversion writes."""
    return ConfigError(f"{what} has {_digit_limit()}; {keys} set its size")


def poly_to_pairs(p: QPoly) -> list[list]:
    pairs = []
    for d, c in sorted(p.coeffs.items()):
        try:
            pairs.append([d, format_rational(c)])
        except ValueError:
            keys = "'potential' and 'x', and in a series 'mu', 'jmax' and 'kmax',"
            raise _too_long(f"coefficient of q^{d}", keys) from None
    return pairs


def poly_from_pairs(pairs) -> QPoly:
    return QPoly({int(d): parse_rational(c) for d, c in pairs})


def _kernel_head(K: GradedKernel) -> dict:
    """Every field of a table's dict but its entries."""
    mmax, jmax = K.truncation
    return {
        "potential": poly_to_pairs(K.potential) if K.potential is not None else None,
        "mu": format_rational(K.mu),
        "jmax": jmax,
        "mmax": mmax,
    }


def kernel_to_dict(K: GradedKernel) -> dict:
    return {**_kernel_head(K), "entries": [{"m": m, "j": j, "s": s, "coeff": c} for m, j, s, c in kernel_rows(K)]}


def kernel_from_dict(data: dict) -> GradedKernel:
    # GradedKernel checks the indices and makes them ints
    entries = {(e["m"], e["j"], e["s"]): parse_rational(e["coeff"]) for e in data["entries"]}
    potential = poly_from_pairs(data["potential"]) if data.get("potential") is not None else None
    return GradedKernel(
        entries,
        parse_rational(data["mu"]),
        (data["mmax"], data["jmax"]),
        potential=potential,
    )


def series_to_list(T: MomentumSeries) -> list[dict]:
    return [
        {"k": k, "s": s, "poly": poly_to_pairs(poly)}
        for (k, s), poly in T.items()
    ]


def series_from_list(data) -> MomentumSeries:
    return MomentumSeries({(int(e["k"]), int(e["s"])): poly_from_pairs(e["poly"]) for e in data})


def kernel_rows(K: GradedKernel) -> Iterator[tuple[int, int, int, str]]:
    """(m, j, s, coefficient text) of every entry, sorted by (m, j, s).

    Each coefficient n / D_j is reduced by one gcd and written as
    format_rational writes its Fraction; one too long to write raises
    ConfigError naming it. The rows are generated one at a time, walking
    the sorted powers m that hold a row in some layer, then the layers j
    that hold row m, then the row's sorted grades s: a writer holds the
    layers of each power and one row's grades, but never a tuple or a text
    per entry.
    """
    layers = K.layers
    rows_at: dict[int, list[int]] = {}  # m -> the layers j holding row m, ascending
    for j, (rows, _) in enumerate(layers):
        for m in rows:
            rows_at.setdefault(m, []).append(j)
    try:
        for m in sorted(rows_at):
            for j in rows_at[m]:
                rows, D = layers[j]
                row = rows[m]
                for s in sorted(row):
                    n = row[s]
                    g = math.gcd(n, D)
                    yield m, j, s, f"{n // g}/{D // g}" if D != g else str(n // g)
    except ValueError:  # from int-to-str conversion only
        raise _too_long(f"kernel entry (m, j, s) = ({m}, {j}, {s})", "'potential', 'x' and 'jmax'") from None


def kernel_json_chunks(K: GradedKernel) -> Iterator[str]:
    """json.dumps(kernel_to_dict(K), indent=2) in pieces: the head, each entry, the tail."""
    head = _kernel_head(K)
    # a value nested one level deep is its own dump indented by two spaces
    fields = [f'"{key}": ' + json.dumps(value, indent=2).replace("\n", "\n  ") for key, value in head.items()]
    yield "{\n  " + ",\n  ".join(fields) + ',\n  "entries": ['
    sep = ""
    # coefficient texts hold only digits, "-" and "/", so need no escaping
    for m, j, s, c in kernel_rows(K):
        yield f'{sep}\n    {{\n      "m": {m},\n      "j": {j},\n      "s": {s},\n      "coeff": "{c}"\n    }}'
        sep = ","
    yield "\n  ]\n}" if sep else "]\n}"


def kernel_to_json(K: GradedKernel) -> str:
    """json.dumps(kernel_to_dict(K), indent=2), written entry by entry."""
    return "".join(kernel_json_chunks(K))


def kernel_from_json(text: str) -> GradedKernel:
    return kernel_from_dict(json.loads(text))


def series_to_json(T: MomentumSeries) -> str:
    return json.dumps(series_to_list(T), indent=2)


def series_from_json(text: str) -> MomentumSeries:
    return series_from_list(json.loads(text))


def residual_report_to_dict(report: CommutatorReport) -> dict:
    return {
        "residual": report.residual,
        "error_budget": report.error_budget,
        "params": report.params,
    }
