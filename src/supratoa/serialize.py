"""JSON and CSV serialization for coefficient tables and sampled functions.

Rationals travel as strings ("num/den" or a plain integer string) so that
round trips are bit-exact; polynomial coefficient lists are [degree, "coeff"]
pairs with integer degrees.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

from .algebra import GradedKernel, MomentumSeries, QPoly, format_rational, parse_rational

if TYPE_CHECKING:
    from .numerics import CommutatorReport


def poly_to_pairs(p: QPoly) -> list[list]:
    return [[d, format_rational(c)] for d, c in sorted(p.coeffs.items())]


def poly_from_pairs(pairs) -> QPoly:
    return QPoly({int(d): parse_rational(c) for d, c in pairs})


def kernel_to_dict(K: GradedKernel) -> dict:
    mmax, jmax = K.truncation
    return {
        "potential": poly_to_pairs(K.potential) if K.potential is not None else None,
        "mu": format_rational(K.mu),
        "jmax": jmax,
        "mmax": mmax,
        "entries": [
            {"m": m, "j": j, "s": s, "coeff": format_rational(c)}
            for (m, j, s), c in K.items()
        ],
    }


def kernel_from_dict(data: dict) -> GradedKernel:
    entries = {
        (int(e["m"]), int(e["j"]), int(e["s"])): parse_rational(e["coeff"])
        for e in data["entries"]
    }
    potential = poly_from_pairs(data["potential"]) if data.get("potential") is not None else None
    return GradedKernel(
        entries,
        parse_rational(data["mu"]),
        (int(data["mmax"]), int(data["jmax"])),
        potential=potential,
    )


def series_to_list(T: MomentumSeries) -> list[dict]:
    return [
        {"k": k, "s": s, "poly": poly_to_pairs(poly)}
        for (k, s), poly in T.items()
    ]


def series_from_list(data) -> MomentumSeries:
    return MomentumSeries({(int(e["k"]), int(e["s"])): poly_from_pairs(e["poly"]) for e in data})


def kernel_rows(K: GradedKernel) -> list[tuple[int, int, int, str]]:
    """(m, j, s, coefficient text) of every entry, sorted by (m, j, s).

    Each coefficient n / D_j is reduced by one gcd and written as
    format_rational writes its Fraction.
    """
    entries = sorted((m, j, s, n, D) for j, (nums, D) in enumerate(K.layers) for (m, s), n in nums.items())
    rows = []
    for m, j, s, n, D in entries:
        g = math.gcd(n, D)
        rows.append((m, j, s, f"{n // g}/{D // g}" if D != g else str(n // g)))
    return rows


def kernel_to_json(K: GradedKernel) -> str:
    """json.dumps(kernel_to_dict(K), indent=2), written entry by entry."""
    mmax, jmax = K.truncation
    head = {
        "potential": poly_to_pairs(K.potential) if K.potential is not None else None,
        "mu": format_rational(K.mu),
        "jmax": jmax,
        "mmax": mmax,
    }
    # a value nested one level deep is its own dump indented by two spaces;
    # coefficient texts hold only digits, "-" and "/", so need no escaping
    fields = [f'"{key}": ' + json.dumps(value, indent=2).replace("\n", "\n  ") for key, value in head.items()]
    entries = ",".join(
        f'\n    {{\n      "m": {m},\n      "j": {j},\n      "s": {s},\n      "coeff": "{c}"\n    }}'
        for m, j, s, c in kernel_rows(K)
    )
    fields.append(f'"entries": [{entries}\n  ]' if entries else '"entries": []')
    return "{\n  " + ",\n  ".join(fields) + "\n}"


def kernel_from_json(text: str) -> GradedKernel:
    return kernel_from_dict(json.loads(text))


def series_to_json(T: MomentumSeries) -> str:
    return json.dumps(series_to_list(T), indent=2)


def series_from_json(text: str) -> MomentumSeries:
    return series_from_list(json.loads(text))


def samples_to_csv(qgrid, values) -> str:
    """CSV export of a sampled complex function, header "q,re,im"."""
    lines = ["q,re,im"]
    for q, val in zip(qgrid, values):
        val = complex(val)
        lines.append(f"{float(q)!r},{val.real!r},{val.imag!r}")
    return "\n".join(lines) + "\n"


def residual_report_to_dict(report: CommutatorReport) -> dict:
    return {
        "residual": report.residual,
        "error_budget": report.error_budget,
        "params": report.params,
    }
