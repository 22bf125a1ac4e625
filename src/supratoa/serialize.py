"""JSON and CSV serialization for coefficient tables and sampled functions.

Rationals travel as strings ("num/den" or a plain integer string) so that
round trips are bit-exact; polynomial coefficient lists are [degree, "coeff"]
pairs with integer degrees.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Iterator

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


def kernel_rows(K: GradedKernel) -> Iterator[tuple[int, int, int, str]]:
    """(m, j, s, coefficient text) of every entry, sorted by (m, j, s).

    Each coefficient n / D_j is reduced by one gcd and written as
    format_rational writes its Fraction. The rows are generated one at a
    time: each layer's keys are sorted on their own and the layers merged,
    so a writer holds the sorted keys but never a tuple or a text per entry.
    """
    import heapq  # not at module level: commands that write no table skip it

    layers = K.layers
    for m, j, s in heapq.merge(*(_sorted_keys(j, nums) for j, (nums, _) in enumerate(layers))):
        nums, D = layers[j]
        n = nums[m, s]
        g = math.gcd(n, D)
        yield m, j, s, f"{n // g}/{D // g}" if D != g else str(n // g)


def _sorted_keys(j: int, nums: dict[tuple[int, int], int]) -> Iterator[tuple[int, int, int]]:
    """(m, j, s) of layer j's entries, sorted."""
    for m, s in sorted(nums):
        yield m, j, s


def kernel_json_chunks(K: GradedKernel) -> Iterator[str]:
    """json.dumps(kernel_to_dict(K), indent=2) in pieces: the head, each entry, the tail."""
    mmax, jmax = K.truncation
    head = {
        "potential": poly_to_pairs(K.potential) if K.potential is not None else None,
        "mu": format_rational(K.mu),
        "jmax": jmax,
        "mmax": mmax,
    }
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
