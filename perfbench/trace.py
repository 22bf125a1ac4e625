"""In-memory spans around the program's public functions, installed from outside.

The tracer replaces module attributes (the names the CLI and the numerics
layer call through) with wrappers that record a span: name, start, end,
parent span and job id. Nothing in the package is edited; `uninstall`
puts every original back.

kernel_eval runs about a million times per commutator job, so it is
recorded as one aggregate per (parent span, job) rather than a span per
call. Potential.value is only counted.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

from supratoa import classical_toa, cli, kernel_solver, numerics
from supratoa.errors import NotAccessible

# (module, attribute, span name); one name may be patched at several call sites.
SPANS = (
    (cli, "load_config", "cli.load_config"),
    (cli, "solve_kernel_general", "kernel_solver.solve_kernel_general"),
    (kernel_solver, "solve_kernel_general", "kernel_solver.solve_kernel_general"),
    (cli, "pde_residual", "kernel_solver.pde_residual"),
    (cli, "boundary_check", "kernel_solver.boundary_check"),
    (cli, "classical_term", "kernel_solver.classical_term"),
    (cli, "wigner_transform", "transforms.wigner_transform"),
    (cli, "weyl_quantize", "transforms.weyl_quantize"),
    (cli, "local_toa", "classical_toa.local_toa"),
    (cli, "toa_quadrature", "classical_toa.toa_quadrature"),
    (cli, "convergence_margin", "classical_toa.convergence_margin"),
    (classical_toa, "convergence_margin", "classical_toa.convergence_margin"),
    (cli, "series_tail_bound", "classical_toa.series_tail_bound"),
    (cli, "commutator_residual", "numerics.commutator_residual"),
    (numerics, "commutator_residual", "numerics.commutator_residual"),
    (cli, "kernel_to_dict", "serialize.kernel_to_dict"),
    (cli, "series_to_list", "serialize.series_to_list"),
)

LEAVES = (
    (cli, "kernel_eval", "kernel_solver.kernel_eval"),
    (numerics, "kernel_eval", "kernel_solver.kernel_eval"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, job)
        self.leaves: dict[tuple, list] = {}  # (name, parent, job) -> [calls, seconds]
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except NotAccessible:
                self.counts[name + ".not_accessible"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, self.job))
            if name == "kernel_solver.solve_kernel_general":
                self.counts["kernel_solver.table_entries"] += len(result.A)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        leaves, stack = self.leaves, self._stack

        def wrapper(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - start
                key = (name, stack[-1] if stack else None, self.job)
                acc = leaves.get(key)
                if acc is None:
                    leaves[key] = [1, elapsed]
                else:
                    acc[0] += 1
                    acc[1] += elapsed

        return wrapper

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._patch(module, attr, self.span(name, getattr(module, attr)))
        for module, attr, name in LEAVES:
            self._patch(module, attr, self.leaf(name, getattr(module, attr)))
        value = classical_toa.Potential.value
        counts = self.counts

        def counted_value(potential, q):
            counts["classical_toa.potential_evals"] += 1
            return value(potential, q)

        self._patch(classical_toa.Potential, "value", counted_value)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for (_, parent, _), (_, seconds) in self.leaves.items():
            if parent is not None:
                child[parent] += seconds
        totals = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            totals[name] += end - start - child[sid]
        for (name, parent, _), (_, seconds) in self.leaves.items():
            totals[name] += seconds
        return dict(totals)

    def calls(self) -> Counter:
        out = Counter(name for _, name, *_ in self.spans)
        for (name, _, _), (count, _) in self.leaves.items():
            out[name] += count
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "job"],
                    "spans": self.spans,
                    "aggregates": [
                        {"name": n, "parent": p, "job": j, "calls": c, "seconds": s}
                        for (n, p, j), (c, s) in self.leaves.items()
                    ],
                    "counts": self.counts,
                },
                fh,
            )
