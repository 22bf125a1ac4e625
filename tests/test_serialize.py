"""Round-trip fidelity of the JSON/CSV interchange formats."""

import contextlib
import io
import json
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supratoa import cli
from supratoa.algebra import GradedKernel, QPoly, format_rational
from supratoa.classical_toa import Potential, local_toa, shift_arrival
from supratoa.kernel_solver import KernelRequest, solve_kernel_general, solve_kernel_harmonic
from supratoa.numerics import CommutatorReport
from supratoa.serialize import (
    kernel_from_json,
    kernel_json_chunks,
    kernel_rows,
    kernel_to_dict,
    kernel_to_json,
    poly_from_pairs,
    poly_to_pairs,
    residual_report_to_dict,
    samples_to_csv,
    series_from_json,
    series_to_json,
)
from supratoa.transforms import weyl_quantize

SEXTIC = Potential.from_pairs([(2, F(1, 2)), (3, F(1, 3)), (6, F(1, 7))])
SOLVER_POTENTIALS = {
    "free": Potential.free(),
    "harmonic": Potential.from_pairs([(2, F(1, 2))]),
    "quartic": Potential.from_pairs([(4, 1)]),
    "sextic": SEXTIC,
    "sextic-x+1/2": shift_arrival(SEXTIC, F(1, 2)),
    "sextic-x-1/2": shift_arrival(SEXTIC, F(-1, 2)),
}
# tables built through GradedKernel.__init__, with negative and integer
# coefficients, no potential and no entries among them
BUILT_TABLES = {
    "harmonic-chain": lambda: solve_kernel_harmonic(F(3, 2), 6),
    "weyl-quartic": lambda: weyl_quantize(local_toa(Potential.from_pairs([(4, 1)]), 1, 0, 5)),
    "corrupted-sextic": lambda: solve_kernel_general(KernelRequest(SEXTIC, 1, 10))
    .replace_entry(1, 0, 0, F(1, 2))
    .replace_entry(2, 0, 0, -3),
    "integers-and-negatives": lambda: GradedKernel(
        {(1, 0, 0): -3, (2, 1, 0): F(-1, 3), (3, 2, 1): 7}, F(5, 2), (3, 2), potential=QPoly()
    ),
    "no-potential": lambda: GradedKernel({(1, 0, 0): F(1, 4)}, 1, (1, 0), potential=None),
    "empty": lambda: GradedKernel({}, 1, (1, 0), potential=None),
}

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=40)
polys = st.builds(
    QPoly,
    st.dictionaries(st.integers(min_value=0, max_value=9), rationals, max_size=6),
)


class TestPolyPairs:
    def test_pairs_are_sorted_and_stringly_exact(self):
        p = QPoly({3: F(-7, 2), 1: 4})
        assert poly_to_pairs(p) == [[1, "4"], [3, "-7/2"]]

    @given(polys)
    @settings(max_examples=60)
    def test_round_trip(self, p):
        assert poly_from_pairs(poly_to_pairs(p)) == p


class TestKernelJson:
    def test_round_trip_preserves_everything(self):
        V = Potential.from_pairs([(4, F(2, 3)), (1, F(-1, 5))])
        K = solve_kernel_general(KernelRequest(V, F(3, 2), 4))
        K2 = kernel_from_json(kernel_to_json(K))
        assert K2 == K
        assert K2.truncation == K.truncation
        assert K2.potential == K.potential

    def test_untagged_potential_round_trips_as_none(self):
        from supratoa.algebra import GradedKernel

        K = GradedKernel({(1, 0, 0): F(1, 4)}, 1, (1, 0), potential=None)
        data = kernel_to_dict(K)
        assert data["potential"] is None
        assert kernel_from_json(kernel_to_json(K)).potential is None

    def test_entry_layout(self):
        K = solve_kernel_general(KernelRequest(Potential.free(), 1, 0))
        data = kernel_to_dict(K)
        assert data["mu"] == "1"
        assert data["jmax"] == 0 and data["mmax"] == 1
        assert data["entries"] == [{"m": 1, "j": 0, "s": 0, "coeff": "1/4"}]
        assert json.loads(kernel_to_json(K)) == data


class TestKernelWriter:
    """kernel_to_json writes json.dumps(kernel_to_dict(K), indent=2) entry by entry,
    and the CLI streams the same chunks, then a newline, to a file or to stdout."""

    @staticmethod
    def check(K, tmp_path):
        text = kernel_to_json(K)
        assert text == json.dumps(kernel_to_dict(K), indent=2)
        assert kernel_from_json(text) == K
        path = tmp_path / "table.json"
        cli._emit(kernel_json_chunks(K), str(path))
        buf = io.BytesIO()
        stream = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)  # closes buf when collected
        with contextlib.redirect_stdout(stream):
            cli._emit(kernel_json_chunks(K), None)
        assert path.read_bytes() == buf.getvalue() == (text + "\n").encode()
        return text

    @pytest.mark.parametrize("jmax", [0, 1, 10])
    @pytest.mark.parametrize("V", list(SOLVER_POTENTIALS.values()), ids=list(SOLVER_POTENTIALS))
    def test_solver_tables(self, V, jmax, tmp_path):
        self.check(solve_kernel_general(KernelRequest(V, F(3, 2), jmax)), tmp_path)

    @pytest.mark.parametrize("build", list(BUILT_TABLES.values()), ids=list(BUILT_TABLES))
    def test_built_tables(self, build, tmp_path):
        self.check(build(), tmp_path)

    def test_integer_coefficients_have_no_denominator(self, tmp_path):
        text = self.check(BUILT_TABLES["integers-and-negatives"](), tmp_path)
        assert '"coeff": "-3"' in text and '"coeff": "7"' in text and '"coeff": "-1/3"' in text
        assert "/1\"" not in text

    def test_shuffled_table_rows_are_sorted(self, tmp_path):
        # an __init__ table keeps its dict's order within each layer
        K = solve_kernel_general(KernelRequest(SEXTIC, F(3, 2), 8))
        items = list(K.A.items())
        random.Random(5).shuffle(items)
        shuffled = GradedKernel(dict(items), K.mu, K.truncation, K.potential)
        assert any(list(nums) != sorted(nums) for nums, _ in shuffled.layers)
        rows = list(kernel_rows(shuffled))
        assert rows == [(m, j, s, format_rational(c)) for (m, j, s), c in sorted(K.A.items())]
        assert self.check(shuffled, tmp_path) == kernel_to_json(K)

    def test_rows_walk_only_the_powers_held(self):
        # a built table may hold one huge power of u
        K = GradedKernel({(10**15, 3, 2): F(-2, 3), (1, 0, 0): F(1, 4), (10**15, 1, 0): 5}, 1, (10**15, 3))
        assert list(kernel_rows(K)) == [(1, 0, 0, "1/4"), (10**15, 1, 0, "5"), (10**15, 3, 2, "-2/3")]

    def test_rows_hold_no_tuple_per_entry(self):
        K = solve_kernel_general(KernelRequest(SEXTIC, 1, 40))
        K.layers  # built by the solver; read here so only the rows are traced
        tracemalloc.start()
        try:
            count = sum(1 for _ in kernel_rows(K))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 33_661
        # the sort of every (m, j, s, n, D_j) tuple at once peaked at 3.10 MB;
        # the merged per-layer keys peak at about 0.29 MB
        assert peak < 1_000_000


class TestSeriesJson:
    def test_round_trip(self):
        V = Potential.from_pairs([(3, F(1, 6)), (2, F(1, 2))])
        series = local_toa(V, F(5, 4), F(1, 3), 6)
        assert series_from_json(series_to_json(series)) == series

    def test_layout(self):
        series = local_toa(Potential.free(), 1, 0, 3)
        data = json.loads(series_to_json(series))
        assert data == [{"k": 0, "s": 0, "poly": [[1, "-1"]]}]


class TestCsv:
    def test_header_and_rows(self):
        text = samples_to_csv([0.0, 0.5], [1 + 2j, -0.25j])
        lines = text.splitlines()
        assert lines[0] == "q,re,im"
        assert len(lines) == 3
        q, re, im = (float(tok) for tok in lines[2].split(","))
        assert (q, re, im) == (0.5, 0.0, -0.25)

    def test_floats_survive_exactly(self):
        val = 0.1 + 0.3j
        text = samples_to_csv([1 / 3], [val])
        _, re, im = (float(tok) for tok in text.splitlines()[1].split(","))
        assert re == val.real and im == val.imag


class TestResidualReport:
    def test_dict_shape(self):
        report = CommutatorReport(residual=1e-8, error_budget=2e-7, params={"mu": 1.0})
        data = residual_report_to_dict(report)
        assert data == {"residual": 1e-8, "error_budget": 2e-7, "params": {"mu": 1.0}}
        json.dumps(data)  # must be JSON-ready
