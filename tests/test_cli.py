"""Command-line surface: configs, formats, exit codes, output contracts."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import supratoa
from supratoa import algebra, cli, kernel_solver
from supratoa.classical_toa import Potential
from supratoa.errors import QuadratureFailure
from supratoa.cli import main
from supratoa.kernel_solver import KernelRequest, kernel_eval, solve_kernel_general, solve_kernel_harmonic
from supratoa.serialize import kernel_from_dict, kernel_json_chunks

COMMANDS = ["kernel", "classical-limit", "commutator", "weyl-compare", "grid", "toa"]

# the formats each subcommand writes, as the README's subcommand table lists them
WRITES = {"kernel": ("json", "csv"), "grid": ("csv",)}
REFUSED = [(cmd, fmt) for cmd in COMMANDS for fmt in ("json", "csv") if fmt not in WRITES.get(cmd, ("json",))]

# barrier peak at q = 8193/16384, a forbidden zone 6.3e-5 wide; p puts H
# 1e-3 below the peak at q = 1
BARRIER = "2:-1000000 1:128015625/128"
_BARRIER_V = Potential.from_pairs([(2, -(10**6)), (1, F(128015625, 128))])
BARRIER_P = math.sqrt(2 * (_BARRIER_V.value(8193 / 16384) - 1e-3 - _BARRIER_V.value(1.0)))


INFINITE = "its float is infinite (beyond the float range)"
ZERO = "its float is 0 (below the float range)"


def invoke(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def invoke_bytes(args):
    """(exit code, stdout bytes) of main(args)."""
    buf = io.BytesIO()
    stream = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)  # closes buf when collected
    with contextlib.redirect_stdout(stream):
        code = main(args)
    return code, buf.getvalue()


def write_config(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def digest(text):
    return hashlib.blake2b(text.encode(), digest_size=32).hexdigest()


# V is evaluated once per candidate point of a phase point's checks and once
# per array of the quadrature rule's nodes, so a toa job or a small toa grid
# makes a few hundred polynomial evaluations.
MAX_POLY_CALLS = 1000


@pytest.fixture
def poly_calls(monkeypatch):
    calls = [0]
    evaluate = algebra.QPoly.__call__

    def counted(self, x):
        calls[0] += 1
        return evaluate(self, x)

    monkeypatch.setattr(algebra.QPoly, "__call__", counted)
    return calls


@pytest.fixture
def roots_calls(monkeypatch):
    """The coefficient arrays numpy.roots is called with, as lists."""
    calls = []
    roots = numpy.roots

    def counted(coeffs):
        calls.append(list(coeffs))
        return roots(coeffs)

    monkeypatch.setattr(numpy, "roots", counted)
    return calls


class TestEntryPoints:
    def test_help_exits_clean(self):
        code, out, _ = invoke(["--help"])
        assert code == 0
        assert "Usage" in out

    def test_bare_invocation_is_usage_error(self):
        code, out, err = invoke([])
        assert code == 1
        assert not out
        assert "Usage" in err

    def test_unknown_command(self):
        code, _, err = invoke(["frobnicate"])
        assert code == 1
        assert "frobnicate" in err

    def test_subcommand_help_goes_to_stdout(self):
        code, out, err = invoke(["toa", "--help"])
        assert (code, err) == (0, "")
        assert out.startswith("Usage: supratoa toa") and "--seed-config" in out

    @pytest.mark.parametrize("args", [["--conf", "run.conf"], ["--seed"], ["--form", "json"]])
    def test_abbreviated_flag_refused(self, args):
        code, out, err = invoke(["kernel", *args])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: unrecognized arguments: {' '.join(args)}\nUsage: supratoa")

    def test_usage_errors_exit_one(self):
        for args in (["kernel", "--format", "xml"], ["kernel", "--config"], ["kernel", "extra"], ["--config", "x"]):
            code, out, err = invoke(args)
            assert (code, out) == (1, "")
            assert err.startswith("error: ") and "\nUsage: supratoa" in err, err

    def test_cli_import_loads_neither_click_nor_numpy(self):
        src = str(Path(supratoa.__file__).resolve().parents[1])
        code = "import sys, supratoa.cli; print(sorted(m for m in ('click', 'numpy') if m in sys.modules))"
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_config_required(self, cmd):
        code, _, err = invoke([cmd])
        assert code == 1
        assert "--config" in err

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_seed_config_emits_parseable_text(self, cmd):
        code, out, _ = invoke([cmd, "--seed-config"])
        assert code == 0
        assert "potential" in out

    @pytest.mark.parametrize("flag", [["--config", "run.conf"], ["--format", "json"], ["--format", "csv"]])
    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_seed_config_refuses_flags_without_effect(self, cmd, flag, tmp_path):
        target = tmp_path / "seed.conf"
        code, out, err = invoke([cmd, "--seed-config", *flag, "--out", str(target)])
        assert code == 1
        assert not out and not target.exists()
        assert err == f"config error: {flag[0]} has no effect with --seed-config\n"


class TestSeedConfigsReplay:
    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_every_seed_config_runs_green(self, cmd, tmp_path):
        _, seed_text, _ = invoke([cmd, "--seed-config"])
        path = write_config(tmp_path, seed_text, name=f"{cmd}.conf")
        code, out, err = invoke([cmd, "--config", path])
        assert code == 0, f"{cmd} failed on its own seed config: {err or out}"
        assert out


class TestOutputStream:
    """Every output is a stream of chunks: the same bytes to --out and to stdout."""

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_seed_config_bytes_are_the_same_on_both(self, cmd, tmp_path):
        target = tmp_path / "seed.conf"
        assert invoke_bytes([cmd, "--seed-config"]) == (0, cli._SAMPLES[cmd].encode())
        assert main([cmd, "--seed-config", "--out", str(target)]) == 0
        assert target.read_bytes() == cli._SAMPLES[cmd].encode()

    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_seed_run_bytes_are_the_same_on_both(self, cmd, tmp_path, monkeypatch):
        payloads = []
        emit_json = cli._emit_json

        def recorded(payload, out):
            payloads.append(payload)
            emit_json(payload, out)

        monkeypatch.setattr(cli, "_emit_json", recorded)
        conf = write_config(tmp_path, cli._SAMPLES[cmd])
        target = tmp_path / "run.out"
        code, out = invoke_bytes([cmd, "--config", conf])
        assert (code, main([cmd, "--config", conf, "--out", str(target)])) == (0, 0)
        assert target.read_bytes() == out
        # each JSON report is the indent-2 dump of its payload plus a newline
        for payload in payloads:
            assert out == (json.dumps(payload, indent=2) + "\n").encode()
        assert len(payloads) == (0 if cmd in ("kernel", "grid") else 2)

    def test_json_report_edge_values(self, tmp_path):
        payload = {"a": [1.5, None, True, 'e\u0301 "q"\n'], "b": {}, "c": [], "d": {"x": [[]]}, "e": -0.0}
        target = tmp_path / "report.json"
        cli._emit_json(payload, str(target))
        assert target.read_text() == json.dumps(payload, indent=2) + "\n"

    def test_failed_chunk_leaves_no_file(self, tmp_path):
        target = tmp_path / "partial.csv"
        target.write_text("an older output\n")

        def rows():
            yield "m,j,s,coeff"
            for i in range(3):
                yield f"\n{i},0,0,1"
            raise ValueError("row 3 failed")

        with pytest.raises(ValueError, match="row 3 failed"):
            cli._emit(rows(), str(target))
        assert not target.exists()

    def test_failed_table_write_keeps_exit_code_and_error_line(self, tmp_path, monkeypatch):
        def rows(K):
            yield 1, 0, 0, "1/4"
            yield 3, 1, 0, "-1/24"
            raise ValueError("no row 3")

        monkeypatch.setattr(cli, "kernel_rows", rows)
        conf = write_config(tmp_path, "potential = 2:1/2\njmax = 3\nformat = csv\n")
        target = tmp_path / "kernel.csv"
        assert invoke(["kernel", "--config", conf, "--out", str(target)]) == (1, "", "error: no row 3\n")
        assert not target.exists()

    def test_table_write_holds_less_than_the_file(self, tmp_path):
        # one string of the whole table and two copies of it (text + "\n"
        # and its encoding) take 2.9 MB for this 0.7 MB file
        K = solve_kernel_general(
            KernelRequest(Potential.from_pairs([(2, F(1, 2)), (3, F(1, 3)), (6, F(1, 7))]), 1, 20)
        )
        target = tmp_path / "kernel.json"
        tracemalloc.start()
        try:
            cli._emit(kernel_json_chunks(K), str(target))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < target.stat().st_size


class TestConfigErrors:
    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "potential = free\nwibble = 3\n")
        code, _, err = invoke(["kernel", "--config", path])
        assert code == 1
        assert "wibble" in err

    def test_bad_rational_names_key(self, tmp_path):
        path = write_config(tmp_path, "potential = free\nmu = nope\n")
        code, _, err = invoke(["kernel", "--config", path])
        assert code == 1
        assert "mu" in err

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("2:1/0", "not a rational: '1/0'"),
            ("2", "token '2' is not degree:coeff"),
            ("-1:1", "negative degree -1"),
            ("", "empty (use 'free' for V = 0)"),
        ],
        ids=["bad-rational", "not-a-pair", "negative-degree", "empty"],
    )
    def test_bad_potential_token(self, tmp_path, raw, message):
        path = write_config(tmp_path, f"potential = {raw}\n")
        code, _, err = invoke(["kernel", "--config", path])
        assert code == 1
        assert "potential" in err
        assert err == f"config error: key 'potential': {message}\n"

    def test_missing_file(self):
        code, _, err = invoke(["kernel", "--config", "/nonexistent/nowhere.conf"])
        assert code == 1
        assert err

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_bytes(b"potential = 2:1/2\nq = 0.5\xff\n")
        code, out, err = invoke(["toa", "--config", str(path)])
        assert (code, out) == (1, "")
        assert err == f"config error: config {str(path)!r} is not UTF-8: invalid start byte at byte 25\n"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_line_endings_parse_like_lf(self, tmp_path, cmd, newline):
        _, text, _ = invoke([cmd, "--seed-config"])
        other = tmp_path / "other.conf"
        other.write_bytes(text.replace("\n", newline).encode())
        assert cli.load_config(str(other), cmd) == cli.load_config(write_config(tmp_path, text), cmd)
        # a bad line is counted the same way
        bad = text + "\nno equals sign\n"
        other.write_bytes(bad.replace("\n", newline).encode())
        with pytest.raises(supratoa.ConfigError) as got:
            cli.load_config(str(other), cmd)
        with pytest.raises(supratoa.ConfigError) as expected:
            cli.load_config(write_config(tmp_path, bad), cmd)
        assert str(got.value) == str(expected.value) and "expected 'key = value'" in str(got.value)

    def test_removed_series_tol_key_is_unknown(self, tmp_path):
        path = write_config(tmp_path, "potential = free\nseries_tol = 1e-12\n")
        code, _, err = invoke(["kernel", "--config", path])
        assert code == 1
        assert "series_tol" in err

    @pytest.mark.parametrize(
        "cmd, key, value",
        [
            ("kernel", "hbar", "5"),
            ("kernel", "kmax", "3"),
            ("kernel", "threshold", "4"),
            ("kernel", "nq", "7"),
            ("weyl-compare", "jmax", "2"),
            ("weyl-compare", "hbar", "3"),
            ("classical-limit", "q", "1/2"),
            ("commutator", "kmax", "4"),
            ("toa", "jmax", "4"),
            ("grid", "kmax", "4"),
        ],
    )
    def test_unread_key_refused(self, tmp_path, cmd, key, value):
        _, seed_text, _ = invoke([cmd, "--seed-config"])
        path = write_config(tmp_path, f"{seed_text}{key} = {value}\n")
        code, out, err = invoke([cmd, "--config", path])
        assert code == 1
        assert not out
        assert f"key {key!r} has no effect on {cmd}" in err

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            (
                "toa",
                "potential = 2:1/2\nhbar = 2\njmax = 3\nqpmin = 0\nnqp = 2\nnq = 2\nnp = 2\ngrid_kind = toa\n",
                "line 2: key 'hbar' has no effect on a toa grid",
            ),
            (
                "kernel",
                "potential = 2:1/2\nnq = 2\nnqp = 2\npmin = 0\npmax = 1\nnp = 2\nquad_abs_tol = 1e-8\n",
                "line 4: key 'pmin' has no effect on a kernel grid",
            ),
        ],
        ids=["toa", "kernel"],
    )
    def test_grid_refuses_the_other_kinds_keys(self, tmp_path, kind, text, message):
        # grid_kind may come after the keys it rules out; without them the grid runs
        code, out, err = invoke(["grid", "--config", write_config(tmp_path, text)])
        assert (code, out, err) == (1, "", f"config error: {message}\n")
        other = set().union(*cli._GRID_KINDS.values()) - cli._GRID_KINDS[kind]
        own = "".join(line + "\n" for line in text.splitlines() if line.split(" = ")[0] not in other)
        code, out, err = invoke(["grid", "--config", write_config(tmp_path, own)])
        assert (code, err) == (0, "")
        assert out.startswith({"kernel": "q,qp,re,im\n", "toa": "q,p,toa\n"}[kind])

    @pytest.mark.parametrize("mu", ["0", "-1/2"])
    def test_nonpositive_mass_rejected(self, tmp_path, mu):
        path = write_config(tmp_path, f"potential = 2:1/2\nmu = {mu}\n")
        code, out, err = invoke(["kernel", "--config", path])
        assert code == 1
        assert not out
        assert "mu" in err

    @pytest.mark.parametrize("cmd", ["commutator", "weyl-compare"])
    def test_ignored_arrival_point_rejected(self, tmp_path, cmd):
        path = write_config(tmp_path, "potential = 2:1/2\nx = 1/2\n")
        code, out, err = invoke([cmd, "--config", path])
        assert code == 1
        assert not out
        assert "x" in err

    @pytest.mark.parametrize(
        "cmd, text, key, message",
        [
            ("toa", "potential = 2:1/2\nq = nan\n", "q", "not a finite number"),
            ("grid", "grid_kind = toa\npotential = 2:1/2\npmin = nan\n", "pmin", "not a finite number"),
            ("commutator", "potential = 2:1/2\nhbar = inf\n", "hbar", "not a finite number"),
            ("toa", "potential = 2:1/2\np = -1e400\n", "p", "not a finite number"),
            ("toa", "potential = 2:1/2\nq = 1" + "0" * 400 + "/3\n", "q", "not a finite number"),
            # exact keys whose float the float commands cannot take
            ("toa", "potential = 2:1/2\nmu = 1e400\n", "mu", INFINITE),
            ("toa", "potential = 2:1/2\nx = 1e400\n", "x", INFINITE),
            ("commutator", "potential = 2:1/2\nmu = 1e400\n", "mu", INFINITE),
            ("grid", "grid_kind = toa\npotential = 2:1/2\nmu = 1e400\n", "mu", INFINITE),
            ("grid", "grid_kind = toa\npotential = 2:1/2\nx = -1e400\n", "x", INFINITE),
            ("grid", "grid_kind = kernel\npotential = free\nmu = 1e400\n", "mu", INFINITE),
            ("toa", "potential = 2:1/2\nmu = 1e-400\n", "mu", ZERO),
            ("commutator", "potential = 2:1/2\nmu = 1e-400\n", "mu", ZERO),
            ("grid", "grid_kind = toa\npotential = 2:1/2\nmu = 1e-400\n", "mu", ZERO),
            ("toa", "potential = 2:1/2\nx = 1e-400\n", "x", ZERO),
        ],
        ids=[
            "toa-q-nan", "grid-pmin-nan", "commutator-hbar-inf", "toa-p-overflow", "toa-q-rational-overflow",
            "toa-mu-overflow", "toa-x-overflow", "commutator-mu-overflow", "toa-grid-mu-overflow",
            "toa-grid-x-overflow", "kernel-grid-mu-overflow", "toa-mu-underflow", "commutator-mu-underflow",
            "toa-grid-mu-underflow", "toa-x-underflow",
        ],
    )
    def test_non_finite_float_rejected(self, tmp_path, cmd, text, key, message):
        code, out, err = invoke([cmd, "--config", write_config(tmp_path, text)])
        assert code == 1
        assert not out
        assert f"key {key!r}: {message}" in err

    @pytest.mark.parametrize(
        "kind, lo, hi, span",
        [
            ("kernel", "qmin", "qmax", "-1e308 1e308"),
            ("kernel", "qpmin", "qpmax", "1e308 -1.5e308"),
            ("toa", "qmin", "qmax", "-1e308 1e308"),
            ("toa", "pmin", "pmax", "-1.7e308 1e308"),
        ],
    )
    def test_grid_span_beyond_float_range_rejected(self, tmp_path, kind, lo, hi, span):
        low, high = span.split()
        count = {"kernel": "nqp", "toa": "np"}[kind]
        text = f"grid_kind = {kind}\npotential = 2:1/2\n{lo} = {low}\n{hi} = {high}\nnq = 3\n{count} = 2\n"
        code, out, err = invoke(["grid", "--config", write_config(tmp_path, text)])
        assert (code, out) == (1, "")
        assert err == f"config error: keys {lo!r} and {hi!r}: the span {hi} - {lo} is beyond the float range\n"

    def test_rational_too_long_to_write_rejected(self, tmp_path):
        code, out, err = invoke(["kernel", "--config", write_config(tmp_path, "potential = free\nmu = 1e5000\n")])
        assert (code, out) == (1, "")
        assert err == (
            "config error: key 'mu': its numerator or denominator has more than 4300 digits,"
            " the limit of int-to-str conversion\n"
        )

    @pytest.mark.parametrize("cmd, fmt", REFUSED)
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_unwritten_format_refused(self, tmp_path, cmd, fmt, where):
        _, seed_text, _ = invoke([cmd, "--seed-config"])
        if where == "config":
            path = write_config(tmp_path, re.sub("^format = .*$", f"format = {fmt}", seed_text, flags=re.M))
            args = [cmd, "--config", path]
        else:
            args = [cmd, "--config", write_config(tmp_path, seed_text), "--format", fmt]
        code, out, err = invoke(args)
        assert code == 1
        assert not out
        assert f"{cmd} writes" in err and repr(fmt) in err


class TestConfigKeys:
    def test_every_key_is_read(self, tmp_path):
        """RunConfig has a field for each key a subcommand declares and no other,
        the grid kinds' own keys are disjoint, and each run of a sample reads
        every key it declares, format among them (_run_command resolves it)."""
        declared = set().union(*(keys for _, _, keys in cli._COMMANDS.values()))
        assert declared == {f.name for f in dataclasses.fields(cli.RunConfig)} and len(declared) == 26
        assert not cli._GRID_KINDS["kernel"] & cli._GRID_KINDS["toa"]
        runs = [(cmd, cli._SAMPLES[cmd], keys) for cmd, (_, _, keys) in cli._COMMANDS.items() if cmd != "grid"]
        for kind, own in cli._GRID_KINDS.items():
            sample = cli._SAMPLES["grid"].replace("grid_kind = kernel", f"grid_kind = {kind}")
            runs.append(("grid", sample, cli._GRID_SHARED_KEYS | own))
        reads = set()

        class Recorded(cli.RunConfig):
            def __getattribute__(self, name):
                reads.add(name)
                return object.__getattribute__(self, name)

        for cmd, sample, keys in runs:
            sets = {line.split("=")[0].strip() for line in sample.splitlines() if "=" in line and line[0] != "#"}
            config = cli.parse_config_text(sample, cmd)
            config.out, config.format = str(tmp_path / "out"), config.format or cli._COMMANDS[cmd][1][0]
            recorded = Recorded(**vars(config))
            reads.clear()
            assert cli._COMMANDS[cmd][0](recorded) == 0
            assert sets <= keys == (reads & declared) | {"format"}, (cmd, sample)


def exact_float(raw):
    """The float of the exact rational raw, inf beyond the float range."""
    try:
        return float(F(raw))
    except OverflowError:
        return math.inf


class TestFloatKeys:
    """A float key reads a decimal with float(), equal float for float to the exact parse."""

    decimals = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.from_regex(r"[-+]?[0-9]{1,60}(\.[0-9]{0,60})?([eE][-+]?[0-9]{1,4})?", fullmatch=True),
        st.from_regex(r"[-+]?\.[0-9]{1,60}([eE][-+]?[0-9]{1,4})?", fullmatch=True),
    )

    @given(decimals)
    @example("-0")  # the exact zero reads as 0.0, not -0.0
    @example("-0.000e7")
    @example("-1e-999")  # a negative decimal that underflows reads as -0.0
    @example("2.4703282292062328e-324")  # a tie below the least subnormal
    @example("1.7976931348623158e308")  # rounds to the largest float
    @example("1.7976931348623159e308")  # rounds beyond it
    @example("1e999")
    @example("0." + "0" * 400 + "1")
    @settings(max_examples=300, deadline=None)
    def test_decimal_equals_exact_parse(self, raw):
        expected = exact_float(raw)
        if math.isfinite(expected):
            assert cli._to_float("q", raw).hex() == expected.hex()
        else:
            with pytest.raises(supratoa.ConfigError, match="not a finite number"):
                cli._to_float("q", raw)

    @pytest.mark.parametrize("raw", ["1/3", "-7/2", "0/5", "-0/5", "3/" + "7" * 400, "-3/" + "7" * 400])
    def test_rational_equals_exact_parse(self, raw):
        assert cli._to_float("q", raw).hex() == exact_float(raw).hex()

    @pytest.mark.parametrize("raw", ["1/0", "nope", "1/2/3", "0x10", "1__0"])
    def test_not_a_number(self, raw):
        with pytest.raises(supratoa.ConfigError) as exc:
            cli._to_float("q", raw)
        assert str(exc.value) == f"key 'q': not a number: {raw!r}"


class TestKernelCommand:
    def test_free_table_is_single_seed_entry(self, tmp_path):
        path = write_config(tmp_path, "potential = free\njmax = 6\n")
        code, out, _ = invoke(["kernel", "--config", path])
        assert code == 0
        data = json.loads(out)
        assert data["entries"] == [{"m": 1, "j": 0, "s": 0, "coeff": "1/4"}]

    def test_harmonic_table_round_trips_to_solver_output(self, tmp_path):
        path = write_config(tmp_path, "potential = 2:1/2\nmu = 1\njmax = 6\n")
        code, out, _ = invoke(["kernel", "--config", path])
        assert code == 0
        assert kernel_from_dict(json.loads(out)) == solve_kernel_harmonic(1, 6)

    def test_csv_format(self, tmp_path):
        path = write_config(tmp_path, "potential = 2:1/2\njmax = 4\nformat = csv\n")
        code, out, _ = invoke(["kernel", "--config", path])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,j,s,coeff"
        assert len(lines) == 1 + len(solve_kernel_harmonic(1, 4).A)

    @pytest.mark.parametrize("potential", ["2:1/2", "4:1", "2:1/2 3:1/3 6:1/7"], ids=["harmonic", "quartic", "sextic"])
    def test_csv_rows_are_the_fraction_table(self, tmp_path, potential):
        text = f"potential = {potential}\njmax = 10\nformat = csv\n"
        code, out, _ = invoke(["kernel", "--config", write_config(tmp_path, text)])
        K = solve_kernel_general(KernelRequest(cli.parse_config_text(text, "kernel").potential, 1, 10))
        rows = [f"{m},{j},{s},{algebra.format_rational(c)}" for (m, j, s), c in sorted(K.A.items())]
        assert (code, out) == (0, "\n".join(["m,j,s,coeff"] + rows) + "\n")

    def test_format_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, "potential = free\nformat = json\n")
        code, out, _ = invoke(["kernel", "--config", path, "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "m,j,s,coeff"

    def test_out_writes_file(self, tmp_path):
        conf = write_config(tmp_path, "potential = 2:1/2\njmax = 3\n")
        target = tmp_path / "kernel.json"
        code, out, _ = invoke(["kernel", "--config", conf, "--out", str(target)])
        assert code == 0
        assert not out.strip()
        assert kernel_from_dict(json.loads(target.read_text())) == solve_kernel_harmonic(1, 3)

    # blake2b (32-byte digest) of the JSON output, recorded before the solver
    # moved to integer numerators; pins every entry and the emitted order
    @pytest.mark.parametrize(
        "text, digest",
        [
            (
                "potential = 2:1/2 3:1/3 6:1/7\nmu = 1\njmax = 20\n",
                "87bb5fb005b41ee5b23701910a55ccdfe3ef63c24805953eb78e3fc3cc96dc33",
            ),
            (
                "potential = 1:2/3 2:-1/2 3:1/5 5:3/7 0:1\nmu = 1\nx = 1/2\njmax = 12\n",
                "14d900ec9e487219ed5e6a92e584f4d2c0c4e646210291cf1b2a508a99409da7",
            ),
        ],
        ids=["ladder-sextic-j20", "degree-5-shifted-j12"],
    )
    def test_table_bytes_are_pinned(self, tmp_path, text, digest):
        code, out, _ = invoke(["kernel", "--config", write_config(tmp_path, text)])
        assert code == 0
        assert hashlib.blake2b(out.encode(), digest_size=32).hexdigest() == digest

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_entry_too_long_to_write_is_named(self, tmp_path, fmt):
        # the shifted octic's entries outgrow int-to-str conversion's digit
        # limit; the rows written before it go with the partial file
        conf = write_config(tmp_path, f"potential = 8:1\nx = 1e300\nformat = {fmt}\n")
        target = tmp_path / "kernel.out"
        target.write_text("an older output\n")
        code, out, err = invoke(["kernel", "--config", conf, "--out", str(target)])
        assert (code, out) == (1, "")
        assert err == (
            "config error: kernel entry (m, j, s) = (4, 3, 0) has more than 4300 digits, the limit of"
            " int-to-str conversion; 'potential', 'x' and 'jmax' set its size\n"
        )
        assert not target.exists()

    def test_failed_checks_write_diagnostics(self, tmp_path, monkeypatch):
        # a seed entry of 1/2 in place of 1/4 breaks boundary conditions (i) and (iii) and the residual
        solve = cli.solve_kernel_general
        monkeypatch.setattr(cli, "solve_kernel_general", lambda req: solve(req).replace_entry(1, 0, 0, F(1, 2)))
        code, out, err = invoke(["kernel", "--config", write_config(tmp_path, "potential = 2:1/2\njmax = 3\n")])
        assert (code, err) == (2, "")
        assert json.loads(out) == {
            "diagnostics": {
                "boundary_failures": [
                    "(i) v = 0 slice differs from u/4",
                    "(iii) diagonal derivative combination differs from 1",
                ],
                "pde_residual_order": 3,
                "required_min_order": 8,
            }
        }


class TestClassicalLimitCommand:
    def test_harmonic_matches_with_empty_residual(self, tmp_path):
        path = write_config(tmp_path, "potential = 2:1/2\njmax = 6\nkmax = 6\n")
        code, out, _ = invoke(["classical-limit", "--config", path])
        data = json.loads(out)
        assert code == 0
        assert data["all_match"] is True
        assert data["linear_system"] is True
        assert data["hbar2_residual"] == []
        assert all(row["equal"] for row in data["terms"])

    def test_quartic_matches_with_obstruction(self, tmp_path):
        path = write_config(tmp_path, "potential = 4:1\njmax = 6\nkmax = 6\n")
        code, out, _ = invoke(["classical-limit", "--config", path])
        data = json.loads(out)
        assert code == 0
        assert data["all_match"] is True
        assert data["linear_system"] is False
        assert data["hbar2_residual"]  # nonlinear systems keep hbar^2 terms

    def test_shifted_arrival_point(self, tmp_path):
        path = write_config(tmp_path, "potential = 2:1\nmu = 1\nx = 1/2\njmax = 6\nkmax = 6\n")
        code, out, _ = invoke(["classical-limit", "--config", path])
        data = json.loads(out)
        assert code == 0
        assert data["all_match"] is True

    def test_coefficient_too_long_to_write_is_named(self, tmp_path):
        path = write_config(tmp_path, "potential = 3:-1\nx = 1e300\nmu = 1e300\n")
        code, out, err = invoke(["classical-limit", "--config", path])
        assert (code, out) == (1, "")
        assert err == (
            "config error: coefficient of q^6 has more than 4300 digits, the limit of int-to-str conversion;"
            " 'potential' and 'x', and in a series 'mu', 'jmax' and 'kmax', set its size\n"
        )


class TestCommutatorCommand:
    def test_unattainable_tolerance_exits_two(self, tmp_path):
        # the outer integral cannot certify 1e-22 in doubles: no report
        path = write_config(
            tmp_path,
            "potential = 2:1/2\njmax = 10\nquad_abs_tol = 1e-22\n"
            "phi_center = 0\nphi_halfwidth = 1/2\npsi_center = 1/10\npsi_halfwidth = 1/2\n",
        )
        code, out, err = invoke(["commutator", "--config", path])
        assert code == 2
        assert not out
        assert "verification failure" in err


    @pytest.mark.parametrize(
        "jmax, message",
        [(4, "kernel cell (m, j) = (3, 1)"), (0, "V coefficient of q^2")],
        ids=["table-entry", "potential-coefficient"],
    )
    def test_float_overflow_is_named(self, tmp_path, jmax, message):
        text = f"potential = 2:1e400\njmax = {jmax}\n"
        code, out, err = invoke(["commutator", "--config", write_config(tmp_path, text)])
        assert (code, out) == (2, "")
        assert err == f"verification failure: {message} is beyond the float range\n"


    def test_non_finite_integral_is_one_line(self, tmp_path):
        # mu = 1e-320 makes hbar^2 / 2 mu infinite: no numpy warning reaches stderr
        text = cli._SAMPLES["commutator"].replace("mu = 1", "mu = 1e-320")
        with warnings.catch_warnings(record=True) as caught:  # a CLI run would print them on stderr
            warnings.simplefilter("always")
            code, out, err = invoke(["commutator", "--config", write_config(tmp_path, text)])
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (2, "")
        assert re.fullmatch(r"verification failure: non-finite integral over panels \[[^\n]*\]\n", err), err


class TestWeylCompareCommand:
    def test_quartic_obstruction_note(self, tmp_path):
        path = write_config(tmp_path, "potential = 4:1\nkmax = 6\n")
        code, out, _ = invoke(["weyl-compare", "--config", path])
        data = json.loads(out)
        assert code == 0
        assert data["weyl_equals_classical"] is True
        assert data["full_minus_weyl_nonzero"] is True
        assert "obstruction" in data.get("note", "")

    def test_harmonic_has_no_obstruction(self, tmp_path):
        path = write_config(tmp_path, "potential = 2:1/2\nkmax = 6\n")
        code, out, _ = invoke(["weyl-compare", "--config", path])
        data = json.loads(out)
        assert code == 0
        assert data["weyl_equals_classical"] is True
        assert data["linear_system"] is True
        assert data["full_minus_weyl_nonzero"] is False
        assert "note" not in data


class TestGridCommand:
    def test_table_entry_beyond_float_range_is_named(self, tmp_path):
        text = "grid_kind = kernel\npotential = 2:1e400\njmax = 4\nnq = 2\nnqp = 2\n"
        code, out, err = invoke(["grid", "--config", write_config(tmp_path, text)])
        assert (code, out) == (2, "")
        assert err == "verification failure: kernel cell (m, j) = (3, 1) is beyond the float range\n"

    def test_kernel_grid_reports_non_finite_rows(self, tmp_path):
        # T overflows at u = 2e200: every row is NaN, and one line says so
        text = "grid_kind = kernel\npotential = 2:1/2\nqmin = 1e200\nqmax = 1e200\nnq = 2\nnqp = 3\n"
        code, out, err = invoke(["grid", "--config", write_config(tmp_path, text)])
        assert code == 0
        assert all(line.endswith(",nan,nan") for line in out.strip().splitlines()[1:])
        assert err == "grid: 6 of 6 rows NaN (overflow 6)\n"

    def test_kernel_grid_row_count(self, tmp_path):
        path = write_config(
            tmp_path,
            "grid_kind = kernel\npotential = 2:1/2\njmax = 4\n"
            "qmin = -1\nqmax = 1\nnq = 5\nqpmin = -1\nqpmax = 1\nnqp = 4\nformat = csv\n",
        )
        code, out, _ = invoke(["grid", "--config", path])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,qp,re,im"
        assert len(lines) == 1 + 5 * 4

    def test_dense_kernel_grid_row_count(self, tmp_path):
        path = write_config(
            tmp_path,
            "grid_kind = kernel\npotential = 2:1/2\njmax = 6\n"
            "qmin = -1\nqmax = 1\nnq = 50\nqpmin = -1\nqpmax = 1\nnqp = 50\nformat = csv\n",
        )
        code, out, _ = invoke(["grid", "--config", path])
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 2500

    SEXTIC_GRID = (
        "grid_kind = kernel\npotential = 2:1/2 3:1/3 6:1/7\njmax = 8\nhbar = 7/10\n"
        "qmin = -1\nqmax = 1\nnq = 9\nqpmin = -1\nqpmax = 1\nnqp = 9\n"
    )

    def test_kernel_grid_is_one_array_evaluation(self, tmp_path, monkeypatch):
        calls = []
        evaluate = cli.kernel_eval

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        monkeypatch.setattr(cli, "kernel_eval", counted)
        path = write_config(
            tmp_path,
            "grid_kind = kernel\npotential = 2:1/2 3:1/3 6:1/7\njmax = 10\n"
            "qmin = -1\nqmax = 1\nnq = 6\nqpmin = -1\nqpmax = 1\nnqp = 6\n",
        )
        code, out, _ = invoke(["grid", "--config", path])
        assert code == 0
        assert len(out.strip().splitlines()) == 1 + 36
        assert len(calls) == 1

    def test_kernel_grid_equals_scalar_calls(self, tmp_path):
        # the diagonal (q = q') and the u = 0 points included
        code, out, _ = invoke(["grid", "--config", write_config(tmp_path, self.SEXTIC_GRID)])
        assert code == 0
        K = solve_kernel_general(
            KernelRequest(Potential.from_pairs([(2, F(1, 2)), (3, F(1, 3)), (6, F(1, 7))]), 1, 8)
        ).cells(0.7)
        axis = [-1.0 + 0.25 * i for i in range(9)]
        lines = ["q,qp,re,im"]
        for q in axis:
            for qp in axis:
                val = kernel_eval(K, q, qp)
                lines.append(f"{q!r},{qp!r},{val.real!r},{val.imag!r}")
        assert out.strip().splitlines() == lines

    def test_kernel_grid_real_parts_are_pinned(self, tmp_path):
        # blake2b of the q,qp,re columns as 81 scalar kernel_eval calls
        # write them: the signs of the zero real parts are part of the output
        code, out, _ = invoke(["grid", "--config", write_config(tmp_path, self.SEXTIC_GRID)])
        assert code == 0
        columns = "\n".join(",".join(line.split(",")[:3]) for line in out.strip().splitlines())
        assert digest(columns) == "bed81c23700bd269f5b100c019443a2a4a2a7bf158c6b4cb65d36a9bd22d229f"

    def test_toa_grid_values_are_finite_in_region(self, tmp_path):
        path = write_config(
            tmp_path,
            "grid_kind = toa\npotential = 2:1/2\n"
            "qmin = 0.1\nqmax = 0.3\nnq = 3\npmin = 1\npmax = 2\nnp = 3\nformat = csv\n",
        )
        code, out, err = invoke(["grid", "--config", path])
        assert code == 0
        assert not err
        lines = out.strip().splitlines()
        assert lines[0] == "q,p,toa"
        assert len(lines) == 10
        for line in lines[1:]:
            toa = float(line.split(",")[2])
            assert math.isfinite(toa)
            assert toa < 0  # forward motion toward a later arrival at x = 0

    def test_toa_grid_row_behind_narrow_barrier_is_nan(self, tmp_path):
        path = write_config(
            tmp_path,
            f"grid_kind = toa\npotential = {BARRIER}\nqmin = 1\nqmax = 1\nnq = 1\n"
            f"pmin = {BARRIER_P!r}\npmax = {BARRIER_P!r}\nnp = 1\n",
        )
        code, out, err = invoke(["grid", "--config", path])
        assert code == 0
        assert math.isnan(float(out.strip().splitlines()[1].split(",")[2]))
        assert err == "grid: 1 of 1 rows NaN (NotAccessible 1)\n"

    def test_toa_grid_bytes_are_pinned(self, tmp_path):
        # blake2b (32-byte digest) of the CSV, recorded when the arrival
        # times moved to the package's Gauss-Legendre rule; p = 0 rows and
        # rows behind V = q are NaN
        path = write_config(
            tmp_path,
            "grid_kind = toa\npotential = 1:1\nqmin = -1\nqmax = 1\nnq = 5\n"
            "pmin = -3/2\npmax = 3/2\nnp = 7\n",
        )
        code, out, err = invoke(["grid", "--config", path])
        assert code == 0
        assert digest(out) == "05672db04645aa04f9257f8c64f32dfec4ae462722baf65754af619147c4dfc3"
        assert err == "grid: 13 of 35 rows NaN (NotAccessible 8, ZeroMomentum 5)\n"
        # each value within one ulp of the closed form for V = q, x = 0:
        # -sgn(p) sqrt(1/2) 2 (sqrt(H) - sqrt(H - q)), H = p^2/2 + q, at 30 digits
        import mpmath

        with mpmath.workdps(30):
            for line in out.strip().splitlines()[1:]:
                q, p, value = map(float, line.split(","))
                if not math.isnan(value):
                    energy = mpmath.mpf(p) ** 2 / 2 + q
                    ref = -mpmath.sign(p) * mpmath.sqrt(2) * (mpmath.sqrt(energy) - mpmath.sqrt(energy - q))
                    assert abs(value - ref) <= math.ulp(value), (q, p, value)

    def test_toa_grid_evaluates_polynomials_per_array(self, tmp_path, poly_calls):
        path = write_config(
            tmp_path,
            "grid_kind = toa\npotential = 2:1/2 3:1/3 6:1/7\nx = 1/3\n"
            "qmin = -0.5\nqmax = 0.5\nnq = 3\npmin = 1\npmax = 2\nnp = 3\n",
        )
        code, _, _ = invoke(["grid", "--config", path])
        assert code == 0
        assert 0 < poly_calls[0] <= MAX_POLY_CALLS

    def test_toa_grid_solves_critical_points_once(self, tmp_path, roots_calls):
        path = write_config(
            tmp_path,
            "grid_kind = toa\npotential = 2:1/2 3:1/3 6:1/7\nx = 1/3\n"
            "qmin = -0.5\nqmax = 0.5\nnq = 3\npmin = 1\npmax = 2\nnp = 3\n",
        )
        code, _, _ = invoke(["grid", "--config", path])
        assert code == 0
        assert roots_calls == [[6 / 7, 0.0, 0.0, 1.0, 1.0, 0.0]]  # V' = 6/7 q^5 + q^2 + q


class TestFloatCommandsSolveAtHbar:
    """kernel grid and commutator solve the table's cells at their hbar; the
    exact commands solve the graded table, once each."""

    @pytest.mark.parametrize(
        "cmd, solves",
        [
            ("kernel", {"solve_kernel_general": 1}),
            ("classical-limit", {"solve_kernel_general": 1}),
            ("weyl-compare", {"solve_kernel_general": 1}),
            ("grid", {"solve_kernel_at_hbar": 1}),
            ("commutator", {"solve_kernel_at_hbar": 1}),
        ],
    )
    def test_solver_calls(self, tmp_path, monkeypatch, cmd, solves):
        calls = {}
        for name in ("solve_kernel_general", "solve_kernel_at_hbar"):
            solve = getattr(cli, name)

            def counted(*args, _solve=solve, _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _solve(*args)

            monkeypatch.setattr(cli, name, counted)
        code, _, _ = invoke([cmd, "--config", write_config(tmp_path, cli._SAMPLES[cmd])])
        assert code == 0
        assert calls == solves

    @pytest.mark.parametrize(
        "cmd, changes, message",
        [
            (
                "grid",
                {"potential": "4:-1 2:1", "hbar": "1e-300", "mu": "1e300", "qpmin": "1"},
                r"kernel cell \(m, j\) = \(3, 1\) is beyond the float range",
            ),
            (
                "commutator",
                {"potential": "0:5", "hbar": "1e-300", "psi_center": "1e-17"},
                r"quadrature error estimate \S+ over panels \[.*\]",
            ),
        ],
        ids=["kernel-grid", "commutator"],
    )
    def test_hbar_squared_underflow_is_named(self, tmp_path, cmd, changes, message):
        # hbar^2 is 0 in floats; w = mu / 2 hbar^2 is exact, so no float
        # division by zero is left to reach the generic error line
        text = cli._SAMPLES[cmd]
        for key, value in changes.items():  # set where the sample sets it, else appended
            text, found = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
            text += "" if found else f"{key} = {value}\n"
        code, out, err = invoke([cmd, "--config", write_config(tmp_path, text)])
        assert (code, out) == (2, "")
        assert re.fullmatch(f"verification failure: {message}\n", err), err


    def test_overflowing_cell_refused_at_its_layer(self, tmp_path, monkeypatch):
        # at hbar = 1e-300, w = mu / 2 hbar^2 has about 2,000 bits, and cell
        # (3, 1) is beyond the float range: the solve stops at layer 1 instead
        # of pushing all 40 layers first
        message = "kernel cell (m, j) = (3, 1) is beyond the float range"
        text = "grid_kind = kernel\npotential = 2:1/2 3:1/3 6:1/7\nhbar = 1e-300\njmax = 40\nnq = 3\nnqp = 3\n"
        code, out, err = invoke(["grid", "--config", write_config(tmp_path, text)])
        assert (code, out, err) == (2, "", f"verification failure: {message}\n")

        pushed = []
        push = kernel_solver._push_layers

        def counted(*args):
            for layer in push(*args):
                pushed.append(layer)
                yield layer

        monkeypatch.setattr(kernel_solver, "_push_layers", counted)
        V = Potential.from_pairs([(2, F(1, 2)), (3, F(1, 3)), (6, F(1, 7))])
        with pytest.raises(QuadratureFailure, match=re.escape(message)):
            kernel_solver.solve_kernel_at_hbar(KernelRequest(V, 1, 40), 1e-300)
        assert len(pushed) == 2

    def test_overflowing_mass_stays_a_config_error(self, tmp_path):
        # the float of mu is checked before the solve refuses a cell
        text = "potential = 2:1/2\nmu = 1e400\njmax = 4\n"
        code, out, err = invoke(["commutator", "--config", write_config(tmp_path, text)])
        assert (code, out) == (1, "")
        assert err == f"config error: key 'mu': {INFINITE}\n"


class TestToaCommand:
    def test_report_fields_and_consistency(self, tmp_path):
        path = write_config(
            tmp_path, "potential = 2:1/2\nq = 1/5\np = 1\nkmax = 12\nquad_abs_tol = 1e-11\n"
        )
        code, out, _ = invoke(["toa", "--config", path])
        data = json.loads(out)
        assert code == 0
        assert data["converges"] is True
        assert data["convergence_ratio"] == pytest.approx(0.02, abs=1e-12)
        assert data["quadrature_value"] == pytest.approx(-math.atan(0.2), abs=1e-10)
        assert abs(data["difference"]) <= data["tail_bound"] + 1e-9
        assert data["verified"] is True

    LADDER_AT_THIRD = "potential = 2:1/2 3:1/3 6:1/7\nx = 1/3\nq = 1/5\np = 1\nkmax = 12\n"

    def test_report_bytes_are_pinned(self, tmp_path):
        # blake2b (32-byte digest) of the JSON, recorded before the scans ran on arrays
        code, out, _ = invoke(["toa", "--config", write_config(tmp_path, self.LADDER_AT_THIRD)])
        assert code == 0
        assert digest(out) == "d359a9e2c55cbd471c25f645de320daeff0008e5e66036e3d3c6ad8fde86f478"

    def test_job_evaluates_polynomials_per_array(self, tmp_path, poly_calls):
        code, _, _ = invoke(["toa", "--config", write_config(tmp_path, self.LADDER_AT_THIRD)])
        assert code == 0
        assert 0 < poly_calls[0] <= MAX_POLY_CALLS

    def test_job_solves_critical_points_once(self, tmp_path, roots_calls):
        code, _, _ = invoke(["toa", "--config", write_config(tmp_path, self.LADDER_AT_THIRD)])
        assert code == 0
        assert roots_calls == [[6 / 7, 0.0, 0.0, 1.0, 1.0, 0.0]]  # V' = 6/7 q^5 + q^2 + q

    @pytest.mark.parametrize(
        "key, value, error, message",
        [
            ("p", "1e200", "QuadratureFailure", "H = p^2/(2 mu) + V(q) is beyond the float range"),
            ("mu", "1e-320", "QuadratureFailure", "H = p^2/(2 mu) + V(q) is beyond the float range"),
            ("q", "1e200", "QuadratureFailure", "V on [0, 1e+200] is beyond the float range"),
            ("p", "1e-200", "ZeroMomentum", "convergence ratio undefined at p^2 = 0 (p = 1e-200)"),
            ("potential", "2:1e400", "QuadratureFailure", "V' coefficient of q^1 is beyond the float range"),
            ("potential", "3:1e-300 1:1e300", "QuadratureFailure", "a ratio of V' coefficients is beyond the float range"),
        ],
        ids=["p-overflow", "mu-underflow", "q-overflow", "p-underflow", "coefficient-overflow", "ratio-overflow"],
    )
    def test_non_finite_float_is_named(self, tmp_path, key, value, error, message):
        point = {"potential": "2:1/2", "q": "1/5", "p": "1", "mu": "1", key: value}
        text = "".join(f"{k} = {v}\n" for k, v in point.items())
        code, out, err = invoke(["toa", "--config", write_config(tmp_path, text)])
        assert (code, out) == (2, "")
        assert err == f"verification failure: {message}\n"

        grid = f"grid_kind = toa\npotential = {point['potential']}\nmu = {point['mu']}\n" + "".join(
            f"{axis}min = {point[axis]}\n{axis}max = {point[axis]}\nn{axis} = 1\n" for axis in ("q", "p")
        )
        code, out, err = invoke(["grid", "--config", write_config(tmp_path, grid, "grid.conf")])
        assert code == 0
        assert math.isnan(float(out.strip().splitlines()[1].split(",")[2]))
        assert err == f"grid: 1 of 1 rows NaN ({error} 1)\n"

    @pytest.mark.parametrize(
        "changes",
        [{"p": "1e-17"}, {"potential": "6:1/7 3:1/3", "x": "1e16"}],
        ids=["p-underflow", "shifted-coefficient-overflow"],
    )
    def test_series_value_beyond_the_float_range_is_named(self, tmp_path, changes):
        # p^-(2k+1) overflows at kmax = 12; the iterates of V seen from
        # x = 1e16 have coefficients no float holds
        text = cli._SAMPLES["toa"]
        for key, value in changes.items():
            text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        code, out, err = invoke(["toa", "--config", write_config(tmp_path, text)])
        assert (code, out) == (2, "")
        assert err == "verification failure: the series value at (q, p) is beyond the float range\n"

    def test_forbidden_point_exits_two(self, tmp_path):
        path = write_config(tmp_path, "potential = 1:1\nq = 0\np = 1\nx = 3\n")
        code, _, err = invoke(["toa", "--config", path])
        assert code == 2
        assert "verification failure" in err

    def test_narrow_barrier_exits_two(self, tmp_path):
        path = write_config(tmp_path, f"potential = {BARRIER}\nq = 1\np = {BARRIER_P!r}\n")
        code, out, err = invoke(["toa", "--config", path])
        assert code == 2
        assert not out
        assert "verification failure" in err

    def test_divergent_point_reported_but_not_verified(self, tmp_path):
        # accessible point outside the convergence region: quadrature is
        # fine, the series is meaningless, and exit 0 must not claim it
        path = write_config(tmp_path, "potential = 1:1\nq = 3\np = 1\nkmax = 6\n")
        code, out, _ = invoke(["toa", "--config", path])
        data = json.loads(out)
        assert code == 2
        assert data["converges"] is False
        assert data["verified"] is False
        assert data["tail_bound"] is None  # divergent tail must not leak bare Infinity
        assert math.isfinite(data["quadrature_value"])


# Runs the argument lists given as JSON in a fresh interpreter, printing after
# the package import, the CLI import and each run which float modules it
# holds, and which of the quadrature modules and scipy's.
FRESH_RUNS_SCRIPT = """
import json, sys
def loaded():
    return [m for m in ("numpy", "supratoa.numerics") if m in sys.modules]
def rule():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy" or m in ("supratoa.arrival", "supratoa.quadrature"))
import supratoa
seen = [["import supratoa", 0, loaded(), rule()]]
from supratoa.cli import main
seen.append(["import supratoa.cli", 0, loaded(), rule()])
for args in json.loads(sys.argv[1]):
    seen.append([" ".join(args), main(args), loaded(), rule()])
print(json.dumps(seen))
"""


def fresh_runs(runs):
    src = str(Path(supratoa.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", FRESH_RUNS_SCRIPT, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestFloatLayerLoadsOnFirstUse:
    """numpy and supratoa.numerics load with the first command that needs floats,
    the quadrature modules with the first that integrates; no command loads scipy."""

    def test_exact_commands_never_load_them(self, tmp_path):
        runs = [[cmd, "--seed-config", "--out", str(tmp_path / f"{cmd}.conf")] for cmd in COMMANDS]
        for x in ("0", "1/2"):
            conf = write_config(tmp_path, cli._SAMPLES["kernel"].replace("x = 0", f"x = {x}"), f"kernel-{x[0]}.conf")
            for fmt in ("json", "csv"):
                runs.append(["kernel", "--config", conf, "--format", fmt, "--out", str(tmp_path / f"k{x[0]}.{fmt}")])
        for cmd in ("classical-limit", "weyl-compare"):
            runs.append([cmd, "--config", str(tmp_path / f"{cmd}.conf"), "--out", str(tmp_path / cmd)])
        seen = fresh_runs(runs)
        assert [step for step, *_ in seen] == ["import supratoa", "import supratoa.cli", *map(" ".join, runs)]
        assert all(code == 0 and modules == rule == [] for _, code, modules, rule in seen), seen
        for cmd in COMMANDS:
            assert (tmp_path / f"{cmd}.conf").read_text() == cli._SAMPLES[cmd]

    @pytest.mark.parametrize(
        "cmd, kind, modules, rule",
        [
            ("toa", None, ["numpy"], ["supratoa.arrival", "supratoa.quadrature"]),
            ("grid", "kernel", ["numpy"], []),
            ("grid", "toa", ["numpy"], ["supratoa.arrival", "supratoa.quadrature"]),
            ("commutator", None, ["numpy", "supratoa.numerics"], ["supratoa.quadrature"]),
        ],
    )
    def test_float_commands_load_them_and_write_the_same_bytes(self, cmd, kind, modules, rule, tmp_path):
        sample = cli._SAMPLES[cmd].replace("grid_kind = kernel", f"grid_kind = {kind}")
        conf = write_config(tmp_path, sample, f"{cmd}.conf")
        fresh, here = tmp_path / "fresh.out", tmp_path / "here.out"
        seen = fresh_runs([[cmd, "--config", conf, "--out", str(fresh)]])
        assert [loaded for _, _, loaded, _ in seen] == [[], [], modules]
        assert [later for *_, later in seen] == [[], [], rule]  # and no scipy module
        assert seen[-1][1] == main([cmd, "--config", conf, "--out", str(here)]) == 0
        assert fresh.read_bytes() == here.read_bytes()

    def test_package_binds_every_name(self):
        namespace = {}
        exec("from supratoa import *", namespace)
        assert all(namespace[name] is getattr(supratoa, name) for name in supratoa.__all__)
        assert supratoa.BumpProfile is supratoa.numerics.BumpProfile
        assert supratoa.commutator_residual is supratoa.numerics.commutator_residual
        with pytest.raises(AttributeError, match="no attribute 'nope'"):
            supratoa.nope
        # the name perfbench/trace.py wraps
        assert cli.commutator_residual is supratoa.numerics.commutator_residual


class TestBenchmarkHooks:
    """perfbench's tracer wraps module attributes by name; a rename must fail here."""

    def test_tracer_installs_and_restores_every_hook(self):
        import importlib.util

        path = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"
        spec = importlib.util.spec_from_file_location("perfbench_trace", path)
        trace = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(trace)
        hooks = [(owner, attr) for owner, attr, _ in (*trace.SPANS, *trace.LEAVES)]
        hooks.append((Potential, "value"))
        named = {(cli, "kernel_eval"), (supratoa.numerics, "kernel_eval")}
        assert named | {(cli, "commutator_residual"), (cli, "kernel_to_dict")} <= set(hooks)
        originals = [getattr(owner, attr) for owner, attr in hooks]
        tracer = trace.Tracer()
        tracer.install()  # getattr on every wrapped name
        try:
            assert all(getattr(owner, attr) is not original for (owner, attr), original in zip(hooks, originals))
        finally:
            tracer.uninstall()
        assert all(getattr(owner, attr) is original for (owner, attr), original in zip(hooks, originals))


class TestExitCodeContract:
    """A derandomized fuzz of main over the six subcommands, on edge values.

    Each case sets one to three keys of a subcommand's sample config. Exit 1
    must come with a 'config error:' line, exit 2 with a 'verification
    failure:' line or a report, and no case may reach the generic 'error:'
    line of an unexpected exception.
    """

    CASES = 400
    HUGE = "7" * 400 + "/3"
    TINY = "3/" + "7" * 400
    REALS = ["0", "1e-300", "-1e-300", "1e300", "-1e300", "nan", "inf", "-inf", "1e16", "1e-320", HUGE, "-" + HUGE,
             TINY, "-" + TINY, "1/3", "-2", "1/2", "1", "0.3", "-0.7"]
    INTS = ["0", "1", "2", "5", "12", "-1", "1e300", "nan"]
    POTENTIALS = ["free", "2:1e300", "2:-1e300 4:1", "4:" + HUGE, "2:" + TINY, "1:1", "3:-1/2", "2:1/2 6:1/7",
                  "4:-1", "2:1e-320"]
    # the grid sample's 50-point axes, cut so that a toa grid stays small
    SMALL_GRID = {"nq": "4", "nqp": "4", "np": "4"}

    def pool(self, key):
        if key == "potential":
            return self.POTENTIALS
        if key == "grid_kind":
            return ["kernel", "toa", "nan"]
        if key in ("jmax", "kmax", "nq", "nqp", "np"):
            return self.INTS
        return self.REALS

    def config(self, command, overrides):
        values = {**(self.SMALL_GRID if command == "grid" else {}), **overrides}
        if command == "grid":  # a grid takes its own kind's keys only: the other kind's drawn keys are dropped
            kind = values.get("grid_kind", "kernel")
            other = set().union(*cli._GRID_KINDS.values()) - cli._GRID_KINDS.get(kind, set())
            values = {key: value for key, value in values.items() if key not in other}
        lines = [line for line in cli._SAMPLES[command].splitlines()
                 if line.partition("=")[0].strip() not in values]
        return "\n".join(lines + [f"{key} = {value}" for key, value in values.items()]) + "\n"

    def test_every_exit_code_names_its_cause(self, tmp_path):
        rng = random.Random("exit codes")
        conf, out = tmp_path / "fuzz.conf", tmp_path / "fuzz.out"
        codes = []
        for case in range(self.CASES):
            command = COMMANDS[case % len(COMMANDS)]
            keys = sorted(cli._COMMANDS[command][2] - {"format", "out"})
            overrides = {key: rng.choice(self.pool(key)) for key in rng.sample(keys, rng.randint(1, 3))}
            conf.write_text(self.config(command, overrides))
            out.unlink(missing_ok=True)
            code, _, err = invoke([command, "--config", str(conf), "--out", str(out)])
            where = (command, overrides, code, err)
            assert not err.startswith("error:"), where
            if code == 1:
                assert err.startswith("config error: ") and not out.exists(), where
            elif code == 2:
                assert err.startswith("verification failure: ") or (not err and out.exists()), where
            else:
                assert code == 0 and out.exists(), where
            codes.append((command, code))
        # each subcommand both runs and refuses, and verification failures are common
        assert all((command, 0) in codes and (command, 1) in codes for command in COMMANDS)
        assert sum(code == 2 for _, code in codes) >= 20
