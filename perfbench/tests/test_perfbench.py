"""Tests of the benchmark itself: generators, oracles and a tiny run per workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, oracles  # noqa: E402
from perfbench.workloads import NEGATIVE_CONTROL, WORKLOADS, Job, generate  # noqa: E402


def _with(job: Job, **overrides) -> Job:
    cfg = job.config
    cfg.update({k: str(v) for k, v in overrides.items()})
    return replace(job, overrides=tuple(cfg.items()))


def _tiny(workload: str) -> list[Job]:
    """At least eleven cheap jobs drawn from the workload's own generator."""
    jobs = generate(workload, 3)
    if workload == "exact_tables":
        return [j for j in jobs if int(j.config.get("jmax", j.config.get("kmax"))) <= 10]
    if workload == "commutator":
        out = []
        for j in jobs:
            if j.command == "grid":
                out.append(_with(j, jmax=4, nq=2, nqp=2))
            elif j.command == "commutator":
                out.append(_with(j, potential="free", jmax=2, quad_abs_tol="1e-4", threshold="1e-2"))
            else:
                out.append(_with(j, quad_abs_tol="1e-4"))
        return out
    return [_with(j, nq=3, np=3) if j.command == "grid" else j for j in jobs[:14]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_deterministic(workload):
    assert generate(workload, 7) == generate(workload, 7)
    assert generate(workload, 7) != generate(workload, 8)
    ids = [job.id for job in generate(workload, 7)]
    assert len(set(ids)) == len(ids) >= 11


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_at_tiny_size(workload):
    jobs = _tiny(workload)
    assert len(jobs) >= 11
    result, info = harness.run(workload, 3, 0, True, jobs=jobs)
    assert result["correct"], info["failures"]
    assert result["attempted"] >= 2 * len(jobs)
    assert set(result["metrics"]) == set(harness.PER_LAYER)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["trace.overhead_ratio"] > 0
    if workload == "exact_tables":
        assert values["kernel_solver.table_entries"] > 0 and values["transforms.wigner_transform.s"] > 0
    elif workload == "commutator":
        assert values["kernel_solver.kernel_eval.calls"] > 0 and values["numerics.commutator_residual.s"] > 0
    else:
        assert values["classical_toa.toa_quadrature.calls"] > 0 and values["classical_toa.potential_evals"] > 0
    json.dumps(result)


def test_counts_repeat_for_one_seed():
    jobs = _tiny("toa_scan")
    first = harness.run("toa_scan", 3, 0, True, jobs=jobs)[0]["metrics"]
    second = harness.run("toa_scan", 3, 0, True, jobs=jobs)[0]["metrics"]
    for name in ("classical_toa.potential_evals", "classical_toa.toa_quadrature.calls", "cli.output_bytes"):
        assert first[name] == second[name]


def _job(workload: str, command: str) -> Job:
    return next(j for j in generate(workload, 3) if j.command == command)


def test_kernel_oracle_rejects_a_corrupted_table(tmp_path):
    from supratoa.cli import main

    job = Job("k", "kernel", (("potential", "2:1/2 3:1/3 6:1/7"), ("jmax", "6")))
    out, conf = tmp_path / "kernel.json", tmp_path / "kernel.conf"
    conf.write_text("potential = 2:1/2 3:1/3 6:1/7\njmax = 6\n")
    assert main(["kernel", "--config", str(conf), "--out", str(out)]) == 0
    good = out.read_text()
    assert oracles.judge(job, 0, good, "") == ("ok", "")
    data = json.loads(good)
    data["entries"][-1]["coeff"] = "1/3"
    verdict, reason = oracles.judge(job, 0, json.dumps(data), "")
    assert verdict == "wrong", reason


def test_toa_oracle_rejects_a_wrong_value():
    job = Job("t", "toa", (("potential", "2:1/2"), ("q", "1/5"), ("p", "1"), ("kmax", "12")))
    report = {
        "quadrature_value": -math.asin(0.2 / math.sqrt(1.04)),  # V = q^2/2, H = 0.52
        "convergence_ratio": 0.02,
        "converges": True,
        "verified": True,
    }
    assert oracles.judge(job, 0, json.dumps(report), "") == ("ok", "")
    report["quadrature_value"] *= 1 + 1e-6
    assert oracles.judge(job, 0, json.dumps(report), "")[0] == "wrong"
    # an unreachable point must end in exit 2 without a report
    barrier = Job("b", "toa", (("potential", "2:1 4:-1/4"), ("q", "1.6"), ("p", "0.1"), ("x", "0")))
    assert oracles.judge(barrier, 2, None, "verification failure: H - V <= 0")[0] == "ok"
    assert oracles.judge(barrier, 1, None, "error: math domain error")[0] == "failed"


def test_negative_control_oracle_rejects_a_passing_control():
    job = _job("commutator", NEGATIVE_CONTROL)
    assert oracles.judge(job, 0, json.dumps({"residual": 1.0, "error_budget": 0.01}), "")[0] == "ok"
    assert oracles.judge(job, 0, json.dumps({"residual": 3e-9, "error_budget": 2e-5}), "")[0] == "wrong"


def test_commutator_oracle_checks_threshold_and_budget():
    job = _job("commutator", "commutator")
    threshold = float(job.config["threshold"])
    ok = {"residual": threshold / 10, "error_budget": threshold, "passed": True}
    assert oracles.judge(job, 0, json.dumps(ok), "")[0] == "ok"
    over_budget = dict(ok, error_budget=threshold / 100)
    assert oracles.judge(job, 0, json.dumps(over_budget), "")[0] == "wrong"


def test_classical_iterates_match_the_closed_form_route():
    from fractions import Fraction

    from supratoa import Potential, toa_iterate_closed

    coeffs = {1: Fraction(2, 3), 3: Fraction(-1, 4), 5: Fraction(2, 7)}
    x = Fraction(1, 3)
    ours = oracles.classical_iterates(coeffs, Fraction(3, 2), x, 4)
    for k, poly in enumerate(ours):
        closed = toa_iterate_closed(Potential.from_pairs(coeffs.items()), Fraction(3, 2), k, x)
        assert poly == {d: c * (-1) ** k for d, c in closed.coeffs.items()}


def test_tail_needs_ten_samples_beyond_it():
    value, pct = harness.tail([float(i) for i in range(20)])
    assert value == 9.0 and math.isclose(pct, 50.0)
    with pytest.raises(ValueError):
        harness.tail([1.0] * 10)


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(m["unit"] == harness.END_TO_END[m["name"]] for m in spec["end_to_end"])
