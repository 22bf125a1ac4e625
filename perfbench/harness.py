"""Closed-loop client: run a workload's jobs through supratoa.cli.main in-process.

One client in one process, no threads: each job starts when the previous
one has returned. A run starts with one round of every job of the
workload, then repeats the jobs that took under REPEAT_BELOW_S until the
measuring time is spent. The end-to-end metrics are taken over each job's
median latency, so every run weighs the same mix of jobs once.
With tracing on, an untraced round, a traced round and an untraced repeat
of the short jobs are run; the per-layer numbers come from the traced one.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from time import perf_counter

from supratoa import cli, kernel_solver, numerics
from supratoa.algebra import QPoly
from supratoa.classical_toa import Potential

from . import oracles
from .trace import Tracer
from .workloads import NEGATIVE_CONTROL, Job, generate, parse_potential

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"

# name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SHARES = ("cli", "kernel_solver", "kernel_eval", "transforms", "classical_toa", "numerics", "serialize")

PER_LAYER = {
    "cli.load_config.s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.grid_nan_rows": "count",
    "kernel_solver.solve_kernel_general.s": "s",
    "kernel_solver.solve_kernel_general.calls": "count",
    "kernel_solver.table_entries": "count",
    "kernel_solver.pde_residual.s": "s",
    "kernel_solver.boundary_check.s": "s",
    "kernel_solver.classical_term.s": "s",
    "kernel_solver.kernel_eval.calls": "count",
    "kernel_solver.kernel_eval.s": "s",
    "transforms.wigner_transform.s": "s",
    "transforms.weyl_quantize.s": "s",
    "classical_toa.local_toa.s": "s",
    "classical_toa.toa_quadrature.s": "s",
    "classical_toa.toa_quadrature.calls": "count",
    "classical_toa.toa_quadrature.not_accessible": "count",
    "classical_toa.convergence_margin.s": "s",
    "classical_toa.series_tail_bound.s": "s",
    "classical_toa.potential_evals": "count",
    "numerics.commutator_residual.s": "s",
    "serialize.kernel_to_dict.s": "s",
    "serialize.series_to_list.s": "s",
    "trace.overhead_ratio": "ratio",
    **{f"share.{layer}": "ratio" for layer in SHARES},
}

# A fresh interpreter importing the CLI and serving its cheapest request.
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); from supratoa.cli import main; "
    "sys.exit(main(['kernel', '--seed-config']))"
)
SETUP_SPAWNS = 3

# After one full round, jobs faster than this are run again until the
# measuring time is spent and each has at least MIN_SAMPLES runs; slower
# jobs average out load from outside the process on their own.
REPEAT_BELOW_S = 2.0
MIN_SAMPLES = 3


@dataclass
class Result:
    job: Job
    seconds: float
    code: int
    size: int
    digest: str
    stderr: str


def measure_setup(spawns: int = SETUP_SPAWNS) -> float:
    """Median wall time of fresh interpreters reaching their first CLI request."""
    times = []
    for i in range(spawns + 1):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True, timeout=120,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        if i:  # the first spawn may compile bytecode; users pay that once
            times.append(perf_counter() - start)
    return statistics.median(times)


def config_text(sample: str, overrides: dict[str, str]) -> str:
    """The --seed-config sample with the given keys set (appended if absent)."""
    lines, seen = [], set()
    for line in sample.splitlines():
        key = line.split("=", 1)[0].strip() if "=" in line and not line.lstrip().startswith("#") else None
        if key in overrides:
            line = f"{key} = {overrides[key]}"
            seen.add(key)
        lines.append(line)
    lines += [f"{key} = {value}" for key, value in overrides.items() if key not in seen]
    return "\n".join(lines) + "\n"


def negative_control(cfg: dict[str, str]) -> str:
    """Commutator residual of a table whose seed entry is corrupted to 1/2."""
    V = Potential(QPoly(parse_potential(cfg["potential"])))
    K = kernel_solver.solve_kernel_general(kernel_solver.KernelRequest(V, 1, int(cfg["jmax"])))
    K = K.replace_entry(1, 0, 0, Fraction(1, 2))

    def bump(prefix):
        return numerics.BumpProfile(
            float(Fraction(cfg[f"{prefix}_center"])), float(Fraction(cfg[f"{prefix}_halfwidth"]))
        )

    quad = numerics.QuadSpec(float(cfg["quad_abs_tol"]))
    report = numerics.commutator_residual(V, K, bump("phi"), bump("psi"), 1.0, 1.0, quad)
    return json.dumps({"residual": report.residual, "error_budget": report.error_budget})


class Runner:
    """Writes each job's config once, then runs jobs and records what they did."""

    def __init__(self, jobs: list[Job], work: Path):
        self.jobs = jobs
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        samples = {}
        for job in jobs:
            if job.command == NEGATIVE_CONTROL:
                continue
            if job.command not in samples:
                path = work / f"sample-{job.command}.conf"
                cli.main([job.command, "--seed-config", "--out", str(path)])
                samples[job.command] = path.read_text(encoding="utf-8")
            self.config_path(job).write_text(config_text(samples[job.command], job.config), encoding="utf-8")

    def config_path(self, job: Job) -> Path:
        return self.work / f"{job.id}.conf"

    def out_path(self, job: Job) -> Path:
        return self.work / f"{job.id}.out"

    def _call(self, job: Job) -> int:
        if job.command == NEGATIVE_CONTROL:
            self.out_path(job).write_text(negative_control(job.config), encoding="utf-8")
            return 0
        return cli.main([job.command, "--config", str(self.config_path(job)), "--out", str(self.out_path(job))])

    def run_round(self, jobs: list[Job], tracer: Tracer | None = None) -> list[Result]:
        results = []
        for job in jobs:
            out = self.out_path(job)
            out.unlink(missing_ok=True)
            call = self._call
            if tracer is not None:
                tracer.job = job.id
                call = tracer.span("library.negative_control" if job.command == NEGATIVE_CONTROL else "cli.main", call)
            gc.collect()  # a fresh CLI process would not pay for the last job's garbage
            err = io.StringIO()
            start = perf_counter()
            with redirect_stderr(err):
                try:
                    code = call(job)
                except Exception as exc:  # a library job has no CLI to catch for it
                    err.write(f"{type(exc).__name__}: {exc}")
                    code = 1
            seconds = perf_counter() - start
            data = out.read_bytes() if out.exists() else b""
            results.append(Result(job, seconds, code, len(data), hashlib.blake2b(data).hexdigest(), err.getvalue()))
        return results

    def output(self, job: Job) -> str | None:
        out = self.out_path(job)
        return out.read_text(encoding="utf-8") if out.exists() else None


def warm_up(work: Path) -> None:
    """Run the kernel and toa samples once so lazy imports finish before timing."""
    for command in ("kernel", "toa"):
        conf = work / f"warm-{command}.conf"
        cli.main([command, "--seed-config", "--out", str(conf)])
        with redirect_stderr(io.StringIO()):
            cli.main([command, "--config", str(conf), "--out", str(work / f"warm-{command}.out")])


def _verdict_key(r: Result) -> str:
    """Identifies a result by everything its verdict depends on, oracle code included."""
    h = hashlib.blake2b(Path(oracles.__file__).read_bytes())
    h.update(json.dumps([r.job.command, r.job.overrides, r.code, r.digest, r.stderr]).encode())
    return h.hexdigest()


def judge_all(runner: Runner, results: list[Result]) -> dict[str, tuple[str, str]]:
    """Verdict per job id. Repeats of a job must reproduce its first result.

    Verdicts are kept in a file under WORK, so a later run in the same
    checkout that produces the same bytes reuses them instead of checking
    the same output again.
    """
    cache_file = WORK / "verdicts.json"
    cache = json.loads(cache_file.read_text()) if cache_file.exists() else {}
    first: dict[str, Result] = {}
    verdicts: dict[str, tuple[str, str]] = {}
    for r in results:
        ref = first.setdefault(r.job.id, r)
        if (r.code, r.digest) != (ref.code, ref.digest):
            verdicts[r.job.id] = ("wrong", "a repeat gave a different exit code or output")
    for job_id, r in first.items():
        if job_id not in verdicts:
            key = _verdict_key(r)
            if key not in cache:
                cache[key] = oracles.judge(r.job, r.code, runner.output(r.job), r.stderr)
            verdicts[job_id] = tuple(cache[key])
    cache_file.write_text(json.dumps(cache))
    return verdicts


def job_latencies(results: list[Result]) -> list[float]:
    """Each job's median latency over the rounds of a run.

    A burst of load from outside the process slows one round of a job, not
    its median, so the end-to-end metrics below are taken over these.
    """
    runs: dict[str, list[float]] = {}
    for r in results:
        runs.setdefault(r.job.id, []).append(r.seconds)
    return [statistics.median(times) for times in runs.values()]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with ten samples above it."""
    n = len(latencies)
    if n < 11:
        raise ValueError(f"{n} jobs are too few for a tail latency")
    return sorted(latencies)[n - 11], 100.0 * (n - 10) / n


def _nan_rows(runner: Runner) -> int:
    count = 0
    for job in runner.jobs:
        if job.command == "grid" and job.config.get("grid_kind") == "toa":
            text = runner.output(job) or ""
            count += sum(1 for line in text.splitlines()[1:] if math.isnan(float(line.rsplit(",", 1)[1])))
    return count


def layer_metrics(tracer: Tracer, runner: Runner, results: list[Result], overhead: float) -> dict[str, float]:
    selfs = tracer.self_times()
    calls = tracer.calls()
    values: dict[str, float] = {}
    for name in PER_LAYER:
        if name.endswith(".s"):
            values[name] = selfs.get(name[:-2], 0.0)
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        else:
            values[name] = tracer.counts.get(name, 0)
    values["cli.self_s"] = selfs.get("cli.main", 0.0)
    values["cli.output_bytes"] = sum(r.size for r in results)
    values["cli.grid_nan_rows"] = _nan_rows(runner)
    values["trace.overhead_ratio"] = overhead
    total = sum(selfs.values())
    for layer in SHARES:
        if layer == "kernel_eval":
            part = selfs.get("kernel_solver.kernel_eval", 0.0)
        else:
            part = sum(s for n, s in selfs.items() if n.split(".")[0] == layer and n != "kernel_solver.kernel_eval")
        values[f"share.{layer}"] = part / total if total else 0.0
    return values


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath", "click")},
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, traced: bool, jobs: list[Job] | None = None) -> tuple[dict, dict]:
    """(result, info): the result line's object and the run's extra record."""
    jobs = generate(workload, seed) if jobs is None else jobs
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    trace_file = WORK / f"trace-{workload}-{seed}.json"
    setup_s = None if traced else measure_setup()
    runner = Runner(jobs, work)
    warm_up(work)

    start = perf_counter()
    untraced = runner.run_round(jobs)
    cheap = [r.job for r in untraced if r.seconds < REPEAT_BELOW_S]
    rounds = 1
    if traced:
        tracer = Tracer()
        tracer.install()
        try:
            traced_results = runner.run_round(jobs, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(trace_file)
        # Short jobs run untraced once more, so that the overhead compares
        # warm runs on both sides; long jobs hardly feel the cold start.
        reference = {r.job.id: r.seconds for r in untraced}
        repeat = runner.run_round(cheap)
        reference.update((r.job.id, r.seconds) for r in repeat)
        overhead = sum(r.seconds for r in traced_results) / sum(reference.values())
        metrics, units = layer_metrics(tracer, runner, traced_results, overhead), PER_LAYER
        results = untraced + traced_results + repeat
    else:
        while cheap and (rounds < MIN_SAMPLES or perf_counter() - start < seconds):
            untraced += runner.run_round(cheap)
            rounds += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        results = untraced
    latencies = job_latencies(untraced)
    tail_value, tail_pct = tail(latencies)
    if not traced:
        metrics = {
            "jobs_per_s": len(latencies) / sum(latencies),
            "job_s.p50": statistics.median(latencies),
            "job_s.tail": tail_value,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    verdicts = judge_all(runner, results)
    shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for r in results if verdicts[r.job.id][0] != "ok")
    result = {
        "correct": all(v != "wrong" for v, _ in verdicts.values()),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    info = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(traced),
        **environment(seed),
        "jobs_per_round": len(jobs),
        "rounds": rounds,
        "failed_ratio": failed / len(results),
        "job_s.tail_percentile": tail_pct,
        "job_s.tail_samples": len(latencies),
        "trace_file": str(trace_file.relative_to(ROOT)) if traced else None,
        "failures": sorted(
            {f"{job_id} {v}: {reason}" for job_id, (v, reason) in verdicts.items() if v != "ok"}
        ),
    }
    return result, info
