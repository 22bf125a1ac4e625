"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline/BENCH_baseline.json
    python3 perfbench/collect.py --seeds 1,1,2 --trace 1 --out perfbench/baseline/BENCH_traced.json

For every workload and seed it runs perfbench/run.py in a fresh process,
keeps the result line and the record line, and reports per metric the
median, the quartiles and the spread (q3 - q1) / median, next to the
metric's bound from BENCHMARK.json. Spreads are computed the way
statistics.quantiles(values, n=4) gives the quartiles.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    """Seeds given as "1-10", or as a list such as "1,1,2" to run a seed twice."""
    if "," in text:
        return [int(s) for s in text.split(",")]
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, info = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"result": result, "info": info})
            values = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            print(workload, seed, result["correct"], result["attempted"], result["failed"], values, flush=True)
        summary = {}
        if len(runs) >= 2:
            for name in runs[0]["result"]["metrics"]:
                stats = summarise([r["result"]["metrics"][name]["value"] for r in runs])
                stats["bound"] = bounds.get(name)
                summary[name] = stats
                spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
                print(f"  {name:45s} median {stats['median']:.6g}  spread {spread}  bound {stats['bound']}")
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
