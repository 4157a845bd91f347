"""Measure the benchmark's baseline: repeated runs per workload plus one traced run.

    python3 perfbench/baseline.py [--first-seed 0] [--write]

For each workload, runs ``run.py`` ``RUNS`` times with consecutive
seeds and ``run_seconds`` from BENCHMARK.json, then prints each
end-to-end metric's median, quartiles and spread (interquartile range
over median) against its bound.  One ``--trace 1`` run per workload
gives the per-layer table.  With ``--write`` the result goes to
``baseline.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect outputs\n{done.stderr}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))

    baseline = {
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for name in names:
        values: dict[str, list[float]] = {}
        attempted = failed = 0
        for seed in seeds:
            result = run_once(name, seed, seconds, trace=0)
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        table = {}
        for metric, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            table[metric] = {"median": median, "q1": q1, "q3": q3, "n": len(vals),
                             "spread": spread, "bound": bounds[metric]}
            steady = spread < bounds[metric] / 3
            ok = ok and steady
            print(f"{name:<15} {metric:<14} median {median:<10.5g} q1 {q1:<10.5g} "
                  f"q3 {q3:<10.5g} spread {spread:.3f} bound {bounds[metric]}"
                  f"{'' if steady else '  NOT STEADY'}")
        traced = run_once(name, seeds[0], seconds, trace=1)["metrics"]
        baseline["workloads"][name] = {
            "scenario_runs": {"attempted": attempted, "failed": failed},
            "end_to_end": table,
            "per_layer": {metric: entry["value"] for metric, entry in traced.items()},
        }
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
