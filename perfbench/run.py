"""nrusim benchmark: host time of whole scenario runs, and a traced per-layer split.

    python3 perfbench/run.py --workload ping_fleet --seed 3 --trace 0

Runs one workload as a closed loop with a single client: each pass
starts when the previous one ends, in this one process, with no threads.
The first pass warms the caches and is not timed.  Every pass is checked
(see workloads.py); a scenario run that raises or fails its check counts
as failed.  Times are host seconds scaled to reference speed (speed.py).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer
ones from tracer.py.  Without ``--workload`` every workload runs in its
own interpreter, one after another, and a summary table follows.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
if not (SRC / "nrusim" / "__init__.py").is_file():
    sys.exit(f"perfbench: no nrusim source tree at {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, ROOT_SPAN, Tracer, layer_metrics  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)
SETUP_RUNS = 11
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def measure_setup(workload: str, seed: int) -> list[tuple[float, float]]:
    """``setup_s`` samples, each (seconds, reference seconds) from a fresh interpreter."""
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        seconds, reference = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(reference)))
    return samples


class Sample(NamedTuple):
    """One correct timed pass."""

    wall: float  # host seconds
    events: int  # event-log records
    layers: dict  # per-layer values of a traced pass, else empty
    reference: float  # mean reference-computation time just before and after the pass

    @property
    def scaled(self) -> float:
        return speed.scaled(self.wall, self.reference)


class Runner:
    """Timed passes over one workload's jobs, with their checks."""

    def __init__(self, workload):
        self.workload = workload
        self.jobs = workload.jobs()
        self.out = OUT / workload.name
        shutil.rmtree(self.out, ignore_errors=True)
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer=None) -> tuple[float, int, bool]:
        """Run every job once: (timed seconds, event-log records, all correct)."""
        wall = 0.0
        events = 0
        ok = True
        for job in self.jobs:
            self.attempted += 1
            root = tracer.open(ROOT_SPAN) if tracer else None
            started = perf_counter()
            try:
                output = workloads.execute(job, self.out / job.name, self.workload.monitor)
            except Exception:  # a crashing scenario run is a counted failure
                traceback.print_exc(file=sys.stderr)
                output = None
            finally:
                wall += perf_counter() - started
                if tracer:
                    tracer.close(root)
            problems = ["run raised"] if output is None else self.workload.check(job, output)
            if problems:
                self.failed += 1
                ok = False
                print(f"FAILED {self.workload.name}/{job.name}: {'; '.join(problems)}",
                      file=sys.stderr)
            else:
                events += output.events
        return wall, events, ok

    def timed(self, seconds: float, tracer=None) -> list[Sample]:
        """Correct passes run until ``seconds`` have gone (at least MIN_PASSES attempted).

        The reference computation runs between passes, so each pass is
        bracketed by one run before and one after it.
        """
        samples = []
        deadline = perf_counter() + seconds
        passes = 0
        before = speed.reference_s()
        while passes < MIN_PASSES or perf_counter() < deadline:
            passes += 1
            if tracer:
                tracer.reset()
            wall, events, ok = self.one_pass(tracer)
            after = speed.reference_s()
            reference, before = (before + after) / 2, after
            if not ok:
                continue
            layers = {}
            if tracer:
                tracer.counts["engine.events"] += events
                layers = traced_layers(tracer, wall)
            samples.append(Sample(wall, events, layers, reference))
        return samples


def traced_layers(tracer, wall: float) -> dict[str, float]:
    """Per-layer values of a traced pass whose own clock read ``wall`` seconds.

    The self times of all spans, ``trace.unattributed_s`` included, must
    add up to that independently timed wall, give or take the cost of
    opening the root spans; time in a span that no metric reports, or
    outside the root spans, breaks the sum.
    """
    if any(span[0] != ROOT_SPAN for span in tracer.spans if span[3] < 0):
        raise RuntimeError("a span was recorded outside the timed region")
    values = layer_metrics(tracer.spans, tracer.counts)
    total = sum(values[name] for name, unit, _fn in PER_LAYER if unit == "s")
    if abs(total - wall) > 1e-3 + 0.01 * wall:
        raise RuntimeError(f"self times add up to {total} s, not the timed {wall} s")
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name](seed)
    runner = Runner(workload)
    print(f"# workload={name} seed={seed} scenarios={','.join(j.name for j in runner.jobs)} "
          f"trace={int(trace)} seconds={seconds:g}")
    runner.one_pass()  # warm-up: fills caches, fixes the first-pass outputs
    metrics: dict[str, dict] = {}
    if not trace:
        setup = measure_setup(name, seed)
        samples = runner.timed(seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        series = (  # (metric, unit, values at reference speed, host values)
            ("setup_s", "s", [speed.scaled(t, ref) for t, ref in setup], [t for t, _ in setup]),
            ("wall_s", "s", [s.scaled for s in samples], [s.wall for s in samples]),
            ("us_per_event", "us", [s.scaled / s.events * 1e6 for s in samples],
             [s.wall / s.events * 1e6 for s in samples]),
        )
        for metric, unit, values, host in series:
            q1, median, q3 = quartiles(values or [0.0])
            metrics[metric] = {"value": median, "unit": unit}
            print(f"{metric:<14} {median:.6g} {unit}  (median of {len(values)}; quartiles "
                  f"{q1:.6g} .. {q3:.6g}; unscaled host median {quartiles(host or [0.0])[1]:.6g})")
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        print(f"{'peak_rss_mb':<14} {rss_mb:.6g} MB")
    else:
        plain = runner.timed(seconds / 3)
        tracer = Tracer()
        tracer.install()
        try:
            samples = runner.timed(2 * seconds / 3, tracer)
        finally:
            tracer.restore()
        empty = Sample(0.0, 0, {metric: 0.0 for metric, _u, _f in PER_LAYER}, speed.REFERENCE_S)
        samples = samples or [empty]
        for metric, unit, _fn in PER_LAYER:
            value = statistics.median(s.layers[metric] for s in samples)
            metrics[metric] = {"value": value, "unit": unit}
        metrics["trace.wall_s"] = {"value": statistics.median(s.wall for s in samples),
                                   "unit": "s"}
        # Both at reference speed, so host drift between the two phases cancels.
        traced = statistics.median(s.scaled for s in samples)
        untraced = statistics.median(s.scaled for s in plain or [empty])
        metrics["trace.overhead_frac"] = {"value": traced / untraced - 1 if untraced else 0.0,
                                          "unit": "ratio"}
        print(f"traced passes {len(samples)}, untraced {len(plain)}; "
              f"self times + unattributed = timed wall_s on every traced pass")
        for metric, entry in metrics.items():
            print(f"{metric:<32} {entry['value']:.6g} {entry['unit']}")
    failed_frac = runner.failed / runner.attempted
    print(f"{'failed_frac':<14} {failed_frac:.6g}  ({runner.failed} of {runner.attempted} "
          f"scenario runs)")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own interpreter, then a summary table."""
    results = {}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exited {done.returncode}", file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(f"\n{'metric':<32}" + "".join(f"{n:>18}" for n in NAMES))
    for metric in next(iter(results.values()))["metrics"]:
        row = [results[n]["metrics"][metric] for n in NAMES]
        print(f"{metric + ' (' + row[0]['unit'] + ')':<32}"
              + "".join(f"{cell['value']:>18.6g}" for cell in row))
    print(f"{'failed_frac':<32}"
          + "".join(f"{results[n]['failed'] / results[n]['attempted']:>18.6g}" for n in NAMES))
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
