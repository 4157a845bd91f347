"""Diagnostic scale ladder: µs per event-log record, at reference speed, as inputs grow.

    python3 perfbench/ladder.py [--seed 0]

Not a workload and not gated.  It reuses the two generators and prints
``us_per_event`` (load, run and serialise, over event-log records) for a
ping fleet of growing UE count and for a contended channel of growing
burst count.  A flat column means cost linear in events; a rising one is
a super-linear path.  Times are scaled to reference speed as in run.py
(speed.py).  Each point is the median of three runs after one
warm run; a ladder stops early once it has used its half of
``BUDGET_S``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import generators  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

OUT = HERE.parent / ".perfbench_out" / "ladder"
UES = (25, 50, 100, 200, 400, 800)
BURSTS = (0, 1500, 3000, 6000, 12000, 24000)
BUDGET_S = 120.0  # both ladders together


def point(raw: dict) -> tuple[int, float]:
    """(events, median µs per event) of one generated scenario."""
    job = workloads.Job(name=raw["name"], raw=raw)
    costs = []
    before = speed.reference_s()
    for _ in range(4):
        started = perf_counter()
        output = workloads.execute(job, OUT, monitor=False)
        elapsed = perf_counter() - started
        after = speed.reference_s()
        costs.append(speed.scaled(elapsed, (before + after) / 2) / output.events * 1e6)
        before = after
    return output.events, statistics.median(costs[1:])


def ladder(label: str, sizes, build, budget_s: float) -> None:
    print(f"{label:>8} {'events':>8} {'us_per_event':>13}")
    deadline = perf_counter() + budget_s
    for size in sizes:
        if perf_counter() > deadline:
            print(f"{size:>8} {'skipped: over budget':>22}")
            continue
        events, cost = point(build(size))
        print(f"{size:>8} {events:>8} {cost:>13.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print(f"# scale ladder, seed {args.seed}")
    ladder("ues", UES, lambda n: generators.ping_fleet(args.seed, ues=n), BUDGET_S / 2)
    print()
    ladder("bursts", BURSTS, lambda n: generators.contended_bulk(args.seed, bursts=n),
           BUDGET_S / 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
