"""Record the reference outputs the benchmark checks every pass against.

    python3 perfbench/record.py

Writes ``digests.json`` (SHA-256 of each bundled scenario's report.json
and events.jsonl) and ``reference.json`` (for each generated workload and
each seed below ``SEEDS``, the SHA-256 of the report's attach, pings,
throughput, passive and counters sections).  Run it only on a commit
whose outputs are known good; the files in the tree were recorded on the
commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

OUT = HERE.parent / ".perfbench_out" / "record"
SEEDS = 64


def main() -> int:
    digests = {}
    for name in workloads.scenario_mod.BUNDLED:
        job = workloads.Job(name=name, path=workloads.scenario_mod.bundled_scenario_path(name))
        output = workloads.execute(job, OUT / job.name, monitor=True)
        digests[job.name] = workloads.file_digests(output.out)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")

    reference = {}
    for cls in (workloads.PingFleet, workloads.ContendedBulk):
        reference[cls.name] = {}
        for seed in range(SEEDS):
            raw = cls.generator(seed)
            job = workloads.Job(name=raw["name"], raw=raw)
            output = workloads.execute(job, OUT / job.name, monitor=False)
            reference[cls.name][str(seed)] = workloads.sections_digest(output.report)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
