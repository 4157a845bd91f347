"""Cold-start probe behind ``setup_s``; run.py starts it in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints two numbers: the seconds taken to import ``nrusim``, load and
validate the workload's first scenario and load the calibration table,
all with cold data-table caches; and the mean time of the reference
computation (speed.py) run just before and just after.  Building the
generated scenario mapping happens before the clock starts.
"""

import sys
from pathlib import Path
from time import perf_counter

import generators
import speed

workload, seed = sys.argv[1], int(sys.argv[2])
raw = None if workload == "bundled_suite" else getattr(generators, workload)(seed)
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
before = speed.reference_s()

started = perf_counter()
from nrusim import scenario  # noqa: E402  (the import is what is timed)
from nrusim.calibration import load_calibration  # noqa: E402

if raw is None:
    scenario.load_scenario(scenario.bundled_scenario_path(scenario.BUNDLED[0]))
else:
    scenario.scenario_from_dict(raw, name_hint=raw["name"])
load_calibration()
elapsed = perf_counter() - started
print(repr(elapsed), repr((before + speed.reference_s()) / 2))
