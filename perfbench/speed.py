"""The host's current speed, read from a fixed reference computation.

On the shared 2-core VM the benchmark was built on, the host's speed
drifted by up to a factor of two over seconds to minutes, in CPU time
as well as wall time.  Timing ``reference_s()`` right beside each
measured piece of work and scaling that work's time by
``REFERENCE_S / reference_s()`` gives host seconds on a host where the
reference takes ``REFERENCE_S``; the drift cancels out of the ratio.
The reference is pure Python that never touches nrusim and runs with
garbage collection off, so a program change can reach it only through
the CPU caches.  It needs only ``gc`` and ``time``, so the setup probe
can time it in a fresh interpreter before its own clock starts.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_S = 0.01  # seconds the reference computation takes on the reference host


def _reference_work() -> int:
    """Hashing, allocation, sorting and string building, as the simulator does them.

    It works in small rounds, so it adds well under 1 MB to the peak RSS.
    """
    total = 0
    x = 12345
    for _round in range(12):
        table = {}
        for i in range(1000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            table[(i % 97, x)] = [i, str(i), i * 0.5]
        rows = sorted(table.items(), key=lambda kv: kv[0][1])
        total += len(",".join(f"{key[0]}:{value[1]}" for key, value in rows[:250]))
    return total


def reference_s() -> float:
    """Seconds the reference computation takes now (no garbage collection inside)."""
    gc.disable()
    try:
        started = perf_counter()
        _reference_work()
        return perf_counter() - started
    finally:
        gc.enable()


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` measured beside a reference run of ``reference`` s, at reference speed."""
    return seconds * REFERENCE_S / reference
