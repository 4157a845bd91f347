"""Calibration constants for the latency and throughput models.

Everything here is a calibration input, not a prediction: the shipped
values were tuned once so the bundled reference scenarios reproduce the
measured desk-scale numbers, and they live in one data file so retuning
never touches code.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .tables import load_data


class Calibration(NamedTuple):
    # Fixed one-way processing delays, microseconds.
    ue_proc_us: int
    gnb_proc_us: int
    core_proc_us: int
    radio_proc_us: int
    over_air_extra_us: int
    # Seeded per-traversal jitter, uniform integer [0, max].
    jitter_max_us: int
    # Per-ping application scheduling offset, uniform integer [0, max).
    ping_phase_max_us: int
    # Cell-search sweep cost per GSCN candidate.
    scan_step_us: int
    # Control-plane exchange costs during attach.
    registration_us: int
    session_setup_us: int
    # Throughput capacity model.
    dl_bits_per_hz: float
    ul_bits_per_hz: float
    interface_efficiency: dict[str, float]
    scs_factor: dict[int, float]
    attenuated_cable_factor: float
    # Windowed load shape: per-second burst fraction drawn from this range.
    window_burst_low: float
    window_burst_high: float
    tick_ms: int


@functools.lru_cache(maxsize=1)
def load_calibration() -> Calibration:
    """The shipped ``calibration.json``: its keys are the field names, its values taken as written.

    Calibration constants for the latency and throughput models.

    These are calibration inputs, not blind predictions: the latency
    constants were tuned once so the reference over-air scenario averages
    ~11 ms UE-to-core RTT, and the throughput constants so the reference
    downlink peaks land at 55/63/20 Mbps across the bundled hardware mixes.

    ``latency_us``:

    - ``ue_proc_us``: UE stack, one way
    - ``gnb_proc_us``: gNB stack, one way
    - ``core_proc_us``: UPF/bridge hop
    - ``radio_proc_us``: SDR buffering per radio traversal
    - ``over_air_extra_us``: extra one-way cost of the over-air front end
    - ``jitter_max_us``: uniform per-traversal jitter ceiling
    - ``ping_phase_max_us``: app-level scheduling offset per echo request
    - ``scan_step_us``: cell-search cost per GSCN candidate
    - ``registration_us``: registration exchange
    - ``session_setup_us``: session establishment exchange

    ``throughput``:

    - ``dl_bits_per_hz``, ``ul_bits_per_hz``: One shared per-Hz rate keeps
      saturated DL:UL equal to the TDD slot split whenever both directions
      see the same receive chain.
    - ``interface_efficiency``: Receive-side host interface efficiency;
      USB3-attached SDRs drain fewer useful samples per second than
      Ethernet-attached ones.
    - ``attenuated_cable_factor``: MCS back-off when the link runs through
      an attenuated cable.
    - ``window_burst_low``, ``window_burst_high``: Per-second goodput burst
      fraction during load, drawn uniformly from [window_burst_low,
      window_burst_high].

    JSON keys are strings, so the ``scs_factor`` keys (subcarrier spacing,
    kHz) are turned back into ints; nothing else is converted.
    """
    raw = load_data("calibration.json")
    throughput = raw["throughput"]
    throughput["scs_factor"] = {int(scs): f for scs, f in throughput["scs_factor"].items()}
    return Calibration(**raw["latency_us"], **throughput)
