"""Calibration constants for the latency and throughput models.

Everything here is a calibration input, not a prediction: the shipped
values were tuned once so the bundled reference scenarios reproduce the
measured desk-scale numbers, and they live in one data file so retuning
never touches code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .yamlio import load_data


@dataclass(frozen=True)
class Calibration:
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
    raw = load_data("calibration.yaml")
    lat = raw["latency_us"]
    thr = raw["throughput"]
    return Calibration(
        ue_proc_us=int(lat["ue_proc"]),
        gnb_proc_us=int(lat["gnb_proc"]),
        core_proc_us=int(lat["core_proc"]),
        radio_proc_us=int(lat["radio_proc"]),
        over_air_extra_us=int(lat["over_air_extra"]),
        jitter_max_us=int(lat["jitter_max"]),
        ping_phase_max_us=int(lat["ping_phase_max"]),
        scan_step_us=int(lat["scan_step"]),
        registration_us=int(lat["registration"]),
        session_setup_us=int(lat["session_setup"]),
        dl_bits_per_hz=float(thr["dl_bits_per_hz"]),
        ul_bits_per_hz=float(thr["ul_bits_per_hz"]),
        interface_efficiency={str(k): float(v) for k, v in thr["interface_efficiency"].items()},
        scs_factor={int(k): float(v) for k, v in thr["scs_factor"].items()},
        attenuated_cable_factor=float(thr["attenuated_cable_factor"]),
        window_burst_low=float(thr["window_burst_fraction"][0]),
        window_burst_high=float(thr["window_burst_fraction"][1]),
        tick_ms=int(thr["tick_ms"]),
    )
