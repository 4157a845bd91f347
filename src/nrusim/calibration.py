"""Calibration constants for the latency and throughput models.

Everything here is a calibration input, not a prediction: the shipped
values were tuned once so the bundled reference scenarios reproduce the
measured desk-scale numbers, and they live in one data file so retuning
never touches code.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .yamlio import load_data


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
    """The shipped table: its keys are the field names, its values taken as written."""
    raw = load_data("calibration.yaml")
    return Calibration(**raw["latency_us"], **raw["throughput"])
