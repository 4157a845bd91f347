"""UE/gNB attach orchestration, LBT channel access, and TDD scheduling.

The LBT gate is an energy-detect clear-channel assessment with binary
exponential backoff (Category-4 flavour): the channel must measure below
the CCA threshold for a full CCA duration before a grant; every busy
observation draws a fresh backoff from the current contention window and
doubles the window up to its cap.  All randomness comes from the
generator the caller passes in, so identical seeds give identical
decisions.
"""

from __future__ import annotations

import enum
import functools
from bisect import bisect_right
from itertools import accumulate
from operator import itemgetter
from random import Random
from typing import NamedTuple

from .corenet import CoreNetwork, PduSession
from .errors import AllocationError, CheckedRecord, ConfigError, StateError
from .spectrum import BandPlan, ss_scan_candidates


class UePhase(enum.IntEnum):
    POWERED = 0
    SCANNING = 1
    SYNCED = 2
    REGISTERED = 3
    SESSION_ACTIVE = 4


class UeState:
    """Where one UE's attach got to; ``attach`` advances it phase by phase."""

    __slots__ = ("phase", "found_gscn", "session", "failure", "scan_steps")

    def __init__(self, phase: UePhase = UePhase.POWERED):
        self.phase = phase
        self.found_gscn: int | None = None
        self.session: PduSession | None = None
        self.failure: str | None = None
        self.scan_steps = 0


def ue_cell_search(band: BandPlan, broadcasting_gscn: int | None) -> tuple[int | None, int]:
    """Sweep the band's sync raster in ascending order.

    Returns the matching GSCN (or None) and the number of candidates
    examined; an absent gNB costs a full sweep.  The answer comes from the
    band's map of each GSCN's place in the sweep, built once.
    """
    steps = _sweep_steps(band)
    if broadcasting_gscn in steps:
        return broadcasting_gscn, steps[broadcasting_gscn]
    return None, len(steps)


@functools.lru_cache(maxsize=16)
def _sweep_steps(band: BandPlan) -> dict[int, int]:
    """GSCN -> its 1-based position in the band's ascending sweep; GSCNs there are unique."""
    return {gscn: steps for steps, (gscn, _freq) in enumerate(ss_scan_candidates(band), start=1)}


def attach(
    band: BandPlan,
    broadcasting_gscn: int | None,
    core: CoreNetwork,
    imsi: str,
    ue_id: str,
) -> UeState:
    """Run cell search, registration, and session setup for one UE.

    Monotone through the phases; a failure leaves the UE at the last
    phase it completed with the reason recorded.
    """
    state = UeState(phase=UePhase.SCANNING)
    found, steps = ue_cell_search(band, broadcasting_gscn)
    state.scan_steps = steps
    if found is None:
        state.failure = "no-cell-found"
        return state
    state.phase = UePhase.SYNCED
    state.found_gscn = found

    result = core.register_ue(imsi, ue_id=ue_id)
    if not result.accepted:
        state.failure = result.reason
        return state
    state.phase = UePhase.REGISTERED

    try:
        state.session = core.establish_pdu_session(ue_id)
    except (AllocationError, StateError) as exc:
        state.failure = str(exc)
        return state
    state.phase = UePhase.SESSION_ACTIVE
    return state


# ---------------------------------------------------------------------------
# Listen-before-talk
# ---------------------------------------------------------------------------

BACKOFF_SLOT_US = 9  # the observation slot of ETSI EN 301 893


class _LbtConfigFields(NamedTuple):
    cca_threshold_dbm: float = -72.0
    cca_duration_us: int = 25
    cw_min: int = 15
    cw_max: int = 1023


class LbtConfig(CheckedRecord, _LbtConfigFields):
    __slots__ = ()

    def _check(self):
        # The channel-access priority classes of ETSI EN 301 893 clause 4.2.7.3.2
        # (3GPP TS 37.213 Table 4.1.1-1): a defer period of 16 + p0 * 9 us with p0
        # in 1..7, CW_min in 3..15 and CW_max in 7..1023.
        for name, low, high in (("cca_duration_us", 25, 79), ("cw_min", 3, 15),
                                ("cw_max", 7, 1023)):
            value = getattr(self, name)
            if not low <= value <= high:
                raise ConfigError(f"{name} must be in [{low}, {high}] "
                                  f"(ETSI EN 301 893 clause 4.2.7.3.2), got {value}")
        if self.cw_min > self.cw_max:
            raise ConfigError(f"cw_min {self.cw_min} exceeds cw_max {self.cw_max}")


class _BurstFields(NamedTuple):
    start_us: int
    end_us: int
    power_dbm: float


class Burst(_BurstFields):
    """One foreign transmission on the shared channel: [start_us, end_us) at power_dbm.

    A plain tuple underneath, so a scenario can hold tens of thousands.
    Calling ``Burst`` checks the interval; a loader that checks many at
    once builds them unchecked with ``tuple.__new__(Burst, fields)``.
    """

    __slots__ = ()

    def __new__(cls, start_us: int, end_us: int, power_dbm: float):
        if start_us >= end_us:
            raise ConfigError(f"burst interval reversed: [{start_us}, {end_us})")
        return super().__new__(cls, start_us, end_us, power_dbm)


class ChannelOccupancy:
    """Timeline of foreign transmissions, sorted by (start, end).

    ``blocker`` answers from a per-threshold index, built on the first
    query at that threshold: the bursts at or above it, in timeline
    order, and the running maximum of their ends.  A linear scan would
    return the first of those bursts that ends after ``t0`` and starts
    before ``t1``.  Every loud burst before ``bisect_right(max_end, t0)``
    ends at or before ``t0``; the burst at that index is the first to end
    after it; every later one starts no earlier, so if that burst starts
    at or after ``t1`` none overlaps.  Same burst, O(log B) per query.
    """

    def __init__(self, bursts: list[Burst] | tuple[Burst, ...] = ()):
        # Two stable sorts on int keys: by end, then by start.  The same
        # (start, end) order as one tuple-key sort, entry order on ties,
        # at a fraction of the cost.
        timeline = sorted(bursts, key=itemgetter(1))
        timeline.sort(key=itemgetter(0))
        self.bursts = tuple(timeline)
        self._index: dict[float, tuple[tuple[Burst, ...], list[int]]] = {}

    def blocker(self, t0: int, t1: int, threshold_dbm: float) -> Burst | None:
        """First burst at/above threshold overlapping the open window [t0, t1)."""
        index = self._index.get(threshold_dbm)
        if index is None:
            loud = tuple(b for b in self.bursts if b.power_dbm >= threshold_dbm)
            # Seeded from the first end, not 0: burst times may be negative.
            max_end = list(accumulate((b.end_us for b in loud), max))
            index = self._index[threshold_dbm] = (loud, max_end)
        loud, max_end = index
        i = bisect_right(max_end, t0)
        if i < len(loud) and loud[i].start_us < t1:
            return loud[i]
        return None


class LbtResult(NamedTuple):
    grant_us: int
    busy_observations: int = 0
    granted = True  # the gate waits as long as it takes, so it always grants


def lbt_gate(occupancy: ChannelOccupancy, cfg: LbtConfig, now_us: int,
             rng: Random | None) -> LbtResult:
    """Earliest transmit grant at/after ``now_us``.

    A grant at time g means the window [g - cca_duration, g) measured
    idle.  A channel with no foreign bursts finds no blocker at the first
    probe, so it grants after one CCA without reading ``rng``, which may
    then be ``None``.
    """
    threshold_dbm, cca_us, cw, cw_max = cfg  # the window starts at cw_min
    t = now_us
    busy = 0
    while True:
        blocker = occupancy.blocker(t, t + cca_us, threshold_dbm)
        if blocker is None:
            return LbtResult(t + cca_us, busy)
        busy += 1
        backoff_slots = rng.randrange(cw + 1)  # the draws of randint(0, cw)
        cw = min(2 * cw + 1, cw_max)
        t = max(t, blocker.end_us) + backoff_slots * BACKOFF_SLOT_US


# ---------------------------------------------------------------------------
# TDD slot scheduling
# ---------------------------------------------------------------------------

SLOT_DL = "DL"
SLOT_UL = "UL"
SLOT_GUARD = "GUARD"


class _TddConfigFields(NamedTuple):
    period_slots: int = 10
    dl_slots: int = 7
    ul_slots: int = 2
    slot_us: int = 500  # 30 kHz SCS slot duration


class TddConfig(CheckedRecord, _TddConfigFields):
    """Periodic slot split; downlink first, guard in the middle, uplink last."""

    __slots__ = ()

    def _check(self):
        if self.dl_slots <= 0 or self.ul_slots <= 0:
            raise ConfigError("TDD needs at least one DL and one UL slot per period")
        if self.dl_slots + self.ul_slots > self.period_slots:
            raise ConfigError("DL + UL slots exceed the TDD period")

    @property
    def dl_fraction(self) -> float:
        return self.dl_slots / self.period_slots

    @property
    def ul_fraction(self) -> float:
        return self.ul_slots / self.period_slots


def slot_duration_us(scs_khz: int) -> int:
    """NR slot duration for a subcarrier spacing (15 kHz -> 1 ms)."""
    if scs_khz % 15 or scs_khz <= 0 or (scs_khz // 15) & (scs_khz // 15 - 1):
        raise ConfigError(f"unsupported SCS {scs_khz} kHz")
    return 15_000 // scs_khz


def schedule_tdd(cfg: TddConfig, slot_index: int) -> str:
    """Direction of one slot; periodic with the configured period."""
    pos = slot_index % cfg.period_slots
    if pos < cfg.dl_slots:
        return SLOT_DL
    if pos < cfg.period_slots - cfg.ul_slots:
        return SLOT_GUARD
    return SLOT_UL


def next_transmit_time(cfg: TddConfig | tuple[int, int, int, int], direction: str,
                       t_us: int) -> int:
    """Earliest instant at/after ``t_us`` inside a slot of that direction.

    Each direction holds one run of slots per period: DL from slot 0, UL
    ending the period.  So the answer is ``t_us`` inside the run, else the
    start of the run's next occurrence.  ``cfg`` may be the plain tuple of
    a ``TddConfig``'s fields, which unpacks faster.
    """
    period, dl_slots, ul_slots, slot_us = cfg  # one unpack: a named field read costs more
    slot = t_us // slot_us
    if direction == SLOT_DL:
        first, count = 0, dl_slots
    elif direction == SLOT_UL:
        first, count = period - ul_slots, ul_slots
    else:
        raise ConfigError(f"direction must be UL or DL, got {direction!r}")
    pos = (slot - first) % period
    if pos < count:
        return t_us
    return (slot + period - pos) * slot_us
