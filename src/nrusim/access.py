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
from dataclasses import dataclass
from random import Random

from .corenet import CoreNetwork, PduSession
from .errors import AllocationError, ConfigError, StateError
from .spectrum import BandPlan, ss_scan_candidates


class UePhase(enum.IntEnum):
    POWERED = 0
    SCANNING = 1
    SYNCED = 2
    REGISTERED = 3
    SESSION_ACTIVE = 4


@dataclass
class UeState:
    phase: UePhase = UePhase.POWERED
    found_gscn: int | None = None
    session: PduSession | None = None
    failure: str | None = None
    scan_steps: int = 0


def ue_cell_search(band: BandPlan, broadcasting_gscn: int | None) -> tuple[int | None, int]:
    """Sweep the band's sync raster in ascending order.

    Returns the matching GSCN (or None) and the number of candidates
    examined; an absent gNB costs a full sweep.
    """
    candidates = ss_scan_candidates(band)
    for steps, (gscn, _freq) in enumerate(candidates, start=1):
        if gscn == broadcasting_gscn:
            return gscn, steps
    return None, len(candidates)


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


@dataclass(frozen=True)
class LbtConfig:
    cca_threshold_dbm: float = -72.0
    cca_duration_us: int = 25
    cw_min: int = 15
    cw_max: int = 1023
    backoff_slot_us: int = 9

    def __post_init__(self):
        if self.cca_duration_us <= 0:
            raise ConfigError("CCA duration must be positive")
        if self.cw_min > self.cw_max:
            raise ConfigError(f"cw_min {self.cw_min} exceeds cw_max {self.cw_max}")


@dataclass(frozen=True)
class Burst:
    """One foreign transmission on the shared channel."""

    start_us: int
    end_us: int
    power_dbm: float

    def __post_init__(self):
        if self.start_us >= self.end_us:
            raise ConfigError(f"burst interval reversed: [{self.start_us}, {self.end_us})")


class ChannelOccupancy:
    """Timeline of foreign transmissions, sorted by start time."""

    def __init__(self, bursts: list[Burst] | tuple[Burst, ...] = ()):
        self.bursts = tuple(sorted(bursts, key=lambda b: (b.start_us, b.end_us)))

    def blocker(self, t0: int, t1: int, threshold_dbm: float) -> Burst | None:
        """First burst at/above threshold overlapping the open window [t0, t1)."""
        for burst in self.bursts:
            if burst.start_us >= t1:
                break
            if burst.end_us > t0 and burst.power_dbm >= threshold_dbm:
                return burst
        return None


@dataclass(frozen=True)
class LbtResult:
    granted: bool
    grant_us: int | None = None
    busy_observations: int = 0


def lbt_gate(
    occupancy: ChannelOccupancy,
    cfg: LbtConfig,
    now_us: int,
    rng: Random,
    horizon_us: int | None = None,
) -> LbtResult:
    """Earliest transmit grant at/after ``now_us``.

    A grant at time g means the window [g - cca_duration, g) measured
    idle.  With ``horizon_us`` set, sensing that cannot complete by the
    horizon returns DEFERRED instead of a grant.
    """
    t = now_us
    cw = cfg.cw_min
    busy = 0
    while True:
        if horizon_us is not None and t + cfg.cca_duration_us > horizon_us:
            return LbtResult(granted=False, busy_observations=busy)
        blocker = occupancy.blocker(t, t + cfg.cca_duration_us, cfg.cca_threshold_dbm)
        if blocker is None:
            return LbtResult(granted=True, grant_us=t + cfg.cca_duration_us, busy_observations=busy)
        busy += 1
        backoff_slots = rng.randint(0, cw)
        cw = min(2 * cw + 1, cfg.cw_max)
        t = max(t, blocker.end_us) + backoff_slots * cfg.backoff_slot_us


# ---------------------------------------------------------------------------
# TDD slot scheduling
# ---------------------------------------------------------------------------

SLOT_DL = "DL"
SLOT_UL = "UL"
SLOT_GUARD = "GUARD"


@dataclass(frozen=True)
class TddConfig:
    """Periodic slot split; downlink first, guard in the middle, uplink last."""

    period_slots: int = 10
    dl_slots: int = 7
    ul_slots: int = 2
    slot_us: int = 500  # 30 kHz SCS slot duration

    def __post_init__(self):
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

    @property
    def period_us(self) -> int:
        return self.period_slots * self.slot_us


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


def next_transmit_time(cfg: TddConfig, direction: str, t_us: int) -> int:
    """Earliest instant at/after ``t_us`` inside a slot of that direction."""
    slot = t_us // cfg.slot_us
    if schedule_tdd(cfg, slot) == direction:
        return t_us
    for k in range(1, cfg.period_slots + 1):
        if schedule_tdd(cfg, slot + k) == direction:
            return (slot + k) * cfg.slot_us
    raise ConfigError(f"no {direction} slot in the TDD period")  # unreachable with valid cfg
