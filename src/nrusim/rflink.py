"""Radio link budget and SDR/host sampling-capacity model.

The link budget works entirely in dB: received power is transmit power
minus the configured digital attenuation minus the medium loss.  The
capacity model expresses the one hard constraint the hardware imposes on
an SDR deployment: the host must drain the sample stream the radio
produces, and a host that cannot keeps the control plane alive while bulk
data dies.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Union

from .errors import CheckedRecord, ConfigError, DomainError
from .tables import load_data, shipped

# Digital attenuation applied per unit of the attenuation-factor setting.
ATT_DB_PER_UNIT = 1.0
# Coax loss at 5 GHz, per metre.
CABLE_LOSS_DB_PER_M = 1.0
# Log-distance path-loss exponent for short indoor links.
PATH_LOSS_EXPONENT = 2.0
# Sustained sample-drop fraction above which bulk traffic cannot survive.
VIABILITY_DROP_THRESHOLD = 0.001


class _SdrModelFields(NamedTuple):
    name: str
    max_bandwidth_mhz: float
    interface: str  # "usb3" | "ethernet"


class SdrModel(CheckedRecord, _SdrModelFields):
    """An SDR board: usable RF bandwidth and its host interface."""

    __slots__ = ()

    def _check(self):
        if self.max_bandwidth_mhz <= 0:
            raise ConfigError(f"SDR {self.name}: max_bandwidth must be positive")
        if self.interface not in ("usb3", "ethernet"):
            raise ConfigError(f"SDR {self.name}: unknown interface {self.interface!r}")


class _HostModelFields(NamedTuple):
    name: str
    capacity_msps: float
    colocated_core_load_msps: float = 0.0
    added_latency_us: int = 0


class HostModel(CheckedRecord, _HostModelFields):
    """A compute host: sample-rate capacity and co-located core overhead.

    ``added_latency_us`` is the extra one-way processing delay a slower
    host contributes to each packet traversal.
    """

    __slots__ = ()

    def _check(self):
        if self.capacity_msps <= 0:
            raise ConfigError(f"host {self.name}: capacity must be positive")
        if self.colocated_core_load_msps < 0:
            raise ConfigError(f"host {self.name}: core load cannot be negative")


class _OverAirFields(NamedTuple):
    distance_m: float


class OverAir(CheckedRecord, _OverAirFields):
    """Free-air link over a given distance."""

    __slots__ = ()

    def _check(self):
        if self.distance_m <= 0:
            raise DomainError(f"over-air distance must be positive, got {self.distance_m}")


class _CableFields(NamedTuple):
    length_cm: float
    attenuator_db: float = 0.0


class Cable(CheckedRecord, _CableFields):
    """Direct coax link, optionally through a fixed attenuator."""

    __slots__ = ()

    def _check(self):
        if self.length_cm <= 0:
            raise DomainError(f"cable length must be positive, got {self.length_cm}")
        if self.attenuator_db < 0:
            raise DomainError("attenuator cannot have negative loss")


LinkMedium = Union[OverAir, Cable]


def free_space_loss_db(distance_m: float, carrier_mhz: float) -> float:
    """Free-space loss: 20 log10(d_km) + 20 log10(f_MHz) + 32.44."""
    if distance_m <= 0:
        raise DomainError("distance must be positive")
    return 20 * math.log10(distance_m / 1000) + 20 * math.log10(carrier_mhz) + 32.44


def medium_loss_db(medium: LinkMedium, carrier_mhz: float) -> float:
    """Total propagation loss of the link medium in dB."""
    if isinstance(medium, Cable):
        return medium.attenuator_db + CABLE_LOSS_DB_PER_M * medium.length_cm / 100
    if isinstance(medium, OverAir):
        # Log-distance model anchored at the 1 m free-space loss.
        anchor = free_space_loss_db(1.0, carrier_mhz)
        return anchor + 10 * PATH_LOSS_EXPONENT * math.log10(medium.distance_m)
    raise DomainError(f"unknown medium {medium!r}")


def compute_rsrp(
    tx_power_dbm: float,
    attenuation_factor: float,
    medium: LinkMedium,
    carrier_mhz: float = 5250.0,
) -> float:
    """Received power after digital attenuation and medium loss.

    Strictly decreasing in the attenuation factor and in every medium
    loss term.  Finite inputs can still overflow; that result is refused.
    """
    rsrp = tx_power_dbm - attenuation_factor * ATT_DB_PER_UNIT - medium_loss_db(medium, carrier_mhz)
    if not math.isfinite(rsrp):
        raise DomainError(f"link budget overflows: RSRP would be {rsrp} dBm")
    return rsrp


def required_sampling_rate(bandwidth_mhz: float) -> float:
    """Host-side sample rate (MSPS) needed for a channel bandwidth (MHz)."""
    if bandwidth_mhz <= 0:
        raise DomainError("bandwidth must be positive")
    return bandwidth_mhz * 1.0


def sample_drop_fraction(host: HostModel, required_msps: float) -> float:
    """Fraction of samples the host drops at the required stream rate.

    Zero while the host has headroom; otherwise the deficit relative to
    the required rate.  Rates are quantised to 1 ksps internally so the
    arithmetic is exact.
    """
    if required_msps <= 0:
        raise DomainError("required sample rate must be positive")
    capacity = round(host.capacity_msps * 1000)
    load = round(host.colocated_core_load_msps * 1000)
    required = round(required_msps * 1000)
    headroom = capacity - load
    if headroom >= required:
        return 0.0
    return min(1.0, (required - headroom) / required)


def link_viable(drop_fraction: float) -> bool:
    """Whether a link sustains bulk data.

    A non-viable link still carries short control exchanges (ICMP and
    signalling) but its bulk throughput collapses to zero: sustained
    sample loss breaks radio synchronisation faster than small packets
    can notice.
    """
    if not 0 <= drop_fraction <= 1:
        raise DomainError(f"drop fraction must lie in [0, 1], got {drop_fraction}")
    return drop_fraction <= VIABILITY_DROP_THRESHOLD


@functools.lru_cache(maxsize=1)
def load_hardware_profiles() -> tuple[dict[str, HostModel], dict[str, SdrModel]]:
    """(hosts, sdrs) shipped with the package in ``hardware.json``, keyed by profile name.

    Hardware profiles referenced by name from scenario files.

    Host capacity is the UHD-benchmark-style sustained sample rate the
    machine can drain without drops.  colocated_core_load_msps is the
    sample-rate-equivalent overhead of running the 5G core on the same box;
    the *-core profiles exist for the gNB machines that also host the core.
    added_latency_us is the extra one-way per-packet processing delay of a
    slower host.

    nuc-i5-core: 40 MSPS capacity minus the core's 0.6 MSPS-equivalent
    overhead leaves 39.4 MSPS of headroom against a 40 MSPS stream: a 1.5%
    deficit.
    """
    raw = load_data("hardware.json")
    hosts = {name: HostModel(name=name, **node) for name, node in raw["hosts"].items()}
    sdrs = {name: SdrModel(name=name, **node) for name, node in raw["sdrs"].items()}
    return hosts, sdrs


def get_host(name: str) -> HostModel:
    return shipped(load_hardware_profiles()[0], "host profile", name)


def get_sdr(name: str) -> SdrModel:
    return shipped(load_hardware_profiles()[1], "SDR profile", name)
