"""The package's records against the dataclasses they replace.

The twelve classes below are the load path's checked records, and
``tests/run_dataclasses.py`` holds the nine records of the run, report
and compare paths, two of them checked: each as it was before it became
a named tuple, copied unchanged.  For the same arguments, valid or not,
passed by position or by keyword or left to their defaults, each new
record must raise what its dataclass raised, or hold the same fields
with the same ``repr``.  A list factory is the one default a named tuple
cannot keep (it would be one list shared by every record), so those
fields are required now.  ``network.RadioLink`` is read on every hop, so
it became a ``__slots__`` class instead: it holds the same fields, plus
the TEID pair that ``attach_all`` sets, and has no ``repr`` of its own.
"""

from __future__ import annotations

import dataclasses
import ipaddress
import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrusim import access, corenet, metrics, network, rflink, runner, spectrum, userplane
from nrusim.corenet import IMSI_DIGITS, IpPool
from nrusim.errors import ConfigError, DomainError
from nrusim.scenario import load_bundled
from nrusim.spectrum import KHZ_PER_MHZ, arfcn_to_khz
from tests.run_dataclasses import (ComparisonResult, Expectation, MonitorReport,
                                   PassiveSession, PingStats, RadioLink, RouteTable, RunResult,
                                   ThroughputStats)

# ---------------------------------------------------------------------------
# The dataclasses, as they were
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RasterSpan:
    """An inclusive `first - <step> - last` index range."""

    first: int
    step: int
    last: int

    def __post_init__(self):
        if self.step <= 0:
            raise ConfigError(f"raster step must be positive, got {self.step}")
        if self.first > self.last:
            raise ConfigError(f"raster span reversed: {self.first} > {self.last}")
        if (self.last - self.first) % self.step:
            raise ConfigError(
                f"raster span {self.first}-<{self.step}>-{self.last} does not end on a step"
            )

    def __contains__(self, index: int) -> bool:
        return self.first <= index <= self.last and (index - self.first) % self.step == 0

    def indices(self) -> range:
        return range(self.first, self.last + 1, self.step)


@dataclass(frozen=True)
class BandPlan:
    """A band's channel raster rows, sync raster rows, and duplex mode."""

    band_id: str
    duplex: str  # "tdd" | "fdd" | "sdl"
    rasters: tuple[ChannelRaster, ...]
    sync_entries: tuple[SyncRasterEntry, ...]

    def __post_init__(self):
        if not self.rasters:
            raise ConfigError(f"band {self.band_id} has no channel raster rows")
        if self.duplex == "tdd":
            for raster in self.rasters:
                if raster.ul != raster.dl:
                    raise ConfigError(f"TDD band {self.band_id} must have identical UL/DL rasters")

    @property
    def dl_raster(self) -> RasterSpan:
        return self.rasters[0].dl

    def frequency_span_khz(self) -> tuple[int, int]:
        """Lowest and highest DL channel positions expressible on the band."""
        lows = [arfcn_to_khz(r.dl.first) for r in self.rasters]
        highs = [arfcn_to_khz(r.dl.last) for r in self.rasters]
        return min(lows), max(highs)


@dataclass(frozen=True)
class RegulatoryRule:
    """One jurisdiction rule over a frequency range."""

    jurisdiction: str
    freq_low_khz: int
    freq_high_khz: int
    max_mean_eirp_mw: float | None = None  # None = unbounded
    indoor_only: bool = False
    note: str = ""

    def __post_init__(self):
        if self.freq_low_khz >= self.freq_high_khz:
            raise ConfigError("regulatory rule has freq_low >= freq_high")
        if self.max_mean_eirp_mw is not None and self.max_mean_eirp_mw <= 0:
            raise ConfigError("bounded EIRP limit must be positive")


@dataclass(frozen=True)
class ChannelAssignment:
    """A concrete carrier assignment to run regulatory checks against."""

    band_id: str
    arfcn: int
    bandwidth_mhz: float
    eirp_mw: float
    indoor: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.bandwidth_mhz) and self.bandwidth_mhz > 0):
            raise ConfigError(
                f"bandwidth must be positive and finite, got {self.bandwidth_mhz} MHz"
            )
        if not (math.isfinite(self.eirp_mw) and self.eirp_mw >= 0):
            raise ConfigError(f"EIRP must be finite and non-negative, got {self.eirp_mw} mW")

    def span_khz(self) -> tuple[float, float]:
        """Occupied span, centre +/- bandwidth/2."""
        centre = arfcn_to_khz(self.arfcn)
        half = self.bandwidth_mhz * KHZ_PER_MHZ / 2
        return centre - half, centre + half


@dataclass(frozen=True)
class LbtConfig:
    cca_threshold_dbm: float = -72.0
    cca_duration_us: int = 25
    cw_min: int = 15
    cw_max: int = 1023

    def __post_init__(self):
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


@dataclass(frozen=True)
class SubscriberRecord:
    imsi: str
    enabled: bool = True

    def __post_init__(self):
        if len(self.imsi) != IMSI_DIGITS or not self.imsi.isdigit():
            raise ConfigError(f"IMSI must be {IMSI_DIGITS} decimal digits, got {self.imsi!r}")


@dataclass(frozen=True)
class CoreConfig:
    """Addressing of the core-network virtual subnet and the UE pool."""

    core_subnet: str = "192.168.70.128/26"
    amf_address: str = "192.168.70.132"
    upf_address: str = "192.168.70.134"
    ue_pool_cidr: str = "12.1.1.0/24"

    def __post_init__(self):
        IpPool(self.ue_pool_cidr)  # raises ConfigError for a bad or host-less pool
        try:
            subnet = ipaddress.IPv4Network(self.core_subnet)
            addrs = [(label, ipaddress.IPv4Address(addr))
                     for label, addr in (("AMF", self.amf_address), ("UPF", self.upf_address))]
        except ValueError as exc:
            raise ConfigError(f"bad core addressing: {exc}") from None
        for label, addr in addrs:
            if addr not in subnet:
                raise ConfigError(f"{label} address {addr} not inside core subnet {self.core_subnet}")
        # A gNB without an N3 address tunnels from the AMF's, so it would tunnel from the UPF.
        if self.amf_address == self.upf_address:
            raise ConfigError(f"AMF and UPF share the address {self.upf_address}")


@dataclass(frozen=True)
class SdrModel:
    """An SDR board: usable RF bandwidth and its host interface."""

    name: str
    max_bandwidth_mhz: float
    interface: str  # "usb3" | "ethernet"

    def __post_init__(self):
        if self.max_bandwidth_mhz <= 0:
            raise ConfigError(f"SDR {self.name}: max_bandwidth must be positive")
        if self.interface not in ("usb3", "ethernet"):
            raise ConfigError(f"SDR {self.name}: unknown interface {self.interface!r}")


@dataclass(frozen=True)
class HostModel:
    """A compute host: sample-rate capacity and co-located core overhead.

    ``added_latency_us`` is the extra one-way processing delay a slower
    host contributes to each packet traversal.
    """

    name: str
    capacity_msps: float
    colocated_core_load_msps: float = 0.0
    added_latency_us: int = 0

    def __post_init__(self):
        if self.capacity_msps <= 0:
            raise ConfigError(f"host {self.name}: capacity must be positive")
        if self.colocated_core_load_msps < 0:
            raise ConfigError(f"host {self.name}: core load cannot be negative")


@dataclass(frozen=True)
class OverAir:
    """Free-air link over a given distance."""

    distance_m: float

    def __post_init__(self):
        if self.distance_m <= 0:
            raise DomainError(f"over-air distance must be positive, got {self.distance_m}")


@dataclass(frozen=True)
class Cable:
    """Direct coax link, optionally through a fixed attenuator."""

    length_cm: float
    attenuator_db: float = 0.0

    def __post_init__(self):
        if self.length_cm <= 0:
            raise DomainError(f"cable length must be positive, got {self.length_cm}")
        if self.attenuator_db < 0:
            raise DomainError("attenuator cannot have negative loss")


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------

NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-1e3, 1e3),
                    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan)))
NAMES = st.sampled_from(("n46", "b210", "x", ""))
SMALL = st.integers(-2, 12)
SPANS = st.builds(spectrum.RasterSpan, st.integers(0, 3), st.just(1), st.integers(3, 4))
RASTERS = st.builds(spectrum.ChannelRaster, st.sampled_from((15, 30)), st.none() | SPANS, SPANS)
SYNC = st.builds(spectrum.SyncRasterEntry, st.just(30), st.just("case_c"), SPANS)
ADDRESSES = st.sampled_from(("192.168.70.132", "192.168.70.134", "10.0.0.1", "bad", ""))


def near(default, strategy):
    """The field's default half the time, so that valid records are common too."""
    return st.one_of(st.just(default), strategy)


# old class, new class, a strategy for each field in order
CASES = {
    "RasterSpan": (RasterSpan, spectrum.RasterSpan, [st.integers(-5, 20)] * 3),
    "BandPlan": (BandPlan, spectrum.BandPlan,
                 [NAMES, st.sampled_from(("tdd", "fdd", "sdl")),
                  st.lists(RASTERS, max_size=3).map(tuple),
                  st.lists(SYNC, max_size=2).map(tuple)]),
    "RegulatoryRule": (RegulatoryRule, spectrum.RegulatoryRule,
                       [NAMES, st.integers(5_000_000, 5_002_000),
                        st.integers(5_000_000, 5_002_000), st.none() | NUMBERS, st.booleans(),
                        st.text(max_size=3)]),
    "ChannelAssignment": (ChannelAssignment, spectrum.ChannelAssignment,
                          [NAMES, st.integers(0, 800_000), NUMBERS, NUMBERS, st.booleans()]),
    "LbtConfig": (LbtConfig, access.LbtConfig,
                  [NUMBERS, near(25, st.integers(20, 85)), near(15, st.integers(0, 20)),
                   near(1023, st.integers(0, 1100))]),
    "TddConfig": (TddConfig, access.TddConfig,
                  [near(10, SMALL), near(7, SMALL), near(2, SMALL), st.sampled_from((250, 500))]),
    "SubscriberRecord": (SubscriberRecord, corenet.SubscriberRecord,
                         [near("001010000000001", st.text("0123456789a", min_size=13,
                                                          max_size=17)), st.booleans()]),
    "CoreConfig": (CoreConfig, corenet.CoreConfig,
                   [near("192.168.70.128/26", st.sampled_from(("10.0.0.0/8", "bad"))),
                    near("192.168.70.132", ADDRESSES), near("192.168.70.134", ADDRESSES),
                    st.sampled_from(("12.1.1.0/24", "10.0.0.0/31", "10.0.0.1/32",
                                     "192.168.70.128/26", "bad"))]),
    "SdrModel": (SdrModel, rflink.SdrModel,
                 [NAMES, NUMBERS, st.sampled_from(("usb3", "ethernet", "pcie"))]),
    "HostModel": (HostModel, rflink.HostModel, [NAMES, NUMBERS, NUMBERS, st.integers(-1, 100)]),
    "OverAir": (OverAir, rflink.OverAir, [NUMBERS]),
    "Cable": (Cable, rflink.Cable, [NUMBERS, NUMBERS]),
    "PingStats": (PingStats, metrics.PingStats,
                  [st.integers(0, 3), st.integers(0, 3)] + [st.none() | NUMBERS] * 4),
    "ThroughputStats": (ThroughputStats, metrics.ThroughputStats,
                        [st.sampled_from(("UL", "DL"))] + [NUMBERS] * 3 + [st.integers(0, 9)]),
}

ANY = st.none() | st.integers(-1, 3) | NAMES
SESSIONS = st.lists(st.builds(metrics.PassiveSession, st.integers(0, 0xFFFF), ADDRESSES,
                              ADDRESSES), max_size=2)
ROWS = st.lists(st.dictionaries(NAMES, ANY, max_size=2), max_size=2)
# The records without a check; constructing one raises only for a wrong argument list.
PLAIN = {
    "PassiveSession": (PassiveSession, metrics.PassiveSession,
                       [st.integers(0, 0xFFFF), ADDRESSES, ADDRESSES, st.integers(0, 9),
                        st.none() | NUMBERS]),
    "MonitorReport": (MonitorReport, metrics.MonitorReport, [SESSIONS, st.integers(0, 3)]),
    "RunResult": (RunResult, runner.RunResult,
                  [ANY, st.dictionaries(NAMES, ANY, max_size=2), ANY,
                   st.dictionaries(st.sampled_from(("ue:ue1", "n6")), st.just([]))]),
    "Expectation": (Expectation, runner.Expectation,
                    [st.sampled_from(("dl_peak_mbps", "x", "")), st.sampled_from(("a>b", "<"))]),
    "ComparisonResult": (ComparisonResult, runner.ComparisonResult, [ROWS, ROWS]),
    "RouteTable": (RouteTable, userplane.RouteTable,
                   [ANY, st.dictionaries(ADDRESSES, ANY, max_size=2), ADDRESSES]),
}


def _outcome(cls, args, kwargs, fields):
    """What a constructor call gives: the exception's class and text, or fields and repr."""
    try:
        record = cls(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the kind of failure is what is compared
        return type(exc), str(exc)
    return tuple(getattr(record, name) for name in fields), repr(record)


@pytest.mark.parametrize("name", [*CASES, *PLAIN])
@given(data=st.data())
@settings(max_examples=150)
def test_new_record_builds_and_fails_as_its_dataclass(name, data):
    old_cls, new_cls, strategies = {**CASES, **PLAIN}[name]
    fields = [f.name for f in dataclasses.fields(old_cls)]
    assert new_cls._fields == tuple(fields)
    # A list factory's default is MISSING, so those fields count as required on both sides.
    assert new_cls._field_defaults == {f.name: f.default for f in dataclasses.fields(old_cls)
                                       if f.default is not dataclasses.MISSING}
    required = sum(f.default is dataclasses.MISSING for f in dataclasses.fields(old_cls))
    values = [data.draw(strategy, label=field) for field, strategy in zip(fields, strategies)]
    positional = data.draw(st.integers(0, len(fields)), label="positional")
    args = values[:positional]
    kwargs = {field: value for index, (field, value) in enumerate(zip(fields, values))
              if index >= positional and (index < required or data.draw(st.booleans()))}
    assert _outcome(new_cls, args, kwargs, fields) == _outcome(old_cls, args, kwargs, fields)


def test_radio_link_holds_what_its_dataclass_held():
    # Every hop reads it, so it is a __slots__ class: the same fields, no repr of its own.
    # One slot more, the TEID pair, is no argument: attach_all sets it.
    fields = [f.name for f in dataclasses.fields(RadioLink)]
    assert network.RadioLink.__slots__ == (*fields, "teids")
    values = [object() for _ in fields]
    for split in range(len(fields) + 1):
        args, kwargs = values[:split], dict(zip(fields[split:], values[split:]))
        new, old = network.RadioLink(*args, **kwargs), RadioLink(*args, **kwargs)
        assert [getattr(new, name) for name in fields] == [getattr(old, name) for name in fields]
        assert new.teids is None


@pytest.mark.parametrize("name", [*PLAIN, "RadioLink"])
@pytest.mark.parametrize("args, kwargs", [((None,) * 12, {}), ((), {"extra": 1}),
                                          ((None,), {"extra": 1})])
def test_plain_record_rejects_a_wrong_argument_list_as_its_dataclass(name, args, kwargs):
    old_cls, new_cls = PLAIN[name][:2] if name in PLAIN else (RadioLink, network.RadioLink)
    for cls in (old_cls, new_cls):
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_plain_record_methods_answer_as_their_dataclass():
    old, new = Expectation("dl_peak_mbps", "a>b"), runner.Expectation("dl_peak_mbps", "a>b")
    assert str(new) == str(old) == "dl_peak_mbps:a>b"
    for verdicts in ([], [{"passed": True}], [{"passed": True}, {"passed": False}]):
        assert (runner.ComparisonResult([], verdicts).all_pass
                == ComparisonResult([], verdicts).all_pass)
    pool = IpPool("12.1.1.0/24")
    for ip in ("12.1.1.1", "12.1.2.1", "192.168.70.134"):
        assert (userplane.RouteTable(pool, {}, "192.168.70.134").in_pool(ip)
                == RouteTable(pool, {}, "192.168.70.134").in_pool(ip))
    result = runner.run_scenario(load_bundled("north_south"))
    reference = RunResult(*result)
    assert result.report_json() == reference.report_json()
    assert result.events_jsonl() == reference.events_jsonl()
    assert list(result.taps) and all(result.frames(tap) == reference.frames(tap)
                                     for tap in result.taps)


def test_every_checked_record_has_its_dataclass():
    checked = {cls.__name__ for module in (access, corenet, metrics, rflink, spectrum)
               for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               and hasattr(cls, "_check")}
    assert checked == set(CASES)
