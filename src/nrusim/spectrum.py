"""NR frequency-raster arithmetic and regulatory checks for unlicensed bands.

All raster math runs on integer kilohertz so results are exact; floating
point MHz values appear only at the API boundary.  Band definitions and
regulatory rules are data, loaded from the packaged JSON tables, so new
bands or jurisdictions never require code changes.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import CheckedRecord, ConfigError, OffRasterError, RasterRangeError
from .tables import load_data, shipped

KHZ_PER_MHZ = 1000

# Global frequency raster, one row per segment:
#   (first index, last index, granularity kHz, frequency offset kHz)
# Channel frequency = offset + granularity * (index - first).
_ARFCN_SEGMENTS = (
    (0, 599999, 5, 0),
    (600000, 2016666, 15, 3_000_000),
    (2016667, 3279165, 60, 24_250_080),
)
ARFCN_MIN = _ARFCN_SEGMENTS[0][0]
ARFCN_MAX = _ARFCN_SEGMENTS[-1][1]

# Synchronization raster.  Above 3 GHz the SS block centre is
# 3000 MHz + N * 1.44 MHz with GSCN = 7499 + N; above 24.25 GHz the step is
# 17.28 MHz.  Below 3 GHz the centre is N * 1.2 MHz + M * 50 kHz with
# GSCN = 3N + (M - 3) / 2 and M in {1, 3, 5}.
_GSCN_LOW = (2, 7498)
_GSCN_MID = (7499, 22255)
_GSCN_HIGH = (22256, 26639)
GSCN_MIN = _GSCN_LOW[0]
GSCN_MAX = _GSCN_HIGH[1]


def arfcn_to_khz(arfcn: int) -> int:
    """Exact channel frequency in kHz for a global-raster index."""
    for first, last, step_khz, offset_khz in _ARFCN_SEGMENTS:
        if first <= arfcn <= last:
            return offset_khz + step_khz * (arfcn - first)
    raise RasterRangeError(
        f"NR-ARFCN {arfcn} outside the global raster (valid {ARFCN_MIN}..{ARFCN_MAX}; "
        f"the 3-24.25 GHz segment is 600000..2016666)"
    )


def arfcn_to_frequency(arfcn: int) -> float:
    """Channel frequency in MHz for a global-raster index."""
    return arfcn_to_khz(arfcn) / KHZ_PER_MHZ


def khz_to_arfcn(freq_khz: int) -> int:
    """Raster index for an exact kHz frequency; raises if off-grid."""
    if freq_khz < 0:
        raise RasterRangeError(f"{freq_khz} kHz is below the global raster")
    prev_last = None
    for first, last, step_khz, offset_khz in _ARFCN_SEGMENTS:
        top_khz = offset_khz + step_khz * (last - first)
        if offset_khz <= freq_khz <= top_khz:
            idx, rem = divmod(freq_khz - offset_khz, step_khz)
            if rem == 0:
                return first + idx
            below = first + idx
            raise OffRasterError(
                f"{freq_khz} kHz is not on the {step_khz} kHz raster grid; "
                f"nearest indices are {below} ({arfcn_to_khz(below)} kHz) and "
                f"{below + 1} ({arfcn_to_khz(below + 1)} kHz)",
                below=below,
                above=below + 1,
            )
        if freq_khz < offset_khz:
            # Falls in the gap between two segments.
            raise OffRasterError(
                f"{freq_khz} kHz falls between raster segments; nearest indices are "
                f"{prev_last} and {first}",
                below=prev_last,
                above=first,
            )
        prev_last = last
    raise RasterRangeError(
        f"{freq_khz} kHz outside the global raster span (0..{arfcn_to_khz(ARFCN_MAX)} kHz)"
    )


def frequency_to_arfcn(freq_mhz: float) -> int:
    """Inverse of :func:`arfcn_to_frequency`; rejects off-grid frequencies.

    The span is checked in MHz before the kHz conversion, which overflows
    near ``1e308``.
    """
    if not math.isfinite(freq_mhz):
        raise RasterRangeError(f"{freq_mhz} MHz is not a finite frequency")
    top_mhz = arfcn_to_frequency(ARFCN_MAX)
    if not 0 <= freq_mhz <= top_mhz:
        raise RasterRangeError(f"{freq_mhz} MHz outside the global raster span (0..{top_mhz} MHz)")
    freq_khz = round(freq_mhz * KHZ_PER_MHZ)
    if abs(freq_mhz * KHZ_PER_MHZ - freq_khz) > 1e-6:
        raise OffRasterError(f"{freq_mhz} MHz has sub-kHz precision; the raster grid is kHz-exact")
    return khz_to_arfcn(freq_khz)


def gscn_to_khz(gscn: int) -> int:
    """Exact SS-block centre frequency in kHz for a sync-raster index."""
    if _GSCN_LOW[0] <= gscn <= _GSCN_LOW[1]:
        n = (gscn + 1) // 3
        m = 3 + 2 * (gscn - 3 * n)
        return 1200 * n + 50 * m
    if _GSCN_MID[0] <= gscn <= _GSCN_MID[1]:
        return 3_000_000 + 1440 * (gscn - _GSCN_MID[0])
    if _GSCN_HIGH[0] <= gscn <= _GSCN_HIGH[1]:
        return 24_250_080 + 17280 * (gscn - _GSCN_HIGH[0])
    raise RasterRangeError(
        f"GSCN {gscn} outside the sync raster (valid {GSCN_MIN}..{GSCN_MAX}; "
        f"the 3-24.25 GHz segment is 7499..22255)"
    )


def gscn_to_ss_frequency(gscn: int) -> float:
    """SS-block centre frequency in MHz for a sync-raster index."""
    return gscn_to_khz(gscn) / KHZ_PER_MHZ


class _RasterSpanFields(NamedTuple):
    first: int
    step: int
    last: int


class RasterSpan(CheckedRecord, _RasterSpanFields):
    """An inclusive `first - <step> - last` index range."""

    __slots__ = ()

    def _check(self):
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


class ChannelRaster(NamedTuple):
    """One channel-raster row of a band: granularity plus UL/DL spans."""

    delta_f_khz: int
    ul: RasterSpan | None
    dl: RasterSpan


class SyncRasterEntry(NamedTuple):
    """One sync-raster row: SS block numerology and its GSCN span."""

    scs_khz: int
    block_pattern: str  # "case_a" | "case_b" | "case_c"
    gscn: RasterSpan


class _BandPlanFields(NamedTuple):
    band_id: str
    duplex: str  # "tdd" | "fdd" | "sdl"
    rasters: tuple[ChannelRaster, ...]
    sync_entries: tuple[SyncRasterEntry, ...]


class BandPlan(CheckedRecord, _BandPlanFields):
    """A band's channel raster rows, sync raster rows, and duplex mode."""

    __slots__ = ()

    def _check(self):
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


@functools.lru_cache(maxsize=1)
def load_band_plans() -> dict[str, BandPlan]:
    """All band plans shipped with the package in ``bands.json``, keyed by band id.

    NR operating-band raster tables (FR1 subset shipped with the package).

    ``rasters`` rows are channel-raster entries: granularity (delta_f_khz)
    plus the inclusive first-<step>-last NR-ARFCN spans per link.  ``sync``
    rows are SS raster entries: SS block numerology plus the GSCN span a UE
    sweeps.  Duplex modes follow the usual FR1 assignments (sdl = downlink
    only).

    Only n46 is exercised by the bundled scenarios; the other rows exist as
    validation fodder for the raster engine.

    Notes on single rows:

    - n7, first sync row: First row kept as printed in the source table even
      though the GSCN range matches a 2.5 GHz-adjacent band rather than
      n7's 2.6 GHz.
    - n7, second sync row: Printed as 6954 - <1> - 6718 (reversed); stored
      ascending.
    - n28 sync rows: The source table prints two n28 rows; both are kept.
    - n29 duplex sdl: downlink only, no UL raster.
    - n34 sync rows: The 15 kHz row carries a table note instead of a range;
      omitted.
    """
    raw = load_data("bands.json")
    plans: dict[str, BandPlan] = {}
    for band_id, node in raw["bands"].items():
        rasters = tuple(
            ChannelRaster(delta_f_khz=row["delta_f_khz"],
                          ul=RasterSpan(**row["ul"]) if row.get("ul") else None,
                          dl=RasterSpan(**row["dl"]))
            for row in node["rasters"]
        )
        sync = tuple(
            SyncRasterEntry(scs_khz=row["scs_khz"], block_pattern=row["pattern"],
                            gscn=RasterSpan(**row["gscn"]))
            for row in node.get("sync", [])
        )
        plans[band_id] = BandPlan(band_id=band_id, duplex=node["duplex"], rasters=rasters,
                                  sync_entries=sync)
    return plans


def get_band(band_id: str) -> BandPlan:
    """Band plan by id, e.g. ``"n46"``; raises ConfigError for unknown bands."""
    return shipped(load_band_plans(), "band", band_id)


def validate_channel(band: BandPlan, arfcn: int, link: str = "DL") -> bool:
    """True iff the index sits on the band's channel raster for that link."""
    link = link.upper()
    if link not in ("UL", "DL"):
        raise ValueError(f"link must be 'UL' or 'DL', got {link!r}")
    for raster in band.rasters:
        span = raster.ul if link == "UL" else raster.dl
        if span is not None and arfcn in span:
            return True
    return False


def ss_scan_candidates(band: BandPlan) -> list[tuple[int, float]]:
    """Every (GSCN, MHz) a UE would examine on this band, ascending."""
    return list(_scan_candidates(band))


@functools.lru_cache(maxsize=16)
def _scan_candidates(band: BandPlan) -> tuple[tuple[int, float], ...]:
    if not band.sync_entries:
        raise ConfigError(f"band {band.band_id} has no sync raster entries")
    seen: set[int] = set()
    out: list[tuple[int, float]] = []
    for entry in band.sync_entries:
        for gscn in entry.gscn.indices():
            if gscn not in seen:
                seen.add(gscn)
                out.append((gscn, gscn_to_ss_frequency(gscn)))
    out.sort()
    return tuple(out)


class _RegulatoryRuleFields(NamedTuple):
    jurisdiction: str
    freq_low_khz: int
    freq_high_khz: int
    max_mean_eirp_mw: float | None = None  # None = unbounded
    indoor_only: bool = False
    note: str = ""


class RegulatoryRule(CheckedRecord, _RegulatoryRuleFields):
    """One jurisdiction rule over a frequency range."""

    __slots__ = ()

    def _check(self):
        if self.freq_low_khz >= self.freq_high_khz:
            raise ConfigError("regulatory rule has freq_low >= freq_high")
        if self.max_mean_eirp_mw is not None and self.max_mean_eirp_mw <= 0:
            raise ConfigError("bounded EIRP limit must be positive")


class _ChannelAssignmentFields(NamedTuple):
    band_id: str
    arfcn: int
    bandwidth_mhz: float
    eirp_mw: float
    indoor: bool = False


class ChannelAssignment(CheckedRecord, _ChannelAssignmentFields):
    """A concrete carrier assignment to run regulatory checks against."""

    __slots__ = ()

    def _check(self):
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


class Violation(NamedTuple):
    kind: str  # "eirp" | "indoor"
    rule: RegulatoryRule
    message: str


@functools.lru_cache(maxsize=None)  # only shipped jurisdictions return, so it stays small
def load_regulatory_rules(jurisdiction: str = "AU") -> tuple[RegulatoryRule, ...]:
    """Rules for one jurisdiction in ``regulatory.json``; raises ConfigError if it is not shipped.

    Jurisdiction rules for unlicensed 5 GHz operation.  Rules are data so
    new jurisdictions can be added without code changes.  An absent
    max_mean_eirp_mw means the rule places no EIRP bound.
    """
    rows = shipped(load_data("regulatory.json")["jurisdictions"], "jurisdiction", jurisdiction)
    return tuple(_rule(jurisdiction, **row) for row in rows)


def _rule(jurisdiction: str, freq_low_mhz: int, freq_high_mhz: int, **rest) -> RegulatoryRule:
    """One table row; the keys past the MHz edges are ``RegulatoryRule`` field names."""
    return RegulatoryRule(jurisdiction, freq_low_mhz * KHZ_PER_MHZ, freq_high_mhz * KHZ_PER_MHZ,
                          **rest)


def check_regulatory(
    assignment: ChannelAssignment, rules: tuple[RegulatoryRule, ...] | list[RegulatoryRule]
) -> list[Violation]:
    """Violations of every rule whose range overlaps the occupied span.

    Overlap is strict interior intersection: a span that merely touches a
    rule boundary does not occupy it.  Empty result means compliant.
    """
    lo, hi = assignment.span_khz()
    violations: list[Violation] = []
    for rule in rules:
        if not (max(lo, rule.freq_low_khz) < min(hi, rule.freq_high_khz)):
            continue
        if rule.max_mean_eirp_mw is not None and assignment.eirp_mw > rule.max_mean_eirp_mw:
            violations.append(
                Violation(
                    kind="eirp",
                    rule=rule,
                    message=(
                        f"mean EIRP {assignment.eirp_mw:g} mW exceeds the "
                        f"{rule.max_mean_eirp_mw:g} mW limit in "
                        f"{rule.freq_low_khz // 1000}-{rule.freq_high_khz // 1000} MHz"
                    ),
                )
            )
        if rule.indoor_only and not assignment.indoor:
            violations.append(
                Violation(
                    kind="indoor",
                    rule=rule,
                    message=(
                        f"outdoor use in the indoor-only range "
                        f"{rule.freq_low_khz // 1000}-{rule.freq_high_khz // 1000} MHz"
                    ),
                )
            )
    return violations


def check_assignment(assignment: ChannelAssignment, jurisdiction: str) -> list[Violation]:
    """The jurisdiction's rule violations; ConfigError if off the band's raster or span."""
    band = get_band(assignment.band_id)
    if not validate_channel(band, assignment.arfcn, "DL"):
        dl = band.dl_raster
        raise ConfigError(
            f"ARFCN {assignment.arfcn} not on the {band.band_id} raster "
            f"({dl.first}-<{dl.step}>-{dl.last})"
        )
    band_lo, band_hi = band.frequency_span_khz()
    # In MHz first: the kHz edges of a bandwidth near 1e308 overflow to infinity.
    if assignment.bandwidth_mhz > (band_hi - band_lo) / KHZ_PER_MHZ:
        raise ConfigError(
            f"bandwidth {assignment.bandwidth_mhz} MHz is wider than the {band.band_id} span "
            f"{band_lo / 1000:.3f}-{band_hi / 1000:.3f} MHz"
        )
    lo, hi = assignment.span_khz()
    if lo < band_lo or hi > band_hi:
        raise ConfigError(
            f"carrier edges {lo / 1000:.3f}-{hi / 1000:.3f} MHz fall outside the "
            f"{band.band_id} span {band_lo / 1000:.3f}-{band_hi / 1000:.3f} MHz"
        )
    return check_regulatory(assignment, load_regulatory_rules(jurisdiction))
