"""Scenario files: schema, loading, and total validation.

A scenario that loads is a scenario that runs: every cross-reference is
resolved here (hardware profile names, band ids, node names) and every
static invariant is checked with the failing rule named in the error, so
configuration-class failures cannot surface mid-simulation.

Every immutable record in the package is a ``NamedTuple``, checked through
``errors.CheckedRecord`` where it has a rule; a record that changes, or that
every hop reads, is a ``__slots__`` class.  So no command imports
``dataclasses``.  Each record carries its own defaults: a key the file
leaves out takes ``Cls._field_defaults["field"]``.  (On a named tuple,
``Cls.field`` is the field's accessor, not its default.)
"""

from __future__ import annotations

import ipaddress
import math
import sys
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .access import Burst, ChannelOccupancy, LbtConfig, TddConfig, slot_duration_us
from .corenet import CoreConfig, CoreNetwork, SubscriberRecord
from .errors import ConfigError, DomainError, ScenarioError
from .rflink import Cable, HostModel, LinkMedium, OverAir, SdrModel, compute_rsrp, get_host, get_sdr
from .spectrum import ChannelAssignment, arfcn_to_frequency, check_assignment, get_band

SCHEMA_VERSION = 1
BUNDLED = ("test_a", "test_b", "test_c", "test_d", "north_south", "east_west")


class CellConfig(NamedTuple):
    band_id: str
    arfcn: int
    bandwidth_mhz: float
    scs_khz: int
    tx_power_dbm: float
    attenuation_factor: float
    ssb_gscn: int
    indoor: bool
    tdd: TddConfig
    lbt: LbtConfig

    @property
    def eirp_mw(self) -> float:
        try:
            return 10 ** (self.tx_power_dbm / 10)
        except OverflowError:  # past about 3,000 dBm; ChannelAssignment rejects it
            return math.inf


class GnbNode(NamedTuple):
    name: str
    host: HostModel
    sdr: SdrModel
    n3_address: str  # its N3 tunnel source: as written, else the AMF's address
    on_air: bool = True


class UeNode(NamedTuple):
    name: str
    host: HostModel
    sdr: SdrModel
    imsi: str
    gnb: str  # the name of the gNB it attaches through
    medium: LinkMedium
    unprovisioned: bool = False


class PingPlan(NamedTuple):
    label: str
    src: str
    dst: str  # node name, "core-gateway", "external", or a literal IPv4
    count: int = 100
    interval_ms: int = 200


class ThroughputPlan(NamedTuple):
    label: str
    ue: str
    direction: str  # "UL" | "DL"
    duration_s: int = 30


# A throughput plan schedules about 13 ticks per second up front: one hour
# is 120 times the bundled runs' 30 s.
MAX_DURATION_S = 3600


class ExternalHostConfig(NamedTuple):
    address: str = "142.250.204.4"
    one_way_delay_us: int = 5000
    ttl: int = 117


class Scenario(NamedTuple):
    name: str
    seed: int
    cell: CellConfig
    core: CoreConfig
    subscribers: tuple[SubscriberRecord, ...]
    prior_allocations: int
    nodes: list[GnbNode | UeNode]  # the gNBs, then the UEs, each in file order
    traffic: list[PingPlan | ThroughputPlan]
    external: ExternalHostConfig
    occupancy: ChannelOccupancy
    taps: list[str]
    notes: list[str]  # what the loader defaulted or overrode, for the CLI to print

    def node(self, name: str) -> GnbNode | UeNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ConfigError(f"no node named {name!r} in scenario {self.name}")

    def ues(self) -> list[UeNode]:
        return [n for n in self.nodes if isinstance(n, UeNode)]


def _ipv4(value) -> bool:
    """Whether ``value`` is a string that parses as a dotted-quad IPv4 address."""
    try:
        return type(value) is str and ipaddress.IPv4Address(value) is not None
    except ValueError:
        return False


def _number(value) -> bool:
    """Whether ``value`` is a YAML integer or decimal a float holds, ±inf but not NaN."""
    if type(value) is int:
        return abs(value) <= sys.float_info.max
    return type(value) is float and value == value


_REQUIRED = object()
_KINDS = {  # kind -> (its name in errors, the test its values pass)
    int: ("an integer", lambda v: type(v) is int),
    float: ("a finite number", lambda v: _number(v) and math.isfinite(v)),
    _number: ("a number", _number),
    str: ("a string", lambda v: type(v) is str),
    bool: ("true or false", lambda v: type(v) is bool),
    dict: ("a mapping", lambda v: isinstance(v, dict)),
    list: ("a list", lambda v: isinstance(v, list)),
    _ipv4: ("a dotted-quad IPv4 address", _ipv4),
}


def _field(raw: dict, key: str, context: str, kind=str, default=_REQUIRED,
           low: int | None = None, high: int | None = None):
    """``raw[key]`` as written, taken off ``raw``, or ``default`` when the key is absent.

    The value must already be of ``kind`` (only the ``float`` and ``_number``
    kinds convert it, to a float) and within ``low`` and ``high``; else a
    ScenarioError names the field.  ``raw`` is the loader's own copy of its
    section, so what is left in it at the end is unread: ``_done`` rejects it.
    A ``dict`` value comes back as such a copy.
    """
    if key not in raw:
        if default is _REQUIRED:
            raise ScenarioError(f"{context}: missing required field {key!r}")
        return default
    value = raw.pop(key)
    kind_name, fits = _KINDS[kind]
    if not fits(value):
        raise ScenarioError(f"{context}: {key} must be {kind_name}, got {value!r}")
    if kind is float or kind is _number:
        value = float(value)
    elif kind is dict:
        value = dict(value)
    if (low is not None and value < low) or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ScenarioError(f"{context}: {key} must be {bound}, got {value!r}")
    return value


def _done(raw: dict, context: str) -> None:
    """Reject a section that still holds a key: no ``_field`` call read it."""
    if raw:
        raise ScenarioError(f"{context}: unknown key {next(iter(raw))!r}")


def _entries(raw: dict, key: str, context: str, default=_REQUIRED) -> list[dict]:
    """The list at ``raw[key]``, each entry checked to be a mapping."""
    items = _field(raw, key, context, list, default)
    for idx, item in enumerate(items):
        if not isinstance(item, dict):
            raise ScenarioError(f"{context}: {key}[{idx}] must be a mapping, got {item!r}")
    return items


def _parse_medium(raw: dict, context: str) -> LinkMedium:
    kind = _field(raw, "kind", context)
    if kind == "over_air":
        medium = OverAir(distance_m=_field(raw, "distance_m", context, float))
    elif kind == "cable":
        medium = Cable(
            length_cm=_field(raw, "length_cm", context, float),
            attenuator_db=_field(raw, "attenuator_db", context, float,
                                 Cable._field_defaults["attenuator_db"]),
        )
    else:
        raise ScenarioError(f"{context}: unknown medium kind {kind!r}")
    _done(raw, f"{context} medium")
    return medium


_new_burst = tuple.__new__  # a Burst without its per-call interval check


def _checked_burst(entry: dict, idx: int) -> Burst:
    context = f"occupancy[{idx}]"
    entry = dict(entry)
    # NaN power compares below every threshold, so it could never block; ±inf may.
    burst = _new_burst(Burst, (_field(entry, "start_us", context, int),
                               _field(entry, "end_us", context, int),
                               _field(entry, "power_dbm", context, _number)))
    _done(entry, context)
    return burst


def _parse_bursts(entries: list[dict]) -> list[Burst]:
    """Foreign bursts from occupancy entries.

    Occupancy can list tens of thousands of bursts, so the raw values go
    straight into unchecked ``Burst`` tuples, and one pass checks every
    kind, interval and power.  A missing key (read as None), a fourth key
    (the power is then read as None) or a wrong kind sends the burst through
    ``_checked_burst``, which names the faulty or unknown field.
    """
    bursts = [_new_burst(Burst, (e.get("start_us"), e.get("end_us"),
                                 e.get("power_dbm") if len(e) == 3 else None))
              for e in entries]
    for idx, (start, end, power) in enumerate(bursts):
        if not (type(start) is type(end) is int and type(power) is float and power == power):
            bursts[idx] = start, end, power = _checked_burst(entries[idx], idx)
        if start >= end:
            raise ScenarioError(f"occupancy[{idx}]: burst interval reversed: [{start}, {end})")
    return bursts


def _subscriber(row: dict, idx: int) -> SubscriberRecord:
    context = f"core.subscribers[{idx}]"
    row = dict(row)
    record = SubscriberRecord(
        imsi=_field(row, "imsi", context),
        enabled=_field(row, "enabled", context, bool, SubscriberRecord._field_defaults["enabled"]),
    )
    _done(row, context)
    return record


def _parse_cell(raw: dict) -> CellConfig:
    try:
        band = get_band(_field(raw, "band", "cell"))
    except ConfigError as exc:
        raise ScenarioError(f"cell: {exc}") from None
    tdd_raw = _field(raw, "tdd", "cell", dict, {})
    lbt_raw = _field(raw, "lbt", "cell", dict, {})
    scs_khz = _field(raw, "scs_khz", "cell", int, 30)
    tdd_default, lbt_default = TddConfig._field_defaults, LbtConfig._field_defaults
    try:
        slot_us = slot_duration_us(scs_khz)
        tdd = TddConfig(
            # A TDD pattern repeats within 10 ms (dl-UL-TransmissionPeriodicity, TS 38.331).
            period_slots=_field(tdd_raw, "period_slots", "cell.tdd", int,
                                tdd_default["period_slots"], low=2, high=10_000 // slot_us),
            dl_slots=_field(tdd_raw, "dl_slots", "cell.tdd", int, tdd_default["dl_slots"]),
            ul_slots=_field(tdd_raw, "ul_slots", "cell.tdd", int, tdd_default["ul_slots"]),
            slot_us=slot_us,
        )
        lbt = LbtConfig(
            cca_threshold_dbm=_field(lbt_raw, "cca_threshold_dbm", "cell.lbt", float,
                                     lbt_default["cca_threshold_dbm"]),
            cca_duration_us=_field(lbt_raw, "cca_duration_us", "cell.lbt", int,
                                   lbt_default["cca_duration_us"]),
            cw_min=_field(lbt_raw, "cw_min", "cell.lbt", int, lbt_default["cw_min"]),
            cw_max=_field(lbt_raw, "cw_max", "cell.lbt", int, lbt_default["cw_max"]),
        )
    except ConfigError as exc:
        raise ScenarioError(f"cell: {exc}") from None
    _done(tdd_raw, "cell.tdd")
    _done(lbt_raw, "cell.lbt")
    cell = CellConfig(
        band_id=band.band_id,
        arfcn=_field(raw, "arfcn", "cell", int),
        bandwidth_mhz=_field(raw, "bandwidth_mhz", "cell", float),
        scs_khz=scs_khz,
        tx_power_dbm=_field(raw, "tx_power_dbm", "cell", float),
        attenuation_factor=_field(raw, "attenuation_factor", "cell", float, 0.0),
        ssb_gscn=_field(raw, "ssb_gscn", "cell", int),
        indoor=_field(raw, "indoor", "cell", bool, False),
        tdd=tdd,
        lbt=lbt,
    )
    _done(raw, "cell")
    # The cell schedules UL and DL in TDD slots; a TDD band's UL raster is its DL raster.
    if band.duplex != "tdd":
        raise ScenarioError(f"cell: band {band.band_id} is {band.duplex.upper()}, not TDD; "
                            f"the simulated cell needs a TDD band")
    sync = [e for e in band.sync_entries if cell.ssb_gscn in e.gscn]
    if not sync:
        raise ScenarioError(
            f"cell: SSB GSCN {cell.ssb_gscn} not on the {band.band_id} sync raster"
        )
    if all(e.scs_khz != cell.scs_khz for e in sync):
        raise ScenarioError(
            f"cell: SCS {cell.scs_khz} kHz does not match the {band.band_id} SS block "
            f"numerology ({sync[0].scs_khz} kHz)"
        )
    return cell


def _check_compliance(cell: CellConfig, jurisdiction: str, allow: bool, notes: list[str]) -> None:
    try:
        assignment = ChannelAssignment(cell.band_id, cell.arfcn, cell.bandwidth_mhz,
                                       cell.eirp_mw, cell.indoor)
        violations = check_assignment(assignment, jurisdiction)
    except ConfigError as exc:
        raise ScenarioError(f"cell: {exc}") from None
    messages = "; ".join(v.message for v in violations)
    if violations and not allow:
        raise ScenarioError(f"cell violates {jurisdiction} rules: {messages}")
    if violations:
        notes.append(f"regulatory override active: {messages}")


def tap_file_name(tap: str) -> str:
    """The pcap file ``run --pcap`` writes a tap's capture to."""
    return f"tap_{tap.replace(':', '_')}.pcap"


def _directory_name(name: str, context: str) -> str:
    """``name`` if it is one directory name, else a ScenarioError.

    ``run`` writes to ``out/<scenario name>`` and a UE's or gNB's tap to
    ``tap_ue_<node name>.pcap`` or ``tap_n3_<node name>.pcap`` in it.
    """
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ScenarioError(f"{context}: name must be one directory name (not empty, '.' "
                            f"or '..'; no '/', '\\' or NUL), got {name!r}")
    return name


def scenario_from_dict(raw: dict, name_hint: str = "scenario") -> Scenario:
    """Build and fully validate a Scenario from parsed YAML content."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{name_hint}: top level must be a mapping")
    raw = dict(raw)  # the caller's mapping stays whole; _field takes keys off this copy
    schema = raw.pop("schema", None)
    if type(schema) is not int or schema != SCHEMA_VERSION:  # true and 1.0 equal 1
        raise ScenarioError(f"{name_hint}: schema must be {SCHEMA_VERSION}, got {schema!r}")
    notes: list[str] = []
    name = _directory_name(_field(raw, "name", name_hint, str, name_hint), name_hint)
    if "seed" not in raw:
        notes.append("seed defaulted to 0")
    seed = _field(raw, "seed", name, int, 0)
    duration_s = _field(raw, "duration_s", name, int, ThroughputPlan._field_defaults["duration_s"],
                        low=0, high=MAX_DURATION_S)
    jurisdiction = _field(raw, "jurisdiction", name, str, "AU")
    allow_noncompliant = _field(raw, "allow_noncompliant", name, bool, False)

    cell = _parse_cell(_field(raw, "cell", name, dict))
    _check_compliance(cell, jurisdiction, allow_noncompliant, notes)
    carrier_mhz = arfcn_to_frequency(cell.arfcn)

    core_raw = _field(raw, "core", name, dict)
    core_default = CoreConfig._field_defaults
    try:
        core = CoreConfig(
            core_subnet=_field(core_raw, "subnet", "core", str, core_default["core_subnet"]),
            amf_address=_field(core_raw, "amf_address", "core", str, core_default["amf_address"]),
            upf_address=_field(core_raw, "upf_address", "core", str, core_default["upf_address"]),
            ue_pool_cidr=_field(core_raw, "ue_pool", "core", str, core_default["ue_pool_cidr"]),
        )
        subscribers = tuple(_subscriber(row, idx) for idx, row
                            in enumerate(_entries(core_raw, "subscribers", "core", [])))
        pool = CoreNetwork(core, subscribers).pool  # rejects a duplicate IMSI
    except ConfigError as exc:
        raise ScenarioError(f"core: {exc}") from None
    prior_allocations = _field(core_raw, "prior_allocations", "core", int, 0, low=0,
                               high=pool.capacity)
    _done(core_raw, "core")

    gnbs: dict[str, GnbNode] = {}
    ues: dict[str, UeNode] = {}
    n3_sources: dict[str, str] = {}  # N3 tunnel source -> the gNB that sends from it
    provisioned = {s.imsi for s in subscribers}
    for node_raw in map(dict, _entries(raw, "nodes", name)):
        node_name = _directory_name(_field(node_raw, "name", "nodes"), "nodes")
        # As a ping dst, such a name would name both the node and the gateway, the
        # external host or an address.  Only a name that starts with a digit is a dotted quad.
        if node_name in ("core-gateway", "external") or (node_name[0].isdigit()
                                                         and _ipv4(node_name)):
            raise ScenarioError(f"nodes: name {node_name!r} is reserved for a ping dst "
                                f"('core-gateway', 'external' or a dotted-quad IPv4 address)")
        if node_name in gnbs or node_name in ues:
            raise ScenarioError(f"nodes: duplicate node name {node_name!r}")
        context = f"node {node_name}"
        role = _field(node_raw, "role", context)
        if role not in ("gnb", "ue"):
            raise ScenarioError(f"{context}: role must be 'gnb' or 'ue', got {role!r}")
        try:
            host = get_host(_field(node_raw, "host", context))
            sdr = get_sdr(_field(node_raw, "sdr", context))
            if role == "ue":
                medium = _parse_medium(_field(node_raw, "medium", context, dict), context)
                compute_rsrp(cell.tx_power_dbm, cell.attenuation_factor, medium, carrier_mhz)
        except (ConfigError, DomainError) as exc:
            raise ScenarioError(f"{context}: {exc}") from None
        if role == "gnb":
            n3_address = _field(node_raw, "n3_address", context, _ipv4, None)
            # A gNB tunnels from here; on the UPF's, a UE's or another gNB's address,
            # its N3 frames could not be told apart from theirs.
            source = n3_address or core.amf_address
            what = (f"n3_address {source}" if n3_address
                    else f"N3 source {source} (the AMF's; no n3_address)")
            if source == core.upf_address:
                raise ScenarioError(f"{context}: {what} is the UPF's address")
            if source in pool:
                raise ScenarioError(f"{context}: {what} lies in the UE pool {pool.cidr}")
            if source in n3_sources:
                raise ScenarioError(f"{context}: {what} is already gNB "
                                    f"{n3_sources[source]}'s N3 source")
            n3_sources[source] = node_name
            gnbs[node_name] = GnbNode(node_name, host, sdr, source,
                                      _field(node_raw, "on_air", context, bool,
                                             GnbNode._field_defaults["on_air"]))
        else:
            node = ues[node_name] = UeNode(
                node_name, host, sdr,
                imsi=_field(node_raw, "imsi", context),
                gnb=_field(node_raw, "gnb", context),
                medium=medium,
                unprovisioned=_field(node_raw, "unprovisioned", context, bool,
                                     UeNode._field_defaults["unprovisioned"]),
            )
            if node.imsi not in provisioned and not node.unprovisioned:
                raise ScenarioError(
                    f"{context}: IMSI {node.imsi} is not provisioned; mark the node "
                    f"'unprovisioned: true' if that is deliberate"
                )
        _done(node_raw, context)

    if not gnbs:
        raise ScenarioError("nodes: scenario needs at least one gNB")
    for node in ues.values():
        if node.gnb not in gnbs:
            raise ScenarioError(f"node {node.name}: references unknown gNB {node.gnb!r}")

    traffic: list[PingPlan | ThroughputPlan] = []
    labels: dict[str, int] = {}  # label -> index of the plan that has it
    for idx, step in enumerate(map(dict, _entries(raw, "traffic", name, []))):
        context = f"traffic[{idx}]"
        probe = _field(step, "probe", context)
        if probe == "ping":
            src = _field(step, "src", context)
            if src not in ues:
                raise ScenarioError(f"{context}: ping src {src!r} is not a UE node")
            dst = _field(step, "dst", context)
            if (dst not in gnbs and dst not in ues and dst not in ("core-gateway", "external")
                    and not _ipv4(dst)):
                raise ScenarioError(
                    f"{context}: ping dst {dst!r} is not a node name, 'core-gateway', "
                    f"'external' or a dotted-quad IPv4 address"
                )
            traffic.append(
                PingPlan(
                    label=_field(step, "label", context, str, f"ping-{idx}"),
                    src=src,
                    dst=dst,
                    # ICMP sequence numbers are 16 bits wide.
                    count=_field(step, "count", context, int, PingPlan._field_defaults["count"],
                                 low=0, high=0x10000),
                    interval_ms=_field(step, "interval_ms", context, int,
                                       PingPlan._field_defaults["interval_ms"], low=0),
                )
            )
        elif probe == "throughput":
            ue = _field(step, "ue", context)
            if ue not in ues:
                raise ScenarioError(f"{context}: throughput ue {ue!r} is not a UE node")
            direction = _field(step, "direction", context)
            if direction not in ("UL", "DL"):
                raise ScenarioError(f"{context}: direction must be UL or DL, got {direction!r}")
            traffic.append(
                ThroughputPlan(
                    label=_field(step, "label", context, str,
                                 f"throughput-{direction.lower()}-{idx}"),
                    ue=ue,
                    direction=direction,
                    duration_s=_field(step, "duration_s", context, int, duration_s, low=0,
                                      high=MAX_DURATION_S),
                )
            )
        else:
            raise ScenarioError(f"{context}: unknown probe {probe!r}")
        _done(step, context)
        label = traffic[-1].label
        if label in labels:
            raise ScenarioError(f"{context}: label {label!r} already used by "
                                f"traffic[{labels[label]}]")
        labels[label] = idx

    ext_raw = _field(raw, "external_host", name, dict, {})
    ext_default = ExternalHostConfig._field_defaults
    external = ExternalHostConfig(
        address=_field(ext_raw, "address", "external_host", _ipv4, ext_default["address"]),
        # At most 10 s, far past any real Internet path, so a ping's times stay bounded.
        one_way_delay_us=_field(ext_raw, "one_way_delay_us", "external_host", int,
                                ext_default["one_way_delay_us"], low=0, high=10_000_000),
        ttl=_field(ext_raw, "ttl", "external_host", int, ext_default["ttl"], low=0, high=255),
    )
    _done(ext_raw, "external_host")
    # Either would answer the external pings itself, at another RTT than N6's.
    if external.address in pool:
        raise ScenarioError(f"external_host: address {external.address} lies in the UE pool "
                            f"{pool.cidr}")
    if external.address == core.upf_address:
        raise ScenarioError(f"external_host: address {external.address} is the UPF's address")

    occupancy = ChannelOccupancy(_parse_bursts(_entries(raw, "occupancy", name, [])))

    taps = _field(raw, "taps", name, list, [])
    valid_taps = {f"ue:{n}" for n in ues} | {f"n3:{g}" for g in gnbs} | {"n6"}
    tap_files: dict[str, str] = {}  # pcap file name -> the first tap written to it
    for tap in taps:
        if type(tap) is not str or tap not in valid_taps:
            raise ScenarioError(f"taps: unknown tap {tap!r}; valid: {sorted(valid_taps)}")
        file = tap_file_name(tap)
        other = tap_files.get(file)
        if other == tap:
            raise ScenarioError(f"taps: {tap!r} listed twice")
        if other is not None:
            raise ScenarioError(f"taps: {other!r} and {tap!r} would both write {file}")
        tap_files[file] = tap
    _done(raw, name)

    return Scenario(
        name=name,
        seed=seed,
        cell=cell,
        core=core,
        subscribers=subscribers,
        prior_allocations=prior_allocations,
        nodes=[*gnbs.values(), *ues.values()],
        traffic=traffic,
        external=external,
        occupancy=occupancy,
        taps=taps,
        notes=notes,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file.

    Only this function reads YAML, so it alone imports PyYAML: a scenario
    built with ``scenario_from_dict`` never loads it.
    """
    import yaml

    from . import yamlio

    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    try:
        # libyaml composes nested nodes on the C stack, which deep enough nesting
        # overflows; every level takes a character, so a short text cannot.
        if len(text) > 2048:
            depth = 0
            for event in yaml.parse(text, Loader=yamlio.LOADER):
                depth += isinstance(event, yaml.CollectionStartEvent)
                depth -= isinstance(event, yaml.CollectionEndEvent)
                if depth > 64:
                    raise ScenarioError(f"{path}: nested past 64 levels at line "
                                        f"{event.start_mark.line + 1}")
        raw = yamlio.parse(text)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:  # a bad date, a huge int
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"{path}: parse error{where}: {exc}") from None
    return scenario_from_dict(raw, name_hint=path.stem)


def bundled_scenario_path(name: str) -> Path:
    if name not in BUNDLED:
        raise ConfigError(f"unknown bundled scenario {name!r}; shipped: {', '.join(BUNDLED)}")
    return Path(str(resources.files("nrusim.data") / "scenarios" / f"{name}.yaml"))


def load_bundled(name: str) -> Scenario:
    """One of the scenarios shipped with the package."""
    return load_scenario(bundled_scenario_path(name))
