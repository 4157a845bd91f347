import copy
from pathlib import Path

import pytest
import yaml

from nrusim import yamlio
from nrusim.access import LbtConfig, TddConfig
from nrusim.corenet import CoreConfig
from nrusim.errors import ScenarioError
from nrusim.scenario import (
    BUNDLED,
    Scenario,
    bundled_scenario_path,
    load_bundled,
    load_scenario,
    scenario_from_dict,
)

BASE = {
    "schema": 1,
    "name": "unit",
    "seed": 3,
    "duration_s": 5,
    "cell": {
        "band": "n46",
        "arfcn": 750000,
        "bandwidth_mhz": 40,
        "scs_khz": 30,
        "ssb_gscn": 9062,
        "indoor": True,
        "tx_power_dbm": -31.614,
        "attenuation_factor": 12,
    },
    "core": {
        "ue_pool": "12.1.1.0/24",
        "subscribers": [{"imsi": "001010000000001"}],
    },
    "nodes": [
        {"name": "gnb1", "role": "gnb", "host": "precision-5820-core", "sdr": "n300",
         "n3_address": "192.168.70.129"},
        {"name": "ue1", "role": "ue", "host": "nuc-i5", "sdr": "b210",
         "imsi": "001010000000001", "gnb": "gnb1",
         "medium": {"kind": "over_air", "distance_m": 3.0}},
    ],
    "traffic": [
        {"probe": "ping", "label": "rtt", "src": "ue1", "dst": "core-gateway",
         "count": 5, "interval_ms": 100},
    ],
}


def variant(**overrides) -> dict:
    raw = copy.deepcopy(BASE)
    for path, value in overrides.items():
        node = raw
        keys = path.split(".")
        for key in keys[:-1]:
            node = node[int(key)] if key.isdigit() else node[key]
        last = keys[-1]
        if value is ...:
            del node[last]
        else:
            node[int(last) if last.isdigit() else last] = value
    return raw


def _with(key: str, value, **overrides) -> dict:
    raw = variant(**overrides)
    raw[key] = value
    return raw


def _occupancy(**burst) -> dict:
    entry = {"start_us": 0, "end_us": 10, "power_dbm": -50.0, **burst}
    return _with("occupancy", [{k: v for k, v in entry.items() if v is not ...}])


def _medium(**medium) -> dict:
    return variant(**{"nodes.1.medium": medium})


def _second_gnb(n3_address, **overrides) -> dict:
    """``variant(**overrides)`` with a gNB ``gnb2`` on ``n3_address`` (``...`` omits it)."""
    raw = variant(**overrides)
    gnb2 = {"name": "gnb2", "role": "gnb", "host": "precision-5820", "sdr": "b210"}
    if n3_address is not ...:
        gnb2["n3_address"] = n3_address
    raw["nodes"].insert(1, gnb2)
    return raw


def _renamed_ue(name: str, *extra_ues: str) -> dict:
    """``ue1`` renamed ``name`` everywhere and tapped, with unprovisioned UEs
    ``extra_ues`` on gnb1, each tapped too."""
    raw = variant(**{"nodes.1.name": name, "traffic.0.src": name})
    for extra in extra_ues:
        raw["nodes"].append({**raw["nodes"][1], "name": extra, "unprovisioned": True})
    raw["taps"] = [f"ue:{ue}" for ue in (name, *extra_ues)]
    return raw


# (case, raw scenario, text the ScenarioError must contain)
MALFORMED = [
    ("burst without power_dbm", _occupancy(power_dbm=...), "occupancy[0]: missing required"),
    ("non-integer start_us", _occupancy(start_us="x"), "occupancy[0]: start_us"),
    ("second burst malformed",
     _with("occupancy", [{"start_us": 0, "end_us": 10, "power_dbm": -50.0},
                         {"start_us": 20, "end_us": "late", "power_dbm": -50.0}]),
     "occupancy[1]: end_us"),
    ("second burst reversed",
     _with("occupancy", [{"start_us": 0, "end_us": 10, "power_dbm": -50.0},
                         {"start_us": 30, "end_us": 20, "power_dbm": -50.0}]),
     "occupancy[1]: burst interval reversed: [30, 20)"),
    ("empty burst", _occupancy(start_us=10), "occupancy[0]: burst interval reversed: [10, 10)"),
    ("NaN burst power", _occupancy(power_dbm=float("nan")), "occupancy[0]: power_dbm"),
    ("non-integer seed", variant(seed="abc"), "seed"),
    ("infinite seed", variant(seed=float("inf")), "seed"),
    ("non-integer duration_s", variant(duration_s="long"), "duration_s"),
    ("non-integer ping count", variant(**{"traffic.0.count": "many"}), "traffic[0]: count"),
    ("occupancy not a list", _with("occupancy", 5), "occupancy must be a list"),
    ("traffic item not a mapping", _with("traffic", [5]), "traffic[0] must be a mapping"),
    ("traffic null", _with("traffic", None), "traffic must be a list"),
    ("cell.tdd not a mapping", variant(**{"cell.tdd": "x"}), "tdd must be a mapping"),
    ("cell not a mapping", _with("cell", [1]), "cell must be a mapping"),
    ("nodes not a list", _with("nodes", "abc"), "nodes must be a list"),
    ("subscriber not a mapping", variant(**{"core.subscribers": ["x"]}), "subscribers[0]"),
    ("medium not a mapping", variant(**{"nodes.1.medium": "air"}), "medium must be a mapping"),
    ("malformed UPF address", variant(**{"core.upf_address": "nowhere"}), "core"),
    ("malformed UE pool", variant(**{"core.ue_pool": "nowhere"}), "core"),
    ("malformed n3_address", variant(**{"nodes.0.n3_address": "nowhere"}), "n3_address"),
    ("quoted boolean", variant(**{"cell.indoor": "false"}), "indoor must be true or false"),
    ("negative distance", variant(**{"nodes.1.medium.distance_m": -1}),
     "node ue1: over-air distance must be positive"),
    ("zero cable length", _medium(kind="cable", length_cm=0), "node ue1: cable length"),
    ("negative attenuator", _medium(kind="cable", length_cm=50, attenuator_db=-3),
     "node ue1: attenuator cannot have negative loss"),
    ("tx power past float range", variant(**{"cell.tx_power_dbm": 1e6}),
     "cell: EIRP must be finite"),
    # Neither raster can hold a TDD cell: FDD's UL and DL spans are disjoint, SDL has no UL.
    ("FDD band", variant(**{"cell.band": "n1", "cell.arfcn": 428000}),
     "cell: band n1 is FDD, not TDD"),
    ("SDL band", variant(**{"cell.band": "n29", "cell.arfcn": 144000}),
     "cell: band n29 is SDL, not TDD"),
    ("unknown role", variant(**{"nodes.1.role": "relay"}),
     "node ue1: role must be 'gnb' or 'ue', got 'relay'"),
    ("no gNB", _with("nodes", BASE["nodes"][1:]), "nodes: scenario needs at least one gNB"),
    ("UE without imsi", variant(**{"nodes.1.imsi": ...}), "node ue1: missing required field 'imsi'"),
    ("UE without gnb", variant(**{"nodes.1.gnb": ...}), "node ue1: missing required field 'gnb'"),
    ("UE without medium", variant(**{"nodes.1.medium": ...}),
     "node ue1: missing required field 'medium'"),
]

# Scenarios that used to load, then failed or reported silently wrong
# numbers at run time.
UNRUNNABLE = [
    ("negative ping interval", variant(**{"traffic.0.interval_ms": -1}), "interval_ms"),
    ("negative external delay",
     _with("external_host", {"one_way_delay_us": -10}, **{"traffic.0.dst": "external"}),
     "one_way_delay_us"),
    ("external ttl out of range", _with("external_host", {"ttl": 300}), "ttl"),
    ("malformed external address", _with("external_host", {"address": "nowhere"}), "address"),
    ("ping dst not a node", variant(**{"traffic.0.dst": "nowhere"}), "ping dst 'nowhere'"),
    ("ping dst not an IPv4", variant(**{"traffic.0.dst": "999.1.1.1"}), "ping dst"),
    ("negative ping count", variant(**{"traffic.0.count": -2}), "count"),
    ("ping count past 16-bit seq", variant(**{"traffic.0.count": 70_000}), "count"),
    ("negative throughput duration",
     _with("traffic", [{"probe": "throughput", "ue": "ue1", "direction": "UL",
                        "duration_s": -1}]),
     "duration_s"),
    ("negative default duration", variant(duration_s=-5), "duration_s"),
    # A throughput plan schedules its ticks up front: a billion seconds would fill memory.
    ("throughput duration past an hour",
     _with("traffic", [{"probe": "throughput", "ue": "ue1", "direction": "DL",
                        "duration_s": 3601}]),
     "traffic[0]: duration_s must be in [0, 3600], got 3601"),
    ("default duration past an hour", variant(duration_s=1_000_000_000),
     "duration_s must be in [0, 3600], got 1000000000"),
    ("negative contention window", variant(**{"cell.lbt": {"cw_min": -1}}), "cw_min"),
    ("prior allocations past the pool",
     variant(**{"core.prior_allocations": 300}), "prior_allocations must be in [0, 253]"),
    ("UE pool without a host", variant(**{"core.ue_pool": "12.1.1.0/32"}), "too small"),
    ("subscriber listed twice",
     variant(**{"core.subscribers": [{"imsi": "001010000000001"}, {"imsi": "001010000000001"}]}),
     "core: duplicate IMSI 001010000000001"),
    ("NaN bandwidth", variant(**{"cell.bandwidth_mhz": float("nan")}),
     "cell: bandwidth_mhz must be a finite number, got nan"),
    ("zero bandwidth", variant(**{"cell.bandwidth_mhz": 0}), "cell: bandwidth must be positive"),
    ("negative bandwidth", variant(**{"cell.bandwidth_mhz": -40}),
     "cell: bandwidth must be positive"),
    # Its kHz carrier edges overflow: the error named the edges "-inf-inf MHz".
    ("bandwidth of 1e308 MHz", variant(**{"cell.bandwidth_mhz": 1e308}),
     "cell: bandwidth 1e+308 MHz is wider than the n46 span 5149.995-5925.000 MHz"),
    ("NaN tx power", variant(**{"cell.tx_power_dbm": float("nan")}), "cell: tx_power_dbm"),
    ("infinite tx power", variant(**{"cell.tx_power_dbm": float("inf")}), "cell: tx_power_dbm"),
    ("NaN attenuation factor", variant(**{"cell.attenuation_factor": float("nan")}),
     "cell: attenuation_factor"),
    ("-inf attenuation factor", variant(**{"cell.attenuation_factor": -float("inf")}),
     "cell: attenuation_factor"),
    ("NaN distance", variant(**{"nodes.1.medium.distance_m": float("nan")}),
     "node ue1: distance_m must be a finite number"),
    ("infinite distance", variant(**{"nodes.1.medium.distance_m": float("inf")}),
     "node ue1: distance_m"),
    ("infinite cable length", _medium(kind="cable", length_cm=float("inf")), "node ue1: length_cm"),
    ("NaN attenuator", _medium(kind="cable", length_cm=50, attenuator_db=float("nan")),
     "node ue1: attenuator_db"),
    ("NaN CCA threshold", variant(**{"cell.lbt": {"cca_threshold_dbm": float("nan")}}),
     "cell.lbt: cca_threshold_dbm must be a finite number"),
    # Every number is finite, but the RSRP overflows to -inf (invalid JSON in the report).
    ("overflowing link budget",
     variant(**{"cell.attenuation_factor": 1.7e308,
                "nodes.1.medium": {"kind": "cable", "length_cm": 50, "attenuator_db": 1.7e308}}),
     "node ue1: link budget overflows"),
    # Values are taken as written: the loader used to convert these with int(), float()
    # or str() and run other numbers than the file held.
    ("fractional ping count", variant(**{"traffic.0.count": 2.9}),
     "traffic[0]: count must be an integer, got 2.9"),
    ("boolean seed", variant(seed=True), "seed must be an integer, got True"),
    ("fractional ARFCN", variant(**{"cell.arfcn": 750000.7}), "cell: arfcn must be an integer"),
    ("boolean burst start", _occupancy(start_us=True),
     "occupancy[0]: start_us must be an integer, got True"),
    ("quoted tx power", variant(**{"cell.tx_power_dbm": "-31.614"}),
     "cell: tx_power_dbm must be a finite number, got '-31.614'"),
    ("quoted ping count", variant(**{"traffic.0.count": "10"}),
     "traffic[0]: count must be an integer, got '10'"),
    ("list as name", variant(name=["x"]), "name must be a string, got ['x']"),
    ("unquoted UE IMSI", variant(**{"nodes.1.imsi": 1010000000001}),
     "node ue1: imsi must be a string, got 1010000000001"),
    # PyYAML reads YAML 1.1, where 4e1 and 4.0e1 are strings; only 4.0e+1 is a float.
    ("exponent without dot and sign", variant(**{"cell.bandwidth_mhz": "4e1"}),
     "cell: bandwidth_mhz must be a finite number, got '4e1'"),
    ("lower-case direction",
     _with("traffic", [{"probe": "throughput", "ue": "ue1", "direction": "ul"}]),
     "traffic[0]: direction must be UL or DL, got 'ul'"),
    ("quoted burst power", _occupancy(power_dbm="-50"),
     "occupancy[0]: power_dbm must be a number, got '-50'"),
    ("tap not a string", _with("taps", [["n6"]]), "taps: unknown tap ['n6']"),
    # Both plans would draw from the same probe stream and report two identical rows.
    ("traffic label used twice", _with("traffic", BASE["traffic"] * 2),
     "traffic[1]: label 'rtt' already used by traffic[0]"),
    ("label equal to a default label",
     _with("traffic", [{**BASE["traffic"][0], "label": "ping-1"},
                       {k: v for k, v in BASE["traffic"][0].items() if k != "label"}]),
     "traffic[1]: label 'ping-1' already used by traffic[0]"),
    # A UE, the pool gateway or the UPF would answer the external pings, not N6.
    ("external host in the UE pool", _with("external_host", {"address": "12.1.1.2"}),
     "external_host: address 12.1.1.2 lies in the UE pool 12.1.1.0/24"),
    ("external host on the pool gateway", _with("external_host", {"address": "12.1.1.1"}),
     "external_host: address 12.1.1.1 lies in the UE pool"),
    ("external host on the UPF", _with("external_host", {"address": "192.168.70.134"}),
     "external_host: address 192.168.70.134 is the UPF's address"),
    # Either gNB would tunnel from the UPF to itself: 192.168.70.134 -> 192.168.70.134 on N3.
    ("gNB N3 address on the UPF", variant(**{"nodes.0.n3_address": "192.168.70.134"}),
     "node gnb1: n3_address 192.168.70.134 is the UPF's address"),
    ("AMF on the UPF's address",
     variant(**{"core.amf_address": "192.168.70.134", "nodes.0.n3_address": ...}),
     "core: AMF and UPF share the address 192.168.70.134"),
    # Outside the channel-access priority classes of ETSI EN 301 893.
    ("CCA duration of 1e18 us", variant(**{"cell.lbt": {"cca_duration_us": 10**18}}),
     "cell: cca_duration_us must be in [25, 79] (ETSI EN 301 893 clause 4.2.7.3.2), "
     "got 1000000000000000000"),
    ("zero contention window", variant(**{"cell.lbt": {"cw_min": 0}}),
     "cell: cw_min must be in [3, 15]"),
    ("contention window past 1023", variant(**{"cell.lbt": {"cw_max": 2047}}),
     "cell: cw_max must be in [7, 1023]"),
    # A key the loader never reads used to be dropped without a word, so a misspelt
    # key ran the default: the 200 ms interval, no taps, cw_min 15.
    ("misspelt top-level key", _with("tap", ["n6"]), "unit: unknown key 'tap'"),
    ("misspelt LBT key", variant(**{"cell.lbt": {"cw_mn": 3}}), "cell.lbt: unknown key 'cw_mn'"),
    ("misspelt traffic key", variant(**{"traffic.0.interval": 10, "traffic.0.interval_ms": ...}),
     "traffic[0]: unknown key 'interval'"),
    ("throughput key on a ping", variant(**{"traffic.0.duration_s": 3}),
     "traffic[0]: unknown key 'duration_s'"),
    ("medium on a gNB", variant(**{"nodes.0.medium": {"kind": "over_air", "distance_m": 3.0}}),
     "node gnb1: unknown key 'medium'"),
    # Each role reads only its own keys; the other role's used to be read and ignored.
    ("IMSI on a gNB", variant(**{"nodes.0.imsi": "001010000000001"}),
     "node gnb1: unknown key 'imsi'"),
    ("gnb on a gNB", variant(**{"nodes.0.gnb": "nowhere"}), "node gnb1: unknown key 'gnb'"),
    ("unprovisioned on a gNB", variant(**{"nodes.0.unprovisioned": True}),
     "node gnb1: unknown key 'unprovisioned'"),
    ("on_air on a UE", variant(**{"nodes.1.on_air": False}), "node ue1: unknown key 'on_air'"),
    ("n3_address on a UE", variant(**{"nodes.1.n3_address": "192.168.70.140"}),
     "node ue1: unknown key 'n3_address'"),
    ("cable key on an over-air medium", variant(**{"nodes.1.medium.length_cm": 50}),
     "node ue1 medium: unknown key 'length_cm'"),
    ("fourth burst key", _occupancy(note="radar"), "occupancy[0]: unknown key 'note'"),
    # Both equal 1, but neither is the integer the schema version is.
    ("boolean schema", variant(schema=True), "schema must be 1, got True"),
    ("float schema", variant(schema=1.0), "schema must be 1, got 1.0"),
    ("misspelt burst key", _occupancy(power=-50.0, power_dbm=...),
     "occupancy[0]: missing required field 'power_dbm'"),
    # N3 frames from a gNB on another gNB's or a UE's address cannot be told apart.
    ("two gNBs on one n3_address", _second_gnb("192.168.70.129"),
     "node gnb2: n3_address 192.168.70.129 is already gNB gnb1's N3 source"),
    ("n3_address in the UE pool", _second_gnb("12.1.1.2"),
     "node gnb2: n3_address 12.1.1.2 lies in the UE pool 12.1.1.0/24"),
    ("two gNBs without n3_address",
     _second_gnb(..., **{"nodes.0.n3_address": ...}),
     "node gnb2: N3 source 192.168.70.132 (the AMF's; no n3_address) is already gNB gnb1's"),
    # `run` writes to out/<name>: this one wrote two levels above out/, a NUL crashed mkdir.
    ("name escaping out/", variant(name="../../escaped"),
     "name must be one directory name"),
    ("name with a NUL", variant(name="a\0b"), "name must be one directory name"),
    # run --pcap writes a UE's tap to tap_ue_<name>.pcap: this one wrote two levels above
    # it, and two taps on one file name kept only the second capture.
    ("node name escaping out/", _renamed_ue("x/../../y"),
     "nodes: name must be one directory name (not empty, '.' or '..'; no '/', '\\' or NUL), "
     "got 'x/../../y'"),
    ("two taps on one pcap file", _renamed_ue("a:b", "a_b"),
     "taps: 'ue:a:b' and 'ue:a_b' would both write tap_ue_a_b.pcap"),
    # A repeat used to load: the run kept one capture and one passive row for both.
    ("tap listed twice", _with("taps", ["n6", "ue:ue1", "n6"]), "taps: 'n6' listed twice"),
    # A ping to a node of such a name went elsewhere: one to the UE named external got an
    # external_reply, and one to 192.168.70.10 found the gNB, which has no address.
    ("UE named external", _renamed_ue("external"),
     "nodes: name 'external' is reserved for a ping dst ('core-gateway', 'external' or a "
     "dotted-quad IPv4 address)"),
    ("UE named core-gateway", _renamed_ue("core-gateway"),
     "nodes: name 'core-gateway' is reserved for a ping dst"),
    ("gNB named as a dotted quad",
     variant(**{"nodes.0.name": "192.168.70.10", "nodes.1.gnb": "192.168.70.10"}),
     "nodes: name '192.168.70.10' is reserved for a ping dst"),
    # Both used to pass validation, then `run --pcap` crashed writing a capture time past
    # the 32-bit seconds of a pcap record header.
    ("TDD period past 10 ms", variant(**{"cell.tdd": {"period_slots": 2**63}}),
     "cell.tdd: period_slots must be in [2, 20], got 9223372036854775808"),
    ("external delay past 10 s", _with("external_host", {"one_way_delay_us": 2**63}),
     "external_host: one_way_delay_us must be in [0, 10000000]"),
]

HOSTILE = MALFORMED + UNRUNNABLE


class TestBundled:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_every_bundled_scenario_loads(self, name):
        scenario = load_bundled(name)
        assert isinstance(scenario, Scenario)
        assert scenario.name == name

    def test_test_a_matches_its_hardware_row(self):
        scenario = load_bundled("test_a")
        gnb = scenario.node("gnb1")
        ue = scenario.node("ue1")
        assert gnb.sdr.name == "n300"
        assert ue.sdr.name == "b210"
        assert scenario.cell.attenuation_factor == 12
        assert scenario.cell.bandwidth_mhz == 40

    def test_test_d_uses_the_overloaded_nuc(self):
        scenario = load_bundled("test_d")
        assert scenario.node("gnb1").host.name == "nuc-i5-core"
        assert scenario.node("gnb1").host.colocated_core_load_msps == 0.6


class TestValidation:
    def test_base_variant_is_valid(self):
        scenario = scenario_from_dict(variant())
        assert scenario.seed == 3
        assert scenario.notes == []

    def test_missing_seed_defaults_to_zero_with_note(self):
        scenario = scenario_from_dict(variant(seed=...))
        assert scenario.seed == 0
        assert "seed defaulted to 0" in scenario.notes

    def test_invalid_arfcn_cites_the_raster(self):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(variant(**{"cell.arfcn": 795001}))
        assert "743333" in str(err.value) and "795000" in str(err.value)

    def test_unknown_host_profile_named(self):
        with pytest.raises(ScenarioError, match="mystery-box"):
            scenario_from_dict(variant(**{"nodes.0.host": "mystery-box"}))

    def test_unknown_band(self):
        with pytest.raises(ScenarioError, match="n99"):
            scenario_from_dict(variant(**{"cell.band": "n99"}))

    def test_ssb_gscn_must_be_on_sync_raster(self):
        with pytest.raises(ScenarioError, match="sync raster"):
            scenario_from_dict(variant(**{"cell.ssb_gscn": 8992}))

    def test_scs_must_match_ss_block(self):
        with pytest.raises(ScenarioError, match="SCS"):
            scenario_from_dict(variant(**{"cell.scs_khz": 15}))

    def test_unprovisioned_imsi_needs_the_flag(self):
        with pytest.raises(ScenarioError, match="unprovisioned"):
            scenario_from_dict(variant(**{"nodes.1.imsi": "001010000000009"}))
        raw = variant(**{"nodes.1.imsi": "001010000000009"})
        raw["nodes"][1]["unprovisioned"] = True
        assert scenario_from_dict(raw).node("ue1").unprovisioned

    def test_regulatory_gate(self):
        # 23 dBm is 200 mW; the n46 channel here stays clear of the capped
        # range, so power alone is fine while outdoor use is not.
        with pytest.raises(ScenarioError, match="indoor"):
            scenario_from_dict(variant(**{"cell.indoor": False}))
        raw = variant(**{"cell.indoor": False})
        raw["allow_noncompliant"] = True
        scenario = scenario_from_dict(raw)
        assert any("override" in note for note in scenario.notes)

    def test_ue_referencing_unknown_gnb(self):
        with pytest.raises(ScenarioError, match="unknown gNB"):
            scenario_from_dict(variant(**{"nodes.1.gnb": "gnb9"}))

    def test_traffic_source_must_be_a_ue(self):
        with pytest.raises(ScenarioError, match="not a UE"):
            scenario_from_dict(variant(**{"traffic.0.src": "gnb1"}))

    def test_unknown_tap_rejected(self):
        raw = variant()
        raw["taps"] = ["ue:ue9"]
        with pytest.raises(ScenarioError, match="unknown tap"):
            scenario_from_dict(raw)

    def test_names_near_the_reserved_ones_load(self):
        scenario = scenario_from_dict(_renamed_ue("5g-ue", "192.168.70.256", "External"))
        assert [ue.name for ue in scenario.ues()] == ["5g-ue", "192.168.70.256", "External"]

    def test_renamed_ues_with_distinct_file_names_load(self):
        """The two tap-path rows fail on their names alone."""
        scenario = scenario_from_dict(_renamed_ue("x..y", "a:b", "a.b"))
        assert [ue.name for ue in scenario.ues()] == ["x..y", "a:b", "a.b"]
        assert scenario.taps == ["ue:x..y", "ue:a:b", "ue:a.b"]

    @pytest.mark.parametrize("raw, needle", [case[1:] for case in HOSTILE],
                             ids=[case[0] for case in HOSTILE])
    def test_hostile_value_names_its_field(self, raw, needle):
        with pytest.raises(ScenarioError) as err:
            scenario_from_dict(raw)
        assert needle in str(err.value)

    def test_zero_counts_intervals_and_durations_still_load(self):
        raw = variant(**{"traffic.0.count": 0, "traffic.0.interval_ms": 0})
        raw["traffic"].append({"probe": "throughput", "ue": "ue1", "direction": "DL",
                               "duration_s": 0})
        raw["external_host"] = {"one_way_delay_us": 0}
        scenario = scenario_from_dict(raw)
        assert (scenario.traffic[0].count, scenario.traffic[0].interval_ms) == (0, 0)
        assert scenario.traffic[1].duration_s == 0

    @pytest.mark.parametrize("pool, capacity", [("12.1.1.0/30", 1), ("12.1.1.0/31", 1),
                                                ("12.1.0.0/16", 65533)])
    def test_prior_allocations_may_fill_the_pool(self, pool, capacity):
        raw = variant(**{"core.ue_pool": pool, "core.prior_allocations": capacity})
        assert scenario_from_dict(raw).prior_allocations == capacity

    @pytest.mark.parametrize("dst", ["gnb1", "ue1", "core-gateway", "external", "8.8.8.8"])
    def test_ping_dst_forms_accepted(self, dst):
        assert scenario_from_dict(variant(**{"traffic.0.dst": dst})).traffic[0].dst == dst

    @pytest.mark.parametrize("power", [float("inf"), float("-inf")])
    def test_infinite_burst_power_still_loads(self, power):
        scenario = scenario_from_dict(_occupancy(power_dbm=power))
        assert scenario.occupancy.bursts[0].power_dbm == power

    def test_absent_keys_take_their_class_defaults(self):
        raw = variant(**{"core.ue_pool": ...})
        assert "tdd" not in raw["cell"] and "lbt" not in raw["cell"]
        scenario = scenario_from_dict(raw)
        assert scenario.cell.tdd == TddConfig(slot_us=500)
        assert scenario.cell.lbt == LbtConfig()
        assert scenario.core == CoreConfig()
        assert scenario.cell.bandwidth_mhz == 40.0 and type(scenario.cell.bandwidth_mhz) is float

    def test_one_gnb_without_n3_address_still_loads(self):
        scenario = scenario_from_dict(_second_gnb(...))
        assert scenario.node("gnb2").n3_address == CoreConfig._field_defaults["amf_address"]

    @pytest.mark.parametrize("name", BUNDLED)
    def test_loading_leaves_the_callers_mapping_whole(self, name):
        # The benchmark loads one generated mapping on every pass.  The integer power
        # sends the second burst through the checked path.
        raw = yaml.safe_load(bundled_scenario_path(name).read_text(encoding="utf-8"))
        raw["occupancy"] = [{"start_us": 0, "end_us": 10, "power_dbm": -50.0},
                            {"start_us": 5, "end_us": 20, "power_dbm": -60}]
        before = copy.deepcopy(raw)
        scenario_from_dict(raw)
        assert raw == before

    def test_schema_version_enforced(self):
        with pytest.raises(ScenarioError, match="schema"):
            scenario_from_dict(variant(schema=2))


class TestFileLoading:
    def test_parse_error_reports_position(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema: 1\ncell: [unclosed\n", encoding="utf-8")
        with pytest.raises(ScenarioError, match="line"):
            load_scenario(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.yaml")

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "unit.yaml"
        path.write_text(yaml.safe_dump(variant()), encoding="utf-8")
        scenario = load_scenario(path)
        assert scenario.name == "unit"
        assert scenario.cell.arfcn == 750000


# Every YAML text the tests parse, by name: the bundled scenarios, and the frozen YAML of each
# shipped table (test_data.py builds the tables' records from it, as the loaders did before JSON).
DATA_ROOT = Path(yamlio.__file__).parent / "data"
DATA_FILES = {**{p.relative_to(DATA_ROOT).as_posix(): p for p in DATA_ROOT.rglob("*.yaml")},
              **{p.name: p for p in (Path(__file__).parent / "yaml_tables").glob("*.yaml")}}

# (case, malformed text, error class, 1-based line and column of its problem mark)
MALFORMED_YAML = [
    ("unclosed flow sequence", "schema: 1\ncell: [unclosed\n", yaml.parser.ParserError, 3, 1),
    ("tab indentation", "cell:\n\tband: n46\n", yaml.scanner.ScannerError, 2, 1),
    ("dedented key", "cell:\n  band: n46\n arfcn: 1\n", yaml.parser.ParserError, 3, 2),
    ("unclosed quote", 'name: "abc\nseed: 1\n', yaml.scanner.ScannerError, 3, 1),
    ("undefined alias", "seed: *nope\n", yaml.composer.ComposerError, 1, 7),
    ("nested mapping value", "seed: b: c\n", yaml.scanner.ScannerError, 1, 8),
    ("sequence then mapping", "- a\nb: c\n", yaml.parser.ParserError, 2, 1),
    ("python tag", "seed: !!python/object:os.system x\n", yaml.constructor.ConstructorError, 1, 7),
    # PyYAML's own loaders keep the last value: the scenario ran seed 8.
    ("repeated key", "seed: 7\nname: a\nseed: 8\n", yaml.constructor.ConstructorError, 3, 1),
]

# (case, well-formed text whose value Python cannot build, what the ValueError says)
UNBUILDABLE_YAML = [
    ("month 13", "seed: 2001-13-45\n", "month must be in 1..12"),
    ("5,000-digit integer", "seed: " + "7" * 5000 + "\n", "integer string conversion"),
]


@pytest.fixture(params=["SafeLoader", "CSafeLoader"])
def loader(request, monkeypatch):
    """Every load in the test parses with this PyYAML loader."""
    if request.param == "CSafeLoader" and not yaml.__with_libyaml__:
        pytest.skip("this PyYAML was built without libyaml")
    chosen = getattr(yaml, request.param)
    monkeypatch.setattr(yamlio, "LOADER", chosen)
    return chosen


class TestLoaderParity:
    """The C loader, when installed, must read every input as the Python one does."""

    def test_installed_loader_prefers_libyaml(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert yamlio.LOADER is expected

    def test_data_files_include_every_loaded_file(self):
        bundled = {bundled_scenario_path(name).relative_to(DATA_ROOT).as_posix()
                   for name in BUNDLED}
        tables = {path.with_suffix(".yaml").name for path in DATA_ROOT.glob("*.json")}
        assert tables == {"bands.yaml", "calibration.yaml", "hardware.yaml", "regulatory.yaml"}
        assert set(DATA_FILES) == tables | bundled

    @pytest.mark.parametrize("name", sorted(DATA_FILES))
    def test_data_file_parses_to_equal_objects(self, loader, name):
        text = DATA_FILES[name].read_text(encoding="utf-8")
        got, expected = yamlio.parse(text), yaml.load(text, Loader=yaml.SafeLoader)
        # repr also tells 1 from 1.0 and True, which == does not.
        assert got == expected and repr(got) == repr(expected)

    @pytest.mark.parametrize("raw, needle", [case[1:] for case in HOSTILE],
                             ids=[case[0] for case in HOSTILE])
    def test_hostile_file_names_the_same_field(self, loader, tmp_path, raw, needle):
        path = tmp_path / "hostile.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        with pytest.raises(ScenarioError) as err:
            load_scenario(path)
        assert needle in str(err.value)
        reference = yaml.load(path.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
        with pytest.raises(ScenarioError) as expected:
            scenario_from_dict(reference, name_hint=path.stem)
        assert str(err.value) == str(expected.value)

    @pytest.mark.parametrize("text, error, line, column", [case[1:] for case in MALFORMED_YAML],
                             ids=[case[0] for case in MALFORMED_YAML])
    def test_malformed_text_same_error_and_mark(self, loader, tmp_path, text, error,
                                                line, column):
        with pytest.raises(yaml.YAMLError) as raised:
            yamlio.parse(text)
        assert type(raised.value) is error
        mark = raised.value.problem_mark
        assert (mark.line + 1, mark.column + 1) == (line, column)
        path = tmp_path / "bad.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ScenarioError, match=f"parse error at line {line}, column {column}:"):
            load_scenario(path)

    # (text, what it parses to, the text with a repeat in the mapping that merges)
    @pytest.mark.parametrize("text, expected, repeated", [
        ("b: &b {k: 1, n: a}\nr: {<<: *b, k: 2}\n",
         {"b": {"k": 1, "n": "a"}, "r": {"k": 2, "n": "a"}},
         "b: &b {k: 1, n: a}\nr: {<<: *b, k: 2, k: 3}\n"),
        ("a: &a {k: 1}\nb: &b {k: 2}\nc: {<<: [*a, *b], k: 3}\n",
         {"a": {"k": 1}, "b": {"k": 2}, "c": {"k": 3}},
         "a: &a {k: 1}\nb: &b {k: 2}\nc: {<<: [*a, *b], k: 3, k: 4}\n"),
        # &m is merged into x before it is built as y's value.
        ("x: {<<: &m {<<: {k: 1}, k: 2}}\ny: *m\n", {"x": {"k": 2}, "y": {"k": 2}},
         "x: {<<: &m {<<: {k: 1}, k: 2, k: 3}}\ny: *m\n"),
    ], ids=["one merge", "two merges", "a merged mapping built later"])
    def test_a_key_may_override_a_merged_one(self, loader, text, expected, repeated):
        assert yamlio.parse(text) == expected
        with pytest.raises(yaml.constructor.ConstructorError, match="found duplicate key 'k'"):
            yamlio.parse(repeated)

    @pytest.mark.parametrize("text, message", [case[1:] for case in UNBUILDABLE_YAML],
                             ids=[case[0] for case in UNBUILDABLE_YAML])
    def test_unbuildable_value_is_a_parse_error(self, loader, tmp_path, text, message):
        with pytest.raises(ValueError, match=message):
            yaml.load(text, Loader=loader)
        path = tmp_path / "bad.yaml"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ScenarioError, match=f"parse error: .*{message}") as err:
            load_scenario(path)
        assert "\n" not in str(err.value)  # `nrusim validate` prints one error line

    def test_deep_nesting_is_a_scenario_error(self, loader, tmp_path):
        path = tmp_path / "deep.yaml"
        # 2,000 characters: too short to need the depth walk, and too deep for
        # SafeLoader's recursive composer.
        path.write_text("[" * 1000 + "]" * 1000, encoding="utf-8")
        with pytest.raises(ScenarioError):
            load_scenario(path)
        path.write_text("seed: 1\ncell: " + "[" * 64 + "]" * 64 + "\n" + "#" * 2048 + "\n",
                        encoding="utf-8")
        with pytest.raises(ScenarioError, match="nested past 64 levels at line 2$"):
            load_scenario(path)
