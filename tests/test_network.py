"""``SimNetwork`` against the frozen reference network it must agree with.

``tests/reference_network.py`` holds ``ReferenceNetwork``, which runs every
event after attach in the designs the live path replaced: eager bytes with
byte taps, folded by the passive monitor of the time; closures; a walk over
a hop table with ``RADIO`` and ``GNB`` markers that asks ``access.lbt_gate``
at every radio hop; every guard for traffic no run makes; and a bulk tick
per lambda, whose arrival hands its bytes to its plan's probe tally.  Its
report is the runner's old multi-pass fold with those tallies, so every
report comparison also checks the one-pass fold, throughput rows
included, against it.  Over
generated ping, throughput and mixed scenarios and over
the golden cases, a live run must write the same ``events.jsonl`` and
``report.json`` text as the reference run, and every tap must capture the
same frames.

The other tests pin what no reference run can see: a tap captures the
same frames whichever other taps the run sets, the log's
``SESSION_ACTIVE`` records are the core's sessions, a run with taps encodes
and decodes nothing, the passive monitor folds as the single loop did, a
link derives an LBT substream only under bursts, and the live run calls
``lbt_gate`` once per reference radio hop under bursts and never without.
"""

from __future__ import annotations

import functools
import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nrusim import access, metrics, network, runner
from nrusim.calibration import load_calibration
from nrusim.engine import EventLog, EventLoop, derive_rng
from nrusim.network import SimNetwork
from nrusim.scenario import load_bundled, scenario_from_dict
from tests.golden import CASES, GOLDEN_CASES, file_digests, golden_result, golden_scenario
from tests.reference_network import byte_passive_monitor, reference_run
from tests.test_runner import ping_scenarios
from tests.test_scenario import variant

VALID_TAPS = ["ue:ue1", "ue:ue2", "n3:gnb1", "n6"]


def assert_same_capture(live: runner.RunResult, reference: runner.RunResult) -> None:
    assert list(live.taps) == list(reference.taps)
    for tap, frames in reference.taps.items():
        assert live.frames(tap) == frames, tap


def assert_same_as_reference(live: runner.RunResult, scenario) -> None:
    reference = reference_run(scenario)
    assert live.events_jsonl() == reference.events_jsonl()
    assert live.report_json() == reference.report_json()  # the passive section above all
    assert_same_capture(live, reference)


@settings(max_examples=40, deadline=None)
@given(raw=ping_scenarios(), taps=st.sets(st.sampled_from(VALID_TAPS)),
       sessionless_ue2=st.booleans())
def test_packets_write_and_capture_what_the_reference_did(raw, taps, sessionless_ue2):
    raw["taps"] = sorted(taps)
    if sessionless_ue2:  # its pings log ping_no_route; resolve_dst gives it no address, so
        # pings to it are never sent
        raw["core"]["subscribers"].pop()
        raw["nodes"][-1]["unprovisioned"] = True
    assert_same_as_reference(runner.run_scenario(scenario_from_dict(raw)), scenario_from_dict(raw))


def test_a_plan_that_cannot_send_schedules_no_event():
    """A sessionless UE's throughput plan queues no tick, and a ping to a node without an
    address queues no request: each plan decides once, not per event."""
    raw = variant(name="dead_plans")
    raw["nodes"].append({"name": "ue2", "role": "ue", "host": "nuc-i5", "sdr": "b210",
                         "imsi": "001010000000002", "gnb": "gnb1", "unprovisioned": True,
                         "medium": {"kind": "cable", "length_cm": 50}})
    raw["traffic"] = [{"probe": "throughput", "ue": "ue2", "direction": "UL", "duration_s": 1},
                      {"probe": "ping", "src": "ue1", "dst": "ue2", "count": 3,
                       "interval_ms": 100}]
    with mock.patch.object(EventLoop, "schedule_at", autospec=True,
                           side_effect=EventLoop.schedule_at) as schedule_at:
        result = runner.run_scenario(scenario_from_dict(raw))
    assert schedule_at.call_count == 0
    assert {r["action"] for r in result.log.records} == {"link_budget", "attach_phase",
                                                          "attach_failed"}
    assert result.report["throughput"][0]["delivered_bytes"] == 0
    assert result.report["pings"][0]["sent"] == 3 and result.report["pings"][0]["received"] == 0


@st.composite
def bulk_scenarios(draw) -> dict:
    """UL and DL throughput plans on ue1 and on ue2, optionally behind an
    overloaded gNB host, under zero or more foreign bursts.  At 40 MHz an
    overloaded host's link drops every tick (``radio_drop``); at 39.42 MHz
    it stays viable but loses a few samples.  ue2 is unprovisioned (its
    ticks return early) or provisioned on its own host, SDR and medium, so
    its ticks carry another size, take other delays and may lose another
    share, and under bursts one plan's arrivals fall among the next plan's
    ticks."""
    raw = variant(name="bulk_oracle", seed=draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        raw["nodes"][0]["host"] = "nuc-i5-core"
    if draw(st.booleans()):
        raw["cell"]["bandwidth_mhz"] = 39.42
    ue2 = {"name": "ue2", "role": "ue", "host": "nuc-i5", "sdr": "b210",
           "imsi": "001010000000002", "gnb": "gnb1", "unprovisioned": True,
           "medium": {"kind": "cable", "length_cm": 50}}
    if draw(st.booleans()):  # an attenuated cable shrinks its ticks, an Ethernet SDR its DL ones
        raw["core"]["subscribers"].append({"imsi": ue2["imsi"]})
        ue2.update(unprovisioned=False,
                   host=draw(st.sampled_from(["nuc-i5-core", "precision-5820"])),
                   sdr=draw(st.sampled_from(["b200", "n300", "x300"])),
                   medium=draw(st.sampled_from([
                       {"kind": "cable", "length_cm": 50, "attenuator_db": 30.0},
                       {"kind": "over_air", "distance_m": 5.0}])))
    raw["nodes"].append(ue2)
    for ue, direction, duration_s in draw(st.lists(st.tuples(
            st.sampled_from(["ue1", "ue2"]), st.sampled_from(["UL", "DL"]),
            st.integers(1, 2)), min_size=1, max_size=3)):
        raw["traffic"].append({"probe": "throughput", "ue": ue, "direction": direction,
                               "duration_s": duration_s})
    bursts = draw(st.lists(st.tuples(st.integers(0, 4_000_000), st.integers(1, 200_000),
                                     st.sampled_from([-80.0, -50.0])), max_size=30))
    raw["occupancy"] = [{"start_us": start, "end_us": start + length, "power_dbm": power}
                        for start, length, power in bursts]
    return raw


def two_ue_bulk() -> dict:
    """ue1's UL plan, then UL and DL plans on ue2, whose host loses a few samples at
    39.42 MHz and whose attenuated cable and X300 give its ticks other sizes.  A loud
    burst defers ue1's last ticks until ue2's UL plan has begun."""
    raw = variant(name="two_ue_bulk", seed=7)
    raw["cell"]["bandwidth_mhz"] = 39.42
    raw["core"]["subscribers"].append({"imsi": "001010000000002"})
    raw["nodes"].append({"name": "ue2", "role": "ue", "host": "nuc-i5-core", "sdr": "x300",
                         "imsi": "001010000000002", "gnb": "gnb1",
                         "medium": {"kind": "cable", "length_cm": 50, "attenuator_db": 30.0}})
    raw["traffic"] = [{"probe": "throughput", "ue": ue, "direction": direction, "duration_s": 1}
                      for ue, direction in (("ue1", "UL"), ("ue2", "UL"), ("ue2", "DL"))]
    raw["occupancy"] = [{"start_us": 800_000, "end_us": 2_500_000, "power_dbm": -40.0}]
    return raw


@settings(max_examples=40, deadline=None)
@given(raw=bulk_scenarios())
@example(raw=two_ue_bulk())
def test_bulk_ticks_write_what_the_reference_wrote(raw):
    assert_same_as_reference(runner.run_scenario(scenario_from_dict(raw)), scenario_from_dict(raw))


@st.composite
def leg_scenarios(draw) -> dict:
    """Pings and throughput plans on two UEs with random taps, under foreign
    bursts or none, optionally behind an overloaded gNB host (every bulk tick
    a ``radio_drop``) and with ue2 unprovisioned."""
    raw = draw(ping_scenarios())
    if not draw(st.booleans()):
        raw["occupancy"] = []
    if draw(st.booleans()):
        raw["nodes"][0]["host"] = "nuc-i5-core"
    if draw(st.booleans()):
        raw["core"]["subscribers"].pop()
        raw["nodes"][-1]["unprovisioned"] = True
    for ue, direction in draw(st.lists(st.tuples(st.sampled_from(["ue1", "ue2"]),
                                                 st.sampled_from(["UL", "DL"])), max_size=2)):
        raw["traffic"].append({"probe": "throughput", "ue": ue, "direction": direction,
                               "duration_s": 1})
    raw["taps"] = sorted(draw(st.sets(st.sampled_from(VALID_TAPS))))
    return raw


@settings(max_examples=40, deadline=None)
@given(raw=leg_scenarios())
def test_access_legs_write_and_capture_what_the_reference_did(raw):
    assert_same_as_reference(runner.run_scenario(scenario_from_dict(raw)), scenario_from_dict(raw))


@functools.lru_cache(maxsize=None)
def golden_reference(name: str) -> runner.RunResult:
    return reference_run(golden_scenario(name))


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_golden_cases_log_what_the_reference_logged(bundled_results, name):
    assert golden_result(bundled_results, name).events_jsonl() == \
        golden_reference(name).events_jsonl()


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_golden_cases_report_what_the_reference_reported(bundled_results, name):
    assert golden_result(bundled_results, name).report_json() == \
        golden_reference(name).report_json()


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_golden_cases_capture_what_the_reference_captured(bundled_results, name):
    assert_same_capture(golden_result(bundled_results, name), golden_reference(name))


@settings(max_examples=40, deadline=None)
@given(raw=ping_scenarios())
def test_each_tap_captures_the_same_frames_whatever_other_taps_are_set(raw):
    raw["taps"] = VALID_TAPS
    every = runner.run_scenario(scenario_from_dict(raw))
    for size in range(len(VALID_TAPS)):
        for taps in itertools.combinations(VALID_TAPS, size):
            raw["taps"] = list(taps)
            some = runner.run_scenario(scenario_from_dict(raw))
            assert some.events_jsonl() == every.events_jsonl()
            for tap in taps:
                assert some.frames(tap) == every.frames(tap), (taps, tap)


def test_a_run_with_taps_encodes_and_decodes_nothing():
    def refuse(*_args):
        raise AssertionError("the run touched the codec")

    scenario = load_bundled("north_south")
    assert len(scenario.taps) == 3
    with mock.patch.object(network, "encode_ip", refuse), \
            mock.patch.object(network, "encode_gtpu", refuse), \
            mock.patch.object(metrics, "decode_ip", refuse):
        result = runner.run_scenario(scenario)
    assert all(result.taps.values())
    assert file_digests(result) == CASES["north_south"].files


def test_passive_monitor_decodes_then_folds_as_the_single_loop():
    """Over real tap frames with some truncated or corrupted, both monitors agree."""
    result = runner.run_scenario(load_bundled("north_south"))
    for tap in result.taps:
        frames = result.frames(tap)
        mangled = [(t_us, raw[:len(raw) // 2] if index % 5 == 0 else raw)
                   for index, (t_us, raw) in enumerate(frames)]
        assert byte_passive_monitor(mangled).unparsed_frames > 0
        for capture in (frames, mangled):
            assert metrics.passive_monitor(capture) == byte_passive_monitor(capture)


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_session_active_records_are_the_cores_active_sessions(name):
    """The report fold checks sessions from the log: attach_all logs each
    session the core holds, and no event releases one."""
    net = SimNetwork(golden_scenario(name), EventLoop(), EventLog(), load_calibration())
    net.attach_all()
    logged = [(r["ip"], r["teid_uplink"], r["teid_downlink"]) for r in net.log.records
              if r["action"] == "attach_phase" and r["phase"] == "SESSION_ACTIVE"]
    active = [(s.ip, s.teid_uplink, s.teid_downlink) for s in net.core.active_sessions()]
    assert logged == active


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_attach_sets_each_sessions_teid_pair_on_its_link(name):
    """_gnb_step reads a link's TEIDs, not the core's sessions; a link without a session has none."""
    net = SimNetwork(golden_scenario(name), EventLoop(), EventLog(), load_calibration())
    net.attach_all()
    for ue, link in net.links.items():
        session = net.core.sessions.get(ue)
        expected = session and {"UL": session.teid_uplink, "DL": session.teid_downlink}
        assert link.teids == expected


# contended, long_burst and bulk_lbt_draws have foreign bursts; the other cases have none.
@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_links_derive_an_lbt_substream_only_under_bursts(name):
    scenario = golden_scenario(name)
    net = SimNetwork(scenario, EventLoop(), EventLog(), load_calibration())
    assert net.links
    for ue, link in net.links.items():
        if scenario.occupancy.bursts:
            assert link.rng.getstate() == derive_rng(scenario.seed, f"lbt:{ue}").getstate()
        else:
            assert link.rng is None


def lbt_gate_calls(run, scenario) -> int:
    with mock.patch.object(access, "lbt_gate", wraps=access.lbt_gate) as gate:
        run(scenario)
    return gate.call_count


def test_lbt_gate_runs_at_every_radio_hop_under_bursts_and_never_without():
    hops = {}  # golden case -> (radio hops, lbt_gate calls of the run, bursts or not)
    for name in GOLDEN_CASES:
        scenario = golden_scenario(name)
        hops[name] = (lbt_gate_calls(reference_run, scenario),  # one per RADIO entry
                      lbt_gate_calls(runner.run_scenario, scenario),
                      bool(scenario.occupancy.bursts))
    for name, (radio_hops, calls, bursty) in hops.items():
        assert calls == (radio_hops if bursty else 0), name
    assert {bursty for radio_hops, _calls, bursty in hops.values() if radio_hops} == {False, True}
