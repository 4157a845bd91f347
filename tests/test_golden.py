"""Golden SHA-256 digests of report.json, events.jsonl and the tap frames.

A refactor of the simulator must not move one byte of either output, so
these digests pin the six bundled scenarios and a few inline scenarios
that reach paths no bundled one does.  The tap frames carry what the
report folds away (IP idents, checksums, TEIDs, capture times), so every
case with taps also pins each tap's ``(t_us, frame)`` list.  Update a
digest only with a change that means to alter the outputs, and say why
in CHANGES.md.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from nrusim import runner
from nrusim.runner import RunResult, run_scenario
from nrusim.scenario import load_bundled, scenario_from_dict
from nrusim.userplane import GTPU_PORT, decode_gtpu, decode_ip, encode_gtpu, encode_ip
from tests.test_engine import HeapEventLoop
from tests.test_scenario import variant

BUNDLED_DIGESTS = {
    "east_west": (
        "b100b19c60e432cc9d2f31e11607586988c452b233a3d1b94125242ec67f8ef2",
        "e5a94f1e85e8a3a124a9c942c933d4c89b6d177a07e17e7b6ed2a80d60ec8bb2",
    ),
    "north_south": (
        "4d3772dcebf2c0e97dfecdcdcd35e10c9378569137ba3c4a4e9be003145fed56",
        "fbf85038da092d373fd92fce458ff0c157a864eb221160660282cd774d424b6b",
    ),
    "test_a": (
        "499d1c9ac8cca8602a91c11bea2245a6d02d35bfd865c9e21c4fe5271f8339b3",
        "7ff3c1814c743628162dbc6487e415e778e371bc9d56acc0cb6338e43d150a5f",
    ),
    "test_b": (
        "b2a22b31cc50fa06ed14e99d6e1aa212aea15eab2421b973f962a7768528abb2",
        "338138e9cc0c5ed60a30064e01008465355e0573557468aba70e7d35e87c1666",
    ),
    "test_c": (
        "18f21920863449b31ca3adb3b54a5cbdd6e17999c1a74c01baf1a93f553f3e6a",
        "bd065d5d2771f02dc8f0a3925a3d50d1f051cd2fd38d3fa907801b708ec126f1",
    ),
    "test_d": (
        "bc81dc317562a104a3a7f71409337d5d6604934ed1c0d756b53b05f44ff293db",
        "e8d5139c23371e40d93947205f4fa776d2ddcf4355861c4060ae84a357eb8b75",
    ),
}


def _contended() -> dict:
    """Two UEs pinging east-west and to the external host under foreign bursts.

    Bursts alternate above and below the CCA threshold, so the LBT gate
    both backs off and ignores; ue2 sits on a cable, ue1 over the air.
    """
    raw = variant(name="golden_contended")
    raw["core"]["subscribers"].append({"imsi": "001010000000002"})
    raw["nodes"].append({"name": "ue2", "role": "ue", "host": "nuc-i5", "sdr": "b210",
                         "imsi": "001010000000002", "gnb": "gnb1",
                         "medium": {"kind": "cable", "length_cm": 50}})
    raw["occupancy"] = [
        {"start_us": i * 20_000, "end_us": i * 20_000 + 15_000,
         "power_dbm": -50.0 if i % 2 else -80.0}
        for i in range(200)
    ]
    raw["taps"] = ["ue:ue1", "n3:gnb1", "n6"]
    raw["traffic"] = [
        {"probe": "ping", "label": "east-west", "src": "ue1", "dst": "ue2",
         "count": 5, "interval_ms": 100},
        {"probe": "ping", "label": "north-south", "src": "ue2", "dst": "external",
         "count": 5, "interval_ms": 100},
    ]
    return raw


def _non_viable() -> dict:
    """An overloaded gNB host: bulk ticks drop on the radio, pings survive."""
    raw = variant(**{"name": "golden_non_viable", "nodes.0.host": "nuc-i5-core"})
    raw["taps"] = ["ue:ue1", "n3:gnb1"]
    raw["traffic"] = [
        {"probe": "ping", "label": "rtt", "src": "ue1", "dst": "external",
         "count": 3, "interval_ms": 100},
        {"probe": "throughput", "label": "uplink", "ue": "ue1", "direction": "UL",
         "duration_s": 2},
        {"probe": "throughput", "label": "downlink", "ue": "ue1", "direction": "DL",
         "duration_s": 2},
    ]
    return raw


def _lossy_link() -> dict:
    """The overloaded gNB host at 39.42 MHz: its link stays viable but loses
    about 0.05% of its samples, so each bulk tick delivers a rounded share."""
    raw = _non_viable()
    raw["name"] = "golden_lossy_link"
    raw["cell"]["bandwidth_mhz"] = 39.42
    del raw["taps"]
    return raw


def _sessionless() -> dict:
    """Pings to a pool address with no session: every request is a UPF drop."""
    raw = variant(**{"name": "golden_sessionless", "traffic.0.dst": "12.1.1.99"})
    raw["taps"] = ["n3:gnb1"]
    return raw


def _own_address() -> dict:
    """A UE pinging its own literal address: the UPF hairpins both legs to it."""
    raw = variant(**{"name": "golden_own_address", "traffic.0.dst": "12.1.1.2"})
    raw["taps"] = ["ue:ue1", "n3:gnb1"]
    return raw


def _long_burst() -> dict:
    """Two 1 s UL plans under one loud burst that outlasts the first plan.

    Ticks of plan ``a`` granted after the burst arrive during plan ``b``,
    so the per-plan delivered bytes (1,237,500 and 1,687,500) differ from
    an attribution of ``bulk_rx`` records by arrival time (1,125,000 and
    1,800,000): this pins the report's attribution of ticks by their
    ``bulk_tx`` times.
    """
    raw = variant(name="golden_long_burst")
    raw["occupancy"] = [{"start_us": 781_000, "end_us": 3_781_000, "power_dbm": -40.0}]
    raw["traffic"] = [
        {"probe": "throughput", "label": label, "ue": "ue1", "direction": "UL",
         "duration_s": 1}
        for label in ("a", "b")
    ]
    return raw


def _attach_failures() -> dict:
    """Three UEs that each fail attach in a different phase, and each ping.

    ue1 sits behind an off-air gNB and sweeps the whole raster (538
    steps); ue2 is unprovisioned; ue3 registers, then finds the /30 pool's
    one host already taken by a prior allocation.
    """
    raw = variant(name="golden_attach_failures")
    raw["core"]["ue_pool"] = "12.1.1.0/30"
    raw["core"]["prior_allocations"] = 1
    raw["core"]["subscribers"].append({"imsi": "001010000000003"})
    raw["nodes"].append({"name": "gnb2", "role": "gnb", "host": "precision-5820-core",
                         "sdr": "n300", "on_air": False})
    raw["nodes"][1]["gnb"] = "gnb2"
    raw["nodes"] += [
        {"name": "ue2", "role": "ue", "host": "nuc-i5", "sdr": "b210",
         "imsi": "001010000000002", "gnb": "gnb1", "unprovisioned": True,
         "medium": {"kind": "cable", "length_cm": 50}},
        {"name": "ue3", "role": "ue", "host": "nuc-i5", "sdr": "b210",
         "imsi": "001010000000003", "gnb": "gnb1",
         "medium": {"kind": "over_air", "distance_m": 2.0}},
    ]
    raw["taps"] = ["ue:ue3", "n3:gnb1"]
    raw["traffic"] = [
        {"probe": "ping", "label": f"from-{ue}", "src": ue, "dst": "core-gateway",
         "count": 2, "interval_ms": 100}
        for ue in ("ue1", "ue2", "ue3")
    ]
    return raw


INLINE_CASES = {
    "contended": (
        _contended,
        "84b29da1ba4fa2ba87ae88973e04f18c54c77a930542e08b60ad462533baf997",
        "e1e49203d2d6dda0b446e028cdc9766930cadeaa68146661893186f297807f80",
    ),
    "non_viable": (
        _non_viable,
        "76209787b29ce7e9fbc973778373cab2e73e148addc5da2db4534e67b2191bdc",
        "378d9b4411090e22585f5e504cb50dd2912175058283fb537bf24c94902370c9",
    ),
    "lossy_link": (
        _lossy_link,
        "72be137a7b40b573f3bb47f91677c1dc15599d0d5a0b308abff45d5f47df7327",
        "29293e915f2433914765f03b7dc77e4260ea085576fe922e94d552f72ce272a4",
    ),
    "sessionless": (
        _sessionless,
        "a7d936b2bcf4d1c5abd8eddbacdafbd912b332f915f36450979ea172d4fdfa3a",
        "3193450ed7ce480b459bfdf854bb823572f8bae95296dcdf1bd326003916a217",
    ),
    "own_address": (
        _own_address,
        "fb4467629cfe42a4505dc52fb61779066a2f106fbc3ed27edf8415cb2bfa0812",
        "a71282f8ce185aae9ca0ae51882d44a2ce544d651b7750a92755cd815dcdaca3",
    ),
    "long_burst": (
        _long_burst,
        "1dc9101076ad9e3604ee7fb87669344f2bdda3c076e60a3a27a8f9c62128a029",
        "356802a0c6bd1f7561633d9f8bd8d02940f87a524c196aac3ff1d2c32c6bd4e8",
    ),
    "attach_failures": (
        _attach_failures,
        "9fc9fc9fd9365813f35e7febde45045f662cadd99d4607d49108b4389941d3fa",
        "665b73957a4ef9e16ae0cec924d4c4c2e7be38e36a21e0e7c6d0751275b922d5",
    ),
}


# Per tap, the SHA-256 of its frames as written by ``_tap_digest``.  east_west
# taps no N3 side; its idents moved when every gNB stop began to draw one
# (``TAP_PROJECTIONS`` holds what the change left alone).
TAP_DIGESTS = {
    "east_west": {
        "ue:ue1": "6eaedeb32f88eef8e20f6ab4a4dfd36716a3df17f38b5a6e857b62a6e7351049",
        "ue:ue2": "1137cd40a809725b3ec097f55e5d5ca21ee021c26efb0306344e6de6acf9bcae",
    },
    "north_south": {
        "n3:gnb1": "eda0495e1b832070911784950784ebbca0d1a723054e68d2a150ee055d7892bd",
        "n6": "95130fdea7406496f65f33722a3b7a9c7382588b372a793f9f04aab4ebbde41a",
        "ue:ue1": "eea0b2e884d98ff9c0950d986175d1099af1692cab9eb3089b375f1b955ab084",
    },
    "contended": {
        "n3:gnb1": "194bfa2a0d01b124929445bf6153d9f8ebeeda212c8c2ba6d078940a40a23e7c",
        "n6": "40b985ba2fb5d6de2baec2fae4639df335c4ae8c12d1f4cba32e7614a1db53c2",
        "ue:ue1": "f83d61bf8a051a39131d61b1ddb4d71293b1e780b40eef2a1059925e9121a634",
    },
    "non_viable": {
        "n3:gnb1": "1213bb1fa028656fb9ed927305672db2d081870b340c08cb4b3271efe9e70b7a",
        "ue:ue1": "4b6e560b79fd4a1c6f6eebc94658be93e952d9db379796708de9c3a56cc0469d",
    },
    "sessionless": {
        "n3:gnb1": "3839cd5f2557bd7194f1b09db2d7073194275ece72cf6153ec4bb44f862166c6",
    },
    "own_address": {
        "n3:gnb1": "37a6ccacff5a76197db952b6946f57bc155f202f31cdfa059f7afaff74bbec81",
        "ue:ue1": "b87b012e577c415e5e0a2bbd47f5284d98d6ea4a1b121e91ccc5c9cee3ae0a50",
    },
    # Nothing attaches far enough to send: both taps stay empty.
    "attach_failures": {
        "n3:gnb1": hashlib.sha256().hexdigest(),
        "ue:ue3": hashlib.sha256().hexdigest(),
    },
}


def _tap_digest(frames) -> str:
    digest = hashlib.sha256()
    for t_us, frame in frames:
        digest.update(b"%d:%d:" % (t_us, len(frame)))
        digest.update(frame)
    return digest.hexdigest()


def _digests(result: RunResult) -> tuple[str, str]:
    return (
        hashlib.sha256(result.report_json().encode("utf-8")).hexdigest(),
        hashlib.sha256(result.events_jsonl().encode("utf-8")).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS))
def test_bundled_outputs_keep_their_bytes(bundled_results, name):
    assert _digests(bundled_results[name]) == BUNDLED_DIGESTS[name]


@functools.lru_cache(maxsize=None)
def _inline_result(name: str) -> RunResult:
    return run_scenario(scenario_from_dict(INLINE_CASES[name][0]()))


@pytest.mark.parametrize("name", sorted(INLINE_CASES))
def test_inline_outputs_keep_their_bytes(name):
    _build, report_digest, events_digest = INLINE_CASES[name]
    assert _digests(_inline_result(name)) == (report_digest, events_digest)


@pytest.mark.parametrize("name", sorted(TAP_DIGESTS))
def test_tap_frames_keep_their_bytes(bundled_results, name):
    result = bundled_results[name] if name in BUNDLED_DIGESTS else _inline_result(name)
    assert {tap: _tap_digest(result.frames(tap)) for tap in result.taps} == TAP_DIGESTS[name]


# Per tap, the ``_tap_digest`` of its frames with every IPv4 ident zeroed and the
# checksums recomputed, as the run made them before every gNB stop drew an
# ident: the ident policy may move idents and checksums, and nothing else.
TAP_PROJECTIONS = {
    "attach_failures": {
        "n3:gnb1": hashlib.sha256().hexdigest(),
        "ue:ue3": hashlib.sha256().hexdigest(),
    },
    "contended": {
        "n3:gnb1": "7fb7b72bc8274a75ef6409aa8ac5464366f71efd49e9e1b0742245fa14a26686",
        "n6": "16854bd282f718afa8e278a5825335c798278a9e906633193fb0e022fa69f94a",
        "ue:ue1": "304a72ea3c8f36ce4b8e4a1c5101a56eb593fc99f914eebdc56ee75b00f263de",
    },
    "east_west": {
        "ue:ue1": "f0f7fc62ad06f80728848d1236104d0712202627db65335034751df77214ede9",
        "ue:ue2": "c2f58a14d2dba817c59dc09292e476fe5608410e26fa0c6ab6e0f47a282e8bee",
    },
    "non_viable": {
        "n3:gnb1": "caa0a659c0b8bf9371920d6b42c6b3aead485a821c4fa790e656647b285b719d",
        "ue:ue1": "6c97d0dcf8020203341474819ab5d6c3c51a92161bcd2cb14cd92815955e2998",
    },
    "north_south": {
        "n3:gnb1": "7aed8298f5afc9e1d8a38a8c306f7e2ff18f1b52082083296dae07c086e0d501",
        "n6": "8449e8f62c56027e7ec0dfdbdc22dd8ba4c214f7e3157820303c8dc1cbd5ac81",
        "ue:ue1": "2bf4a96106ea64d7ef0ab79752bcbf92a014069f846c9525d55fe518c372ee1b",
    },
    "own_address": {
        "n3:gnb1": "388d0df4d70180e355748c3caaf0f23b3001f63bede41a64fdcb5f88e37af624",
        "ue:ue1": "c268904040ba644bb8a6ca0494f5c47191a55de7eb8c78404ee32e20513a9eac",
    },
    "sessionless": {
        "n3:gnb1": "df8e006751c7277590e8129c67fda12e49d5a14ace608d3a3eb2a74f09b7608a",
    },
}


def _zero_idents(frame: bytes) -> bytes:
    """``frame`` with its IPv4 ident, and a GTP-U inner packet's, set to 0."""
    pkt = decode_ip(frame)
    if pkt.protocol == "UDP" and pkt.dport == GTPU_PORT:
        teid, inner = decode_gtpu(pkt.payload)
        pkt = pkt._replace(payload=encode_gtpu(teid, _zero_idents(inner)))
    return encode_ip(pkt._replace(ident=0))


@pytest.mark.parametrize("name", sorted(TAP_PROJECTIONS))
def test_tap_frames_without_their_idents_keep_their_bytes(bundled_results, name):
    assert sorted(TAP_PROJECTIONS) == sorted(TAP_DIGESTS)
    result = bundled_results[name] if name in BUNDLED_DIGESTS else _inline_result(name)
    frames = {tap: [(t_us, _zero_idents(frame)) for t_us, frame in result.frames(tap)]
              for tap in result.taps}
    assert {tap: _tap_digest(frames[tap]) for tap in frames} == TAP_PROJECTIONS[name]


def _dumps_per_record(records) -> str:
    """Reference: the log as it was written with one ``json.dumps`` call per record."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS) + sorted(INLINE_CASES))
def test_every_logged_record_is_its_own_dict(bundled_results, name):
    """``EventLog.append`` keeps the caller's dict, so no call site may log one twice."""
    result = bundled_results[name] if name in BUNDLED_DIGESTS else _inline_result(name)
    records = result.log.records
    assert records and all(type(record) is dict for record in records)
    assert len({id(record) for record in records}) == len(records)


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS) + sorted(INLINE_CASES))
def test_report_json_is_json_dumps_indented(bundled_results, name):
    result = bundled_results[name] if name in BUNDLED_DIGESTS else _inline_result(name)
    assert result.report_json() == json.dumps(result.report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS) + sorted(INLINE_CASES))
def test_shared_encoder_writes_the_same_log(bundled_results, name):
    result = bundled_results[name] if name in BUNDLED_DIGESTS else _inline_result(name)
    assert result.log.records
    assert result.log.to_jsonl() == _dumps_per_record(result.log.records)


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS) + sorted(INLINE_CASES))
def test_every_logged_record_lists_its_keys_in_sorted_order(bundled_results, name):
    result = bundled_results[name] if name in BUNDLED_DIGESTS else _inline_result(name)
    assert result.log.records
    assert all(list(record) == sorted(record) for record in result.log.records)


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS) + sorted(INLINE_CASES))
def test_heap_only_loop_writes_the_same_outputs(bundled_results, name, monkeypatch):
    """The sorted run beside the heap against the heap-only loop it replaced."""
    if name in BUNDLED_DIGESTS:
        result, scenario = bundled_results[name], load_bundled(name)
    else:
        result, scenario = _inline_result(name), scenario_from_dict(INLINE_CASES[name][0]())
    loops = []
    monkeypatch.setattr(runner, "EventLoop", lambda: loops.append(HeapEventLoop()) or loops[-1])
    oracle = run_scenario(scenario)
    assert len(loops) == 1
    assert oracle.events_jsonl() == result.events_jsonl()
    assert oracle.report_json() == result.report_json()
    assert {tap: oracle.frames(tap) for tap in oracle.taps} == {
        tap: result.frames(tap) for tap in result.taps}
