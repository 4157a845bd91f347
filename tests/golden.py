"""Every golden case and every byte pin of its outputs, in one table.

``CASES`` holds the six bundled scenarios and inline scenarios that reach
paths no bundled one does.  Each entry pins ``report.json`` and
``events.jsonl`` and, since the tap frames carry what the report folds
away (IP idents, checksums, TEIDs, capture times), each tap's
``(t_us, frame)`` list.  A bundled case's file pins are the benchmark's,
read from ``perfbench/digests.json``, and ``GENERATED`` holds the
generated workloads' section pins from ``perfbench/reference.json``;
``perfbench/record.py`` re-records both.  Every other pin is written here.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path
from random import Random
from typing import Callable, NamedTuple

from nrusim.access import LbtConfig
from nrusim.runner import RunResult, run_scenario
from nrusim.scenario import load_bundled, scenario_from_dict
from tests.test_scenario import variant

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))  # workloads imports its sibling generators by name

import workloads  # noqa: E402


def _perfbench_json(name: str) -> dict:
    return json.loads((PERFBENCH / name).read_text(encoding="utf-8"))


class Case(NamedTuple):
    """One golden case: how to build its scenario and the SHA-256 pins of its outputs."""

    build: Callable[[], dict] | None  # the inline scenario mapping; None for a bundled one
    files: dict[str, str]  # report.json and events.jsonl, keyed as in digests.json
    taps: dict[str, str] = {}  # per tap, ``tap_digest`` of its frames
    # Per tap, ``tap_digest`` of its frames with every IPv4 ident zeroed and the
    # checksums recomputed, as the run made them before every gNB stop drew an
    # ident: the ident policy may move idents and checksums, and nothing else.
    projections: dict[str, str] = {}


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


def _bulk_lbt_draws() -> dict:
    """ue1 saturates UL, then DL, then pings the gateway, under 400 short foreign bursts.

    The bursts' powers straddle the CCA threshold, so the LBT gate both
    backs off and ignores.  The bulk ticks draw their backoff from the
    link's LBT substream, which the later pings share, so the pings' and
    the ticks' times pin how many draws the ticks took and from where.
    """
    raw = variant(name="golden_bulk_lbt_draws")
    rng = Random("golden_bulk_lbt_draws")
    threshold = LbtConfig._field_defaults["cca_threshold_dbm"]
    raw["occupancy"] = []
    for _ in range(400):
        start = rng.randrange(9_000_000)
        raw["occupancy"].append({"start_us": start, "end_us": start + rng.randint(100, 2000),
                                 "power_dbm": round(threshold + rng.uniform(-12.0, 12.0), 1)})
    raw["taps"] = ["n3:gnb1"]
    raw["traffic"] = [
        {"probe": "throughput", "label": "uplink", "ue": "ue1", "direction": "UL",
         "duration_s": 2},
        {"probe": "throughput", "label": "downlink", "ue": "ue1", "direction": "DL",
         "duration_s": 2},
        {"probe": "ping", "label": "rtt", "src": "ue1", "dst": "core-gateway",
         "count": 10, "interval_ms": 100},
    ]
    return raw


RECORDED = _perfbench_json("digests.json")
EMPTY = hashlib.sha256().hexdigest()


def _bundled(name: str, **tap_pins: dict[str, str]) -> Case:
    return Case(None, RECORDED.get(name, {}), **tap_pins)


CASES = {
    # east_west taps no N3 side; its idents moved when every gNB stop began to
    # draw one (its projections hold what that change left alone).
    "east_west": _bundled(
        "east_west",
        taps={"ue:ue1": "6eaedeb32f88eef8e20f6ab4a4dfd36716a3df17f38b5a6e857b62a6e7351049",
              "ue:ue2": "1137cd40a809725b3ec097f55e5d5ca21ee021c26efb0306344e6de6acf9bcae"},
        projections={
            "ue:ue1": "f0f7fc62ad06f80728848d1236104d0712202627db65335034751df77214ede9",
            "ue:ue2": "c2f58a14d2dba817c59dc09292e476fe5608410e26fa0c6ab6e0f47a282e8bee"},
    ),
    "north_south": _bundled(
        "north_south",
        taps={"n3:gnb1": "eda0495e1b832070911784950784ebbca0d1a723054e68d2a150ee055d7892bd",
              "n6": "95130fdea7406496f65f33722a3b7a9c7382588b372a793f9f04aab4ebbde41a",
              "ue:ue1": "eea0b2e884d98ff9c0950d986175d1099af1692cab9eb3089b375f1b955ab084"},
        projections={
            "n3:gnb1": "7aed8298f5afc9e1d8a38a8c306f7e2ff18f1b52082083296dae07c086e0d501",
            "n6": "8449e8f62c56027e7ec0dfdbdc22dd8ba4c214f7e3157820303c8dc1cbd5ac81",
            "ue:ue1": "2bf4a96106ea64d7ef0ab79752bcbf92a014069f846c9525d55fe518c372ee1b"},
    ),
    "test_a": _bundled("test_a"),
    "test_b": _bundled("test_b"),
    "test_c": _bundled("test_c"),
    "test_d": _bundled("test_d"),
    "contended": Case(
        _contended,
        {"report.json": "84b29da1ba4fa2ba87ae88973e04f18c54c77a930542e08b60ad462533baf997",
         "events.jsonl": "e1e49203d2d6dda0b446e028cdc9766930cadeaa68146661893186f297807f80"},
        taps={"n3:gnb1": "194bfa2a0d01b124929445bf6153d9f8ebeeda212c8c2ba6d078940a40a23e7c",
              "n6": "40b985ba2fb5d6de2baec2fae4639df335c4ae8c12d1f4cba32e7614a1db53c2",
              "ue:ue1": "f83d61bf8a051a39131d61b1ddb4d71293b1e780b40eef2a1059925e9121a634"},
        projections={
            "n3:gnb1": "7fb7b72bc8274a75ef6409aa8ac5464366f71efd49e9e1b0742245fa14a26686",
            "n6": "16854bd282f718afa8e278a5825335c798278a9e906633193fb0e022fa69f94a",
            "ue:ue1": "304a72ea3c8f36ce4b8e4a1c5101a56eb593fc99f914eebdc56ee75b00f263de"},
    ),
    "non_viable": Case(
        _non_viable,
        {"report.json": "76209787b29ce7e9fbc973778373cab2e73e148addc5da2db4534e67b2191bdc",
         "events.jsonl": "378d9b4411090e22585f5e504cb50dd2912175058283fb537bf24c94902370c9"},
        taps={"n3:gnb1": "1213bb1fa028656fb9ed927305672db2d081870b340c08cb4b3271efe9e70b7a",
              "ue:ue1": "4b6e560b79fd4a1c6f6eebc94658be93e952d9db379796708de9c3a56cc0469d"},
        projections={
            "n3:gnb1": "caa0a659c0b8bf9371920d6b42c6b3aead485a821c4fa790e656647b285b719d",
            "ue:ue1": "6c97d0dcf8020203341474819ab5d6c3c51a92161bcd2cb14cd92815955e2998"},
    ),
    "lossy_link": Case(
        _lossy_link,
        {"report.json": "72be137a7b40b573f3bb47f91677c1dc15599d0d5a0b308abff45d5f47df7327",
         "events.jsonl": "29293e915f2433914765f03b7dc77e4260ea085576fe922e94d552f72ce272a4"},
    ),
    "sessionless": Case(
        _sessionless,
        {"report.json": "a7d936b2bcf4d1c5abd8eddbacdafbd912b332f915f36450979ea172d4fdfa3a",
         "events.jsonl": "3193450ed7ce480b459bfdf854bb823572f8bae95296dcdf1bd326003916a217"},
        taps={"n3:gnb1": "3839cd5f2557bd7194f1b09db2d7073194275ece72cf6153ec4bb44f862166c6"},
        projections={
            "n3:gnb1": "df8e006751c7277590e8129c67fda12e49d5a14ace608d3a3eb2a74f09b7608a"},
    ),
    "own_address": Case(
        _own_address,
        {"report.json": "fb4467629cfe42a4505dc52fb61779066a2f106fbc3ed27edf8415cb2bfa0812",
         "events.jsonl": "a71282f8ce185aae9ca0ae51882d44a2ce544d651b7750a92755cd815dcdaca3"},
        taps={"n3:gnb1": "37a6ccacff5a76197db952b6946f57bc155f202f31cdfa059f7afaff74bbec81",
              "ue:ue1": "b87b012e577c415e5e0a2bbd47f5284d98d6ea4a1b121e91ccc5c9cee3ae0a50"},
        projections={
            "n3:gnb1": "388d0df4d70180e355748c3caaf0f23b3001f63bede41a64fdcb5f88e37af624",
            "ue:ue1": "c268904040ba644bb8a6ca0494f5c47191a55de7eb8c78404ee32e20513a9eac"},
    ),
    "long_burst": Case(
        _long_burst,
        {"report.json": "1dc9101076ad9e3604ee7fb87669344f2bdda3c076e60a3a27a8f9c62128a029",
         "events.jsonl": "356802a0c6bd1f7561633d9f8bd8d02940f87a524c196aac3ff1d2c32c6bd4e8"},
    ),
    # Nothing attaches far enough to send: both taps stay empty.
    "attach_failures": Case(
        _attach_failures,
        {"report.json": "9fc9fc9fd9365813f35e7febde45045f662cadd99d4607d49108b4389941d3fa",
         "events.jsonl": "665b73957a4ef9e16ae0cec924d4c4c2e7be38e36a21e0e7c6d0751275b922d5"},
        taps={"n3:gnb1": EMPTY, "ue:ue3": EMPTY},
        projections={"n3:gnb1": EMPTY, "ue:ue3": EMPTY},
    ),
    "bulk_lbt_draws": Case(
        _bulk_lbt_draws,
        {"report.json": "0d120fd490eda60fbc13ff71fbeb0ea1cc8582e147f7b0f30dc5002e3baeec85",
         "events.jsonl": "f2a1692b355b64519eba97e168ce4e69f14b403d74eb7aaa45a31cccdb7972b4"},
        taps={"n3:gnb1": "e0c59b5ca624f658daf8d9d11fd34ae287c99c3fc2b9bb2a2db95c05d3044323"},
        projections={
            "n3:gnb1": "215ed20d154b8da576a3df484f06a158ee13c3595251d7107eed2266b4e1f11f"},
    ),
}

BUNDLED_CASES = sorted(name for name, case in CASES.items() if case.build is None)
INLINE_CASES = sorted(name for name, case in CASES.items() if case.build is not None)
GOLDEN_CASES = BUNDLED_CASES + INLINE_CASES
TAPPED_CASES = sorted(name for name, case in CASES.items() if case.taps)


def golden_scenario(name: str):
    build = CASES[name].build
    return load_bundled(name) if build is None else scenario_from_dict(build())


@functools.lru_cache(maxsize=None)
def _inline_result(name: str) -> RunResult:
    return run_scenario(golden_scenario(name))


def golden_result(bundled_results, name: str) -> RunResult:
    """The run of case ``name``: a bundled one from the ``bundled_results`` fixture,
    which alone runs and times them, an inline one run once and cached."""
    return bundled_results[name] if CASES[name].build is None else _inline_result(name)


def tap_digest(frames) -> str:
    """The pin of one tap's ``(t_us, frame)`` list."""
    digest = hashlib.sha256()
    for t_us, frame in frames:
        digest.update(b"%d:%d:" % (t_us, len(frame)))
        digest.update(frame)
    return digest.hexdigest()


def file_digests(result: RunResult) -> dict[str, str]:
    """The ``files`` pins of a run, as ``perfbench/record.py`` records them."""
    return {"report.json": hashlib.sha256(result.report_json().encode("utf-8")).hexdigest(),
            "events.jsonl": hashlib.sha256(result.events_jsonl().encode("utf-8")).hexdigest()}


# workload -> seed -> SHA-256 of the seed's report sections (``workloads.sections_digest``)
GENERATED = _perfbench_json("reference.json")
GENERATORS = {cls.name: cls.generator for cls in (workloads.PingFleet, workloads.ContendedBulk)}
