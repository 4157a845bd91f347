"""Golden SHA-256 digests of report.json and events.jsonl.

A refactor of the simulator must not move one byte of either output, so
these digests pin the six bundled scenarios and a few inline scenarios
that reach paths no bundled one does.  Update a digest only with a change
that means to alter the outputs, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from nrusim.runner import RunResult, run_scenario
from nrusim.scenario import scenario_from_dict
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


def _sessionless() -> dict:
    """Pings to a pool address with no session: every request is a UPF drop."""
    raw = variant(**{"name": "golden_sessionless", "traffic.0.dst": "12.1.1.99"})
    raw["taps"] = ["n3:gnb1"]
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
    "sessionless": (
        _sessionless,
        "a7d936b2bcf4d1c5abd8eddbacdafbd912b332f915f36450979ea172d4fdfa3a",
        "3193450ed7ce480b459bfdf854bb823572f8bae95296dcdf1bd326003916a217",
    ),
}


def _digests(result: RunResult) -> tuple[str, str]:
    return (
        hashlib.sha256(result.report_json().encode("utf-8")).hexdigest(),
        hashlib.sha256(result.events_jsonl().encode("utf-8")).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS))
def test_bundled_outputs_keep_their_bytes(bundled_results, name):
    assert _digests(bundled_results[name]) == BUNDLED_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(INLINE_CASES))
def test_inline_outputs_keep_their_bytes(name):
    build, report_digest, events_digest = INLINE_CASES[name]
    result = run_scenario(scenario_from_dict(build()))
    assert _digests(result) == (report_digest, events_digest)
