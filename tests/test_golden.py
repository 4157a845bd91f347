"""The golden cases, and the generated workloads' recorded seeds, keep the bytes
``tests/golden.py`` pins.  Update a pin only with a change that means to alter
the outputs, and say why in CHANGES.md."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from nrusim import runner
from nrusim.pcapio import read_pcap
from nrusim.runner import run_scenario
from nrusim.scenario import (BUNDLED, bundled_scenario_path, load_scenario, scenario_from_dict,
                             tap_file_name)
from nrusim.userplane import GTPU_PORT, decode_gtpu, decode_ip, encode_gtpu, encode_ip
from tests.golden import (BUNDLED_CASES, CASES, GENERATED, GENERATORS, GOLDEN_CASES,
                          INLINE_CASES, RECORDED, TAPPED_CASES, file_digests, golden_result,
                          golden_scenario, tap_digest, workloads)
from tests.test_engine import HeapEventLoop

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("name", BUNDLED_CASES)
def test_bundled_outputs_keep_their_bytes(bundled_results, name):
    assert file_digests(bundled_results[name]) == CASES[name].files


@pytest.mark.parametrize("name", INLINE_CASES)
def test_inline_outputs_keep_their_bytes(bundled_results, name):
    assert file_digests(golden_result(bundled_results, name)) == CASES[name].files


@pytest.mark.parametrize("name", TAPPED_CASES)
def test_tap_frames_keep_their_bytes(bundled_results, name):
    result = golden_result(bundled_results, name)
    assert {tap: tap_digest(result.frames(tap)) for tap in result.taps} == CASES[name].taps


def _zero_idents(frame: bytes) -> bytes:
    """``frame`` with its IPv4 ident, and a GTP-U inner packet's, set to 0."""
    pkt = decode_ip(frame)
    if pkt.protocol == "UDP" and pkt.dport == GTPU_PORT:
        teid, inner = decode_gtpu(pkt.payload)
        pkt = pkt._replace(payload=encode_gtpu(teid, _zero_idents(inner)))
    return encode_ip(pkt._replace(ident=0))


@pytest.mark.parametrize("name", TAPPED_CASES)
def test_tap_frames_without_their_idents_keep_their_bytes(bundled_results, name):
    result = golden_result(bundled_results, name)
    frames = {tap: [(t_us, _zero_idents(frame)) for t_us, frame in result.frames(tap)]
              for tap in result.taps}
    assert {tap: tap_digest(frames[tap]) for tap in frames} == CASES[name].projections


@pytest.mark.parametrize("workload, seed", [(workload, int(seed)) for workload in sorted(GENERATED)
                                            for seed in sorted(GENERATED[workload], key=int)])
def test_generated_sections_keep_their_bytes(workload, seed):
    report = run_scenario(scenario_from_dict(GENERATORS[workload](seed))).report
    assert workloads.sections_digest(report) == GENERATED[workload][str(seed)]


def test_runs_under_two_string_hash_seeds_write_the_pinned_bytes(tmp_path):
    """Each pytest session draws its own string-hash seed, so the pins above catch an
    output that follows ``str`` hash order only by chance.  These runs fix two seeds.

    north_south exports three taps; test_a runs bulk plans, whose throughput rows the
    report folds from the log's ``bulk_tx`` records.
    """
    runs = {"north_south": ["--pcap"], "test_a": []}
    written = {}
    for seed in ("1", "2"):
        for name, flags in runs.items():
            out = tmp_path / seed / name
            subprocess.run([sys.executable, "-m", "nrusim.cli", "run",
                            str(bundled_scenario_path(name)), "--out", str(out), *flags],
                           capture_output=True, timeout=120, check=True,
                           env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed})
            written[seed, name] = {path.name: path.read_bytes() for path in out.iterdir()}
    for name in runs:
        files = written["1", name]
        assert files == written["2", name], name
        assert {file: hashlib.sha256(files[file]).hexdigest()
                for file in CASES[name].files} == CASES[name].files
    out = tmp_path / "1" / "north_south"
    assert sorted(file for file in written["1", "north_south"] if file.endswith(".pcap")) == \
        sorted(tap_file_name(tap) for tap in CASES["north_south"].taps)
    assert {tap: tap_digest(read_pcap(out / tap_file_name(tap)))
            for tap in CASES["north_south"].taps} == CASES["north_south"].taps


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_a_generated_scenario_read_from_yaml_writes_the_same_outputs(tmp_path, workload):
    """The benchmark hands its generated scenarios to the loader as mappings; read one
    as a file too.  Its text is hundreds of kB, so ``load_scenario`` first walks its
    nesting depth, which it skips for a text of 2,048 characters or fewer, as every
    bundled file is."""
    raw = GENERATORS[workload](0)
    path = tmp_path / f"{workload}.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    from_file = run_scenario(load_scenario(path))
    from_dict = run_scenario(scenario_from_dict(raw))
    assert from_file.report_json() == from_dict.report_json()
    assert from_file.events_jsonl() == from_dict.events_jsonl()


def test_every_pin_source_is_complete():
    """A missing entry would drop a parametrised case silently, so fail on one here."""
    assert BUNDLED_CASES == sorted(BUNDLED) == sorted(RECORDED)
    for name in BUNDLED_CASES:
        assert sorted(CASES[name].files) == ["events.jsonl", "report.json"], name
    assert {workload: sorted(seeds, key=int) for workload, seeds in GENERATED.items()} == {
        workload: [str(seed) for seed in range(64)] for workload in ("contended_bulk", "ping_fleet")}
    assert TAPPED_CASES == [name for name in sorted(CASES) if golden_scenario(name).taps]


def _dumps_per_record(records) -> str:
    """Reference: the log as it was written with one ``json.dumps`` call per record."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_every_logged_record_is_its_own_dict(bundled_results, name):
    """``EventLog.append`` keeps the caller's dict, so no call site may log one twice."""
    records = golden_result(bundled_results, name).log.records
    assert records and all(type(record) is dict for record in records)
    assert len({id(record) for record in records}) == len(records)


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_report_json_is_json_dumps_indented(bundled_results, name):
    result = golden_result(bundled_results, name)
    assert result.report_json() == json.dumps(result.report, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_shared_encoder_writes_the_same_log(bundled_results, name):
    result = golden_result(bundled_results, name)
    assert result.log.records
    assert result.log.to_jsonl() == _dumps_per_record(result.log.records)


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_every_logged_record_lists_its_keys_in_sorted_order(bundled_results, name):
    result = golden_result(bundled_results, name)
    assert result.log.records
    assert all(list(record) == sorted(record) for record in result.log.records)


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_heap_only_loop_writes_the_same_outputs(bundled_results, name, monkeypatch):
    """The sorted run beside the heap against the heap-only loop it replaced."""
    result, scenario = golden_result(bundled_results, name), golden_scenario(name)
    loops = []
    monkeypatch.setattr(runner, "EventLoop", lambda: loops.append(HeapEventLoop()) or loops[-1])
    oracle = run_scenario(scenario)
    assert len(loops) == 1
    assert oracle.events_jsonl() == result.events_jsonl()
    assert oracle.report_json() == result.report_json()
    assert {tap: oracle.frames(tap) for tap in oracle.taps} == {
        tap: result.frames(tap) for tap in result.taps}
