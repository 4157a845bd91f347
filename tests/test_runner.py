import copy
import json
import statistics
import struct
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrusim import access, runner
from nrusim.calibration import load_calibration
from nrusim.engine import EventLog, EventLoop
from nrusim.errors import CodecError, ConfigError, InvariantBreach
from nrusim.metrics import ping_ident, ping_stats
from nrusim.network import SimNetwork
from nrusim.pcapio import read_pcap, write_pcap
from nrusim.runner import (
    RunResult,
    compare_reports,
    extract_metric,
    parse_expectation,
    run_scenario,
    write_outputs,
)
from nrusim.scenario import BUNDLED, PingPlan, load_bundled, scenario_from_dict
from nrusim.userplane import ICMP_ECHO_REPLY, ICMP_ECHO_REQUEST, decode_ip
from tests.golden import GENERATORS, GOLDEN_CASES, golden_result, golden_scenario
from tests.reference_network import multi_pass_report
from tests.test_cli import _ethernet_echo_pcap
from tests.test_scenario import variant


class TestRunBasics:
    def test_minimal_run_produces_complete_report(self):
        result = run_scenario(scenario_from_dict(variant()))
        report = result.report
        assert report["schema"] == 1
        assert report["attach"][0]["ip"] == "12.1.1.2"
        assert report["pings"][0]["received"] == 5
        assert report["event_count"] == len(result.log)

    def test_every_report_number_recomputable_from_the_log(self, bundled_results):
        """Every ping row of the six bundled reports, and every attach row's scan_steps
        there and in the attach_failures golden case, from the events.jsonl text alone."""
        results = {name: bundled_results[name] for name in BUNDLED}
        results["attach_failures"] = golden_result(bundled_results, "attach_failures")
        step_us = load_calibration().scan_step_us
        rows = 0
        no_cell_steps = []
        for name, result in results.items():
            sent, sent_at, rtts = Counter(), {}, {}
            scanning_us, scan_steps = {}, {}
            for line in result.events_jsonl().splitlines():
                record = json.loads(line)
                key = (record["actor"], record.get("ident"), record.get("seq"))
                if record["action"] == "attach_phase" and record["phase"] == "SCANNING":
                    scanning_us[record["actor"]] = record["t_us"]
                elif record["action"] == "attach_phase" and record["phase"] == "SYNCED":
                    scan_steps[record["actor"]] = record["scan_steps"]
                elif record["action"] == "attach_failed" and record["actor"] not in scan_steps:
                    # No cell found: the UE fails when its sweep of the raster ends.
                    steps = (record["t_us"] - scanning_us[record["actor"]]) // step_us
                    scan_steps[record["actor"]] = steps
                    no_cell_steps.append(steps)
                elif record["action"] == "ping_tx":
                    sent[record["ident"]] += 1
                    sent_at[key] = record["t_us"]
                elif record["action"] == "rtt_sample" and key in sent_at:
                    rtt = (record["t_us"] - sent_at.pop(key)) / 1000
                    rtts.setdefault(record["ident"], []).append(rtt)
            assert {row["ue"]: row["scan_steps"] for row in result.report["attach"]} == (
                scan_steps), name
            if name not in BUNDLED:  # no attach_failures UE has an address to send pings from
                continue
            idents = [ping_ident(index) for index, plan in enumerate(result.scenario.traffic)
                      if isinstance(plan, PingPlan)]
            assert len(idents) == len(result.report["pings"])
            for ident, row in zip(idents, result.report["pings"]):
                got = rtts.get(ident, [])
                assert (row["sent"], row["received"]) == (sent[ident], len(got)), name
                if got:
                    avg = statistics.fmean(got)
                    mdev = statistics.fmean(abs(r - avg) for r in got)
                    assert (row["min_ms"], row["avg_ms"], row["max_ms"], row["mdev_ms"]) == (
                        round(min(got), 3), round(avg, 3), round(max(got), 3), round(mdev, 3)
                    ), name
                    rows += 1
        assert rows >= len(BUNDLED)
        assert no_cell_steps == [538]

    def test_zero_counts_and_durations_report_zero_rows(self):
        raw = variant(**{"traffic.0.count": 0, "traffic.0.interval_ms": 0})
        raw["traffic"].append({"probe": "throughput", "ue": "ue1", "direction": "UL",
                               "duration_s": 0})
        report = run_scenario(scenario_from_dict(raw)).report
        assert (report["pings"][0]["sent"], report["pings"][0]["received"]) == (0, 0)
        assert report["throughput"][0]["delivered_bytes"] == 0

    def test_throughput_totals_recomputable_from_the_log(self, bundled_results):
        result = bundled_results["test_a"]
        for row in result.report["throughput"]:
            logged = sum(r["size"] for r in result.log.records
                         if r["action"] == "bulk_rx" and r["direction"] == row["direction"])
            assert logged == row["delivered_bytes"]

    def test_unprovisioned_ue_reports_attach_failure(self):
        raw = variant(**{"nodes.1.imsi": "001010000000009"})
        raw["nodes"][1]["unprovisioned"] = True
        report = run_scenario(scenario_from_dict(raw)).report
        row = report["attach"][0]
        assert row["phase"] == "SYNCED"
        assert row["failure"] == "unknown-subscriber"
        assert report["pings"][0]["received"] == 0

    def test_gnb_off_air_leaves_ue_scanning(self):
        raw = variant(**{"nodes.0.on_air": False})
        report = run_scenario(scenario_from_dict(raw)).report
        row = report["attach"][0]
        assert row["phase"] == "SCANNING"
        assert row["failure"] == "no-cell-found"
        assert row["scan_steps"] == 538

    def test_ping_to_sessionless_pool_address_lost(self):
        raw = variant(**{"traffic.0.dst": "12.1.1.99"})
        report = run_scenario(scenario_from_dict(raw)).report
        assert report["pings"][0]["received"] == 0
        assert report["counters"]["upf_dropped_no_session"] == 5

    def test_foreign_occupancy_delays_but_does_not_break_pings(self):
        raw = variant()
        # A foreign burst train during the whole ping window.
        raw["occupancy"] = [
            {"start_us": i * 20_000, "end_us": i * 20_000 + 15_000, "power_dbm": -50.0}
            for i in range(60)
        ]
        busy = run_scenario(scenario_from_dict(raw)).report
        quiet = run_scenario(scenario_from_dict(variant())).report
        assert busy["pings"][0]["received"] == 5
        assert busy["pings"][0]["avg_ms"] > quiet["pings"][0]["avg_ms"]

    def test_forcing_the_overloaded_host_zeroes_throughput(self):
        raw = variant()
        raw["traffic"].append({"probe": "throughput", "label": "downlink", "ue": "ue1",
                               "direction": "DL", "duration_s": 3})
        viable = run_scenario(scenario_from_dict(copy.deepcopy(raw))).report
        raw["nodes"][0]["host"] = "nuc-i5-core"
        starved = run_scenario(scenario_from_dict(raw)).report
        assert viable["throughput"][0]["peak_mbps"] > 0
        assert starved["throughput"][0]["peak_mbps"] == 0.0
        assert starved["throughput"][0]["avg_high_mbps"] == 0.0
        assert starved["link"]["ue1"]["viable"] is False
        assert starved["pings"][0]["received"] == 5  # control traffic survives


class TestPathProperties:
    def test_east_west_inner_packet_byte_exact_across_two_legs(self, bundled_results):
        result = bundled_results["east_west"]
        ue1_requests = [raw for _t, raw in result.frames("ue:ue1") if raw[20] == 8]  # ICMP type 8
        ue2_requests = [raw for _t, raw in result.frames("ue:ue2") if raw[20] == 8]
        assert ue1_requests and ue1_requests == ue2_requests

    def test_north_south_upf_is_one_to_one(self, bundled_results):
        from nrusim.userplane import decode_ip

        result = bundled_results["north_south"]
        def request_seqs(tap):
            seqs = []
            for _t, raw in result.frames(tap):
                pkt = decode_ip(raw)
                if pkt.protocol == "ICMP" and pkt.icmp_type == 8:
                    seqs.append(pkt.icmp_seq)
            return seqs

        ue_side = request_seqs("ue:ue1")
        external_side = request_seqs("n6")
        assert sorted(ue_side) == sorted(set(ue_side))  # no duplicates
        assert sorted(external_side) == sorted(ue_side)  # 1:1 through the UPF

    def test_passive_rtt_consistent_with_active_ping(self, bundled_results):
        result = bundled_results["north_south"]
        report = result.report
        samples = [r for r in result.log.records if r["action"] == "rtt_sample"]
        assert samples
        ue_sessions = report["passive"]["ue:ue1"]["sessions"]
        n6_sessions = report["passive"]["n6"]["sessions"]
        ping = report["pings"][0]
        # The UE tap sits at the measurement endpoints, so its latest RTT
        # is one of the ping samples; the core-side tap excludes the radio
        # path and must read lower than any end-to-end sample.
        assert ping["min_ms"] <= ue_sessions[0]["rtt_latest_ms"] <= ping["max_ms"]
        assert 0 < n6_sessions[0]["rtt_latest_ms"] < ping["min_ms"]


class TestSuiteTable:
    def test_four_performance_reports_render_four_rows(self, bundled_results):
        from nrusim.metrics import render_table

        reports = [bundled_results[n].report for n in ("test_a", "test_b", "test_c", "test_d")]
        table = render_table(reports)
        lines = table.splitlines()
        assert len(lines) == 2 + 4  # header + rule + one row per test
        assert lines[2].startswith("test_a")
        for report in reports:
            ping = report["pings"][0]
            assert ping["min_ms"] <= ping["avg_ms"] <= ping["max_ms"]
            assert ping["mdev_ms"] <= ping["max_ms"] - ping["min_ms"]


# What a report holds, and the corners of json.dumps's text: non-finite and
# signed-zero floats, ints past 64 bits, non-ASCII and control characters,
# empty and nested containers.
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(2**63, 2**100)
                | st.floats() | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
                | st.text() | st.sampled_from(["\x00\x1f\x7f", "é\u2028😀", '"\\/']))
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4) | st.tuples(children, children)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=40,
)


class TestOutputs:
    @pytest.mark.parametrize("make_encoder", [json.encoder.c_make_encoder, None],
                             ids=["C encoder", "no C encoder"])
    @settings(max_examples=200, deadline=None)
    @given(tree=JSON_TREES)
    def test_report_json_is_json_dumps_indented(self, make_encoder, tree):
        assert json.encoder.c_make_encoder is not None  # the C accelerator is built
        with mock.patch.object(json.encoder, "c_make_encoder", make_encoder):
            text = RunResult(None, tree, None, {}).report_json()
        assert text == json.dumps(tree, sort_keys=True, indent=2) + "\n"

    def test_write_outputs_and_pcap_round_trip(self, tmp_path):
        raw = variant()
        raw["taps"] = ["ue:ue1"]
        result = run_scenario(scenario_from_dict(raw))
        out = write_outputs(result, tmp_path / "run", pcap=True)
        report = json.loads((out / "report.json").read_text())
        assert report["scenario"] == "unit"
        assert (out / "events.jsonl").read_text().count("\n") == report["event_count"]
        frames = read_pcap(out / "tap_ue_ue1.pcap")
        assert len(frames) == len(result.taps["ue:ue1"])

    def test_pcap_writer_reader_identity(self, tmp_path):
        packets = [(1_000_000, b"\x45\x00hello"), (2_500_000, b"world")]
        path = tmp_path / "x.pcap"
        write_pcap(path, packets)
        assert read_pcap(path) == packets

    @pytest.mark.parametrize("t_us", [-1, 2**32 * 1_000_000, 2**63])
    def test_pcap_writer_rejects_a_time_past_the_header_seconds(self, tmp_path, t_us):
        path = tmp_path / "x.pcap"
        with pytest.raises(CodecError, match=f"x.pcap: capture time {t_us} us is outside"):
            write_pcap(path, [(0, b"first"), (t_us, b"late")])
        assert not path.exists()

    def test_pcap_writer_keeps_the_last_header_second(self, tmp_path):
        packets = [(0, b""), ((2**32 - 1) * 1_000_000 + 999_999, b"last")]
        write_pcap(tmp_path / "x.pcap", packets)
        assert read_pcap(tmp_path / "x.pcap") == packets

    @pytest.mark.parametrize("endian", ["<", ">"])
    @pytest.mark.parametrize("nanos", [False, True])
    def test_pcap_reader_reads_every_magic_variant(self, tmp_path, endian, nanos):
        packets = [(0, b""), (1_000_000, b"\x45\x00hello"), (2_500_017, b"world" * 40)]
        magic = 0xA1B23C4D if nanos else 0xA1B2C3D4
        path = tmp_path / "x.pcap"
        with open(path, "wb") as handle:
            handle.write(struct.pack(f"{endian}IHHiIII", magic, 2, 4, 0, 0, 65535, 101))
            for t_us, data in packets:
                sec, usec = divmod(t_us, 1_000_000)
                frac = usec * 1000 + 999 if nanos else usec  # sub-µs digits are dropped
                handle.write(struct.pack(f"{endian}IIII", sec, frac, len(data), len(data)))
                handle.write(data)
        assert read_pcap(path) == packets

    @pytest.mark.parametrize("endian", ["<", ">"])
    @pytest.mark.parametrize("nanos, frac, unit", [(False, 1_000_000, "us"),
                                                    (False, 5_000_000, "us"),
                                                    (True, 1_000_000_000, "ns"),
                                                    (True, 4_000_000_000, "ns")])
    def test_pcap_reader_rejects_a_sub_second_field_of_a_second_or_more(
            self, tmp_path, endian, nanos, frac, unit):
        # Read as is, the record moved 1 s or more later: sec=1, usec=5_000_000 read as 6 s.
        magic = 0xA1B23C4D if nanos else 0xA1B2C3D4
        last = 999_999_999 if nanos else 999_999
        path = tmp_path / "x.pcap"
        with open(path, "wb") as handle:
            handle.write(struct.pack(f"{endian}IHHiIII", magic, 2, 4, 0, 0, 65535, 101))
            for frac_field in (last, frac):
                handle.write(struct.pack(f"{endian}IIII", 1, frac_field, 5, 5) + b"hello")
        with pytest.raises(CodecError, match=f"x.pcap: packet record 2 has sub-second field "
                                             f"{frac} {unit}, not below one second$"):
            read_pcap(path)

    def test_pcap_reader_reports_an_unknown_magic_little_endian(self, tmp_path):
        path = tmp_path / "x.pcap"
        path.write_bytes(bytes((1, 2, 3, 4)) + bytes(20))
        with pytest.raises(CodecError, match="unknown pcap magic 0x4030201$"):
            read_pcap(path)

    @pytest.mark.parametrize("endian", ["<", ">"])
    def test_pcap_reader_rejects_other_link_types(self, tmp_path, endian):
        path = tmp_path / "eth.pcap"
        _ethernet_echo_pcap(path, endian)
        with pytest.raises(CodecError, match="link type 1;"):
            read_pcap(path)


def _mixed_records(count: int) -> list[dict]:
    """``count`` records that cycle through ``engine.LINES`` shapes and records the shared
    encoder writes: an attach record, a line shape holding a ``bool``, one out of key order."""
    shapes = [
        lambda i: {"action": "ping_tx", "actor": "ue1", "dst": "12.1.1.1", "ident": 7, "seq": i,
                   "t_us": i},
        lambda i: {"action": "attach_phase", "actor": "ue1", "ip": "12.1.1.2",
                   "phase": "SESSION_ACTIVE", "t_us": i, "teid_downlink": 2, "teid_uplink": 1},
        lambda i: {"action": "bulk_tx", "actor": "ue1", "direction": "UL", "size": 1400,
                   "sub": i % 10, "t_us": i, "window": i // 10},
        lambda i: {"action": "ue_echo", "actor": "ue2", "seq": True, "src": "é", "t_us": i},
        lambda i: {"t_us": i, "actor": "upf", "action": "upf_drop", "dst": "10.0.0.9"},
    ]
    return [shapes[i % len(shapes)](i) for i in range(count)]


def _result_of(records: list) -> RunResult:
    log = EventLog()
    log.records.extend(records)
    return RunResult(None, {"event_count": len(records)}, log, {})


class TestEventsWriter:
    """``write_outputs`` writes events.jsonl one ``EventLog.jsonl_chunks`` chunk at a time."""

    @pytest.mark.parametrize("name", GOLDEN_CASES)
    def test_the_file_is_events_jsonl(self, bundled_results, tmp_path, name):
        result = golden_result(bundled_results, name)
        out = write_outputs(result, tmp_path)
        assert (out / "events.jsonl").read_bytes() == result.events_jsonl().encode("utf-8")
        assert (out / "report.json").read_bytes() == result.report_json().encode("utf-8")

    # Every chunk edge: none, one partial chunk, one full, one full and one record, two full
    # and one record.
    @pytest.mark.parametrize("count, chunk_lines", [
        (0, []), (1, [1]), (1023, [1023]), (1024, [1024]), (1025, [1024, 1]),
        (2049, [1024, 1024, 1]),
    ])
    @pytest.mark.parametrize("make_encoder", [json.encoder.c_make_encoder, None],
                             ids=["C encoder", "no C encoder"])
    def test_chunk_edges_write_json_dumps_per_record(self, tmp_path, count, chunk_lines,
                                                     make_encoder):
        records = _mixed_records(count)
        expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        with mock.patch.object(json.encoder, "c_make_encoder", make_encoder):
            result = _result_of(records)
            assert [chunk.count("\n") for chunk in result.log.jsonl_chunks()] == chunk_lines
            assert result.events_jsonl() == expected
            out = write_outputs(result, tmp_path)
        assert (out / "events.jsonl").read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("make_bad", [
        lambda r: r.__setitem__("self", r),
        lambda r: r.__setitem__("list", [1, r]),
        lambda r: r.__setitem__("bad", object()),
    ], ids=["circular dict", "circular list", "no JSON type"])
    def test_a_record_json_dumps_cannot_write_leaves_neither_file(self, tmp_path, make_bad):
        records = _mixed_records(2049)
        make_bad(records[1500])  # in the second chunk: the first is already written
        with pytest.raises((ValueError, TypeError)) as dumps:
            json.dumps(records[1500], sort_keys=True)
        with pytest.raises(type(dumps.value)) as written:
            write_outputs(_result_of(records), tmp_path)
        assert str(written.value) == str(dumps.value)
        assert list(tmp_path.iterdir()) == []

    def test_memory_above_the_run_stays_under_a_quarter_of_the_file(self, tmp_path):
        # Building the whole text first (every line, the joined text, then its UTF-8
        # copy) took about 2.6 times the file's size.
        raw = GENERATORS["ping_fleet"](0, pings_per_ue=21)
        result = run_scenario(scenario_from_dict(raw))
        assert len(result.log) >= 30_000
        tracemalloc.start()
        try:
            write_outputs(result, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (tmp_path / "events.jsonl").stat().st_size / 4


def first_row_metric(report: dict, name: str) -> float | None:
    """``extract_metric`` as it was before rows were matched by label: the first
    ping row, or the first throughput row of the metric's direction."""
    if name.startswith("rtt_"):
        pings = report.get("pings", [])
        return pings[0].get(name[len("rtt_"):]) if pings else None
    direction = "UL" if name.startswith("ul_") else "DL"
    return next((row.get(name[3:]) for row in report.get("throughput", [])
                 if row["direction"] == direction), None)


class TestCompare:
    def _reports(self):
        raw = variant()
        raw["traffic"].append({"probe": "throughput", "label": "downlink", "ue": "ue1",
                               "direction": "DL", "duration_s": 3})
        a = run_scenario(scenario_from_dict(copy.deepcopy(raw))).report
        slower = copy.deepcopy(raw)
        slower["nodes"][1]["sdr"] = "b200"
        slower["name"] = "unit-b200"
        b = run_scenario(scenario_from_dict(slower)).report
        return a, b

    def test_identical_reports_compare_all_equal(self):
        a, _ = self._reports()
        result = compare_reports(a, a)
        assert result.rows and all(row["relation"] == "=" for row in result.rows)

    def test_declared_expectation_verdicts(self):
        a, b = self._reports()
        expectations = [parse_expectation("dl_peak_mbps:a>=b"),
                        parse_expectation("rtt_min_ms:a<=b")]
        result = compare_reports(a, b, expectations)
        assert [v["passed"] for v in result.verdicts] == [True, True]
        assert result.all_pass

    def test_failed_expectation_reported(self):
        a, b = self._reports()
        result = compare_reports(a, b, [parse_expectation("dl_peak_mbps:a<b")])
        assert not result.all_pass

    def test_incompatible_schema_rejected(self):
        a, _ = self._reports()
        other = dict(a, schema=99)
        with pytest.raises(ConfigError, match="schema"):
            compare_reports(a, other)

    def test_expectation_parser_rejects_nonsense(self):
        with pytest.raises(ConfigError):
            parse_expectation("dl_peak_mbps")
        with pytest.raises(ConfigError):
            parse_expectation("nope:a>b")
        with pytest.raises(ConfigError):
            parse_expectation("dl_peak_mbps:a~b")

    def test_extract_metric_paths(self):
        a, _ = self._reports()
        assert extract_metric(a, "rtt_min_ms") == a["pings"][0]["min_ms"]
        assert extract_metric(a, "dl_peak_mbps") == a["throughput"][0]["peak_mbps"]
        assert extract_metric({}, "rtt_min_ms") is None

    def test_bundled_reports_compare_as_the_first_row_reader(self, bundled_results):
        # Each bundled report has one ping row and at most one throughput row per
        # direction, so matching rows by label changes no comparison of any two of them.
        reports = [bundled_results[name].report for name in BUNDLED]
        for report in reports:
            assert len(report["pings"]) == 1
            assert sorted(Counter(row["direction"] for row in report["throughput"]).values()) \
                in ([], [1, 1])
        for a in reports:
            for b in reports:
                expected = []
                for metric in runner._METRICS:
                    x, y = first_row_metric(a, metric), first_row_metric(b, metric)
                    if x is not None and y is not None:
                        relation = "=" if x == y else ("<" if x < y else ">")
                        expected.append({"metric": metric, "a": x, "b": y, "relation": relation})
                assert compare_reports(a, b).rows == expected, (a["scenario"], b["scenario"])

    def _fleet(self, count=3):
        """A report with ``count`` ping rows and a DL throughput row, and a copy of it."""
        raw = variant()
        raw["traffic"] = [{"probe": "ping", "label": f"train-{n}", "src": "ue1",
                           "dst": "core-gateway", "count": 3, "interval_ms": 100}
                          for n in range(count)]
        raw["traffic"].append({"probe": "throughput", "label": "downlink", "ue": "ue1",
                               "direction": "DL", "duration_s": 1})
        report = run_scenario(scenario_from_dict(raw)).report
        return report, copy.deepcopy(report)

    def test_rows_after_the_first_are_compared_by_label(self):
        a, b = self._fleet()
        b["pings"][2]["avg_ms"] = 9999.0  # the first-row reader compared this as "="
        rows = {row["metric"]: row["relation"] for row in compare_reports(a, b).rows}
        assert rows["rtt_avg_ms@train-2"] == "<"
        assert rows["rtt_avg_ms@train-0"] == rows["rtt_avg_ms@train-1"] == "="
        assert rows["dl_peak_mbps"] == "="  # one row in each keeps its bare name
        assert "rtt_avg_ms" not in rows
        b["pings"].reverse()  # rows pair by label, not by position
        assert {row["metric"]: row["relation"] for row in compare_reports(a, b).rows} == rows

    def test_a_label_in_only_one_report_is_a_config_error(self):
        a, b = self._fleet()
        b["pings"][1]["label"] = "renamed"
        with pytest.raises(ConfigError, match="'train-1' has rtt_min_ms only in report a"):
            compare_reports(a, b)
        del b["pings"][1]
        with pytest.raises(ConfigError, match="'train-1' has rtt_min_ms only in report a"):
            compare_reports(a, b)
        with pytest.raises(ConfigError, match="'train-1' has rtt_min_ms only in report b"):
            compare_reports(b, a)

    def test_an_expectation_names_a_row_by_label(self):
        a, b = self._fleet()
        b["pings"][2]["avg_ms"] = 9999.0
        expectation = parse_expectation("rtt_avg_ms@train-2:a<b")
        assert str(expectation) == "rtt_avg_ms@train-2:a<b"
        verdict, = compare_reports(a, b, [expectation]).verdicts
        assert verdict == {"expectation": "rtt_avg_ms@train-2:a<b", "a": a["pings"][2]["avg_ms"],
                           "b": 9999.0, "passed": True}
        assert extract_metric(a, "dl_peak_mbps@downlink") == extract_metric(a, "dl_peak_mbps")
        with pytest.raises(ConfigError, match="3 rtt_avg_ms rows; name one as rtt_avg_ms@<label>"):
            compare_reports(a, b, [parse_expectation("rtt_avg_ms:a<b")])
        with pytest.raises(ConfigError, match="no rtt_avg_ms row labelled 'absent'"):
            compare_reports(a, b, [parse_expectation("rtt_avg_ms@absent:a<b")])
        with pytest.raises(ConfigError, match="no dl_peak_mbps row labelled 'train-0'"):
            extract_metric(a, "dl_peak_mbps@train-0")

    def test_expectation_labels_parse(self):
        assert parse_expectation("rtt_avg_ms@a:b:a>=b") == ("rtt_avg_ms@a:b", "a>=b")
        for text in ("rtt_avg_ms@:a>b", "nope@rtt:a>b"):
            with pytest.raises(ConfigError):
                parse_expectation(text)

    @pytest.mark.parametrize("report", [
        {"pings": {"min_ms": 1.0}},
        {"pings": [3.5]},
        {"pings": [{"min_ms": "fast"}]},
        {"throughput": [{"peak_mbps": 50.0}]},
    ], ids=["pings not a list", "ping row not an object", "text metric", "row without direction"])
    def test_malformed_report_is_a_config_error(self, report):
        with pytest.raises(ConfigError, match="report"):
            extract_metric(report, "rtt_min_ms" if "pings" in report else "dl_peak_mbps")


# ---------------------------------------------------------------------------
# Ping rows against an independent oracle: the frames at the source UE's tap
# ---------------------------------------------------------------------------

OWN_ADDRESS = {"ue1": "12.1.1.2", "ue2": "12.1.1.3"}  # attach order fixes the pool address
PEER = {"ue1": "ue2", "ue2": "ue1"}


@st.composite
def ping_scenarios(draw) -> dict:
    """Two UEs pinging a peer, the external host, the gateway, the UPF,
    themselves, a sessionless pool address or a literal address outside the
    pool (out over N6), optionally under foreign bursts."""
    raw = variant(name="oracle", seed=draw(st.integers(0, 2**16)))
    raw["core"]["subscribers"].append({"imsi": "001010000000002"})
    raw["nodes"].append({"name": "ue2", "role": "ue", "host": "nuc-i5", "sdr": "b210",
                         "imsi": "001010000000002", "gnb": "gnb1",
                         "medium": {"kind": "cable", "length_cm": 50}})
    raw["traffic"] = []
    for src, dst, count, interval_ms in draw(st.lists(st.tuples(
            st.sampled_from(["ue1", "ue2"]),
            st.sampled_from(["peer", "external", "core-gateway", "192.168.70.134", "own",
                             "12.1.1.99", "198.51.100.7"]),
            st.integers(1, 4), st.integers(0, 150)), min_size=1, max_size=3)):
        dst = {"peer": PEER[src], "own": OWN_ADDRESS[src]}.get(dst, dst)
        raw["traffic"].append({"probe": "ping", "src": src, "dst": dst, "count": count,
                               "interval_ms": interval_ms})
    bursts = draw(st.lists(st.tuples(st.integers(0, 2_000_000), st.integers(1, 40_000),
                                     st.sampled_from([-80.0, -50.0])), max_size=30))
    raw["occupancy"] = [{"start_us": start, "end_us": start + length, "power_dbm": power}
                        for start, length, power in bursts]
    return raw


def tap_rtts_ms(frames, ident: int) -> list[float]:
    """RTTs of one echo train, paired by (id, seq) at the sender's own tap.

    The request is the first frame of its seq; the reply the UE receives
    is the last, since a UE pinging itself also sends the reply out first.
    """
    sent, replied = {}, {}
    for t_us, raw in sorted(frames, key=lambda frame: frame[0]):
        pkt = decode_ip(raw)
        if pkt.protocol != "ICMP" or pkt.icmp_id != ident:
            continue
        if pkt.icmp_type == ICMP_ECHO_REQUEST:
            sent.setdefault(pkt.icmp_seq, t_us)
        elif pkt.icmp_type == ICMP_ECHO_REPLY:
            replied[pkt.icmp_seq] = t_us
    return [(t_us - sent[seq]) / 1000 for seq, t_us in replied.items()]


class TestPingOracle:
    @settings(max_examples=30, deadline=None)
    @given(raw=ping_scenarios())
    def test_ping_rows_match_the_ue_tap(self, raw):
        untapped = run_scenario(scenario_from_dict(raw)).report["pings"]
        raw["taps"] = sorted({f"ue:{step['src']}" for step in raw["traffic"]})
        result = run_scenario(scenario_from_dict(raw))
        # A ue: tap draws no RNG and logs nothing, so it cannot move a row.
        assert result.report["pings"] == untapped
        for index, (plan, row) in enumerate(zip(result.scenario.traffic,
                                                result.report["pings"])):
            rtts = tap_rtts_ms(result.frames(f"ue:{plan.src}"), ping_ident(index))
            expected = ping_stats(plan.count, rtts)._asdict()
            assert {key: row[key] for key in expected} == expected


# ---------------------------------------------------------------------------
# Attach rows against an independent oracle: the states attach() returned
# ---------------------------------------------------------------------------


def run_with_attach_states(scenario) -> tuple[RunResult, list[dict]]:
    """Run a scenario, and build attach rows from each UeState attach() returns."""
    states = []
    original = access.attach

    def recording(*args, **kwargs):
        state = original(*args, **kwargs)
        states.append((kwargs["ue_id"], state))
        return state

    access.attach = recording
    try:
        result = run_scenario(scenario)
    finally:
        access.attach = original
    rows = [
        {
            "ue": ue,
            "phase": state.phase.name,
            "ip": state.session.ip if state.session else None,
            "scan_steps": state.scan_steps,
            "failure": state.failure,
        }
        for ue, state in states
    ]
    return result, rows


@st.composite
def attach_scenarios(draw) -> dict:
    """Up to four UEs, provisioned, disabled or unprovisioned, behind an
    on-air or off-air gNB, on a pool with room for at most five."""
    raw = variant(name="attach-oracle", seed=draw(st.integers(0, 2**16)))
    pool, capacity = draw(st.sampled_from([("12.1.1.0/30", 1), ("12.1.1.0/29", 5)]))
    raw["core"]["ue_pool"] = pool
    raw["core"]["prior_allocations"] = draw(st.integers(0, capacity))
    raw["core"]["subscribers"] = []
    raw["nodes"][0]["on_air"] = draw(st.booleans())
    raw["nodes"].insert(1, {"name": "gnb2", "role": "gnb", "host": "precision-5820-core",
                            "sdr": "n300", "on_air": draw(st.booleans())})
    del raw["nodes"][2:]
    statuses = draw(st.lists(st.sampled_from(["provisioned", "disabled", "unprovisioned"]),
                             min_size=1, max_size=4))
    for i, status in enumerate(statuses, start=1):
        imsi = f"00101000000000{i}"
        if status != "unprovisioned":
            raw["core"]["subscribers"].append({"imsi": imsi, "enabled": status == "provisioned"})
        raw["nodes"].append({"name": f"ue{i}", "role": "ue", "host": "nuc-i5", "sdr": "b210",
                             "imsi": imsi, "gnb": draw(st.sampled_from(["gnb1", "gnb2"])),
                             "unprovisioned": status == "unprovisioned",
                             "medium": {"kind": "cable", "length_cm": 50}})
    raw["traffic"] = [{"probe": "ping", "src": "ue1", "dst": "core-gateway", "count": 1,
                       "interval_ms": 0}]
    return raw


class TestAttachOracle:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_attach_rows_match_the_states(self, name):
        result, rows = run_with_attach_states(load_bundled(name))
        assert result.report["attach"] == rows

    def test_failed_attach_rows_match_the_states(self):
        result, rows = run_with_attach_states(golden_scenario("attach_failures"))
        assert [row["failure"] is not None for row in rows] == [True, True, True]
        assert result.report["attach"] == rows

    @settings(max_examples=60, deadline=None)
    @given(raw=attach_scenarios())
    def test_attach_rows_match_the_states(self, raw):
        result, rows = run_with_attach_states(scenario_from_dict(raw))
        assert result.report["attach"] == rows


# ---------------------------------------------------------------------------
# The report fold: one pass over the log that also checks the run
# ---------------------------------------------------------------------------


def fold(records) -> dict:
    """``_build_report`` of the unit scenario over hand-made records, no probes, no taps."""
    log = EventLog()
    for record in records:
        log.append(record)
    return runner._build_report(scenario_from_dict(variant()), log, [], {}, load_calibration())


def session_active(t_us, ip, teid_uplink, teid_downlink, actor="ue1") -> dict:
    return {"action": "attach_phase", "actor": actor, "interface": "N3", "ip": ip,
            "phase": "SESSION_ACTIVE", "t_us": t_us, "teid_downlink": teid_downlink,
            "teid_uplink": teid_uplink}


def ping_record(action, t_us, seq, ident=0x1000, actor="ue1") -> dict:
    return {"action": action, "actor": actor, "ident": ident, "seq": seq, "t_us": t_us}


def two_ping_plans() -> dict:
    """Two UEs with a ping plan each, as the record tails below address them;
    each plan's count is at least a tail's replies."""
    raw = variant(name="fold")
    raw["traffic"][0]["count"] = 60
    raw["core"]["subscribers"].append({"imsi": "001010000000002"})
    raw["nodes"].append({"name": "ue2", "role": "ue", "host": "nuc-i5", "sdr": "b210",
                         "imsi": "001010000000002", "gnb": "gnb1",
                         "medium": {"kind": "cable", "length_cm": 50}})
    raw["traffic"].append({"probe": "ping", "src": "ue2", "dst": "ue1", "count": 60,
                           "interval_ms": 100})
    return raw


@st.composite
def record_tails(draw) -> list[dict]:
    """Echoes with no, one or two replies, lone pings and replies, and counted
    drops after attach, for two UEs and two ping plans, at non-decreasing
    times, some equal."""
    records, t_us = [], 10_000_000
    for step, action, actor, index, seq in draw(st.lists(st.tuples(
            st.integers(0, 3), st.sampled_from(["echo", "ping_tx", "rtt_sample", "upf_drop",
                                                 "radio_drop", "lbt_deferred", "bulk_rx"]),
            st.sampled_from(["ue1", "ue2"]), st.integers(0, 1), st.integers(0, 1)), max_size=30)):
        t_us += step * 1000
        if action == "echo":
            records.append(ping_record("ping_tx", t_us, seq, ping_ident(index), actor))
            for _reply in range(draw(st.integers(0, 2))):
                t_us += draw(st.integers(0, 3000))
                records.append(ping_record("rtt_sample", t_us, seq, ping_ident(index), actor))
        elif action in ("ping_tx", "rtt_sample"):
            records.append(ping_record(action, t_us, seq, ping_ident(index), actor))
        else:
            records.append({"action": action, "actor": actor, "t_us": t_us})
    return records


def bulk_record(action, t_us, size, window=0, sub=0) -> dict:
    return {"action": action, "actor": "core" if action == "bulk_rx" else "ue1",
            "direction": "UL", "size": size, "sub": sub, "t_us": t_us, "window": window}


def bulk_fold(labels, tail) -> dict:
    """``_build_report`` over the attach records of ue1 and an unprovisioned
    ue2, then the records ``tail(*starts)`` returns.

    Each label names a UL plan: ``ue2`` one on ue2, ``zero`` a zero-duration
    one on ue1, any other a one-second one on ue1.  Each plan starts a
    second after the one before it ends, as ``run_scenario`` schedules them.
    """
    raw = variant(name="fold")
    raw["nodes"].append({"name": "ue2", "role": "ue", "host": "nuc-i5", "sdr": "b210",
                         "imsi": "001010000000002", "gnb": "gnb1", "unprovisioned": True,
                         "medium": {"kind": "cable", "length_cm": 50}})
    raw["traffic"] = [{"probe": "throughput", "label": label,
                       "ue": "ue2" if label == "ue2" else "ue1", "direction": "UL",
                       "duration_s": 0 if label == "zero" else 1} for label in labels]
    scenario, calib = scenario_from_dict(raw), load_calibration()
    net = SimNetwork(scenario, EventLoop(), EventLog(), calib)
    net.attach_all()
    starts = [net.attach_complete_us]
    for plan in scenario.traffic[:-1]:
        starts.append(starts[-1] + plan.duration_s * 1_000_000 + 1_000_000)
    for record in tail(*starts):
        net.log.append(record)
    return runner._build_report(scenario, net.log, starts, {}, calib)


class TestReportFold:
    def test_a_decreasing_timestamp_names_the_record(self):
        records = [ping_record("ping_tx", 5_000, 0),
                   {"action": "upf_drop", "actor": "upf", "dst": "12.1.1.9", "t_us": 4_999}]
        with pytest.raises(InvariantBreach) as caught:
            fold(records)
        assert str(caught.value) == "event log timestamps decreased at upf/upf_drop"

    def test_equal_timestamps_are_in_order(self):
        report = fold([ping_record("ping_tx", 5_000, 0), ping_record("rtt_sample", 5_000, 0)])
        assert report["pings"][0]["received"] == 1

    def test_two_sessions_on_one_ip_breach(self):
        records = [session_active(1_000, "12.1.1.2", 1, 2),
                   session_active(2_000, "12.1.1.2", 3, 4)]
        with pytest.raises(InvariantBreach) as caught:
            fold(records)
        assert str(caught.value) == \
            "duplicate session IP among active sessions: ['12.1.1.2', '12.1.1.2']"

    @pytest.mark.parametrize("teids", [(1, 2, 3, 1), (1, 2, 2, 3), (5, 5, 6, 7)],
                             ids=["uplink on downlink", "downlink on uplink", "one session"])
    def test_two_tunnels_on_one_teid_breach(self, teids):
        records = [session_active(1_000, "12.1.1.2", *teids[:2]),
                   session_active(2_000, "12.1.1.3", *teids[2:])]
        with pytest.raises(InvariantBreach) as caught:
            fold(records)
        assert str(caught.value) == \
            f"duplicate TEID among active sessions: {sorted(teids)}"

    def test_a_duplicate_reply_pairs_with_nothing(self):
        records = [ping_record("ping_tx", 1_000, 0), ping_record("rtt_sample", 3_000, 0),
                   ping_record("rtt_sample", 9_000, 0), ping_record("rtt_sample", 9_500, 1)]
        row = fold(records)["pings"][0]
        assert (row["sent"], row["received"], row["min_ms"], row["max_ms"]) == (5, 1, 2.0, 2.0)

    def test_counters_count_their_actions(self):
        records = [{"action": action, "actor": "upf", "t_us": t_us}
                   for t_us, action in enumerate(["upf_drop", "radio_drop", "radio_drop",
                                                  "lbt_deferred", "bulk_rx"])]
        assert fold(records)["counters"] == \
            {"upf_dropped_no_session": 1, "radio_dropped_bulk": 2, "lbt_deferred": 1}

    @settings(max_examples=80, deadline=None)
    @given(tail=record_tails())
    def test_one_pass_folds_what_the_multi_pass_fold_did(self, tail):
        calib = load_calibration()
        scenario = scenario_from_dict(two_ping_plans())
        net = SimNetwork(scenario, EventLoop(), EventLog(), calib)
        net.attach_all()
        for record in tail:
            net.log.append(record)
        # No throughput plan: no plan starts for the fold and no probe tallies for the reference.
        assert runner._build_report(scenario, net.log, [], {}, calib) == \
            multi_pass_report(scenario, net.log, [], {}, calib)

    def test_a_tick_granted_during_the_next_plan_counts_for_its_own_plan(self):
        rows = bulk_fold(["a", "b"], lambda a, b: [
            bulk_record("bulk_tx", a + 500_000, 1_000, sub=5),
            bulk_record("bulk_tx", b, 3_000),  # at the start itself: plan b's
            bulk_record("bulk_rx", b + 100_000, 1_000, sub=5),  # plan a's arrival, during b
            bulk_record("bulk_rx", b + 200_000, 3_000)])["throughput"]
        assert [row["delivered_bytes"] for row in rows] == [1_000, 3_000]
        assert [row["peak_mbps"] for row in rows] == [0.08, 0.24]

    def test_ticks_in_one_sub_window_add_up_whatever_their_sizes(self):
        rows = bulk_fold(["a"], lambda a: [
            bulk_record("bulk_tx", a, 1_000), bulk_record("bulk_tx", a + 1_000, 3_000),
            bulk_record("bulk_tx", a + 2_000, 1_000)])["throughput"]
        assert (rows[0]["delivered_bytes"], rows[0]["peak_mbps"]) == (5_000, 0.4)

    def test_a_tick_dropped_by_the_relay_adds_to_the_counter_only(self):
        """A ``radio_drop`` takes back the tick logged in its own event, and no other."""
        def radio_drop(t_us):
            return {"action": "radio_drop", "actor": "gnb1", "direction": "UL", "size": 1_000,
                    "t_us": t_us}

        report = bulk_fold(["a"], lambda a: [
            bulk_record("bulk_tx", a, 1_000), radio_drop(a),
            bulk_record("bulk_tx", a + 1_000, 2_000, sub=1),
            bulk_record("bulk_rx", a + 9_000, 2_000, sub=1), radio_drop(a + 9_000)])
        assert report["throughput"][0]["delivered_bytes"] == 2_000
        assert report["counters"]["radio_dropped_bulk"] == 2

    def test_a_plan_whose_ue_has_no_session_reports_zeros(self):
        rows = bulk_fold(["a", "ue2", "b"], lambda a, _ue2, b: [
            bulk_record("bulk_tx", a, 1_000), bulk_record("bulk_tx", b, 3_000)])["throughput"]
        assert [row["delivered_bytes"] for row in rows] == [1_000, 0, 3_000]
        assert rows[1] == {"label": "ue2", "ue": "ue2", "direction": "UL", "peak_mbps": 0.0,
                           "avg_low_mbps": 0.0, "avg_high_mbps": 0.0, "delivered_bytes": 0}

    def test_a_zero_duration_plan_between_two_others_reports_zeros(self):
        rows = bulk_fold(["a", "zero", "b"], lambda a, _zero, b: [
            bulk_record("bulk_tx", a + 900_000, 1_000, sub=9),
            bulk_record("bulk_tx", b, 3_000)])["throughput"]
        assert [row["delivered_bytes"] for row in rows] == [1_000, 0, 3_000]
        assert (rows[1]["peak_mbps"], rows[1]["avg_low_mbps"], rows[1]["avg_high_mbps"]) == \
            (0.0, 0.0, 0.0)
