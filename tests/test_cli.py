import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from nrusim.cli import main
from nrusim.network import SimNetwork
from nrusim.runner import write_outputs
from nrusim.scenario import bundled_scenario_path
from nrusim.userplane import echo_reply_for, encode_ip, icmp_echo_request
from tests.test_scenario import HOSTILE, variant

SRC = Path(__file__).resolve().parents[1] / "src"

# Input files that are not what a command reads: (id, command, file name, content or None).
BAD_INPUTS = [
    ("compare missing file", "compare", "absent.json", None),
    ("compare not JSON", "compare", "report.json", "this is not JSON\n"),
    ("compare JSON list", "compare", "report.json", "[1, 2, 3]\n"),
    ("compare throughput row without direction", "compare", "report.json",
     json.dumps({"schema": 1, "throughput": [{"label": "dl", "peak_mbps": 50.0}]})),
    ("compare JSON nested 100,000 deep", "compare", "report.json",
     "[" * 100_000 + "]" * 100_000),
    ("monitor missing file", "monitor", "absent.pcap", None),
]

# What CI's compare step (test_b's report against test_a's) printed when compare read
# each section's first row; every bundled report has one row per metric.
CI_COMPARE_LINES = [
    'rtt_min_ms         a=6.39       = b=6.39      ',
    'rtt_avg_ms         a=11.135     = b=11.135    ',
    'rtt_max_ms         a=15.565     = b=15.565    ',
    'rtt_mdev_ms        a=1.587      = b=1.587     ',
    'ul_peak_mbps       a=18         = b=18        ',
    'ul_avg_low_mbps    a=9.9        = b=9.9       ',
    'ul_avg_high_mbps   a=13.5       = b=13.5      ',
    'dl_peak_mbps       a=63         > b=55        ',
    'dl_avg_low_mbps    a=34.65      > b=30.25     ',
    'dl_avg_high_mbps   a=47.25      > b=41.25     ',
    'PASS dl_peak_mbps:a>b (a=63.0, b=55.0)',
]


def _bad_input_argv(tmp_path, command, filename, content):
    path = tmp_path / filename
    if content is not None:
        path.write_text(content, encoding="utf-8")
    return [command, str(path)] + ([str(path)] if command == "compare" else [])


def _ethernet_echo_pcap(path, endian="<"):
    """One echo pair in an Ethernet (link type 1) capture, in the given byte order."""
    request = icmp_echo_request("12.1.1.2", "12.1.1.1", 0x1000, 0)
    ethernet = bytes(6) + bytes.fromhex("020000000001") + b"\x08\x00"
    with open(path, "wb") as handle:
        handle.write(struct.pack(f"{endian}IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        for t_us, pkt in ((0, request), (12_000, echo_reply_for(request))):
            frame = ethernet + encode_ip(pkt)
            handle.write(struct.pack(f"{endian}IIII", 0, t_us, len(frame), len(frame)))
            handle.write(frame)


def run_cli(*args) -> int:
    return main(list(args))


class TestPlan:
    def test_convert_arfcn(self, capsys):
        assert run_cli("plan", "convert", "--arfcn", "750000") == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"arfcn": 750000, "frequency_mhz": 5250.0}

    def test_convert_freq_and_gscn(self, capsys):
        assert run_cli("plan", "convert", "--freq", "5250", "--gscn", "8993") == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["arfcn"] == 750000
        assert json.loads(lines[1])["ss_frequency_mhz"] == 5151.36

    def test_convert_off_grid_exits_1(self, capsys):
        assert run_cli("plan", "convert", "--freq", "5250.007") == 1
        assert "750000" in capsys.readouterr().err

    def test_convert_without_arguments_exits_1(self, capsys):
        assert run_cli("plan", "convert") == 1
        assert "give" in capsys.readouterr().err

    def test_validate(self, capsys):
        assert run_cli("plan", "validate", "--band", "n46", "--arfcn", "743333") == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True
        assert run_cli("plan", "validate", "--band", "n46", "--arfcn", "795001") == 0
        assert json.loads(capsys.readouterr().out)["valid"] is False

    def test_scan_emits_all_candidates(self, capsys):
        assert run_cli("plan", "scan", "--band", "n46") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 538
        assert json.loads(lines[0]) == {"band": "n46", "gscn": 8993,
                                        "ss_frequency_mhz": 5151.36}

    def test_check_compliant_and_violating(self, capsys):
        assert run_cli("plan", "check", "--band", "n46", "--arfcn", "746667",
                       "--bandwidth", "20", "--eirp", "20", "--indoor") == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["compliant"] is True
        assert run_cli("plan", "check", "--band", "n46", "--arfcn", "786667",
                       "--bandwidth", "20", "--eirp", "30") == 1
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["kind"] == "eirp"


    # (argv, how the one error line starts: it names the number at fault)
    @pytest.mark.parametrize("argv, start", [
        (["convert", "--freq", "nan"], "error: nan MHz"),
        (["convert", "--freq", "inf"], "error: inf MHz"),
        # the "=" form: argparse reads "-1e308" as an option
        (["convert", "--freq=1e308"], "error: 1e+308 MHz"),
        (["convert", "--freq=-1e308"], "error: -1e+308 MHz"),
        (["check", "--arfcn", "786667", "--bandwidth", "20", "--eirp", "nan"], "error: EIRP "),
        (["check", "--arfcn", "786667", "--bandwidth", "nan", "--eirp", "20"], "error: bandwidth "),
        (["check", "--arfcn", "786667", "--bandwidth", "-20", "--eirp", "20"], "error: bandwidth "),
        (["check", "--arfcn", "786667", "--bandwidth", "1e308", "--eirp", "20"],
         "error: bandwidth "),
    ], ids=["freq nan", "freq inf", "freq 1e308", "freq -1e308", "eirp nan", "bandwidth nan",
            "bandwidth negative", "bandwidth 1e308"])
    def test_non_finite_or_negative_numbers_exit_1(self, capsys, argv, start):
        assert run_cli("plan", *argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(start) and captured.err.count("\n") == 1
        assert "inf-" not in captured.err and "-inf" not in captured.err
        assert captured.out == ""

    def test_non_finite_eirp_subprocess_prints_no_traceback(self):
        proc = subprocess.run([sys.executable, "-m", "nrusim.cli", "plan", "check",
                               "--arfcn", "786667", "--bandwidth", "20", "--eirp", "nan"],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    # argparse takes "-inf" for an option; its usage errors would exit 2, the breach code.
    @pytest.mark.parametrize("argv", [["--freq", "-inf"], ["--bogus"]],
                             ids=["freq -inf", "unknown option"])
    def test_usage_error_subprocess_exits_1(self, argv):
        proc = subprocess.run([sys.executable, "-m", "nrusim.cli", "plan", "convert", *argv],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 1
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_help_still_exits_0(self):
        proc = subprocess.run([sys.executable, "-m", "nrusim.cli", "plan", "convert", "--help"],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0
        assert "--freq" in proc.stdout and proc.stderr == ""


class TestScenarioCommands:
    def test_validate_bundled(self, capsys):
        assert run_cli("validate", str(bundled_scenario_path("test_a"))) == 0
        assert "OK: test_a" in capsys.readouterr().out

    def test_validate_rejects_bad_file_with_exit_1(self, tmp_path, capsys):
        raw = variant(**{"cell.arfcn": 795001})
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert run_cli("validate", str(path)) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [case[1] for case in HOSTILE],
                             ids=[case[0] for case in HOSTILE])
    def test_validate_rejects_hostile_values_with_exit_1(self, tmp_path, capsys, raw):
        path = tmp_path / "hostile.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert run_cli("validate", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("case", [
        "non-integer seed", "ping dst not an IPv4", "NaN bandwidth", "fractional ping count",
        "boolean seed", "fractional ARFCN", "boolean burst start", "quoted tx power",
        "quoted ping count", "list as name", "unquoted UE IMSI", "exponent without dot and sign",
        "lower-case direction", "quoted burst power", "tap not a string",
        "traffic label used twice", "label equal to a default label",
        "external host in the UE pool", "external host on the pool gateway",
        "external host on the UPF", "gNB N3 address on the UPF", "AMF on the UPF's address",
        "CCA duration of 1e18 us", "zero contention window", "contention window past 1023",
    ])
    def test_validate_subprocess_prints_no_traceback(self, tmp_path, case):
        raw, needle = {name: (raw, needle) for name, raw, needle in HOSTILE}[case]
        path = tmp_path / "hostile.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "nrusim.cli", "validate", str(path)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert needle in proc.stderr and "Traceback" not in proc.stderr

    def test_validate_deep_nesting_subprocess_exits_1(self, tmp_path):
        """libyaml would compose 50,000 levels on the C stack and kill the process."""
        path = tmp_path / "deep.yaml"
        path.write_text("[" * 50_000 + "]" * 50_000, encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "nrusim.cli", "validate", str(path)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "nested past 64 levels at line 1" in proc.stderr

    # Under one burst that long, every RTT is near 1e21 ms (1e27 ms for 10**30), where the
    # mean of the float RTTs rounds past their maximum: the run crashed with a traceback.
    @pytest.mark.parametrize("end_us", [10**24, 10**30], ids=["10**24", "10**30"])
    def test_run_under_a_burst_ending_at_1e24_us_or_later_exits_0(self, tmp_path, end_us):
        raw = yaml.safe_load(bundled_scenario_path("test_a").read_text(encoding="utf-8"))
        raw["traffic"] = [plan for plan in raw["traffic"] if plan["probe"] == "ping"]
        raw["occupancy"] = [{"start_us": 0, "end_us": end_us, "power_dbm": 0.0}]
        path = tmp_path / "burst.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "nrusim.cli", "run", str(path),
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        [row] = json.loads((tmp_path / "out" / "report.json").read_text())["pings"]
        assert row["received"] == 100
        assert row["min_ms"] <= row["avg_ms"] <= row["max_ms"]

    def test_run_writes_report_and_prints_table(self, tmp_path, capsys):
        path = tmp_path / "unit.yaml"
        path.write_text(yaml.safe_dump(variant()), encoding="utf-8")
        assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 0
        out = capsys.readouterr().out
        assert "Scenario" in out and "unit" in out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["scenario"] == "unit"

    def test_run_checks_out_before_simulating(self, tmp_path, capsys, monkeypatch):
        def never(scenario):
            raise AssertionError("the scenario ran before --out was checked")

        monkeypatch.setattr("nrusim.runner.run_scenario", never)  # cli imports it per run
        path = tmp_path / "unit.yaml"
        path.write_text(yaml.safe_dump(variant()), encoding="utf-8")
        (tmp_path / "taken").write_text("not a directory\n", encoding="utf-8")
        assert run_cli("run", str(path), "--out", str(tmp_path / "taken")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write outputs to directory") and err.count("\n") == 1

    def test_run_exits_2_on_an_invariant_breach(self, tmp_path, capsys, monkeypatch):
        attach_all = SimNetwork.attach_all

        def attach_then_log_out_of_order(net):
            attach_all(net)
            net.log.append({"action": "late", "actor": "ue1", "t_us": 0})

        monkeypatch.setattr(SimNetwork, "attach_all", attach_then_log_out_of_order)
        path = tmp_path / "unit.yaml"
        path.write_text(yaml.safe_dump(variant()), encoding="utf-8")
        assert run_cli("run", str(path), "--out", str(tmp_path / "out")) == 2
        captured = capsys.readouterr()
        assert captured.err == "invariant breach: event log timestamps decreased at ue1/late\n"
        assert captured.out == ""
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("failure, code", [("pcap export", 1), ("invariant breach", 2)])
    def test_a_failed_rerun_leaves_no_earlier_report(self, tmp_path, capsys, monkeypatch,
                                                     failure, code):
        """report.json marks a complete run, even in a directory an earlier run filled."""
        out = tmp_path / "out"
        assert run_cli("run", str(bundled_scenario_path("north_south")), "--out", str(out),
                       "--pcap") == 0
        assert (out / "report.json").exists() and (out / "events.jsonl").exists()
        raw = yaml.safe_load(bundled_scenario_path("north_south").read_text(encoding="utf-8"))
        if failure == "pcap export":  # the second echo is past a pcap record's 32-bit seconds
            raw["traffic"][0].update(count=2, interval_ms=4503599627370496)
        else:
            attach_all = SimNetwork.attach_all

            def attach_then_log_out_of_order(net):
                attach_all(net)
                net.log.append({"action": "late", "actor": "ue1", "t_us": 0})

            monkeypatch.setattr(SimNetwork, "attach_all", attach_then_log_out_of_order)
        path = tmp_path / "again.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("run", str(path), "--out", str(out), "--pcap") == code
        assert capsys.readouterr().err.count("\n") == 1
        assert not (out / "report.json").exists() and not (out / "events.jsonl").exists()

    def test_a_rerun_leaves_no_earlier_capture(self, tmp_path, capsys):
        """Every tap_*.pcap in --out is this run's, or the run failed: none is an earlier run's."""
        out = tmp_path / "out"
        north_south = str(bundled_scenario_path("north_south"))
        captures = ["tap_n3_gnb1.pcap", "tap_n6.pcap", "tap_ue_ue1.pcap"]
        assert run_cli("run", north_south, "--out", str(out), "--pcap") == 0
        assert sorted(path.name for path in out.glob("tap_*.pcap")) == captures
        # A failed re-run: its second echo is past a pcap record's 32-bit seconds.
        raw = yaml.safe_load(bundled_scenario_path("north_south").read_text(encoding="utf-8"))
        raw["traffic"][0].update(count=2, interval_ms=4503599627370496)
        path = tmp_path / "far.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert run_cli("run", str(path), "--out", str(out), "--pcap") == 1
        assert list(out.iterdir()) == []
        # A re-run without --pcap, into a directory an earlier --pcap run filled.
        assert run_cli("run", north_south, "--out", str(out), "--pcap") == 0
        assert run_cli("run", north_south, "--out", str(out)) == 0
        assert sorted(path.name for path in out.iterdir()) == ["events.jsonl", "report.json"]
        capsys.readouterr()

    def test_run_exits_1_on_an_earlier_capture_it_cannot_remove(self, tmp_path, capsys):
        (tmp_path / "out" / "tap_n6.pcap").mkdir(parents=True)
        assert run_cli("run", str(bundled_scenario_path("north_south")), "--out",
                       str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write outputs to directory") and err.count("\n") == 1

    def test_run_json_records(self, tmp_path, capsys):
        path = tmp_path / "unit.yaml"
        path.write_text(yaml.safe_dump(variant()), encoding="utf-8")
        assert run_cli("run", str(path), "--out", str(tmp_path / "out"), "--json") == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines if line.startswith("{")]
        assert any(r["kind"] == "ping" for r in records)

    def test_compare_cli(self, tmp_path, capsys):
        path = tmp_path / "unit.yaml"
        path.write_text(yaml.safe_dump(variant()), encoding="utf-8")
        run_cli("run", str(path), "--out", str(tmp_path / "a"))
        run_cli("run", str(path), "--out", str(tmp_path / "b"))
        capsys.readouterr()
        assert run_cli("compare", str(tmp_path / "a" / "report.json"),
                       str(tmp_path / "b" / "report.json"),
                       "--expect", "rtt_avg_ms:a==b") == 0
        assert "PASS rtt_avg_ms:a==b" in capsys.readouterr().out

    def test_compare_prints_what_the_ci_step_printed(self, bundled_results, tmp_path, capsys):
        for name in ("test_a", "test_b"):
            write_outputs(bundled_results[name], tmp_path / name)
        assert run_cli("compare", str(tmp_path / "test_b" / "report.json"),
                       str(tmp_path / "test_a" / "report.json"),
                       "--expect", "dl_peak_mbps:a>b") == 0
        assert capsys.readouterr().out.splitlines() == CI_COMPARE_LINES

    def test_monitor_over_exported_pcap(self, tmp_path, capsys):
        raw = variant()
        raw["taps"] = ["ue:ue1"]
        path = tmp_path / "unit.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        run_cli("run", str(path), "--out", str(tmp_path / "out"), "--pcap")
        capsys.readouterr()
        assert run_cli("monitor", str(tmp_path / "out" / "tap_ue_ue1.pcap")) == 0
        out = capsys.readouterr().out
        assert "ICMP" in out and "12.1.1.2 <-> 12.1.1.1" in out

    def test_monitor_rejects_non_pcap_input(self, tmp_path, capsys):
        junk = tmp_path / "junk.pcap"
        junk.write_bytes(b"definitely not a capture file")
        assert run_cli("monitor", str(junk)) == 1
        assert "magic" in capsys.readouterr().err

    def test_monitor_json(self, tmp_path, capsys):
        raw = variant()
        raw["taps"] = ["ue:ue1"]
        path = tmp_path / "unit.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        run_cli("run", str(path), "--out", str(tmp_path / "out"), "--pcap")
        capsys.readouterr()
        assert run_cli("monitor", str(tmp_path / "out" / "tap_ue_ue1.pcap"), "--json") == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["type"] == "ICMP"
        assert record["packets"] == 10


class TestBadInputFiles:
    @pytest.mark.parametrize("case", BAD_INPUTS, ids=[case[0] for case in BAD_INPUTS])
    def test_exit_1_with_one_error_line(self, tmp_path, capsys, case):
        _name, command, filename, content = case
        assert run_cli(*_bad_input_argv(tmp_path, command, filename, content)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("name", ["compare JSON list", "compare JSON nested 100,000 deep",
                                      "monitor missing file"])
    def test_subprocess_prints_no_traceback(self, tmp_path, name):
        _name, command, filename, content = next(c for c in BAD_INPUTS if c[0] == name)
        proc = subprocess.run([sys.executable, "-m", "nrusim.cli",
                               *_bad_input_argv(tmp_path, command, filename, content)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    # Each exits 1 with one error line: a scenario that is not UTF-8, and a run whose
    # --out is a file, lies under a file, or holds a directory named report.json.
    @pytest.mark.parametrize("case", ["not utf-8", "out is a file", "out under a file",
                                      "report.json is a directory"])
    def test_unreadable_scenario_or_unusable_out_prints_no_traceback(self, tmp_path, case):
        scenario = tmp_path / "unit.yaml"
        scenario.write_text(yaml.safe_dump(variant()), encoding="utf-8")
        (tmp_path / "utf16.yaml").write_bytes(b"\xff\xfe" + scenario.read_bytes())
        (tmp_path / "taken").write_text("not a directory\n", encoding="utf-8")
        (tmp_path / "out" / "report.json").mkdir(parents=True)
        argv = {
            "not utf-8": ["validate", tmp_path / "utf16.yaml"],
            "out is a file": ["run", scenario, "--out", tmp_path / "taken"],
            "out under a file": ["run", scenario, "--out", tmp_path / "taken" / "sub"],
            "report.json is a directory": ["run", scenario, "--out", tmp_path / "out"],
        }[case]
        proc = subprocess.run([sys.executable, "-m", "nrusim.cli", *map(str, argv)],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    # out/<name> is run's default output directory; neither name may write anything.
    @pytest.mark.parametrize("name", ["../../escaped", "a\0b"])
    def test_run_with_a_path_as_name_writes_nothing(self, tmp_path, monkeypatch, capsys, name):
        work = tmp_path / "a" / "b"
        work.mkdir(parents=True)
        (work / "unit.yaml").write_text(yaml.safe_dump(variant(name=name)), encoding="utf-8")
        monkeypatch.chdir(work)
        assert run_cli("run", "unit.yaml") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unit: name must be one directory name")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "a", work, work / "unit.yaml"]

    # run --pcap writes tap_ue_<node name>.pcap: neither scenario may write a file.
    @pytest.mark.parametrize("case", ["node name escaping out/", "two taps on one pcap file"])
    def test_run_pcap_with_a_tap_path_clash_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                           case):
        raw, needle = {name: (raw, needle) for name, raw, needle in HOSTILE}[case]
        work = tmp_path / "a" / "b"
        work.mkdir(parents=True)
        (work / "unit.yaml").write_text(yaml.safe_dump(raw), encoding="utf-8")
        monkeypatch.chdir(work)
        assert run_cli("run", "unit.yaml", "--out", "out/run", "--pcap") == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {needle}\n" and captured.out == ""
        assert sorted(tmp_path.rglob("*")) == [tmp_path / "a", work, work / "unit.yaml"]

    def test_run_pcap_past_the_32_bit_seconds_exits_1(self, tmp_path, capsys):
        # The second echo leaves 2**52 ms after the first, so its capture time overflows
        # a classic pcap record's 32-bit seconds: it crashed with a struct.error traceback.
        raw = yaml.safe_load(bundled_scenario_path("north_south").read_text(encoding="utf-8"))
        raw["traffic"][0].update(count=2, interval_ms=4503599627370496)
        path = tmp_path / "far.yaml"
        path.write_text(yaml.safe_dump(raw), encoding="utf-8")
        assert run_cli("run", str(path), "--out", str(tmp_path / "out"), "--pcap") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {tmp_path / 'out' / 'tap_ue_ue1.pcap'}: "
                                       "capture time 45035996273")
        assert captured.err.count("\n") == 1 and "32-bit seconds" in captured.err
        assert not list((tmp_path / "out").glob("*.pcap"))
        # The pcaps are written first and report.json last: a failed run leaves no report.
        assert not (tmp_path / "out" / "events.jsonl").exists()
        assert not (tmp_path / "out" / "report.json").exists()

    def test_compare_rejects_a_nan_metric(self, tmp_path, capsys):
        # json.loads reads NaN, and every comparison with it is false: it printed "a=nan > b=1".
        for name, value in (("nan", float("nan")), ("one", 1.0)):
            report = {"schema": 1, "pings": [{"min_ms": value}]}
            (tmp_path / f"{name}.json").write_text(json.dumps(report), encoding="utf-8")
        assert "NaN" in (tmp_path / "nan.json").read_text(encoding="utf-8")
        assert run_cli("compare", str(tmp_path / "nan.json"), str(tmp_path / "one.json")) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: report metric rtt_min_ms is not a number: nan\n"
        assert captured.out == ""

    def test_monitor_rejects_a_record_a_second_past_its_second(self, tmp_path, capsys):
        path = tmp_path / "late.pcap"
        with open(path, "wb") as handle:
            handle.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101))
            handle.write(struct.pack("<IIII", 1, 5_000_000, 0, 0))
        assert run_cli("monitor", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {path}: packet record 1 has sub-second field "
                                f"5000000 us, not below one second\n")
        assert captured.out == ""

    def test_monitor_rejects_an_ethernet_capture(self, tmp_path, capsys):
        path = tmp_path / "eth.pcap"
        _ethernet_echo_pcap(path)
        assert run_cli("monitor", str(path)) == 1
        captured = capsys.readouterr()
        assert "link type 1" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
