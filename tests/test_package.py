"""The package boundary: what one import loads, and the README's quickstart."""

import os
import re
import subprocess
import sys
import textwrap
from fnmatch import fnmatchcase
from pathlib import Path, PurePosixPath

import pytest

from nrusim import calibration, rflink, spectrum, tables
from nrusim.pcapio import write_pcap
from nrusim.runner import write_outputs
from nrusim.scenario import BUNDLED, bundled_scenario_path
from nrusim.userplane import echo_reply_for, encode_ip, icmp_echo_request

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}


@pytest.mark.parametrize("module, loaded", [
    ("metrics", ["corenet", "errors", "metrics", "userplane"]),
    ("scenario", ["access", "corenet", "errors", "rflink", "scenario", "spectrum", "tables"]),
    ("spectrum", ["errors", "spectrum", "tables"]),
])
def test_importing_a_module_loads_only_its_own_imports(module, loaded):
    # The package re-exports nothing, so the run, report and pcap layers stay unloaded.
    code = (f"import sys, nrusim.{module}\n"
            "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'nrusim'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=ENV, check=True)
    assert proc.stdout.split() == ["nrusim"] + [f"nrusim.{name}" for name in loaded]


def test_monitor_loads_neither_yaml_nor_the_run_layers(tmp_path):
    # A capture is all ``nrusim monitor`` reads, so its cold start skips the loader and the run.
    request = icmp_echo_request("12.1.1.2", "12.1.1.1", 0x1000, 0)
    write_pcap(tmp_path / "echo.pcap", [(0, encode_ip(request)),
                                        (12_000, encode_ip(echo_reply_for(request)))])
    code = textwrap.dedent("""\
        import sys
        import nrusim.cli
        assert nrusim.cli.main(['monitor', 'echo.pcap']) == 0
        unwanted = {'yaml', 'nrusim.scenario', 'nrusim.network', 'nrusim.runner'}
        print('loaded:', *sorted(unwanted & set(sys.modules)))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=ENV, cwd=tmp_path, check=True)
    assert "1 connections" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "loaded:"


def test_generated_scenarios_plan_and_compare_load_no_yaml(bundled_results, tmp_path):
    # Only a scenario file's text is YAML: the tables are JSON, so building a scenario from
    # a mapping, every plan command and compare leave PyYAML unloaded; load_scenario loads it.
    for name in ("test_a", "test_b"):
        write_outputs(bundled_results[name], tmp_path / name)
    code = textwrap.dedent(f"""\
        import sys
        sys.path.insert(0, {str(ROOT / "perfbench")!r})
        from generators import contended_bulk, ping_fleet
        import nrusim.scenario, nrusim.calibration
        for generate in (ping_fleet, contended_bulk):
            raw = generate(0)
            nrusim.scenario.scenario_from_dict(raw, name_hint=raw['name'])
        nrusim.calibration.load_calibration()
        print('load:', 'yaml' in sys.modules)
        import nrusim.cli
        for argv in (['plan', 'scan', '--band', 'n46'],
                     ['plan', 'convert', '--arfcn', '786667'],
                     ['plan', 'validate', '--arfcn', '786667'],
                     ['plan', 'check', '--arfcn', '786667', '--bandwidth', '20', '--eirp', '20'],
                     ['compare', 'test_b/report.json', 'test_a/report.json',
                      '--expect', 'dl_peak_mbps:a>b']):
            assert nrusim.cli.main(argv) == 0, argv
        print('plan, compare:', 'yaml' in sys.modules)
        nrusim.scenario.load_bundled('test_a')
        print('load_scenario:', 'yaml' in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=ENV, cwd=tmp_path, check=True)
    lines = [line for line in proc.stdout.splitlines()
             if line.startswith(("load:", "plan, compare:", "load_scenario:"))]
    assert lines == ["load: False", "plan, compare: False", "load_scenario: True"]


def _package_data_globs() -> list[str]:
    """The package-data globs of pyproject.toml, read from its text (3.10 has no tomllib)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    table = re.search(r"^\[tool\.setuptools\.package-data\]\nnrusim = \[(.*?)\]", text,
                      re.M | re.S)
    return re.findall(r'"([^"]+)"', table.group(1))


def _unshipped(paths: list[str], globs: list[str]) -> list[str]:
    """The package-relative paths that no glob matches, one path part per glob part."""
    def matches(path, glob):
        parts, pattern = PurePosixPath(path).parts, PurePosixPath(glob).parts
        return len(parts) == len(pattern) and all(map(fnmatchcase, parts, pattern))

    return [path for path in paths if not any(matches(path, glob) for glob in globs)]


def test_every_file_the_loaders_read_is_package_data(monkeypatch):
    # CI installs the package editable, which reads the source tree: only this test sees
    # a table that a built wheel would leave out.
    read = []

    def recording(name):
        read.append(f"data/{name}")
        return tables.load_data(name)

    for module in (calibration, rflink, spectrum):
        monkeypatch.setattr(module, "load_data", recording)
    calibration.load_calibration.__wrapped__()
    rflink.load_hardware_profiles.__wrapped__()
    spectrum.load_band_plans.__wrapped__()
    for jurisdiction in tables.load_data("regulatory.json")["jurisdictions"]:
        spectrum.load_regulatory_rules.__wrapped__(jurisdiction)
    package = Path(tables.__file__).parent
    read += [bundled_scenario_path(name).relative_to(package).as_posix() for name in BUNDLED]
    tables_read = {"data/bands.json", "data/calibration.json", "data/hardware.json",
                   "data/regulatory.json"}
    assert tables_read <= set(read)
    assert _unshipped(read, _package_data_globs()) == []
    # The globs that shipped the YAML tables would leave every JSON one out of a wheel.
    assert set(_unshipped(read, ["data/*.yaml", "data/scenarios/*.yaml"])) == tables_read


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quickstart = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    proc = subprocess.run([sys.executable, "-c", quickstart], capture_output=True, text=True,
                          timeout=60, env=ENV, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("5250.0\n")


def test_loading_every_bundled_scenario_imports_neither_dataclasses_nor_logging():
    # Each costs every cold start milliseconds; pytest's own imports stay out of a fresh process.
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import nrusim.scenario, nrusim.calibration\n"
            "for name in nrusim.scenario.BUNDLED:\n"
            "    nrusim.scenario.load_bundled(name)\n"
            "nrusim.calibration.load_calibration()\n"
            "print(*sorted({'dataclasses', 'inspect', 'logging'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=ENV, check=True)
    assert proc.stdout.split() == []


def test_the_cli_and_every_bundled_run_import_neither_dataclasses_inspect_nor_logging(tmp_path):
    # The whole command: import, then each bundled run with pcap export and the offline monitor.
    code = textwrap.dedent("""\
        import sys
        before = set(sys.modules)
        unwanted = {'dataclasses', 'inspect', 'logging'}
        import nrusim.cli
        print('import:', *sorted(unwanted & (set(sys.modules) - before)))
        from pathlib import Path
        from nrusim.scenario import BUNDLED, bundled_scenario_path
        captures = 0
        for name in BUNDLED:
            assert nrusim.cli.main(['run', str(bundled_scenario_path(name)), '--pcap',
                                    '--out', name]) == 0
            for capture in sorted(Path(name).glob('*.pcap')):
                assert nrusim.cli.main(['monitor', str(capture)]) == 0
                captures += 1
        print('runs:', *sorted(unwanted & (set(sys.modules) - before)))
        print('captures:', captures)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=ENV, cwd=tmp_path, check=True)
    lines = [line for line in proc.stdout.splitlines()
             if line.startswith(("import:", "runs:", "captures:"))]
    assert lines[:2] == ["import:", "runs:"]
    assert int(lines[2].split()[1]) > 0
