"""The package boundary: what one import loads, and the README's quickstart."""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from nrusim.pcapio import write_pcap
from nrusim.userplane import echo_reply_for, encode_ip, icmp_echo_request

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC)}


@pytest.mark.parametrize("module, loaded", [
    ("metrics", ["corenet", "errors", "metrics", "userplane"]),
    ("scenario", ["access", "corenet", "errors", "rflink", "scenario", "spectrum", "yamlio"]),
    ("spectrum", ["errors", "spectrum", "yamlio"]),
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
