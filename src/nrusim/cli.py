"""Command-line front end.

Subcommands: ``plan`` (spectrum queries), ``validate`` (scenario lint),
``run`` (execute a scenario), ``compare`` (ordering verdicts between two
reports), ``monitor`` (passive RTT over a pcap capture).  Exit codes:
0 success, 1 usage, validation or configuration failure, 2 runtime
invariant breach.  Each handler imports its own modules, so ``monitor``
loads neither the scenario loader nor PyYAML.  Only a scenario file's
text is YAML (the data tables are JSON), so ``plan`` and ``compare``
load no PyYAML either.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, InvariantBreach, NrusimError


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_plan(args) -> int:
    from . import spectrum

    if args.plan_cmd == "convert":
        if args.arfcn is not None:
            _emit({"arfcn": args.arfcn, "frequency_mhz": spectrum.arfcn_to_frequency(args.arfcn)})
        if args.freq is not None:
            _emit({"frequency_mhz": args.freq, "arfcn": spectrum.frequency_to_arfcn(args.freq)})
        if args.gscn is not None:
            _emit({"gscn": args.gscn, "ss_frequency_mhz": spectrum.gscn_to_ss_frequency(args.gscn)})
        if args.arfcn is None and args.freq is None and args.gscn is None:
            print("plan convert: give --arfcn, --freq, or --gscn", file=sys.stderr)
            return 1
        return 0
    band = spectrum.get_band(args.band)
    if args.plan_cmd == "validate":
        valid = spectrum.validate_channel(band, args.arfcn, args.link)
        _emit({"band": band.band_id, "arfcn": args.arfcn, "link": args.link, "valid": valid})
        return 0
    if args.plan_cmd == "scan":
        candidates = spectrum.ss_scan_candidates(band)
        for gscn, freq in candidates:
            _emit({"band": band.band_id, "gscn": gscn, "ss_frequency_mhz": freq})
        return 0
    # "check", the one subcommand left
    assignment = spectrum.ChannelAssignment(band.band_id, args.arfcn, args.bandwidth, args.eirp,
                                            args.indoor)
    violations = spectrum.check_assignment(assignment, args.jurisdiction)
    for violation in violations:
        _emit({"kind": violation.kind, "message": violation.message})
    _emit({"compliant": not violations, "violations": len(violations)})
    return 0 if not violations else 1


def _cmd_validate(args) -> int:
    from .scenario import load_scenario

    scenario = load_scenario(args.scenario)
    print(f"OK: {scenario.name} (seed {scenario.seed}, {len(scenario.nodes)} nodes, "
          f"{len(scenario.traffic)} traffic steps)")
    for note in scenario.notes:
        print(f"note: {note}")
    return 0


def _cmd_run(args) -> int:
    from .metrics import render_table, report_records
    from .runner import make_out_dir, run_scenario, write_outputs
    from .scenario import load_scenario

    scenario = load_scenario(args.scenario)
    out = make_out_dir(args.out or f"out/{scenario.name}")  # before the run, which may be long
    # An earlier run's outputs, which this run replaces: its captures too, which a run
    # with other taps, or without --pcap, would otherwise leave beside this run's report.
    for stale in (out / "report.json", out / "events.jsonl", *out.glob("tap_*.pcap")):
        try:
            stale.unlink(missing_ok=True)
        except OSError as exc:  # e.g. report.json is a directory
            raise ConfigError(f"cannot write outputs to directory {out}: {exc}") from None
    result = run_scenario(scenario)
    write_outputs(result, out, pcap=args.pcap)
    if args.json:
        for record in report_records(result.report):
            _emit(record)
    else:
        print(render_table([result.report]))
    for note in result.report["notes"]:
        print(f"note: {note}")
    print(f"report written to {out}/report.json ({result.report['event_count']} events)")
    return 0


def _cmd_compare(args) -> int:
    from .runner import compare_reports, load_report, parse_expectation

    expectations = [parse_expectation(e) for e in args.expect]
    result = compare_reports(load_report(args.report_a), load_report(args.report_b), expectations)
    if args.json:
        for row in result.rows:
            _emit(row)
    else:
        for row in result.rows:
            print(f"{row['metric']:<18} a={row['a']:<10g} {row['relation']} b={row['b']:<10g}")
    for verdict in result.verdicts:
        status = "PASS" if verdict["passed"] else "FAIL"
        print(f"{status} {verdict['expectation']} (a={verdict['a']}, b={verdict['b']})")
    return 0 if result.all_pass else 1


def _cmd_monitor(args) -> int:
    from .metrics import passive_monitor, render_monitor
    from .pcapio import read_pcap

    frames = read_pcap(args.pcap_file)
    report = passive_monitor(frames)
    if args.json:
        for session in report.sessions:
            _emit(
                {
                    "type": "ICMP",
                    "left": session.left,
                    "right": session.right,
                    "session": session.session_id,
                    "packets": session.packet_count,
                    "rtt_latest_ms": session.rtt_latest_ms,
                }
            )
    else:
        print(render_monitor(report))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, not argparse's 2; subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nrusim",
        description="Planning and simulation toolkit for private 5G in the 5 GHz unlicensed band",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    plan = sub.add_parser("plan", help="spectrum raster and regulatory queries")
    plan_sub = plan.add_subparsers(dest="plan_cmd", required=True)
    convert = plan_sub.add_parser("convert", help="ARFCN/GSCN/frequency conversions")
    convert.add_argument("--arfcn", type=int)
    convert.add_argument("--freq", type=float, help="frequency in MHz")
    convert.add_argument("--gscn", type=int)
    validate = plan_sub.add_parser("validate", help="check an ARFCN against a band raster")
    validate.add_argument("--band", default="n46")
    validate.add_argument("--arfcn", type=int, required=True)
    validate.add_argument("--link", choices=("UL", "DL"), default="DL")
    scan = plan_sub.add_parser("scan", help="enumerate a band's SS scan candidates")
    scan.add_argument("--band", default="n46")
    check = plan_sub.add_parser("check", help="regulatory compliance of an assignment")
    check.add_argument("--band", default="n46")
    check.add_argument("--arfcn", type=int, required=True)
    check.add_argument("--bandwidth", type=float, required=True, help="MHz")
    check.add_argument("--eirp", type=float, required=True, help="mean EIRP in mW")
    check.add_argument("--indoor", action="store_true")
    check.add_argument("--jurisdiction", default="AU")

    validate_cmd = sub.add_parser("validate", help="lint a scenario file")
    validate_cmd.add_argument("scenario")

    run_cmd = sub.add_parser("run", help="execute a scenario and emit its report")
    run_cmd.add_argument("scenario")
    run_cmd.add_argument("--out", help="output directory (default out/<name>)")
    run_cmd.add_argument("--pcap", action="store_true", help="export tap captures as pcap")
    run_cmd.add_argument("--json", action="store_true", help="machine-readable records")

    compare = sub.add_parser("compare", help="ordering verdicts between two reports")
    compare.add_argument("report_a")
    compare.add_argument("report_b")
    compare.add_argument("--expect", action="append", default=[],
                         help="expectation like dl_peak_mbps:a>b (repeatable)")
    compare.add_argument("--json", action="store_true")

    monitor = sub.add_parser("monitor", help="passive RTT sessions from a pcap capture")
    monitor.add_argument("pcap_file")
    monitor.add_argument("--json", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "plan": _cmd_plan,
        "validate": _cmd_validate,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "monitor": _cmd_monitor,
    }
    try:
        return handlers[args.cmd](args)
    except InvariantBreach as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 2
    except NrusimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
