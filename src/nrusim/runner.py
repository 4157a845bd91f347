"""Scenario execution, report assembly, and report comparison.

Identical (scenario, seed) pairs produce byte-identical reports and event
logs: the loop is single-threaded, every random draw comes from a named
substream of the scenario seed, and serialisation sorts its keys.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .calibration import load_calibration
from .engine import EventLog, EventLoop, derive_rng
from .errors import ConfigError, InvariantBreach
from .metrics import (
    PingProbe,
    ThroughputProbe,
    link_capacity_mbps,
    passive_monitor,
)
from .network import SimNetwork
from .pcapio import write_pcap
from .scenario import PingPlan, Scenario, ThroughputPlan

REPORT_SCHEMA = 1


@dataclass
class RunResult:
    scenario: Scenario
    report: dict
    log: EventLog
    taps: dict[str, list[tuple[int, bytes]]] = field(default_factory=dict)

    def report_json(self) -> str:
        return json.dumps(self.report, sort_keys=True, indent=2) + "\n"

    def events_jsonl(self) -> str:
        return self.log.to_jsonl()


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute attach flows and the traffic plan; fold results into a report."""
    calib = load_calibration()
    loop = EventLoop()
    log = EventLog()
    net = SimNetwork(scenario, loop, log, calib)
    net.attach_all()

    probes: list[tuple[str, PingProbe | ThroughputProbe]] = []
    cursor = net.attach_complete_us
    for index, plan in enumerate(scenario.traffic):
        rng = derive_rng(scenario.seed, f"probe:{plan.label}")
        if isinstance(plan, PingPlan):
            probe = PingProbe(plan.label, plan.src, plan.dst, plan.count, plan.interval_ms, rng)
            cursor = probe.schedule(net, cursor, ident=0x1000 + index)
            probes.append(("ping", probe))
        elif isinstance(plan, ThroughputPlan):
            link = net.links[plan.ue]
            capacity = link_capacity_mbps(
                plan.direction,
                scenario.cell.bandwidth_mhz,
                scenario.cell.scs_khz,
                scenario.cell.tdd,
                link.ue.sdr,
                link.gnb.sdr,
                link.medium,
                calib,
            )
            probe = ThroughputProbe(plan.label, plan.ue, plan.direction, plan.duration_s,
                                    capacity, calib, rng)
            cursor = probe.schedule(net, cursor)
            probes.append(("throughput", probe))
        else:  # pragma: no cover - loader rejects unknown probes
            raise ConfigError(f"unknown traffic plan {plan!r}")

    loop.run()
    _check_invariants(net, log)
    return RunResult(
        scenario=scenario,
        report=_build_report(scenario, net, probes, log),
        log=log,
        taps=net.taps,
    )


def _check_invariants(net: SimNetwork, log: EventLog) -> None:
    active = net.core.active_sessions()
    ips = [s.ip for s in active]
    if len(set(ips)) != len(ips):
        raise InvariantBreach(f"duplicate session IP among active sessions: {sorted(ips)}")
    teids = [t for s in active for t in (s.teid_uplink, s.teid_downlink)]
    if len(set(teids)) != len(teids):
        raise InvariantBreach(f"duplicate TEID among active sessions: {sorted(teids)}")
    last = -1
    for record in log.records:
        if record["t_us"] < last:
            raise InvariantBreach(
                f"event log timestamps decreased at {record['actor']}/{record['action']}"
            )
        last = record["t_us"]


def _build_report(scenario: Scenario, net: SimNetwork, probes, log: EventLog) -> dict:
    attach_rows = []
    for ue in scenario.ues():
        state = net.attach_states[ue.name]
        attach_rows.append(
            {
                "ue": ue.name,
                "phase": state.phase.name,
                "ip": state.session.ip if state.session else None,
                "scan_steps": state.scan_steps,
                "failure": state.failure,
            }
        )
    pings = []
    throughput = []
    for kind, probe in probes:
        if kind == "ping":
            stats = probe.stats()
            pings.append(
                {
                    "label": probe.label,
                    "src": probe.src,
                    "dst": probe.dst,
                    "sent": stats.sent,
                    "received": stats.received,
                    "min_ms": stats.min_ms,
                    "max_ms": stats.max_ms,
                    "avg_ms": stats.avg_ms,
                    "mdev_ms": stats.mdev_ms,
                }
            )
        else:
            stats = probe.stats()
            throughput.append(
                {
                    "label": probe.label,
                    "ue": probe.ue,
                    "direction": stats.direction,
                    "peak_mbps": stats.peak_mbps,
                    "avg_low_mbps": stats.avg_low_mbps,
                    "avg_high_mbps": stats.avg_high_mbps,
                    "delivered_bytes": stats.delivered_bytes,
                }
            )
    passive = {}
    for tap, frames in net.taps.items():
        monitored = passive_monitor(sorted(frames, key=lambda f: f[0]))
        passive[tap] = {
            "unparsed_frames": monitored.unparsed_frames,
            "sessions": [
                {
                    "session_id": s.session_id,
                    "left": s.left,
                    "right": s.right,
                    "packet_count": s.packet_count,
                    "rtt_latest_ms": s.rtt_latest_ms,
                }
                for s in monitored.sessions
            ],
        }
    actions = Counter(record["action"] for record in log.records)
    return {
        "schema": REPORT_SCHEMA,
        "scenario": scenario.name,
        "seed": scenario.seed,
        "event_log": "events.jsonl",  # sibling artifact every stat is recomputable from
        "notes": list(scenario.notes),
        "attach": attach_rows,
        "rsrp_dbm": {name: round(link.rsrp_dbm, 2) for name, link in net.links.items()},
        "link": {
            name: {
                "required_msps": link.required_msps,
                "drop_fraction": link.drop_fraction,
                "viable": link.relay.viable,
            }
            for name, link in net.links.items()
        },
        "pings": pings,
        "throughput": throughput,
        "passive": passive,
        "counters": {
            "upf_dropped_no_session": actions["upf_drop"],
            "radio_dropped_bulk": actions["radio_drop"],
            "lbt_deferred": actions["lbt_deferred"],
        },
        "event_count": len(log),
    }


def write_outputs(result: RunResult, out_dir: str | Path, pcap: bool = False) -> Path:
    """Write report.json, events.jsonl, and optional per-tap pcap files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(result.report_json(), encoding="utf-8")
    (out / "events.jsonl").write_text(result.events_jsonl(), encoding="utf-8")
    if pcap:
        for tap, frames in result.taps.items():
            safe = tap.replace(":", "_")
            write_pcap(out / f"tap_{safe}.pcap", sorted(frames, key=lambda f: f[0]))
    return out


# ---------------------------------------------------------------------------
# Report comparison
# ---------------------------------------------------------------------------

_METRICS = (
    "rtt_min_ms",
    "rtt_avg_ms",
    "rtt_max_ms",
    "rtt_mdev_ms",
    "ul_peak_mbps",
    "ul_avg_low_mbps",
    "ul_avg_high_mbps",
    "dl_peak_mbps",
    "dl_avg_low_mbps",
    "dl_avg_high_mbps",
)

_OPS = {
    "a>b": lambda a, b: a > b,
    "a>=b": lambda a, b: a >= b,
    "a<b": lambda a, b: a < b,
    "a<=b": lambda a, b: a <= b,
    "a==b": lambda a, b: a == b,
}


def extract_metric(report: dict, name: str) -> float | None:
    """Pull one comparable metric out of a report dict."""
    if name.startswith("rtt_"):
        pings = report.get("pings", [])
        if not pings:
            return None
        return pings[0].get(name[len("rtt_"):])
    direction = "UL" if name.startswith("ul_") else "DL"
    for row in report.get("throughput", []):
        if row["direction"] == direction:
            return row.get(name[3:])
    return None


@dataclass(frozen=True)
class Expectation:
    metric: str
    op: str  # key into _OPS

    def __str__(self) -> str:
        return f"{self.metric}:{self.op}"


def parse_expectation(text: str) -> Expectation:
    """Parse "metric:a>b"-style expectation strings."""
    if ":" not in text:
        raise ConfigError(f"expectation {text!r} must look like 'dl_peak_mbps:a>b'")
    metric, op = text.split(":", 1)
    if metric not in _METRICS:
        raise ConfigError(f"unknown metric {metric!r}; known: {', '.join(_METRICS)}")
    if op not in _OPS:
        raise ConfigError(f"unknown comparison {op!r}; known: {', '.join(_OPS)}")
    return Expectation(metric=metric, op=op)


@dataclass
class ComparisonResult:
    rows: list[dict] = field(default_factory=list)
    verdicts: list[dict] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(v["passed"] for v in self.verdicts)


def compare_reports(
    report_a: dict, report_b: dict, expectations: list[Expectation] | tuple[Expectation, ...] = ()
) -> ComparisonResult:
    """Relations between two reports plus verdicts for declared expectations."""
    if report_a.get("schema") != report_b.get("schema"):
        raise ConfigError(
            f"incompatible report schemas: {report_a.get('schema')} vs {report_b.get('schema')}"
        )
    result = ComparisonResult()
    for metric in _METRICS:
        a = extract_metric(report_a, metric)
        b = extract_metric(report_b, metric)
        if a is None or b is None:
            continue
        relation = "=" if a == b else ("<" if a < b else ">")
        result.rows.append({"metric": metric, "a": a, "b": b, "relation": relation})
    for expectation in expectations:
        a = extract_metric(report_a, expectation.metric)
        b = extract_metric(report_b, expectation.metric)
        passed = a is not None and b is not None and _OPS[expectation.op](a, b)
        result.verdicts.append(
            {"expectation": str(expectation), "a": a, "b": b, "passed": bool(passed)}
        )
    return result
