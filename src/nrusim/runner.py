"""Scenario execution, report assembly, and report comparison.

Identical (scenario, seed) pairs produce byte-identical reports and event
logs: the loop is single-threaded, every random draw comes from a named
substream of the scenario seed, and serialisation sorts its keys.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import Any, NamedTuple

from .calibration import Calibration, load_calibration
from .engine import EventLog, EventLoop, c_encoder, derive_rng
from .errors import ConfigError, InvariantBreach
from .metrics import (
    fold_sessions,
    passive_monitor,  # unused here, but perfbench/tracer.py patches runner.passive_monitor
    ping_ident,
    ping_stats,
    surviving_bytes,
    throughput_stats,
)
from .network import SimNetwork, tap_frames
from .pcapio import write_pcap
from .scenario import PingPlan, Scenario, tap_file_name

REPORT_SCHEMA = 1

def _indented_json(obj: Any, depth: int = 0) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` of a string-keyed tree at ``depth``.

    A dict or list whose values are all scalars is one call of the shared
    C encoder, whose item separator carries the line break and the items'
    indent, then wrapped in its indented brackets; any other container
    recurses here in sorted key order.
    """
    inner = "  " * (depth + 1)
    separator = ",\n" + inner
    encode = c_encoder(separator)
    is_dict = isinstance(obj, dict)
    if not is_dict and not isinstance(obj, (list, tuple)):
        return "".join(encode(obj, depth))
    values = obj.values() if is_dict else obj
    brackets = "{}" if is_dict else "[]"
    if not values:
        return brackets
    if any(isinstance(value, (dict, list, tuple)) for value in values):
        if is_dict:
            key = json.encoder.encode_basestring_ascii
            items = [f"{key(k)}: {_indented_json(v, depth + 1)}" for k, v in sorted(obj.items())]
        else:
            items = [_indented_json(v, depth + 1) for v in obj]
        body = separator.join(items)
    else:
        body = "".join(encode(obj, depth))[1:-1]
    return f"{brackets[0]}\n{inner}{body}\n{'  ' * depth}{brackets[1]}"


class RunResult(NamedTuple):
    scenario: Scenario
    report: dict
    log: EventLog
    taps: dict[str, list[tuple]]  # tap -> kept packets

    def frames(self, tap: str) -> list[tuple[int, bytes]]:
        """The tap's capture as ``(t_us, wire bytes)``, encoded on each call."""
        return tap_frames(self.taps[tap])

    def report_json(self) -> str:
        """``json.dumps(report, sort_keys=True, indent=2)``'s bytes and a newline.

        With ``indent``, ``json.dumps`` encodes in pure Python; this writes
        the same text through the shared C encoder (``_indented_json``).
        Its one fallback, when ``c_encoder`` is None, is ``json.dumps`` itself.
        """
        if c_encoder(",\n  ") is None:
            return json.dumps(self.report, sort_keys=True, indent=2) + "\n"
        return _indented_json(self.report) + "\n"

    def events_jsonl(self) -> str:
        return self.log.to_jsonl()


def run_scenario(scenario: Scenario) -> RunResult:
    """Execute attach flows and the traffic plan; fold results into a report."""
    calib = load_calibration()
    loop = EventLoop()
    log = EventLog()
    net = SimNetwork(scenario, loop, log, calib)
    net.attach_all()

    starts: list[int] = []  # when each throughput plan's ticks begin, in plan order
    cursor = net.attach_complete_us
    for index, plan in enumerate(scenario.traffic):
        rng = derive_rng(scenario.seed, f"probe:{plan.label}")
        if isinstance(plan, PingPlan):
            cursor = net.schedule_pings(plan, cursor, ping_ident(index), rng)
        else:
            starts.append(cursor)
            cursor = net.schedule_throughput(plan, cursor, rng)

    loop.run()
    return RunResult(
        scenario=scenario,
        report=_build_report(scenario, log, starts, net.taps, calib),
        log=log,
        taps=net.taps,
    )


def _build_report(scenario: Scenario, log: EventLog, starts: list[int],
                  taps: dict[str, list[tuple]], calib: Calibration) -> dict:
    """Fold the event log and the tapped packets into a report.

    One pass over the log builds every section it holds and checks the
    run: timestamps never decrease, and no two ``SESSION_ACTIVE`` records
    share an IP or a TEID; a breach raises ``InvariantBreach``.  Each
    ``ping_tx`` pairs with the first ``rtt_sample`` on the same (actor,
    ident, seq); a later duplicate reply pairs with nothing.  A ``bulk_tx``
    counts for the last throughput plan that ``starts`` had begun by its
    time, unless a ``radio_drop`` follows it in the same event.
    """
    attach = {ue.name: {"ue": ue.name, "phase": None, "ip": None, "scan_steps": None,
                        "failure": None} for ue in scenario.ues()}
    scanning_us: dict[str, int] = {}  # UE -> when its cell search began
    budgets: dict[str, dict] = {}
    sent_at: dict[tuple[str, int, int], int] = {}  # (actor, ident, seq) -> ping_tx time
    rtts: dict[int, list[float]] = {}  # ident -> RTTs in ms
    ticks: list[dict] = []  # the bulk_tx records of the ticks the relay passed, in time order
    counts = {"upf_drop": 0, "radio_drop": 0}
    ips: list[str] = []
    teids: list[int] = []
    last = -1
    for record in log.records:
        t_us, action = record["t_us"], record["action"]
        if t_us < last:
            raise InvariantBreach(f"event log timestamps decreased at {record['actor']}/{action}")
        last = t_us
        if action == "bulk_tx":
            ticks.append(record)
        elif action in counts:
            counts[action] += 1
            if action == "radio_drop" and ticks and ticks[-1]["t_us"] == t_us:
                ticks.pop()  # the relay dropped the tick this event logged
        elif action == "ping_tx":
            sent_at[(record["actor"], record["ident"], record["seq"])] = t_us
        elif action == "rtt_sample":
            t0 = sent_at.pop((record["actor"], record["ident"], record["seq"]), None)
            if t0 is not None:
                rtts.setdefault(record["ident"], []).append((t_us - t0) / 1000)
        elif action == "attach_phase":
            row = attach[record["actor"]]
            row["phase"] = phase = record["phase"]
            row["scan_steps"] = record.get("scan_steps", row["scan_steps"])
            row["ip"] = record.get("ip", row["ip"])
            if phase == "SCANNING":
                scanning_us[record["actor"]] = t_us
            elif phase == "SESSION_ACTIVE":
                ips.append(record["ip"])
                teids += (record["teid_uplink"], record["teid_downlink"])
        elif action == "attach_failed":
            row = attach[record["actor"]]
            row["failure"] = record["reason"]
            if row["scan_steps"] is None:  # no cell found: it failed when its sweep ended
                row["scan_steps"] = (t_us - scanning_us[row["ue"]]) // calib.scan_step_us
        elif action == "link_budget":
            budgets[record["actor"]] = record
    if len(set(ips)) != len(ips):
        raise InvariantBreach(f"duplicate session IP among active sessions: {sorted(ips)}")
    if len(set(teids)) != len(teids):
        raise InvariantBreach(f"duplicate TEID among active sessions: {sorted(teids)}")
    edges = [bisect_left(ticks, start, key=itemgetter("t_us")) for start in starts]
    bounds = zip(edges, [*edges[1:], len(ticks)])  # each throughput plan's ticks, in plan order
    pings, throughput = [], []
    for index, plan in enumerate(scenario.traffic):
        if isinstance(plan, PingPlan):
            stats = ping_stats(plan.count, rtts.get(ping_ident(index), []))
            pings.append({"label": plan.label, "src": plan.src, "dst": plan.dst, **stats._asdict()})
            continue
        begin, end = next(bounds)
        drop = budgets[plan.ue]["drop_fraction"]
        delivered: dict[tuple[int, int], int] = {}  # (window, sub) -> surviving bytes
        tally = Counter(map(itemgetter("window", "sub", "size"), ticks[begin:end]))
        for (window, sub, size), n in tally.items():
            nbytes = n * surviving_bytes(size, drop)
            delivered[window, sub] = delivered.get((window, sub), 0) + nbytes
        throughput.append({"label": plan.label, "ue": plan.ue,
                           **throughput_stats(plan, delivered)._asdict()})
    # Kept packets always parse; ROADMAP item 5 drops the always-0 unparsed_frames key.
    passive = {tap: {"unparsed_frames": 0,
                     "sessions": [s._asdict() for s in fold_sessions(entries)]}
               for tap, entries in taps.items()}
    return {
        "schema": REPORT_SCHEMA,
        "scenario": scenario.name,
        "seed": scenario.seed,
        # Sibling log: everything but passive (tapped packets) is recomputable from it.
        "event_log": "events.jsonl",
        "notes": list(scenario.notes),
        "attach": list(attach.values()),
        "rsrp_dbm": {name: budget["rsrp_dbm"] for name, budget in budgets.items()},
        "link": {
            name: {key: budget[key] for key in ("required_msps", "drop_fraction", "viable")}
            for name, budget in budgets.items()
        },
        "pings": pings,
        "throughput": throughput,
        "passive": passive,
        "counters": {
            "upf_dropped_no_session": counts["upf_drop"],
            "radio_dropped_bulk": counts["radio_drop"],
            "lbt_deferred": 0,  # the LBT gate always grants; ROADMAP item 5 drops this key
        },
        "event_count": len(log),
    }


def make_out_dir(out_dir: str | Path) -> Path:
    """The output directory, made if missing; ConfigError when it cannot be."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out names a file, or a path under one, or is not writable
        raise ConfigError(f"cannot write outputs to directory {out}: {exc}") from None
    return out


def write_outputs(result: RunResult, out_dir: str | Path, pcap: bool = False) -> Path:
    """Write the optional per-tap pcap files, then events.jsonl, then report.json.

    report.json comes last, so it marks a complete run: a pcap that
    cannot be written leaves neither of the other two.  events.jsonl is
    written one ``EventLog.jsonl_chunks`` chunk at a time, so the whole log
    text is never in memory; a record that cannot be encoded removes the
    part written and raises what ``json.dumps`` raises.
    """
    out = make_out_dir(out_dir)
    events = out / "events.jsonl"
    try:
        if pcap:
            for tap in result.taps:
                write_pcap(out / tap_file_name(tap), result.frames(tap))
        with events.open("w", encoding="utf-8") as file:  # as Path.write_text opens it
            try:
                file.writelines(result.log.jsonl_chunks())
            except OSError:  # a failed write keeps what it wrote, as Path.write_text did
                raise
            except BaseException:  # a record that cannot be encoded: leave no events.jsonl
                file.close()
                events.unlink()
                raise
        (out / "report.json").write_text(result.report_json(), encoding="utf-8")
    except OSError as exc:  # e.g. report.json is a directory
        raise ConfigError(f"cannot write outputs to directory {out}: {exc}") from None
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


def load_report(path: str | Path) -> dict:
    """Read a ``report.json``; a file that is not a JSON object is a ConfigError."""
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # undecodable bytes, not JSON, or too deep
        raise ConfigError(f"{path}: not a JSON report: {exc}") from None
    if not isinstance(report, dict):
        raise ConfigError(f"{path}: a report is a JSON object, not a {type(report).__name__}")
    return report


def _rows(report: dict, section: str) -> list[dict]:
    rows = report.get(section, [])
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ConfigError(f"report section {section!r} must be a list of objects")
    return rows


def _metric_rows(report: dict, metric: str) -> list[dict]:
    """The rows a metric reads: every ping row, or the throughput rows of its direction."""
    if metric.startswith("rtt_"):
        return _rows(report, "pings")
    direction = "UL" if metric.startswith("ul_") else "DL"
    rows = _rows(report, "throughput")
    if any("direction" not in row for row in rows):
        raise ConfigError("every report throughput row needs a 'direction'")
    return [row for row in rows if row["direction"] == direction]


def _by_label(rows: list[dict], metric: str) -> dict[str, dict]:
    by_label: dict[str, dict] = {}
    for row in rows:
        label = row.get("label")
        if not isinstance(label, str) or label in by_label:
            raise ConfigError(f"report rows of {metric} need distinct string labels, "
                              f"got {label!r}")
        by_label[label] = row
    return by_label


def _metric_value(row: dict, metric: str) -> float | None:
    value = row.get(metric[len("rtt_"):] if metric.startswith("rtt_") else metric[3:])
    if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))
                              or value != value):  # NaN: json.loads accepts it
        raise ConfigError(f"report metric {metric} is not a number: {value!r}")
    return value


def extract_metric(report: dict, name: str) -> float | None:
    """Pull one comparable metric out of a report dict; a malformed report is a ConfigError.

    ``name`` is a metric, read from the metric's only row, or
    ``metric@label``, read from the row with that traffic label.  None
    when the report has no row for the metric; a label the report lacks,
    or a bare metric over several rows, is a ConfigError.
    """
    metric, _, label = name.partition("@")
    rows = _metric_rows(report, metric)
    if label:
        row = _by_label(rows, metric).get(label)
        if row is None:
            raise ConfigError(f"report has no {metric} row labelled {label!r}")
        return _metric_value(row, metric)
    if len(rows) > 1:
        raise ConfigError(f"report has {len(rows)} {metric} rows; name one as {metric}@<label>")
    return _metric_value(rows[0], metric) if rows else None


def _row_pairs(report_a: dict, report_b: dict, metric: str) -> list[tuple[str, dict, dict]]:
    """A metric's rows in both reports, paired by label, each with its name.

    A report without the metric's rows pairs nothing.  One row in each
    pairs whatever its labels, under the bare metric name.  Otherwise a
    label in only one report is a ConfigError naming it, and each pair is
    named ``metric@label``.
    """
    rows_a, rows_b = _metric_rows(report_a, metric), _metric_rows(report_b, metric)
    if not rows_a or not rows_b:
        return []
    if len(rows_a) == len(rows_b) == 1:
        return [(metric, rows_a[0], rows_b[0])]
    by_label_a, by_label_b = _by_label(rows_a, metric), _by_label(rows_b, metric)
    for label in [*by_label_a, *by_label_b]:
        if label not in by_label_a or label not in by_label_b:
            side = "a" if label in by_label_a else "b"
            raise ConfigError(f"traffic label {label!r} has {metric} only in report {side}")
    return [(f"{metric}@{label}", row, by_label_b[label]) for label, row in by_label_a.items()]


class Expectation(NamedTuple):
    metric: str  # a metric, or metric@label for one traffic label's row
    op: str  # key into _OPS

    def __str__(self) -> str:
        return f"{self.metric}:{self.op}"


def parse_expectation(text: str) -> Expectation:
    """Parse "metric:a>b"-style expectation strings; "metric@label:a>b" names a row."""
    if ":" not in text:
        raise ConfigError(f"expectation {text!r} must look like 'dl_peak_mbps:a>b'")
    name, op = text.rsplit(":", 1)  # a label may hold ':', an operator never does
    metric, at, label = name.partition("@")
    if metric not in _METRICS:
        raise ConfigError(f"unknown metric {metric!r}; known: {', '.join(_METRICS)}")
    if at and not label:
        raise ConfigError(f"expectation {text!r} names an empty label")
    if op not in _OPS:
        raise ConfigError(f"unknown comparison {op!r}; known: {', '.join(_OPS)}")
    return Expectation(metric=name, op=op)


class ComparisonResult(NamedTuple):
    rows: list[dict]
    verdicts: list[dict]

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
    result = ComparisonResult([], [])
    for metric in _METRICS:
        for name, row_a, row_b in _row_pairs(report_a, report_b, metric):
            a, b = _metric_value(row_a, metric), _metric_value(row_b, metric)
            if a is None or b is None:
                continue
            relation = "=" if a == b else ("<" if a < b else ">")
            result.rows.append({"metric": name, "a": a, "b": b, "relation": relation})
    for expectation in expectations:
        a = extract_metric(report_a, expectation.metric)
        b = extract_metric(report_b, expectation.metric)
        passed = a is not None and b is not None and _OPS[expectation.op](a, b)
        result.verdicts.append(
            {"expectation": str(expectation), "a": a, "b": b, "passed": bool(passed)}
        )
    return result
