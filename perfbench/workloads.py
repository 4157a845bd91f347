"""The benchmark's workloads: their inputs, one timed pass, and the output checks.

A job is one scenario run the way the CLI runs it: load and validate,
``run_scenario``, ``write_outputs``, and for ``bundled_suite`` the pcap
export read back through ``read_pcap`` + ``passive_monitor`` as
``nrusim monitor`` does.  Every call goes through a module attribute, so
the tracer's wrappers see it.  Checks run after the timer stops.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

import generators
from nrusim import metrics, pcapio, runner
from nrusim import scenario as scenario_mod
from nrusim.calibration import load_calibration

HERE = Path(__file__).resolve().parent
REFERENCE_SECTIONS = ("attach", "pings", "throughput", "passive", "counters")


@dataclass
class Job:
    name: str
    path: Path | None = None  # bundled YAML file
    raw: dict | None = None  # generated scenario mapping


@dataclass
class JobOutput:
    events: int
    report: dict
    scenario: object
    log_records: list
    out: Path
    monitored: dict[str, object] = field(default_factory=dict)


def execute(job: Job, out_dir: Path, monitor: bool) -> JobOutput:
    """The timed part of one job; returns its outputs for the checks."""
    if job.path is not None:
        scenario = scenario_mod.load_scenario(job.path)
    else:
        scenario = scenario_mod.scenario_from_dict(job.raw, name_hint=job.name)
    result = runner.run_scenario(scenario)
    out = runner.write_outputs(result, out_dir, pcap=monitor)
    monitored = {}
    if monitor:
        for tap in result.taps:
            pcap = out / f"tap_{tap.replace(':', '_')}.pcap"
            monitored[tap] = metrics.passive_monitor(pcapio.read_pcap(pcap))
    return JobOutput(events=len(result.log), report=result.report, scenario=scenario,
                     log_records=result.log.records, out=out, monitored=monitored)


def file_digests(out: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("report.json", "events.jsonl")}


def sections_digest(report: dict) -> str:
    body = json.dumps({k: report[k] for k in REFERENCE_SECTIONS}, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


def _load_json(name: str) -> dict:
    return json.loads((HERE / name).read_text(encoding="utf-8"))


def _monitor_matches_report(output: JobOutput) -> list[str]:
    """The offline monitor of each exported tap must agree with the run's passive block."""
    problems = []
    for tap, monitored in output.monitored.items():
        expected = output.report["passive"][tap]
        got = {
            "unparsed_frames": monitored.unparsed_frames,
            "sessions": [
                {"session_id": s.session_id, "left": s.left, "right": s.right,
                 "packet_count": s.packet_count, "rtt_latest_ms": s.rtt_latest_ms}
                for s in monitored.sessions
            ],
        }
        if got != expected:
            problems.append(f"monitor of exported tap {tap} disagrees with the report")
    return problems


class Workload:
    name = ""
    why = ""
    monitor = False  # also export taps and monitor them offline

    def __init__(self, seed: int):
        self.first_digests: dict[str, dict[str, str]] = {}

    def jobs(self) -> list[Job]:
        raise NotImplementedError

    def check(self, job: Job, output: JobOutput) -> list[str]:
        """Problems with one job's outputs; empty when correct."""
        problems = self.check_purpose(output) + _monitor_matches_report(output)
        digests = file_digests(output.out)
        if digests != self.first_digests.setdefault(job.name, digests):
            problems.append("outputs differ from the first pass in this process")
        return problems

    def check_purpose(self, output: JobOutput) -> list[str]:
        raise NotImplementedError


class BundledSuite(Workload):
    name = "bundled_suite"
    why = ("the six bundled YAML scenarios through the CLI path: YAML load, serialisation "
           "and pcap I/O dominate; exact output bytes are checked")
    monitor = True

    def __init__(self, seed: int):
        super().__init__(seed)
        self.expected = _load_json("digests.json")

    def jobs(self) -> list[Job]:
        # The bundled inputs are fixed; the seed only goes into the output.
        return [Job(name=name, path=scenario_mod.bundled_scenario_path(name))
                for name in scenario_mod.BUNDLED]

    def check(self, job: Job, output: JobOutput) -> list[str]:
        problems = super().check(job, output)
        if self.first_digests[job.name] != self.expected[job.name]:
            problems.append("outputs differ from the digests recorded with the benchmark")
        return problems

    def check_purpose(self, output: JobOutput) -> list[str]:
        report = output.report
        if report["scenario"] != "test_d":
            return []
        live = any(p["received"] > 0 for p in report["pings"])
        dead = bool(report["throughput"]) and all(
            t["delivered_bytes"] == 0 and t["peak_mbps"] == 0 for t in report["throughput"])
        return [] if live and dead else ["test_d no longer shows live pings and zero throughput"]


class Generated(Workload):
    """A workload whose one scenario comes from a seeded generator."""

    generator = None

    def __init__(self, seed: int):
        super().__init__(seed)
        self.raw = type(self).generator(seed)
        self.reference = _load_json("reference.json")[self.name].get(str(seed))

    def jobs(self) -> list[Job]:
        return [Job(name=self.raw["name"], raw=self.raw)]

    def check(self, job: Job, output: JobOutput) -> list[str]:
        problems = super().check(job, output)
        if self.reference is not None and sections_digest(output.report) != self.reference:
            problems.append("report sections differ from the stored reference for this seed")
        return problems


class PingFleet(Generated):
    name = "ping_fleet"
    why = ("~200 UEs pinging east-west, N6 and the gateway: per-packet codec, UPF "
           "routing, per-UE attach and the passive monitor dominate; LBT sees no bursts")
    generator = staticmethod(generators.ping_fleet)

    def check_purpose(self, output: JobOutput) -> list[str]:
        report = output.report
        ue_names = {n.name for n in output.scenario.ues()}
        problems = []
        east_west = sum(p["received"] for p in report["pings"] if p["dst"] in ue_names)
        external = sum(p["received"] for p in report["pings"] if p["dst"] == "external")
        if not east_west:
            problems.append("no east-west echo reply was received")
        if not external:
            problems.append("no external echo reply was received")
        for tap, block in report["passive"].items():
            if not block["sessions"]:
                problems.append(f"tap {tap} saw no ICMP session")
        failures = {row["failure"] for row in report["attach"] if row["failure"]}
        if not {"unknown-subscriber", "no-cell-found"} <= failures:
            problems.append("the reject and no-cell attach paths did not run")
        return problems


class ContendedBulk(Generated):
    name = "contended_bulk"
    why = ("one UE saturating UL then DL under dense foreign bursts: the LBT gate and "
           "TDD alignment dominate; bulk ticks skip the codec and the UPF")
    generator = staticmethod(generators.contended_bulk)

    def check_purpose(self, output: JobOutput) -> list[str]:
        problems = []
        if not sum(t["delivered_bytes"] for t in output.report["throughput"]):
            problems.append("no bulk bytes were delivered")
        if not first_sensing_busy(output.scenario, output.log_records):
            problems.append("no LBT gate found the channel busy")
        return problems


def first_sensing_busy(scenario, records) -> int:
    """Bulk ticks whose first clear-channel assessment overlaps a blocking burst.

    The LBT gate senses [ready, ready + CCA) first, where ready is the
    tick's log time plus the fixed processing ahead of the radio.  Any
    such tick makes at least one busy observation, so a positive count
    proves the gate saw a busy channel.  Downlink ticks are logged by the
    core, so this expects a single UE.
    """
    calib = load_calibration()
    lbt = scenario.cell.lbt
    blocking = [b for b in scenario.occupancy.bursts if b.power_dbm >= lbt.cca_threshold_dbm]
    starts = [b.start_us for b in blocking]
    longest = max((b.end_us - b.start_us for b in blocking), default=0)
    links = {ue.name: (ue, scenario.node(ue.gnb)) for ue in scenario.ues()}
    busy = 0
    for record in records:
        if record["action"] != "bulk_tx":
            continue
        if record["direction"] == "UL":
            ue, _gnb = links[record["actor"]]
            ready = record["t_us"] + calib.ue_proc_us + ue.host.added_latency_us
        else:
            ue, gnb = next(iter(links.values()))
            ready = (record["t_us"] + calib.core_proc_us + calib.gnb_proc_us
                     + gnb.host.added_latency_us)
        end = ready + lbt.cca_duration_us
        for b in blocking[bisect_left(starts, ready - longest):bisect_left(starts, end)]:
            if b.end_us > ready:
                busy += 1
                break
    return busy


WORKLOADS = {w.name: w for w in (BundledSuite, PingFleet, ContendedBulk)}
