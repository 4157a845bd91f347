"""A frozen reference network for the differential tests of ``SimNetwork``.

``ReferenceNetwork`` has the surface that the old probe schedulers
use, and ``reference_run`` runs a scenario on it in place of
``SimNetwork``.  It holds a ``SimNetwork`` for the link budget, attach and
the route table only; every event after attach runs in its own code, in
the designs the live path replaced:

- Eager bytes: a packet is encoded as it enters the access leg, its size
  is the length of those bytes, and the taps keep wire bytes (the N3 tap
  the tunnelled frame).  The run folds its ``passive`` section by
  decoding them again with ``byte_passive_monitor``.
- Closures and lambdas for every continuation, a lambda per bulk tick
  and an ``rx`` closure per arrival, which hands the tick's surviving
  bytes and its ``(window, sub)`` tag to its probe's callback.
- A walk over a hop table per link and direction, whose ``RADIO`` and
  ``GNB`` markers sit between fixed delays computed from the calibration.
  Every radio hop asks ``access.lbt_gate``, on an LBT substream that
  every link derives, bursts or none, and then checks the relay.
- Every guard for traffic no run makes: a packet to the gateway or the
  UPF that is not a request, a non-ICMP egress, a non-request at the
  external host, an N6 reply with no NAT entry, a packet at a UE that is
  neither request nor reply, a gNB stop without a session or N3 address.
- A session check per event: every echo request and every bulk tick is
  scheduled, and each looks up its UE's session when it fires.

It keeps its own IP ident counter, NAT table and taps.

``reference_run`` runs the runner's old loop over it, which queues pings
with the old duck-typed ``schedule_pings``: it draws every phase, even
for a destination without an address.  Each throughput
plan is a ``ThroughputProbe`` that tallies the bytes each arrival hands
it, and the report is folded as the runner once did, in several passes:
``check_invariants`` reads the sessions from the core after the run and
walks the log's timestamps, and ``multi_pass_report`` folds the log,
pairs pings in ``ping_rtts_ms``, counts actions with a ``Counter`` and
takes each throughput row from its probe's tally.
"""

from __future__ import annotations

from collections import Counter
from random import Random
from typing import Iterable

from nrusim import access, runner
from nrusim.calibration import Calibration, load_calibration
from nrusim.engine import EventLog, EventLoop, derive_rng
from nrusim.errors import CodecError, InvariantBreach
from nrusim.metrics import (
    MonitorReport,
    PassiveSession,
    ThroughputStats,
    flow_session_id,
    ping_ident,
    ping_stats,
)
from nrusim.network import SimNetwork, link_capacity_mbps
from nrusim.rflink import OverAir
from nrusim.scenario import PingPlan, ThroughputPlan
from nrusim.userplane import (
    FORWARD_DROP,
    FORWARD_TUNNEL,
    GTPU_PORT,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ForwardDecision,
    InnerPacket,
    decode_gtpu,
    decode_ip,
    echo_reply_for,
    encode_gtpu,
    encode_ip,
    icmp_echo_request,
    relay_passes,
    upf_forward,
)

# Hop-table stops; every other entry is a fixed delay in microseconds.
RADIO = "radio"
GNB = "gnb"


class ReferenceNetwork:
    """One scenario run's traffic, from the first ping or bulk tick on."""

    def __init__(self, scenario, loop, log, calib):
        self.sim = SimNetwork(scenario, loop, log, calib)  # link budget, attach, routes
        self.scenario, self.loop, self.log, self.calib = scenario, loop, log, calib
        self.core, self.links = self.sim.core, self.sim.links
        self.taps: dict[str, list[tuple[int, bytes]]] = {t: [] for t in scenario.taps}
        self.attach_complete_us = 0
        self.nat: dict[tuple[str, int | None], str] = {}
        self.ident = 0
        self.lbt_rng, self.radio_us, self.hops = {}, {}, {}
        for ue in scenario.ues():
            gnb = scenario.node(ue.gnb)
            ue_us = calib.ue_proc_us + ue.host.added_latency_us
            core_us = calib.gnb_proc_us + gnb.host.added_latency_us + calib.core_proc_us
            self.lbt_rng[ue.name] = derive_rng(scenario.seed, f"lbt:{ue.name}")
            self.radio_us[ue.name] = calib.radio_proc_us + (
                calib.over_air_extra_us if isinstance(ue.medium, OverAir) else 0)
            self.hops[ue.name] = {"UL": (ue_us, RADIO, GNB, core_us),
                                  "DL": (core_us, GNB, RADIO, ue_us)}

    def attach_all(self) -> None:
        self.sim.attach_all()
        self.attach_complete_us = self.sim.attach_complete_us

    def resolve_dst(self, dst: str) -> str | None:
        return self.sim.resolve_dst(dst)

    def next_ident(self) -> int:
        self.ident = self.ident % 0xFFFF + 1
        return self.ident

    def tap(self, name: str, frame: bytes | InnerPacket) -> None:
        frames = self.taps.get(name)
        if frames is not None:
            frames.append((self.loop.now_us, frame if type(frame) is bytes else encode_ip(frame)))

    # -- pings ---------------------------------------------------------------

    def schedule_icmp_echo(self, ue_name, dst_ip, ident, seq, at_us, rng) -> None:
        def emit():
            session = self.core.sessions.get(ue_name)
            if session is None:
                self.log.append({"t_us": self.loop.now_us, "actor": ue_name,
                                 "action": "ping_no_route", "seq": seq})
                return
            inner = icmp_echo_request(session.ip, dst_ip, ident, seq)
            self.log.append({"t_us": self.loop.now_us, "actor": ue_name, "action": "ping_tx",
                             "dst": dst_ip, "seq": seq, "ident": ident})
            self.send(ue_name, "UL", inner, rng)

        self.loop.schedule_at(at_us, emit)

    def send(self, ue_name, direction, inner, rng) -> None:
        if not inner.ident:
            inner = inner._replace(ident=self.next_ident())
        wire = encode_ip(inner)
        if direction == "UL":
            self.tap(f"ue:{ue_name}", wire)
            done = lambda: self.upf_ingress(inner, rng)
        else:
            done = lambda: self.deliver_to_ue(ue_name, inner, rng)
        self.traverse(self.links[ue_name], direction, self.loop.now_us, len(wire), done, rng,
                      wire)

    # -- access leg ------------------------------------------------------------

    def traverse(self, link, direction, t, size, done, rng=None, wire=None, start=0) -> None:
        """Walk the hop table from ``start``; a packet (``wire`` set) stops at the gNB."""
        name = link.ue.name
        hops = self.hops[name][direction]
        for index in range(start, len(hops)):
            hop = hops[index]
            if hop is RADIO:
                gate = access.lbt_gate(self.scenario.occupancy, self.scenario.cell.lbt, t,
                                       self.lbt_rng[name])
                t = access.next_transmit_time(self.scenario.cell.tdd, direction, gate.grant_us)
                if not relay_passes(link.viable, size):
                    self.log.append({"t_us": self.loop.now_us, "actor": link.gnb.name,
                                     "action": "radio_drop", "direction": direction,
                                     "size": size})
                    return
                t += self.radio_us[name]
                if rng is not None:
                    t += rng.randint(0, self.calib.jitter_max_us)
            elif hop is GNB:
                if wire is not None:
                    def gnb_step():
                        self.gnb_step(link, direction, wire)
                        self.traverse(link, direction, self.loop.now_us, size, done, rng, wire,
                                      index + 1)

                    self.loop.schedule_at(t, gnb_step)
                    return
            else:
                t += hop
        self.loop.schedule_at(t, done)

    def gnb_step(self, link, direction, wire: bytes) -> None:
        uplink = direction == "UL"
        session = self.core.sessions.get(link.ue.name)
        teid = (session.teid_uplink if uplink else session.teid_downlink) if session else 0
        self.log.append({"t_us": self.loop.now_us, "actor": link.gnb.name,
                         "action": "gtpu_ul" if uplink else "gtpu_dl", "teid": teid,
                         "size": len(wire)})
        ident = self.next_ident()  # at every stop, tapped or not
        gnb_addr = link.gnb.n3_address or self.core.config.amf_address
        upf_addr = self.core.config.upf_address
        src, dst = (gnb_addr, upf_addr) if uplink else (upf_addr, gnb_addr)
        self.tap(f"n3:{link.gnb.name}",
                 InnerPacket(src=src, dst=dst, protocol="UDP", payload=encode_gtpu(teid, wire),
                             ident=ident, sport=GTPU_PORT, dport=GTPU_PORT))

    # -- UPF, N6 and the UE stack ----------------------------------------------

    def upf_ingress(self, inner, rng) -> None:
        if inner.dst in (self.sim.gateway, self.core.config.upf_address):
            if inner.icmp_type == ICMP_ECHO_REQUEST:
                self.log.append({"t_us": self.loop.now_us, "actor": "core",
                                 "action": "core_echo", "seq": inner.icmp_seq, "src": inner.src})
                self.upf_ingress(echo_reply_for(inner), rng)
            return
        self.apply_forward(upf_forward(inner, self.sim.routes), inner, rng)

    def apply_forward(self, decision: ForwardDecision, inner, rng) -> None:
        now = self.loop.now_us
        if decision.action == FORWARD_DROP:
            self.log.append({"t_us": now, "actor": "upf", "action": "upf_drop", "dst": inner.dst})
            return
        if decision.action == FORWARD_TUNNEL:
            session = decision.session
            self.log.append({"t_us": now, "actor": "upf", "action": "upf_tunnel",
                             "dst": inner.dst, "teid": session.teid_downlink})
            self.send(session.ue_id, "DL", decision.packet, rng)
            return
        rewritten = decision.packet
        if inner.protocol == "ICMP":
            self.nat[("ICMP", inner.icmp_id)] = inner.src
        self.log.append({"t_us": now, "actor": "upf", "action": "upf_egress",
                         "dst": rewritten.dst, "visible_src": rewritten.src})
        self.tap("n6", rewritten)
        self.loop.schedule_after(self.scenario.external.one_way_delay_us,
                                 lambda: self.external_ingress(rewritten, rng))

    def external_ingress(self, pkt, rng) -> None:
        if pkt.icmp_type != ICMP_ECHO_REQUEST:
            return
        reply = echo_reply_for(pkt, ttl=self.scenario.external.ttl)
        self.log.append({"t_us": self.loop.now_us, "actor": "external",
                         "action": "external_reply", "to": reply.dst, "seq": reply.icmp_seq})
        self.loop.schedule_after(self.scenario.external.one_way_delay_us,
                                 lambda: self.n6_ingress(reply, rng))

    def n6_ingress(self, pkt, rng) -> None:
        if not pkt.ident:
            pkt = pkt._replace(ident=self.next_ident())
        self.tap("n6", pkt)
        original = self.nat.get((pkt.protocol, pkt.icmp_id))
        if original is None:
            self.apply_forward(ForwardDecision(action=FORWARD_DROP), pkt, rng)
            return
        restored = pkt._replace(dst=original)
        self.apply_forward(upf_forward(restored, self.sim.routes), restored, rng)

    def deliver_to_ue(self, ue_name, inner, rng) -> None:
        now = self.loop.now_us
        self.tap(f"ue:{ue_name}", inner)
        if inner.icmp_type == ICMP_ECHO_REPLY:
            self.log.append({"t_us": now, "actor": ue_name, "action": "rtt_sample",
                             "ident": inner.icmp_id, "seq": inner.icmp_seq,
                             "session": flow_session_id("ICMP", inner.icmp_id)})
        elif inner.icmp_type == ICMP_ECHO_REQUEST:
            self.log.append({"t_us": now, "actor": ue_name, "action": "ue_echo",
                             "seq": inner.icmp_seq, "src": inner.src})
            self.send(ue_name, "UL", echo_reply_for(inner), rng)

    # -- bulk ticks ------------------------------------------------------------

    def schedule_bulk_tick(self, ue_name, direction, at_us, nbytes, tag, delivered_cb) -> None:
        self.loop.schedule_at(at_us, lambda: self.bulk(ue_name, direction, nbytes, tag,
                                                       delivered_cb))

    def bulk(self, ue_name, direction, nbytes, tag, delivered_cb) -> None:
        if ue_name not in self.core.sessions:
            return
        link = self.links[ue_name]
        sender, receiver = (ue_name, "core") if direction == "UL" else ("core", ue_name)
        self.log.append({"t_us": self.loop.now_us, "actor": sender, "action": "bulk_tx",
                         "direction": direction, "size": nbytes, "window": tag[0],
                         "sub": tag[1]})
        delivered = nbytes if link.drop_fraction == 0 else round(nbytes * (1 - link.drop_fraction))

        def rx():
            self.log.append({"t_us": self.loop.now_us, "actor": receiver, "action": "bulk_rx",
                             "direction": direction, "size": delivered, "window": tag[0],
                             "sub": tag[1]})
            delivered_cb(tag, delivered)

        self.traverse(link, direction, self.loop.now_us, nbytes, rx)


class ThroughputProbe:
    """iPerf-style saturating load in one direction.

    Each one-second window transmits a contiguous burst of line-rate
    ticks covering a seeded fraction of the window, so the best 100 ms
    sub-window observes the full line rate while window means wander the
    way interval reports do.  Delivery is whatever actually survives the
    simulated path; a dead link reports zeros.
    """

    SUBS_PER_WINDOW = 10  # 100 ms peak-detection sub-windows

    def __init__(self, plan: ThroughputPlan, capacity_mbps: float, calib: Calibration,
                 rng: Random):
        self.plan = plan
        self.capacity_mbps = capacity_mbps
        self.calib = calib
        self.rng = rng
        self.delivered: dict[tuple[int, int], int] = {}

    def schedule(self, net, start_us: int) -> int:
        tick_us = self.calib.tick_ms * 1000
        ticks_per_window = 1_000_000 // tick_us
        bytes_per_tick = round(self.capacity_mbps * 1e6 * self.calib.tick_ms / 1000 / 8)
        sub_ticks = ticks_per_window // self.SUBS_PER_WINDOW
        # Read and bound once, not per tick.
        ue, direction = self.plan.ue, self.plan.direction
        schedule_tick, on_delivered = net.schedule_bulk_tick, self._on_delivered
        for window in range(self.plan.duration_s):
            burst = self.rng.uniform(self.calib.window_burst_low, self.calib.window_burst_high)
            on_ticks = round(burst * ticks_per_window)
            base_us = start_us + window * 1_000_000
            for j in range(on_ticks):
                schedule_tick(ue, direction, base_us + j * tick_us, bytes_per_tick,
                              (window, j // sub_ticks), on_delivered)
        return start_us + self.plan.duration_s * 1_000_000 + 1_000_000

    def _on_delivered(self, tag: tuple[int, int], nbytes: int) -> None:
        self.delivered[tag] = self.delivered.get(tag, 0) + nbytes

    def stats(self) -> ThroughputStats:
        sub_s = 1.0 / self.SUBS_PER_WINDOW
        peak = max((b * 8 / sub_s / 1e6 for b in self.delivered.values()), default=0.0)
        windows = [0.0] * self.plan.duration_s
        for (window, _sub), nbytes in self.delivered.items():
            windows[window] += nbytes * 8 / 1e6
        return ThroughputStats(
            direction=self.plan.direction,
            peak_mbps=round(peak, 3),
            avg_low_mbps=round(min(windows, default=0.0), 3),
            avg_high_mbps=round(max(windows, default=0.0), 3),
            delivered_bytes=sum(self.delivered.values()),
        )


def schedule_pings(net, plan: PingPlan, start_us: int, ident: int, rng: Random) -> int:
    """Queue the plan's echo requests; returns a completion-time estimate.

    A destination without an address draws the same phases and sends
    nothing: 100% loss.
    """
    dst_ip = net.resolve_dst(plan.dst)
    phase_max = net.calib.ping_phase_max_us
    for seq in range(plan.count):
        at = start_us + seq * plan.interval_ms * 1000 + rng.randrange(phase_max)
        if dst_ip is not None:
            net.schedule_icmp_echo(plan.src, dst_ip, ident, seq, at, rng)
    return start_us + plan.count * plan.interval_ms * 1000 + phase_max + 1_000_000


def byte_passive_monitor(frames) -> MonitorReport:
    """The passive monitor as one loop that decodes and folds each frame in turn.

    Each session is a dict of its fields while it is folded.
    """
    sessions: list[dict] = []
    unparsed = 0
    by_id: dict[int, dict] = {}
    pending: dict[tuple[int, int], int] = {}
    for t_us, raw in frames:
        try:
            pkt = decode_ip(raw)
            if pkt.protocol == "UDP" and GTPU_PORT in (pkt.sport, pkt.dport):
                _teid, inner = decode_gtpu(pkt.payload)
                pkt = decode_ip(inner)
        except CodecError:
            unparsed += 1
            continue
        if pkt.protocol != "ICMP" or pkt.icmp_type not in (ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY):
            continue
        sid = flow_session_id("ICMP", pkt.icmp_id)
        session = by_id.get(sid)
        if session is None:
            request_side = pkt.icmp_type == ICMP_ECHO_REQUEST
            session = dict(
                session_id=sid,
                left=pkt.src if request_side else pkt.dst,
                right=pkt.dst if request_side else pkt.src,
                packet_count=0,
                rtt_latest_ms=None,
            )
            by_id[sid] = session
            sessions.append(session)
        session["packet_count"] += 1
        key = (pkt.icmp_id, pkt.icmp_seq)
        if pkt.icmp_type == ICMP_ECHO_REQUEST:
            pending[key] = t_us
        else:
            sent = pending.pop(key, None)
            if sent is not None and t_us >= sent:
                session["rtt_latest_ms"] = round((t_us - sent) / 1000, 3)
    return MonitorReport([PassiveSession(**session) for session in sessions], unparsed)


def byte_fold_sessions(frames) -> list[PassiveSession]:
    """The run's fold over byte taps: the single loop's sessions, every frame parsed."""
    report = byte_passive_monitor(frames)
    assert report.unparsed_frames == 0  # a tap keeps only frames the run built
    return report.sessions


def ping_rtts_ms(records: Iterable[dict]) -> dict[int, list[float]]:
    """RTTs in ms per ICMP identifier, folded from event-log records.

    Each ``ping_tx`` pairs with the first ``rtt_sample`` on the same
    (actor, ident, seq); a later duplicate reply pairs with nothing.
    """
    sent_at: dict[tuple[str, int, int], int] = {}
    rtts: dict[int, list[float]] = {}
    for record in records:
        action = record["action"]
        if action == "ping_tx":
            sent_at[(record["actor"], record["ident"], record["seq"])] = record["t_us"]
        elif action == "rtt_sample":
            t0 = sent_at.pop((record["actor"], record["ident"], record["seq"]), None)
            if t0 is not None:
                rtts.setdefault(record["ident"], []).append((record["t_us"] - t0) / 1000)
    return rtts


def check_invariants(net, log) -> None:
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


def multi_pass_report(scenario, log, tallies, taps, calib) -> dict:
    """Fold the event log, the throughput tallies and the tapped packets into a report."""
    attach = {ue.name: {"ue": ue.name, "phase": None, "ip": None, "scan_steps": None,
                        "failure": None} for ue in scenario.ues()}
    scanning_us: dict[str, int] = {}  # UE -> when its cell search began
    budgets: dict[str, dict] = {}
    for record in log.records:
        action = record["action"]
        if action == "attach_phase":
            row = attach[record["actor"]]
            row["phase"] = record["phase"]
            row["scan_steps"] = record.get("scan_steps", row["scan_steps"])
            row["ip"] = record.get("ip", row["ip"])
            if row["phase"] == "SCANNING":
                scanning_us[record["actor"]] = record["t_us"]
        elif action == "attach_failed":
            row = attach[record["actor"]]
            row["failure"] = record["reason"]
            if row["scan_steps"] is None:  # no cell found: it failed when its sweep ended
                row["scan_steps"] = (record["t_us"] - scanning_us[row["ue"]]) // calib.scan_step_us
        elif action == "link_budget":
            budgets[record["actor"]] = record
    rtts = ping_rtts_ms(log.records)
    pings = [
        {"label": plan.label, "src": plan.src, "dst": plan.dst,
         **ping_stats(plan.count, rtts.get(ping_ident(index), []))._asdict()}
        for index, plan in enumerate(scenario.traffic)
        if isinstance(plan, PingPlan)
    ]
    throughput = [
        {"label": probe.plan.label, "ue": probe.plan.ue, **probe.stats()._asdict()}
        for probe in tallies
    ]
    passive = {tap: {"unparsed_frames": 0,
                     "sessions": [s._asdict() for s in byte_fold_sessions(entries)]}
               for tap, entries in taps.items()}
    actions = Counter(record["action"] for record in log.records)
    return {
        "schema": runner.REPORT_SCHEMA,
        "scenario": scenario.name,
        "seed": scenario.seed,
        # Sibling log: everything but throughput and passive (tapped
        # packets) is recomputable from it.
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
            "upf_dropped_no_session": actions["upf_drop"],
            "radio_dropped_bulk": actions["radio_drop"],
            "lbt_deferred": actions["lbt_deferred"],
        },
        "event_count": len(log),
    }


def reference_run(scenario) -> runner.RunResult:
    """``run_scenario``'s old loop on ``ReferenceNetwork``; its taps hold ``(t_us, wire bytes)``.

    Each throughput plan keeps its tally in a ``ThroughputProbe``; the
    report is the multi-pass fold's, after ``check_invariants`` on the
    reference network.
    """
    calib = load_calibration()
    loop, log = EventLoop(), EventLog()
    net = ReferenceNetwork(scenario, loop, log, calib)
    net.attach_all()
    tallies: list[ThroughputProbe] = []
    cursor = net.attach_complete_us
    for index, plan in enumerate(scenario.traffic):
        rng = derive_rng(scenario.seed, f"probe:{plan.label}")
        if isinstance(plan, PingPlan):
            cursor = schedule_pings(net, plan, cursor, ping_ident(index), rng)
        else:
            link = net.links[plan.ue]
            capacity = link_capacity_mbps(plan.direction, scenario.cell.bandwidth_mhz,
                                          scenario.cell.scs_khz, scenario.cell.tdd,
                                          link.ue.sdr, link.gnb.sdr, link.ue.medium, calib)
            probe = ThroughputProbe(plan, capacity, calib, rng)
            cursor = probe.schedule(net, cursor)
            tallies.append(probe)
    loop.run()
    check_invariants(net, log)
    report = multi_pass_report(scenario, log, tallies, net.taps, calib)
    return runner.RunResult(scenario=scenario, report=report, log=log, taps=net.taps)
