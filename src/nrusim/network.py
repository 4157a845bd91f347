"""Simulated network assembly: radio links, tunnels, taps, responders and traffic.

Every packet traversal is a chain of scheduled events, so the event log
carries real timestamps for each milestone and the same scenario always
unfolds identically.  Fixed processing costs come from the calibration
file; per-traversal jitter comes from the probe's own substream so one
probe's draws never depend on unrelated activity.

``schedule_pings`` and ``schedule_throughput`` queue a plan's traffic.
No event establishes or releases a session, so each plan decides once
what it can send: a ping to a node without an address and a sessionless
UE's throughput plan queue nothing and draw nothing, and the pings of a
sessionless UE queue ``ping_no_route`` records.

The access leg of each link runs in two fixed stages around the gNB stop:

    UL: UE processing, radio; gNB stop; gNB + core processing
    DL: gNB + core processing; gNB stop; radio, UE processing

Each link keeps the fixed delays as ``hops[direction]``, a
``(first_us, last_us)`` pair built once.  ``_send`` takes a packet's
first stage.  The packet then stops at the gNB as a scheduled event,
``_gnb_resume``, which logs ``gtpu_ul`` or ``gtpu_dl``, feeds the N3 tap
and takes the second stage; ``_bulk`` takes a bulk tick's whole leg at
once, with no packet and no stop.  ``_radio`` holds the radio hop: the
LBT grant, aligned to the direction's TDD slot, the radio delay and a
packet's jitter from the probe's substream.  Every packet is an ICMP
echo far below the relay cutoff (``relay_passes``), so only ``_bulk``
checks the relay, after its radio hop so the LBT draws keep their order,
and logs a tick the gNB does not relay as ``radio_drop``.
The only traffic is ICMP echoes, and only a UE sends a request, so every
reply goes back to a UE and the path tests for nothing else.
Packets travel as ``InnerPacket`` named tuples, and taps keep them as
packets too: wire bytes are made only at pcap export or on request, by
``tap_frames``.
The event loop breaks timestamp ties by insertion order, so each leg
keeps one ``schedule_at`` per stop, in path order.  Every scheduled
continuation is a ``functools.partial`` of a bound method, so neither a
packet nor a bulk tick builds a closure: a ping leaves in ``_ping_tx``, a
packet resumes past its gNB stop in ``_gnb_resume`` and arrives in
``_upf_ingress`` or ``_deliver_to_ue``, N6 legs go through
``_external_ingress`` and ``_n6_ingress``.  A bulk tick is ``_bulk``, and
its arrival only logs what survived: it appends the ``bulk_rx`` record
that ``_bulk`` built, timed at the arrival, to the log.

A link's LBT substream is derived only when the channel has foreign
bursts.  On an empty timeline the first CCA finds no blocker, so the
grant is one CCA later and reads no draw; a substream draws nothing from
shared state, so leaving it out moves no draw, and the link's ``rng`` is
then ``None``.  A burst-free run takes that grant itself in ``_radio``
and never calls ``lbt_gate``; ``SimNetwork.__init__`` decides this once,
from the scenario's bursts.

Each record is one dict display built by its call site, which
``EventLog.append`` keeps as given: a record is never reused or changed
once logged.  Each display lists its literal keys in sorted order
(``"action"``, ``"actor"``, ..., ``"t_us"``, ...), so the key sort of the
C encoder meets an already sorted run.  No value in a display has side
effects, so the order moves no draw or ident.  A display logged from the
event loop (any but ``attach_all``'s) also needs a line for its key list
in ``engine.LINES``, which ``EventLog.to_jsonl`` writes it through; a
test fails on a loop-time display without one, and on a line no display
uses.

IP idents come from one counter per run, 1 to 65535 and round again
(``_next_ident``).  A packet that enters the access leg (``_send``) or
arrives from N6 with ident 0 takes the next one in ``_with_ident``; a
packet that has one keeps it through forwarding.  Every gNB stop draws
the next ident for the outer header, tapped or not, so a tap's capture
never depends on which other taps the run sets.
"""

from __future__ import annotations

from functools import partial
from random import Random

from . import access, rflink, userplane
from .calibration import Calibration
from .corenet import CoreNetwork
from .engine import EventLog, EventLoop, derive_rng
from .metrics import SUBS_PER_WINDOW, flow_session_id, surviving_bytes
from .scenario import GnbNode, PingPlan, Scenario, ThroughputPlan, UeNode
from .spectrum import arfcn_to_frequency, get_band
from .userplane import (
    GTPU_PORT,
    ForwardDecision,
    InnerPacket,
    RouteTable,
    echo_reply_for,
    encode_gtpu,
    encode_ip,
    icmp_echo_request,
    ip_length,
    relay_passes,
    upf_forward,
)


class RadioLink:
    """One UE's link to its gNB; every hop reads it, so a ``__slots__`` class like PduSession."""

    __slots__ = ("ue", "gnb", "viable", "required_msps", "drop_fraction", "rsrp_dbm", "rng",
                 "radio_us", "hops", "ue_tap", "n3_tap", "teids")

    def __init__(self, ue: UeNode, gnb: GnbNode,
                 viable: bool,  # the host drains the sample stream: bulk data survives
                 required_msps: float, drop_fraction: float, rsrp_dbm: float,
                 rng: Random | None,  # LBT backoff substream; None on a burst-free channel
                 radio_us: int,  # radio processing plus the over-air extra
                 hops: dict[str, tuple[int, int]],  # direction -> (first, last) stage delay
                 ue_tap: str, n3_tap: str):  # taps at this link's UE and its gNB's N3 side
        self.ue, self.gnb, self.viable, self.rng = ue, gnb, viable, rng
        self.required_msps, self.drop_fraction = required_msps, drop_fraction
        self.rsrp_dbm, self.radio_us, self.hops = rsrp_dbm, radio_us, hops
        self.ue_tap, self.n3_tap = ue_tap, n3_tap
        self.teids: dict[str, int] | None = None  # direction -> TEID, set once attach completes


def link_capacity_mbps(
    direction: str,
    bandwidth_mhz: float,
    scs_khz: int,
    tdd: access.TddConfig,
    ue_sdr: rflink.SdrModel,
    gnb_sdr: rflink.SdrModel,
    medium: rflink.LinkMedium,
    calib: Calibration,
) -> float:
    """Saturated line rate of one direction of the radio link.

    Each direction is receive-bound: downlink by the UE's SDR chain,
    uplink by the gNB's.  The effective bandwidth is capped by both SDRs,
    the TDD split allots airtime, and a heavily attenuated cable run
    forces the MCS back-off factor.
    """
    if direction not in ("UL", "DL"):
        raise ValueError(f"direction must be 'UL' or 'DL', got {direction!r}")
    eff_bw = min(bandwidth_mhz, ue_sdr.max_bandwidth_mhz, gnb_sdr.max_bandwidth_mhz)
    if direction == "DL":
        rate = calib.dl_bits_per_hz
        fraction = tdd.dl_fraction
        rx_sdr = ue_sdr
    else:
        rate = calib.ul_bits_per_hz
        fraction = tdd.ul_fraction
        rx_sdr = gnb_sdr
    iface = calib.interface_efficiency[rx_sdr.interface]
    scs = calib.scs_factor[scs_khz]
    medium_factor = 1.0
    if isinstance(medium, rflink.Cable) and medium.attenuator_db > 0:
        medium_factor = calib.attenuated_cable_factor
    return rate * eff_bw * fraction * iface * scs * medium_factor


class SimNetwork:
    """All simulated state of one scenario run."""

    def __init__(self, scenario: Scenario, loop: EventLoop, log: EventLog, calib: Calibration):
        self.scenario = scenario
        self.loop = loop
        self.log = log
        self.calib = calib
        self.core = CoreNetwork(scenario.core, scenario.subscribers)
        for _ in range(scenario.prior_allocations):
            self.core.pool.allocate()

        self.links: dict[str, RadioLink] = {}
        carrier_mhz = arfcn_to_frequency(scenario.cell.arfcn)
        lbt_draws = bool(scenario.occupancy.bursts)  # else lbt_gate never reads a link's rng
        for ue in scenario.ues():
            gnb = scenario.node(ue.gnb)
            required = rflink.required_sampling_rate(scenario.cell.bandwidth_mhz)
            drop = max(
                rflink.sample_drop_fraction(ue.host, required),
                rflink.sample_drop_fraction(gnb.host, required),
            )
            rsrp = rflink.compute_rsrp(
                scenario.cell.tx_power_dbm,
                scenario.cell.attenuation_factor,
                ue.medium,
                carrier_mhz=carrier_mhz,
            )
            ue_us = calib.ue_proc_us + ue.host.added_latency_us
            core_us = calib.gnb_proc_us + gnb.host.added_latency_us + calib.core_proc_us
            air_us = calib.over_air_extra_us if isinstance(ue.medium, rflink.OverAir) else 0
            self.links[ue.name] = RadioLink(
                ue=ue,
                gnb=gnb,
                viable=rflink.link_viable(drop),
                required_msps=required,
                drop_fraction=drop,
                rsrp_dbm=rsrp,
                rng=derive_rng(scenario.seed, f"lbt:{ue.name}") if lbt_draws else None,
                radio_us=calib.radio_proc_us + air_us,
                hops={"UL": (ue_us, core_us), "DL": (core_us, ue_us)},
                ue_tap=f"ue:{ue.name}",
                n3_tap=f"n3:{gnb.name}",
            )

        self.taps: dict[str, list[tuple]] = {t: [] for t in scenario.taps}
        self.routes: RouteTable | None = None  # set once attach completes
        self.gateway: str | None = None  # the pool gateway's address, set with routes
        self._nat: dict[tuple[str, int | None], str] = {}
        self._ip_ident = 0
        # Read by every radio hop; the scenario and calibration never change in a run.
        self._occupancy = scenario.occupancy
        self._lbt = scenario.cell.lbt
        self._cca_us = None if lbt_draws else self._lbt.cca_duration_us  # the burst-free grant
        self._tdd = tuple(scenario.cell.tdd)  # a plain tuple unpacks faster than a named one
        self._jitter_max_us = calib.jitter_max_us
        self.attach_complete_us = 0

    # -- setup ---------------------------------------------------------------

    def attach_all(self) -> None:
        """Attach every UE in scenario order, logging timed milestones.

        No event establishes or releases a session, so the UPF's route
        table and each attached link's TEID pair are set once, here.
        """
        band = get_band(self.scenario.cell.band_id)
        cursor = 1000
        for ue in self.scenario.ues():
            link = self.links[ue.name]
            self.log.append({"action": "link_budget", "actor": ue.name,
                             "drop_fraction": link.drop_fraction,
                             "required_msps": link.required_msps,
                             "rsrp_dbm": round(link.rsrp_dbm, 2), "t_us": cursor,
                             "viable": link.viable})
            gscn = self.scenario.cell.ssb_gscn if link.gnb.on_air else None
            state = access.attach(band, gscn, self.core, ue.imsi, ue_id=ue.name)
            t = cursor
            self.log.append({"action": "attach_phase", "actor": ue.name, "phase": "SCANNING",
                             "t_us": t})
            t += state.scan_steps * self.calib.scan_step_us
            if state.phase >= access.UePhase.SYNCED:
                self.log.append({"action": "attach_phase", "actor": ue.name,
                                 "gscn": state.found_gscn, "phase": "SYNCED",
                                 "scan_steps": state.scan_steps, "t_us": t})
            if state.phase >= access.UePhase.REGISTERED:
                t += self.calib.registration_us
                self.log.append({"action": "attach_phase", "actor": ue.name, "imsi": ue.imsi,
                                 "phase": "REGISTERED", "t_us": t})
            if state.phase >= access.UePhase.SESSION_ACTIVE:
                t += self.calib.session_setup_us
                self.log.append({"action": "attach_phase", "actor": ue.name,
                                 "interface": state.session.interface, "ip": state.session.ip,
                                 "phase": "SESSION_ACTIVE", "t_us": t,
                                 "teid_downlink": state.session.teid_downlink,
                                 "teid_uplink": state.session.teid_uplink})
            if state.failure:
                self.log.append({"action": "attach_failed", "actor": ue.name,
                                 "phase": state.phase.name, "reason": state.failure, "t_us": t})
            cursor = t + 10_000
        self.attach_complete_us = cursor + 100_000
        self.gateway = str(self.core.pool.gateway)
        sessions = self.core.active_sessions()
        for s in sessions:
            self.links[s.ue_id].teids = {"UL": s.teid_uplink, "DL": s.teid_downlink}
        self.routes = RouteTable(
            pool=self.core.pool,
            sessions={s.ip: s for s in sessions},
            upf_address=self.core.config.upf_address,
        )

    # -- address resolution ----------------------------------------------------

    def resolve_dst(self, dst: str) -> str | None:
        if dst == "core-gateway":
            return self.gateway
        if dst == "external":
            return self.scenario.external.address
        if dst in self.core.sessions:
            return self.core.sessions[dst].ip
        if any(n.name == dst for n in self.scenario.nodes):
            return None  # known node without an address
        return dst  # literal IPv4

    # -- traffic ------------------------------------------------------------------

    def schedule_pings(self, plan: PingPlan, start_us: int, ident: int, rng: Random) -> int:
        """Queue the plan's echo requests; returns a completion-time estimate.

        A destination without an address sends nothing and draws nothing:
        100% loss.  A source without a session sends nothing either, and
        each request is a ``ping_no_route`` record logged at its time.
        """
        phase_max = self.calib.ping_phase_max_us
        end_us = start_us + plan.count * plan.interval_ms * 1000 + phase_max + 1_000_000
        dst_ip = self.resolve_dst(plan.dst)
        if dst_ip is None:
            return end_us
        session = self.core.sessions.get(plan.src)
        for seq in range(plan.count):
            at = start_us + seq * plan.interval_ms * 1000 + rng.randrange(phase_max)
            if session is None:
                event = partial(self.log.append, {"action": "ping_no_route", "actor": plan.src,
                                                  "seq": seq, "t_us": at})
            else:
                event = partial(self._ping_tx, plan.src, session.ip, dst_ip, ident, seq, rng)
            self.loop.schedule_at(at, event)
        return end_us

    def schedule_throughput(self, plan: ThroughputPlan, start_us: int, rng: Random) -> int:
        """Queue an iPerf-style saturating load in one direction; returns when it is over.

        Each one-second window transmits a contiguous burst of line-rate
        ticks covering a seeded fraction of the window, so the best 100 ms
        sub-window observes the full line rate while window means wander the
        way interval reports do.  Every tick falls before the returned time.
        A UE without a session sends nothing and draws nothing.
        """
        end_us = start_us + plan.duration_s * 1_000_000 + 1_000_000
        if plan.ue not in self.core.sessions:
            return end_us
        link, cell, calib = self.links[plan.ue], self.scenario.cell, self.calib
        capacity_mbps = link_capacity_mbps(plan.direction, cell.bandwidth_mhz, cell.scs_khz,
                                           cell.tdd, link.ue.sdr, link.gnb.sdr, link.ue.medium,
                                           calib)
        tick_us = calib.tick_ms * 1000
        ticks_per_window = 1_000_000 // tick_us
        bytes_per_tick = round(capacity_mbps * 1e6 * calib.tick_ms / 1000 / 8)
        sub_ticks = ticks_per_window // SUBS_PER_WINDOW
        # Read and bound once, not per tick.
        ue, direction = plan.ue, plan.direction
        schedule_at, bulk = self.loop.schedule_at, self._bulk
        for window in range(plan.duration_s):
            burst = rng.uniform(calib.window_burst_low, calib.window_burst_high)
            on_ticks = round(burst * ticks_per_window)
            base_us = start_us + window * 1_000_000
            for j in range(on_ticks):
                schedule_at(base_us + j * tick_us,
                            partial(bulk, ue, direction, bytes_per_tick, window, j // sub_ticks))
        return end_us

    def _ping_tx(self, ue_name, src_ip, dst_ip, ident, seq, rng) -> None:
        """An echo request leaves the UE."""
        self.log.append({"action": "ping_tx", "actor": ue_name, "dst": dst_ip, "ident": ident,
                         "seq": seq, "t_us": self.loop.now_us})
        self._send(ue_name, "UL", icmp_echo_request(src_ip, dst_ip, ident, seq), rng)

    # -- access leg -----------------------------------------------------------------

    def _next_ident(self) -> int:
        """The next IP identification of the run: 1 to 65535, then round again."""
        self._ip_ident = ident = (self._ip_ident + 1) & 0xFFFF or 1
        return ident

    def _with_ident(self, pkt: InnerPacket) -> InnerPacket:
        """Assign the originating stack's IP identification, once.

        A packet whose ident is still 0 takes the run's next one; any
        other packet keeps its own.  The copy is built field by field
        (``ident`` is the sixth), which is what ``_replace`` does by name.
        """
        if pkt.ident:
            return pkt
        return tuple.__new__(InnerPacket, (*pkt[:5], self._next_ident(), *pkt[6:]))

    def _send(self, ue_name: str, direction: str, inner: InnerPacket, rng: Random) -> None:
        """A packet's first stage, up to its gNB stop, where ``_gnb_resume`` takes it on."""
        inner = self._with_ident(inner)
        link = self.links[ue_name]
        size = ip_length(inner)
        t = self.loop.now_us + link.hops[direction][0]
        if direction == "UL":
            self._tap(link.ue_tap, inner)
            t = self._radio(link, direction, t, rng)
            done = partial(self._upf_ingress, inner, rng)
        else:
            done = partial(self._deliver_to_ue, ue_name, inner, rng)
        self.loop.schedule_at(t, partial(self._gnb_resume, link, direction, size, done, rng, inner))

    def _bulk(self, ue_name, direction, nbytes, window, sub) -> None:
        """One aggregate tick over the access leg; no bytes, no jitter, no gNB stop."""
        link = self.links[ue_name]
        now = self.loop.now_us
        sender, receiver = (ue_name, "core") if direction == "UL" else ("core", ue_name)
        self.log.append({"action": "bulk_tx", "actor": sender, "direction": direction,
                         "size": nbytes, "sub": sub, "t_us": now, "window": window})
        first_us, last_us = link.hops[direction]
        t = self._radio(link, direction, now + first_us, None)
        if not relay_passes(link.viable, nbytes):
            self.log.append({"action": "radio_drop", "actor": link.gnb.name,
                             "direction": direction, "size": nbytes, "t_us": now})
            return
        t += last_us  # its arrival, which only logs what survived
        self.loop.schedule_at(t, partial(self.log.append, {
            "action": "bulk_rx", "actor": receiver, "direction": direction,
            "size": surviving_bytes(nbytes, link.drop_fraction), "sub": sub, "t_us": t,
            "window": window}))

    def _gnb_resume(self, link: RadioLink, direction: str, size: int, done, rng: Random,
                    pkt: InnerPacket) -> None:
        """A packet's gNB stop: relay it, then take the leg's second stage."""
        self._gnb_step(link, direction, pkt, size)
        t = self.loop.now_us
        if direction == "DL":
            t = self._radio(link, direction, t, rng)
        self.loop.schedule_at(t + link.hops[direction][1], done)

    def _radio(self, link: RadioLink, direction: str, t: int, rng: Random | None) -> int:
        """When the radio hop that starts at ``t`` ends: the LBT grant, the TDD slot, the delay.

        On a burst-free channel the LBT grant is one CCA after ``t``, as
        ``lbt_gate``'s first probe would grant there without a draw; a
        bursty channel asks ``lbt_gate``.  ``rng`` is the probe's jitter
        substream, None for a bulk tick.  The hop drops nothing: a bulk
        tick's relay check is ``_bulk``'s, after this call.
        """
        if self._cca_us is None:
            t = access.lbt_gate(self._occupancy, self._lbt, t, link.rng).grant_us
        else:
            t += self._cca_us
        t = access.next_transmit_time(self._tdd, direction, t) + link.radio_us
        if rng is not None:
            t += rng.randrange(self._jitter_max_us + 1)  # randint(0, max)'s draws
        return t

    def _gnb_step(self, link: RadioLink, direction: str, pkt: InnerPacket, size: int) -> None:
        """The gNB relays a packet between radio and N3: log it and feed the N3 tap.

        The tap keeps the packet with its tunnel: the outer header, with
        the ident every stop draws, and the TEID.
        """
        t = self.loop.now_us
        uplink = direction == "UL"
        teid = link.teids[direction]
        self.log.append({"action": "gtpu_ul" if uplink else "gtpu_dl", "actor": link.gnb.name,
                         "size": size, "t_us": t, "teid": teid})
        ident = self._next_ident()
        entries = self.taps.get(link.n3_tap)
        if entries is not None:
            gnb_addr, upf_addr = link.gnb.n3_address, self.core.config.upf_address
            src, dst = (gnb_addr, upf_addr) if uplink else (upf_addr, gnb_addr)
            outer = InnerPacket(src, dst, "UDP", ident=ident, sport=GTPU_PORT, dport=GTPU_PORT)
            entries.append((t, pkt, outer, teid))

    # -- UPF --------------------------------------------------------------------

    def _upf_ingress(self, inner: InnerPacket, rng: Random) -> None:
        """Decapsulated packet at the UPF, from the tunnel side."""
        now = self.loop.now_us
        if inner.dst in (self.gateway, self.core.config.upf_address):  # always a request
            self.log.append({"action": "core_echo", "actor": "core", "seq": inner.icmp_seq,
                             "src": inner.src, "t_us": now})
            self._upf_ingress(echo_reply_for(inner), rng)
            return
        decision = upf_forward(inner, self.routes)
        self._apply_forward(decision, inner, rng)

    def _apply_forward(self, decision: ForwardDecision, inner: InnerPacket, rng: Random) -> None:
        now = self.loop.now_us
        if decision.action == userplane.FORWARD_DROP:
            self.log.append({"action": "upf_drop", "actor": "upf", "dst": inner.dst, "t_us": now})
            return
        if decision.action == userplane.FORWARD_TUNNEL:
            session = decision.session
            self.log.append({"action": "upf_tunnel", "actor": "upf", "dst": inner.dst, "t_us": now,
                             "teid": session.teid_downlink})
            self._send(session.ue_id, "DL", decision.packet, rng)
            return
        # Egress toward the external network with the UPF as visible source.
        rewritten = decision.packet
        self._nat[("ICMP", inner.icmp_id)] = inner.src
        self.log.append({"action": "upf_egress", "actor": "upf", "dst": rewritten.dst, "t_us": now,
                         "visible_src": rewritten.src})
        self._tap("n6", rewritten)
        self.loop.schedule_after(self.scenario.external.one_way_delay_us,
                                 partial(self._external_ingress, rewritten, rng))

    def _external_ingress(self, pkt: InnerPacket, rng: Random) -> None:
        """The simulated Internet responder; only echo requests egress."""
        now = self.loop.now_us
        reply = echo_reply_for(pkt, ttl=self.scenario.external.ttl)
        self.log.append({"action": "external_reply", "actor": "external", "seq": reply.icmp_seq,
                         "t_us": now, "to": reply.dst})
        self.loop.schedule_after(self.scenario.external.one_way_delay_us,
                                 partial(self._n6_ingress, reply, rng))

    def _n6_ingress(self, pkt: InnerPacket, rng: Random) -> None:
        """Reply arriving at the UPF from the external network."""
        pkt = self._with_ident(pkt)
        self._tap("n6", pkt)
        restored = pkt._replace(dst=self._nat[("ICMP", pkt.icmp_id)])  # kept since its request
        self._apply_forward(upf_forward(restored, self.routes), restored, rng)

    # -- UE stack -----------------------------------------------------------------

    def _deliver_to_ue(self, ue_name: str, inner: InnerPacket, rng: Random) -> None:
        now = self.loop.now_us
        self._tap(self.links[ue_name].ue_tap, inner)
        if inner.icmp_type == userplane.ICMP_ECHO_REPLY:
            self.log.append({"action": "rtt_sample", "actor": ue_name, "ident": inner.icmp_id,
                             "seq": inner.icmp_seq,
                             "session": flow_session_id("ICMP", inner.icmp_id), "t_us": now})
            return
        # Standard stack behaviour: answer pings addressed to us.
        self.log.append({"action": "ue_echo", "actor": ue_name, "seq": inner.icmp_seq,
                         "src": inner.src, "t_us": now})
        self._send(ue_name, "UL", echo_reply_for(inner), rng)

    # -- taps ---------------------------------------------------------------------

    def _tap(self, name: str, pkt: InnerPacket) -> None:
        """Keep a packet at the loop clock, which never goes backwards, if the tap exists."""
        entries = self.taps.get(name)
        if entries is not None:
            entries.append((self.loop.now_us, pkt))


def tap_frames(entries: list[tuple]) -> list[tuple[int, bytes]]:
    """A tap's capture as ``(t_us, wire bytes)``, in the order the tap kept it.

    An entry is ``(t_us, packet)``, or ``(t_us, packet, outer, teid)`` at
    an N3 tap, where the packet rides in a GTP-U tunnel under ``outer``.
    """
    frames = []
    for t_us, pkt, *tunnel in entries:
        wire = encode_ip(pkt)
        if tunnel:
            outer, teid = tunnel
            wire = encode_ip(outer._replace(payload=encode_gtpu(teid, wire)))
        frames.append((t_us, wire))
    return frames
