"""Simulated network assembly: radio links, tunnels, taps, and responders.

Every packet traversal is a chain of scheduled events, so the event log
carries real timestamps for each milestone and the same scenario always
unfolds identically.  Fixed processing costs come from the calibration
file; per-traversal jitter comes from the probe's own substream so one
probe's draws never depend on unrelated activity.

The access leg of each link is one hop table per direction, built once:

    UL: (UE processing, RADIO, GNB, gNB + core processing)
    DL: (gNB + core processing, GNB, RADIO, UE processing)

``_traverse`` walks it for packets and bulk ticks alike, adding delays.
At RADIO it takes the LBT grant on the link's substream, aligns it to the
direction's TDD slot, then checks the relay: a payload the relay does not
pass is logged as ``radio_drop`` at the current time and draws nothing
further.  A surviving packet draws its jitter from the probe's substream.
At GNB a packet stops as a scheduled event that logs ``gtpu_ul`` or
``gtpu_dl`` and feeds the N3 tap; bulk ticks carry no bytes and skip it.
The event loop breaks timestamp ties by insertion order, so the walk
keeps one ``schedule_at`` per stop, in path order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from random import Random

from . import access, rflink, userplane
from .calibration import Calibration
from .corenet import CoreNetwork
from .engine import EventLog, EventLoop, derive_rng
from .metrics import flow_session_id
from .scenario import NodeConfig, Scenario
from .spectrum import arfcn_to_frequency, get_band
from .userplane import (
    ForwardDecision,
    GnbRelay,
    InnerPacket,
    RouteTable,
    echo_reply_for,
    encode_gtpu,
    encode_ip,
    icmp_echo_request,
    upf_forward,
)

# Hop-table stops; every other entry is a fixed delay in microseconds.
RADIO = "radio"
GNB = "gnb"


@dataclass
class RadioLink:
    ue: NodeConfig
    gnb: NodeConfig
    medium: rflink.LinkMedium
    relay: GnbRelay
    required_msps: float
    drop_fraction: float
    rsrp_dbm: float
    rng: Random  # LBT backoff substream for this link
    radio_us: int  # radio processing plus the over-air extra
    hops: dict[str, tuple]  # direction -> hop table


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
        for ue in scenario.ues():
            gnb = scenario.node(ue.gnb)
            required = rflink.required_sampling_rate(scenario.cell.bandwidth_mhz)
            drop = max(
                rflink.sample_drop_fraction(ue.host, required),
                rflink.sample_drop_fraction(gnb.host, required),
            )
            viable = rflink.link_viable(drop)
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
                medium=ue.medium,
                relay=GnbRelay(viable=viable, drop_fraction=drop),
                required_msps=required,
                drop_fraction=drop,
                rsrp_dbm=rsrp,
                rng=derive_rng(scenario.seed, f"lbt:{ue.name}"),
                radio_us=calib.radio_proc_us + air_us,
                hops={"UL": (ue_us, RADIO, GNB, core_us), "DL": (core_us, GNB, RADIO, ue_us)},
            )

        self.taps: dict[str, list[tuple[int, bytes]]] = {t: [] for t in scenario.taps}
        self.ue_ip: dict[str, str] = {}
        self.attach_states: dict[str, access.UeState] = {}
        self._icmp_handlers: dict[tuple[str, int], object] = {}
        self._nat: dict[tuple[str, int | None], str] = {}
        self._ip_ident = 0
        self.attach_complete_us = 0

    # -- setup ---------------------------------------------------------------

    def attach_all(self) -> dict[str, access.UeState]:
        """Attach every UE in scenario order, logging timed milestones."""
        band = get_band(self.scenario.cell.band_id)
        cursor = 1000
        for ue in self.scenario.ues():
            link = self.links[ue.name]
            self.log.append(cursor, ue.name, "link_budget",
                            rsrp_dbm=round(link.rsrp_dbm, 2),
                            required_msps=link.required_msps,
                            drop_fraction=link.drop_fraction,
                            viable=link.relay.viable)
            gscn = self.scenario.cell.ssb_gscn if link.gnb.on_air else None
            state = access.attach(band, gscn, self.core, ue.imsi, ue_id=ue.name)
            self.attach_states[ue.name] = state
            t = cursor
            self.log.append(t, ue.name, "attach_phase", phase="SCANNING")
            t += state.scan_steps * self.calib.scan_step_us
            if state.phase >= access.UePhase.SYNCED:
                self.log.append(t, ue.name, "attach_phase", phase="SYNCED",
                                gscn=state.found_gscn, scan_steps=state.scan_steps)
            if state.phase >= access.UePhase.REGISTERED:
                t += self.calib.registration_us
                self.log.append(t, ue.name, "attach_phase", phase="REGISTERED", imsi=ue.imsi)
            if state.phase >= access.UePhase.SESSION_ACTIVE:
                t += self.calib.session_setup_us
                self.ue_ip[ue.name] = state.session.ip
                self.log.append(t, ue.name, "attach_phase", phase="SESSION_ACTIVE",
                                ip=state.session.ip,
                                interface=state.session.interface,
                                teid_uplink=state.session.teid_uplink,
                                teid_downlink=state.session.teid_downlink)
            if state.failure:
                self.log.append(t, ue.name, "attach_failed", reason=state.failure,
                                phase=state.phase.name)
            cursor = t + 10_000
        self.attach_complete_us = cursor + 100_000
        return self.attach_states

    # -- address resolution ----------------------------------------------------

    def resolve_dst(self, dst: str) -> str | None:
        if dst == "core-gateway":
            return str(self.core.pool.gateway)
        if dst == "external":
            return self.scenario.external.address
        if dst in self.ue_ip:
            return self.ue_ip[dst]
        if any(n.name == dst for n in self.scenario.nodes):
            return None  # known node without an address
        return dst  # literal IPv4

    # -- probe entry points ------------------------------------------------------

    def schedule_icmp_echo(self, ue_name, dst_ip, ident, seq, at_us, rng, reply_cb) -> None:
        self._icmp_handlers[(ue_name, ident)] = reply_cb

        def emit():
            src_ip = self.ue_ip.get(ue_name)
            if src_ip is None:
                self.log.append(self.loop.now_us, ue_name, "ping_no_route", seq=seq)
                return
            inner = icmp_echo_request(src_ip, dst_ip, ident, seq)
            self.log.append(self.loop.now_us, ue_name, "ping_tx", dst=dst_ip, seq=seq, ident=ident)
            self._send(ue_name, "UL", inner, rng)

        self.loop.schedule_at(at_us, emit)

    def schedule_bulk_tick(self, ue_name, direction, at_us, nbytes, tag, delivered_cb) -> None:
        self.loop.schedule_at(at_us, lambda: self._bulk(ue_name, direction, nbytes, tag,
                                                        delivered_cb))

    # -- access leg -----------------------------------------------------------------

    def _with_ident(self, pkt: InnerPacket) -> InnerPacket:
        """Assign the originating stack's IP identification, once."""
        if pkt.ident:
            return pkt
        self._ip_ident = (self._ip_ident + 1) & 0xFFFF or 1
        return replace(pkt, ident=self._ip_ident)

    def _send(self, ue_name: str, direction: str, inner: InnerPacket, rng: Random) -> None:
        """One packet over the access leg: UE -> UPF ingress ("UL") or UPF -> UE ("DL")."""
        now = self.loop.now_us
        inner = self._with_ident(inner)
        wire = encode_ip(inner)
        if direction == "UL":
            self._tap(f"ue:{ue_name}", now, wire)
            done = lambda: self._upf_ingress(inner, rng)
        else:
            done = lambda: self._deliver_to_ue(ue_name, inner, rng)
        self._traverse(self.links[ue_name], direction, now, len(wire), done, rng, wire)

    def _bulk(self, ue_name, direction, nbytes, tag, delivered_cb) -> None:
        """One aggregate tick over the access leg; no bytes, no jitter, no gNB stop."""
        if self.ue_ip.get(ue_name) is None:
            return
        link = self.links[ue_name]
        sender, receiver = (ue_name, "core") if direction == "UL" else ("core", ue_name)
        self.log.append(self.loop.now_us, sender, "bulk_tx", direction=direction, size=nbytes,
                        window=tag[0], sub=tag[1])
        delivered = nbytes if link.drop_fraction == 0 else round(nbytes * (1 - link.drop_fraction))

        def rx():
            self.log.append(self.loop.now_us, receiver, "bulk_rx", direction=direction,
                            size=delivered, window=tag[0], sub=tag[1])
            delivered_cb(tag, delivered)

        self._traverse(link, direction, self.loop.now_us, nbytes, rx)

    def _traverse(self, link: RadioLink, direction: str, t: int, size: int, done,
                  rng: Random | None = None, wire: bytes | None = None, start: int = 0) -> None:
        """Walk the hop table from ``start`` at time ``t``; ``done`` runs on arrival.

        ``wire`` and ``rng`` are set for packets only: they add jitter and
        the gNB stop.
        """
        hops = link.hops[direction]
        for index in range(start, len(hops)):
            hop = hops[index]
            if hop is RADIO:
                gate = access.lbt_gate(self.scenario.occupancy, self.scenario.cell.lbt, t, link.rng)
                t = access.next_transmit_time(self.scenario.cell.tdd, direction, gate.grant_us)
                if not link.relay.passes(size):
                    self.log.append(self.loop.now_us, link.gnb.name, "radio_drop",
                                    direction=direction, size=size)
                    return
                t += link.radio_us
                if rng is not None:
                    t += rng.randint(0, self.calib.jitter_max_us)
            elif hop is GNB:
                if wire is not None:
                    def gnb_step():
                        self._gnb_step(link, direction, wire)
                        self._traverse(link, direction, self.loop.now_us, size, done, rng, wire,
                                       index + 1)

                    self.loop.schedule_at(t, gnb_step)
                    return
            else:
                t += hop
        self.loop.schedule_at(t, done)

    def _gnb_step(self, link: RadioLink, direction: str, wire: bytes) -> None:
        """The gNB relays a packet between radio and N3: log it and feed the N3 tap."""
        t = self.loop.now_us
        uplink = direction == "UL"
        session = self.core.sessions.get(link.ue.name)
        teid = (session.teid_uplink if uplink else session.teid_downlink) if session else 0
        self.log.append(t, link.gnb.name, "gtpu_ul" if uplink else "gtpu_dl", teid=teid,
                        size=len(wire))
        tap = f"n3:{link.gnb.name}"
        if tap in self.taps:
            gnb_addr = link.gnb.n3_address or self.core.config.amf_address
            upf_addr = self.core.config.upf_address
            src, dst = (gnb_addr, upf_addr) if uplink else (upf_addr, gnb_addr)
            tunnel = encode_gtpu(teid, wire)
            outer = self._with_ident(
                InnerPacket(src=src, dst=dst, protocol="UDP", payload=tunnel,
                            sport=userplane.GTPU_PORT, dport=userplane.GTPU_PORT)
            )
            self._tap(tap, t, encode_ip(outer))

    # -- UPF --------------------------------------------------------------------

    def _routes(self) -> RouteTable:
        return RouteTable(
            pool_cidr=self.core.pool.cidr,
            sessions={s.ip: s for s in self.core.active_sessions()},
            upf_address=self.core.config.upf_address,
        )

    def _upf_ingress(self, inner: InnerPacket, rng: Random) -> None:
        """Decapsulated packet at the UPF, from the tunnel side."""
        now = self.loop.now_us
        gateway = str(self.core.pool.gateway)
        if inner.dst in (gateway, self.core.config.upf_address):
            if inner.icmp_type == userplane.ICMP_ECHO_REQUEST:
                self.log.append(now, "core", "core_echo", src=inner.src, seq=inner.icmp_seq)
                self._upf_ingress(echo_reply_for(inner), rng)
            return
        decision = upf_forward(inner, self._routes())
        self._apply_forward(decision, inner, rng)

    def _apply_forward(self, decision: ForwardDecision, inner: InnerPacket, rng: Random) -> None:
        now = self.loop.now_us
        if decision.action == userplane.FORWARD_DROP:
            self.log.append(now, "upf", "upf_drop", dst=inner.dst)
            return
        if decision.action == userplane.FORWARD_TUNNEL:
            session = decision.session
            self.log.append(now, "upf", "upf_tunnel", dst=inner.dst,
                            teid=session.teid_downlink)
            self._send(session.ue_id, "DL", decision.packet, rng)
            return
        # Egress toward the external network with the UPF as visible source.
        rewritten = decision.packet
        if inner.protocol == "ICMP":
            self._nat[("ICMP", inner.icmp_id)] = inner.src
        self.log.append(now, "upf", "upf_egress", dst=rewritten.dst,
                        visible_src=rewritten.src)
        self._tap("n6", now, encode_ip(rewritten))
        self.loop.schedule_after(self.scenario.external.one_way_delay_us,
                                 lambda: self._external_ingress(rewritten, rng))

    def _external_ingress(self, pkt: InnerPacket, rng: Random) -> None:
        """The simulated Internet responder."""
        now = self.loop.now_us
        if pkt.icmp_type != userplane.ICMP_ECHO_REQUEST:
            return
        reply = echo_reply_for(pkt, ttl=self.scenario.external.ttl)
        self.log.append(now, "external", "external_reply", to=reply.dst, seq=reply.icmp_seq)
        self.loop.schedule_after(self.scenario.external.one_way_delay_us,
                                 lambda: self._n6_ingress(reply, rng))

    def _n6_ingress(self, pkt: InnerPacket, rng: Random) -> None:
        """Reply arriving at the UPF from the external network."""
        now = self.loop.now_us
        pkt = self._with_ident(pkt)
        self._tap("n6", now, encode_ip(pkt))
        original = self._nat.get((pkt.protocol, pkt.icmp_id))
        if original is None:
            self._apply_forward(ForwardDecision(action=userplane.FORWARD_DROP), pkt, rng)
            return
        restored = replace(pkt, dst=original)
        self._apply_forward(upf_forward(restored, self._routes()), restored, rng)

    # -- UE stack -----------------------------------------------------------------

    def _deliver_to_ue(self, ue_name: str, inner: InnerPacket, rng: Random) -> None:
        now = self.loop.now_us
        self._tap(f"ue:{ue_name}", now, encode_ip(inner))
        if inner.icmp_type == userplane.ICMP_ECHO_REPLY:
            handler = self._icmp_handlers.get((ue_name, inner.icmp_id))
            if handler is not None:
                self.log.append(now, ue_name, "rtt_sample", ident=inner.icmp_id,
                                seq=inner.icmp_seq, session=flow_session_id("ICMP", inner.icmp_id))
                handler(inner.icmp_seq, now)
            return
        if inner.icmp_type == userplane.ICMP_ECHO_REQUEST:
            # Standard stack behaviour: answer pings addressed to us.
            self.log.append(now, ue_name, "ue_echo", src=inner.src, seq=inner.icmp_seq)
            self._send(ue_name, "UL", echo_reply_for(inner), rng)

    # -- taps ---------------------------------------------------------------------

    def _tap(self, name: str, t_us: int, data: bytes) -> None:
        frames = self.taps.get(name)
        if frames is not None:
            frames.append((t_us, data))
