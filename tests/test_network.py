"""The packet-keeping taps against the byte-carrying paths they replaced.

``SimNetwork`` carries ``InnerPacket`` from UE to UPF and back, its taps
keep packets, and the run folds its ``passive`` section from them; wire
bytes are made only by ``tap_frames``, at pcap export or on request.
Two earlier paths are kept verbatim as oracles:

- ``ByteTapSimNetwork`` encoded each packet as a tap kept it, and the run
  decoded those bytes again with the passive monitor of the time
  (``byte_passive_monitor``) to fold its ``passive`` section.
- ``EagerSimNetwork``, before that, encoded every packet in ``_send`` to
  learn its length and carried the bytes through ``_traverse`` to the gNB
  step.

Over generated ping scenarios with random tap subsets and over the golden
cases, every path must capture the same frames, fold the same ``passive``
section and log the same records.  Each draws a gNB stop's outer IP ident
as ``SimNetwork`` does, at every stop, tapped or not; and a tap captures
the same frames whichever other taps the run sets.

``TraverseSimNetwork`` keeps the access leg as it was before ``_send``
and ``_bulk`` took their stages themselves: one ``_traverse`` for both,
which branches on whether it carries a packet.  ``ClosureBulkSimNetwork``
and ``HopTableSimNetwork`` build on it, so each still runs its own walk.

``ClosureBulkSimNetwork`` keeps the bulk tick as it was before ticks
became ``functools.partial``s: a lambda per scheduled tick and an ``rx``
closure per arrival.  Over generated throughput scenarios and the golden
cases, it must write the same ``events.jsonl`` text and report.

``ClosurePacketSimNetwork`` keeps the packet path as it was before its
continuations became ``functools.partial``s too, and derives every link's
LBT substream whether or not the channel has bursts.  It keeps the checks
the packet path made for traffic a run cannot make: a packet to the
gateway or the UPF that is not a request, a non-ICMP egress or N6 packet,
an N6 reply with no NAT entry, and a packet at a UE that is neither a
request nor a reply.  Over generated ping
scenarios with random taps and over the golden cases, it must write the
same ``events.jsonl`` and ``report.json`` text and capture the same frames.

``HopTableSimNetwork`` keeps the access leg as it was before it became two
fixed stages around the gNB stop: a walk over the link's hop table that
tests each entry for ``RADIO`` or ``GNB`` and asks ``access.lbt_gate`` at
every radio hop, burst-free channel or not.  Over generated ping and
throughput scenarios and over the golden cases, it must write the same
``events.jsonl`` and ``report.json`` text and capture the same frames.
"""

from __future__ import annotations

import hashlib
import itertools
from functools import partial
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrusim import access, metrics, network, runner, userplane
from nrusim.calibration import load_calibration
from nrusim.engine import EventLog, EventLoop, derive_rng
from nrusim.errors import CodecError
from nrusim.metrics import MonitorReport, PassiveSession, flow_session_id
from nrusim.network import GNB, RADIO, RadioLink, SimNetwork
from nrusim.scenario import load_bundled, scenario_from_dict
from nrusim.userplane import (
    GTPU_PORT,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ForwardDecision,
    InnerPacket,
    decode_gtpu,
    decode_ip,
    encode_gtpu,
    encode_ip,
    relay_passes,
)
from tests.test_golden import BUNDLED_DIGESTS, INLINE_CASES, _inline_result
from tests.test_runner import ping_scenarios
from tests.test_scenario import variant

VALID_TAPS = ["ue:ue1", "ue:ue2", "n3:gnb1", "n6"]


class ByteTapSimNetwork(SimNetwork):
    """Encodes each packet as a tap keeps it; the N3 tap keeps the tunnelled frame."""

    def _gnb_step(self, link: RadioLink, direction: str, pkt: InnerPacket, size: int) -> None:
        t = self.loop.now_us
        uplink = direction == "UL"
        session = self.core.sessions.get(link.ue.name)
        teid = (session.teid_uplink if uplink else session.teid_downlink) if session else 0
        self.log.append({"t_us": t, "actor": link.gnb.name,
                         "action": "gtpu_ul" if uplink else "gtpu_dl", "teid": teid,
                         "size": size})
        ident = self._next_ident()  # at every stop, tapped or not, as SimNetwork draws it
        tap = f"n3:{link.gnb.name}"
        if tap in self.taps:
            gnb_addr = link.gnb.n3_address or self.core.config.amf_address
            upf_addr = self.core.config.upf_address
            src, dst = (gnb_addr, upf_addr) if uplink else (upf_addr, gnb_addr)
            tunnel = encode_gtpu(teid, encode_ip(pkt))
            outer = InnerPacket(src=src, dst=dst, protocol="UDP", payload=tunnel, ident=ident,
                                sport=userplane.GTPU_PORT, dport=userplane.GTPU_PORT)
            self._tap(tap, outer)

    def _tap(self, name: str, pkt: InnerPacket) -> None:
        frames = self.taps.get(name)
        if frames is not None:
            frames.append((self.loop.now_us, encode_ip(pkt)))


class EagerSimNetwork(ByteTapSimNetwork):
    """Encodes every packet on send and carries the bytes to the gNB step."""

    def _send(self, ue_name: str, direction: str, inner: InnerPacket, rng: Random) -> None:
        now = self.loop.now_us
        inner = self._with_ident(inner)
        wire = encode_ip(inner)
        if direction == "UL":
            self._tap(f"ue:{ue_name}", wire)
            done = lambda: self._upf_ingress(inner, rng)
        else:
            done = lambda: self._deliver_to_ue(ue_name, inner, rng)
        self._traverse(self.links[ue_name], direction, now, len(wire), done, rng, wire)

    def _traverse(self, link: RadioLink, direction: str, t: int, size: int, done,
                  rng: Random | None = None, wire: bytes | None = None, start: int = 0) -> None:
        hops = link.hops[direction]
        for index in range(start, len(hops)):
            hop = hops[index]
            if hop is RADIO:
                gate = access.lbt_gate(self.scenario.occupancy, self.scenario.cell.lbt, t, link.rng)
                t = access.next_transmit_time(self.scenario.cell.tdd, direction, gate.grant_us)
                if not relay_passes(link.viable, size):
                    self.log.append({"t_us": self.loop.now_us, "actor": link.gnb.name,
                                     "action": "radio_drop", "direction": direction,
                                     "size": size})
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
        t = self.loop.now_us
        uplink = direction == "UL"
        session = self.core.sessions.get(link.ue.name)
        teid = (session.teid_uplink if uplink else session.teid_downlink) if session else 0
        self.log.append({"t_us": t, "actor": link.gnb.name,
                         "action": "gtpu_ul" if uplink else "gtpu_dl", "teid": teid,
                         "size": len(wire)})
        ident = self._next_ident()  # at every stop, tapped or not, as SimNetwork draws it
        tap = f"n3:{link.gnb.name}"
        if tap in self.taps:
            gnb_addr = link.gnb.n3_address or self.core.config.amf_address
            upf_addr = self.core.config.upf_address
            src, dst = (gnb_addr, upf_addr) if uplink else (upf_addr, gnb_addr)
            tunnel = encode_gtpu(teid, wire)
            outer = InnerPacket(src=src, dst=dst, protocol="UDP", payload=tunnel, ident=ident,
                                sport=userplane.GTPU_PORT, dport=userplane.GTPU_PORT)
            self._tap(tap, outer)

    def _tap(self, name: str, frame: bytes | InnerPacket) -> None:
        frames = self.taps.get(name)
        if frames is not None:
            data = frame if isinstance(frame, bytes) else encode_ip(frame)
            frames.append((self.loop.now_us, data))


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


def byte_run(scenario, network_class: type[SimNetwork]) -> runner.RunResult:
    """``run_scenario`` with byte taps, its passive section folded from the bytes."""
    with mock.patch.object(runner, "SimNetwork", wraps=network_class) as byte_network, \
            mock.patch.object(runner, "fold_sessions", byte_fold_sessions):
        result = runner.run_scenario(scenario)
    byte_network.assert_called_once()
    return result


def assert_same_run(lazy: runner.RunResult, byte: runner.RunResult) -> None:
    assert list(lazy.taps) == list(byte.taps)
    for tap, frames in byte.taps.items():
        assert all(type(raw) is bytes for _t, raw in frames)
        assert lazy.frames(tap) == frames, tap
    assert lazy.report == byte.report  # the passive section above all
    assert lazy.log.records == byte.log.records


@settings(max_examples=40, deadline=None)
@given(raw=ping_scenarios(), taps=st.sets(st.sampled_from(VALID_TAPS)))
def test_packets_capture_and_log_as_the_eager_bytes(raw, taps):
    raw["taps"] = sorted(taps)
    lazy = runner.run_scenario(scenario_from_dict(raw))
    assert set(lazy.taps) == taps
    for network_class in (ByteTapSimNetwork, EagerSimNetwork):
        assert_same_run(lazy, byte_run(scenario_from_dict(raw), network_class))


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS) + sorted(INLINE_CASES))
def test_golden_cases_capture_fold_and_log_as_the_byte_tap_path(bundled_results, name):
    if name in BUNDLED_DIGESTS:
        lazy, scenario = bundled_results[name], load_bundled(name)
    else:
        lazy, scenario = _inline_result(name), scenario_from_dict(INLINE_CASES[name][0]())
    assert_same_run(lazy, byte_run(scenario, ByteTapSimNetwork))


@settings(max_examples=40, deadline=None)
@given(raw=ping_scenarios())
def test_each_tap_captures_the_same_frames_whatever_other_taps_are_set(raw):
    raw["taps"] = VALID_TAPS
    every = runner.run_scenario(scenario_from_dict(raw))
    for size in range(len(VALID_TAPS)):
        for taps in itertools.combinations(VALID_TAPS, size):
            raw["taps"] = list(taps)
            some = runner.run_scenario(scenario_from_dict(raw))
            assert some.events_jsonl() == every.events_jsonl()
            for tap in taps:
                assert some.frames(tap) == every.frames(tap), (taps, tap)


def test_a_run_with_taps_encodes_and_decodes_nothing():
    def refuse(*_args):
        raise AssertionError("the run touched the codec")

    scenario = load_bundled("north_south")
    assert len(scenario.taps) == 3
    with mock.patch.object(network, "encode_ip", refuse), \
            mock.patch.object(network, "encode_gtpu", refuse), \
            mock.patch.object(metrics, "decode_ip", refuse):
        result = runner.run_scenario(scenario)
    assert all(result.taps.values())
    report_digest = hashlib.sha256(result.report_json().encode("utf-8")).hexdigest()
    assert report_digest == BUNDLED_DIGESTS["north_south"][0]


def test_passive_monitor_decodes_then_folds_as_the_single_loop():
    """Over real tap frames with some truncated or corrupted, both monitors agree."""
    result = runner.run_scenario(load_bundled("north_south"))
    for tap in result.taps:
        frames = result.frames(tap)
        mangled = [(t_us, raw[:len(raw) // 2] if index % 5 == 0 else raw)
                   for index, (t_us, raw) in enumerate(frames)]
        assert byte_passive_monitor(mangled).unparsed_frames > 0
        for capture in (frames, mangled):
            assert metrics.passive_monitor(capture) == byte_passive_monitor(capture)


class TraverseSimNetwork(SimNetwork):
    """One ``_traverse`` for a packet's first stage and a bulk tick's whole leg.

    It branches on which one it carries: a packet (``pkt`` and ``rng``
    set) stops at the gNB, a bulk tick runs on with no stop.
    """

    def _send(self, ue_name: str, direction: str, inner: InnerPacket, rng: Random) -> None:
        now = self.loop.now_us
        inner = self._with_ident(inner)
        link = self.links[ue_name]
        if direction == "UL":
            self._tap(link.ue_tap, inner)
            done = partial(self._upf_ingress, inner, rng)
        else:
            done = partial(self._deliver_to_ue, ue_name, inner, rng)
        self._traverse(link, direction, now, userplane.ip_length(inner), done, rng, inner)

    def _bulk(self, ue_name, direction, nbytes, tag, delivered_cb) -> None:
        if ue_name not in self.core.sessions:
            return
        link = self.links[ue_name]
        now = self.loop.now_us
        sender, receiver = (ue_name, "core") if direction == "UL" else ("core", ue_name)
        self.log.append({"action": "bulk_tx", "actor": sender, "direction": direction,
                         "size": nbytes, "sub": tag[1], "t_us": now, "window": tag[0]})
        delivered = nbytes if link.drop_fraction == 0 else round(nbytes * (1 - link.drop_fraction))
        self._traverse(link, direction, now, nbytes,
                       partial(self._bulk_rx, receiver, direction, delivered, tag, delivered_cb))

    def _traverse(self, link: RadioLink, direction: str, t: int, size: int, done,
                  rng: Random | None = None, pkt: InnerPacket | None = None) -> None:
        first_us, _, _, last_us = link.hops[direction]
        t += first_us
        if direction == "UL":
            t = self._radio(link, direction, t, size, rng)
            if t is None:
                return
        if pkt is not None:
            self.loop.schedule_at(t, partial(self._gnb_resume, link, direction, size, done, rng,
                                             pkt))
            return
        if direction == "DL":
            t = self._radio(link, direction, t, size, rng)
            if t is None:
                return
        self.loop.schedule_at(t + last_us, done)


class ClosureBulkSimNetwork(TraverseSimNetwork):
    """Schedules each bulk tick as a lambda and logs its arrival from an ``rx`` closure."""

    def schedule_bulk_tick(self, ue_name, direction, at_us, nbytes, tag, delivered_cb) -> None:
        self.loop.schedule_at(at_us, lambda: self._bulk(ue_name, direction, nbytes, tag,
                                                        delivered_cb))

    def _bulk(self, ue_name, direction, nbytes, tag, delivered_cb) -> None:
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

        self._traverse(link, direction, self.loop.now_us, nbytes, rx)


@st.composite
def bulk_scenarios(draw) -> dict:
    """UL and DL throughput plans on ue1 and on an unprovisioned ue2 (whose
    ticks return early), optionally behind an overloaded gNB host (every
    tick a ``radio_drop``), under zero or more foreign bursts."""
    raw = variant(name="bulk_oracle", seed=draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        raw["nodes"][0]["host"] = "nuc-i5-core"
    raw["nodes"].append({"name": "ue2", "role": "ue", "host": "nuc-i5", "sdr": "b210",
                         "imsi": "001010000000002", "gnb": "gnb1", "unprovisioned": True,
                         "medium": {"kind": "cable", "length_cm": 50}})
    for ue, direction, duration_s in draw(st.lists(st.tuples(
            st.sampled_from(["ue1", "ue2"]), st.sampled_from(["UL", "DL"]),
            st.integers(1, 2)), min_size=1, max_size=3)):
        raw["traffic"].append({"probe": "throughput", "ue": ue, "direction": direction,
                               "duration_s": duration_s})
    bursts = draw(st.lists(st.tuples(st.integers(0, 4_000_000), st.integers(1, 200_000),
                                     st.sampled_from([-80.0, -50.0])), max_size=30))
    raw["occupancy"] = [{"start_us": start, "end_us": start + length, "power_dbm": power}
                        for start, length, power in bursts]
    return raw


def run_with(scenario, network_class: type[SimNetwork]) -> runner.RunResult:
    """``run_scenario`` on ``network_class`` instead of ``SimNetwork``."""
    with mock.patch.object(runner, "SimNetwork", wraps=network_class) as closure_network:
        result = runner.run_scenario(scenario)
    closure_network.assert_called_once()
    return result


def assert_same_text(partial_run: runner.RunResult, closure_run: runner.RunResult) -> None:
    assert partial_run.events_jsonl() == closure_run.events_jsonl()
    assert partial_run.report_json() == closure_run.report_json()


@settings(max_examples=40, deadline=None)
@given(raw=bulk_scenarios())
def test_partial_bulk_ticks_write_what_the_closures_wrote(raw):
    assert_same_text(runner.run_scenario(scenario_from_dict(raw)),
                     run_with(scenario_from_dict(raw), ClosureBulkSimNetwork))


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS) + sorted(INLINE_CASES))
def test_golden_cases_write_what_the_closure_bulk_ticks_wrote(bundled_results, name):
    if name in BUNDLED_DIGESTS:
        result, scenario = bundled_results[name], load_bundled(name)
    else:
        result, scenario = _inline_result(name), scenario_from_dict(INLINE_CASES[name][0]())
    assert_same_text(result, run_with(scenario, ClosureBulkSimNetwork))


class ClosurePacketSimNetwork(SimNetwork):
    """Packet continuations as closures and lambdas; an LBT substream on every link.

    A ping leaves from an ``emit`` closure, ``_send`` hands ``_traverse`` a
    ``done`` lambda, the gNB stop is a ``gnb_step`` closure and both N6
    legs are lambdas.
    """

    def __init__(self, scenario, loop, log, calib):
        super().__init__(scenario, loop, log, calib)
        for name, link in self.links.items():
            link.rng = derive_rng(scenario.seed, f"lbt:{name}")

    def schedule_icmp_echo(self, ue_name, dst_ip, ident, seq, at_us, rng) -> None:
        def emit():
            session = self.core.sessions.get(ue_name)
            if session is None:
                self.log.append({"t_us": self.loop.now_us, "actor": ue_name,
                                 "action": "ping_no_route", "seq": seq})
                return
            inner = userplane.icmp_echo_request(session.ip, dst_ip, ident, seq)
            self.log.append({"t_us": self.loop.now_us, "actor": ue_name, "action": "ping_tx",
                             "dst": dst_ip, "seq": seq, "ident": ident})
            self._send(ue_name, "UL", inner, rng)

        self.loop.schedule_at(at_us, emit)

    def _send(self, ue_name: str, direction: str, inner: InnerPacket, rng: Random) -> None:
        now = self.loop.now_us
        inner = self._with_ident(inner)
        link = self.links[ue_name]
        if direction == "UL":
            self._tap(link.ue_tap, inner)
            done = lambda: self._upf_ingress(inner, rng)
        else:
            done = lambda: self._deliver_to_ue(ue_name, inner, rng)
        self._traverse(link, direction, now, userplane.ip_length(inner), done, rng, inner)

    def _traverse(self, link: RadioLink, direction: str, t: int, size: int, done,
                  rng: Random | None = None, pkt: InnerPacket | None = None,
                  start: int = 0) -> None:
        hops = link.hops[direction]
        for index in range(start, len(hops)):
            hop = hops[index]
            if hop is RADIO:
                gate = access.lbt_gate(self._occupancy, self._lbt, t, link.rng)
                t = access.next_transmit_time(self._tdd, direction, gate.grant_us)
                if not relay_passes(link.viable, size):
                    self.log.append({"t_us": self.loop.now_us, "actor": link.gnb.name,
                                     "action": "radio_drop", "direction": direction,
                                     "size": size})
                    return
                t += link.radio_us
                if rng is not None:
                    t += rng.randrange(self._jitter_max_us + 1)
            elif hop is GNB:
                if pkt is not None:
                    def gnb_step():
                        self._gnb_step(link, direction, pkt, size)
                        self._traverse(link, direction, self.loop.now_us, size, done, rng, pkt,
                                       index + 1)

                    self.loop.schedule_at(t, gnb_step)
                    return
            else:
                t += hop
        self.loop.schedule_at(t, done)

    def _apply_forward(self, decision: ForwardDecision, inner: InnerPacket, rng: Random) -> None:
        now = self.loop.now_us
        if decision.action == userplane.FORWARD_DROP:
            self.log.append({"t_us": now, "actor": "upf", "action": "upf_drop",
                             "dst": inner.dst})
            return
        if decision.action == userplane.FORWARD_TUNNEL:
            session = decision.session
            self.log.append({"t_us": now, "actor": "upf", "action": "upf_tunnel",
                             "dst": inner.dst, "teid": session.teid_downlink})
            self._send(session.ue_id, "DL", decision.packet, rng)
            return
        rewritten = decision.packet
        if inner.protocol == "ICMP":
            self._nat[("ICMP", inner.icmp_id)] = inner.src
        self.log.append({"t_us": now, "actor": "upf", "action": "upf_egress",
                         "dst": rewritten.dst, "visible_src": rewritten.src})
        self._tap("n6", rewritten)
        self.loop.schedule_after(self.scenario.external.one_way_delay_us,
                                 lambda: self._external_ingress(rewritten, rng))

    def _external_ingress(self, pkt: InnerPacket, rng: Random) -> None:
        now = self.loop.now_us
        if pkt.icmp_type != userplane.ICMP_ECHO_REQUEST:
            return
        reply = userplane.echo_reply_for(pkt, ttl=self.scenario.external.ttl)
        self.log.append({"t_us": now, "actor": "external", "action": "external_reply",
                         "to": reply.dst, "seq": reply.icmp_seq})
        self.loop.schedule_after(self.scenario.external.one_way_delay_us,
                                 lambda: self._n6_ingress(reply, rng))

    def _upf_ingress(self, inner: InnerPacket, rng: Random) -> None:
        now = self.loop.now_us
        if inner.dst in (self.gateway, self.core.config.upf_address):
            if inner.icmp_type == userplane.ICMP_ECHO_REQUEST:
                self.log.append({"action": "core_echo", "actor": "core", "seq": inner.icmp_seq,
                                 "src": inner.src, "t_us": now})
                self._upf_ingress(userplane.echo_reply_for(inner), rng)
            return
        decision = userplane.upf_forward(inner, self.routes)
        self._apply_forward(decision, inner, rng)

    def _n6_ingress(self, pkt: InnerPacket, rng: Random) -> None:
        pkt = self._with_ident(pkt)
        self._tap("n6", pkt)
        original = self._nat.get((pkt.protocol, pkt.icmp_id))
        if original is None:
            self._apply_forward(ForwardDecision(action=userplane.FORWARD_DROP), pkt, rng)
            return
        restored = pkt._replace(dst=original)
        self._apply_forward(userplane.upf_forward(restored, self.routes), restored, rng)

    def _deliver_to_ue(self, ue_name: str, inner: InnerPacket, rng: Random) -> None:
        now = self.loop.now_us
        self._tap(self.links[ue_name].ue_tap, inner)
        if inner.icmp_type == userplane.ICMP_ECHO_REPLY:
            self.log.append({"action": "rtt_sample", "actor": ue_name, "ident": inner.icmp_id,
                             "seq": inner.icmp_seq,
                             "session": flow_session_id("ICMP", inner.icmp_id), "t_us": now})
            return
        if inner.icmp_type == userplane.ICMP_ECHO_REQUEST:
            self.log.append({"action": "ue_echo", "actor": ue_name, "seq": inner.icmp_seq,
                             "src": inner.src, "t_us": now})
            self._send(ue_name, "UL", userplane.echo_reply_for(inner), rng)


def assert_same_output(partial_run: runner.RunResult, closure_run: runner.RunResult) -> None:
    assert_same_text(partial_run, closure_run)
    assert list(partial_run.taps) == list(closure_run.taps)
    for tap in closure_run.taps:
        assert partial_run.frames(tap) == closure_run.frames(tap), tap


@settings(max_examples=40, deadline=None)
@given(raw=ping_scenarios(), taps=st.sets(st.sampled_from(VALID_TAPS)),
       sessionless_ue2=st.booleans())
def test_partial_packets_write_and_capture_what_the_closures_did(raw, taps, sessionless_ue2):
    raw["taps"] = sorted(taps)
    if sessionless_ue2:  # its pings log ping_no_route, and pings to it drop at the UPF
        raw["core"]["subscribers"].pop()
        raw["nodes"][-1]["unprovisioned"] = True
    assert_same_output(runner.run_scenario(scenario_from_dict(raw)),
                       run_with(scenario_from_dict(raw), ClosurePacketSimNetwork))


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS) + sorted(INLINE_CASES))
def test_golden_cases_write_what_the_closure_packets_wrote(bundled_results, name):
    if name in BUNDLED_DIGESTS:
        result, scenario = bundled_results[name], load_bundled(name)
    else:
        result, scenario = _inline_result(name), scenario_from_dict(INLINE_CASES[name][0]())
    assert_same_output(result, run_with(scenario, ClosurePacketSimNetwork))


# golden_contended and long_burst have foreign bursts; the other cases have none.
@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS) + sorted(INLINE_CASES))
def test_links_derive_an_lbt_substream_only_under_bursts(name):
    scenario = load_bundled(name) if name in BUNDLED_DIGESTS else \
        scenario_from_dict(INLINE_CASES[name][0]())
    net = SimNetwork(scenario, EventLoop(), EventLog(), load_calibration())
    assert net.links
    for ue, link in net.links.items():
        if scenario.occupancy.bursts:
            assert link.rng.getstate() == derive_rng(scenario.seed, f"lbt:{ue}").getstate()
        else:
            assert link.rng is None


class HopTableSimNetwork(TraverseSimNetwork):
    """The access leg as a walk over the hop table, asking ``lbt_gate`` at every radio hop."""

    def _traverse(self, link: RadioLink, direction: str, t: int, size: int, done,
                  rng: Random | None = None, pkt: InnerPacket | None = None,
                  start: int = 0) -> None:
        hops = link.hops[direction]
        for index in range(start, len(hops)):
            hop = hops[index]
            if hop is RADIO:
                gate = access.lbt_gate(self._occupancy, self._lbt, t, link.rng)
                t = access.next_transmit_time(self._tdd, direction, gate.grant_us)
                if not relay_passes(link.viable, size):
                    self.log.append({"action": "radio_drop", "actor": link.gnb.name,
                                     "direction": direction, "size": size,
                                     "t_us": self.loop.now_us})
                    return
                t += link.radio_us
                if rng is not None:
                    t += rng.randrange(self._jitter_max_us + 1)
            elif hop is GNB:
                if pkt is not None:
                    self.loop.schedule_at(t, partial(self._gnb_resume, link, direction, size,
                                                     done, rng, pkt, index + 1))
                    return
            else:
                t += hop
        self.loop.schedule_at(t, done)

    def _gnb_resume(self, link: RadioLink, direction: str, size: int, done, rng: Random,
                    pkt: InnerPacket, start: int) -> None:
        self._gnb_step(link, direction, pkt, size)
        self._traverse(link, direction, self.loop.now_us, size, done, rng, pkt, start)


@st.composite
def leg_scenarios(draw) -> dict:
    """Pings and throughput plans on two UEs with random taps, under foreign
    bursts or none, optionally behind an overloaded gNB host (every bulk tick
    a ``radio_drop``) and with ue2 unprovisioned."""
    raw = draw(ping_scenarios())
    if not draw(st.booleans()):
        raw["occupancy"] = []
    if draw(st.booleans()):
        raw["nodes"][0]["host"] = "nuc-i5-core"
    if draw(st.booleans()):
        raw["core"]["subscribers"].pop()
        raw["nodes"][-1]["unprovisioned"] = True
    for ue, direction in draw(st.lists(st.tuples(st.sampled_from(["ue1", "ue2"]),
                                                 st.sampled_from(["UL", "DL"])), max_size=2)):
        raw["traffic"].append({"probe": "throughput", "ue": ue, "direction": direction,
                               "duration_s": 1})
    raw["taps"] = sorted(draw(st.sets(st.sampled_from(VALID_TAPS))))
    return raw


@settings(max_examples=40, deadline=None)
@given(raw=leg_scenarios())
def test_two_stage_legs_write_and_capture_what_the_hop_table_walk_did(raw):
    assert_same_output(runner.run_scenario(scenario_from_dict(raw)),
                       run_with(scenario_from_dict(raw), HopTableSimNetwork))


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS) + sorted(INLINE_CASES))
def test_golden_cases_write_what_the_hop_table_walk_wrote(bundled_results, name):
    if name in BUNDLED_DIGESTS:
        result, scenario = bundled_results[name], load_bundled(name)
    else:
        result, scenario = _inline_result(name), scenario_from_dict(INLINE_CASES[name][0]())
    assert_same_output(result, run_with(scenario, HopTableSimNetwork))


def lbt_gate_calls(scenario, network_class: type[SimNetwork]) -> int:
    with mock.patch.object(access, "lbt_gate", wraps=access.lbt_gate) as gate:
        run_with(scenario, network_class)
    return gate.call_count


def test_lbt_gate_runs_at_every_radio_hop_under_bursts_and_never_without():
    hops = {}  # golden case -> (radio hops, lbt_gate calls of the run, bursts or not)
    for name in sorted(BUNDLED_DIGESTS) + sorted(INLINE_CASES):
        scenario = load_bundled(name) if name in BUNDLED_DIGESTS else \
            scenario_from_dict(INLINE_CASES[name][0]())
        hops[name] = (lbt_gate_calls(scenario, HopTableSimNetwork),  # one per RADIO entry
                      lbt_gate_calls(scenario, SimNetwork), bool(scenario.occupancy.bursts))
    for name, (radio_hops, calls, bursty) in hops.items():
        assert calls == (radio_hops if bursty else 0), name
    assert {bursty for radio_hops, _calls, bursty in hops.values() if radio_hops} == {False, True}
