"""The packet-carrying data path against the byte-carrying one it replaced.

``SimNetwork`` carries ``InnerPacket`` from UE to UPF and back, and makes
wire bytes only where a tap keeps the frame.  It used to encode every
packet in ``_send`` to learn its length, carry the bytes through
``_traverse`` to the gNB step, and let ``_tap`` take bytes or a packet.
``EagerSimNetwork`` keeps that path verbatim as an oracle: over generated
ping scenarios and random tap subsets, both must capture the same frames
and log the same records.
"""

from __future__ import annotations

from random import Random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from nrusim import access, runner, userplane
from nrusim.network import GNB, RADIO, RadioLink, SimNetwork
from nrusim.scenario import scenario_from_dict
from nrusim.userplane import InnerPacket, encode_gtpu, encode_ip, relay_passes
from tests.test_runner import ping_scenarios

VALID_TAPS = ["ue:ue1", "ue:ue2", "n3:gnb1", "n6"]


class EagerSimNetwork(SimNetwork):
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
            self._tap(tap, outer)

    def _tap(self, name: str, frame: bytes | InnerPacket) -> None:
        frames = self.taps.get(name)
        if frames is not None:
            data = frame if isinstance(frame, bytes) else encode_ip(frame)
            frames.append((self.loop.now_us, data))


@settings(max_examples=40, deadline=None)
@given(raw=ping_scenarios(), taps=st.sets(st.sampled_from(VALID_TAPS)))
def test_packets_capture_and_log_as_the_eager_bytes(raw, taps):
    raw["taps"] = sorted(taps)
    lazy = runner.run_scenario(scenario_from_dict(raw))
    with mock.patch.object(runner, "SimNetwork", wraps=EagerSimNetwork) as eager_network:
        eager = runner.run_scenario(scenario_from_dict(raw))
    eager_network.assert_called_once()
    assert set(lazy.taps) == taps
    assert lazy.taps == eager.taps
    assert lazy.log.records == eager.log.records
