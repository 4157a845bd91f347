import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrusim.corenet import PduSession
from nrusim.errors import (
    FramingError,
    OversizePayloadError,
    TruncatedPacketError,
    VersionError,
)
from nrusim.userplane import (
    BULK_SIZE_CUTOFF,
    FORWARD_DROP,
    FORWARD_EGRESS,
    FORWARD_TUNNEL,
    GnbRelay,
    InnerPacket,
    RouteTable,
    decode_gtpu,
    decode_ip,
    echo_reply_for,
    encode_gtpu,
    encode_ip,
    icmp_echo_request,
    parse_gtpu,
    upf_forward,
)


def ping_packet() -> bytes:
    return encode_ip(icmp_echo_request("12.1.1.2", "8.8.8.8", ident=0x1234, seq=1))


class TestGtpuFixedVectors:
    # Byte layouts confirmed against a reference protocol dissector before
    # the codec was written; frozen here.
    def test_icmp_gpdu(self):
        inner = ping_packet()
        assert len(inner) == 84
        frame = encode_gtpu(1, inner)
        assert len(frame) == 92
        assert frame[:8] == bytes.fromhex("30ff005400000001")
        assert frame[:8] == bytes((0x30, 0xFF, 0x00, 0x54, 0x00, 0x00, 0x00, 0x01))

    def test_empty_payload(self):
        assert encode_gtpu(0, b"") == bytes((0x30, 0xFF, 0, 0, 0, 0, 0, 0))

    def test_teid_big_endian(self):
        frame = encode_gtpu(0xDEADBEEF, b"\x00")
        assert frame[4:8] == bytes((0xDE, 0xAD, 0xBE, 0xEF))
        assert frame[2:4] == bytes((0x00, 0x01))


class TestGtpuCodec:
    def test_round_trip_bulk(self):
        rng = random.Random(20240917)
        for _ in range(10_000):
            teid = rng.randrange(0, 2**32)
            payload = rng.randbytes(rng.randrange(0, 1501))
            assert decode_gtpu(encode_gtpu(teid, payload)) == (teid, payload)

    @given(teid=st.integers(min_value=0, max_value=2**32 - 1),
           payload=st.binary(max_size=1500))
    def test_round_trip_property(self, teid, payload):
        assert decode_gtpu(encode_gtpu(teid, payload)) == (teid, payload)

    def test_oversize_rejected(self):
        with pytest.raises(OversizePayloadError):
            encode_gtpu(1, b"\x00" * 65536)

    def test_truncated(self):
        with pytest.raises(TruncatedPacketError):
            decode_gtpu(b"\x30\xff\x00")

    def test_wrong_version(self):
        frame = bytearray(encode_gtpu(1, b"hi"))
        frame[0] = 0x50  # version 2 in the top three bits
        with pytest.raises(VersionError):
            decode_gtpu(bytes(frame))

    def test_length_mismatch(self):
        frame = encode_gtpu(1, b"hi") + b"extra"
        with pytest.raises(FramingError, match="length"):
            decode_gtpu(frame)

    def test_non_gpdu_message_type_rejected(self):
        frame = bytearray(encode_gtpu(1, b""))
        frame[1] = 1  # echo request message type
        with pytest.raises(FramingError, match="G-PDU"):
            decode_gtpu(bytes(frame))

    def test_optional_fields_decodable(self):
        # Sequence-flagged header: never emitted, still parsed.
        payload = b"\xAB\xCD"
        frame = bytes((0x32, 0xFF, 0x00, 0x06, 0x00, 0x00, 0x00, 0x07,
                       0x00, 0x2A, 0x00, 0x00)) + payload
        header, parsed = parse_gtpu(frame)
        assert header.seq_flag and header.sequence == 0x2A
        assert header.teid == 7
        assert parsed == payload


class TestIpCodec:
    def test_ping_packet_shape(self):
        raw = ping_packet()
        assert len(raw) == 84  # 20 IP + 8 ICMP + 56 payload
        pkt = decode_ip(raw)
        assert (pkt.src, pkt.dst, pkt.protocol) == ("12.1.1.2", "8.8.8.8", "ICMP")
        assert (pkt.icmp_type, pkt.icmp_id, pkt.icmp_seq) == (8, 0x1234, 1)

    @given(payload=st.binary(max_size=1400),
           ident=st.integers(min_value=0, max_value=0xFFFF),
           seq=st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=200)
    def test_icmp_round_trip(self, payload, ident, seq):
        pkt = icmp_echo_request("10.1.1.5", "142.250.204.4", ident, seq, payload=payload)
        assert decode_ip(encode_ip(pkt)) == pkt

    def test_udp_round_trip(self):
        pkt = InnerPacket(src="12.1.1.2", dst="12.1.1.1", protocol="UDP",
                          payload=b"data", sport=5001, dport=5201)
        assert decode_ip(encode_ip(pkt)) == pkt

    def test_corrupted_checksum_detected(self):
        raw = bytearray(ping_packet())
        raw[10] ^= 0xFF
        with pytest.raises(FramingError, match="checksum"):
            decode_ip(bytes(raw))

    def test_echo_reply_mirrors_request(self):
        request = icmp_echo_request("10.1.1.5", "142.250.204.4", 7, 3)
        reply = echo_reply_for(request)
        assert (reply.src, reply.dst) == (request.dst, request.src)
        assert reply.icmp_type == 0
        assert (reply.icmp_id, reply.icmp_seq) == (7, 3)
        assert reply.payload == request.payload


def make_routes(sessions: dict[str, PduSession] | None = None) -> RouteTable:
    return RouteTable(
        pool_cidr="12.1.1.0/24",
        sessions=sessions if sessions is not None else {},
        upf_address="192.168.70.134",
    )


def session(ue_id: str, ip: str) -> PduSession:
    return PduSession(ue_id=ue_id, ip=ip, teid_uplink=1, teid_downlink=2)


class TestUpfForward:
    def test_east_west_toward_session_tunnel(self):
        routes = make_routes({"12.1.1.2": session("ue2", "12.1.1.2")})
        pkt = icmp_echo_request("12.1.1.3", "12.1.1.2", 1, 1)
        decision = upf_forward(pkt, routes)
        assert decision.action == FORWARD_TUNNEL
        assert decision.session.ue_id == "ue2"
        assert decision.packet == pkt  # inner preserved byte-exact

    def test_north_south_rewrites_source(self):
        routes = make_routes()
        pkt = icmp_echo_request("10.1.1.5", "142.250.204.4", 1, 1)
        decision = upf_forward(pkt, routes)
        assert decision.action == FORWARD_EGRESS
        assert decision.packet.src == "192.168.70.134"
        assert decision.packet.dst == "142.250.204.4"

    def test_pool_address_without_session_drops(self):
        routes = make_routes({"12.1.1.2": session("ue2", "12.1.1.2")})
        pkt = icmp_echo_request("12.1.1.3", "12.1.1.99", 1, 1)
        assert upf_forward(pkt, routes).action == FORWARD_DROP

    def test_released_session_drops(self):
        stale = session("ue2", "12.1.1.2")
        stale.state = "RELEASED"
        routes = make_routes({"12.1.1.2": stale})
        pkt = icmp_echo_request("12.1.1.3", "12.1.1.2", 1, 1)
        assert upf_forward(pkt, routes).action == FORWARD_DROP

    @given(src=st.tuples(st.integers(1, 254), st.integers(0, 254)))
    @settings(max_examples=50)
    def test_forwarding_is_source_blind(self, src):
        routes = make_routes({"12.1.1.2": session("ue2", "12.1.1.2")})
        pkt = icmp_echo_request(f"10.{src[0]}.{src[1]}.9", "12.1.1.2", 1, 1)
        decision = upf_forward(pkt, routes)
        assert decision.action == FORWARD_TUNNEL
        assert decision.session.ue_id == "ue2"


class TestGnbRelay:
    def test_viable_link_is_transparent(self):
        assert GnbRelay(viable=True).passes(1400)

    def test_non_viable_drops_bulk_keeps_icmp(self):
        relay = GnbRelay(viable=False, drop_fraction=0.015)
        assert relay.passes(len(ping_packet()))
        assert relay.passes(BULK_SIZE_CUTOFF)
        assert not relay.passes(BULK_SIZE_CUTOFF + 1)
        assert not relay.passes(1400)
