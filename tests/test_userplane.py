import dataclasses
import random
import socket
import struct
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrusim.corenet import IpPool, PduSession
from nrusim.errors import (
    CodecError,
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
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    ForwardDecision,
    InnerPacket,
    RouteTable,
    decode_gtpu,
    decode_ip,
    echo_reply_for,
    encode_gtpu,
    encode_ip,
    icmp_echo_request,
    internet_checksum,
    ip_length,
    relay_passes,
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
        assert decode_gtpu(frame) == (7, payload)


# ---------------------------------------------------------------------------
# Oracle: the two-stage GTP-U decoder (header record, then data-path checks)
# that ``decode_gtpu`` folds into one pass.  Same checks, same order.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _OracleHeader:
    version: int
    protocol_type: int
    ext_flag: bool
    seq_flag: bool
    npdu_flag: bool
    message_type: int
    length: int
    teid: int
    sequence: int | None = None
    npdu: int | None = None


def _oracle_parse_gtpu(data: bytes) -> tuple[_OracleHeader, bytes]:
    if len(data) < 8:
        raise TruncatedPacketError(f"GTP-U needs >= 8 B, got {len(data)}")
    flags, message_type, length, teid = struct.unpack("!BBHI", data[:8])
    version = flags >> 5
    if version != 1:
        raise VersionError(f"GTP-U version must be 1, got {version}")
    protocol_type = (flags >> 4) & 1
    ext_flag = bool(flags & 0x04)
    seq_flag = bool(flags & 0x02)
    npdu_flag = bool(flags & 0x01)
    if length != len(data) - 8:
        raise FramingError(f"header length {length} does not match the {len(data) - 8} B present")
    offset = 8
    sequence = npdu = None
    if ext_flag or seq_flag or npdu_flag:
        if len(data) < offset + 4:
            raise TruncatedPacketError("optional-field flags set but the 4-byte field is missing")
        raw_seq, raw_npdu, next_ext = struct.unpack("!HBB", data[offset : offset + 4])
        offset += 4
        if seq_flag:
            sequence = raw_seq
        if npdu_flag:
            npdu = raw_npdu
        while ext_flag and next_ext != 0:
            if len(data) < offset + 1:
                raise TruncatedPacketError("extension header truncated")
            units = data[offset]
            if units == 0:
                raise FramingError("extension header with zero length")
            size = units * 4
            if len(data) < offset + size:
                raise TruncatedPacketError("extension header truncated")
            next_ext = data[offset + size - 1]
            offset += size
    header = _OracleHeader(version, protocol_type, ext_flag, seq_flag, npdu_flag,
                           message_type, length, teid)
    if sequence is not None or npdu is not None:
        header = replace(header, sequence=sequence, npdu=npdu)
    return header, data[offset:]


def _oracle_decode_gtpu(data: bytes) -> tuple[int, bytes]:
    header, payload = _oracle_parse_gtpu(data)
    if header.protocol_type != 1:
        raise FramingError("protocol type 0 (GTP') is not carried on the data path")
    if header.message_type != 255:
        raise FramingError(f"message type {header.message_type} is not a G-PDU (255)")
    return header.teid, payload


PDU_SESSION_CONTAINER = 0x85  # next-extension type, 3GPP TS 29.281 §5.2


@st.composite
def gtpu_frames(draw):
    """Well-formed-length GTP-U frames with random optional fields.

    Flags E/S/PN, PT and the message type are random; with E set the
    4-byte optional field starts a chain of 0-3 extension headers, often a
    PDU Session Container as real N3 traffic carries.
    """
    ext, seq, npdu = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    protocol_type = draw(st.sampled_from([1, 1, 1, 0]))
    message_type = draw(st.sampled_from([255, 255, 255, 1, 26]))
    teid = draw(st.integers(0, 2**32 - 1))
    body = b""
    if ext or seq or npdu:
        chain = draw(st.lists(
            st.tuples(st.sampled_from([PDU_SESSION_CONTAINER, 0x40, 0xC0, 0x81]),
                      st.integers(1, 3)),
            max_size=3,
        )) if ext else []
        first = chain[0][0] if chain else draw(st.sampled_from([0, 0, PDU_SESSION_CONTAINER]))
        body = struct.pack("!HBB", draw(st.integers(0, 0xFFFF)), draw(st.integers(0, 0xFF)), first)
        for i, (_kind, units) in enumerate(chain):
            following = chain[i + 1][0] if i + 1 < len(chain) else 0
            content = draw(st.binary(min_size=units * 4 - 2, max_size=units * 4 - 2))
            body += bytes((units,)) + content + bytes((following,))
    body += draw(st.binary(max_size=48))
    flags = 0x20 | protocol_type << 4 | ext << 2 | seq << 1 | npdu
    return struct.pack("!BBHI", flags, message_type, len(body), teid) + body


@st.composite
def mutated_gtpu_frames(draw):
    """A frame from ``gtpu_frames`` with random bytes overwritten, then maybe cut short.

    Half the time the length field is then made to match again, so the
    checks behind it (optional field, extension chain, PT, message type)
    see the damage too.
    """
    frame = bytearray(draw(gtpu_frames()))
    for _ in range(draw(st.integers(0, 3))):
        # Zero is drawn often: it is a zero-length extension header or an end of chain.
        frame[draw(st.integers(0, len(frame) - 1))] = draw(st.just(0) | st.integers(0, 0xFF))
    if draw(st.booleans()):
        del frame[draw(st.integers(0, len(frame))):]
    if len(frame) >= 8 and draw(st.booleans()):
        frame[2:4] = struct.pack("!H", len(frame) - 8)
    return bytes(frame)


def _outcome(decode, frame: bytes):
    try:
        return decode(frame)
    except CodecError as exc:
        return type(exc), str(exc)


class TestGtpuDecoderOracle:
    def test_pdu_session_container_skipped(self):
        inner = ping_packet()
        container = bytes((1, 0x10, 0x09, 0))  # one unit: UL PDU session info, QFI 9, no next
        optional = struct.pack("!HBB", 0, 0, PDU_SESSION_CONTAINER)
        frame = struct.pack("!BBHI", 0x34, 0xFF, 8 + len(inner), 5) + optional + container + inner
        assert decode_gtpu(frame) == (5, inner)
        assert _oracle_decode_gtpu(frame) == (5, inner)

    @pytest.mark.parametrize("frame, error, message", [
        # S set, the 4-byte optional field cut to two bytes.
        ("32ff0002" "00000001" "0000", TruncatedPacketError, "4-byte field is missing"),
        # E set, a container announced but nothing after the optional field.
        ("34ff0004" "00000001" "00000085", TruncatedPacketError, "extension header truncated"),
        # A one-unit container announced, two of its four bytes present.
        ("34ff0006" "00000001" "00000085" "0110", TruncatedPacketError,
         "extension header truncated"),
        # PT 0 and message type 1 as well, but the zero-length container is reported first.
        ("24010008" "00000001" "00000085" "00000000", FramingError, "zero length"),
    ])
    def test_faults_reported_in_order(self, frame, error, message):
        frame = bytes.fromhex(frame)
        with pytest.raises(error, match=message):
            decode_gtpu(frame)
        assert _outcome(decode_gtpu, frame) == _outcome(_oracle_decode_gtpu, frame)

    @given(frame=gtpu_frames())
    @settings(max_examples=400)
    def test_matches_oracle(self, frame):
        assert _outcome(decode_gtpu, frame) == _outcome(_oracle_decode_gtpu, frame)

    @given(frame=mutated_gtpu_frames())
    @settings(max_examples=600)
    def test_matches_oracle_on_mutations(self, frame):
        assert _outcome(decode_gtpu, frame) == _outcome(_oracle_decode_gtpu, frame)


# ---------------------------------------------------------------------------
# Oracles: the struct-sum checksum and the frozen-dataclass packet that the
# one-integer checksum and the named-tuple ``InnerPacket`` replaced.
# ---------------------------------------------------------------------------


def _oracle_internet_checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


@dataclass(frozen=True)
class _DataclassPacket:
    src: str
    dst: str
    protocol: str
    payload: bytes = b""
    ttl: int = 64
    ident: int = 0
    icmp_type: int | None = None
    icmp_id: int | None = None
    icmp_seq: int | None = None
    sport: int | None = None
    dport: int | None = None


@st.composite
def multiple_of_ffff(draw):
    """An even-length buffer whose 16-bit word sum is a non-zero multiple of 0xFFFF."""
    words = draw(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=40))
    words.append(-sum(words) % 0xFFFF)
    if not any(words):
        words.append(0xFFFF)
    return struct.pack(f"!{len(words)}H", *words)


_ADDRESSES = st.binary(min_size=4, max_size=4).map(socket.inet_ntoa)
_PORTS = st.integers(0, 0xFFFF)


@st.composite
def dataclass_packets(draw):
    """Old-form ICMP echo, UDP and TCP packets with every field ``decode_ip`` recovers."""
    protocol = draw(st.sampled_from(["ICMP", "UDP", "TCP"]))
    fields = dict(src=draw(_ADDRESSES), dst=draw(_ADDRESSES), protocol=protocol,
                  payload=draw(st.binary(max_size=200)), ttl=draw(st.integers(0, 255)),
                  ident=draw(st.integers(0, 0xFFFF)))
    if protocol == "ICMP":
        fields.update(icmp_type=draw(st.sampled_from([ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY])),
                      icmp_id=draw(_PORTS), icmp_seq=draw(_PORTS))
    else:
        fields.update(sport=draw(_PORTS), dport=draw(_PORTS))
    return _DataclassPacket(**fields)


class TestChecksumOracle:
    @pytest.mark.parametrize("data", [
        b"", b"\x00", b"\x01", b"\xff", bytes(20), bytes(21), b"\xff" * 20, b"\xff" * 21,
        b"\xff\xff", b"\x80\x00\x7f\xff", b"\xff\xfe\xff\xff\x00\x01",
    ])
    def test_edge_cases(self, data):
        assert internet_checksum(data) == _oracle_internet_checksum(data)

    @given(data=st.binary(max_size=1500))
    @settings(max_examples=500)
    def test_matches_struct_sum(self, data):
        assert internet_checksum(data) == _oracle_internet_checksum(data)

    @given(data=multiple_of_ffff())
    def test_nonzero_multiple_of_ffff(self, data):
        assert internet_checksum(data) == _oracle_internet_checksum(data) == 0


class TestNamedTuplePacket:
    @given(old=dataclass_packets())
    @settings(max_examples=300)
    def test_same_bytes_and_fields_as_dataclass(self, old):
        new = InnerPacket(**dataclasses.asdict(old))
        raw = encode_ip(new)
        assert encode_ip(old) == raw
        assert decode_ip(raw)._asdict() == dataclasses.asdict(old)

    def test_fields_and_defaults_unchanged(self):
        assert InnerPacket._fields == tuple(f.name for f in dataclasses.fields(_DataclassPacket))
        assert InnerPacket("a", "b", "ICMP")._asdict() == dataclasses.asdict(
            _DataclassPacket("a", "b", "ICMP"))

    def test_fields_cannot_be_assigned(self):
        pkt = icmp_echo_request("10.1.1.5", "8.8.8.8", 1, 1)
        with pytest.raises(AttributeError):
            pkt.src = "10.1.1.6"
        decision = ForwardDecision(action=FORWARD_DROP)
        with pytest.raises(AttributeError):
            decision.action = FORWARD_EGRESS


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

    def test_tcp_round_trip(self):
        pkt = InnerPacket(src="12.1.1.2", dst="93.184.216.34", protocol="TCP",
                          payload=b"GET / HTTP/1.1\r\n", ttl=63, ident=0x4242,
                          sport=40000, dport=80)
        raw = encode_ip(pkt)
        assert raw[9] == 6 and len(raw) == 20 + 20 + len(pkt.payload)
        assert decode_ip(raw) == pkt

    @given(src=_ADDRESSES, dst=_ADDRESSES, payload=st.binary(max_size=300),
           sport=_PORTS, dport=_PORTS)
    def test_tcp_checksum_covers_the_pseudo_header(self, src, dst, payload, sport, dport):
        raw = encode_ip(InnerPacket(src=src, dst=dst, protocol="TCP", payload=payload,
                                    sport=sport, dport=dport))
        segment = raw[20:]
        pseudo_header = raw[12:20] + struct.pack("!BBH", 0, 6, len(segment))
        assert internet_checksum(pseudo_header + segment) == 0

    @staticmethod
    def _tcp_frame_with_offset(nibble: int, payload: bytes = b"GET /") -> bytes:
        # Byte 32 is the TCP data-offset byte; the IP header checksum does not cover it.
        raw = bytearray(encode_ip(InnerPacket(src="12.1.1.2", dst="93.184.216.34",
                                              protocol="TCP", payload=payload,
                                              sport=40000, dport=80)))
        assert raw[32] == 5 << 4
        raw[32] = nibble << 4
        return bytes(raw)

    @pytest.mark.parametrize("nibble", [0, 1, 4])
    def test_tcp_data_offset_below_header_rejected(self, nibble):
        with pytest.raises(FramingError, match="TCP data offset"):
            decode_ip(self._tcp_frame_with_offset(nibble))

    @pytest.mark.parametrize("nibble, payload", [(0xF, b"GET /"), (6, b"abc")])
    def test_tcp_data_offset_past_segment_truncated(self, nibble, payload):
        with pytest.raises(TruncatedPacketError, match="TCP data offset"):
            decode_ip(self._tcp_frame_with_offset(nibble, payload))

    def test_tcp_options_skipped(self):
        assert decode_ip(self._tcp_frame_with_offset(6, b"opt!body")).payload == b"body"
        assert decode_ip(self._tcp_frame_with_offset(6, b"opt!")).payload == b""

    @given(protocol=st.sampled_from(["ICMP", "UDP", "TCP"]), payload=st.binary(max_size=1400))
    def test_ip_length_matches_the_encoding(self, protocol, payload):
        pkt = InnerPacket(src="12.1.1.2", dst="8.8.8.8", protocol=protocol, payload=payload,
                          icmp_type=ICMP_ECHO_REQUEST if protocol == "ICMP" else None)
        assert ip_length(pkt) == len(encode_ip(pkt))

    def test_ip_length_rejects_what_encode_ip_rejects(self):
        pkt = InnerPacket(src="12.1.1.2", dst="8.8.8.8", protocol="SCTP")
        for measure in (ip_length, encode_ip):
            with pytest.raises(CodecError, match="unsupported protocol 'SCTP'"):
                measure(pkt)

    # int() per octet took "1_0" as 10, and let spaces and leading zeros through.
    @pytest.mark.parametrize("address", ["a.b.c.d", "1_0.0.0.1", " 1.2.3.4", "01.2.3.4",
                                         "1.2.3", "1.2.3.4.5", "256.1.1.1", ""])
    def test_malformed_address_is_a_codec_error(self, address):
        with pytest.raises(CodecError, match="bad IPv4 address"):
            encode_ip(icmp_echo_request(address, "8.8.8.8", 1, 1))
        with pytest.raises(CodecError, match="bad IPv4 address"):
            encode_ip(icmp_echo_request("8.8.8.8", address, 1, 1))

    @given(src=st.binary(min_size=4, max_size=4), dst=st.binary(min_size=4, max_size=4))
    def test_any_four_address_bytes_round_trip(self, src, dst):
        raw = bytearray(ping_packet())
        raw[12:20] = src + dst
        raw[10:12] = b"\x00\x00"
        raw[10:12] = internet_checksum(bytes(raw[:20])).to_bytes(2, "big")
        pkt = decode_ip(bytes(raw))
        assert encode_ip(pkt) == bytes(raw)

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
        pool=IpPool("12.1.1.0/24"),
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


class TestRelayPasses:
    def test_viable_link_is_transparent(self):
        assert relay_passes(True, 1400)

    def test_non_viable_drops_bulk_keeps_icmp(self):
        assert relay_passes(False, len(ping_packet()))
        assert relay_passes(False, BULK_SIZE_CUTOFF)
        assert not relay_passes(False, BULK_SIZE_CUTOFF + 1)
        assert not relay_passes(False, 1400)
