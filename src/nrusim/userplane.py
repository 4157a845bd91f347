"""Bit-exact user-plane wire formats and UPF forwarding.

The GTP-U codec emits flag-free 8-byte G-PDU headers only; headers with
the optional sequence/N-PDU/extension fields are decodable but never
produced, which keeps the length invariant trivial (length == inner
octets).  A small IPv4/ICMP/UDP codec serialises the inner packets so tap
captures can be dissected by third-party tooling.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass, replace

from .corenet import PduSession
from .errors import (
    CodecError,
    FramingError,
    OversizePayloadError,
    TruncatedPacketError,
    VersionError,
)

GTPU_PORT = 2152
GTPU_MSG_GPDU = 255
_GTPU_FLAGS_GPDU = 0x30  # version 1, PT 1, no optional fields
_MANDATORY_HEADER = 8

# ---------------------------------------------------------------------------
# GTP-U codec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GtpuHeader:
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


def encode_gtpu(teid: int, inner: bytes) -> bytes:
    """8-byte flag-free G-PDU header followed by the inner packet."""
    if not 0 <= teid <= 0xFFFFFFFF:
        raise ValueError(f"TEID must fit in 32 bits, got {teid:#x}")
    if len(inner) > 0xFFFF:
        raise OversizePayloadError(f"inner packet of {len(inner)} B exceeds the 16-bit length field")
    return struct.pack("!BBHI", _GTPU_FLAGS_GPDU, GTPU_MSG_GPDU, len(inner), teid) + bytes(inner)


def parse_gtpu(data: bytes) -> tuple[GtpuHeader, bytes]:
    """Parse any GTP-U header (optional fields included) and its payload."""
    if len(data) < _MANDATORY_HEADER:
        raise TruncatedPacketError(f"GTP-U needs >= {_MANDATORY_HEADER} B, got {len(data)}")
    flags, message_type, length, teid = struct.unpack("!BBHI", data[:_MANDATORY_HEADER])
    version = flags >> 5
    if version != 1:
        raise VersionError(f"GTP-U version must be 1, got {version}")
    protocol_type = (flags >> 4) & 1
    ext_flag = bool(flags & 0x04)
    seq_flag = bool(flags & 0x02)
    npdu_flag = bool(flags & 0x01)
    if length != len(data) - _MANDATORY_HEADER:
        raise FramingError(
            f"header length {length} does not match the {len(data) - _MANDATORY_HEADER} B present"
        )
    offset = _MANDATORY_HEADER
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
    header = GtpuHeader(
        version=version,
        protocol_type=protocol_type,
        ext_flag=ext_flag,
        seq_flag=seq_flag,
        npdu_flag=npdu_flag,
        message_type=message_type,
        length=length,
        teid=teid,
    )
    if sequence is not None or npdu is not None:
        header = replace(header, sequence=sequence, npdu=npdu)
    return header, data[offset:]


def decode_gtpu(data: bytes) -> tuple[int, bytes]:
    """(teid, inner packet) for a data-path G-PDU; exact inverse of encode."""
    header, payload = parse_gtpu(data)
    if header.protocol_type != 1:
        raise FramingError("protocol type 0 (GTP') is not carried on the data path")
    if header.message_type != GTPU_MSG_GPDU:
        raise FramingError(f"message type {header.message_type} is not a G-PDU (255)")
    return header.teid, payload


# ---------------------------------------------------------------------------
# Inner IPv4 / ICMP / UDP / TCP codec
# ---------------------------------------------------------------------------

IP_PROTO_NUM = {"ICMP": 1, "TCP": 6, "UDP": 17}
IP_PROTO_NAME = {v: k for k, v in IP_PROTO_NUM.items()}

ICMP_ECHO_REQUEST = 8
ICMP_ECHO_REPLY = 0

# 8 zero bytes where ping stores its timestamp, then the classic ramp.
DEFAULT_PING_PAYLOAD = bytes(8) + bytes(range(0x10, 0x10 + 48))


@dataclass(frozen=True)
class InnerPacket:
    """One UE-plane IPv4 packet in decoded form.

    ``ident`` is the IP identification field; the originating stack
    assigns it once and it survives forwarding and source rewriting, so
    re-serialising an unchanged packet reproduces identical bytes.
    """

    src: str
    dst: str
    protocol: str  # "ICMP" | "UDP" | "TCP"
    payload: bytes = b""
    ttl: int = 64
    ident: int = 0
    icmp_type: int | None = None
    icmp_id: int | None = None
    icmp_seq: int | None = None
    sport: int | None = None
    dport: int | None = None

    @property
    def payload_len(self) -> int:
        return len(self.payload)


def internet_checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    total = (total & 0xFFFF) + (total >> 16)
    total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _ip_bytes(ip: str) -> bytes:
    parts = [int(p) for p in ip.split(".")]
    if len(parts) != 4 or any(not 0 <= p <= 255 for p in parts):
        raise CodecError(f"bad IPv4 address {ip!r}")
    return bytes(parts)


def encode_ip(pkt: InnerPacket) -> bytes:
    """Serialise to on-the-wire IPv4 bytes with valid checksums."""
    if pkt.protocol == "ICMP":
        if pkt.icmp_type is None:
            raise CodecError("ICMP packet needs icmp_type")
        body = struct.pack(
            "!BBHHH", pkt.icmp_type, 0, 0, pkt.icmp_id or 0, pkt.icmp_seq or 0
        ) + pkt.payload
        checksum = internet_checksum(body)
        l4 = body[:2] + struct.pack("!H", checksum) + body[4:]
    elif pkt.protocol == "UDP":
        l4 = struct.pack("!HHHH", pkt.sport or 0, pkt.dport or 0, 8 + len(pkt.payload), 0) + pkt.payload
    elif pkt.protocol == "TCP":
        l4 = struct.pack(
            "!HHIIBBHHH", pkt.sport or 0, pkt.dport or 0, 0, 0, 5 << 4, 0x10, 0xFFFF, 0, 0
        ) + pkt.payload
    else:
        raise CodecError(f"unsupported protocol {pkt.protocol!r}")
    total_len = 20 + len(l4)
    header = struct.pack(
        "!BBHHHBBH4s4s",
        0x45,
        0,
        total_len,
        pkt.ident & 0xFFFF,
        0,
        pkt.ttl,
        IP_PROTO_NUM[pkt.protocol],
        0,
        _ip_bytes(pkt.src),
        _ip_bytes(pkt.dst),
    )
    checksum = internet_checksum(header)
    header = header[:10] + struct.pack("!H", checksum) + header[12:]
    return header + l4


def decode_ip(data: bytes) -> InnerPacket:
    """Parse on-the-wire IPv4 bytes; raises CodecError subtypes when malformed."""
    if len(data) < 20:
        raise TruncatedPacketError(f"IPv4 needs >= 20 B, got {len(data)}")
    version_ihl = data[0]
    if version_ihl >> 4 != 4:
        raise VersionError(f"IP version must be 4, got {version_ihl >> 4}")
    ihl = (version_ihl & 0x0F) * 4
    if ihl < 20 or len(data) < ihl:
        raise FramingError(f"bad IHL {ihl}")
    total_len = struct.unpack("!H", data[2:4])[0]
    if total_len != len(data):
        raise FramingError(f"IP total length {total_len} does not match {len(data)} B present")
    if internet_checksum(data[:ihl]) != 0:
        raise FramingError("IP header checksum mismatch")
    ident = struct.unpack("!H", data[4:6])[0]
    ttl = data[8]
    proto_num = data[9]
    if proto_num not in IP_PROTO_NAME:
        raise CodecError(f"unsupported IP protocol {proto_num}")
    protocol = IP_PROTO_NAME[proto_num]
    src = ".".join(str(b) for b in data[12:16])
    dst = ".".join(str(b) for b in data[16:20])
    l4 = data[ihl:]
    if protocol == "ICMP":
        if len(l4) < 8:
            raise TruncatedPacketError("ICMP header truncated")
        if internet_checksum(l4) != 0:
            raise FramingError("ICMP checksum mismatch")
        icmp_type, _code, _ck, icmp_id, icmp_seq = struct.unpack("!BBHHH", l4[:8])
        if icmp_type in (ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY):
            return InnerPacket(
                src=src, dst=dst, protocol=protocol, payload=l4[8:], ttl=ttl, ident=ident,
                icmp_type=icmp_type, icmp_id=icmp_id, icmp_seq=icmp_seq,
            )
        return InnerPacket(src=src, dst=dst, protocol=protocol, payload=l4[8:], ttl=ttl,
                           ident=ident, icmp_type=icmp_type)
    if protocol == "UDP":
        if len(l4) < 8:
            raise TruncatedPacketError("UDP header truncated")
        sport, dport, udp_len, _ck = struct.unpack("!HHHH", l4[:8])
        if udp_len != len(l4):
            raise FramingError(f"UDP length {udp_len} does not match {len(l4)} B present")
        return InnerPacket(src=src, dst=dst, protocol=protocol, payload=l4[8:], ttl=ttl,
                           ident=ident, sport=sport, dport=dport)
    # TCP: ports are all the model ever needs.
    if len(l4) < 20:
        raise TruncatedPacketError("TCP header truncated")
    sport, dport = struct.unpack("!HH", l4[:4])
    offset = (l4[12] >> 4) * 4
    return InnerPacket(src=src, dst=dst, protocol=protocol, payload=l4[offset:], ttl=ttl,
                       ident=ident, sport=sport, dport=dport)


def icmp_echo_request(
    src: str, dst: str, ident: int, seq: int, payload: bytes = DEFAULT_PING_PAYLOAD, ttl: int = 64
) -> InnerPacket:
    return InnerPacket(
        src=src, dst=dst, protocol="ICMP", payload=payload, ttl=ttl,
        icmp_type=ICMP_ECHO_REQUEST, icmp_id=ident, icmp_seq=seq,
    )


def echo_reply_for(request: InnerPacket, ttl: int = 64) -> InnerPacket:
    """Echo reply a standard stack would produce for a request."""
    return InnerPacket(
        src=request.dst, dst=request.src, protocol="ICMP", payload=request.payload, ttl=ttl,
        icmp_type=ICMP_ECHO_REPLY, icmp_id=request.icmp_id, icmp_seq=request.icmp_seq,
    )


# ---------------------------------------------------------------------------
# UPF forwarding
# ---------------------------------------------------------------------------

FORWARD_TUNNEL = "tunnel"  # toward a session's downlink tunnel (east-west leg)
FORWARD_EGRESS = "egress"  # toward the external network (north-south leg)
FORWARD_DROP = "drop"


@dataclass
class RouteTable:
    """UPF routing state: the UE pool, per-address sessions, and the UPF's own address."""

    pool_cidr: str
    sessions: dict[str, PduSession]  # UE ip -> active session
    upf_address: str

    def in_pool(self, ip: str) -> bool:
        return ipaddress.IPv4Address(ip) in ipaddress.IPv4Network(self.pool_cidr)


@dataclass(frozen=True)
class ForwardDecision:
    action: str  # FORWARD_TUNNEL | FORWARD_EGRESS | FORWARD_DROP
    session: PduSession | None = None
    packet: InnerPacket | None = None  # egress carries the source-rewritten packet


def upf_forward(packet: InnerPacket, routes: RouteTable) -> ForwardDecision:
    """Forwarding decision for a decapsulated uplink packet.

    Depends only on the destination address and route state, never on the
    source.  Pool destinations without an active session are dropped (the
    caller logs them); external destinations leave with the UPF as the
    visible on-path source.
    """
    if routes.in_pool(packet.dst):
        session = routes.sessions.get(packet.dst)
        if session is None or not session.active:
            return ForwardDecision(action=FORWARD_DROP)
        return ForwardDecision(action=FORWARD_TUNNEL, session=session, packet=packet)
    rewritten = replace(packet, src=routes.upf_address)
    return ForwardDecision(action=FORWARD_EGRESS, packet=rewritten)


# ---------------------------------------------------------------------------
# gNB relay
# ---------------------------------------------------------------------------

# Packets at or below this size count as control-plane-scale traffic that
# survives a degraded radio link (ICMP echoes, signalling); anything larger
# is bulk data that a non-viable link cannot sustain.
BULK_SIZE_CUTOFF = 256


@dataclass
class GnbRelay:
    """Transparent relay between the radio leg and the core tunnel leg."""

    viable: bool = True
    drop_fraction: float = 0.0
    bulk_cutoff: int = BULK_SIZE_CUTOFF

    def passes(self, size_bytes: int) -> bool:
        """Whether a payload of this size survives the radio link."""
        if self.viable:
            return True
        return size_bytes <= self.bulk_cutoff
