"""Minimal classic-pcap reader/writer for tap exports.

Captures are raw IPv4 packets (LINKTYPE_RAW, 101) with microsecond
timestamps, so any standard dissector can open them.  The reader also
accepts the byte-swapped and nanosecond magic variants, and rejects any
other link type, since it cannot strip a link-layer header, and any
record whose sub-second field is a whole second or more.
"""

from __future__ import annotations

import struct
from pathlib import Path

from .errors import CodecError

PCAP_MAGIC_US = 0xA1B2C3D4
PCAP_MAGIC_NS = 0xA1B23C4D
LINKTYPE_RAW = 101
PCAP_HORIZON_US = 2**32 * 1_000_000  # a record's seconds are an unsigned 32-bit field


def write_pcap(path: str | Path, packets: list[tuple[int, bytes]]) -> None:
    """Write (timestamp_us, raw bytes) records to a classic pcap file.

    A record header keeps its seconds in an unsigned 32-bit field: a time
    outside it is a CodecError naming the capture, raised before the file
    is opened.
    """
    for t_us, _data in packets:
        if not 0 <= t_us < PCAP_HORIZON_US:
            raise CodecError(f"{path}: capture time {t_us} us is outside the 32-bit seconds "
                             f"of a classic pcap record")
    with open(path, "wb") as handle:
        handle.write(struct.pack("<IHHiIII", PCAP_MAGIC_US, 2, 4, 0, 0, 65535, LINKTYPE_RAW))
        for t_us, data in packets:
            sec, usec = divmod(t_us, 1_000_000)
            handle.write(struct.pack("<IIII", sec, usec, len(data), len(data)))
            handle.write(data)


def read_pcap(path: str | Path) -> list[tuple[int, bytes]]:
    """Read a classic raw-IPv4 pcap file back into (timestamp_us, bytes) records."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CodecError(f"cannot read capture {path}: {exc}") from None
    if len(raw) < 24:
        raise CodecError(f"{path}: too short to be a pcap file")
    for endian in "><":  # little-endian last, so an unknown magic is reported read that way
        magic = struct.unpack(f"{endian}I", raw[:4])[0]
        if magic in (PCAP_MAGIC_US, PCAP_MAGIC_NS):
            break
    else:
        raise CodecError(f"{path}: unknown pcap magic {magic:#x}")
    nanos = magic == PCAP_MAGIC_NS
    frac_unit, frac_limit = ("ns", 1_000_000_000) if nanos else ("us", 1_000_000)
    linktype = struct.unpack(f"{endian}I", raw[20:24])[0]
    if linktype != LINKTYPE_RAW:
        raise CodecError(f"{path}: unsupported link type {linktype}; "
                         f"only LINKTYPE_RAW ({LINKTYPE_RAW}) is read")
    packets: list[tuple[int, bytes]] = []
    offset = 24
    while offset < len(raw):
        if offset + 16 > len(raw):
            raise CodecError(f"{path}: truncated packet record header")
        sec, frac, caplen, _origlen = struct.unpack(f"{endian}IIII", raw[offset : offset + 16])
        offset += 16
        if offset + caplen > len(raw):
            raise CodecError(f"{path}: truncated packet body")
        if frac >= frac_limit:
            raise CodecError(f"{path}: packet record {len(packets) + 1} has sub-second field "
                             f"{frac} {frac_unit}, not below one second")
        t_us = sec * 1_000_000 + (frac // 1000 if nanos else frac)
        packets.append((t_us, raw[offset : offset + caplen]))
        offset += caplen
    return packets
