"""Probe statistics, passive RTT monitoring, and report shaping.

``SimNetwork`` schedules the traffic of ping and throughput plans, and
no probe keeps a tally.  The runner folds ping rows from the event log's
``ping_tx`` and ``rtt_sample`` records, and throughput rows from its
``bulk_tx`` records, in its one pass over the log, and shapes them with
``ping_stats`` and ``throughput_stats``.  The passive monitor is a pure
fold over an observed packet stream, pairing ICMP echoes by (id, seq): a
run folds the packets its taps kept, and ``passive_monitor`` decodes a
capture's frames first, unwrapping GTP-U tunnels.  It imports only
``errors`` and ``userplane``, so ``nrusim monitor`` loads no YAML.
"""

from __future__ import annotations

import math
import zlib
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import CheckedRecord, CodecError
from .userplane import (
    GTPU_PORT,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    InnerPacket,
    decode_gtpu,
    decode_ip,
)

if TYPE_CHECKING:  # the loader's modules and PyYAML stay unloaded
    from .scenario import ThroughputPlan

SUBS_PER_WINDOW = 10  # 100 ms peak-detection sub-windows of a throughput window

# ---------------------------------------------------------------------------
# Probe statistics
# ---------------------------------------------------------------------------


class _PingStatsFields(NamedTuple):
    sent: int
    received: int
    min_ms: float | None = None
    max_ms: float | None = None
    avg_ms: float | None = None
    mdev_ms: float | None = None


class PingStats(CheckedRecord, _PingStatsFields):
    """ping-command-shaped summary; timing fields are None with no replies."""

    __slots__ = ()

    def _check(self):
        if self.received > self.sent:
            raise ValueError("received cannot exceed sent")
        if self.received:
            assert self.min_ms <= self.avg_ms <= self.max_ms, "ping stats out of order"
            assert self.mdev_ms >= 0


def ping_stats(sent: int, rtts_ms: list[float]) -> PingStats:
    """Fold RTT samples into ping-style stats.

    mdev here is the mean absolute deviation around the average, the
    "Mean deviation" of ping-style summaries.
    """
    if not rtts_ms:
        return PingStats(sent=sent, received=0)
    # statistics.fmean's sum and division, without importing statistics on every run
    avg = math.fsum(rtts_ms) / len(rtts_ms)
    mdev = math.fsum(abs(r - avg) for r in rtts_ms) / len(rtts_ms)
    low, high = min(rtts_ms), max(rtts_ms)
    return PingStats(
        sent=sent,
        received=len(rtts_ms),
        min_ms=round(low, 3),
        max_ms=round(high, 3),
        # The division can round past the extremes: RTTs near 1e21 ms sit 2**17 apart.
        avg_ms=round(min(max(avg, low), high), 3),
        mdev_ms=round(mdev, 3),
    )


class _ThroughputStatsFields(NamedTuple):
    direction: str  # "UL" | "DL"
    peak_mbps: float
    avg_low_mbps: float
    avg_high_mbps: float
    delivered_bytes: int = 0


class ThroughputStats(CheckedRecord, _ThroughputStatsFields):
    __slots__ = ()

    def _check(self):
        assert self.avg_low_mbps <= self.avg_high_mbps <= self.peak_mbps + 1e-9, (
            "throughput stats out of order"
        )


def ping_ident(index: int) -> int:
    """ICMP identifier of the ping plan at ``index`` in the scenario's traffic."""
    return 0x1000 + index


def surviving_bytes(nbytes: int, drop_fraction: float) -> int:
    """The bytes of one bulk tick that survive a link losing ``drop_fraction`` of its samples."""
    return nbytes if drop_fraction == 0 else round(nbytes * (1 - drop_fraction))


def throughput_stats(plan: ThroughputPlan, delivered: dict[tuple[int, int], int]
                     ) -> ThroughputStats:
    """iPerf-style stats of the bytes delivered per (window, sub); a dead link reports zeros."""
    sub_s = 1.0 / SUBS_PER_WINDOW
    peak = max((b * 8 / sub_s / 1e6 for b in delivered.values()), default=0.0)
    windows = [0.0] * plan.duration_s
    for (window, _sub), nbytes in delivered.items():
        windows[window] += nbytes * 8 / 1e6
    return ThroughputStats(
        direction=plan.direction,
        peak_mbps=round(peak, 3),
        avg_low_mbps=round(min(windows, default=0.0), 3),
        avg_high_mbps=round(max(windows, default=0.0), 3),
        delivered_bytes=sum(delivered.values()),
    )


# ---------------------------------------------------------------------------
# Passive monitor
# ---------------------------------------------------------------------------


def flow_session_id(protocol: str, flow_key: int | None) -> int:
    """Stable 16-bit session number for an inner flow.

    Keyed on rewrite-invariant fields only (protocol and the ICMP
    identifier), so every tap point reports the same number for the same
    flow even after the UPF rewrites the UE address at the N6 boundary.
    """
    return zlib.crc32(f"{protocol}|{flow_key}".encode()) & 0xFFFF


class PassiveSession(NamedTuple):
    session_id: int
    left: str
    right: str
    packet_count: int = 0
    rtt_latest_ms: float | None = None


class MonitorReport(NamedTuple):
    sessions: list[PassiveSession]
    unparsed_frames: int = 0


def decode_frame(raw: bytes) -> InnerPacket:
    """The packet a frame carries: IPv4, unwrapped from GTP-U on UDP port 2152.

    Raises ``CodecError`` when either layer is malformed.
    """
    pkt = decode_ip(raw)
    if pkt.protocol == "UDP" and GTPU_PORT in (pkt.sport, pkt.dport):
        _teid, inner = decode_gtpu(pkt.payload)
        pkt = decode_ip(inner)
    return pkt


def passive_monitor(frames: Iterable[tuple[int, bytes]]) -> MonitorReport:
    """Decode observed frames, then fold them into per-flow sessions.

    Frames may be plain IPv4 or GTP-U tunnelled; unparseable frames are
    counted, never fatal.
    """
    packets = []
    unparsed = 0
    for t_us, raw in frames:
        try:
            packets.append((t_us, decode_frame(raw)))
        except CodecError:
            unparsed += 1
    return MonitorReport(fold_sessions(packets), unparsed)


def fold_sessions(packets: Iterable[tuple]) -> list[PassiveSession]:
    """Fold ``(t_us, packet)`` observations into per-flow sessions with latest RTTs.

    An observation may carry more fields after those two, as an N3 tap's
    entries carry their tunnel; the fold ignores them.  Sessions are keyed
    by ``flow_session_id``, computed once per ICMP identifier, so two
    identifiers whose numbers collide share a session.  Each session is
    folded as a list of ``PassiveSession``'s fields and returned in the
    order its first packet was seen.
    """
    by_id: dict[int, list] = {}
    sids: dict[int | None, int] = {}
    pending: dict[tuple[int, int], int] = {}
    for entry in packets:
        t_us, pkt = entry[0], entry[1]
        if pkt.protocol != "ICMP" or pkt.icmp_type not in (ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY):
            continue
        sid = sids.get(pkt.icmp_id)
        if sid is None:
            sid = sids[pkt.icmp_id] = flow_session_id("ICMP", pkt.icmp_id)
        session = by_id.get(sid)
        if session is None:
            request_side = pkt.icmp_type == ICMP_ECHO_REQUEST
            session = by_id[sid] = [sid, pkt.src if request_side else pkt.dst,
                                    pkt.dst if request_side else pkt.src, 0, None]
        session[3] += 1  # packet_count
        key = (pkt.icmp_id, pkt.icmp_seq)
        if pkt.icmp_type == ICMP_ECHO_REQUEST:
            pending[key] = t_us
        else:
            sent = pending.pop(key, None)
            if sent is not None and t_us >= sent:
                session[4] = round((t_us - sent) / 1000, 3)  # rtt_latest_ms
    return [PassiveSession._make(session) for session in by_id.values()]


def render_monitor(report: MonitorReport) -> str:
    """One line per session, in the shape passive RTT tools print."""
    lines = [f"{len(report.sessions)} connections ({report.unparsed_frames} unparseable frames)"]
    lines.append(f"{'TYPE':<5} {'ADDRESSES':<36} {'SESSION':>7} {'PAKS':>5}  RTT")
    for s in report.sessions:
        rtt = f"{s.rtt_latest_ms:.1f} ms" if s.rtt_latest_ms is not None else "n/a"
        lines.append(f"{'ICMP':<5} {s.left + ' <-> ' + s.right:<36} {s.session_id:>7} {s.packet_count:>5}  {rtt}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _fmt_ping(row: dict) -> str:
    if not row or row.get("received", 0) == 0:
        return "no replies"
    return (f"min {row['min_ms']:g}  max {row['max_ms']:g}  "
            f"avg {row['avg_ms']:g}  mdev {row['mdev_ms']:g}")


def _fmt_tput(row: dict) -> str:
    if not row:
        return "-"
    return f"peak {row['peak_mbps']:g}  avg {row['avg_low_mbps']:g}~{row['avg_high_mbps']:g}"


def render_table(reports: list[dict]) -> str:
    """Human table with one row per scenario report, result-summary shaped."""
    header = (f"{'Scenario':<14} {'RTT UE->core (ms)':<44} "
              f"{'Uplink (Mbps)':<26} {'Downlink (Mbps)':<26}")
    lines = [header, "-" * len(header)]
    for report in reports:
        ping = next(iter(report.get("pings", [])), {})
        uplink = next((t for t in report.get("throughput", []) if t["direction"] == "UL"), {})
        downlink = next((t for t in report.get("throughput", []) if t["direction"] == "DL"), {})
        lines.append(
            f"{report['scenario']:<14} {_fmt_ping(ping):<44} "
            f"{_fmt_tput(uplink):<26} {_fmt_tput(downlink):<26}"
        )
    return "\n".join(lines)


def report_records(report: dict) -> list[dict]:
    """Flat machine-readable records carrying the same numbers as the table."""
    records = []
    for ping in report.get("pings", []):
        records.append({"scenario": report["scenario"], "kind": "ping", **ping})
    for tput in report.get("throughput", []):
        records.append({"scenario": report["scenario"], "kind": "throughput", **tput})
    return records
