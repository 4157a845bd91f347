"""Active probes, passive RTT monitoring, and report shaping.

The ping and throughput probes are simulation actors: they inject real
traffic through the simulated stack and fold whatever comes back into
the same statistics the command-line tools print.  The passive monitor
is a pure fold over an observed packet stream (live tap or pcap export),
pairing ICMP echoes by (id, seq) even when they ride inside GTP-U.
"""

from __future__ import annotations

import statistics
import zlib
from dataclasses import dataclass, field
from random import Random
from typing import Iterable

from .access import TddConfig
from .calibration import Calibration
from .errors import CodecError
from .rflink import Cable, LinkMedium, SdrModel
from .userplane import (
    GTPU_PORT,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    decode_gtpu,
    decode_ip,
)

# ---------------------------------------------------------------------------
# Statistics containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PingStats:
    """ping-command-shaped summary; timing fields are None with no replies."""

    sent: int
    received: int
    min_ms: float | None = None
    max_ms: float | None = None
    avg_ms: float | None = None
    mdev_ms: float | None = None

    def __post_init__(self):
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
    avg = statistics.fmean(rtts_ms)
    mdev = statistics.fmean(abs(r - avg) for r in rtts_ms)
    return PingStats(
        sent=sent,
        received=len(rtts_ms),
        min_ms=round(min(rtts_ms), 3),
        max_ms=round(max(rtts_ms), 3),
        avg_ms=round(avg, 3),
        mdev_ms=round(mdev, 3),
    )


@dataclass(frozen=True)
class ThroughputStats:
    direction: str  # "UL" | "DL"
    peak_mbps: float
    avg_low_mbps: float
    avg_high_mbps: float
    delivered_bytes: int = 0

    def __post_init__(self):
        assert self.avg_low_mbps <= self.avg_high_mbps <= self.peak_mbps + 1e-9, (
            "throughput stats out of order"
        )


# ---------------------------------------------------------------------------
# Capacity model
# ---------------------------------------------------------------------------


def link_capacity_mbps(
    direction: str,
    bandwidth_mhz: float,
    scs_khz: int,
    tdd: TddConfig,
    ue_sdr: SdrModel,
    gnb_sdr: SdrModel,
    medium: LinkMedium,
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
    if isinstance(medium, Cable) and medium.attenuator_db > 0:
        medium_factor = calib.attenuated_cable_factor
    return rate * eff_bw * fraction * iface * scs * medium_factor


# ---------------------------------------------------------------------------
# Active probes
# ---------------------------------------------------------------------------


class PingProbe:
    """ICMP echo train from one node through the full simulated stack."""

    def __init__(self, label: str, src: str, dst: str, count: int, interval_ms: int, rng: Random):
        self.label = label
        self.src = src
        self.dst = dst
        self.count = count
        self.interval_ms = interval_ms
        self.rng = rng
        self.sent = 0
        self.rtts_us: list[int] = []
        self._send_at: dict[int, int] = {}

    def schedule(self, net, start_us: int, ident: int) -> int:
        """Queue all echo requests; returns a completion-time estimate."""
        dst_ip = net.resolve_dst(self.dst)
        phase_max = net.calib.ping_phase_max_us
        for seq in range(self.count):
            at = start_us + seq * self.interval_ms * 1000 + self.rng.randrange(phase_max)
            if dst_ip is None:
                self.sent += 1  # no route: emitted into the void, 100% loss
                continue
            self._send_at[seq] = at
            self.sent += 1
            net.schedule_icmp_echo(self.src, dst_ip, ident, seq, at, self.rng, self._on_reply)
        return start_us + self.count * self.interval_ms * 1000 + phase_max + 1_000_000

    def _on_reply(self, seq: int, now_us: int) -> None:
        sent_at = self._send_at.pop(seq, None)
        if sent_at is not None:
            self.rtts_us.append(now_us - sent_at)

    def stats(self) -> PingStats:
        return ping_stats(self.sent, [r / 1000 for r in self.rtts_us])


class ThroughputProbe:
    """iPerf-style saturating load in one direction.

    Each one-second window transmits a contiguous burst of line-rate
    ticks covering a seeded fraction of the window, so the best 100 ms
    sub-window observes the full line rate while window means wander the
    way interval reports do.  Delivery is whatever actually survives the
    simulated path; a dead link reports zeros.
    """

    SUBS_PER_WINDOW = 10  # 100 ms peak-detection sub-windows

    def __init__(self, label: str, ue: str, direction: str, duration_s: int,
                 capacity_mbps: float, calib: Calibration, rng: Random):
        self.label = label
        self.ue = ue
        self.direction = direction
        self.duration_s = duration_s
        self.capacity_mbps = capacity_mbps
        self.calib = calib
        self.rng = rng
        self.delivered: dict[tuple[int, int], int] = {}

    def schedule(self, net, start_us: int) -> int:
        tick_us = self.calib.tick_ms * 1000
        ticks_per_window = 1_000_000 // tick_us
        bytes_per_tick = round(self.capacity_mbps * 1e6 * self.calib.tick_ms / 1000 / 8)
        sub_ticks = ticks_per_window // self.SUBS_PER_WINDOW
        for window in range(self.duration_s):
            burst = self.rng.uniform(self.calib.window_burst_low, self.calib.window_burst_high)
            on_ticks = round(burst * ticks_per_window)
            for j in range(on_ticks):
                at = start_us + window * 1_000_000 + j * tick_us
                tag = (window, j // sub_ticks)
                net.schedule_bulk_tick(self.ue, self.direction, at, bytes_per_tick, tag,
                                       self._on_delivered)
        return start_us + self.duration_s * 1_000_000 + 1_000_000

    def _on_delivered(self, tag: tuple[int, int], nbytes: int) -> None:
        self.delivered[tag] = self.delivered.get(tag, 0) + nbytes

    def stats(self) -> ThroughputStats:
        sub_s = 1.0 / self.SUBS_PER_WINDOW
        peak = max((b * 8 / sub_s / 1e6 for b in self.delivered.values()), default=0.0)
        windows = [0.0] * self.duration_s
        for (window, _sub), nbytes in self.delivered.items():
            windows[window] += nbytes * 8 / 1e6
        return ThroughputStats(
            direction=self.direction,
            peak_mbps=round(peak, 3),
            avg_low_mbps=round(min(windows, default=0.0), 3),
            avg_high_mbps=round(max(windows, default=0.0), 3),
            delivered_bytes=sum(self.delivered.values()),
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


@dataclass
class PassiveSession:
    session_id: int
    left: str
    right: str
    packet_count: int = 0
    rtt_latest_ms: float | None = None


@dataclass
class MonitorReport:
    sessions: list[PassiveSession] = field(default_factory=list)
    unparsed_frames: int = 0


def passive_monitor(frames: Iterable[tuple[int, bytes]]) -> MonitorReport:
    """Fold observed frames into per-flow sessions with latest RTTs.

    Frames may be plain IPv4 or GTP-U tunnelled (UDP port 2152); tunnel
    payloads are decapsulated before matching.  Unparseable frames are
    counted, never fatal.
    """
    report = MonitorReport()
    by_id: dict[int, PassiveSession] = {}
    pending: dict[tuple[int, int], int] = {}
    for t_us, raw in frames:
        try:
            pkt = decode_ip(raw)
            if pkt.protocol == "UDP" and GTPU_PORT in (pkt.sport, pkt.dport):
                _teid, inner = decode_gtpu(pkt.payload)
                pkt = decode_ip(inner)
        except CodecError:
            report.unparsed_frames += 1
            continue
        if pkt.protocol != "ICMP" or pkt.icmp_type not in (ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY):
            continue
        sid = flow_session_id("ICMP", pkt.icmp_id)
        session = by_id.get(sid)
        if session is None:
            request_side = pkt.icmp_type == ICMP_ECHO_REQUEST
            session = PassiveSession(
                session_id=sid,
                left=pkt.src if request_side else pkt.dst,
                right=pkt.dst if request_side else pkt.src,
            )
            by_id[sid] = session
            report.sessions.append(session)
        session.packet_count += 1
        key = (pkt.icmp_id, pkt.icmp_seq)
        if pkt.icmp_type == ICMP_ECHO_REQUEST:
            pending[key] = t_us
        else:
            sent = pending.pop(key, None)
            if sent is not None and t_us >= sent:
                session.rtt_latest_ms = round((t_us - sent) / 1000, 3)
    return report


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
