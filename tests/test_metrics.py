import math
import statistics
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrusim.access import TddConfig
from nrusim.calibration import load_calibration
from nrusim.metrics import (
    PassiveSession,
    PingStats,
    ThroughputStats,
    flow_session_id,
    fold_sessions,
    passive_monitor,
    ping_stats,
    render_monitor,
    render_table,
    report_records,
)
from nrusim.network import link_capacity_mbps
from nrusim.rflink import Cable, OverAir, get_sdr
from nrusim.userplane import (
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    InnerPacket,
    echo_reply_for,
    encode_gtpu,
    encode_ip,
    icmp_echo_request,
)

CALIB = load_calibration()
TDD = TddConfig()
AIR = OverAir(distance_m=3.0)


class TestPingStats:
    def test_constant_path_has_zero_mdev(self):
        stats = ping_stats(5, [10.0, 10.0, 10.0, 10.0, 10.0])
        assert (stats.min_ms, stats.avg_ms, stats.max_ms, stats.mdev_ms) == (10.0, 10.0, 10.0, 0.0)

    def test_mdev_is_mean_absolute_deviation(self):
        stats = ping_stats(3, [8.0, 10.0, 12.0])
        assert stats.avg_ms == 10.0
        assert stats.mdev_ms == pytest.approx(4 / 3, abs=1e-3)

    def test_ordering_invariants(self):
        stats = ping_stats(4, [5.9, 14.0, 11.0, 12.3])
        assert stats.min_ms <= stats.avg_ms <= stats.max_ms
        assert stats.mdev_ms <= stats.max_ms - stats.min_ms

    def test_no_replies_is_empty_marked(self):
        stats = ping_stats(10, [])
        assert stats.sent == 10 and stats.received == 0
        assert stats.min_ms is None and stats.avg_ms is None

    def test_received_cannot_exceed_sent(self):
        with pytest.raises(ValueError):
            PingStats(sent=1, received=2)

    # Three equal RTTs near 1e21 ms, whose float mean falls one step below or above them.
    # The unclamped mean failed the record's order check: "ping stats out of order".
    @pytest.mark.parametrize("rtt", [7e21, 1e21 + 2**18], ids=["mean below", "mean above"])
    def test_a_mean_rounded_past_the_extremes_is_clamped(self, rtt):
        assert math.fsum([rtt] * 3) / 3 != rtt
        stats = ping_stats(3, [rtt] * 3)
        assert stats.min_ms == stats.avg_ms == stats.max_ms == rtt
        assert stats.mdev_ms == math.ulp(rtt)  # from the unclamped mean

    # Reference: the statistics.fmean fold ping_stats made before it summed with math.fsum.
    @given(st.lists(st.floats(0.0, 1e6) | st.sampled_from((0.1, 0.2, 0.3, 1e-9)), min_size=1,
                    max_size=60))
    @settings(max_examples=400)
    def test_same_stats_as_the_fmean_fold(self, rtts):
        avg = statistics.fmean(rtts)
        mdev = statistics.fmean(abs(r - avg) for r in rtts)
        expected = PingStats(sent=len(rtts), received=len(rtts), min_ms=round(min(rtts), 3),
                             max_ms=round(max(rtts), 3), avg_ms=round(avg, 3),
                             mdev_ms=round(mdev, 3))
        assert ping_stats(len(rtts), rtts) == expected


class TestCapacityModel:
    def test_reference_downlink_peaks(self):
        n300, b210 = get_sdr("n300"), get_sdr("b210")
        both_n300 = link_capacity_mbps("DL", 40, 30, TDD, n300, n300, AIR, CALIB)
        b210_ue = link_capacity_mbps("DL", 40, 30, TDD, b210, n300, AIR, CALIB)
        assert both_n300 == pytest.approx(63.0, rel=1e-4)
        assert b210_ue == pytest.approx(55.0, rel=1e-4)

    def test_uplink_is_gnb_receive_bound(self):
        n300, b210 = get_sdr("n300"), get_sdr("b210")
        with_b210_ue = link_capacity_mbps("UL", 40, 30, TDD, b210, n300, AIR, CALIB)
        with_n300_ue = link_capacity_mbps("UL", 40, 30, TDD, n300, n300, AIR, CALIB)
        assert with_b210_ue == with_n300_ue == pytest.approx(18.0, rel=1e-4)

    def test_attenuated_cable_backs_off(self):
        n300 = get_sdr("n300")
        cable = Cable(length_cm=50, attenuator_db=30)
        attenuated = link_capacity_mbps("DL", 40, 30, TDD, n300, n300, cable, CALIB)
        assert attenuated == pytest.approx(20.0, rel=1e-3)
        plain_cable = link_capacity_mbps("DL", 40, 30, TDD, n300, n300,
                                         Cable(length_cm=50), CALIB)
        assert plain_cable == pytest.approx(63.0, rel=1e-4)

    def test_saturated_split_follows_the_tdd_slot_ratio(self):
        # With the same receive chain at both ends, delivered bits split
        # exactly by airtime: DL/UL == dl_slots/ul_slots.
        for sdr_name in ("n300", "b210"):
            sdr = get_sdr(sdr_name)
            dl = link_capacity_mbps("DL", 40, 30, TDD, sdr, sdr, AIR, CALIB)
            ul = link_capacity_mbps("UL", 40, 30, TDD, sdr, sdr, AIR, CALIB)
            assert dl > ul
            assert dl / ul == pytest.approx(TDD.dl_slots / TDD.ul_slots, rel=1e-9)

    def test_effective_bandwidth_capped_by_sdr(self):
        b210 = get_sdr("b210")  # 56 MHz
        narrow = link_capacity_mbps("DL", 100, 30, TDD, b210, b210, AIR, CALIB)
        wide = link_capacity_mbps("DL", 56, 30, TDD, b210, b210, AIR, CALIB)
        assert narrow == wide


def _frames_for_flow(ident: int, count: int, tunnel: bool = False, rtt_us: int = 20_000):
    frames = []
    t = 0
    for seq in range(count):
        request = icmp_echo_request("10.1.1.5", "142.250.204.4", ident, seq)
        reply = echo_reply_for(request)
        req_raw, rep_raw = encode_ip(request), encode_ip(reply)
        if tunnel:
            from nrusim.userplane import GTPU_PORT

            req_raw = encode_ip(InnerPacket(
                src="192.168.70.129", dst="192.168.70.134", protocol="UDP",
                payload=encode_gtpu(1, req_raw), sport=GTPU_PORT, dport=GTPU_PORT))
            rep_raw = encode_ip(InnerPacket(
                src="192.168.70.134", dst="192.168.70.129", protocol="UDP",
                payload=encode_gtpu(2, rep_raw), sport=GTPU_PORT, dport=GTPU_PORT))
        frames.append((t, req_raw))
        frames.append((t + rtt_us, rep_raw))
        t += 1_000_000
    return frames


class TestPassiveMonitor:
    def test_pairs_echoes_by_id_and_seq(self):
        report = passive_monitor(_frames_for_flow(0x1000, 10))
        (session,) = report.sessions
        assert session.packet_count == 20
        assert session.rtt_latest_ms == 20.0
        assert (session.left, session.right) == ("10.1.1.5", "142.250.204.4")

    def test_decapsulates_gtpu_frames(self):
        plain = passive_monitor(_frames_for_flow(0x1000, 5))
        tunnelled = passive_monitor(_frames_for_flow(0x1000, 5, tunnel=True))
        assert tunnelled.sessions[0].session_id == plain.sessions[0].session_id
        assert tunnelled.sessions[0].rtt_latest_ms == plain.sessions[0].rtt_latest_ms
        assert (tunnelled.sessions[0].left, tunnelled.sessions[0].right) == (
            "10.1.1.5", "142.250.204.4")

    def test_session_id_survives_source_rewrite(self):
        ue_side = passive_monitor(_frames_for_flow(0x1234, 3))
        rewritten = []
        for t, raw in _frames_for_flow(0x1234, 3):
            # Same inner flow as seen beyond the address-rewriting boundary.
            from nrusim.userplane import decode_ip

            pkt = decode_ip(raw)
            swap = {"10.1.1.5": "192.168.70.134"}
            pkt = pkt._replace(src=swap.get(pkt.src, pkt.src), dst=swap.get(pkt.dst, pkt.dst))
            rewritten.append((t, encode_ip(pkt)))
        core_side = passive_monitor(rewritten)
        assert core_side.sessions[0].session_id == ue_side.sessions[0].session_id
        assert core_side.sessions[0].left == "192.168.70.134"

    def test_reply_only_stream_counts_without_rtt(self):
        frames = [(t, raw) for t, raw in _frames_for_flow(0x1000, 4)]
        replies_only = frames[1::2]
        report = passive_monitor(replies_only)
        (session,) = report.sessions
        assert session.packet_count == 4
        assert session.rtt_latest_ms is None

    def test_unparseable_frames_counted_not_fatal(self):
        frames = _frames_for_flow(0x1000, 2) + [(999, b"\x45garbage")]
        report = passive_monitor(frames)
        assert report.unparsed_frames == 1
        assert report.sessions[0].packet_count == 4

    def test_tcp_frames_skipped_not_unparsed(self):
        segment = encode_ip(InnerPacket(src="10.1.1.5", dst="142.250.204.4", protocol="TCP",
                                        payload=b"hello", sport=40000, dport=443))
        frames = _frames_for_flow(0x1000, 2) + [(999, segment)]
        report = passive_monitor(frames)
        assert report.unparsed_frames == 0
        assert report.sessions[0].packet_count == 4

    def test_render_monitor_lists_sessions(self):
        text = render_monitor(passive_monitor(_frames_for_flow(0x1000, 2)))
        assert "ICMP" in text and "10.1.1.5 <-> 142.250.204.4" in text


class TestSessionId:
    def test_deterministic_across_processes(self):
        # crc32-derived, never the builtin hash.
        assert flow_session_id("ICMP", 0x1000) == flow_session_id("ICMP", 0x1000)
        assert 0 <= flow_session_id("ICMP", 0x1000) <= 0xFFFF

    def test_distinct_flows_get_distinct_ids(self):
        assert flow_session_id("ICMP", 1) != flow_session_id("ICMP", 2)


def _per_packet_fold_sessions(packets: Iterable[tuple]) -> list[PassiveSession]:
    """Reference: ``fold_sessions`` as it was, computing the session number for every packet.

    Each session is a dict of its fields while it is folded.
    """
    sessions: list[dict] = []
    by_id: dict[int, dict] = {}
    pending: dict[tuple[int, int], int] = {}
    for entry in packets:
        t_us, pkt = entry[0], entry[1]
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
    return [PassiveSession(**session) for session in sessions]


COLLIDING_IDS = (882, 4000)  # two ICMP identifiers with one session number
ADDRESSES = ("10.45.0.2", "10.45.0.3", "142.250.204.4")


@st.composite
def _observations(draw):
    protocol = draw(st.sampled_from(("ICMP", "ICMP", "ICMP", "UDP")))
    pkt = InnerPacket(
        src=draw(st.sampled_from(ADDRESSES)), dst=draw(st.sampled_from(ADDRESSES)),
        protocol=protocol,
        icmp_type=draw(st.sampled_from((ICMP_ECHO_REQUEST, ICMP_ECHO_REPLY, 3))),
        icmp_id=draw(st.sampled_from(COLLIDING_IDS + (0, 0x1000)) | st.integers(0, 0xFFFF)),
        icmp_seq=draw(st.integers(0, 3)),
    )
    entry = (draw(st.integers(0, 50_000)), pkt)
    if draw(st.booleans()):  # an N3 tap's entry carries its tunnel after the packet
        entry += (InnerPacket("192.168.70.129", "192.168.70.134", "UDP"), 1)
    return entry


class TestFoldSessionsOracle:
    def test_the_colliding_ids_collide(self):
        first, second = COLLIDING_IDS
        assert flow_session_id("ICMP", first) == flow_session_id("ICMP", second)

    @given(st.lists(_observations(), max_size=40))
    @settings(max_examples=400)
    def test_same_sessions_as_the_per_packet_fold(self, packets):
        sessions = fold_sessions(packets)
        assert sessions == _per_packet_fold_sessions(packets)
        assert all(type(session) is PassiveSession for session in sessions)

    def test_colliding_ids_share_one_session(self):
        first, second = (icmp_echo_request("10.45.0.2", "142.250.204.4", ident, 0)
                         for ident in COLLIDING_IDS)
        (session,) = fold_sessions([(0, first), (5, second), (9_000, echo_reply_for(second))])
        assert session.packet_count == 3 and session.rtt_latest_ms == 8.995


class TestRendering:
    REPORT = {
        "scenario": "test_x",
        "pings": [{"label": "rtt", "src": "ue1", "dst": "core-gateway", "sent": 100,
                   "received": 100, "min_ms": 5.9, "max_ms": 14.0, "avg_ms": 11.0,
                   "mdev_ms": 2.7}],
        "throughput": [
            {"label": "uplink", "ue": "ue1", "direction": "UL", "peak_mbps": 19.0,
             "avg_low_mbps": 7.0, "avg_high_mbps": 14.0, "delivered_bytes": 1},
            {"label": "downlink", "ue": "ue1", "direction": "DL", "peak_mbps": 55.0,
             "avg_low_mbps": 30.0, "avg_high_mbps": 42.0, "delivered_bytes": 1},
        ],
    }

    def test_table_has_one_row_per_report(self):
        table = render_table([self.REPORT])
        assert "test_x" in table
        assert "peak 55" in table and "30~42" in table

    def test_empty_reports_render_header_only(self):
        table = render_table([])
        assert "Scenario" in table
        assert len(table.splitlines()) == 2

    def test_records_carry_identical_numbers(self):
        records = report_records(self.REPORT)
        table = render_table([self.REPORT])
        ping = next(r for r in records if r["kind"] == "ping")
        downlink = next(r for r in records if r["kind"] == "throughput"
                        and r["direction"] == "DL")
        assert f"avg {ping['avg_ms']:g}" in table
        assert f"peak {downlink['peak_mbps']:g}" in table

    def test_throughput_stats_ordering_enforced(self):
        with pytest.raises(AssertionError):
            ThroughputStats(direction="DL", peak_mbps=10.0, avg_low_mbps=12.0,
                            avg_high_mbps=11.0)
