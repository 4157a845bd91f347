"""The run, report and compare paths' records as the dataclasses they were, copied unchanged.

``tests/test_records.py`` checks each new record against its class here.
They live outside a ``test_*`` module so that pytest does not rewrite the
``assert`` statements in ``__post_init__``: rewritten, a chained comparison
evaluates every link and its message grows an explanation, which the
package's own ``assert`` does not do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from nrusim.network import tap_frames


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


@dataclass
class RunResult:
    scenario: Scenario
    report: dict
    log: EventLog
    taps: dict[str, list[tuple]] = field(default_factory=dict)  # tap -> kept packets

    def frames(self, tap: str) -> list[tuple[int, bytes]]:
        """The tap's capture as ``(t_us, wire bytes)``, encoded on each call."""
        return tap_frames(self.taps[tap])

    def report_json(self) -> str:
        return json.dumps(self.report, sort_keys=True, indent=2) + "\n"

    def events_jsonl(self) -> str:
        return self.log.to_jsonl()


@dataclass(frozen=True)
class Expectation:
    metric: str
    op: str  # key into _OPS

    def __str__(self) -> str:
        return f"{self.metric}:{self.op}"


@dataclass
class ComparisonResult:
    rows: list[dict] = field(default_factory=list)
    verdicts: list[dict] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(v["passed"] for v in self.verdicts)


@dataclass
class RadioLink:
    ue: UeNode
    gnb: GnbNode
    viable: bool  # the host drains the sample stream: bulk data survives
    required_msps: float
    drop_fraction: float
    rsrp_dbm: float
    rng: Random  # LBT backoff substream for this link
    radio_us: int  # radio processing plus the over-air extra
    hops: dict[str, tuple]  # direction -> hop table
    ue_tap: str  # name of the tap at this link's UE
    n3_tap: str  # name of the tap on its gNB's N3 side


@dataclass
class RouteTable:
    """UPF routing state: the UE pool, per-address sessions, and the UPF's own address."""

    pool: IpPool
    sessions: dict[str, PduSession]  # UE ip -> active session
    upf_address: str

    def in_pool(self, ip: str) -> bool:
        return ip in self.pool
