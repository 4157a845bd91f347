"""Planning and deterministic simulation toolkit for private 5G over the
5 GHz unlicensed band: raster/regulatory planning, a minimal 5G core,
GTP-U user plane, UE attach with LBT channel access, active/passive
measurement probes, and a seeded discrete-event engine that replays the
bundled desk-scale reference scenarios.
"""

from .access import (
    ChannelOccupancy,
    Burst,
    LbtConfig,
    TddConfig,
    UePhase,
    UeState,
    attach,
    lbt_gate,
    schedule_tdd,
    ue_cell_search,
)
from .corenet import CoreConfig, CoreNetwork, IpPool, PduSession, SubscriberRecord
from .errors import (
    AllocationError,
    CodecError,
    ConfigError,
    DomainError,
    InvariantBreach,
    NrusimError,
    OffRasterError,
    RasterRangeError,
    ScenarioError,
    StateError,
)
from .metrics import (
    MonitorReport,
    PingStats,
    ThroughputStats,
    link_capacity_mbps,
    passive_monitor,
    render_table,
)
from .rflink import (
    Cable,
    HostModel,
    OverAir,
    SdrModel,
    compute_rsrp,
    link_viable,
    required_sampling_rate,
    sample_drop_fraction,
)
from .runner import compare_reports, parse_expectation, run_scenario, write_outputs
from .scenario import Scenario, load_bundled, load_scenario
from .spectrum import (
    BandPlan,
    ChannelAssignment,
    arfcn_to_frequency,
    check_regulatory,
    frequency_to_arfcn,
    get_band,
    gscn_to_ss_frequency,
    load_regulatory_rules,
    ss_scan_candidates,
    validate_channel,
)
from .userplane import InnerPacket, RouteTable, decode_gtpu, encode_gtpu, relay_passes, upf_forward

__version__ = "0.1.0"
