from dataclasses import dataclass
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrusim.access import (
    BACKOFF_SLOT_US,
    Burst,
    ChannelOccupancy,
    LbtConfig,
    LbtResult,
    TddConfig,
    UePhase,
    attach,
    lbt_gate,
    next_transmit_time,
    schedule_tdd,
    slot_duration_us,
    ue_cell_search,
)
from nrusim.corenet import CoreConfig, CoreNetwork, SubscriberRecord
from nrusim.errors import ConfigError, ScenarioError
from nrusim.scenario import _parse_bursts
from nrusim.spectrum import get_band, load_band_plans, ss_scan_candidates

IMSI = "001010000000001"
N46 = get_band("n46")


def make_core():
    return CoreNetwork(CoreConfig(), [SubscriberRecord(imsi=IMSI)])


class TestCellSearch:
    def test_first_candidate_found_in_one_step(self):
        assert ue_cell_search(N46, 8993) == (8993, 1)

    def test_last_candidate_costs_full_sweep(self):
        assert ue_cell_search(N46, 9530) == (9530, 538)

    def test_absent_gnb_scans_everything(self):
        assert ue_cell_search(N46, None) == (None, 538)

    def test_band_without_sync_raster_raises_as_the_walk_did(self):
        with pytest.raises(ConfigError, match="no sync raster entries"):
            ue_cell_search(get_band("n47"), 9000)


def _walked_cell_search(band, broadcasting_gscn):
    """Reference: ``ue_cell_search`` as the linear sweep it was before it read a map."""
    candidates = ss_scan_candidates(band)
    for steps, (gscn, _freq) in enumerate(candidates, start=1):
        if gscn == broadcasting_gscn:
            return gscn, steps
    return None, len(candidates)


@st.composite
def _band_and_gscn(draw):
    band = draw(st.sampled_from([b for b in load_band_plans().values() if b.sync_entries]))
    low, high = ss_scan_candidates(band)[0][0], ss_scan_candidates(band)[-1][0]
    return band, draw(st.none() | st.integers(low - 3, high + 3))


class TestCellSearchOracle:
    # n41's two sync spans overlap and n28's are listed out of order.
    @given(_band_and_gscn())
    @settings(max_examples=400)
    def test_same_answer_as_the_walk(self, case):
        band, gscn = case
        assert ue_cell_search(band, gscn) == _walked_cell_search(band, gscn)


class TestAttach:
    def test_happy_path_reaches_session_active(self):
        state = attach(N46, 9062, make_core(), IMSI, ue_id="ue1")
        assert state.phase is UePhase.SESSION_ACTIVE
        assert state.found_gscn == 9062
        assert state.session.ip == "12.1.1.2"
        assert state.failure is None

    def test_unprovisioned_imsi_stops_at_synced(self):
        state = attach(N46, 9062, make_core(), "001019999999999", ue_id="ue1")
        assert state.phase is UePhase.SYNCED
        assert state.failure == "unknown-subscriber"
        assert state.session is None

    def test_gnb_off_air_stops_at_scanning(self):
        state = attach(N46, None, make_core(), IMSI, ue_id="ue1")
        assert state.phase is UePhase.SCANNING
        assert state.failure == "no-cell-found"

    def test_exhausted_pool_stops_at_registered(self):
        core = CoreNetwork(
            CoreConfig(ue_pool_cidr="12.1.1.0/30"),  # gateway + one host
            [SubscriberRecord(imsi=IMSI), SubscriberRecord(imsi="001010000000002")],
        )
        first = attach(N46, 9062, core, IMSI, ue_id="ue1")
        second = attach(N46, 9062, core, "001010000000002", ue_id="ue2")
        assert first.phase is UePhase.SESSION_ACTIVE
        assert second.phase is UePhase.REGISTERED
        assert "exhausted" in second.failure

    def test_phases_are_ordered(self):
        assert UePhase.POWERED < UePhase.SCANNING < UePhase.SYNCED
        assert UePhase.SYNCED < UePhase.REGISTERED < UePhase.SESSION_ACTIVE


class TestLbtConfig:
    # The priority-class limits of ETSI EN 301 893 clause 4.2.7.3.2, edges included.
    @pytest.mark.parametrize("field, low, high", [
        ("cca_duration_us", 25, 79), ("cw_min", 3, 15), ("cw_max", 7, 1023),
    ])
    def test_each_number_is_bounded_by_the_priority_classes(self, field, low, high):
        fixed = {"cw_min": 3} if field == "cw_max" else {}
        for value in (low, high):
            assert getattr(LbtConfig(**fixed, **{field: value}), field) == value
        for value in (low - 1, high + 1):
            with pytest.raises(ConfigError, match=rf"{field} must be in \[{low}, {high}\] "
                                                  r"\(ETSI EN 301 893 clause 4\.2\.7\.3\.2\)"):
                LbtConfig(**fixed, **{field: value})

    def test_cw_min_may_not_exceed_cw_max(self):
        with pytest.raises(ConfigError, match="cw_min 15 exceeds cw_max 7"):
            LbtConfig(cw_min=15, cw_max=7)


class TestLbtGate:
    CFG = LbtConfig()

    def test_idle_channel_grants_at_now_plus_cca(self):
        result = lbt_gate(ChannelOccupancy(), self.CFG, now_us=1000, rng=Random(1))
        assert result.granted
        assert result.grant_us == 1000 + self.CFG.cca_duration_us

    def test_grant_no_earlier_than_burst_end_plus_cca(self):
        occupancy = ChannelOccupancy([Burst(0, 5_000, -40.0)])
        for seed in range(50):
            result = lbt_gate(occupancy, self.CFG, now_us=0, rng=Random(seed))
            assert result.granted
            assert result.grant_us >= 5_000 + self.CFG.cca_duration_us

    def test_earliest_grant_matches_brute_force_scan(self):
        # Independent oracle: walk the timeline one microsecond at a time
        # and find the first instant where a full CCA window is idle.
        cfg = self.CFG

        def earliest_grant(bursts):
            def idle(t0, t1):
                return all(b.end_us <= t0 or b.start_us >= t1
                           or b.power_dbm < cfg.cca_threshold_dbm for b in bursts)

            return next(t + cfg.cca_duration_us for t in range(0, 10_000)
                        if idle(t, t + cfg.cca_duration_us))

        # Busy from the start, a too-short gap, then a sub-threshold burst.
        bursts = [Burst(0, 700, -60.0), Burst(712, 1500, -50.0), Burst(1600, 2200, -90.0)]
        oracle = earliest_grant(bursts)
        assert oracle == 1525
        occupancy = ChannelOccupancy(bursts)
        grants = [lbt_gate(occupancy, cfg, 0, Random(seed)).grant_us for seed in range(2000)]
        assert min(grants) >= oracle
        assert oracle in grants  # some seed draws zero backoff twice

        # Single blocking burst: a zero draw lands exactly on the oracle.
        single = [Burst(0, 700, -60.0)]
        oracle = earliest_grant(single)
        assert oracle == 725
        grants = [lbt_gate(ChannelOccupancy(single), cfg, 0, Random(seed)).grant_us
                  for seed in range(200)]
        assert min(grants) == oracle

    def test_below_threshold_bursts_are_idle(self):
        occupancy = ChannelOccupancy([Burst(0, 10_000, -90.0)])  # below -72
        result = lbt_gate(occupancy, self.CFG, now_us=0, rng=Random(1))
        assert result.grant_us == self.CFG.cca_duration_us

    def test_identical_seed_identical_decision(self):
        occupancy = ChannelOccupancy(
            [Burst(0, 400, -60.0), Burst(500, 900, -50.0), Burst(1200, 2000, -65.0)]
        )
        a = lbt_gate(occupancy, self.CFG, 0, Random(42))
        b = lbt_gate(occupancy, self.CFG, 0, Random(42))
        assert a == b

    @given(st.lists(
        st.tuples(st.integers(0, 5000), st.integers(1, 3000), st.floats(-95, -30)),
        max_size=6,
    ), st.integers(0, 2**31))
    @settings(max_examples=300)
    def test_grant_window_never_overlaps_busy_interval(self, spans, seed):
        bursts = [Burst(s, s + d, p) for s, d, p in spans]
        occupancy = ChannelOccupancy(bursts)
        result = lbt_gate(occupancy, self.CFG, now_us=0, rng=Random(seed))
        assert result.granted
        window = (result.grant_us - self.CFG.cca_duration_us, result.grant_us)
        for burst in bursts:
            if burst.power_dbm >= self.CFG.cca_threshold_dbm:
                assert burst.end_us <= window[0] or burst.start_us >= window[1]

    def test_reversed_burst_rejected(self):
        with pytest.raises(ConfigError):
            Burst(10, 10, -40.0)

    def test_burst_is_a_named_tuple(self):
        burst = Burst(start_us=-5, end_us=10, power_dbm=-40.0)
        assert burst == (-5, 10, -40.0)
        assert (burst.start_us, burst.end_us, burst.power_dbm) == (-5, 10, -40.0)
        assert burst._fields == ("start_us", "end_us", "power_dbm")


@dataclass(frozen=True)
class _DataclassBurst:
    """Reference: ``Burst`` as the frozen dataclass it was before it became a tuple."""

    start_us: int
    end_us: int
    power_dbm: float

    def __post_init__(self):
        if self.start_us >= self.end_us:
            raise ConfigError(f"burst interval reversed: [{self.start_us}, {self.end_us})")


def _dataclass_timeline(entries):
    """Reference: per-entry dataclass bursts, sorted with the key lambda."""
    bursts = [_DataclassBurst(start_us=int(e["start_us"]), end_us=int(e["end_us"]),
                              power_dbm=float(e["power_dbm"])) for e in entries]
    return tuple(sorted(bursts, key=lambda b: (b.start_us, b.end_us)))


def _fields(bursts):
    return [(b.start_us, b.end_us, b.power_dbm) for b in bursts]


class TestBurstTimelineOracle:
    # Narrow ranges make equal (start, end) pairs with different powers
    # common, which only a stable sort on (start, end) keeps in entry order.
    SPANS = st.tuples(st.integers(-20, 20), st.integers(1, 4),
                      st.one_of(st.sampled_from((-90.0, -72.0, -40.0)),
                                st.floats(allow_nan=False)))

    @given(st.lists(SPANS, max_size=40))
    @settings(max_examples=300)
    def test_same_order_as_dataclass_timeline(self, spans):
        entries = [{"start_us": s, "end_us": s + d, "power_dbm": p} for s, d, p in spans]
        got = ChannelOccupancy(_parse_bursts(entries)).bursts
        assert all(type(b) is Burst for b in got)
        assert _fields(got) == _fields(_dataclass_timeline(entries))

    @given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-3, 4), st.floats(-95, -30)),
                    min_size=1, max_size=20))
    @settings(max_examples=300)
    def test_same_first_reversed_interval_as_dataclass(self, spans):
        entries = [{"start_us": s, "end_us": s + d, "power_dbm": p} for s, d, p in spans]
        first_bad = next((i for i, (_, d, _) in enumerate(spans) if d <= 0), None)
        if first_bad is None:
            assert _fields(ChannelOccupancy(_parse_bursts(entries)).bursts) == _fields(
                _dataclass_timeline(entries))
            return
        with pytest.raises(ConfigError) as expected:
            _dataclass_timeline(entries)
        with pytest.raises(ScenarioError) as got:
            _parse_bursts(entries)
        assert str(got.value) == f"occupancy[{first_bad}]: {expected.value}"


def _linear_blocker(bursts, t0, t1, threshold):
    """Reference: the linear scan the indexed ``blocker`` replaced."""
    for burst in bursts:
        if burst.start_us >= t1:
            break
        if burst.end_us > t0 and burst.power_dbm >= threshold:
            return burst
    return None


class _LinearOccupancy(ChannelOccupancy):
    def blocker(self, t0, t1, threshold_dbm):
        return _linear_blocker(self.bursts, t0, t1, threshold_dbm)


class TestBlockerIndex:
    POWERS = (-90.0, -80.0, -72.0, -60.0, -40.0)

    # Narrow ranges make equal starts, nested and overlapping intervals
    # common; starts reach below zero.
    @given(
        st.lists(
            st.tuples(st.integers(-60, 60), st.integers(1, 80), st.sampled_from(POWERS)),
            max_size=12,
        ),
        st.lists(st.sampled_from(POWERS + (-72.5, -30.0)), min_size=1, max_size=4),
        st.sampled_from((1, 25, 200)),
    )
    @settings(max_examples=300)
    def test_same_burst_as_linear_scan(self, spans, thresholds, cca):
        occupancy = ChannelOccupancy([Burst(s, s + d, p) for s, d, p in spans])
        probes = {-200, 200}
        for b in occupancy.bursts:
            probes |= {b.start_us - 1, b.start_us, (b.start_us + b.end_us) // 2,
                       b.end_us - 1, b.end_us, b.end_us + 1}
        for threshold in thresholds:  # repeats hit the cached index
            for t0 in sorted(probes):
                expected = _linear_blocker(occupancy.bursts, t0, t0 + cca, threshold)
                got = occupancy.blocker(t0, t0 + cca, threshold)
                assert got is expected, (t0, cca, threshold)

    def test_lbt_gate_matches_linear_occupancy(self):
        cfg = LbtConfig()
        gen = Random(7)
        bursts = []
        for _ in range(2000):
            start = gen.randrange(-5_000, 400_000)
            bursts.append(Burst(start, start + gen.randint(100, 2_000),
                                cfg.cca_threshold_dbm + gen.uniform(-12.0, 12.0)))
        indexed, linear = ChannelOccupancy(bursts), _LinearOccupancy(bursts)
        busy = 0
        for seed in range(300):
            now = Random(seed).randrange(-6_000, 402_000)
            got = lbt_gate(indexed, cfg, now, Random(seed))
            assert got == lbt_gate(linear, cfg, now, Random(seed)), seed
            busy += got.busy_observations
        assert busy > 0


@dataclass(frozen=True)
class _DataclassLbtResult:
    """Reference: ``LbtResult`` as the frozen dataclass it was before it became a tuple."""

    grant_us: int
    busy_observations: int = 0
    granted = True  # the gate waits as long as it takes, so it always grants


def _randint_lbt_gate(occupancy: ChannelOccupancy, cfg: LbtConfig, now_us: int,
                      rng: Random) -> _DataclassLbtResult:
    """Reference: ``lbt_gate`` before its empty-channel return and ``randrange`` draw."""
    t = now_us
    cw = cfg.cw_min
    busy = 0
    while True:
        blocker = occupancy.blocker(t, t + cfg.cca_duration_us, cfg.cca_threshold_dbm)
        if blocker is None:
            return _DataclassLbtResult(grant_us=t + cfg.cca_duration_us, busy_observations=busy)
        busy += 1
        backoff_slots = rng.randint(0, cw)
        cw = min(2 * cw + 1, cfg.cw_max)
        t = max(t, blocker.end_us) + backoff_slots * BACKOFF_SLOT_US


@st.composite
def _lbt_configs(draw, thresholds=st.sampled_from((-85.0, -72.0, -62.5))):
    cw_max = draw(st.integers(7, 1023))
    return LbtConfig(cca_threshold_dbm=draw(thresholds),
                     cca_duration_us=draw(st.integers(25, 79)),
                     cw_min=draw(st.integers(3, min(15, cw_max))), cw_max=cw_max)


class TestLbtGateOracle:
    POWERS = (-90.0, -80.0, -72.0, -60.0, -40.0)

    # Empty timelines are common, and busy ones chain several backoffs.
    @given(
        st.lists(st.tuples(st.integers(-500, 3_000), st.integers(1, 800),
                           st.sampled_from(POWERS)), max_size=10),
        _lbt_configs(),
        st.integers(-1_000, 4_000),
        st.integers(0, 2**32),
    )
    @settings(max_examples=400)
    def test_same_grant_and_draws_as_the_randint_gate(self, spans, cfg, now_us, seed):
        occupancy = ChannelOccupancy([Burst(s, s + d, p) for s, d, p in spans])
        rng, reference_rng = Random(seed), Random(seed)
        got = lbt_gate(occupancy, cfg, now_us, rng)
        expected = _randint_lbt_gate(occupancy, cfg, now_us, reference_rng)
        assert (got.grant_us, got.busy_observations) == (
            expected.grant_us, expected.busy_observations)
        assert got.granted and expected.granted
        assert rng.getstate() == reference_rng.getstate()

    # SimNetwork takes this grant itself on a burst-free channel and never calls the gate.
    @given(_lbt_configs(st.floats(allow_nan=False)), st.integers(-2**64, 2**64))
    def test_a_burst_free_channel_grants_one_cca_later_without_a_draw(self, cfg, now_us):
        grant = lbt_gate(ChannelOccupancy(()), cfg, now_us, None)
        assert grant == LbtResult(now_us + cfg.cca_duration_us, 0)

    def test_result_keeps_its_field_names(self):
        result = lbt_gate(ChannelOccupancy(), LbtConfig(), 0, Random(0))
        assert type(result) is LbtResult
        assert LbtResult._fields == ("grant_us", "busy_observations")
        assert result == LbtResult(grant_us=25, busy_observations=0) and result.granted

    @pytest.mark.parametrize("bound", (0, 1, 2, 14, 15, 31, 1023, 1_000, 2**31 - 1, 2**70))
    def test_randrange_draws_as_randint(self, bound):
        # The gate's backoff and the network's jitter draw randrange(n + 1)
        # where they drew randint(0, n): the same values, the same state after.
        for seed in range(300):
            a, b = Random(seed), Random(seed)
            assert [a.randrange(bound + 1) for _ in range(8)] == [
                b.randint(0, bound) for _ in range(8)]
            assert a.getstate() == b.getstate()


def _searched_transmit_time(cfg, direction, t_us):
    """Reference: the slot-by-slot search that the closed form replaced."""
    slot = t_us // cfg.slot_us
    if schedule_tdd(cfg, slot) == direction:
        return t_us
    for k in range(1, cfg.period_slots + 1):
        if schedule_tdd(cfg, slot + k) == direction:
            return (slot + k) * cfg.slot_us
    raise ConfigError(f"no {direction} slot in the TDD period")  # unreachable with valid cfg


@st.composite
def _tdd_configs(draw):
    period = draw(st.integers(2, 20))
    dl = draw(st.integers(1, period - 1))
    ul = draw(st.integers(1, period - dl))
    slot_us = draw(st.sampled_from((1, 7, 125, 250, 500, 1000)))
    return TddConfig(period_slots=period, dl_slots=dl, ul_slots=ul, slot_us=slot_us)


class TestTdd:
    CFG = TddConfig()

    def test_default_split_is_7_2_1(self):
        pattern = [schedule_tdd(self.CFG, k) for k in range(10)]
        assert pattern == ["DL"] * 7 + ["GUARD"] + ["UL"] * 2
        assert self.CFG.dl_fraction == 0.7

    def test_periodicity(self):
        for k in range(30):
            assert schedule_tdd(self.CFG, k) == schedule_tdd(self.CFG, k + self.CFG.period_slots)

    def test_all_dl_config_rejected(self):
        with pytest.raises(ConfigError):
            TddConfig(period_slots=10, dl_slots=10, ul_slots=0)
        with pytest.raises(ConfigError):
            TddConfig(period_slots=10, dl_slots=9, ul_slots=2)

    def test_next_transmit_time_waits_for_matching_slot(self):
        # Slot layout at 500 us: UL starts at 4000 within each 5 ms period.
        assert next_transmit_time(self.CFG, "UL", 0) == 4000
        assert next_transmit_time(self.CFG, "UL", 4100) == 4100  # already in UL
        assert next_transmit_time(self.CFG, "DL", 3600) == 5000  # guard slot
        assert next_transmit_time(self.CFG, "DL", 200) == 200
        with pytest.raises(ConfigError):
            next_transmit_time(self.CFG, "dl", 0)

    @given(_tdd_configs(), st.data())
    @settings(max_examples=300)
    def test_closed_form_matches_the_slot_search(self, cfg, data):
        span = 4 * cfg.period_slots * cfg.slot_us
        # Every slot edge over four periods, each side, plus random instants.
        times = {edge + d for edge in range(0, span + 1, cfg.slot_us) for d in (-1, 0, 1)}
        times |= set(data.draw(st.lists(st.integers(0, span), max_size=20)))
        for direction in ("DL", "UL"):
            for t in sorted(times):
                expected = _searched_transmit_time(cfg, direction, t)
                assert next_transmit_time(cfg, direction, t) == expected, (direction, t)

    @given(_tdd_configs(), st.sampled_from(("DL", "UL", "dl", "GUARD")),
           st.lists(st.integers(0, 10**9), min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_plain_tuple_gives_the_named_tuples_answers(self, cfg, direction, times):
        """``SimNetwork`` hands the hot path ``tuple(cfg)``: same answers, same errors."""
        def answer(tdd, t):
            try:
                return next_transmit_time(tdd, direction, t)
            except ConfigError as error:
                return str(error)

        plain = tuple(cfg)
        assert type(plain) is tuple
        for t in times:
            assert answer(plain, t) == answer(cfg, t), t

    def test_slot_duration_follows_scs(self):
        assert slot_duration_us(15) == 1000
        assert slot_duration_us(30) == 500
        assert slot_duration_us(60) == 250
        with pytest.raises(ConfigError):
            slot_duration_us(45)
