import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrusim import spectrum
from nrusim.errors import ConfigError, OffRasterError, RasterRangeError
from nrusim.spectrum import (
    ChannelAssignment,
    arfcn_to_frequency,
    arfcn_to_khz,
    check_assignment,
    check_regulatory,
    frequency_to_arfcn,
    get_band,
    gscn_to_khz,
    gscn_to_ss_frequency,
    load_band_plans,
    load_regulatory_rules,
    ss_scan_candidates,
    validate_channel,
)

N46_FIRST, N46_LAST = 743333, 795000


class TestArfcnConversion:
    def test_segment_offset_point(self):
        assert arfcn_to_frequency(600000) == 3000.0

    def test_n46_edges(self):
        # Expected values computed independently from the global-raster
        # formula (3000 MHz + 15 kHz * (N - 600000)) before implementation.
        assert arfcn_to_khz(743333) == 5_149_995
        assert arfcn_to_khz(795000) == 5_925_000
        assert arfcn_to_khz(750000) == 5_250_000

    def test_out_of_segment_raises_with_range(self):
        with pytest.raises(RasterRangeError, match="600000"):
            arfcn_to_khz(4_000_000)
        with pytest.raises(RasterRangeError):
            arfcn_to_khz(-1)

    def test_inverse_exact(self):
        assert frequency_to_arfcn(5250.0) == 750000
        assert frequency_to_arfcn(3000.0) == 600000

    def test_off_grid_reports_neighbours(self):
        with pytest.raises(OffRasterError) as err:
            frequency_to_arfcn(5250.007)
        assert err.value.below == 750000
        assert err.value.above == 750001

    def test_inter_segment_gap_reports_segment_edges(self):
        # 24250.000 MHz falls between the 15 kHz and 60 kHz segments.
        with pytest.raises(OffRasterError) as err:
            frequency_to_arfcn(24250.0)
        assert err.value.below == 2016666
        assert err.value.above == 2016667

    def test_negative_frequency_out_of_range(self):
        with pytest.raises(RasterRangeError):
            frequency_to_arfcn(-1.0)

    # 1e308 MHz is finite, but its kHz product is not: the span check comes first.
    @pytest.mark.parametrize("freq", [1e308, -1e308, 100_000.0])
    def test_far_out_frequency_out_of_range_in_mhz(self, freq):
        with pytest.raises(RasterRangeError, match=r"MHz outside the global raster span"):
            frequency_to_arfcn(freq)

    @pytest.mark.parametrize("freq", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_frequency_out_of_range(self, freq):
        with pytest.raises(RasterRangeError, match="not a finite frequency"):
            frequency_to_arfcn(freq)

    @given(st.integers(min_value=N46_FIRST, max_value=N46_LAST))
    def test_round_trip_over_n46(self, arfcn):
        assert frequency_to_arfcn(arfcn_to_frequency(arfcn)) == arfcn

    def test_n46_frequencies_inside_band_definition(self):
        # 5150-5925 MHz within one raster step.
        for arfcn in (N46_FIRST, N46_FIRST + 1, 770000, N46_LAST - 1, N46_LAST):
            khz = arfcn_to_khz(arfcn)
            assert 5_149_995 <= khz <= 5_925_000


class TestGscnConversion:
    def test_segment_offset_point(self):
        assert gscn_to_ss_frequency(7499) == 3000.0

    def test_n46_edges(self):
        assert gscn_to_khz(8993) == 5_151_360
        assert gscn_to_khz(9530) == 5_924_640

    def test_low_segment(self):
        # N=1, M=3 -> 1.35 MHz; the lowest raster point is N=1, M=1.
        assert gscn_to_khz(3) == 1350
        assert gscn_to_khz(2) == 1250

    def test_out_of_range(self):
        with pytest.raises(RasterRangeError):
            gscn_to_khz(30000)
        with pytest.raises(RasterRangeError):
            gscn_to_khz(0)


class TestBandPlans:
    def test_all_shipped_bands_load(self):
        plans = load_band_plans()
        assert "n46" in plans and len(plans) >= 25

    def test_n46_row_exact(self):
        band = get_band("n46")
        assert band.duplex == "tdd"
        assert band.rasters[0].delta_f_khz == 15
        assert (band.dl_raster.first, band.dl_raster.step, band.dl_raster.last) == (
            N46_FIRST, 1, N46_LAST)
        assert band.rasters[0].ul == band.dl_raster
        (entry,) = band.sync_entries
        assert entry.scs_khz == 30
        assert entry.block_pattern == "case_c"
        assert (entry.gscn.first, entry.gscn.step, entry.gscn.last) == (8993, 1, 9530)

    def test_unknown_band(self):
        with pytest.raises(ConfigError, match="unknown band"):
            get_band("n99")

    def test_validate_channel_endpoints(self):
        band = get_band("n46")
        assert validate_channel(band, N46_FIRST, "DL")
        assert validate_channel(band, N46_LAST, "DL")
        assert validate_channel(band, 750000, "UL")
        assert not validate_channel(band, N46_FIRST - 1, "DL")
        assert not validate_channel(band, N46_LAST + 1, "DL")

    def test_validate_channel_respects_step(self):
        band = get_band("n1")  # step 20
        assert validate_channel(band, 422000, "DL")
        assert not validate_channel(band, 422001, "DL")
        assert validate_channel(band, 384000, "UL")
        assert not validate_channel(band, 384000, "DL")

    def test_sdl_band_has_no_uplink(self):
        band = get_band("n29")
        assert band.rasters[0].ul is None
        assert not validate_channel(band, 143400, "UL")
        assert validate_channel(band, 143400, "DL")

    def test_n48_second_raster_row(self):
        band = get_band("n48")
        assert len(band.rasters) == 2
        assert validate_channel(band, 636668, "DL")  # 30 kHz row, step 2
        assert validate_channel(band, 636667, "DL")  # 15 kHz row

    def test_n41_sync_rows_step_three(self):
        band = get_band("n41")
        assert [e.gscn.step for e in band.sync_entries] == [3, 3]
        assert validate_channel(band, 499203, "DL")  # channel raster step 3
        assert not validate_channel(band, 499204, "DL")

    def test_tdd_bands_have_symmetric_rasters(self):
        for band in load_band_plans().values():
            if band.duplex == "tdd":
                for raster in band.rasters:
                    assert raster.ul == raster.dl, band.band_id


class TestScanCandidates:
    def test_n46_enumeration(self):
        candidates = ss_scan_candidates(get_band("n46"))
        assert len(candidates) == 538
        assert candidates[0] == (8993, 5151.36)
        assert candidates[-1] == (9530, 5924.64)

    def test_strictly_increasing(self):
        candidates = ss_scan_candidates(get_band("n46"))
        assert all(a[0] < b[0] and a[1] < b[1] for a, b in zip(candidates, candidates[1:]))

    def test_candidates_inside_band_span(self):
        band = get_band("n46")
        lo, hi = band.frequency_span_khz()
        for _gscn, freq in ss_scan_candidates(band):
            assert lo < freq * 1000 < hi

    def test_every_shipped_band_enumerates_monotonically(self):
        for band in load_band_plans().values():
            if not band.sync_entries:
                continue
            candidates = ss_scan_candidates(band)
            assert candidates == sorted(set(candidates)), band.band_id

    def test_band_without_sync_entries(self):
        with pytest.raises(ConfigError, match="no sync raster"):
            ss_scan_candidates(get_band("n47"))

    def test_degenerate_single_point_range(self):
        band = spectrum.BandPlan(
            band_id="x1",
            duplex="tdd",
            rasters=(spectrum.ChannelRaster(
                delta_f_khz=15,
                ul=spectrum.RasterSpan(750000, 1, 750000),
                dl=spectrum.RasterSpan(750000, 1, 750000),
            ),),
            sync_entries=(spectrum.SyncRasterEntry(
                scs_khz=30, block_pattern="case_c",
                gscn=spectrum.RasterSpan(9000, 1, 9000),
            ),),
        )
        assert ss_scan_candidates(band) == [(9000, gscn_to_ss_frequency(9000))]


class TestRegulatory:
    def setup_method(self):
        self.rules = load_regulatory_rules("AU")

    def test_unknown_jurisdiction(self):
        with pytest.raises(ConfigError, match="unknown jurisdiction"):
            load_regulatory_rules("XX")

    @pytest.mark.parametrize("bandwidth, eirp, needle", [
        (float("nan"), 20.0, "bandwidth"),
        (float("inf"), 20.0, "bandwidth"),
        (0.0, 20.0, "bandwidth"),
        (-20.0, 20.0, "bandwidth"),
        (20.0, float("nan"), "EIRP"),
        (20.0, float("inf"), "EIRP"),
        (20.0, -1.0, "EIRP"),
    ])
    def test_assignment_rejects_bad_bandwidth_or_eirp(self, bandwidth, eirp, needle):
        with pytest.raises(ConfigError, match=needle):
            ChannelAssignment("n46", 786667, bandwidth, eirp_mw=eirp)

    def test_zero_eirp_is_an_assignment(self):
        assert check_regulatory(ChannelAssignment("n46", 786667, 20.0, eirp_mw=0.0),
                                self.rules) == []

    def test_eirp_violation_in_upper_range(self):
        # 5800.005 MHz centre, well inside 5725-5875.
        a = ChannelAssignment("n46", 786667, 20.0, eirp_mw=30.0, indoor=False)
        violations = check_regulatory(a, self.rules)
        assert [v.kind for v in violations] == ["eirp"]
        assert "25" in violations[0].message

    def test_eirp_boundary(self):
        at_limit = ChannelAssignment("n46", 786667, 20.0, eirp_mw=25.0, indoor=False)
        assert check_regulatory(at_limit, self.rules) == []
        just_over = ChannelAssignment("n46", 786667, 20.0, eirp_mw=25.1, indoor=False)
        assert [v.kind for v in check_regulatory(just_over, self.rules)] == ["eirp"]

    def test_indoor_only_range(self):
        outdoor = ChannelAssignment("n46", 746667, 20.0, eirp_mw=20.0, indoor=False)
        assert [v.kind for v in check_regulatory(outdoor, self.rules)] == ["indoor"]
        indoor = ChannelAssignment("n46", 746667, 20.0, eirp_mw=20.0, indoor=True)
        assert check_regulatory(indoor, self.rules) == []

    def test_indoor_boundary_at_5250(self):
        # Occupied span starting exactly at 5250.000 MHz: touching the
        # boundary is not occupancy.
        touching = ChannelAssignment("n46", 750667, 20.01, eirp_mw=20.0, indoor=False)
        assert touching.span_khz()[0] == 5_250_000
        assert check_regulatory(touching, self.rules) == []
        # One kHz lower and the span dips into the indoor-only range.
        overlapping = ChannelAssignment("n46", 750667, 20.012, eirp_mw=20.0, indoor=False)
        assert [v.kind for v in check_regulatory(overlapping, self.rules)] == ["indoor"]

    def test_span_above_5251_clear(self):
        clear = ChannelAssignment("n46", 750734, 20.02, eirp_mw=20.0, indoor=False)
        assert clear.span_khz()[0] == 5_251_000
        assert check_regulatory(clear, self.rules) == []

    @given(
        lower=st.floats(min_value=0.001, max_value=500),
        upper=st.floats(min_value=0.001, max_value=500),
    )
    @settings(max_examples=200)
    def test_eirp_monotone(self, lower, upper):
        if lower > upper:
            lower, upper = upper, lower
        high = ChannelAssignment("n46", 786667, 20.0, eirp_mw=upper, indoor=False)
        low = ChannelAssignment("n46", 786667, 20.0, eirp_mw=lower, indoor=False)
        if not check_regulatory(high, self.rules):
            assert not check_regulatory(low, self.rules)

    def test_validate_assignment_rejects_off_raster(self):
        bad = ChannelAssignment("n46", 795001, 20.0, eirp_mw=1.0, indoor=True)
        with pytest.raises(ConfigError, match="743333"):
            check_assignment(bad, "AU")

    def test_validate_assignment_rejects_edges_outside_band(self):
        wide = ChannelAssignment("n46", 795000, 40.0, eirp_mw=1.0, indoor=True)
        with pytest.raises(ConfigError, match="outside"):
            check_assignment(wide, "AU")

    @pytest.mark.parametrize("bandwidth", [775.006, 1e308])
    def test_validate_assignment_names_a_bandwidth_wider_than_the_band(self, bandwidth):
        wide = ChannelAssignment("n46", 786667, bandwidth, eirp_mw=1.0, indoor=True)
        with pytest.raises(ConfigError) as caught:
            check_assignment(wide, "AU")
        message = str(caught.value)
        assert message.startswith(f"bandwidth {bandwidth} MHz is wider than the n46 span")
        assert "inf" not in message

    def test_validate_assignment_keeps_a_bandwidth_as_wide_as_the_band_to_the_edge_check(self):
        # 775.005 MHz is the n46 span; centred off the middle, the carrier overhangs it.
        whole = ChannelAssignment("n46", 786667, 775.005, eirp_mw=1.0, indoor=True)
        with pytest.raises(ConfigError, match="carrier edges .* fall outside the n46 span"):
            check_assignment(whole, "AU")
