import pytest
from hypothesis import given
from hypothesis import strategies as st

from nrusim.errors import DomainError
from nrusim.rflink import (
    Cable,
    HostModel,
    OverAir,
    compute_rsrp,
    get_host,
    get_sdr,
    link_viable,
    load_hardware_profiles,
    medium_loss_db,
    required_sampling_rate,
    sample_drop_fraction,
)

AIR = OverAir(distance_m=3.0)
CABLE = Cable(length_cm=50, attenuator_db=30)


class TestRsrp:
    def test_attenuator_linearity(self):
        base = compute_rsrp(-30.0, 1, Cable(length_cm=50, attenuator_db=20))
        more = compute_rsrp(-30.0, 1, Cable(length_cm=50, attenuator_db=30))
        assert base - more == pytest.approx(10.0)

    def test_attenuation_factor_linearity(self):
        assert compute_rsrp(-30.0, 1, AIR) - compute_rsrp(-30.0, 12, AIR) == pytest.approx(11.0)

    def test_reference_calibrations(self):
        # The bundled over-air profile: -100 dBm at factor 12 over 3 m.
        assert compute_rsrp(-31.614, 12, AIR) == pytest.approx(-100.0, abs=0.01)
        assert compute_rsrp(-82.614, 1, AIR) == pytest.approx(-140.0, abs=0.01)
        assert compute_rsrp(-88.5, 1, CABLE) == pytest.approx(-120.0)
        assert compute_rsrp(-54.5, 10, CABLE) == pytest.approx(-95.0)

    def test_monotone_in_distance(self):
        near = compute_rsrp(-30.0, 1, OverAir(distance_m=1.0))
        far = compute_rsrp(-30.0, 1, OverAir(distance_m=10.0))
        assert near > far

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            OverAir(distance_m=-1.0)
        with pytest.raises(DomainError):
            Cable(length_cm=0)

    def test_cable_loss_includes_length(self):
        short = medium_loss_db(Cable(length_cm=50, attenuator_db=0), 5250.0)
        longer = medium_loss_db(Cable(length_cm=250, attenuator_db=0), 5250.0)
        assert longer - short == pytest.approx(2.0)  # 1 dB/m


class TestSamplingCapacity:
    def test_required_rate_is_linear(self):
        assert required_sampling_rate(40.0) == 40.0
        assert required_sampling_rate(20.0) == 20.0
        assert required_sampling_rate(0.001) == pytest.approx(0.001)

    def test_no_drop_with_headroom(self):
        assert sample_drop_fraction(HostModel("h", capacity_msps=40.0), 40.0) == 0.0
        assert sample_drop_fraction(HostModel("h", capacity_msps=100.0), 40.0) == 0.0

    def test_bundled_overloaded_profile_drops_exactly_15_per_mille(self):
        host = get_host("nuc-i5-core")
        assert sample_drop_fraction(host, 40.0) == 0.015

    def test_shutting_down_core_stops_drops(self):
        loaded = get_host("nuc-i5-core")
        unloaded = HostModel("nuc", capacity_msps=loaded.capacity_msps)
        assert sample_drop_fraction(loaded, 40.0) > 0.0
        assert sample_drop_fraction(unloaded, 40.0) == 0.0

    @given(
        capacity=st.integers(min_value=1, max_value=200),
        load=st.integers(min_value=0, max_value=50),
        required=st.integers(min_value=1, max_value=100),
    )
    def test_drop_monotonicity(self, capacity, load, required):
        host = HostModel("h", capacity_msps=float(capacity), colocated_core_load_msps=float(load))
        drop = sample_drop_fraction(host, float(required))
        assert 0.0 <= drop <= 1.0
        bigger_host = HostModel("h", capacity_msps=float(capacity + 10),
                                colocated_core_load_msps=float(load))
        assert sample_drop_fraction(bigger_host, float(required)) <= drop
        more_load = HostModel("h", capacity_msps=float(capacity),
                              colocated_core_load_msps=float(load + 5))
        assert sample_drop_fraction(more_load, float(required)) >= drop
        assert sample_drop_fraction(host, float(required + 10)) >= drop

    def test_viability_threshold(self):
        assert link_viable(0.0)
        assert link_viable(0.0005)
        assert not link_viable(0.015)
        assert not link_viable(1.0)

    @given(
        capacity=st.integers(min_value=1, max_value=100),
        load=st.integers(min_value=0, max_value=20),
        extra=st.integers(min_value=0, max_value=20),
    )
    def test_added_load_never_revives_a_link(self, capacity, load, extra):
        base = HostModel("h", capacity_msps=float(capacity), colocated_core_load_msps=float(load))
        loaded = HostModel("h", capacity_msps=float(capacity),
                           colocated_core_load_msps=float(load + extra))
        if not link_viable(sample_drop_fraction(base, 40.0)):
            assert not link_viable(sample_drop_fraction(loaded, 40.0))


class TestProfiles:
    def test_profiles_cover_the_bundled_sdrs(self):
        hosts, sdrs = load_hardware_profiles()
        assert {"b200", "b210", "n300"} <= set(sdrs)
        assert sdrs["b210"].interface == "usb3"
        assert sdrs["n300"].interface == "ethernet"
        assert sdrs["n300"].max_bandwidth_mhz > sdrs["b210"].max_bandwidth_mhz
        assert {"precision-5820-core", "nuc-i5", "nuc-i5-core"} <= set(hosts)

    def test_unknown_profile_errors_name_the_profile(self):
        from nrusim.errors import ConfigError

        with pytest.raises(ConfigError, match="no-such-host"):
            get_host("no-such-host")
        with pytest.raises(ConfigError, match="no-such-sdr"):
            get_sdr("no-such-sdr")
