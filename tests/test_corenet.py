import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrusim.corenet import (
    REJECT_DISABLED,
    REJECT_MALFORMED,
    REJECT_UNKNOWN,
    CoreConfig,
    CoreNetwork,
    IpPool,
    SubscriberRecord,
    pool_capacity,
)
from nrusim.errors import AllocationError, ConfigError, StateError

IMSI_1 = "001010000000001"
IMSI_2 = "001010000000002"


def make_core(pool="12.1.1.0/24", subscribers=(IMSI_1, IMSI_2)):
    return CoreNetwork(
        CoreConfig(ue_pool_cidr=pool),
        [SubscriberRecord(imsi=i) for i in subscribers],
    )


class TestRegistration:
    def test_provisioned_imsi_accepted(self):
        assert make_core().register_ue(IMSI_1).accepted

    def test_unknown_imsi_rejected(self):
        result = make_core().register_ue("001019999999999")
        assert not result.accepted
        assert result.reason == REJECT_UNKNOWN

    def test_malformed_imsi_rejected(self):
        core = make_core()
        assert core.register_ue("12345678901234").reason == REJECT_MALFORMED  # 14 digits
        assert core.register_ue("1234567890123456").reason == REJECT_MALFORMED
        assert core.register_ue("00101000000000x").reason == REJECT_MALFORMED

    def test_disabled_subscriber_rejected(self):
        core = CoreNetwork(subscribers=[SubscriberRecord(imsi=IMSI_1, enabled=False)])
        assert core.register_ue(IMSI_1).reason == REJECT_DISABLED

    def test_reregistration_replaces(self):
        core = make_core()
        assert core.register_ue(IMSI_1, ue_id="ue1").accepted
        assert core.register_ue(IMSI_1, ue_id="ue1").accepted
        assert core.is_registered("ue1")

    def test_deterministic(self):
        a = make_core().register_ue(IMSI_1)
        b = make_core().register_ue(IMSI_1)
        assert a == b

    def test_duplicate_imsi_in_store_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            make_core(subscribers=(IMSI_1, IMSI_1))

    def test_short_imsi_cannot_be_provisioned(self):
        with pytest.raises(ConfigError, match="15 decimal digits"):
            SubscriberRecord(imsi="123")


class TestSessions:
    def test_first_two_sessions_get_dot2_then_dot3(self):
        core = make_core()
        core.register_ue(IMSI_1, ue_id="ue1")
        core.register_ue(IMSI_2, ue_id="ue2")
        assert core.establish_pdu_session("ue1").ip == "12.1.1.2"
        assert core.establish_pdu_session("ue2").ip == "12.1.1.3"

    def test_unregistered_ue_cannot_get_session(self):
        with pytest.raises(StateError, match="register"):
            make_core().establish_pdu_session("ue1")

    def test_teids_fresh_and_distinct(self):
        core = make_core()
        core.register_ue(IMSI_1, ue_id="ue1")
        core.register_ue(IMSI_2, ue_id="ue2")
        s1 = core.establish_pdu_session("ue1")
        s2 = core.establish_pdu_session("ue2")
        teids = {s1.teid_uplink, s1.teid_downlink, s2.teid_uplink, s2.teid_downlink}
        assert len(teids) == 4
        assert s1.teid_uplink != s1.teid_downlink

    def test_pool_exhaustion(self):
        core = make_core(pool="12.1.1.0/30")  # gateway + 1 host
        core.register_ue(IMSI_1, ue_id="ue1")
        core.register_ue(IMSI_2, ue_id="ue2")
        core.establish_pdu_session("ue1")
        with pytest.raises(AllocationError, match="exhausted"):
            core.establish_pdu_session("ue2")

    def test_release_returns_lowest_free(self):
        core = make_core()
        core.register_ue(IMSI_1, ue_id="ue1")
        core.register_ue(IMSI_2, ue_id="ue2")
        s1 = core.establish_pdu_session("ue1")
        core.establish_pdu_session("ue2")
        core.release_session(s1)
        assert core.establish_pdu_session("ue1").ip == "12.1.1.2"

    def test_release_is_idempotent(self, caplog):
        core = make_core()
        core.register_ue(IMSI_1, ue_id="ue1")
        session = core.establish_pdu_session("ue1")
        core.release_session(session)
        free = core.pool.free_count
        with caplog.at_level("WARNING"):
            core.release_session(session)
        assert "already-released" in caplog.text
        assert core.pool.free_count == free

    def test_release_frees_exactly_one_slot(self):
        core = make_core()
        core.register_ue(IMSI_1, ue_id="ue1")
        before = core.pool.free_count
        session = core.establish_pdu_session("ue1")
        assert core.pool.free_count == before - 1
        core.release_session(session)
        assert core.pool.free_count == before


class TestPoolReconfiguration:
    def test_reconfigure_redirects_allocations(self):
        core = make_core()
        core.register_ue(IMSI_1, ue_id="ue1")
        session = core.establish_pdu_session("ue1")
        core.release_session(session)
        core.reconfigure_pool("10.1.1.0/24")
        core.register_ue(IMSI_1, ue_id="ue1")
        assert core.establish_pdu_session("ue1").ip == "10.1.1.2"
        assert str(core.pool.gateway) == "10.1.1.1"

    def test_reconfigure_with_active_session_is_busy(self):
        core = make_core()
        core.register_ue(IMSI_1, ue_id="ue1")
        core.establish_pdu_session("ue1")
        with pytest.raises(StateError, match="active session"):
            core.reconfigure_pool("10.1.1.0/24")

    def test_reconfigure_to_same_cidr_is_noop(self):
        core = make_core()
        allocated_before = core.pool.allocated_count
        config = core.reconfigure_pool("12.1.1.0/24")
        assert config.ue_pool_cidr == "12.1.1.0/24"
        assert core.pool.allocated_count == allocated_before


class TestPoolInvariants:
    def test_gateway_is_first_host(self):
        pool = IpPool("12.1.1.0/24")
        assert str(pool.gateway) == "12.1.1.1"
        assert pool.capacity == 253  # 254 hosts minus the gateway

    @pytest.mark.parametrize("prefix", range(16, 32))
    def test_capacity_counted_without_listing_matches_the_pool(self, prefix):
        assert pool_capacity(f"10.0.0.0/{prefix}") == IpPool(f"10.0.0.0/{prefix}").capacity

    @given(st.lists(st.sampled_from(["alloc", "release"]), max_size=60))
    @settings(max_examples=100)
    def test_conservation_under_any_op_sequence(self, ops):
        pool = IpPool("10.0.0.0/26")
        held: list[str] = []
        for op in ops:
            if op == "alloc":
                try:
                    held.append(pool.allocate())
                except AllocationError:
                    assert pool.free_count == 0
            elif held:
                pool.release(held.pop())
            assert pool.allocated_count + pool.free_count == pool.capacity
            assert len(set(held)) == len(held)

    def test_active_sessions_never_share_ip_or_teid(self):
        core = make_core()
        for i in range(1, 9):
            imsi = f"00101000000{i:04d}"
            core.subscribers[imsi] = SubscriberRecord(imsi=imsi)
            core.register_ue(imsi, ue_id=f"ue{i}")
            core.establish_pdu_session(f"ue{i}")
        sessions = core.active_sessions()
        ips = [s.ip for s in sessions]
        teids = [t for s in sessions for t in (s.teid_uplink, s.teid_downlink)]
        assert len(set(ips)) == len(ips)
        assert len(set(teids)) == len(teids)
