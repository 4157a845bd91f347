import ipaddress
import tracemalloc

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
)
from nrusim.errors import AllocationError, ConfigError, StateError

IMSI_1 = "001010000000001"
IMSI_2 = "001010000000002"


class ListPool:
    """The pool as it was before it worked from its prefix: every host listed.

    Kept as the oracle for ``IpPool``: gateway, capacity, allocation order
    and exhaustion must match it.
    """

    def __init__(self, cidr: str):
        self.network = ipaddress.IPv4Network(cidr)
        hosts = list(self.network.hosts())
        if len(hosts) < 2:
            raise ConfigError(f"pool {cidr} too small: needs a gateway plus at least one host")
        self.gateway = hosts[0]
        self._hosts = hosts[1:]
        self._allocated: set[ipaddress.IPv4Address] = set()

    @property
    def cidr(self) -> str:
        return str(self.network)

    @property
    def capacity(self) -> int:
        return len(self._hosts)

    @property
    def allocated_count(self) -> int:
        return len(self._allocated)

    @property
    def free_count(self) -> int:
        return self.capacity - self.allocated_count

    def allocate(self) -> str:
        for host in self._hosts:
            if host not in self._allocated:
                self._allocated.add(host)
                return str(host)
        raise AllocationError(f"pool {self.cidr} exhausted ({self.capacity} hosts allocated)")

    def release(self, ip: str) -> None:
        self._allocated.discard(ipaddress.IPv4Address(ip))

    def __contains__(self, ip: str) -> bool:
        return ipaddress.IPv4Address(ip) in self.network


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
        pool, oracle = IpPool(f"10.0.0.0/{prefix}"), ListPool(f"10.0.0.0/{prefix}")
        assert (pool.gateway, pool.capacity, pool.cidr) == (
            oracle.gateway, oracle.capacity, oracle.cidr)
        assert pool.allocate() == oracle.allocate()

    def test_building_a_wide_pool_lists_no_hosts(self):
        tracemalloc.start()
        try:
            pool = IpPool("10.0.0.0/12")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pool.capacity == 2**20 - 3
        assert peak < 64 * 1024

    @pytest.mark.parametrize("bad", ["nowhere", "999.1.1.1", "12.1.1", ""])
    def test_membership_of_a_malformed_address_raises_every_time(self, bad):
        pool = IpPool("12.1.1.0/24")
        for _ in range(2):
            with pytest.raises(ipaddress.AddressValueError):
                bad in pool  # noqa: B015

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


@st.composite
def pool_cidrs(draw):
    """A /24../31 network placed anywhere inside 10.0.0.0/16."""
    prefix = draw(st.integers(24, 31))
    block = draw(st.integers(0, 2 ** (prefix - 24) - 1)) << (32 - prefix)
    return f"10.0.{draw(st.integers(0, 255))}.{block}/{prefix}"


POOL_OPS = st.one_of(
    st.just(("allocate", None)),
    st.just(("allocate", None)),
    st.tuples(st.just("release"), st.integers(0, 7)),
    st.tuples(st.just("release_any"), st.integers(0, 300)),
    st.tuples(st.just("contains"), st.integers(0, 300)),
    st.tuples(st.just("reconfigure"), pool_cidrs()),
)


class TestPoolOracle:
    """``IpPool`` against the list pool it replaced, over whole op sequences."""

    @given(pool_cidrs(), st.lists(POOL_OPS, max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_same_addresses_counts_and_exhaustion(self, cidr, ops):
        core = CoreNetwork(CoreConfig(ue_pool_cidr=cidr))
        oracle = ListPool(cidr)
        held: list[str] = []
        probed: list[str] = []  # asked again after every op, so answers come from the cache too
        for op, arg in ops:
            if op == "allocate":
                try:
                    expected = oracle.allocate()
                except AllocationError:
                    with pytest.raises(AllocationError, match="exhausted"):
                        core.pool.allocate()
                else:
                    assert core.pool.allocate() == expected
                    held.append(expected)
            elif op == "release" and held:
                ip = held.pop(arg % len(held))
                oracle.release(ip)
                core.pool.release(ip)
            elif op == "release_any":  # maybe not held: gateway, broadcast, outside the pool
                ip = str(oracle.network.network_address - 2 + arg % (oracle.capacity + 6))
                if ip in held:
                    held.remove(ip)
                oracle.release(ip)
                core.pool.release(ip)
            elif op == "contains":  # gateway, hosts, edges and addresses outside the pool
                probed.append(str(oracle.network.network_address - 2 + arg % (oracle.capacity + 6)))
            elif op == "reconfigure":
                config = core.reconfigure_pool(arg)  # no sessions, so never refused
                assert config.ue_pool_cidr == arg
                if arg != oracle.cidr:
                    oracle, held = ListPool(arg), []
            pool = core.pool
            assert (pool.cidr, pool.gateway, pool.capacity) == (
                oracle.cidr, oracle.gateway, oracle.capacity)
            assert (pool.allocated_count, pool.free_count) == (
                oracle.allocated_count, oracle.free_count)
            for ip in probed + [str(pool.gateway)]:
                assert (ip in pool) == (ip in oracle), ip
