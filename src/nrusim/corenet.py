"""Minimal 5G core control plane.

Registration (the AMF role) reduces to an enabled-IMSI allowlist: the
subscriber store stands in for the UDR/AUSF/UDM chain, which this model
does not cryptographically reproduce.  Session management (the SMF role)
allocates UE addresses lowest-free-first from a configurable pool, whose
gateway, size and hosts are worked out from its prefix rather than
listed, and hands out tunnel endpoint identifiers from a monotonic
counter so runs are deterministic.
"""

from __future__ import annotations

import ipaddress
import itertools
from typing import NamedTuple

from .errors import AllocationError, CheckedRecord, ConfigError, StateError

IMSI_DIGITS = 15


class _SubscriberRecordFields(NamedTuple):
    imsi: str
    enabled: bool = True


class SubscriberRecord(CheckedRecord, _SubscriberRecordFields):
    __slots__ = ()

    def _check(self):
        if len(self.imsi) != IMSI_DIGITS or not self.imsi.isdigit():
            raise ConfigError(f"IMSI must be {IMSI_DIGITS} decimal digits, got {self.imsi!r}")


class RegistrationResult(NamedTuple):
    accepted: bool
    reason: str | None = None


REJECT_MALFORMED = "malformed"
REJECT_UNKNOWN = "unknown-subscriber"
REJECT_DISABLED = "subscriber-disabled"


class PduSession:
    """An authorised data path: UE address plus its two tunnel endpoints.

    ``interface`` is the UE-side virtual interface the address gets bound
    to (the first tunnel on a UE host comes up as oaitun_ue1).  Release
    changes ``state``, so this is a mutable record.
    """

    __slots__ = ("ue_id", "ip", "teid_uplink", "teid_downlink", "state", "interface")

    def __init__(self, ue_id: str, ip: str, teid_uplink: int, teid_downlink: int,
                 state: str = "ACTIVE", interface: str = "oaitun_ue1"):
        self.ue_id = ue_id
        self.ip = ip
        self.teid_uplink = teid_uplink
        self.teid_downlink = teid_downlink
        self.state = state
        self.interface = interface

    @property
    def active(self) -> bool:
        return self.state == "ACTIVE"


class IpPool:
    """Host-address pool over one IPv4 subnet, worked out from its prefix.

    The first host is the gateway: the network address itself on a /31 or
    /32, which have no network or broadcast address, and the address after
    it otherwise.  Hosts are integer offsets 1..capacity above the gateway.
    """

    def __init__(self, cidr: str):
        try:
            self.network = ipaddress.IPv4Network(cidr)
        except ValueError as exc:
            raise ConfigError(f"bad pool CIDR {cidr!r}: {exc}") from None
        edges = 0 if self.network.prefixlen >= 31 else 1  # network and broadcast skipped
        self.gateway = self.network.network_address + edges
        self.capacity = self.network.num_addresses - 2 * edges - 1  # gateway excluded
        if self.capacity < 1:
            raise ConfigError(f"pool {cidr} too small: needs a gateway plus at least one host")
        self._allocated: set[int] = set()
        self._lowest_free = 1  # every offset below it is allocated
        self._members: dict[str, bool] = {}  # address text -> in the subnet

    @property
    def cidr(self) -> str:
        return str(self.network)

    @property
    def allocated_count(self) -> int:
        return len(self._allocated)

    @property
    def free_count(self) -> int:
        return self.capacity - self.allocated_count

    def allocate(self) -> str:
        """Lowest free host address above the gateway."""
        if not self.free_count:
            raise AllocationError(f"pool {self.cidr} exhausted ({self.capacity} hosts allocated)")
        offset = self._lowest_free
        while offset in self._allocated:
            offset += 1
        self._allocated.add(offset)
        self._lowest_free = offset + 1
        return str(self.gateway + offset)

    def release(self, ip: str) -> None:
        """Return ``ip`` to the pool; an address the pool does not hold is ignored."""
        offset = int(ipaddress.IPv4Address(ip)) - int(self.gateway)
        if offset in self._allocated:
            self._allocated.remove(offset)
            self._lowest_free = min(self._lowest_free, offset)

    def __contains__(self, ip: str) -> bool:
        """Whether ``ip`` lies in the subnet; each address text is parsed once."""
        try:
            return self._members[ip]
        except KeyError:
            inside = self._members[ip] = ipaddress.IPv4Address(ip) in self.network
            return inside


class _CoreConfigFields(NamedTuple):
    core_subnet: str = "192.168.70.128/26"
    amf_address: str = "192.168.70.132"
    upf_address: str = "192.168.70.134"
    ue_pool_cidr: str = "12.1.1.0/24"


class CoreConfig(CheckedRecord, _CoreConfigFields):
    """Addressing of the core-network virtual subnet and the UE pool."""

    __slots__ = ()

    def _check(self):
        IpPool(self.ue_pool_cidr)  # raises ConfigError for a bad or host-less pool
        try:
            subnet = ipaddress.IPv4Network(self.core_subnet)
            addrs = [(label, ipaddress.IPv4Address(addr))
                     for label, addr in (("AMF", self.amf_address), ("UPF", self.upf_address))]
        except ValueError as exc:
            raise ConfigError(f"bad core addressing: {exc}") from None
        for label, addr in addrs:
            if addr not in subnet:
                raise ConfigError(f"{label} address {addr} not inside core subnet {self.core_subnet}")
        # A gNB without an N3 address tunnels from the AMF's, so it would tunnel from the UPF.
        if self.amf_address == self.upf_address:
            raise ConfigError(f"AMF and UPF share the address {self.upf_address}")


class CoreNetwork:
    """Subscriber store, registration state, and PDU session bookkeeping."""

    def __init__(
        self,
        config: CoreConfig | None = None,
        subscribers: tuple[SubscriberRecord, ...] | list[SubscriberRecord] = (),
    ):
        self.config = config or CoreConfig()
        self.subscribers: dict[str, SubscriberRecord] = {}
        for record in subscribers:
            if record.imsi in self.subscribers:
                raise ConfigError(f"duplicate IMSI {record.imsi} in subscriber store")
            self.subscribers[record.imsi] = record
        self.pool = IpPool(self.config.ue_pool_cidr)
        self._teids = itertools.count(1)
        self._registered: dict[str, str] = {}  # ue_id -> imsi
        self.sessions: dict[str, PduSession] = {}  # ue_id -> session

    # -- registration (AMF role) -------------------------------------------

    def register_ue(self, imsi: str, ue_id: str | None = None) -> RegistrationResult:
        """Admit a UE by IMSI; re-registration replaces the prior entry."""
        ue_id = ue_id if ue_id is not None else imsi
        if len(imsi) != IMSI_DIGITS or not imsi.isdigit():
            return RegistrationResult(False, REJECT_MALFORMED)
        record = self.subscribers.get(imsi)
        if record is None:
            return RegistrationResult(False, REJECT_UNKNOWN)
        if not record.enabled:
            return RegistrationResult(False, REJECT_DISABLED)
        self._registered[ue_id] = imsi
        return RegistrationResult(True)

    def is_registered(self, ue_id: str) -> bool:
        return ue_id in self._registered

    # -- session management (SMF role) --------------------------------------

    def establish_pdu_session(self, ue_id: str) -> PduSession:
        """Allocate an address and fresh TEIDs for a registered UE."""
        if ue_id not in self._registered:
            raise StateError(f"UE {ue_id!r} must register before establishing a session")
        if ue_id in self.sessions and self.sessions[ue_id].active:
            raise StateError(f"UE {ue_id!r} already has an active session")
        ip = self.pool.allocate()
        session = PduSession(
            ue_id=ue_id,
            ip=ip,
            teid_uplink=next(self._teids),
            teid_downlink=next(self._teids),
        )
        self.sessions[ue_id] = session
        return session

    def release_session(self, session: PduSession) -> PduSession:
        """Return the address to the pool and retire the TEIDs; idempotent."""
        if not session.active:
            import logging  # here alone: at the top it would cost every cold start its import

            logging.getLogger(__name__).warning(
                "release of already-released session for UE %s ignored", session.ue_id)
            return session
        self.pool.release(session.ip)
        session.state = "RELEASED"
        self.sessions.pop(session.ue_id, None)
        return session

    def reconfigure_pool(self, cidr: str) -> CoreConfig:
        """Swap the UE pool; refused while any session is active."""
        active = [s for s in self.sessions.values() if s.active]
        if active:
            raise StateError(f"cannot reconfigure pool with {len(active)} active session(s)")
        if cidr == self.pool.cidr:
            return self.config
        self.pool = IpPool(cidr)
        # _replace skips the checks; building through the class runs them again.
        self.config = CoreConfig(*self.config._replace(ue_pool_cidr=cidr))
        return self.config

    # -- queries -------------------------------------------------------------

    def active_sessions(self) -> list[PduSession]:
        return [s for s in self.sessions.values() if s.active]
