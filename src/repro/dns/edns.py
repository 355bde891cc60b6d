"""EDNS(0) OPT pseudo-records: Client-Subnet (RFC 7871), NSID (RFC 5001).

The top-website measurements (§2.3.3) rely on the Client-Subnet
extension: a single observer asks an authoritative server "what would
you answer a client in prefix P?". Anycast server identification
(§2.3.1) uses either CHAOS ``hostname.bind`` or the NSID option, both
of which Atlas supports; this module encodes/decodes both options
inside an OPT additional record.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from ..net.addr import IPv4Prefix
from .message import DnsError, DnsMessage, ResourceRecord, TYPE_OPT

__all__ = [
    "ClientSubnet",
    "make_opt_record",
    "extract_client_subnet",
    "add_client_subnet",
    "add_nsid_request",
    "add_nsid_response",
    "extract_nsid",
]

_OPTION_NSID = 3
_OPTION_ECS = 8
_FAMILY_IPV4 = 1

_OPTION_HEADER = struct.Struct("!HH")  # option code, option length
_ECS_HEADER = struct.Struct("!HBB")  # family, source length, scope length
# A whole ECS option with all four address bytes; encode() truncates
# the address to the source length's whole bytes.
_ECS_OPTION = struct.Struct("!HHHBBI")


@dataclass(frozen=True, slots=True)
class ClientSubnet:
    """An ECS option: a client prefix and the server's scope answer."""

    prefix: IPv4Prefix
    scope_length: int = 0

    def encode(self) -> bytes:
        source_length = self.prefix.length
        address_bytes = (source_length + 7) // 8
        payload_length = _ECS_HEADER.size + address_bytes
        return _ECS_OPTION.pack(
            _OPTION_ECS,
            payload_length,
            _FAMILY_IPV4,
            source_length,
            self.scope_length,
            self.prefix.network,
        )[: _OPTION_HEADER.size + payload_length]

    @classmethod
    def decode(cls, payload: bytes) -> "ClientSubnet":
        if len(payload) < _ECS_HEADER.size:
            raise DnsError("truncated ECS option")
        family, source_length, scope_length = _ECS_HEADER.unpack_from(payload)
        if family != _FAMILY_IPV4:
            raise DnsError(f"unsupported ECS family {family}")
        if source_length > 32:
            raise DnsError(f"ECS source length {source_length} exceeds 32")
        address_bytes = (source_length + 7) // 8
        raw = payload[_ECS_HEADER.size : _ECS_HEADER.size + address_bytes]
        if len(raw) != address_bytes:
            raise DnsError("truncated ECS address")
        network = int.from_bytes(raw, "big") << (8 * (4 - address_bytes))
        mask = (0xFFFFFFFF << (32 - source_length)) & 0xFFFFFFFF if source_length else 0
        return cls(IPv4Prefix(network & mask, source_length), scope_length)


def make_opt_record(
    client_subnet: Optional[ClientSubnet] = None, udp_size: int = 4096
) -> ResourceRecord:
    """An OPT pseudo-RR, optionally carrying an ECS option."""
    rdata = client_subnet.encode() if client_subnet else b""
    # OPT overloads class = requestor's UDP payload size, ttl = flags.
    return ResourceRecord("", TYPE_OPT, udp_size, 0, rdata)


def add_client_subnet(message: DnsMessage, prefix: IPv4Prefix) -> DnsMessage:
    """Attach an ECS option to a query message (in place, returned)."""
    message.additionals = [
        record for record in message.additionals if record.rtype != TYPE_OPT
    ]
    message.additionals.append(make_opt_record(ClientSubnet(prefix)))
    return message


def _option(message: DnsMessage, wanted: int) -> Optional[bytes]:
    """Payload of the first option ``wanted`` in the message's OPT records."""
    for record in message.additionals:
        if record.rtype != TYPE_OPT:
            continue
        offset = 0
        data = record.rdata
        end = len(data)
        while offset + 4 <= end:
            code, length = _OPTION_HEADER.unpack_from(data, offset)
            offset += 4
            if offset + length > end:
                raise DnsError("truncated EDNS option")
            if code == wanted:
                return data[offset : offset + length]
            offset += length
    return None


def extract_client_subnet(message: DnsMessage) -> Optional[ClientSubnet]:
    """The ECS option of a message's OPT record, if present."""
    payload = _option(message, _OPTION_ECS)
    return None if payload is None else ClientSubnet.decode(payload)


def _append_option(message: DnsMessage, code: int, payload: bytes) -> DnsMessage:
    """Append an option to the message's OPT record, creating one if needed."""
    option = _OPTION_HEADER.pack(code, len(payload)) + payload
    for index, record in enumerate(message.additionals):
        if record.rtype == TYPE_OPT:
            message.additionals[index] = ResourceRecord(
                record.name, record.rtype, record.rclass, record.ttl,
                record.rdata + option,
            )
            return message
    message.additionals.append(ResourceRecord("", TYPE_OPT, 4096, 0, option))
    return message


def add_nsid_request(message: DnsMessage) -> DnsMessage:
    """Request the server's identifier: an empty NSID option (RFC 5001)."""
    return _append_option(message, _OPTION_NSID, b"")


def add_nsid_response(message: DnsMessage, identifier: str) -> DnsMessage:
    """Attach the server's NSID to a response."""
    return _append_option(message, _OPTION_NSID, identifier.encode("ascii"))


def extract_nsid(message: DnsMessage) -> Optional[str]:
    """The NSID option's payload, decoded, if present and non-empty.

    An empty NSID in a query means "please identify yourself" and is
    reported as an empty string; absence is None.
    """
    payload = _option(message, _OPTION_NSID)
    return None if payload is None else payload.decode("ascii", errors="replace")
