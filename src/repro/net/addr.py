"""IPv4 address and prefix primitives.

These types are implemented from scratch (rather than wrapping
:mod:`ipaddress`) so the rest of the library can rely on a small, fast,
hashable representation: an address is a 32-bit integer, a prefix is an
``(int, length)`` pair whose host bits are zero.

The Fenrir pipeline identifies "networks" by /24 blocks, so helpers for
/24 enumeration and alignment live here as well.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "AddressError",
    "IPv4Address",
    "IPv4Prefix",
    "parse_address",
    "parse_prefix",
]

_MAX32 = 0xFFFFFFFF
# _MASKS[length] / _HOST_BITS[length]: the network and host bits of a /length.
_MASKS = tuple((_MAX32 << (32 - length)) & _MAX32 for length in range(33))
_HOST_BITS = tuple(~mask & _MAX32 for mask in _MASKS)
_DOTTED_QUAD = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


class AddressError(ValueError):
    """Raised for malformed addresses or prefixes."""


def _parse_dotted_quad(text: str) -> int:
    match = _DOTTED_QUAD.match(text.strip())
    if not match:
        raise AddressError(f"not a dotted quad: {text!r}")
    value = 0
    for octet_text in match.groups():
        octet = int(octet_text)
        if octet > 255:
            raise AddressError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


def _format_dotted_quad(value: int) -> str:
    return (
        f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}."
        f"{(value >> 8) & 0xFF}.{value & 0xFF}"
    )


@dataclass(frozen=True, slots=True, order=True)
class IPv4Address:
    """A single IPv4 address, stored as a 32-bit integer."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAX32:
            raise AddressError(f"address out of range: {self.value}")

    @classmethod
    def from_string(cls, text: str) -> "IPv4Address":
        return cls(_parse_dotted_quad(text))

    def __str__(self) -> str:
        return _format_dotted_quad(self.value)

    def __int__(self) -> int:
        return self.value

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address(self.value + offset)

    @property
    def is_private(self) -> bool:
        """True for RFC 1918 space (10/8, 172.16/12, 192.168/16)."""
        v = self.value
        return (
            (v >> 24) == 10
            or (v >> 20) == (172 << 4 | 1)  # 172.16.0.0/12
            or (v >> 16) == (192 << 8 | 168)
        )

    @property
    def is_loopback(self) -> bool:
        return (self.value >> 24) == 127

    def block24(self) -> "IPv4Prefix":
        """The /24 block containing this address."""
        return IPv4Prefix(self.value & 0xFFFFFF00, 24)


@dataclass(frozen=True, slots=True, order=True)
class IPv4Prefix:
    """An IPv4 prefix ``network/length`` with host bits forced clear."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise AddressError(f"prefix length out of range: {self.length}")
        if not 0 <= self.network <= _MAX32:
            raise AddressError(f"network out of range: {self.network}")
        if self.network & _HOST_BITS[self.length]:
            raise AddressError(
                f"host bits set in {_format_dotted_quad(self.network)}/{self.length}"
            )

    @classmethod
    def from_string(cls, text: str) -> "IPv4Prefix":
        if "/" not in text:
            raise AddressError(f"missing '/' in prefix: {text!r}")
        addr_text, _, len_text = text.partition("/")
        try:
            length = int(len_text)
        except ValueError as exc:
            raise AddressError(f"bad prefix length in {text!r}") from exc
        value = _parse_dotted_quad(addr_text)
        if not 0 <= length <= 32:
            raise AddressError(f"prefix length out of range: {text!r}")
        if value & _HOST_BITS[length]:
            raise AddressError(f"host bits set in {text!r}")
        return cls(value, length)

    @classmethod
    def supernet_of(cls, address: IPv4Address | int, length: int) -> "IPv4Prefix":
        """The /length prefix containing ``address`` (host bits cleared)."""
        # An out-of-range length gets no mask here; __post_init__ rejects it.
        mask = _MASKS[length] if 0 <= length <= 32 else 0
        return cls(int(address) & mask, length)

    @property
    def mask(self) -> int:
        return _MASKS[self.length]

    def __str__(self) -> str:
        return f"{_format_dotted_quad(self.network)}/{self.length}"

    def __contains__(self, item: object) -> bool:
        if isinstance(item, IPv4Address):
            return (item.value & self.mask) == self.network
        if isinstance(item, int):
            return (item & self.mask) == self.network
        if isinstance(item, IPv4Prefix):
            return item.length >= self.length and (
                item.network & self.mask
            ) == self.network
        return False

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.length)

    @property
    def num_blocks24(self) -> int:
        """How many /24 blocks this prefix spans (1 for /24 and longer)."""
        if self.length >= 24:
            return 1
        return 1 << (24 - self.length)

    @property
    def first_address(self) -> IPv4Address:
        return IPv4Address(self.network)

    @property
    def last_address(self) -> IPv4Address:
        return IPv4Address(self.network | (~self.mask & _MAX32))

    def blocks24(self) -> Iterator["IPv4Prefix"]:
        """Iterate the /24 blocks covered by (or containing) this prefix."""
        if self.length >= 24:
            yield IPv4Prefix(self.network & 0xFFFFFF00, 24)
            return
        for index in range(self.num_blocks24):
            yield IPv4Prefix(self.network + (index << 8), 24)

    def subnets(self, new_length: int) -> Iterator["IPv4Prefix"]:
        """All subnets of this prefix at ``new_length``."""
        if new_length < self.length:
            raise AddressError("new_length shorter than prefix length")
        if new_length > 32:
            raise AddressError("new_length longer than 32")
        step = 1 << (32 - new_length)
        for network in range(self.network, self.network + self.num_addresses, step):
            yield IPv4Prefix(network, new_length)

    def overlaps(self, other: "IPv4Prefix") -> bool:
        return other in self or self in other


def parse_address(text: str) -> IPv4Address:
    """Parse a dotted-quad string into an :class:`IPv4Address`."""
    return IPv4Address.from_string(text)


def parse_prefix(text: str) -> IPv4Prefix:
    """Parse ``a.b.c.d/len`` into an :class:`IPv4Prefix`."""
    return IPv4Prefix.from_string(text)
