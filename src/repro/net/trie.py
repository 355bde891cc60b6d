"""Prefix index with longest-prefix match.

BGP routing tables, hitlist lookups and the resolver's scope-aware
answer cache all need "which stored prefix covers this address (or
prefix)" queries. :class:`PrefixTrie` stores
:class:`~repro.net.addr.IPv4Prefix` keys with arbitrary values in one
hash table per prefix length. A lookup masks the address to each
stored length, longest first, and probes that length's table, so its
cost is one dict probe per *distinct* stored length (one for a cache
that only holds /24 scopes), not one step per address bit.
"""

from __future__ import annotations

from typing import Generic, Iterator, Optional, TypeVar

from .addr import _MASKS, IPv4Address, IPv4Prefix

__all__ = ["PrefixTrie"]

V = TypeVar("V")

_MISSING = object()


class PrefixTrie(Generic[V]):
    """Maps IPv4 prefixes to values with longest-prefix-match lookup."""

    __slots__ = ("_tables", "_probes")

    def __init__(self) -> None:
        # length -> {network: value}; a length is present only while its
        # table is non-empty.
        self._tables: dict[int, dict[int, V]] = {}
        # (length, table, mask) of every present length, longest first.
        self._probes: list[tuple[int, dict[int, V], int]] = []

    def __len__(self) -> int:
        return sum(map(len, self._tables.values()))

    def _reindex(self) -> None:
        self._probes = [
            (length, self._tables[length], _MASKS[length])
            for length in sorted(self._tables, reverse=True)
        ]

    def insert(self, prefix: IPv4Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        table = self._tables.get(prefix.length)
        if table is None:
            table = self._tables[prefix.length] = {}
            self._reindex()
        table[prefix.network] = value

    def exact(self, prefix: IPv4Prefix) -> Optional[V]:
        """Value stored exactly at ``prefix``, or None."""
        table = self._tables.get(prefix.length)
        return None if table is None else table.get(prefix.network)

    def remove(self, prefix: IPv4Prefix) -> bool:
        """Remove the entry at ``prefix``. Returns True if it existed."""
        table = self._tables.get(prefix.length)
        if table is None or table.pop(prefix.network, _MISSING) is _MISSING:
            return False
        if not table:
            del self._tables[prefix.length]
            self._reindex()
        return True

    def covering(self, prefix: IPv4Prefix) -> Optional[tuple[IPv4Prefix, V]]:
        """The most-specific stored prefix that contains all of ``prefix``."""
        network = prefix.network
        for length, table, mask in self._probes:
            if length <= prefix.length:
                stored = table.get(network & mask, _MISSING)
                if stored is not _MISSING:
                    match = IPv4Prefix(network & mask, length)
                    return match, stored  # type: ignore[return-value]
        return None

    def longest_match(
        self, address: IPv4Address | int
    ) -> Optional[tuple[IPv4Prefix, V]]:
        """The most-specific stored prefix covering ``address``, with value."""
        return self.covering(IPv4Prefix(int(address), 32))

    def lookup(self, address: IPv4Address | int) -> Optional[V]:
        """Value of the longest matching prefix, or None."""
        match = self.covering(IPv4Prefix(int(address), 32))
        return match[1] if match else None

    def items(self) -> Iterator[tuple[IPv4Prefix, V]]:
        """All (prefix, value) pairs, in address order.

        Address order sorts by ``(network, length)``: a prefix comes
        before the more-specific prefixes it contains.
        """
        keys = sorted(
            (network, length)
            for length, table in self._tables.items()
            for network in table
        )
        for network, length in keys:
            yield IPv4Prefix(network, length), self._tables[length][network]

    def __contains__(self, prefix: object) -> bool:
        if not isinstance(prefix, IPv4Prefix):
            return False
        table = self._tables.get(prefix.length)
        return table is not None and prefix.network in table
