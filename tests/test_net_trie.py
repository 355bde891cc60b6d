"""Tests for the prefix index, checked against a linear-scan oracle."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.net.addr import IPv4Prefix, parse_address, parse_prefix
from repro.net.trie import PrefixTrie


def make_trie(entries: dict[str, str]) -> PrefixTrie[str]:
    trie: PrefixTrie[str] = PrefixTrie()
    for prefix, value in entries.items():
        trie.insert(parse_prefix(prefix), value)
    return trie


class TestBasics:
    def test_insert_and_exact(self):
        trie = make_trie({"10.0.0.0/8": "a"})
        assert trie.exact(parse_prefix("10.0.0.0/8")) == "a"
        assert trie.exact(parse_prefix("10.0.0.0/16")) is None

    def test_len_counts_unique_prefixes(self):
        trie = make_trie({"10.0.0.0/8": "a", "10.1.0.0/16": "b"})
        assert len(trie) == 2
        trie.insert(parse_prefix("10.0.0.0/8"), "replaced")
        assert len(trie) == 2
        assert trie.exact(parse_prefix("10.0.0.0/8")) == "replaced"

    def test_remove(self):
        trie = make_trie({"10.0.0.0/8": "a"})
        assert trie.remove(parse_prefix("10.0.0.0/8"))
        assert not trie.remove(parse_prefix("10.0.0.0/8"))
        assert trie.lookup(parse_address("10.0.0.1")) is None
        assert len(trie) == 0

    def test_longest_match_prefers_specific(self):
        trie = make_trie({"10.0.0.0/8": "big", "10.1.0.0/16": "small"})
        assert trie.lookup(parse_address("10.1.2.3")) == "small"
        assert trie.lookup(parse_address("10.2.0.1")) == "big"
        assert trie.lookup(parse_address("11.0.0.1")) is None

    def test_longest_match_returns_prefix(self):
        trie = make_trie({"10.1.0.0/16": "x"})
        match = trie.longest_match(parse_address("10.1.2.3"))
        assert match is not None
        prefix, value = match
        assert str(prefix) == "10.1.0.0/16"
        assert value == "x"

    def test_default_route(self):
        trie = make_trie({"0.0.0.0/0": "default", "10.0.0.0/8": "ten"})
        assert trie.lookup(parse_address("8.8.8.8")) == "default"
        assert trie.lookup(parse_address("10.0.0.1")) == "ten"

    def test_covering(self):
        trie = make_trie({"10.0.0.0/8": "big"})
        hit = trie.covering(parse_prefix("10.5.0.0/16"))
        assert hit is not None and hit[1] == "big"
        assert trie.covering(parse_prefix("11.0.0.0/16")) is None

    def test_covering_requires_containment(self):
        trie = make_trie({"10.5.0.0/16": "x"})
        # /8 query is wider than the stored /16 → nothing covers it.
        assert trie.covering(parse_prefix("10.0.0.0/8")) is None

    def test_items_in_address_order(self):
        trie = make_trie({"10.0.0.0/8": "a", "9.0.0.0/8": "b", "10.1.0.0/16": "c"})
        keys = [str(prefix) for prefix, _value in trie.items()]
        assert keys == ["9.0.0.0/8", "10.0.0.0/8", "10.1.0.0/16"]

    def test_contains(self):
        trie = make_trie({"10.0.0.0/8": "a"})
        assert parse_prefix("10.0.0.0/8") in trie
        assert parse_prefix("10.0.0.0/16") not in trie
        assert "not-a-prefix" not in trie

    def test_none_values_are_storable(self):
        trie: PrefixTrie[None] = PrefixTrie()
        trie.insert(parse_prefix("10.0.0.0/8"), None)
        assert parse_prefix("10.0.0.0/8") in trie


prefix_strategy = st.builds(
    lambda value, length: IPv4Prefix.supernet_of(value, length),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
    st.integers(min_value=0, max_value=32),
)


class TestAgainstLinearScan:
    @given(
        st.dictionaries(prefix_strategy, st.integers(), max_size=40),
        st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=20),
    )
    def test_lookup_matches_linear_reference(self, entries, queries):
        trie: PrefixTrie[int] = PrefixTrie()
        for prefix, value in entries.items():
            trie.insert(prefix, value)
        for query in queries:
            matching = [p for p in entries if query in p]
            if matching:
                best = max(matching, key=lambda p: p.length)
                assert trie.lookup(query) == entries[best]
            else:
                assert trie.lookup(query) is None

    @given(st.dictionaries(prefix_strategy, st.integers(), max_size=30))
    def test_items_round_trip(self, entries):
        trie: PrefixTrie[int] = PrefixTrie()
        for prefix, value in entries.items():
            trie.insert(prefix, value)
        assert dict(trie.items()) == entries
        assert len(trie) == len(entries)

    @given(
        st.dictionaries(prefix_strategy, st.integers(), max_size=40),
        st.lists(prefix_strategy, max_size=20),
    )
    def test_covering_matches_linear_reference(self, entries, queries):
        trie: PrefixTrie[int] = PrefixTrie()
        for prefix, value in entries.items():
            trie.insert(prefix, value)
        for query in [*queries, *entries]:
            containing = [p for p in entries if query in p]
            if containing:
                best = max(containing, key=lambda p: p.length)
                assert trie.covering(query) == (best, entries[best])
            else:
                assert trie.covering(query) is None

    @given(
        st.dictionaries(
            prefix_strategy, st.one_of(st.none(), st.integers()), max_size=30
        ),
        st.lists(prefix_strategy, max_size=20),
    )
    def test_exact_and_contains_match_reference(self, entries, probes):
        trie: PrefixTrie[int | None] = PrefixTrie()
        for prefix, value in entries.items():
            trie.insert(prefix, value)
        for probe in [*probes, *entries]:
            assert (probe in trie) == (probe in entries)
            assert trie.exact(probe) == entries.get(probe)

    @given(
        st.dictionaries(prefix_strategy, st.integers(), max_size=30),
        st.lists(prefix_strategy, max_size=20),
        st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF), max_size=10),
    )
    def test_remove_matches_reference(self, entries, removals, queries):
        trie: PrefixTrie[int] = PrefixTrie()
        for prefix, value in entries.items():
            trie.insert(prefix, value)
        remaining = dict(entries)
        for prefix in [*removals, *list(entries)[::2]]:
            assert trie.remove(prefix) == (prefix in remaining)
            remaining.pop(prefix, None)
            assert prefix not in trie
        assert len(trie) == len(remaining)
        assert dict(trie.items()) == remaining
        for query in queries:
            matching = [p for p in remaining if query in p]
            if matching:
                best = max(matching, key=lambda p: p.length)
                assert trie.lookup(query) == remaining[best]
            else:
                assert trie.lookup(query) is None

    @given(st.dictionaries(prefix_strategy, st.integers(), max_size=30))
    def test_items_in_network_then_length_order(self, entries):
        trie: PrefixTrie[int] = PrefixTrie()
        for prefix, value in entries.items():
            trie.insert(prefix, value)
        keys = [prefix for prefix, _value in trie.items()]
        assert keys == sorted(entries, key=lambda p: (p.network, p.length))
