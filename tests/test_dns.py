"""Tests for the DNS substrate: wire format, EDNS-CS, CHAOS, resolver."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.chaos import HOSTNAME_BIND, IdentifierMap, make_chaos_query, make_chaos_response
from repro.dns.edns import ClientSubnet, add_client_subnet, extract_client_subnet, make_opt_record
from repro.dns.message import (
    CLASS_CHAOS,
    CLASS_IN,
    DnsError,
    DnsMessage,
    Question,
    RCODE_NOERROR,
    ResourceRecord,
    TYPE_A,
    TYPE_TXT,
    decode_name,
    encode_name,
)
from repro.dns.resolver import RecursiveResolver
from repro.net.addr import IPv4Prefix, parse_prefix


class TestNames:
    def test_encode_simple(self):
        assert encode_name("a.bc") == b"\x01a\x02bc\x00"

    def test_encode_root(self):
        assert encode_name("") == b"\x00"
        assert encode_name(".") == b"\x00"

    def test_round_trip(self):
        data = encode_name("www.example.com")
        name, offset = decode_name(data, 0)
        assert name == "www.example.com"
        assert offset == len(data)

    def test_rejects_long_label(self):
        with pytest.raises(DnsError):
            encode_name("a" * 64 + ".com")

    def test_rejects_empty_label(self):
        with pytest.raises(DnsError):
            encode_name("a..b")

    def test_compression_pointer(self):
        # "example.com" at offset 0, then a pointer to it.
        base = encode_name("example.com")
        data = base + b"\x03www" + b"\xc0\x00"
        name, offset = decode_name(data, len(base))
        assert name == "www.example.com"
        assert offset == len(data)

    def test_compression_loop_detected(self):
        data = b"\xc0\x00"
        with pytest.raises(DnsError):
            decode_name(data, 0)

    def test_truncated_name(self):
        with pytest.raises(DnsError):
            decode_name(b"\x05ab", 0)

    name_strategy = st.lists(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=20),
        min_size=0,
        max_size=4,
    ).map(".".join)

    @given(name_strategy)
    def test_name_round_trip_property(self, name):
        data = encode_name(name)
        decoded, _ = decode_name(data, 0)
        assert decoded == name.rstrip(".")


class TestMessages:
    def test_query_round_trip(self):
        message = DnsMessage(msg_id=0x1234)
        message.questions.append(Question("example.com", TYPE_A))
        decoded = DnsMessage.decode(message.encode())
        assert decoded.msg_id == 0x1234
        assert not decoded.is_response
        assert decoded.recursion_desired
        assert decoded.questions == [Question("example.com", TYPE_A, CLASS_IN)]

    def test_response_round_trip_with_records(self):
        message = DnsMessage(msg_id=7, is_response=True, rcode=RCODE_NOERROR)
        message.questions.append(Question("example.com", TYPE_A))
        message.answers.append(ResourceRecord.a("example.com", 0xC0000201, ttl=300))
        message.additionals.append(make_opt_record())
        decoded = DnsMessage.decode(message.encode())
        assert decoded.is_response
        assert decoded.answers[0].a_address() == 0xC0000201
        assert decoded.answers[0].ttl == 300
        assert len(decoded.additionals) == 1

    def test_truncated_message_rejected(self):
        with pytest.raises(DnsError):
            DnsMessage.decode(b"\x00" * 5)

    def test_txt_round_trip(self):
        record = ResourceRecord.txt("hostname.bind", "b1-lax", rclass=CLASS_CHAOS)
        assert record.txt_strings() == ["b1-lax"]

    def test_txt_too_long_rejected(self):
        with pytest.raises(DnsError):
            ResourceRecord.txt("x", "a" * 300)

    def test_first_txt(self):
        message = DnsMessage(is_response=True)
        message.answers.append(ResourceRecord.txt("x", "hello"))
        assert message.first_txt() == "hello"
        assert DnsMessage().first_txt() is None

    def test_a_record_validation(self):
        record = ResourceRecord.txt("x", "not-an-a")
        with pytest.raises(DnsError):
            record.a_address()


class TestEdns:
    def test_client_subnet_round_trip(self):
        ecs = ClientSubnet(parse_prefix("198.51.100.0/24"), scope_length=24)
        decoded = ClientSubnet.decode(ecs.encode()[4:])  # strip option header
        assert decoded == ecs

    def test_add_and_extract(self):
        message = DnsMessage()
        message.questions.append(Question("example.com", TYPE_A))
        add_client_subnet(message, parse_prefix("10.0.0.0/8"))
        wire = DnsMessage.decode(message.encode())
        ecs = extract_client_subnet(wire)
        assert ecs is not None
        assert str(ecs.prefix) == "10.0.0.0/8"

    def test_add_replaces_existing_opt(self):
        message = DnsMessage()
        add_client_subnet(message, parse_prefix("10.0.0.0/8"))
        add_client_subnet(message, parse_prefix("11.0.0.0/8"))
        assert len(message.additionals) == 1
        ecs = extract_client_subnet(message)
        assert str(ecs.prefix) == "11.0.0.0/8"

    def test_extract_without_opt(self):
        assert extract_client_subnet(DnsMessage()) is None

    def test_decode_rejects_non_ipv4_family(self):
        payload = b"\x00\x02\x18\x00" + b"\x00" * 3
        with pytest.raises(DnsError):
            ClientSubnet.decode(payload)

    def test_decode_rejects_source_length_beyond_32(self):
        # Five address bytes for a /40: a malformed option from the wire
        # must raise DnsError, not a bare ValueError from the masking.
        payload = b"\x00\x01\x28\x00" + b"\x01" * 5
        with pytest.raises(DnsError):
            ClientSubnet.decode(payload)

    @given(
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=32),
    )
    def test_round_trip_property(self, network, length):
        prefix = IPv4Prefix.supernet_of(network, length)
        ecs = ClientSubnet(prefix)
        decoded = ClientSubnet.decode(ecs.encode()[4:])
        assert decoded.prefix == prefix


class TestChaos:
    def test_query_shape(self):
        query = make_chaos_query(msg_id=9)
        assert query.questions[0] == Question(HOSTNAME_BIND, TYPE_TXT, CLASS_CHAOS)

    def test_response_carries_identifier(self):
        query = make_chaos_query()
        response = make_chaos_response(query, "b2-ams")
        decoded = DnsMessage.decode(response.encode())
        assert decoded.first_txt() == "b2-ams"

    def test_identifier_map_convention(self):
        mapping = IdentifierMap.for_sites({"LAX", "AMS"})
        assert mapping.site_of("b1-lax") == "LAX"
        assert mapping.site_of("ns2-ams.example") == "AMS"
        assert mapping.site_of("b1-sin") is None  # not a known site
        assert mapping.site_of("garbage!!") is None

    def test_identifier_map_exact_overrides(self):
        mapping = IdentifierMap(known_sites={"LAX"}, exact={"weird-id": "LAX"})
        assert mapping.site_of("WEIRD-ID") == "LAX"

    def test_identifier_map_open_sites(self):
        mapping = IdentifierMap()
        assert mapping.site_of("b1-anything") == "ANYTHING"


class TestResolver:
    def make_authoritative(self, answers_log=None):
        def handle(question, ecs):
            if answers_log is not None:
                answers_log.append(ecs.prefix if ecs else None)
            response = DnsMessage(is_response=True)
            response.questions = [question]
            address = (ecs.prefix.network | 1) if ecs else 1
            response.answers.append(ResourceRecord.a(question.name, address))
            if ecs is not None:
                response.additionals.append(
                    make_opt_record(ClientSubnet(ecs.prefix, 24))
                )
            return response

        return handle

    def test_passthrough_forwards_client_prefix(self):
        log = []
        resolver = RecursiveResolver(self.make_authoritative(log))
        query = RecursiveResolver.make_query("x.com", TYPE_A, parse_prefix("10.9.8.0/24"))
        response = resolver.resolve(query)
        assert log == [parse_prefix("10.9.8.0/24")]
        assert response.answers[0].a_address() == parse_prefix("10.9.8.0/24").network | 1

    def test_no_passthrough_uses_resolver_prefix(self):
        log = []
        resolver = RecursiveResolver(self.make_authoritative(log), ecs_passthrough=False)
        query = RecursiveResolver.make_query("x.com", TYPE_A, parse_prefix("10.9.8.0/24"))
        resolver.resolve(query)
        assert log == [resolver.resolver_prefix]

    def test_scope_aware_cache(self):
        log = []
        resolver = RecursiveResolver(self.make_authoritative(log))
        first = RecursiveResolver.make_query("x.com", TYPE_A, parse_prefix("10.9.8.0/24"))
        resolver.resolve(first)
        # Same /24: served from cache.
        resolver.resolve(first)
        assert resolver.cache_hits == 1
        # Different /24: forwarded again.
        other = RecursiveResolver.make_query("x.com", TYPE_A, parse_prefix("10.9.9.0/24"))
        resolver.resolve(other)
        assert len(log) == 2

    def test_clear_cache(self):
        resolver = RecursiveResolver(self.make_authoritative())
        query = RecursiveResolver.make_query("x.com", TYPE_A, parse_prefix("10.0.0.0/24"))
        resolver.resolve(query)
        resolver.clear_cache()
        resolver.resolve(query)
        assert resolver.queries_forwarded == 2

    def test_empty_question_servfail(self):
        resolver = RecursiveResolver(self.make_authoritative())
        response = resolver.resolve(DnsMessage())
        assert response.rcode != RCODE_NOERROR


class TestNameCompression:
    def build_response(self):
        message = DnsMessage(msg_id=5, is_response=True)
        message.questions.append(Question("www.example.com", TYPE_A))
        message.answers.append(ResourceRecord.a("www.example.com", 0x01020304))
        message.answers.append(ResourceRecord.a("mail.example.com", 0x01020305))
        message.additionals.append(ResourceRecord.txt("example.com", "hello"))
        return message

    def test_compressed_round_trip(self):
        message = self.build_response()
        wire = message.encode(compress=True)
        decoded = DnsMessage.decode(wire)
        assert decoded.questions == message.questions
        assert [r.name for r in decoded.answers] == [
            "www.example.com",
            "mail.example.com",
        ]
        assert decoded.additionals[0].name == "example.com"

    def test_compression_shrinks_message(self):
        message = self.build_response()
        assert len(message.encode(compress=True)) < len(message.encode())

    def test_repeated_name_becomes_pointer(self):
        message = DnsMessage(is_response=True)
        message.questions.append(Question("a.very.long.domain.example", TYPE_A))
        message.answers.append(
            ResourceRecord.a("a.very.long.domain.example", 1)
        )
        wire = message.encode(compress=True)
        # The answer's name is a single 2-byte pointer to the question.
        assert wire.count(b"\x01a\x04very") == 1

    def test_case_insensitive_suffix_sharing(self):
        message = DnsMessage(is_response=True)
        message.questions.append(Question("WWW.Example.COM", TYPE_A))
        message.answers.append(ResourceRecord.a("www.example.com", 1))
        decoded = DnsMessage.decode(message.encode(compress=True))
        assert decoded.answers[0].name.lower() == "www.example.com"

    @given(
        st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12),
            min_size=1,
            max_size=3,
        ).map(".".join),
        st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8),
            min_size=0,
            max_size=3,
        ),
    )
    def test_compressed_round_trip_property(self, base, subs):
        message = DnsMessage(is_response=True)
        message.questions.append(Question(base, TYPE_A))
        for sub in subs:
            message.answers.append(ResourceRecord.a(f"{sub}.{base}", 7))
        decoded = DnsMessage.decode(message.encode(compress=True))
        assert decoded.questions[0].name == base
        assert [r.name for r in decoded.answers] == [f"{s}.{base}" for s in subs]
