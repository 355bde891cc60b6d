"""A simulated recursive resolver with EDNS Client-Subnet pass-through.

The EDNS-CS measurement method only works when the recursive resolver
forwards the client-subnet option to the authoritative server and does
not serve a cached answer scoped to someone else's prefix. This
resolver models both behaviours: pass-through on/off, and a scope-aware
answer cache, so the measurement simulator exercises the real protocol
pitfalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..net.addr import IPv4Prefix
from ..net.trie import PrefixTrie
from .edns import ClientSubnet, add_client_subnet, extract_client_subnet, make_opt_record
from .message import DnsMessage, Question, RCODE_SERVFAIL

__all__ = ["Authoritative", "RecursiveResolver"]

# An authoritative behaviour: (question, ecs) -> response message.
Authoritative = Callable[[Question, Optional[ClientSubnet]], DnsMessage]


@dataclass
class RecursiveResolver:
    """Forwards queries to an authoritative handler, with ECS semantics.

    * ``ecs_passthrough=False`` strips the option, modelling the many
      resolvers that do not support Client-Subnet — the measurement
      then maps every prefix to whatever the resolver's own location
      gets, a failure mode the paper's method must avoid.
    * Cached answers are reused only when the query's ECS prefix falls
      inside the cached answer's announced scope.
    """

    authoritative: Authoritative
    ecs_passthrough: bool = True
    resolver_prefix: IPv4Prefix = IPv4Prefix.from_string("198.51.100.0/24")
    queries_forwarded: int = 0
    cache_hits: int = 0
    # Per (qname, qtype): an index of announced answer scopes, so the
    # scope-aware lookup is one probe per stored scope length rather
    # than a scan of all entries.
    _cache: dict[tuple[str, int], PrefixTrie[DnsMessage]] = field(default_factory=dict)

    def resolve(self, query: DnsMessage) -> DnsMessage:
        if not query.questions:
            return DnsMessage(
                msg_id=query.msg_id, is_response=True, rcode=RCODE_SERVFAIL
            )
        question = query.questions[0]
        ecs = extract_client_subnet(query)
        if not self.ecs_passthrough:
            ecs = None

        cache_key = (question.name.lower(), question.qtype)
        lookup_prefix = ecs.prefix if ecs else self.resolver_prefix
        trie = self._cache.get(cache_key)
        if trie is not None:
            hit = trie.covering(lookup_prefix)
            if hit is not None:
                scope, cached = hit
                if lookup_prefix in scope:
                    self.cache_hits += 1
                    return DnsMessage(
                        msg_id=query.msg_id,
                        is_response=True,
                        rcode=cached.rcode,
                        questions=list(cached.questions),
                        answers=list(cached.answers),
                        additionals=list(cached.additionals),
                    )

        upstream_ecs = ecs or ClientSubnet(self.resolver_prefix)
        self.queries_forwarded += 1
        response = self.authoritative(question, upstream_ecs)
        answered_ecs = extract_client_subnet(response)
        if answered_ecs is not None and answered_ecs.scope_length > 0:
            scope = IPv4Prefix.supernet_of(
                upstream_ecs.prefix.network, answered_ecs.scope_length
            )
        else:
            scope = IPv4Prefix(0, 0)  # scope 0: answer is location-independent
        if trie is None:
            trie = self._cache[cache_key] = PrefixTrie()
        trie.insert(scope, response)
        response.msg_id = query.msg_id
        return response

    def clear_cache(self) -> None:
        self._cache.clear()

    @staticmethod
    def make_query(name: str, qtype: int, prefix: Optional[IPv4Prefix], msg_id: int = 0) -> DnsMessage:
        """Convenience: an IN query with an optional ECS option."""
        message = DnsMessage(msg_id=msg_id, questions=[Question(name, qtype)])
        if prefix is not None:
            add_client_subnet(message, prefix)
        else:
            message.additionals.append(make_opt_record())
        return message
