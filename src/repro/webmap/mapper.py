"""EDNS Client-Subnet catchment mapping of websites (§2.3.3).

One physical observer sweeps millions of client prefixes by sending the
website's hostname query with each prefix as the Client-Subnet option.
The sweep runs through a real resolver simulation (ECS pass-through,
scope-aware caching) and a real authoritative handler that answers an A
record for the front-end the fleet selects, echoing the ECS option with
a /24 scope — the mechanics Calder et al. rely on.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from datetime import datetime
from typing import Callable, Optional, Sequence

from ..dns.edns import ClientSubnet, make_opt_record
from ..dns.message import (
    DnsMessage,
    Question,
    RCODE_NOERROR,
    RCODE_NXDOMAIN,
    ResourceRecord,
    TYPE_A,
)
from ..dns.resolver import RecursiveResolver
from ..net.addr import IPv4Prefix

__all__ = ["FrontendSelector", "EcsMapper"]

# (client prefix, time) -> front-end label.
FrontendSelector = Callable[[IPv4Prefix, datetime], str]

_ANY = IPv4Prefix(0, 0)  # the client of a query without an ECS option


@dataclass
class EcsMapper:
    """Maps website catchments with an EDNS-CS sweep.

    ``query_failure_probability`` models SERVFAILs and timeouts, which
    surface as missing observations (→ unknown in the vector layer).
    """

    hostname: str
    select: FrontendSelector
    rng: random.Random
    scope_length: int = 24
    query_failure_probability: float = 0.0
    address_to_label: dict[int, str] = field(default_factory=dict)
    queries_sent: int = 0
    _label_to_address: dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _frontend_address(self, label: str) -> int:
        """The service address of ``label``, assigned once and never shared.

        A 24-bit digest of the label picks an address in 203.0.0.0/8. A
        label whose digest lands on an address another label holds takes
        the next free one, so ``address_to_label`` stays injective and a
        cached answer decodes to the label it was issued for.
        """
        address = self._label_to_address.get(label)
        if address is None:
            digest = hashlib.blake2b(label.encode(), digest_size=3).digest()
            offset = int.from_bytes(digest, "big")
            while (203 << 24) | offset in self.address_to_label:
                offset = (offset + 1) & 0xFFFFFF
            address = (203 << 24) | offset
            self.address_to_label[address] = label
            self._label_to_address[label] = address
        return address

    def _authoritative(self, when: datetime):
        hostname = self.hostname.lower()

        def handle(question: Question, ecs: Optional[ClientSubnet]) -> DnsMessage:
            if question.name.lower() != hostname or question.qtype != TYPE_A:
                return DnsMessage(
                    is_response=True, rcode=RCODE_NXDOMAIN, questions=[question]
                )
            label = self.select(ecs.prefix if ecs else _ANY, when)
            answer = ResourceRecord.a(question.name, self._frontend_address(label))
            return DnsMessage(
                is_response=True,
                rcode=RCODE_NOERROR,
                questions=[question],
                answers=[answer],
                additionals=(
                    [make_opt_record(ClientSubnet(ecs.prefix, self.scope_length))]
                    if ecs is not None
                    else []
                ),
            )

        return handle

    def resolver_supports_ecs(
        self,
        when: datetime,
        probe_prefixes: Sequence[IPv4Prefix],
        ecs_passthrough: bool = True,
    ) -> bool:
        """Does a resolver path actually vary answers by client subnet?

        The EDNS-CS method's prerequisite check (Calder et al.): sweep a
        few geographically scattered probe prefixes through the
        resolver; if every answer is identical, the resolver is either
        stripping ECS or serving one cached answer, and the measurement
        would silently collapse all catchments into the resolver's own.
        """
        if len(probe_prefixes) < 2:
            raise ValueError("need at least two probe prefixes")
        resolver = RecursiveResolver(
            self._authoritative(when), ecs_passthrough=ecs_passthrough
        )
        answers = set()
        for prefix in probe_prefixes:
            query = RecursiveResolver.make_query(self.hostname, TYPE_A, prefix)
            response = resolver.resolve(query)
            if response.rcode == RCODE_NOERROR and response.answers:
                answers.add(response.answers[0].a_address())
        return len(answers) > 1

    def measure(
        self,
        when: datetime,
        prefixes: Sequence[IPv4Prefix],
        ecs_passthrough: bool = True,
    ) -> dict[str, str]:
        """One sweep: ``{prefix: front-end label}`` for answered queries."""
        resolver = RecursiveResolver(
            self._authoritative(when), ecs_passthrough=ecs_passthrough
        )
        observations: dict[str, str] = {}
        for prefix in prefixes:
            if self.rng.random() < self.query_failure_probability:
                continue
            query = RecursiveResolver.make_query(self.hostname, TYPE_A, prefix)
            self.queries_sent += 1
            response = resolver.resolve(query)
            if response.rcode != RCODE_NOERROR or not response.answers:
                continue
            address = response.answers[0].a_address()
            label = self.address_to_label.get(address)
            if label is not None:
                observations[str(prefix)] = label
        return observations
