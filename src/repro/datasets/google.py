"""Google scenario: Figure 5 (aggressive front-end churn).

Two discontiguous EDNS-CS collection windows, as in the paper: three
days starting 2013-05-26 (the Calder et al. snapshot era) and sixty
days starting 2024-02-17. Google's serving infrastructure is modelled
as a :class:`~repro.webmap.frontends.ChurnFleet`: thousands of front
ends, hash-assigned per client prefix, reshuffled weekly with ~10%
daily flux and a pinned stable share — yielding the paper's shape of
Φ ≈ 0.79 within a week, ≈ 0.25 across weeks, and ≈ 0 between the 2013
and 2024 infrastructure generations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta

from ..core.series import VectorSeries
from ..core.vector import StateCatalog
from ..net.addr import IPv4Prefix
from ..webmap.frontends import ChurnFleet
from ..webmap.mapper import EcsMapper

__all__ = ["GoogleStudy", "generate", "ERA_2013_START", "ERA_2024_START"]

ERA_2013_START = datetime(2013, 5, 26)
ERA_2013_DAYS = 3
ERA_2024_START = datetime(2024, 2, 17)
ERA_2024_DAYS = 60
_ERA_2024_FROM = datetime(2020, 1, 1)  # sweeps from here on see the 2024 fleet


@dataclass
class GoogleStudy:
    """The generated Google dataset and its instruments."""

    fleet_2013: ChurnFleet
    fleet_2024: ChurnFleet
    mapper: EcsMapper
    series: VectorSeries
    prefixes: list[IPv4Prefix]


def generate(
    seed: int = 20240217,
    num_prefixes: int = 2000,
    cadence: timedelta = timedelta(days=1),
) -> GoogleStudy:
    """Build the Google study (deterministic in ``seed``)."""
    rng = random.Random(seed)
    fleet_2013 = ChurnFleet(
        num_frontends=600,
        epoch=ERA_2013_START,
        era="g2013",
        stable_share=0.30,
        daily_change=0.10,
    )
    fleet_2024 = ChurnFleet(
        num_frontends=3000,
        epoch=ERA_2024_START,
        era="g2024",
        stable_share=0.30,
        daily_change=0.10,
    )

    base = IPv4Prefix.from_string("40.0.0.0/8")
    prefixes = [
        IPv4Prefix(base.network + (index << 8), 24) for index in range(num_prefixes)
    ]

    def select(prefix: IPv4Prefix, when: datetime) -> str:
        fleet = fleet_2013 if when < _ERA_2024_FROM else fleet_2024
        return fleet.select(prefix, when)

    mapper = EcsMapper(
        hostname="www.google.com",
        select=select,
        rng=rng,
        query_failure_probability=0.01,
    )

    series = VectorSeries([str(p) for p in prefixes], StateCatalog())
    times = [ERA_2013_START + cadence * i for i in range(ERA_2013_DAYS)]
    times += [ERA_2024_START + cadence * i for i in range(ERA_2024_DAYS)]
    for when in times:
        series.append_mapping(mapper.measure(when, prefixes), when)

    return GoogleStudy(fleet_2013, fleet_2024, mapper, series, prefixes)
