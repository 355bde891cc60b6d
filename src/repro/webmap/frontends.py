"""Website front-end fleets: who serves a client prefix, and when.

Two contrasting selection regimes from the paper:

* :class:`GeoFleet` (Wikipedia-like) — a handful of sites, clients go
  to the geographically nearest active one. Supports scripted drains
  and *sticky return*: when a drained site comes back, only a fraction
  of its former clients return (the paper measures ~30% for codfw).
* :class:`ChurnFleet` (Google-like) — thousands of front-ends,
  hash-assigned per prefix, reshuffled on a weekly schedule with small
  intra-week churn and era-scale infrastructure turnover (2013 vs 2024
  share nothing).

Both are deterministic in (prefix, time): selections use a stable
digest, never Python's salted ``hash``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Optional, Sequence

from ..net.addr import IPv4Prefix
from ..net.geo import GeoPoint

__all__ = ["stable_fraction", "GeoSite", "GeoFleet", "ChurnFleet"]

_DAY = timedelta(days=1)


def stable_fraction(*parts: object) -> float:
    """A deterministic value in [0, 1) from arbitrary key parts."""
    digest = hashlib.blake2b("|".join(map(str, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


def _stable_index(modulus: int, *parts: object) -> int:
    return int(stable_fraction(*parts) * modulus)


@dataclass(frozen=True, slots=True)
class GeoSite:
    label: str
    location: GeoPoint


@dataclass(frozen=True, slots=True)
class _DrainWindow:
    site: str
    start: datetime
    end: datetime
    return_fraction: float  # clients that come back after the drain


@dataclass
class GeoFleet:
    """Geo-nearest site selection with drains and sticky returns.

    ``border_flux`` is the per-day share of clients that flip to their
    second-nearest site (load-balancer wobble near catchment borders);
    it produces the small within-mode dissimilarity real deployments
    show instead of a perfect Φ = 1.
    """

    sites: Sequence[GeoSite]
    drains: list[_DrainWindow] = field(default_factory=list)
    border_flux: float = 0.0
    epoch: datetime = datetime(2000, 1, 1)

    def __post_init__(self) -> None:
        labels = [site.label for site in self.sites]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate site labels")
        if not self.sites:
            raise ValueError("a fleet needs at least one site")

    def add_drain(
        self,
        site: str,
        start: datetime,
        end: datetime,
        return_fraction: float = 1.0,
    ) -> None:
        if site not in {s.label for s in self.sites}:
            raise KeyError(f"unknown site {site!r}")
        if not 0.0 <= return_fraction <= 1.0:
            raise ValueError("return_fraction must be in [0, 1]")
        self.drains.append(_DrainWindow(site, start, end, return_fraction))

    def site_labels(self) -> list[str]:
        return [site.label for site in self.sites]

    def _drained(self, when: datetime) -> set[str]:
        return {d.site for d in self.drains if d.start <= when < d.end}

    def _ranked(self, location: GeoPoint) -> list[str]:
        return [
            site.label
            for site in sorted(
                self.sites, key=lambda s: (location.distance_km(s.location), s.label)
            )
        ]

    def select(self, prefix: IPv4Prefix, location: GeoPoint, when: datetime) -> str:
        """The site serving ``prefix`` (at ``location``) at time ``when``."""
        drained = self._drained(when)
        ranked = self._ranked(location)
        if self.border_flux > 0:
            day = (when - self.epoch) // _DAY
            if stable_fraction(prefix.network, "flux", day) < self.border_flux:
                ranked = [ranked[1], ranked[0], *ranked[2:]] if len(ranked) > 1 else ranked
        preferred = next(label for label in ranked if label not in drained)

        # Sticky behaviour: a past drain of this prefix's preferred site
        # permanently moved some clients to their fallback.
        natural = ranked[0]
        for index, drain in enumerate(self.drains):
            if drain.site != natural or when < drain.end:
                continue
            if stable_fraction(prefix.network, "return", index) >= drain.return_fraction:
                fallback = next(
                    label
                    for label in ranked
                    if label != natural and label not in drained
                )
                return fallback
        return preferred


@dataclass(frozen=True)
class ChurnFleet:
    """Hash-assigned front-end selection with scheduled reshuffles.

    * ``era`` — infrastructure generation; distinct eras share no
      front-end identifiers at all;
    * every ``reshuffle_days`` the per-prefix assignment re-rolls,
      except a ``stable_share`` of prefixes pinned era-wide;
    * each day, ``daily_change`` of prefixes temporarily move.

    The fleet is frozen: its draws are cached per prefix, which holds
    only while the parameters they were drawn from cannot change.
    """

    num_frontends: int
    epoch: datetime
    era: str = "gen1"
    reshuffle_days: int = 7
    stable_share: float = 0.25
    daily_change: float = 0.10
    # network -> its pinned bucket, or None when it re-rolls every period.
    _pins: dict[int, Optional[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # network -> (period, bucket) of the last period it was asked about.
    _periods: dict[int, tuple[int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.num_frontends <= 0:
            raise ValueError("need at least one front-end")
        if not 0.0 <= self.stable_share <= 1.0:
            raise ValueError("stable_share must be in [0, 1]")
        if not 0.0 <= self.daily_change <= 1.0:
            raise ValueError("daily_change must be in [0, 1]")

    def _frontend(self, bucket: int) -> str:
        return f"fe-{self.era}-{bucket:04d}"

    def _stable_bucket(self, network: int) -> Optional[int]:
        """The era-wide bucket of a pinned prefix; None if it re-rolls.

        Both draws depend only on ``(era, network)``, and a sweep asks
        about the same prefixes every round, so each is hashed once per
        prefix and fleet.
        """
        if network not in self._pins:
            pinned = stable_fraction(self.era, network, "pin") < self.stable_share
            self._pins[network] = (
                _stable_index(self.num_frontends, self.era, network, "stable")
                if pinned
                else None
            )
        return self._pins[network]

    def select(self, prefix: IPv4Prefix, when: datetime) -> str:
        network = prefix.network
        days = (when - self.epoch) // _DAY
        bucket = self._stable_bucket(network)
        if bucket is None:
            period = days // self.reshuffle_days if self.reshuffle_days else 0
            # Daily sweeps ask for the same period's bucket several times.
            last = self._periods.get(network)
            if last is None or last[0] != period:
                drawn = _stable_index(
                    self.num_frontends, self.era, network, "period", period
                )
                last = self._periods[network] = (period, drawn)
            bucket = last[1]
        if stable_fraction(self.era, network, "flux", days) < self.daily_change:
            bucket = _stable_index(self.num_frontends, self.era, network, "day", days)
        return self._frontend(bucket)
