"""Tests for website front-end fleets and EDNS-CS mapping."""

from __future__ import annotations

import random
from datetime import datetime, timedelta

import pytest

from repro.net.addr import IPv4Prefix, parse_prefix
from repro.net.geo import city
from repro.webmap.frontends import ChurnFleet, GeoFleet, GeoSite, stable_fraction
from repro.webmap.mapper import EcsMapper

T0 = datetime(2025, 3, 15)
P1 = parse_prefix("30.0.0.0/24")
P2 = parse_prefix("30.0.1.0/24")


class TestStableFraction:
    def test_deterministic(self):
        assert stable_fraction("a", 1) == stable_fraction("a", 1)

    def test_distinct_keys_differ(self):
        values = {stable_fraction("k", i) for i in range(100)}
        assert len(values) == 100

    def test_range(self):
        for i in range(200):
            assert 0.0 <= stable_fraction("x", i) < 1.0

    def test_roughly_uniform(self):
        values = [stable_fraction("u", i) for i in range(2000)]
        below_half = sum(1 for v in values if v < 0.5)
        assert 900 < below_half < 1100


@pytest.fixture
def geo_fleet():
    return GeoFleet(
        sites=[
            GeoSite("eqiad", city("EQIAD")),
            GeoSite("codfw", city("CODFW")),
            GeoSite("esams", city("ESAMS")),
        ]
    )


class TestGeoFleet:
    def test_nearest_site_wins(self, geo_fleet):
        assert geo_fleet.select(P1, city("NYC"), T0) == "eqiad"
        assert geo_fleet.select(P1, city("MEX"), T0) == "codfw"
        assert geo_fleet.select(P1, city("LHR"), T0) == "esams"

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GeoFleet(sites=[GeoSite("a", city("NYC")), GeoSite("a", city("LHR"))])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            GeoFleet(sites=[])

    def test_drain_moves_clients(self, geo_fleet):
        geo_fleet.add_drain("codfw", T0, T0 + timedelta(days=7))
        during = geo_fleet.select(P1, city("MEX"), T0 + timedelta(days=1))
        assert during != "codfw"
        after = geo_fleet.select(P1, city("MEX"), T0 + timedelta(days=8))
        # With full return, clients come back.
        assert after == "codfw"

    def test_drain_unknown_site_rejected(self, geo_fleet):
        with pytest.raises(KeyError):
            geo_fleet.add_drain("nope", T0, T0 + timedelta(days=1))

    def test_partial_return_is_sticky(self, geo_fleet):
        geo_fleet.add_drain("codfw", T0, T0 + timedelta(days=7), return_fraction=0.3)
        prefixes = [IPv4Prefix(P1.network + (i << 8), 24) for i in range(300)]
        after = T0 + timedelta(days=10)
        codfw_clients = [
            p for p in prefixes if GeoFleet(geo_fleet.sites).select(p, city("MEX"), after) == "codfw"
        ]
        returned = sum(
            1 for p in codfw_clients if geo_fleet.select(p, city("MEX"), after) == "codfw"
        )
        assert 0.2 < returned / len(codfw_clients) < 0.4

    def test_return_fraction_validation(self, geo_fleet):
        with pytest.raises(ValueError):
            geo_fleet.add_drain("codfw", T0, T0 + timedelta(days=1), return_fraction=1.5)

    def test_border_flux_flips_some_clients_daily(self):
        fleet = GeoFleet(
            sites=[GeoSite("eqiad", city("EQIAD")), GeoSite("codfw", city("CODFW"))],
            border_flux=0.5,
            epoch=T0,
        )
        prefixes = [IPv4Prefix(P1.network + (i << 8), 24) for i in range(200)]
        day0 = {str(p): fleet.select(p, city("NYC"), T0) for p in prefixes}
        day1 = {str(p): fleet.select(p, city("NYC"), T0 + timedelta(days=1)) for p in prefixes}
        changed = sum(1 for k in day0 if day0[k] != day1[k])
        assert changed > 0

    def test_selection_deterministic(self, geo_fleet):
        a = geo_fleet.select(P1, city("NYC"), T0)
        b = geo_fleet.select(P1, city("NYC"), T0)
        assert a == b


class TestChurnFleet:
    @pytest.fixture
    def fleet(self):
        return ChurnFleet(num_frontends=500, epoch=T0, era="test")

    def test_same_day_stable(self, fleet):
        assert fleet.select(P1, T0) == fleet.select(P1, T0)

    def test_distinct_eras_share_nothing(self):
        a = ChurnFleet(num_frontends=500, epoch=T0, era="era1")
        b = ChurnFleet(num_frontends=500, epoch=T0, era="era2")
        prefixes = [IPv4Prefix(P1.network + (i << 8), 24) for i in range(100)]
        labels_a = {a.select(p, T0) for p in prefixes}
        labels_b = {b.select(p, T0) for p in prefixes}
        assert labels_a.isdisjoint(labels_b)

    def test_within_week_similarity_close_to_paper(self, fleet):
        prefixes = [IPv4Prefix(P1.network + (i << 8), 24) for i in range(800)]
        day1 = [fleet.select(p, T0 + timedelta(days=1)) for p in prefixes]
        day2 = [fleet.select(p, T0 + timedelta(days=2)) for p in prefixes]
        same = sum(1 for a, b in zip(day1, day2) if a == b) / len(prefixes)
        assert 0.70 < same < 0.90  # paper: ~0.79

    def test_cross_week_similarity_close_to_paper(self, fleet):
        prefixes = [IPv4Prefix(P1.network + (i << 8), 24) for i in range(800)]
        week1 = [fleet.select(p, T0 + timedelta(days=1)) for p in prefixes]
        week3 = [fleet.select(p, T0 + timedelta(days=15)) for p in prefixes]
        same = sum(1 for a, b in zip(week1, week3) if a == b) / len(prefixes)
        assert 0.15 < same < 0.40  # paper: ~0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnFleet(num_frontends=0, epoch=T0)
        with pytest.raises(ValueError):
            ChurnFleet(num_frontends=5, epoch=T0, stable_share=2.0)
        with pytest.raises(ValueError):
            ChurnFleet(num_frontends=5, epoch=T0, daily_change=-0.1)


class TestEcsMapper:
    def make_mapper(self, failure=0.0):
        fleet = ChurnFleet(num_frontends=50, epoch=T0, era="m")
        return EcsMapper(
            hostname="www.example.com",
            select=fleet.select,
            rng=random.Random(5),
            query_failure_probability=failure,
        ), fleet

    def test_measure_matches_fleet(self):
        mapper, fleet = self.make_mapper()
        prefixes = [IPv4Prefix(P1.network + (i << 8), 24) for i in range(40)]
        observations = mapper.measure(T0, prefixes)
        assert len(observations) == 40
        for prefix in prefixes:
            assert observations[str(prefix)] == fleet.select(prefix, T0)

    def test_failures_leave_gaps(self):
        mapper, _fleet = self.make_mapper(failure=0.5)
        prefixes = [IPv4Prefix(P1.network + (i << 8), 24) for i in range(100)]
        observations = mapper.measure(T0, prefixes)
        assert 20 < len(observations) < 80

    def test_no_passthrough_collapses_catchments(self):
        # A resolver that strips ECS answers for its own prefix: every
        # client appears to map to the same front end — the measurement
        # pitfall the method must avoid.
        mapper, _fleet = self.make_mapper()
        prefixes = [IPv4Prefix(P1.network + (i << 8), 24) for i in range(30)]
        observations = mapper.measure(T0, prefixes, ecs_passthrough=False)
        assert len(set(observations.values())) == 1

    def test_queries_counted(self):
        mapper, _fleet = self.make_mapper()
        prefixes = [IPv4Prefix(P1.network + (i << 8), 24) for i in range(10)]
        mapper.measure(T0, prefixes)
        assert mapper.queries_sent == 10

    def test_colliding_frontend_addresses_keep_their_labels(self):
        # Both labels hash to the same 24-bit address digest. With a /16
        # answer scope the third query is served from the resolver's
        # cache (the first answer's scope covers it), and that cached
        # address must still decode to the label it was issued for.
        chosen = {
            "10.0.0.0/24": "fe-g2024-0738",
            "10.1.0.0/24": "fe-g2024-0339",
            "10.0.1.0/24": "fe-g2024-0738",
        }
        mapper = EcsMapper(
            hostname="www.example.com",
            select=lambda prefix, _when: chosen[str(prefix)],
            rng=random.Random(5),
            scope_length=16,
        )
        observations = mapper.measure(T0, [parse_prefix(p) for p in chosen])
        assert observations == chosen
        assert len(mapper.address_to_label) == 2
