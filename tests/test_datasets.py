"""Scaled-down integration tests of every scenario generator.

Each paper dataset is generated at reduced size and its headline
qualitative property asserted — the full-scale versions live in
``benchmarks/``.
"""

from __future__ import annotations

import hashlib
import io
from collections import Counter
from datetime import datetime, timedelta

import numpy as np
import pytest

from repro.core import (
    Fenrir,
    detect_events,
    group_entries,
    phi,
    similarity_matrix,
    transition_matrix,
    validate_events,
)
from repro.datasets import broot, google, groot, groundtruth, usc, wikipedia
from repro.io.formats import write_series_jsonl


@pytest.fixture(scope="module")
def groot_study():
    return groot.generate(num_vps=500, coarse_interval=timedelta(hours=6))


@pytest.fixture(scope="module")
def broot_study():
    return broot.generate(num_blocks=800, cadence=timedelta(days=14))


@pytest.fixture(scope="module")
def usc_study():
    return usc.generate(num_blocks=400, cadence=timedelta(days=8))


@pytest.fixture(scope="module")
def wikipedia_study():
    return wikipedia.generate(num_prefixes=600, cadence=timedelta(days=2))


@pytest.fixture(scope="module")
def google_study():
    return google.generate(num_prefixes=500, cadence=timedelta(days=1))


@pytest.fixture(scope="module")
def gt_study():
    return groundtruth.generate(
        num_vps=300,
        days=40,
        num_drains=6,
        num_te=1,
        num_internal=12,
        num_coinciding=3,
        num_standalone=4,
        extra_log_entries=14,
    )


class TestGRoot:
    def test_str_drains_into_nap(self, groot_study):
        aggregates = groot_study.series.aggregate_over_time()
        str_series, nap_series = aggregates["STR"], aggregates["NAP"]
        drained = str_series < 10
        assert drained.any() and (~drained).any()
        # When STR drains, NAP inherits most of its catchment.
        assert nap_series[drained].mean() > nap_series[~drained].mean() * 1.5

    def test_final_mode_has_str_drained(self, groot_study):
        aggregates = groot_study.series.aggregate_over_time()
        assert aggregates["STR"][-1] < 10

    def test_zoom_transition_matrix_shape(self, groot_study):
        series = groot_study.zoom
        best = None
        for index in range(len(series) - 1):
            tm = transition_matrix(series[index], series[index + 1])
            flow = tm.count("STR", "NAP") + tm.count("STR", "err")
            if best is None or flow > best[0]:
                best = (flow, tm)
        assert best is not None and best[0] > 50  # the big drain step
        tm = best[1]
        assert tm.count("STR", "NAP") > tm.count("NAP", "STR")

    def test_hnl_is_micro_catchment(self, groot_study):
        aggregates = groot_study.series.aggregate_over_time()
        assert aggregates["HNL"].max() < 0.05 * len(groot_study.series.networks)


class TestBRoot:
    def test_about_half_unknown(self, broot_study):
        fraction = broot_study.series[0].fraction_unknown()
        assert 0.3 < fraction < 0.6

    def test_six_paperish_modes(self, broot_study):
        report = Fenrir().run(broot_study.series)
        assert 4 <= len(report.modes) <= 8

    def test_mode_v_resembles_mode_i(self, broot_study):
        report = Fenrir().run(broot_study.series)
        modes = report.modes
        # The mode covering early 2024 (TE withdrawn) resembles the
        # first mode more than it resembles its immediate predecessor.
        v_index = broot_study.series.index_at(datetime(2024, 2, 1))
        v_mode = modes.mode_at(v_index).mode_id
        prior = modes.closest_prior_mode(v_mode)
        assert prior is not None
        assert prior[0] == 0

    def test_ari_vanishes_after_shutdown(self, broot_study):
        before = broot_study.true_assignment(datetime(2022, 1, 1))
        after = broot_study.true_assignment(datetime(2023, 4, 1))
        assert "ARI" in set(before.values())
        assert "ARI" not in set(after.values())

    def test_collection_outage_gap(self, broot_study):
        for when in broot_study.sample_times:
            assert not (broot.OUTAGE_START <= when < broot.OUTAGE_END)

    def test_scl_low_latency_after_resume(self, broot_study):
        from repro.latency.model import RttModel

        model = RttModel(jitter_ms=0)
        assignment = broot_study.true_assignment(datetime(2024, 1, 1))
        rtts = model.table(
            assignment, broot_study.block_locations, broot_study.site_locations
        )
        scl_rtts = [
            rtts[n] for n, site in assignment.items() if site == "SCL" and n in rtts
        ]
        assert scl_rtts and float(np.median(scl_rtts)) < 120


class TestUsc:
    def test_two_modes_split_at_reconfiguration(self, usc_study):
        report = Fenrir().run(usc_study.series)
        assert len(report.modes) == 2
        timeline = report.modes.timeline()
        assert timeline[1][1] >= usc.RECONFIGURATION_DATE - timedelta(days=8)
        low, high = report.modes.phi_between(0, 1)
        assert high <= 0.35  # "at most 90% changed": huge shift

    def test_arn_a_dominates_before(self, usc_study):
        index = usc_study.series.index_at(datetime(2024, 10, 1))
        counts = Counter(usc_study.series[index].to_mapping().values())
        assert counts["ARN-A"] > 0.5 * len(usc_study.series.networks)

    def test_ntt_he_take_over_after(self, usc_study):
        index = usc_study.series.index_at(datetime(2025, 3, 1))
        counts = Counter(usc_study.series[index].to_mapping().values())
        assert counts["ARN-A"] < 30
        assert counts["NTT"] + counts["HE"] > 0.5 * len(usc_study.series.networks)

    def test_ann_vanishes_after(self, usc_study):
        index = usc_study.series.index_at(datetime(2025, 3, 1))
        counts = Counter(usc_study.series[index].to_mapping().values())
        assert counts["ANN"] < 10


class TestWikipedia:
    def test_three_modes(self, wikipedia_study):
        report = Fenrir().run(wikipedia_study.series)
        assert len(report.modes) == 3

    def test_codfw_drain_window(self, wikipedia_study):
        aggregates = wikipedia_study.series.aggregate_over_time()
        codfw = aggregates["codfw"]
        times = wikipedia_study.series.times
        during = [
            value
            for when, value in zip(times, codfw)
            if wikipedia.DRAIN_START <= when < wikipedia.DRAIN_END
        ]
        before = codfw[0]
        assert before > 50
        assert max(during, default=0) == 0

    def test_partial_return(self, wikipedia_study):
        aggregates = wikipedia_study.series.aggregate_over_time()
        codfw = aggregates["codfw"]
        after = codfw[-1]
        before = codfw[0]
        assert 0.15 * before < after < 0.55 * before  # ~30% return

    def test_drained_clients_split_eqiad_ulsfo(self, wikipedia_study):
        series = wikipedia_study.series
        pre = series.index_at(wikipedia.DRAIN_START - timedelta(days=1))
        during = series.index_at(wikipedia.DRAIN_START + timedelta(days=1))
        tm = transition_matrix(series[pre], series[during])
        departures = tm.departures_from("codfw")
        departures.pop("unknown", None)
        top = sorted(departures, key=departures.get, reverse=True)[:2]
        assert set(top) == {"eqiad", "ulsfo"}
        assert departures["eqiad"] > departures["ulsfo"]


class TestGoogle:
    def test_within_week_phi(self, google_study):
        sim = similarity_matrix(google_study.series)
        value = sim[20, 21]  # adjacent days inside the 2024 era
        assert 0.70 < value < 0.90

    def test_cross_week_phi(self, google_study):
        sim = similarity_matrix(google_study.series)
        value = sim[10, 24]
        assert 0.10 < value < 0.40

    def test_eras_share_nothing(self, google_study):
        sim = similarity_matrix(google_study.series)
        assert sim[0, 30] == pytest.approx(0.0, abs=0.01)
        assert sim[0, 1] > 0.5  # but 2013 era is self-similar day to day


class TestEcsGoldenSeries:
    """The EDNS-CS datasets byte for byte.

    Each digest is the sha256 of the ``write_series_jsonl`` bytes of one
    generated series. The sweep runs through the resolver, its cache
    and the ECS codec, so a substrate change that moves a single label
    of any prefix on any day changes the digest.
    """

    @staticmethod
    def digest(series) -> str:
        stream = io.StringIO()
        write_series_jsonl(series, stream)
        return hashlib.sha256(stream.getvalue().encode()).hexdigest()

    def test_google(self):
        series = google.generate(num_prefixes=200).series
        assert self.digest(series) == (
            "1b3efe3b8938ad4482c8e8d3530a921092032bdf37002853072bba21dc90109c"
        )

    def test_wikipedia(self):
        series = wikipedia.generate(num_prefixes=200, cadence=timedelta(days=2)).series
        assert self.digest(series) == (
            "36d301c5570ff3255a55540b4b256ba423a61b2782b635db7cb54d13a69de7be"
        )


class TestGroundTruth:
    def test_table4_confusion_matrix(self, gt_study):
        events = detect_events(gt_study.series, threshold=0.02, merge_gap=3)
        groups = group_entries(gt_study.log)
        report = validate_events(events, groups)
        assert report.recall == 1.0
        assert report.false_negative == 0
        assert report.true_positive == 7
        assert report.true_negative == 9
        assert report.false_positive == 3
        assert report.unmatched_detections == 4
        assert report.precision == pytest.approx(0.70, abs=0.05)
        assert report.accuracy == pytest.approx(0.84, abs=0.05)

    def test_log_grouping_counts(self, gt_study):
        groups = group_entries(gt_study.log)
        assert len(gt_study.log) == 33  # 19 seeds + 14 follow-ups
        assert len(groups) == 19
        assert sum(1 for g in groups if g.external) == 7

    def test_internal_events_have_no_routing_effect(self, gt_study):
        # Measure right before and right after an internal-only window
        # that has no coinciding third-party change.
        internal_only = [
            g
            for g in group_entries(gt_study.log)
            if not g.external
            and not any(
                abs((t - g.start).total_seconds()) < 1800
                for t in gt_study.third_party_times
            )
        ]
        assert internal_only
        group = internal_only[0]
        series = gt_study.series
        before = series.index_at(group.start - timedelta(minutes=15))
        after = min(before + 3, len(series) - 1)
        assert phi(series[before], series[after]) > 0.97


class TestBaltic:
    @pytest.fixture(scope="class")
    def baltic_study(self):
        from repro.datasets import baltic

        return baltic.generate(num_vantages=150, cadence=timedelta(days=2))

    def test_cable_cut_detected(self, baltic_study):
        report = Fenrir().run(baltic_study.series)
        assert len(report.modes) == 2
        assert len(report.events) == 1
        from repro.datasets import baltic

        assert report.events[0].end >= baltic.CABLE_CUT - timedelta(days=2)

    def test_diversity_collapses(self, baltic_study):
        from repro.controlplane.country import country_crossings, transit_diversity
        from repro.datasets import baltic

        before = country_crossings(
            baltic_study.collector.paths_at(baltic.CABLE_CUT - timedelta(days=3)),
            baltic_study.country_ases,
        )
        after = country_crossings(
            baltic_study.collector.paths_at(baltic.CABLE_CUT + timedelta(days=3)),
            baltic_study.country_ases,
        )
        assert transit_diversity(before) > 1.2
        assert transit_diversity(after) == 1.0
        assert all(c.outside_asn == baltic.CABLE_EAST for c in after)

    def test_country_stays_reachable(self, baltic_study):
        # The point of multihoming: the cut degrades, never partitions.
        from repro.datasets import baltic

        paths = baltic_study.collector.paths_at(baltic.CABLE_CUT + timedelta(days=3))
        assert len(paths) == len(baltic_study.collector.vantages)

    def test_detour_costs_latency(self, baltic_study):
        from repro.datasets import baltic
        from repro.latency.model import path_rtt_ms

        before_paths = baltic_study.collector.paths_at(
            baltic.CABLE_CUT - timedelta(days=3)
        )
        after_paths = baltic_study.collector.paths_at(
            baltic.CABLE_CUT + timedelta(days=3)
        )
        moved = [
            asn
            for asn, path in before_paths.items()
            if baltic.CABLE_WEST in path
        ]
        assert moved
        deltas = [
            path_rtt_ms(baltic_study.topology, after_paths[asn])
            - path_rtt_ms(baltic_study.topology, before_paths[asn])
            for asn in moved
        ]
        assert np.median(deltas) > 0
