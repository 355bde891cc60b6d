"""The offline workloads: analyze-studies and scenario-google.

Both run the paper's pipeline in this process, as ``repro analyze
--heatmap --events`` and ``repro demo google`` do, and repeat the timed
report until ``--seconds`` have passed, interleaved with set-up samples
(a fresh interpreter importing the pipeline). Peak memory comes from
one more fresh interpreter that runs one report and nothing else
(``analyze_once.py``).

The workload seed picks one of ``VARIANTS`` study seeds, and
``reference.json`` records, for every variant, the sha256 of the
generated series files and of the modes and events Fenrir finds, so
every run checks its outputs against a recording of the same study.
``record_reference.py`` rewrites that file.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.core.pipeline import Fenrir, FenrirReport
from repro.datasets import google
from repro.dns.edns import ClientSubnet
from repro.dns.message import DnsMessage
from repro.dns.resolver import RecursiveResolver
from repro.io import formats
from repro.net.trie import PrefixTrie
from repro.webmap.mapper import EcsMapper
from analyze_once import SIZES, VARIANTS, generate, render, study_seed
from common import Tally, host_speed, scale
from spans import Tracer, no_span

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
STUDIES = {"analyze-studies": ("broot", "usc"), "scenario-google": ("google",)}

IMPORTS = {
    "analyze-studies": "import repro.cli, repro.core.pipeline, repro.io.formats",
    "scenario-google": "import repro.cli, repro.core.pipeline, repro.datasets.google",
}


def parameters(workload: str, seed: int) -> dict:
    return {
        study: {
            "seed": study_seed(study, seed),
            **{key: str(value) for key, value in SIZES[study][1].items()},
        }
        for study in STUDIES[workload]
    }


def series_bytes(series) -> bytes:
    stream = io.StringIO()
    formats.write_series_jsonl(series, stream)
    return stream.getvalue().encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(report: FenrirReport) -> dict:
    """Digests of the modes and events a report found."""
    modes = [
        [mode_id, start.isoformat(), end.isoformat()]
        for mode_id, start, end in report.modes.timeline()
    ]
    events = [
        [e.start.isoformat(), e.end.isoformat(), e.start_index, e.end_index, repr(e.max_change)]
        for e in report.events
    ]
    return {
        "modes": sha256(json.dumps(modes).encode()),
        "events": sha256(json.dumps(events).encode()),
    }


def reference(workload: str, seed: int) -> dict:
    return json.loads(REFERENCE.read_text())[workload][str(seed % VARIANTS)]


def setup_sample(src: Path, workload: str) -> float:
    """Seconds until a fresh interpreter has imported the pipeline."""
    env = dict(os.environ, PYTHONPATH=str(src))
    code = IMPORTS[workload] + "; print('ready', flush=True)"
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        child.stdout.close()
        child.wait(timeout=60)
    if line.strip() != b"ready" or child.returncode != 0:
        raise RuntimeError("importing the pipeline failed in a fresh interpreter")
    return elapsed


def peak_rss_sample(src: Path, report: "Report") -> dict:
    """Peak memory of a fresh interpreter that runs one report only."""
    argv = [sys.executable, str(HERE / "analyze_once.py"), report.workload, str(report.seed)]
    argv += [str(path) for path in report.files.values()]
    result = subprocess.run(
        argv, capture_output=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120
    )
    if result.returncode != 0:
        raise RuntimeError(f"analyze_once.py failed: {result.stderr.decode()[-2000:]}")
    return json.loads(result.stdout.decode().splitlines()[-1])


class Report:
    """One timed report of a workload: input → rendered text."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.study = ""  # the study being reported, for per-study spans
        self.files: dict[str, Path] = {}
        if workload == "analyze-studies":
            for study in STUDIES[workload]:
                path = work / f"{study}.jsonl"
                path.write_bytes(series_bytes(generate(study, seed)))
                self.files[study] = path

    def run(self, span: Callable) -> tuple[float, float, dict[str, FenrirReport], str]:
        """Report every study once.

        Returns the wall seconds, the CPU seconds of this process (every
        thread, BLAS threads included), the reports and the text.
        """
        reports, texts, elapsed, cpu = {}, [], 0.0, 0.0
        for study in STUDIES[self.workload]:
            self.study = study
            started = time.perf_counter()
            cpu_started = time.process_time()
            with span("report"):
                if self.workload == "analyze-studies":
                    with self.files[study].open() as stream:
                        series = formats.read_series_jsonl(stream)
                else:
                    series = generate(study, self.seed)
                report = Fenrir().run(series)
                with span("core.render"):
                    text = render(
                        report,
                        heatmap=self.workload == "analyze-studies",
                        events=self.workload == "analyze-studies",
                    )
            elapsed += time.perf_counter() - started
            cpu += time.process_time() - cpu_started
            reports[study] = report
            texts.append(text)
        return elapsed, cpu, reports, "\n".join(texts)


def check_inputs(report: Report, expected: dict, tally: Tally) -> None:
    for study, path in report.files.items():
        tally.check(
            sha256(path.read_bytes()) == expected[study]["series"],
            f"{study} series file differs from the recording",
        )


def check_outputs(
    reports: dict[str, FenrirReport], text: str, expected: dict, first_text: Optional[str], tally: Tally
) -> None:
    for study, report in reports.items():
        found = digests(report)
        tally.check(found["modes"] == expected[study]["modes"], f"{study} modes differ")
        tally.check(found["events"] == expected[study]["events"], f"{study} events differ")
        if study == "google":
            tally.check(
                sha256(series_bytes(report.raw)) == expected[study]["series"],
                "google series differs from the recording",
            )
    if first_text is not None:
        tally.check(text == first_text, "rendered report changed between repetitions")


def run(workload: str, seed: int, seconds: float, src: Path, work: Path) -> tuple[dict, dict, Tally]:
    """The untraced run: report and set-up samples, interleaved."""
    expected = reference(workload, seed)
    tally = Tally()
    report = Report(workload, seed, work)
    check_inputs(report, expected, tally)
    report_s: list[float] = []
    cpu_s: list[float] = []
    setup_s: list[float] = []
    # Every report runs between two probes of the host's speed and is
    # expressed at the reference speed. Set-up samples stay raw: process
    # start-up barely follows the probe.
    speeds = [host_speed()]
    first_text = None
    deadline = time.perf_counter() + seconds
    while len(report_s) < 3 or time.perf_counter() < deadline:
        setup_s.append(setup_sample(src, workload))
        tally.attempted += 1
        elapsed, cpu, reports, text = report.run(no_span)
        speeds.append(host_speed())
        report_s.append(elapsed)
        cpu_s.append(cpu)
        check_outputs(reports, text, expected, first_text, tally)
        first_text = first_text or text
    scales = [scale(a, b) for a, b in zip(speeds, speeds[1:])]
    alone = peak_rss_sample(src, report)
    tally.check(
        alone["text_sha256"] == sha256(first_text.encode()),
        "the report alone rendered other text than in the benchmark",
    )
    rounds = sum(len(study.raw) for study in reports.values())
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "rounds_per_s": (
            statistics.median(rounds / (v * k) for v, k in zip(report_s, scales)), "1/s"
        ),
        "cpu_us_per_round": (
            statistics.median(v * k * 1e6 / rounds for v, k in zip(cpu_s, scales)), "us"
        ),
        "peak_rss_mb": (alone["peak_rss_mb"], "MiB"),
    }
    counts = {
        "reports": len(report_s),
        "rounds_per_report": rounds,
        "setup": len(setup_s),
        "report_s": statistics.median(v * k for v, k in zip(report_s, scales)),
        "raw": {
            "report_s": statistics.median(report_s),
            "rounds_per_s": rounds / statistics.median(report_s),
            "cpu_us_per_round": statistics.median(cpu_s) * 1e6 / rounds,
        },
        "report_s_by_sample": report_s,
        "cpu_s_by_sample": cpu_s,
        "host_speed_by_sample": speeds,
    }
    return metrics, counts, tally


@contextmanager
def traced_layers(tracer: Tracer, report: Report, counts: dict) -> Iterator[None]:
    """Install the timing wrappers of every offline layer.

    ``counts`` accumulates resolver queries and cache hits.
    """
    stage = Fenrir._stage

    @contextmanager
    def traced_stage(fenrir: Fenrir, name: str, observations: int) -> Iterator[None]:
        label = f"core.{name}.{report.study}" if name == "compare" else f"core.{name}"
        with tracer.span(label), stage(fenrir, name, observations):
            yield

    resolve = RecursiveResolver.resolve

    def traced_resolve(resolver: RecursiveResolver, query: DnsMessage) -> DnsMessage:
        hits = resolver.cache_hits
        tracer.enter("dns.resolve")
        try:
            return resolve(resolver, query)
        finally:
            tracer.exit()
            counts["queries"] += 1
            counts["hits"] += resolver.cache_hits - hits

    authoritative = EcsMapper._authoritative

    def traced_authoritative(mapper: EcsMapper, when):
        # The authoritative side of the sweep is the mapper's own code:
        # charge it to the webmap layer, not to the resolver calling it.
        return tracer.timed(authoritative(mapper, when), "webmap.measure")

    tracer.patch(Fenrir, "_stage", traced_stage)
    tracer.patch(RecursiveResolver, "resolve", traced_resolve)
    tracer.patch(EcsMapper, "_authoritative", traced_authoritative)
    tracer.wrap(formats, "read_series_jsonl", "io.load")
    tracer.wrap(EcsMapper, "measure", "webmap.measure")
    tracer.wrap(google, "generate", "datasets.generate")
    for owner, attribute in ((ClientSubnet, "encode"), (ClientSubnet, "decode"),
                             (DnsMessage, "encode"), (DnsMessage, "decode")):
        tracer.wrap(owner, attribute, "dns.wire")
    tracer.wrap(PrefixTrie, "insert", "net.trie")
    tracer.wrap(PrefixTrie, "covering", "net.trie")
    try:
        yield
    finally:
        tracer.unwrap()


#: The layers each workload's traced run reports, by span name.
LAYERS = {
    "analyze-studies": (
        "io.load", "core.clean", "core.weight", "core.compare.broot",
        "core.compare.usc", "core.cluster", "core.transition", "core.render",
    ),
    "scenario-google": (
        "datasets.generate", "webmap.measure", "dns.resolve", "dns.wire", "net.trie",
        "core.clean", "core.weight", "core.compare.google", "core.cluster",
        "core.transition", "core.render",
    ),
}


def metric_name(span_name: str) -> str:
    """``core.compare.usc`` -> ``core.compare_s.usc``; others get ``_s``."""
    if span_name.startswith("core.compare."):
        return "core.compare_s." + span_name.rsplit(".", 1)[1]
    return span_name + "_s"


def run_traced(
    workload: str, seed: int, seconds: float, src: Path, work: Path
) -> tuple[dict, dict, Tally]:
    """Alternate untraced and traced reports; per-layer self times."""
    expected = reference(workload, seed)
    tally = Tally()
    report = Report(workload, seed, work)
    check_inputs(report, expected, tally)
    tracer = Tracer()
    counts = {"queries": 0, "hits": 0}
    plain: list[float] = []
    traced = 0
    report.run(no_span)  # untimed: the first report also warms BLAS up
    deadline = time.perf_counter() + seconds
    while traced < 2 or time.perf_counter() < deadline:
        elapsed, _, reports, text = report.run(no_span)
        plain.append(elapsed)
        check_outputs(reports, text, expected, None, tally)
        with traced_layers(tracer, report, counts):
            _, _, reports, text = report.run(tracer.span)
        traced += 1
        check_outputs(reports, text, expected, None, tally)
    metrics = {
        metric_name(name): (tracer.self_time.get(name, 0.0) / traced, "s")
        for name in LAYERS[workload]
    }
    metrics["unattributed_s"] = (tracer.unattributed("report") / traced, "s")
    traced_s = tracer.root_time / traced
    metrics["trace.report_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - sum(plain) / len(plain), "s")
    if workload == "scenario-google":
        metrics["dns.queries"] = (counts["queries"] / traced, "count")
        metrics["dns.cache_hit_ratio"] = (counts["hits"] / max(1, counts["queries"]), "ratio")
    return metrics, {"traced_reports": traced}, tally
