"""The serve workload, ingest-churn, end to end.

A run is a sequence of cycles, repeated until ``--seconds`` have passed
and the ack p99 has ten samples beyond it. Each cycle interleaves every
kind of sample, so a host whose speed drifts during the run slows all
metrics alike:

1. set-up: spawn ``repro serve`` on an empty directory until it is
   ready, then create the monitors;
2. load: send the workload's fixed volume of rounds, closed loop, in
   ``SEGMENTS`` equal segments with a host-speed probe before, between
   and after them;
3. recovery: SIGKILL the server, then restart it on the directory the
   load left behind and check that every monitor answers with its
   acknowledged seq, ``RESTARTS`` times; the last restart also checks
   every monitor's timeline against an in-process OnlineFenrir.
"""

from __future__ import annotations

import asyncio
import shutil
import statistics
import time
from pathlib import Path

import gen
from common import Tally, connect, host_speed, percentile, request, scale
from load import run_load
from procs import Server, dir_bytes
from repro.serve import protocol

RESTARTS = 3
MIN_CYCLES = 3
#: Each load is cut in this many segments, probed around each one, so
#: the host-speed scale follows the host within a load.
SEGMENTS = 3
#: A p99 has at least ten samples beyond it only from 1000 samples on.
MIN_TAIL_SAMPLES = 1000
#: The server's default ``--snapshot-every``; the in-process replay of
#: the traced run checkpoints at the same cadence.
SNAPSHOT_EVERY = 1000


def setup_server(src: Path, data: Path, log: Path, workload: gen.Workload, tally: Tally) -> Server:
    server = Server(src, data, log)
    with connect(server.address) as sock:
        for name, frame in zip(workload.monitors, workload.create_frames):
            tally.check(request(sock, frame).get("ok") is True, f"create {name}")
    return server


def recover(src: Path, data: Path, log: Path, workload: gen.Workload, acked: int, tally: Tally) -> Server:
    """Restart on ``data``; every monitor must answer with ``acked`` rounds."""
    server = Server(src, data, log)
    with connect(server.address) as sock:
        for name in workload.monitors:
            frame = protocol.encode_frame({"cmd": "query", "id": 1, "monitor": name})
            response = request(sock, frame)
            tally.check(
                response.get("ok") is True
                and response.get("seq") == acked
                and response.get("rounds") == acked,
                f"recovered seq of {name}: {response.get('seq')} != {acked}",
            )
    return server


def check_timelines(server: Server, workload: gen.Workload, expected: dict, tally: Tally) -> None:
    with connect(server.address) as sock:
        for name in workload.monitors:
            frame = protocol.encode_frame({"cmd": "timeline", "id": 1, "monitor": name})
            response = request(sock, frame)
            tally.check(response.get("segments") == expected[name], f"timeline of {name}")


def summarize(samples: dict, raw: bool = False) -> tuple[dict, dict, dict]:
    """Metrics, serve-only figures and sample counts from a run's samples.

    The metrics are the end-to-end metrics every workload reports; the
    figures only a serve workload has (ack latency, recovery, journal
    size), which the metadata line records. Timings other than set-up
    are expressed at the reference host speed (each sample times the
    scale its probes measured) unless ``raw`` is set. Set-up is always
    raw: process start-up barely follows the probe, so scaling it would
    add the probe's swings to it.
    """
    loads = samples["loads"]  # one per load segment
    cycles = len(samples["setup_s"])
    load_scale = [1.0] * len(loads) if raw else samples["load_scale"]
    recover_scale = [1.0] * cycles if raw else samples["recover_scale"]
    acks = [ms * k for load, k in zip(loads, load_scale) for ms in load.ack_ms]
    throughput = [load.rounds / load.wall_s / k for load, k in zip(loads, load_scale)]
    cpu_us = [
        cpu * 1e6 / load.rounds * k for cpu, load, k in zip(samples["cpu_s"], loads, load_scale)
    ]
    setup_s = samples["setup_s"]
    recover_s = [
        r * k for restarts, k in zip(samples["recover_s"], recover_scale) for r in restarts
    ]
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "rounds_per_s": (statistics.median(throughput), "1/s"),
        "cpu_us_per_round": (statistics.median(cpu_us), "us"),
        "peak_rss_mb": (statistics.median(samples["rss_mb"]), "MiB"),
    }
    figures = {
        "ack_p50_ms": percentile(acks, 0.50),
        "ack_p99_ms": percentile(acks, 0.99),
        "recover_s": statistics.median(recover_s),
        "journal_bytes_per_round": (
            statistics.median(samples["journal_bytes"]) / samples["rounds_per_cycle"]
        ),
    }
    counts = {
        "cycles": len(setup_s),
        "segments": len(loads),
        "recover": len(recover_s),
        "acks": len(acks),
        "rounds": sum(load.rounds for load in loads),
        "rounds_per_s_by_segment": throughput,
    }
    return metrics, figures, counts


def run(kind: str, seed: int, seconds: float, src: Path, work: Path) -> tuple[dict, dict, Tally]:
    workload = gen.churn(seed)
    expected = gen.expected_timelines(workload)
    acked = len(workload.rounds[0])
    tally = Tally()
    log = work / "server.log"
    samples: dict = {
        key: []
        for key in (
            "setup_s", "recover_s", "loads", "cpu_s", "load_scale", "rss_mb", "journal_bytes"
        )
    }
    speeds: list[list[float]] = []  # each cycle's probes around its segments
    deadline = time.perf_counter() + seconds
    while (
        len(speeds) < MIN_CYCLES
        or time.perf_counter() < deadline
        or sum(len(load.ack_ms) for load in samples["loads"]) < MIN_TAIL_SAMPLES
    ):
        data = work / f"cycle-{len(speeds)}"
        started = time.perf_counter()
        server = setup_server(src, data, log, workload, tally)
        samples["setup_s"].append(time.perf_counter() - started)
        probes: list[float] = []
        cpu: list[float] = []

        def between() -> None:
            cpu.append(server.cpu_seconds())
            probes.append(host_speed())

        try:
            loads = asyncio.run(run_load(server.address, workload, SEGMENTS, between))
            samples["rss_mb"].append(server.peak_rss_mb())
        finally:
            server.kill()
        speeds.append(probes)
        samples["loads"] += loads
        samples["cpu_s"] += [after - before for before, after in zip(cpu, cpu[1:])]
        samples["load_scale"] += [scale(a, b) for a, b in zip(probes, probes[1:])]
        samples["journal_bytes"].append(dir_bytes(data))
        restarts = []
        for restart in range(RESTARTS):
            started = time.perf_counter()
            server = recover(src, data, log, workload, acked, tally)
            restarts.append(time.perf_counter() - started)
            if restart < RESTARTS - 1:
                server.kill()
                continue
            try:
                check_timelines(server, workload, expected, tally)
            finally:
                server.stop()
        samples["recover_s"].append(restarts)
        shutil.rmtree(data)
        for load in loads:
            tally.attempted += load.requests
            tally.failed += load.failed
            if load.failed:
                tally.problems.append(f"load: {load.failed} failed, {load.overloaded} overloaded")
    samples["rounds_per_cycle"] = acked * len(workload.monitors)
    # Each segment runs between two probes, the restarts just after the
    # cycle's last probe.
    samples["recover_scale"] = [scale(probes[-1]) for probes in speeds]
    metrics, figures, counts = summarize(samples)
    counts["serve"] = figures
    raw_metrics, raw_figures, _ = summarize(samples, raw=True)
    counts["raw"] = {name: value for name, (value, _) in raw_metrics.items()} | raw_figures
    counts["host_speed_by_cycle"] = speeds
    return metrics, counts, tally
